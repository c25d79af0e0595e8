//! Property tests for histogram merging and the wire round-trip: the
//! algebra the process-based bench harness depends on when it combines
//! per-agent histograms in whatever order the agents exited.

use pphcr_obs::Histogram;
use proptest::prelude::*;

fn from_values(values: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #[test]
    fn merge_is_commutative(
        a in prop::collection::vec(0u64..u64::MAX, 0..64),
        b in prop::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let (ha, hb) = (from_values(&a), from_values(&b));
        let mut ab = ha.clone();
        ab.merge_from(&hb);
        let mut ba = hb.clone();
        ba.merge_from(&ha);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count(), (a.len() + b.len()) as u64);
    }

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0u64..1_000_000u64, 0..32),
        b in prop::collection::vec(0u64..1_000_000u64, 0..32),
        c in prop::collection::vec(0u64..1_000_000u64, 0..32),
    ) {
        let (ha, hb, hc) = (from_values(&a), from_values(&b), from_values(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge_from(&hb);
        left.merge_from(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge_from(&hc);
        let mut right = ha.clone();
        right.merge_from(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_equals_recording_everything_in_one_histogram(
        a in prop::collection::vec(0u64..u64::MAX, 0..48),
        b in prop::collection::vec(0u64..u64::MAX, 0..48),
    ) {
        let mut merged = from_values(&a);
        merged.merge_from(&from_values(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        prop_assert_eq!(merged, from_values(&all));
    }

    #[test]
    fn wire_round_trip_is_identity(
        values in prop::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let h = from_values(&values);
        let back = Histogram::from_wire_value(&pphcr_obs::json::parse(&h.to_wire_json()).unwrap());
        prop_assert_eq!(back, Some(h));
    }

    #[test]
    fn quantiles_are_monotone_in_q(
        values in prop::collection::vec(0u64..u64::MAX, 1..64),
    ) {
        let h = from_values(&values);
        let p50 = h.quantile_upper_bound(0.50).unwrap();
        let p95 = h.quantile_upper_bound(0.95).unwrap();
        let p99 = h.quantile_upper_bound(0.99).unwrap();
        prop_assert!(p50 <= p95 && p95 <= p99);
        // The q=1 bound brackets the true maximum within its bucket.
        let max = *values.iter().max().unwrap();
        let top = h.quantile_upper_bound(1.0).unwrap();
        prop_assert!(top >= max);
        let i = Histogram::bucket_index(top);
        prop_assert!(i == 0 || Histogram::bucket_upper_bound(i - 1) < max);
    }
}
