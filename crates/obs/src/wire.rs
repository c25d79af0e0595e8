//! Single-line JSON wire format for [`Histogram`]s.
//!
//! The process-based bench harness runs release-built agent processes
//! that each summarize their observations as one line of JSON on
//! stdout; the orchestrator parses those lines and merges the
//! histograms. This module owns the histogram fragment of that
//! protocol so encode and decode live next to the struct they
//! serialize — and stay dependency-free like the rest of the crate.
//!
//! The format is sparse and exact:
//!
//! ```text
//! {"count":5,"sum":1030,"buckets":[[0,1],[1,1],[2,2],[11,1]]}
//! ```
//!
//! `buckets` holds `(bucket index, count)` pairs for non-empty buckets
//! in ascending index order. Decoding reads through [`crate::json`]
//! with the key order fixed and integers digits-only, then validates
//! through [`Histogram::from_parts`], so a tampered line (bucket
//! counts that do not sum to `count`, out-of-range indexes) decodes to
//! `None` rather than a silently-wrong histogram. Merging decoded histograms
//! is exact integer addition — commutative and associative — which is
//! what makes per-agent histograms safe to combine in any order.

use crate::json::JsonValue;
use crate::registry::Histogram;
use std::fmt::Write as _;

impl Histogram {
    /// Encodes the histogram as a single-line JSON object.
    #[must_use]
    pub fn to_wire_json(&self) -> String {
        let mut out = String::with_capacity(64);
        // Writing to a String cannot fail; `let _` keeps this panic-free.
        let _ = write!(out, "{{\"count\":{},\"sum\":{},\"buckets\":[", self.count(), self.sum());
        for (k, (i, c)) in self.nonzero_buckets().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{i},{c}]");
        }
        out.push_str("]}");
        out
    }

    /// Decodes a histogram from an already-parsed wire object, as
    /// embedded in a larger document.
    #[must_use]
    pub fn from_wire_value(value: &JsonValue) -> Option<Histogram> {
        let [count, sum, buckets] = value.fields(["count", "sum", "buckets"])?;
        let nonzero = buckets
            .as_arr()?
            .iter()
            .map(|pair| match pair.as_arr()? {
                [index, c] => Some((usize::try_from(index.as_u64()?).ok()?, c.as_u64()?)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        Histogram::from_parts(count.as_u64()?, sum.as_u64()?, nonzero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn from_wire_json(input: &str) -> Option<Histogram> {
        Histogram::from_wire_value(&json::parse(input).ok()?)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1024, u64::MAX] {
            h.record(v);
        }
        let line = h.to_wire_json();
        assert!(!line.contains('\n'), "wire format is single-line: {line}");
        let back = from_wire_json(&line).expect("round trip");
        assert_eq!(back, h);
    }

    #[test]
    fn empty_histogram_round_trips() {
        let h = Histogram::default();
        assert_eq!(h.to_wire_json(), "{\"count\":0,\"sum\":0,\"buckets\":[]}");
        assert_eq!(from_wire_json(&h.to_wire_json()), Some(h));
    }

    #[test]
    fn golden_line_is_stable() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(
            h.to_wire_json(),
            "{\"count\":5,\"sum\":1030,\"buckets\":[[0,1],[1,1],[2,2],[11,1]]}"
        );
    }

    #[test]
    fn saturated_sum_survives_the_wire() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        let back = from_wire_json(&h.to_wire_json()).expect("round trip");
        assert_eq!(back.sum(), u64::MAX);
        assert_eq!(back.count(), 2);
        assert_eq!(back.quantile_upper_bound(0.99), Some(u64::MAX));
    }

    #[test]
    fn tampered_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"count\":2,\"sum\":0,\"buckets\":[]}", // counts don't add up
            "{\"count\":1,\"sum\":0,\"buckets\":[[99,1]]}", // bucket out of range
            "{\"count\":1,\"sum\":0,\"buckets\":[[0,1]]} junk", // trailing garbage
            "{\"sum\":0,\"count\":1,\"buckets\":[[0,1]]}", // reordered keys
            "{\"count\":-1,\"sum\":0,\"buckets\":[]}", // negative
            "{\"count\":1.5,\"sum\":0,\"buckets\":[]}", // non-integer
        ] {
            assert_eq!(from_wire_json(bad), None, "should reject: {bad}");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let line = " { \"count\" : 1 , \"sum\" : 7 , \"buckets\" : [ [ 3 , 1 ] ] } ";
        let h = from_wire_json(line).expect("whitespace ok");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 7);
    }
}
