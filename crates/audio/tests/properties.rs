//! Property-based tests for the audio substrate.

use pphcr_audio::source::{AudioSource, ClipSource, LiveSource, ANCHOR_SPACING};
use pphcr_audio::splice::{PlannedSegment, SegmentSource, SplicePlan};
use pphcr_audio::{Bitrate, TimeShiftBuffer};
use pphcr_geo::TimeSpan;
use proptest::prelude::*;

proptest! {
    /// Every source sample is in [-1, 1] and deterministic.
    #[test]
    fn sources_bounded_and_deterministic(service in 0u32..64, pos in 0u64..10_000_000) {
        let s = LiveSource::new(service);
        let v = s.sample(pos);
        prop_assert!((-1.0..=1.0).contains(&v));
        prop_assert_eq!(v, LiveSource::new(service).sample(pos));
    }

    /// Within one source, adjacent samples never jump more than the
    /// value-noise slope bound.
    #[test]
    fn sources_are_smooth(service in 0u32..64, pos in 0u64..1_000_000) {
        let s = LiveSource::new(service);
        let step = (s.sample(pos + 1) - s.sample(pos)).abs();
        prop_assert!(step <= 2.0 / ANCHOR_SPACING as f32 + 1e-6);
    }

    /// Clips are silent exactly from their end onwards.
    #[test]
    fn clips_end_cleanly(len in 1u64..100_000, probe in 0u64..200_000) {
        let c = ClipSource::new(5, len);
        if probe >= len {
            prop_assert_eq!(c.sample(probe), 0.0);
        }
    }

    /// Bitrate byte accounting is monotone in both rate and duration,
    /// and additive in duration (up to the ceil rounding of each term).
    #[test]
    fn bitrate_monotone_additive(kbps in 1u64..512, s1 in 0u64..100_000, s2 in 0u64..100_000) {
        let r = Bitrate(kbps * 1_000);
        let b1 = r.bytes_for(TimeSpan::seconds(s1));
        let b2 = r.bytes_for(TimeSpan::seconds(s2));
        let both = r.bytes_for(TimeSpan::seconds(s1 + s2));
        prop_assert!(both + 1 >= b1 + b2);
        prop_assert!(both <= b1 + b2 + 1);
        if s1 <= s2 {
            prop_assert!(b1 <= b2);
        }
    }

    /// Time-shift reads equal the source for every valid window.
    #[test]
    fn timeshift_window_reads_exact(
        cap in 64usize..4_096,
        recorded in 1u64..20_000,
        offset_frac in 0.0f64..1.0,
    ) {
        let live = LiveSource::new(3);
        let mut buf = TimeShiftBuffer::new(live.id(), cap, 0);
        buf.record_until(&live, recorded);
        let window = buf.newest() - buf.oldest();
        prop_assume!(window >= 8);
        let len = 8usize;
        let start = buf.oldest() + ((window - len as u64) as f64 * offset_frac) as u64;
        let mut out = vec![0.0f32; len];
        buf.read(start, &mut out).unwrap();
        for (i, &v) in out.iter().enumerate() {
            prop_assert_eq!(v, live.sample(start + i as u64));
        }
        // Retention never exceeds capacity.
        prop_assert!(buf.len() <= cap);
    }

    /// Seam statistics: with fades the worst seam jump never exceeds
    /// the fade's theoretical envelope bound.
    #[test]
    fn fade_bounds_seam_jump(fade in 16u32..400, seg_len in 1_000u64..8_000) {
        prop_assume!(u64::from(fade) * 2 < seg_len);
        let plan = SplicePlan::new(
            vec![
                PlannedSegment { start: 0, end: seg_len, source: SegmentSource::Live(LiveSource::new(1)) },
                PlannedSegment {
                    start: seg_len,
                    end: seg_len * 2,
                    source: SegmentSource::Clip { source: ClipSource::new(9, seg_len), offset: 0 },
                },
            ],
            fade,
        ).unwrap();
        let (_, stats) = plan.render(0, seg_len * 2);
        prop_assert_eq!(stats.seams, 1);
        // Envelope slope bound (2 / fade) plus the intra-source slope.
        let bound = 2.0 / fade as f32 + 2.0 / ANCHOR_SPACING as f32 + 1e-3;
        prop_assert!(stats.max_seam_jump <= bound, "{} > {}", stats.max_seam_jump, bound);
    }
}
