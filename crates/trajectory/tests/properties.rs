//! Property tests for incremental compaction: a model compacted from
//! the previous model of a trace prefix equals one built from scratch.

use pphcr_geo::{GeoPoint, LocalProjection, TimePoint};
use pphcr_trajectory::model::ModelConfig;
use pphcr_trajectory::{GpsFix, MobilityModel, Trace};
use proptest::prelude::*;

const HOME: GeoPoint = GeoPoint { lat: 45.07, lon: 7.68 };

/// Offsets from an anchor, meters: on and either side of DBSCAN's
/// 60 m ε and the segmenter's 80 m dwell radius, plus walks and drives.
const OFFSETS_M: [f64; 11] = [0.0, 20.0, 59.9, 60.0, 60.1, 79.9, 80.0, 80.1, 140.0, 600.0, 3_000.0];

/// Reported speeds, m/s: on and either side of the 1.5 m/s stay-point
/// cut and the 3.0 m/s dwell cut, plus 1.0 and 2.5 and driving speeds.
const SPEEDS_MPS: [f64; 12] = [0.0, 0.5, 1.0, 1.49, 1.5, 1.51, 2.5, 2.99, 3.0, 3.01, 7.5, 14.0];

/// Gaps to the previous fix, seconds: on and either side of the
/// 5-minute minimum dwell and the 30-minute visit gap.
const GAPS_S: [u64; 10] = [0, 10, 30, 60, 299, 300, 301, 1_799, 1_800, 1_801];

/// One step of a fix stream: `(anchor, offset, bearing, (speed, gap,
/// late, compact))`. Anchors 0–2 are fixed places; 3–5 are the
/// previous fix, so runs of fixes stay put long enough to dwell.
/// `late` below 2 (one step in eight) stamps the fix before the
/// previous one, an out-of-order insert. `compact` below 3 compacts
/// after the step, so some compactions see several appended fixes.
type Step = (usize, usize, f64, (usize, usize, u8, u8));

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let fix = (0usize..SPEEDS_MPS.len(), 0usize..GAPS_S.len(), 0u8..16, 0u8..5);
    prop::collection::vec((0usize..6, 0usize..OFFSETS_M.len(), 0.0f64..360.0, fix), 1..200)
}

proptest! {
    /// At every compaction along an arbitrary stream of appends and
    /// late inserts, the model compacted from the last one equals
    /// `build` from scratch: stay points, trips and profiles. A late
    /// insert drops the last model, as the tracking store does.
    #[test]
    fn incremental_compaction_equals_build(steps in arb_steps()) {
        let proj = LocalProjection::new(HOME);
        let cfg = ModelConfig::default();
        let anchors = [HOME, HOME.destination(80.0, 9_000.0), HOME.destination(200.0, 2_500.0)];
        let mut trace = Trace::default();
        let mut last: Option<MobilityModel> = None;
        let (mut at, mut now) = (HOME, 0u64);
        for (i, &(anchor, offset, bearing, (speed, gap, late, compact))) in steps.iter().enumerate() {
            let from = if anchor < anchors.len() { anchors[anchor] } else { at };
            at = from.destination(bearing, OFFSETS_M[offset]);
            let time = if late < 2 {
                now.saturating_sub(GAPS_S[gap] + 1)
            } else {
                now += GAPS_S[gap];
                now
            };
            if !trace.push(GpsFix::new(at, TimePoint(time), SPEEDS_MPS[speed])) {
                last = None;
            }
            if compact >= 3 {
                continue;
            }
            let model = MobilityModel::compact(last.take(), &trace, &proj, &cfg);
            let scratch = MobilityModel::build(&trace, &proj, &cfg);
            prop_assert_eq!(model.fix_count(), trace.len());
            prop_assert!(model.stay_points == scratch.stay_points, "stay points differ at step {}", i);
            prop_assert!(model.trips == scratch.trips, "trips differ at step {}", i);
            prop_assert!(model.profiles == scratch.profiles, "profiles differ at step {}", i);
            last = Some(model);
        }
    }
}
