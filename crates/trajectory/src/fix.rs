//! Raw GPS fixes, traces and trip segmentation.
//!
//! The client app streams `(position, time, speed)` fixes to the
//! tracking store. Before any modelling, the stream is segmented into
//! *trips*: maximal runs of movement separated by dwells (engine off,
//! parked). Dwell detection is the first, cheapest compaction step the
//! paper's periodic batch job performs.

use pphcr_geo::{GeoPoint, TimePoint, TimeSpan};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Why a GPS fix failed validation.
///
/// GPS receivers on cold start emit coordinates off the ellipsoid and
/// speeds that are NaN, infinite, or negative; the paper's pipeline
/// must tolerate and name them rather than silently crunching garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidFix {
    /// Latitude/longitude non-finite or outside WGS-84 bounds.
    BadCoordinates,
    /// Reported speed is NaN or infinite.
    NonFiniteSpeed,
    /// Reported speed is negative.
    NegativeSpeed,
}

impl std::fmt::Display for InvalidFix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InvalidFix::BadCoordinates => "coordinates non-finite or out of WGS-84 bounds",
            InvalidFix::NonFiniteSpeed => "speed is not finite",
            InvalidFix::NegativeSpeed => "speed is negative",
        })
    }
}

impl std::error::Error for InvalidFix {}

/// One GPS fix from a listener's device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsFix {
    /// Position.
    pub point: GeoPoint,
    /// Acquisition time.
    pub time: TimePoint,
    /// Instantaneous speed reported by the device, meters/second.
    pub speed_mps: f64,
}

impl GpsFix {
    /// Creates a fix. Lenient: garbage values are accepted here and
    /// named by [`GpsFix::validate`] (receivers really do emit them, so
    /// construction must not panic).
    #[must_use]
    pub fn new(point: GeoPoint, time: TimePoint, speed_mps: f64) -> Self {
        GpsFix { point, time, speed_mps }
    }

    /// Checks coordinates and speed, naming the first problem found.
    ///
    /// # Errors
    /// The specific [`InvalidFix`] reason.
    pub fn validate(&self) -> Result<(), InvalidFix> {
        if !self.point.is_valid() {
            return Err(InvalidFix::BadCoordinates);
        }
        if !self.speed_mps.is_finite() {
            return Err(InvalidFix::NonFiniteSpeed);
        }
        if self.speed_mps < 0.0 {
            return Err(InvalidFix::NegativeSpeed);
        }
        Ok(())
    }
}

/// A time-ordered sequence of fixes from one device.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    fixes: Vec<GpsFix>,
}

impl Trace {
    /// Builds a trace from fixes, sorting them by time.
    #[must_use]
    pub fn from_fixes(mut fixes: Vec<GpsFix>) -> Self {
        fixes.sort_by_key(|f| f.time);
        Trace { fixes }
    }

    /// Appends a fix. Out-of-order fixes (device clock skew, late
    /// uploads) are inserted at their timestamp position. Returns
    /// `true` when the fix went to the end, so every earlier fix kept
    /// its index, and `false` when it was inserted before a later one.
    pub fn push(&mut self, fix: GpsFix) -> bool {
        match self.fixes.last() {
            Some(last) if last.time > fix.time => {
                let idx = self.fixes.partition_point(|f| f.time <= fix.time);
                self.fixes.insert(idx, fix);
                false
            }
            _ => {
                self.fixes.push(fix);
                true
            }
        }
    }

    /// The fixes, oldest first.
    #[must_use]
    pub fn fixes(&self) -> &[GpsFix] {
        &self.fixes
    }

    /// Number of fixes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fixes.len()
    }

    /// True when the trace holds no fixes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fixes.is_empty()
    }

    /// Time covered by the trace (first to last fix).
    #[must_use]
    pub fn duration(&self) -> TimeSpan {
        match (self.fixes.first(), self.fixes.last()) {
            (Some(a), Some(b)) => b.time.since(a.time),
            _ => TimeSpan::ZERO,
        }
    }
}

/// Path length of `fixes` in meters (sum of haversine hops).
#[must_use]
pub fn length_m(fixes: &[GpsFix]) -> f64 {
    fixes.windows(2).map(|w| w[0].point.haversine_m(w[1].point)).sum()
}

/// Mean of the reported instantaneous speeds of `fixes`, m/s (0 when
/// empty).
#[must_use]
pub fn mean_speed_mps(fixes: &[GpsFix]) -> f64 {
    if fixes.is_empty() {
        return 0.0;
    }
    fixes.iter().map(|f| f.speed_mps).sum::<f64>() / fixes.len() as f64
}

/// Splits a trace into trips separated by dwells.
///
/// A *dwell* is a maximal run of fixes that stays within
/// `dwell_radius_m` of its first fix for at least `min_dwell`. Runs of
/// movement between dwells (and before the first / after the last) are
/// returned as trips, provided they contain at least `min_trip_fixes`
/// fixes.
#[derive(Debug, Clone, Copy)]
pub struct TripSegmenter {
    /// Radius within which the device counts as stationary.
    pub dwell_radius_m: f64,
    /// Minimum stationary time to end a trip.
    pub min_dwell: TimeSpan,
    /// Minimum fixes for a segment to count as a trip.
    pub min_trip_fixes: usize,
    /// Fixes faster than this can never belong to a dwell, even inside
    /// the dwell radius — the first driving fix after a parked night
    /// must open the trip, not extend the dwell.
    pub max_dwell_speed_mps: f64,
}

impl Default for TripSegmenter {
    fn default() -> Self {
        TripSegmenter {
            dwell_radius_m: 80.0,
            min_dwell: TimeSpan::minutes(5),
            min_trip_fixes: 4,
            max_dwell_speed_mps: 3.0,
        }
    }
}

impl TripSegmenter {
    /// Segments `trace` into trips, each the index range of its fixes
    /// in `trace.fixes()`, in order.
    #[must_use]
    pub fn segment(&self, trace: &Trace) -> Vec<Range<usize>> {
        let fixes = trace.fixes();
        if fixes.is_empty() {
            return Vec::new();
        }
        // Mark each fix as dwelling or moving by scanning anchored runs.
        let mut dwelling = vec![false; fixes.len()];
        let mut i = 0;
        while i < fixes.len() {
            let anchor = fixes[i];
            if anchor.speed_mps > self.max_dwell_speed_mps {
                i += 1;
                continue;
            }
            let mut j = i;
            while j + 1 < fixes.len()
                && fixes[j + 1].speed_mps <= self.max_dwell_speed_mps
                && fixes[j + 1].point.haversine_m(anchor.point) <= self.dwell_radius_m
            {
                j += 1;
            }
            if fixes[j].time.since(anchor.time) >= self.min_dwell {
                for d in dwelling.iter_mut().take(j + 1).skip(i) {
                    *d = true;
                }
            }
            i = j.max(i) + 1;
        }
        // Collect maximal moving runs as trips.
        let mut trips = Vec::new();
        let mut start = 0;
        for (i, &is_dwell) in dwelling.iter().enumerate() {
            if is_dwell {
                if i - start >= self.min_trip_fixes {
                    trips.push(start..i);
                }
                start = i + 1;
            }
        }
        if fixes.len() - start >= self.min_trip_fixes {
            trips.push(start..fixes.len());
        }
        trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME: GeoPoint = GeoPoint { lat: 45.07, lon: 7.68 };

    fn moving_fix(i: u64, meters_per_step: f64) -> GpsFix {
        let p = HOME.destination(90.0, i as f64 * meters_per_step);
        GpsFix::new(p, TimePoint(i * 30), meters_per_step / 30.0)
    }

    #[test]
    fn push_keeps_time_order() {
        let mut t = Trace::default();
        assert!(t.push(GpsFix::new(HOME, TimePoint(100), 0.0)));
        assert!(!t.push(GpsFix::new(HOME, TimePoint(50), 0.0)));
        assert!(!t.push(GpsFix::new(HOME, TimePoint(75), 0.0)));
        assert!(t.push(GpsFix::new(HOME, TimePoint(100), 0.0)), "a tie goes to the end");
        let times: Vec<u64> = t.fixes().iter().map(|f| f.time.seconds()).collect();
        assert_eq!(times, vec![50, 75, 100, 100]);
    }

    #[test]
    fn from_fixes_sorts() {
        let t = Trace::from_fixes(vec![
            GpsFix::new(HOME, TimePoint(9), 0.0),
            GpsFix::new(HOME, TimePoint(1), 0.0),
        ]);
        assert_eq!(t.fixes()[0].time, TimePoint(1));
    }

    #[test]
    fn duration_and_length() {
        let t = Trace::from_fixes((0..10).map(|i| moving_fix(i, 100.0)).collect());
        assert_eq!(t.duration(), TimeSpan::seconds(270));
        assert!((length_m(t.fixes()) - 900.0).abs() < 1.0);
        assert!(mean_speed_mps(t.fixes()) > 3.0);
    }

    #[test]
    fn empty_trace_metrics_are_zero() {
        let t = Trace::default();
        assert_eq!(t.duration(), TimeSpan::ZERO);
        assert_eq!(length_m(t.fixes()), 0.0);
        assert_eq!(mean_speed_mps(t.fixes()), 0.0);
    }

    #[test]
    fn validate_rejects_garbage() {
        assert_eq!(GpsFix::new(HOME, TimePoint(0), 1.0).validate(), Ok(()));
        let nan = GpsFix::new(GeoPoint::new(f64::NAN, 7.0), TimePoint(1), 1.0);
        assert_eq!(nan.validate(), Err(InvalidFix::BadCoordinates));
        let inf = GpsFix::new(HOME, TimePoint(2), f64::INFINITY);
        assert_eq!(inf.validate(), Err(InvalidFix::NonFiniteSpeed));
        let negative = GpsFix::new(HOME, TimePoint(3), -2.0);
        assert_eq!(negative.validate(), Err(InvalidFix::NegativeSpeed));
    }

    /// Drive 15 min, park 10 min, drive 15 min: two trips.
    #[test]
    fn segmenter_splits_on_dwell() {
        let mut fixes = Vec::new();
        // Trip 1: eastbound, 30 fixes at 30 s / 300 m apart.
        for i in 0..30u64 {
            fixes.push(GpsFix::new(
                HOME.destination(90.0, i as f64 * 300.0),
                TimePoint(i * 30),
                10.0,
            ));
        }
        let parked_at = HOME.destination(90.0, 29.0 * 300.0);
        // Dwell: 20 fixes over 10 minutes, all within 5 m.
        for i in 0..20u64 {
            fixes.push(GpsFix::new(parked_at, TimePoint(900 + i * 30), 0.0));
        }
        // Trip 2: northbound.
        for i in 0..30u64 {
            fixes.push(GpsFix::new(
                parked_at.destination(0.0, i as f64 * 300.0),
                TimePoint(1500 + i * 30),
                10.0,
            ));
        }
        let trace = Trace::from_fixes(fixes);
        let trips = TripSegmenter::default().segment(&trace);
        assert_eq!(trips.len(), 2);
        assert!(length_m(&trace.fixes()[trips[0].clone()]) > 8_000.0);
        assert!(length_m(&trace.fixes()[trips[1].clone()]) > 8_000.0);
        // The dwell fixes belong to neither trip.
        assert!(trips.iter().all(|t| trace.fixes()[t.clone()].iter().all(|f| f.speed_mps > 0.0)));
    }

    #[test]
    fn segmenter_all_dwelling_yields_no_trips() {
        let fixes: Vec<GpsFix> =
            (0..40).map(|i| GpsFix::new(HOME, TimePoint(i * 30), 0.0)).collect();
        assert!(TripSegmenter::default().segment(&Trace::from_fixes(fixes)).is_empty());
    }

    #[test]
    fn segmenter_short_segments_are_discarded() {
        // 3 moving fixes only (below min_trip_fixes = 4).
        let fixes: Vec<GpsFix> = (0..3).map(|i| moving_fix(i, 400.0)).collect();
        assert!(TripSegmenter::default().segment(&Trace::from_fixes(fixes)).is_empty());
    }

    #[test]
    fn segmenter_empty_trace() {
        assert!(TripSegmenter::default().segment(&Trace::default()).is_empty());
    }

    #[test]
    fn single_continuous_drive_is_one_trip() {
        let fixes: Vec<GpsFix> = (0..60).map(|i| moving_fix(i, 250.0)).collect();
        let trips = TripSegmenter::default().segment(&Trace::from_fixes(fixes));
        assert_eq!(trips, vec![0..60]);
    }
}
