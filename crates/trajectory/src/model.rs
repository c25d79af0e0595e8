//! The compact, discrete mobility model.
//!
//! The paper's batch job compacts raw GPS into a model that "describes
//! destination, trajectory, speed, frequency, time of the day and
//! complexity". Here:
//!
//! * destinations — [`StayPoint`]s (from [`crate::dbscan`]),
//! * trajectory — the RDP-simplified geometry per trip,
//! * speed — per-trip mean speed,
//! * frequency — visit counts per origin→destination [`RouteProfile`],
//! * time of the day — departure-hour histograms,
//! * complexity — the RDP turn-density metric.

use crate::dbscan::{stay_points, DbscanParams, StayPoint};
use crate::fix::{length_m, mean_speed_mps, Trace, TripSegmenter};
use crate::rdp::{simplify, trajectory_complexity};
use pphcr_geo::{LocalProjection, ProjectedPoint, TimePoint, TimeSpan};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;

/// A compacted trip: the discrete summary the tracking DB keeps instead
/// of the raw fixes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TripSummary {
    /// Index of the trip in chronological order.
    pub id: u32,
    /// Staying point the trip departed from, if one is near the start.
    pub origin: Option<u32>,
    /// Staying point the trip arrived at, if one is near the end.
    pub destination: Option<u32>,
    /// Departure time.
    pub start: TimePoint,
    /// Arrival time.
    pub end: TimePoint,
    /// Path length, meters.
    pub length_m: f64,
    /// Mean reported speed, m/s.
    pub mean_speed_mps: f64,
    /// RDP turn-density complexity of the trip.
    pub complexity: f64,
    /// RDP-simplified geometry in the projected frame.
    pub geometry: Vec<ProjectedPoint>,
}

impl TripSummary {
    /// Trip duration.
    #[must_use]
    pub fn duration(&self) -> TimeSpan {
        self.end.since(self.start)
    }

    /// Departure hour of day (0–23).
    #[must_use]
    pub fn departure_hour(&self) -> u64 {
        self.start.hour_of_day()
    }
}

/// Aggregate statistics for one origin→destination pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteProfile {
    /// Origin staying point.
    pub origin: u32,
    /// Destination staying point.
    pub destination: u32,
    /// How many recorded trips took this route (the "frequency" feature).
    pub trip_count: usize,
    /// Mean trip duration, seconds.
    pub mean_duration_s: f64,
    /// Standard deviation of trip duration, seconds.
    pub std_duration_s: f64,
    /// Mean path length, meters.
    pub mean_length_m: f64,
    /// Mean complexity.
    pub mean_complexity: f64,
    /// Departure-hour histogram (24 bins).
    pub hour_histogram: [u32; 24],
    /// Geometry of the most recent trip on this route.
    pub representative: Vec<ProjectedPoint>,
}

impl RouteProfile {
    /// Probability-like affinity of a departure at `hour` (Laplace
    /// smoothed so unseen hours keep a small mass).
    #[must_use]
    pub fn hour_affinity(&self, hour: u64) -> f64 {
        let total: u32 = self.hour_histogram.iter().sum();
        (f64::from(self.hour_histogram[(hour % 24) as usize]) + 1.0) / (f64::from(total) + 24.0)
    }

    /// Mean duration as a [`TimeSpan`] (rounded to seconds).
    #[must_use]
    pub fn mean_duration(&self) -> TimeSpan {
        TimeSpan::seconds(self.mean_duration_s.round().max(0.0) as u64)
    }
}

/// Configuration for building a [`MobilityModel`].
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Trip segmentation parameters.
    pub segmenter: TripSegmenter,
    /// Staying-point clustering parameters.
    pub dbscan: DbscanParams,
    /// Fixes faster than this do not contribute to staying points, m/s.
    pub stay_max_speed_mps: f64,
    /// A trip endpoint within this distance of a staying point is
    /// attached to it, meters.
    pub attach_radius_m: f64,
    /// RDP tolerance for trip geometry, meters.
    pub rdp_epsilon_m: f64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            segmenter: TripSegmenter::default(),
            dbscan: DbscanParams::default(),
            stay_max_speed_mps: 1.5,
            attach_radius_m: 250.0,
            rdp_epsilon_m: 15.0,
        }
    }
}

/// The compact mobility model for one listener.
///
/// A model remembers which prefix of the trace it was compacted from
/// and where that prefix's trips lie, so the next compaction of the
/// grown trace can reuse its work (see [`MobilityModel::compact`]).
/// That memo is O(stays + trips), never O(fixes).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MobilityModel {
    /// Significant places, ordered by total dwell (longest first).
    pub stay_points: Vec<StayPoint>,
    /// Compacted trips, chronological.
    pub trips: Vec<TripSummary>,
    /// Aggregates per (origin, destination) staying-point pair.
    pub profiles: HashMap<(u32, u32), RouteProfile>,
    /// Fixes of the trace prefix this model was compacted from.
    fixes: usize,
    /// Of those, the fixes slow enough to count for stay points.
    slow_fixes: usize,
    /// The fix-index range of each of `trips`.
    trip_ranges: Vec<Range<usize>>,
}

impl MobilityModel {
    /// Builds the model from a raw trace: segmentation → staying points
    /// → per-trip compaction → route aggregation. This is the paper's
    /// "periodically process and simplify" batch job, with no earlier
    /// model to reuse.
    #[must_use]
    pub fn build(trace: &Trace, proj: &LocalProjection, cfg: &ModelConfig) -> Self {
        MobilityModel::compact(None, trace, proj, cfg)
    }

    /// Compacts `trace`, reusing what `prev` already compacted. `prev`
    /// must have been compacted with `cfg` from a prefix of `trace`:
    /// the tracking store keeps a listener's model only while fixes are
    /// appended. The result equals [`MobilityModel::build`] of `trace`:
    ///
    /// * the stay points are reused while no new fix is slow enough to
    ///   join them, because DBSCAN then sees the same points;
    /// * a trip whose fix range `prev` already summarized keeps its
    ///   summary, because a range inside the prefix covers the same
    ///   fixes;
    /// * segmentation, the trip in progress, stay attachment and route
    ///   profiles are recomputed.
    ///
    /// `prev` is taken by value, so what is reused moves instead of
    /// being copied. A `prev` compacted from more fixes than `trace`
    /// holds is ignored.
    #[must_use]
    pub fn compact(
        prev: Option<MobilityModel>,
        trace: &Trace,
        proj: &LocalProjection,
        cfg: &ModelConfig,
    ) -> Self {
        let fixes = trace.fixes();
        // No previous model is the model of the empty prefix.
        let prev = prev.filter(|p| p.fixes <= fixes.len()).unwrap_or_default();
        let slow_fixes = prev.slow_fixes
            + fixes[prev.fixes..].iter().filter(|f| f.speed_mps <= cfg.stay_max_speed_mps).count();
        let stays = if prev.slow_fixes == slow_fixes {
            prev.stay_points
        } else {
            stay_points(trace, proj, cfg.dbscan, cfg.stay_max_speed_mps)
        };
        let stay_positions: Vec<ProjectedPoint> =
            stays.iter().map(|s| proj.project(s.center)).collect();
        let attach = |p: ProjectedPoint| -> Option<u32> {
            stay_positions
                .iter()
                .enumerate()
                .map(|(i, sp)| (i, sp.distance_m(p)))
                .filter(|(_, d)| *d <= cfg.attach_radius_m)
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i as u32)
        };
        let segments = cfg.segmenter.segment(trace);
        let mut trips = Vec::with_capacity(segments.len());
        let mut trip_ranges = Vec::with_capacity(segments.len());
        // Both range lists ascend, so one walk pairs equal ranges.
        let mut summarized = prev.trip_ranges.into_iter().zip(prev.trips).peekable();
        for (id, range) in segments.into_iter().enumerate() {
            let run = &fixes[range.clone()];
            // The segmenter yields non-empty trips today, but the model
            // builder must stay total: a degenerate empty trip is
            // dropped rather than panicking mid-compaction.
            let (Some(first_fix), Some(last_fix)) = (run.first(), run.last()) else { continue };
            let origin = attach(proj.project(first_fix.point));
            let destination = attach(proj.project(last_fix.point));
            while summarized.next_if(|(r, _)| r.start < range.start).is_some() {}
            trips.push(match summarized.next_if(|(r, _)| *r == range) {
                Some((_, old)) => TripSummary { id: id as u32, origin, destination, ..old },
                None => {
                    let pts: Vec<ProjectedPoint> =
                        run.iter().map(|f| proj.project(f.point)).collect();
                    TripSummary {
                        id: id as u32,
                        origin,
                        destination,
                        start: first_fix.time,
                        end: last_fix.time,
                        length_m: length_m(run),
                        mean_speed_mps: mean_speed_mps(run),
                        complexity: trajectory_complexity(&pts, cfg.rdp_epsilon_m),
                        geometry: simplify(&pts, cfg.rdp_epsilon_m),
                    }
                }
            });
            trip_ranges.push(range);
        }
        let profiles = aggregate_profiles(&trips);
        MobilityModel {
            stay_points: stays,
            trips,
            profiles,
            fixes: fixes.len(),
            slow_fixes,
            trip_ranges,
        }
    }

    /// Fixes of the trace prefix this model was compacted from.
    #[must_use]
    pub fn fix_count(&self) -> usize {
        self.fixes
    }

    /// Profiles departing from `origin`, sorted by descending
    /// frequency (ties broken by destination for determinism).
    #[must_use]
    // lint: allow(reach-hash-iter) — result fully sorted by (trip count desc, destination) before return
    pub fn routes_from(&self, origin: u32) -> Vec<&RouteProfile> {
        let mut out: Vec<&RouteProfile> =
            self.profiles.values().filter(|p| p.origin == origin).collect();
        out.sort_by_key(|p| (std::cmp::Reverse(p.trip_count), p.destination));
        out
    }

    /// The staying point nearest to `p` within `radius_m`, if any.
    #[must_use]
    pub fn stay_near(
        &self,
        p: ProjectedPoint,
        proj: &LocalProjection,
        radius_m: f64,
    ) -> Option<&StayPoint> {
        self.stay_points
            .iter()
            .map(|s| (s, proj.project(s.center).distance_m(p)))
            .filter(|(_, d)| *d <= radius_m)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(s, _)| s)
    }
}

// lint: allow(reach-hash-iter) — output is keyed by (origin, destination); per-group stats come from slice order
fn aggregate_profiles(trips: &[TripSummary]) -> HashMap<(u32, u32), RouteProfile> {
    let mut groups: HashMap<(u32, u32), Vec<&TripSummary>> = HashMap::new();
    for t in trips {
        if let (Some(o), Some(d)) = (t.origin, t.destination) {
            if o != d {
                groups.entry((o, d)).or_default().push(t);
            }
        }
    }
    groups
        .into_iter()
        .map(|((o, d), ts)| {
            let n = ts.len() as f64;
            let durations: Vec<f64> = ts.iter().map(|t| t.duration().as_seconds() as f64).collect();
            let mean = durations.iter().sum::<f64>() / n;
            let var = durations.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            let mut hour_histogram = [0u32; 24];
            for t in &ts {
                hour_histogram[t.departure_hour() as usize] += 1;
            }
            let representative =
                ts.iter().max_by_key(|t| t.start).map(|t| t.geometry.clone()).unwrap_or_default();
            (
                (o, d),
                RouteProfile {
                    origin: o,
                    destination: d,
                    trip_count: ts.len(),
                    mean_duration_s: mean,
                    std_duration_s: var.sqrt(),
                    mean_length_m: ts.iter().map(|t| t.length_m).sum::<f64>() / n,
                    mean_complexity: ts.iter().map(|t| t.complexity).sum::<f64>() / n,
                    hour_histogram,
                    representative,
                },
            )
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fix::GpsFix;
    use pphcr_geo::{GeoPoint, Polyline};

    /// Builds `days` days of a home→work (08:00) / work→home (18:00)
    /// commute with overnight home dwell and workday office dwell.
    pub fn commuter_trace(days: u64) -> (Trace, LocalProjection, GeoPoint, GeoPoint) {
        let home = GeoPoint::new(45.07, 7.68);
        let proj = LocalProjection::new(home);
        let work = home.destination(80.0, 9_000.0);
        let mut fixes = Vec::new();
        for day in 0..days {
            let d0 = TimePoint::at(day, 0, 0, 0);
            // Home 00:00–07:25, every 5 min (total home dwell per day
            // must exceed the office dwell so home ranks first).
            for i in 0..90u64 {
                fixes.push(GpsFix::new(home, d0.advance(TimeSpan::minutes(i * 5)), 0.1));
            }
            // Commute out 08:00, 20 min, fix every 30 s.
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                fixes.push(GpsFix::new(
                    home.destination(80.0, frac * 9_000.0),
                    d0.advance(TimeSpan::hours(8)).advance(TimeSpan::seconds(i * 30)),
                    7.5,
                ));
            }
            // Work 08:30–17:55, every 10 min.
            for i in 0..57u64 {
                fixes.push(GpsFix::new(work, d0.advance(TimeSpan::minutes(510 + i * 10)), 0.2));
            }
            // Commute home 18:00.
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                fixes.push(GpsFix::new(
                    work.destination(260.0, frac * 9_000.0),
                    d0.advance(TimeSpan::hours(18)).advance(TimeSpan::seconds(i * 30)),
                    7.5,
                ));
            }
            // Evening at home 18:25–23:55.
            for i in 0..66u64 {
                fixes.push(GpsFix::new(home, d0.advance(TimeSpan::minutes(1105 + i * 5)), 0.1));
            }
        }
        (Trace::from_fixes(fixes), proj, home, work)
    }

    #[test]
    fn model_finds_two_stays_and_two_routes() {
        let (trace, proj, home, work) = commuter_trace(5);
        let model = MobilityModel::build(&trace, &proj, &ModelConfig::default());
        assert_eq!(model.stay_points.len(), 2, "{:?}", model.stay_points);
        assert!(model.stay_points[0].center.haversine_m(home) < 150.0, "home is rank 0");
        assert!(model.stay_points[1].center.haversine_m(work) < 150.0);
        assert_eq!(model.trips.len(), 10, "two trips per day over five days");
        assert_eq!(model.profiles.len(), 2);
        let out = model.profiles.get(&(0, 1)).expect("home→work profile");
        assert_eq!(out.trip_count, 5);
        // 20-minute commute.
        assert!((out.mean_duration_s - 1_170.0).abs() < 120.0, "{}", out.mean_duration_s);
        assert_eq!(
            out.hour_histogram[8], 5,
            "all outbound departures at 08:xx: {:?}",
            out.hour_histogram
        );
    }

    #[test]
    fn routes_from_sorted_by_frequency() {
        let (trace, proj, _, _) = commuter_trace(4);
        let model = MobilityModel::build(&trace, &proj, &ModelConfig::default());
        let routes = model.routes_from(0);
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].destination, 1);
    }

    #[test]
    fn hour_affinity_peaks_at_observed_hour() {
        let (trace, proj, _, _) = commuter_trace(5);
        let model = MobilityModel::build(&trace, &proj, &ModelConfig::default());
        let p = model.profiles.get(&(0, 1)).unwrap();
        assert!(p.hour_affinity(8) > p.hour_affinity(14));
        // Smoothing keeps unseen hours non-zero.
        assert!(p.hour_affinity(3) > 0.0);
    }

    #[test]
    fn stay_near_finds_and_respects_radius() {
        let (trace, proj, home, _) = commuter_trace(3);
        let model = MobilityModel::build(&trace, &proj, &ModelConfig::default());
        let at_home = proj.project(home);
        assert!(model.stay_near(at_home, &proj, 300.0).is_some());
        let far = proj.project(home.destination(0.0, 50_000.0));
        assert!(model.stay_near(far, &proj, 300.0).is_none());
    }

    #[test]
    fn compression_is_substantial() {
        let (trace, proj, _, _) = commuter_trace(5);
        let model = MobilityModel::build(&trace, &proj, &ModelConfig::default());
        let kept: usize = model.trips.iter().map(|t| t.geometry.len()).sum();
        assert!(kept > 0);
        let ratio = trace.len() as f64 / kept as f64;
        assert!(ratio > 10.0, "straight commutes compress well, got {ratio}");
    }

    #[test]
    fn empty_trace_builds_empty_model() {
        let proj = LocalProjection::new(GeoPoint::new(45.0, 7.0));
        let model = MobilityModel::build(&Trace::default(), &proj, &ModelConfig::default());
        assert!(model.stay_points.is_empty());
        assert!(model.trips.is_empty());
        assert!(model.profiles.is_empty());
    }

    #[test]
    fn trip_summary_accessors() {
        let (trace, proj, _, _) = commuter_trace(1);
        let model = MobilityModel::build(&trace, &proj, &ModelConfig::default());
        let t = &model.trips[0];
        assert_eq!(t.departure_hour(), 8);
        assert!(t.duration().as_seconds() > 600);
        assert!(t.mean_speed_mps > 5.0);
        assert!(Polyline::new(t.geometry.clone()).length_m() > 8_000.0);
    }

    #[test]
    fn routes_from_breaks_frequency_ties_by_destination() {
        // Regression: T3 witness `run_tick → … → routes_from` — with
        // equal trip counts the order used to fall back to hash-map
        // visit order.
        let profile = |destination: u32| RouteProfile {
            origin: 0,
            destination,
            trip_count: 3,
            mean_duration_s: 600.0,
            std_duration_s: 0.0,
            mean_length_m: 5_000.0,
            mean_complexity: 1.0,
            hour_histogram: [0; 24],
            representative: Vec::new(),
        };
        let mut profiles = HashMap::new();
        for d in [9u32, 2, 5, 7, 1] {
            profiles.insert((0u32, d), profile(d));
        }
        let model = MobilityModel { profiles, ..MobilityModel::default() };
        let dests: Vec<u32> = model.routes_from(0).iter().map(|p| p.destination).collect();
        assert_eq!(dests, vec![1, 2, 5, 7, 9]);
    }
}
