//! Density-based clustering (DBSCAN) and staying-point extraction.
//!
//! The paper: *"Major staying points on the driving paths are calculated
//! using a density based location clustering \[Ester et al. 1996\]"*.
//! This module implements classic DBSCAN over projected GPS fixes,
//! accelerated by the uniform-grid index, and derives [`StayPoint`]s —
//! the recurring places (home, work, gym) that anchor the mobility
//! model — from the clusters of *low-speed* fixes.

use crate::fix::Trace;
use pphcr_geo::grid::GridIndex;
use pphcr_geo::{GeoPoint, LocalProjection, ProjectedPoint, TimePoint, TimeSpan};
use serde::{Deserialize, Serialize};

/// Cluster assignment of one input point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterLabel {
    /// Point belongs to cluster `id` (ids are dense from 0).
    Cluster(u32),
    /// Density noise.
    Noise,
}

impl ClusterLabel {
    /// The cluster id, if any.
    #[must_use]
    pub fn id(self) -> Option<u32> {
        match self {
            ClusterLabel::Cluster(id) => Some(id),
            ClusterLabel::Noise => None,
        }
    }
}

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DbscanParams {
    /// Neighbourhood radius ε, meters.
    pub eps_m: f64,
    /// Minimum neighbourhood size (including the point itself) for a
    /// core point.
    pub min_pts: usize,
}

impl Default for DbscanParams {
    fn default() -> Self {
        // 60 m ≈ urban GPS scatter around a parking spot; 5 fixes at the
        // app's 30 s cadence ≈ 2.5 minutes of presence.
        DbscanParams { eps_m: 60.0, min_pts: 5 }
    }
}

/// Classic DBSCAN over projected points.
///
/// Returns one label per input point. Runs in O(n · k) where k is the
/// mean ε-neighbourhood size, using a grid index with cell = ε.
///
/// # Panics
/// Panics if `params.eps_m` is not positive or `params.min_pts` is 0.
#[must_use]
pub fn dbscan(points: &[ProjectedPoint], params: DbscanParams) -> Vec<ClusterLabel> {
    assert!(params.eps_m > 0.0, "eps must be positive");
    assert!(params.min_pts >= 1, "min_pts must be at least 1");
    let n = points.len();
    let mut labels = vec![None::<ClusterLabel>; n];
    if n == 0 {
        return Vec::new();
    }
    let mut index: GridIndex<usize> = GridIndex::new(params.eps_m);
    for (i, p) in points.iter().enumerate() {
        index.insert(*p, i);
    }
    let neighbours = |i: usize, out: &mut Vec<usize>| {
        out.clear();
        index.for_each_in_radius(points[i], params.eps_m, |_, &j| out.push(j));
    };
    let mut next_cluster = 0u32;
    let mut seeds: Vec<usize> = Vec::new();
    let mut nbuf: Vec<usize> = Vec::new();
    for i in 0..n {
        if labels[i].is_some() {
            continue;
        }
        neighbours(i, &mut nbuf);
        if nbuf.len() < params.min_pts {
            labels[i] = Some(ClusterLabel::Noise);
            continue;
        }
        // i is a core point: start a cluster and expand.
        let cid = next_cluster;
        next_cluster += 1;
        labels[i] = Some(ClusterLabel::Cluster(cid));
        seeds.clear();
        seeds.extend(nbuf.iter().copied());
        let mut cursor = 0;
        while cursor < seeds.len() {
            let j = seeds[cursor];
            cursor += 1;
            match labels[j] {
                Some(ClusterLabel::Noise) => {
                    // Border point reached from a core point.
                    labels[j] = Some(ClusterLabel::Cluster(cid));
                }
                Some(ClusterLabel::Cluster(_)) => {}
                None => {
                    labels[j] = Some(ClusterLabel::Cluster(cid));
                    neighbours(j, &mut nbuf);
                    if nbuf.len() >= params.min_pts {
                        seeds.extend(nbuf.iter().copied());
                    }
                }
            }
        }
    }
    // The sweep labels every point; an unlabelled survivor would be an
    // algorithmic bug, and Noise is the safe total answer for it.
    labels.into_iter().map(|l| l.unwrap_or(ClusterLabel::Noise)).collect()
}

/// A recurring significant place extracted from a listener's fixes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StayPoint {
    /// Dense id (0-based, ordered by total dwell, longest first).
    pub id: u32,
    /// Centroid of the member fixes.
    pub center: GeoPoint,
    /// Number of member fixes.
    pub fix_count: usize,
    /// Total dwell time accumulated over all visits.
    pub total_dwell: TimeSpan,
    /// Number of distinct visits (gaps > 30 min split visits).
    pub visit_count: usize,
    /// Histogram of visit-start hours (24 bins) — the "time of the day"
    /// feature of the paper's compact model.
    pub hour_histogram: [u32; 24],
}

/// Extracts staying points from a trace.
///
/// Only fixes slower than `max_speed_mps` participate (the paper's
/// staying points are where the listener is *not* driving). Clusters
/// smaller than `params.min_pts` become noise and are discarded.
/// Results are sorted by total dwell, longest first, and re-numbered.
#[must_use]
pub fn stay_points(
    trace: &Trace,
    proj: &LocalProjection,
    params: DbscanParams,
    max_speed_mps: f64,
) -> Vec<StayPoint> {
    let slow: Vec<(ProjectedPoint, TimePoint)> = trace
        .fixes()
        .iter()
        .filter(|f| f.speed_mps <= max_speed_mps)
        .map(|f| (proj.project(f.point), f.time))
        .collect();
    if slow.is_empty() {
        return Vec::new();
    }
    let pts: Vec<ProjectedPoint> = slow.iter().map(|(p, _)| *p).collect();
    let labels = dbscan(&pts, params);
    let n_clusters = labels.iter().filter_map(|l| l.id()).max().map_or(0, |m| m as usize + 1);
    let visit_gap = TimeSpan::minutes(30);

    struct Acc {
        sum_x: f64,
        sum_y: f64,
        count: usize,
        total_dwell: u64,
        visit_count: usize,
        hour_histogram: [u32; 24],
        last_time: Option<TimePoint>,
    }
    let mut accs: Vec<Acc> = (0..n_clusters)
        .map(|_| Acc {
            sum_x: 0.0,
            sum_y: 0.0,
            count: 0,
            total_dwell: 0,
            visit_count: 0,
            hour_histogram: [0; 24],
            last_time: None,
        })
        .collect();
    // Fixes are time-ordered (Trace invariant), so visits can be
    // accumulated in one pass.
    for ((p, t), label) in slow.iter().zip(&labels) {
        let Some(cid) = label.id() else { continue };
        let acc = &mut accs[cid as usize];
        acc.sum_x += p.x;
        acc.sum_y += p.y;
        acc.count += 1;
        match acc.last_time {
            Some(last) if t.since(last) <= visit_gap => {
                acc.total_dwell += t.since(last).as_seconds();
            }
            _ => {
                acc.visit_count += 1;
                acc.hour_histogram[t.hour_of_day() as usize] += 1;
            }
        }
        acc.last_time = Some(*t);
    }
    let mut out: Vec<StayPoint> = accs
        .into_iter()
        .filter(|a| a.count > 0)
        .map(|a| StayPoint {
            id: 0,
            center: proj
                .unproject(ProjectedPoint::new(a.sum_x / a.count as f64, a.sum_y / a.count as f64)),
            fix_count: a.count,
            total_dwell: TimeSpan::seconds(a.total_dwell),
            visit_count: a.visit_count,
            hour_histogram: a.hour_histogram,
        })
        .collect();
    out.sort_by(|a, b| b.total_dwell.cmp(&a.total_dwell).then(b.fix_count.cmp(&a.fix_count)));
    for (i, sp) in out.iter_mut().enumerate() {
        sp.id = i as u32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fix::GpsFix;

    fn p(x: f64, y: f64) -> ProjectedPoint {
        ProjectedPoint::new(x, y)
    }

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<ProjectedPoint> {
        (0..n)
            .map(|i| {
                let a = i as f64 * 2.399_963; // golden-angle spiral, deterministic
                let r = spread * (i as f64 / n as f64).sqrt();
                p(cx + r * a.cos(), cy + r * a.sin())
            })
            .collect()
    }

    #[test]
    fn two_blobs_two_clusters() {
        let mut pts = blob(0.0, 0.0, 40, 30.0);
        pts.extend(blob(5_000.0, 0.0, 40, 30.0));
        let labels = dbscan(&pts, DbscanParams { eps_m: 60.0, min_pts: 5 });
        let c0 = labels[0].id().unwrap();
        let c1 = labels[40].id().unwrap();
        assert_ne!(c0, c1);
        assert!(labels[..40].iter().all(|l| l.id() == Some(c0)));
        assert!(labels[40..].iter().all(|l| l.id() == Some(c1)));
    }

    #[test]
    fn isolated_points_are_noise() {
        let mut pts = blob(0.0, 0.0, 40, 30.0);
        pts.push(p(50_000.0, 50_000.0));
        let labels = dbscan(&pts, DbscanParams::default());
        assert_eq!(labels.last(), Some(&ClusterLabel::Noise));
    }

    #[test]
    fn all_noise_when_sparse() {
        let pts: Vec<ProjectedPoint> = (0..20).map(|i| p(f64::from(i) * 10_000.0, 0.0)).collect();
        let labels = dbscan(&pts, DbscanParams::default());
        assert!(labels.iter().all(|l| *l == ClusterLabel::Noise));
    }

    #[test]
    fn empty_input() {
        assert!(dbscan(&[], DbscanParams::default()).is_empty());
    }

    #[test]
    fn min_pts_one_makes_every_point_a_cluster() {
        let pts = vec![p(0.0, 0.0), p(1_000.0, 0.0)];
        let labels = dbscan(&pts, DbscanParams { eps_m: 10.0, min_pts: 1 });
        assert_eq!(labels[0], ClusterLabel::Cluster(0));
        assert_eq!(labels[1], ClusterLabel::Cluster(1));
    }

    #[test]
    fn chain_within_eps_is_one_cluster() {
        // Points 50 m apart with eps 60: density-connected chain.
        let pts: Vec<ProjectedPoint> = (0..30).map(|i| p(f64::from(i) * 50.0, 0.0)).collect();
        let labels = dbscan(&pts, DbscanParams { eps_m: 60.0, min_pts: 3 });
        let c = labels[0].id().unwrap();
        assert!(labels.iter().all(|l| l.id() == Some(c)));
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn bad_eps_panics() {
        let _ = dbscan(&[p(0.0, 0.0)], DbscanParams { eps_m: 0.0, min_pts: 3 });
    }

    /// A synthetic week: nights at home, workdays at the office. The two
    /// staying points must be recovered with home (longer dwell) first.
    #[test]
    fn stay_points_recover_home_and_work() {
        let origin = GeoPoint::new(45.07, 7.68);
        let proj = LocalProjection::new(origin);
        let home = origin;
        let work = origin.destination(90.0, 8_000.0);
        let mut fixes = Vec::new();
        for day in 0..5u64 {
            let day0 = TimePoint::at(day, 0, 0, 0);
            // Home 00:00→09:50: sample every 10 min, stationary (~590
            // min/day dwell, clearly longer than work's ~465 min).
            for i in 0..60u64 {
                fixes.push(GpsFix::new(home, day0.advance(TimeSpan::minutes(i * 10)), 0.2));
            }
            // Commute 08:00, driving fast (ignored by stay extraction).
            for i in 0..16u64 {
                let pos = home.destination(90.0, i as f64 * 500.0);
                fixes.push(GpsFix::new(
                    pos,
                    day0.advance(TimeSpan::hours(8)).advance(TimeSpan::minutes(i)),
                    14.0,
                ));
            }
            // Work 09:00→17:00: sample every 15 min.
            for i in 0..32u64 {
                fixes.push(GpsFix::new(
                    work,
                    day0.advance(TimeSpan::hours(9)).advance(TimeSpan::minutes(i * 15)),
                    0.1,
                ));
            }
        }
        let trace = Trace::from_fixes(fixes);
        let sps = stay_points(&trace, &proj, DbscanParams::default(), 1.0);
        assert_eq!(sps.len(), 2, "expected home + work, got {sps:?}");
        // Home accumulates more dwell than work.
        assert!(sps[0].total_dwell > sps[1].total_dwell);
        assert!(sps[0].center.haversine_m(home) < 100.0);
        assert!(sps[1].center.haversine_m(work) < 100.0);
        assert_eq!(sps[0].visit_count, 5);
        assert_eq!(sps[1].visit_count, 5);
        // Work visits start at 09:00.
        assert_eq!(sps[1].hour_histogram[9], 5);
    }

    #[test]
    fn stay_points_empty_when_always_driving() {
        let origin = GeoPoint::new(45.07, 7.68);
        let proj = LocalProjection::new(origin);
        let fixes: Vec<GpsFix> = (0..50)
            .map(|i| {
                GpsFix::new(origin.destination(90.0, i as f64 * 400.0), TimePoint(i * 30), 13.0)
            })
            .collect();
        let sps = stay_points(&Trace::from_fixes(fixes), &proj, DbscanParams::default(), 1.0);
        assert!(sps.is_empty());
    }
}
