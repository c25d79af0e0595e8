//! Measured paths through the projected plane.
//!
//! A [`Polyline`] is the backbone of route handling: predicted driving
//! paths (paper Fig. 2), simplified trajectories (RDP output) and road
//! geometry are all polylines. The type pre-computes cumulative arc
//! length so along-path queries — "where is the driver after 3.2 km?",
//! "how far along the route is location `L_B`?" — are O(log n).

use crate::point::ProjectedPoint;
use serde::{Deserialize, Serialize};

/// A polyline in the local metric frame with cached cumulative lengths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    points: Vec<ProjectedPoint>,
    /// `cum[i]` = arc length from the start to `points[i]`, meters.
    cum: Vec<f64>,
}

impl Polyline {
    /// Builds a polyline from vertices. Consecutive duplicate vertices are
    /// kept (they contribute zero length).
    #[must_use]
    pub fn new(points: Vec<ProjectedPoint>) -> Self {
        let mut cum = Vec::with_capacity(points.len());
        let mut total = 0.0;
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                total += points[i - 1].distance_m(*p);
            }
            cum.push(total);
        }
        Polyline { points, cum }
    }

    /// The vertices.
    #[must_use]
    pub fn points(&self) -> &[ProjectedPoint] {
        &self.points
    }

    /// Number of vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the polyline has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total arc length in meters (0 for fewer than two vertices).
    #[must_use]
    pub fn length_m(&self) -> f64 {
        self.cum.last().copied().unwrap_or(0.0)
    }

    /// The point `distance_m` meters along the path, clamped to the
    /// endpoints. `None` for an empty polyline.
    #[must_use]
    pub fn point_at(&self, distance_m: f64) -> Option<ProjectedPoint> {
        if self.points.is_empty() {
            return None;
        }
        // NaN would otherwise reach the `partition_point` below, yield
        // index 0, and underflow.
        if distance_m <= 0.0 || distance_m.is_nan() || self.points.len() == 1 {
            return Some(self.points[0]);
        }
        let total = self.length_m();
        if distance_m >= total {
            return self.points.last().copied();
        }
        // First vertex with cumulative length > distance_m.
        let idx = self.cum.partition_point(|&c| c <= distance_m);
        let (a, b) = (self.points[idx - 1], self.points[idx]);
        let seg = self.cum[idx] - self.cum[idx - 1];
        if seg <= f64::EPSILON {
            return Some(a);
        }
        let t = (distance_m - self.cum[idx - 1]) / seg;
        Some(ProjectedPoint::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    }

    /// Arc-length position (meters from the start) of the point on the
    /// path closest to `p`, together with the closest distance.
    /// `None` for an empty polyline.
    #[must_use]
    pub fn project_point(&self, p: ProjectedPoint) -> Option<PathProjection> {
        if self.points.is_empty() {
            return None;
        }
        if self.points.len() == 1 {
            return Some(PathProjection { along_m: 0.0, distance_m: p.distance_m(self.points[0]) });
        }
        let mut best = PathProjection { along_m: 0.0, distance_m: f64::INFINITY };
        for i in 1..self.points.len() {
            let (a, b) = (self.points[i - 1], self.points[i]);
            let (dx, dy) = (b.x - a.x, b.y - a.y);
            let len_sq = dx * dx + dy * dy;
            let t = if len_sq <= f64::EPSILON {
                0.0
            } else {
                (((p.x - a.x) * dx + (p.y - a.y) * dy) / len_sq).clamp(0.0, 1.0)
            };
            let q = ProjectedPoint::new(a.x + t * dx, a.y + t * dy);
            let d = p.distance_m(q);
            if d < best.distance_m {
                best = PathProjection {
                    along_m: self.cum[i - 1] + t * (self.cum[i] - self.cum[i - 1]),
                    distance_m: d,
                };
            }
        }
        Some(best)
    }

    /// Minimum distance from `p` to the path, in meters. `None` for an
    /// empty polyline.
    #[must_use]
    pub fn distance_to(&self, p: ProjectedPoint) -> Option<f64> {
        self.project_point(p).map(|pr| pr.distance_m)
    }
}

/// The result of projecting a point onto a [`Polyline`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathProjection {
    /// Arc-length position of the closest path point, meters from the start.
    pub along_m: f64,
    /// Distance from the query point to the path, meters.
    pub distance_m: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        Polyline::new(vec![
            ProjectedPoint::new(0.0, 0.0),
            ProjectedPoint::new(100.0, 0.0),
            ProjectedPoint::new(100.0, 50.0),
        ])
    }

    #[test]
    fn length_sums_segments() {
        assert!((l_shape().length_m() - 150.0).abs() < 1e-12);
        assert_eq!(Polyline::new(vec![]).length_m(), 0.0);
        assert_eq!(Polyline::new(vec![ProjectedPoint::new(1.0, 1.0)]).length_m(), 0.0);
    }

    #[test]
    fn point_at_interpolates_and_clamps() {
        let pl = l_shape();
        let mid = pl.point_at(50.0).unwrap();
        assert!((mid.x - 50.0).abs() < 1e-12 && mid.y.abs() < 1e-12);
        let corner = pl.point_at(100.0).unwrap();
        assert!((corner.x - 100.0).abs() < 1e-12 && corner.y.abs() < 1e-12);
        let up = pl.point_at(120.0).unwrap();
        assert!((up.x - 100.0).abs() < 1e-12 && (up.y - 20.0).abs() < 1e-12);
        // Clamping.
        assert_eq!(pl.point_at(-5.0).unwrap(), ProjectedPoint::new(0.0, 0.0));
        assert_eq!(pl.point_at(1e9).unwrap(), ProjectedPoint::new(100.0, 50.0));
        assert!(Polyline::new(vec![]).point_at(0.0).is_none());
    }

    #[test]
    fn point_at_is_total_on_the_clamp_path() {
        // Regression: P4 witness `apply_record → … → route_ahead →
        // point_at` — the past-the-end clamp used to `.expect` on
        // `last()` instead of propagating `None`.
        let pl = l_shape();
        assert_eq!(pl.point_at(pl.length_m()).unwrap(), ProjectedPoint::new(100.0, 50.0));
        assert_eq!(pl.point_at(f64::INFINITY).unwrap(), ProjectedPoint::new(100.0, 50.0));
        assert!(pl.point_at(f64::NAN).is_some(), "NaN distance clamps rather than panics");
    }

    #[test]
    fn project_point_finds_nearest_segment() {
        let pl = l_shape();
        let pr = pl.project_point(ProjectedPoint::new(50.0, 10.0)).unwrap();
        assert!((pr.along_m - 50.0).abs() < 1e-9);
        assert!((pr.distance_m - 10.0).abs() < 1e-9);
        // Near the vertical leg.
        let pr2 = pl.project_point(ProjectedPoint::new(110.0, 25.0)).unwrap();
        assert!((pr2.along_m - 125.0).abs() < 1e-9);
        assert!((pr2.distance_m - 10.0).abs() < 1e-9);
    }

    #[test]
    fn project_point_on_single_vertex() {
        let pl = Polyline::new(vec![ProjectedPoint::new(3.0, 4.0)]);
        let pr = pl.project_point(ProjectedPoint::new(0.0, 0.0)).unwrap();
        assert_eq!(pr.along_m, 0.0);
        assert!((pr.distance_m - 5.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_vertices_are_harmless() {
        let pl = Polyline::new(vec![
            ProjectedPoint::new(0.0, 0.0),
            ProjectedPoint::new(0.0, 0.0),
            ProjectedPoint::new(10.0, 0.0),
        ]);
        assert!((pl.length_m() - 10.0).abs() < 1e-12);
        let p = pl.point_at(5.0).unwrap();
        assert!((p.x - 5.0).abs() < 1e-12);
    }
}
