//! WGS-84 points, great-circle geometry and a local metric projection.
//!
//! The PPHCR tracking pipeline works in two coordinate spaces. Raw GPS
//! fixes arrive as latitude/longitude ([`GeoPoint`]); the analytics
//! (DBSCAN, RDP, point-to-path distances) run in a local metric frame
//! ([`ProjectedPoint`]) obtained from an equirectangular projection
//! centred on the city ([`LocalProjection`]). At city scale (< 50 km)
//! the projection error is far below GPS noise, which is what the
//! paper's PostGIS-based store relies on as well.

use serde::{Deserialize, Serialize};

/// Mean Earth radius in meters (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A WGS-84 latitude/longitude pair, in degrees.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north. Valid range `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, positive east. Valid range `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point from latitude and longitude in degrees.
    #[must_use]
    pub fn new(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon }
    }

    /// True when both coordinates are finite and within WGS-84 bounds.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self.lat.is_finite()
            && self.lon.is_finite()
            && (-90.0..=90.0).contains(&self.lat)
            && (-180.0..=180.0).contains(&self.lon)
    }

    /// Great-circle (haversine) distance to `other`, in meters.
    #[must_use]
    pub fn haversine_m(self, other: GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().min(1.0).asin()
    }

    /// Destination point after travelling `distance_m` meters on the
    /// initial bearing `bearing_deg`.
    #[must_use]
    pub fn destination(self, bearing_deg: f64, distance_m: f64) -> GeoPoint {
        let delta = distance_m / EARTH_RADIUS_M;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat.to_radians();
        let lon1 = self.lon.to_radians();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lon2 = lon1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        GeoPoint { lat: lat2.to_degrees(), lon: ((lon2.to_degrees() + 540.0) % 360.0) - 180.0 }
    }
}

impl std::fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lon)
    }
}

/// A point in a local metric frame: meters east (`x`) and north (`y`) of
/// the projection origin.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ProjectedPoint {
    /// Meters east of the origin.
    pub x: f64,
    /// Meters north of the origin.
    pub y: f64,
}

impl ProjectedPoint {
    /// Creates a projected point from metric offsets.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        ProjectedPoint { x, y }
    }

    /// Euclidean distance to `other`, in meters.
    #[must_use]
    pub fn distance_m(self, other: ProjectedPoint) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Squared Euclidean distance to `other`; avoids the `sqrt` in hot
    /// radius comparisons (DBSCAN neighbourhood queries).
    #[must_use]
    pub fn distance_sq(self, other: ProjectedPoint) -> f64 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }

    /// Perpendicular distance from `self` to the segment `a`–`b`, in
    /// meters. Falls back to point distance for degenerate segments.
    #[must_use]
    pub fn distance_to_segment_m(self, a: ProjectedPoint, b: ProjectedPoint) -> f64 {
        let (dx, dy) = (b.x - a.x, b.y - a.y);
        let len_sq = dx * dx + dy * dy;
        if len_sq <= f64::EPSILON {
            return self.distance_m(a);
        }
        let t = (((self.x - a.x) * dx + (self.y - a.y) * dy) / len_sq).clamp(0.0, 1.0);
        self.distance_m(ProjectedPoint::new(a.x + t * dx, a.y + t * dy))
    }
}

/// Equirectangular projection centred on a reference point.
///
/// Maps [`GeoPoint`]s to a local metric frame with the reference at the
/// origin. Exact inverse; error relative to the haversine distance is
/// O((d/R)²) — sub-meter within ~50 km of the origin.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LocalProjection {
    origin: GeoPoint,
    cos_lat: f64,
}

impl LocalProjection {
    /// Creates a projection centred on `origin`.
    #[must_use]
    pub fn new(origin: GeoPoint) -> Self {
        LocalProjection { origin, cos_lat: origin.lat.to_radians().cos() }
    }

    /// Projects a geographic point into the local metric frame.
    #[must_use]
    pub fn project(&self, p: GeoPoint) -> ProjectedPoint {
        let dlat = (p.lat - self.origin.lat).to_radians();
        let dlon = (p.lon - self.origin.lon).to_radians();
        ProjectedPoint { x: EARTH_RADIUS_M * dlon * self.cos_lat, y: EARTH_RADIUS_M * dlat }
    }

    /// Inverse projection back to latitude/longitude.
    #[must_use]
    pub fn unproject(&self, p: ProjectedPoint) -> GeoPoint {
        let dlat = (p.y / EARTH_RADIUS_M).to_degrees();
        let dlon = (p.x / (EARTH_RADIUS_M * self.cos_lat)).to_degrees();
        GeoPoint { lat: self.origin.lat + dlat, lon: self.origin.lon + dlon }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Torino, the city hosting the paper's prototype deployment (Rai).
    pub const TORINO: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

    #[test]
    fn haversine_zero_for_identical_points() {
        assert_eq!(TORINO.haversine_m(TORINO), 0.0);
    }

    #[test]
    fn haversine_known_distance_torino_milano() {
        let milano = GeoPoint::new(45.4642, 9.1900);
        let d = TORINO.haversine_m(milano);
        // Great-circle distance is ~125.5 km.
        assert!((d - 125_500.0).abs() < 2_000.0, "got {d}");
    }

    #[test]
    fn haversine_is_symmetric() {
        let a = GeoPoint::new(45.0, 7.0);
        let b = GeoPoint::new(45.1, 7.2);
        assert!((a.haversine_m(b) - b.haversine_m(a)).abs() < 1e-9);
    }

    #[test]
    fn destination_round_trip_distance() {
        for bearing in [0.0, 45.0, 123.0, 270.0] {
            let p = TORINO.destination(bearing, 5_000.0);
            let d = TORINO.haversine_m(p);
            assert!((d - 5_000.0).abs() < 1.0, "bearing {bearing}: {d}");
        }
    }

    #[test]
    fn validity_bounds() {
        assert!(TORINO.is_valid());
        assert!(!GeoPoint::new(91.0, 0.0).is_valid());
        assert!(!GeoPoint::new(0.0, 181.0).is_valid());
        assert!(!GeoPoint::new(f64::NAN, 0.0).is_valid());
    }

    #[test]
    fn projection_round_trips() {
        let proj = LocalProjection::new(TORINO);
        let p = GeoPoint::new(45.1201, 7.7421);
        let back = proj.unproject(proj.project(p));
        assert!((back.lat - p.lat).abs() < 1e-9);
        assert!((back.lon - p.lon).abs() < 1e-9);
    }

    #[test]
    fn projection_distance_matches_haversine_at_city_scale() {
        let proj = LocalProjection::new(TORINO);
        let p = TORINO.destination(37.0, 8_000.0);
        let dp = proj.project(p).distance_m(proj.project(TORINO));
        let dh = TORINO.haversine_m(p);
        assert!((dp - dh).abs() < 5.0, "projected {dp} vs haversine {dh}");
    }

    #[test]
    fn segment_distance_basic_geometry() {
        let a = ProjectedPoint::new(0.0, 0.0);
        let b = ProjectedPoint::new(10.0, 0.0);
        assert!((ProjectedPoint::new(5.0, 3.0).distance_to_segment_m(a, b) - 3.0).abs() < 1e-12);
        // Beyond the endpoint the closest point is the endpoint.
        assert!((ProjectedPoint::new(14.0, 3.0).distance_to_segment_m(a, b) - 5.0).abs() < 1e-12);
        // Degenerate segment.
        assert!((ProjectedPoint::new(3.0, 4.0).distance_to_segment_m(a, a) - 5.0).abs() < 1e-12);
    }
}
