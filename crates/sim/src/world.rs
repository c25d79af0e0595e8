//! The synthetic city.
//!
//! A deterministic stand-in for the deployment city (Torino): a block
//! grid of two-way streets with signalled intersections and a sprinkle
//! of roundabouts, plus named landmark positions used for geo-tagged
//! content. Road speeds vary by row/column so shortest *time* paths are
//! non-trivial.

use pphcr_geo::{GeoPoint, LocalProjection, NodeId, NodeKind, ProjectedPoint, RoadNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated city.
#[derive(Debug)]
pub struct SyntheticCity {
    /// The road graph.
    pub network: RoadNetwork,
    /// Geographic projection anchored at the city centre.
    pub projection: LocalProjection,
    /// Grid dimensions (nodes per side).
    pub side: usize,
    /// Block edge length, meters.
    pub block_m: f64,
    /// Landmark positions (stadium, market, fair, …) for geo-tagged
    /// clips, in the projected frame.
    pub landmarks: Vec<(String, ProjectedPoint)>,
    seed: u64,
}

impl SyntheticCity {
    /// Generates a `side × side` grid city with `block_m`-long blocks.
    ///
    /// Junction mix: ~60 % plain timing vertices, ~30 % intersections,
    /// ~10 % roundabouts (drawn deterministically from `seed`).
    ///
    /// # Panics
    /// Panics if `side < 2`.
    #[must_use]
    pub fn generate(side: usize, block_m: f64, seed: u64) -> Self {
        assert!(side >= 2, "a city needs at least a 2×2 grid");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut network = RoadNetwork::new();
        let mut ids = Vec::with_capacity(side * side);
        for y in 0..side {
            for x in 0..side {
                let kind = match rng.gen_range(0..10) {
                    0 => NodeKind::Roundabout,
                    1..=3 => NodeKind::Intersection,
                    _ => NodeKind::Plain,
                };
                let pos = ProjectedPoint::new(x as f64 * block_m, y as f64 * block_m);
                ids.push(network.add_node(pos, kind));
            }
        }
        let node = |x: usize, y: usize| ids[y * side + x];
        for y in 0..side {
            for x in 0..side {
                // Horizontal street: arterials (every 4th row) are faster.
                if x + 1 < side {
                    let speed = if y % 4 == 0 { 16.7 } else { 11.1 }; // 60 / 40 km/h
                    network.add_two_way(node(x, y), node(x + 1, y), speed);
                }
                if y + 1 < side {
                    let speed = if x % 4 == 0 { 16.7 } else { 11.1 };
                    network.add_two_way(node(x, y), node(x, y + 1), speed);
                }
            }
        }
        let extent = (side - 1) as f64 * block_m;
        let landmarks = vec![
            ("stadium".to_string(), ProjectedPoint::new(extent * 0.8, extent * 0.2)),
            ("market".to_string(), ProjectedPoint::new(extent * 0.5, extent * 0.5)),
            ("fairground".to_string(), ProjectedPoint::new(extent * 0.2, extent * 0.7)),
            ("university".to_string(), ProjectedPoint::new(extent * 0.35, extent * 0.15)),
            ("riverside".to_string(), ProjectedPoint::new(extent * 0.65, extent * 0.85)),
        ];
        SyntheticCity {
            network,
            projection: LocalProjection::new(GeoPoint::new(45.0703, 7.6869)),
            side,
            block_m,
            landmarks,
            seed,
        }
    }

    /// The node at grid coordinates `(x, y)`.
    ///
    /// # Panics
    /// Panics when the coordinates are outside the grid.
    #[must_use]
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        assert!(x < self.side && y < self.side, "grid coordinates out of range");
        NodeId((y * self.side + x) as u32)
    }

    /// A deterministic "residential" node for a listener index (ring of
    /// the grid's outer blocks).
    #[must_use]
    pub fn home_node(&self, listener: u64) -> NodeId {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xB0BA ^ listener);
        let edge = rng.gen_range(0..4u8);
        let k = rng.gen_range(0..self.side);
        let (x, y) = match edge {
            0 => (k, 0),
            1 => (k, self.side - 1),
            2 => (0, k),
            _ => (self.side - 1, k),
        };
        self.node_at(x, y)
    }

    /// A deterministic "workplace" node (inner third of the grid).
    #[must_use]
    pub fn work_node(&self, listener: u64) -> NodeId {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC0FFE ^ listener);
        let third = (self.side / 3).max(1);
        let x = third + rng.gen_range(0..third.max(1));
        let y = third + rng.gen_range(0..third.max(1));
        self.node_at(x.min(self.side - 1), y.min(self.side - 1))
    }

    /// Geographic point of a landmark (for clip geo-tags).
    #[must_use]
    pub fn landmark_geo(&self, index: usize) -> (String, GeoPoint) {
        let (name, pos) = &self.landmarks[index % self.landmarks.len()];
        (name.clone(), self.projection.unproject(*pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn city_is_connected_grid() {
        let city = SyntheticCity::generate(8, 400.0, 1);
        assert_eq!(city.network.nodes().len(), 64);
        // Every corner reaches every other corner.
        let a = city.node_at(0, 0);
        let b = city.node_at(7, 7);
        let route = city.network.shortest_path(a, b).expect("connected");
        assert!(route.length_m >= 14.0 * 400.0 - 1.0);
        assert!(route.travel_time_s > 0.0);
    }

    #[test]
    fn junction_mix_contains_all_kinds() {
        let city = SyntheticCity::generate(12, 400.0, 7);
        let mut plain = 0;
        let mut inter = 0;
        let mut round = 0;
        for n in city.network.nodes() {
            match n.kind {
                NodeKind::Plain => plain += 1,
                NodeKind::Intersection => inter += 1,
                NodeKind::Roundabout => round += 1,
            }
        }
        assert!(plain > inter && inter > round && round > 0, "{plain}/{inter}/{round}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticCity::generate(6, 300.0, 42);
        let b = SyntheticCity::generate(6, 300.0, 42);
        for (na, nb) in a.network.nodes().iter().zip(b.network.nodes()) {
            assert_eq!(na.kind, nb.kind);
            assert_eq!(na.pos, nb.pos);
        }
        assert_eq!(a.home_node(5), b.home_node(5));
        assert_eq!(a.work_node(5), b.work_node(5));
    }

    #[test]
    fn homes_on_edge_works_inside() {
        let city = SyntheticCity::generate(9, 400.0, 3);
        for listener in 0..20u64 {
            let h = city.network.node(city.home_node(listener)).pos;
            let on_edge = h.x.abs() < 1.0
                || h.y.abs() < 1.0
                || (h.x - 8.0 * 400.0).abs() < 1.0
                || (h.y - 8.0 * 400.0).abs() < 1.0;
            assert!(on_edge, "home {h:?} must be on the ring");
            let w = city.network.node(city.work_node(listener)).pos;
            assert!(w.x >= 3.0 * 400.0 - 1.0 && w.x <= 6.0 * 400.0 + 1.0, "{w:?}");
        }
    }

    #[test]
    fn arterials_make_time_paths_differ_from_distance_paths() {
        let city = SyntheticCity::generate(9, 400.0, 2);
        // Home-work pairs exist whose fastest route uses the fast rows.
        let a = city.node_at(0, 1);
        let b = city.node_at(8, 1);
        let route = city.network.shortest_path(a, b).unwrap();
        // Straight along row 1 is 8 blocks at 11.1 m/s ≈ 288 s; dodging
        // via row 0 (16.7 m/s) costs 2 extra blocks but is faster.
        assert!(route.travel_time_s < 8.0 * 400.0 / 11.1 - 1.0, "{}", route.travel_time_s);
    }

    #[test]
    fn landmarks_project_back() {
        let city = SyntheticCity::generate(8, 400.0, 1);
        let (name, geo) = city.landmark_geo(0);
        assert_eq!(name, "stadium");
        let back = city.projection.project(geo);
        assert!(back.distance_m(city.landmarks[0].1) < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least a 2")]
    fn tiny_city_panics() {
        let _ = SyntheticCity::generate(1, 400.0, 0);
    }
}
