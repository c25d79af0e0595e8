//! A routable road network with intersections and roundabouts.
//!
//! The paper's scheduler accounts for "driver's projected distraction
//! levels at intersections and roundabouts at user's projected driving
//! path". That requires a road graph that (a) can be routed (shortest
//! paths give the predicted route of Fig. 2), (b) knows *where* the
//! distraction-heavy junctions lie along a route, and (c) carries per-edge
//! speeds so travel time ΔT can be estimated. This module provides all
//! three on a directed weighted graph in the local projected frame.

use crate::point::ProjectedPoint;
use crate::polyline::Polyline;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a node in a [`RoadNetwork`] (dense, index-like).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of a directed edge in a [`RoadNetwork`] (dense, index-like).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

/// The junction class of a node, driving its distraction weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NodeKind {
    /// A plain geometry vertex or dead end — no distraction.
    #[default]
    Plain,
    /// A signalled or priority intersection.
    Intersection,
    /// A roundabout — the paper's canonical high-distraction junction.
    Roundabout,
}

impl NodeKind {
    /// Radius of the distraction zone around a junction of this kind, in
    /// meters. Plain nodes have no zone.
    #[must_use]
    pub fn distraction_radius_m(self) -> f64 {
        match self {
            NodeKind::Plain => 0.0,
            NodeKind::Intersection => 40.0,
            NodeKind::Roundabout => 60.0,
        }
    }
}

/// A node of the road graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoadNode {
    /// The node's identifier.
    pub id: NodeId,
    /// Position in the local projected frame.
    pub pos: ProjectedPoint,
    /// Junction class.
    pub kind: NodeKind,
}

/// A directed edge of the road graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoadEdge {
    /// The edge's identifier.
    pub id: EdgeId,
    /// Tail node.
    pub from: NodeId,
    /// Head node.
    pub to: NodeId,
    /// Geometric length, meters.
    pub length_m: f64,
    /// Free-flow speed, meters/second.
    pub speed_mps: f64,
}

impl RoadEdge {
    /// Free-flow traversal time, seconds.
    #[must_use]
    pub fn travel_time_s(&self) -> f64 {
        self.length_m / self.speed_mps
    }
}

/// A shortest path through the network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Route {
    /// Visited nodes, start to destination.
    pub nodes: Vec<NodeId>,
    /// Traversed edges (`nodes.len() - 1` of them).
    pub edges: Vec<EdgeId>,
    /// Total length, meters.
    pub length_m: f64,
    /// Total free-flow travel time, seconds.
    pub travel_time_s: f64,
}

/// A distraction zone along a route: an arc-length interval around a
/// junction where clip transitions should be avoided.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistractionZone {
    /// Junction node at the centre of the zone.
    pub node: NodeId,
    /// Junction class.
    pub kind: NodeKind,
    /// Zone start, meters from the route start (clamped to the route).
    pub start_m: f64,
    /// Zone end, meters from the route start (clamped to the route).
    pub end_m: f64,
}

/// A directed weighted road graph.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoadNetwork {
    nodes: Vec<RoadNode>,
    edges: Vec<RoadEdge>,
    /// Outgoing edge ids per node.
    adjacency: Vec<Vec<EdgeId>>,
}

impl RoadNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        RoadNetwork::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, pos: ProjectedPoint, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(RoadNode { id, pos, kind });
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds a one-way edge; length is the Euclidean node distance.
    ///
    /// # Panics
    /// Panics on unknown node ids or non-positive speed.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, speed_mps: f64) -> EdgeId {
        assert!(speed_mps > 0.0, "edge speed must be positive");
        let length_m = self.node(from).pos.distance_m(self.node(to).pos);
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(RoadEdge { id, from, to, length_m, speed_mps });
        self.adjacency[from.0 as usize].push(id);
        id
    }

    /// Adds a two-way street (a pair of opposite one-way edges).
    pub fn add_two_way(&mut self, a: NodeId, b: NodeId, speed_mps: f64) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b, speed_mps), self.add_edge(b, a, speed_mps))
    }

    /// Looks up a node.
    ///
    /// # Panics
    /// Panics on an id not minted by this network.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &RoadNode {
        &self.nodes[id.0 as usize]
    }

    /// Looks up an edge.
    ///
    /// # Panics
    /// Panics on an id not minted by this network.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &RoadEdge {
        &self.edges[id.0 as usize]
    }

    /// All nodes.
    #[must_use]
    pub fn nodes(&self) -> &[RoadNode] {
        &self.nodes
    }

    /// All directed edges.
    #[must_use]
    pub fn edges(&self) -> &[RoadEdge] {
        &self.edges
    }

    /// Time-optimal route from `from` to `to` (Dijkstra over free-flow
    /// travel times). `None` when unreachable.
    #[must_use]
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Route> {
        let n = self.nodes.len();
        if from.0 as usize >= n || to.0 as usize >= n {
            return None;
        }
        if from == to {
            return Some(Route {
                nodes: vec![from],
                edges: vec![],
                length_m: 0.0,
                travel_time_s: 0.0,
            });
        }
        let mut dist = vec![f64::INFINITY; n];
        let mut prev_edge: Vec<Option<EdgeId>> = vec![None; n];
        let mut heap: BinaryHeap<Reverse<(OrdF64, NodeId)>> = BinaryHeap::new();
        dist[from.0 as usize] = 0.0;
        heap.push(Reverse((OrdF64(0.0), from)));
        while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
            if d > dist[u.0 as usize] {
                continue;
            }
            if u == to {
                break;
            }
            for &eid in &self.adjacency[u.0 as usize] {
                let e = &self.edges[eid.0 as usize];
                let nd = d + e.travel_time_s();
                if nd < dist[e.to.0 as usize] {
                    dist[e.to.0 as usize] = nd;
                    prev_edge[e.to.0 as usize] = Some(eid);
                    heap.push(Reverse((OrdF64(nd), e.to)));
                }
            }
        }
        if dist[to.0 as usize].is_infinite() {
            return None;
        }
        // Reconstruct.
        let mut edges = Vec::new();
        let mut cur = to;
        while cur != from {
            let eid = prev_edge[cur.0 as usize].expect("reachable node has a predecessor");
            edges.push(eid);
            cur = self.edges[eid.0 as usize].from;
        }
        edges.reverse();
        let mut nodes = Vec::with_capacity(edges.len() + 1);
        nodes.push(from);
        let mut length_m = 0.0;
        for &eid in &edges {
            let e = &self.edges[eid.0 as usize];
            nodes.push(e.to);
            length_m += e.length_m;
        }
        Some(Route { nodes, edges, length_m, travel_time_s: dist[to.0 as usize] })
    }

    /// The geometry of a route as a polyline through its node positions.
    #[must_use]
    pub fn route_polyline(&self, route: &Route) -> Polyline {
        Polyline::new(route.nodes.iter().map(|&n| self.node(n).pos).collect())
    }

    /// Distraction zones along a route, ordered by position: one
    /// arc-length interval per non-plain junction the route passes
    /// through (route endpoints excluded — the driver is parked there).
    #[must_use]
    pub fn distraction_zones(&self, route: &Route) -> Vec<DistractionZone> {
        let mut zones = Vec::new();
        let mut along = 0.0;
        for (i, &nid) in route.nodes.iter().enumerate() {
            if i > 0 {
                along += self.edge(route.edges[i - 1]).length_m;
            }
            let interior = i > 0 && i + 1 < route.nodes.len();
            let kind = self.node(nid).kind;
            if interior && kind != NodeKind::Plain {
                let r = kind.distraction_radius_m();
                zones.push(DistractionZone {
                    node: nid,
                    kind,
                    start_m: (along - r).max(0.0),
                    end_m: (along + r).min(route.length_m),
                });
            }
        }
        zones
    }
}

/// `f64` with a total order, for use in the Dijkstra heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-node chain A --(fast, long)-- B --(fast, long)-- C plus a
    /// direct slow edge A--C. Time-optimal path should pick the detour
    /// when its total time is lower.
    fn diamond() -> (RoadNetwork, NodeId, NodeId, NodeId) {
        let mut net = RoadNetwork::new();
        let a = net.add_node(ProjectedPoint::new(0.0, 0.0), NodeKind::Plain);
        let b = net.add_node(ProjectedPoint::new(500.0, 500.0), NodeKind::Intersection);
        let c = net.add_node(ProjectedPoint::new(1_000.0, 0.0), NodeKind::Plain);
        net.add_two_way(a, b, 25.0); // ~707 m at 25 m/s ≈ 28 s per leg
        net.add_two_way(b, c, 25.0);
        net.add_two_way(a, c, 10.0); // 1000 m at 10 m/s = 100 s
        (net, a, b, c)
    }

    #[test]
    fn shortest_path_prefers_time_not_distance() {
        let (net, a, b, c) = diamond();
        let route = net.shortest_path(a, c).unwrap();
        assert_eq!(route.nodes, vec![a, b, c]);
        assert!(route.travel_time_s < 100.0);
        assert!(route.length_m > 1_000.0, "detour is longer in meters");
    }

    #[test]
    fn trivial_route_same_node() {
        let (net, a, _, _) = diamond();
        let route = net.shortest_path(a, a).unwrap();
        assert_eq!(route.nodes, vec![a]);
        assert!(route.edges.is_empty());
        assert_eq!(route.travel_time_s, 0.0);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(ProjectedPoint::new(0.0, 0.0), NodeKind::Plain);
        let b = net.add_node(ProjectedPoint::new(10.0, 0.0), NodeKind::Plain);
        // One-way b -> a only.
        net.add_edge(b, a, 10.0);
        assert!(net.shortest_path(a, b).is_none());
        assert!(net.shortest_path(b, a).is_some());
    }

    #[test]
    fn route_length_matches_polyline_length() {
        let (net, a, _, c) = diamond();
        let route = net.shortest_path(a, c).unwrap();
        let pl = net.route_polyline(&route);
        assert!((pl.length_m() - route.length_m).abs() < 1e-6);
    }

    #[test]
    fn distraction_zones_cover_interior_junctions_only() {
        let (net, a, b, c) = diamond();
        let route = net.shortest_path(a, c).unwrap();
        let zones = net.distraction_zones(&route);
        assert_eq!(zones.len(), 1);
        let z = zones[0];
        assert_eq!(z.node, b);
        assert_eq!(z.kind, NodeKind::Intersection);
        let along_b = net.edge(route.edges[0]).length_m;
        assert!((z.start_m - (along_b - 40.0)).abs() < 1e-9);
        assert!((z.end_m - (along_b + 40.0)).abs() < 1e-9);
    }

    #[test]
    fn distraction_zone_clamped_to_route() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(ProjectedPoint::new(0.0, 0.0), NodeKind::Plain);
        let b = net.add_node(ProjectedPoint::new(20.0, 0.0), NodeKind::Roundabout);
        let c = net.add_node(ProjectedPoint::new(40.0, 0.0), NodeKind::Plain);
        net.add_edge(a, b, 10.0);
        net.add_edge(b, c, 10.0);
        let route = net.shortest_path(a, c).unwrap();
        let zones = net.distraction_zones(&route);
        assert_eq!(zones.len(), 1);
        // Radius 60 m exceeds the route on both sides: clamped to [0, 40].
        assert_eq!(zones[0].start_m, 0.0);
        assert_eq!(zones[0].end_m, 40.0);
    }

    #[test]
    fn endpoints_never_produce_zones() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(ProjectedPoint::new(0.0, 0.0), NodeKind::Roundabout);
        let b = net.add_node(ProjectedPoint::new(100.0, 0.0), NodeKind::Roundabout);
        net.add_edge(a, b, 10.0);
        let route = net.shortest_path(a, b).unwrap();
        assert!(net.distraction_zones(&route).is_empty());
    }

    #[test]
    fn kind_radii_are_ordered() {
        assert!(
            NodeKind::Roundabout.distraction_radius_m()
                > NodeKind::Intersection.distraction_radius_m()
        );
        assert!(NodeKind::Intersection.distraction_radius_m() > 0.0);
        assert_eq!(NodeKind::Plain.distraction_radius_m(), 0.0);
    }

    #[test]
    #[should_panic(expected = "edge speed must be positive")]
    fn zero_speed_edge_panics() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(ProjectedPoint::new(0.0, 0.0), NodeKind::Plain);
        let b = net.add_node(ProjectedPoint::new(10.0, 0.0), NodeKind::Plain);
        net.add_edge(a, b, 0.0);
    }
}
