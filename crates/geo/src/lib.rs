//! Geographic primitives and road networks for PPHCR.
//!
//! This crate is the spatial foundation of the Proactive Personalized
//! Hybrid Content Radio (PPHCR) platform described in *Context-Aware
//! Proactive Personalization of Linear Audio Content* (EDBT 2017). It
//! provides:
//!
//! * [`GeoPoint`] — WGS-84 latitude/longitude with haversine distances and
//!   destination points,
//! * [`LocalProjection`] — a metric equirectangular projection used by the
//!   clustering and simplification algorithms,
//! * [`Polyline`] — measured paths with along-path interpolation,
//! * [`grid::GridIndex`] — a uniform-grid spatial index standing in for
//!   the paper's `PostGIS` tracking store,
//! * [`roadnet::RoadNetwork`] — a routable road graph with intersections
//!   and roundabouts, the substrate for the distraction-aware scheduler,
//! * [`time`] — the platform clock (simulated seconds).
//!
//! Everything is deterministic and allocation-conscious; see `DESIGN.md`
//! at the repository root for how this crate maps onto the paper.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod grid;
pub mod point;
pub mod polyline;
pub mod roadnet;
pub mod time;

pub use point::{GeoPoint, LocalProjection, ProjectedPoint, EARTH_RADIUS_M};
pub use polyline::Polyline;
pub use roadnet::DistractionZone;
pub use roadnet::{EdgeId, NodeId, NodeKind, RoadEdge, RoadNetwork, RoadNode, Route};
pub use time::{TimeInterval, TimePoint, TimeSpan};
