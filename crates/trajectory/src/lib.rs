//! GPS trajectory analytics for PPHCR.
//!
//! The paper (§1.2) describes the tracking pipeline this crate
//! reproduces: *"The amount of GPS data arriving to the tracking data DB
//! requires to periodically process and simplify them, extracting a
//! compact, discrete model which describes destination, trajectory,
//! speed, frequency, time of the day and complexity. Major staying
//! points on the driving paths are calculated using a density based
//! location clustering \[DBSCAN\] and complexity is calculated analysing
//! the trajectory simplified using the Ramer-Douglas-Peucker algorithm
//! (RDP)."*
//!
//! Modules:
//!
//! * [`fix`] — raw GPS fixes, traces, and dwell-based trip segmentation,
//! * [`dbscan`] — density-based clustering and staying-point extraction,
//! * [`rdp`] — Ramer–Douglas–Peucker simplification and the complexity
//!   metric,
//! * [`model`] — the compact, discrete mobility model,
//! * [`predict`] — destination and travel-time (ΔT) prediction feeding
//!   the proactive recommender (paper Fig. 2).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dbscan;
pub mod fix;
pub mod model;
pub mod predict;
pub mod rdp;

pub use dbscan::{dbscan, stay_points, ClusterLabel, DbscanParams, StayPoint};
pub use fix::{GpsFix, InvalidFix, Trace, TripSegmenter};
pub use model::{MobilityModel, RouteProfile, TripSummary};
pub use predict::{TripPrediction, TripPredictor};
pub use rdp::{rdp_indices, simplify, trajectory_complexity};
