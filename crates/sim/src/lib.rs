//! Synthetic world and experiment harness for PPHCR.
//!
//! The paper's evaluation ran on proprietary assets: Rai's live
//! streams and podcast corpus, real listeners and their GPS traces.
//! Per the substitution rules in `DESIGN.md`, this crate generates
//! controlled equivalents:
//!
//! * [`world`] — a synthetic city: grid road network with intersections
//!   and roundabouts, homes, workplaces and landmarks,
//! * [`population`] — commuters with ground-truth tastes and repeatable
//!   home↔work mobility (noisy GPS fixes included),
//! * [`corpus`] — a 30-category text corpus with per-category
//!   vocabularies (Zipf-ish frequencies) and daily podcast batches,
//! * [`listener`] — the listener behaviour model: how a simulated
//!   person with tastes reacts to played content (listen, like, skip,
//!   channel-surf),
//! * [`experiments`] — the harness the bench binaries call: each function
//!   reproduces one experiment of `DESIGN.md` and returns printable
//!   rows,
//! * [`scenarios`] — the A/B latency suites `bench_agent` runs,
//! * [`timing`] — the experiments' stopwatch and min-of-N sampling,
//! * [`chaos`] — seeded end-to-end fault profiles (lossy wire, flaky
//!   unicast) for the chaos suite and experiment E12,
//! * [`script`] — the one seeded command script generator behind every
//!   identity sweep (crash, shard differential, tick-heavy), and the
//!   in-process run each sweep is diffed against,
//! * [`crash`] — the crash-recovery sweep: kill the platform at every
//!   WAL boundary, restore, and diff against the uninterrupted run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod corpus;
pub mod crash;
pub mod experiments;
pub mod listener;
pub mod population;
pub mod scenarios;
pub mod script;
pub mod timing;
pub mod world;

pub use chaos::ChaosProfile;
pub use corpus::CorpusGenerator;
pub use crash::{kill_point_sweep, SweepReport};
pub use listener::{ListenerModel, ListeningOutcome};
pub use population::{Commuter, Population};
pub use world::SyntheticCity;
