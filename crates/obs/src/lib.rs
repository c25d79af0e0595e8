//! # pphcr-obs — deterministic observability
//!
//! Metrics and tracing for the PPHCR platform, built to the same
//! standard as the engine itself: **deterministic, panic-free,
//! bounded**. The paper's control dashboard (§2.2) exposes "the
//! details of the recommendation process"; this crate is the layer
//! that records those details without perturbing them.
//!
//! * [`Registry`] — named counters, gauges and power-of-two-bucket
//!   [`Histogram`]s with exact `u64` counts (no floats on the hot
//!   path). Per-shard registries from the parallel warm phase merge
//!   deterministically with [`Registry::merge_from`]; tail latencies
//!   come out of a histogram via
//!   [`Histogram::quantile_upper_bound`].
//! * [`wire`] — the single-line JSON wire format bench agent
//!   processes use to ship their histograms to the orchestrator.
//! * [`json`] — the workspace's one JSON module: the pretty writer,
//!   string escaping and the reader every decoder is built on.
//! * [`Span`] — wall-clock stage timing routed through the single
//!   D1-allowlisted [`timing`] module. Span durations are *reported
//!   only* and never enter a snapshot.
//! * [`DecisionTrace`] — a bounded ring buffer of per-decision
//!   pipeline records: stage candidate counts, cut reasons
//!   (freshness, preference, geo, heard), score components and the
//!   final scheduling [`Verdict`].
//! * [`ObsSnapshot`] — a stable pretty-JSON export of all of the
//!   above, byte-identical across runs and worker counts for the same
//!   seeded inputs.
//!
//! The crate has no dependencies, so every other workspace crate can
//! embed it without cycles.

pub mod json;
pub mod merge;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod timing;
pub mod trace;
pub mod wire;

pub use merge::{merge_snapshots, MergeError, MergePlan};
pub use registry::{Histogram, Registry, TimingStat, HISTOGRAM_BUCKETS};
pub use snapshot::{HistogramSnapshot, ObsSnapshot};
pub use span::Span;
pub use trace::{DecisionTrace, DecisionTraceEntry, Verdict, DEFAULT_TRACE_CAPACITY};
