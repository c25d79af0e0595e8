//! Simulated linear-audio substrate for PPHCR.
//!
//! The paper's platform splices recommended audio clips into live radio
//! streams: *"the selected live audio is seamlessly replaced by the
//! recommended clips"* (§1.3), with buffering synchronized to schedule
//! metadata so a live programme can resume *time-shifted* after a clip
//! (Fig. 4). The real system consumes 10 live 96 kbps streams from Rai;
//! we replace them with deterministic synthetic PCM (see `DESIGN.md`):
//! every source is a pure function from sample index to amplitude, so
//! tests can verify *exactly* which source each output sample came from
//! and that seams are sample-accurate.
//!
//! Modules:
//!
//! * [`sample`] — sample-rate math and clock↔sample conversions,
//! * [`source`] — deterministic audio sources (live services, clips,
//!   silence),
//! * [`clip`] — the audio clip store (the audio half of the paper's
//!   content repository),
//! * [`timeshift`] — the ring buffer that lets a running programme be
//!   replayed from its start,
//! * [`splice`] — splice plans and the sample-accurate renderer with
//!   crossfades,
//! * [`bitrate`] — bit-rate/byte accounting used by the network-cost
//!   model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitrate;
pub mod clip;
pub mod sample;
pub mod source;
pub mod splice;
pub mod timeshift;

pub use bitrate::Bitrate;
pub use clip::{AudioClip, ClipId, ClipStore};
pub use sample::SampleClock;
pub use source::{AudioSource, ClipSource, LiveSource, SilenceSource, SourceId};
pub use splice::{PlannedSegment, RenderStats, SpliceError, SplicePlan};
pub use timeshift::TimeShiftBuffer;
