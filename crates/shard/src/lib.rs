//! # pphcr-shard — multi-process sharded deployment
//!
//! Runs N engine processes ("shard agents"), each owning the
//! `splitmix64(user) % N` partition of the listeners, behind a router
//! that speaks the unified [`EngineCommand`](pphcr_core::EngineCommand)
//! API. The deployment is *observationally identical* to a single
//! process: the merged event stream and the merged observability
//! snapshot are byte-for-byte what one engine fed the same commands
//! would produce. That identity is what makes sharding safe to roll
//! out — and it is pinned by a differential test, not argued.
//!
//! * [`protocol`] — the stdin/stdout wire protocol between router and
//!   agent. Frames reuse the WAL format (`[len][crc32][seq|kind|body]`)
//!   and commands travel as WAL payload bytes through the *same* codec
//!   the durability layer uses, so a forwarded command is literally a
//!   WAL record in flight.
//! * [`agent`] — the shard server: a
//!   [`DurableEngine`](pphcr_core::DurableEngine) behind a
//!   read-dispatch-respond loop. Also supports snapshot export and
//!   restore, which is how shard state migrates between processes.
//! * [`router`] — command routing (`target_user` → owning shard,
//!   broadcast otherwise), tick fan-out with per-shard user sub-lists,
//!   event re-interleaving into request order, observability merging
//!   via [`pphcr_obs::merge`], and snapshot-handoff rebalancing.
//!
//! The differential script and its single-process baseline live in
//! `pphcr_sim::script`; the `shard_smoke` binary and E16 drive the
//! router from `pphcr-bench`.
//!
//! The paper's platform (§2.1) is a pipeline of queue-connected
//! services; this crate is the reproduction's answer to "what if the
//! personalization stage itself must scale out".

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agent;
pub mod protocol;
pub mod router;

pub use agent::serve;
pub use protocol::{read_frame, write_frame, ProtoError, Request, Response};
pub use router::{InProcessShard, ProcessShard, Router, ShardError, ShardTransport};
