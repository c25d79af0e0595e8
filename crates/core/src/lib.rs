//! The PPHCR platform core: everything from Fig. 3 of the paper wired
//! together in-process.
//!
//! * [`bus`] — the typed message bus standing in for `RabbitMQ`,
//! * [`replacement`] — the replacement planner: schedule-synchronized
//!   buffering and time-shift (the Fig. 4 timeline),
//! * [`player`] — the client session state machine (play / skip / like,
//!   implicit feedback),
//! * [`injection`] — editorial recommendation injection (Fig. 6),
//! * [`netcost`] — the broadcast-vs-Internet delivery cost model,
//! * [`dashboard`] — the control dashboard's read model (Figs. 5–6),
//! * [`engine`] — the top-level engine owning all stores and the
//!   recommendation loop.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bus;
pub mod command;
pub mod dashboard;
pub mod engine;
pub mod fault;
pub mod health;
pub(crate) mod hotstate;
pub mod injection;
pub mod netcost;
pub mod persist;
pub mod player;
pub mod replacement;
pub mod retry;
pub mod snapshot;

pub use command::EngineCommand;

pub use bus::{Bus, BusMessage, DeadLetter, DeadLetterReason, Envelope, OverflowPolicy, Topic};
pub use dashboard::{Dashboard, ObservabilityView};
pub use engine::{
    user_shard, CacheQuanta, Engine, EngineConfig, EngineError, EngineEvent, TickRequest,
};
pub use fault::{
    transport_from_state, ChaosRng, FaultProfile, FaultyTransport, PerfectTransport, Transport,
    TransportState, WireStats,
};
pub use health::{HealthCounts, HealthState, UserHealth};
pub use injection::{InjectionQueue, PendingInjection};
pub use netcost::{DeliveryPlanKind, FetchOutcome, NetworkCostModel, TrafficReport, UnicastLink};
pub use persist::{
    restore_engine, ApplyResult, DurableEngine, FileWal, MemWal, PersistError, RecoveryReport,
    WalOp, WalRecord, WalStorage,
};
pub use player::{PlaybackMode, Player, PlayerEvent};
pub use replacement::{ReplacementPlanner, ReplacementTimeline, TimelineEntry};
pub use retry::{BackoffPolicy, DeliveryTracker};
pub use snapshot::PlatformSnapshot;
