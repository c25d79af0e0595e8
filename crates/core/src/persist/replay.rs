//! The single apply path shared by live execution and crash recovery.
//!
//! [`apply_record`] is the *only* place a [`WalOp`] turns into engine
//! mutations — and since `WalOp` *is*
//! [`EngineCommand`](crate::command::EngineCommand), it is nothing but
//! [`Engine::apply`] with the outcome recorded. The live
//! [`DurableEngine`](super::DurableEngine) logs a record and then calls
//! it; [`restore_engine`](super::restore_engine) replays the WAL suffix
//! through the very same function; the shard agent serves forwarded
//! commands through it too. Replay-equals-original therefore holds by
//! construction, not by parallel-maintained code paths.

use super::wal::WalRecord;
use crate::engine::{Engine, EngineEvent};

/// What applying one WAL record produced.
///
/// Engine-level rejections (unknown user on an injection, a bus-rejected
/// service change) are *recorded outcomes*, not apply failures: the
/// original execution took the same path, mutated the same counters and
/// dead-letter queues, and recovery must reproduce that exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyResult {
    /// Sequence number of the applied record.
    pub seq: u64,
    /// Events emitted by the engine (ticks and skips produce these).
    pub events: Vec<EngineEvent>,
    /// Display form of the engine error when the operation was
    /// rejected; `None` on success.
    pub error: Option<String>,
}

/// Applies one WAL record to the engine through [`Engine::apply`].
pub fn apply_record(engine: &mut Engine, record: &WalRecord) -> ApplyResult {
    match engine.apply(&record.op) {
        Ok(events) => ApplyResult { seq: record.seq, events, error: None },
        Err(e) => ApplyResult { seq: record.seq, events: Vec::new(), error: Some(e.to_string()) },
    }
}
