//! WAL storage backends, the write-ahead engine wrapper, and crash
//! recovery.

use super::replay::{apply_record, ApplyResult};
use super::snapshot::{decode_engine, snapshot_engine};
use super::wal::{encode_record, scan, WalOp, WalRecord};
use super::PersistError;
use crate::engine::Engine;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Where framed WAL records go. Implementations only see opaque frames;
/// framing and CRCs are the caller's job.
pub trait WalStorage {
    /// Appends one framed record.
    fn append(&mut self, frame: &[u8]) -> Result<(), PersistError>;
    /// Makes previously appended frames durable. Called after every
    /// record.
    fn sync(&mut self) -> Result<(), PersistError>;
}

/// An in-memory WAL, for tests and the crash-recovery sweep (where the
/// "disk" is a byte vector we can cut at arbitrary offsets).
#[derive(Debug, Clone, Default)]
pub struct MemWal {
    buf: Vec<u8>,
}

impl MemWal {
    /// An empty in-memory log.
    #[must_use]
    pub fn new() -> Self {
        MemWal::default()
    }

    /// The raw log bytes accumulated so far.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the log, returning its bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl WalStorage for MemWal {
    fn append(&mut self, frame: &[u8]) -> Result<(), PersistError> {
        self.buf.extend_from_slice(frame);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), PersistError> {
        Ok(())
    }
}

/// A file-backed WAL that fsyncs every record before the write-ahead
/// wrapper applies it, so an acknowledged record survives a crash.
#[derive(Debug)]
pub struct FileWal {
    file: File,
}

impl FileWal {
    /// Creates (truncating) a WAL file.
    pub fn create(path: &Path) -> Result<Self, PersistError> {
        let file = File::create(path).map_err(|_| PersistError::Io)?;
        Ok(FileWal { file })
    }
}

impl WalStorage for FileWal {
    fn append(&mut self, frame: &[u8]) -> Result<(), PersistError> {
        self.file.write_all(frame).map_err(|_| PersistError::Io)
    }

    fn sync(&mut self) -> Result<(), PersistError> {
        self.file.sync_data().map_err(|_| PersistError::Io)
    }
}

/// The write-ahead wrapper: every engine input is framed, appended and
/// synced *before* it mutates the engine, so the log always covers the
/// in-memory state.
pub struct DurableEngine<S: WalStorage> {
    engine: Engine,
    wal: S,
    next_seq: u64,
}

impl<S: WalStorage> DurableEngine<S> {
    /// Wraps a fresh engine over an empty WAL; sequence numbers start
    /// at 1.
    pub fn new(engine: Engine, wal: S) -> Self {
        DurableEngine { engine, wal, next_seq: 1 }
    }

    /// Resumes logging after a restore: `next_seq` must be one past the
    /// last sequence number already in the log.
    pub fn resume(engine: Engine, wal: S, next_seq: u64) -> Self {
        DurableEngine { engine, wal, next_seq }
    }

    /// Logs `op` (write-ahead: append + sync first), then applies it.
    pub fn apply(&mut self, op: WalOp) -> Result<ApplyResult, PersistError> {
        let record = WalRecord { seq: self.next_seq, op };
        let frame = encode_record(&record);
        self.wal.append(&frame)?;
        self.wal.sync()?;
        self.next_seq += 1;
        Ok(apply_record(&mut self.engine, &record))
    }

    /// Serializes the wrapped engine, stamping the snapshot with the
    /// last logged sequence number.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, PersistError> {
        snapshot_engine(&self.engine, self.next_seq.saturating_sub(1))
    }

    /// The wrapped engine (read-only views, dashboards, snapshots).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The sequence number the next logged record will carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Unwraps into the engine and the storage backend.
    pub fn into_parts(self) -> (Engine, S) {
        (self.engine, self.wal)
    }
}

/// What crash recovery found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// `last_wal_seq` recorded in the snapshot header.
    pub snapshot_seq: u64,
    /// Highest sequence number applied (equals `snapshot_seq` when the
    /// WAL held nothing newer).
    pub last_seq: u64,
    /// WAL records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Bytes dropped from the WAL's torn tail.
    pub torn_bytes_dropped: u64,
    /// Per-record outcomes of the replay, in sequence order.
    pub replayed: Vec<ApplyResult>,
}

impl RecoveryReport {
    /// The dashboard banner for this recovery.
    #[must_use]
    pub fn banner(&self) -> String {
        format!(
            "recovered at seq {}, dropped {} torn bytes",
            self.last_seq, self.torn_bytes_dropped
        )
    }
}

/// Restores an engine from a snapshot plus the WAL bytes that survived
/// the crash.
///
/// The WAL is scanned with torn-tail truncation, records at or before
/// the snapshot's sequence number are skipped, and the remainder is
/// replayed through [`apply_record`] — the same function the live
/// [`DurableEngine`] uses, so the result is byte-identical to an
/// uninterrupted run. The restored engine carries a recovery banner
/// (surfaced by the dashboard) describing what was recovered.
pub fn restore_engine(
    snapshot: &[u8],
    wal_bytes: &[u8],
) -> Result<(Engine, RecoveryReport), PersistError> {
    let (mut engine, snapshot_seq) = decode_engine(snapshot)?;
    let scanned = scan(wal_bytes)?;
    let mut replayed = Vec::new();
    let mut last_seq = snapshot_seq;
    for record in &scanned.records {
        if record.seq <= snapshot_seq {
            continue;
        }
        if record.seq != last_seq + 1 {
            return Err(PersistError::SequenceGap { expected: last_seq + 1, found: record.seq });
        }
        replayed.push(apply_record(&mut engine, record));
        last_seq = record.seq;
    }
    let report = RecoveryReport {
        snapshot_seq,
        last_seq,
        records_replayed: replayed.len() as u64,
        torn_bytes_dropped: scanned.torn_bytes as u64,
        replayed,
    };
    engine.recovery_banner = Some(report.banner());
    Ok((engine, report))
}
