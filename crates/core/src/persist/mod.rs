//! Durability: versioned snapshots and an event-sourced write-ahead log.
//!
//! The engine's externally-visible behaviour is a pure fold over its
//! input events (§4 of the paper describes the platform as a pipeline
//! of deterministic stages). This module makes that fold *durable*:
//!
//! * [`WalOp`] — the closed set of input events (user registration,
//!   catalog ingest, GPS fixes, feedback, editorial injections, ticks),
//! * [`WalRecord`] / [`wal`] — a length-prefixed, CRC-framed append-only
//!   log of those events with monotonically increasing sequence numbers,
//! * [`snapshot_engine`] / [`snapshot`] — a versioned binary snapshot of
//!   the *full* engine state (stores, ledgers, bus queues, transport
//!   wire state, observability counters) with per-section checksums,
//! * `codec` and `types` — the one binary codec: byte primitives, the
//!   `[len][crc][seq|kind|body]` frame the WAL and the shard wire share,
//!   and one encode/decode pair per persisted type,
//! * [`DurableEngine`] — a write-ahead wrapper: every mutation is framed,
//!   appended, fsynced (group-commit configurable) and only then applied,
//! * [`restore_engine`] — crash recovery: decode a snapshot, truncate the
//!   WAL at the last valid record, replay the suffix. The restored engine
//!   is byte-identical to one that never crashed, because the live path
//!   and the replay path share one [`apply_record`] function.
//!
//! Corruption never panics: torn tails are truncated (and counted in the
//! [`RecoveryReport`]), while CRC-valid-but-undecodable bytes surface as
//! typed [`PersistError`]s.

pub(crate) mod codec;
mod durable;
mod replay;
pub mod snapshot;
mod types;
pub mod wal;

pub use codec::{
    check_frame, crc32, encode_frame, encode_frame_payload, read_frame, split_frame_payload,
    ByteReader, ByteWriter, Frame,
};
pub use durable::{restore_engine, DurableEngine, FileWal, MemWal, RecoveryReport, WalStorage};
pub use replay::{apply_record, ApplyResult};
pub use snapshot::{decode_engine, snapshot_engine, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use types::{get_obs_snapshot, put_obs_snapshot};
pub use wal::{decode_payload, encode_payload, encode_record, WalOp, WalRecord, WalScan};

use std::fmt;

/// Typed failures of the durability layer.
///
/// Every decode path returns one of these instead of panicking; the
/// recovery driver distinguishes *torn tails* (normal after a crash,
/// handled by truncation inside [`wal::scan`]) from *corruption* (CRC
/// passed but the bytes do not decode), which is always an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Input ended before a complete header or section.
    Truncated,
    /// The snapshot does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// The version number found in the header.
        found: u32,
    },
    /// A snapshot section failed its CRC check.
    SectionCorrupt {
        /// Section identifier from the section header.
        id: u16,
    },
    /// A section id not defined by this format version.
    UnknownSection {
        /// The unrecognised identifier.
        id: u16,
    },
    /// A mandatory section is absent.
    MissingSection {
        /// The missing section's identifier.
        id: u16,
    },
    /// Bytes passed their checksum but do not decode.
    Corrupt {
        /// What was being decoded when the mismatch was found.
        what: &'static str,
    },
    /// WAL sequence numbers are not contiguous.
    SequenceGap {
        /// The sequence number that was expected next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
    /// The live transport cannot export its wire state for snapshotting.
    UnsupportedTransport,
    /// A persisted metric name is not in the registry allowlist.
    UnknownMetric,
    /// An underlying file operation failed.
    Io,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "input truncated mid-structure"),
            PersistError::BadMagic => write!(f, "bad snapshot magic"),
            PersistError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            PersistError::SectionCorrupt { id } => {
                write!(f, "snapshot section {id} failed its checksum")
            }
            PersistError::UnknownSection { id } => write!(f, "unknown snapshot section {id}"),
            PersistError::MissingSection { id } => write!(f, "missing snapshot section {id}"),
            PersistError::Corrupt { what } => write!(f, "corrupt {what}"),
            PersistError::SequenceGap { expected, found } => {
                write!(f, "WAL sequence gap: expected {expected}, found {found}")
            }
            PersistError::UnsupportedTransport => {
                write!(f, "transport does not support state export")
            }
            PersistError::UnknownMetric => write!(f, "persisted metric name not in allowlist"),
            PersistError::Io => write!(f, "file I/O failure"),
        }
    }
}

impl std::error::Error for PersistError {}
