//! The router ⇄ agent wire protocol.
//!
//! Frames are WAL frames, built and checked by the same
//! [`pphcr_core::persist`] functions: `[len: u32 LE][crc: u32 LE]`
//! followed by `payload = [seq: u64][kind: u8][body]`, CRC32 over the
//! whole payload. WAL record kinds stop below 200; protocol control
//! kinds start at 200, so a protocol frame can never be mistaken for a
//! logged operation. Commands travel *as WAL payload bytes* and the
//! observability snapshot in the engine snapshot's own encoding, both
//! through the persist codec — which is what guarantees a forwarded
//! command means exactly what the same bytes mean in a durability log.
//!
//! Every decode path returns a typed [`ProtoError`]; hostile bytes
//! never panic an agent.

use pphcr_core::persist::{
    self, decode_payload, encode_frame, encode_payload, get_obs_snapshot, put_obs_snapshot,
    ByteReader, ByteWriter, PersistError,
};
use pphcr_core::{EngineCommand, WalRecord};
use pphcr_obs::ObsSnapshot;
use std::fmt;
use std::io::{Read, Write};

/// Router → agent: forward a command for application.
pub const KIND_APPLY: u8 = 200;
/// Router → agent: capture and ship the observability snapshot.
pub const KIND_OBS_REQUEST: u8 = 201;
/// Router → agent: export a full engine snapshot (rebalance donor).
pub const KIND_SNAPSHOT_REQUEST: u8 = 202;
/// Router → agent: restore engine state from a snapshot (recipient).
pub const KIND_RESTORE: u8 = 203;
/// Agent → router: outcome of one applied command.
pub const KIND_APPLIED: u8 = 210;
/// Agent → router: the observability snapshot.
pub const KIND_OBS: u8 = 211;
/// Agent → router: exported snapshot bytes.
pub const KIND_SNAPSHOT: u8 = 212;
/// Agent → router: restore completed.
pub const KIND_RESTORED: u8 = 213;
/// Agent → router: the agent could not honour the request.
pub const KIND_FAULT: u8 = 214;

/// Frames larger than this are rejected before allocation — a corrupt
/// length prefix must not trigger a gigabyte `Vec`.
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Typed failures of the wire protocol.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying pipe failed (or closed mid-frame).
    Io(std::io::Error),
    /// A frame failed its CRC or length validation.
    BadFrame,
    /// The payload passed its CRC but does not decode.
    Decode(PersistError),
    /// A frame carried a kind the receiver does not understand.
    UnknownKind(u8),
    /// The peer answered with the wrong response kind.
    UnexpectedResponse(u8),
    /// The peer reported a fault.
    Fault(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "pipe I/O failure: {e}"),
            ProtoError::BadFrame => write!(f, "frame failed length/CRC validation"),
            ProtoError::Decode(e) => write!(f, "payload does not decode: {e}"),
            ProtoError::UnknownKind(k) => write!(f, "unknown protocol kind {k}"),
            ProtoError::UnexpectedResponse(k) => write!(f, "unexpected response kind {k}"),
            ProtoError::Fault(msg) => write!(f, "peer fault: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<PersistError> for ProtoError {
    fn from(e: PersistError) -> Self {
        ProtoError::Decode(e)
    }
}

/// Writes one `[len][crc][seq|kind|body]` frame in a single write and
/// flushes.
///
/// # Errors
/// [`ProtoError::Io`] when the pipe fails.
pub fn write_frame(
    out: &mut impl Write,
    seq: u64,
    kind: u8,
    body: &[u8],
) -> Result<(), ProtoError> {
    out.write_all(&encode_frame(seq, kind, |w| w.put_bytes(body)))?;
    out.flush()?;
    Ok(())
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
/// [`ProtoError::Io`] on a torn read, [`ProtoError::BadFrame`] on a
/// CRC mismatch or a length prefix too short for `seq|kind` or over
/// `MAX_FRAME`.
pub fn read_frame(input: &mut impl Read) -> Result<Option<(u64, u8, Vec<u8>)>, ProtoError> {
    persist::read_frame(input, MAX_FRAME).map_err(|e| match e.kind() {
        std::io::ErrorKind::InvalidData => ProtoError::BadFrame,
        _ => ProtoError::Io(e),
    })
}

/// One event as it crosses the wire: the owning user (the router's
/// interleave key) and the event's stable debug rendering (the
/// identity artefact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEvent {
    /// Raw id of the listener the event concerns.
    pub user: u64,
    /// `format!("{event:?}")` of the engine event.
    pub line: String,
}

/// Router → agent requests.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply one engine command.
    Apply(EngineCommand),
    /// Capture and return the observability snapshot.
    Obs,
    /// Export the full engine snapshot (rebalance donor side).
    Snapshot,
    /// Replace engine state from snapshot bytes (recipient side).
    Restore(Vec<u8>),
}

/// Agent → router responses.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Outcome of an [`Request::Apply`].
    Applied {
        /// Display form of the engine rejection, when the command was
        /// rejected (a recorded outcome, same as in the WAL).
        error: Option<String>,
        /// Events the command produced, in engine emission order.
        events: Vec<WireEvent>,
    },
    /// The shard's observability snapshot.
    Obs(ObsSnapshot),
    /// Exported engine snapshot bytes.
    Snapshot(Vec<u8>),
    /// Restore completed.
    Restored,
    /// The agent could not honour the request.
    Fault(String),
}

impl Request {
    /// Encodes the request into `(kind, body)` for framing.
    #[must_use]
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Request::Apply(cmd) => {
                (KIND_APPLY, encode_payload(&WalRecord { seq: 0, op: cmd.clone() }))
            }
            Request::Obs => (KIND_OBS_REQUEST, Vec::new()),
            Request::Snapshot => (KIND_SNAPSHOT_REQUEST, Vec::new()),
            Request::Restore(bytes) => (KIND_RESTORE, bytes.clone()),
        }
    }

    /// Decodes a request from a received `(kind, body)` pair.
    ///
    /// # Errors
    /// [`ProtoError::UnknownKind`] / [`ProtoError::Decode`] on
    /// unrecognised or undecodable frames.
    pub fn decode(kind: u8, body: &[u8]) -> Result<Self, ProtoError> {
        match kind {
            KIND_APPLY => Ok(Request::Apply(decode_payload(body)?.op)),
            KIND_OBS_REQUEST => Ok(Request::Obs),
            KIND_SNAPSHOT_REQUEST => Ok(Request::Snapshot),
            KIND_RESTORE => Ok(Request::Restore(body.to_vec())),
            other => Err(ProtoError::UnknownKind(other)),
        }
    }
}

impl Response {
    /// Encodes the response into `(kind, body)` for framing.
    #[must_use]
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Response::Applied { error, events } => {
                let mut w = ByteWriter::new();
                w.put_opt(error.as_ref(), |w, e| w.put_str(e));
                w.put_seq(events, |w, e| {
                    w.put_u64(e.user);
                    w.put_str(&e.line);
                });
                (KIND_APPLIED, w.into_inner())
            }
            Response::Obs(snap) => {
                let mut w = ByteWriter::new();
                put_obs_snapshot(&mut w, snap);
                (KIND_OBS, w.into_inner())
            }
            Response::Snapshot(bytes) => (KIND_SNAPSHOT, bytes.clone()),
            Response::Restored => (KIND_RESTORED, Vec::new()),
            Response::Fault(msg) => {
                let mut w = ByteWriter::new();
                w.put_str(msg);
                (KIND_FAULT, w.into_inner())
            }
        }
    }

    /// Decodes a response from a received `(kind, body)` pair.
    ///
    /// # Errors
    /// [`ProtoError::UnknownKind`] / [`ProtoError::Decode`] on
    /// unrecognised or undecodable frames.
    pub fn decode(kind: u8, body: &[u8]) -> Result<Self, ProtoError> {
        match kind {
            KIND_APPLIED => {
                let mut r = ByteReader::new(body);
                let error = r.opt(ByteReader::string)?;
                let events = r.seq(|r| Ok(WireEvent { user: r.u64()?, line: r.string()? }))?;
                Ok(Response::Applied { error, events })
            }
            KIND_OBS => {
                let mut r = ByteReader::new(body);
                Ok(Response::Obs(get_obs_snapshot(&mut r)?))
            }
            KIND_SNAPSHOT => Ok(Response::Snapshot(body.to_vec())),
            KIND_RESTORED => Ok(Response::Restored),
            KIND_FAULT => {
                let mut r = ByteReader::new(body);
                Ok(Response::Fault(r.string()?))
            }
            other => Err(ProtoError::UnknownKind(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_geo::TimePoint;
    use pphcr_userdata::UserId;

    #[test]
    fn frames_round_trip_through_a_pipe_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, KIND_OBS_REQUEST, &[]).unwrap();
        write_frame(&mut buf, 8, KIND_RESTORE, b"snapshot bytes").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (seq, kind, body) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((seq, kind, body.as_slice()), (7, KIND_OBS_REQUEST, &[][..]));
        let (seq, kind, body) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((seq, kind, body.as_slice()), (8, KIND_RESTORE, &b"snapshot bytes"[..]));
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, KIND_OBS_REQUEST, &[]).unwrap();
        // Flip a payload byte: CRC must catch it.
        if let Some(b) = buf.last_mut() {
            *b ^= 0xFF;
        }
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(ProtoError::BadFrame)));
        // A torn header is clean EOF; a torn payload is an I/O error.
        let mut cursor = std::io::Cursor::new(vec![1, 2, 3]);
        assert!(matches!(read_frame(&mut cursor), Ok(None)));
        let mut torn = Vec::new();
        write_frame(&mut torn, 2, KIND_RESTORE, b"snapshot bytes").unwrap();
        torn.truncate(12); // header + 4 of the 23 payload bytes
        let mut cursor = std::io::Cursor::new(torn);
        assert!(matches!(read_frame(&mut cursor), Err(ProtoError::Io(_))));
        // A length prefix too short for seq|kind, or over MAX_FRAME, is
        // rejected before anything is allocated for it.
        for len in [8, MAX_FRAME as u32 + 1] {
            let mut cursor = std::io::Cursor::new([len.to_le_bytes(), [0; 4]].concat());
            assert!(matches!(read_frame(&mut cursor), Err(ProtoError::BadFrame)), "len {len}");
        }
    }

    /// There is one frame format: a WAL record reads back as a shard
    /// frame, and the shard writes the very same bytes for it.
    #[test]
    fn wal_records_read_back_as_shard_frames() {
        use pphcr_core::persist::encode_record;
        let record = WalRecord {
            seq: 42,
            op: EngineCommand::Skip { user: UserId(3), now: TimePoint::at(0, 9, 30, 0) },
        };
        let frame = encode_record(&record);
        let (seq, kind, body) =
            read_frame(&mut std::io::Cursor::new(&frame)).unwrap().expect("one frame");
        let payload = encode_payload(&record);
        assert_eq!((seq, kind, &body[..]), (42, payload[8], &payload[9..]));
        let mut rewritten = Vec::new();
        write_frame(&mut rewritten, seq, kind, &body).unwrap();
        assert_eq!(rewritten, frame);
    }

    #[test]
    fn commands_round_trip_as_wal_payloads() {
        let req = Request::Apply(EngineCommand::Skip {
            user: UserId(3),
            now: TimePoint::at(0, 9, 30, 0),
        });
        let (kind, body) = req.encode();
        assert_eq!(kind, KIND_APPLY);
        assert_eq!(Request::decode(kind, &body).unwrap(), req);
        let (kind, body) = Request::Snapshot.encode();
        assert_eq!(Request::decode(kind, &body).unwrap(), Request::Snapshot);
    }

    /// A command naming a category past `CATEGORY_COUNT` arrives in a
    /// CRC-valid frame and still fails typed instead of reaching the
    /// engine, whose per-category tables it would index past.
    #[test]
    fn out_of_range_category_is_a_decode_error() {
        use pphcr_catalog::{CategoryId, ClipKind, CATEGORY_COUNT};
        use pphcr_geo::TimeSpan;
        use pphcr_userdata::{FeedbackEvent, FeedbackKind};
        let category = CategoryId(CATEGORY_COUNT);
        let commands = [
            EngineCommand::RecordFeedback {
                event: FeedbackEvent {
                    user: UserId(3),
                    clip: None,
                    category,
                    kind: FeedbackKind::Like,
                    time: TimePoint::at(0, 9, 0, 0),
                },
            },
            EngineCommand::TrainClassifier { category, tokens: vec!["goal".into()] },
            EngineCommand::IngestClip {
                title: "derby".into(),
                kind: ClipKind::Podcast,
                duration: TimeSpan::minutes(2),
                published: TimePoint::at(0, 8, 0, 0),
                geo: None,
                tokens: vec!["goal".into()],
                editorial: Some(category),
            },
        ];
        for cmd in commands {
            let (kind, body) = Request::Apply(cmd).encode();
            let mut frame = Vec::new();
            write_frame(&mut frame, 1, kind, &body).unwrap();
            let (_, kind, body) =
                read_frame(&mut std::io::Cursor::new(frame)).unwrap().expect("one frame");
            assert!(matches!(
                Request::decode(kind, &body),
                Err(ProtoError::Decode(PersistError::Corrupt { what: "category id" }))
            ));
        }
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response::Applied {
            error: Some("unknown user 404".into()),
            events: vec![
                WireEvent { user: 1, line: "Recommended { .. }".into() },
                WireEvent { user: 2, line: "TripPredicted { .. }".into() },
            ],
        };
        let (kind, body) = resp.encode();
        assert_eq!(Response::decode(kind, &body).unwrap(), resp);
        let (kind, body) = Response::Fault("broken".into()).encode();
        assert_eq!(Response::decode(kind, &body).unwrap(), Response::Fault("broken".into()));
    }

    #[test]
    fn obs_snapshots_round_trip_exactly() {
        use pphcr_obs::{DecisionTrace, DecisionTraceEntry, Registry, Verdict};
        let mut reg = Registry::new();
        reg.add("engine.ticks", 12);
        reg.gauge("health.healthy", 3);
        reg.observe("schedule.items", 4);
        let mut trace = DecisionTrace::with_capacity(16);
        trace.push(DecisionTraceEntry {
            user: 9,
            at_s: 32_400,
            trigger: "trip-started",
            considered: 10,
            cut_freshness: 1,
            cut_preference: 2,
            cut_geo: 3,
            cut_heard: 0,
            scored: 4,
            scheduled: 2,
            top_clip: Some(5),
            top_content_micro: 700_000,
            top_context_micro: -1,
            top_total_micro: 699_999,
            verdict: Verdict::Scheduled,
        });
        let snap = ObsSnapshot::capture(&reg, &trace);
        let resp = Response::Obs(snap.clone());
        let (kind, body) = resp.encode();
        match Response::decode(kind, &body).unwrap() {
            Response::Obs(decoded) => {
                assert_eq!(decoded, snap);
                assert_eq!(decoded.to_json(), snap.to_json());
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn unknown_trigger_is_a_decode_error() {
        use pphcr_obs::{DecisionTrace, DecisionTraceEntry, Registry, Verdict};
        let mut trace = DecisionTrace::with_capacity(4);
        trace.push(DecisionTraceEntry {
            user: 1,
            at_s: 0,
            trigger: "made-up",
            considered: 0,
            cut_freshness: 0,
            cut_preference: 0,
            cut_geo: 0,
            cut_heard: 0,
            scored: 0,
            scheduled: 0,
            top_clip: None,
            top_content_micro: 0,
            top_context_micro: 0,
            top_total_micro: 0,
            verdict: Verdict::NoCandidates,
        });
        let (kind, body) = Response::Obs(ObsSnapshot::capture(&Registry::new(), &trace)).encode();
        assert!(matches!(
            Response::decode(kind, &body),
            Err(ProtoError::Decode(PersistError::Corrupt { what: "trace trigger" }))
        ));
    }
}
