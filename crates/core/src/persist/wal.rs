//! The event-sourced write-ahead log: framing, the operation set, and
//! the torn-tail-tolerant scanner.
//!
//! Each record is one codec frame, `[len: u32][crc: u32][payload]` where
//! `payload = [seq: u64][kind: u8][body]` and the CRC covers the whole
//! payload — the frame the shard wire uses too, built and checked by
//! the same two functions. A crash can leave a *torn tail* — a partially written final
//! frame — which [`scan`] detects (short frame or CRC mismatch) and
//! truncates, reporting how many bytes were dropped. Anything that
//! passes its CRC but fails to decode is *corruption*, not tearing, and
//! surfaces as a typed [`PersistError`].

use super::codec::{
    check_frame, encode_frame, encode_frame_payload, split_frame_payload, ByteReader, ByteWriter,
};
use super::types::{
    get_category, get_clip_kind, get_feedback_event, get_fix, get_gazetteer, get_geo_tag,
    get_profile, get_road_network, put_clip_kind, put_feedback_event, put_fix, put_gazetteer,
    put_geo_tag, put_profile, put_road_network,
};
use super::PersistError;
use crate::command::EngineCommand;
use pphcr_audio::ClipId;
use pphcr_catalog::ServiceIndex;
use pphcr_geo::{TimePoint, TimeSpan};
use pphcr_userdata::UserId;

/// One logged engine input — an alias for the unified
/// [`EngineCommand`]. The WAL, the live `DurableEngine` write-ahead
/// path and the `pphcr-shard` wire protocol all carry this one shape
/// through this module's single codec, so a replayed (or forwarded)
/// log reproduces the engine bit-for-bit.
pub type WalOp = EngineCommand;

/// A sequenced WAL entry.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotonically increasing sequence number, starting at 1.
    pub seq: u64,
    /// The logged operation.
    pub op: WalOp,
}

const KIND_REGISTER_USER: u8 = 0;
const KIND_CHANGE_SERVICE: u8 = 1;
const KIND_TRAIN_CLASSIFIER: u8 = 2;
const KIND_INGEST_CLIP: u8 = 3;
const KIND_RECORD_FIX: u8 = 4;
const KIND_RECORD_FEEDBACK: u8 = 5;
const KIND_INJECT: u8 = 6;
const KIND_SKIP: u8 = 7;
const KIND_TICK: u8 = 8;
const KIND_ADVANCE_PLAYER: u8 = 9;
// Kind 10 was the retired `SetCoverage` op; it stays unassigned so a
// log holding one fails as corrupt instead of decoding as another op.
const KIND_SET_ROAD_NETWORK: u8 = 11;
const KIND_SET_GAZETTEER: u8 = 12;

fn op_kind(op: &WalOp) -> u8 {
    match op {
        WalOp::RegisterUser { .. } => KIND_REGISTER_USER,
        WalOp::ChangeService { .. } => KIND_CHANGE_SERVICE,
        WalOp::TrainClassifier { .. } => KIND_TRAIN_CLASSIFIER,
        WalOp::IngestClip { .. } => KIND_INGEST_CLIP,
        WalOp::RecordFix { .. } => KIND_RECORD_FIX,
        WalOp::RecordFeedback { .. } => KIND_RECORD_FEEDBACK,
        WalOp::Inject { .. } => KIND_INJECT,
        WalOp::Skip { .. } => KIND_SKIP,
        WalOp::Tick { .. } => KIND_TICK,
        WalOp::AdvancePlayer { .. } => KIND_ADVANCE_PLAYER,
        WalOp::SetRoadNetwork { .. } => KIND_SET_ROAD_NETWORK,
        WalOp::SetGazetteer { .. } => KIND_SET_GAZETTEER,
    }
}

/// Writes an op's body: everything after its kind byte.
fn put_op(w: &mut ByteWriter, op: &WalOp) {
    match op {
        WalOp::RegisterUser { profile, now } => {
            put_profile(w, profile);
            w.put_u64(now.0);
        }
        WalOp::ChangeService { user, service, now } => {
            w.put_u64(user.0);
            w.put_u32(service.0);
            w.put_u64(now.0);
        }
        WalOp::TrainClassifier { category, tokens } => {
            w.put_u16(category.0);
            w.put_seq(tokens, |w, t| w.put_str(t));
        }
        WalOp::IngestClip { title, kind, duration, published, geo, tokens, editorial } => {
            w.put_str(title);
            put_clip_kind(w, *kind);
            w.put_u64(duration.0);
            w.put_u64(published.0);
            w.put_opt(geo.as_ref(), put_geo_tag);
            w.put_seq(tokens, |w, t| w.put_str(t));
            w.put_opt(editorial.as_ref(), |w, c| w.put_u16(c.0));
        }
        WalOp::RecordFix { user, fix } => {
            w.put_u64(user.0);
            put_fix(w, fix);
        }
        WalOp::RecordFeedback { event } => put_feedback_event(w, event),
        WalOp::Inject { user, clip, at, note } => {
            w.put_u64(user.0);
            w.put_u64(clip.0);
            w.put_u64(at.0);
            w.put_str(note);
        }
        WalOp::Skip { user, now } | WalOp::AdvancePlayer { user, now } => {
            w.put_u64(user.0);
            w.put_u64(now.0);
        }
        WalOp::Tick { users, now, batch, workers } => {
            w.put_seq(users, |w, u| w.put_u64(u.0));
            w.put_u64(now.0);
            w.put_bool(*batch);
            w.put_opt(workers.as_ref(), |w, v| w.put_u64(*v));
        }
        WalOp::SetRoadNetwork { network } => put_road_network(w, network),
        WalOp::SetGazetteer { gazetteer } => put_gazetteer(w, gazetteer),
    }
}

/// Decodes an op of `kind` from its whole body. The caller has already
/// verified the CRC, so any failure here is corruption, not a torn
/// write.
fn decode_op(kind: u8, body: &[u8]) -> Result<WalOp, PersistError> {
    let mut r = ByteReader::new(body);
    let op = match kind {
        KIND_REGISTER_USER => {
            let profile = get_profile(&mut r)?;
            WalOp::RegisterUser { profile, now: TimePoint(r.u64()?) }
        }
        KIND_CHANGE_SERVICE => WalOp::ChangeService {
            user: UserId(r.u64()?),
            service: ServiceIndex(r.u32()?),
            now: TimePoint(r.u64()?),
        },
        KIND_TRAIN_CLASSIFIER => {
            let category = get_category(&mut r)?;
            WalOp::TrainClassifier { category, tokens: r.seq(ByteReader::string)? }
        }
        KIND_INGEST_CLIP => WalOp::IngestClip {
            title: r.string()?,
            kind: get_clip_kind(&mut r)?,
            duration: TimeSpan(r.u64()?),
            published: TimePoint(r.u64()?),
            geo: r.opt(get_geo_tag)?,
            tokens: r.seq(ByteReader::string)?,
            editorial: r.opt(get_category)?,
        },
        KIND_RECORD_FIX => WalOp::RecordFix { user: UserId(r.u64()?), fix: get_fix(&mut r)? },
        KIND_RECORD_FEEDBACK => WalOp::RecordFeedback { event: get_feedback_event(&mut r)? },
        KIND_INJECT => WalOp::Inject {
            user: UserId(r.u64()?),
            clip: ClipId(r.u64()?),
            at: TimePoint(r.u64()?),
            note: r.string()?,
        },
        KIND_SKIP => WalOp::Skip { user: UserId(r.u64()?), now: TimePoint(r.u64()?) },
        KIND_TICK => WalOp::Tick {
            users: r.seq(|r| Ok(UserId(r.u64()?)))?,
            now: TimePoint(r.u64()?),
            batch: r.bool()?,
            workers: r.opt(ByteReader::u64)?,
        },
        KIND_ADVANCE_PLAYER => {
            WalOp::AdvancePlayer { user: UserId(r.u64()?), now: TimePoint(r.u64()?) }
        }
        KIND_SET_ROAD_NETWORK => WalOp::SetRoadNetwork { network: get_road_network(&mut r)? },
        KIND_SET_GAZETTEER => WalOp::SetGazetteer { gazetteer: get_gazetteer(&mut r)? },
        _ => return Err(PersistError::Corrupt { what: "WAL op kind tag" }),
    };
    if !r.is_empty() {
        return Err(PersistError::Corrupt { what: "trailing bytes after WAL op" });
    }
    Ok(op)
}

/// Encodes the *payload* of a record: `[seq][kind][body]`, a frame
/// without its header.
///
/// Public because the shard protocol carries commands as payloads
/// inside its own frames; WAL files should go through
/// [`encode_record`].
#[must_use]
pub fn encode_payload(record: &WalRecord) -> Vec<u8> {
    encode_frame_payload(record.seq, op_kind(&record.op), |w| put_op(w, &record.op))
}

/// Decodes one payload (`[seq][kind][body]`) back into a record.
///
/// Public for the shard protocol, which shares the WAL payload codec.
pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, PersistError> {
    let (seq, kind, body) = split_frame_payload(payload)?;
    Ok(WalRecord { seq, op: decode_op(kind, body)? })
}

/// Frames a record for appending: `[len][crc][payload]`.
#[must_use]
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    encode_frame(record.seq, op_kind(&record.op), |w| put_op(w, &record.op))
}

/// Result of scanning a WAL byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Records recovered, in sequence order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (a safe truncation point).
    pub valid_len: usize,
    /// Bytes dropped from the torn tail, if any.
    pub torn_bytes: usize,
}

/// Scans a WAL byte stream, truncating at the first torn frame.
///
/// A *torn* frame — one whose header or payload is shorter than its
/// length prefix claims, or whose CRC does not match — ends the scan;
/// everything before it is returned and the tail is counted in
/// `torn_bytes`. A frame whose CRC matches but whose payload does not
/// decode, and any non-contiguous sequence number, are hard errors.
pub fn scan(bytes: &[u8]) -> Result<WalScan, PersistError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut expected_seq: Option<u64> = None;
    while let Some(frame) = check_frame(bytes.get(offset..).unwrap_or_default())? {
        let record = WalRecord { seq: frame.seq, op: decode_op(frame.kind, frame.body)? };
        if let Some(expected) = expected_seq {
            if record.seq != expected {
                return Err(PersistError::SequenceGap { expected, found: record.seq });
            }
        }
        expected_seq = Some(record.seq + 1);
        records.push(record);
        offset += frame.len;
    }
    Ok(WalScan { records, valid_len: offset, torn_bytes: bytes.len() - offset })
}

#[cfg(test)]
mod tests {
    use super::super::codec::crc32;
    use super::*;
    use pphcr_catalog::{CategoryId, ClipKind, GeoTag};
    use pphcr_geo::GeoPoint;
    use pphcr_userdata::{AgeBand, UserProfile};

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                seq: 1,
                op: WalOp::RegisterUser {
                    profile: UserProfile {
                        id: UserId(7),
                        name: "Anna".into(),
                        age_band: AgeBand::Adult,
                        favourite_service: ServiceIndex(2),
                    },
                    now: TimePoint(100),
                },
            },
            WalRecord {
                seq: 2,
                op: WalOp::IngestClip {
                    title: "morning news".into(),
                    kind: ClipKind::NewsBulletin,
                    duration: TimeSpan(90),
                    published: TimePoint(50),
                    geo: Some(GeoTag {
                        point: GeoPoint { lat: 45.07, lon: 7.68 },
                        radius_m: 500.0,
                    }),
                    tokens: vec!["traffic".into(), "turin".into()],
                    editorial: Some(CategoryId(3)),
                },
            },
            WalRecord {
                seq: 3,
                op: WalOp::Tick {
                    users: vec![UserId(7), UserId(8)],
                    now: TimePoint(200),
                    batch: true,
                    workers: Some(2),
                },
            },
        ]
    }

    #[test]
    fn new_command_kinds_round_trip() {
        use pphcr_catalog::{Gazetteer, Place};
        use pphcr_geo::{NodeId, NodeKind, ProjectedPoint, RoadNetwork};

        let mut network = RoadNetwork::new();
        let a = network.add_node(ProjectedPoint { x: 0.0, y: 0.0 }, NodeKind::Intersection);
        let b = network.add_node(ProjectedPoint { x: 100.0, y: 0.0 }, NodeKind::Roundabout);
        network.add_edge(a, b, 13.9);
        network.add_edge(NodeId(1), NodeId(0), 8.3);
        let mut gazetteer = Gazetteer::new();
        gazetteer.min_mentions = 2;
        gazetteer.add(Place {
            name: "Torino".into(),
            point: GeoPoint { lat: 45.07, lon: 7.68 },
            radius_m: 5_000.0,
        });
        let records = vec![
            WalRecord { seq: 1, op: WalOp::AdvancePlayer { user: UserId(7), now: TimePoint(300) } },
            WalRecord { seq: 2, op: WalOp::SetRoadNetwork { network } },
            WalRecord { seq: 3, op: WalOp::SetGazetteer { gazetteer } },
        ];
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&encode_record(r));
        }
        let scanned = scan(&log).unwrap();
        assert_eq!(scanned.records, records);
        assert_eq!(scanned.torn_bytes, 0);
    }

    #[test]
    fn frame_round_trip() {
        let mut log = Vec::new();
        let records = sample_records();
        for r in &records {
            log.extend_from_slice(&encode_record(r));
        }
        let scanned = scan(&log).unwrap();
        assert_eq!(scanned.records, records);
        assert_eq!(scanned.valid_len, log.len());
        assert_eq!(scanned.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_truncates_to_last_valid() {
        let records = sample_records();
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&encode_record(r));
        }
        let full = log.len();
        let last = encode_record(&records[2]).len();
        // Cut into the middle of the last frame.
        log.truncate(full - last / 2);
        let scanned = scan(&log).unwrap();
        assert_eq!(scanned.records.len(), 2);
        assert_eq!(scanned.valid_len, full - last);
        assert_eq!(scanned.torn_bytes, log.len() - (full - last));
    }

    #[test]
    fn bit_flip_in_tail_truncates() {
        let records = sample_records();
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&encode_record(r));
        }
        let last_start = log.len() - encode_record(&records[2]).len();
        // Flip a payload bit in the last frame: CRC mismatch, torn tail.
        log[last_start + 12] ^= 0x40;
        let scanned = scan(&log).unwrap();
        assert_eq!(scanned.records.len(), 2);
        assert_eq!(scanned.valid_len, last_start);
    }

    #[test]
    fn sequence_gap_is_a_hard_error() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(&WalRecord {
            seq: 1,
            op: WalOp::Skip { user: UserId(1), now: TimePoint(0) },
        }));
        log.extend_from_slice(&encode_record(&WalRecord {
            seq: 5,
            op: WalOp::Skip { user: UserId(1), now: TimePoint(1) },
        }));
        assert_eq!(scan(&log), Err(PersistError::SequenceGap { expected: 2, found: 5 }));
    }

    #[test]
    fn crc_valid_garbage_is_corrupt_not_torn() {
        // Hand-frame a payload with an unknown kind tag but a valid CRC:
        // a tag never assigned, and 10, the retired `SetCoverage` op.
        for kind in [0xEE, 10] {
            let payload: Vec<u8> = {
                let mut w = ByteWriter::new();
                w.put_u64(1);
                w.put_u8(kind);
                w.into_inner()
            };
            let mut log = Vec::new();
            log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            log.extend_from_slice(&crc32(&payload).to_le_bytes());
            log.extend_from_slice(&payload);
            assert_eq!(scan(&log), Err(PersistError::Corrupt { what: "WAL op kind tag" }));
            // The frame builder lays out exactly these bytes.
            assert_eq!(encode_frame(1, kind, |_| {}), log);
        }
    }

    #[test]
    fn record_frame_bytes_are_pinned() {
        // `[len][crc]` then `[seq][kind = 7, Skip][user][now]`, all
        // little-endian: every existing WAL file has this layout.
        let frame = encode_record(&WalRecord {
            seq: 1,
            op: WalOp::Skip { user: UserId(3), now: TimePoint(60) },
        });
        #[rustfmt::skip]
        let expected: [u8; 33] = [
            25, 0, 0, 0, 10, 16, 124, 151,
            1, 0, 0, 0, 0, 0, 0, 0, 7,
            3, 0, 0, 0, 0, 0, 0, 0,
            60, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(frame, expected);
    }

    #[test]
    fn empty_log_scans_clean() {
        let scanned = scan(&[]).unwrap();
        assert!(scanned.records.is_empty());
        assert_eq!(scanned.valid_len, 0);
        assert_eq!(scanned.torn_bytes, 0);
    }

    /// A CRC-valid record naming a category past `CATEGORY_COUNT` is
    /// corruption; replaying it would index past every per-category
    /// table.
    #[test]
    fn out_of_range_category_is_corrupt() {
        let category = CategoryId(pphcr_catalog::CATEGORY_COUNT);
        let ops = [
            WalOp::TrainClassifier { category, tokens: vec!["goal".into()] },
            WalOp::IngestClip {
                title: "derby".into(),
                kind: ClipKind::Podcast,
                duration: TimeSpan(90),
                published: TimePoint(50),
                geo: None,
                tokens: vec!["goal".into()],
                editorial: Some(category),
            },
            WalOp::RecordFeedback {
                event: pphcr_userdata::FeedbackEvent {
                    user: UserId(7),
                    clip: None,
                    category,
                    kind: pphcr_userdata::FeedbackKind::Like,
                    time: TimePoint(60),
                },
            },
        ];
        for op in ops {
            let frame = encode_record(&WalRecord { seq: 1, op });
            assert_eq!(scan(&frame), Err(PersistError::Corrupt { what: "category id" }));
        }
    }
}
