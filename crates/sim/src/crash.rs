//! Crash-recovery sweep: kill the platform at every WAL boundary and
//! prove the restored run is byte-identical to the uninterrupted one.
//!
//! The harness scripts a fixed mixed workload (registrations, corpus
//! ingest, classifier training, GPS traces, feedback, injections —
//! including a rejected one — and batched parallel ticks) over a
//! hostile seeded network, runs it once uninterrupted through a
//! [`DurableEngine`], and then replays every crash point: the WAL is
//! cut at each record boundary *and* at mid-record offsets (1 byte,
//! half, all-but-one), the engine is restored from the genesis
//! snapshot plus the truncated log, the surviving suffix of the script
//! is re-applied, and the three identity artefacts are diffed against
//! the baseline:
//!
//! * the per-record event stream ([`ApplyResult::lines`]),
//! * the `PlatformSnapshot` JSON at the end of the run,
//! * the `ObsSnapshot` JSON (counters, gauges, histograms, traces).
//!
//! Any divergence is reported with the kill point that produced it, so
//! a failure pinpoints the non-replayed state rather than just saying
//! "bytes differ".

use pphcr_catalog::{CategoryId, ClipKind, Gazetteer, GeoTag, ServiceIndex};
use pphcr_core::persist::snapshot_engine;
use pphcr_core::persist::wal::encode_record;
use pphcr_core::{
    restore_engine, ApplyResult, DurableEngine, Engine, EngineConfig, FaultProfile,
    FaultyTransport, MemWal, PlatformSnapshot, UnicastLink, WalOp, WalRecord,
};
use pphcr_geo::{GeoPoint, NodeKind, ProjectedPoint, RoadNetwork, TimePoint, TimeSpan};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

use pphcr_audio::ClipId;

/// Listeners in the scripted workload.
const USERS: u64 = 4;

/// The scenario origin (central Torino, like the paper's pilot).
const ORIGIN: (f64, f64) = (45.0703, 7.6869);

/// Logical start of the scripted day.
fn t0() -> TimePoint {
    TimePoint::at(0, 9, 0, 0)
}

/// Logical time the final identity snapshots are captured at.
#[must_use]
pub fn final_time() -> TimePoint {
    t0().advance(TimeSpan::minutes(40))
}

/// The genesis engine every run (baseline and recovered) starts from:
/// default config over a hostile seeded wire and a flaky unicast link.
/// Everything after this point flows through the WAL.
#[must_use]
pub fn genesis_engine(seed: u64) -> Engine {
    let mut engine = Engine::new(EngineConfig::default());
    engine.bus.set_transport(Box::new(FaultyTransport::new(FaultProfile::lossy_mobile(), seed)));
    engine.unicast =
        UnicastLink::flaky(0.25, TimeSpan::seconds(2), TimeSpan::seconds(10), seed ^ 0x00C0_FFEE);
    engine
}

/// The scripted workload: a deterministic function of `seed` covering
/// every [`WalOp`] variant, with ticks interleaved so proactive
/// deliveries, retries and health transitions happen mid-log.
#[must_use]
pub fn scripted_ops(seed: u64) -> Vec<WalOp> {
    let mut ops = Vec::new();
    let start = t0();

    for u in 1..=USERS {
        ops.push(WalOp::RegisterUser {
            profile: UserProfile {
                id: UserId(u),
                name: format!("listener {u}"),
                age_band: if u % 2 == 0 { AgeBand::Adult } else { AgeBand::Young },
                favourite_service: ServiceIndex(0),
            },
            now: start,
        });
    }

    ops.push(WalOp::TrainClassifier {
        category: CategoryId::new(1),
        tokens: vec!["traffic".into(), "ring".into(), "road".into(), "queue".into()],
    });
    ops.push(WalOp::TrainClassifier {
        category: CategoryId::new(2),
        tokens: vec!["football".into(), "derby".into(), "goal".into(), "league".into()],
    });

    // Environment configuration flows through the WAL too: a toy road
    // network and a gazetteer, both replay-relevant state.
    let mut network = RoadNetwork::new();
    let a = network.add_node(ProjectedPoint::new(0.0, 0.0), NodeKind::Intersection);
    let b = network.add_node(ProjectedPoint::new(1_200.0, 300.0), NodeKind::Plain);
    let c = network.add_node(ProjectedPoint::new(2_500.0, 900.0), NodeKind::Roundabout);
    network.add_edge(a, b, 13.9);
    network.add_edge(b, c, 25.0);
    ops.push(WalOp::SetRoadNetwork { network });
    let mut gazetteer = Gazetteer::new();
    gazetteer.add_place("torino", GeoPoint::new(ORIGIN.0, ORIGIN.1), 5_000.0);
    gazetteer.add_place("moncalieri", GeoPoint::new(45.0005, 7.6800), 3_000.0);
    ops.push(WalOp::SetGazetteer { gazetteer });

    // Corpus: ten clips, half editorially labelled, some geo-tagged,
    // publication times derived from the seed so different seeds walk
    // different corpus shapes.
    for i in 0..10u64 {
        let jitter = (seed.wrapping_mul(2_654_435_761).wrapping_add(i * 97)) % 600;
        let geo = if i % 3 == 0 {
            Some(GeoTag {
                point: GeoPoint::new(ORIGIN.0 + 0.001 * i as f64, ORIGIN.1 - 0.0005 * i as f64),
                radius_m: 800.0,
            })
        } else {
            None
        };
        let editorial = if i % 2 == 0 { Some(CategoryId::new((i % 3) as u16 + 1)) } else { None };
        ops.push(WalOp::IngestClip {
            title: format!("clip {i} (seed {seed})"),
            kind: if i % 4 == 0 { ClipKind::NewsBulletin } else { ClipKind::Podcast },
            duration: TimeSpan::seconds(120 + (i % 5) * 30),
            published: start.advance(TimeSpan::seconds(jitter)),
            geo,
            tokens: vec![
                if i % 2 == 0 { "traffic".into() } else { "football".into() },
                format!("token{i}"),
                "torino".into(),
            ],
            editorial,
        });
    }

    // GPS traces for listeners 1 and 2: a straight drive away from the
    // origin at ~15 m/s, 30 s apart, enough to arm trip detection.
    let mut mixed = Vec::new();
    for step in 0..6u64 {
        for u in 1..=2u64 {
            mixed.push(WalOp::RecordFix {
                user: UserId(u),
                fix: GpsFix {
                    point: GeoPoint::new(
                        ORIGIN.0 + 0.0004 * (step * 2 + u) as f64,
                        ORIGIN.1 + 0.0002 * step as f64,
                    ),
                    time: start.advance(TimeSpan::seconds(step * 30 + u)),
                    speed_mps: 15.0,
                },
            });
        }
    }

    // Explicit feedback sprinkled over categories 1..3.
    for (i, kind) in [
        FeedbackKind::Like,
        FeedbackKind::Dislike,
        FeedbackKind::ListenedThrough,
        FeedbackKind::PartialListen(0.5),
    ]
    .into_iter()
    .enumerate()
    {
        mixed.push(WalOp::RecordFeedback {
            event: FeedbackEvent {
                user: UserId(i as u64 % USERS + 1),
                clip: if i % 2 == 0 { Some(ClipId(i as u64 + 1)) } else { None },
                category: CategoryId::new((i % 3) as u16 + 1),
                kind,
                time: start.advance(TimeSpan::seconds(40 + i as u64 * 10)),
            },
        });
    }

    // Editorial injections: two valid, one for an unknown listener —
    // the rejection is itself a logged outcome replay must reproduce.
    mixed.push(WalOp::Inject {
        user: UserId(1),
        clip: ClipId(1),
        at: start.advance(TimeSpan::seconds(70)),
        note: "breaking".into(),
    });
    mixed.push(WalOp::Inject {
        user: UserId(3),
        clip: ClipId(2),
        at: start.advance(TimeSpan::seconds(75)),
        note: "weather".into(),
    });
    mixed.push(WalOp::Inject {
        user: UserId(99),
        clip: ClipId(1),
        at: start.advance(TimeSpan::seconds(80)),
        note: "ghost".into(),
    });

    mixed.push(WalOp::ChangeService {
        user: UserId(2),
        service: ServiceIndex(1),
        now: start.advance(TimeSpan::seconds(90)),
    });
    mixed.push(WalOp::Skip { user: UserId(1), now: start.advance(TimeSpan::seconds(95)) });

    // Client player advances: one for a live listener (session bookkeeping
    // must replay), one for a ghost (the typed rejection is itself logged).
    mixed.push(WalOp::AdvancePlayer { user: UserId(1), now: start.advance(TimeSpan::seconds(97)) });
    mixed
        .push(WalOp::AdvancePlayer { user: UserId(99), now: start.advance(TimeSpan::seconds(98)) });

    // Interleave the mixed ops with batched parallel ticks over a
    // ~35-step horizon so bus retries, proactive triggers and health
    // ladders advance between mutations.
    let users: Vec<UserId> = (1..=USERS).map(UserId).collect();
    let mut mixed_iter = mixed.into_iter();
    for step in 0..35u64 {
        if step % 2 == 0 {
            if let Some(op) = mixed_iter.next() {
                ops.push(op);
            }
        }
        ops.push(WalOp::Tick {
            users: users.clone(),
            now: start.advance(TimeSpan::seconds(100 + step * 30)),
            batch: true,
            workers: Some(2),
        });
    }
    ops.extend(mixed_iter);
    ops
}

/// The identity artefacts of one complete run of the script.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Per-record outcome lines, in log order.
    pub lines: Vec<String>,
    /// `PlatformSnapshot` JSON captured at [`final_time`].
    pub platform_json: String,
    /// `ObsSnapshot` JSON (timings are excluded by design).
    pub obs_json: String,
}

fn capture(engine: &Engine) -> (String, String) {
    let platform = PlatformSnapshot::capture(engine, final_time()).to_json();
    let obs = engine.obs_snapshot().to_json();
    (platform, obs)
}

/// Runs the full script uninterrupted through a [`DurableEngine`],
/// returning the identity trace and the complete WAL bytes.
#[must_use]
pub fn run_uninterrupted(seed: u64) -> (RunTrace, Vec<u8>) {
    let mut durable = DurableEngine::new(genesis_engine(seed), MemWal::new());
    let mut lines = Vec::new();
    for op in scripted_ops(seed) {
        // MemWal appends cannot fail; keep the harness panic-free anyway.
        if let Ok(result) = durable.apply(op) {
            lines.extend(result.lines());
        }
    }
    let (engine, wal) = durable.into_parts();
    let (platform_json, obs_json) = capture(&engine);
    (RunTrace { lines, platform_json, obs_json }, wal.into_bytes())
}

/// One crash point in the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPoint {
    /// Records fully on disk when the crash hit.
    pub records_durable: usize,
    /// Bytes of the next record that made it to disk (0 = clean cut).
    pub torn_bytes: usize,
}

/// Outcome of [`kill_point_sweep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// Scripted records in the workload.
    pub records: usize,
    /// Crash points exercised (boundary cuts plus torn tails).
    pub kill_points: usize,
    /// Kill points whose recovered run diverged from the baseline.
    pub divergences: Vec<String>,
}

impl SweepReport {
    /// True when every crash point recovered byte-identically.
    #[must_use]
    pub fn all_identical(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Frames the script into per-record byte lengths (the frame boundary
/// table the sweep cuts at).
fn frame_lengths(ops: &[WalOp]) -> Vec<usize> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| encode_record(&WalRecord { seq: i as u64 + 1, op: op.clone() }).len())
        .collect()
}

/// Restores from `genesis` + `wal_prefix`, re-applies the script suffix,
/// and returns the full reconstructed trace (replayed + continued).
fn recover_and_continue(
    genesis: &[u8],
    wal_prefix: &[u8],
    ops: &[WalOp],
    expect_replayed: usize,
    expect_torn: usize,
) -> Result<RunTrace, String> {
    let (engine, report) =
        restore_engine(genesis, wal_prefix).map_err(|e| format!("restore failed: {e}"))?;
    if report.records_replayed != expect_replayed as u64 {
        return Err(format!(
            "replayed {} records, expected {expect_replayed}",
            report.records_replayed
        ));
    }
    if report.torn_bytes_dropped != expect_torn as u64 {
        return Err(format!(
            "dropped {} torn bytes, expected {expect_torn}",
            report.torn_bytes_dropped
        ));
    }
    if engine.recovery_banner().is_none() {
        return Err("restored engine carries no recovery banner".into());
    }
    let mut lines: Vec<String> = report.replayed.iter().flat_map(ApplyResult::lines).collect();
    let mut durable = DurableEngine::resume(engine, MemWal::new(), report.last_seq + 1);
    for op in &ops[expect_replayed..] {
        match durable.apply(op.clone()) {
            Ok(result) => lines.extend(result.lines()),
            Err(e) => return Err(format!("continuation apply failed: {e}")),
        }
    }
    let (engine, _) = durable.into_parts();
    let (platform_json, obs_json) = capture(&engine);
    Ok(RunTrace { lines, platform_json, obs_json })
}

fn diff_trace(kill: KillPoint, got: &RunTrace, want: &RunTrace) -> Option<String> {
    let at = format!(
        "kill point (records_durable={}, torn_bytes={})",
        kill.records_durable, kill.torn_bytes
    );
    if got.lines != want.lines {
        let first = got
            .lines
            .iter()
            .zip(&want.lines)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines.len().min(want.lines.len()));
        return Some(format!(
            "{at}: event stream diverged at line {first} (got {} lines, want {})",
            got.lines.len(),
            want.lines.len()
        ));
    }
    if got.platform_json != want.platform_json {
        return Some(format!("{at}: PlatformSnapshot JSON diverged"));
    }
    if got.obs_json != want.obs_json {
        return Some(format!("{at}: ObsSnapshot JSON diverged"));
    }
    None
}

/// Kills the scripted run at every WAL record boundary and at
/// mid-record torn tails (1 byte, half, all-but-one of the next
/// frame), recovers from the genesis snapshot plus the cut log,
/// finishes the script, and diffs the event stream, `PlatformSnapshot`
/// JSON and `ObsSnapshot` JSON against the uninterrupted run.
#[must_use]
pub fn kill_point_sweep(seed: u64) -> SweepReport {
    let ops = scripted_ops(seed);
    let genesis = match snapshot_engine(&genesis_engine(seed), 0) {
        Ok(bytes) => bytes,
        Err(e) => {
            return SweepReport {
                records: ops.len(),
                kill_points: 0,
                divergences: vec![format!("genesis snapshot failed: {e}")],
            }
        }
    };
    let (baseline, full_wal) = run_uninterrupted(seed);
    let lengths = frame_lengths(&ops);

    let mut divergences = Vec::new();
    let mut kill_points = 0usize;
    let mut boundary = 0usize;
    for durable in 0..=ops.len() {
        // Torn-tail offsets into the record after the boundary (none
        // after the final record — there is no next frame to tear).
        let mut cuts = vec![0usize];
        if let Some(&next_len) = lengths.get(durable) {
            for torn in [1, next_len / 2, next_len.saturating_sub(1)] {
                if torn > 0 && torn < next_len && !cuts.contains(&torn) {
                    cuts.push(torn);
                }
            }
        }
        for torn in cuts {
            kill_points += 1;
            let kill = KillPoint { records_durable: durable, torn_bytes: torn };
            let prefix = &full_wal[..boundary + torn];
            match recover_and_continue(&genesis, prefix, &ops, durable, torn) {
                Ok(trace) => {
                    if let Some(diff) = diff_trace(kill, &trace, &baseline) {
                        divergences.push(diff);
                    }
                }
                Err(e) => divergences.push(format!(
                    "kill point (records_durable={durable}, torn_bytes={torn}): {e}"
                )),
            }
        }
        if let Some(&len) = lengths.get(durable) {
            boundary += len;
        }
    }
    SweepReport { records: ops.len(), kill_points, divergences }
}

/// Replays the whole WAL from genesis without continuation — the
/// "restart after clean shutdown" path — and checks identity. Used by
/// tests and the recovery smoke binary as a fast sanity pass.
#[must_use]
pub fn full_replay_identical(seed: u64) -> bool {
    let ops = scripted_ops(seed);
    let (baseline, full_wal) = run_uninterrupted(seed);
    let Ok(genesis) = snapshot_engine(&genesis_engine(seed), 0) else {
        return false;
    };
    let Ok((engine, report)) = restore_engine(&genesis, &full_wal) else {
        return false;
    };
    if report.records_replayed != ops.len() as u64 || report.torn_bytes_dropped != 0 {
        return false;
    }
    let lines: Vec<String> = report.replayed.iter().flat_map(ApplyResult::lines).collect();
    let (platform_json, obs_json) = capture(&engine);
    RunTrace { lines, platform_json, obs_json } == baseline
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_core::persist::apply_record;

    /// Applying one op through [`apply_record`] directly must match the
    /// durable (log-then-apply) path.
    fn apply_direct(engine: &mut Engine, seq: u64, op: WalOp) -> ApplyResult {
        apply_record(engine, &WalRecord { seq, op })
    }

    #[test]
    fn script_covers_every_op_kind() {
        let ops = scripted_ops(1);
        let mut seen = [false; 12];
        for op in &ops {
            let idx = match op {
                WalOp::RegisterUser { .. } => 0,
                WalOp::ChangeService { .. } => 1,
                WalOp::TrainClassifier { .. } => 2,
                WalOp::IngestClip { .. } => 3,
                WalOp::RecordFix { .. } => 4,
                WalOp::RecordFeedback { .. } => 5,
                WalOp::Inject { .. } => 6,
                WalOp::Skip { .. } => 7,
                WalOp::Tick { .. } => 8,
                WalOp::AdvancePlayer { .. } => 9,
                WalOp::SetRoadNetwork { .. } => 10,
                WalOp::SetGazetteer { .. } => 11,
            };
            if let Some(slot) = seen.get_mut(idx) {
                *slot = true;
            }
        }
        assert!(seen.iter().all(|s| *s), "script misses an op kind: {seen:?}");
        assert!(ops.len() >= 60, "script too short: {}", ops.len());
    }

    #[test]
    fn script_is_seed_deterministic() {
        assert_eq!(scripted_ops(7), scripted_ops(7));
        assert_ne!(scripted_ops(1), scripted_ops(2));
    }

    #[test]
    fn baseline_run_is_reproducible() {
        let (a, wal_a) = run_uninterrupted(3);
        let (b, wal_b) = run_uninterrupted(3);
        assert_eq!(a, b);
        assert_eq!(wal_a, wal_b);
        assert!(!a.lines.is_empty(), "script produced no events");
    }

    #[test]
    fn rejected_injection_is_a_logged_outcome() {
        let (trace, _) = run_uninterrupted(1);
        assert!(
            trace.lines.iter().any(|l| l.contains("rejected=")),
            "the unknown-listener injection should surface as a rejection line"
        );
    }

    #[test]
    fn full_replay_matches_live_run() {
        assert!(full_replay_identical(1));
    }

    #[test]
    fn direct_apply_matches_durable_apply() {
        let op = scripted_ops(1).remove(0);
        let mut direct = genesis_engine(1);
        let direct_result = apply_direct(&mut direct, 1, op.clone());
        let mut durable = DurableEngine::new(genesis_engine(1), MemWal::new());
        let durable_result = durable.apply(op).expect("MemWal append cannot fail");
        assert_eq!(direct_result, durable_result);
    }
}
