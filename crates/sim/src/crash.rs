//! Crash-recovery sweep: kill the platform at every WAL boundary and
//! prove the restored run is byte-identical to the uninterrupted one.
//!
//! The harness runs the crash script ([`Shape::Crash`]: registrations,
//! corpus ingest, classifier training, GPS fixes, feedback, injections
//! — including a rejected one — and batched parallel ticks) once
//! uninterrupted through a [`DurableEngine`] over a hostile seeded
//! network, and then replays every crash point: the WAL is cut at each
//! record boundary *and* at mid-record offsets (1 byte, half,
//! all-but-one), the engine is restored from the genesis snapshot plus
//! the truncated log, the surviving suffix of the script is re-applied,
//! and the three identity artefacts are diffed against the baseline:
//!
//! * the per-record outcome lines ([`push_outcome`]), numbered by WAL
//!   sequence number so a resume at the wrong number diverges,
//! * the `PlatformSnapshot` JSON at the end of the run,
//! * the `ObsSnapshot` JSON (counters, gauges, histograms, traces).
//!
//! Any divergence is reported with the kill point that produced it, so
//! a failure pinpoints the non-replayed state rather than just saying
//! "bytes differ".

use crate::script::{push_outcome, script, Shape};
use pphcr_core::persist::snapshot_engine;
use pphcr_core::persist::wal::encode_record;
use pphcr_core::{
    restore_engine, ApplyResult, DurableEngine, Engine, EngineConfig, FaultProfile,
    FaultyTransport, MemWal, PlatformSnapshot, UnicastLink, WalOp, WalRecord,
};
use pphcr_geo::{TimePoint, TimeSpan};

/// Logical time the final identity snapshots are captured at, after
/// the script's last tick.
fn final_time() -> TimePoint {
    TimePoint::at(8, 8, 40, 0)
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

/// The outcome lines of records replayed from the start of the log.
fn replayed_lines(replayed: &[ApplyResult]) -> Vec<String> {
    let mut lines = Vec::new();
    for result in replayed {
        push_outcome(&mut lines, result.seq as usize, &result.events, result.error.as_deref());
    }
    lines
}

/// The identity artefacts of one complete run of the script.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Per-record outcome lines, in log order.
    pub lines: Vec<String>,
    /// `PlatformSnapshot` JSON captured after the last tick.
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
    for cmd in script(seed, Shape::Crash).into_ops() {
        // MemWal appends cannot fail; keep the harness panic-free anyway.
        if let Ok(result) = durable.apply(cmd) {
            push_outcome(&mut lines, result.seq as usize, &result.events, result.error.as_deref());
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
    let mut lines = replayed_lines(&report.replayed);
    let mut durable = DurableEngine::resume(engine, MemWal::new(), report.last_seq + 1);
    for cmd in &ops[expect_replayed..] {
        let result =
            durable.apply(cmd.clone()).map_err(|e| format!("continuation apply failed: {e}"))?;
        push_outcome(&mut lines, result.seq as usize, &result.events, result.error.as_deref());
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
    let ops = script(seed, Shape::Crash).into_ops();
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
    let records = script(seed, Shape::Crash).into_ops().len();
    let (baseline, full_wal) = run_uninterrupted(seed);
    let Ok(genesis) = snapshot_engine(&genesis_engine(seed), 0) else {
        return false;
    };
    let Ok((engine, report)) = restore_engine(&genesis, &full_wal) else {
        return false;
    };
    if report.records_replayed != records as u64 || report.torn_bytes_dropped != 0 {
        return false;
    }
    let lines = replayed_lines(&report.replayed);
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
        let op = script(1, Shape::Crash).setup.remove(0);
        let mut direct = genesis_engine(1);
        let direct_result = apply_direct(&mut direct, 1, op.clone());
        let mut durable = DurableEngine::new(genesis_engine(1), MemWal::new());
        let durable_result = durable.apply(op).expect("MemWal append cannot fail");
        assert_eq!(direct_result, durable_result);
    }
}
