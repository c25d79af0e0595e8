//! E14 — the recovery smoke gate: runs the crash-recovery kill-point
//! sweep over a set of chaos seeds and writes `RECOVERY_SMOKE.json`.
//! Exits nonzero if any kill point recovers to anything other than a
//! byte-identical run, or if the clean-restart full replay diverges.
//!
//! Also exercises the real file-backed WAL once per seed: the crash
//! script is logged through a `FileWal`, which fsyncs every record,
//! the file is re-scanned from disk, and the decoded records must match
//! the in-memory log exactly.
//!
//! Environment overrides (all optional):
//! * `E14_SEEDS` — comma-separated chaos seeds, default `1,2,3`.
//! * `E14_OUT` — output path, default `RECOVERY_SMOKE.json`.

use pphcr_core::persist::wal::scan;
use pphcr_core::{DurableEngine, FileWal};
use pphcr_obs::json::JsonWriter;
use pphcr_sim::crash::{
    full_replay_identical, genesis_engine, kill_point_sweep, run_uninterrupted,
};
use pphcr_sim::script::{script, Shape};
use std::process::ExitCode;

fn env_or(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| default.to_string())
}

/// Logs the scripted workload through a real file-backed WAL and checks
/// the bytes on disk scan back to the same records as the in-memory
/// baseline.
fn file_wal_round_trip(seed: u64) -> Result<(), String> {
    let (_, mem_bytes) = run_uninterrupted(seed);
    let path = std::env::temp_dir().join(format!("pphcr-recovery-smoke-{seed}.wal"));
    let wal = FileWal::create(&path).map_err(|e| format!("create wal: {e}"))?;
    let mut durable = DurableEngine::new(genesis_engine(seed), wal);
    for op in script(seed, Shape::Crash).into_ops() {
        durable.apply(op).map_err(|e| format!("durable apply: {e}"))?;
    }
    let disk_bytes = std::fs::read(&path).map_err(|e| format!("read wal back: {e}"))?;
    let _ = std::fs::remove_file(&path);
    if disk_bytes != mem_bytes {
        return Err(format!(
            "file WAL bytes differ from in-memory log ({} vs {} bytes)",
            disk_bytes.len(),
            mem_bytes.len()
        ));
    }
    let scanned = scan(&disk_bytes).map_err(|e| format!("scan disk wal: {e}"))?;
    if scanned.torn_bytes != 0 {
        return Err(format!("synced WAL reports {} torn bytes", scanned.torn_bytes));
    }
    Ok(())
}

fn main() -> ExitCode {
    let seeds: Vec<u64> = env_or("E14_SEEDS", "1,2,3")
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().expect("seed must be a u64"))
        .collect();
    let out_path = env_or("E14_OUT", "RECOVERY_SMOKE.json");

    let mut failed = false;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("experiment", "e14");
    w.begin_named_array("seeds");
    for &seed in &seeds {
        let report = kill_point_sweep(seed);
        let replay_ok = full_replay_identical(seed);
        let file_wal = file_wal_round_trip(seed);
        let ok = report.all_identical() && replay_ok && file_wal.is_ok();
        failed |= !ok;

        println!(
            "e14 seed={seed} records={} kill_points={} divergences={} full_replay={} file_wal={}",
            report.records,
            report.kill_points,
            report.divergences.len(),
            if replay_ok { "identical" } else { "DIVERGED" },
            match &file_wal {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("FAILED ({e})"),
            },
        );
        for d in &report.divergences {
            eprintln!("e14 seed={seed} DIVERGENCE: {d}");
        }

        w.begin_object();
        w.field_u64("seed", seed)
            .field_u64("records", report.records as u64)
            .field_u64("kill_points", report.kill_points as u64)
            .field_u64("divergences", report.divergences.len() as u64)
            .field_bool("full_replay_identical", replay_ok)
            .field_bool("file_wal_ok", file_wal.is_ok())
            .field_bool("ok", ok);
        w.end_object();
    }
    w.end_array();
    w.field_bool("ok", !failed);
    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    // lint: allow(fsync-free-write) — CI artifact, not durable state; loss on crash is fine
    if let Err(e) = std::fs::write(&out_path, doc) {
        eprintln!("e14: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    if failed {
        eprintln!("e14: FAILED — recovery is not byte-identical");
        return ExitCode::FAILURE;
    }
    println!("e14: every kill point recovered byte-identically across {} seeds", seeds.len());
    ExitCode::SUCCESS
}
