//! E16 — shard scaling curve for the multi-process deployment.
//!
//! Runs the `pphcr-shard` differential workload through an N-process
//! sharded deployment (router + `shard_agent` processes) for each N in
//! `E16_SHARDS`, verifying on every round that the merged event stream
//! and merged `ObsSnapshot` JSON are byte-identical to the
//! single-process baseline, and recording best-of-`E16_ROUNDS` wall
//! time per N. The point of the curve is the paper's broadcaster-scale
//! claim: personalization must scale out *without changing a single
//! observable byte*, so throughput and identity are measured by the
//! same run.
//!
//! Two suites run back to back:
//!
//! 1. **Differential workload** — the mixed per-user script the
//!    identity tests use. Dominated by single-user commands that cost
//!    one router round-trip each whatever the shard count, so its
//!    curve is flat: it measures the *overhead* of sharding on
//!    routed traffic, not the win.
//! 2. **Tick-heavy window** — an E13-style commuter fleet where only
//!    the batch-tick window is timed (`workers: Some(1)`, so process
//!    sharding is the only parallelism in play). The per-tick work is
//!    linear in the ticked users and splits across shards, so on a
//!    host with ≥N free cores the window shrinks towards 1/N. On a
//!    single-core host (the artifact records `host_cores`) no overlap
//!    is physically possible and the curve measures pure sharding
//!    overhead instead — identity still has to hold either way.
//!
//! Environment overrides (all optional):
//! * `E16_SHARDS` — comma-separated shard counts, default `1,2,4`.
//! * `E16_SEED` — workload seed, default 1.
//! * `E16_ROUNDS` — rounds per N (best-of), default 3.
//! * `E16_HEAVY_USERS` / `E16_HEAVY_TICKS` / `E16_HEAVY_ROUNDS` —
//!   tick-heavy fleet size, window length, best-of rounds (default
//!   24 / 12 / 2).
//! * `E16_OUT` — JSON artifact path, default `BENCH_e16.json`.
//! * `E16_AGENT_BIN` — path to `shard_agent`, default the binary next
//!   to this executable (build with `cargo build --release -p
//!   pphcr-shard` first).
//!
//! Exits non-zero on any identity divergence or spawn failure.

use pphcr_obs::json::JsonWriter;
use pphcr_obs::timing::stopwatch;
use pphcr_shard::{
    commands, run_single, run_single_windowed, tick_heavy, ProcessShard, Router, SingleRun,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn env_or(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| default.to_string())
}

fn agent_bin() -> PathBuf {
    if let Ok(path) = std::env::var("E16_AGENT_BIN") {
        return path.into();
    }
    let mut path = std::env::current_exe().expect("current_exe");
    path.set_file_name(if cfg!(windows) { "shard_agent.exe" } else { "shard_agent" });
    path
}

/// `value` rounded to `places` decimals, as the artifact reports it.
fn round_to(value: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (value * scale).round() / scale
}

struct Row {
    shards: usize,
    best_ms: f64,
    ops_per_s: f64,
    identical: bool,
}

/// Runs `setup` untimed, then `window` timed, through a fresh
/// `shards`-process deployment. Pass an empty `setup` to time the
/// whole script.
fn run_once(
    bin: &Path,
    setup: &[pphcr_core::EngineCommand],
    window: &[pphcr_core::EngineCommand],
    shards: usize,
) -> Result<(SingleRun, f64), String> {
    let spawned: Result<Vec<ProcessShard>, _> =
        (0..shards).map(|_| ProcessShard::spawn(bin)).collect();
    let mut router = Router::new(spawned.map_err(|e| format!("spawn: {e}"))?)
        .map_err(|e| format!("router: {e}"))?;
    let mut lines = Vec::new();
    for cmd in setup {
        lines.extend(router.apply(cmd).map_err(|e| format!("apply: {e}"))?);
    }
    let started = stopwatch();
    for cmd in window {
        lines.extend(router.apply(cmd).map_err(|e| format!("apply: {e}"))?);
    }
    let elapsed_ms = started.elapsed_s() * 1e3;
    let obs_json = router.merged_obs().map_err(|e| format!("merge: {e}"))?.to_json();
    Ok((SingleRun { lines, obs_json }, elapsed_ms))
}

fn main() -> ExitCode {
    let shard_counts: Vec<usize> = env_or("E16_SHARDS", "1,2,4")
        .split(',')
        .map(|s| s.trim().parse().expect("E16_SHARDS"))
        .collect();
    let seed: u64 = env_or("E16_SEED", "1").parse().expect("E16_SEED");
    let rounds: usize = env_or("E16_ROUNDS", "3").parse().expect("E16_ROUNDS");
    let out_path = env_or("E16_OUT", "BENCH_e16.json");
    let bin = agent_bin();

    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let ops = commands(seed);
    let baseline_started = stopwatch();
    let baseline = run_single(&ops);
    let baseline_ms = baseline_started.elapsed_s() * 1e3;
    println!(
        "=== E16: shard scaling, seed {seed}, {} ops, {} event lines, {host_cores} host cores, agent {} ===",
        ops.len(),
        baseline.lines.len(),
        bin.display()
    );
    println!("in-process baseline: {baseline_ms:.1} ms");
    println!("{:>6}  {:>10}  {:>10}  {:>9}", "shards", "best ms", "ops/s", "identity");

    let mut rows = Vec::new();
    let mut all_ok = true;
    for &n in &shard_counts {
        let mut best_ms = f64::INFINITY;
        let mut identical = true;
        for _ in 0..rounds.max(1) {
            match run_once(&bin, &[], &ops, n) {
                Ok((run, elapsed_ms)) => {
                    best_ms = best_ms.min(elapsed_ms);
                    identical &= run.lines == baseline.lines && run.obs_json == baseline.obs_json;
                }
                Err(msg) => {
                    eprintln!("FAIL: {n}-shard round: {msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let ops_per_s = ops.len() as f64 / (best_ms / 1e3);
        println!(
            "{n:>6}  {best_ms:>10.1}  {ops_per_s:>10.0}  {:>9}",
            if identical { "identical" } else { "DIVERGED" }
        );
        all_ok &= identical;
        rows.push(Row { shards: n, best_ms, ops_per_s, identical });
    }

    let heavy_users: u64 = env_or("E16_HEAVY_USERS", "24").parse().expect("E16_HEAVY_USERS");
    let heavy_ticks: u64 = env_or("E16_HEAVY_TICKS", "12").parse().expect("E16_HEAVY_TICKS");
    let heavy_rounds: usize = env_or("E16_HEAVY_ROUNDS", "2").parse().expect("E16_HEAVY_ROUNDS");
    let (setup, window) = tick_heavy(seed, heavy_users, heavy_ticks);
    let (heavy_baseline, heavy_baseline_ms) = run_single_windowed(&setup, &window);
    println!(
        "=== E16b: tick-heavy window, {heavy_users} commuters, {heavy_ticks}+1 ticks, {} setup ops ===",
        setup.len()
    );
    println!(
        "in-process window: {heavy_baseline_ms:.1} ms ({} event lines)",
        heavy_baseline.lines.len()
    );
    println!("{:>6}  {:>10}  {:>8}  {:>9}", "shards", "window ms", "speedup", "identity");

    let mut heavy_rows = Vec::new();
    for &n in &shard_counts {
        let mut best_ms = f64::INFINITY;
        let mut identical = true;
        for _ in 0..heavy_rounds.max(1) {
            match run_once(&bin, &setup, &window, n) {
                Ok((run, elapsed_ms)) => {
                    best_ms = best_ms.min(elapsed_ms);
                    identical &= run.lines == heavy_baseline.lines
                        && run.obs_json == heavy_baseline.obs_json;
                }
                Err(msg) => {
                    eprintln!("FAIL: tick-heavy {n}-shard round: {msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let speedup = heavy_baseline_ms / best_ms;
        println!(
            "{n:>6}  {best_ms:>10.1}  {speedup:>7.2}x  {:>9}",
            if identical { "identical" } else { "DIVERGED" }
        );
        all_ok &= identical;
        heavy_rows.push(Row { shards: n, best_ms, ops_per_s: speedup, identical });
    }

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("seed", seed)
        .field_u64("host_cores", host_cores as u64)
        .field_u64("ops", ops.len() as u64)
        .field_u64("lines", baseline.lines.len() as u64)
        .field_u64("rounds", rounds as u64)
        .field_f64("baseline_ms", round_to(baseline_ms, 3));
    w.begin_named_array("points");
    for r in &rows {
        w.begin_object();
        w.field_u64("shards", r.shards as u64)
            .field_f64("best_ms", round_to(r.best_ms, 3))
            .field_f64("ops_per_s", round_to(r.ops_per_s, 1))
            .field_bool("identical", r.identical);
        w.end_object();
    }
    w.end_array();
    w.begin_named_object("heavy");
    w.field_u64("users", heavy_users)
        .field_u64("ticks", heavy_ticks)
        .field_u64("rounds", heavy_rounds as u64)
        .field_f64("baseline_window_ms", round_to(heavy_baseline_ms, 3));
    w.begin_named_array("points");
    for r in &heavy_rows {
        w.begin_object();
        w.field_u64("shards", r.shards as u64)
            .field_f64("window_ms", round_to(r.best_ms, 3))
            .field_f64("speedup", round_to(r.ops_per_s, 3))
            .field_bool("identical", r.identical);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    // lint: allow(fsync-free-write) — bench artifact, not durable state; loss on crash is fine
    std::fs::write(&out_path, doc).expect("write BENCH_e16.json");
    println!("wrote {out_path}");

    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: at least one shard count diverged from the single-process run");
        ExitCode::FAILURE
    }
}
