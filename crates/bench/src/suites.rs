//! The two suites `pphcr-bench` runs in its own process after the
//! agents: E13 (retrieval index, batch-tick scaling, pinned work,
//! measured warm-phase speedup, obs overhead) and
//! E16 (identity-checked rounds over `shard_agent` processes), plus
//! the router driver E16 and `shard_smoke` share ([`run_router`]).

use crate::gates::{self, GATE_FLEET};
use crate::summary::Entry;
use crate::BenchSpec;
use pphcr_core::EngineCommand;
use pphcr_obs::timing::stopwatch;
use pphcr_shard::{ProcessShard, Router, ShardError};
use pphcr_sim::experiments::{
    e13_obs_overhead, e13_retrieval, e13_tick_grid, e13_tick_scaling, e13_warm_speedup,
};
use pphcr_sim::script::{run_in_process, script, Run, Shape, TICK_HEAVY_STEPS};
use pphcr_sim::timing::min_after_warmup;
use std::path::Path;

/// E13 timed rounds per retrieval pass and per tick-scaling row, after
/// one discarded warmup; the minimum is reported.
const TIMED_ROUNDS: usize = 3;

/// E13 worker counts; the last is the widest.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Batched ticks per E13 population-grid cell.
const GRID_TICKS: u64 = 50;

/// Seed of the E13 archive worlds.
const ARCHIVE_SEED: u64 = 42;

/// E16 shard counts.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Seed of both E16 workloads.
const SHARD_SEED: u64 = 1;

/// Runs E13 at `spec` and returns its entries plus the instrumented
/// obs-overhead run's `ObsSnapshot` JSON. Rows are printed as they
/// land.
#[must_use]
pub fn e13(spec: &BenchSpec, host_cores: usize) -> (Vec<Entry>, String) {
    println!("=== E13: retrieval index + sharded batch ticks ===");
    let mut entries = Vec::new();
    let retrieval = e13_retrieval(spec.retrieval_grid, ARCHIVE_SEED, TIMED_ROUNDS);
    let largest = retrieval.iter().map(|r| r.clips).max();
    for r in &retrieval {
        println!("{r}");
        let entry = Entry::new("E13", format!("retrieval_{}x{}", r.clips, r.users))
            .u64("rounds", TIMED_ROUNDS as u64)
            .u64("clips", r.clips as u64)
            .u64("users", r.users as u64)
            .f64("scan_s", r.scan_s)
            .f64("indexed_s", r.indexed_s)
            .f64("speedup", r.speedup)
            .u64("candidates", r.candidates);
        let gated = Some(r.clips) == largest;
        entries.push(if gated { entry.gated(gates::retrieval(r.speedup)) } else { entry });
    }
    for r in e13_tick_scaling(spec.tick_users, &WORKER_COUNTS, TIMED_ROUNDS) {
        println!("{r}");
        entries.push(
            Entry::new("E13", format!("tick_scaling_{}u_{}w", r.users, r.workers))
                .u64("rounds", TIMED_ROUNDS as u64)
                .u64("users", r.users)
                .u64("workers", r.workers as u64)
                .f64("seconds", r.seconds)
                .f64("user_ticks_per_s", r.user_ticks_per_s)
                .u64("events", r.events),
        );
    }
    let widest = WORKER_COUNTS[WORKER_COUNTS.len() - 1];
    for r in &e13_tick_grid(spec.tick_grid, &WORKER_COUNTS, GRID_TICKS) {
        println!("{r}");
        let entry = Entry::new("E13", format!("tick_grid_{}u_{}w", r.users, r.workers))
            .u64("users", r.users)
            .u64("workers", r.workers as u64)
            .u64("ticks", r.ticks)
            .f64("seconds", r.seconds)
            .f64("user_ticks_per_s", r.user_ticks_per_s)
            .f64("warm_s", r.warm_s)
            .f64("parallel_fraction", r.parallel_fraction)
            .u64("cache_misses", r.cache_misses)
            .u64("warm_serves", r.warm_serves)
            .u64("cross_tick_hits", r.cross_tick_hits)
            .u64("sweeps", r.sweeps)
            .u64("feedback_periods", r.feedback_periods)
            .u64("events", r.events);
        let pinned = r.users == GATE_FLEET && r.workers == 1;
        entries.push(if pinned { entry.gated(gates::work(r)) } else { entry });
    }
    let speedup = Entry::new("E13", format!("warm_speedup_{GATE_FLEET}u"))
        .u64("users", GATE_FLEET)
        .u64("host_cores", host_cores as u64);
    entries.push(match gates::gated_workers(host_cores) {
        Some(workers) => {
            let r = e13_warm_speedup(GATE_FLEET, workers, GRID_TICKS);
            println!("{r}");
            speedup
                .u64("workers", workers as u64)
                .u64("pairs", r.pairs as u64)
                .f64("base_warm_s", r.base_warm_s)
                .f64("warm_s", r.warm_s)
                .f64("speedup", r.speedup)
                .f64("speedup_q1", r.speedup_q1)
                .f64("speedup_q3", r.speedup_q3)
                .gated(gates::warm_speedup(&r))
        }
        None => {
            println!("warm speedup: one core, no scaling claim");
            speedup
        }
    });
    let obs = e13_obs_overhead(spec.tick_users, widest, spec.obs_rounds);
    println!("{obs}");
    entries.push(
        Entry::new("E13", "obs_overhead")
            .u64("users", obs.users)
            .u64("workers", obs.workers as u64)
            .u64("rounds", spec.obs_rounds as u64)
            .u64("pairs", obs.pairs as u64)
            .f64("bare_s", obs.bare_s)
            .f64("instrumented_s", obs.instrumented_s)
            .f64("overhead_pct", obs.overhead_pct)
            .f64("overhead_q1_pct", obs.overhead_q1_pct)
            .f64("overhead_q3_pct", obs.overhead_q3_pct)
            .u64("events", obs.events)
            .gated(gates::obs_overhead(obs.overhead_pct)),
    );
    (entries, obs.snapshot_json)
}

/// Runs E16 at `spec` through `shard_agent` processes spawned from
/// `agent_bin`: the differential workload, whole script timed, then
/// the tick-heavy window, setup untimed. Every round at every shard
/// count is diffed against the single-process run. Fails only if a
/// deployment cannot spawn or a command fails; divergence is a failed
/// gate, not an error.
pub fn e16(spec: &BenchSpec, agent_bin: &Path) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    let ops = script(SHARD_SEED, Shape::Differential).into_ops();
    let (baseline, baseline_ms) = run_in_process(&[], &ops);
    println!(
        "=== E16: shard scaling, seed {SHARD_SEED}, {} ops, {} event lines, in-process \
         {baseline_ms:.1} ms ===",
        ops.len(),
        baseline.lines.len()
    );
    for n in SHARD_COUNTS {
        let (best_ms, diverged) = best_of(agent_bin, &[], &ops, n, spec.shard_rounds, &baseline)?;
        let ops_per_s = ops.len() as f64 / (best_ms / 1e3);
        println!("shards={n} best={best_ms:.1}ms ops/s={ops_per_s:.0} diverged_rounds={diverged}");
        entries.push(
            Entry::new("E16", format!("differential_{n}_shards"))
                .u64("seed", SHARD_SEED)
                .u64("ops", ops.len() as u64)
                .u64("lines", baseline.lines.len() as u64)
                .u64("rounds", spec.shard_rounds as u64)
                .f64("baseline_ms", baseline_ms)
                .u64("shards", n as u64)
                .f64("best_ms", best_ms)
                .f64("ops_per_s", ops_per_s)
                .flag("identical", diverged == 0)
                .gated(gates::shard_identity(diverged)),
        );
    }

    let heavy = script(SHARD_SEED, Shape::TickHeavy { users: spec.heavy_users });
    let (setup, window) = (&heavy.setup, &heavy.window);
    // The first run is the identity reference and the discarded
    // warmup; the baseline is the best of `heavy_rounds` after it, as
    // the sharded windows it divides are.
    let (heavy_baseline, reference_ms) = run_in_process(setup, window);
    let mut times = vec![reference_ms];
    times.extend((0..spec.heavy_rounds).map(|_| run_in_process(setup, window).1));
    let heavy_baseline_ms = min_after_warmup(&times, 1).expect("every spec has heavy rounds");
    println!(
        "=== E16b: tick-heavy window, {} commuters, {TICK_HEAVY_STEPS}+1 ticks, {} setup ops, \
         in-process window {heavy_baseline_ms:.1} ms ===",
        spec.heavy_users,
        setup.len()
    );
    for n in SHARD_COUNTS {
        let (window_ms, diverged) =
            best_of(agent_bin, setup, window, n, spec.heavy_rounds, &heavy_baseline)?;
        let speedup = heavy_baseline_ms / window_ms;
        println!(
            "shards={n} window={window_ms:.1}ms speedup={speedup:.2}x diverged_rounds={diverged}"
        );
        entries.push(
            Entry::new("E16", format!("tick_heavy_{n}_shards"))
                .u64("seed", SHARD_SEED)
                .u64("users", spec.heavy_users)
                .u64("ticks", TICK_HEAVY_STEPS)
                .u64("rounds", spec.heavy_rounds as u64)
                .f64("baseline_window_ms", heavy_baseline_ms)
                .u64("shards", n as u64)
                .f64("window_ms", window_ms)
                .f64("speedup", speedup)
                .flag("identical", diverged == 0)
                .gated(gates::shard_identity(diverged)),
        );
    }
    Ok(entries)
}

/// Runs `rounds` fresh `shards`-process deployments, returning the best
/// timed `window` in ms and how many rounds diverged from `baseline`.
fn best_of(
    agent_bin: &Path,
    setup: &[EngineCommand],
    window: &[EngineCommand],
    shards: usize,
    rounds: usize,
    baseline: &Run,
) -> Result<(f64, u64), String> {
    let mut best_ms = f64::INFINITY;
    let mut diverged = 0;
    for _ in 0..rounds {
        let (run, elapsed_ms, _) = run_router(agent_bin, shards, setup, window, None)
            .map_err(|e| format!("{shards}-shard round: {e}"))?;
        best_ms = best_ms.min(elapsed_ms);
        diverged += u64::from(!gates::round_identical(&run, baseline));
    }
    Ok((best_ms, diverged))
}

/// Drives `setup`, then `window`, through a router over `shards` fresh
/// `agent_bin` processes, numbering commands from 0 across both. If
/// `rebalance_at` is given, shard 0 hands its state to a fresh process
/// before that command. Returns the merged run, the window's wall time
/// in ms (the setup is not timed) and the decision-trace entries the
/// shards held at the handoff (0 without one).
///
/// # Errors
/// The first [`ShardError`] of a spawn, a command or the merge.
pub fn run_router(
    agent_bin: &Path,
    shards: usize,
    setup: &[EngineCommand],
    window: &[EngineCommand],
    rebalance_at: Option<usize>,
) -> Result<(Run, f64, usize), ShardError> {
    let spawned: Result<Vec<ProcessShard>, _> =
        (0..shards).map(|_| ProcessShard::spawn(agent_bin)).collect();
    let mut router = Router::new(spawned?)?;
    let mut lines = Vec::new();
    let mut handoff_trace = 0;
    let mut started = stopwatch();
    for (op, cmd) in setup.iter().chain(window).enumerate() {
        if op == setup.len() {
            started = stopwatch();
        }
        if rebalance_at == Some(op) {
            handoff_trace = router.merged_obs()?.trace.len();
            router.rebalance(0, ProcessShard::spawn(agent_bin)?)?;
        }
        lines.extend(router.apply(cmd)?);
    }
    let window_ms = started.elapsed_s() * 1e3;
    let obs_json = router.merged_obs()?.to_json();
    Ok((Run { lines, obs_json }, window_ms, handoff_trace))
}
