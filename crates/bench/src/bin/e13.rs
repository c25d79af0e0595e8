//! E13 — writes `BENCH_e13.json`: scan-vs-index retrieval throughput
//! over a months-deep archive, batch-tick worker scaling, and the
//! observability overhead check (instrumented vs bare engine on the
//! same window). Gates on the index beating the linear scan at the
//! largest archive point and on the obs layer staying under its
//! overhead budget (the CI perf-smoke job fails on either regression).
//!
//! Environment overrides (all optional):
//! * `E13_GRID` — comma-separated `CLIPSxUSERS` retrieval points,
//!   default `1000x1000,10000x1000`.
//! * `E13_TICK_USERS` — commuters for the tick-scaling half, default 24.
//! * `E13_TICK_GRID` — comma-separated fleet sizes for the
//!   population-scale grid, default `1000,10000,100000`.
//! * `E13_TICK_WINDOW` — batched ticks per grid cell, default 50.
//! * `E13_WORKERS` — comma-separated worker counts, default `1,2,8`.
//! * `E13_MIN_SPEEDUP` — gate on the largest grid point, default 1.0.
//! * `E13_MIN_TICK_SPEEDUP` — scaling-efficiency floor at the gate
//!   fleet: measured user-ticks/s speedup at the highest worker count
//!   over 1 worker when the host has that many cores, else the Amdahl
//!   bound implied by the measured warm-phase parallel fraction.
//!   Default 3.0.
//! * `E13_GATE_FLEET` — the fleet size the scaling gate evaluates,
//!   default 10000 (the acceptance point); falls back to the largest
//!   fleet actually in the grid. Larger fleets still run and land in
//!   the artifact — the 100k row's lower warm share (per-user map
//!   locality in the commit loop) is tracked as the next scaling rung,
//!   not gated here.
//! * `E13_ROUNDS` — timed rounds per retrieval pass and per
//!   tick-scaling row (one extra warmup run is always taken first and
//!   discarded; the minimum of the timed rounds is reported), default 3.
//! * `E13_OUT` — output path, default `BENCH_e13.json`.
//! * `E13_OBS_ROUNDS` — best-of rounds per obs variant, default 3.
//! * `E13_MAX_OVERHEAD_PCT` — obs overhead gate, default 3.0.
//! * `E13_OBS_SLACK_S` — absolute slack added to the overhead gate so
//!   sub-noise wall times cannot fake a percentage, default 0.02.
//! * `E13_OBS_OUT` — snapshot artifact path, default `OBS_SNAPSHOT.json`.

use pphcr_obs::json::JsonWriter;
use pphcr_sim::experiments::{e13_obs_overhead, e13_retrieval, e13_tick_grid, e13_tick_scaling};
use std::process::ExitCode;

fn env_or(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| default.to_string())
}

fn parse_grid(spec: &str) -> Vec<(usize, usize)> {
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            let (c, u) = s.trim().split_once('x').expect("grid point must be CLIPSxUSERS");
            (c.parse().expect("clips"), u.parse().expect("users"))
        })
        .collect()
}

fn main() -> ExitCode {
    let grid = parse_grid(&env_or("E13_GRID", "1000x1000,10000x1000"));
    let tick_users: u64 = env_or("E13_TICK_USERS", "24").parse().expect("E13_TICK_USERS");
    let workers: Vec<usize> = env_or("E13_WORKERS", "1,2,8")
        .split(',')
        .map(|w| w.trim().parse().expect("E13_WORKERS"))
        .collect();
    let min_speedup: f64 = env_or("E13_MIN_SPEEDUP", "1.0").parse().expect("E13_MIN_SPEEDUP");
    let tick_grid: Vec<u64> = env_or("E13_TICK_GRID", "1000,10000,100000")
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().expect("E13_TICK_GRID"))
        .collect();
    let tick_window: u64 = env_or("E13_TICK_WINDOW", "50").parse().expect("E13_TICK_WINDOW");
    let min_tick_speedup: f64 =
        env_or("E13_MIN_TICK_SPEEDUP", "3.0").parse().expect("E13_MIN_TICK_SPEEDUP");
    let gate_fleet: u64 = env_or("E13_GATE_FLEET", "10000").parse().expect("E13_GATE_FLEET");
    let rounds: usize = env_or("E13_ROUNDS", "3").parse().expect("E13_ROUNDS");
    let out_path = env_or("E13_OUT", "BENCH_e13.json");
    let obs_rounds: usize = env_or("E13_OBS_ROUNDS", "3").parse().expect("E13_OBS_ROUNDS");
    let max_overhead_pct: f64 =
        env_or("E13_MAX_OVERHEAD_PCT", "3.0").parse().expect("E13_MAX_OVERHEAD_PCT");
    let obs_slack_s: f64 = env_or("E13_OBS_SLACK_S", "0.02").parse().expect("E13_OBS_SLACK_S");
    let obs_out = env_or("E13_OBS_OUT", "OBS_SNAPSHOT.json");

    println!("=== E13: retrieval index + sharded batch ticks ===");
    let retrieval = e13_retrieval(&grid, 42, rounds);
    for row in &retrieval {
        println!("{row}");
    }
    let ticks = e13_tick_scaling(tick_users, &workers, rounds);
    for row in &ticks {
        println!("{row}");
    }
    let grid_rows = e13_tick_grid(&tick_grid, &workers, tick_window);
    for row in &grid_rows {
        println!("{row}");
    }
    let obs = e13_obs_overhead(tick_users, *workers.last().unwrap_or(&1), obs_rounds);
    println!("{obs}");
    // lint: allow(fsync-free-write) — bench artifact, not durable state; loss on crash is fine
    std::fs::write(&obs_out, format!("{}\n", obs.snapshot_json)).expect("write OBS_SNAPSHOT.json");
    println!("wrote {obs_out}");

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("experiment", "e13");
    w.field_u64("rounds", rounds as u64);
    w.begin_named_array("retrieval");
    for r in &retrieval {
        w.begin_object();
        w.field_u64("clips", r.clips as u64)
            .field_u64("users", r.users as u64)
            .field_f64("scan_s", r.scan_s)
            .field_f64("indexed_s", r.indexed_s)
            .field_f64("speedup", r.speedup)
            .field_u64("candidates", r.candidates)
            .field_str("dispatch", r.dispatch.label());
        w.end_object();
    }
    w.end_array();
    w.begin_named_array("tick_scaling");
    for r in &ticks {
        w.begin_object();
        w.field_u64("users", r.users)
            .field_u64("workers", r.workers as u64)
            .field_f64("seconds", r.seconds)
            .field_f64("user_ticks_per_s", r.user_ticks_per_s)
            .field_u64("events", r.events);
        w.end_object();
    }
    w.end_array();
    w.begin_named_array("tick_grid");
    for r in &grid_rows {
        w.begin_object();
        w.field_u64("users", r.users)
            .field_u64("workers", r.workers as u64)
            .field_u64("ticks", r.ticks)
            .field_f64("seconds", r.seconds)
            .field_f64("user_ticks_per_s", r.user_ticks_per_s)
            .field_f64("warm_s", r.warm_s)
            .field_f64("parallel_fraction", r.parallel_fraction)
            .field_u64("cache_misses", r.cache_misses)
            .field_u64("warm_serves", r.warm_serves)
            .field_u64("cross_tick_hits", r.cross_tick_hits)
            .field_u64("events", r.events);
        w.end_object();
    }
    w.end_array();
    w.begin_named_object("obs_overhead");
    w.field_u64("users", obs.users)
        .field_u64("workers", obs.workers as u64)
        .field_u64("rounds", obs.rounds as u64)
        .field_f64("bare_s", obs.bare_s)
        .field_f64("instrumented_s", obs.instrumented_s)
        .field_f64("overhead_pct", obs.overhead_pct)
        .field_u64("events", obs.events);
    w.end_object();
    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    // lint: allow(fsync-free-write) — bench artifact, not durable state; loss on crash is fine
    std::fs::write(&out_path, doc).expect("write BENCH_e13.json");
    println!("wrote {out_path}");

    // The gate: at the largest archive the index must not lose to the
    // scan (CI runs with the default 1.0; the committed artifact is
    // generated at full scale where the margin is much wider).
    let largest = retrieval.iter().max_by_key(|r| r.clips).expect("non-empty grid");
    if largest.speedup < min_speedup {
        eprintln!(
            "FAIL: indexed retrieval speedup {:.2}x at {} clips is below the {:.2}x gate",
            largest.speedup, largest.clips, min_speedup
        );
        return ExitCode::FAILURE;
    }

    // The scaling-efficiency gate, at the gate fleet (default 10k; the
    // largest fleet in the grid when 10k is absent). On a host with as
    // many cores as the widest worker count the measured user-ticks/s
    // speedup must clear the floor directly; on narrower hosts (CI
    // runners, laptops) thread counts cannot speed anything up, so the
    // gate falls back to the Amdahl bound implied by the measured
    // warm-phase share: speedup(w) = 1/((1-p) + p/w).
    let gate_point = if tick_grid.contains(&gate_fleet) {
        Some(gate_fleet)
    } else {
        tick_grid.iter().max().copied()
    };
    if let Some(largest_fleet) = gate_point {
        let fleet_rows: Vec<_> = grid_rows.iter().filter(|r| r.users == largest_fleet).collect();
        let base = fleet_rows.iter().find(|r| r.workers == 1);
        let widest = fleet_rows.iter().max_by_key(|r| r.workers);
        if let (Some(base), Some(widest)) = (base, widest) {
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
            let measured = widest.user_ticks_per_s / base.user_ticks_per_s.max(1e-9);
            let p = base.parallel_fraction;
            let amdahl = 1.0 / ((1.0 - p) + p / widest.workers as f64);
            if cores >= widest.workers {
                if measured < min_tick_speedup {
                    eprintln!(
                        "FAIL: {} workers reach {measured:.2}x over 1 worker at {largest_fleet} \
                         users — below the {min_tick_speedup:.2}x scaling floor",
                        widest.workers
                    );
                    return ExitCode::FAILURE;
                }
            } else if amdahl < min_tick_speedup {
                eprintln!(
                    "FAIL: warm-phase parallel fraction {p:.3} at {largest_fleet} users bounds \
                     the {}-worker speedup to {amdahl:.2}x — below the {min_tick_speedup:.2}x \
                     scaling floor (host has {cores} cores, measured {measured:.2}x)",
                    widest.workers
                );
                return ExitCode::FAILURE;
            }
            // The cross-tick floor: the component-wise keys must keep
            // at least one ranked list alive across ticks under churn —
            // the old `now`-keyed cache pinned this counter at zero.
            if base.cross_tick_hits == 0 {
                eprintln!(
                    "FAIL: no cross-tick cache hits at {largest_fleet} users — candidate cache \
                     entries are not surviving across ticks"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    // The observability gate: the instrumented engine may not cost
    // more than `max_overhead_pct` over the bare one, with a small
    // absolute slack so sub-noise wall times cannot fake a percentage.
    let budget_s = obs.bare_s * (1.0 + max_overhead_pct / 100.0) + obs_slack_s;
    if obs.instrumented_s > budget_s {
        eprintln!(
            "FAIL: instrumented window {:.3}s exceeds bare {:.3}s by more than {:.1}% (+{:.0}ms \
             slack)",
            obs.instrumented_s,
            obs.bare_s,
            max_overhead_pct,
            obs_slack_s * 1_000.0
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
