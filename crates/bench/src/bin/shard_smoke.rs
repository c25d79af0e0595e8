//! The shard smoke driver: spawns a real multi-process sharded
//! deployment, runs the differential workload through it, and asserts
//! byte-identity against the single-process baseline — including one
//! mid-stream snapshot-handoff rebalance.
//!
//! ```text
//! shard_smoke [--shards N] [--seed S] [--rebalance-at K] [--agent PATH] [--out PATH]
//! ```
//!
//! Exit codes: 0 identical, 1 divergence, 2 usage or infrastructure
//! failure. `--out` writes the identity artefact (verdict, line count,
//! merged observability JSON) for CI upload.

use pphcr_bench::suites::run_router;
use pphcr_shard::ShardError;
use pphcr_sim::script::{run_in_process, script, Shape};
use std::path::PathBuf;

struct Options {
    shards: usize,
    seed: u64,
    rebalance_at: Option<usize>,
    agent: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { shards: 2, seed: 1, rebalance_at: None, agent: None, out: None };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--shards" => {
                opts.shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--rebalance-at" => {
                opts.rebalance_at = Some(
                    value("--rebalance-at")?.parse().map_err(|e| format!("--rebalance-at: {e}"))?,
                );
            }
            "--agent" => opts.agent = Some(PathBuf::from(value("--agent")?)),
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.shards == 0 {
        return Err("--shards must be positive".into());
    }
    Ok(opts)
}

/// The agent binary: `--agent` if given, else `shard_agent` next to
/// this executable (the layout `cargo build` produces).
fn agent_path(opts: &Options) -> Result<PathBuf, String> {
    if let Some(path) = &opts.agent {
        return Ok(path.clone());
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("executable has no parent directory")?;
    let candidate = dir.join("shard_agent");
    if candidate.exists() {
        Ok(candidate)
    } else {
        Err(format!("agent binary not found at {}; pass --agent", candidate.display()))
    }
}

fn run(opts: &Options) -> Result<i32, ShardError> {
    let ops = script(opts.seed, Shape::Differential).into_ops();
    let (baseline, _) = run_in_process(&[], &ops);

    let agent = match agent_path(opts) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("shard-smoke: {msg}");
            return Ok(2);
        }
    };
    let rebalance_at = opts.rebalance_at.unwrap_or(ops.len() / 2);
    if rebalance_at >= ops.len() {
        eprintln!(
            "shard-smoke: --rebalance-at {rebalance_at} is past the last of {} ops",
            ops.len()
        );
        return Ok(2);
    }
    // Mid-stream snapshot handoff: shard 0 donates its state to a
    // fresh process and is retired.
    let (sharded, _, handoff_trace) =
        run_router(&agent, opts.shards, &[], &ops, Some(rebalance_at))?;
    let (lines, merged) = (sharded.lines, sharded.obs_json);

    let lines_ok = lines == baseline.lines;
    let obs_ok = merged == baseline.obs_json;
    let verdict = if lines_ok && obs_ok { "identical" } else { "DIVERGED" };
    println!(
        "shard-smoke: shards={} seed={} ops={} lines={} rebalance_at={} handoff_trace={} verdict={verdict}",
        opts.shards,
        opts.seed,
        ops.len(),
        lines.len(),
        rebalance_at,
        handoff_trace,
    );
    if !lines_ok {
        report_line_diff(&baseline.lines, &lines);
    }
    if !obs_ok {
        report_obs_diff(&baseline.obs_json, &merged);
    }

    if let Some(out) = &opts.out {
        let artifact = format!(
            "verdict={verdict}\nshards={}\nseed={}\nops={}\nlines={}\nrebalance_at={}\nhandoff_trace={}\n--- merged obs ---\n{merged}",
            opts.shards,
            opts.seed,
            ops.len(),
            lines.len(),
            rebalance_at,
            handoff_trace,
        );
        // lint: allow(fsync-free-write) — CI artifact, not durable state.
        if let Err(e) = std::fs::write(out, artifact) {
            eprintln!("shard-smoke: could not write {}: {e}", out.display());
            return Ok(2);
        }
    }
    Ok(i32::from(!(lines_ok && obs_ok)))
}

fn report_line_diff(baseline: &[String], sharded: &[String]) {
    eprintln!("line streams differ: baseline={} sharded={}", baseline.len(), sharded.len());
    for (i, (b, s)) in baseline.iter().zip(sharded.iter()).enumerate() {
        if b != s {
            eprintln!("first divergence at line {i}:\n  baseline: {b}\n  sharded:  {s}");
            return;
        }
    }
    let i = baseline.len().min(sharded.len());
    eprintln!(
        "streams agree up to line {i}; extra side starts with: {:?}",
        baseline.get(i).or_else(|| sharded.get(i))
    );
}

fn report_obs_diff(baseline: &str, merged: &str) {
    for (i, (b, s)) in baseline.lines().zip(merged.lines()).enumerate() {
        if b != s {
            eprintln!("obs JSON diverges at line {i}:\n  baseline: {b}\n  merged:   {s}");
            return;
        }
    }
    eprintln!("obs JSON lengths differ: baseline={} merged={}", baseline.len(), merged.len());
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("shard-smoke: {msg}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("shard-smoke: {e}");
            std::process::exit(2);
        }
    }
}
