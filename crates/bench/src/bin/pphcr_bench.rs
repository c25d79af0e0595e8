//! `pphcr-bench` — the one CI gate runner.
//!
//! Runs suites A and B in `bench_agent` processes, then the E13 and
//! E16 suites in this process, and writes one `summary.json` holding
//! every result with its gate. Writes the E13 obs-overhead run's
//! snapshot as `OBS_SNAPSHOT.json` next to it. Exits non-zero if any
//! gate fails or a process cannot be run.
//!
//! Environment (all optional):
//! * `PPHCR_BENCH_SPEC` — `smoke` (CI) or `full` (the committed
//!   artifact), default `full`.
//! * `PPHCR_BENCH_OUT` — summary path, default `summary.json`.
//! * `PPHCR_BENCH_AGENT_BIN` — path to `bench_agent`, default the
//!   binary next to this executable. `shard_agent` is always taken
//!   from next to this executable (build `pphcr-shard` first).

use pphcr_bench::harness::{ab_entries, run_agents};
use pphcr_bench::summary::summary_json;
use pphcr_bench::{suites, BenchSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The binary called `name` in this executable's directory.
fn sibling(name: &str) -> PathBuf {
    let mut path = std::env::current_exe().expect("current_exe");
    path.set_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    path
}

fn main() -> ExitCode {
    let spec_name = std::env::var("PPHCR_BENCH_SPEC").unwrap_or_else(|_| "full".into());
    let Some(spec) = BenchSpec::named(&spec_name) else {
        eprintln!("FAIL: PPHCR_BENCH_SPEC must be smoke or full, not {spec_name:?}");
        return ExitCode::FAILURE;
    };
    let out_path = std::env::var("PPHCR_BENCH_OUT").unwrap_or_else(|_| "summary.json".into());
    let agent_bin = std::env::var_os("PPHCR_BENCH_AGENT_BIN")
        .map_or_else(|| sibling("bench_agent"), Into::into);
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    println!("=== pphcr-bench: {spec_name} spec, {host_cores} host cores ===");
    let agents = match run_agents(&agent_bin, &spec.agent) {
        Ok(agents) => agents,
        Err(e) => {
            eprintln!("FAIL: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut entries = ab_entries(&agents);
    let (e13, snapshot_json) = suites::e13(&spec, host_cores);
    entries.extend(e13);
    match suites::e16(&spec, &sibling("shard_agent")) {
        Ok(e16) => entries.extend(e16),
        Err(e) => {
            eprintln!("FAIL: E16 {e}");
            return ExitCode::FAILURE;
        }
    }

    let obs_path = Path::new(&out_path).with_file_name("OBS_SNAPSHOT.json");
    // lint: allow(fsync-free-write) — bench artifact, not durable state; loss on crash is fine
    std::fs::write(&obs_path, format!("{snapshot_json}\n")).expect("write OBS_SNAPSHOT.json");
    // lint: allow(fsync-free-write) — bench artifact, not durable state; loss on crash is fine
    std::fs::write(&out_path, summary_json(spec.name, host_cores, &agents, &entries))
        .expect("write summary.json");
    println!("wrote {out_path} and {}", obs_path.display());

    let mut failed = false;
    for e in &entries {
        let gate = e.gate.as_ref().map_or(String::new(), |g| {
            format!(" {} = {:.3} {} {:.3}", g.metric, g.value, g.cmp.symbol(), g.bound)
        });
        println!("{:<4} {:<28} {}{gate}", e.suite, e.name, e.outcome());
        if !e.passed() {
            eprintln!("FAIL: {}/{}{gate}", e.suite, e.name);
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
