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
//! * `PPHCR_BENCH_OUT` — summary path, default `summary.json`. It
//!   must not name a directory, and its parent directory must exist;
//!   both are checked before any suite runs.
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

/// The summary path and the `OBS_SNAPSHOT.json` path beside it, once
/// both are checked to be writable locations: neither may be a
/// directory, and each one's parent directory must exist. Checked
/// before the suites run, so a bad `PPHCR_BENCH_OUT` fails at once
/// rather than after the whole run.
fn output_paths(out: &str) -> Result<(PathBuf, PathBuf), String> {
    let summary = PathBuf::from(out);
    let obs = summary.with_file_name("OBS_SNAPSHOT.json");
    for path in [&summary, &obs] {
        if path.is_dir() {
            return Err(format!("{} is a directory", path.display()));
        }
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
        if !parent.is_dir() {
            return Err(format!(
                "{}: parent directory {} does not exist",
                path.display(),
                parent.display()
            ));
        }
    }
    Ok((summary, obs))
}

fn main() -> ExitCode {
    let spec_name = std::env::var("PPHCR_BENCH_SPEC").unwrap_or_else(|_| "full".into());
    let Some(spec) = BenchSpec::named(&spec_name) else {
        eprintln!("FAIL: PPHCR_BENCH_SPEC must be smoke or full, not {spec_name:?}");
        return ExitCode::FAILURE;
    };
    let out_path = std::env::var("PPHCR_BENCH_OUT").unwrap_or_else(|_| "summary.json".into());
    let (summary_path, obs_path) = match output_paths(&out_path) {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("FAIL: PPHCR_BENCH_OUT: {e}");
            return ExitCode::FAILURE;
        }
    };
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

    let mut failed = false;
    // lint: allow(fsync-free-write) — bench artifact, not durable state; loss on crash is fine
    if let Err(e) = std::fs::write(&obs_path, format!("{snapshot_json}\n")) {
        eprintln!("FAIL: write {}: {e}", obs_path.display());
        failed = true;
    }
    let summary = summary_json(spec.name, host_cores, &agents, &entries);
    // lint: allow(fsync-free-write) — bench artifact, not durable state; loss on crash is fine
    if let Err(e) = std::fs::write(&summary_path, summary) {
        eprintln!("FAIL: write {}: {e}", summary_path.display());
        failed = true;
    }
    if !failed {
        println!("wrote {} and {}", summary_path.display(), obs_path.display());
    }

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

#[cfg(test)]
mod tests {
    use super::output_paths;

    #[test]
    fn output_paths_reject_a_directory_and_a_missing_parent() {
        let dir = std::env::temp_dir().join(format!("pphcr-bench-out-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        let as_str = |p: &std::path::Path| p.to_str().expect("utf-8 temp path").to_owned();

        let err = output_paths(&as_str(&dir)).expect_err("a directory is not a summary file");
        assert!(err.contains("is a directory"), "{err}");
        let missing = dir.join("no-such-dir").join("summary.json");
        let err = output_paths(&as_str(&missing)).expect_err("parent must exist");
        assert!(err.contains("does not exist"), "{err}");
        let file = dir.join("summary.json");
        let (summary, obs) = output_paths(&as_str(&file)).expect("a file in an existing directory");
        assert_eq!(summary, file);
        assert_eq!(obs, dir.join("OBS_SNAPSHOT.json"));

        std::fs::remove_dir_all(&dir).expect("remove scratch directory");
    }
}
