//! End-to-end test of the process-based bench harness: spawns the real
//! `bench_agent` and `pphcr-bench` binaries (debug builds of the same
//! code CI runs in release) at a tiny scale and checks the acceptance
//! invariants — a parseable single-line agent summary, same-seed count
//! reproducibility, and a `summary.json` whose merged totals are the
//! sums of the agent totals with finite, ordered tails.

use pphcr_bench::harness::AgentSummary;
use std::collections::HashMap;
use std::process::Command;

/// Tiny-scale env for every spawned process: the point here is the
/// plumbing, not the numbers.
fn tiny_env(cmd: &mut Command) -> &mut Command {
    cmd.env("AGENT_USERS", "6")
        .env("AGENT_CLIPS", "300")
        .env("AGENT_TICKS", "4")
        .env("AGENT_PASSES", "1")
        .env("AGENT_ARRIVALS", "48")
        .env("AGENT_WORKERS", "2")
}

fn run_agent(seed: &str) -> AgentSummary {
    let output = tiny_env(&mut Command::new(env!("CARGO_BIN_EXE_bench_agent")))
        .env("AGENT_ID", "7")
        .env("AGENT_SEED", seed)
        .output()
        .expect("spawn bench_agent");
    assert!(output.status.success(), "agent failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    assert_eq!(stdout.trim().lines().count(), 1, "stdout must be a single line: {stdout:?}");
    AgentSummary::from_line_json(&stdout).expect("agent line must parse")
}

#[test]
fn agent_emits_a_parseable_line_with_reproducible_counts() {
    let first = run_agent("11");
    assert_eq!(first.agent, 7);
    assert_eq!(first.seed, 11);
    assert_eq!(first.scenarios.len(), 5, "three Suite A + two Suite B scenarios");
    for s in &first.scenarios {
        assert!(s.ops > 0, "{}/{} ran no ops", s.suite, s.name);
        assert_eq!(s.ops, s.hist.count());
    }
    // Same seed, same spec: identical operation counts (the latencies
    // inside the buckets are the only thing allowed to move).
    let again = run_agent("11");
    for (a, b) in first.scenarios.iter().zip(&again.scenarios) {
        assert_eq!(
            (a.suite.as_str(), a.name.as_str(), a.ops),
            (b.suite.as_str(), b.name.as_str(), b.ops)
        );
    }
}

#[test]
fn orchestrator_merges_two_agents_into_summary_json() {
    let out = format!("{}/summary_e2e_{}.json", env!("CARGO_TARGET_TMPDIR"), std::process::id());
    let status = tiny_env(&mut Command::new(env!("CARGO_BIN_EXE_pphcr-bench")))
        .env("PPHCR_BENCH_AGENTS", "2")
        .env("PPHCR_BENCH_SEED", "42")
        .env("PPHCR_BENCH_OUT", &out)
        .env("PPHCR_BENCH_AGENT_BIN", env!("CARGO_BIN_EXE_bench_agent"))
        .status()
        .expect("spawn pphcr-bench");
    assert!(status.success(), "pphcr-bench must exit 0");

    // Independent ground truth: run the two agents the orchestrator
    // ran (same seeds) and sum their per-scenario ops.
    let mut expected: HashMap<(String, String), u64> = HashMap::new();
    for i in 0..2u64 {
        for s in run_agent(&(42 ^ i).to_string()).scenarios {
            *expected.entry((s.suite, s.name)).or_insert(0) += s.ops;
        }
    }

    let doc = std::fs::read_to_string(&out).expect("summary.json written");
    std::fs::remove_file(&out).ok();
    let parsed = pphcr_obs::json::parse(&doc).expect("summary.json parses");
    assert_eq!(parsed.get("agents").and_then(|v| v.as_u64()), Some(2));
    let scenarios = parsed.get("scenarios").and_then(|v| v.as_arr()).expect("scenarios array");
    assert_eq!(scenarios.len(), 5);
    for s in scenarios {
        let suite = s.get("suite").and_then(|v| v.as_str()).expect("suite").to_string();
        let name = s.get("name").and_then(|v| v.as_str()).expect("name").to_string();
        let ops = s.get("ops").and_then(|v| v.as_u64()).expect("ops");
        assert_eq!(s.get("agents").and_then(|v| v.as_u64()), Some(2), "{suite}/{name}");
        assert_eq!(
            Some(&ops),
            expected.get(&(suite.clone(), name.clone())),
            "merged ops for {suite}/{name} must equal the sum of the agents'"
        );
        assert_eq!(s.get("hist_count").and_then(|v| v.as_u64()), Some(ops), "{suite}/{name}");
        let p50 = s.get("p50_us").and_then(|v| v.as_u64()).expect("p50_us");
        let p95 = s.get("p95_us").and_then(|v| v.as_u64()).expect("p95_us");
        let p99 = s.get("p99_us").and_then(|v| v.as_u64()).expect("p99_us");
        assert!(p50 <= p95 && p95 <= p99, "{suite}/{name}: {p50} {p95} {p99}");
        let throughput = s.get("ops_per_s").and_then(|v| v.as_f64()).expect("ops_per_s");
        assert!(throughput.is_finite() && throughput > 0.0, "{suite}/{name}");
    }
    let suites = parsed.get("suites").and_then(|v| v.as_arr()).expect("suites array");
    assert_eq!(suites.len(), 2, "Suite A and Suite B rollups");
}
