//! End-to-end test of the agent phase: spawns real `bench_agent`
//! processes (debug builds of the same code CI runs in release) at a
//! tiny scale and checks the acceptance invariants — a parseable
//! single-line agent summary, same-seed count reproducibility, and a
//! summary document whose merged totals are the sums of the agent
//! totals with finite, ordered tails. The E13 and E16 suites are too
//! slow for a debug test at gate scale; CI runs the release
//! `pphcr-bench` binary end to end.

use pphcr_bench::harness::{ab_entries, run_agents, AgentSummary, AGENTS};
use pphcr_bench::summary::summary_json;
use pphcr_sim::scenarios::ScenarioSpec;
use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

/// The point here is the plumbing, not the numbers.
const TINY: ScenarioSpec =
    ScenarioSpec { users: 6, clips: 300, ticks: 4, retrieval_passes: 1, arrivals: 48, seed: 42 };

fn run_agent(seed: u64) -> AgentSummary {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_agent"))
        .env("AGENT_ID", "7")
        .env("AGENT_SEED", seed.to_string())
        .env("AGENT_USERS", TINY.users.to_string())
        .env("AGENT_CLIPS", TINY.clips.to_string())
        .env("AGENT_TICKS", TINY.ticks.to_string())
        .env("AGENT_PASSES", TINY.retrieval_passes.to_string())
        .env("AGENT_ARRIVALS", TINY.arrivals.to_string())
        .output()
        .expect("spawn bench_agent");
    assert!(output.status.success(), "agent failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    assert_eq!(stdout.trim().lines().count(), 1, "stdout must be a single line: {stdout:?}");
    AgentSummary::from_line_json(&stdout).expect("agent line must parse")
}

#[test]
fn agent_emits_a_parseable_line_with_reproducible_counts() {
    let first = run_agent(11);
    assert_eq!(first.agent, 7);
    assert_eq!(first.seed, 11);
    assert_eq!(first.scenarios.len(), 5, "three Suite A + two Suite B scenarios");
    for s in &first.scenarios {
        assert!(s.ops > 0, "{}/{} ran no ops", s.suite, s.name);
        assert_eq!(s.ops, s.hist.count());
    }
    // Same seed, same spec: identical operation counts (the latencies
    // inside the buckets are the only thing allowed to move).
    let again = run_agent(11);
    for (a, b) in first.scenarios.iter().zip(&again.scenarios) {
        assert_eq!(
            (a.suite.as_str(), a.name.as_str(), a.ops),
            (b.suite.as_str(), b.name.as_str(), b.ops)
        );
    }
}

#[test]
fn agent_phase_merges_two_agents_into_the_summary() {
    let agents = run_agents(Path::new(env!("CARGO_BIN_EXE_bench_agent")), &TINY)
        .expect("the agent phase must succeed");
    let entries = ab_entries(&agents);
    assert!(entries.iter().all(|e| e.passed()), "every A/B gate must pass");
    let doc = summary_json("tiny", 1, &agents, &entries);

    // Independent ground truth: run the two agents the phase ran (same
    // seeds) and sum their per-scenario ops.
    let mut expected: HashMap<(String, String), u64> = HashMap::new();
    for i in 0..AGENTS {
        for s in run_agent(TINY.seed ^ i).scenarios {
            *expected.entry((s.suite, s.name)).or_insert(0) += s.ops;
        }
    }

    let parsed = pphcr_obs::json::parse(&doc).expect("summary.json parses");
    assert_eq!(parsed.get("agents").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(parsed.get("outcome").and_then(|v| v.as_str()), Some("success"));
    let results = parsed.get("results").and_then(|v| v.as_arr()).expect("results array");
    let (cells, rollups): (Vec<_>, Vec<_>) =
        results.iter().partition(|r| r.get("name").and_then(|v| v.as_str()) != Some("all"));
    assert_eq!(cells.len(), 5);
    for r in cells {
        let suite = r.get("suite").and_then(|v| v.as_str()).expect("suite").to_string();
        let name = r.get("name").and_then(|v| v.as_str()).expect("name").to_string();
        let s = r.get("metrics").expect("metrics");
        let ops = s.get("ops").and_then(|v| v.as_u64()).expect("ops");
        assert_eq!(s.get("agents").and_then(|v| v.as_u64()), Some(2), "{suite}/{name}");
        assert_eq!(
            Some(&ops),
            expected.get(&(suite.clone(), name.clone())),
            "merged ops for {suite}/{name} must equal the sum of the agents'"
        );
        assert_eq!(s.get("hist_count").and_then(|v| v.as_u64()), Some(ops), "{suite}/{name}");
        let p50 = s.get("p50_ns").and_then(|v| v.as_u64()).expect("p50_ns");
        let p95 = s.get("p95_ns").and_then(|v| v.as_u64()).expect("p95_ns");
        let p99 = s.get("p99_ns").and_then(|v| v.as_u64()).expect("p99_ns");
        assert!(p50 <= p95 && p95 <= p99, "{suite}/{name}: {p50} {p95} {p99}");
        let throughput = s.get("ops_per_s").and_then(|v| v.as_f64()).expect("ops_per_s");
        assert!(throughput.is_finite() && throughput > 0.0, "{suite}/{name}");
    }
    assert_eq!(rollups.len(), 2, "Suite A and Suite B rollups");
}
