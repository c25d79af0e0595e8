//! The agent phase of `pphcr-bench`: suites A and B in separate
//! processes.
//!
//! An in-process benchmark shares its allocator, its warmed caches and
//! its panic domain with the code it measures; the numbers it prints
//! inherit all three. [`run_agents`] spawns each agent as its own
//! release process (`bench_agent`), lets it run the scenario suites
//! against a private [`Engine`](pphcr_core::Engine), and reads back one
//! line of JSON per agent from stdout. Histograms cross the process
//! boundary in the exact log2-bucket wire form
//! ([`Histogram::to_wire_json`]), so the parent's merge is the same
//! lossless [`Histogram::merge_from`] the obs layer proves commutative
//! — merged totals are the sums of the agent totals by construction,
//! and p50/p95/p99 come from [`Histogram::quantile_upper_bound`] over
//! the merged buckets (each an upper bound within its power-of-two
//! bucket, i.e. under 2x of the true quantile).
//!
//! The agent line grammar is fixed and machine-generated, so decoding
//! through [`pphcr_obs::json`] is strict: known keys in a known order,
//! digits-only integers (an `f64` detour would corrupt saturated `u64`
//! sums), and the embedded histogram decoded by
//! [`Histogram::from_wire_value`].

use crate::gates;
use crate::summary::Entry;
use pphcr_obs::json::{self, escape};
use pphcr_obs::Histogram;
use pphcr_sim::scenarios::ScenarioSpec;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Agent processes a run spawns.
pub const AGENTS: u64 = 2;

/// One scenario's result inside an agent summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentScenario {
    /// Suite tag (`"A"` or `"B"`).
    pub suite: String,
    /// Scenario name; the merge key together with `suite`.
    pub name: String,
    /// Operations recorded into `hist`.
    pub ops: u64,
    /// Scenario wall time in this agent, seconds.
    pub elapsed_s: f64,
    /// Per-operation latency histogram, nanoseconds.
    pub hist: Histogram,
}

/// Everything one agent process reports: its identity, its seed and
/// every scenario it ran, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSummary {
    /// Agent index assigned by the orchestrator.
    pub agent: u64,
    /// The seed this agent's stochastic scenarios drew from.
    pub seed: u64,
    /// Scenario results in execution order.
    pub scenarios: Vec<AgentScenario>,
}

impl AgentSummary {
    /// Encodes the summary as the single stdout line the orchestrator
    /// reads. Labels go through [`escape`], so any string round-trips.
    #[must_use]
    pub fn to_line_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"agent\":{},\"seed\":{},\"scenarios\":[", self.agent, self.seed);
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"suite\":{},\"name\":{},\"ops\":{},\"elapsed_s\":{:.6},\"hist\":{}}}",
                escape(&s.suite),
                escape(&s.name),
                s.ops,
                s.elapsed_s,
                s.hist.to_wire_json()
            );
        }
        out.push_str("]}");
        out
    }

    /// Decodes a line produced by [`Self::to_line_json`]. Returns
    /// `None` on any deviation from the grammar — wrong key order,
    /// non-finite or negative wall time, a histogram whose totals
    /// disagree with its buckets, an `ops` count that contradicts the
    /// histogram, or trailing garbage.
    #[must_use]
    pub fn from_line_json(input: &str) -> Option<AgentSummary> {
        let line = json::parse(input).ok()?;
        let [agent, seed, scenarios] = line.fields(["agent", "seed", "scenarios"])?;
        let scenarios = scenarios
            .as_arr()?
            .iter()
            .map(|s| {
                let [suite, name, ops, elapsed_s, hist] =
                    s.fields(["suite", "name", "ops", "elapsed_s", "hist"])?;
                let scenario = AgentScenario {
                    suite: suite.as_str()?.to_string(),
                    name: name.as_str()?.to_string(),
                    ops: ops.as_u64()?,
                    elapsed_s: elapsed_s.as_f64()?,
                    hist: Histogram::from_wire_value(hist)?,
                };
                let valid = scenario.elapsed_s.is_finite()
                    && scenario.elapsed_s >= 0.0
                    && scenario.ops == scenario.hist.count();
                valid.then_some(scenario)
            })
            .collect::<Option<Vec<_>>>()?;
        Some(AgentSummary { agent: agent.as_u64()?, seed: seed.as_u64()?, scenarios })
    }
}

/// One `(suite, name)` cell of the cross-agent merge.
#[derive(Debug, Clone)]
pub struct MergedScenario {
    /// Suite tag.
    pub suite: String,
    /// Scenario name.
    pub name: String,
    /// Agents that reported this scenario.
    pub agents: u64,
    /// Total operations across agents (= `hist.count()`).
    pub ops: u64,
    /// Wall time of the slowest agent, seconds — the agents run
    /// concurrently, so this is the harness-level elapsed time.
    pub elapsed_s: f64,
    /// `ops / elapsed_s`.
    pub ops_per_s: f64,
    /// The merged latency histogram, nanoseconds.
    pub hist: Histogram,
}

impl MergedScenario {
    /// The three tail figures the summary reports, as bucket upper
    /// bounds: `(p50, p95, p99)` in nanoseconds.
    #[must_use]
    pub fn tails_ns(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.hist.quantile_upper_bound(0.50)?,
            self.hist.quantile_upper_bound(0.95)?,
            self.hist.quantile_upper_bound(0.99)?,
        ))
    }
}

/// Merges agent summaries per `(suite, name)`, preserving first-seen
/// scenario order. Histograms merge exactly (`Histogram::merge_from`),
/// so each cell's `ops` is the plain sum of the agents' `ops`.
#[must_use]
pub fn merge_agents(agents: &[AgentSummary]) -> Vec<MergedScenario> {
    let mut merged: Vec<MergedScenario> = Vec::new();
    for agent in agents {
        for s in &agent.scenarios {
            let cell = match merged.iter_mut().find(|m| m.suite == s.suite && m.name == s.name) {
                Some(cell) => cell,
                None => {
                    merged.push(MergedScenario {
                        suite: s.suite.clone(),
                        name: s.name.clone(),
                        agents: 0,
                        ops: 0,
                        elapsed_s: 0.0,
                        ops_per_s: 0.0,
                        hist: Histogram::default(),
                    });
                    merged.last_mut().expect("just pushed")
                }
            };
            cell.agents += 1;
            cell.ops += s.ops;
            cell.elapsed_s = cell.elapsed_s.max(s.elapsed_s);
            cell.hist.merge_from(&s.hist);
        }
    }
    for cell in &mut merged {
        cell.ops_per_s = cell.ops as f64 / cell.elapsed_s.max(1e-9);
    }
    merged
}

/// Per-suite rollup: total throughput plus the tails of the suite's
/// scenarios merged into one histogram.
#[derive(Debug, Clone)]
pub struct SuiteSummary {
    /// Suite tag.
    pub suite: String,
    /// Total operations across the suite's scenarios.
    pub ops: u64,
    /// Sum of the scenarios' harness-level wall times (scenarios run
    /// sequentially inside each agent), seconds.
    pub elapsed_s: f64,
    /// `ops / elapsed_s`.
    pub ops_per_s: f64,
    /// All of the suite's latency samples, nanoseconds.
    pub hist: Histogram,
}

/// Rolls merged scenarios up into per-suite totals, preserving
/// first-seen suite order.
#[must_use]
pub fn suite_rollup(merged: &[MergedScenario]) -> Vec<SuiteSummary> {
    let mut suites: Vec<SuiteSummary> = Vec::new();
    for cell in merged {
        let suite = match suites.iter_mut().find(|s| s.suite == cell.suite) {
            Some(s) => s,
            None => {
                suites.push(SuiteSummary {
                    suite: cell.suite.clone(),
                    ops: 0,
                    elapsed_s: 0.0,
                    ops_per_s: 0.0,
                    hist: Histogram::default(),
                });
                suites.last_mut().expect("just pushed")
            }
        };
        suite.ops += cell.ops;
        suite.elapsed_s += cell.elapsed_s;
        suite.hist.merge_from(&cell.hist);
    }
    for s in &mut suites {
        s.ops_per_s = s.ops as f64 / s.elapsed_s.max(1e-9);
    }
    suites
}

/// Spawns [`AGENTS`] `bench_agent` processes from `bin` at `spec`,
/// agent `i` on seed `spec.seed ^ i` so the stochastic suites
/// decorrelate, and reads back each one's summary line. Fails if an
/// agent cannot spawn, exits non-zero, prints anything but a valid
/// line or reports another agent's index, or if no agent ran a
/// scenario.
pub fn run_agents(bin: &Path, spec: &ScenarioSpec) -> Result<Vec<AgentSummary>, String> {
    let mut children = Vec::new();
    for i in 0..AGENTS {
        let child = Command::new(bin)
            .env("AGENT_ID", i.to_string())
            .env("AGENT_SEED", (spec.seed ^ i).to_string())
            .env("AGENT_USERS", spec.users.to_string())
            .env("AGENT_CLIPS", spec.clips.to_string())
            .env("AGENT_TICKS", spec.ticks.to_string())
            .env("AGENT_PASSES", spec.retrieval_passes.to_string())
            .env("AGENT_ARRIVALS", spec.arrivals.to_string())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("could not spawn agent {i} ({}): {e}", bin.display()))?;
        children.push((i, child));
    }
    let mut summaries = Vec::new();
    for (i, child) in children {
        let output = child.wait_with_output().map_err(|e| format!("wait for agent {i}: {e}"))?;
        if !output.status.success() {
            return Err(format!("agent {i} exited with {:?}", output.status.code()));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let summary = AgentSummary::from_line_json(&stdout)
            .ok_or_else(|| format!("agent {i} stdout is not a valid summary line: {stdout:?}"))?;
        if summary.agent != i {
            return Err(format!("agent {i} reported itself as agent {}", summary.agent));
        }
        summaries.push(summary);
    }
    if summaries.iter().all(|s| s.scenarios.is_empty()) {
        return Err("agents reported no scenarios".into());
    }
    Ok(summaries)
}

/// The A/B entries: one per merged `(suite, name)` cell, held to
/// [`gates::merged_cell`], then one ungated `all` rollup per suite.
#[must_use]
pub fn ab_entries(agents: &[AgentSummary]) -> Vec<Entry> {
    let merged = merge_agents(agents);
    let mut entries: Vec<Entry> = merged
        .iter()
        .map(|m| {
            let (p50, p95, p99) = tails_or_zero(&m.hist);
            Entry::new(&m.suite, &m.name)
                .u64("agents", m.agents)
                .u64("ops", m.ops)
                .f64("elapsed_s", m.elapsed_s)
                .f64("ops_per_s", m.ops_per_s)
                .u64("p50_ns", p50)
                .u64("p95_ns", p95)
                .u64("p99_ns", p99)
                .u64("hist_count", m.hist.count())
                .u64("hist_sum_ns", m.hist.sum())
                .gated(gates::merged_cell(m, agents))
        })
        .collect();
    for s in suite_rollup(&merged) {
        let (p50, p95, p99) = tails_or_zero(&s.hist);
        entries.push(
            Entry::new(&s.suite, "all")
                .u64("ops", s.ops)
                .f64("elapsed_s", s.elapsed_s)
                .f64("ops_per_s", s.ops_per_s)
                .u64("p50_ns", p50)
                .u64("p95_ns", p95)
                .u64("p99_ns", p99),
        );
    }
    entries
}

fn tails_or_zero(hist: &Histogram) -> (u64, u64, u64) {
    (
        hist.quantile_upper_bound(0.50).unwrap_or(0),
        hist.quantile_upper_bound(0.95).unwrap_or(0),
        hist.quantile_upper_bound(0.99).unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summary_json;

    fn hist_of(values: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        for &v in values {
            h.record(v);
        }
        h
    }

    fn sample_summary(agent: u64) -> AgentSummary {
        AgentSummary {
            agent,
            seed: 42 ^ agent,
            scenarios: vec![
                AgentScenario {
                    suite: "A".into(),
                    name: "baseline_tick".into(),
                    ops: 3,
                    elapsed_s: 0.25,
                    hist: hist_of(&[10, 900, 1_024]),
                },
                AgentScenario {
                    suite: "B".into(),
                    name: "poisson_calm".into(),
                    ops: 2,
                    elapsed_s: 0.5,
                    hist: hist_of(&[0, 7]),
                },
            ],
        }
    }

    #[test]
    fn golden_agent_line_is_stable() {
        // The orchestrator greps release-agent stdout for exactly this
        // shape; a byte-level change here is a wire-format break.
        let line = sample_summary(0).to_line_json();
        assert_eq!(
            line,
            "{\"agent\":0,\"seed\":42,\"scenarios\":[\
             {\"suite\":\"A\",\"name\":\"baseline_tick\",\"ops\":3,\"elapsed_s\":0.250000,\
             \"hist\":{\"count\":3,\"sum\":1934,\"buckets\":[[4,1],[10,1],[11,1]]}},\
             {\"suite\":\"B\",\"name\":\"poisson_calm\",\"ops\":2,\"elapsed_s\":0.500000,\
             \"hist\":{\"count\":2,\"sum\":7,\"buckets\":[[0,1],[3,1]]}}]}"
        );
        assert!(!line.contains('\n'), "must stay a single line");
    }

    #[test]
    fn agent_line_round_trips() {
        let summary = sample_summary(3);
        let back = AgentSummary::from_line_json(&summary.to_line_json()).expect("round trip");
        assert_eq!(back, summary);
        // Labels are escaped, so quotes and backslashes survive.
        let mut quoted = sample_summary(4);
        quoted.scenarios[0].name = "say \"hi\" \\ bye".into();
        let back = AgentSummary::from_line_json(&quoted.to_line_json()).expect("escaped label");
        assert_eq!(back, quoted);
        // A long label decodes in time linear in its length.
        let mut long = sample_summary(5);
        long.scenarios[1].name = "long label é ".repeat(50_000);
        let back = AgentSummary::from_line_json(&long.to_line_json()).expect("long label");
        assert_eq!(back, long);
        // Empty scenario lists are legal (an agent that ran nothing).
        let empty = AgentSummary { agent: 1, seed: 9, scenarios: Vec::new() };
        assert_eq!(AgentSummary::from_line_json(&empty.to_line_json()), Some(empty));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let good = sample_summary(0).to_line_json();
        for bad in [
            "",
            "{}",
            "{\"agent\":0}",
            &good[..good.len() - 1],                     // truncated
            &format!("{good} x"),                        // trailing garbage
            &good.replace("\"ops\":3", "\"ops\":4"),     // ops disagree with hist
            &good.replace("\"seed\":42", "\"seed\":-1"), // negative integer
        ] {
            assert_eq!(AgentSummary::from_line_json(bad), None, "{bad:?}");
        }
        // Leading/trailing whitespace around the line itself is fine.
        assert!(AgentSummary::from_line_json(&format!("  {good}\n")).is_some());
    }

    #[test]
    fn merge_sums_ops_and_takes_slowest_elapsed() {
        let a = sample_summary(0);
        let b = sample_summary(1);
        let merged = merge_agents(&[a.clone(), b.clone()]);
        assert_eq!(merged.len(), 2, "two distinct (suite, name) cells");
        for (i, cell) in merged.iter().enumerate() {
            assert_eq!(cell.agents, 2);
            assert_eq!(cell.ops, a.scenarios[i].ops + b.scenarios[i].ops);
            assert_eq!(cell.hist.count(), cell.ops, "merge must stay lossless");
            assert!((cell.elapsed_s - a.scenarios[i].elapsed_s).abs() < 1e-12);
            let (p50, p95, p99) = cell.tails_ns().expect("non-empty");
            assert!(p50 <= p95 && p95 <= p99);
        }
        let suites = suite_rollup(&merged);
        assert_eq!(suites.len(), 2);
        assert_eq!(suites[0].suite, "A");
        assert_eq!(suites[0].ops, 6);
        assert_eq!(suites[1].ops, 4);
    }

    #[test]
    fn summary_json_parses_and_reports_tails() {
        let agents = [sample_summary(0), sample_summary(1)];
        let doc = summary_json("smoke", 2, &agents, &ab_entries(&agents));
        assert_eq!(doc, SUMMARY_JSON);
        let parsed = json::parse(&doc).expect("summary.json must parse");
        assert_eq!(parsed.get("agents").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(parsed.get("outcome").and_then(|v| v.as_str()), Some("success"));
        let results = parsed.get("results").and_then(|v| v.as_arr()).expect("results");
        assert_eq!(results.len(), 4, "two cells and two suite rollups");
        for r in results {
            let metrics = r.get("metrics").expect("metrics");
            let tail = |key| metrics.get(key).and_then(|v| v.as_u64()).expect(key);
            assert!(tail("p50_ns") <= tail("p95_ns") && tail("p95_ns") <= tail("p99_ns"));
        }
    }

    /// `summary_json` of two `sample_summary` agents, byte for byte.
    const SUMMARY_JSON: &str = r#"{
  "bench": "pphcr-bench",
  "spec": "smoke",
  "host_cores": 2,
  "agents": 2,
  "agent_seeds": [
    42,
    43
  ],
  "outcome": "success",
  "results": [
    {
      "suite": "A",
      "name": "baseline_tick",
      "outcome": "success",
      "gate": {
        "metric": "ops",
        "value": 6,
        "cmp": "==",
        "bound": 6
      },
      "metrics": {
        "agents": 2,
        "ops": 6,
        "elapsed_s": 0.25,
        "ops_per_s": 24,
        "p50_ns": 1023,
        "p95_ns": 2047,
        "p99_ns": 2047,
        "hist_count": 6,
        "hist_sum_ns": 3868
      }
    },
    {
      "suite": "B",
      "name": "poisson_calm",
      "outcome": "success",
      "gate": {
        "metric": "ops",
        "value": 4,
        "cmp": "==",
        "bound": 4
      },
      "metrics": {
        "agents": 2,
        "ops": 4,
        "elapsed_s": 0.5,
        "ops_per_s": 8,
        "p50_ns": 0,
        "p95_ns": 7,
        "p99_ns": 7,
        "hist_count": 4,
        "hist_sum_ns": 14
      }
    },
    {
      "suite": "A",
      "name": "all",
      "outcome": "success",
      "metrics": {
        "ops": 6,
        "elapsed_s": 0.25,
        "ops_per_s": 24,
        "p50_ns": 1023,
        "p95_ns": 2047,
        "p99_ns": 2047
      }
    },
    {
      "suite": "B",
      "name": "all",
      "outcome": "success",
      "metrics": {
        "ops": 4,
        "elapsed_s": 0.5,
        "ops_per_s": 8,
        "p50_ns": 0,
        "p95_ns": 7,
        "p99_ns": 7
      }
    }
  ]
}
"#;
}
