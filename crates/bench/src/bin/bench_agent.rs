//! One bench-harness agent process. Spawned by `pphcr-bench`, runs
//! suites A and B against its own private `Engine` and prints exactly
//! one line of JSON — the `AgentSummary` wire form — to stdout.
//! Progress chatter goes to stderr so stdout stays machine-readable.
//!
//! The orchestrator passes every field in the environment (see
//! `pphcr_bench::harness::run_agents`): `AGENT_ID` (index reported in
//! the summary), `AGENT_SEED`, and the scale `AGENT_USERS`,
//! `AGENT_CLIPS`, `AGENT_TICKS`, `AGENT_PASSES` and `AGENT_ARRIVALS`.

use pphcr_bench::harness::{AgentScenario, AgentSummary};
use pphcr_sim::scenarios::{run_suites, ScenarioSpec};
use std::process::ExitCode;

fn field<T: std::str::FromStr>(key: &str) -> Result<T, String> {
    let text = std::env::var(key).map_err(|_| format!("{key} is not set"))?;
    text.parse().map_err(|_| format!("{key}={text:?} does not parse"))
}

fn main() -> ExitCode {
    let fields = || -> Result<(u64, ScenarioSpec), String> {
        let spec = ScenarioSpec {
            users: field("AGENT_USERS")?,
            clips: field("AGENT_CLIPS")?,
            ticks: field("AGENT_TICKS")?,
            retrieval_passes: field("AGENT_PASSES")?,
            arrivals: field("AGENT_ARRIVALS")?,
            seed: field("AGENT_SEED")?,
        };
        Ok((field("AGENT_ID")?, spec))
    };
    let (agent, spec) = match fields() {
        Ok(fields) => fields,
        Err(e) => {
            eprintln!("bench_agent: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("agent {agent}: seed {} users {}", spec.seed, spec.users);
    let reports = run_suites(&spec);
    for r in &reports {
        eprintln!("agent {agent}: {r}");
    }
    let summary = AgentSummary {
        agent,
        seed: spec.seed,
        scenarios: reports
            .into_iter()
            .map(|r| AgentScenario {
                suite: r.suite.to_string(),
                name: r.name.to_string(),
                ops: r.ops,
                elapsed_s: r.elapsed_s,
                hist: r.hist,
            })
            .collect(),
    };
    println!("{}", summary.to_line_json());
    ExitCode::SUCCESS
}
