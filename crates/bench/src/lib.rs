//! The measurement binaries of PPHCR and the one gate runner.
//!
//! * `experiments` prints every paper table, E1–E12, without timing
//!   noise; `EXPERIMENTS.md` records its output.
//! * `pphcr-bench` is the CI gate runner. It runs suites A and B in
//!   `bench_agent` processes ([`harness`]), then the E13 and E16 suites
//!   in its own process ([`suites`]), holds each result to its gate
//!   ([`gates`]) and writes one `summary.json` ([`summary`]). It exits
//!   non-zero if any gate fails.
//! * `recovery_smoke` runs the E14 kill-point sweep.
//! * `shard_smoke` runs the shard differential through `shard_agent`
//!   processes with one mid-stream rebalance, through the router
//!   driver E16 uses ([`suites::run_router`]).
//!
//! ```text
//! cargo run -p pphcr-bench --release --bin experiments
//! cargo build --release -p pphcr-bench -p pphcr-shard
//! PPHCR_BENCH_SPEC=smoke ./target/release/pphcr-bench
//! ```

pub mod gates;
pub mod harness;
pub mod suites;
pub mod summary;

use pphcr_sim::scenarios::ScenarioSpec;

/// The scale of a `pphcr-bench` run. Gate thresholds are not part of
/// it: they are the constants in [`gates`].
#[derive(Debug, Clone, Copy)]
pub struct BenchSpec {
    /// `"smoke"` or `"full"`.
    pub name: &'static str,
    /// The A/B suites' scale; agent `i` runs seed `agent.seed ^ i`.
    pub agent: ScenarioSpec,
    /// E13 retrieval points, `(clips, users)`.
    pub retrieval_grid: &'static [(usize, usize)],
    /// Commuters in the E13 tick-scaling rows and obs-overhead window.
    pub tick_users: u64,
    /// Fleet sizes of the E13 population grid.
    pub tick_grid: &'static [u64],
    /// Lockstep rounds of the E13 obs-overhead window; each round
    /// times one bare/instrumented pair per tick.
    pub obs_rounds: usize,
    /// Timed rounds per shard count on the E16 differential workload.
    pub shard_rounds: usize,
    /// Commuters in the E16 tick-heavy window.
    pub heavy_users: u64,
    /// Timed rounds per shard count on the E16 tick-heavy window.
    pub heavy_rounds: usize,
}

impl BenchSpec {
    /// The scale CI runs on every push.
    pub const SMOKE: BenchSpec = BenchSpec {
        name: "smoke",
        agent: ScenarioSpec {
            users: 48,
            clips: 1_000,
            ticks: 12,
            retrieval_passes: 2,
            arrivals: 200,
            seed: 42,
        },
        retrieval_grid: &[(1_000, 100), (10_000, 200)],
        tick_users: 6,
        tick_grid: &[1_000, 10_000],
        obs_rounds: 20,
        shard_rounds: 1,
        heavy_users: 12,
        heavy_rounds: 1,
    };

    /// The scale of the committed `BENCH_summary.json`.
    pub const FULL: BenchSpec = BenchSpec {
        name: "full",
        agent: ScenarioSpec {
            users: 200,
            clips: 2_000,
            ticks: 50,
            retrieval_passes: 3,
            arrivals: 500,
            seed: 42,
        },
        retrieval_grid: &[(1_000, 1_000), (10_000, 1_000)],
        tick_users: 24,
        tick_grid: &[1_000, 10_000, 100_000],
        obs_rounds: 20,
        shard_rounds: 3,
        heavy_users: 24,
        heavy_rounds: 2,
    };

    /// The spec called `name`, if there is one.
    #[must_use]
    pub fn named(name: &str) -> Option<BenchSpec> {
        [BenchSpec::SMOKE, BenchSpec::FULL].into_iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_reaches_every_gate() {
        for spec in [BenchSpec::SMOKE, BenchSpec::FULL] {
            assert_eq!(BenchSpec::named(spec.name).map(|s| s.name), Some(spec.name));
            assert!(spec.tick_grid.contains(&gates::GATE_FLEET), "{}", spec.name);
            assert!(!spec.retrieval_grid.is_empty() && spec.obs_rounds > 0, "{}", spec.name);
            assert!(spec.shard_rounds > 0 && spec.heavy_rounds > 0, "{}", spec.name);
        }
        assert!(BenchSpec::named("medium").is_none());
    }
}
