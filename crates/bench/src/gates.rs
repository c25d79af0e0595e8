//! Every gate `pphcr-bench` enforces, each a pure function of the
//! measurement it reads. The thresholds are constants: no setting can
//! move or loosen a gate.
//!
//! Work is gated where it is deterministic, exactly; wall time is gated
//! only as a median of interleaved pairs, with its spread reported
//! beside it.

use crate::harness::{AgentSummary, MergedScenario};
use pphcr_sim::experiments::{E13ScaleRow, E13SpeedupRow};
use pphcr_sim::script::Run;

/// E13: the index's speedup over the scan at the largest archive.
pub const MIN_RETRIEVAL_SPEEDUP: f64 = 1.0;

/// E13: the fleet whose work is pinned and whose warm-phase speedup is
/// measured. Larger fleets still run and land in the summary.
pub const GATE_FLEET: u64 = 10_000;

/// E13: the work counters of [`GATE_FLEET`]'s window, exact on every
/// host and at every worker count: `(metric, pinned value)`. Each
/// flat-scaling regression DESIGN §8 records did extra work these
/// counts see without noise: a `now`-keyed cache moves the cache
/// serves, and a day-by-day walk over an empty EPG the feedback
/// periods. A per-user retry sweep moves the sweep count, which
/// [`work`] holds to one per tick.
pub const GATE_FLEET_WORK: [(&str, u64); 5] = [
    ("cache_misses", 1_500),
    ("warm_serves", 2_044),
    ("cross_tick_hits", 456),
    ("feedback_periods", 12_000),
    ("events", 103_000),
];

/// E13: the median warm-phase speedup on `min(host_cores, 8)` workers
/// over one, at [`GATE_FLEET`].
pub const MIN_WARM_SPEEDUP: f64 = 1.1;

/// E13: the widest warm phase the speedup gate measures.
pub const MAX_GATED_WORKERS: usize = 8;

/// E13: how much slower than the bare engine the instrumented one may
/// run, percent, as the median of paired segments.
pub const MAX_OVERHEAD_PCT: f64 = 3.0;

/// Which side of the bound passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `value >= bound`.
    AtLeast,
    /// `value <= bound`.
    AtMost,
    /// `value == bound`.
    Equals,
}

impl Cmp {
    /// The operator as the summary prints it.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::AtLeast => ">=",
            Cmp::AtMost => "<=",
            Cmp::Equals => "==",
        }
    }
}

/// One gate decision: the metric read, its value, the bound it is held
/// to and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Name of the metric the gate reads.
    pub metric: &'static str,
    /// The measured value.
    pub value: f64,
    /// Which side of `bound` passes.
    pub cmp: Cmp,
    /// The threshold.
    pub bound: f64,
    /// Whether the measurement passed.
    pub pass: bool,
}

impl Gate {
    fn check(metric: &'static str, value: f64, cmp: Cmp, bound: f64) -> Gate {
        let pass = match cmp {
            Cmp::AtLeast => value >= bound,
            Cmp::AtMost => value <= bound,
            Cmp::Equals => value == bound,
        };
        Gate { metric, value, cmp, bound, pass }
    }
}

/// E13: at the largest archive the index walk must not lose to the
/// reference scan.
#[must_use]
pub fn retrieval(speedup: f64) -> Gate {
    Gate::check("speedup", speedup, Cmp::AtLeast, MIN_RETRIEVAL_SPEEDUP)
}

/// E13: the gate fleet's 1-worker row must do exactly the pinned work
/// ([`GATE_FLEET_WORK`]) and run one retry sweep per tick. The value
/// is the number of counters off their pin.
#[must_use]
pub fn work(row: &E13ScaleRow) -> Gate {
    let read =
        [row.cache_misses, row.warm_serves, row.cross_tick_hits, row.feedback_periods, row.events];
    let off_pin = GATE_FLEET_WORK.iter().zip(read).filter(|((_, pin), value)| pin != value).count()
        + usize::from(row.sweeps != row.ticks);
    Gate::check("counters_off_pin", off_pin as f64, Cmp::Equals, 0.0)
}

/// E13: the worker count the speedup gate measures on a host with
/// `host_cores` cores, or `None` on one core, where threads cannot
/// speed anything up and no scaling claim is made.
#[must_use]
pub fn gated_workers(host_cores: usize) -> Option<usize> {
    let workers = host_cores.min(MAX_GATED_WORKERS);
    (workers >= 2).then_some(workers)
}

/// E13: the warm phase on [`gated_workers`] threads must beat one
/// thread by [`MIN_WARM_SPEEDUP`], in the median of its pairs.
#[must_use]
pub fn warm_speedup(row: &E13SpeedupRow) -> Gate {
    Gate::check("warm_speedup", row.speedup, Cmp::AtLeast, MIN_WARM_SPEEDUP)
}

/// E13: the median paired overhead of the instrumented engine over the
/// bare one may be at most [`MAX_OVERHEAD_PCT`].
#[must_use]
pub fn obs_overhead(overhead_pct: f64) -> Gate {
    Gate::check("overhead_pct", overhead_pct, Cmp::AtMost, MAX_OVERHEAD_PCT)
}

/// E16: one sharded round matches the single-process run when its
/// merged event lines and merged obs JSON are byte-identical to it.
#[must_use]
pub fn round_identical(run: &Run, baseline: &Run) -> bool {
    run.lines == baseline.lines && run.obs_json == baseline.obs_json
}

/// E16: no timed round at a shard count may diverge.
#[must_use]
pub fn shard_identity(diverged_rounds: u64) -> Gate {
    Gate::check("diverged_rounds", diverged_rounds as f64, Cmp::AtMost, 0.0)
}

/// A/B: a merged cell must hold exactly the sum of what the agents
/// reported for it, and its p50/p95/p99 must exist and be ordered.
#[must_use]
pub fn merged_cell(cell: &MergedScenario, agents: &[AgentSummary]) -> Gate {
    let agent_total: u64 = agents
        .iter()
        .flat_map(|a| &a.scenarios)
        .filter(|s| s.suite == cell.suite && s.name == cell.name)
        .map(|s| s.ops)
        .sum();
    let ordered = cell.tails_ns().is_some_and(|(p50, p95, p99)| p50 <= p95 && p95 <= p99);
    Gate {
        metric: "ops",
        value: cell.ops as f64,
        cmp: Cmp::Equals,
        bound: agent_total as f64,
        pass: cell.ops == agent_total && cell.hist.count() == agent_total && ordered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{merge_agents, AgentScenario};
    use pphcr_obs::Histogram;

    /// The gate fleet's 1-worker row at its pinned work.
    fn pinned_row() -> E13ScaleRow {
        E13ScaleRow {
            users: GATE_FLEET,
            workers: 1,
            ticks: 50,
            seconds: 3.0,
            user_ticks_per_s: 166_666.7,
            events: 103_000,
            warm_s: 1.5,
            parallel_fraction: 0.5,
            cache_misses: 1_500,
            warm_serves: 2_044,
            cross_tick_hits: 456,
            sweeps: 50,
            feedback_periods: 12_000,
        }
    }

    fn speedup_row(workers: usize, speedup: f64) -> E13SpeedupRow {
        E13SpeedupRow {
            users: GATE_FLEET,
            workers,
            pairs: 50,
            base_warm_s: 1.5,
            warm_s: 1.5 / speedup,
            speedup,
            speedup_q1: speedup - 0.05,
            speedup_q3: speedup + 0.05,
        }
    }

    #[test]
    fn retrieval_passes_at_parity_and_fails_below() {
        assert!(retrieval(1.0).pass);
        assert!(!retrieval(0.999).pass);
    }

    #[test]
    fn work_passes_only_at_every_pin() {
        let row = pinned_row();
        let gate = work(&row);
        assert_eq!((gate.metric, gate.value, gate.pass), ("counters_off_pin", 0.0, true));
        // A `now`-keyed cache: every re-fire misses, nothing survives.
        let stale = E13ScaleRow { warm_serves: 2_500, cross_tick_hits: 0, ..row };
        assert_eq!(work(&stale).value, 2.0);
        // A per-user retry sweep: the same events, many more sweeps.
        let swept = E13ScaleRow { sweeps: 50 * GATE_FLEET, ..row };
        assert!(!work(&swept).pass);
        // A day-by-day walk over the empty EPG: the same events, every
        // idle period since registration walked.
        let walked = E13ScaleRow { feedback_periods: 24_000_000, ..row };
        assert!(!work(&walked).pass);
        for off_by_one in [
            E13ScaleRow { cache_misses: 1_501, ..row },
            E13ScaleRow { warm_serves: 2_043, ..row },
            E13ScaleRow { cross_tick_hits: 457, ..row },
            E13ScaleRow { feedback_periods: 12_001, ..row },
            E13ScaleRow { events: 102_999, ..row },
            E13ScaleRow { sweeps: 49, ..row },
        ] {
            assert_eq!(work(&off_by_one).value, 1.0, "{off_by_one:?}");
        }
    }

    #[test]
    fn warm_speedup_is_measured_on_up_to_eight_real_cores() {
        assert_eq!(gated_workers(1), None, "one core makes no scaling claim");
        assert_eq!(gated_workers(2), Some(2));
        assert_eq!(gated_workers(64), Some(MAX_GATED_WORKERS));
        let at_floor = warm_speedup(&speedup_row(2, MIN_WARM_SPEEDUP));
        assert_eq!((at_floor.metric, at_floor.pass), ("warm_speedup", true));
        assert!(!warm_speedup(&speedup_row(8, MIN_WARM_SPEEDUP - 1e-9)).pass);
        // A warm phase pinned to one worker reads about 1x.
        assert!(!warm_speedup(&speedup_row(2, 1.0)).pass);
    }

    #[test]
    fn obs_overhead_passes_at_its_budget_and_fails_just_over() {
        assert!(obs_overhead(MAX_OVERHEAD_PCT).pass);
        assert!(obs_overhead(-4.0).pass);
        assert!(!obs_overhead(MAX_OVERHEAD_PCT + 1e-9).pass);
    }

    #[test]
    fn a_round_is_identical_only_when_lines_and_obs_match() {
        let run = |lines: &[&str], obs_json: &str| Run {
            lines: lines.iter().map(|l| (*l).to_string()).collect(),
            obs_json: obs_json.to_string(),
        };
        let baseline = run(&["a", "b"], "{}");
        assert!(round_identical(&run(&["a", "b"], "{}"), &baseline));
        assert!(!round_identical(&run(&["a", "b "], "{}"), &baseline));
        assert!(!round_identical(&run(&["a"], "{}"), &baseline));
        assert!(!round_identical(&run(&["a", "b"], "{}\n"), &baseline));
        assert!(shard_identity(0).pass);
        assert!(!shard_identity(1).pass);
    }

    #[test]
    fn merged_cell_must_equal_the_agent_sum() {
        let agent = |id: u64, samples: &[u64]| {
            let mut hist = Histogram::default();
            for &v in samples {
                hist.record(v);
            }
            AgentSummary {
                agent: id,
                seed: id,
                scenarios: vec![AgentScenario {
                    suite: "A".into(),
                    name: "fan_out".into(),
                    ops: hist.count(),
                    elapsed_s: 0.1,
                    hist,
                }],
            }
        };
        let agents = [agent(0, &[5, 900]), agent(1, &[70])];
        let mut cell = merge_agents(&agents).remove(0);
        let gate = merged_cell(&cell, &agents);
        assert_eq!((gate.value, gate.bound, gate.pass), (3.0, 3.0, true));
        cell.ops += 1;
        assert!(!merged_cell(&cell, &agents).pass, "a total off by one");
        // A cell with no samples has no tails to order.
        let empty = [agent(0, &[])];
        assert!(!merged_cell(&merge_agents(&empty)[0], &empty).pass);
    }
}
