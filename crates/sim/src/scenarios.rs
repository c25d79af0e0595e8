//! Scenario suites for the process-based bench harness (`pphcr-bench`).
//!
//! Each scenario drives one engine through a workload and records every
//! operation's wall-clock latency, in nanoseconds, into an obs
//! [`Histogram`] — the log2-bucket form the harness can merge exactly
//! across agent processes before extracting p50/p95/p99 upper bounds.
//!
//! Two suites:
//!
//! * **Suite A** (deterministic): baseline single-user tick latency,
//!   batched fan-out over a registered fleet, and archive-scale
//!   retrieval through the posting-list index walk.
//! * **Suite B** (stochastic): seeded Poisson feedback/GPS arrival
//!   streams applied under a [`ChaosProfile`] — calm and lossy-mobile —
//!   so the tails cover a faulted [`FaultyTransport`](pphcr_core) wire,
//!   not just the happy path.
//!
//! Operation *counts* are a pure function of the [`ScenarioSpec`]: the
//! Poisson schedule is drawn from a seeded splitmix64 stream, so a
//! same-seed rerun reproduces identical histogram totals (the recorded
//! latencies differ — that is the noise the harness is measuring).

use crate::chaos::ChaosProfile;
use crate::experiments::{
    e13_archive_world, e13_driver_count, e13_driver_route, e13_scale_fleet, ORIGIN,
};
use pphcr_catalog::{CategoryId, CATEGORY_COUNT};
use pphcr_core::{EngineConfig, TickRequest};
use pphcr_geo::{TimePoint, TimeSpan};
use pphcr_obs::Histogram;
use pphcr_recommender::{CandidateFilter, ListenerContext, ScoringWeights};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{FeedbackEvent, FeedbackKind, UserId};
use std::collections::HashSet;
use std::fmt;

/// Poisson arrival rate of Suite B, events per simulated second.
const RATE_HZ: f64 = 8.0;

/// Worker threads for the fan-out scenario's batched ticks.
const WORKERS: usize = 2;

/// The scale of a suite run.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Fleet size for the fan-out and Poisson scenarios.
    pub users: u64,
    /// Archive size for the retrieval scenario, clips.
    pub clips: usize,
    /// Ticks per deterministic tick scenario.
    pub ticks: u64,
    /// Full-fleet retrieval passes in the archive scenario.
    pub retrieval_passes: u64,
    /// Poisson arrivals per stochastic scenario.
    pub arrivals: u64,
    /// Seed for every stochastic draw.
    pub seed: u64,
}

/// One scenario's outcome: how many operations ran, how long the whole
/// scenario took, and the per-operation latency histogram (ns).
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// `"A"` or `"B"`.
    pub suite: &'static str,
    /// Scenario name, stable across runs (it keys the harness merge).
    pub name: &'static str,
    /// Operations recorded (equals `hist.count()`).
    pub ops: u64,
    /// Scenario wall time, seconds.
    pub elapsed_s: f64,
    /// Per-operation latency, nanoseconds.
    pub hist: Histogram,
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "suite {} {:<22} ops={:>7} elapsed={:>7.3}s p50<={:?}ns p99<={:?}ns",
            self.suite,
            self.name,
            self.ops,
            self.elapsed_s,
            self.hist.quantile_upper_bound(0.50),
            self.hist.quantile_upper_bound(0.99),
        )
    }
}

/// Runs both suites in order. This is what `bench_agent` executes.
#[must_use]
pub fn run_suites(spec: &ScenarioSpec) -> Vec<ScenarioReport> {
    let mut reports = suite_a(spec);
    reports.extend(suite_b(spec));
    reports
}

/// Suite A: the deterministic latency scenarios.
#[must_use]
pub fn suite_a(spec: &ScenarioSpec) -> Vec<ScenarioReport> {
    vec![baseline_tick(spec), fan_out(spec), archive_retrieval(spec)]
}

/// Suite B: seeded Poisson arrivals under each chaos profile.
#[must_use]
pub fn suite_b(spec: &ScenarioSpec) -> Vec<ScenarioReport> {
    vec![
        poisson_chaos(spec, &ChaosProfile::calm(), "poisson_calm"),
        poisson_chaos(spec, &ChaosProfile::lossy_mobile(), "poisson_lossy_mobile"),
    ]
}

/// A1 — the floor every other number rests on: one driver, one tick at
/// a time, per-tick latency.
fn baseline_tick(spec: &ScenarioSpec) -> ScenarioReport {
    let mut engine = e13_scale_fleet(1, EngineConfig::default());
    let user = UserId(1);
    let (home, bearing) = e13_driver_route(1);
    let d3 = TimePoint::at(3, 8, 0, 0);
    let mut hist = Histogram::default();
    let total = crate::timing::stopwatch();
    for i in 0..spec.ticks {
        let now = d3.advance(TimeSpan::seconds(i * 30));
        let frac = (i as f64 / 39.0).min(1.0);
        engine.record_fix(user, GpsFix::new(home.destination(bearing, frac * 9_000.0), now, 7.5));
        let t = crate::timing::stopwatch();
        let _ = engine.run_tick(&TickRequest::single(&user, now));
        hist.record(t.elapsed_ns());
    }
    report("A", "baseline_tick", total.elapsed_s(), hist)
}

/// A2 — fan-out: the same window batched over the whole fleet, one
/// latency sample per batch tick.
fn fan_out(spec: &ScenarioSpec) -> ScenarioReport {
    let users = spec.users.max(1);
    let mut engine = e13_scale_fleet(users, EngineConfig::default());
    let ids: Vec<UserId> = (1..=users).map(UserId).collect();
    let drivers = e13_driver_count(users);
    let d3 = TimePoint::at(3, 8, 0, 0);
    let mut hist = Histogram::default();
    let total = crate::timing::stopwatch();
    for i in 0..spec.ticks {
        let now = d3.advance(TimeSpan::seconds(i * 30));
        for u in 1..=drivers {
            let (home, bearing) = e13_driver_route(u);
            let frac = (i as f64 / 39.0).min(1.0);
            engine.record_fix(
                UserId(u),
                GpsFix::new(home.destination(bearing, frac * 9_000.0), now, 7.5),
            );
        }
        let request = TickRequest::batch(&ids, now).with_workers(WORKERS);
        let t = crate::timing::stopwatch();
        let _ = engine.run_tick(&request);
        hist.record(t.elapsed_ns());
    }
    report("A", "fan_out", total.elapsed_s(), hist)
}

/// A3 — archive-scale retrieval through the posting-list index walk
/// production runs: one latency sample per listener request.
fn archive_retrieval(spec: &ScenarioSpec) -> ScenarioReport {
    let listeners = usize::try_from(spec.users.max(1)).unwrap_or(usize::MAX).min(200);
    let world = e13_archive_world(spec.clips, listeners, spec.seed);
    let filter = CandidateFilter::default();
    let weights = ScoringWeights::default();
    let jobs: Vec<_> = world
        .population
        .commuters
        .iter()
        .map(|c| {
            let prefs = world.feedback.preferences(UserId(c.index), world.now);
            let ctx = crate::experiments::morning_drive_context(&world, c)
                .unwrap_or_else(|| ListenerContext::stationary(world.now));
            (prefs, ctx)
        })
        .collect();
    let none_heard = HashSet::new();
    let mut hist = Histogram::default();
    let total = crate::timing::stopwatch();
    for _ in 0..spec.retrieval_passes.max(1) {
        for (prefs, ctx) in &jobs {
            let t = crate::timing::stopwatch();
            let shortlist = filter.candidates_indexed_excluding_stats(
                &world.repo,
                prefs,
                ctx,
                &weights,
                &none_heard,
            );
            hist.record(t.elapsed_ns());
            std::hint::black_box(shortlist);
        }
    }
    report("A", "archive_retrieval", total.elapsed_s(), hist)
}

/// B — a seeded Poisson stream of feedback and GPS arrivals, with a
/// single-user tick every 32nd arrival, all under `profile`'s faulted
/// wire. Arrival count, users touched and event kinds are functions of
/// the seed alone, so the histogram totals reproduce exactly.
fn poisson_chaos(
    spec: &ScenarioSpec,
    profile: &ChaosProfile,
    name: &'static str,
) -> ScenarioReport {
    let users = spec.users.max(1);
    let mut engine = e13_scale_fleet(users, EngineConfig::default());
    profile.apply(&mut engine, spec.seed);
    let mut rng = spec.seed ^ 0x5DEE_CE66_D152_5A5B;
    let start = TimePoint::at(3, 8, 0, 0);
    let mut offset_s = 0.0f64;
    let mut hist = Histogram::default();
    let total = crate::timing::stopwatch();
    for k in 0..spec.arrivals {
        // Exponential inter-arrival: -ln(U)/λ with U ∈ (0, 1].
        let u = 1.0 - (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
        offset_s += -u.ln() / RATE_HZ;
        let now = start.advance(TimeSpan::seconds(offset_s as u64));
        let who = UserId(1 + splitmix64(&mut rng) % users);
        let t = crate::timing::stopwatch();
        if splitmix64(&mut rng).is_multiple_of(3) {
            let category =
                CategoryId::new((splitmix64(&mut rng) % u64::from(CATEGORY_COUNT)) as u16);
            let kind = if splitmix64(&mut rng).is_multiple_of(2) {
                FeedbackKind::Like
            } else {
                FeedbackKind::Dislike
            };
            engine.record_feedback(FeedbackEvent {
                user: who,
                clip: None,
                category,
                kind,
                time: now,
            });
        } else {
            let bearing = (splitmix64(&mut rng) % 360) as f64;
            let dist = 200.0 + (splitmix64(&mut rng) % 8_000) as f64;
            engine.record_fix(who, GpsFix::new(ORIGIN.destination(bearing, dist), now, 7.5));
        }
        hist.record(t.elapsed_ns());
        if k % 32 == 31 {
            let t = crate::timing::stopwatch();
            let _ = engine.run_tick(&TickRequest::single(&who, now));
            hist.record(t.elapsed_ns());
        }
    }
    report("B", name, total.elapsed_s(), hist)
}

fn report(
    suite: &'static str,
    name: &'static str,
    elapsed_s: f64,
    hist: Histogram,
) -> ScenarioReport {
    ScenarioReport { suite, name, ops: hist.count(), elapsed_s, hist }
}

/// The splitmix64 step: the workspace's stock seeded generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioSpec {
        ScenarioSpec { users: 6, clips: 300, ticks: 4, retrieval_passes: 1, arrivals: 48, seed: 7 }
    }

    #[test]
    fn suite_a_reports_are_consistent() {
        for r in suite_a(&tiny()) {
            assert_eq!(r.suite, "A");
            assert_eq!(r.ops, r.hist.count(), "{r}");
            assert!(r.ops > 0 && r.elapsed_s >= 0.0, "{r}");
            let (p50, p99) = (
                r.hist.quantile_upper_bound(0.50).unwrap(),
                r.hist.quantile_upper_bound(0.99).unwrap(),
            );
            assert!(p50 <= p99, "{r}");
            if r.name == "baseline_tick" {
                // The timed ticks are most of the scenario's wall time,
                // so their ns samples must sum to a sizeable share of
                // it; µs samples sum to about a thousandth.
                let elapsed_ns = r.elapsed_s * 1e9;
                assert!(r.hist.sum() as f64 >= elapsed_ns / 10.0, "{r}: sum {}", r.hist.sum());
            }
        }
    }

    #[test]
    fn suite_b_counts_reproduce_for_the_same_seed() {
        let spec = tiny();
        let first = suite_b(&spec);
        let again = suite_b(&spec);
        assert_eq!(first.len(), 2);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ops, b.ops, "same seed must replay the same schedule: {a}");
            assert_eq!(a.hist.count(), b.hist.count());
        }
        // A tick fires every 32nd arrival, on top of one op per arrival.
        let expected = spec.arrivals + spec.arrivals / 32;
        assert_eq!(first[0].ops, expected);
        assert_eq!(first[1].ops, expected, "chaos must not change how many ops run");
    }

    #[test]
    fn run_suites_concatenates_both() {
        let all = run_suites(&tiny());
        assert_eq!(all.len(), 5);
        assert_eq!(all.iter().filter(|r| r.suite == "A").count(), 3);
        assert_eq!(all.iter().filter(|r| r.suite == "B").count(), 2);
    }
}
