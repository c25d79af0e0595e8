//! The differential identity suite: real multi-process sharded
//! deployments (spawned `shard_agent` binaries) must reproduce the
//! single-process run byte-for-byte — the event-line stream and the
//! merged observability snapshot — including across a mid-stream
//! snapshot-handoff rebalance.

use pphcr_core::EngineCommand;
use pphcr_shard::{ProcessShard, Router};
use pphcr_sim::script::{run_in_process, script, Run, Shape};
use std::path::Path;

fn agent() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_shard_agent"))
}

fn spawn_router(n: usize) -> Router<ProcessShard> {
    let shards: Vec<ProcessShard> =
        (0..n).map(|_| ProcessShard::spawn(agent()).expect("spawn agent")).collect();
    Router::new(shards).expect("non-empty router")
}

/// The differential script of `seed` and its single-process run.
fn baseline(seed: u64) -> (Vec<EngineCommand>, Run) {
    let ops = script(seed, Shape::Differential).into_ops();
    let (run, _) = run_in_process(&[], &ops);
    (ops, run)
}

/// Runs `ops` through `n` shard processes, optionally rebalancing
/// shard 0 onto a fresh process before op `rebalance_at`. Also returns
/// how many decision-trace entries the shards held when the handoff
/// happened (0 without one).
fn run_sharded(ops: &[EngineCommand], n: usize, rebalance_at: Option<usize>) -> (Run, usize) {
    let mut router = spawn_router(n);
    let mut lines = Vec::new();
    let mut traced_at_handoff = 0;
    for (i, cmd) in ops.iter().enumerate() {
        if rebalance_at == Some(i) {
            traced_at_handoff = router.merged_obs().expect("merge obs").trace.len();
            router
                .rebalance(0, ProcessShard::spawn(agent()).expect("spawn replacement"))
                .expect("rebalance");
        }
        lines.extend(router.apply(cmd).expect("apply"));
    }
    let obs_json = router.merged_obs().expect("merge obs").to_json();
    (Run { lines, obs_json }, traced_at_handoff)
}

fn assert_identical(baseline: &Run, sharded: &Run, label: &str) {
    for (i, (b, s)) in baseline.lines.iter().zip(sharded.lines.iter()).enumerate() {
        assert_eq!(b, s, "{label}: first divergence at line {i}");
    }
    assert_eq!(baseline.lines.len(), sharded.lines.len(), "{label}: line counts differ");
    assert_eq!(baseline.obs_json, sharded.obs_json, "{label}: merged obs JSON differs");
}

#[test]
fn two_shards_are_byte_identical_to_one_process() {
    let (ops, baseline) = baseline(1);
    assert!(
        baseline.lines.iter().any(|l| l.contains("Recommended")),
        "workload must produce proactive schedules for the diff to mean anything"
    );
    assert!(
        baseline.lines.iter().any(|l| l.contains("rejected=")),
        "workload must exercise the rejection path"
    );
    let (sharded, _) = run_sharded(&ops, 2, None);
    assert_identical(&baseline, &sharded, "2 shards");
}

#[test]
fn four_shards_are_byte_identical_to_one_process() {
    let (ops, baseline) = baseline(1);
    let (sharded, _) = run_sharded(&ops, 4, None);
    assert_identical(&baseline, &sharded, "4 shards");
}

#[test]
fn mid_stream_rebalance_stays_byte_identical() {
    let (ops, baseline) = baseline(3);
    // Hand shard 0's state to a fresh process halfway through — right
    // in the middle of the tick phase, with deliveries in the ledger —
    // and again at op 4250, once the decision-trace ring holds entries.
    for (at, min_traced) in [(ops.len() / 2, 0), (4250, 1)] {
        assert!(at < ops.len(), "rebalance point {at} past the workload");
        let (sharded, traced) = run_sharded(&ops, 2, Some(at));
        assert!(traced >= min_traced, "rebalance at op {at} handed over {traced} trace entries");
        assert_identical(&baseline, &sharded, &format!("2 shards + rebalance at op {at}"));
    }
}

#[test]
fn different_seeds_produce_different_baselines() {
    // Guards against the workload collapsing to a seed-independent
    // constant, which would quietly weaken every identity test above.
    assert_ne!(baseline(1).1.lines, baseline(2).1.lines);
}
