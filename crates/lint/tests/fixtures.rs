//! Fixture self-test: every rule has one positive fixture (must fire
//! exactly that rule) and one negative fixture (must stay silent).

use pphcr_lint::{lint_source, Violation};

/// Lints fixture `source` as though it lived at `path`.
fn run(path: &str, source: &str) -> Vec<Violation> {
    lint_source(path, source)
}

/// Asserts the fixture fires `rule_id` at least once and nothing else.
fn assert_fires(path: &str, source: &str, rule_id: &str) {
    let violations = run(path, source);
    assert!(
        violations.iter().any(|v| v.rule_id == rule_id),
        "expected {rule_id} to fire for {path}, got: {violations:?}"
    );
    assert!(
        violations.iter().all(|v| v.rule_id == rule_id),
        "expected only {rule_id} for {path}, got: {violations:?}"
    );
}

fn assert_silent(path: &str, source: &str) {
    let violations = run(path, source);
    assert!(violations.is_empty(), "expected no violations for {path}, got: {violations:?}");
}

// A path inside an engine-path crate where every family applies.
const ENGINE_PATH: &str = "crates/core/src/bus.rs";
const RETRY_PATH: &str = "crates/core/src/retry.rs";
const TIMING_PATH: &str = "crates/sim/src/timing.rs";
// A path where P rules do not apply (audio is not an engine-path crate)
// but D/B rules do.
const NEUTRAL_PATH: &str = "crates/audio/src/sample.rs";

#[test]
fn d1_wall_clock() {
    assert_fires(NEUTRAL_PATH, include_str!("../fixtures/d1_wall_clock_pos.rs"), "D1");
    // The identical calls are legal in the single allowlisted module…
    assert_silent(TIMING_PATH, include_str!("../fixtures/d1_wall_clock_neg.rs"));
}

#[test]
fn d1_string_and_comment_mentions_do_not_fire() {
    // …and outside it, only the *call* lines of the negative fixture
    // fire — the string/comment mentions stay silent.
    let violations = run(NEUTRAL_PATH, include_str!("../fixtures/d1_wall_clock_neg.rs"));
    assert_eq!(violations.len(), 1, "only the real call fires: {violations:?}");
    assert_eq!(violations[0].rule_id, "D1");
}

#[test]
fn d2_sleep() {
    assert_fires(NEUTRAL_PATH, include_str!("../fixtures/d2_sleep_pos.rs"), "D2");
    assert_silent(NEUTRAL_PATH, include_str!("../fixtures/d2_sleep_neg.rs"));
}

#[test]
fn d3_unseeded_rng() {
    assert_fires(NEUTRAL_PATH, include_str!("../fixtures/d3_unseeded_rng_pos.rs"), "D3");
    assert_silent(NEUTRAL_PATH, include_str!("../fixtures/d3_unseeded_rng_neg.rs"));
}

#[test]
fn d4_hash_iter() {
    assert_fires(ENGINE_PATH, include_str!("../fixtures/d4_hash_iter_pos.rs"), "D4");
    assert_silent(ENGINE_PATH, include_str!("../fixtures/d4_hash_iter_neg.rs"));
}

#[test]
fn d4_does_not_apply_outside_commit_paths() {
    // The same iteration is legal in, say, the NLP crate.
    assert_silent("crates/nlp/src/bayes.rs", include_str!("../fixtures/d4_hash_iter_pos.rs"));
}

#[test]
fn p1_unwrap() {
    assert_fires(ENGINE_PATH, include_str!("../fixtures/p1_unwrap_pos.rs"), "P1");
    assert_silent(ENGINE_PATH, include_str!("../fixtures/p1_unwrap_neg.rs"));
}

#[test]
fn p1_does_not_apply_to_non_engine_crates() {
    assert_silent(NEUTRAL_PATH, include_str!("../fixtures/p1_unwrap_pos.rs"));
}

#[test]
fn p2_expect() {
    assert_fires(ENGINE_PATH, include_str!("../fixtures/p2_expect_pos.rs"), "P2");
    assert_silent(ENGINE_PATH, include_str!("../fixtures/p2_expect_neg.rs"));
}

#[test]
fn p3_panic() {
    assert_fires(ENGINE_PATH, include_str!("../fixtures/p3_panic_pos.rs"), "P3");
    assert_silent(ENGINE_PATH, include_str!("../fixtures/p3_panic_neg.rs"));
}

#[test]
fn b1_unbounded_channel() {
    assert_fires(NEUTRAL_PATH, include_str!("../fixtures/b1_unbounded_channel_pos.rs"), "B1");
    assert_silent(NEUTRAL_PATH, include_str!("../fixtures/b1_unbounded_channel_neg.rs"));
}

#[test]
fn b2_unbounded_loop() {
    assert_fires(RETRY_PATH, include_str!("../fixtures/b2_unbounded_loop_pos.rs"), "B2");
    assert_silent(RETRY_PATH, include_str!("../fixtures/b2_unbounded_loop_neg.rs"));
}

#[test]
fn b2_does_not_apply_outside_bus_retry() {
    assert_silent(NEUTRAL_PATH, include_str!("../fixtures/b2_unbounded_loop_pos.rs"));
}

#[test]
fn b2_while_true_is_loop_in_disguise() {
    let violations = run(RETRY_PATH, include_str!("../fixtures/b2_while_true_pos.rs"));
    assert_eq!(
        violations.iter().filter(|v| v.rule_id == "B2").count(),
        3,
        "all three constant-condition spellings fire: {violations:?}"
    );
    assert!(violations.iter().all(|v| v.rule_id == "B2"), "{violations:?}");
    assert_silent(RETRY_PATH, include_str!("../fixtures/b2_while_true_neg.rs"));
}

#[test]
fn b2_while_true_does_not_apply_outside_bus_retry() {
    assert_silent(NEUTRAL_PATH, include_str!("../fixtures/b2_while_true_pos.rs"));
}

#[test]
fn f1_fsync_free_write() {
    assert_fires(NEUTRAL_PATH, include_str!("../fixtures/f1_fsync_free_write_pos.rs"), "F1");
    assert_silent(NEUTRAL_PATH, include_str!("../fixtures/f1_fsync_free_write_neg.rs"));
}

#[test]
fn f1_does_not_apply_inside_persist() {
    // The persistence layer owns the fsync discipline: the same write
    // is legal in core::persist (and only there).
    assert_silent(
        "crates/core/src/persist/durable.rs",
        include_str!("../fixtures/f1_fsync_free_write_pos.rs"),
    );
}

#[test]
fn diagnostics_render_file_line_rule() {
    let violations = run(ENGINE_PATH, include_str!("../fixtures/p1_unwrap_pos.rs"));
    let rendered = violations[0].render();
    assert!(
        rendered.starts_with("crates/core/src/bus.rs:") && rendered.contains("P1(unwrap)"),
        "{rendered}"
    );
}
