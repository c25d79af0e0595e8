//! Interprocedural pass over the fixture mini-workspaces under
//! `fixtures/taint/`: positives must fire T1–T3 and P4 with complete
//! witness chains, negatives must stay clean, and a function-level
//! pragma that excuses nothing must be a hard error.

use std::path::PathBuf;

use pphcr_lint::lint_workspace;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/taint").join(name)
}

#[test]
fn pos_tree_fires_every_taint_rule_with_a_full_chain() {
    let report = lint_workspace(&fixture_root("pos")).expect("fixture tree lints");
    for rule in ["T1", "T2", "T3", "P4"] {
        let v = report
            .violations
            .iter()
            .find(|v| v.rule_id == rule)
            .unwrap_or_else(|| panic!("expected {rule}, got {:?}", report.violations));
        let first = v.chain.first().expect("chain starts at the root");
        assert_eq!(first.symbol, "core::engine::Engine::run_tick", "{rule}: {:?}", v.chain);
        assert_eq!(first.file, "crates/core/src/engine.rs", "{rule}");
        let last = v.chain.last().expect("chain ends at the sink");
        assert_eq!(last.file, v.file, "{rule}: sink hop names the violation file");
        assert_eq!(last.line, v.line, "{rule}: sink hop names the violation line");
        assert!(v.chain.len() >= 2, "{rule}: root and sink at minimum: {:?}", v.chain);
        assert!(v.chain.iter().all(|h| h.line > 0 && !h.file.is_empty()), "{rule}");
    }
    assert!(report.stale_pragmas.is_empty(), "{:?}", report.stale_pragmas);
}

#[test]
fn pos_tree_resolves_aliased_and_dot_calls() {
    let report = lint_workspace(&fixture_root("pos")).expect("fixture tree lints");
    // T2 is only reachable through the `scorer.with_entropy()`
    // dot-call; P4 only through the `pipe::score` module alias.
    let t2 = report.violations.iter().find(|v| v.rule_id == "T2").expect("T2 fires");
    assert!(
        t2.chain.iter().any(|h| h.symbol == "helper::pipeline::Scorer::with_entropy"),
        "dot-call hop resolved by method name: {:?}",
        t2.chain
    );
    let p4 = report.violations.iter().find(|v| v.rule_id == "P4").expect("P4 fires");
    assert!(
        p4.chain.iter().any(|h| h.symbol == "helper::pipeline::score"),
        "alias hop resolved through `use … as pipe`: {:?}",
        p4.chain
    );
    assert!(
        p4.chain.iter().any(|h| h.symbol == "helper::pipeline::parse_one"),
        "intermediate hop present: {:?}",
        p4.chain
    );
}

#[test]
fn neg_tree_is_clean_and_consumes_the_fn_pragma() {
    let report = lint_workspace(&fixture_root("neg")).expect("fixture tree lints");
    assert!(
        report.violations.is_empty(),
        "unreachable, excused, test-only and allowlisted sinners stay silent: {:?}",
        report.violations
    );
    // The reach-panic pragma on `excused` was consumed, so it must
    // NOT be reported stale.
    assert!(report.stale_pragmas.is_empty(), "{:?}", report.stale_pragmas);
}

#[test]
fn stale_fn_pragma_is_a_hard_error() {
    let report = lint_workspace(&fixture_root("stale")).expect("fixture tree lints");
    assert_eq!(report.stale_pragmas.len(), 1, "{:?}", report.stale_pragmas);
    let v = &report.stale_pragmas[0];
    assert_eq!(v.rule_id, "stale-pragma");
    assert!(v.file.ends_with("crates/helper/src/lib.rs"));
}

/// The P4 witness chain of a fixture tree whose root reaches `unwrap`
/// through exactly one edge.
fn p4_chain(tree: &str) -> Vec<String> {
    let report = lint_workspace(&fixture_root(tree)).expect("fixture tree lints");
    let p4 = report.violations.iter().find(|v| v.rule_id == "P4");
    let p4 = p4.unwrap_or_else(|| panic!("{tree}: expected P4, got {:?}", report.violations));
    p4.chain.iter().map(|h| h.symbol.clone()).collect()
}

#[test]
fn function_passed_by_value_carries_taint() {
    // `.map(pipeline::parse)` calls `parse` without a `(` at the site.
    assert_eq!(
        p4_chain("value_ref"),
        ["core::engine::Engine::run_tick", "helper::pipeline::parse", ".unwrap()"]
    );
}

#[test]
fn reexported_path_carries_taint() {
    // `pphcr_helper::parse` names `helper::pipeline::parse`.
    assert_eq!(
        p4_chain("reexport"),
        ["core::engine::Engine::run_tick", "helper::pipeline::parse", ".unwrap()"]
    );
}

#[test]
fn every_taint_root_resolves_in_the_real_workspace() {
    // A root that no longer names an indexed function is silently
    // ignored by the BFS — this pins each entry in `taint::ROOTS`
    // (including the shard protocol/dispatch and obs-merge roots) to
    // a real symbol so renames cannot quietly drop coverage.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = pphcr_lint::workspace_sources(&root).expect("workspace sources");
    let mut index = pphcr_lint::symbols::SymbolIndex::default();
    for path in &files {
        let source = std::fs::read_to_string(path).expect("read workspace source");
        let rel = path.strip_prefix(&root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        let lines = pphcr_lint::lexer::lex(&source);
        let mask = vec![false; lines.len()];
        index.add_file(&rel, &lines, &mask);
    }
    index.finish();
    for (q, _) in pphcr_lint::taint::ROOTS {
        assert!(
            index.by_qualified.contains_key(*q),
            "taint root {q} does not resolve to any indexed function"
        );
    }
}
