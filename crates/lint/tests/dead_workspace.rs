//! The dead rule over the fixture workspace under `fixtures/dead/`:
//! exactly the unreachable `pub fn`s are flagged, each root kind and
//! each edge kind reaches the function that only it can reach, and the
//! `allow(dead)` pragma clears a dead fn but is stale on a live one.

use std::path::PathBuf;

use pphcr_lint::{lint_workspace, LintReport};

const PARTS: &str = "crates/lib/src/parts.rs";

fn report() -> LintReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/dead");
    lint_workspace(&root).expect("fixture tree lints")
}

/// Qualified names of the flagged functions, in file and line order.
fn dead(report: &LintReport) -> Vec<String> {
    report
        .violations
        .iter()
        .filter(|v| v.rule_name == "dead")
        .map(|v| v.message.split('`').nth(1).unwrap_or_default().trim_start_matches("pub fn "))
        .map(str::to_string)
        .collect()
}

fn line_of(needle: &str) -> usize {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/dead");
    let source = std::fs::read_to_string(root.join(PARTS)).expect("fixture source");
    source.lines().position(|l| l.contains(needle)).expect("needle in fixture") + 1
}

#[test]
fn only_unreachable_pub_fns_are_flagged() {
    // Each reachable fn below has exactly one way in; dropping a root
    // kind (`fn main`, trait definition, trait impl, examples/,
    // perfbench/src) or an edge kind (path call, value reference,
    // re-exported path, dot call) adds it to this list. `Stray::new`
    // stays flagged although `..Registry::new()` names a `new`: a
    // struct-update base is a path call, not a dot call to every `new`.
    // `kept` is missing because its pragma clears it.
    let report = report();
    assert_eq!(dead(&report), ["lib::parts::Stray::new", "lib::parts::orphan"]);
    let orphan = report.violations.iter().find(|v| v.message.contains("orphan")).expect("flagged");
    assert_eq!((orphan.file.as_str(), orphan.line), (PARTS, line_of("pub fn orphan")));
    assert_eq!(orphan.rule_id, "U1");
}

#[test]
fn pragma_on_a_live_fn_is_stale() {
    let report = report();
    let stale: Vec<(&str, usize)> =
        report.stale_pragmas.iter().map(|v| (v.file.as_str(), v.line)).collect();
    assert_eq!(stale, [(PARTS, line_of("nothing to excuse"))], "{:?}", report.stale_pragmas);
}

#[test]
fn root_only_directories_are_never_linted() {
    let report = report();
    for v in report.violations.iter().chain(&report.stale_pragmas) {
        assert!(v.file.starts_with("crates/"), "{}", v.render());
    }
    assert_eq!(report.files_scanned, 4, "examples/ and perfbench/src are not scanned");
}
