//! `pphcr-lint` — the workspace invariant linter.
//!
//! PPHCR's headline guarantees rest on source-level conventions:
//! bit-identical event streams across 1/2/8 workers (PR 2/6) need
//! seeded, ordered execution; seeded chaos replay (PR 1) needs no
//! wall-clock reads; byte-identical crash recovery (PR 5) needs the
//! replay path deterministic; the unattended in-vehicle loop needs
//! panic-free engine code and bounded queues. This crate turns those
//! conventions into machine-checked invariants with a **two-pass
//! analyzer**:
//!
//! * **pass 1 — the line rules** ([`rules`]): the D (determinism),
//!   P1–P3 (panic-freedom), B (boundedness) and F (durability)
//!   families, checked per line over the [`lexer`] output, plus
//!   `// lint: allow(<rule>) — <reason>` pragma handling;
//! * **pass 2 — the taint rules** ([`taint`]): a symbol index
//!   ([`symbols`]) and first-party call graph ([`callgraph`]) over
//!   the whole workspace, then taint propagation proving that no
//!   commit/persistence root (`Engine::run_tick`, `apply_record`,
//!   snapshot/restore, bus delivery, recommender scoring)
//!   transitively reaches a wall-clock read (T1), unseeded RNG (T2),
//!   hash-order iteration (T3) or panic (P4) — each finding carries a
//!   full `root → callee → … → offending line` witness chain;
//! * **the dead rule** ([`dead`]): over the same graph, every `pub fn`
//!   must be reachable from a `fn main`, an `examples/` or
//!   `perfbench/src` file, or a trait method (U1). Those two
//!   directories are read for roots only and never linted.
//!
//! Pragma usage is shared between the passes: a pragma consumed by
//! either pass is live; one consumed by neither is a hard
//! `stale-pragma` error. [`report`] serializes everything — including
//! witness chains and per-rule counts — into the `LINT_REPORT.json`
//! artifact CI uploads.
//!
//! The binary (`cargo run -p pphcr-lint`) walks every `crates/*/src`
//! file, prints `file:line: rule — message` diagnostics (taint
//! findings with their chains), writes the JSON report, and exits
//! nonzero on any violation or stale pragma. `--budget-ms N` also
//! fails the run when the analysis exceeds its wall-time budget.
//! See `DESIGN.md` §9 for each rule's rationale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod callgraph;
pub mod dead;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod symbols;
pub mod taint;

pub use report::LintReport;
pub use rules::{lint_source, rule_by_name, ChainHop, Violation, RULES};

use std::path::{Path, PathBuf};

use lexer::LexedLine;

/// Collects every `.rs` file under `root/crates/*/src`, sorted for
/// deterministic diagnostics. Errors carry a printable message.
///
/// # Errors
/// When `root/crates` cannot be read at all; unreadable subdirectories
/// are skipped silently (a vanished directory must not fail CI).
pub fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> =
        entries.filter_map(Result::ok).map(|e| e.path()).filter(|p| p.is_dir()).collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files);
    }
    files.sort();
    Ok(files)
}

/// Collects the `.rs` files of `root/examples` and `root/perfbench/src`,
/// sorted: the dead rule's root-only sources. Missing directories
/// contribute nothing.
#[must_use]
pub fn root_only_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    collect_rs(&root.join("examples"), &mut files);
    collect_rs(&root.join("perfbench/src"), &mut files);
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints the workspace rooted at `root`: line rules, then the
/// interprocedural taint and dead passes, then shared stale-pragma
/// accounting. Returns the report; IO failures surface as printable
/// errors.
///
/// # Errors
/// When the crates directory or a source file cannot be read.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let files = workspace_sources(root)?;
    let root_files = root_only_sources(root);

    // Read and lex everything once; every pass shares the result. The
    // root-only files come last and feed the call graph only.
    let mut rel_paths: Vec<String> = Vec::with_capacity(files.len() + root_files.len());
    let mut lexed: Vec<Vec<LexedLine>> = Vec::with_capacity(files.len() + root_files.len());
    for path in files.iter().chain(&root_files) {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path.strip_prefix(root).unwrap_or(path);
        rel_paths.push(rel.to_string_lossy().replace('\\', "/"));
        lexed.push(lexer::lex(&source));
    }
    let linted = files.len();
    let masks: Vec<Vec<bool>> = lexed.iter().map(|l| rules::test_line_mask(l)).collect();
    let mut pragmas: Vec<Vec<rules::Pragma>> =
        lexed[..linted].iter().map(|l| rules::collect_pragmas(l)).collect();

    // Pass 1: line rules (marks consumed pragmas used).
    let mut all: Vec<Violation> = Vec::new();
    for i in 0..linted {
        all.extend(rules::line_pass(&rel_paths[i], &lexed[i], &masks[i], &mut pragmas[i]));
    }

    // Pass 2: symbol index, call graph, taint propagation, dead code.
    let mut index = symbols::SymbolIndex::default();
    for i in 0..lexed.len() {
        if i < linted {
            index.add_file(&rel_paths[i], &lexed[i], &masks[i]);
        } else {
            index.add_root_file(&rel_paths[i], &lexed[i], &masks[i]);
        }
    }
    index.finish();
    let sources: Vec<&[LexedLine]> = lexed.iter().map(Vec::as_slice).collect();
    let graph = callgraph::CallGraph::build(&index, &sources);
    all.extend(taint::taint_pass(&index, &graph, &sources, &mut pragmas));
    all.extend(dead::dead_pass(&index, &graph, &mut pragmas));

    // Staleness: a pragma no pass consumed is an error.
    for i in 0..linted {
        all.extend(rules::stale_pass(&rel_paths[i], &pragmas[i]));
    }

    all.sort_by(|a, b| {
        a.file.cmp(&b.file).then(a.line.cmp(&b.line)).then(a.rule_id.cmp(&b.rule_id))
    });
    let mut report = LintReport::from_violations(linted, all);
    report.functions_indexed = index.fns.len();
    report.call_edges = graph.edges.len();
    Ok(report)
}
