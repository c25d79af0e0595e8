//! The `dead` rule (U1): every first-party `pub fn` must be reachable
//! from a production root over the [`crate::callgraph`] edges.
//!
//! The roots are every `fn main` under `crates/*/src`, every function
//! in the root-only files (`examples/*.rs`, `perfbench/src/*.rs`), and
//! every method of a `trait` body or an `impl Trait for Type` block,
//! which a trait object or generic bound may call without naming it.
//! Test code is not a root: a function only tests call is dead.
//!
//! Only plain `pub fn`s are checked; `rustc`'s `dead_code` lint already
//! catches private and `pub(crate)` items. A function-granularity
//! `// lint: allow(dead) — <reason>` pragma on or above the `fn` keeps
//! one; the same pragma on a reachable function is stale.

use std::collections::VecDeque;

use crate::callgraph::CallGraph;
use crate::rules::{rule_by_name, Pragma, Violation};
use crate::symbols::SymbolIndex;

/// Runs the rule. `pragmas` is parallel to `index.files`; a pragma
/// that keeps a dead function is marked used.
#[must_use]
pub fn dead_pass(
    index: &SymbolIndex,
    graph: &CallGraph,
    pragmas: &mut [Vec<Pragma>],
) -> Vec<Violation> {
    let root_only = |f: usize| index.files.get(index.fns[f].file_idx).is_some_and(|s| s.root_only);
    let mut reached = vec![false; index.fns.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, def) in index.fns.iter().enumerate() {
        let main = def.name == "main" && def.owner.is_none();
        if main || def.trait_item || root_only(i) {
            reached[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(f) = queue.pop_front() {
        for &ei in graph.out.get(&f).map_or(&[][..], Vec::as_slice) {
            let callee = graph.edges[ei].callee;
            if !reached[callee] {
                reached[callee] = true;
                queue.push_back(callee);
            }
        }
    }

    let Some(rule) = rule_by_name("dead") else { return Vec::new() };
    let mut out = Vec::new();
    for (i, def) in index.fns.iter().enumerate() {
        if reached[i] || !def.is_pub {
            continue;
        }
        let mut kept = false;
        for p in pragmas.get_mut(def.file_idx).into_iter().flatten() {
            if p.covers_fn(rule.name, def.line) {
                p.used = true;
                kept = true;
            }
        }
        if !kept {
            out.push(Violation {
                file: def.file.clone(),
                line: def.line,
                rule_id: rule.id.to_string(),
                rule_name: rule.name.to_string(),
                message: format!("`pub fn {}` is reachable from no production root", def.qualified),
                chain: Vec::new(),
            });
        }
    }
    out
}
