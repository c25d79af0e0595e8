//! Pass 1b of the interprocedural analyzer: the first-party call
//! graph.
//!
//! Walks every function body from the [`crate::symbols`] index,
//! extracts call sites from the blanked code lines, and resolves each
//! one to first-party function definitions:
//!
//! * **path calls** (`helper(…)`, `Type::method(…)`,
//!   `crate::bus::publish(…)`) resolve through the file's `use`-alias
//!   map, the current module, and `crate`/`super`/`self`/`Self`
//!   prefixes, with a `Owner::name` suffix fallback that absorbs
//!   crate-root re-exports (`use pphcr_geo::Polyline` →
//!   `geo::polyline::Polyline`). A qualified path to a free function
//!   the exact lookup misses (`pphcr_shard::serve`, re-exported from
//!   `shard::agent`) resolves to every free function of that name under
//!   the path's module;
//! * **dot calls** (`x.method(…)`) resolve by method name to *every*
//!   first-party impl method with that name — a deliberate
//!   over-approximation that keeps the taint pass sound (a missed
//!   edge could hide a panic; a spurious edge at worst asks for a
//!   pragma with a written reason). `..` is a range or struct-update
//!   base, never a dot call: `..Registry::new()` is a path call;
//! * **value references** (`put_map(w, m, put_entry)`,
//!   `.map(UserHealth::state)`) — a path in argument, element or
//!   assignment position that is not called — resolve like path calls.
//!   A bare name resolves only in its own module or through a `use`:
//!   the name fallback would match every local variable.
//!
//! Standard-library and vendored-dependency calls resolve to nothing
//! and simply drop out. Edges are deduplicated per (caller, callee)
//! keeping the first call site in line order, and adjacency lists are
//! sorted by callee qualified name so downstream traversal is
//! deterministic.

use std::collections::BTreeMap;

use crate::lexer::LexedLine;
use crate::symbols::{canonical_crate, FileSymbols, SymbolIndex};

/// One resolved call edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallEdge {
    /// Caller function index into [`SymbolIndex::fns`].
    pub caller: usize,
    /// Callee function index.
    pub callee: usize,
    /// Workspace-relative file of the call site.
    pub file: String,
    /// 1-based line of the call site.
    pub line: usize,
    /// True when the edge came from dot-call method-name matching
    /// rather than an exact path resolution.
    pub name_match: bool,
}

/// The workspace call graph over [`SymbolIndex`] functions.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// All edges, caller-major, deduplicated.
    pub edges: Vec<CallEdge>,
    /// caller fn index → indices into [`CallGraph::edges`].
    pub out: BTreeMap<usize, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from the symbol index and the lexed sources
    /// (parallel to `index.files`).
    #[must_use]
    pub fn build(index: &SymbolIndex, sources: &[&[LexedLine]]) -> Self {
        let mut edges: Vec<CallEdge> = Vec::new();
        for (file_idx, fs) in index.files.iter().enumerate() {
            let Some(lines) = sources.get(file_idx) else { continue };
            for (line_idx, line) in lines.iter().enumerate() {
                let Some(caller) = fs.fn_of_line.get(line_idx).copied().flatten() else {
                    continue;
                };
                if fs.test_mask.get(line_idx).copied().unwrap_or(false) {
                    continue;
                }
                let owner = index.fns[caller].owner.clone();
                let code = &line.code;
                for call in extract_calls(code).into_iter().chain(extract_value_refs(code)) {
                    for (callee, name_match) in resolve(index, fs, owner.as_deref(), &call) {
                        if callee != caller {
                            edges.push(CallEdge {
                                caller,
                                callee,
                                file: fs.path.clone(),
                                line: line_idx + 1,
                                name_match,
                            });
                        }
                    }
                }
            }
        }
        // Dedup per (caller, callee), first call site wins; order by
        // callee qualified name for deterministic traversal.
        edges.sort_by(|a, b| {
            (a.caller, &index.fns[a.callee].qualified, a.line, a.callee).cmp(&(
                b.caller,
                &index.fns[b.callee].qualified,
                b.line,
                b.callee,
            ))
        });
        edges.dedup_by_key(|e| (e.caller, e.callee));
        let mut out: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, e) in edges.iter().enumerate() {
            out.entry(e.caller).or_default().push(i);
        }
        CallGraph { edges, out }
    }
}

/// One syntactic call site: the path segments before the `(`, and
/// how they are written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments, e.g. `["Engine", "run_tick"]` or `["helper"]`.
    pub segments: Vec<String>,
    /// True for `receiver.method(…)`.
    pub dot: bool,
    /// True for a function named as a value rather than called.
    pub value: bool,
}

/// Extracts syntactic call sites from one blanked code line.
#[must_use]
pub fn extract_calls(code: &str) -> Vec<CallSite> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    for i in 0..chars.len() {
        if chars[i] != '(' {
            continue;
        }
        // Walk backwards over an optional turbofish `::<…>`.
        let mut j = i;
        if j >= 1 && chars[j - 1] == '>' {
            let mut depth = 0i64;
            let mut k = j - 1;
            loop {
                match chars[k] {
                    '>' => depth += 1,
                    '<' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if k == 0 {
                    break;
                }
                k -= 1;
            }
            // Require `::` before the `<` for a turbofish.
            if depth == 0 && k >= 2 && chars[k - 1] == ':' && chars[k - 2] == ':' {
                j = k - 2;
            } else {
                continue;
            }
        }
        if j == 0 {
            continue;
        }
        // Macro invocation `name!(` — skip; macros are not functions.
        if chars[j - 1] == '!' {
            continue;
        }
        // Collect `seg::seg::name` backwards, skipping interior
        // turbofish groups (`Builder::<u64>::new`).
        let mut segments: Vec<String> = Vec::new();
        let mut k = j;
        loop {
            let start = ident_start(&chars, k);
            if start == k {
                break;
            }
            let seg: String = chars[start..k].iter().collect();
            segments.push(seg);
            if !(start >= 2 && chars[start - 1] == ':' && chars[start - 2] == ':') {
                k = start;
                break;
            }
            k = start - 2;
            // `seg::<T>::name` — hop over the angle group to the path
            // segment before it.
            if k >= 1 && chars[k - 1] == '>' {
                let mut depth = 0i64;
                let mut m = k - 1;
                loop {
                    match chars[m] {
                        '>' => depth += 1,
                        '<' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if m == 0 {
                        break;
                    }
                    m -= 1;
                }
                if depth == 0 && m >= 2 && chars[m - 1] == ':' && chars[m - 2] == ':' {
                    k = m - 2;
                } else {
                    break;
                }
            }
        }
        segments.reverse();
        let Some(name) = segments.last() else { continue };
        if segments.len() == 1 && is_keyword(name) {
            continue;
        }
        // A definition, not a call: `fn name(`.
        let before: String = chars[..k].iter().collect();
        let bt = before.trim_end();
        if bt.ends_with("fn") {
            continue;
        }
        let dot = k >= 1 && chars[k - 1] == '.' && !(k >= 2 && chars[k - 2] == '.');
        if dot && segments.len() > 1 {
            // `x.module::f(` is not Rust; treat conservatively as the
            // final segment only.
            segments = vec![segments.pop().unwrap_or_default()];
        }
        // Field-access closure call `self.callback(` vs method call is
        // indistinguishable here; both are dot calls by name.
        out.push(CallSite { segments, dot, value: false });
    }
    out
}

/// Extracts paths named as values from one blanked code line: a path
/// that starts the line or follows `(`, `,`, `[` or `=`, and ends the
/// line or precedes `)`, `,`, `]` or `;`.
#[must_use]
pub fn extract_value_refs(code: &str) -> Vec<CallSite> {
    let chars: Vec<char> = code.chars().collect();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !is_ident(chars[i]) || (i > 0 && is_ident(chars[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        let mut segments: Vec<String> = Vec::new();
        loop {
            let seg_start = i;
            while i < chars.len() && is_ident(chars[i]) {
                i += 1;
            }
            segments.push(chars[seg_start..i].iter().collect());
            let joins = i + 2 < chars.len()
                && chars[i] == ':'
                && chars[i + 1] == ':'
                && is_ident(chars[i + 2]);
            if !joins {
                break;
            }
            i += 2;
        }
        let before = chars[..start].iter().rev().find(|c| !c.is_whitespace());
        let after = chars[i..].iter().find(|c| !c.is_whitespace());
        let opens = before.is_none_or(|c| matches!(c, '(' | ',' | '[' | '='));
        let closes = after.is_none_or(|c| matches!(c, ')' | ',' | ']' | ';'));
        let first = &segments[0];
        if opens && closes && !first.starts_with(|c: char| c.is_ascii_digit()) && !is_keyword(first)
        {
            out.push(CallSite { segments, dot: false, value: true });
        }
    }
    out
}

/// Start index of the identifier ending at `end` (exclusive).
fn ident_start(chars: &[char], end: usize) -> usize {
    let mut start = end;
    while start > 0 {
        let c = chars[start - 1];
        if c.is_alphanumeric() || c == '_' {
            start -= 1;
        } else {
            break;
        }
    }
    // An identifier cannot start with a digit (that's a literal).
    if start < end && chars[start].is_ascii_digit() {
        return end;
    }
    start
}

fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "fn"
            | "let"
            | "in"
            | "move"
            | "ref"
            | "mut"
            | "as"
            | "else"
            | "unsafe"
            | "where"
            | "impl"
            | "dyn"
    )
}

/// Resolves one call site to candidate function indices.
/// Returns `(fn_index, via_name_match)` pairs, deduplicated, in
/// deterministic order.
fn resolve(
    index: &SymbolIndex,
    fs: &FileSymbols,
    current_owner: Option<&str>,
    call: &CallSite,
) -> Vec<(usize, bool)> {
    let mut out: Vec<(usize, bool)> = Vec::new();
    if call.dot {
        let Some(name) = call.segments.last() else { return out };
        if let Some(hits) = index.by_method.get(name.as_str()) {
            for &h in hits {
                out.push((h, true));
            }
        }
        return out;
    }
    let segs = &call.segments;
    if segs.is_empty() {
        return out;
    }
    let mut module_prefixes: Vec<String> = Vec::new();
    // Build candidate fully-qualified paths, most specific first.
    let mut candidates: Vec<Vec<String>> = Vec::new();
    if segs.len() == 1 {
        let name = &segs[0];
        // Same module.
        let mut same = fs.module.clone();
        same.push(name.clone());
        candidates.push(same);
        // Use-alias (a function imported by name).
        if let Some(full) = fs.uses.get(name) {
            candidates.push(full.clone());
        }
        // Glob imports.
        for g in &fs.globs {
            let mut c = g.clone();
            c.push(name.clone());
            candidates.push(c);
        }
    } else {
        let head = &segs[0];
        let tail = &segs[1..];
        let mut heads: Vec<Vec<String>> = Vec::new();
        match head.as_str() {
            "crate" => heads.push(fs.module.first().cloned().into_iter().collect()),
            "self" => heads.push(fs.module.clone()),
            "super" => {
                heads.push(fs.module[..fs.module.len().saturating_sub(1)].to_vec());
            }
            "Self" => {
                if let Some(owner) = current_owner {
                    let mut h = fs.module.clone();
                    h.push(owner.to_string());
                    heads.push(h);
                }
            }
            _ => {
                if let Some(full) = fs.uses.get(head) {
                    heads.push(full.clone());
                }
                // A submodule or type in the current module.
                let mut sub = fs.module.clone();
                sub.push(head.clone());
                heads.push(sub);
                // An absolute crate path (`pphcr_geo::…` or `geo::…`).
                heads.push(vec![canonical_crate(head)]);
                for g in &fs.globs {
                    let mut c = g.clone();
                    c.push(head.clone());
                    heads.push(c);
                }
            }
        }
        for mut h in heads {
            h.extend(tail.iter().cloned());
            module_prefixes.push(h[..h.len() - 1].join("::"));
            candidates.push(h);
        }
    }
    for cand in &candidates {
        if cand.first().is_some_and(|s| s.starts_with("#std")) {
            continue;
        }
        let joined = cand.join("::");
        if let Some(hits) = index.by_qualified.get(&joined) {
            for &h in hits {
                out.push((h, false));
            }
        }
    }
    // A bare value name resolves exactly or not at all.
    if call.value && segs.len() == 1 {
        out.sort_unstable();
        out.dedup();
        return out;
    }
    // Re-export fallback: `Owner::name` (or bare `name` for free fns
    // imported through a crate-root re-export) suffix match.
    if out.is_empty() {
        let suffix = if segs.len() >= 2 {
            format!("{}::{}", segs[segs.len() - 2], segs[segs.len() - 1])
        } else {
            segs[segs.len() - 1].clone()
        };
        // `Self::name` must only match the current owner.
        let suffix = if segs.len() == 2 && segs[0] == "Self" {
            current_owner.map(|o| format!("{o}::{}", segs[1]))
        } else {
            Some(suffix)
        };
        if let Some(sfx) = suffix {
            if let Some(hits) = index.by_owner_name.get(&sfx) {
                for &h in hits {
                    out.push((h, false));
                }
            }
        }
    }
    // A free fn re-exported from a submodule: `pphcr_shard::serve`
    // names `shard::agent::serve`.
    if out.is_empty() {
        let name = &segs[segs.len() - 1];
        for &h in index.by_owner_name.get(name).map_or(&[][..], Vec::as_slice) {
            let def = &index.fns[h];
            let under = |p: &String| def.qualified.starts_with(&format!("{p}::"));
            if def.owner.is_none() && module_prefixes.iter().any(under) {
                out.push((h, false));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_line_mask;

    fn graph_of(files: &[(&str, &str)]) -> (SymbolIndex, CallGraph) {
        let lexed: Vec<Vec<LexedLine>> = files.iter().map(|(_, s)| lex(s)).collect();
        let mut idx = SymbolIndex::default();
        for ((path, _), lines) in files.iter().zip(&lexed) {
            let mask = test_line_mask(lines);
            idx.add_file(path, lines, &mask);
        }
        idx.finish();
        let refs: Vec<&[LexedLine]> = lexed.iter().map(Vec::as_slice).collect();
        let graph = CallGraph::build(&idx, &refs);
        (idx, graph)
    }

    fn has_edge(idx: &SymbolIndex, g: &CallGraph, caller: &str, callee: &str) -> bool {
        g.edges
            .iter()
            .any(|e| idx.fns[e.caller].qualified == caller && idx.fns[e.callee].qualified == callee)
    }

    #[test]
    fn same_module_free_call() {
        let (idx, g) = graph_of(&[(
            "crates/core/src/engine.rs",
            "fn helper() {}\nfn main_entry() {\n    helper();\n}\n",
        )]);
        assert!(has_edge(&idx, &g, "core::engine::main_entry", "core::engine::helper"));
    }

    #[test]
    fn cross_crate_call_through_use_alias() {
        let (idx, g) = graph_of(&[
            ("crates/geo/src/polyline.rs", "impl Polyline {\n    pub fn point_at(&self) {}\n}\n"),
            (
                "crates/recommender/src/context.rs",
                "use pphcr_geo::Polyline;\nfn f(p: &Polyline) {\n    Polyline::point_at(p);\n}\n",
            ),
        ]);
        assert!(has_edge(&idx, &g, "recommender::context::f", "geo::polyline::Polyline::point_at"));
    }

    #[test]
    fn dot_call_resolves_by_method_name() {
        let (idx, g) = graph_of(&[
            ("crates/nlp/src/bayes.rs", "impl NaiveBayes {\n    pub fn predict(&self) {}\n}\n"),
            ("crates/core/src/engine.rs", "fn classify(nb: &NaiveBayes) {\n    nb.predict();\n}\n"),
        ]);
        assert!(has_edge(&idx, &g, "core::engine::classify", "nlp::bayes::NaiveBayes::predict"));
        let e = g
            .edges
            .iter()
            .find(|e| idx.fns[e.callee].qualified == "nlp::bayes::NaiveBayes::predict");
        assert!(e.is_some_and(|e| e.name_match));
    }

    #[test]
    fn self_calls_resolve_to_current_impl() {
        let (idx, g) = graph_of(&[(
            "crates/core/src/bus.rs",
            "impl Bus {\n    fn a(&self) {\n        Self::b();\n    }\n    fn b() {}\n}\n",
        )]);
        assert!(has_edge(&idx, &g, "core::bus::Bus::a", "core::bus::Bus::b"));
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let calls = extract_calls("    println!(\"x\"); vec![1].len();");
        assert!(calls.iter().all(|c| c.segments.last().is_none_or(|s| s != "println")));
    }

    #[test]
    fn keywords_are_not_calls() {
        let calls = extract_calls("if (x) { return (y); }");
        assert!(calls.is_empty(), "{calls:?}");
    }

    #[test]
    fn calls_inside_macro_args_are_found() {
        let calls = extract_calls("    format!(\"{}\", compute(x));");
        assert!(calls.iter().any(|c| c.segments == vec!["compute".to_string()]));
    }

    #[test]
    fn turbofish_path_call_resolves() {
        let calls = extract_calls("let v = Builder::<u64>::new();");
        assert!(calls.iter().any(|c| c.segments == vec!["Builder".to_string(), "new".to_string()]));
    }

    #[test]
    fn reexport_suffix_fallback() {
        // `use pphcr_geo::Polyline` re-exports `geo::polyline::Polyline`;
        // exact resolution fails (`geo::Polyline::new`), the suffix
        // match recovers it.
        let (idx, g) = graph_of(&[
            ("crates/geo/src/polyline.rs", "impl Polyline {\n    pub fn from_points() {}\n}\n"),
            (
                "crates/core/src/engine.rs",
                "use pphcr_geo::Polyline;\nfn f() {\n    Polyline::from_points();\n}\n",
            ),
        ]);
        assert!(has_edge(&idx, &g, "core::engine::f", "geo::polyline::Polyline::from_points"));
    }

    #[test]
    fn struct_update_base_is_a_path_call() {
        let (idx, g) = graph_of(&[(
            "crates/obs/src/registry.rs",
            "impl Registry {\n    pub fn new() -> Self {\n        Registry\n    }\n    pub fn disabled() -> Self {\n        Registry { ..Registry::new() }\n    }\n}\nimpl Other {\n    pub fn new() -> Self {\n        Other\n    }\n}\n",
        )]);
        let callees: Vec<&str> = g
            .edges
            .iter()
            .filter(|e| idx.fns[e.caller].name == "disabled")
            .map(|e| idx.fns[e.callee].qualified.as_str())
            .collect();
        assert_eq!(callees, ["obs::registry::Registry::new"]);
    }

    #[test]
    fn test_code_contributes_no_edges() {
        let (_, g) = graph_of(&[(
            "crates/core/src/engine.rs",
            "fn target() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        super::target();\n    }\n}\n",
        )]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }
}
