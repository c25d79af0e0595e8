//! Pass 2 of the interprocedural analyzer: taint propagation over the
//! call graph.
//!
//! The line rules (D/P families) check what a function does *on its
//! own lines*; this pass checks what a commit-path function can reach
//! *transitively*. Sources ("sins") are the same sinners the D rules
//! police — wall-clock reads outside `obs::timing`, unseeded RNG,
//! hash-order iteration — plus the panic family; roots are the
//! commit/persistence entry points whose determinism and totality the
//! repo's scaling proofs rest on (`Engine::run_tick`, `apply_record`,
//! `snapshot_engine`, `restore_engine`, `Bus` delivery, recommender
//! scoring). A single breadth-first search from all roots yields, for
//! every reachable sin, the *shortest witness chain*
//! `root → callee → … → offending line` with a `file:line` per hop,
//! which is reported verbatim in diagnostics and `LINT_REPORT.json`.
//!
//! Suppression is two-level, and stale pragmas stay hard errors:
//!
//! * a **line pragma** naming the base rule
//!   (`// lint: allow(unwrap) — reason`) on the offending line clears
//!   that line as a taint source, mirroring how it clears the line
//!   rule;
//! * a **function-granularity pragma** naming the transitive rule
//!   (`// lint: allow(reach-panic) — reason`) on the `fn` line or the
//!   comment line directly above it clears every source of that
//!   family in the function body — for vetted helpers whose panics
//!   are unreachable by construction.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::lexer::LexedLine;
use crate::rules::{
    collect_hash_names, hash_iteration_hits, ChainHop, Pragma, RuleMeta, Violation, RULES,
    TIMING_ALLOWLIST,
};
use crate::symbols::SymbolIndex;

/// The four taint families, in rule order (T1, T2, T3, P4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// T1 — wall-clock / sleep reachable from a commit root.
    WallClock,
    /// T2 — unseeded OS-entropy RNG reachable from a commit root.
    UnseededRng,
    /// T3 — hash-order iteration reachable from a commit root.
    HashIter,
    /// P4 — a panic-family call reachable from a commit root.
    PanicPath,
}

impl TaintKind {
    /// Rule metadata for this family (T1/T2/T3/P4 in [`RULES`]).
    #[must_use]
    pub fn rule(self) -> &'static RuleMeta {
        let name = match self {
            TaintKind::WallClock => "reach-wall-clock",
            TaintKind::UnseededRng => "reach-unseeded-rng",
            TaintKind::HashIter => "reach-hash-iter",
            TaintKind::PanicPath => "reach-panic",
        };
        RULES.iter().find(|r| r.name == name).unwrap_or(&RULES[0])
    }

    /// Line-pragma slugs that also clear a source of this family.
    fn base_slugs(self) -> &'static [&'static str] {
        match self {
            TaintKind::WallClock => &["wall-clock", "sleep"],
            TaintKind::UnseededRng => &["unseeded-rng"],
            TaintKind::HashIter => &["hash-iter"],
            TaintKind::PanicPath => &["unwrap", "expect", "panic"],
        }
    }
}

/// The commit/persistence roots taint is reported from: every
/// guarantee in DESIGN.md §8/§11 is a statement about what these
/// functions can and cannot do.
pub const ROOTS: &[(&str, &str)] = &[
    ("core::engine::Engine::run_tick", "tick commit path"),
    ("core::persist::replay::apply_record", "WAL replay"),
    ("core::persist::snapshot::snapshot_engine", "snapshot serialization"),
    ("core::persist::durable::restore_engine", "crash recovery"),
    ("core::persist::codec::check_frame", "WAL and shard frame decode"),
    ("core::persist::codec::read_frame", "shard frame stream decode"),
    ("core::persist::types::get_obs_snapshot", "observability snapshot decode"),
    ("core::bus::Bus::publish", "bus delivery"),
    ("core::bus::Bus::publish_checked", "bus delivery"),
    ("core::bus::Bus::resend", "bus delivery"),
    ("core::bus::Bus::drain", "bus delivery"),
    ("core::bus::Bus::dead_letter_exhausted", "bus delivery"),
    ("recommender::scheduler::SchedulerConfig::pack", "recommender scoring"),
    ("recommender::ensemble::diversify", "recommender scoring"),
    ("recommender::candidates::CandidateFilter::reference_scan", "recommender scoring"),
    (
        "recommender::candidates::CandidateFilter::candidates_indexed_excluding_stats",
        "recommender scoring",
    ),
    ("shard::agent::serve", "shard serve loop"),
    ("shard::agent::AgentState::handle", "shard request dispatch"),
    ("shard::protocol::read_frame", "shard wire decode"),
    ("shard::protocol::Request::decode", "shard wire decode"),
    ("shard::protocol::Response::decode", "shard wire decode"),
    ("shard::router::Router::apply", "shard routing"),
    ("obs::merge::merge_snapshots", "observability merge"),
];

/// One taint source before reachability is known.
#[derive(Debug, Clone)]
struct Sin {
    fn_idx: usize,
    kind: TaintKind,
    file: String,
    line: usize,
    what: String,
}

/// Panic-family needles and the line-pragma slug that excuses each.
const PANIC_NEEDLES: &[(&str, &str)] = &[
    (".unwrap()", "unwrap"),
    (".expect(", "expect"),
    ("panic!(", "panic"),
    ("unreachable!(", "panic"),
    ("todo!(", "panic"),
    ("unimplemented!(", "panic"),
];

/// Runs the taint pass. `sources` and `pragmas` are parallel to
/// `index.files`; pragmas consumed by suppression are marked used
/// (shared staleness accounting with the line pass).
#[must_use]
pub fn taint_pass(
    index: &SymbolIndex,
    graph: &CallGraph,
    sources: &[&[LexedLine]],
    pragmas: &mut [Vec<Pragma>],
) -> Vec<Violation> {
    let sins = collect_sins(index, sources, pragmas);

    // Multi-source BFS from every root, shortest-hop parent tree.
    let root_ids: Vec<usize> = {
        let mut ids: Vec<usize> = index
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| ROOTS.iter().any(|(q, _)| *q == f.qualified))
            .map(|(i, _)| i)
            .collect();
        ids.sort_unstable();
        ids
    };
    let mut parent: Vec<Option<usize>> = vec![None; index.fns.len()]; // edge index used to enter
    let mut reached: Vec<bool> = vec![false; index.fns.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &r in &root_ids {
        if !reached[r] {
            reached[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(f) = queue.pop_front() {
        if let Some(edge_ids) = graph.out.get(&f) {
            for &ei in edge_ids {
                let e = &graph.edges[ei];
                if !reached[e.callee] {
                    reached[e.callee] = true;
                    parent[e.callee] = Some(ei);
                    queue.push_back(e.callee);
                }
            }
        }
    }

    let mut out: Vec<Violation> = Vec::new();
    let mut seen: BTreeMap<(String, String, usize), ()> = BTreeMap::new();
    for sin in &sins {
        if !reached[sin.fn_idx] {
            continue;
        }
        let rule = sin.kind.rule();
        let key = (rule.id.to_string(), sin.file.clone(), sin.line);
        if seen.contains_key(&key) {
            continue;
        }
        seen.insert(key, ());
        let chain = witness_chain(index, graph, &parent, sin);
        let root_sym = chain.first().map_or_else(String::new, |h| h.symbol.clone());
        let root_label = index
            .fns
            .iter()
            .find(|f| f.qualified == root_sym)
            .and_then(|f| ROOTS.iter().find(|(q, _)| *q == f.qualified))
            .map_or("commit path", |(_, l)| l);
        let depth = chain.len().saturating_sub(2);
        out.push(Violation {
            file: sin.file.clone(),
            line: sin.line,
            rule_id: rule.id.to_string(),
            rule_name: rule.name.to_string(),
            message: format!(
                "`{}` reachable from {} root `{}` ({} call{} deep)",
                sin.what,
                root_label,
                root_sym,
                depth,
                if depth == 1 { "" } else { "s" }
            ),
            chain,
        });
    }
    out.sort_by(|a, b| {
        a.file.cmp(&b.file).then(a.line.cmp(&b.line)).then(a.rule_id.cmp(&b.rule_id))
    });
    out
}

/// Rebuilds the shortest root→sin path recorded by the BFS parent
/// tree, then appends the offending line as the final hop.
fn witness_chain(
    index: &SymbolIndex,
    graph: &CallGraph,
    parent: &[Option<usize>],
    sin: &Sin,
) -> Vec<ChainHop> {
    // Walk parents from the sinning fn back to a root.
    let mut rev: Vec<(usize, Option<usize>)> = Vec::new(); // (fn, entering edge)
    let mut cur = sin.fn_idx;
    let mut guard = 0usize;
    loop {
        let e = parent[cur];
        rev.push((cur, e));
        match e {
            Some(ei) => cur = graph.edges[ei].caller,
            None => break,
        }
        guard += 1;
        if guard > index.fns.len() {
            break; // cycle guard; parent trees cannot cycle, but stay total
        }
    }
    let mut chain: Vec<ChainHop> = Vec::new();
    for (f, entering) in rev.iter().rev() {
        let def = &index.fns[*f];
        match entering {
            None => chain.push(ChainHop {
                symbol: def.qualified.clone(),
                file: def.file.clone(),
                line: def.line,
            }),
            Some(ei) => {
                let e = &graph.edges[*ei];
                chain.push(ChainHop {
                    symbol: def.qualified.clone(),
                    file: e.file.clone(),
                    line: e.line,
                });
            }
        }
    }
    chain.push(ChainHop { symbol: sin.what.clone(), file: sin.file.clone(), line: sin.line });
    chain
}

/// Scans every indexed function body for taint sources, applying
/// line-level and function-granularity pragma suppression.
fn collect_sins(
    index: &SymbolIndex,
    sources: &[&[LexedLine]],
    pragmas: &mut [Vec<Pragma>],
) -> Vec<Sin> {
    let mut sins: Vec<Sin> = Vec::new();
    for (file_idx, fs) in index.files.iter().enumerate() {
        let Some(lines) = sources.get(file_idx) else { continue };
        if fs.root_only {
            continue;
        }
        let timing_allowed = TIMING_ALLOWLIST.iter().any(|f| fs.path.ends_with(f));
        let hash_names = collect_hash_names(lines);
        for (line_idx, line) in lines.iter().enumerate() {
            let Some(fn_idx) = fs.fn_of_line.get(line_idx).copied().flatten() else { continue };
            if fs.test_mask.get(line_idx).copied().unwrap_or(false) {
                continue;
            }
            let code = line.code.as_str();
            let line_no = line_idx + 1;
            let mut found: Vec<(TaintKind, String, &str)> = Vec::new();

            if !timing_allowed {
                for needle in ["Instant::now", "SystemTime::now"] {
                    if code.contains(needle) {
                        found.push((TaintKind::WallClock, format!("{needle}()"), "wall-clock"));
                    }
                }
                if code.contains("thread::sleep") {
                    found.push((TaintKind::WallClock, "thread::sleep".to_string(), "sleep"));
                }
            }
            for needle in ["thread_rng", "from_entropy"] {
                if code.contains(needle) {
                    found.push((TaintKind::UnseededRng, needle.to_string(), "unseeded-rng"));
                }
            }
            let prev_code =
                line_idx.checked_sub(1).and_then(|p| lines.get(p)).map(|l| l.code.as_str());
            for hit in hash_iteration_hits(code, prev_code, &hash_names) {
                found.push((TaintKind::HashIter, hit, "hash-iter"));
            }
            for (needle, slug) in PANIC_NEEDLES {
                if code.contains(needle) {
                    found.push((TaintKind::PanicPath, (*needle).to_string(), slug));
                }
            }

            for (kind, what, slug) in found {
                if suppressed(pragmas, file_idx, line_no, index.fns[fn_idx].line, kind, slug) {
                    continue;
                }
                sins.push(Sin { fn_idx, kind, file: fs.path.clone(), line: line_no, what });
            }
        }
    }
    sins
}

/// Checks line-level and function-granularity pragmas for one source;
/// marks any matching pragma used.
fn suppressed(
    pragmas: &mut [Vec<Pragma>],
    file_idx: usize,
    line_no: usize,
    fn_def_line: usize,
    kind: TaintKind,
    slug: &str,
) -> bool {
    let Some(file_pragmas) = pragmas.get_mut(file_idx) else { return false };
    let reach_slug = kind.rule().name;
    let mut hit = false;
    for p in file_pragmas.iter_mut() {
        let line_level =
            p.covers(line_no) && p.rule == slug && kind.base_slugs().contains(&p.rule.as_str());
        if line_level || p.covers_fn(reach_slug, fn_def_line) {
            p.used = true;
            hit = true;
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taint_rules_exist_in_rule_table() {
        assert_eq!(TaintKind::WallClock.rule().id, "T1");
        assert_eq!(TaintKind::UnseededRng.rule().id, "T2");
        assert_eq!(TaintKind::HashIter.rule().id, "T3");
        assert_eq!(TaintKind::PanicPath.rule().id, "P4");
    }

    #[test]
    fn roots_are_well_formed() {
        for (q, label) in ROOTS {
            assert!(q.contains("::"), "{q}");
            assert!(!label.is_empty());
        }
    }
}
