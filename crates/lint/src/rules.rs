//! The rule families enforced by `pphcr-lint` and the per-file
//! checking pass, including `// lint: allow(<rule>) — <reason>`
//! pragma handling.
//!
//! Three families back three workspace guarantees:
//!
//! * **D — determinism** protects the bit-identical event streams of
//!   PR 2 (`tick_batch` across 1/2/8 workers) and the seeded chaos
//!   replay of PR 1: no wall-clock reads, no OS-entropy RNGs, no
//!   hash-order iteration where ordering can feed the event stream.
//! * **P — panic-freedom** protects the unattended in-vehicle loop:
//!   no `unwrap`/`expect`/`panic!` family calls in non-test code of
//!   the engine-facing crates.
//! * **B — boundedness** protects the backpressure design of PR 1:
//!   no unbounded channels, no budget-less `loop` (or `while true`)
//!   in bus/retry code.
//! * **F — durability** protects the crash-recovery contract of the
//!   persistence layer: file writes outside `core::persist` bypass the
//!   WAL's fsync discipline and need an explicit pragma.
//! * **T/P4 — transitive reachability** (implemented in
//!   [`crate::taint`]) proves the same invariants *through calls*: a
//!   commit root must not reach a wall-clock read, unseeded RNG,
//!   hash-order iteration, or panic anywhere in the workspace, however
//!   many crates away. The rule metadata lives here so pragmas,
//!   reports, and `--rules` output share one table.

use crate::lexer::{lex, LexedLine};

/// Static description of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMeta {
    /// Short id, e.g. `D1`.
    pub id: &'static str,
    /// Pragma-addressable slug, e.g. `wall-clock`.
    pub name: &'static str,
    /// One-line rationale shown in `--rules` output and the report.
    pub rationale: &'static str,
}

/// Every rule the pass knows, in diagnostic order.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        id: "D1",
        name: "wall-clock",
        rationale: "Instant::now/SystemTime::now outside obs::timing breaks replayability",
    },
    RuleMeta {
        id: "D2",
        name: "sleep",
        rationale: "thread::sleep hides timing dependence that seeded simulation cannot replay",
    },
    RuleMeta {
        id: "D3",
        name: "unseeded-rng",
        rationale: "thread_rng/from_entropy draw OS entropy; all randomness must be seeded",
    },
    RuleMeta {
        id: "D4",
        name: "hash-iter",
        rationale: "HashMap/HashSet iteration order is unstable and must not feed the event stream",
    },
    RuleMeta {
        id: "P1",
        name: "unwrap",
        rationale: "unwrap() panics mid-replacement; return a typed error instead",
    },
    RuleMeta {
        id: "P2",
        name: "expect",
        rationale: "expect() panics mid-replacement; return a typed error instead",
    },
    RuleMeta {
        id: "P3",
        name: "panic",
        rationale: "panic!/unreachable!/todo!/unimplemented! abort the unattended engine loop",
    },
    RuleMeta {
        id: "B1",
        name: "unbounded-channel",
        rationale: "mpsc::channel() has no backpressure; use bounded queues with a policy",
    },
    RuleMeta {
        id: "B2",
        name: "unbounded-loop",
        rationale: "a loop (incl. while-true) without break/return in bus/retry code \
                    can spin forever on faults",
    },
    RuleMeta {
        id: "F1",
        name: "fsync-free-write",
        rationale: "file writes outside core::persist skip the WAL's fsync discipline; \
                    durable state must go through FileWal or carry a pragma",
    },
    RuleMeta {
        id: "T1",
        name: "reach-wall-clock",
        rationale: "a commit root transitively reaches a wall-clock read; replay would diverge",
    },
    RuleMeta {
        id: "T2",
        name: "reach-unseeded-rng",
        rationale: "a commit root transitively reaches OS-entropy randomness; \
                    event streams would differ across runs",
    },
    RuleMeta {
        id: "T3",
        name: "reach-hash-iter",
        rationale: "a commit root transitively reaches hash-order iteration; \
                    worker counts could reorder the event stream",
    },
    RuleMeta {
        id: "P4",
        name: "reach-panic",
        rationale: "a commit root transitively reaches unwrap/expect/panic; \
                    one bad input aborts the unattended engine loop",
    },
];

/// Pseudo-rule ids for pragma bookkeeping problems.
pub const STALE_PRAGMA: &str = "stale-pragma";
/// Pseudo-rule id for a malformed pragma (unknown rule, missing reason).
pub const BAD_PRAGMA: &str = "bad-pragma";

/// Finds a rule by its pragma slug.
#[must_use]
pub fn rule_by_name(name: &str) -> Option<&'static RuleMeta> {
    RULES.iter().find(|r| r.name == name)
}

/// One hop of a transitive witness chain: "at `file:line`, control
/// passes to `symbol`" (first hop: the root's definition site; last
/// hop: the offending construct itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    /// Qualified function name, or the offending needle for the final
    /// hop (`.expect(`).
    pub symbol: String,
    /// Workspace-relative file of the hop.
    pub file: String,
    /// 1-based line of the hop.
    pub line: usize,
}

/// One diagnostic: either a rule violation or a pragma problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`D1` … `P4`, or `stale-pragma` / `bad-pragma`).
    pub rule_id: String,
    /// Pragma slug (`wall-clock`, …); same as `rule_id` for pragma
    /// problems.
    pub rule_name: String,
    /// Human-readable message.
    pub message: String,
    /// Witness chain for transitive (T/P4) rules; empty for line
    /// rules.
    pub chain: Vec<ChainHop>,
}

impl Violation {
    /// `file:line: id(name) — message`, the grep-able diagnostic form.
    /// Transitive violations append one indented line per witness hop.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}:{}: {}({}) — {}",
            self.file, self.line, self.rule_id, self.rule_name, self.message
        );
        for (i, hop) in self.chain.iter().enumerate() {
            let marker = if i == 0 {
                "root"
            } else if i + 1 == self.chain.len() {
                "sink"
            } else {
                "  →"
            };
            out.push_str(&format!("\n    {marker} {} ({}:{})", hop.symbol, hop.file, hop.line));
        }
        out
    }
}

/// A parsed `// lint: allow(<rule>) — <reason>` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based line the pragma comment sits on.
    pub line: usize,
    /// The rule slug it names (`unwrap`, `reach-panic`, …).
    pub rule: String,
    /// The mandatory written justification.
    pub reason: String,
    /// The pragma is a standalone comment line (no code before it), so
    /// it also covers the line directly below — mirroring how
    /// `#[allow]` attributes sit above the item they govern. A
    /// standalone pragma naming a `reach-*` rule directly above a `fn`
    /// definition covers the whole function (function granularity).
    pub comment_only: bool,
    /// Set when a violation or taint source consumed this pragma.
    pub used: bool,
}

impl Pragma {
    /// Whether this pragma covers a violation on `line`.
    #[must_use]
    pub fn covers(&self, line: usize) -> bool {
        self.line == line || (self.comment_only && self.line + 1 == line)
    }
}

/// Which rule families apply to a workspace-relative path.
#[derive(Debug, Clone, Copy, Default)]
struct Scope {
    wall_clock: bool,
    hash_iter: bool,
    panic_free: bool,
    bounded_loop: bool,
    durable_write: bool,
}

/// Crates whose non-test code must be panic-free (P rules). `trajectory`
/// is included because its model/prediction code runs inside the
/// engine's tick path.
const PANIC_FREE_CRATES: &[&str] = &[
    "crates/core/",
    "crates/recommender/",
    "crates/catalog/",
    "crates/userdata/",
    "crates/trajectory/",
    "crates/obs/",
];

/// Files whose map iteration can feed the ordered event stream. The
/// persist module is listed because snapshot bytes must be stable:
/// hash-ordered serialization would make two snapshots of the same
/// engine differ.
const HASH_ITER_FILES: &[&str] = &[
    "crates/core/src/engine.rs",
    "crates/core/src/bus.rs",
    "crates/core/src/persist/",
    "crates/recommender/src/",
];

/// The one module allowed to write files without a pragma: it owns the
/// fsync discipline (`FileWal` fsyncs every record).
const PERSIST_ALLOWLIST: &[&str] = &["crates/core/src/persist/"];

/// Bus/retry files where every `loop` needs an exit.
const BOUNDED_LOOP_FILES: &[&str] = &["crates/core/src/bus.rs", "crates/core/src/retry.rs"];

/// Modules allowed to read the OS clock: `obs::timing` holds the one
/// real implementation (stopwatches for spans and benchmarks);
/// `sim::timing` is its historical re-export shim and stays listed so
/// the boundary survives a future revert to a local definition. The
/// taint pass shares this list: functions defined here are never T1
/// sources.
pub(crate) const TIMING_ALLOWLIST: &[&str] =
    &["crates/obs/src/timing.rs", "crates/sim/src/timing.rs"];

fn scope_for(path: &str) -> Scope {
    let norm = path.replace('\\', "/");
    Scope {
        wall_clock: !TIMING_ALLOWLIST.iter().any(|f| norm.ends_with(f)),
        hash_iter: HASH_ITER_FILES.iter().any(|f| norm.contains(f)),
        panic_free: PANIC_FREE_CRATES.iter().any(|c| norm.contains(c)),
        bounded_loop: BOUNDED_LOOP_FILES.iter().any(|f| norm.contains(f)),
        durable_write: !PERSIST_ALLOWLIST.iter().any(|f| norm.contains(f)),
    }
}

/// Lints one file's source text with the line rules only. `path` is
/// the workspace-relative path used both for diagnostics and for rule
/// scoping. Stale-pragma accounting is local to the file; the
/// workspace binary uses [`crate::lint_workspace`], which shares
/// pragma usage between this pass and the taint pass before deciding
/// staleness.
#[must_use]
pub fn lint_source(path: &str, source: &str) -> Vec<Violation> {
    let lines = lex(source);
    let test_mask = test_line_mask(&lines);
    let mut pragmas = collect_pragmas(&lines);
    let mut out = line_pass(path, &lines, &test_mask, &mut pragmas);
    out.extend(stale_pass(path, &pragmas));
    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule_id.cmp(&b.rule_id)));
    out
}

/// The per-file line-rule pass. Marks consumed pragmas used but does
/// NOT report stale ones — staleness is decided by the caller once
/// every pass that can consume a pragma has run.
#[must_use]
pub(crate) fn line_pass(
    path: &str,
    lines: &[LexedLine],
    test_mask: &[bool],
    pragmas: &mut [Pragma],
) -> Vec<Violation> {
    let scope = scope_for(path);
    let hash_names = collect_hash_names(lines);
    let mut out: Vec<Violation> = Vec::new();

    // Malformed pragmas are reported unconditionally (even in test code:
    // a broken pragma anywhere is a lie waiting to spread by copy-paste).
    for (line_no, lexed) in lines.iter().enumerate() {
        for c in &lexed.comments {
            for problem in pragma_problems(c) {
                out.push(Violation {
                    file: path.to_string(),
                    line: line_no + 1,
                    rule_id: BAD_PRAGMA.to_string(),
                    rule_name: BAD_PRAGMA.to_string(),
                    message: problem,
                    chain: Vec::new(),
                });
            }
        }
    }

    for (idx, lexed) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let in_test = test_mask.get(idx).copied().unwrap_or(false);
        let code = lexed.code.as_str();
        let mut raw: Vec<(&'static RuleMeta, String)> = Vec::new();

        if scope.wall_clock {
            for needle in ["Instant::now", "SystemTime::now"] {
                if code.contains(needle) {
                    raw.push((rule(0), format!("`{needle}()` outside the obs::timing allowlist")));
                }
            }
            if code.contains("thread::sleep") || code.contains("std::thread::sleep") {
                raw.push((rule(1), "`thread::sleep` in workspace code".to_string()));
            }
        }
        for needle in ["thread_rng", "from_entropy"] {
            if code.contains(needle) {
                raw.push((rule(2), format!("`{needle}` draws unseeded OS entropy")));
            }
        }
        if scope.hash_iter && !in_test {
            let prev_code = idx.checked_sub(1).and_then(|p| lines.get(p)).map(|l| l.code.as_str());
            for m in hash_iteration_hits(code, prev_code, &hash_names) {
                raw.push((rule(3), m));
            }
        }
        if scope.panic_free && !in_test {
            if code.contains(".unwrap()") {
                raw.push((rule(4), "`.unwrap()` in non-test engine-path code".to_string()));
            }
            if code.contains(".expect(") {
                raw.push((rule(5), "`.expect(` in non-test engine-path code".to_string()));
            }
            for needle in ["panic!(", "unreachable!(", "todo!(", "unimplemented!("] {
                if code.contains(needle) {
                    raw.push((rule(6), format!("`{needle})` in non-test engine-path code")));
                }
            }
        }
        if code.contains("mpsc::channel()") {
            raw.push((rule(7), "unbounded `mpsc::channel()`".to_string()));
        }
        if scope.bounded_loop && !in_test && opens_unbounded_loop(lines, idx) {
            raw.push((
                rule(8),
                "`loop`/`while true` without `break`/`return` in bus/retry code".to_string(),
            ));
        }
        if scope.durable_write && !in_test {
            for needle in ["fs::write(", "File::create("] {
                if code.contains(needle) {
                    raw.push((
                        rule(9),
                        format!("`{needle}…)` writes a file without fsync outside core::persist"),
                    ));
                }
            }
        }

        for (meta, message) in raw {
            let suppressed = pragmas.iter_mut().any(|p| {
                if !p.used && p.covers(line_no) && p.rule == meta.name {
                    p.used = true;
                    true
                } else {
                    false
                }
            });
            if !suppressed {
                out.push(Violation {
                    file: path.to_string(),
                    line: line_no,
                    rule_id: meta.id.to_string(),
                    rule_name: meta.name.to_string(),
                    message,
                    chain: Vec::new(),
                });
            }
        }
    }
    out
}

/// Reports every pragma no pass consumed: a pragma that suppresses
/// nothing either outlived its violation or never matched it.
#[must_use]
pub(crate) fn stale_pass(path: &str, pragmas: &[Pragma]) -> Vec<Violation> {
    pragmas
        .iter()
        .filter(|p| !p.used)
        .map(|p| Violation {
            file: path.to_string(),
            line: p.line,
            rule_id: STALE_PRAGMA.to_string(),
            rule_name: STALE_PRAGMA.to_string(),
            message: format!(
                "pragma `allow({})` suppresses nothing it covers (reason: {})",
                p.rule, p.reason
            ),
            chain: Vec::new(),
        })
        .collect()
}

fn rule(i: usize) -> &'static RuleMeta {
    // RULES is a fixed-size constant; `i` is always a literal index in
    // this module, so fall back to the first rule rather than panic.
    RULES.get(i).unwrap_or(&RULES[0])
}

/// Marks lines belonging to `#[cfg(test)]` items (the attribute line
/// itself, the item header, and its brace-balanced body). Shared with
/// the symbol indexer, which skips test functions entirely.
pub(crate) fn test_line_mask(lines: &[LexedLine]) -> Vec<bool> {
    #[derive(PartialEq)]
    enum Skip {
        No,
        /// Saw the attribute; waiting for the item's opening `{` (or a
        /// `;` ending a braceless item). Payload: depth at the attribute.
        Pending(i64),
        /// Inside the item body; payload: depth to return to.
        Body(i64),
    }
    let mut mask = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut skip = Skip::No;
    for (i, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if skip == Skip::No && code.contains("#[cfg(test)]") {
            skip = Skip::Pending(depth);
        }
        let mut line_depth = depth;
        let mut opened = false;
        let mut closed_to_base = false;
        for c in code.chars() {
            match c {
                '{' => {
                    line_depth += 1;
                    opened = true;
                }
                '}' => {
                    line_depth -= 1;
                    if let Skip::Body(base) | Skip::Pending(base) = skip {
                        if line_depth <= base {
                            closed_to_base = true;
                        }
                    }
                }
                _ => {}
            }
        }
        match skip {
            Skip::No => {}
            Skip::Pending(base) => {
                mask[i] = true;
                if opened && !closed_to_base {
                    skip = Skip::Body(base);
                } else if closed_to_base || code.contains(';') {
                    // Braceless item (`#[cfg(test)] use …;`) or a
                    // one-line `mod t { … }`.
                    if opened || code.contains(';') {
                        skip = Skip::No;
                    }
                }
            }
            Skip::Body(_) => {
                mask[i] = true;
                if closed_to_base {
                    skip = Skip::No;
                }
            }
        }
        depth = line_depth;
    }
    mask
}

/// First pass of the `hash-iter` rule: names declared with a
/// `HashMap`/`HashSet` type anywhere in the file (fields, lets,
/// parameters — including `&HashMap<…>` borrows).
pub(crate) fn collect_hash_names(lines: &[LexedLine]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in lines {
        let code = line.code.as_str();
        if !(code.contains("HashMap") || code.contains("HashSet")) {
            continue;
        }
        // `name: [&][std::collections::]Hash{Map,Set}<…>`
        for (pos, _) in code.match_indices("Hash") {
            let after = &code[pos..];
            if !(after.starts_with("HashMap") || after.starts_with("HashSet")) {
                continue;
            }
            let before = &code[..pos];
            let trimmed = before
                .trim_end_matches(|c: char| c.is_whitespace())
                .trim_end_matches("std::collections::")
                .trim_end_matches(|c: char| c.is_whitespace())
                .trim_end_matches('&')
                .trim_end_matches("mut")
                .trim_end_matches(|c: char| c.is_whitespace());
            if let Some(rest) = trimmed.strip_suffix(':') {
                if let Some(name) = trailing_ident(rest) {
                    push_unique(&mut names, name);
                }
            }
            // `let [mut] name = Hash{Map,Set}::new()` / `::with_capacity`
            if let Some(rest) = trimmed.strip_suffix('=') {
                if let Some(name) = trailing_ident(rest) {
                    push_unique(&mut names, name);
                }
            }
        }
    }
    names
}

fn push_unique(names: &mut Vec<String>, name: String) {
    if !name.is_empty() && !names.contains(&name) {
        names.push(name);
    }
}

/// [`trailing_ident`] adapted to `Option`-chaining over `&str`.
fn trailing_ident_opt(text: &str) -> Option<String> {
    trailing_ident(text)
}

/// The identifier ending `text`, skipping trailing whitespace and an
/// optional `mut` / generic-less type ascription.
fn trailing_ident(text: &str) -> Option<String> {
    let t = text.trim_end();
    let ident: String = t
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(ident)
    }
}

/// Iteration method suffixes that expose hash ordering.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".retain(",
];

/// Second pass of the `hash-iter` rule: flags iteration idioms over the
/// collected names (`name.iter()`, `for … in &name`, …). `prev_code`
/// catches rustfmt-wrapped chains where `.values()` starts a line and
/// the receiver sits on the line above.
pub(crate) fn hash_iteration_hits(
    code: &str,
    prev_code: Option<&str>,
    names: &[String],
) -> Vec<String> {
    let mut hits = Vec::new();
    for m in ITER_METHODS {
        for (pos, _) in code.match_indices(m) {
            let receiver = if code[..pos].trim().is_empty() {
                prev_code.and_then(trailing_ident_opt)
            } else {
                trailing_ident(&code[..pos])
            };
            if let Some(ident) = receiver {
                if names.contains(&ident) {
                    hits.push(format!("iteration `{ident}{m}…` over a hash collection"));
                }
            }
        }
    }
    // `for x in [&[mut ]]name {` / `for x in [&]self.name {`
    if let Some(pos) = code.find("for ") {
        if let Some(in_pos) = code[pos..].find(" in ") {
            let expr = code[pos + in_pos + 4..].trim();
            let expr = expr.split('{').next().unwrap_or("").trim();
            let bare = expr
                .trim_start_matches('&')
                .trim_start_matches("mut ")
                .trim_start_matches("self.")
                .trim();
            if names.iter().any(|n| n == bare) {
                hits.push(format!("`for … in {expr}` iterates a hash collection"));
            }
        }
    }
    hits
}

/// Whether line `idx` opens a `loop` — or a `while true` /
/// `while 1 == 1`-style constant-condition loop — whose brace-balanced
/// body contains neither `break` nor `return`.
fn opens_unbounded_loop(lines: &[LexedLine], idx: usize) -> bool {
    let Some(first) = lines.get(idx) else { return false };
    let code = first.code.as_str();
    let Some(loop_pos) = find_loop_keyword(code).or_else(|| find_const_while(code)) else {
        return false;
    };
    // Scan forward from the `loop` keyword, counting braces until the
    // body closes; look for an exit on the way.
    let mut depth = 0i64;
    let mut entered = false;
    let mut i = idx;
    let mut col = loop_pos;
    while i < lines.len() {
        let Some(line) = lines.get(i) else { break };
        let tail: String = line.code.chars().skip(col).collect();
        if (entered || tail.contains('{')) && has_exit_keyword(&tail) {
            return false;
        }
        for c in tail.chars() {
            match c {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' => {
                    depth -= 1;
                    if entered && depth <= 0 {
                        return true;
                    }
                }
                _ => {}
            }
        }
        i += 1;
        col = 0;
    }
    // Unterminated body: treat as unbounded.
    entered
}

/// Position of a standalone `loop` keyword in `code`, if any.
fn find_loop_keyword(code: &str) -> Option<usize> {
    for (pos, _) in code.match_indices("loop") {
        let before_ok = pos == 0
            || code[..pos]
                .chars()
                .next_back()
                .is_none_or(|c| !(c.is_alphanumeric() || c == '_' || c == '.'));
        let after = code[pos + 4..].chars().next();
        let after_ok = after.is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if before_ok && after_ok {
            return Some(pos);
        }
    }
    None
}

/// Position of a `while` whose condition is constant-true — `while
/// true {`, `while (true) {`, `while 1 == 1 {` — i.e. a `loop {}` in
/// disguise that the B2 check must treat identically. Conditions that
/// can actually falsify (`while x`, `while let …`) are ignored, as is
/// a condition that does not close with `{` on the same line.
fn find_const_while(code: &str) -> Option<usize> {
    for (pos, _) in code.match_indices("while") {
        let before_ok = pos == 0
            || code[..pos]
                .chars()
                .next_back()
                .is_none_or(|c| !(c.is_alphanumeric() || c == '_' || c == '.'));
        let after = code[pos + 5..].chars().next();
        if !(before_ok && after.is_some_and(char::is_whitespace)) {
            continue;
        }
        let Some(brace_off) = code[pos..].find('{') else { continue };
        let cond = code[pos + 5..pos + brace_off].trim();
        // Strip one level of redundant parens: `while (true)`.
        let cond = cond.strip_prefix('(').and_then(|c| c.strip_suffix(')')).map_or(cond, str::trim);
        let const_true = cond == "true"
            || cond.split_once("==").is_some_and(|(l, r)| {
                let (l, r) = (l.trim(), r.trim());
                !l.is_empty() && l == r && l.chars().all(|c| c.is_alphanumeric() || c == '.')
            });
        if const_true {
            return Some(pos);
        }
    }
    None
}

fn has_exit_keyword(code: &str) -> bool {
    for kw in ["break", "return"] {
        for (pos, _) in code.match_indices(kw) {
            let before_ok = pos == 0
                || code[..pos]
                    .chars()
                    .next_back()
                    .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
            let after = code[pos + kw.len()..].chars().next();
            let after_ok = after.is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
            if before_ok && after_ok {
                return true;
            }
        }
    }
    false
}

/// Parses the pragmas in one file. A pragma lives in a comment on the
/// offending line: `// lint: allow(<rule>) — <reason>`.
pub(crate) fn collect_pragmas(lines: &[LexedLine]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let comment_only = line.code.trim().trim_start_matches('/').trim().is_empty();
        for c in &line.comments {
            for (rule, reason) in parse_allow_clauses(c) {
                if rule_by_name(&rule).is_some() && !reason.is_empty() {
                    out.push(Pragma { line: idx + 1, rule, reason, comment_only, used: false });
                }
            }
        }
    }
    out
}

/// Problems with pragma syntax in one comment: unknown rule names and
/// missing reasons. Returns human messages.
fn pragma_problems(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (rule, reason) in parse_allow_clauses(comment) {
        if rule_by_name(&rule).is_none() {
            out.push(format!("pragma names unknown rule `{rule}`"));
        } else if reason.is_empty() {
            out.push(format!("pragma `allow({rule})` is missing its mandatory `— <reason>`"));
        }
    }
    out
}

/// Extracts `(rule, reason)` pairs from a comment containing
/// `lint: allow(<rule>) — <reason>`. The reason separator is an em
/// dash, a double hyphen, or a colon; the reason runs to end of
/// comment (or the next `lint:` clause).
///
/// The first clause must open the comment (only whitespace before
/// `lint:`), so documentation *prose* that merely mentions the pragma
/// grammar is never parsed as a pragma.
fn parse_allow_clauses(comment: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if !comment.trim_start().starts_with("lint:") {
        return out;
    }
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:") {
        let clause = &rest[pos + 5..];
        let Some(open) = clause.find("allow(") else {
            rest = clause;
            continue;
        };
        // `allow(` must follow `lint:` with only whitespace between.
        if !clause[..open].trim().is_empty() {
            rest = clause;
            continue;
        }
        let after_open = &clause[open + 6..];
        let Some(close) = after_open.find(')') else {
            out.push((after_open.trim().to_string(), String::new()));
            break;
        };
        let rule = after_open[..close].trim().to_string();
        let tail = &after_open[close + 1..];
        let next_clause = tail.find("lint:");
        let reason_src = next_clause.map_or(tail, |p| &tail[..p]);
        let reason = reason_src
            .trim_start()
            .trim_start_matches(['—', '–'])
            .trim_start_matches("--")
            .trim_start_matches('-')
            .trim_start_matches(':')
            .trim()
            .to_string();
        // A reason requires an explicit separator; bare trailing text
        // without one does not count.
        let has_sep = {
            let t = reason_src.trim_start();
            t.starts_with('—')
                || t.starts_with('–')
                || t.starts_with("--")
                || t.starts_with('-')
                || t.starts_with(':')
        };
        out.push((rule, if has_sep { reason } else { String::new() }));
        rest = next_clause.map_or("", |p| &tail[p..]);
        if rest.is_empty() {
            break;
        }
    }
    out
}
