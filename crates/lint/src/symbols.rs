//! Pass 1a of the interprocedural analyzer: the workspace symbol
//! index.
//!
//! Builds, from the [`crate::lexer`] output of every `crates/*/src`
//! file, a table of function definitions resolved to module paths —
//! `core::engine::Engine::run_tick`, `geo::polyline::Polyline::point_at`
//! — together with each function's body span (for call-site and
//! taint-source attribution) and each file's `use`-alias map (for call
//! resolution in [`crate::callgraph`]).
//!
//! The parser is deliberately shallow: it tracks brace depth, a scope
//! stack (`mod` / `impl` / `trait` / `fn`), and `use` declarations,
//! which is enough to resolve first-party code laid out by rustfmt.
//! It shares the lexer's totality contract — arbitrary bytes in,
//! no panics out — which the property suite checks over both random
//! input and mutated real workspace sources.

use std::collections::BTreeMap;

use crate::lexer::LexedLine;

/// Module path for a workspace-relative file path.
///
/// `crates/core/src/lib.rs` → `["core"]`,
/// `crates/core/src/persist/wal.rs` → `["core", "persist", "wal"]`,
/// `crates/bench/src/bin/experiments.rs` → `["bench", "bin", "experiments"]`.
/// Returns `None` for paths outside the `crates/*/src` layout.
#[must_use]
pub fn module_path_of(rel_path: &str) -> Option<Vec<String>> {
    let norm = rel_path.replace('\\', "/");
    let mut parts = norm.split('/');
    if parts.next()? != "crates" {
        return None;
    }
    let crate_dir = parts.next()?;
    if parts.next()? != "src" {
        return None;
    }
    let ns = crate_dir.replace('-', "_");
    let mut path = vec![ns];
    let rest: Vec<&str> = parts.collect();
    for (i, seg) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        if last {
            let stem = seg.strip_suffix(".rs").unwrap_or(seg);
            if stem != "lib" && stem != "main" && stem != "mod" {
                path.push(stem.to_string());
            }
        } else {
            path.push((*seg).to_string());
        }
    }
    Some(path)
}

/// Canonicalizes the first segment of a `use` path or call path:
/// `pphcr_core` and the directory name `core` both map to the `core`
/// namespace; `crate`, `super`, `self` and `Self` are resolved by the
/// caller, which knows the current module and impl target.
#[must_use]
pub fn canonical_crate(seg: &str) -> String {
    seg.strip_prefix("pphcr_").unwrap_or(seg).to_string()
}

/// One function definition found in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Fully-qualified name: `core::engine::Engine::run_tick`.
    pub qualified: String,
    /// Bare function name: `run_tick`.
    pub name: String,
    /// Enclosing `impl`/`trait` target type, if any: `Engine`.
    pub owner: Option<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Index of the file in [`SymbolIndex::files`].
    pub file_idx: usize,
}

/// Per-file parse results kept for pass 1b and pass 2.
#[derive(Debug, Clone)]
pub struct FileSymbols {
    /// Workspace-relative path.
    pub path: String,
    /// Module path of the file root (`["core", "engine"]`).
    pub module: Vec<String>,
    /// `use` aliases: last-segment name → full canonical path.
    pub uses: BTreeMap<String, Vec<String>>,
    /// Glob imports: canonical path prefixes from `use a::b::*`.
    pub globs: Vec<Vec<String>>,
    /// For each 0-based line, the innermost enclosing function (index
    /// into [`SymbolIndex::fns`]), if any.
    pub fn_of_line: Vec<Option<usize>>,
    /// Test-code mask from the line pass (`#[cfg(test)]` items).
    pub test_mask: Vec<bool>,
}

/// The workspace-wide symbol table.
#[derive(Debug, Clone, Default)]
pub struct SymbolIndex {
    /// Every function definition, in file-then-line order.
    pub fns: Vec<FnDef>,
    /// Per-file scope data, parallel to the file list fed in.
    pub files: Vec<FileSymbols>,
    /// qualified name → fn indices (trait impls can collide).
    pub by_qualified: BTreeMap<String, Vec<usize>>,
    /// `Owner::name` suffix → fn indices (resolves re-exported paths).
    pub by_owner_name: BTreeMap<String, Vec<usize>>,
    /// method name → fn indices with an owner (dot-call candidates).
    pub by_method: BTreeMap<String, Vec<usize>>,
}

/// What the next opening brace introduces.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Pending {
    None,
    Mod(String),
    Owner(String),
    Fn { name: String, line: usize },
}

/// One entry per open brace that introduced a named scope.
#[derive(Debug, Clone)]
enum Scope {
    Mod(String),
    Owner(String),
    Fn(usize),
    Block,
}

impl SymbolIndex {
    /// Indexes one file and appends its symbols. `test_mask` marks
    /// `#[cfg(test)]` lines; functions defined there are skipped
    /// entirely (test code may panic and call anything).
    pub fn add_file(&mut self, rel_path: &str, lines: &[LexedLine], test_mask: &[bool]) {
        let file_idx = self.files.len();
        let module = module_path_of(rel_path).unwrap_or_else(|| vec!["unknown".to_string()]);
        let mut fs = FileSymbols {
            path: rel_path.to_string(),
            module: module.clone(),
            uses: BTreeMap::new(),
            globs: Vec::new(),
            fn_of_line: vec![None; lines.len()],
            test_mask: test_mask.to_vec(),
        };

        let mut scopes: Vec<Scope> = Vec::new();
        let mut pending = Pending::None;
        // Multi-line `use` statements accumulate until their `;`.
        let mut use_buf: Option<String> = None;

        for (idx, line) in lines.iter().enumerate() {
            let code = line.code.as_str();
            let in_test = test_mask.get(idx).copied().unwrap_or(false);

            // `use` accumulation runs even across pending scopes.
            if let Some(buf) = use_buf.as_mut() {
                buf.push(' ');
                buf.push_str(code);
                if code.contains(';') {
                    let stmt = std::mem::take(buf);
                    use_buf = None;
                    record_use(&stmt, &module, &mut fs);
                }
                continue;
            }
            let trimmed = code.trim_start();
            if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
                if code.contains(';') {
                    record_use(code, &module, &mut fs);
                } else {
                    use_buf = Some(code.to_string());
                }
                // A `use` line opens no scope; still fall through to
                // brace counting? Use statements with `{` lists would
                // corrupt the scope stack, so handle them fully here.
                continue;
            }

            // Detect what an opening brace on this line would start.
            // Declarations seen before the brace arrives stay pending.
            if pending == Pending::None || !in_test {
                if let Some(p) = detect_declaration(code, idx, in_test) {
                    pending = p;
                }
            }

            // Record innermost enclosing fn before processing braces
            // (the def line itself belongs to the fn; a closing line
            // still belongs to the scope it closes).
            fs.fn_of_line[idx] = scopes.iter().rev().find_map(|s| match s {
                Scope::Fn(i) => Some(*i),
                _ => None,
            });

            // A `;` before any `{` cancels a pending declaration
            // (trait method signature, `mod name;`, `fn` in a macro).
            for c in code.chars() {
                match c {
                    ';' => pending = Pending::None,
                    '{' => {
                        let scope = match std::mem::replace(&mut pending, Pending::None) {
                            Pending::None => Scope::Block,
                            Pending::Mod(name) => Scope::Mod(name),
                            Pending::Owner(name) => Scope::Owner(name),
                            Pending::Fn { name, line } => {
                                if in_test {
                                    Scope::Block
                                } else {
                                    let def = self.make_def(
                                        &name, &module, &scopes, rel_path, line, file_idx,
                                    );
                                    self.fns.push(def);
                                    let fn_idx = self.fns.len() - 1;
                                    // The def line itself maps to the fn.
                                    for l in fs.fn_of_line.iter_mut().take(idx + 1).skip(line - 1) {
                                        if l.is_none() {
                                            *l = Some(fn_idx);
                                        }
                                    }
                                    Scope::Fn(fn_idx)
                                }
                            }
                        };
                        scopes.push(scope);
                        // Re-evaluate innermost for the rest of this
                        // line: body code after `{` belongs to the fn.
                        if let Some(Scope::Fn(i)) = scopes.last() {
                            fs.fn_of_line[idx] = Some(*i);
                        }
                    }
                    '}' => {
                        scopes.pop();
                    }
                    _ => {}
                }
            }
        }
        self.files.push(fs);
    }

    /// Rebuilds the lookup maps; call once after all files are added.
    pub fn finish(&mut self) {
        self.by_qualified.clear();
        self.by_owner_name.clear();
        self.by_method.clear();
        for (i, def) in self.fns.iter().enumerate() {
            self.by_qualified.entry(def.qualified.clone()).or_default().push(i);
            if let Some(owner) = &def.owner {
                self.by_owner_name.entry(format!("{owner}::{}", def.name)).or_default().push(i);
                self.by_method.entry(def.name.clone()).or_default().push(i);
            } else {
                self.by_owner_name.entry(def.name.clone()).or_default().push(i);
            }
        }
    }

    fn make_def(
        &self,
        name: &str,
        module: &[String],
        scopes: &[Scope],
        rel_path: &str,
        line: usize,
        file_idx: usize,
    ) -> FnDef {
        let mut path: Vec<String> = module.to_vec();
        let mut owner = None;
        for s in scopes {
            match s {
                Scope::Mod(m) => path.push(m.clone()),
                Scope::Owner(t) => owner = Some(t.clone()),
                _ => {}
            }
        }
        if let Some(t) = &owner {
            path.push(t.clone());
        }
        path.push(name.to_string());
        FnDef {
            qualified: path.join("::"),
            name: name.to_string(),
            owner,
            file: rel_path.to_string(),
            line,
            file_idx,
        }
    }
}

/// Detects a `mod` / `impl` / `trait` / `fn` declaration on `code`
/// whose body brace may open on this or a later line.
fn detect_declaration(code: &str, _idx: usize, in_test: bool) -> Option<Pending> {
    let trimmed = code.trim_start();
    // `mod tests {` inside cfg(test) is masked already; a named inline
    // module otherwise contributes to the path.
    if let Some(rest) = strip_keyword(trimmed, "mod") {
        let name: String = ident_prefix(rest);
        if !name.is_empty() && !in_test {
            return Some(Pending::Mod(name));
        }
    }
    if let Some(rest) = strip_impl_or_trait(trimmed) {
        if let Some(target) = impl_target(rest) {
            return Some(Pending::Owner(target));
        }
    }
    if let Some(pos) = find_fn_keyword(code) {
        let rest = &code[pos + 2..];
        let rest = rest.trim_start();
        let name: String = ident_prefix(rest);
        if !name.is_empty() {
            return Some(Pending::Fn { name, line: _idx + 1 });
        }
    }
    None
}

/// Strips a leading keyword (after visibility modifiers) returning the
/// remainder, or `None`.
fn strip_keyword<'a>(trimmed: &'a str, kw: &str) -> Option<&'a str> {
    let t = strip_visibility(trimmed);
    let rest = t.strip_prefix(kw)?;
    if rest.starts_with(|c: char| c.is_whitespace()) {
        Some(rest.trim_start())
    } else {
        None
    }
}

fn strip_visibility(s: &str) -> &str {
    let t = s.trim_start();
    if let Some(rest) = t.strip_prefix("pub") {
        let rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix('(') {
            // pub(crate) / pub(super) / pub(in path)
            if let Some(close) = after.find(')') {
                return after[close + 1..].trim_start();
            }
        }
        return rest;
    }
    t
}

/// `impl …` or `trait …` header → the text after the keyword.
fn strip_impl_or_trait(trimmed: &str) -> Option<&str> {
    let t = strip_visibility(trimmed);
    for kw in ["impl", "trait"] {
        if let Some(rest) = t.strip_prefix(kw) {
            if rest.starts_with(|c: char| c.is_whitespace() || c == '<') {
                return Some(rest);
            }
        }
    }
    None
}

/// Extracts the target type name from an impl/trait header remainder:
/// `<T> Foo<T> {` → `Foo`, `Transport for FaultyTransport {` →
/// `FaultyTransport`, `Ord for Envelope {` → `Envelope`.
fn impl_target(rest: &str) -> Option<String> {
    let mut s = rest;
    // Skip generic parameter list directly after the keyword.
    if s.trim_start().starts_with('<') {
        s = skip_angle_group(s.trim_start());
    }
    let s = s.trim_start();
    // `Trait for Type` → take the part after ` for `.
    let target_part = s.rsplit(" for ").next().unwrap_or(s);
    let target_part = target_part.trim();
    // Drop the opening brace / where clause tail.
    let target_part = target_part.split('{').next().unwrap_or("").trim();
    let target_part = target_part.split(" where").next().unwrap_or("").trim();
    // Last path segment, generics stripped: `bus::Envelope<T>` → `Envelope`.
    let last = target_part.rsplit("::").next().unwrap_or("");
    let name: String =
        ident_prefix(last.trim_start_matches(['&', ' ']).trim_start_matches("mut ").trim_start());
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

/// Skips a balanced `<…>` group at the start of `s`.
fn skip_angle_group(s: &str) -> &str {
    let mut depth = 0i64;
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth <= 0 {
                    return &s[i + 1..];
                }
            }
            _ => {}
        }
    }
    ""
}

/// Leading identifier of `s`.
fn ident_prefix(s: &str) -> String {
    s.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect()
}

/// Position of a standalone `fn` keyword in `code`, skipping strings
/// (already blanked) and identifiers like `async_fn`.
fn find_fn_keyword(code: &str) -> Option<usize> {
    for (pos, _) in code.match_indices("fn") {
        let before_ok = pos == 0
            || code[..pos].chars().next_back().is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        let after = code[pos + 2..].chars().next();
        let after_ok = after.is_some_and(char::is_whitespace);
        if before_ok && after_ok {
            return Some(pos);
        }
    }
    None
}

/// Parses one complete `use …;` statement into the alias map.
fn record_use(stmt: &str, module: &[String], fs: &mut FileSymbols) {
    let t = stmt.trim();
    let t = strip_visibility(t);
    let Some(rest) = t.strip_prefix("use ") else { return };
    let body = rest.split(';').next().unwrap_or(rest).trim();
    expand_use_tree(body, &[], module, fs);
}

/// Recursively expands `a::b::{c, d as e, f::*}` into alias entries.
fn expand_use_tree(tree: &str, prefix: &[String], module: &[String], fs: &mut FileSymbols) {
    let tree = tree.trim();
    if tree.is_empty() {
        return;
    }
    if let Some(brace) = tree.find('{') {
        let head = tree[..brace].trim().trim_end_matches("::");
        let inner = tree[brace + 1..]
            .rfind('}')
            .map_or(&tree[brace + 1..], |p| &tree[brace + 1..brace + 1 + p]);
        let mut new_prefix = prefix.to_vec();
        extend_path(&mut new_prefix, head, module);
        for part in split_top_level(inner) {
            expand_use_tree(part, &new_prefix, module, fs);
        }
        return;
    }
    // Leaf: `a::b::C`, `a::b::C as D`, `a::b::*`, `self`.
    let (path_part, alias) = match tree.split_once(" as ") {
        Some((p, a)) => (p.trim(), Some(a.trim().to_string())),
        None => (tree, None),
    };
    let mut full = prefix.to_vec();
    extend_path(&mut full, path_part, module);
    let Some(last) = full.last().cloned() else { return };
    if last == "*" {
        full.pop();
        if !full.is_empty() {
            fs.globs.push(full);
        }
        return;
    }
    if last == "self" {
        // `use a::b::{self, C}` — alias `b` → `a::b`.
        full.pop();
        if let Some(tail) = full.last().cloned() {
            fs.uses.insert(tail, full);
        }
        return;
    }
    let name = alias.unwrap_or(last);
    if !name.is_empty() {
        fs.uses.insert(name, full);
    }
}

/// Appends `path_part` segments to `out`, resolving the leading
/// `crate`/`super`/`self`/crate-name segment against `module`.
fn extend_path(out: &mut Vec<String>, path_part: &str, module: &[String]) {
    for (i, seg) in path_part.split("::").enumerate() {
        let seg = seg.trim();
        if seg.is_empty() {
            continue;
        }
        if i == 0 && out.is_empty() {
            match seg {
                "crate" => {
                    out.extend(module.first().cloned());
                    continue;
                }
                "super" => {
                    let take = module.len().saturating_sub(1);
                    out.extend(module.iter().take(take).cloned());
                    continue;
                }
                "self" => {
                    out.extend(module.iter().cloned());
                    continue;
                }
                "std" | "core" | "alloc" => {
                    // Standard-library import: keep verbatim so the
                    // resolver can recognise and ignore it. (`core`
                    // the stdlib crate is shadowed by our `core`
                    // namespace only for `pphcr_core` imports.)
                    out.push(format!("#std::{seg}"));
                    continue;
                }
                _ => {
                    out.push(canonical_crate(seg));
                    continue;
                }
            }
        } else if i == 0 {
            out.push(canonical_crate(seg));
            continue;
        }
        if seg == "super" {
            out.pop();
        } else {
            out.push(seg.to_string());
        }
    }
}

/// Splits `inner` on top-level commas (ignoring nested braces).
fn split_top_level(inner: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = 0usize;
    for (i, c) in inner.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&inner[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_line_mask;

    fn index(path: &str, src: &str) -> SymbolIndex {
        let lines = lex(src);
        let mask = test_line_mask(&lines);
        let mut idx = SymbolIndex::default();
        idx.add_file(path, &lines, &mask);
        idx.finish();
        idx
    }

    #[test]
    fn module_paths_follow_file_layout() {
        assert_eq!(module_path_of("crates/core/src/lib.rs"), Some(vec!["core".into()]));
        assert_eq!(
            module_path_of("crates/core/src/persist/wal.rs"),
            Some(vec!["core".into(), "persist".into(), "wal".into()])
        );
        assert_eq!(
            module_path_of("crates/core/src/persist/mod.rs"),
            Some(vec!["core".into(), "persist".into()])
        );
        assert_eq!(module_path_of("src/main.rs"), None);
    }

    #[test]
    fn free_fn_and_method_are_qualified() {
        let idx = index(
            "crates/core/src/engine.rs",
            "pub fn helper() {}\nimpl Engine {\n    pub fn run_tick(&mut self) {\n        helper();\n    }\n}\n",
        );
        let names: Vec<&str> = idx.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert!(names.contains(&"core::engine::helper"), "{names:?}");
        assert!(names.contains(&"core::engine::Engine::run_tick"), "{names:?}");
    }

    #[test]
    fn trait_impl_target_resolves_to_type() {
        let idx = index(
            "crates/core/src/bus.rs",
            "impl Transport for FaultyTransport {\n    fn send(&mut self) {}\n}\n",
        );
        assert_eq!(idx.fns[0].qualified, "core::bus::FaultyTransport::send");
    }

    #[test]
    fn generic_impl_target_strips_generics() {
        let idx = index(
            "crates/core/src/bus.rs",
            "impl<T: Clone> Queue<T> {\n    fn push_back(&mut self, t: T) {}\n}\n",
        );
        assert_eq!(idx.fns[0].qualified, "core::bus::Queue::push_back");
        assert_eq!(idx.fns[0].owner.as_deref(), Some("Queue"));
    }

    #[test]
    fn test_functions_are_skipped() {
        let idx = index(
            "crates/core/src/bus.rs",
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}\n",
        );
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "real");
    }

    #[test]
    fn use_aliases_resolve_crate_names_and_braces() {
        let idx = index(
            "crates/recommender/src/context.rs",
            "use pphcr_geo::{Polyline, TimePoint as TP};\nuse crate::score::ScoreModel;\nfn f() {}\n",
        );
        let fs = &idx.files[0];
        assert_eq!(fs.uses.get("Polyline"), Some(&vec!["geo".into(), "Polyline".into()]));
        assert_eq!(fs.uses.get("TP"), Some(&vec!["geo".into(), "TimePoint".into()]));
        assert_eq!(
            fs.uses.get("ScoreModel"),
            Some(&vec!["recommender".into(), "score".into(), "ScoreModel".into()])
        );
    }

    #[test]
    fn multiline_use_statements_accumulate() {
        let idx = index(
            "crates/core/src/engine.rs",
            "use pphcr_geo::{\n    GeoPoint,\n    TimePoint,\n};\nfn f() {}\n",
        );
        let fs = &idx.files[0];
        assert_eq!(fs.uses.get("GeoPoint"), Some(&vec!["geo".into(), "GeoPoint".into()]));
        assert_eq!(fs.uses.get("TimePoint"), Some(&vec!["geo".into(), "TimePoint".into()]));
    }

    #[test]
    fn fn_of_line_attributes_bodies_to_innermost_fn() {
        let idx = index(
            "crates/core/src/engine.rs",
            "fn outer() {\n    inner_call();\n}\nfn second() {\n    other();\n}\n",
        );
        let fs = &idx.files[0];
        assert_eq!(fs.fn_of_line[1], Some(0));
        assert_eq!(fs.fn_of_line[4], Some(1));
    }

    #[test]
    fn trait_method_signatures_without_body_are_not_defs() {
        let idx = index(
            "crates/core/src/bus.rs",
            "pub trait Transport {\n    fn send(&mut self, e: Envelope);\n    fn flush(&mut self) {\n    }\n}\n",
        );
        let names: Vec<&str> = idx.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(names, vec!["core::bus::Transport::flush"]);
    }
}
