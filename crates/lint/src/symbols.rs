//! Workspace symbol table and call graph.
//!
//! Built from the per-file [`crate::parse::ParsedFile`] output of every
//! crate, this module answers the question the v2 rules need: *which
//! workspace function does this call expression land in?* Resolution is
//! deliberately conservative (DESIGN.md §15):
//!
//! * **Path calls** resolve through their leading segment: `crate`,
//!   `self`, `super` and bare module names stay in the calling crate;
//!   a workspace crate name (`rectpart_core`, ...) or a `use` alias
//!   crosses crates. The last one or two segments are tried as
//!   `fn` / `Type::fn`.
//! * **`self.m(...)`** resolves inside the enclosing impl type.
//! * **Other `.m(...)` method calls** resolve only when `m` names
//!   exactly one method across the whole workspace *and* `m` is not a
//!   common standard-library method name ([`STD_METHODS`]). Anything
//!   ambiguous produces **no edge** — that is the explicit escape
//!   hatch: the analysis under-approximates rather than guesses.
//!
//! On top of the edges, [`CallGraph::panic_reachable`] computes which
//! functions can transitively reach an (unwaived) panicking construct,
//! and remembers one deterministic witness hop per function so L6 can
//! print the full chain from any call site down to the root construct.

use crate::parse::{Call, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Method names that are overwhelmingly likely to be standard-library
/// calls; unique-name method resolution refuses to bind them to
/// workspace methods. This is the deny half of the ambiguity escape
/// hatch — extend it rather than letting a std call alias a workspace
/// method.
pub const STD_METHODS: [&str; 60] = [
    "new",
    "default",
    "clone",
    "fmt",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "collect",
    "map",
    "and_then",
    "filter",
    "fold",
    "sum",
    "min",
    "max",
    "cmp",
    "eq",
    "hash",
    "drop",
    "from",
    "into",
    "to_string",
    "as_str",
    "parse",
    "join",
    "lock",
    "unwrap_or",
    "extend",
    "contains",
    "sort",
    "write",
    "chain",
    "zip",
    "rev",
    "enumerate",
    "take",
    "skip",
    "count",
    "find",
    "position",
    "any",
    "all",
    "flat_map",
    "filter_map",
    "last",
    "windows",
    "chunks",
    "swap",
    "resize",
    "split",
    "trim",
];

/// Identifier of one function in the [`SymbolTable`].
pub type FnId = usize;

/// One function known to the workspace.
#[derive(Debug, Clone)]
pub struct FnSymbol {
    /// Crate directory name (`core`, `onedim`, ...).
    pub krate: String,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Enclosing impl/trait type, if a method.
    pub self_type: Option<String>,
    /// 1-based declaration line.
    pub line: usize,
    /// `true` when declared in test code (`#[cfg(test)]` / `#[test]`).
    pub is_test: bool,
    /// `true` when the defining file is library code (`src/`).
    pub is_library: bool,
}

/// Display name used in diagnostics: `crate::Type::name` / `crate::name`.
impl FnSymbol {
    /// Qualified name for chain rendering.
    pub fn qualified(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{}::{}::{}", self.krate, t, self.name),
            None => format!("{}::{}", self.krate, self.name),
        }
    }
}

/// An unwaived panicking construct inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSource {
    /// 1-based line of the construct.
    pub line: usize,
    /// Human-readable description, e.g. ``slice index `xs[i]` ``.
    pub what: String,
}

/// The workspace symbol table: every parsed function plus the indices
/// resolution needs.
#[derive(Debug, Default)]
pub struct SymbolTable {
    fns: Vec<FnSymbol>,
    /// `(crate, fn_name)` → ids of free functions.
    free_by_crate: BTreeMap<(String, String), Vec<FnId>>,
    /// `(crate, type, fn_name)` → ids of methods.
    method_by_type: BTreeMap<(String, String, String), Vec<FnId>>,
    /// method name → ids across the workspace (for unique-name fallback).
    method_by_name: BTreeMap<String, Vec<FnId>>,
    /// crate dir name ↔ rust package ident (`core` ↔ `rectpart_core`).
    crate_idents: BTreeMap<String, String>,
}

impl SymbolTable {
    /// Registers the crates that exist, mapping their directory names to
    /// the `use`-path identifiers (`core` → `rectpart_core`, shims keep
    /// their own name).
    pub fn register_crate(&mut self, dir_name: &str, package_ident: &str) {
        self.crate_idents
            .insert(package_ident.to_string(), dir_name.to_string());
    }

    /// Adds every function of a parsed file. Returns the ids in order.
    pub fn add_file(
        &mut self,
        krate: &str,
        rel_path: &str,
        is_library: bool,
        parsed: &ParsedFile,
    ) -> Vec<FnId> {
        let mut ids = Vec::with_capacity(parsed.functions.len());
        for f in &parsed.functions {
            let id = self.fns.len();
            self.fns.push(FnSymbol {
                krate: krate.to_string(),
                file: rel_path.to_string(),
                name: f.name.clone(),
                self_type: f.self_type.clone(),
                line: f.decl_line + 1,
                is_test: f.is_test,
                is_library,
            });
            match &f.self_type {
                Some(t) => {
                    self.method_by_type
                        .entry((krate.to_string(), t.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    self.method_by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(id);
                }
                None => {
                    self.free_by_crate
                        .entry((krate.to_string(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
            ids.push(id);
        }
        ids
    }

    /// Number of functions indexed.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// `true` when no function is indexed.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// The symbol for `id`.
    pub fn symbol(&self, id: FnId) -> &FnSymbol {
        &self.fns[id]
    }

    /// Resolves one call made from `caller_crate` (with the caller's
    /// `use` aliases and, for `self.` calls, the enclosing impl type).
    /// Returns `None` when the call cannot be attributed to exactly one
    /// workspace function.
    pub fn resolve(
        &self,
        caller_crate: &str,
        enclosing_type: Option<&str>,
        aliases: &BTreeMap<String, Vec<String>>,
        call: &Call,
    ) -> Option<FnId> {
        if call.is_method {
            let name = call.path.last()?;
            if call.self_receiver {
                if let Some(t) = enclosing_type {
                    return self.unique(self.method_by_type.get(&(
                        caller_crate.to_string(),
                        t.to_string(),
                        name.clone(),
                    )));
                }
            }
            // Unique-name fallback: std names excluded, and the unique
            // candidate must live in the calling crate or in a crate the
            // calling file actually imports (an alias path leading with
            // its package ident) — a per-file dependency approximation
            // that stops accidental cross-crate bindings.
            if STD_METHODS.contains(&name.as_str()) {
                return None;
            }
            let id = self.unique(self.method_by_name.get(name))?;
            let callee_crate = &self.fns[id].krate;
            if callee_crate == caller_crate {
                return Some(id);
            }
            let callee_ident = self
                .crate_idents
                .iter()
                .find(|(_, dir)| *dir == callee_crate)
                .map(|(ident, _)| ident.as_str())?;
            return aliases
                .values()
                .any(|p| p.first().is_some_and(|h| h == callee_ident))
                .then_some(id);
        }

        // Expand a leading alias (`use rectpart_core::cache::StripeCache;`
        // makes `StripeCache::new` resolvable).
        let mut path: Vec<String> = call.path.clone();
        if let Some(expansion) = aliases.get(&path[0]) {
            let mut full = expansion.clone();
            full.extend(path[1..].iter().cloned());
            path = full;
        }

        // Determine the target crate from the leading segment.
        let (krate, rest): (String, &[String]) = match path[0].as_str() {
            "crate" | "self" | "super" => (caller_crate.to_string(), &path[1..]),
            "std" | "core" | "alloc" => return None,
            head => match self.crate_idents.get(head) {
                Some(dir) => (dir.clone(), &path[1..]),
                // Bare or module-qualified call inside the same crate.
                None => (caller_crate.to_string(), &path[..]),
            },
        };
        if rest.is_empty() {
            return None;
        }
        let name = rest[rest.len() - 1].clone();
        // `...::Type::name` — try the method index first when the
        // second-to-last segment looks like a type.
        if rest.len() >= 2 {
            let qualifier = &rest[rest.len() - 2];
            if qualifier.chars().next().is_some_and(|c| c.is_uppercase()) {
                if let Some(id) = self.unique(self.method_by_type.get(&(
                    krate.clone(),
                    qualifier.clone(),
                    name.clone(),
                ))) {
                    return Some(id);
                }
                // `Self::helper(...)` — associated call on the enclosing type.
            } else if qualifier == "Self" {
                // Handled below via enclosing type.
            }
        }
        if path[0] == "Self" || rest[0] == "Self" {
            if let Some(t) = enclosing_type {
                if let Some(id) = self.unique(self.method_by_type.get(&(
                    krate.clone(),
                    t.to_string(),
                    name.clone(),
                ))) {
                    return Some(id);
                }
            }
        }
        self.unique(self.free_by_crate.get(&(krate, name)))
    }

    fn unique(&self, ids: Option<&Vec<FnId>>) -> Option<FnId> {
        match ids {
            Some(v) if v.len() == 1 => Some(v[0]),
            // Duplicate definitions (e.g. cfg-gated twins) are only safe
            // to use when they agree on the defining file *and* the
            // enclosing type — otherwise ambiguity wins and no edge is
            // made.
            Some(v)
                if !v.is_empty()
                    && v.iter().all(|&i| {
                        self.fns[i].file == self.fns[v[0]].file
                            && self.fns[i].self_type == self.fns[v[0]].self_type
                    }) =>
            {
                Some(v[0])
            }
            _ => None,
        }
    }
}

/// The workspace call graph plus per-function panic sources.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Resolved edges: `edges[f]` = (callee, 1-based call line).
    pub edges: Vec<Vec<(FnId, usize)>>,
    /// Unwaived panic sources per function.
    pub sources: Vec<Vec<PanicSource>>,
    /// Count of resolved call expressions (for stats / acceptance).
    pub resolved_calls: usize,
    /// Count of call expressions that did not resolve.
    pub unresolved_calls: usize,
}

/// Result of the reachability pass: for every function that can reach a
/// panic, one witness step toward it.
#[derive(Debug, Clone)]
pub enum PanicWitness {
    /// The function itself contains the construct.
    Direct(PanicSource),
    /// The function calls `callee` (at `line`) which reaches a panic.
    Via {
        /// Callee on the witness path.
        callee: FnId,
        /// 1-based line of the witnessing call.
        line: usize,
    },
}

impl CallGraph {
    /// Creates an empty graph sized for `n` functions.
    pub fn new(n: usize) -> Self {
        CallGraph {
            edges: vec![Vec::new(); n],
            sources: vec![Vec::new(); n],
            resolved_calls: 0,
            unresolved_calls: 0,
        }
    }

    /// Functions that can reach an unwaived panic source, each with a
    /// deterministic witness (own source first, else the smallest-id
    /// panicking callee).
    pub fn panic_reachable(&self) -> BTreeMap<FnId, PanicWitness> {
        let n = self.edges.len();
        // Reverse edges once.
        let mut rev: Vec<Vec<(FnId, usize)>> = vec![Vec::new(); n];
        for (f, outs) in self.edges.iter().enumerate() {
            for &(g, line) in outs {
                rev[g].push((f, line));
            }
        }
        let mut witness: BTreeMap<FnId, PanicWitness> = BTreeMap::new();
        let mut queue: Vec<FnId> = Vec::new();
        for f in 0..n {
            if let Some(src) = self.sources[f].first() {
                witness.insert(f, PanicWitness::Direct(src.clone()));
                queue.push(f);
            }
        }
        // BFS towards callers; first discovery wins, and iteration order
        // (ascending ids seeded, FIFO) keeps witnesses deterministic.
        let mut head = 0;
        while head < queue.len() {
            let g = queue[head];
            head += 1;
            for &(f, line) in &rev[g] {
                witness.entry(f).or_insert_with(|| {
                    queue.push(f);
                    PanicWitness::Via { callee: g, line }
                });
            }
        }
        witness
    }

    /// Renders the witness chain from `id` down to the root construct:
    /// ``a → b → c; root: slice index `xs[i]` at file:line``. Chains are
    /// capped at 8 hops to keep diagnostics readable.
    pub fn chain(
        &self,
        table: &SymbolTable,
        witness: &BTreeMap<FnId, PanicWitness>,
        id: FnId,
    ) -> String {
        let mut names = vec![table.symbol(id).qualified()];
        let mut cur = id;
        let mut root = None;
        for _ in 0..8 {
            match witness.get(&cur) {
                Some(PanicWitness::Direct(src)) => {
                    root = Some(format!(
                        "{} at {}:{}",
                        src.what,
                        table.symbol(cur).file,
                        src.line
                    ));
                    break;
                }
                Some(PanicWitness::Via { callee, .. }) => {
                    names.push(table.symbol(*callee).qualified());
                    cur = *callee;
                }
                None => break,
            }
        }
        match root {
            Some(r) => format!("{}; root: {}", names.join(" -> "), r),
            None => format!("{} -> ... (chain truncated)", names.join(" -> ")),
        }
    }

    /// The hops of the witness chain for `id`, as `(qualified, file,
    /// line)` triples ending at the function containing the root
    /// construct. Used by the JSON output.
    pub fn chain_hops(
        &self,
        table: &SymbolTable,
        witness: &BTreeMap<FnId, PanicWitness>,
        id: FnId,
    ) -> Vec<(String, String, usize)> {
        let mut out = Vec::new();
        let mut cur = id;
        for _ in 0..8 {
            let sym = table.symbol(cur);
            match witness.get(&cur) {
                Some(PanicWitness::Direct(src)) => {
                    out.push((sym.qualified(), sym.file.clone(), src.line));
                    break;
                }
                Some(PanicWitness::Via { callee, line }) => {
                    out.push((sym.qualified(), sym.file.clone(), *line));
                    cur = *callee;
                }
                None => break,
            }
        }
        out
    }
}

/// Per-file alias map (`alias → full path`) in resolver form.
pub fn alias_map(parsed: &ParsedFile) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    for u in &parsed.uses {
        out.insert(u.alias.clone(), u.path.clone());
    }
    out
}

/// Convenience carrier tying a parsed file to its symbol ids.
#[derive(Debug)]
pub struct FileSymbols {
    /// Ids returned by [`SymbolTable::add_file`], parallel to
    /// `parsed.functions`.
    pub fn_ids: Vec<FnId>,
}

/// Set of crate dir names treated as panic-free (shared with rules v1).
pub fn panic_free_crates() -> BTreeSet<&'static str> {
    [
        "core", "onedim", "parallel", "obs", "json", "robust", "resume", "engine",
    ]
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn table_for(files: &[(&str, &str, &str)]) -> (SymbolTable, Vec<ParsedFile>) {
        let mut t = SymbolTable::default();
        t.register_crate("core", "rectpart_core");
        t.register_crate("onedim", "rectpart_onedim");
        let mut parsed = Vec::new();
        for (krate, path, src) in files {
            let p = parse(&lex(src));
            t.add_file(krate, path, true, &p);
            parsed.push(p);
        }
        (t, parsed)
    }

    #[test]
    fn resolves_same_crate_free_fn() {
        let (t, parsed) = table_for(&[(
            "core",
            "crates/core/src/a.rs",
            "fn helper() {}\nfn top() {\n    helper();\n}\n",
        )]);
        let aliases = alias_map(&parsed[0]);
        let call = &parsed[0].functions[1].calls[0];
        let id = t.resolve("core", None, &aliases, call).unwrap();
        assert_eq!(t.symbol(id).name, "helper");
    }

    #[test]
    fn resolves_cross_crate_path_and_alias() {
        let (t, parsed) = table_for(&[
            (
                "onedim",
                "crates/onedim/src/n.rs",
                "pub fn probe() {}\n",
            ),
            (
                "core",
                "crates/core/src/b.rs",
                "use rectpart_onedim::probe;\nfn f() {\n    rectpart_onedim::probe();\n    probe();\n}\n",
            ),
        ]);
        let aliases = alias_map(&parsed[1]);
        for call in &parsed[1].functions[0].calls {
            let id = t.resolve("core", None, &aliases, call).unwrap();
            assert_eq!(t.symbol(id).krate, "onedim");
            assert_eq!(t.symbol(id).name, "probe");
        }
    }

    #[test]
    fn self_method_resolves_via_enclosing_type() {
        let (t, parsed) = table_for(&[(
            "core",
            "crates/core/src/c.rs",
            "struct S;\nimpl S {\n    fn a(&self) {\n        self.b();\n    }\n    fn b(&self) {}\n}\n",
        )]);
        let aliases = alias_map(&parsed[0]);
        let call = &parsed[0].functions[0].calls[0];
        let id = t.resolve("core", Some("S"), &aliases, call).unwrap();
        assert_eq!(t.symbol(id).name, "b");
    }

    #[test]
    fn ambiguous_method_name_gives_no_edge() {
        let (t, parsed) = table_for(&[(
            "core",
            "crates/core/src/d.rs",
            "struct A;\nstruct B;\nimpl A {\n    fn solve(&self) {}\n}\nimpl B {\n    fn solve(&self) {}\n}\nfn f(a: &A) {\n    a.solve();\n}\n",
        )]);
        let aliases = alias_map(&parsed[0]);
        let call = parsed[0]
            .functions
            .iter()
            .find(|f| f.name == "f")
            .map(|f| &f.calls[0])
            .unwrap();
        assert!(t.resolve("core", None, &aliases, call).is_none());
    }

    #[test]
    fn std_method_names_never_bind() {
        let (t, parsed) = table_for(&[(
            "core",
            "crates/core/src/e.rs",
            "struct OnlyOne;\nimpl OnlyOne {\n    fn get(&self) {}\n}\nfn f(m: &std::collections::HashMap<u32, u32>) {\n    m.get(&1);\n}\n",
        )]);
        let aliases = alias_map(&parsed[0]);
        let call = parsed[0]
            .functions
            .iter()
            .find(|f| f.name == "f")
            .map(|f| &f.calls[0])
            .unwrap();
        assert!(t.resolve("core", None, &aliases, call).is_none());
    }

    #[test]
    fn panic_reachability_walks_chains() {
        let mut g = CallGraph::new(3);
        // 2 has a direct source; 1 calls 2; 0 calls 1.
        g.sources[2].push(PanicSource {
            line: 9,
            what: "slice index `xs[i]`".into(),
        });
        g.edges[1].push((2, 5));
        g.edges[0].push((1, 3));
        let w = g.panic_reachable();
        assert_eq!(w.len(), 3);
        assert!(matches!(w.get(&2), Some(PanicWitness::Direct(_))));
        assert!(matches!(
            w.get(&1),
            Some(PanicWitness::Via { callee: 2, .. })
        ));
        assert!(matches!(
            w.get(&0),
            Some(PanicWitness::Via { callee: 1, .. })
        ));
    }

    #[test]
    fn chain_renders_root() {
        let (t, _parsed) = table_for(&[(
            "core",
            "crates/core/src/f.rs",
            "fn a() {\n    b();\n}\nfn b() {\n    c();\n}\nfn c(xs: &[u64]) -> u64 {\n    xs[0]\n}\n",
        )]);
        let mut g = CallGraph::new(t.len());
        g.sources[2].push(PanicSource {
            line: 8,
            what: "slice index `xs[0]`".into(),
        });
        g.edges[0].push((1, 2));
        g.edges[1].push((2, 5));
        let w = g.panic_reachable();
        let chain = g.chain(&t, &w, 0);
        assert!(chain.contains("core::a -> core::b -> core::c"), "{chain}");
        assert!(chain.contains("root: slice index `xs[0]` at crates/core/src/f.rs:8"));
    }
}
