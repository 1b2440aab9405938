//! Workspace call graph over the parsed items.
//!
//! Resolution is conservative (DESIGN.md §11): an ambiguous call produces
//! an edge to *every* candidate, and calls into code we cannot see (std,
//! masked macros) produce no edge. Two facts narrow the candidates where
//! Rust could not link a call anyway:
//!
//! * **the crate graph** — library and shim code calls only into crates
//!   in its manifest's `[dependencies]` closure;
//! * **declared types** — a method call on a receiver whose type is
//!   declared in the file (field, `static`, parameter, `let name: T`)
//!   resolves to that type's methods only.
//!
//! Everything else resolves by name. The graph is therefore an
//! over-approximation of the true call relation wherever it has an edge,
//! and an under-approximation only for externals — which is exactly the
//! right bias for panic-reachability (our own panic sites are never
//! missed) at the cost of some false positives.
//!
//! Node identity is `crate::module::[Type::]fn`. Crate/module paths are
//! derived from file paths (`crates/eval/src/ranking.rs` →
//! `uhscm_eval::ranking`); inline `mod`s extend the path. Test files and
//! binaries get synthetic crate names (`tests_lint_gate`, `core_test_x`).

use crate::lexer::{self, MaskedFile};
use crate::parser::{self, Call, FnItem, ParsedFile, Tok};
use crate::rules::{Category, Finding, Severity};
use std::collections::{BTreeMap, BTreeSet};

/// One scanned source file with everything derived from it.
pub struct SourceFile {
    pub path: String,
    pub category: Category,
    pub masked: MaskedFile,
    pub parsed: ParsedFile,
    pub crate_name: String,
    /// File-level module path within the crate (inline `mod`s extend it
    /// per function, see [`FnItem::module`]).
    pub module: Vec<String>,
}

/// All scanned files.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// Crate name → the crates it may link against: itself plus the
    /// transitive closure of its manifest's `[dependencies]`. Crates
    /// without a manifest are absent and keep name-based edges.
    deps: BTreeMap<String, BTreeSet<String>>,
}

impl Workspace {
    /// Build from `(workspace-relative path, text)` pairs: `.rs` sources,
    /// plus `crates/*/Cargo.toml` and `shims/*/Cargo.toml` manifests
    /// (other paths are ignored).
    pub fn from_sources<P: AsRef<str>, S: AsRef<str>>(sources: &[(P, S)]) -> Workspace {
        let mut files = Vec::new();
        let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (p, s) in sources {
            let path = p.as_ref().to_string();
            if let Some(krate) = manifest_crate(&path) {
                direct.insert(krate, manifest_deps(s.as_ref()));
            } else if path.ends_with(".rs") {
                let masked = lexer::scan(s.as_ref());
                let parsed = parser::parse(&masked);
                let (crate_name, module) = crate_and_module(&path);
                files.push(SourceFile {
                    category: Category::of(&path),
                    path,
                    masked,
                    parsed,
                    crate_name,
                    module,
                });
            }
        }
        let mut deps = BTreeMap::new();
        for krate in direct.keys() {
            let mut closure = BTreeSet::from([krate.clone()]);
            let mut stack = vec![krate.clone()];
            while let Some(k) = stack.pop() {
                for d in direct.get(&k).into_iter().flatten() {
                    if closure.insert(d.clone()) {
                        stack.push(d.clone());
                    }
                }
            }
            deps.insert(krate.clone(), closure);
        }
        Workspace { files, deps }
    }

    /// Whether code in `caller` can plausibly link against code in
    /// `callee`. Categories prune name collisions across linkage
    /// boundaries (the xtask binary never calls library crates, library
    /// crates never call tests); between library and shim crates the
    /// callee's crate must be in the caller's dependency closure.
    pub fn may_call(&self, caller: &Node, callee: &Node) -> bool {
        use Category::*;
        match caller.category {
            Xtask => callee.category == Xtask,
            Library | Shim => {
                matches!(callee.category, Library | Shim)
                    && self
                        .deps
                        .get(&caller.crate_name)
                        .is_none_or(|d| d.contains(&callee.crate_name))
            }
            Bench | RootFacade | Bin => {
                matches!(callee.category, Library | Shim | Bench | RootFacade | Bin)
            }
            TestLike => callee.category != Xtask,
        }
    }

    /// `crate-graph` errors: non-test library or shim code that names a
    /// workspace crate (`uhscm_x::…`, `use uhscm_x`) missing from its
    /// dependency closure. [`Self::may_call`] would drop every edge into
    /// that crate, so the manifest reading must be fixed instead.
    pub fn undeclared_crate_findings(&self) -> Vec<Finding> {
        let crates: BTreeSet<&str> = self
            .files
            .iter()
            .filter(|f| matches!(f.category, Category::Library | Category::Shim))
            .map(|f| f.crate_name.as_str())
            .collect();
        let mut out = Vec::new();
        for file in &self.files {
            if !matches!(file.category, Category::Library | Category::Shim) {
                continue;
            }
            let Some(closure) = self.deps.get(&file.crate_name) else { continue };
            let toks = parser::tokenize(&file.masked.masked_lines);
            for (i, t) in toks.iter().enumerate() {
                let Tok::Ident(name) = &t.tok else { continue };
                let prev = i.checked_sub(1).map(|j| &toks[j].tok);
                let path_head = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::ColonColon))
                    && !matches!(prev, Some(Tok::ColonColon));
                let used = matches!(prev, Some(Tok::Ident(u)) if u == "use");
                if (path_head || used)
                    && crates.contains(name.as_str())
                    && !closure.contains(name)
                    && !file.masked.in_test_region(t.line)
                {
                    out.push(Finding {
                        rule: "crate-graph",
                        path: file.path.clone(),
                        line: t.line + 1,
                        key: file.masked.raw_lines[t.line].trim().to_string(),
                        message: format!(
                            "`{name}` is not in the `[dependencies]` closure of {}'s manifest, \
                             so the call graph links no call into it: declare the dependency",
                            file.crate_name
                        ),
                        severity: Severity::Error,
                        witness: Vec::new(),
                    });
                }
            }
        }
        out
    }
}

/// The crate a `crates/<name>/Cargo.toml` or `shims/<name>/Cargo.toml`
/// manifest describes, named as [`crate_and_module`] names its sources.
fn manifest_crate(path: &str) -> Option<String> {
    let (top, rest) = path.split_once('/')?;
    let dir = rest.strip_suffix("/Cargo.toml").filter(|d| !d.contains('/'))?;
    match top {
        "crates" => Some(format!("uhscm_{dir}")),
        "shims" => Some(dir.to_string()),
        _ => None,
    }
}

/// The crate names of a manifest's `[dependencies]` table (`-` → `_`).
fn manifest_deps(toml: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_deps = false;
    for line in toml.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let key = line.split(['.', '=', ' ']).next().unwrap_or_default();
            out.insert(key.replace('-', "_"));
        }
    }
    out
}

/// Map a workspace-relative path to `(crate name, file-level module path)`.
///
/// Integration tests, benches, examples and `src/bin` binaries are each
/// their own crate in cargo's model; they get synthetic names here.
pub fn crate_and_module(path: &str) -> (String, Vec<String>) {
    fn stem(path: &str) -> String {
        path.rsplit('/').next().unwrap_or(path).trim_end_matches(".rs").to_string()
    }
    fn mods_after(path: &str, src_prefix: &str) -> Vec<String> {
        let rest = &path[src_prefix.len()..];
        let mut mods: Vec<String> = rest.split('/').map(str::to_string).collect();
        if let Some(last) = mods.last_mut() {
            *last = last.trim_end_matches(".rs").to_string();
        }
        mods.retain(|m| !m.is_empty() && m != "lib" && m != "main" && m != "mod");
        mods
    }

    if let Some(rest) = path.strip_prefix("xtask/src/") {
        return ("uhscm_xtask".to_string(), mods_after(path, &path[..path.len() - rest.len()]));
    }
    if let Some(rest) = path.strip_prefix("shims/") {
        let shim = rest.split('/').next().unwrap_or(rest);
        let prefix = format!("shims/{shim}/src/");
        let mods = if path.starts_with(&prefix) { mods_after(path, &prefix) } else { Vec::new() };
        return (shim.to_string(), mods);
    }
    if let Some(rest) = path.strip_prefix("crates/") {
        let krate = rest.split('/').next().unwrap_or(rest).to_string();
        let bin_prefix = format!("crates/{krate}/src/bin/");
        if path.starts_with(&bin_prefix) {
            return (format!("{krate}_bin_{}", stem(path)), Vec::new());
        }
        let src_prefix = format!("crates/{krate}/src/");
        if path.starts_with(&src_prefix) {
            return (format!("uhscm_{krate}"), mods_after(path, &src_prefix));
        }
        if path.starts_with(&format!("crates/{krate}/tests/")) {
            return (format!("{krate}_test_{}", stem(path)), Vec::new());
        }
        if path.starts_with(&format!("crates/{krate}/benches/")) {
            return (format!("{krate}_bench_{}", stem(path)), Vec::new());
        }
        return (format!("{krate}_aux_{}", stem(path)), Vec::new());
    }
    if path.starts_with("src/bin/") {
        return (format!("bin_{}", stem(path)), Vec::new());
    }
    if let Some(_rest) = path.strip_prefix("src/") {
        return ("uhscm".to_string(), mods_after(path, "src/"));
    }
    if path.starts_with("tests/") {
        return (format!("tests_{}", stem(path)), Vec::new());
    }
    if path.starts_with("examples/") {
        return (format!("example_{}", stem(path)), Vec::new());
    }
    if path.starts_with("benches/") {
        return (format!("bench_{}", stem(path)), Vec::new());
    }
    (format!("root_{}", stem(path)), Vec::new())
}

/// One function in the graph.
pub struct Node {
    /// Index into `Workspace::files`.
    pub file: usize,
    /// Index into that file's `parsed.fns`.
    pub fn_idx: usize,
    pub category: Category,
    pub crate_name: String,
    /// `crate::module::[Type::]name` — unique enough for reports.
    pub qualified: String,
}

/// A call edge: `callee` is a node index, `line` the 0-based call site.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub callee: usize,
    pub line: usize,
}

pub struct Graph {
    pub nodes: Vec<Node>,
    /// Adjacency: `edges[i]` = sorted, deduped out-edges of node `i`.
    pub edges: Vec<Vec<Edge>>,
}

impl Graph {
    pub fn item<'w>(&self, ws: &'w Workspace, node: usize) -> &'w FnItem {
        &ws.files[self.nodes[node].file].parsed.fns[self.nodes[node].fn_idx]
    }

    pub fn path<'w>(&self, ws: &'w Workspace, node: usize) -> &'w str {
        &ws.files[self.nodes[node].file].path
    }

    /// Build the graph: one node per parsed `fn`, edges by conservative
    /// resolution (see the module doc).
    pub fn build(ws: &Workspace) -> Graph {
        let mut nodes = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (ii, item) in file.parsed.fns.iter().enumerate() {
                let mut parts: Vec<&str> = vec![&file.crate_name];
                parts.extend(file.module.iter().map(String::as_str));
                parts.extend(item.module.iter().map(String::as_str));
                if let Some(ty) = &item.impl_type {
                    parts.push(ty);
                }
                parts.push(&item.name);
                nodes.push(Node {
                    file: fi,
                    fn_idx: ii,
                    category: file.category,
                    crate_name: file.crate_name.clone(),
                    qualified: parts.join("::"),
                });
            }
        }

        // Name → node indices, for candidate lookup.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (ni, node) in nodes.iter().enumerate() {
            let item = &ws.files[node.file].parsed.fns[node.fn_idx];
            by_name.entry(&item.name).or_default().push(ni);
        }
        // Types with methods in the workspace, plus the std types whose
        // methods are not: the heads a receiver can resolve by.
        let mut known: BTreeSet<&str> = STD_TYPES.split_whitespace().collect();
        for node in &nodes {
            known.extend(ws.files[node.file].parsed.fns[node.fn_idx].impl_type.as_deref());
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for (ni, node) in nodes.iter().enumerate() {
            let file = &ws.files[node.file];
            let item = &file.parsed.fns[node.fn_idx];
            // `use` imports visible in this file: bound name → full path.
            let uses: BTreeMap<&str, &[String]> =
                file.parsed.uses.iter().map(|(b, p)| (b.as_str(), p.as_slice())).collect();
            let mut out = Vec::new();
            for call in &item.calls {
                let mut segments: Vec<String> = call.segments.clone();
                // Expand a single-segment call bound by a `use` import to
                // its full path.
                if segments.len() == 1 {
                    if let Some(full) = uses.get(segments[0].as_str()) {
                        segments = full.to_vec();
                    }
                }
                let targets = if segments.len() == 1 {
                    resolve_plain(ws, &nodes, &by_name, ni, &segments[0])
                } else {
                    resolve_qualified(ws, &nodes, &by_name, ni, &segments, &uses)
                };
                out.extend(targets.into_iter().map(|t| Edge { callee: t, line: call.line }));
            }
            for call in &item.method_calls {
                let heads = receiver_heads(file, item, call)
                    .filter(|h| h.iter().all(|t| known.contains(t.as_str())));
                let targets = resolve_method(ws, &nodes, &by_name, ni, &call.segments[0], heads);
                out.extend(targets.into_iter().map(|t| Edge { callee: t, line: call.line }));
            }
            out.sort();
            out.dedup();
            edges[ni] = out;
        }
        Graph { nodes, edges }
    }
}

/// Module path of a node = file-level mods + inline mods of the item.
fn node_module(ws: &Workspace, nodes: &[Node], ni: usize) -> Vec<String> {
    let node = &nodes[ni];
    let file = &ws.files[node.file];
    let item = &file.parsed.fns[node.fn_idx];
    let mut m = file.module.clone();
    m.extend(item.module.iter().cloned());
    m
}

/// Resolve a bare `f()` call: prefer same-module, then enclosing modules
/// of the same file (lexical shadowing), then same crate, then anywhere.
fn resolve_plain(
    ws: &Workspace,
    nodes: &[Node],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    name: &str,
) -> Vec<usize> {
    let Some(cands) = by_name.get(name) else { return Vec::new() };
    let caller_node = &nodes[caller];
    let caller_mod = node_module(ws, nodes, caller);
    let visible: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| ws.may_call(caller_node, &nodes[c]))
        // Free functions only: a bare call never lands on a method.
        .filter(|&c| ws.files[nodes[c].file].parsed.fns[nodes[c].fn_idx].impl_type.is_none())
        .collect();

    // Tier 1/2: same file, module is a prefix of the caller's module path
    // (deepest — i.e. longest — prefix shadows outer candidates).
    let mut best_prefix: Option<usize> = None;
    let mut tier_file: Vec<usize> = Vec::new();
    for &c in &visible {
        if nodes[c].file != caller_node.file {
            continue;
        }
        let m = node_module(ws, nodes, c);
        if m.len() <= caller_mod.len() && caller_mod[..m.len()] == m[..] {
            match best_prefix {
                Some(b) if m.len() < b => {}
                Some(b) if m.len() == b => tier_file.push(c),
                _ => {
                    best_prefix = Some(m.len());
                    tier_file = vec![c];
                }
            }
        }
    }
    if !tier_file.is_empty() {
        return tier_file;
    }
    // Tier 3: same crate.
    let tier_crate: Vec<usize> = visible
        .iter()
        .copied()
        .filter(|&c| nodes[c].crate_name == caller_node.crate_name)
        .collect();
    if !tier_crate.is_empty() {
        return tier_crate;
    }
    // Tier 4: every visible free fn of that name (import we failed to see).
    visible
}

/// Resolve a qualified `a::b::f()` call. The prefix must appear as an
/// ordered subsequence of the candidate's chain `crate::modules::[Type]`,
/// which tolerates re-exports (`uhscm_eval::HammingRanker::new` matches the
/// item defined in `uhscm_eval::ranking::HammingRanker`).
fn resolve_qualified(
    ws: &Workspace,
    nodes: &[Node],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    segments: &[String],
    uses: &BTreeMap<&str, &[String]>,
) -> Vec<usize> {
    let caller_node = &nodes[caller];
    let name = segments.last().expect("qualified call has segments").clone();
    let mut prefix: Vec<String> = segments[..segments.len() - 1].to_vec();
    // Normalize leading path qualifiers.
    if prefix.first().map(String::as_str) == Some("Self") {
        let item = &ws.files[caller_node.file].parsed.fns[caller_node.fn_idx];
        match &item.impl_type {
            Some(ty) => prefix[0] = ty.clone(),
            None => {
                prefix.remove(0);
            }
        }
    }
    // Expand a `use`-bound first segment (`use uhscm_eval::ranking;
    // ranking::f()`) before normalizing, since the import itself may start
    // with `crate` (`use crate::similarity::Similarity; Similarity::f()`).
    if let Some(full) = prefix.first().and_then(|s| uses.get(s.as_str())) {
        let mut expanded: Vec<String> = full.to_vec();
        expanded.extend(prefix[1..].iter().cloned());
        prefix = expanded;
    }
    match prefix.first().map(String::as_str) {
        Some("crate") => prefix[0] = caller_node.crate_name.clone(),
        Some("self") | Some("super") => {
            prefix.remove(0);
        }
        _ => {}
    }

    let Some(cands) = by_name.get(name.as_str()) else { return Vec::new() };
    cands
        .iter()
        .copied()
        .filter(|&c| ws.may_call(caller_node, &nodes[c]))
        .filter(|&c| {
            let mut chain: Vec<String> = vec![nodes[c].crate_name.clone()];
            chain.extend(node_module(ws, nodes, c));
            let item = &ws.files[nodes[c].file].parsed.fns[nodes[c].fn_idx];
            if let Some(ty) = &item.impl_type {
                chain.push(ty.clone());
            }
            is_subsequence(&prefix, &chain)
        })
        .collect()
}

/// Std types a receiver may be declared with. Their methods live outside
/// the workspace, so a call on such a receiver reaches only the
/// workspace's trait impls for them. A head that is neither one of these
/// nor a workspace type (a generic parameter, an alias) resolves by name.
const STD_TYPES: &str = "[ ( bool char str u8 u16 u32 u64 u128 usize i8 i16 i32 i64 i128 isize \
    f32 f64 String Vec VecDeque Option Result BTreeMap BTreeSet HashMap HashSet Mutex RwLock \
    Condvar AtomicBool AtomicU8 AtomicU32 AtomicU64 AtomicUsize TcpStream TcpListener File Path \
    PathBuf Duration Instant SocketAddr JoinHandle Sender Receiver SyncSender Range";

/// The declared type heads of a method call's receiver, or `None` when
/// the call must resolve by name: the receiver is a call result or other
/// expression, is not declared in the file, is declared as a `dyn`/`impl`
/// trait, or is a name the calling function rebinds.
fn receiver_heads<'w>(
    file: &'w SourceFile,
    item: &FnItem,
    call: &Call,
) -> Option<&'w BTreeSet<String>> {
    let recv = call.recv.as_deref()?;
    if !call.field_recv && item.rebound.contains(recv) {
        return None;
    }
    file.parsed.heads(recv, call.field_recv).filter(|h| !h.contains("?"))
}

/// Resolve a `.f()` method call: the methods named `f` the caller may
/// link against, of the receiver's declared types when `heads` is known
/// (blanket impls apply to every type).
fn resolve_method(
    ws: &Workspace,
    nodes: &[Node],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    name: &str,
    heads: Option<&BTreeSet<String>>,
) -> Vec<usize> {
    let Some(cands) = by_name.get(name) else { return Vec::new() };
    let caller_node = &nodes[caller];
    cands
        .iter()
        .copied()
        .filter(|&c| ws.may_call(caller_node, &nodes[c]))
        .filter(|&c| {
            let ty = &ws.files[nodes[c].file].parsed.fns[nodes[c].fn_idx].impl_type;
            ty.as_ref().is_some_and(|ty| ty == "_" || heads.is_none_or(|h| h.contains(ty)))
        })
        .collect()
}

/// Whether `needle` appears in `hay` in order (not necessarily adjacent).
fn is_subsequence(needle: &[String], hay: &[String]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(sources: &[(&str, &str)]) -> (Workspace, Graph) {
        let ws = Workspace::from_sources(sources);
        let g = Graph::build(&ws);
        (ws, g)
    }

    fn node_of(g: &Graph, qualified: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.qualified == qualified)
            .unwrap_or_else(|| panic!("no node `{qualified}` in {:?}", qualified_names(g)))
    }

    fn qualified_names(g: &Graph) -> Vec<&str> {
        g.nodes.iter().map(|n| n.qualified.as_str()).collect()
    }

    fn callees<'g>(g: &'g Graph, from: &str) -> Vec<&'g str> {
        let ni = node_of(g, from);
        g.edges[ni].iter().map(|e| g.nodes[e.callee].qualified.as_str()).collect()
    }

    #[test]
    fn crate_and_module_mapping() {
        let table: &[(&str, (&str, &[&str]))] = &[
            ("crates/eval/src/ranking.rs", ("uhscm_eval", &["ranking"])),
            ("crates/core/src/lib.rs", ("uhscm_core", &[])),
            ("crates/obs/src/trace.rs", ("uhscm_obs", &["trace"])),
            ("crates/bench/src/bin/table1.rs", ("bench_bin_table1", &[])),
            ("crates/eval/tests/metamorphic.rs", ("eval_test_metamorphic", &[])),
            ("crates/bench/benches/kernels.rs", ("bench_bench_kernels", &[])),
            ("src/cli.rs", ("uhscm", &["cli"])),
            ("src/bin/uhscm.rs", ("bin_uhscm", &[])),
            ("tests/lint_gate.rs", ("tests_lint_gate", &[])),
            ("shims/rand/src/lib.rs", ("rand", &[])),
            ("xtask/src/rules.rs", ("uhscm_xtask", &["rules"])),
        ];
        for (path, (krate, mods)) in table {
            let (k, m) = crate_and_module(path);
            assert_eq!(&k, krate, "{path}");
            assert_eq!(m, mods.iter().map(|s| s.to_string()).collect::<Vec<_>>(), "{path}");
        }
    }

    #[test]
    fn same_file_call_resolves() {
        let (_, g) =
            graph(&[("crates/a/src/lib.rs", "pub fn top() { helper(); }\nfn helper() {}\n")]);
        assert_eq!(callees(&g, "uhscm_a::top"), vec!["uhscm_a::helper"]);
    }

    #[test]
    fn shadowed_names_prefer_deepest_module() {
        let src = "fn f() {}\nmod inner { fn f() {} fn call() { f(); } }\nfn call_top() { f(); }\n";
        let (_, g) = graph(&[("crates/a/src/lib.rs", src)]);
        assert_eq!(callees(&g, "uhscm_a::inner::call"), vec!["uhscm_a::inner::f"]);
        assert_eq!(callees(&g, "uhscm_a::call_top"), vec!["uhscm_a::f"]);
    }

    #[test]
    fn cross_crate_qualified_call_resolves() {
        let (_, g) = graph(&[
            ("crates/a/src/lib.rs", "pub fn run() { uhscm_b::work::go(); }\n"),
            ("crates/b/src/work.rs", "pub fn go() {}\n"),
        ]);
        assert_eq!(callees(&g, "uhscm_a::run"), vec!["uhscm_b::work::go"]);
    }

    #[test]
    fn reexport_path_matches_by_subsequence() {
        // Caller uses the crate-root re-export path `uhscm_b::Index::build`
        // even though the item lives in module `idx`.
        let (_, g) = graph(&[
            ("crates/a/src/lib.rs", "pub fn run() { uhscm_b::Index::build(); }\n"),
            ("crates/b/src/idx.rs", "pub struct Index;\nimpl Index { pub fn build() {} }\n"),
        ]);
        assert_eq!(callees(&g, "uhscm_a::run"), vec!["uhscm_b::idx::Index::build"]);
    }

    #[test]
    fn use_import_binds_single_segment_call() {
        let (_, g) = graph(&[
            ("crates/a/src/lib.rs", "use uhscm_b::work::go;\npub fn run() { go(); }\n"),
            ("crates/b/src/work.rs", "pub fn go() {}\n"),
            // Decoy with the same fn name in an unrelated module path.
            ("crates/c/src/other.rs", "pub fn go() {}\n"),
        ]);
        assert_eq!(callees(&g, "uhscm_a::run"), vec!["uhscm_b::work::go"]);
    }

    #[test]
    fn multi_candidate_ambiguity_edges_to_all() {
        // Unqualified call, no import, no same-crate candidate: the graph
        // must fan out to every plausible target.
        let (_, g) = graph(&[
            ("crates/a/src/lib.rs", "pub fn run() { helper(); }\n"),
            ("crates/b/src/lib.rs", "pub fn helper() {}\n"),
            ("crates/c/src/lib.rs", "pub fn helper() {}\n"),
        ]);
        let mut cs = callees(&g, "uhscm_a::run");
        cs.sort();
        assert_eq!(cs, vec!["uhscm_b::helper", "uhscm_c::helper"]);
    }

    #[test]
    fn method_calls_resolve_to_all_methods_not_free_fns() {
        let (_, g) = graph(&[
            ("crates/a/src/lib.rs", "pub fn run(s: S) { s.go(); }\n"),
            (
                "crates/b/src/lib.rs",
                "pub struct S;\nimpl S { pub fn go(&self) {} }\npub fn go() {}\n",
            ),
        ]);
        assert_eq!(callees(&g, "uhscm_a::run"), vec!["uhscm_b::S::go"]);
    }

    #[test]
    fn self_calls_resolve_within_impl() {
        let src = "pub struct S;\nimpl S {\n    pub fn a(&self) { Self::b(); }\n    fn b() {}\n}\n";
        let (_, g) = graph(&[("crates/a/src/lib.rs", src)]);
        assert_eq!(callees(&g, "uhscm_a::S::a"), vec!["uhscm_a::S::b"]);
    }

    #[test]
    fn tests_may_call_libraries_but_not_vice_versa() {
        let (_, g) = graph(&[
            ("crates/a/src/lib.rs", "pub fn api() { helper(); }\n"),
            ("tests/e2e.rs", "fn helper() {}\n#[test]\nfn t() { api(); }\n"),
        ]);
        // The library's bare `helper()` must not resolve into a test crate.
        assert!(callees(&g, "uhscm_a::api").is_empty());
        assert_eq!(callees(&g, "tests_e2e::t"), vec!["uhscm_a::api"]);
    }

    #[test]
    fn xtask_is_isolated() {
        let (_, g) = graph(&[
            ("xtask/src/main.rs", "fn main() { lint(); }\nfn lint() {}\n"),
            ("crates/a/src/lib.rs", "pub fn lint() {}\npub fn run() { main(); }\n"),
        ]);
        assert_eq!(callees(&g, "uhscm_xtask::main"), vec!["uhscm_xtask::lint"]);
        assert!(callees(&g, "uhscm_a::run").is_empty());
    }

    #[test]
    fn macro_heavy_code_still_yields_edges() {
        let src = "pub fn run() { log!(\"x\", compute()); }\nfn compute() {}\n";
        let (_, g) = graph(&[("crates/a/src/lib.rs", src)]);
        assert_eq!(callees(&g, "uhscm_a::run"), vec!["uhscm_a::compute"]);
    }

    #[test]
    fn use_bound_type_from_crate_path_resolves() {
        // The import starts with `crate`: it must be expanded before the
        // `crate` prefix is normalized, or the call gets no edge.
        let (_, g) = graph(&[
            (
                "crates/a/src/lib.rs",
                "use crate::sim::Similarity;\npub fn run() { Similarity::cosine(); }\n",
            ),
            (
                "crates/a/src/sim.rs",
                "pub struct Similarity;\nimpl Similarity { pub fn cosine() {} }\n",
            ),
        ]);
        assert_eq!(callees(&g, "uhscm_a::run"), vec!["uhscm_a::sim::Similarity::cosine"]);
    }

    /// `a` depends on `b` and `b` on `c`; `d` is only a dev-dependency of
    /// `a`, and `e` has no manifest. `c` and `d` both define `T::len`,
    /// which `e::run` calls by name.
    fn crate_graph_fixture(a_src: &str) -> Workspace {
        let method = |krate: &str| {
            format!("pub struct T;\nimpl T {{ pub fn len(&self) {{}} }}\nfn {krate}() {{}}\n")
        };
        let (c, d) = (method("c"), method("d"));
        Workspace::from_sources(&[
            (
                "crates/a/Cargo.toml",
                "[package]\nname = \"uhscm-a\"\n\n[dependencies]\nuhscm-b.workspace = true\n\n\
                 [dev-dependencies]\nuhscm-d.workspace = true\n",
            ),
            ("crates/b/Cargo.toml", "[dependencies]\n# a comment\nuhscm-c = { path = \"../c\" }\n"),
            ("crates/c/Cargo.toml", "[dependencies]\n"),
            ("crates/d/Cargo.toml", "[dependencies]\n"),
            ("crates/a/src/lib.rs", a_src),
            ("crates/b/src/lib.rs", "pub fn b() {}\n"),
            ("crates/c/src/lib.rs", &c),
            ("crates/d/src/lib.rs", &d),
            ("crates/e/src/lib.rs", "pub fn run() { make().len(); }\n"),
        ])
    }

    #[test]
    fn library_edges_stay_inside_the_dependency_closure() {
        let ws = crate_graph_fixture("pub fn run() { make().len(); }\n");
        let g = Graph::build(&ws);
        // `c` is a transitive dependency of `a`; library code cannot call
        // a dev-dependency.
        assert_eq!(callees(&g, "uhscm_a::run"), vec!["uhscm_c::T::len"]);
        // A crate without a manifest keeps every by-name edge.
        assert_eq!(callees(&g, "uhscm_e::run"), vec!["uhscm_c::T::len", "uhscm_d::T::len"]);
        assert!(ws.undeclared_crate_findings().is_empty());
    }

    #[test]
    fn naming_a_crate_outside_the_closure_is_an_error() {
        let src = "use uhscm_c::T;\npub fn run() { uhscm_d::d(); }\n\
                   #[cfg(test)]\nmod tests {\n    use uhscm_d::T;\n}\n";
        let ws = crate_graph_fixture(src);
        let findings = ws.undeclared_crate_findings();
        let lines: Vec<(usize, &str)> = findings.iter().map(|f| (f.line, f.rule)).collect();
        // Only the non-test mention of `uhscm_d` (a dev-dependency) errors.
        assert_eq!(lines, vec![(2, "crate-graph")]);
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("uhscm_d"), "{}", findings[0].message);
    }

    const TYPES: &str = "pub struct Idx;\nimpl Idx { pub fn insert(&self) {} pub fn load(&self) {} }\n\
                         pub struct Set;\nimpl Set { pub fn insert(&self) {} pub fn load(&self) {} }\n";

    #[test]
    fn declared_receivers_resolve_to_their_type() {
        let src = "static STATE: AtomicU8 = AtomicU8::new(0);\n\
                   pub struct S { set: Arc<Set>, tomb: BTreeSet<u32> }\n\
                   impl S {\n\
                       pub fn param(idx: &Idx) { idx.insert(); }\n\
                       pub fn field(&self) { self.set.insert(); self.tomb.insert(); }\n\
                       pub fn stat() { STATE.load(); }\n\
                   }\n";
        let (_, g) = graph(&[("crates/a/src/lib.rs", src), ("crates/a/src/types.rs", TYPES)]);
        assert_eq!(callees(&g, "uhscm_a::S::param"), vec!["uhscm_a::types::Idx::insert"]);
        assert_eq!(callees(&g, "uhscm_a::S::field"), vec!["uhscm_a::types::Set::insert"]);
        assert!(callees(&g, "uhscm_a::S::stat").is_empty());
    }

    #[test]
    fn generic_rebound_and_literal_receivers_resolve_by_name() {
        // The field `G.idx` does not declare the parameter `idx`.
        let src = "pub struct G { idx: Idx }\n\
                   pub fn generic<T: Bound>(idx: T) { idx.insert(); }\n\
                   pub fn rebound(set: &Set) { let set = make(); set.insert(); }\n\
                   pub fn closure(set: &Set) { each(|set| set.insert()); }\n";
        // `.tomb` appears only in a struct literal, which declares nothing.
        let literal = "pub fn literal() { let h = H { tomb: Set }; h.tomb.insert(); }\n";
        let (_, g) = graph(&[
            ("crates/a/src/lib.rs", src),
            ("crates/a/src/lit.rs", literal),
            ("crates/a/src/types.rs", TYPES),
        ]);
        let both = vec!["uhscm_a::types::Idx::insert", "uhscm_a::types::Set::insert"];
        for f in ["generic", "rebound", "closure"] {
            assert_eq!(callees(&g, &format!("uhscm_a::{f}")), both, "{f}");
        }
        assert_eq!(callees(&g, "uhscm_a::lit::literal"), both);
    }

    #[test]
    fn crate_prefix_resolves_to_caller_crate() {
        let (_, g) = graph(&[
            ("crates/a/src/deep.rs", "pub fn run() { crate::util::go(); }\n"),
            ("crates/a/src/util.rs", "pub fn go() {}\n"),
        ]);
        assert_eq!(callees(&g, "uhscm_a::deep::run"), vec!["uhscm_a::util::go"]);
    }
}
