//! Lint rules.
//!
//! Each rule walks the masked source (see [`crate::lexer`]) and reports
//! [`Finding`]s. Rules are purely textual — no type information — so they
//! are scoped conservatively by file category and rely on the allowlist
//! for the cases where the textual heuristic is intentionally violated.

use crate::lexer::MaskedFile;

/// Which part of the workspace a file belongs to; decides rule scope.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Category {
    /// `crates/*/src` for the algorithmic crates — full rule set.
    Library,
    /// `crates/bench` library code — harness/reporting, allowed to print.
    Bench,
    /// Root `src/` CLI facade — allowed to print and exit.
    RootFacade,
    /// `src/bin/*` and `crates/*/src/bin/*` — standalone binaries; same
    /// scope as the CLI facade (may print/exit, no library rules).
    Bin,
    /// `shims/*` — vendored stand-ins for crates.io packages.
    Shim,
    /// The lint driver itself.
    Xtask,
    /// Integration tests, examples, benches.
    TestLike,
}

impl Category {
    /// Classify a workspace-relative path (forward slashes).
    pub fn of(rel_path: &str) -> Category {
        let in_test_dir =
            ["/tests/", "/benches/", "/examples/"].iter().any(|d| rel_path.contains(d))
                || rel_path.starts_with("tests/")
                || rel_path.starts_with("benches/")
                || rel_path.starts_with("examples/");
        if rel_path.starts_with("xtask/") {
            Category::Xtask
        } else if rel_path.starts_with("shims/") {
            Category::Shim
        } else if in_test_dir && !rel_path.contains("/src/") {
            // Integration tests/benches/examples of any crate, including
            // nested ones like `crates/bench/benches/*` (previously
            // misfiled under Bench).
            Category::TestLike
        } else if rel_path.starts_with("src/bin/") || rel_path.contains("/src/bin/") {
            // Standalone binaries, including `crates/*/src/bin/*.rs`
            // (previously swallowed by the crate-level match).
            Category::Bin
        } else if rel_path.starts_with("crates/bench/") {
            Category::Bench
        } else if rel_path.starts_with("crates/") {
            if rel_path.contains("/src/") {
                Category::Library
            } else {
                Category::TestLike
            }
        } else if rel_path.starts_with("src/") {
            Category::RootFacade
        } else {
            // stray .rs at the workspace root
            Category::TestLike
        }
    }
}

/// How bad a finding is: `Error` fails the lint run (unless allowlisted),
/// `Warning` is reported and counted but does not affect the exit code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One hop of a call-chain witness attached to a reachability finding:
/// the qualified function name plus where it is defined.
#[derive(Clone, Debug)]
pub struct WitnessStep {
    pub qualified: String,
    pub path: String,
    /// 1-based.
    pub line: usize,
}

/// One diagnostic. `key` is the trimmed source line, used for allowlist
/// matching so entries survive line-number drift. `witness`, when
/// non-empty, is the call chain root → … → finding site that makes a
/// semantic finding reachable.
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    /// 1-based.
    pub line: usize,
    pub message: String,
    pub key: String,
    pub severity: Severity,
    pub witness: Vec<WitnessStep>,
}

/// Every rule name a finding (and therefore an allowlist entry) can carry.
/// `panic-budget`, `taint-budget`, `lock-order` and `crate-graph` are
/// deliberately absent: budget regressions must be fixed or re-baselined
/// via `--write-budget`, deadlock-shaped findings must be fixed, and a
/// crate the call graph cannot link must be declared in its manifest —
/// none of them can ever be allowlisted (see [`allowlistable`]).
pub const ALL_RULES: &[&str] = &[
    "no-unwrap",
    "unseeded-rng",
    "raw-thread",
    "obs-gated",
    "float-cmp",
    "no-panic-macro",
    "panics-doc",
    "no-hash-collections",
    "lock-blocking",
];

/// Whether findings of `rule` may be baselined in `xtask/lint.allow`.
/// Budget growth, lock-order cycles/re-entry and crate-graph gaps are
/// always hard errors; `lock-blocking` stays allowlistable because an
/// intentional `Condvar::wait` under its own mutex is the correct
/// coalescing idiom.
pub fn allowlistable(rule: &str) -> bool {
    !matches!(rule, "panic-budget" | "taint-budget" | "lock-order" | "crate-graph")
}

/// Run every applicable rule on one file.
pub fn check_file(rel_path: &str, file: &MaskedFile) -> Vec<Finding> {
    let cat = Category::of(rel_path);
    let mut findings = Vec::new();

    // Reproducibility is absolute: unseeded randomness is banned everywhere,
    // including tests, benches, and the shims themselves.
    unseeded_rng(rel_path, file, &mut findings);

    // All fan-out goes through the deterministic runtime in linalg::par;
    // ad-hoc threads bypass its partitioning contract and thread-count
    // config, so they are banned everywhere else (tests included).
    raw_thread(rel_path, file, &mut findings);

    // Telemetry outside the obs crate must use the gated entry points so
    // instrumented hot loops stay one relaxed atomic load when disabled.
    obs_gated(rel_path, file, &mut findings);

    if cat == Category::Library {
        no_unwrap_expect(rel_path, file, &mut findings);
        float_eq(rel_path, file, &mut findings);
        no_panic_macros(rel_path, file, &mut findings);
        panics_doc(rel_path, file, &mut findings);
        no_hash_collections(rel_path, file, &mut findings);
    }
    findings
}

/// True if `hay[pos..]` starts with `needle` as a whole identifier-ish
/// token (not preceded/followed by an identifier character).
fn token_at(hay: &str, pos: usize, needle: &str) -> bool {
    if !hay[pos..].starts_with(needle) {
        return false;
    }
    let before_ok = pos == 0
        || !hay[..pos].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
    let after = hay[pos + needle.len()..].chars().next();
    let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// All byte offsets where `needle` occurs as a whole token in `hay`.
fn token_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(off) = hay[start..].find(needle) {
        let pos = start + off;
        if token_at(hay, pos, needle) {
            out.push(pos);
        }
        start = pos + needle.len();
    }
    out
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    path: &str,
    file: &MaskedFile,
    lineno: usize,
    message: String,
) {
    findings.push(Finding {
        rule,
        path: path.to_string(),
        line: lineno + 1,
        message,
        key: file.raw_lines.get(lineno).map(|l| l.trim().to_string()).unwrap_or_default(),
        severity: Severity::Error,
        witness: Vec::new(),
    });
}

/// `no-unwrap`: `.unwrap()` / `.expect(..)` in non-test library code.
/// Hot paths should propagate `Result` or carry a contextual `expect`
/// message that names the violated invariant (allowlisted case by case).
fn no_unwrap_expect(path: &str, file: &MaskedFile, findings: &mut Vec<Finding>) {
    for (lineno, line) in file.masked_lines.iter().enumerate() {
        if file.in_test_region(lineno) {
            continue;
        }
        for method in [".unwrap", ".expect"] {
            // The leading `.` is its own boundary; only the trailing side
            // needs checking (rejects `.unwrap_or`, `.expect_err`, ...).
            let mut start = 0;
            let mut positions = Vec::new();
            while let Some(off) = line[start..].find(method) {
                let pos = start + off;
                let after = line[pos + method.len()..].chars().next();
                if !after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    positions.push(pos);
                }
                start = pos + method.len();
            }
            for pos in positions {
                // Require a call: `.unwrap()` / `.expect(`, not a path
                // mention or a method like `.unwrap_or` (token_at already
                // rejects the latter).
                if line[pos + method.len()..].trim_start().starts_with('(') {
                    push(
                        findings,
                        "no-unwrap",
                        path,
                        file,
                        lineno,
                        format!(
                            "`{}` in library code: return a Result or use a contextual \
                             `expect` naming the invariant, then allowlist it",
                            &method[1..]
                        ),
                    );
                }
            }
        }
    }
}

/// `unseeded-rng`: entropy-seeded randomness anywhere in the workspace.
/// Every random draw must flow from an explicit `u64` seed or results
/// are not reproducible.
fn unseeded_rng(path: &str, file: &MaskedFile, findings: &mut Vec<Finding>) {
    for (lineno, line) in file.masked_lines.iter().enumerate() {
        for tok in ["thread_rng", "from_entropy", "random"] {
            for pos in token_positions(line, tok) {
                // `random` only counts as the free function `rand::random`.
                if tok == "random" && !line[..pos].ends_with("rand::") {
                    continue;
                }
                push(
                    findings,
                    "unseeded-rng",
                    path,
                    file,
                    lineno,
                    format!("`{tok}` draws from OS entropy; derive an explicit u64 seed instead"),
                );
            }
        }
    }
}

/// `raw-thread`: direct `thread::spawn` / `thread::scope` /
/// `thread::Builder` anywhere outside `crates/linalg/src/par.rs`. The par
/// module is the single place allowed to touch std threads: everything
/// else must go through its deterministic banded fan-out so that thread
/// count, work thresholds and bitwise-reproducibility guarantees hold.
/// Modules allowed to own OS threads: the deterministic data-parallel
/// runtime, and the serve worker pool (acceptor / connection / batch
/// threads are I/O-bound and routed through one audited spawn point).
const RAW_THREAD_ALLOWED: [&str; 2] = ["crates/linalg/src/par.rs", "crates/serve/src/pool.rs"];

fn raw_thread(path: &str, file: &MaskedFile, findings: &mut Vec<Finding>) {
    if RAW_THREAD_ALLOWED.contains(&path) {
        return;
    }
    for (lineno, line) in file.masked_lines.iter().enumerate() {
        for tok in ["spawn", "scope", "Builder"] {
            for pos in token_positions(line, tok) {
                if !line[..pos].ends_with("thread::") {
                    continue;
                }
                push(
                    findings,
                    "raw-thread",
                    path,
                    file,
                    lineno,
                    format!(
                        "`thread::{tok}` outside linalg::par / serve::pool: use \
                         uhscm_linalg::par (par_row_bands_mut / par_map_chunks) \
                         or uhscm_serve's WorkerPool so partitioning, thread count \
                         and shutdown joins stay in audited modules"
                    ),
                );
            }
        }
    }
}

/// `obs-gated`: `*_unguarded` observability entry points anywhere outside
/// `crates/obs/`. The unguarded variants skip the enabled-check; calling
/// them from instrumented code would pay lock/clock costs even with tracing
/// off, breaking the obs overhead contract (one relaxed atomic load).
fn obs_gated(path: &str, file: &MaskedFile, findings: &mut Vec<Finding>) {
    if path.starts_with("crates/obs/") {
        return;
    }
    const SUFFIX: &str = "_unguarded";
    for (lineno, line) in file.masked_lines.iter().enumerate() {
        let mut start = 0;
        while let Some(off) = line[start..].find(SUFFIX) {
            let pos = start + off;
            let after = line[pos + SUFFIX.len()..].chars().next();
            if !after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                push(
                    findings,
                    "obs-gated",
                    path,
                    file,
                    lineno,
                    "`*_unguarded` observability call outside crates/obs: use the gated \
                     entry points (uhscm_obs::span / registry::counter_add / sink::emit) \
                     so the disabled path stays a single relaxed atomic load"
                        .to_string(),
                );
            }
            start = pos + SUFFIX.len();
        }
    }
}

/// True if `operand` textually looks like a float expression: contains a
/// float literal (`1.0`, `0.5e-3`) or an `f64`/`f32` token. Shared with
/// the parser's integer-division classifier.
pub(crate) fn looks_float(operand: &str) -> bool {
    if token_positions(operand, "f64")
        .into_iter()
        .chain(token_positions(operand, "f32"))
        .next()
        .is_some()
    {
        return true;
    }
    let chars: Vec<char> = operand.chars().collect();
    for i in 1..chars.len() {
        if chars[i] == '.'
            && chars[i - 1].is_ascii_digit()
            && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit())
        {
            return true;
        }
    }
    false
}

/// `float-cmp`: `==` / `!=` against a float operand in numeric code.
/// Exact comparisons are legitimate only for sign/sparsity checks on
/// values constructed exactly (e.g. `sign()` outputs) — allowlist those.
fn float_eq(path: &str, file: &MaskedFile, findings: &mut Vec<Finding>) {
    for (lineno, line) in file.masked_lines.iter().enumerate() {
        if file.in_test_region(lineno) {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            let two = &line[i..i + 2];
            let is_eq = two == "==";
            let is_ne = two == "!=";
            if !(is_eq || is_ne) {
                i += 1;
                continue;
            }
            // Exclude `<=`, `>=`, `===`-like runs and pattern arrows.
            let prev = if i > 0 { bytes[i - 1] } else { b' ' };
            let next = if i + 2 < bytes.len() { bytes[i + 2] } else { b' ' };
            if is_eq
                && (prev == b'<' || prev == b'>' || prev == b'!' || prev == b'=' || next == b'=')
            {
                i += 2;
                continue;
            }
            let lhs = operand_before(line, i);
            let rhs = operand_after(line, i + 2);
            if looks_float(&lhs) || looks_float(&rhs) {
                push(
                    findings,
                    "float-cmp",
                    path,
                    file,
                    lineno,
                    format!(
                        "exact float comparison `{} {} {}`: compare against a tolerance, \
                         or allowlist if the values are exact by construction",
                        lhs.trim(),
                        two,
                        rhs.trim()
                    ),
                );
            }
            i += 2;
        }
    }
}

const OPERAND_DELIMS: &[char] = &['(', ')', '{', '}', ',', ';', '&', '|', '[', ']'];

pub(crate) fn operand_before(line: &str, end: usize) -> String {
    let start = line[..end].rfind(OPERAND_DELIMS).map(|p| p + 1).unwrap_or(0);
    line[start..end].to_string()
}

pub(crate) fn operand_after(line: &str, start: usize) -> String {
    let end = line[start..].find(OPERAND_DELIMS).map(|p| start + p).unwrap_or(line.len());
    line[start..end].to_string()
}

/// `no-panic-macro`: `panic!` / `todo!` / `unimplemented!` / `dbg!` /
/// `println!` in library crates. Libraries signal errors through types or
/// documented asserts; stdout belongs to the CLI and bench harness.
fn no_panic_macros(path: &str, file: &MaskedFile, findings: &mut Vec<Finding>) {
    for (lineno, line) in file.masked_lines.iter().enumerate() {
        if file.in_test_region(lineno) {
            continue;
        }
        for mac in ["panic!", "todo!", "unimplemented!", "dbg!", "println!"] {
            let bare = &mac[..mac.len() - 1];
            for pos in token_positions(line, bare) {
                if line[pos + bare.len()..].starts_with('!') {
                    push(
                        findings,
                        "no-panic-macro",
                        path,
                        file,
                        lineno,
                        format!("`{mac}` in library code: use Result, a documented assert, or move output to the CLI/bench layer"),
                    );
                }
            }
        }
    }
}

/// `no-hash-collections`: `HashMap` / `HashSet` in non-test library code.
/// Their iteration order differs between runs, so a float sum, a report
/// or a tie-break driven by one breaks the bitwise reproducibility
/// contract (DESIGN.md §9); `BTreeMap` / `BTreeSet` iterate in key order.
fn no_hash_collections(path: &str, file: &MaskedFile, findings: &mut Vec<Finding>) {
    for (lineno, line) in file.masked_lines.iter().enumerate() {
        if file.in_test_region(lineno) {
            continue;
        }
        for tok in ["HashMap", "HashSet"] {
            if !token_positions(line, tok).is_empty() {
                push(
                    findings,
                    "no-hash-collections",
                    path,
                    file,
                    lineno,
                    format!(
                        "`{tok}` in library code iterates in a different order on every \
                         run: use BTreeMap/BTreeSet, or allowlist a map that is never iterated"
                    ),
                );
            }
        }
    }
}

/// `panics-doc`: a `pub fn` whose body can assert/panic must document it
/// under a `# Panics` heading.
fn panics_doc(path: &str, file: &MaskedFile, findings: &mut Vec<Finding>) {
    // Flatten to one string with an offset -> line map for brace matching.
    let mut text = String::new();
    let mut line_of = Vec::new(); // line_of[byte offset] = line index
    for (lineno, line) in file.masked_lines.iter().enumerate() {
        for _ in 0..line.len() + 1 {
            line_of.push(lineno);
        }
        text.push_str(line);
        text.push('\n');
    }

    for sig_pos in token_positions(&text, "pub") {
        // Accept `pub fn` (with optional qualifiers); skip `pub(crate) fn`
        // etc. — not public API.
        let mut after_pub = text[sig_pos + 3..].trim_start();
        for qual in ["const ", "unsafe ", "async "] {
            after_pub = after_pub.strip_prefix(qual).unwrap_or(after_pub).trim_start();
        }
        if !after_pub.starts_with("fn ") {
            continue;
        }
        let sig_line = line_of[sig_pos];
        if file.in_test_region(sig_line) {
            continue;
        }
        // Find the body: first `{` after the signature (a `;` first means
        // a trait method declaration — no body to check).
        let mut i = sig_pos;
        let bytes = text.as_bytes();
        while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b';' {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] == b';' {
            continue;
        }
        let body_start = i;
        let mut depth = 0i64;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        let body = &text[body_start..i.min(text.len())];
        let can_panic = ["assert", "assert_eq", "assert_ne", "panic"].iter().any(|mac| {
            token_positions(body, mac).into_iter().any(|p| body[p + mac.len()..].starts_with('!'))
        });
        if !can_panic {
            continue;
        }
        // Walk doc comments above the signature (skipping attributes).
        let mut documented = false;
        let mut l = sig_line;
        while l > 0 {
            l -= 1;
            let raw = file.raw_lines[l].trim();
            if raw.starts_with("#[") || raw.starts_with("#!") {
                continue;
            }
            if let Some(doc) = raw.strip_prefix("///") {
                if doc.trim() == "# Panics" {
                    documented = true;
                }
                continue;
            }
            break;
        }
        if !documented {
            push(
                findings,
                "panics-doc",
                path,
                file,
                sig_line,
                "pub fn asserts but its doc comment has no `# Panics` section".to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        check_file(path, &scan(src))
    }

    #[test]
    fn categories_resolve() {
        // (path, expected) — one row per classification rule, including
        // the former misclassifications: `crates/*/src/bin/*.rs` used to
        // land in Library/Bench and `crates/bench/benches/*` in Bench.
        let table: &[(&str, Category)] = &[
            ("crates/core/src/lib.rs", Category::Library),
            ("crates/core/src/trainer.rs", Category::Library),
            ("crates/core/tests/t.rs", Category::TestLike),
            ("crates/core/benches/b.rs", Category::TestLike),
            ("crates/core/examples/e.rs", Category::TestLike),
            ("crates/bench/src/lib.rs", Category::Bench),
            ("crates/bench/benches/kernels.rs", Category::TestLike),
            ("crates/bench/src/bin/table1.rs", Category::Bin),
            ("crates/eval/src/bin/tool.rs", Category::Bin),
            ("src/bin/uhscm.rs", Category::Bin),
            ("src/cli.rs", Category::RootFacade),
            ("src/lib.rs", Category::RootFacade),
            ("shims/rand/src/lib.rs", Category::Shim),
            ("xtask/src/main.rs", Category::Xtask),
            ("tests/e2e.rs", Category::TestLike),
            ("examples/demo.rs", Category::TestLike),
            ("benches/macro.rs", Category::TestLike),
        ];
        for (path, expected) in table {
            assert_eq!(Category::of(path), *expected, "{path}");
        }
    }

    #[test]
    fn bin_category_exempt_from_library_rules() {
        // Binaries may print and unwrap (CLI-style error handling) but are
        // still subject to the global reproducibility rules.
        assert_eq!(lint("crates/bench/src/bin/table1.rs", "fn main() { x.unwrap(); }").len(), 0);
        assert_eq!(lint("src/bin/uhscm.rs", "fn main() { println!(\"x\"); }").len(), 0);
        assert_eq!(
            lint("crates/bench/src/bin/table1.rs", "fn main() { let r = thread_rng(); }").len(),
            1
        );
    }

    #[test]
    fn unwrap_flagged_in_library_only() {
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(lint("crates/core/src/a.rs", src).len(), 1);
        assert_eq!(lint("tests/a.rs", src).len(), 0);
        assert_eq!(lint("src/cli.rs", src).len(), 0);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_default(); }";
        assert_eq!(lint("crates/core/src/a.rs", src).len(), 0);
    }

    #[test]
    fn expect_flagged() {
        let src = "fn f() { x.expect(\"m\"); }";
        let f = lint("crates/core/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-unwrap");
    }

    #[test]
    fn test_regions_exempt_from_unwrap() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert_eq!(lint("crates/core/src/a.rs", src).len(), 0);
    }

    #[test]
    fn unseeded_rng_flagged_everywhere() {
        let src = "fn f() { let mut r = thread_rng(); }";
        for p in ["crates/core/src/a.rs", "tests/a.rs", "shims/x/src/lib.rs"] {
            let f = lint(p, src);
            assert_eq!(f.len(), 1, "{p}");
            assert_eq!(f[0].rule, "unseeded-rng");
        }
    }

    #[test]
    fn seeded_rng_ok() {
        assert_eq!(lint("crates/core/src/a.rs", "fn f() { let r = seeded(42); }").len(), 0);
    }

    #[test]
    fn float_eq_flagged() {
        let f = lint("crates/core/src/a.rs", "fn f(a: f64) { if a == 0.0 {} }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "float-cmp");
    }

    #[test]
    fn float_ne_flagged_int_eq_not() {
        assert_eq!(lint("crates/core/src/a.rs", "fn f(a: f64) { let b = a != 1.5; }").len(), 1);
        assert_eq!(lint("crates/core/src/a.rs", "fn f(n: usize) { if n == 0 {} }").len(), 0);
    }

    #[test]
    fn range_and_le_not_float_cmp() {
        assert_eq!(
            lint("crates/core/src/a.rs", "fn f(n: usize) { for i in 0..n { if i <= 3 {} } }").len(),
            0
        );
    }

    #[test]
    fn panic_macros_flagged() {
        let f = lint("crates/core/src/a.rs", "fn f() { panic!(\"boom\"); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-panic-macro");
        // println in bench/CLI is fine.
        assert_eq!(lint("crates/bench/src/a.rs", "fn f() { println!(\"x\"); }").len(), 0);
    }

    #[test]
    fn panics_doc_required() {
        let bad = "/// Does a thing.\npub fn f(n: usize) { assert!(n > 0); }\n";
        let f = lint("crates/core/src/a.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "panics-doc");

        let good = "/// Does a thing.\n///\n/// # Panics\n///\n/// If `n == 0`.\npub fn f(n: usize) { assert!(n > 0); }\n";
        assert_eq!(lint("crates/core/src/a.rs", good).len(), 0);
    }

    #[test]
    fn panics_doc_ignores_non_asserting_fns() {
        assert_eq!(lint("crates/core/src/a.rs", "pub fn f(n: usize) -> usize { n + 1 }").len(), 0);
        // debug_assert is compiled out in release; not required to be documented.
        assert_eq!(
            lint("crates/core/src/a.rs", "pub fn f(n: usize) { debug_assert!(n > 0); }").len(),
            0
        );
    }

    #[test]
    fn raw_thread_flagged_everywhere_but_par() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        for p in ["crates/core/src/a.rs", "tests/a.rs", "shims/x/src/lib.rs", "src/cli.rs"] {
            let f = lint(p, src);
            assert_eq!(f.len(), 1, "{p}");
            assert_eq!(f[0].rule, "raw-thread");
        }
        assert_eq!(lint("crates/linalg/src/par.rs", src).len(), 0);
        assert_eq!(lint("crates/serve/src/pool.rs", src).len(), 0);
        // Only the pool module of the serve crate is exempt, not the crate.
        assert_eq!(lint("crates/serve/src/server.rs", src).len(), 1);
    }

    #[test]
    fn raw_thread_catches_scope_and_builder() {
        assert_eq!(lint("crates/core/src/a.rs", "fn f() { thread::scope(|s| {}); }").len(), 1);
        assert_eq!(lint("crates/core/src/a.rs", "fn f() { thread::Builder::new(); }").len(), 1);
        // Unqualified or unrelated identifiers are not thread primitives.
        assert_eq!(lint("crates/core/src/a.rs", "fn f() { spawn(); scope(); }").len(), 0);
        assert_eq!(lint("crates/core/src/a.rs", "fn f() { x.scope_id(); }").len(), 0);
    }

    #[test]
    fn obs_gated_flagged_everywhere_but_obs_crate() {
        let src = "fn f() { uhscm_obs::registry::counter_add_unguarded(\"c\", 1); }";
        for p in ["crates/core/src/a.rs", "tests/a.rs", "src/cli.rs", "crates/eval/tests/t.rs"] {
            let f = lint(p, src);
            assert_eq!(f.len(), 1, "{p}");
            assert_eq!(f[0].rule, "obs-gated");
        }
        assert_eq!(lint("crates/obs/src/span.rs", src).len(), 0);
    }

    #[test]
    fn obs_gated_ignores_gated_calls_and_longer_idents() {
        assert_eq!(
            lint("crates/core/src/a.rs", "fn f() { uhscm_obs::registry::counter_add(\"c\", 1); }")
                .len(),
            0
        );
        // `_unguardedly` is a different identifier, not the suffix.
        assert_eq!(lint("crates/core/src/a.rs", "fn f() { run_unguardedly(); }").len(), 0);
    }

    #[test]
    fn hash_collections_flagged_in_non_test_library_code_only() {
        let src = "use std::collections::HashMap;\nfn f(s: &HashSet<u32>) {}\n";
        let f = lint("crates/core/src/a.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == "no-hash-collections"));
        // Test modules, tests and binaries may hash; BTree collections and
        // longer identifiers are not hash collections.
        let test_mod =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(lint("crates/core/src/a.rs", test_mod).is_empty());
        assert!(lint("tests/a.rs", src).is_empty());
        assert!(lint("src/bin/uhscm.rs", src).is_empty());
        assert!(
            lint("crates/core/src/a.rs", "fn f(m: BTreeMap<u8, u8>, h: HashMapLike) {}").is_empty()
        );
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "fn f() { let s = \"call .unwrap() or panic!\"; } // thread_rng\n";
        assert_eq!(lint("crates/core/src/a.rs", src).len(), 0);
    }
}
