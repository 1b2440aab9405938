//! `uhscm-xtask` — workspace automation, std-only.
//!
//! ```text
//! cargo run -p uhscm-xtask -- lint                    # check, exit 1 on errors
//! cargo run -p uhscm-xtask -- lint --json             # machine-readable report
//! cargo run -p uhscm-xtask -- lint --write-baseline   # regenerate xtask/lint.allow
//! cargo run -p uhscm-xtask -- lint --write-budget     # regenerate the budget files
//! cargo run -p uhscm-xtask -- ci                      # fmt-check + lint + tier-1 tests
//! ```
//!
//! The `lint` command scans every `.rs` file in the workspace (skipping
//! `target/`), plus the `crates/*` and `shims/*` manifests, with two
//! layers of checks:
//!
//! **Textual rules** on the masked source (see [`rules`]):
//!
//! * `no-unwrap`      — no `.unwrap()` / `.expect()` in non-test library code
//! * `unseeded-rng`   — no `thread_rng` / `from_entropy` / `rand::random` anywhere
//! * `raw-thread`     — no `thread::spawn`/`scope`/`Builder` outside `linalg::par`
//! * `obs-gated`      — no `*_unguarded` observability calls outside `crates/obs`
//! * `float-cmp`      — no exact `==` / `!=` on floats in numeric code
//! * `no-panic-macro` — no `panic!`/`todo!`/`unimplemented!`/`dbg!`/`println!`
//!   in library crates
//! * `panics-doc`     — `pub fn`s that assert must document `# Panics`
//! * `no-hash-collections` — no `HashMap`/`HashSet` in non-test library
//!   code: their iteration order differs between runs
//! * `crate-graph`    — a library file names a workspace crate that its
//!   manifest's `[dependencies]` closure lacks; never allowlistable
//!
//! **Semantic passes** on the workspace call graph (see [`parser`],
//! [`callgraph`], [`analysis`]):
//!
//! * `panic-budget`   — panic sites reachable from hot-path roots, checked
//!   against `xtask/panic.budget`; growth fails, never allowlistable
//! * `lock-order`     — acquired-while-held cycles and same-lock re-entry;
//!   never allowlistable
//! * `lock-blocking`  — blocking I/O / sleeps / joins reachable while a
//!   guard is live (allowlistable: intentional `Condvar::wait`)
//! * `taint-budget`   — untrusted wire/CLI/bundle values flowing to
//!   index/cast/arith/alloc-size sinks, checked against
//!   `xtask/taint.budget`; growth fails, never allowlistable
//!
//! Accepted findings live in `xtask/lint.allow` with mandatory one-line
//! justifications; stale, duplicate or unknown-rule entries fail the run.
//! Diagnostics are rustc-style `file:line` so editors can jump to them;
//! `--json` emits the `uhscm-lint/4` report (schema in [`json`]) on stdout
//! with diagnostics moved to stderr.
//!
//! The `ci` command chains the full tier-1 gate: `cargo fmt --check`, the
//! lint above (in-process, writing the pass timings to `BENCH_lint.json`),
//! `cargo build --release`, `cargo test --workspace`, the kernel-regression
//! gate, cross-process smokes of the online retrieval service and the
//! segment store (see [`smoke`]), and the benchmark's smoke test
//! (`perfbench/tests/smoke.rs`).

mod allowlist;
mod analysis;
mod callgraph;
mod json;
mod lexer;
mod parser;
mod rules;
mod smoke;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let mut opts = LintOpts {
                write_baseline: false,
                write_budget: false,
                json_stdout: false,
                bench_file: None,
            };
            for arg in &args[1..] {
                match arg.as_str() {
                    "--write-baseline" => opts.write_baseline = true,
                    "--write-budget" => opts.write_budget = true,
                    "--json" => opts.json_stdout = true,
                    bad => {
                        eprintln!("uhscm-xtask: unknown lint flag `{bad}`");
                        return usage();
                    }
                }
            }
            ExitCode::from(lint(&opts))
        }
        Some("ci") => {
            if let Some(bad) = args.get(1) {
                eprintln!("uhscm-xtask: unknown ci flag `{bad}`");
                return usage();
            }
            ci()
        }
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo run -p uhscm-xtask -- <lint [flags] | ci>\n\
         \n\
         commands:\n\
         \x20 lint                  scan workspace sources; exit 1 on errors\n\
         \x20 lint --json           print the uhscm-lint/4 JSON report on stdout\n\
         \x20                       (diagnostics go to stderr)\n\
         \x20 lint --write-baseline rewrite xtask/lint.allow from current findings,\n\
         \x20                       keeping existing justifications\n\
         \x20 lint --write-budget   rewrite xtask/panic.budget and xtask/taint.budget\n\
         \x20                       from the current counts\n\
         \x20 ci                    fmt-check + lint (writes BENCH_lint.json) +\n\
         \x20                       release build + workspace tests +\n\
         \x20                       kernel-regression gate + serve smoke +\n\
         \x20                       scale smoke + benchmark smoke (the full gate)"
    );
    ExitCode::from(2)
}

/// The chained tier-1 gate: rustfmt check, the in-process linter (which
/// also writes `BENCH_lint.json`), `cargo build --release`, every
/// workspace member's tests (`cargo test --workspace`), the
/// kernel-regression gate (tuned kernels must stay bitwise identical to —
/// and no slower than — their naive references), the serve and scale
/// smokes, then the benchmark's smoke test, so a product API change that
/// breaks the benchmark's build or its oracle checks fails here. Stops at
/// the first failing step.
fn ci() -> ExitCode {
    let root = workspace_root();
    println!("ci [1/8]: cargo fmt --all -- --check");
    if !run_step(
        "cargo fmt",
        std::process::Command::new("cargo")
            .args(["fmt", "--all", "--", "--check"])
            .current_dir(&root),
    ) {
        return ExitCode::from(1);
    }
    println!("ci [2/8]: lint (timings: BENCH_lint.json)");
    let opts = LintOpts {
        write_baseline: false,
        write_budget: false,
        json_stdout: false,
        bench_file: Some(root.join("BENCH_lint.json")),
    };
    let lint_code = lint(&opts);
    if lint_code != 0 {
        return ExitCode::from(lint_code);
    }
    println!("ci [3/8]: cargo build --release");
    if !run_step(
        "cargo build",
        std::process::Command::new("cargo").args(["build", "--release"]).current_dir(&root),
    ) {
        return ExitCode::from(1);
    }
    println!("ci [4/8]: cargo test -q --workspace");
    if !run_step(
        "cargo test",
        std::process::Command::new("cargo").args(["test", "-q", "--workspace"]).current_dir(&root),
    ) {
        return ExitCode::from(1);
    }
    println!("ci [5/8]: kernel regression (tuned vs naive, bitwise + throughput floor)");
    if !run_step(
        "kernel_regression",
        std::process::Command::new("cargo")
            .args(["run", "--release", "-p", "uhscm-bench", "--bin", "kernel_regression"])
            .current_dir(&root),
    ) {
        return ExitCode::from(1);
    }
    println!("ci [6/8]: serve smoke (start -> query -> drain)");
    if let Err(msg) = smoke::serve_smoke(&root) {
        eprintln!("ci: serve smoke failed: {msg}");
        return ExitCode::from(1);
    }
    println!("ci [7/8]: scale smoke (stream-build 10k store -> info -> verify vs in-memory)");
    if let Err(msg) = smoke::scale_smoke(&root) {
        eprintln!("ci: scale smoke failed: {msg}");
        return ExitCode::from(1);
    }
    println!("ci [8/8]: benchmark smoke (perfbench, tiny workloads, oracle checks)");
    if !run_step(
        "perfbench smoke",
        std::process::Command::new("cargo")
            .args(["test", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"])
            .current_dir(&root),
    ) {
        return ExitCode::from(1);
    }
    println!("ci: all steps passed");
    ExitCode::SUCCESS
}

/// Run one external ci step, reporting how it failed (if it did).
fn run_step(name: &str, cmd: &mut std::process::Command) -> bool {
    match cmd.status() {
        Ok(status) if status.success() => true,
        Ok(status) => {
            eprintln!("uhscm-xtask ci: step `{name}` failed ({status})");
            false
        }
        Err(e) => {
            eprintln!("uhscm-xtask ci: cannot run `{name}`: {e}");
            false
        }
    }
}

/// Workspace root = parent of the xtask crate (CARGO_MANIFEST_DIR).
fn workspace_root() -> PathBuf {
    let manifest =
        std::env::var("CARGO_MANIFEST_DIR").expect("CARGO_MANIFEST_DIR is always set under cargo");
    Path::new(&manifest)
        .parent()
        .expect("xtask sits one level below the workspace root")
        .to_path_buf()
}

struct LintOpts {
    write_baseline: bool,
    write_budget: bool,
    /// Print the JSON report on stdout; diagnostics move to stderr.
    json_stdout: bool,
    /// Write per-pass wall-times here (used by `ci` → `BENCH_lint.json`).
    bench_file: Option<PathBuf>,
}

/// Run the linter; returns the process exit code (0 = clean).
fn lint(opts: &LintOpts) -> u8 {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_sources(&root, &root, &mut files);
    files.sort();

    // Diagnostics go to stderr when stdout carries the JSON report.
    macro_rules! diag {
        ($($arg:tt)*) => {
            if opts.json_stdout { eprintln!($($arg)*) } else { println!($($arg)*) }
        };
    }

    let mut sources: Vec<(String, String)> = Vec::new();
    for rel in &files {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => sources.push((rel.clone(), s)),
            Err(e) => {
                eprintln!("uhscm-xtask: cannot read {rel}: {e}");
                return 2;
            }
        }
    }

    // Layer 1: textual rules, and the crate-graph check on the manifests.
    let ws = callgraph::Workspace::from_sources(&sources);
    let mut findings = ws.undeclared_crate_findings();
    for file in &ws.files {
        findings.extend(rules::check_file(&file.path, &file.masked));
    }

    // Layer 2: semantic passes over the call graph.
    let graph = callgraph::Graph::build(&ws);
    let budget_path = root.join("xtask/panic.budget");
    let budget_src = std::fs::read_to_string(&budget_path).ok();
    let taint_budget_path = root.join("xtask/taint.budget");
    let taint_budget_src = std::fs::read_to_string(&taint_budget_path).ok();
    let analysis = analysis::run(&ws, &graph, budget_src.as_deref(), taint_budget_src.as_deref());

    if opts.write_budget {
        let rendered = analysis::render_budget(&analysis.roots);
        if let Err(e) = std::fs::write(&budget_path, rendered) {
            eprintln!("uhscm-xtask: cannot write {}: {e}", budget_path.display());
            return 2;
        }
        diag!(
            "wrote {} ({} roots, {} reachable panic sites)",
            budget_path.display(),
            analysis.roots.len(),
            analysis.roots.iter().map(|r| r.sites.len()).sum::<usize>()
        );
        let rendered = analysis::render_taint_budget(&analysis.taint_roots);
        if let Err(e) = std::fs::write(&taint_budget_path, rendered) {
            eprintln!("uhscm-xtask: cannot write {}: {e}", taint_budget_path.display());
            return 2;
        }
        diag!(
            "wrote {} ({} source groups, {} tainted sink sites)",
            taint_budget_path.display(),
            analysis.taint_roots.len(),
            analysis.taint_roots.iter().map(|r| r.sites.len()).sum::<usize>()
        );
        return 0;
    }

    findings.extend(analysis.findings);
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let allow_path = root.join("xtask/lint.allow");
    let allow_src = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let allow = match allowlist::Allowlist::parse(&allow_src, rules::ALL_RULES) {
        Ok(a) => a,
        Err(errors) => {
            for e in errors {
                eprintln!("error: {e}");
            }
            return 1;
        }
    };

    if opts.write_baseline {
        // Budget and lock-order findings are never allowlistable — keep
        // them out of the baseline (budgets are re-baselined via
        // --write-budget; ordering cycles must be fixed).
        let baselinable: Vec<rules::Finding> =
            findings.into_iter().filter(|f| rules::allowlistable(f.rule)).collect();
        let rendered = allowlist::render(&baselinable, &allow);
        if let Err(e) = std::fs::write(&allow_path, rendered) {
            eprintln!("uhscm-xtask: cannot write {}: {e}", allow_path.display());
            return 2;
        }
        println!(
            "wrote {} ({} findings baselined over {} files)",
            allow_path.display(),
            baselinable.len(),
            files.len()
        );
        return 0;
    }

    let mut failures = 0usize;
    let mut warnings = 0usize;
    let mut allowed = 0usize;
    let mut classified: Vec<(&rules::Finding, bool)> = Vec::new();
    for f in &findings {
        let is_allowed = rules::allowlistable(f.rule) && allow.covers(f);
        classified.push((f, is_allowed));
        if is_allowed {
            allowed += 1;
            continue;
        }
        diag!("{}:{}: {}[{}]: {}", f.path, f.line, f.severity.label(), f.rule, f.message);
        for (i, step) in f.witness.iter().enumerate() {
            diag!("    {}{} ({}:{})", "  ".repeat(i), step.qualified, step.path, step.line);
        }
        match f.severity {
            rules::Severity::Error => failures += 1,
            rules::Severity::Warning => warnings += 1,
        }
    }
    for e in allow.stale() {
        failures += 1;
        diag!(
            "xtask/lint.allow:{}: error[stale-allow]: entry for `{}` in {} no longer \
             matches any finding — remove it (was: {})",
            e.allow_line,
            e.rule,
            e.path,
            e.key
        );
    }

    let report = json::render(&json::Report {
        files_scanned: files.len(),
        findings: &classified,
        roots: &analysis.roots,
        taint_roots: &analysis.taint_roots,
        timings: &analysis.timings,
        errors: failures,
        warnings,
        allowlisted: allowed,
    });
    if opts.json_stdout {
        print!("{report}");
    }
    if let Some(path) = &opts.bench_file {
        let passes: Vec<String> = analysis
            .timings
            .iter()
            .map(|(name, nanos)| {
                format!(
                    "    {{\"analysis\": \"{name}\", \"nanos\": {nanos}, \"millis\": {:.3}}}",
                    *nanos as f64 / 1e6
                )
            })
            .collect();
        let bench = format!(
            "{{\n  \"schema\": \"uhscm-bench-lint/1\",\n  \"files_scanned\": {},\n  \
             \"passes\": [\n{}\n  ]\n}}\n",
            files.len(),
            passes.join(",\n")
        );
        if let Err(e) = std::fs::write(path, bench) {
            eprintln!("uhscm-xtask: cannot write {}: {e}", path.display());
            return 2;
        }
    }

    diag!(
        "uhscm-xtask lint: {} files scanned, {} findings ({} allowlisted, {} warnings, {} errors)",
        files.len(),
        findings.len(),
        allowed,
        warnings,
        failures
    );
    if failures > 0 {
        1
    } else {
        0
    }
}

/// Recursively collect workspace-relative paths of `.rs` files and
/// `Cargo.toml` manifests, skipping build output and VCS metadata.
fn collect_sources(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_sources(root, &path, out);
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}
