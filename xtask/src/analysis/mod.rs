//! Semantic passes over the workspace call graph.
//!
//! Seven analyses run on every lint (DESIGN.md §11, §13, §16):
//!
//! * **panic-reachability** ([`panic_reach`]) — BFS from the declared
//!   hot-path roots below; every intrinsic panic site in a reachable
//!   function counts against that root's budget in `xtask/panic.budget`.
//!   Growth over the checked-in budget is an error (never allowlistable);
//!   slack is a warning nudging a `--write-budget` re-baseline.
//! * **determinism** ([`determinism`]) — `HashMap`/`HashSet` iteration in
//!   any library function reachable from a root is an error: iteration
//!   order can reorder float accumulation across runs.
//! * **dead-export** ([`dead_export`]) — `pub` library functions with no
//!   caller outside their crate (tests count) are warnings.
//! * **lock-order** ([`locks`]) — cycles and same-lock re-entry in the
//!   acquired-while-held graph; errors, never allowlistable.
//! * **blocking-under-lock** ([`locks`]) — blocking operations reachable
//!   while a guard is live; errors, allowlistable with justification
//!   (intentional `Condvar::wait` coalescing).
//! * **alloc-budget** ([`alloc_budget`]) — allocation sites reachable from
//!   the hot-path roots, pinned by `xtask/alloc.budget` with the same
//!   semantics as the panic budget (shared machinery in [`budget`]).
//! * **taint-flow** ([`taint`]) — untrusted wire/CLI/bundle values flowing
//!   to indexing, narrowing-cast, unchecked-arithmetic, and
//!   allocation-size sinks, pinned by `xtask/taint.budget`.
//!
//! `lint --only <pass>` runs a single analysis by the names in
//! [`PASS_NAMES`]; `ci` always runs the full set.

pub mod alloc_budget;
pub mod budget;
pub mod dead_export;
pub mod determinism;
pub mod locks;
pub mod panic_reach;
pub mod taint;

pub use budget::BudgetStatus;

use crate::callgraph::{Graph, Workspace};
use crate::parser::PanicKind;
use crate::rules::{Finding, Severity, WitnessStep};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which functions of a root file seed the reachability walk.
pub enum RootFns {
    /// Every non-test `pub fn` in the file.
    PubFns,
    /// Only the named functions (e.g. the search and write path of the shards).
    Named(&'static [&'static str]),
}

/// A hot-path root: a file whose entry points must stay panic-tight.
pub struct RootSpec {
    pub name: &'static str,
    pub path: &'static str,
    pub fns: RootFns,
}

/// The declared hot paths of the reproduction: training pipeline, trainer
/// internals, retrieval metrics, the parallel fan-out runtime, the serve
/// read/write path (generation-swapped shards plus the batch worker and
/// connection dispatch), and the segment-store reader/writer streamed by
/// out-of-core builds.
pub const ROOTS: &[RootSpec] = &[
    RootSpec {
        name: "uhscm_core::pipeline",
        path: "crates/core/src/pipeline.rs",
        fns: RootFns::PubFns,
    },
    RootSpec {
        name: "uhscm_core::trainer",
        path: "crates/core/src/trainer.rs",
        fns: RootFns::PubFns,
    },
    RootSpec {
        name: "uhscm_eval::metrics",
        path: "crates/eval/src/metrics.rs",
        fns: RootFns::PubFns,
    },
    RootSpec { name: "uhscm_linalg::par", path: "crates/linalg/src/par.rs", fns: RootFns::PubFns },
    RootSpec {
        name: "uhscm_serve::shard",
        path: "crates/serve/src/shard.rs",
        fns: RootFns::Named(&["new", "search", "insert", "remove", "snapshot"]),
    },
    RootSpec {
        name: "uhscm_serve::server",
        path: "crates/serve/src/server.rs",
        fns: RootFns::Named(&["run_batch", "handle_frame"]),
    },
    RootSpec {
        name: "uhscm_store::segment",
        path: "crates/store/src/segment.rs",
        fns: RootFns::PubFns,
    },
];

/// One panic site reachable from a root, with its call-chain witness
/// (root fn first, function containing the site last).
pub struct SiteReport {
    pub kind: PanicKind,
    pub path: String,
    /// 1-based.
    pub line: usize,
    pub fn_qualified: String,
    pub witness: Vec<WitnessStep>,
}

/// Per-root reachability summary for the report.
pub struct RootReport {
    pub root: &'static str,
    pub budget: Option<u64>,
    pub reachable_fns: usize,
    pub sites: Vec<SiteReport>,
    pub status: BudgetStatus,
}

/// Everything the semantic passes produce.
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub roots: Vec<RootReport>,
    pub alloc_roots: Vec<alloc_budget::AllocRootReport>,
    pub taint_roots: Vec<taint::TaintRootReport>,
    /// `(analysis name, wall-time nanos)` per pass that ran, report order.
    pub timings: Vec<(&'static str, u128)>,
}

/// The analyses, in report order — the valid arguments to
/// `lint --only <pass>`.
pub const PASS_NAMES: &[&str] = &[
    "panic-reachability",
    "determinism",
    "dead-export",
    "lock-order",
    "blocking-under-lock",
    "alloc-budget",
    "taint-flow",
];

/// Run the passes. The `*_budget_src` arguments are the contents of the
/// corresponding `xtask/*.budget` files (`None` = file missing, an
/// error). Roots whose file has no matching functions in `ws` are
/// skipped, so fixture workspaces exercise only the roots they define.
/// `only` restricts the run to a single pass from [`PASS_NAMES`]
/// (`None` = run everything); `timings` lists only the passes that ran.
pub fn run(
    ws: &Workspace,
    g: &Graph,
    panic_budget_src: Option<&str>,
    alloc_budget_src: Option<&str>,
    taint_budget_src: Option<&str>,
    only: Option<&str>,
) -> Analysis {
    let enabled = |name: &str| only.map_or(true, |o| o == name);
    let mut findings = Vec::new();
    let mut roots_out = Vec::new();
    let mut timings: Vec<(&'static str, u128)> = Vec::new();

    // Reachability per root; remembered for the determinism pass so its
    // findings can reuse the cheapest witness chain.
    let mut reach_witness: BTreeMap<usize, Vec<WitnessStep>> = BTreeMap::new();

    if enabled("panic-reachability") {
        let spec = &budget::PANIC_BUDGET;
        let (panic_budget, budget_errors) = budget::parse(spec, panic_budget_src);
        for e in budget_errors {
            findings.push(budget::finding(spec, e, Severity::Error, Vec::new()));
        }
        let t = Instant::now();
        let mut budgeted_roots: Vec<&str> = Vec::new();

        for spec_root in ROOTS {
            let seeds = seeds_for(ws, g, spec_root);
            if seeds.is_empty() {
                continue;
            }
            budgeted_roots.push(spec_root.name);
            let parent = panic_reach::reach(ws, g, &seeds);
            let mut sites = Vec::new();
            for &n in parent.keys() {
                let chain = panic_reach::witness(ws, g, &parent, n);
                reach_witness.entry(n).or_insert_with(|| chain.clone());
                let item = g.item(ws, n);
                for site in &item.panic_sites {
                    sites.push(SiteReport {
                        kind: site.kind,
                        path: g.path(ws, n).to_string(),
                        line: site.line + 1,
                        fn_qualified: g.nodes[n].qualified.clone(),
                        witness: chain.clone(),
                    });
                }
            }
            sites.sort_by(|a, b| {
                (&a.path, a.line, a.kind, &a.fn_qualified).cmp(&(
                    &b.path,
                    b.line,
                    b.kind,
                    &b.fn_qualified,
                ))
            });

            let allotted = panic_budget.as_ref().and_then(|b| b.get(spec_root.name).copied());
            let count = sites.len() as u64;
            let status = budget::status(allotted, count);
            let witness = if status == BudgetStatus::Over {
                sites.first().map(|s| s.witness.clone()).unwrap_or_default()
            } else {
                Vec::new()
            };
            if let Some(f) =
                budget::status_finding(spec, spec_root.name, allotted, count, status, witness)
            {
                findings.push(f);
            }
            roots_out.push(RootReport {
                root: spec_root.name,
                budget: allotted,
                reachable_fns: parent.len(),
                sites,
                status,
            });
        }
        findings.extend(budget::stale_findings(spec, &panic_budget, &budgeted_roots));
        timings.push(("panic-reachability", t.elapsed().as_nanos()));
    } else if enabled("determinism") {
        // Determinism reuses the reachability witnesses; compute them
        // without any budget bookkeeping when the panic pass is skipped.
        for spec_root in ROOTS {
            let seeds = seeds_for(ws, g, spec_root);
            if seeds.is_empty() {
                continue;
            }
            let parent = panic_reach::reach(ws, g, &seeds);
            for &n in parent.keys() {
                reach_witness.entry(n).or_insert_with(|| panic_reach::witness(ws, g, &parent, n));
            }
        }
    }

    if enabled("determinism") {
        let t = Instant::now();
        findings.extend(determinism::run(ws, g, &reach_witness));
        timings.push(("determinism", t.elapsed().as_nanos()));
    }

    if enabled("dead-export") {
        let t = Instant::now();
        findings.extend(dead_export::run(ws, g));
        timings.push(("dead-export", t.elapsed().as_nanos()));
    }

    if enabled("lock-order") || enabled("blocking-under-lock") {
        let lock_report = locks::run(ws, g);
        if enabled("lock-order") {
            findings.extend(lock_report.lock_order);
            timings.push(("lock-order", lock_report.order_nanos));
        }
        if enabled("blocking-under-lock") {
            findings.extend(lock_report.blocking);
            timings.push(("blocking-under-lock", lock_report.blocking_nanos));
        }
    }

    let mut alloc_roots = Vec::new();
    if enabled("alloc-budget") {
        let t = Instant::now();
        let (alloc_findings, roots) = alloc_budget::run(ws, g, alloc_budget_src);
        findings.extend(alloc_findings);
        alloc_roots = roots;
        timings.push(("alloc-budget", t.elapsed().as_nanos()));
    }

    let mut taint_roots = Vec::new();
    if enabled("taint-flow") {
        let t = Instant::now();
        let (taint_findings, roots) = taint::run(ws, g, taint_budget_src);
        findings.extend(taint_findings);
        taint_roots = roots;
        timings.push(("taint-flow", t.elapsed().as_nanos()));
    }

    Analysis { findings, roots: roots_out, alloc_roots, taint_roots, timings }
}

/// Seed nodes for one root: non-test functions of the root file matching
/// its `RootFns` selector.
fn seeds_for(ws: &Workspace, g: &Graph, spec: &RootSpec) -> Vec<usize> {
    let mut out = Vec::new();
    for (ni, node) in g.nodes.iter().enumerate() {
        if ws.files[node.file].path != spec.path {
            continue;
        }
        let item = g.item(ws, ni);
        if item.in_test {
            continue;
        }
        let selected = match spec.fns {
            RootFns::PubFns => item.is_pub,
            RootFns::Named(names) => names.contains(&item.name.as_str()),
        };
        if selected {
            out.push(ni);
        }
    }
    out
}

/// Render `xtask/panic.budget` from a fresh analysis (for `--write-budget`).
pub fn render_budget(roots: &[RootReport]) -> String {
    let counts: Vec<(&str, usize)> = roots.iter().map(|r| (r.root, r.sites.len())).collect();
    budget::render(&budget::PANIC_BUDGET, &counts)
}

/// Render `xtask/alloc.budget` from a fresh analysis (for `--write-budget`).
pub fn render_alloc_budget(roots: &[alloc_budget::AllocRootReport]) -> String {
    let counts: Vec<(&str, usize)> = roots.iter().map(|r| (r.root, r.sites.len())).collect();
    budget::render(&budget::ALLOC_BUDGET, &counts)
}

/// Render `xtask/taint.budget` from a fresh analysis (for `--write-budget`).
pub fn render_taint_budget(roots: &[taint::TaintRootReport]) -> String {
    let counts: Vec<(&str, usize)> = roots.iter().map(|r| (r.root, r.sites.len())).collect();
    budget::render(&budget::TAINT_BUDGET, &counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{Graph, Workspace};

    /// A miniature hot path mirroring the real layout: `pipeline::run →
    /// trainer::epoch → loss`, with one intrinsic panic site in `loss`.
    fn fixture(extra_panic: bool) -> Vec<(String, String)> {
        let trainer = format!(
            "pub fn epoch(x: &[f64]) -> f64 {{ loss(x) }}\n\
             fn loss(x: &[f64]) -> f64 {{ x[0] }}\n{}",
            if extra_panic {
                "pub fn diag(x: &[f64]) -> f64 { x.first().copied().unwrap() }\n"
            } else {
                ""
            }
        );
        vec![
            (
                "crates/core/src/pipeline.rs".to_string(),
                "pub fn run(x: &[f64]) -> f64 { crate::trainer::epoch(x) }\n".to_string(),
            ),
            ("crates/core/src/trainer.rs".to_string(), trainer),
        ]
    }

    /// The fixture has no allocation sites, so a zeroed alloc budget keeps
    /// the alloc pass clean while the panic assertions run.
    const ZERO_ALLOC: &str = "uhscm_core::pipeline\t0\nuhscm_core::trainer\t0\n";

    /// The fixture defines none of the taint source functions, so an
    /// empty taint budget stays clean.
    const NO_TAINT: &str = "";

    fn analyse(extra_panic: bool, budget: &str) -> Analysis {
        let ws = Workspace::from_sources(&fixture(extra_panic));
        let g = Graph::build(&ws);
        run(&ws, &g, Some(budget), Some(ZERO_ALLOC), Some(NO_TAINT), None)
    }

    #[test]
    fn known_chain_has_correct_witness() {
        // pipeline budget: the x[0] in loss is reachable via epoch.
        let a = analyse(false, "uhscm_core::pipeline\t1\nuhscm_core::trainer\t1\n");
        assert!(
            a.findings.iter().all(|f| f.severity != crate::rules::Severity::Error),
            "{:?}",
            a.findings.iter().map(|f| &f.message).collect::<Vec<_>>()
        );
        let pipeline = a.roots.iter().find(|r| r.root == "uhscm_core::pipeline").unwrap();
        assert_eq!(pipeline.status, BudgetStatus::Ok);
        assert_eq!(pipeline.sites.len(), 1);
        let site = &pipeline.sites[0];
        assert_eq!(site.path, "crates/core/src/trainer.rs");
        assert_eq!(site.fn_qualified, "uhscm_core::trainer::loss");
        let chain: Vec<&str> = site.witness.iter().map(|w| w.qualified.as_str()).collect();
        assert_eq!(
            chain,
            vec![
                "uhscm_core::pipeline::run",
                "uhscm_core::trainer::epoch",
                "uhscm_core::trainer::loss"
            ]
        );
    }

    #[test]
    fn all_seven_passes_report_timings() {
        let a = analyse(false, "uhscm_core::pipeline\t1\nuhscm_core::trainer\t1\n");
        let names: Vec<&str> = a.timings.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, PASS_NAMES);
    }

    #[test]
    fn only_restricts_to_a_single_pass() {
        let ws = Workspace::from_sources(&fixture(false));
        let g = Graph::build(&ws);
        let a = run(&ws, &g, None, None, None, Some("dead-export"));
        let names: Vec<&str> = a.timings.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["dead-export"]);
        // Skipped passes must not complain about their missing budgets.
        assert!(a.findings.iter().all(|f| !f.rule.ends_with("-budget")), "no budget findings");

        // Determinism alone still gets reachability witnesses without
        // running the panic budget bookkeeping.
        let d = run(&ws, &g, None, None, None, Some("determinism"));
        let names: Vec<&str> = d.timings.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["determinism"]);
    }

    #[test]
    fn new_hot_path_panic_site_fails_the_budget() {
        // Negative test: inject a fresh unwrap into the trainer fixture and
        // keep the old budget — the trainer root must go over.
        let a = analyse(true, "uhscm_core::pipeline\t1\nuhscm_core::trainer\t1\n");
        let over = a
            .findings
            .iter()
            .find(|f| f.rule == "panic-budget" && f.message.contains("uhscm_core::trainer"))
            .expect("expected an over-budget error for the trainer root");
        assert_eq!(over.severity, crate::rules::Severity::Error);
        assert!(!over.witness.is_empty(), "over-budget finding carries a witness chain");
        let trainer = a.roots.iter().find(|r| r.root == "uhscm_core::trainer").unwrap();
        assert_eq!(trainer.status, BudgetStatus::Over);
        assert_eq!(trainer.sites.len(), 2);
    }

    #[test]
    fn slack_budget_warns_missing_root_errors() {
        let slack = analyse(false, "uhscm_core::pipeline\t5\nuhscm_core::trainer\t1\n");
        assert!(slack.findings.iter().any(|f| f.rule == "panic-budget"
            && f.severity == crate::rules::Severity::Warning
            && f.message.contains("slack")));

        let missing = analyse(false, "uhscm_core::trainer\t1\n");
        assert!(missing.findings.iter().any(|f| f.rule == "panic-budget"
            && f.severity == crate::rules::Severity::Error
            && f.message.contains("no entry")));
    }

    #[test]
    fn stale_budget_roots_error() {
        let a = analyse(
            false,
            "uhscm_core::pipeline\t1\nuhscm_core::trainer\t1\nuhscm_eval::metrics\t0\n",
        );
        assert!(a
            .findings
            .iter()
            .any(|f| f.rule == "panic-budget" && f.message.contains("stale entry")));
    }

    #[test]
    fn missing_budget_file_is_an_error() {
        let ws = Workspace::from_sources(&fixture(false));
        let g = Graph::build(&ws);
        let a = run(&ws, &g, None, Some(ZERO_ALLOC), Some(NO_TAINT), None);
        assert!(a
            .findings
            .iter()
            .any(|f| f.rule == "panic-budget" && f.message.contains("missing")));
        let panic_ok = "uhscm_core::pipeline\t1\nuhscm_core::trainer\t1\n";
        let b = run(&ws, &g, Some(panic_ok), None, Some(NO_TAINT), None);
        assert!(b
            .findings
            .iter()
            .any(|f| f.rule == "alloc-budget" && f.message.contains("missing")));
        let c = run(&ws, &g, Some(panic_ok), Some(ZERO_ALLOC), None, None);
        assert!(c
            .findings
            .iter()
            .any(|f| f.rule == "taint-budget" && f.message.contains("missing")));
    }

    #[test]
    fn budget_roundtrips_through_render() {
        let a = analyse(false, "uhscm_core::pipeline\t1\nuhscm_core::trainer\t1\n");
        let rendered = render_budget(&a.roots);
        assert!(rendered.contains("uhscm_core::pipeline\t1"));
        assert!(rendered.contains("uhscm_core::trainer\t1"));
        let (parsed, errs) = budget::parse(&budget::PANIC_BUDGET, Some(&rendered));
        assert!(errs.is_empty());
        assert_eq!(parsed.unwrap().len(), 2);
        let alloc_rendered = render_alloc_budget(&a.alloc_roots);
        assert!(alloc_rendered.contains("uhscm_core::pipeline\t0"));
    }
}
