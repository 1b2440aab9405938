//! Semantic passes over the workspace call graph.
//!
//! Four analyses run on every lint (DESIGN.md §11, §13, §16):
//!
//! * **panic-reachability** ([`panic_reach`]) — BFS from the declared
//!   hot-path roots below; every intrinsic panic site in a reachable
//!   function counts against that root's budget in `xtask/panic.budget`.
//!   Growth over the checked-in budget is an error (never allowlistable);
//!   slack is a warning nudging a `--write-budget` re-baseline.
//! * **lock-order** ([`locks`]) — cycles and same-lock re-entry in the
//!   acquired-while-held graph; errors, never allowlistable.
//! * **blocking-under-lock** ([`locks`]) — blocking operations reachable
//!   while a guard is live; errors, allowlistable with justification
//!   (intentional `Condvar::wait` coalescing).
//! * **taint-flow** ([`taint`]) — untrusted wire/CLI/bundle values flowing
//!   to indexing, narrowing-cast, unchecked-arithmetic, and
//!   allocation-size sinks, pinned by `xtask/taint.budget` with the same
//!   budget semantics as the panic pass (shared machinery in [`budget`]).

pub mod budget;
pub mod locks;
pub mod panic_reach;
pub mod taint;

pub use budget::BudgetStatus;

use crate::callgraph::{Graph, Workspace};
use crate::parser::PanicKind;
use crate::rules::{Finding, Severity, WitnessStep};
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
    pub taint_roots: Vec<taint::TaintRootReport>,
    /// `(analysis name, wall-time nanos)` per pass, in [`PASS_NAMES`] order.
    pub timings: Vec<(&'static str, u128)>,
}

/// The analyses, in report order.
pub const PASS_NAMES: &[&str] =
    &["panic-reachability", "lock-order", "blocking-under-lock", "taint-flow"];

/// Run the passes. The `*_budget_src` arguments are the contents of the
/// corresponding `xtask/*.budget` files (`None` = file missing, an
/// error). Roots whose file has no matching functions in `ws` are
/// skipped, so fixture workspaces exercise only the roots they define.
pub fn run(
    ws: &Workspace,
    g: &Graph,
    panic_budget_src: Option<&str>,
    taint_budget_src: Option<&str>,
) -> Analysis {
    let mut findings = Vec::new();
    let mut roots_out = Vec::new();
    let mut timings: Vec<(&'static str, u128)> = Vec::new();

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
            let item = g.item(ws, n);
            if item.panic_sites.is_empty() {
                continue;
            }
            let chain = panic_reach::witness(ws, g, &parent, n);
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

    let lock_report = locks::run(ws, g);
    findings.extend(lock_report.lock_order);
    timings.push(("lock-order", lock_report.order_nanos));
    findings.extend(lock_report.blocking);
    timings.push(("blocking-under-lock", lock_report.blocking_nanos));

    let t = Instant::now();
    let (taint_findings, taint_roots) = taint::run(ws, g, taint_budget_src);
    findings.extend(taint_findings);
    timings.push(("taint-flow", t.elapsed().as_nanos()));

    Analysis { findings, roots: roots_out, taint_roots, timings }
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

    /// The fixture defines none of the taint source functions, so an
    /// empty taint budget stays clean.
    const NO_TAINT: &str = "";

    fn analyse(extra_panic: bool, budget: &str) -> Analysis {
        let ws = Workspace::from_sources(&fixture(extra_panic));
        let g = Graph::build(&ws);
        run(&ws, &g, Some(budget), Some(NO_TAINT))
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
    fn all_four_passes_report_timings() {
        let a = analyse(false, "uhscm_core::pipeline\t1\nuhscm_core::trainer\t1\n");
        let names: Vec<&str> = a.timings.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, PASS_NAMES);
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
        let a = run(&ws, &g, None, Some(NO_TAINT));
        assert!(a
            .findings
            .iter()
            .any(|f| f.rule == "panic-budget" && f.message.contains("missing")));
        let panic_ok = "uhscm_core::pipeline\t1\nuhscm_core::trainer\t1\n";
        let c = run(&ws, &g, Some(panic_ok), None);
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
    }
}
