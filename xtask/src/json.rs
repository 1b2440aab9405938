//! Hand-rolled JSON rendering for `lint --json` (std-only, no serde).
//!
//! Schema `uhscm-lint/4`:
//!
//! ```text
//! {
//!   "schema": "uhscm-lint/4",
//!   "files_scanned": N,
//!   "analyses": ["panic-reachability", "lock-order", "blocking-under-lock",
//!                "taint-flow"],
//!   "findings": [{rule, severity, path, line, message, allowed,
//!                 witness: [{fn, path, line}]}],
//!   "panic_budget": {
//!     "budget_path": "xtask/panic.budget",
//!     "roots": [{root, budget, reachable_fns, reachable_sites, status,
//!                sites: [{kind, path, line, fn, witness: [...]}]}]
//!   },
//!   "taint_budget": {
//!     "budget_path": "xtask/taint.budget",
//!     "roots": [{root, budget, tainted_fns, reachable_sites, status,
//!                sites: [{kind, path, line, fn, source, witness: [...]}]}]
//!   },
//!   "timings": [{analysis, nanos}],
//!   "summary": {findings, errors, warnings, allowlisted}
//! }
//! ```
//!
//! Taint sites carry both their originating `source` function and the
//! source→sink chain. `findings[*].allowed` entries are baselined in
//! `xtask/lint.allow`; `summary.errors` counts only non-allowed errors
//! (the exit-code signal).

use crate::analysis::taint::TaintRootReport;
use crate::analysis::{RootReport, PASS_NAMES};
use crate::rules::{Finding, WitnessStep};

/// Escape a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn witness_json(witness: &[WitnessStep]) -> String {
    let steps: Vec<String> = witness
        .iter()
        .map(|w| {
            format!(
                "{{\"fn\":\"{}\",\"path\":\"{}\",\"line\":{}}}",
                esc(&w.qualified),
                esc(&w.path),
                w.line
            )
        })
        .collect();
    format!("[{}]", steps.join(","))
}

/// Everything the report needs; `findings` carries an `allowed` flag per
/// finding (true = covered by `xtask/lint.allow`).
pub struct Report<'a> {
    pub files_scanned: usize,
    pub findings: &'a [(&'a Finding, bool)],
    pub roots: &'a [RootReport],
    pub taint_roots: &'a [TaintRootReport],
    /// `(analysis name, wall-time nanos)` per pass.
    pub timings: &'a [(&'static str, u128)],
    pub errors: usize,
    pub warnings: usize,
    pub allowlisted: usize,
}

pub fn render(r: &Report) -> String {
    let mut out = String::from("{\n  \"schema\": \"uhscm-lint/4\",\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", r.files_scanned));
    let analyses: Vec<String> = PASS_NAMES.iter().map(|p| format!("\"{p}\"")).collect();
    out.push_str(&format!("  \"analyses\": [{}],\n", analyses.join(", ")));

    let findings: Vec<String> = r
        .findings
        .iter()
        .map(|(f, allowed)| {
            format!(
                "    {{\"rule\":\"{}\",\"severity\":\"{}\",\"path\":\"{}\",\"line\":{},\
                 \"message\":\"{}\",\"allowed\":{},\"witness\":{}}}",
                esc(f.rule),
                f.severity.label(),
                esc(&f.path),
                f.line,
                esc(&f.message),
                allowed,
                witness_json(&f.witness)
            )
        })
        .collect();
    out.push_str(&format!("  \"findings\": [\n{}\n  ],\n", findings.join(",\n")));

    let roots: Vec<String> = r
        .roots
        .iter()
        .map(|root| {
            let sites: Vec<String> = root
                .sites
                .iter()
                .map(|s| {
                    format!(
                        "      {{\"kind\":\"{}\",\"path\":\"{}\",\"line\":{},\"fn\":\"{}\",\
                         \"witness\":{}}}",
                        s.kind.label(),
                        esc(&s.path),
                        s.line,
                        esc(&s.fn_qualified),
                        witness_json(&s.witness)
                    )
                })
                .collect();
            format!(
                "    {{\"root\":\"{}\",\"budget\":{},\"reachable_fns\":{},\
                 \"reachable_sites\":{},\"status\":\"{}\",\"sites\":[\n{}\n    ]}}",
                esc(root.root),
                root.budget.map(|b| b.to_string()).unwrap_or_else(|| "null".to_string()),
                root.reachable_fns,
                root.sites.len(),
                root.status.label(),
                sites.join(",\n")
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"panic_budget\": {{\"budget_path\": \"xtask/panic.budget\", \"roots\": [\n{}\n  ]}},\n",
        roots.join(",\n")
    ));

    let taint_roots: Vec<String> = r
        .taint_roots
        .iter()
        .map(|root| {
            let sites: Vec<String> = root
                .sites
                .iter()
                .map(|s| {
                    format!(
                        "      {{\"kind\":\"{}\",\"path\":\"{}\",\"line\":{},\"fn\":\"{}\",\
                         \"source\":\"{}\",\"witness\":{}}}",
                        s.kind.label(),
                        esc(&s.path),
                        s.line,
                        esc(&s.fn_qualified),
                        esc(&s.source),
                        witness_json(&s.witness)
                    )
                })
                .collect();
            format!(
                "    {{\"root\":\"{}\",\"budget\":{},\"tainted_fns\":{},\
                 \"reachable_sites\":{},\"status\":\"{}\",\"sites\":[\n{}\n    ]}}",
                esc(root.root),
                root.budget.map(|b| b.to_string()).unwrap_or_else(|| "null".to_string()),
                root.tainted_fns,
                root.sites.len(),
                root.status.label(),
                sites.join(",\n")
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"taint_budget\": {{\"budget_path\": \"xtask/taint.budget\", \"roots\": [\n{}\n  ]}},\n",
        taint_roots.join(",\n")
    ));

    let timings: Vec<String> = r
        .timings
        .iter()
        .map(|(name, nanos)| format!("    {{\"analysis\":\"{}\",\"nanos\":{}}}", esc(name), nanos))
        .collect();
    out.push_str(&format!("  \"timings\": [\n{}\n  ],\n", timings.join(",\n")));

    out.push_str(&format!(
        "  \"summary\": {{\"findings\": {}, \"errors\": {}, \"warnings\": {}, \"allowlisted\": {}}}\n}}\n",
        r.findings.len(),
        r.errors,
        r.warnings,
        r.allowlisted
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::taint::{TaintRootReport, TaintSiteReport};
    use crate::analysis::{BudgetStatus, RootReport, SiteReport};
    use crate::parser::{PanicKind, SinkKind};
    use crate::rules::{Finding, Severity, WitnessStep};

    #[test]
    fn renders_escaped_valid_json() {
        let finding = Finding {
            rule: "no-unwrap",
            path: "crates/a/src/lib.rs".to_string(),
            line: 3,
            message: "say \"no\"\tto unwrap\\panic".to_string(),
            key: String::new(),
            severity: Severity::Error,
            witness: vec![WitnessStep {
                qualified: "uhscm_a::f".to_string(),
                path: "crates/a/src/lib.rs".to_string(),
                line: 1,
            }],
        };
        let roots = [RootReport {
            root: "uhscm_core::pipeline",
            budget: Some(2),
            reachable_fns: 5,
            sites: vec![SiteReport {
                kind: PanicKind::Index,
                path: "crates/a/src/lib.rs".to_string(),
                line: 3,
                fn_qualified: "uhscm_a::f".to_string(),
                witness: Vec::new(),
            }],
            status: BudgetStatus::Ok,
        }];
        let taint_roots = [TaintRootReport {
            root: "wire",
            budget: Some(3),
            tainted_fns: 6,
            sites: vec![TaintSiteReport {
                kind: SinkKind::Cast,
                path: "crates/serve/src/server.rs".to_string(),
                line: 12,
                fn_qualified: "uhscm_serve::server::handle_frame".to_string(),
                source: "uhscm_serve::protocol::decode_request".to_string(),
                witness: vec![WitnessStep {
                    qualified: "uhscm_serve::protocol::decode_request".to_string(),
                    path: "crates/serve/src/protocol.rs".to_string(),
                    line: 4,
                }],
            }],
            status: BudgetStatus::Ok,
        }];
        let out = render(&Report {
            files_scanned: 7,
            findings: &[(&finding, true)],
            roots: &roots,
            taint_roots: &taint_roots,
            timings: &[("panic-reachability", 1200), ("taint-flow", 800)],
            errors: 0,
            warnings: 0,
            allowlisted: 1,
        });
        assert!(out.contains("\"schema\": \"uhscm-lint/4\""));
        assert!(out.contains("\"lock-order\""));
        assert!(out.contains("\"blocking-under-lock\""));
        assert!(out.contains("\"taint-flow\""));
        assert!(out.contains("say \\\"no\\\"\\tto unwrap\\\\panic"));
        assert!(out.contains("\"allowed\":true"));
        assert!(out.contains("\"status\":\"ok\""));
        assert!(out.contains("\"kind\":\"index\""));
        assert!(out.contains("\"taint_budget\""));
        assert!(out.contains("\"kind\":\"cast\""));
        assert!(out.contains("\"tainted_fns\":6"));
        assert!(out.contains("\"source\":\"uhscm_serve::protocol::decode_request\""));
        assert!(out.contains("{\"analysis\":\"taint-flow\",\"nanos\":800}"));
        // The obs trace parser is the reference JSON reader in this
        // workspace; structural validity is asserted end-to-end in
        // tests/lint_gate.rs. Here: balanced braces as a smoke check.
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn empty_findings_render_as_empty_array() {
        let out = render(&Report {
            files_scanned: 0,
            findings: &[],
            roots: &[],
            taint_roots: &[],
            timings: &[],
            errors: 0,
            warnings: 0,
            allowlisted: 0,
        });
        assert!(out.contains("\"findings\": [\n\n  ]"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }
}
