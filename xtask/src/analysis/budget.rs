//! Shared budget-file machinery for the panic and taint budgets.
//!
//! Both budgets pin a per-root count of sites in a checked-in file
//! (`xtask/panic.budget`, `xtask/taint.budget`) with identical semantics: growth over the budget is an error that can
//! never be allowlisted, slack is a warning nudging a `--write-budget`
//! re-baseline, and a missing/stale/malformed file is an error. The
//! passes differ only in what they count; everything about the file
//! lives here.

use crate::rules::{Finding, Severity, WitnessStep};
use std::collections::BTreeMap;

/// One budget file: which rule its findings carry and where it lives.
pub struct BudgetSpec {
    /// Finding rule name (`panic-budget` / `taint-budget`); deliberately
    /// absent from `rules::ALL_RULES` so allowlist entries for it are
    /// rejected — budget growth cannot be baselined away.
    pub rule: &'static str,
    /// Repo-relative budget file path.
    pub path: &'static str,
    /// What the counts measure, for messages (`panic` / `taint`).
    pub noun: &'static str,
}

/// The panic budget (PR 4 semantics, unchanged).
pub const PANIC_BUDGET: BudgetSpec =
    BudgetSpec { rule: "panic-budget", path: "xtask/panic.budget", noun: "panic" };

/// The taint budget: tainted sink sites per untrusted-input group.
pub const TAINT_BUDGET: BudgetSpec =
    BudgetSpec { rule: "taint-budget", path: "xtask/taint.budget", noun: "taint" };

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetStatus {
    Ok,
    /// More reachable sites than budgeted — lint fails.
    Over,
    /// Fewer sites than budgeted — warning to tighten the baseline.
    Under,
    /// Root absent from the budget file — lint fails.
    Unlisted,
}

impl BudgetStatus {
    pub fn label(self) -> &'static str {
        match self {
            BudgetStatus::Ok => "ok",
            BudgetStatus::Over => "over",
            BudgetStatus::Under => "under",
            BudgetStatus::Unlisted => "unlisted",
        }
    }
}

/// Classify a root's reachable-site count against its budget entry.
pub fn status(allotted: Option<u64>, count: u64) -> BudgetStatus {
    match allotted {
        None => BudgetStatus::Unlisted,
        Some(b) if count > b => BudgetStatus::Over,
        Some(b) if count < b => BudgetStatus::Under,
        Some(_) => BudgetStatus::Ok,
    }
}

/// A finding attached to the budget file itself.
pub fn finding(
    spec: &BudgetSpec,
    message: String,
    severity: Severity,
    witness: Vec<WitnessStep>,
) -> Finding {
    Finding {
        rule: spec.rule,
        path: spec.path.to_string(),
        line: 1,
        key: String::new(),
        message,
        severity,
        witness,
    }
}

/// The Over/Under/Unlisted finding for one root (`None` for Ok). `witness`
/// should be the call chain of one offending site so the error is
/// actionable.
pub fn status_finding(
    spec: &BudgetSpec,
    root: &str,
    allotted: Option<u64>,
    count: u64,
    st: BudgetStatus,
    witness: Vec<WitnessStep>,
) -> Option<Finding> {
    match st {
        BudgetStatus::Ok => None,
        BudgetStatus::Over => {
            let b = allotted.expect("Over implies a budget entry");
            Some(finding(
                spec,
                format!(
                    "{} budget exceeded for root `{root}`: {count} reachable {} \
                     sites, budget {b} — remove the new site or re-baseline with \
                     `--write-budget` and justify in the PR",
                    spec.noun, spec.noun
                ),
                Severity::Error,
                witness,
            ))
        }
        BudgetStatus::Under => {
            let b = allotted.expect("Under implies a budget entry");
            Some(finding(
                spec,
                format!(
                    "{} budget slack for root `{root}`: {count} reachable {} sites, \
                     budget {b} — tighten with `--write-budget`",
                    spec.noun, spec.noun
                ),
                Severity::Warning,
                Vec::new(),
            ))
        }
        BudgetStatus::Unlisted => Some(finding(
            spec,
            format!(
                "root `{root}` has no entry in {} — run \
                 `cargo run -p uhscm-xtask -- lint --write-budget`",
                spec.path
            ),
            Severity::Error,
            Vec::new(),
        )),
    }
}

/// Budget entries for roots that matched no functions are stale.
pub fn stale_findings(
    spec: &BudgetSpec,
    budget: &Option<BTreeMap<String, u64>>,
    live_roots: &[&str],
) -> Vec<Finding> {
    let mut out = Vec::new();
    if let Some(b) = budget {
        for root in b.keys() {
            if !live_roots.contains(&root.as_str()) {
                out.push(finding(
                    spec,
                    format!(
                        "stale entry `{root}` in {} matches no root with \
                         functions — remove it or run `--write-budget`",
                        spec.path
                    ),
                    Severity::Error,
                    Vec::new(),
                ));
            }
        }
    }
    out
}

/// Parse a budget file: `#` comments and `root<TAB>count` lines.
pub fn parse(spec: &BudgetSpec, src: Option<&str>) -> (Option<BTreeMap<String, u64>>, Vec<String>) {
    let Some(src) = src else {
        return (
            None,
            vec![format!(
                "{} missing — generate it with \
                 `cargo run -p uhscm-xtask -- lint --write-budget`",
                spec.path
            )],
        );
    };
    let mut map = BTreeMap::new();
    let mut errors = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (root, count) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        if parts.next().is_some() || root.trim().is_empty() {
            errors.push(format!("{}:{}: expected `root<TAB>count`", spec.path, idx + 1));
            continue;
        }
        match count.trim().parse::<u64>() {
            Ok(n) => {
                if map.insert(root.trim().to_string(), n).is_some() {
                    errors.push(format!(
                        "{}:{}: duplicate root `{}`",
                        spec.path,
                        idx + 1,
                        root.trim()
                    ));
                }
            }
            Err(_) => errors.push(format!(
                "{}:{}: count `{}` is not a non-negative integer",
                spec.path,
                idx + 1,
                count.trim()
            )),
        }
    }
    (Some(map), errors)
}

/// Render a budget file from fresh per-root counts (for `--write-budget`).
pub fn render(spec: &BudgetSpec, counts: &[(&str, usize)]) -> String {
    let mut out = format!(
        "# uhscm {} budget — reachable {} sites per hot-path root.\n\
         # Format: root<TAB>count. Checked against every `xtask lint` run;\n\
         # growth fails the lint (fix the site or regenerate with\n\
         # `cargo run -p uhscm-xtask -- lint --write-budget` and justify in the PR).\n",
        spec.noun, spec.noun
    );
    for (root, count) in counts {
        out.push_str(&format!("{root}\t{count}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_classification() {
        assert_eq!(status(Some(3), 3), BudgetStatus::Ok);
        assert_eq!(status(Some(3), 4), BudgetStatus::Over);
        assert_eq!(status(Some(3), 2), BudgetStatus::Under);
        assert_eq!(status(None, 0), BudgetStatus::Unlisted);
    }

    #[test]
    fn over_is_error_under_is_warning() {
        let over =
            status_finding(&TAINT_BUDGET, "r", Some(1), 2, BudgetStatus::Over, Vec::new()).unwrap();
        assert_eq!(over.severity, Severity::Error);
        assert_eq!(over.rule, "taint-budget");
        assert!(over.message.contains("taint budget exceeded"));
        let under = status_finding(&TAINT_BUDGET, "r", Some(3), 2, BudgetStatus::Under, Vec::new())
            .unwrap();
        assert_eq!(under.severity, Severity::Warning);
        assert!(under.message.contains("slack"));
        assert!(
            status_finding(&TAINT_BUDGET, "r", Some(2), 2, BudgetStatus::Ok, Vec::new()).is_none()
        );
    }

    #[test]
    fn parse_rejects_malformed_lines_and_duplicates() {
        let (map, errs) = parse(&PANIC_BUDGET, Some("# c\na\t1\nb\tx\na\t2\nc\t1\textra\n\t3\n"));
        let map = map.unwrap();
        assert_eq!(map.get("a"), Some(&2)); // last write wins, but flagged
        assert_eq!(errs.len(), 4, "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("duplicate")));
        assert!(errs.iter().any(|e| e.contains("not a non-negative integer")));
    }

    #[test]
    fn missing_file_is_reported_with_the_spec_path() {
        let (map, errs) = parse(&TAINT_BUDGET, None);
        assert!(map.is_none());
        assert!(errs[0].contains("xtask/taint.budget missing"));
    }

    #[test]
    fn render_roundtrips() {
        let text = render(&PANIC_BUDGET, &[("uhscm_core::pipeline", 7), ("uhscm_linalg::par", 0)]);
        assert!(text.contains("uhscm panic budget"));
        let (map, errs) = parse(&PANIC_BUDGET, Some(&text));
        assert!(errs.is_empty());
        assert_eq!(map.unwrap().get("uhscm_core::pipeline"), Some(&7));
    }
}
