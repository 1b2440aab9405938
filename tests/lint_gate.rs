//! Tier-1 gate: the workspace must be lint-clean.
//!
//! Shells out to the `uhscm-xtask` lint driver so `cargo test` fails
//! whenever a rule is violated without an allowlisted justification, or
//! an allowlist entry goes stale. The `--json` run additionally pins the
//! machine-readable report: it must parse (via the workspace's own JSON
//! reader in `uhscm::obs::trace`), carry all four semantic analyses
//! (panic reachability, lock order, blocking-under-lock and the
//! taint-flow pass), hold both checked-in budgets, and report a per-pass
//! timing for every analysis. See `xtask/src/main.rs` for the rules and
//! `xtask/src/analysis/` for the call-graph passes.

use std::process::Command;
use uhscm::obs::trace::{parse, Json};

fn run_lint(extra: &[&str]) -> (std::process::Output, String, String) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut args = vec!["run", "-p", "uhscm-xtask", "--quiet", "--", "lint"];
    args.extend_from_slice(extra);
    let out = Command::new(cargo)
        .args(&args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to spawn `cargo run -p uhscm-xtask`");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, stdout, stderr)
}

#[test]
fn workspace_is_lint_clean() {
    let (out, stdout, stderr) = run_lint(&[]);
    assert!(
        out.status.success(),
        "lint findings (fix them or add a justified entry to xtask/lint.allow):\n\
         {stdout}\n{stderr}"
    );
    assert!(stdout.contains("0 errors"), "unexpected lint output:\n{stdout}");
}

#[test]
fn lint_json_report_is_well_formed_and_budget_holds() {
    let (out, stdout, stderr) = run_lint(&["--json"]);
    assert!(out.status.success(), "lint --json failed:\n{stdout}\n{stderr}");

    let report = parse(&stdout)
        .unwrap_or_else(|e| panic!("lint --json did not emit parseable JSON ({e:?}):\n{stdout}"));
    let str_of = |j: &Json, key: &str| -> String {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("report missing string `{key}`"))
            .to_string()
    };
    assert_eq!(str_of(&report, "schema"), "uhscm-lint/4");

    // All four semantic analyses must have run.
    const ALL_ANALYSES: [&str; 4] =
        ["panic-reachability", "lock-order", "blocking-under-lock", "taint-flow"];
    let analyses: Vec<String> = report
        .get("analyses")
        .and_then(Json::as_arr)
        .expect("report missing `analyses` array")
        .iter()
        .filter_map(|a| a.as_str().map(str::to_string))
        .collect();
    for want in ALL_ANALYSES {
        assert!(analyses.iter().any(|a| a == want), "analysis `{want}` missing: {analyses:?}");
    }

    // Every analysis reports a wall-time measurement.
    let timings: Vec<String> = report
        .get("timings")
        .and_then(Json::as_arr)
        .expect("report missing `timings` array")
        .iter()
        .map(|t| {
            assert!(t.get("nanos").and_then(Json::as_u64).is_some(), "timing missing `nanos`");
            str_of(t, "analysis")
        })
        .collect();
    for want in ALL_ANALYSES {
        assert!(timings.iter().any(|t| t == want), "no timing for `{want}`: {timings:?}");
    }

    // The panic budget holds for every root, and every reachable site
    // carries a call-chain witness back to its root.
    let roots = report
        .get("panic_budget")
        .and_then(|b| b.get("roots"))
        .and_then(Json::as_arr)
        .expect("report missing `panic_budget.roots`");
    assert!(roots.len() >= 5, "expected the five hot-path roots, got {}", roots.len());
    for root in roots {
        let name = str_of(root, "root");
        assert_eq!(str_of(root, "status"), "ok", "panic budget violated for root `{name}`");
        let sites = root.get("sites").and_then(Json::as_arr).expect("root missing `sites`");
        let declared = root
            .get("reachable_sites")
            .and_then(Json::as_u64)
            .expect("root missing `reachable_sites`");
        assert_eq!(sites.len() as u64, declared, "site list disagrees with count for `{name}`");
        for site in sites {
            let witness = site.get("witness").and_then(Json::as_arr).unwrap_or(&[]);
            assert!(
                !witness.is_empty(),
                "site {}:{} under root `{name}` has no call-chain witness",
                str_of(site, "path"),
                site.get("line").and_then(Json::as_u64).unwrap_or(0),
            );
        }
    }

    // The taint budget holds for every source group: residual tainted
    // sinks behind the serve/CLI validation boundaries are pinned in
    // xtask/taint.budget, and every reported site names the untrusted
    // source it flows from plus a source->sink call-chain witness.
    let taint_roots = report
        .get("taint_budget")
        .and_then(|b| b.get("roots"))
        .and_then(Json::as_arr)
        .expect("report missing `taint_budget.roots`");
    assert!(taint_roots.len() >= 3, "expected wire/cli/bundle groups, got {}", taint_roots.len());
    for root in taint_roots {
        let name = str_of(root, "root");
        assert_eq!(str_of(root, "status"), "ok", "taint budget violated for group `{name}`");
        assert!(
            root.get("budget").and_then(Json::as_u64).is_some(),
            "group `{name}` has no pinned budget in xtask/taint.budget"
        );
        let sites = root.get("sites").and_then(Json::as_arr).expect("group missing `sites`");
        let declared = root
            .get("reachable_sites")
            .and_then(Json::as_u64)
            .expect("group missing `reachable_sites`");
        assert_eq!(sites.len() as u64, declared, "site list disagrees with count for `{name}`");
        for site in sites {
            assert!(!str_of(site, "source").is_empty(), "taint site in `{name}` names no source");
            assert!(!str_of(site, "kind").is_empty(), "taint site in `{name}` has no sink kind");
            let witness = site.get("witness").and_then(Json::as_arr).unwrap_or(&[]);
            assert!(
                !witness.is_empty(),
                "taint site {}:{} in group `{name}` has no source->sink witness",
                str_of(site, "path"),
                site.get("line").and_then(Json::as_u64).unwrap_or(0),
            );
        }
    }

    // Summary totals: no errors, and the counts are internally consistent.
    let summary = report.get("summary").expect("missing `summary`");
    let count = |key: &str| -> u64 {
        summary.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("summary missing {key}"))
    };
    assert_eq!(count("errors"), 0, "lint errors in JSON report");
    let findings = report.get("findings").and_then(Json::as_arr).expect("missing `findings`");
    assert_eq!(
        count("findings"),
        findings.len() as u64,
        "summary.findings disagrees with the findings array"
    );
}
