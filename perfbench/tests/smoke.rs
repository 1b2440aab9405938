//! Smoke test of the benchmark: the tiny mode of every workload, untraced
//! and traced. Every metric `BENCHMARK.json` names must be in the result
//! line with its unit and a finite value, and every oracle check must pass.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use uhscm::obs::trace::{parse, Json};

const WORKLOADS: [&str; 3] = ["serve-small-rw", "serve-1m-read", "train-nuswide"];

/// `(name, unit)` of every metric in one `BENCHMARK.json` table.
fn declared(table: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let spec = parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect("name/unit").to_string();
    spec.get(table)
        .and_then(Json::as_arr)
        .expect("metric table")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .arg("--tiny")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("{workload}: result line is not JSON ({e}): {last}"))
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for (trace, table) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(table);
        for workload in WORKLOADS {
            let result = run(workload, trace);
            let ctx = format!("{workload} trace {trace}");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{ctx}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{ctx}");
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1, "{ctx}");
            let got = result.get("metrics").expect("metrics object");
            for (name, unit) in &metrics {
                let m = got.get(name).unwrap_or_else(|| panic!("{ctx}: no metric {name}"));
                let value = m.get("value").and_then(Json::as_f64).expect("numeric value");
                assert!(value.is_finite(), "{ctx}: {name} = {value}");
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{ctx}: {name}"
                );
                if table == "end_to_end" {
                    assert!(value > 0.0, "{ctx}: end-to-end {name} must be positive");
                }
            }
        }
    }
}
