//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload serve-small-rw|serve-1m-read|train-nuswide
//!           --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! Runs one seeded workload against the system as it ships and prints a
//! human-readable block followed by one JSON line: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer breakdown of a traced
//! rerun. Every answer is checked against an offline oracle; failed
//! operations are counted, never dropped. `--tiny` shrinks every workload so
//! the smoke test runs in seconds. See `perfbench/README.md`.
//!
//! The serve workloads run the server in a child process (this binary with
//! the `serve-child` role), so its peak RSS excludes the load generator and
//! the oracle.

mod report;
mod serve;
mod train;

use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

const USAGE: &str = "usage: perfbench --workload serve-small-rw|serve-1m-read|train-nuswide \
                     --seed N --seconds S --trace 0|1 [--tiny]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, tiny: false };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--tiny" {
            args.tiny = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse '{value}'");
        match flag {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("--seconds: bad '{value}'"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Refuse to time while `uhscm-obs` is collecting: an inherited
/// `UHSCM_OBS` or an enabled gate would put tracing cost into untraced
/// numbers. Child servers are started with `UHSCM_OBS` removed and report
/// their own gate state (see `serve::ServerChild::start`).
pub fn ensure_untraced() -> Result<(), String> {
    if let Ok(v) = std::env::var("UHSCM_OBS") {
        if !matches!(v.trim(), "" | "0" | "false" | "off") {
            return Err(format!("UHSCM_OBS={v} is set; unset it: timed runs must be untraced"));
        }
    }
    if uhscm::obs::enabled() {
        return Err("uhscm-obs tracing is enabled; timed runs must be untraced".to_string());
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-child") {
        return serve::child_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = ensure_untraced() {
        eprintln!("perfbench: refusing to run: {e}");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let par_threads = uhscm::linalg::par::Parallelism::effective().threads();
    println!(
        "perfbench {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { " (tiny)" } else { "" }
    );
    println!("hardware: nproc {nproc}, linalg::par threads {par_threads}");

    let result = match args.workload.as_str() {
        "serve-small-rw" => serve::run(&serve::Spec::small_rw(args.tiny), &args),
        "serve-1m-read" => serve::run(&serve::Spec::one_m_read(args.tiny), &args),
        "train-nuswide" => train::run(&args),
        other => Err(format!("unknown workload '{other}'")),
    };
    match result {
        Ok(report) => {
            let table = if args.trace { report::PER_LAYER } else { report::END_TO_END };
            print!("{}", report.render(table));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
