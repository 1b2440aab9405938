//! The `train-nuswide` workload: Table 3's configuration of the offline
//! pipeline — `Dataset::generate(NusWideLike, DatasetConfig::default())`
//! (2,000 train / 500 query / 6,000 database items), 64 bits, 40 epochs,
//! the paper's NUS-WIDE `UhscmConfig`, then `Pipeline::train`,
//! `encode_splits` and MAP@5000.
//!
//! Set-up (dataset generation and VLP/backbone feature extraction) is timed
//! separately from the pipeline pass, which is repeated until the measured
//! seconds are spent. Checks: every epoch loss finite, MAP above the
//! label-chance baseline, and the same MAP from every pass of a seed.

use std::sync::mpsc;
use std::time::Instant;

use uhscm::core::pipeline::{Pipeline, SimilaritySource};
use uhscm::core::UhscmConfig;
use uhscm::data::{Dataset, DatasetConfig, DatasetKind};
use uhscm::eval::bitcode::hamming_scan;
use uhscm::eval::{mean_average_precision, BitCodes, HammingRanker};
use uhscm::obs::trace::Json;

use crate::report::{median, percentile, vmhwm_mib, Clock, Report};
use crate::serve::{write_trace, ChannelSink};
use crate::{ensure_untraced, Args};

const KIND: DatasetKind = DatasetKind::NusWideLike;
const SETUPS: usize = 5;
/// Queries replayed through the scan and rank kernels in a traced run.
const KERNEL_QUERIES: usize = 256;

fn configs(tiny: bool) -> (DatasetConfig, UhscmConfig) {
    let uhscm = UhscmConfig::for_dataset(KIND);
    if tiny {
        (DatasetConfig::tiny(), UhscmConfig { epochs: 3, ..uhscm })
    } else {
        (DatasetConfig::default(), uhscm)
    }
}

/// One pipeline pass and what it produced.
struct PassResult {
    secs: f64,
    map: f64,
    finite_losses: bool,
    epochs: usize,
    queries: BitCodes,
    ranker: HammingRanker,
}

fn pass(pipeline: &Pipeline, config: &UhscmConfig, top_n: usize) -> PassResult {
    let t = Instant::now();
    let model = pipeline.train(&SimilaritySource::default(), config);
    let (queries, db) = pipeline.encode_splits(&model);
    let ranker = HammingRanker::new(db);
    let map = mean_average_precision(&ranker, &queries, &pipeline.relevance(), top_n);
    let secs = t.elapsed().as_secs_f64();
    PassResult {
        secs,
        map,
        finite_losses: model.loss_history.iter().all(|l| l.total.is_finite()),
        epochs: model.loss_history.len(),
        queries,
        ranker,
    }
}

/// MAP of a ranking that ignores the codes: the share of relevant database
/// items, averaged over queries.
fn chance_map(dataset: &Dataset, pipeline: &Pipeline) -> f64 {
    let rel = pipeline.relevance();
    let (nq, nd) = (dataset.split.query.len(), dataset.split.database.len());
    let hits: usize = (0..nq).map(|q| (0..nd).filter(|&d| rel(q, d)).count()).sum();
    hits as f64 / (nq * nd).max(1) as f64
}

/// Check one pass; returns whether it counts as failed.
fn failed(p: &PassResult, config: &UhscmConfig, chance: f64, report: &mut Report) -> bool {
    let mut bad = false;
    if !p.finite_losses || p.epochs != config.epochs {
        report.violations.push(format!("{} epoch losses, not all finite", p.epochs));
        bad = true;
    }
    if !p.map.is_finite() || p.map <= chance {
        report.violations.push(format!("MAP {:.4} does not beat chance {chance:.4}", p.map));
        bad = true;
    }
    bad
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (dcfg, config) = configs(args.tiny);
    let top_n = 5000.min(dcfg.n_database);
    let mut report = Report::default();
    ensure_untraced()?;

    let setup = |seed: u64| {
        let t = Instant::now();
        let dataset = Dataset::generate(KIND, &dcfg, seed);
        let generate_s = t.elapsed().as_secs_f64();
        (dataset, generate_s)
    };

    if !args.trace {
        let mut setups = Vec::with_capacity(SETUPS);
        for _ in 1..SETUPS {
            let t = Instant::now();
            let (dataset, _) = setup(args.seed);
            let pipeline = Pipeline::new(&dataset, args.seed);
            std::hint::black_box(&pipeline);
            setups.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let (dataset, _) = setup(args.seed);
        let pipeline = Pipeline::new(&dataset, args.seed);
        setups.push(t.elapsed().as_secs_f64());
        let chance = chance_map(&dataset, &pipeline);

        let mut passes = Vec::new();
        let started = Instant::now();
        while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
            ensure_untraced()?;
            passes.push(pass(&pipeline, &config, top_n));
        }
        let secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
        let total: f64 = secs.iter().sum();
        let mut ordered = secs.clone();
        ordered.sort_by(f64::total_cmp);
        report.attempted = passes.len() as u64;
        for p in &passes {
            if failed(p, &config, chance, &mut report) {
                report.failed += 1;
            }
        }
        if passes.iter().any(|p| p.map.to_bits() != passes[0].map.to_bits()) {
            report.violations.push("MAP differs between passes of one seed".to_string());
        }
        let rss = vmhwm_mib("self").ok_or("cannot read VmHWM")?;
        report.set("setup_s", median(&setups));
        report.set("latency_p50_us", median(&secs) * 1e6);
        report.set("latency_p90_us", percentile(&ordered, 90.0) * 1e6);
        report.set("throughput_per_s", passes.len() as f64 / total);
        report.set("peak_rss_mb", rss);
        report.named.push(("setup_s", median(&setups), "s"));
        report.named.push(("pipeline_s", median(&secs), "s"));
        report.named.push(("map", passes[0].map, "MAP@5000"));
        report.named.push(("map_chance", chance, "MAP@5000"));
        report.named.push(("passes", passes.len() as f64, "count"));
        report.named.push(("peak_rss_mb", rss, "MiB"));
        return Ok(report);
    }

    // Traced: one set-up, an untraced pass, then a pass with `uhscm-obs`
    // recording into memory, then the kernel replay on its codes.
    let (dataset, generate_s) = setup(args.seed);
    let t = Instant::now();
    let pipeline = Pipeline::new(&dataset, args.seed);
    let features_s = t.elapsed().as_secs_f64();
    let chance = chance_map(&dataset, &pipeline);
    let plain = pass(&pipeline, &config, top_n);

    let (tx, rx) = mpsc::channel();
    uhscm::obs::reset();
    uhscm::obs::enable_with_writer(Box::new(ChannelSink(tx)));
    let mut clock = Clock::default();
    clock.record("data.generate", 0, (generate_s * 1e9) as u64);
    clock.record("vlp.features", 0, (features_s * 1e9) as u64);
    let traced = pass(&pipeline, &config, top_n);
    let db = traced.ranker.database();
    let mut dists = vec![0u32; db.len()];
    for qi in 0..traced.queries.len().min(KERNEL_QUERIES) {
        clock.time("scan.query_us", qi as u64, || {
            hamming_scan::scan_into(&traced.queries, qi, db, &mut dists);
            std::hint::black_box(&dists);
        });
        clock.time("rank.query_us", qi as u64, || {
            traced.ranker.rank_top_n_with_dist(&traced.queries, qi, top_n)
        });
    }
    let snap = uhscm::obs::registry::snapshot();
    uhscm::obs::disable();
    let bytes: Vec<u8> = rx.try_iter().flatten().collect();
    let text = String::from_utf8_lossy(&bytes);
    let events = uhscm::obs::trace::parse_lines(&text)
        .map_err(|(line, e)| format!("trace line {line}: {e}"))?;
    let span_s = |name: &str| -> f64 {
        events
            .iter()
            .filter(|e| e.get("type").and_then(Json::as_str) == Some("span"))
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .filter_map(|e| e.get("dur_ns").and_then(Json::as_f64))
            .sum::<f64>()
            / 1e9
    };

    report.attempted = 2;
    for p in [&plain, &traced] {
        if failed(p, &config, chance, &mut report) {
            report.failed += 1;
        }
    }
    let steps_per_epoch = dcfg.n_train.div_ceil(config.batch_size)
        - usize::from(dcfg.n_train % config.batch_size == 1);
    let steps = (config.epochs * steps_per_epoch) as f64;
    let fit_s = span_s("fit");
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as f64;
    let (fanout, serial) = (counter("par.plan.fanout"), counter("par.plan.serial"));
    report.set("data.generate_s", generate_s);
    report.set("vlp.features_s", features_s);
    report.set("mining.score_s", span_s("score_concepts"));
    report.set("denoise.run_s", span_s("denoise"));
    report.set("denoise.kept", snap.gauges.get("pipeline.concepts.kept").copied().unwrap_or(0.0));
    report.set("similarity.q_s", span_s("build_q"));
    report.set("trainer.fit_s", fit_s);
    report.set("trainer.steps", steps);
    report.set("trainer.step_us", fit_s * 1e6 / steps.max(1.0));
    report.set("par.fanout_frac", fanout / (fanout + serial).max(1.0));
    report.set("pipeline.encode_s", span_s("encode"));
    report.set("metrics.map_s", span_s("map"));
    report.set_timed("scan.query_us", &clock);
    report.set_timed("rank.query_us", &clock);
    report.set("scan.gcodes_per_s", db.len() as f64 / clock.mean_us("scan.query_us").0 / 1e3);
    report.set("trace.overhead_frac", traced.secs / plain.secs - 1.0);
    report.named.push(("pipeline_s", plain.secs, "s"));
    report.named.push(("pipeline_s.traced", traced.secs, "s"));
    report.named.push(("map", traced.map, "MAP@5000"));
    write_trace(args, &[], &bytes)?;
    Ok(report)
}
