//! Golden-trace regression test for the observability layer.
//!
//! Runs the full UHSCM pipeline on a tiny fixed-seed dataset with tracing
//! enabled, then parses the emitted `trace.jsonl` back with
//! [`uhscm::obs::trace`] and locks down the *structure* of the trace: the
//! event envelope, the span tree (names and nesting — never timings, which
//! are machine-dependent), the per-epoch training records, and the closing
//! registry summary.
//!
//! This is deliberately a single `#[test]` in its own integration binary:
//! the obs gate, sink and sequence counter are process-global, so the test
//! owns the whole process and cannot race other tests.

use std::collections::BTreeSet;

use uhscm::core::pipeline::{Pipeline, SimilaritySource};
use uhscm::core::UhscmConfig;
use uhscm::data::{Dataset, DatasetConfig, DatasetKind};
use uhscm::obs::trace::Json;

const EPOCHS: usize = 8;

/// Span paths (slash-joined ancestry) the pipeline must produce, in the
/// stage structure of the paper: concept scoring (Eq. 1-2) → denoising
/// (Eq. 4-5) → similarity build (Eq. 6) → training (Eq. 11) → evaluation.
const EXPECTED_SPAN_PATHS: &[&str] = &[
    "train",
    "train/build_similarity",
    "train/build_similarity/score_concepts",
    "train/build_similarity/score_concepts/vlp_score_matrix",
    "train/build_similarity/score_concepts/vlp_score_matrix/vlp_embed_images",
    "train/build_similarity/denoise",
    "train/build_similarity/build_q",
    "train/fit",
    "train/fit/step.forward",
    "train/fit/step.loss",
    "train/fit/step.backward",
    "train/fit/step.sgd",
    "evaluate_map",
    "evaluate_map/encode",
    "evaluate_map/map",
];

#[test]
fn golden_trace_structure() {
    let trace_path =
        std::env::temp_dir().join(format!("uhscm-golden-trace-{}.jsonl", std::process::id()));
    uhscm::obs::enable_to_file(&trace_path).expect("temp dir must be writable");

    // Tiny fixed-seed pipeline: same stages as the quickstart, 20x smaller.
    let dataset = Dataset::generate(DatasetKind::Cifar10Like, &DatasetConfig::tiny(), 42);
    let pipeline = Pipeline::new(&dataset, 7);
    let config = UhscmConfig { bits: 16, epochs: EPOCHS, ..UhscmConfig::for_dataset(dataset.kind) };
    let model = pipeline.train(&SimilaritySource::default(), &config);
    let map = pipeline.evaluate_map(&model, dataset.split.database.len());
    assert!((0.0..=1.0).contains(&map), "MAP out of range: {map}");

    let summary = uhscm::obs::finish().expect("tracing is on");
    assert!(summary.contains("train.epochs"), "human summary lists counters: {summary}");
    uhscm::obs::disable(); // flushes and drops the file sink

    let raw = std::fs::read_to_string(&trace_path).expect("trace file exists");
    let _ = std::fs::remove_file(&trace_path);
    let events = match uhscm::obs::trace::parse_lines(&raw) {
        Ok(events) => events,
        Err((line, e)) => panic!("trace line {line} is not valid JSON: {e:?}"),
    };
    assert!(!events.is_empty(), "trace must not be empty");

    check_envelope(&events);
    check_span_tree(&events);
    check_epoch_records(&events);
    check_summary(&events);
}

/// Every event carries `seq`/`t_us`/`type`, and `seq` is strictly monotone
/// (so a trace from a crashed run is still orderable).
fn check_envelope(events: &[Json]) {
    let mut last_seq = None;
    for (i, ev) in events.iter().enumerate() {
        let seq = ev.get("seq").and_then(Json::as_u64).unwrap_or_else(|| panic!("event {i}: seq"));
        ev.get("t_us").and_then(Json::as_u64).unwrap_or_else(|| panic!("event {i}: t_us"));
        ev.get("type").and_then(Json::as_str).unwrap_or_else(|| panic!("event {i}: type"));
        if let Some(prev) = last_seq {
            assert!(seq > prev, "event {i}: seq {seq} not after {prev}");
        }
        last_seq = Some(seq);
    }
}

/// The span tree (reconstructed from `path` alone — children close before
/// parents, so the slash-joined ancestry is the whole structure) contains
/// exactly the expected pipeline stages.
fn check_span_tree(events: &[Json]) {
    let mut paths = BTreeSet::new();
    for ev in events {
        if ev.get("type").and_then(Json::as_str) == Some("span") {
            let name = ev.get("name").and_then(Json::as_str).expect("span has name");
            let path = ev.get("path").and_then(Json::as_str).expect("span has path");
            assert!(
                path == name || path.ends_with(&format!("/{name}")),
                "span path `{path}` does not end in its name `{name}`"
            );
            ev.get("dur_ns").and_then(Json::as_u64).expect("span has dur_ns");
            paths.insert(path.to_string());
        }
    }
    for expected in EXPECTED_SPAN_PATHS {
        assert!(paths.contains(*expected), "missing span path `{expected}`; got {paths:#?}");
    }
}

/// One `epoch` record per configured epoch, every loss/diagnostic field
/// present and finite, and the total loss does not increase across training
/// (small-step SGD on a fixed tiny dataset is stable enough to promise
/// per-epoch monotonicity within a 2% slack for optimizer noise).
fn check_epoch_records(events: &[Json]) {
    let fields = [
        "loss_total",
        "loss_similarity",
        "loss_quantization",
        "loss_contrastive",
        "grad_norm",
        "tanh_saturation",
        "bit_balance",
    ];
    let mut losses = Vec::new();
    for ev in events {
        if ev.get("type").and_then(Json::as_str) != Some("epoch") {
            continue;
        }
        let epoch = ev.get("epoch").and_then(Json::as_u64).expect("epoch index");
        assert_eq!(epoch as usize, losses.len(), "epoch records in order");
        for f in fields {
            let v = ev.get(f).and_then(Json::as_f64).unwrap_or_else(|| panic!("epoch field {f}"));
            assert!(v.is_finite(), "epoch {epoch}: {f} = {v} not finite");
        }
        losses.push(ev.get("loss_total").and_then(Json::as_f64).expect("loss_total"));
    }
    assert_eq!(losses.len(), EPOCHS, "one epoch record per epoch");
    for w in losses.windows(2) {
        assert!(w[1] <= w[0] * 1.02, "epoch loss increased: {losses:?}");
    }
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    assert!(last < first, "training made no progress: first {first}, last {last}");
}

/// Exactly one closing `summary` event, last in the stream, mirroring the
/// registry: epoch counter, span counters, and the loss histogram.
fn check_summary(events: &[Json]) {
    let summaries: Vec<&Json> = events
        .iter()
        .filter(|ev| ev.get("type").and_then(Json::as_str) == Some("summary"))
        .collect();
    assert_eq!(summaries.len(), 1, "exactly one summary event");
    let last = events.last().expect("non-empty");
    assert_eq!(
        last.get("type").and_then(Json::as_str),
        Some("summary"),
        "summary closes the trace"
    );

    let counters = summaries[0].get("counters").expect("summary.counters");
    assert_eq!(counters.get("train.epochs").and_then(Json::as_u64), Some(EPOCHS as u64));
    assert_eq!(counters.get("span.train.count").and_then(Json::as_u64), Some(1));
    assert_eq!(counters.get("vlp.score_matrix.calls").and_then(Json::as_u64), Some(1));
    assert!(
        counters.get("eval.map.queries").and_then(Json::as_u64).unwrap_or(0) > 0,
        "MAP evaluation recorded its queries"
    );

    let gauges = summaries[0].get("gauges").expect("summary.gauges");
    let total = gauges.get("pipeline.concepts.total").and_then(Json::as_f64).expect("total");
    let kept = gauges.get("pipeline.concepts.kept").and_then(Json::as_f64).expect("kept");
    assert!(kept <= total && kept >= 1.0, "denoising keeps 1..=total concepts ({kept}/{total})");

    let hists = summaries[0].get("histograms").expect("summary.histograms");
    let loss_hist = hists.get("train.epoch.loss_total").expect("loss histogram");
    assert_eq!(loss_hist.get("count").and_then(Json::as_u64), Some(EPOCHS as u64));
}
