//! Metric names, units, statistics and the result line.
//!
//! Every workload reports the same metric set (the driver reads one JSON
//! object per run with every end-to-end metric, or with `--trace 1` every
//! per-layer metric). A per-layer metric of a layer the workload never
//! calls reads 0 with a call count of 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use uhscm::obs::sink::Field;

/// End-to-end metrics: `(name, unit)`. Definitions per workload are in
/// `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.response_bytes", "bytes"),
    ("batch.size_mean", "count"),
    ("batch.count", "count"),
    ("batch.shed", "count"),
    ("server.batch_us", "us"),
    ("server.unattributed_us", "us"),
    ("nn.encode_batch_us", "us"),
    ("nn.encode_query_us", "us"),
    ("shard.search_us", "us"),
    ("shard.segments", "count"),
    ("shard.tombstones", "count"),
    ("shard.codes_per_query", "count"),
    ("shard.hits_per_code", "ratio"),
    ("scan.query_us", "us"),
    ("scan.gcodes_per_s", "Gcodes/s"),
    ("rank.query_us", "us"),
    ("write.insert_us", "us"),
    ("write.remove_us", "us"),
    ("ingest.items_per_s", "items/s"),
    ("store.write_items_per_s", "items/s"),
    ("store.load_items_per_s", "items/s"),
    ("store.bytes", "bytes"),
    ("data.generate_s", "s"),
    ("vlp.features_s", "s"),
    ("mining.score_s", "s"),
    ("denoise.run_s", "s"),
    ("denoise.kept", "count"),
    ("similarity.q_s", "s"),
    ("trainer.fit_s", "s"),
    ("trainer.steps", "count"),
    ("trainer.step_us", "us"),
    ("par.fanout_frac", "frac"),
    ("pipeline.encode_s", "s"),
    ("metrics.map_s", "s"),
    ("gen.lag_p99_us", "us"),
    ("trace.overhead_frac", "frac"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (frames sent, or pipeline passes).
    pub attempted: u64,
    /// Failed operations: oracle mismatches, error replies, timeouts.
    pub failed: u64,
    /// Whole-run checks beyond per-operation ones (receipt consistency,
    /// MAP above chance, finite losses); a message per violation.
    pub violations: Vec<String>,
    /// Metric values by name; the unit comes from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's named user-facing metrics (`name`, value, unit),
    /// printed in the human-readable block.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer call counts, printed next to the per-layer means.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set per-layer metric `name` to the mean microseconds per call that
    /// `clock` recorded under the same name, with the call count.
    pub fn set_timed(&mut self, name: &'static str, clock: &Clock) {
        let (us, n) = clock.mean_us(name);
        self.set(name, us);
        self.counts.insert(name, n);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Render the human-readable block and the final JSON line for the
    /// metric table `table`.
    pub fn render(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.named {
            let _ = writeln!(out, "  {name:<24} {value:>14.4} {unit}");
        }
        for (name, unit) in table {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            match self.counts.get(name) {
                Some(n) => {
                    let _ = writeln!(out, "  {name:<24} {v:>14.4} {unit}  ({n} calls)");
                }
                None => {
                    let _ = writeln!(out, "  {name:<24} {v:>14.4} {unit}");
                }
            }
        }
        for v in &self.violations {
            let _ = writeln!(out, "  CHECK FAILED: {v}");
        }
        let _ = writeln!(
            out,
            "  attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            // JSON has no infinities: a latency made infinite by a miss is
            // written as the largest finite double (the run is incorrect).
            let v = if v.is_finite() { v } else { f64::MAX };
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        out.push_str(&json);
        out.push('\n');
        out
    }
}

/// Times calls into one layer's public function and records each call as a
/// `bench_span` event (layer, request id, duration) in the trace.
#[derive(Default)]
pub struct Clock {
    sums: BTreeMap<&'static str, (f64, u64)>,
}

impl Clock {
    pub fn time<R>(&mut self, layer: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        self.record(layer, id, t.elapsed().as_nanos() as u64);
        r
    }

    /// Record one call into `layer` that took `ns` nanoseconds.
    pub fn record(&mut self, layer: &'static str, id: u64, ns: u64) {
        uhscm::obs::sink::emit(
            "bench_span",
            &[
                ("layer", Field::Str(layer.to_string())),
                ("id", Field::U64(id)),
                ("dur_ns", Field::U64(ns)),
            ],
        );
        let e = self.sums.entry(layer).or_insert((0.0, 0));
        e.0 += ns as f64;
        e.1 += 1;
    }

    /// Mean microseconds per call and the call count.
    pub fn mean_us(&self, layer: &str) -> (f64, u64) {
        match self.sums.get(layer) {
            Some(&(ns, n)) if n > 0 => (ns / n as f64 / 1e3, n),
            _ => (0.0, 0),
        }
    }

    pub fn total_s(&self, layer: &str) -> f64 {
        self.sums.get(layer).map_or(0.0, |&(ns, _)| ns / 1e9)
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, from procfs.
pub fn vmhwm_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 =
        line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64: the benchmark's own seeded generator for schedules and
/// traffic mixes (independent of the product's RNG so the inputs never
/// change with product code).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with the given rate (a Poisson inter-arrival gap).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}
