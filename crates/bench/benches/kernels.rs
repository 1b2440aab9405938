//! Micro-benchmarks for the linear-algebra kernels underneath everything,
//! plus a serial-vs-parallel comparison of every kernel the deterministic
//! runtime (`uhscm_linalg::par`) fans out.
//!
//! The comparison re-runs each workload pinned to one thread and at the
//! effective thread count (`UHSCM_THREADS` or the machine's core count),
//! checks the outputs are bitwise identical, and records the timings to
//! `BENCH_kernels.json` at the workspace root.

use criterion::{criterion_group, BatchSize, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::{Duration, Instant};
use uhscm_core::similarity::cosine_gram;
use uhscm_eval::bitcode::hamming_scan;
use uhscm_eval::{mean_average_precision, BitCodes, HammingRanker};
use uhscm_linalg::{jacobi_eigen, kernels, par, rng, vecops, Pca};
use uhscm_nn::pairwise::cosine_matrix;
use uhscm_nn::Mlp;
use uhscm_vlp::SimClip;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.measurement_time(Duration::from_secs(2)).sample_size(20);

    let mut r = rng::seeded(1);
    let a = rng::gauss_matrix(&mut r, 128, 128, 1.0);
    let b = rng::gauss_matrix(&mut r, 128, 128, 1.0);
    group.bench_function("matmul_128x128", |bench| {
        bench.iter(|| black_box(a.matmul(&b)));
    });

    let data = rng::gauss_matrix(&mut r, 256, 64, 1.0);
    let cov = data.covariance();
    group.bench_function("jacobi_eigen_64", |bench| {
        bench.iter_batched(|| cov.clone(), |m| black_box(jacobi_eigen(&m)), BatchSize::SmallInput);
    });

    group.bench_function("pca_fit_256x64_k16", |bench| {
        bench.iter(|| black_box(Pca::fit(&data, 16)));
    });

    let batch = rng::gauss_matrix(&mut r, 128, 64, 1.0);
    group.bench_function("cosine_matrix_128x64", |bench| {
        bench.iter(|| black_box(cosine_matrix(&batch)));
    });

    let logits: Vec<f64> = (0..81).map(|i| 0.2 + 0.001 * i as f64).collect();
    group.bench_function("softmax_81", |bench| {
        bench.iter(|| black_box(vecops::softmax_scaled(&logits, 243.0)));
    });

    group.finish();
}

criterion_group!(benches, bench_kernels);

/// Machine configuration the sweep ran under — without this, timings in a
/// committed `BENCH_kernels.json` are not attributable to anything.
#[derive(Serialize)]
struct HardwareMeta {
    /// Cores the OS reports via `std::thread::available_parallelism`.
    available_cores: usize,
    /// Threads the deterministic runtime resolved to (after `UHSCM_THREADS`).
    effective_threads: usize,
    /// Raw `UHSCM_THREADS` value, or `"unset"`.
    uhscm_threads_env: String,
}

/// The full report written to `BENCH_kernels.json`.
#[derive(Serialize)]
struct BenchReport {
    /// Report schema version. v2 added per-kernel throughput
    /// (`throughput`/`throughput_unit` on kernel rows) and the
    /// `reference_deltas` section comparing tuned kernels against their
    /// naive bitwise references.
    schema: u32,
    hardware: HardwareMeta,
    kernels: Vec<KernelRecord>,
    reference_deltas: Vec<DeltaRecord>,
}

/// One serial-vs-parallel measurement of a fanned-out kernel.
#[derive(Serialize)]
struct KernelRecord {
    name: String,
    size: String,
    threads: usize,
    serial_ns: u64,
    parallel_ns: u64,
    speedup: f64,
    bitwise_identical: bool,
    /// Serial throughput in `throughput_unit` (`null` for composite
    /// workloads whose work count has no single natural unit).
    throughput: Option<f64>,
    throughput_unit: Option<&'static str>,
}

/// One tuned-vs-naive measurement: the register-tiled dense kernels and the
/// batched Hamming scan against their straight-loop bitwise references,
/// both pinned to one thread so the delta isolates the kernel itself.
#[derive(Serialize)]
struct DeltaRecord {
    name: String,
    size: String,
    naive_ns: u64,
    tuned_ns: u64,
    speedup_vs_naive: f64,
    bitwise_identical: bool,
    naive_throughput: f64,
    tuned_throughput: f64,
    throughput_unit: &'static str,
}

/// Best-of-N wall time of `run` pinned to `threads` threads, in ns.
fn best_ns(threads: usize, samples: usize, run: &dyn Fn() -> Vec<u64>) -> u64 {
    par::with_threads(threads, || {
        black_box(run()); // warm-up
        let mut best = u64::MAX;
        for _ in 0..samples {
            let t0 = Instant::now();
            black_box(run());
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        best
    })
}

/// Time `run` serially and at `threads` threads; `run` returns the output
/// as bit patterns so the determinism contract is checked alongside speed.
/// `work` is the per-invocation work count and its unit (e.g. flops →
/// "gflops"); throughput = work / serial_ns, i.e. giga-units per second.
fn compare(
    name: &str,
    size: &str,
    threads: usize,
    work: Option<(f64, &'static str)>,
    run: &dyn Fn() -> Vec<u64>,
) -> KernelRecord {
    let bitwise_identical = par::with_threads(1, run) == par::with_threads(threads, run);
    let serial_ns = best_ns(1, 3, run);
    let parallel_ns = best_ns(threads, 3, run);
    let record = KernelRecord {
        name: name.to_string(),
        size: size.to_string(),
        threads,
        serial_ns,
        parallel_ns,
        speedup: serial_ns as f64 / parallel_ns as f64,
        bitwise_identical,
        throughput: work.map(|(units, _)| units / serial_ns as f64),
        throughput_unit: work.map(|(_, unit)| unit),
    };
    println!(
        "{name:<28} {size:<24} serial {:>12} ns | x{threads} {:>12} ns | {:.2}x | bitwise {}",
        record.serial_ns, record.parallel_ns, record.speedup, record.bitwise_identical
    );
    record
}

/// Time a tuned kernel against its naive bitwise reference, both pinned to
/// one thread, and attach throughputs in giga-`unit`s per second.
fn compare_reference(
    name: &str,
    size: &str,
    (units, unit): (f64, &'static str),
    naive: &dyn Fn() -> Vec<u64>,
    tuned: &dyn Fn() -> Vec<u64>,
) -> DeltaRecord {
    let bitwise_identical = par::with_threads(1, naive) == par::with_threads(1, tuned);
    // The two kernels alternate within one sampling loop: slow frequency
    // drift on the host can swing absolute times by ±30% across a few
    // seconds, and interleaving lets the drift hit both sides equally so it
    // cancels out of the ratio.
    let (naive_ns, tuned_ns) = par::with_threads(1, || {
        black_box(naive());
        black_box(tuned());
        let (mut best_naive, mut best_tuned) = (u64::MAX, u64::MAX);
        for _ in 0..5 {
            let t0 = Instant::now();
            black_box(naive());
            best_naive = best_naive.min(t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            black_box(tuned());
            best_tuned = best_tuned.min(t0.elapsed().as_nanos() as u64);
        }
        (best_naive, best_tuned)
    });
    let record = DeltaRecord {
        name: name.to_string(),
        size: size.to_string(),
        naive_ns,
        tuned_ns,
        speedup_vs_naive: naive_ns as f64 / tuned_ns as f64,
        bitwise_identical,
        naive_throughput: units / naive_ns as f64,
        tuned_throughput: units / tuned_ns as f64,
        throughput_unit: unit,
    };
    println!(
        "{name:<28} {size:<24} naive  {:>12} ns | tuned {:>11} ns | {:.2}x | {:.3} -> {:.3} {unit} | bitwise {}",
        record.naive_ns,
        record.tuned_ns,
        record.speedup_vs_naive,
        record.naive_throughput,
        record.tuned_throughput,
        record.bitwise_identical
    );
    record
}

fn f64_bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

/// Serial-vs-parallel sweep over the four fanned-out layers; writes
/// `BENCH_kernels.json` at the workspace root.
fn parallel_comparison() {
    let threads = par::Parallelism::effective().threads();
    let hardware = HardwareMeta {
        available_cores: std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1),
        effective_threads: threads,
        uhscm_threads_env: std::env::var("UHSCM_THREADS").unwrap_or_else(|_| "unset".to_string()),
    };
    println!(
        "\nparallel kernels at {threads} thread(s) on {} core(s) \
         (override with UHSCM_THREADS, currently {}):",
        hardware.available_cores, hardware.uhscm_threads_env
    );

    let mut r = rng::seeded(7);
    let mut records = Vec::new();

    // Layer 1: dense matmul at the paper's feature scale (256 images of
    // 4096-d CLIP features projected to 64 bits). 2mn k flops per call.
    let a = rng::gauss_matrix(&mut r, 256, 4096, 1.0);
    let b = rng::gauss_matrix(&mut r, 4096, 64, 1.0);
    let matmul_flops = 2.0 * 256.0 * 4096.0 * 64.0;
    records.push(compare(
        "matmul",
        "256x4096 * 4096x64",
        threads,
        Some((matmul_flops, "gflops")),
        &|| f64_bits(a.matmul(&b).as_slice()),
    ));

    // Layer 1b: the dense cosine Gram matrix, the reference that the
    // trainer's on-demand similarity blocks are checked against.
    let feats = rng::gauss_matrix(&mut r, 512, 256, 1.0);
    records.push(compare("cosine_gram", "512x256", threads, None, &|| {
        f64_bits(cosine_gram(&feats).as_slice())
    }));

    // Layer 2: simulated CLIP image-tower embedding.
    let latents = rng::gauss_matrix(&mut r, 512, 128, 1.0);
    let clip = SimClip::with_defaults(128, 7);
    records.push(compare("clip_embed_images", "512x128", threads, None, &|| {
        f64_bits(clip.embed_images(&latents).as_slice())
    }));

    // Layer 3: mini-batch MLP forward + backward (gradients checked).
    let mlp = Mlp::hashing_network(512, &[256], 64, &mut r);
    let x = rng::gauss_matrix(&mut r, 256, 512, 1.0);
    records.push(compare("mlp_forward_backward", "batch 256, 512-256-64", threads, None, &|| {
        let mut net = mlp.clone();
        let y = net.forward(&x);
        let gx = net.backward(&y);
        let mut bits = f64_bits(gx.as_slice());
        bits.extend(f64_bits(&net.flat_grads()));
        bits
    }));

    // Layer 4: per-query Hamming retrieval (MAP@100 over an 8192-code db).
    // Work unit: query-database code pairs.
    let db = BitCodes::from_real(&rng::gauss_matrix(&mut r, 8192, 64, 1.0));
    let queries = BitCodes::from_real(&rng::gauss_matrix(&mut r, 128, 64, 1.0));
    let ranker = HammingRanker::new(db.clone());
    let relevant = |qi: usize, dj: usize| (qi * 31 + dj) % 7 == 0;
    let pairs = 128.0 * 8192.0;
    records.push(compare(
        "retrieval_map",
        "128q x 8192db @100",
        threads,
        Some((pairs, "gcodes/s")),
        &|| vec![mean_average_precision(&ranker, &queries, &relevant, 100).to_bits()],
    ));

    // Tuned-vs-naive deltas: the register-tiled dense kernels against the
    // straight-loop references in `uhscm_linalg::kernels`, and the batched
    // Hamming scan against the per-pair `hamming(i, j)` loop. All pinned to
    // one thread — this isolates the kernel rewrite from the fan-out.
    println!("\ntuned kernels vs naive references (serial):");
    let mut deltas = Vec::new();
    deltas.push(compare_reference(
        "matmul_tiled",
        "256x4096 * 4096x64",
        (matmul_flops, "gflops"),
        &|| f64_bits(kernels::matmul_naive(&a, &b).as_slice()),
        &|| f64_bits(a.matmul(&b).as_slice()),
    ));
    // matmul_t at the Gram-like shape 256x4096 · (64x4096)ᵀ.
    let bt = rng::gauss_matrix(&mut r, 64, 4096, 1.0);
    deltas.push(compare_reference(
        "matmul_t_tiled",
        "256x4096 * (64x4096)^T",
        (matmul_flops, "gflops"),
        &|| f64_bits(kernels::matmul_t_naive(&a, &bt).as_slice()),
        &|| f64_bits(a.matmul_t(&bt).as_slice()),
    ));
    // t_matmul at the gradient shape (4096x256)ᵀ · 4096x64.
    let at = rng::gauss_matrix(&mut r, 4096, 256, 1.0);
    deltas.push(compare_reference(
        "t_matmul_tiled",
        "(4096x256)^T * 4096x64",
        (matmul_flops, "gflops"),
        &|| f64_bits(kernels::t_matmul_naive(&at, &b).as_slice()),
        &|| f64_bits(at.t_matmul(&b).as_slice()),
    ));
    deltas.push(compare_reference(
        "hamming_scan",
        "128q x 8192db",
        (pairs, "gcodes/s"),
        // Both sides reduce each query's distances to a position-weighted
        // wrapping sum: order-sensitive (so a permuted scan cannot pass the
        // bitwise check) yet associative, so the compiler is free to
        // vectorize it. A sequential hash chain here would add a ~1M-deep
        // multiply dependency that dwarfs the scan itself and hides the
        // kernel delta being measured.
        &|| {
            let mut acc = Vec::with_capacity(queries.len());
            for qi in 0..queries.len() {
                let mut h = 0u64;
                for j in 0..db.len() {
                    h = h.wrapping_add(
                        u64::from(queries.hamming(qi, &db, j)).wrapping_mul(j as u64 + 1),
                    );
                }
                acc.push(h);
            }
            acc
        },
        &|| {
            let mut dists = vec![0u32; db.len()];
            let mut acc = Vec::with_capacity(queries.len());
            for qi in 0..queries.len() {
                hamming_scan::scan_into(&queries, qi, &db, &mut dists);
                let mut h = 0u64;
                for (j, &d) in dists.iter().enumerate() {
                    h = h.wrapping_add(u64::from(d).wrapping_mul(j as u64 + 1));
                }
                acc.push(h);
            }
            acc
        },
    ));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(|root| root.join("BENCH_kernels.json"));
    let Some(path) = path else {
        eprintln!("warning: cannot locate the workspace root; skipping BENCH_kernels.json");
        return;
    };
    let report = BenchReport { schema: 2, hardware, kernels: records, reference_deltas: deltas };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => match std::fs::write(&path, json + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        },
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}

fn main() {
    benches();
    parallel_comparison();
}
