//! Kernel-regression gate: the tiled `matmul` and `matmul_t` kernels and
//! the batched Hamming scan must never be slower than their naive
//! references on the standard bench shapes, and must stay bitwise
//! identical to them.
//!
//! `xtask ci` runs this binary after the test suite; it exits non-zero on
//! the first regression so a kernel "optimization" that loses to the naive
//! loop (or silently changes results) cannot land. Thresholds are 1.0x on
//! purpose — this is a floor against regressions, not a benchmark; the
//! measured speedups are recorded by `cargo bench -p uhscm-bench --bench
//! kernels` into `BENCH_kernels.json`.

use std::time::Instant;
use uhscm_eval::bitcode::hamming_scan;
use uhscm_eval::BitCodes;
use uhscm_linalg::{kernels, rng, Matrix};

/// Interleaved best-of-N wall times of `naive` and `tuned`, in ns (first
/// calls are discarded warm-ups). The two kernels alternate within one
/// sampling loop so slow frequency drift on the host — which can swing
/// absolute times by ±30% across a few seconds — hits both sides equally
/// and cancels out of the ratio.
fn best_pair_ns(samples: usize, mut naive: impl FnMut(), mut tuned: impl FnMut()) -> (u64, u64) {
    naive();
    tuned();
    let (mut best_naive, mut best_tuned) = (u64::MAX, u64::MAX);
    for _ in 0..samples {
        let t0 = Instant::now();
        naive();
        best_naive = best_naive.min(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        tuned();
        best_tuned = best_tuned.min(t0.elapsed().as_nanos() as u64);
    }
    (best_naive, best_tuned)
}

fn check(name: &str, naive_ns: u64, tuned_ns: u64, identical: bool, failures: &mut u32) {
    let speedup = naive_ns as f64 / tuned_ns.max(1) as f64;
    println!(
        "{name:<28} naive {naive_ns:>12} ns | tuned {tuned_ns:>12} ns | {speedup:.2}x | bitwise {identical}"
    );
    if !identical {
        eprintln!("kernel_regression: {name}: tuned kernel is NOT bitwise identical to naive");
        *failures += 1;
    }
    if tuned_ns > naive_ns {
        eprintln!("kernel_regression: {name}: tuned kernel slower than naive ({speedup:.2}x)");
        *failures += 1;
    }
}

/// One dense-kernel row: the tuned product must equal the naive one bit for
/// bit and be no slower.
fn dense_row(
    name: &str,
    naive: &dyn Fn() -> Matrix,
    tuned: &dyn Fn() -> Matrix,
    failures: &mut u32,
) {
    let (want, got) = (naive(), tuned());
    let identical =
        got.as_slice().iter().zip(want.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
    let (naive_ns, tuned_ns) = best_pair_ns(
        5,
        || {
            std::hint::black_box(naive());
        },
        || {
            std::hint::black_box(tuned());
        },
    );
    check(name, naive_ns, tuned_ns, identical, failures);
}

fn main() {
    let mut failures = 0u32;
    let mut r = rng::seeded(7);

    // Standard dense shape: 256 images of 4096-d features projected to 64
    // bits — the matmul row of BENCH_kernels.json — and the same product
    // with the right operand stored transposed (the matmul_t row), whose
    // reference is a row of dots.
    let a = rng::gauss_matrix(&mut r, 256, 4096, 1.0);
    let b = rng::gauss_matrix(&mut r, 4096, 64, 1.0);
    let bt = b.transpose();
    dense_row(
        "matmul 256x4096*4096x64",
        &|| kernels::matmul_naive(&a, &b),
        &|| a.matmul(&b),
        &mut failures,
    );
    dense_row(
        "matmul_t 256x4096*(64x4096)T",
        &|| kernels::matmul_t_naive(&a, &bt),
        &|| a.matmul_t(&bt),
        &mut failures,
    );

    // Standard Hamming shape: 128 queries against an 8192-code database at
    // 64 bits — the retrieval row of BENCH_kernels.json.
    let db = BitCodes::from_real(&rng::gauss_matrix(&mut r, 8192, 64, 1.0));
    let queries = BitCodes::from_real(&rng::gauss_matrix(&mut r, 128, 64, 1.0));
    let mut dists = vec![0u32; db.len()];
    let pairwise = |dists: &mut [u32]| {
        for qi in 0..queries.len() {
            for (j, d) in dists.iter_mut().enumerate() {
                *d = queries.hamming(qi, &db, j);
            }
            std::hint::black_box(&dists);
        }
    };
    let scan = |dists: &mut [u32]| {
        for qi in 0..queries.len() {
            hamming_scan::scan_into(&queries, qi, &db, dists);
            std::hint::black_box(&dists);
        }
    };
    let mut scan_out = vec![0u32; db.len()];
    pairwise(&mut dists);
    let identical = (0..queries.len()).all(|qi| {
        hamming_scan::scan_into(&queries, qi, &db, &mut scan_out);
        (0..db.len()).all(|j| scan_out[j] == queries.hamming(qi, &db, j))
    });
    let (pair_ns, scan_ns) = best_pair_ns(5, || pairwise(&mut dists), || scan(&mut scan_out));
    check("hamming_scan 128q x 8192db", pair_ns, scan_ns, identical, &mut failures);

    if failures > 0 {
        eprintln!("kernel_regression: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("kernel_regression: all kernels at or above naive throughput, bitwise identical");
}
