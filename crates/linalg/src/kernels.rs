//! Dense kernel layer: register-tiled microkernels + naive references.
//!
//! The three matrix products ([`Matrix::matmul`], [`Matrix::matmul_t`],
//! [`Matrix::t_matmul`]) all funnel through the *band kernels* in this
//! module: each computes a contiguous band of output rows, so the same
//! kernel runs as the whole output when the [`crate::par`] plan is serial
//! and as one of several bands when it fans out.
//!
//! # Tiling scheme
//!
//! One kernel shape serves all three products: [`MR`]-row axpy blocks with
//! the reduction unrolled by four. Each product accumulates whole output
//! rows (`out_row += x · b_row`), so the inner update is a full-width
//! [`axpy4`] the compiler vectorizes to the target's full register width
//! (the workspace builds with `target-cpu=native`, see
//! `.cargo/config.toml`). The blocking wins are memory traffic: eight
//! output rows are updated per pass over the streamed `b` panel, so `b` is
//! read once per *eight* output rows instead of once per row — an 8×
//! traffic cut on the `256×4096 · 4096×64` bench shape whose `b` panel
//! (2 MB) does not fit in L2 — while the four-term unroll loads and stores
//! each L1-resident output element once per *four* reduction terms instead
//! of once per term.
//!
//! `matmul_t` is a row-by-row dot product, the strict sequential
//! [`crate::vecops::dot`] fold. [`Matrix::matmul_t`] transposes its right
//! operand once, which turns every output row into the same axpy over the
//! rows of `bᵀ`: element `(i, j)` still adds `a[i][k] · b[j][k]` in
//! ascending `k`, one term per step, so the fold's order is unchanged and
//! only the interleaving across elements differs.
//!
//! # Accumulation-order invariant
//!
//! Tiling reorders loops *across* output elements only. Within one output
//! element, the reduction runs in exactly the naive kernel's term order
//! (ascending `k` for `matmul`/`matmul_t`, ascending row `i` for
//! `t_matmul`), starting from the same value. `matmul` and `t_matmul` skip
//! exact-zero coefficients and start from `0.0`, as their naive loops do;
//! `matmul_t` skips nothing and starts from `-0.0`, the start of
//! `Iterator::sum`'s float fold. IEEE-754 addition is deterministic for a
//! fixed operand sequence (vector lanes are element-wise — rustc enables
//! neither FP contraction nor fast-math), so every tiled kernel is
//! **bitwise identical** to its naive reference — pinned by the in-module
//! tests and the randomized shapes in `tests/proptests.rs` — and the
//! `parallel == serial` contract of [`crate::par`] holds by the same
//! argument at any band split.
//!
//! The band kernels accumulate in place. The skipping kernels require
//! their output band to arrive **zero-initialized** (every caller hands
//! them rows of a fresh [`Matrix::zeros`] buffer); the dot kernel fills
//! its band with `-0.0` itself.
//!
//! The naive references stay here as public functions: they are the oracle
//! for the bitwise tests and the baseline the kernel bench
//! (`BENCH_kernels.json`) and the `kernel_regression` ci gate measure
//! against.

use crate::matrix::Matrix;

/// Row-block height for the band kernels: the streamed operand panel is
/// read once per MR output rows, dividing its memory traffic by MR, while
/// the MR output rows (a few KB) stay resident in L1 across the whole
/// reduction. Taller blocks stop paying once the output block outgrows L1
/// alongside the streamed lines.
const MR: usize = 8;

/// Exact sparsity test, factored out so the deliberate bitwise comparison
/// against literal zero appears once (see the `float-cmp` baseline entry).
#[inline(always)]
fn nonzero(a: f64) -> bool {
    a != 0.0
}

/// `o[t] += x * b[t]` over the full row width — the vectorized inner update
/// shared by the band kernels. Term order per element: this adds
/// exactly one ascending-order term to each output element per call.
#[inline(always)]
fn axpy(o: &mut [f64], x: f64, b: &[f64]) {
    for (ov, &bv) in o.iter_mut().zip(b) {
        *ov += x * bv;
    }
}

/// Four sequential axpy terms per output-element load/store: each element
/// is read once, accumulates `x[0]*b0 + x[1]*b1 + x[2]*b2 + x[3]*b3` in
/// exactly that order, and is stored once — the same term sequence as four
/// separate [`axpy`] calls at a quarter of the output-row memory traffic.
#[inline(always)]
fn axpy4(o: &mut [f64], x: [f64; 4], b0: &[f64], b1: &[f64], b2: &[f64], b3: &[f64]) {
    for ((((ov, &v0), &v1), &v2), &v3) in o.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
        let mut t = *ov;
        t += x[0] * v0;
        t += x[1] * v1;
        t += x[2] * v2;
        t += x[3] * v3;
        *ov = t;
    }
}

/// One 4-term reduction step for a single output row: [`axpy4`] when all
/// four coefficients are nonzero (the overwhelmingly common case for dense
/// data) or `SKIP_ZEROS` is off, per-term guarded [`axpy`] fallback
/// otherwise. Either path adds the surviving terms in ascending order,
/// preserving the naive kernel's exact-zero skips.
#[inline(always)]
fn step4<const SKIP_ZEROS: bool>(
    o: &mut [f64],
    x: [f64; 4],
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
) {
    if !SKIP_ZEROS || (nonzero(x[0]) && nonzero(x[1]) && nonzero(x[2]) && nonzero(x[3])) {
        axpy4(o, x, b0, b1, b2, b3);
    } else {
        if nonzero(x[0]) {
            axpy(o, x[0], b0);
        }
        if nonzero(x[1]) {
            axpy(o, x[1], b1);
        }
        if nonzero(x[2]) {
            axpy(o, x[2], b2);
        }
        if nonzero(x[3]) {
            axpy(o, x[3], b3);
        }
    }
}

// ---------------------------------------------------------------------------
// matmul: out[i][j] = Σ_k a[i][k] · b[k][j]
// ---------------------------------------------------------------------------

/// Tiled band kernel for [`Matrix::matmul`] and, over a transposed right
/// operand, [`Matrix::matmul_t`]: fills `out` (a contiguous band of output
/// rows starting at global row `row0`) from `a` and `b`.
///
/// With `SKIP_ZEROS` (`matmul`), `out` must arrive zeroed and exact-zero
/// coefficients of `a` are skipped, as [`matmul_naive`] does. Without it
/// (`matmul_t`), the band is first filled with `-0.0` and every term is
/// added, so each element is [`crate::vecops::dot`]'s exact fold: the two
/// starts differ bitwise exactly when every term is a negative zero.
///
/// # Panics
/// Panics (debug) if `out` is not a whole number of `b.cols()`-wide rows.
pub(crate) fn matmul_band<const SKIP_ZEROS: bool>(
    a: &Matrix,
    row0: usize,
    b: &Matrix,
    out: &mut [f64],
) {
    let n = b.cols();
    if n == 0 {
        return;
    }
    debug_assert_eq!(out.len() % n, 0);
    if !SKIP_ZEROS {
        out.fill(-0.0);
    }
    let mut rest: &mut [f64] = out;
    let mut i = row0;
    // MR-row blocks, then single leftover rows (also used whenever the band
    // is shorter than a full block).
    while rest.len() >= MR * n {
        let (block, tail) = std::mem::take(&mut rest).split_at_mut(MR * n);
        rest = tail;
        matmul_rows8::<SKIP_ZEROS>(a, i, b, block);
        i += MR;
    }
    for o in rest.chunks_exact_mut(n) {
        matmul_rows1::<SKIP_ZEROS>(a.row(i), b, o);
        i += 1;
    }
}

/// MR-row block of [`matmul_band`]: eight output rows at once with the
/// reduction unrolled four `k` terms per pass, so each row of `b` is
/// loaded once per eight output rows and each output element is
/// loaded/stored once per four terms. Each element's terms accumulate in
/// ascending-`k` order onto `block`'s initial values, with the naive
/// kernel's exact-zero skip when `SKIP_ZEROS` is on.
fn matmul_rows8<const SKIP_ZEROS: bool>(a: &Matrix, i: usize, b: &Matrix, block: &mut [f64]) {
    let n = b.cols();
    let kk = a.cols();
    let bdata = b.as_slice();
    let (o0, r) = block.split_at_mut(n);
    let (o1, r) = r.split_at_mut(n);
    let (o2, r) = r.split_at_mut(n);
    let (o3, r) = r.split_at_mut(n);
    let (o4, r) = r.split_at_mut(n);
    let (o5, r) = r.split_at_mut(n);
    let (o6, o7) = r.split_at_mut(n);
    let ar: [&[f64]; MR] = [
        a.row(i),
        a.row(i + 1),
        a.row(i + 2),
        a.row(i + 3),
        a.row(i + 4),
        a.row(i + 5),
        a.row(i + 6),
        a.row(i + 7),
    ];
    let mut os: [&mut [f64]; MR] = [o0, o1, o2, o3, o4, o5, o6, o7];
    let mut k = 0;
    while k + 4 <= kk {
        let (b0, rest) = bdata[k * n..].split_at(n);
        let (b1, rest) = rest.split_at(n);
        let (b2, b3) = rest.split_at(n);
        let b3 = &b3[..n];
        for (r, o) in os.iter_mut().enumerate() {
            let x = [ar[r][k], ar[r][k + 1], ar[r][k + 2], ar[r][k + 3]];
            step4::<SKIP_ZEROS>(o, x, b0, b1, b2, b3);
        }
        k += 4;
    }
    while k < kk {
        let brow = &bdata[k * n..(k + 1) * n];
        for (r, o) in os.iter_mut().enumerate() {
            let x = ar[r][k];
            if !SKIP_ZEROS || nonzero(x) {
                axpy(o, x, brow);
            }
        }
        k += 1;
    }
}

/// Single-row tail of [`matmul_band`]: the same 4-term-unrolled reduction
/// as [`matmul_rows8`] for one row, same ascending-`k` order and zero
/// skip.
fn matmul_rows1<const SKIP_ZEROS: bool>(a_row: &[f64], b: &Matrix, out: &mut [f64]) {
    let n = b.cols();
    let kk = a_row.len();
    let bdata = b.as_slice();
    let mut k = 0;
    while k + 4 <= kk {
        let (b0, rest) = bdata[k * n..].split_at(n);
        let (b1, rest) = rest.split_at(n);
        let (b2, b3) = rest.split_at(n);
        let b3 = &b3[..n];
        let x = [a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]];
        step4::<SKIP_ZEROS>(out, x, b0, b1, b2, b3);
        k += 4;
    }
    while k < kk {
        let x = a_row[k];
        if !SKIP_ZEROS || nonzero(x) {
            axpy(out, x, &bdata[k * n..(k + 1) * n]);
        }
        k += 1;
    }
}

// ---------------------------------------------------------------------------
// t_matmul: out[k][j] = Σ_i a[i][k] · b[i][j]
// ---------------------------------------------------------------------------

/// Tiled band kernel for [`Matrix::t_matmul`]: `out` is a contiguous,
/// zero-initialized band of output rows (columns `k` of `a`) starting at
/// global row `row0`. The reduction runs over `i` (rows of `a` and `b`)
/// innermost, in ascending order with the naive kernel's exact-zero skip
/// on `a[i][k]`.
pub(crate) fn t_matmul_band(a: &Matrix, row0: usize, b: &Matrix, out: &mut [f64]) {
    let n = b.cols();
    if n == 0 {
        return;
    }
    debug_assert_eq!(out.len() % n, 0);
    let mut rest: &mut [f64] = out;
    let mut k = row0;
    while rest.len() >= MR * n {
        let (block, tail) = std::mem::take(&mut rest).split_at_mut(MR * n);
        rest = tail;
        t_matmul_rows8(a, k, b, block);
        k += MR;
    }
    for o in rest.chunks_exact_mut(n) {
        t_matmul_rows1(a, k, b, o);
        k += 1;
    }
}

/// MR-row block of [`t_matmul_band`]: eight adjacent output rows (`a`
/// columns `k..k+8` — one cache line per `a` row) with the reduction
/// unrolled four `i` terms per pass, so each row of `b` is loaded once per
/// eight output rows and each output element is loaded/stored once per
/// four terms. Terms accumulate in ascending-`i` order with the naive
/// kernel's exact-zero skip; `block` must arrive zeroed.
fn t_matmul_rows8(a: &Matrix, k: usize, b: &Matrix, block: &mut [f64]) {
    let (ac, bc) = (a.cols(), b.cols());
    let rows = a.rows();
    let (adata, bdata) = (a.as_slice(), b.as_slice());
    let (o0, r) = block.split_at_mut(bc);
    let (o1, r) = r.split_at_mut(bc);
    let (o2, r) = r.split_at_mut(bc);
    let (o3, r) = r.split_at_mut(bc);
    let (o4, r) = r.split_at_mut(bc);
    let (o5, r) = r.split_at_mut(bc);
    let (o6, o7) = r.split_at_mut(bc);
    let mut os: [&mut [f64]; MR] = [o0, o1, o2, o3, o4, o5, o6, o7];
    let mut i = 0;
    while i + 4 <= rows {
        let (ar0, rest) = adata[i * ac..].split_at(ac);
        let (ar1, rest) = rest.split_at(ac);
        let (ar2, ar3) = rest.split_at(ac);
        let ar3 = &ar3[..ac];
        let (b0, rest) = bdata[i * bc..].split_at(bc);
        let (b1, rest) = rest.split_at(bc);
        let (b2, b3) = rest.split_at(bc);
        let b3 = &b3[..bc];
        for (j, o) in os.iter_mut().enumerate() {
            step4::<true>(o, [ar0[k + j], ar1[k + j], ar2[k + j], ar3[k + j]], b0, b1, b2, b3);
        }
        i += 4;
    }
    while i < rows {
        let arow = &adata[i * ac..(i + 1) * ac];
        let brow = &bdata[i * bc..(i + 1) * bc];
        for (j, o) in os.iter_mut().enumerate() {
            let x = arow[k + j];
            if nonzero(x) {
                axpy(o, x, brow);
            }
        }
        i += 1;
    }
}

/// Single-row tail of [`t_matmul_band`]: the same 4-term-unrolled
/// reduction as [`t_matmul_rows8`] for one output row, same ascending-`i`
/// order and zero skip; `out` must arrive zeroed.
fn t_matmul_rows1(a: &Matrix, k: usize, b: &Matrix, out: &mut [f64]) {
    let (ac, bc) = (a.cols(), b.cols());
    let rows = a.rows();
    let (adata, bdata) = (a.as_slice(), b.as_slice());
    let mut i = 0;
    while i + 4 <= rows {
        let (ar0, rest) = adata[i * ac..].split_at(ac);
        let (ar1, rest) = rest.split_at(ac);
        let (ar2, ar3) = rest.split_at(ac);
        let ar3 = &ar3[..ac];
        let (b0, rest) = bdata[i * bc..].split_at(bc);
        let (b1, rest) = rest.split_at(bc);
        let (b2, b3) = rest.split_at(bc);
        let b3 = &b3[..bc];
        step4::<true>(out, [ar0[k], ar1[k], ar2[k], ar3[k]], b0, b1, b2, b3);
        i += 4;
    }
    while i < rows {
        let x = adata[i * ac + k];
        if nonzero(x) {
            axpy(out, x, &bdata[i * bc..(i + 1) * bc]);
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Naive references
// ---------------------------------------------------------------------------

/// Naive serial `a · b` — the streaming i-k-j loop the tiled kernel
/// replaced. Kept as the bitwise oracle for `tests/tiled_kernels.rs` and
/// the baseline for `BENCH_kernels.json` / the `kernel_regression` ci gate.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul dim mismatch");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let n = b.cols();
    for i in 0..a.rows() {
        let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        for (k, &x) in a.row(i).iter().enumerate() {
            if nonzero(x) {
                for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
                    *o += x * bv;
                }
            }
        }
    }
    out
}

/// Naive serial `a · bᵀ` — per-element dot products.
///
/// # Panics
/// Panics on column-count mismatch.
pub fn matmul_t_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_t dim mismatch");
    let mut out = Matrix::zeros(a.rows(), b.rows());
    let n = b.rows();
    for i in 0..a.rows() {
        let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = crate::vecops::dot(a.row(i), b.row(j));
        }
    }
    out
}

/// Naive serial `aᵀ · b` — the streaming i-outer loop, skipping exact
/// zeros of `a`, accumulating each output element in ascending-`i` order.
///
/// # Panics
/// Panics on row-count mismatch.
pub fn t_matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "t_matmul dim mismatch");
    let mut out = Matrix::zeros(a.cols(), b.cols());
    let n = b.cols();
    for i in 0..a.rows() {
        let b_row = b.row(i);
        for (k, &x) in a.row(i).iter().enumerate() {
            if nonzero(x) {
                let out_row = &mut out.as_mut_slice()[k * n..(k + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += x * bv;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    fn pair(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
        let mut r = rng::seeded(seed);
        (rng::gauss_matrix(&mut r, m, k, 1.0), rng::gauss_matrix(&mut r, k, n, 1.0))
    }

    fn assert_bitwise_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn band_kernels_match_naive_on_awkward_shapes() {
        // Dims straddling every remainder path: MR=8 row blocks plus
        // single-row tails and the 4-term reduction tail, including
        // degenerate 1-element matrices.
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 5),
            (3, 7, 9),
            (4, 8, 8),
            (5, 16, 17),
            (7, 5, 23),
            (9, 33, 3),
            (13, 2, 31),
        ] {
            let (a, b) = pair(m, k, n, (m * 1000 + k * 10 + n) as u64);
            let mut tiled = Matrix::zeros(m, n);
            matmul_band::<true>(&a, 0, &b, tiled.as_mut_slice());
            assert_bitwise_eq(&tiled, &matmul_naive(&a, &b), "matmul");

            let mut tiled_t = Matrix::zeros(m, n);
            matmul_band::<false>(&a, 0, &b, tiled_t.as_mut_slice());
            assert_bitwise_eq(&tiled_t, &matmul_t_naive(&a, &b.transpose()), "matmul_t");

            let c = matmul_naive(&a, &b);
            let mut tiled_tm = Matrix::zeros(k, n);
            t_matmul_band(&a, 0, &c, tiled_tm.as_mut_slice());
            assert_bitwise_eq(&tiled_tm, &t_matmul_naive(&a, &c), "t_matmul");
        }
    }

    #[test]
    fn band_kernels_handle_exact_zeros() {
        // Exact zeros exercise the sparsity skip on every kernel.
        let mut r = rng::seeded(99);
        let mut a = rng::gauss_matrix(&mut r, 6, 10, 1.0);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        let b = rng::gauss_matrix(&mut r, 10, 7, 1.0);
        let mut tiled = Matrix::zeros(6, 7);
        matmul_band::<true>(&a, 0, &b, tiled.as_mut_slice());
        assert_bitwise_eq(&tiled, &matmul_naive(&a, &b), "matmul with zeros");

        let c = matmul_naive(&a, &b);
        let mut tiled_tm = Matrix::zeros(10, 7);
        t_matmul_band(&a, 0, &c, tiled_tm.as_mut_slice());
        assert_bitwise_eq(&tiled_tm, &t_matmul_naive(&a, &c), "t_matmul with zeros");

        // An all-zero `a` row makes every matmul_t output in that row a
        // signed zero, pinning the dot kernel's start to `Iterator::sum`'s
        // `-0.0` fold identity (the naive reference is a plain dot).
        for row in a.as_mut_slice()[..10].iter_mut() {
            *row = 0.0;
        }
        let mut tiled_t = Matrix::zeros(6, 7);
        matmul_band::<false>(&a, 0, &b, tiled_t.as_mut_slice());
        assert_bitwise_eq(&tiled_t, &matmul_t_naive(&a, &b.transpose()), "matmul_t with zero row");
    }

    #[test]
    fn band_offset_matches_full_kernel() {
        // A band starting mid-matrix must reproduce the same rows as the
        // full-output kernel (this is what the par fan-out relies on).
        let (a, b) = pair(11, 9, 13, 42);
        let full = matmul_naive(&a, &b);
        let n = b.cols();
        for (start, rows) in [(0usize, 5usize), (5, 3), (8, 3), (3, 1)] {
            let mut band = vec![0.0; rows * n];
            matmul_band::<true>(&a, start, &b, &mut band);
            for (off, got) in band.chunks_exact(n).enumerate() {
                let want = full.row(start + off);
                assert!(
                    got.iter().zip(want).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "band row {} differs",
                    start + off
                );
            }
        }
    }
}
