//! The UHSCM hashing objective (Eq. 7-11) and CIB's contrastive loss
//! (Eq. 10, for the `UHSCM_CL` ablation).
//!
//! The full objective over a mini-batch of relaxed codes `Z` (network
//! outputs, `t × k`) with the batch's similarity sub-matrix `Q` is
//!
//! ```text
//! L = 1/t² Σ_ij (ĥ_ij − q_ij)²                     (similarity, Eq. 7)
//!   + β/t Σ_i ‖z_i − sgn(z_i)‖²                     (quantization)
//!   + α/t Σ_i Σ_{j∈Ψ_i} 1/|Ψ_i| · ℓ_c(i, j)        (contrastive, Eq. 8)
//! ```
//!
//! with `ĥ_ij = cos(z_i, z_j)`, `Ψ_i = {j ≠ i | q_ij ≥ λ}` and
//! `Φ_i = {j ≠ i | q_ij < λ}`.
//!
//! **Faithful-to-intent correction.** Eq. 8 as printed is the bare softmax
//! fraction `e^{ĥ/γ} / (e^{ĥ/γ} + Σ e^{ĥ/γ})`; *minimizing* that fraction
//! would push similar pairs apart, contradicting the paper's own description
//! ("the Hamming similarity between b_i and b_j will be larger than…"). As
//! in every contrastive objective (InfoNCE, NT-Xent, and CIB's published
//! code), the intended term is the negative log of the fraction, which is
//! what this module implements — for both `L_c` and `J_c`. DESIGN.md records
//! the substitution.

use uhscm_linalg::Matrix;
use uhscm_nn::pairwise::{add_quantization_loss, cosine_grad, cosine_matrix};

/// Weights of the three loss terms for one batch.
#[derive(Debug, Clone, Copy)]
pub struct LossParams {
    pub alpha: f64,
    pub beta: f64,
    pub gamma: f64,
    pub lambda: f64,
}

/// Loss values per term (for logging and the ablation harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct LossBreakdown {
    pub total: f64,
    pub similarity: f64,
    pub quantization: f64,
    pub contrastive: f64,
}

/// Full Eq. 11 loss and its gradient `dL/dZ` for a batch.
///
/// # Panics
/// Panics if `q` is not `t × t` for a `t × k` batch.
pub fn hashing_loss_and_grad(z: &Matrix, q: &Matrix, p: &LossParams) -> (LossBreakdown, Matrix) {
    let t = z.rows();
    assert_eq!(q.shape(), (t, t), "batch similarity must be t × t");
    let (h, norms) = cosine_matrix(z);
    let mut g = Matrix::zeros(t, t); // dL/dĥ

    // --- similarity term (Eq. 7) ---
    let mut loss_s = 0.0;
    let inv_t2 = 1.0 / (t * t) as f64;
    for i in 0..t {
        for j in 0..t {
            let e = h[(i, j)] - q[(i, j)];
            loss_s += e * e * inv_t2;
            if i != j {
                g[(i, j)] += 2.0 * e * inv_t2;
            }
        }
    }

    // --- modified contrastive term (Eq. 8, -log form) ---
    let mut loss_c = 0.0;
    if p.alpha > 0.0 {
        let inv_gamma = 1.0 / p.gamma;
        // e^{ĥ_ij/γ} across the anchor's row, each evaluated once.
        let mut e = vec![0.0; t];
        for i in 0..t {
            let (qi, hi) = (q.row(i), h.row(i));
            let in_psi = |j: &usize| *j != i && qi[*j] >= p.lambda;
            let in_phi = |j: &usize| *j != i && qi[*j] < p.lambda;
            let n_psi = (0..t).filter(in_psi).count();
            if n_psi == 0 || !(0..t).any(|l| in_phi(&l)) {
                continue;
            }
            for (ev, &hv) in e.iter_mut().zip(hi) {
                *ev = (hv * inv_gamma).exp();
            }
            let b: f64 = (0..t).filter(in_phi).map(|l| e[l]).sum();
            let w = p.alpha / (t as f64 * n_psi as f64);
            let gi = g.row_mut(i);
            let mut inv_denom_sum = 0.0;
            for j in (0..t).filter(in_psi) {
                let denom = e[j] + b;
                loss_c += w * (denom.ln() - hi[j] * inv_gamma);
                // d/dĥ_ij of (ln(A+B) − ĥ_ij/γ) = (A/(A+B) − 1)/γ.
                gi[j] += w * inv_gamma * (e[j] / denom - 1.0);
                inv_denom_sum += 1.0 / denom;
            }
            for l in (0..t).filter(in_phi) {
                // d/dĥ_il: each positive term contributes e^{ĥ_il/γ}/(A_j+B).
                gi[l] += w * inv_gamma * e[l] * inv_denom_sum;
            }
        }
    }

    // --- gradient of the cosine terms back to Z ---
    let mut grad = cosine_grad(z, &h, &norms, &g);

    // --- quantization term ---
    let loss_q = add_quantization_loss(z, p.beta, &mut grad);

    uhscm_linalg::check_scalar_finite!("hashing_loss", "similarity term (Eq. 7)", loss_s);
    uhscm_linalg::check_scalar_finite!("hashing_loss", "contrastive term (Eq. 8)", loss_c);
    uhscm_linalg::check_scalar_finite!("hashing_loss", "quantization term", loss_q);
    uhscm_linalg::check_finite!("hashing_loss", "dL/dZ", &grad);

    let breakdown = LossBreakdown {
        total: loss_s + loss_q + loss_c,
        similarity: loss_s,
        quantization: loss_q,
        contrastive: loss_c,
    };
    (breakdown, grad)
}

/// Loss value only (used by finite-difference gradient checks).
pub fn hashing_loss(z: &Matrix, q: &Matrix, p: &LossParams) -> f64 {
    hashing_loss_and_grad(z, q, p).0.total
}

/// CIB's original contrastive loss `J_c` (Eq. 10, -log form) over two
/// augmented views of the same batch. Returns the loss and the gradients
/// with respect to each view.
///
/// Delegates to the shared two-view contrastive kernel in
/// [`uhscm_nn::pairwise`], which the CIB baseline also uses.
pub fn cib_contrastive_loss_and_grad(
    z1: &Matrix,
    z2: &Matrix,
    gamma: f64,
) -> (f64, Matrix, Matrix) {
    let (jc, g1, g2) = uhscm_nn::pairwise::two_view_contrastive_loss_and_grad(z1, z2, gamma);
    uhscm_linalg::check_scalar_finite!("cib_contrastive_loss", "J_c (Eq. 10)", jc);
    uhscm_linalg::check_finite!("cib_contrastive_loss", "dJ_c/dZ1", &g1);
    uhscm_linalg::check_finite!("cib_contrastive_loss", "dJ_c/dZ2", &g2);
    (jc, g1, g2)
}

/// Loss value only, for gradient checks.
pub fn cib_contrastive_loss(z1: &Matrix, z2: &Matrix, gamma: f64) -> f64 {
    cib_contrastive_loss_and_grad(z1, z2, gamma).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_linalg::rng;

    fn params() -> LossParams {
        LossParams { alpha: 0.2, beta: 0.001, gamma: 0.2, lambda: 0.6 }
    }

    /// Random batch with a similarity matrix that has both positives and
    /// negatives under λ.
    fn batch(seed: u64, t: usize, k: usize) -> (Matrix, Matrix) {
        let mut r = rng::seeded(seed);
        let z = rng::gauss_matrix(&mut r, t, k, 0.5);
        let mut q = Matrix::zeros(t, t);
        for i in 0..t {
            q[(i, i)] = 1.0;
            for j in (i + 1)..t {
                let v = if (i + j) % 3 == 0 { 0.9 } else { 0.2 };
                q[(i, j)] = v;
                q[(j, i)] = v;
            }
        }
        (z, q)
    }

    /// Central finite differences on the full loss.
    fn numeric_grad(z: &Matrix, q: &Matrix, p: &LossParams) -> Matrix {
        let eps = 1e-6;
        let mut grad = Matrix::zeros(z.rows(), z.cols());
        for i in 0..z.rows() {
            for j in 0..z.cols() {
                let mut zp = z.clone();
                zp[(i, j)] += eps;
                let lp = hashing_loss(&zp, q, p);
                let mut zm = z.clone();
                zm[(i, j)] -= eps;
                let lm = hashing_loss(&zm, q, p);
                grad[(i, j)] = (lp - lm) / (2.0 * eps);
            }
        }
        grad
    }

    /// Eq. 11 with the Eq. 8 loop as first written: two index lists per
    /// anchor and `e^{ĥ/γ}` evaluated for every negative twice. The
    /// one-`exp` loop must reproduce it bit for bit.
    fn two_exp_reference(z: &Matrix, q: &Matrix, p: &LossParams) -> (LossBreakdown, Matrix) {
        let t = z.rows();
        let (h, norms) = cosine_matrix(z);
        let mut g = Matrix::zeros(t, t);
        let mut loss_s = 0.0;
        let inv_t2 = 1.0 / (t * t) as f64;
        for i in 0..t {
            for j in 0..t {
                let e = h[(i, j)] - q[(i, j)];
                loss_s += e * e * inv_t2;
                if i != j {
                    g[(i, j)] += 2.0 * e * inv_t2;
                }
            }
        }
        let mut loss_c = 0.0;
        let inv_gamma = 1.0 / p.gamma;
        for i in 0..t {
            let psi: Vec<usize> = (0..t).filter(|&j| j != i && q[(i, j)] >= p.lambda).collect();
            let phi: Vec<usize> = (0..t).filter(|&j| j != i && q[(i, j)] < p.lambda).collect();
            if psi.is_empty() || phi.is_empty() {
                continue;
            }
            let b: f64 = phi.iter().map(|&l| (h[(i, l)] * inv_gamma).exp()).sum();
            let w = p.alpha / (t as f64 * psi.len() as f64);
            let mut inv_denom_sum = 0.0;
            for &j in &psi {
                let a = (h[(i, j)] * inv_gamma).exp();
                let denom = a + b;
                loss_c += w * (denom.ln() - h[(i, j)] * inv_gamma);
                g[(i, j)] += w * inv_gamma * (a / denom - 1.0);
                inv_denom_sum += 1.0 / denom;
            }
            for &l in &phi {
                let e_l = (h[(i, l)] * inv_gamma).exp();
                g[(i, l)] += w * inv_gamma * e_l * inv_denom_sum;
            }
        }
        let mut grad = cosine_grad(z, &h, &norms, &g);
        let loss_q = add_quantization_loss(z, p.beta, &mut grad);
        let breakdown = LossBreakdown {
            total: loss_s + loss_q + loss_c,
            similarity: loss_s,
            quantization: loss_q,
            contrastive: loss_c,
        };
        (breakdown, grad)
    }

    #[test]
    fn eq8_loop_matches_two_exp_reference_bitwise() {
        let p = params();
        let levels = [-0.3, 0.2, p.lambda, 0.9];
        for seed in 0..40u64 {
            let t = 2 + seed as usize % 11;
            let mut r = rng::seeded(700 + seed);
            let z = rng::gauss_matrix(&mut r, t, 5, 0.5);
            // Random q over levels that include λ itself (a positive).
            let mut q = rng::gauss_matrix(&mut r, t, t, 1.0);
            q.map_inplace(|v| levels[((v.abs() * 2.0) as usize).min(3)]);
            // Anchor 0 has no positives; the last anchor has no negatives.
            q.row_mut(0).fill(0.2);
            q.row_mut(t - 1).fill(p.lambda);
            let (got, got_grad) = hashing_loss_and_grad(&z, &q, &p);
            let (want, want_grad) = two_exp_reference(&z, &q, &p);
            let terms = |b: &LossBreakdown| {
                [b.total, b.similarity, b.quantization, b.contrastive].map(f64::to_bits)
            };
            assert_eq!(terms(&got), terms(&want), "seed {seed}: loss terms");
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got_grad), bits(&want_grad), "seed {seed}: dL/dZ");
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (z, q) = batch(1, 8, 5);
        let p = params();
        let (_, analytic) = hashing_loss_and_grad(&z, &q, &p);
        let numeric = numeric_grad(&z, &q, &p);
        let err = analytic.sub(&numeric).max_abs();
        let scale = numeric.max_abs().max(1e-8);
        assert!(err / scale < 1e-4, "relative grad error {}", err / scale);
    }

    #[test]
    fn gradient_each_term_isolated() {
        let (z, q) = batch(2, 6, 4);
        for p in [
            LossParams { alpha: 0.0, beta: 0.0, gamma: 0.2, lambda: 0.6 }, // L_s only
            LossParams { alpha: 0.0, beta: 0.01, gamma: 0.2, lambda: 0.6 }, // + quantization
            LossParams { alpha: 0.5, beta: 0.0, gamma: 0.3, lambda: 0.6 }, // + contrastive
        ] {
            let (_, analytic) = hashing_loss_and_grad(&z, &q, &p);
            let numeric = numeric_grad(&z, &q, &p);
            let err = analytic.sub(&numeric).max_abs() / numeric.max_abs().max(1e-8);
            assert!(err < 1e-4, "relative grad error {err} for {p:?}");
        }
    }

    #[test]
    fn perfect_codes_minimize_similarity_term() {
        // Codes whose cosine equals q exactly → L_s = 0.
        let z = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![-1.0, -1.0]]);
        let mut q = Matrix::zeros(3, 3);
        for i in 0..3 {
            q[(i, i)] = 1.0;
        }
        q[(0, 1)] = 1.0;
        q[(1, 0)] = 1.0;
        q[(0, 2)] = -1.0;
        q[(2, 0)] = -1.0;
        q[(1, 2)] = -1.0;
        q[(2, 1)] = -1.0;
        let p = LossParams { alpha: 0.0, beta: 0.0, gamma: 0.2, lambda: 0.6 };
        let (b, _) = hashing_loss_and_grad(&z, &q, &p);
        assert!(b.similarity < 1e-12);
    }

    #[test]
    fn quantization_zero_at_corners() {
        let z = Matrix::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]);
        let q = Matrix::identity(2);
        let p = LossParams { alpha: 0.0, beta: 0.5, gamma: 0.2, lambda: 0.6 };
        let (b, _) = hashing_loss_and_grad(&z, &q, &p);
        assert!(b.quantization < 1e-12);
        // And positive away from corners.
        let z2 = Matrix::from_rows(&[vec![0.3, -0.2], vec![-0.1, 0.4]]);
        let (b2, _) = hashing_loss_and_grad(&z2, &q, &p);
        assert!(b2.quantization > 0.0);
    }

    #[test]
    fn contrastive_lower_when_positives_aligned() {
        // Three items: (0,1) similar, 2 dissimilar. Contrastive loss must be
        // lower when z_0 ≈ z_1 and both far from z_2.
        let mut q = Matrix::identity(3);
        q[(0, 1)] = 0.9;
        q[(1, 0)] = 0.9;
        let p = LossParams { alpha: 1.0, beta: 0.0, gamma: 0.2, lambda: 0.5 };
        let good = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 0.9], vec![-1.0, -1.0]]);
        let bad = Matrix::from_rows(&[vec![1.0, 1.0], vec![-1.0, -1.0], vec![1.0, 0.9]]);
        let (lg, _) = hashing_loss_and_grad(&good, &q, &p);
        let (lb, _) = hashing_loss_and_grad(&bad, &q, &p);
        assert!(lg.contrastive < lb.contrastive);
    }

    #[test]
    fn descent_direction_reduces_loss() {
        let (z, q) = batch(3, 10, 6);
        let p = params();
        let (l0, grad) = hashing_loss_and_grad(&z, &q, &p);
        let mut z2 = z.clone();
        z2.axpy(-0.01, &grad);
        let l1 = hashing_loss(&z2, &q, &p);
        assert!(l1 < l0.total, "step along -grad increased loss: {l0:?} -> {l1}");
    }

    #[test]
    fn cib_gradient_matches_finite_differences() {
        let mut r = rng::seeded(5);
        let z1 = rng::gauss_matrix(&mut r, 5, 4, 0.5);
        let z2 = rng::gauss_matrix(&mut r, 5, 4, 0.5);
        let gamma = 0.3;
        let (_, g1, g2) = cib_contrastive_loss_and_grad(&z1, &z2, gamma);
        let eps = 1e-6;
        for (view, analytic) in [(0, &g1), (1, &g2)] {
            for i in 0..5 {
                for j in 0..4 {
                    let perturb = |delta: f64| {
                        let mut a = z1.clone();
                        let mut b = z2.clone();
                        if view == 0 {
                            a[(i, j)] += delta;
                        } else {
                            b[(i, j)] += delta;
                        }
                        cib_contrastive_loss(&a, &b, gamma)
                    };
                    let numeric = (perturb(eps) - perturb(-eps)) / (2.0 * eps);
                    let denom = numeric.abs().max(analytic[(i, j)].abs()).max(1e-8);
                    assert!(
                        (numeric - analytic[(i, j)]).abs() / denom < 1e-4,
                        "view {view} ({i},{j}): numeric {numeric} vs {}",
                        analytic[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn cib_loss_lower_for_aligned_views() {
        let mut r = rng::seeded(8);
        let z = rng::gauss_matrix(&mut r, 6, 4, 1.0);
        let aligned = cib_contrastive_loss(&z, &z, 0.3);
        let shuffled = {
            let rows: Vec<Vec<f64>> = (0..6).map(|i| z.row((i + 1) % 6).to_vec()).collect();
            Matrix::from_rows(&rows)
        };
        let misaligned = cib_contrastive_loss(&z, &shuffled, 0.3);
        assert!(aligned < misaligned);
    }

    #[test]
    #[should_panic(expected = "t × t")]
    fn mismatched_q_rejected() {
        let z = Matrix::zeros(3, 2);
        let q = Matrix::zeros(2, 2);
        let _ = hashing_loss_and_grad(&z, &q, &params());
    }
}
