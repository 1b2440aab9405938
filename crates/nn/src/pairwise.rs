//! Pairwise-cosine building blocks shared by every similarity-preserving
//! hashing loss in this workspace.
//!
//! UHSCM's objective (Eq. 11), SSDH's semantic-structure loss, GreedyHash's
//! similarity term, MLS³RDUH's reconstruction loss and CIB's contrastive
//! loss all reduce to functions of the batch cosine matrix
//! `ĥ_ij = cos(z_i, z_j)`. This module provides the forward computation and
//! the exact chain rule from an arbitrary upstream gradient `dL/dĥ` back to
//! `dL/dZ`, so each method only has to differentiate its scalar loss with
//! respect to `ĥ`.

use uhscm_linalg::Matrix;

/// Pairwise cosine matrix of the rows of `z`, plus the row norms
/// (clamped away from zero). The diagonal is exactly 1.
///
/// One Gram product `z zᵀ`: its entries are the row dots
/// `vecops::dot(z_i, z_j)` bit for bit, so its diagonal holds the squared
/// norms `vecops::norm` would take the root of, and `(i, j)` equals
/// `(j, i)` because products commute and both fold in ascending order.
pub fn cosine_matrix(z: &Matrix) -> (Matrix, Vec<f64>) {
    let t = z.rows();
    let mut h = z.matmul_t(z);
    let norms: Vec<f64> = h.as_slice().iter().step_by(t + 1).map(|d| d.sqrt().max(1e-12)).collect();
    for (i, &ni) in norms.iter().enumerate() {
        for (j, (v, &nj)) in h.row_mut(i).iter_mut().zip(&norms).enumerate() {
            *v = if i == j { 1.0 } else { *v / (ni * nj) };
        }
    }
    (h, norms)
}

/// Chain rule from `g = dL/dĥ` (diagonal entries ignored — `ĥ_ii ≡ 1` has
/// zero gradient) back to `dL/dZ`.
///
/// For `ĥ_ij = z_iᵀz_j / (‖z_i‖‖z_j‖)`:
/// `dL/dz_i = Σ_{j≠i} (g_ij + g_ji) · (z_j/(‖z_i‖‖z_j‖) − ĥ_ij z_i/‖z_i‖²)`.
///
/// # Panics
///
/// Panics if `h` or `g` is not `t × t` for a `t × k` batch `z`.
pub fn cosine_grad(z: &Matrix, h: &Matrix, norms: &[f64], g: &Matrix) -> Matrix {
    let t = z.rows();
    assert_eq!(h.shape(), (t, t), "cosine matrix shape mismatch");
    assert_eq!(g.shape(), (t, t), "upstream gradient shape mismatch");
    assert_eq!(norms.len(), t, "norm count mismatch");

    // S = g + gᵀ with zero diagonal.
    let mut s = Matrix::zeros(t, t);
    for i in 0..t {
        for j in 0..t {
            if i != j {
                s[(i, j)] = g[(i, j)] + g[(j, i)];
            }
        }
    }
    // Row-normalized codes.
    let mut zn = z.clone();
    for (i, &norm) in norms.iter().enumerate() {
        let inv = 1.0 / norm;
        for v in zn.row_mut(i) {
            *v *= inv;
        }
    }
    // First term: (S · Zn) scaled per-row by 1/‖z_i‖.
    let mut grad = s.matmul(&zn);
    for (i, &norm) in norms.iter().enumerate() {
        let inv = 1.0 / norm;
        for v in grad.row_mut(i) {
            *v *= inv;
        }
    }
    // Second term: −(Σ_j S_ij ĥ_ij) z_i / ‖z_i‖².
    for i in 0..t {
        let coef: f64 = (0..t).map(|j| s[(i, j)] * h[(i, j)]).sum();
        let scale = coef / (norms[i] * norms[i]);
        for (gv, &zv) in grad.row_mut(i).iter_mut().zip(z.row(i)) {
            *gv -= scale * zv;
        }
    }
    grad
}

/// Masked ℓ2 similarity-preservation loss and gradient:
/// `L = (Σ_ij w_ij (ĥ_ij − s_ij)²) / Σ_ij w_ij` over off-diagonal pairs,
/// for a target matrix `s` and non-negative weights `w` (0 = pair unused).
///
/// This is the workhorse of SSDH and MLS³RDUH, whose pseudo-label matrices
/// leave many pairs unlabeled.
///
/// # Panics
///
/// Panics if `target` or `weights` is not `t × t` for a `t × k` batch `z`.
pub fn masked_l2_loss_and_grad(z: &Matrix, target: &Matrix, weights: &Matrix) -> (f64, Matrix) {
    let t = z.rows();
    assert_eq!(target.shape(), (t, t), "target must be t × t");
    assert_eq!(weights.shape(), (t, t), "weights must be t × t");
    let (h, norms) = cosine_matrix(z);
    let total_w: f64 = (0..t)
        .flat_map(|i| (0..t).filter(move |&j| j != i).map(move |j| (i, j)))
        .map(|(i, j)| weights[(i, j)])
        .sum();
    if total_w <= 0.0 {
        return (0.0, Matrix::zeros(t, z.cols()));
    }
    let inv_w = 1.0 / total_w;
    let mut loss = 0.0;
    let mut g = Matrix::zeros(t, t);
    for i in 0..t {
        for j in 0..t {
            if i == j {
                continue;
            }
            let w = weights[(i, j)];
            if w <= 0.0 {
                continue;
            }
            let e = h[(i, j)] - target[(i, j)];
            loss += w * e * e * inv_w;
            g[(i, j)] = 2.0 * w * e * inv_w;
        }
    }
    (loss, cosine_grad(z, &h, &norms, &g))
}

/// Quantization penalty `β/t Σ_i ‖z_i − sgn(z_i)‖²` and its gradient, added
/// onto an existing gradient accumulator.
pub fn add_quantization_loss(z: &Matrix, beta: f64, grad: &mut Matrix) -> f64 {
    if beta <= 0.0 {
        return 0.0;
    }
    let t = z.rows();
    let scale = beta / t as f64;
    let mut loss = 0.0;
    for i in 0..t {
        let gi = grad.row_mut(i);
        for (c, &v) in z.row(i).iter().enumerate() {
            let b = if v > 0.0 { 1.0 } else { -1.0 };
            let d = v - b;
            loss += scale * d * d;
            gi[c] += 2.0 * scale * d;
        }
    }
    loss
}

/// Two-view contrastive loss (NT-Xent-style, anchored on view 1) — CIB's
/// `J_c` (Qiu et al., IJCAI '21, Eq. 10 of the UHSCM paper) in the
/// conventional −log form. Returns the loss and the gradients with respect
/// to each view.
///
/// For each item `i`, the anchor is view-1 row `i`, the positive is view-2
/// row `i`, and the negatives are both views of every other item.
///
/// # Panics
///
/// Panics if the two views do not share the same `t × k` shape.
pub fn two_view_contrastive_loss_and_grad(
    z1: &Matrix,
    z2: &Matrix,
    gamma: f64,
) -> (f64, Matrix, Matrix) {
    let t = z1.rows();
    assert_eq!(z1.shape(), z2.shape(), "views must share a shape");
    assert!(t >= 2, "contrastive loss needs at least two items");
    assert!(gamma > 0.0, "temperature must be positive");

    // Stack views: rows 0..t are view 1, rows t..2t are view 2.
    let k = z1.cols();
    let mut stacked = Matrix::zeros(2 * t, k);
    for i in 0..t {
        stacked.row_mut(i).copy_from_slice(z1.row(i));
        stacked.row_mut(t + i).copy_from_slice(z2.row(i));
    }
    let (h, norms) = cosine_matrix(&stacked);
    let mut g = Matrix::zeros(2 * t, 2 * t);
    let inv_gamma = 1.0 / gamma;
    let mut loss = 0.0;
    for i in 0..t {
        let pos = t + i;
        let a = (h[(i, pos)] * inv_gamma).exp();
        let negatives: Vec<usize> = (0..2 * t).filter(|&j| j != i && j != pos).collect();
        let b: f64 = negatives.iter().map(|&j| (h[(i, j)] * inv_gamma).exp()).sum();
        let denom = a + b;
        loss += (denom.ln() - h[(i, pos)] * inv_gamma) / t as f64;
        let w = 1.0 / t as f64;
        g[(i, pos)] += w * inv_gamma * (a / denom - 1.0);
        for &j in &negatives {
            g[(i, j)] += w * inv_gamma * (h[(i, j)] * inv_gamma).exp() / denom;
        }
    }
    let grad = cosine_grad(&stacked, &h, &norms, &g);
    let mut g1 = Matrix::zeros(t, k);
    let mut g2 = Matrix::zeros(t, k);
    for i in 0..t {
        g1.row_mut(i).copy_from_slice(grad.row(i));
        g2.row_mut(i).copy_from_slice(grad.row(t + i));
    }
    (loss, g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_linalg::{par, rng, vecops};

    #[test]
    fn cosine_matrix_matches_vecops() {
        let mut r = rng::seeded(1);
        let z = rng::gauss_matrix(&mut r, 5, 3, 1.0);
        let (h, _) = cosine_matrix(&z);
        for i in 0..5 {
            for j in 0..5 {
                let expected = if i == j { 1.0 } else { vecops::cosine(z.row(i), z.row(j)) };
                assert!((h[(i, j)] - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cosine_matrix_is_the_per_pair_definition_bitwise() {
        // Per pair: dot(z_i, z_j) / (n_i·n_j) with n_i = norm(z_i) clamped
        // to 1e-12, and 1 on the diagonal. A zero row (its entries are
        // signed zeros), an all-negative row and duplicated rows included.
        let mut r = rng::seeded(11);
        let mut z = rng::gauss_matrix(&mut r, 13, 7, 1.0);
        z.row_mut(3).fill(0.0);
        z.row_mut(7).iter_mut().for_each(|v| *v = -v.abs() - 0.1);
        let dup = z.row(5).to_vec();
        z.row_mut(9).copy_from_slice(&dup);
        z.row_mut(12).copy_from_slice(&dup);
        let n: Vec<f64> = (0..13).map(|i| vecops::norm(z.row(i)).max(1e-12)).collect();
        let want = |i: usize, j: usize| {
            if i == j {
                1.0
            } else {
                vecops::dot(z.row(i), z.row(j)) / (n[i] * n[j])
            }
        };
        for threads in [1, 2, 3] {
            let (h, norms) = par::with_threads(threads, || cosine_matrix(&z));
            for i in 0..13 {
                assert_eq!(norms[i].to_bits(), n[i].to_bits(), "{threads} threads: norm {i}");
                for j in 0..13 {
                    let (got, expected) = (h[(i, j)], want(i, j));
                    assert_eq!(got.to_bits(), expected.to_bits(), "{threads} threads: ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn masked_l2_gradient_matches_finite_differences() {
        let mut r = rng::seeded(2);
        let z = rng::gauss_matrix(&mut r, 6, 4, 0.7);
        let mut target = Matrix::zeros(6, 6);
        let mut weights = Matrix::zeros(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    target[(i, j)] = if (i + j) % 2 == 0 { 1.0 } else { -1.0 };
                    weights[(i, j)] = if (i * j) % 3 == 0 { 1.0 } else { 0.0 };
                }
            }
        }
        let (_, analytic) = masked_l2_loss_and_grad(&z, &target, &weights);
        let eps = 1e-6;
        for i in 0..6 {
            for c in 0..4 {
                let mut zp = z.clone();
                zp[(i, c)] += eps;
                let (lp, _) = masked_l2_loss_and_grad(&zp, &target, &weights);
                let mut zm = z.clone();
                zm[(i, c)] -= eps;
                let (lm, _) = masked_l2_loss_and_grad(&zm, &target, &weights);
                let numeric = (lp - lm) / (2.0 * eps);
                let denom = numeric.abs().max(analytic[(i, c)].abs()).max(1e-8);
                assert!(
                    (numeric - analytic[(i, c)]).abs() / denom < 1e-4,
                    "({i},{c}): numeric {numeric} vs {}",
                    analytic[(i, c)]
                );
            }
        }
    }

    #[test]
    fn fully_masked_loss_is_zero() {
        let mut r = rng::seeded(3);
        let z = rng::gauss_matrix(&mut r, 4, 3, 1.0);
        let (loss, grad) = masked_l2_loss_and_grad(&z, &Matrix::zeros(4, 4), &Matrix::zeros(4, 4));
        assert_eq!(loss, 0.0);
        assert_eq!(grad.max_abs(), 0.0);
    }

    #[test]
    fn quantization_gradient_matches_finite_differences() {
        let mut r = rng::seeded(4);
        let z = rng::gauss_matrix(&mut r, 4, 3, 0.4);
        let mut grad = Matrix::zeros(4, 3);
        let _ = add_quantization_loss(&z, 0.7, &mut grad);
        let eps = 1e-6;
        let loss_of = |zz: &Matrix| {
            let mut g = Matrix::zeros(4, 3);
            add_quantization_loss(zz, 0.7, &mut g)
        };
        for i in 0..4 {
            for c in 0..3 {
                let mut zp = z.clone();
                zp[(i, c)] += eps;
                let mut zm = z.clone();
                zm[(i, c)] -= eps;
                let numeric = (loss_of(&zp) - loss_of(&zm)) / (2.0 * eps);
                assert!((numeric - grad[(i, c)]).abs() < 1e-6);
            }
        }
    }
}
