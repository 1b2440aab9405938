//! The semantic similarity matrix `Q` (§3.3, Eq. 3 and Eq. 6).
//!
//! Eq. 6 makes `q_ij` the cosine of two concept distributions, so
//! `Q = U·Uᵀ`, where `U` is the `n × m′` matrix of unit-normalized
//! distributions (m′ kept concepts). [`Similarity`] holds `U` — O(n·m′)
//! memory instead of O(n²) — and computes the `t × t` block a training
//! step reads on demand. [`cosine_gram`] builds the dense matrix; it is the
//! reference the block is tested and benchmarked against, not a training
//! path.

use uhscm_linalg::{par, vecops, Matrix};

/// `Q` as the element-wise mean of one or more cosine operators, each held
/// as its unit-row factor.
#[derive(Debug, Clone)]
pub struct Similarity {
    /// One `n × m_p` factor of unit rows per averaged part.
    parts: Vec<Matrix>,
}

impl Similarity {
    /// Eq. 3 / Eq. 6: `q_ij = cos(x_i, x_j)` over the rows of `x` — concept
    /// distributions for the full model, raw VLP image features for the
    /// `UHSCM_IF` ablation (Table 2 row 3).
    pub fn cosine(x: &Matrix) -> Self {
        Self { parts: vec![unit_rows(x)] }
    }

    /// Element-wise mean of cosine operators over the same items (the
    /// `UHSCM_avg` ablation, Table 2 row 6): `(q_0 + q_1 + …) × 1/k`. Every
    /// part of every operator counts once, so for operators built by
    /// [`Similarity::cosine`] this is their plain mean.
    ///
    /// # Panics
    /// Panics if the list is empty or the operators cover different numbers
    /// of items.
    pub fn mean(operators: Vec<Similarity>) -> Self {
        let parts: Vec<Matrix> = operators.into_iter().flat_map(|s| s.parts).collect();
        assert!(!parts.is_empty(), "mean of zero similarity operators");
        let n = parts[0].rows();
        assert!(parts.iter().all(|u| u.rows() == n), "similarity operators differ in size");
        Self { parts }
    }

    /// Number of items `n`; `Q` is `n × n`.
    pub fn len(&self) -> usize {
        self.parts.first().map_or(0, Matrix::rows)
    }

    /// Whether the operator covers no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `t × t` block `block[a][b] = q(idx[a], idx[b])`.
    ///
    /// An entry is `1.0` where `idx[a] == idx[b]` and `dot(u_i, u_j)`
    /// otherwise; with k parts it is `(d_0 + d_1 + …) × (1/k)`, summed in
    /// that order. Those are [`cosine_gram`]'s operations, followed by the
    /// dense mean's, so every entry has the bits of the dense matrix's.
    /// Only the upper triangle is computed and then mirrored: IEEE-754
    /// multiplication commutes and `dot` sums in index order, so
    /// `dot(u_i, u_j)` and `dot(u_j, u_i)` are the same bits.
    ///
    /// # Panics
    /// Panics if an index is not below [`Similarity::len`].
    pub fn block(&self, idx: &[usize]) -> Matrix {
        let t = idx.len();
        let inv = 1.0 / self.parts.len() as f64;
        let mut out = Matrix::zeros(t, t);
        for (a, &i) in idx.iter().enumerate() {
            for (b, &j) in idx.iter().enumerate().skip(a) {
                let mut d = self.parts.iter().map(|u| {
                    if i == j {
                        1.0
                    } else {
                        vecops::dot(u.row(i), u.row(j))
                    }
                });
                let first = d.next().unwrap_or_default();
                let v = d.fold(first, |acc, x| acc + x) * inv;
                out[(a, b)] = v;
                out[(b, a)] = v;
            }
        }
        out
    }

    /// The whole `n × n` matrix (`block(0..n)`), for inspecting `Q` at small
    /// `n`.
    pub fn to_dense(&self) -> Matrix {
        let all: Vec<usize> = (0..self.len()).collect();
        self.block(&all)
    }
}

/// The rows of `x`, each scaled to unit ℓ2 norm (near-zero rows are left
/// as they are). Rows fan out over the `uhscm-linalg::par` runtime; each is
/// normalized independently, so any thread count gives the same bits.
fn unit_rows(x: &Matrix) -> Matrix {
    let (n, d) = x.shape();
    let mut unit = x.clone();
    par::par_row_bands_mut(unit.as_mut_slice(), d, n.saturating_mul(d), |_, band| {
        for row in band.chunks_mut(d) {
            vecops::normalize(row);
        }
    });
    unit
}

/// Dense cosine Gram matrix of the rows of `x`: the reference that
/// [`Similarity::block`] must match bitwise.
///
/// Output rows fan out over the `uhscm-linalg::par` runtime. Each row `i`
/// is computed in full (`dot(r_i, r_j)` for all `j`), so any band split
/// gives the same bits; it also matches `block`'s mirrored upper triangle,
/// because IEEE-754 multiplication commutes and `dot` sums over the
/// feature index in ascending order.
pub fn cosine_gram(x: &Matrix) -> Matrix {
    let n = x.rows();
    let d = x.cols();
    let unit = unit_rows(x);
    let mut q = Matrix::zeros(n, n);
    let work = n.saturating_mul(n).saturating_mul(d);
    par::par_row_bands_mut(q.as_mut_slice(), n, work, |row0, band| {
        for (bi, q_row) in band.chunks_mut(n).enumerate() {
            let i = row0 + bi;
            let ri = unit.row(i);
            for (j, slot) in q_row.iter_mut().enumerate() {
                *slot = if j == i { 1.0 } else { vecops::dot(ri, unit.row(j)) };
            }
        }
    });
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: &[Vec<f64>]) -> Matrix {
        Similarity::cosine(&Matrix::from_rows(rows)).to_dense()
    }

    #[test]
    fn identical_distributions_similarity_one() {
        let q = dense(&[vec![0.5, 0.3, 0.2], vec![0.5, 0.3, 0.2]]);
        assert!((q[(0, 1)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_distributions_similarity_zero() {
        let q = dense(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert!(q[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn symmetric_with_unit_diagonal() {
        let q = dense(&[vec![0.6, 0.3, 0.1], vec![0.2, 0.5, 0.3], vec![0.1, 0.1, 0.8]]);
        for i in 0..3 {
            assert!((q[(i, i)] - 1.0).abs() < 1e-12);
            for j in 0..3 {
                assert!((q[(i, j)] - q[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn nonnegative_for_distributions() {
        // Probability vectors have non-negative entries, so cosines are ≥ 0.
        let q = dense(&[vec![0.9, 0.1, 0.0], vec![0.0, 0.2, 0.8]]);
        assert!(q.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn mean_averages_the_parts() {
        let same = Similarity::cosine(&Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0]]));
        let apart = Similarity::cosine(&Matrix::identity(2));
        let m = Similarity::mean(vec![same, apart]).to_dense();
        assert_eq!(m.as_slice(), &[1.0, 0.5, 0.5, 1.0]);
    }

    #[test]
    fn shared_concept_raises_similarity() {
        // Images {A,B} share concept 0 heavily; C is concentrated elsewhere.
        let q = dense(&[vec![0.7, 0.2, 0.1], vec![0.6, 0.1, 0.3], vec![0.05, 0.05, 0.9]]);
        assert!(q[(0, 1)] > q[(0, 2)]);
        assert!(q[(0, 1)] > q[(1, 2)]);
    }
}
