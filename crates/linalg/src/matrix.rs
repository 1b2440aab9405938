//! Row-major dense matrix.
//!
//! A deliberately small surface: exactly the operations the UHSCM pipeline
//! and its baselines use, with no per-element allocation. The three matrix
//! products run the register-tiled band kernels of [`crate::kernels`]
//! through [`crate::par::par_row_bands_mut`], as one band or many.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Row-major dense `rows × cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from a slice of equally sized rows.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                c,
                "from_rows: ragged rows — row {i} has {} elements, row 0 has {c}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Build an `n × n` diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    ///
    /// # Panics
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows);
        self.col_into(j, &mut out);
        out
    }

    /// Copy column `j` into `out` (cleared first), letting callers reuse one
    /// buffer across a loop instead of allocating per column. Reads the
    /// strided buffer directly rather than going through per-element
    /// indexing.
    ///
    /// # Panics
    /// Panics if `j >= cols`.
    pub fn col_into(&self, j: usize, out: &mut Vec<f64>) {
        assert!(j < self.cols, "column {j} out of bounds for a {}x{} matrix", self.rows, self.cols);
        out.clear();
        out.reserve(self.rows);
        for i in 0..self.rows {
            out.push(self.data[i * self.cols + j]);
        }
    }

    /// Flat row-major view of the underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view of the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                t[(j, i)] = v;
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// Runs the register-tiled band kernel of [`crate::kernels`] (4×8
    /// output tiles, `k` innermost). Output rows fan out over the
    /// [`crate::par`] runtime; every band runs the identical kernel and
    /// every output element accumulates its terms in ascending-`k` order,
    /// so the result is bitwise independent of the thread count *and*
    /// bitwise identical to [`crate::kernels::matmul_naive`].
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dim mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        let cols = other.cols;
        let work = self.rows.saturating_mul(self.cols).saturating_mul(cols);
        crate::par::par_row_bands_mut(&mut out.data, cols, work, |row0, band| {
            crate::kernels::matmul_band::<true>(self, row0, other, band);
        });
        out
    }

    /// `self^T * other` without materializing the transpose.
    ///
    /// Both paths run the 2×8 register-tiled band kernel of
    /// [`crate::kernels`]: each output row `k` (a column of `self`)
    /// accumulates over `i` in the same ascending order as the naive
    /// i-outer loop — bitwise identical per element, only the interleaving
    /// across elements differs.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul dim mismatch: {}x{} ^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        let cols = other.cols;
        let work = self.rows.saturating_mul(self.cols).saturating_mul(cols);
        crate::par::par_row_bands_mut(&mut out.data, cols, work, |row0, band| {
            crate::kernels::t_matmul_band(self, row0, other, band);
        });
        out
    }

    /// `self * other^T`, each element the row dot `vecops::dot(self_i, other_j)`.
    ///
    /// Transposes `other` once, then runs [`Self::matmul`]'s band kernel
    /// over the transpose without its exact-zero skip and from `-0.0`, so
    /// each output element folds `self[i][k] · other[j][k]` in ascending
    /// `k` exactly as the dot does: bitwise identical to
    /// [`crate::kernels::matmul_t_naive`] at any thread count.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t dim mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let bt = other.transpose();
        let mut out = Matrix::zeros(self.rows, other.rows);
        let cols = other.rows;
        let work = self.rows.saturating_mul(self.cols).saturating_mul(cols);
        crate::par::par_row_bands_mut(&mut out.data, cols, work, |row0, band| {
            crate::kernels::matmul_band::<false>(self, row0, &bt, band);
        });
        out
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl FnMut(f64) -> f64) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "axpy shape mismatch: {}x{} += alpha * {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scale by a scalar.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// `self - other` as a new matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "sub shape mismatch: {}x{} - {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// `self + other` as a new matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add shape mismatch: {}x{} + {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Mean of each column.
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        let n = self.rows.max(1) as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Subtract `center` from every row, in place.
    ///
    /// # Panics
    /// Panics if `center.len() != cols`.
    pub fn center_rows(&mut self, center: &[f64]) {
        assert_eq!(
            center.len(),
            self.cols,
            "center_rows length mismatch: center has {} elements for a {}x{} matrix",
            center.len(),
            self.rows,
            self.cols
        );
        for i in 0..self.rows {
            for (v, &c) in self.row_mut(i).iter_mut().zip(center) {
                *v -= c;
            }
        }
    }

    /// Covariance matrix of the rows (biased, divides by `n`).
    pub fn covariance(&self) -> Matrix {
        let means = self.col_means();
        let mut centered = self.clone();
        centered.center_rows(&means);
        let mut cov = centered.t_matmul(&centered);
        cov.scale(1.0 / self.rows.max(1) as f64);
        cov
    }

    /// Select a subset of rows by index into a new matrix.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (k, &i) in indices.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_hand_computed() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0, 0.5], vec![3.0, 4.0, -1.0]]);
        let c = a.matmul(&Matrix::identity(3));
        assert_eq!(c, a);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let direct = a.t_matmul(&b);
        let via_transpose = a.transpose().matmul(&b);
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0], vec![9.0, 10.0]]);
        let direct = a.matmul_t(&b);
        let via_transpose = a.matmul(&b.transpose());
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn matmul_t_keeps_signed_zeros_at_every_thread_count() {
        // Zero rows of `a` (in every band at 2 and 3 threads) against `b`
        // rows that are all negative, mixed and all positive: each product
        // in a zero row is a signed zero, and only an unskipped fold from
        // `-0.0` gives the dot's `-0.0` for the negative row and `+0.0`
        // for the others.
        let a = Matrix::from_rows(&[
            vec![0.0; 6],
            vec![1.5, -2.0, 0.0, 3.0, -0.5, 2.0],
            vec![0.0; 6],
            vec![-1.0, 0.25, 2.0, -3.0, 0.0, 1.0],
            vec![0.0; 6],
        ]);
        let b = Matrix::from_rows(&[
            vec![-1.0, -2.0, -0.5, -3.0, -4.0, -1.5],
            vec![1.0, -2.0, 0.5, -3.0, 4.0, -1.5],
            vec![1.0, 2.0, 0.5, 3.0, 4.0, 1.5],
        ]);
        let want = crate::kernels::matmul_t_naive(&a, &b);
        for i in [0, 2, 4] {
            let signs: Vec<bool> = want.row(i).iter().map(|v| v.is_sign_negative()).collect();
            assert_eq!(signs, [true, false, false], "row {i} of the reference");
        }
        for threads in [2, 3] {
            let got = crate::par::with_threads(threads, || a.matmul_t(&b));
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{threads} threads");
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn covariance_of_constant_rows_is_zero() {
        let a = Matrix::from_rows(&[vec![2.0, -1.0], vec![2.0, -1.0], vec![2.0, -1.0]]);
        let cov = a.covariance();
        assert!(cov.max_abs() < 1e-12);
    }

    #[test]
    fn covariance_hand_computed() {
        // Two points (0,0) and (2,2): mean (1,1), cov = [[1,1],[1,1]].
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 2.0]]);
        let cov = a.covariance();
        for i in 0..2 {
            for j in 0..2 {
                assert!((cov[(i, j)] - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert!(a.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-12));
        a.scale(2.0);
        assert!(a.as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-12));
    }

    #[test]
    fn select_rows_picks_expected() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[1.0]);
    }

    #[test]
    fn frobenius_norm_hand_computed() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
