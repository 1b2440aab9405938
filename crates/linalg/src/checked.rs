//! Numeric sanitizer — the runtime half of the correctness tooling.
//!
//! With the `checked` cargo feature enabled, the hot paths of the pipeline
//! (layer forward/backward, the optimizer step, every loss term, a
//! per-epoch parameter audit) call the assertions here to trap the first
//! NaN/Inf the moment it is produced, with a message naming the operation
//! and operand shapes. Without the feature the [`check_finite!`] /
//! [`check_slice_finite!`] / [`check_scalar_finite!`] call sites expand to
//! nothing, so release throughput is untouched.
//!
//! Enable it on any workspace crate or the facade:
//!
//! ```text
//! cargo test --features checked
//! cargo run --release --features checked --example quickstart
//! ```

#[cfg(feature = "checked")]
use crate::Matrix;

/// Abort with a sanitizer diagnostic if any element of `m` is NaN/Inf.
///
/// `op` names the computation (e.g. `"Linear::backward_params"`), `operand` the
/// tensor within it (e.g. `"grad_weight"`).
///
/// # Panics
/// Panics on the first non-finite element, reporting op, operand, the
/// matrix shape and the offending coordinate.
#[cfg(feature = "checked")]
pub fn assert_matrix_finite(op: &str, operand: &str, m: &Matrix) {
    let (rows, cols) = m.shape();
    for (idx, &v) in m.as_slice().iter().enumerate() {
        if !v.is_finite() {
            panic!(
                "checked[{op}]: non-finite value {v} in {operand} ({rows}x{cols}) \
                 at row {}, col {}",
                idx / cols.max(1),
                idx % cols.max(1),
            );
        }
    }
}

/// Slice version of [`assert_matrix_finite`] (biases, per-item weights).
///
/// # Panics
/// Panics on the first non-finite element, reporting op, operand, length
/// and index.
#[cfg(feature = "checked")]
pub fn assert_slice_finite(op: &str, operand: &str, s: &[f64]) {
    for (idx, &v) in s.iter().enumerate() {
        if !v.is_finite() {
            panic!(
                "checked[{op}]: non-finite value {v} in {operand} (len {}) at index {idx}",
                s.len(),
            );
        }
    }
}

/// Scalar version of [`assert_matrix_finite`] (loss terms, step sizes).
///
/// # Panics
/// Panics if `v` is NaN/Inf, reporting op and operand.
#[cfg(feature = "checked")]
pub fn assert_scalar_finite(op: &str, operand: &str, v: f64) {
    if !v.is_finite() {
        panic!("checked[{op}]: non-finite value {v} in {operand}");
    }
}

/// Sanitize a [`Matrix`](crate::Matrix) expression under the `checked`
/// feature; expands to nothing otherwise. The feature is resolved in the
/// *calling* crate, so every crate using this macro forwards a `checked`
/// feature to `uhscm-linalg/checked`.
#[macro_export]
macro_rules! check_finite {
    ($op:expr, $operand:expr, $m:expr) => {
        #[cfg(feature = "checked")]
        {
            $crate::checked::assert_matrix_finite($op, $operand, $m);
        }
    };
}

/// Sanitize a `&[f64]` expression under the `checked` feature.
#[macro_export]
macro_rules! check_slice_finite {
    ($op:expr, $operand:expr, $s:expr) => {
        #[cfg(feature = "checked")]
        {
            $crate::checked::assert_slice_finite($op, $operand, $s);
        }
    };
}

/// Sanitize an `f64` expression under the `checked` feature.
#[macro_export]
macro_rules! check_scalar_finite {
    ($op:expr, $operand:expr, $v:expr) => {
        #[cfg(feature = "checked")]
        {
            $crate::checked::assert_scalar_finite($op, $operand, $v);
        }
    };
}

#[cfg(all(test, feature = "checked"))]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn finite_values_pass() {
        let m = Matrix::full(2, 3, 1.5);
        assert_matrix_finite("test", "m", &m);
        assert_slice_finite("test", "s", &[0.0, -1.0]);
        assert_scalar_finite("test", "v", 2.0);
    }

    #[test]
    #[should_panic(
        expected = "checked[matmul]: non-finite value NaN in output (2x2) at row 1, col 0"
    )]
    fn nan_reports_op_shape_and_coordinate() {
        let mut m = Matrix::zeros(2, 2);
        m[(1, 0)] = f64::NAN;
        assert_matrix_finite("matmul", "output", &m);
    }

    #[test]
    #[should_panic(
        expected = "checked[Sgd::step]: non-finite value inf in bias (len 2) at index 1"
    )]
    fn inf_in_slice_reports_index() {
        assert_slice_finite("Sgd::step", "bias", &[1.0, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "checked[loss]: non-finite value NaN in similarity term")]
    fn scalar_nan_reports() {
        assert_scalar_finite("loss", "similarity term", f64::NAN);
    }

    #[test]
    fn macros_compile_and_check() {
        let m = Matrix::identity(2);
        check_finite!("test", "m", &m);
        check_slice_finite!("test", "s", &[1.0]);
        check_scalar_finite!("test", "v", 0.5);
    }
}
