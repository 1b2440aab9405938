//! A fully-connected layer with a fused activation.

use crate::Activation;
use rand::Rng;
use uhscm_linalg::{par, Matrix};

/// `y = act(x W + b)` with cached forward state for back-propagation.
///
/// Shapes: `x: n × in`, `W: in × out`, `b: out`, `y: n × out`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub weight: Matrix,
    pub bias: Vec<f64>,
    pub activation: Activation,
    /// Accumulated gradient for `weight` (same shape).
    pub grad_weight: Matrix,
    /// Accumulated gradient for `bias`.
    pub grad_bias: Vec<f64>,
    /// Input of the most recent training forward pass.
    input_cache: Option<Matrix>,
    /// Output (post-activation) of the most recent training forward pass.
    output_cache: Option<Matrix>,
}

impl Linear {
    /// Create a layer with Xavier-initialized weights and zero bias.
    pub fn new(fan_in: usize, fan_out: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        Self {
            weight: crate::init::xavier_uniform(rng, fan_in, fan_out),
            bias: vec![0.0; fan_out],
            activation,
            grad_weight: Matrix::zeros(fan_in, fan_out),
            grad_bias: vec![0.0; fan_out],
            input_cache: None,
            output_cache: None,
        }
    }

    /// Reassemble a layer from persisted parts.
    ///
    /// # Panics
    /// Panics if the bias length does not match the weight columns.
    pub fn from_parts(weight: Matrix, bias: Vec<f64>, activation: Activation) -> Self {
        assert_eq!(bias.len(), weight.cols(), "bias length mismatch");
        let (rows, cols) = weight.shape();
        Self {
            weight,
            bias,
            activation,
            grad_weight: Matrix::zeros(rows, cols),
            grad_bias: vec![0.0; cols],
            input_cache: None,
            output_cache: None,
        }
    }

    /// Input dimensionality.
    pub fn fan_in(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimensionality.
    pub fn fan_out(&self) -> usize {
        self.weight.cols()
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.weight);
        // Checked before the activation: relu/clamp-style activations can
        // silently scrub a NaN (f64::max ignores it), hiding the layer
        // that actually produced the corruption.
        uhscm_linalg::check_finite!("Linear::forward", "pre-activation", &y);
        let cols = self.fan_out();
        let work = y.rows().saturating_mul(cols).saturating_mul(4);
        par::par_row_bands_mut(y.as_mut_slice(), cols, work, |_, band| {
            for row in band.chunks_mut(cols) {
                for (v, &b) in row.iter_mut().zip(&self.bias) {
                    *v = self.activation.apply(*v + b);
                }
            }
        });
        uhscm_linalg::check_finite!("Linear::forward", "output", &y);
        y
    }

    /// Forward pass that caches input and output for a later
    /// [`Self::backward_params`].
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = self.infer(x);
        self.input_cache = Some(x.clone());
        self.output_cache = Some(y.clone());
        y
    }

    /// Parameter half of the backward pass: given `dL/dy`, accumulate
    /// `dL/dW` and `dL/db` and return `δ = dL/dy ⊙ act'(y)`, from which
    /// [`Self::input_grad`] gives `dL/dx` if the caller reads it.
    ///
    /// # Panics
    /// Panics if called without a preceding [`Self::forward`].
    pub fn backward_params(&mut self, grad_output: &Matrix) -> Matrix {
        let x = self.input_cache.as_ref().expect("backward before forward");
        let y = self.output_cache.as_ref().expect("backward before forward");
        assert_eq!(grad_output.shape(), y.shape(), "grad_output shape mismatch");

        // δ = dL/dy ⊙ act'(y)   (n × out)
        let mut delta = grad_output.clone();
        let cols = delta.cols();
        let act = self.activation;
        let work = delta.rows().saturating_mul(cols).saturating_mul(2);
        par::par_row_bands_mut(delta.as_mut_slice(), cols, work, |row0, band| {
            for (bi, drow) in band.chunks_mut(cols).enumerate() {
                for (d, &yv) in drow.iter_mut().zip(y.row(row0 + bi)) {
                    *d *= act.derivative_from_output(yv);
                }
            }
        });

        // dL/dW += xᵀ δ ;  dL/db += Σ_rows δ.
        // The t_matmul kernel fans out over output rows; the bias gradient
        // fans out over *columns*, so every slot keeps one ascending-row
        // accumulation order (bitwise identical for any thread count).
        self.grad_weight.axpy(1.0, &x.t_matmul(&delta));
        let n = delta.rows();
        par::par_row_bands_mut(&mut self.grad_bias, 1, n.saturating_mul(cols), |col0, band| {
            for i in 0..n {
                let drow = delta.row(i);
                for (t, g) in band.iter_mut().enumerate() {
                    *g += drow[col0 + t];
                }
            }
        });
        uhscm_linalg::check_finite!("Linear::backward_params", "grad_weight", &self.grad_weight);
        uhscm_linalg::check_slice_finite!("Linear::backward_params", "grad_bias", &self.grad_bias);
        delta
    }

    /// Input half of the backward pass: `dL/dx = δ Wᵀ` for the `δ` that
    /// [`Self::backward_params`] returned.
    pub fn input_grad(&self, delta: &Matrix) -> Matrix {
        let grad_input = delta.matmul_t(&self.weight);
        uhscm_linalg::check_finite!("Linear::input_grad", "grad_input", &grad_input);
        grad_input
    }

    /// Reset accumulated gradients to zero.
    pub fn zero_grad(&mut self) {
        self.grad_weight.scale(0.0);
        for g in &mut self.grad_bias {
            *g = 0.0;
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weight.rows() * self.weight.cols() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_linalg::rng::seeded;

    #[test]
    fn forward_shape_and_linearity() {
        let mut rng = seeded(1);
        let mut layer = Linear::new(3, 2, Activation::Identity, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 2.0, 0.0]]);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (2, 2));
        // Row 0 should equal weight row 0; row 1 twice weight row 1.
        assert!((y[(0, 0)] - layer.weight[(0, 0)]).abs() < 1e-12);
        assert!((y[(1, 1)] - 2.0 * layer.weight[(1, 1)]).abs() < 1e-12);
    }

    #[test]
    fn bias_is_added_before_activation() {
        let mut rng = seeded(2);
        let mut layer = Linear::new(1, 1, Activation::Relu, &mut rng);
        layer.weight[(0, 0)] = 0.0;
        layer.bias[0] = -3.0;
        let y = layer.forward(&Matrix::from_rows(&[vec![5.0]]));
        assert_eq!(y[(0, 0)], 0.0); // relu(-3) = 0
        layer.bias[0] = 3.0;
        let y = layer.forward(&Matrix::from_rows(&[vec![5.0]]));
        assert_eq!(y[(0, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut rng = seeded(3);
        let mut layer = Linear::new(2, 2, Activation::Tanh, &mut rng);
        let _ = layer.backward_params(&Matrix::zeros(1, 2));
    }

    #[test]
    fn zero_grad_clears() {
        let mut rng = seeded(4);
        let mut layer = Linear::new(2, 2, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0, -1.0]]);
        let y = layer.forward(&x);
        let _ = layer.backward_params(&y);
        assert!(layer.grad_weight.max_abs() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.grad_weight.max_abs(), 0.0);
        assert!(layer.grad_bias.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = seeded(5);
        let mut layer = Linear::new(4, 3, Activation::Tanh, &mut rng);
        let x = uhscm_linalg::rng::gauss_matrix(&mut rng, 5, 4, 1.0);
        let a = layer.infer(&x);
        let b = layer.forward(&x);
        assert_eq!(a, b);
    }
}
