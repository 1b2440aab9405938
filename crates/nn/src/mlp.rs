//! A feed-forward multi-layer perceptron.

use crate::{Activation, Linear};
use rand::Rng;
use uhscm_linalg::Matrix;

/// A stack of [`Linear`] layers.
///
/// This is the stand-in for the paper's VGG19 backbone: the pre-trained
/// convolutional tower is replaced by fixed feature extraction (see
/// `uhscm-vlp`), and the trainable part — "the last layer replaced by a
/// k-dimensional fully-connected layer with `tanh`" — becomes a small MLP
/// over those features.
///
/// ```
/// use uhscm_nn::Mlp;
/// use uhscm_linalg::rng;
///
/// let mut r = rng::seeded(7);
/// // 128-d features → 64 hidden (ReLU) → 16-bit tanh head.
/// let net = Mlp::hashing_network(128, &[64], 16, &mut r);
/// let x = rng::gauss_matrix(&mut r, 4, 128, 1.0);
/// let codes = net.infer(&x);
/// assert_eq!(codes.shape(), (4, 16));
/// assert!(codes.as_slice().iter().all(|v| (-1.0..=1.0).contains(v)));
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Build an MLP from `sizes` (e.g. `[512, 256, 64]`) and one activation
    /// per layer (`sizes.len() - 1` entries).
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given or the activation count does
    /// not match.
    pub fn new(sizes: &[usize], activations: &[Activation], rng: &mut impl Rng) -> Self {
        assert!(sizes.len() >= 2, "MLP needs at least input and output sizes");
        assert_eq!(activations.len(), sizes.len() - 1, "need one activation per layer");
        let layers = sizes
            .windows(2)
            .zip(activations)
            .map(|(w, &act)| Linear::new(w[0], w[1], act, rng))
            .collect();
        Self { layers }
    }

    /// Convenience constructor for the paper's hashing head: hidden ReLU
    /// layers and a final `tanh` to produce relaxed codes in `[-1, 1]^k`.
    pub fn hashing_network(
        input_dim: usize,
        hidden: &[usize],
        bits: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(input_dim);
        sizes.extend_from_slice(hidden);
        sizes.push(bits);
        let mut acts = vec![Activation::Relu; hidden.len()];
        acts.push(Activation::Tanh);
        Self::new(&sizes, &acts, rng)
    }

    /// Reassemble a network from persisted layers.
    ///
    /// # Panics
    /// Panics on an empty layer list or non-chaining dimensions.
    pub fn from_layers(layers: Vec<Linear>) -> Self {
        assert!(!layers.is_empty(), "MLP needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(pair[0].fan_out(), pair[1].fan_in(), "layer dimensions do not chain");
        }
        Self { layers }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().expect("Mlp::input_dim: network has no layers").fan_in()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("Mlp::output_dim: network has no layers").fan_out()
    }

    /// Training forward pass (caches activations for [`Self::backward`] and
    /// [`Self::backward_params`]).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = self.layers[0].forward(x);
        for layer in &mut self.layers[1..] {
            h = layer.forward(&h);
        }
        h
    }

    /// Inference forward pass (no caching, `&self`).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut h = self.layers[0].infer(x);
        for layer in &self.layers[1..] {
            h = layer.infer(&h);
        }
        h
    }

    /// Back-propagate `dL/dy` through the whole stack, accumulating parameter
    /// gradients; returns `dL/dx`.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let delta = self.backward_params(grad_output);
        match self.layers.first() {
            Some(first) => first.input_grad(&delta),
            None => delta,
        }
    }

    /// Back-propagate `dL/dy` through the whole stack, accumulating the same
    /// parameter gradients as [`Self::backward`] but skipping the first
    /// layer's `δ Wᵀ`, for callers that drop `dL/dx`. Returns the first
    /// layer's `δ`.
    pub fn backward_params(&mut self, grad_output: &Matrix) -> Matrix {
        let mut delta = grad_output.clone();
        let mut above: Option<&Linear> = None;
        for layer in self.layers.iter_mut().rev() {
            if let Some(above) = above {
                delta = above.input_grad(&delta);
            }
            delta = layer.backward_params(&delta);
            above = Some(layer);
        }
        delta
    }

    /// Zero all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Layers, for the optimizer.
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Layers, read-only.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Flatten all parameters into one vector (testing/serialization aid).
    pub fn flat_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.weight.as_slice());
            out.extend_from_slice(&layer.bias);
        }
        out
    }

    /// Load parameters from a flat vector produced by [`Self::flat_params`].
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn set_flat_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.param_count(), "flat parameter length mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            let wlen = layer.weight.rows() * layer.weight.cols();
            layer.weight.as_mut_slice().copy_from_slice(&flat[offset..offset + wlen]);
            offset += wlen;
            let blen = layer.bias.len();
            layer.bias.copy_from_slice(&flat[offset..offset + blen]);
            offset += blen;
        }
    }

    /// Flatten all accumulated gradients (same layout as [`Self::flat_params`]).
    pub fn flat_grads(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.grad_weight.as_slice());
            out.extend_from_slice(&layer.grad_bias);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_linalg::rng::seeded;

    #[test]
    fn shapes_flow_through() {
        let mut rng = seeded(1);
        let mut mlp = Mlp::hashing_network(16, &[8], 4, &mut rng);
        assert_eq!(mlp.input_dim(), 16);
        assert_eq!(mlp.output_dim(), 4);
        let x = uhscm_linalg::rng::gauss_matrix(&mut rng, 5, 16, 1.0);
        let y = mlp.forward(&x);
        assert_eq!(y.shape(), (5, 4));
        // tanh output bounded
        assert!(y.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = seeded(2);
        let mut mlp = Mlp::hashing_network(8, &[6, 5], 3, &mut rng);
        let x = uhscm_linalg::rng::gauss_matrix(&mut rng, 4, 8, 1.0);
        assert_eq!(mlp.infer(&x), mlp.forward(&x));
    }

    #[test]
    fn flat_params_round_trip() {
        let mut rng = seeded(3);
        let mut mlp = Mlp::hashing_network(8, &[4], 2, &mut rng);
        let flat = mlp.flat_params();
        assert_eq!(flat.len(), mlp.param_count());
        let mut perturbed = flat.clone();
        for v in &mut perturbed {
            *v += 1.0;
        }
        mlp.set_flat_params(&perturbed);
        assert_eq!(mlp.flat_params(), perturbed);
        mlp.set_flat_params(&flat);
        assert_eq!(mlp.flat_params(), flat);
    }

    #[test]
    fn param_count_formula() {
        let mut rng = seeded(4);
        let mlp = Mlp::new(&[10, 7, 3], &[Activation::Relu, Activation::Tanh], &mut rng);
        assert_eq!(mlp.param_count(), 10 * 7 + 7 + 7 * 3 + 3);
    }

    #[test]
    fn backward_changes_grads() {
        let mut rng = seeded(5);
        let mut mlp = Mlp::hashing_network(6, &[4], 2, &mut rng);
        let x = uhscm_linalg::rng::gauss_matrix(&mut rng, 3, 6, 1.0);
        let y = mlp.forward(&x);
        mlp.backward(&y);
        assert!(mlp.flat_grads().iter().any(|&g| g != 0.0));
        mlp.zero_grad();
        assert!(mlp.flat_grads().iter().all(|&g| g == 0.0));
    }
}
