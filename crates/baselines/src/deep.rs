//! Shared infrastructure for the deep baselines.
//!
//! Every deep baseline trains an MLP head over the simulated VGG features
//! (the stand-in for fine-tuning a shared VGG19 backbone — see DESIGN.md)
//! with mini-batch SGD. What differs per method is the loss; the common
//! trainer here handles the masked pairwise-ℓ2 family (SSDH, MLS³RDUH),
//! while GH / BGAN / CIB / UTH drive their own loops on top of the same
//! pieces.

use crate::UnsupervisedHasher;
use uhscm_eval::BitCodes;
use uhscm_linalg::{rng, Matrix};
use uhscm_nn::pairwise::{add_quantization_loss, masked_l2_loss_and_grad};
use uhscm_nn::{Mlp, Sgd};

/// Training hyper-parameters shared by the deep baselines (the paper trains
/// all deep methods with the same backbone and comparable optimizers).
#[derive(Debug, Clone)]
pub struct DeepBaselineConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f64,
    pub momentum: f64,
    pub weight_decay: f64,
    pub hidden: Vec<usize>,
    /// Weight of the quantization penalty used by methods that relax `sgn`.
    pub quantization: f64,
}

impl Default for DeepBaselineConfig {
    fn default() -> Self {
        Self {
            epochs: 40,
            batch_size: 128,
            learning_rate: 0.05,
            momentum: 0.9,
            weight_decay: 1e-5,
            hidden: vec![128],
            quantization: 0.001,
        }
    }
}

impl DeepBaselineConfig {
    /// Fast settings for unit tests.
    pub fn test_profile() -> Self {
        Self { epochs: 8, batch_size: 32, learning_rate: 0.02, ..Self::default() }
    }
}

/// A trained deep hashing model (MLP head + method name), with optional
/// input mean-centering (methods whose codes come from a *linear* head sign
/// pattern — GreedyHash — need it: ReLU'd CNN features share a dominant
/// mean direction that would otherwise pin every code to the same orthant).
#[derive(Debug, Clone)]
pub struct DeepHasher {
    pub(crate) mlp: Mlp,
    name: &'static str,
    center: Option<Vec<f64>>,
}

impl DeepHasher {
    pub(crate) fn new(mlp: Mlp, name: &'static str) -> Self {
        Self { mlp, name, center: None }
    }

    pub(crate) fn with_centering(mlp: Mlp, name: &'static str, center: Vec<f64>) -> Self {
        Self { mlp, name, center: Some(center) }
    }

    fn prepare(&self, features: &Matrix) -> Matrix {
        match &self.center {
            Some(mean) => {
                let mut x = features.clone();
                x.center_rows(mean);
                x
            }
            None => features.clone(),
        }
    }

    /// Relaxed (pre-`sgn`) codes.
    pub fn relaxed(&self, features: &Matrix) -> Matrix {
        self.mlp.infer(&self.prepare(features))
    }
}

impl UnsupervisedHasher for DeepHasher {
    fn name(&self) -> &'static str {
        self.name
    }

    fn encode(&self, features: &Matrix) -> BitCodes {
        BitCodes::from_real(&self.relaxed(features))
    }

    fn bits(&self) -> usize {
        self.mlp.output_dim()
    }
}

/// Train an MLP head to match a masked pairwise similarity `target`
/// (entries weighted by `weights`; zero weight = unlabeled pair), plus a
/// quantization penalty. This is the training loop of SSDH and MLS³RDUH.
///
/// # Panics
///
/// Panics if `target` or `weights` is not `n × n` for `n` feature rows.
pub fn train_masked_pairwise(
    features: &Matrix,
    target: &Matrix,
    weights: &Matrix,
    bits: usize,
    config: &DeepBaselineConfig,
    name: &'static str,
    seed: u64,
) -> DeepHasher {
    let n = features.rows();
    assert_eq!(target.shape(), (n, n), "target must be n × n");
    assert_eq!(weights.shape(), (n, n), "weights must be n × n");
    let mut r = rng::seeded(seed ^ 0xdeeb);
    let mut mlp = Mlp::hashing_network(features.cols(), &config.hidden, bits, &mut r);
    let mut sgd = Sgd::new(config.learning_rate, config.momentum, config.weight_decay);

    for _ in 0..config.epochs {
        let order = rng::permutation(&mut r, n);
        for chunk in order.chunks(config.batch_size) {
            if chunk.len() < 2 {
                continue;
            }
            let x = features.select_rows(chunk);
            let (tb, wb) = sub_square(target, weights, chunk);
            let z = mlp.infer(&x);
            let (_, mut grad) = masked_l2_loss_and_grad(&z, &tb, &wb);
            let _ = add_quantization_loss(&z, config.quantization, &mut grad);
            let _ = mlp.forward(&x);
            mlp.backward_params(&grad);
            sgd.step(&mut mlp);
        }
    }
    DeepHasher::new(mlp, name)
}

/// Extract matching sub-blocks of two square matrices.
pub(crate) fn sub_square(a: &Matrix, b: &Matrix, idx: &[usize]) -> (Matrix, Matrix) {
    let t = idx.len();
    let mut sa = Matrix::zeros(t, t);
    let mut sb = Matrix::zeros(t, t);
    for (x, &i) in idx.iter().enumerate() {
        for (y, &j) in idx.iter().enumerate() {
            sa[(x, y)] = a[(i, j)];
            sb[(x, y)] = b[(i, j)];
        }
    }
    (sa, sb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_linalg::vecops;

    #[test]
    fn masked_trainer_separates_labeled_clusters() {
        // Two feature clusters; pseudo labels mark within-cluster pairs +1,
        // across −1, and a band unlabeled.
        let mut r = rng::seeded(1);
        let mut rows = Vec::new();
        for c in 0..2 {
            for _ in 0..20 {
                let mut v = rng::gauss_vec(&mut r, 8, 0.2);
                v[c] += 1.0;
                vecops::normalize(&mut v);
                rows.push(v);
            }
        }
        let x = Matrix::from_rows(&rows);
        let mut target = Matrix::zeros(40, 40);
        let mut weights = Matrix::zeros(40, 40);
        for i in 0..40 {
            for j in 0..40 {
                if i == j {
                    continue;
                }
                if i % 3 == 0 || j % 3 == 0 {
                    continue; // leave a third unlabeled
                }
                target[(i, j)] = if (i < 20) == (j < 20) { 1.0 } else { -1.0 };
                weights[(i, j)] = 1.0;
            }
        }
        let model = train_masked_pairwise(
            &x,
            &target,
            &weights,
            8,
            &DeepBaselineConfig { epochs: 30, ..DeepBaselineConfig::test_profile() },
            "TEST",
            3,
        );
        let codes = model.encode(&x);
        let intra = codes.hamming(0, &codes, 1);
        let inter = codes.hamming(0, &codes, 39);
        assert!(inter > intra, "inter {inter} !> intra {intra}");
        assert_eq!(model.name(), "TEST");
        assert_eq!(model.bits(), 8);
    }

    #[test]
    #[should_panic(expected = "n × n")]
    fn mismatched_target_rejected() {
        let x = Matrix::zeros(4, 3);
        let t = Matrix::zeros(3, 3);
        let w = Matrix::zeros(3, 3);
        let _ = train_masked_pairwise(&x, &t, &w, 4, &DeepBaselineConfig::test_profile(), "X", 1);
    }
}
