//! Algorithm 1: learning the hashing network.

use crate::loss::{
    cib_contrastive_loss_and_grad, hashing_loss_and_grad, LossBreakdown, LossParams,
};
use crate::similarity::Similarity;
use crate::UhscmConfig;
use rand::Rng;
use uhscm_eval::BitCodes;
use uhscm_linalg::{rng, Matrix};
use uhscm_nn::{Mlp, Sgd};

/// Which contrastive regularizer accompanies the ℓ2 + quantization core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regularizer {
    /// The paper's modified contrastive loss `L_c` (full UHSCM).
    Modified,
    /// CIB's original `J_c` over two augmented views (`UHSCM_CL`).
    OriginalCib,
    /// No contrastive term (`UHSCM_w/o MCL`).
    None,
}

/// A trained hashing network.
#[derive(Debug, Clone)]
pub struct TrainedHasher {
    mlp: Mlp,
    /// Mean loss per epoch, for diagnostics and the convergence tests.
    pub loss_history: Vec<LossBreakdown>,
}

impl TrainedHasher {
    /// Relaxed codes `Z ∈ [-1, 1]^{n × k}` for a feature matrix.
    pub fn relaxed(&self, features: &Matrix) -> Matrix {
        self.mlp.infer(features)
    }

    /// Binary codes `B = sgn(Z)`, bit-packed.
    pub fn encode(&self, features: &Matrix) -> BitCodes {
        BitCodes::from_real(&self.relaxed(features))
    }

    /// Code length in bits.
    pub fn bits(&self) -> usize {
        self.mlp.output_dim()
    }

    /// The underlying network (e.g. for persistence via `Mlp::save`).
    pub fn network(&self) -> &Mlp {
        &self.mlp
    }
}

/// Train the hashing network of Algorithm 1.
///
/// * `features` — `n × d` inputs to the network (the simulated VGG backbone
///   output for the training images),
/// * `q` — the `n × n` semantic similarity operator built by the generator;
///   each step reads its `t × t` block,
/// * `regularizer` — which variant of the contrastive term to use.
///
/// # Panics
/// Panics if the config is invalid or shapes disagree.
pub fn train_hashing_network(
    features: &Matrix,
    q: &Similarity,
    config: &UhscmConfig,
    regularizer: Regularizer,
    seed: u64,
) -> TrainedHasher {
    config.validate().expect("invalid UHSCM configuration");
    let n = features.rows();
    assert_eq!(q.len(), n, "similarity matrix must be n × n");
    assert!(n >= 2, "need at least two training items");

    let mut r = rng::seeded(seed ^ 0x415c_u64);
    let mut mlp = Mlp::hashing_network(features.cols(), &config.hidden, config.bits, &mut r);
    let mut sgd = Sgd::new(config.learning_rate, config.momentum, config.weight_decay);
    let params = LossParams {
        alpha: config.alpha,
        beta: config.beta,
        gamma: config.gamma,
        lambda: config.lambda,
    };
    // For the Modified/None cases the contrastive weight is folded into the
    // shared loss function; None simply zeroes it.
    let base_params = match regularizer {
        Regularizer::Modified => params,
        Regularizer::OriginalCib | Regularizer::None => LossParams { alpha: 0.0, ..params },
    };

    let mut history = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        let order = rng::permutation(&mut r, n);
        let mut epoch_loss = LossBreakdown::default();
        let mut batches = 0usize;
        // Epoch telemetry accumulators; only filled when tracing is on.
        let mut grad_norm_sum = 0.0;
        let mut saturation_sum = 0.0;
        let mut balance_sum = 0.0;
        for chunk in order.chunks(config.batch_size) {
            if chunk.len() < 2 {
                continue; // pairwise losses need at least two items
            }
            let x = features.select_rows(chunk);
            let qb = q.block(chunk);

            // Modified/None back-propagate through this pass; OriginalCib
            // interleaves a second view and re-forwards both below.
            let z = match regularizer {
                Regularizer::Modified | Regularizer::None => mlp.forward(&x),
                Regularizer::OriginalCib => mlp.infer(&x),
            };
            if uhscm_obs::enabled() {
                saturation_sum += tanh_saturation(&z);
                balance_sum += bit_balance(&z);
            }
            let (mut breakdown, mut grad) = hashing_loss_and_grad(&z, &qb, &base_params);

            match regularizer {
                Regularizer::Modified | Regularizer::None => {
                    mlp.backward(&grad);
                }
                Regularizer::OriginalCib => {
                    // Two augmented views (input-noise augmentation stands in
                    // for the paper's image augmentations). J_c's instance-
                    // discrimination gradient is concentrated (one positive
                    // per anchor vs. L_s's 1/t² pair weights), so its weight
                    // is scaled down to keep the terms comparable — without
                    // this the repulsion between genuinely similar items
                    // overwhelms L_s, which the paper's pretrained backbone
                    // does not suffer from.
                    let alpha = 0.08 * config.alpha;
                    let x2 = augment(&x, &mut r);
                    let z2 = mlp.infer(&x2);
                    let (jc, g1, g2) = cib_contrastive_loss_and_grad(&z, &z2, config.gamma);
                    breakdown.contrastive = alpha * jc;
                    breakdown.total += breakdown.contrastive;
                    grad.axpy(alpha, &g1);
                    let mut grad2 = g2;
                    grad2.scale(alpha);
                    let _ = mlp.forward(&x2);
                    mlp.backward(&grad2);
                    let _ = mlp.forward(&x);
                    mlp.backward(&grad);
                }
            }
            if uhscm_obs::enabled() {
                grad_norm_sum += frobenius(&mlp.flat_grads());
            }
            sgd.step(&mut mlp);
            epoch_loss.total += breakdown.total;
            epoch_loss.similarity += breakdown.similarity;
            epoch_loss.quantization += breakdown.quantization;
            epoch_loss.contrastive += breakdown.contrastive;
            batches += 1;
        }
        if batches > 0 {
            let inv = 1.0 / batches as f64;
            epoch_loss.total *= inv;
            epoch_loss.similarity *= inv;
            epoch_loss.quantization *= inv;
            epoch_loss.contrastive *= inv;
        }
        if uhscm_obs::enabled() && batches > 0 {
            use uhscm_obs::sink::Field;
            let inv = 1.0 / batches as f64;
            uhscm_obs::sink::emit(
                "epoch",
                &[
                    ("epoch", Field::U64(epoch as u64)),
                    ("loss_total", Field::F64(epoch_loss.total)),
                    ("loss_similarity", Field::F64(epoch_loss.similarity)),
                    ("loss_quantization", Field::F64(epoch_loss.quantization)),
                    ("loss_contrastive", Field::F64(epoch_loss.contrastive)),
                    ("grad_norm", Field::F64(grad_norm_sum * inv)),
                    ("tanh_saturation", Field::F64(saturation_sum * inv)),
                    ("bit_balance", Field::F64(balance_sum * inv)),
                ],
            );
            uhscm_obs::registry::counter_add("train.epochs", 1);
            uhscm_obs::registry::histogram_record("train.epoch.loss_total", epoch_loss.total);
        }
        history.push(epoch_loss);
        // End-of-epoch audit: every parameter must still be finite, so a
        // divergence is pinned to the epoch where it happened.
        #[cfg(feature = "checked")]
        for (i, layer) in mlp.layers().iter().enumerate() {
            let op = format!("train_hashing_network (epoch {epoch})");
            uhscm_linalg::checked::assert_matrix_finite(
                &op,
                &format!("layer {i} weight"),
                &layer.weight,
            );
            uhscm_linalg::checked::assert_slice_finite(
                &op,
                &format!("layer {i} bias"),
                &layer.bias,
            );
        }
    }
    TrainedHasher { mlp, loss_history: history }
}

/// Frobenius norm of a flat parameter-gradient vector (telemetry only).
fn frobenius(v: &[f64]) -> f64 {
    v.iter().map(|g| g * g).sum::<f64>().sqrt()
}

/// Fraction of relaxed code entries saturated past |z| > 0.9 — high values
/// mean the tanh head has committed to its corners (telemetry only).
fn tanh_saturation(z: &Matrix) -> f64 {
    let total = z.as_slice().len();
    if total == 0 {
        return 0.0;
    }
    let sat = z.as_slice().iter().filter(|v| v.abs() > 0.9).count();
    sat as f64 / total as f64
}

/// Mean over bits of |Σ_i sgn(z_ik)| / n — 0 means every bit splits the
/// batch evenly (the balanced-bit ideal), 1 means a constant bit
/// (telemetry only).
fn bit_balance(z: &Matrix) -> f64 {
    let (rows, cols) = z.shape();
    if rows == 0 || cols == 0 {
        return 0.0;
    }
    let mut signed = vec![0i64; cols];
    for i in 0..rows {
        for (acc, &v) in signed.iter_mut().zip(z.row(i)) {
            *acc += if v > 0.0 { 1 } else { -1 };
        }
    }
    let acc: f64 = signed.iter().map(|s| s.unsigned_abs() as f64 / rows as f64).sum();
    acc / cols as f64
}

/// Gaussian input-noise augmentation (norm ≈ 0.1 of a unit feature).
fn augment(x: &Matrix, r: &mut impl Rng) -> Matrix {
    let sigma = 0.1 / (x.cols() as f64).sqrt();
    let mut out = x.clone();
    for v in out.as_mut_slice() {
        *v += sigma * rng::gauss(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_linalg::vecops;

    /// Toy problem: two feature clusters; Q says "same cluster ⇒ similar".
    fn toy(n_per: usize, d: usize, seed: u64) -> (Matrix, Similarity, Vec<usize>) {
        let mut r = rng::seeded(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2 {
            for _ in 0..n_per {
                let mut v = rng::gauss_vec(&mut r, d, 0.15);
                v[c] += 1.0;
                vecops::normalize(&mut v);
                rows.push(v);
                labels.push(c);
            }
        }
        let features = Matrix::from_rows(&rows);
        // One-hot label rows: their cosines are exactly 1.0 or 0.0.
        let mut one_hot = Matrix::zeros(2 * n_per, 2);
        for (i, &c) in labels.iter().enumerate() {
            one_hot[(i, c)] = 1.0;
        }
        (features, Similarity::cosine(&one_hot), labels)
    }

    fn quick_config() -> UhscmConfig {
        UhscmConfig {
            bits: 8,
            epochs: 30,
            batch_size: 16,
            learning_rate: 0.05,
            ..UhscmConfig::default()
        }
    }

    #[test]
    fn loss_decreases_over_training() {
        let (x, q, _) = toy(20, 8, 1);
        let model = train_hashing_network(&x, &q, &quick_config(), Regularizer::Modified, 3);
        let first = model.loss_history.first().unwrap().total;
        let last = model.loss_history.last().unwrap().total;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn codes_separate_clusters() {
        let (x, q, labels) = toy(20, 8, 2);
        let model = train_hashing_network(&x, &q, &quick_config(), Regularizer::Modified, 4);
        let codes = model.encode(&x);
        // Mean intra-cluster Hamming distance must be far below inter.
        let mut intra = (0.0, 0);
        let mut inter = (0.0, 0);
        for i in 0..codes.len() {
            for j in (i + 1)..codes.len() {
                let d = codes.hamming(i, &codes, j) as f64;
                if labels[i] == labels[j] {
                    intra.0 += d;
                    intra.1 += 1;
                } else {
                    inter.0 += d;
                    inter.1 += 1;
                }
            }
        }
        let intra_mean = intra.0 / intra.1 as f64;
        let inter_mean = inter.0 / inter.1 as f64;
        assert!(
            inter_mean > intra_mean + 1.0,
            "codes not separated: intra {intra_mean} vs inter {inter_mean}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, q, _) = toy(10, 6, 5);
        let cfg = UhscmConfig { epochs: 5, ..quick_config() };
        let a = train_hashing_network(&x, &q, &cfg, Regularizer::Modified, 9);
        let b = train_hashing_network(&x, &q, &cfg, Regularizer::Modified, 9);
        let za = a.relaxed(&x);
        let zb = b.relaxed(&x);
        assert_eq!(za.as_slice(), zb.as_slice());
    }

    #[test]
    fn all_regularizers_train() {
        let (x, q, _) = toy(10, 6, 6);
        let cfg = UhscmConfig { epochs: 5, ..quick_config() };
        for reg in [Regularizer::Modified, Regularizer::OriginalCib, Regularizer::None] {
            let model = train_hashing_network(&x, &q, &cfg, reg, 11);
            assert_eq!(model.bits(), cfg.bits);
            let z = model.relaxed(&x);
            assert!(z.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn quantization_pushes_codes_to_corners() {
        let (x, q, _) = toy(15, 6, 7);
        let weak = UhscmConfig { beta: 0.0, epochs: 40, ..quick_config() };
        let strong = UhscmConfig { beta: 0.5, epochs: 40, ..quick_config() };
        let mean_abs = |cfg: &UhscmConfig| {
            let m = train_hashing_network(&x, &q, cfg, Regularizer::None, 13);
            let z = m.relaxed(&x);
            z.as_slice().iter().map(|v| v.abs()).sum::<f64>() / z.as_slice().len() as f64
        };
        assert!(mean_abs(&strong) > mean_abs(&weak));
    }

    #[test]
    #[should_panic(expected = "n × n")]
    fn shape_mismatch_rejected() {
        let x = Matrix::zeros(4, 3);
        let q = Similarity::cosine(&Matrix::identity(3));
        let _ = train_hashing_network(&x, &q, &quick_config(), Regularizer::None, 1);
    }
}
