//! GreedyHash [Su, Zhang, Han & Tian, NeurIPS 2018].
//!
//! GreedyHash's unsupervised form learns codes by **feature reconstruction
//! through the code layer** with a cubic penalty `‖ |z| − 1 ‖³` pulling the
//! pre-binarization activations onto the hypercube corners, and applies
//! `sgn` in the forward pass with a straight-through gradient.
//!
//! *Reproduction note.* With the paper's ImageNet-pretrained backbone the
//! initial code layer is informative and the strict straight-through
//! estimator works; trained from random initialization (this environment),
//! `sgn` of the near-zero initial activations is uninformative and the STE
//! never escapes that regime (we verified collapse or chance-level codes
//! across step-size scales). We therefore relax the reconstruction path to
//! the continuous activations — the corner penalty still drives them onto
//! `{±1}`, so `sgn(z) ≈ z` at convergence and the encode-time binarization
//! is *greedy* exactly as in the paper. DESIGN.md records the deviation.

use crate::deep::{DeepBaselineConfig, DeepHasher};
use uhscm_linalg::{rng, Matrix};
use uhscm_nn::{Activation, Mlp, Sgd};

/// Weight of GreedyHash's cubic corner penalty.
const CORNER_PENALTY: f64 = 0.0001;

/// Train GreedyHash.
///
/// # Panics
///
/// Panics if `features` has fewer than two rows.
pub fn train(features: &Matrix, bits: usize, config: &DeepBaselineConfig, seed: u64) -> DeepHasher {
    let n = features.rows();
    let d = features.cols();
    assert!(n >= 2, "need at least two items");
    // Center the features: CNN features live in the positive orthant with a
    // dominant shared mean; without centering every item's linear-head sign
    // pattern coincides and the codes collapse to a single value.
    let mean = features.col_means();
    let mut features = features.clone();
    features.center_rows(&mean);
    let features = &features;
    let mut r = rng::seeded(seed ^ 0x6811);
    // GreedyHash signs a *linear* head: a tanh there would saturate under
    // the corner penalty and zero the straight-through gradients.
    let mut sizes = vec![d];
    sizes.extend_from_slice(&config.hidden);
    sizes.push(bits);
    let mut acts = vec![Activation::Relu; config.hidden.len()];
    acts.push(Activation::Identity);
    let mut encoder = Mlp::new(&sizes, &acts, &mut r);
    let mut decoder = Mlp::new(&[bits, d], &[Activation::Identity], &mut r);
    let mut enc_opt = Sgd::new(config.learning_rate, config.momentum, config.weight_decay);
    let mut dec_opt = Sgd::new(config.learning_rate, config.momentum, config.weight_decay);

    for _ in 0..config.epochs {
        let order = rng::permutation(&mut r, n);
        for chunk in order.chunks(config.batch_size) {
            if chunk.len() < 2 {
                continue;
            }
            let t = chunk.len();
            let x = features.select_rows(chunk);
            let z = encoder.infer(&x);

            // Reconstruction loss L = ‖x − dec(z)‖² / (t·√d̄) on the relaxed
            // codes (see the module docs for why the strict sign forward is
            // relaxed here).
            let recon = decoder.forward(&z);
            let mut grad_recon = recon.sub(&x);
            grad_recon.scale(2.0 / (t as f64 * (d as f64).sqrt()));
            let mut grad_z = decoder.backward(&grad_recon);
            dec_opt.step(&mut decoder);

            // Cubic corner penalty on the relaxed activations:
            // p = Σ | |z| − 1 |³ / t ⇒ dp/dz = 3(|z|−1)² sgn(|z|−1) sgn(z) / t.
            let inv_t = 1.0 / t as f64;
            for i in 0..t {
                let gi = grad_z.row_mut(i);
                for (c, &v) in z.row(i).iter().enumerate() {
                    let excess = v.abs() - 1.0;
                    gi[c] += CORNER_PENALTY
                        * 3.0
                        * excess
                        * excess
                        * excess.signum()
                        * v.signum()
                        * inv_t;
                }
            }
            let _ = encoder.forward(&x);
            encoder.backward_params(&grad_z);
            enc_opt.step(&mut encoder);
        }
    }
    DeepHasher::with_centering(encoder, "GH", mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnsupervisedHasher;
    use uhscm_linalg::vecops;

    fn clustered(seed: u64, per: usize) -> (Matrix, Vec<usize>) {
        let mut r = rng::seeded(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3 {
            for _ in 0..per {
                let mut v = rng::gauss_vec(&mut r, 12, 0.2);
                v[c * 2] += 1.0;
                vecops::normalize(&mut v);
                rows.push(v);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn trains_and_produces_bits() {
        let (x, _) = clustered(1, 12);
        let model = train(&x, 16, &DeepBaselineConfig::test_profile(), 2);
        assert_eq!(model.name(), "GH");
        assert_eq!(model.bits(), 16);
        assert_eq!(model.encode(&x).len(), 36);
    }

    #[test]
    fn codes_stay_diverse() {
        // Reconstruction through codes rules out the collapsed solution.
        let (x, _) = clustered(2, 15);
        let cfg = DeepBaselineConfig { epochs: 20, ..DeepBaselineConfig::test_profile() };
        let model = train(&x, 16, &cfg, 3);
        let codes = model.encode(&x);
        let distinct: std::collections::HashSet<Vec<u64>> =
            (0..codes.len()).map(|i| codes.code(i).to_vec()).collect();
        assert!(distinct.len() > codes.len() / 2, "only {} distinct codes", distinct.len());
    }

    #[test]
    fn preserves_feature_similarity_ordering() {
        let (x, labels) = clustered(3, 15);
        let cfg = DeepBaselineConfig { epochs: 25, ..DeepBaselineConfig::test_profile() };
        let model = train(&x, 16, &cfg, 4);
        let codes = model.encode(&x);
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
        assert!(inter.0 / inter.1 as f64 > intra.0 / intra.1 as f64);
    }

    #[test]
    fn deterministic() {
        let (x, _) = clustered(5, 8);
        let cfg = DeepBaselineConfig::test_profile();
        let a = train(&x, 8, &cfg, 7).encode(&x);
        let b = train(&x, 8, &cfg, 7).encode(&x);
        assert_eq!(a, b);
    }
}
