//! CIB: Unsupervised Hashing with Contrastive Information Bottleneck
//! [Qiu et al., IJCAI 2021].
//!
//! CIB trains the hashing network with a contrastive loss over two
//! augmented views of each image — the positives are the two views of the
//! *same* image, never cross-image pairs (the weakness UHSCM's modified
//! loss addresses). The published method adds a variational information-
//! bottleneck term; this reproduction keeps the parts the UHSCM comparison
//! exercises — the two-view contrastive objective plus quantization — and
//! realizes image augmentation as feature-space Gaussian jitter (DESIGN.md
//! documents the substitution).

use crate::deep::{DeepBaselineConfig, DeepHasher};
use rand::Rng;
use uhscm_linalg::{rng, Matrix};
use uhscm_nn::pairwise::{add_quantization_loss, two_view_contrastive_loss_and_grad};
use uhscm_nn::{Mlp, Sgd};

/// Contrastive temperature (CIB's default range).
const GAMMA: f64 = 0.3;
/// Augmentation noise norm relative to unit features.
const AUG_NOISE: f64 = 0.1;

/// Train CIB.
///
/// # Panics
///
/// Panics if `features` has fewer than two rows.
pub fn train(features: &Matrix, bits: usize, config: &DeepBaselineConfig, seed: u64) -> DeepHasher {
    let n = features.rows();
    assert!(n >= 2, "need at least two items");
    let mut r = rng::seeded(seed ^ 0xc1b0);
    let mut mlp = Mlp::hashing_network(features.cols(), &config.hidden, bits, &mut r);
    let mut sgd = Sgd::new(config.learning_rate, config.momentum, config.weight_decay);

    for _ in 0..config.epochs {
        let order = rng::permutation(&mut r, n);
        for chunk in order.chunks(config.batch_size) {
            if chunk.len() < 2 {
                continue;
            }
            let x = features.select_rows(chunk);
            let x1 = augment(&x, &mut r);
            let x2 = augment(&x, &mut r);
            let z1 = mlp.infer(&x1);
            let z2 = mlp.infer(&x2);
            let (_, mut g1, g2) = two_view_contrastive_loss_and_grad(&z1, &z2, GAMMA);
            let _ = add_quantization_loss(&z1, config.quantization, &mut g1);
            // Backprop each view through the shared network.
            let _ = mlp.forward(&x2);
            mlp.backward_params(&g2);
            let _ = mlp.forward(&x1);
            mlp.backward_params(&g1);
            sgd.step(&mut mlp);
        }
    }
    DeepHasher::new(mlp, "CIB")
}

/// Feature-space augmentation: Gaussian jitter of norm ≈ `AUG_NOISE`.
fn augment(x: &Matrix, r: &mut impl Rng) -> Matrix {
    let sigma = AUG_NOISE / (x.cols() as f64).sqrt();
    let mut out = x.clone();
    for v in out.as_mut_slice() {
        *v += sigma * rng::gauss(r);
    }
    out
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
        for c in 0..2 {
            for _ in 0..per {
                let mut v = rng::gauss_vec(&mut r, 10, 0.2);
                v[c * 4] += 1.0;
                vecops::normalize(&mut v);
                rows.push(v);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn trains_and_produces_codes() {
        let (x, _) = clustered(1, 12);
        let model = train(&x, 16, &DeepBaselineConfig::test_profile(), 2);
        assert_eq!(model.name(), "CIB");
        assert_eq!(model.bits(), 16);
    }

    #[test]
    fn instance_discrimination_keeps_clusters_apart() {
        // Contrastive instance discrimination on clustered features still
        // groups the clusters (views of same instance stay close, and
        // features drive the representation).
        let (x, labels) = clustered(3, 15);
        let cfg = DeepBaselineConfig { epochs: 30, ..DeepBaselineConfig::test_profile() };
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
        let a = train(&x, 8, &cfg, 9).encode(&x);
        let b = train(&x, 8, &cfg, 9).encode(&x);
        assert_eq!(a, b);
    }
}
