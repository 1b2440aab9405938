//! CSQ: Central Similarity Quantization [Yuan et al., CVPR 2020] — the
//! *supervised* reference method the paper describes in §2.2.
//!
//! CSQ assigns each label a fixed hash center drawn from a Hadamard matrix
//! (pairwise Hamming distance exactly k/2) and trains the network to pull
//! every image's code toward the centroid of its labels' centers, plus a
//! quantization term. It is not part of the unsupervised comparison — the
//! paper cites it as the supervised state of the art — but it makes a
//! useful *skyline* in this reproduction: the MAP an identical backbone
//! reaches when ground-truth labels are available bounds what any
//! unsupervised method (UHSCM included) can hope for.

use crate::deep::{DeepBaselineConfig, DeepHasher};
use uhscm_linalg::hadamard::hadamard_centers;
use uhscm_linalg::{rng, Matrix};
use uhscm_nn::pairwise::add_quantization_loss;
use uhscm_nn::{Mlp, Sgd};

/// Train CSQ with ground-truth label sets (`labels[i]` = class indices of
/// item `i`, as produced by `uhscm_data::Dataset`).
///
/// # Panics
/// Panics if `bits` is not a power of two (Hadamard construction), the
/// class count exceeds `2·bits`, or shapes disagree.
pub fn train(
    features: &Matrix,
    labels: &[Vec<usize>],
    n_classes: usize,
    bits: usize,
    config: &DeepBaselineConfig,
    seed: u64,
) -> DeepHasher {
    let n = features.rows();
    assert_eq!(labels.len(), n, "one label set per item");
    assert!(n >= 2, "need at least two items");
    let centers = hadamard_centers(n_classes, bits);

    // Per-item target: sign of the centroid of its labels' centers (CSQ's
    // multi-label center aggregation).
    let mut targets = Matrix::zeros(n, bits);
    for (i, item_labels) in labels.iter().enumerate() {
        assert!(!item_labels.is_empty(), "item {i} has no labels");
        let row = targets.row_mut(i);
        for &c in item_labels {
            for (t, &v) in row.iter_mut().zip(centers.row(c)) {
                *t += v;
            }
        }
        for t in row.iter_mut() {
            *t = if *t > 0.0 { 1.0 } else { -1.0 };
        }
    }

    let mut r = rng::seeded(seed ^ 0xc59);
    let mut mlp = Mlp::hashing_network(features.cols(), &config.hidden, bits, &mut r);
    let mut sgd = Sgd::new(config.learning_rate, config.momentum, config.weight_decay);
    for _ in 0..config.epochs {
        let order = rng::permutation(&mut r, n);
        for chunk in order.chunks(config.batch_size) {
            if chunk.is_empty() {
                continue;
            }
            let x = features.select_rows(chunk);
            let t_batch = targets.select_rows(chunk);
            let z = mlp.infer(&x);
            // Central similarity loss: a per-item pull of the relaxed code
            // toward its label center (CSQ's BCE with tanh outputs reduces
            // to this ℓ2 form up to curvature).
            let mut grad = z.sub(&t_batch);
            grad.scale(2.0 / chunk.len() as f64);
            let _ = add_quantization_loss(&z, config.quantization, &mut grad);
            let _ = mlp.forward(&x);
            mlp.backward_params(&grad);
            sgd.step(&mut mlp);
        }
    }
    DeepHasher::new(mlp, "CSQ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnsupervisedHasher;

    use uhscm_linalg::vecops;

    fn labeled_data(seed: u64, per: usize) -> (Matrix, Vec<Vec<usize>>) {
        let mut r = rng::seeded(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..4 {
            for _ in 0..per {
                let mut v = rng::gauss_vec(&mut r, 12, 0.3);
                v[c * 3] += 1.0;
                vecops::normalize(&mut v);
                rows.push(v);
                labels.push(vec![c]);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn codes_converge_to_label_centers() {
        let (x, labels) = labeled_data(1, 15);
        let cfg = DeepBaselineConfig { epochs: 30, ..DeepBaselineConfig::test_profile() };
        let model = train(&x, &labels, 4, 16, &cfg, 2);
        let codes = model.encode(&x);
        // Same-label codes nearly identical, different-label near k/2.
        let d_same = codes.hamming(0, &codes, 1);
        let d_diff = codes.hamming(0, &codes, 50);
        assert!(d_same <= 2, "same-class distance {d_same}");
        assert!(d_diff >= 5, "cross-class distance {d_diff}");
    }

    #[test]
    fn supervised_training_saturates_center_separation() {
        // With ground-truth labels the codes should approach the ideal
        // Hadamard-center geometry: intra ≈ 0, inter ≈ k/2 ⇒ margin ≈ 8.
        let (x, labels) = labeled_data(3, 15);
        let cfg = DeepBaselineConfig { epochs: 25, ..DeepBaselineConfig::test_profile() };
        let csq = train(&x, &labels, 4, 16, &cfg, 4);
        let codes = csq.encode(&x);
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
        let margin = inter.0 / inter.1 as f64 - intra.0 / intra.1 as f64;
        assert!(margin >= 6.0, "margin {margin} far from the ideal 8");
    }

    #[test]
    fn multilabel_targets_aggregate_centers() {
        let (x, mut labels) = labeled_data(5, 8);
        // Make some items multi-label.
        labels[0] = vec![0, 1];
        labels[1] = vec![2, 3];
        let cfg = DeepBaselineConfig { epochs: 5, ..DeepBaselineConfig::test_profile() };
        let model = train(&x, &labels, 4, 16, &cfg, 6);
        assert_eq!(model.name(), "CSQ");
        assert_eq!(model.bits(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_bits_rejected() {
        let (x, labels) = labeled_data(7, 4);
        let _ = train(&x, &labels, 4, 12, &DeepBaselineConfig::test_profile(), 1);
    }
}
