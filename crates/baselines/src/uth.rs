//! UTH: Unsupervised Triplet Hashing [Huang et al., ACM MM Workshops 2017].
//!
//! Mines triplets from the feature space — the anchor's nearest neighbour
//! is the positive, a uniformly sampled far point the negative — and trains
//! the hashing network with a margin triplet loss on the relaxed codes:
//! `L = max(0, margin − ĥ(a,p) + ĥ(a,n))`.

use crate::deep::{DeepBaselineConfig, DeepHasher};
use rand::Rng;
use uhscm_linalg::{rng, Matrix};
use uhscm_nn::pairwise::{add_quantization_loss, cosine_grad, cosine_matrix};
use uhscm_nn::{Mlp, Sgd};

/// Triplet margin in cosine units.
const MARGIN: f64 = 0.4;

/// Train UTH.
///
/// # Panics
///
/// Panics if `features` has fewer than three rows (triplet mining needs an
/// anchor, a positive and a negative).
pub fn train(features: &Matrix, bits: usize, config: &DeepBaselineConfig, seed: u64) -> DeepHasher {
    let n = features.rows();
    assert!(n >= 3, "triplet mining needs at least three items");
    let mut r = rng::seeded(seed ^ 0x0717);
    let mut mlp = Mlp::hashing_network(features.cols(), &config.hidden, bits, &mut r);
    let mut sgd = Sgd::new(config.learning_rate, config.momentum, config.weight_decay);

    // Precompute each item's nearest neighbour (the positive).
    let (cos, _) = cosine_matrix(features);
    let positives: Vec<usize> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i)
                .max_by(|&a, &b| {
                    cos[(i, a)]
                        .partial_cmp(&cos[(i, b)])
                        .expect("UTH: cosine similarities must be finite")
                })
                .expect("UTH: every anchor needs at least one other item (n >= 2)")
        })
        .collect();

    for _ in 0..config.epochs {
        let order = rng::permutation(&mut r, n);
        for chunk in order.chunks(config.batch_size.max(2)) {
            if chunk.is_empty() {
                continue;
            }
            // Assemble the batch: anchors, their positives, sampled negatives.
            let mut indices = Vec::with_capacity(chunk.len() * 3);
            let mut triplets = Vec::with_capacity(chunk.len());
            for &a in chunk {
                let p = positives[a];
                let mut neg = r.gen_range(0..n);
                // Reject the anchor, its positive, and near-duplicates.
                for _ in 0..10 {
                    if neg != a && neg != p && cos[(a, neg)] < cos[(a, p)] {
                        break;
                    }
                    neg = r.gen_range(0..n);
                }
                let base = indices.len();
                indices.extend_from_slice(&[a, p, neg]);
                triplets.push((base, base + 1, base + 2));
            }
            let x = features.select_rows(&indices);
            let z = mlp.infer(&x);
            let (h, norms) = cosine_matrix(&z);
            // dL/dĥ for active triplets.
            let mut g = Matrix::zeros(indices.len(), indices.len());
            let inv_t = 1.0 / triplets.len() as f64;
            for &(a, p, ng) in &triplets {
                let violation = MARGIN - h[(a, p)] + h[(a, ng)];
                if violation > 0.0 {
                    g[(a, p)] -= inv_t;
                    g[(a, ng)] += inv_t;
                }
            }
            let mut grad = cosine_grad(&z, &h, &norms, &g);
            let _ = add_quantization_loss(&z, config.quantization, &mut grad);
            let _ = mlp.forward(&x);
            mlp.backward_params(&grad);
            sgd.step(&mut mlp);
        }
    }
    DeepHasher::new(mlp, "UTH")
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
                let mut v = rng::gauss_vec(&mut r, 10, 0.2);
                v[c * 3] += 1.0;
                vecops::normalize(&mut v);
                rows.push(v);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn trains_and_produces_codes() {
        let (x, _) = clustered(1, 10);
        let model = train(&x, 12, &DeepBaselineConfig::test_profile(), 2);
        assert_eq!(model.name(), "UTH");
        assert_eq!(model.bits(), 12);
    }

    #[test]
    fn triplet_training_separates_clusters() {
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
