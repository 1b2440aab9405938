//! BGAN: Binary Generative Adversarial Networks for image retrieval
//! [Song et al., AAAI 2018], simplified.
//!
//! BGAN couples a binary encoder with a generator/discriminator pair; the
//! retrieval-relevant learning signals are (1) a neighborhood-structure
//! loss tying code similarity to feature similarity and (2) a
//! reconstruction loss through a decoder that forces the codes to retain
//! image content. This reproduction keeps both of those and drops the
//! adversarial discriminator (its role — sharpening reconstructions — does
//! not affect Hamming-space structure at this scale; DESIGN.md documents
//! the substitution).

use crate::deep::{DeepBaselineConfig, DeepHasher};
use uhscm_linalg::{rng, Matrix};
use uhscm_nn::pairwise::{add_quantization_loss, cosine_matrix, masked_l2_loss_and_grad};
use uhscm_nn::{Activation, Mlp, Sgd};

/// Weight of the reconstruction loss relative to the neighborhood loss.
const RECON_WEIGHT: f64 = 0.5;

/// Train the simplified BGAN (encoder + decoder, neighborhood + recon +
/// quantization losses).
///
/// # Panics
///
/// Panics if `features` has fewer than two rows.
pub fn train(features: &Matrix, bits: usize, config: &DeepBaselineConfig, seed: u64) -> DeepHasher {
    let n = features.rows();
    let d = features.cols();
    assert!(n >= 2, "need at least two items");
    let mut r = rng::seeded(seed ^ 0xb6a0);
    let mut encoder = Mlp::hashing_network(d, &config.hidden, bits, &mut r);
    let mut decoder = Mlp::new(
        &[bits, config.hidden.first().copied().unwrap_or(bits), d],
        &[Activation::Relu, Activation::Identity],
        &mut r,
    );
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
            let (target, _) = cosine_matrix(&x);

            let z = encoder.infer(&x);
            // Neighborhood loss on the relaxed codes.
            let ones = Matrix::full(t, t, 1.0);
            let (_, mut grad_z) = masked_l2_loss_and_grad(&z, &target, &ones);
            let _ = add_quantization_loss(&z, config.quantization, &mut grad_z);

            // Reconstruction: decoder(z) ≈ x, MSE. Backprop through the
            // decoder yields the reconstruction gradient at z.
            let recon = decoder.forward(&z);
            let mut grad_recon = recon.sub(&x);
            grad_recon.scale(2.0 * RECON_WEIGHT / (t * d) as f64);
            let grad_z_from_decoder = decoder.backward(&grad_recon);
            dec_opt.step(&mut decoder);
            grad_z.axpy(1.0, &grad_z_from_decoder);

            let _ = encoder.forward(&x);
            encoder.backward_params(&grad_z);
            enc_opt.step(&mut encoder);
        }
    }
    DeepHasher::new(encoder, "BGAN")
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
        let (x, _) = clustered(1, 10);
        let model = train(&x, 12, &DeepBaselineConfig::test_profile(), 2);
        assert_eq!(model.name(), "BGAN");
        assert_eq!(model.bits(), 12);
        assert_eq!(model.encode(&x).len(), 30);
    }

    #[test]
    fn codes_follow_cluster_structure() {
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
        let a = train(&x, 8, &cfg, 9).encode(&x);
        let b = train(&x, 8, &cfg, 9).encode(&x);
        assert_eq!(a, b);
    }
}
