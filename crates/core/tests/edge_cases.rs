//! Edge-case and failure-injection tests for the UHSCM core.

use uhscm_core::loss::{hashing_loss_and_grad, LossParams};
use uhscm_core::pipeline::{Pipeline, Regularizer, SimilaritySource};
use uhscm_core::trainer::train_hashing_network;
use uhscm_core::{Similarity, UhscmConfig};
use uhscm_data::{vocab, Dataset, DatasetConfig, DatasetKind};
use uhscm_linalg::{rng, Matrix};
use uhscm_vlp::PromptTemplate;

fn tiny() -> Dataset {
    Dataset::generate(DatasetKind::Cifar10Like, &DatasetConfig::tiny(), 42)
}

#[test]
fn batch_size_larger_than_dataset_still_trains() {
    let mut r = rng::seeded(1);
    let x = rng::gauss_matrix(&mut r, 10, 6, 1.0);
    let q = Similarity::cosine(&Matrix::identity(10));
    let cfg = UhscmConfig { bits: 4, epochs: 2, batch_size: 512, ..UhscmConfig::default() };
    let model = train_hashing_network(&x, &q, &cfg, Regularizer::Modified, 3);
    assert_eq!(model.encode(&x).len(), 10);
}

#[test]
fn lambda_one_disables_positive_pairs_gracefully() {
    // λ = 1.0 makes Ψ_i empty for every i (only q_ii = 1 and the diagonal
    // is excluded) — the contrastive term must silently vanish, not panic.
    let mut r = rng::seeded(2);
    let z = rng::gauss_matrix(&mut r, 6, 4, 0.5);
    let mut q = Matrix::identity(6);
    for i in 0..6 {
        for j in 0..6 {
            if i != j {
                q[(i, j)] = 0.5;
            }
        }
    }
    let p = LossParams { alpha: 0.3, beta: 0.001, gamma: 0.2, lambda: 1.0 };
    let (breakdown, grad) = hashing_loss_and_grad(&z, &q, &p);
    assert_eq!(breakdown.contrastive, 0.0);
    assert!(grad.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn lambda_zero_makes_every_pair_positive_gracefully() {
    // λ = 0 (with non-negative q) makes Φ_i empty — same requirement.
    let mut r = rng::seeded(3);
    let z = rng::gauss_matrix(&mut r, 6, 4, 0.5);
    let mut q = Matrix::identity(6);
    for i in 0..6 {
        for j in 0..6 {
            if i != j {
                q[(i, j)] = 0.5;
            }
        }
    }
    let p = LossParams { alpha: 0.3, beta: 0.001, gamma: 0.2, lambda: 0.0 };
    let (breakdown, _) = hashing_loss_and_grad(&z, &q, &p);
    assert_eq!(breakdown.contrastive, 0.0);
}

#[test]
fn tiny_gamma_stays_finite() {
    // γ = 0.01 drives exp(ĥ/γ) to e^100-scale; the loss must remain finite
    // for |ĥ| ≤ 1 (f64 overflows at e^709).
    let mut r = rng::seeded(4);
    let z = rng::gauss_matrix(&mut r, 8, 4, 0.5);
    let mut q = Matrix::identity(8);
    for i in 0..8 {
        for j in 0..8 {
            if i != j {
                q[(i, j)] = if (i + j) % 2 == 0 { 0.9 } else { 0.1 };
            }
        }
    }
    let p = LossParams { alpha: 0.3, beta: 0.001, gamma: 0.01, lambda: 0.5 };
    let (breakdown, grad) = hashing_loss_and_grad(&z, &q, &p);
    assert!(breakdown.total.is_finite());
    assert!(grad.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn zero_vector_codes_do_not_poison_gradients() {
    // A dead network output (all zeros) must not produce NaNs through the
    // cosine normalization.
    let z = Matrix::zeros(4, 3);
    let q = Matrix::identity(4);
    let p = LossParams { alpha: 0.2, beta: 0.001, gamma: 0.2, lambda: 0.5 };
    let (breakdown, grad) = hashing_loss_and_grad(&z, &q, &p);
    assert!(breakdown.total.is_finite());
    assert!(grad.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn single_concept_vocabulary_works() {
    let ds = tiny();
    let pipeline = Pipeline::new(&ds, 7);
    let source = SimilaritySource::ConceptsRaw {
        vocab: vec!["cat".to_string()],
        template: PromptTemplate::PhotoOfThe,
    };
    let outcome = pipeline.build_similarity(&source, 3.0);
    // One concept ⇒ all distributions identical ⇒ all-ones similarity.
    assert!(outcome.q.to_dense().as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-9));
}

#[test]
fn duplicate_concepts_in_vocabulary_are_harmless() {
    let ds = tiny();
    let pipeline = Pipeline::new(&ds, 7);
    let mut vocab = vocab::nus_wide_81();
    vocab.push("cat".to_string()); // duplicate of an existing entry
    let source = SimilaritySource::ConceptsDenoised { vocab, template: PromptTemplate::PhotoOfThe };
    let outcome = pipeline.build_similarity(&source, 3.0);
    assert!(outcome.q.to_dense().as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn invalid_config_is_rejected_before_training() {
    let mut r = rng::seeded(5);
    let x = rng::gauss_matrix(&mut r, 6, 4, 1.0);
    let q = Similarity::cosine(&Matrix::identity(6));
    let cfg = UhscmConfig { gamma: -1.0, ..UhscmConfig::test_profile() };
    let result =
        std::panic::catch_unwind(|| train_hashing_network(&x, &q, &cfg, Regularizer::Modified, 1));
    assert!(result.is_err(), "negative gamma must be rejected");
}
