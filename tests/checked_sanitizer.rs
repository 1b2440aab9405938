//! The numeric sanitizer must trap injected NaN/Inf and name the
//! offending operation and operand shape.
//!
//! The assertions only exist under the `checked` feature, so this file has
//! two personalities:
//!
//! * with `--features checked`, the `#[should_panic]` tests below inject
//!   corrupted values into the training stack and require the sanitizer
//!   diagnostic;
//! * without the feature (the tier-1 `cargo test` run), a single driver
//!   test re-invokes this same test file under `--features checked`, so
//!   the sanitizer is exercised on every tier-1 run.

#[cfg(feature = "checked")]
mod injected {
    use uhscm_core::loss::{hashing_loss_and_grad, LossParams};
    use uhscm_core::{train_hashing_network, Regularizer, Similarity, UhscmConfig};
    use uhscm_linalg::{rng, Matrix};
    use uhscm_nn::{Activation, Mlp, Sgd};

    fn params() -> LossParams {
        LossParams { alpha: 0.2, beta: 0.001, gamma: 0.2, lambda: 0.6 }
    }

    /// NaN in the input features must be trapped at the first layer's
    /// forward pass, naming the op and the output shape.
    #[test]
    #[should_panic(expected = "checked[Linear::forward]: non-finite value NaN in pre-activation")]
    fn nan_feature_trips_forward_pass() {
        let mut r = rng::seeded(11);
        let mut x = rng::gauss_matrix(&mut r, 12, 6, 1.0);
        x[(3, 2)] = f64::NAN;
        let q = Similarity::cosine(&Matrix::identity(12));
        let cfg = UhscmConfig { bits: 8, epochs: 1, batch_size: 12, ..UhscmConfig::default() };
        let _ = train_hashing_network(&x, &q, &cfg, Regularizer::Modified, 1);
    }

    /// NaN in the relaxed codes must be pinned to the similarity term of
    /// Eq. 11 before it can contaminate the gradient step.
    #[test]
    #[should_panic(
        expected = "checked[hashing_loss]: non-finite value NaN in similarity term (Eq. 7)"
    )]
    fn nan_codes_trip_loss_terms() {
        let mut r = rng::seeded(12);
        let mut z = rng::gauss_matrix(&mut r, 6, 4, 0.5);
        z[(0, 0)] = f64::NAN;
        let q = Matrix::identity(6);
        let _ = hashing_loss_and_grad(&z, &q, &params());
    }

    /// A parameter corrupted to Inf must be caught by the optimizer audit,
    /// naming the layer.
    #[test]
    #[should_panic(expected = "checked[Sgd::step (layer 0)]")]
    fn inf_weight_trips_optimizer_step() {
        let mut r = rng::seeded(13);
        let mut mlp = Mlp::new(&[3, 2], &[Activation::Identity], &mut r);
        mlp.layers_mut()[0].weight[(0, 0)] = f64::INFINITY;
        let mut sgd = Sgd::paper_defaults();
        sgd.step(&mut mlp);
    }

    /// Clean inputs must pass through the whole checked stack untouched.
    #[test]
    fn clean_training_passes_all_tripwires() {
        let mut r = rng::seeded(14);
        let x = rng::gauss_matrix(&mut r, 16, 6, 1.0);
        let q = Similarity::cosine(&Matrix::identity(16));
        let cfg = UhscmConfig { bits: 8, epochs: 2, batch_size: 8, ..UhscmConfig::default() };
        let model = train_hashing_network(&x, &q, &cfg, Regularizer::Modified, 2);
        assert_eq!(model.bits(), 8);
    }
}

#[cfg(not(feature = "checked"))]
mod driver {
    use std::process::Command;

    /// Re-run this test file with the sanitizer compiled in. Keeps the
    /// injected-NaN coverage on the tier-1 path without paying the checked
    /// overhead in every other test binary.
    #[test]
    fn sanitizer_suite_passes_under_checked_feature() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let out = Command::new(cargo)
            .args(["test", "--quiet", "--features", "checked", "--test", "checked_sanitizer"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("failed to spawn nested `cargo test --features checked`");
        assert!(
            out.status.success(),
            "checked sanitizer suite failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
