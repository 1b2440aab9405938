//! Property-based tests for the neural-network runtime.

use proptest::prelude::*;
use uhscm_linalg::rng;
use uhscm_nn::pairwise::{cosine_grad, cosine_matrix, two_view_contrastive_loss_and_grad};
use uhscm_nn::{Activation, Mlp, Sgd};

fn arch() -> impl Strategy<Value = (usize, Vec<usize>, usize)> {
    (1usize..8, prop::collection::vec(1usize..8, 0..3), 1usize..8)
}

proptest! {
    #[test]
    fn forward_backward_shapes((input, hidden, out) in arch(), n in 1usize..6, seed in any::<u64>()) {
        let mut r = rng::seeded(seed);
        let mut mlp = Mlp::hashing_network(input, &hidden, out, &mut r);
        let x = rng::gauss_matrix(&mut r, n, input, 1.0);
        let y = mlp.forward(&x);
        prop_assert_eq!(y.shape(), (n, out));
        let gx = mlp.backward(&y);
        prop_assert_eq!(gx.shape(), (n, input));
        prop_assert_eq!(mlp.flat_grads().len(), mlp.param_count());
    }

    #[test]
    fn persistence_round_trip((input, hidden, out) in arch(), seed in any::<u64>()) {
        let mut r = rng::seeded(seed);
        let mlp = Mlp::hashing_network(input, &hidden, out, &mut r);
        let mut blob = Vec::new();
        mlp.save(&mut blob).unwrap();
        let loaded = Mlp::load(&mut blob.as_slice()).unwrap();
        prop_assert_eq!(mlp.flat_params(), loaded.flat_params());
        let x = rng::gauss_matrix(&mut r, 3, input, 1.0);
        let original = mlp.infer(&x);
        let reloaded = loaded.infer(&x);
        prop_assert_eq!(original.as_slice(), reloaded.as_slice());
    }

    #[test]
    fn tanh_outputs_bounded((input, hidden, out) in arch(), seed in any::<u64>()) {
        let mut r = rng::seeded(seed);
        let mlp = Mlp::hashing_network(input, &hidden, out, &mut r);
        let x = rng::gauss_matrix(&mut r, 4, input, 10.0);
        let y = mlp.infer(&x);
        prop_assert!(y.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn sgd_step_is_noop_with_zero_grads(seed in any::<u64>()) {
        let mut r = rng::seeded(seed);
        let mut mlp = Mlp::hashing_network(4, &[3], 2, &mut r);
        let mut sgd = Sgd::new(0.1, 0.9, 0.0);
        let before = mlp.flat_params();
        mlp.zero_grad();
        sgd.step(&mut mlp);
        prop_assert_eq!(mlp.flat_params(), before);
    }

    #[test]
    fn cosine_grad_orthogonal_to_scaling(seed in any::<u64>(), t in 2usize..8, k in 2usize..6) {
        // ĥ is scale-invariant in each z_i, so dL/dz_i ⊥ z_i for any
        // upstream gradient.
        let mut r = rng::seeded(seed);
        let z = rng::gauss_matrix(&mut r, t, k, 1.0);
        let g = rng::gauss_matrix(&mut r, t, t, 1.0);
        let (h, norms) = cosine_matrix(&z);
        let grad = cosine_grad(&z, &h, &norms, &g);
        for i in 0..t {
            let dot: f64 = grad.row(i).iter().zip(z.row(i)).map(|(a, b)| a * b).sum();
            let scale = uhscm_linalg::vecops::norm(grad.row(i)) * norms[i];
            prop_assert!(dot.abs() <= 1e-8 * scale.max(1.0), "row {i}: dot {dot}");
        }
    }

    #[test]
    fn contrastive_loss_nonnegative_and_finite(seed in any::<u64>(), t in 2usize..8, k in 2usize..6) {
        let mut r = rng::seeded(seed);
        let z1 = rng::gauss_matrix(&mut r, t, k, 0.8);
        let z2 = rng::gauss_matrix(&mut r, t, k, 0.8);
        let (loss, g1, g2) = two_view_contrastive_loss_and_grad(&z1, &z2, 0.3);
        prop_assert!(loss.is_finite());
        prop_assert!(loss >= -1e-12, "negative −log loss {loss}");
        prop_assert!(g1.as_slice().iter().all(|v| v.is_finite()));
        prop_assert!(g2.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn activations_monotone_nondecreasing(a in -5.0..5.0f64, b in -5.0..5.0f64) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for act in [Activation::Identity, Activation::Tanh, Activation::Relu, Activation::Sigmoid] {
            prop_assert!(act.apply(lo) <= act.apply(hi) + 1e-12, "{act:?}");
        }
    }
}

proptest! {
    #[test]
    fn batched_backward_parallel_matches_serial_bitwise(
        (input, hidden, out) in arch(),
        n in 1usize..7,
        seed in any::<u64>(),
    ) {
        use uhscm_linalg::par;
        let mut r = rng::seeded(seed);
        let mlp = Mlp::hashing_network(input, &hidden, out, &mut r);
        let x = rng::gauss_matrix(&mut r, n, input, 1.0);
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let mut net = mlp.clone();
                let y = net.forward(&x);
                let gx = net.backward(&y);
                (y, gx, net.flat_grads())
            })
        };
        let (y1, gx1, g1) = run(1);
        for threads in [2usize, 3, 8] {
            let (yt, gxt, gt) = run(threads);
            prop_assert_eq!(y1.as_slice(), yt.as_slice());
            prop_assert_eq!(gx1.as_slice(), gxt.as_slice());
            prop_assert_eq!(&g1, &gt);
        }
    }

    #[test]
    fn parameter_only_backward_matches_backward_bitwise(
        (input, hidden, out) in arch(),
        n in 1usize..7,
        seed in any::<u64>(),
    ) {
        use uhscm_linalg::par;
        let mut r = rng::seeded(seed);
        let mlp = Mlp::hashing_network(input, &hidden, out, &mut r);
        let x = rng::gauss_matrix(&mut r, n, input, 1.0);
        let dy = rng::gauss_matrix(&mut r, n, out, 1.0);
        let bits = |g: Vec<f64>| g.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for threads in [1usize, 2, 3] {
            let (full, params_only) = par::with_threads(threads, || {
                let mut a = mlp.clone();
                let _ = a.forward(&x);
                let _ = a.backward(&dy);
                let mut b = mlp.clone();
                let _ = b.forward(&x);
                b.backward_params(&dy);
                (a.flat_grads(), b.flat_grads())
            });
            prop_assert_eq!(bits(full), bits(params_only), "{} threads", threads);
        }
    }
}
