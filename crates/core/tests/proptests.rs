//! Property-based tests for the UHSCM core algorithms.

use proptest::prelude::*;
use uhscm_core::loss::{hashing_loss_and_grad, LossParams};
use uhscm_core::similarity::{cosine_gram, Similarity};
use uhscm_core::{concept_distributions, concept_frequencies, denoise_concepts, discard};
use uhscm_linalg::{rng, vecops, Matrix};

/// `m[idx, idx]` as raw bits, row by row.
fn sub_block_bits(m: &Matrix, idx: &[usize]) -> Vec<u64> {
    idx.iter().flat_map(|&i| idx.iter().map(move |&j| m[(i, j)].to_bits())).collect()
}

/// Random score matrices in the simulated CLIP range.
fn score_matrix() -> impl Strategy<Value = Matrix> {
    (2usize..30, 2usize..12).prop_flat_map(|(n, m)| {
        prop::collection::vec(0.0..0.5f64, n * m).prop_map(move |data| Matrix::from_vec(n, m, data))
    })
}

proptest! {
    #[test]
    fn distributions_are_rowwise_simplex(scores in score_matrix(), tau in 0.5..5.0f64) {
        let d = concept_distributions(&scores, tau);
        prop_assert_eq!(d.shape(), scores.shape());
        for i in 0..d.rows() {
            let row = d.row(i);
            prop_assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
            // Argmax of the distribution equals argmax of the scores.
            prop_assert_eq!(vecops::argmax(row), vecops::argmax(scores.row(i)));
        }
    }

    #[test]
    fn frequencies_sum_to_n(scores in score_matrix()) {
        let d = concept_distributions(&scores, 3.0);
        let freq = concept_frequencies(&d);
        prop_assert_eq!(freq.iter().sum::<usize>(), d.rows());
    }

    #[test]
    fn denoise_never_empty_and_respects_eq5(scores in score_matrix()) {
        let d = concept_distributions(&scores, 3.0);
        let kept = denoise_concepts(&d);
        prop_assert!(!kept.is_empty());
        prop_assert!(kept.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(kept.iter().all(|&j| j < d.cols()));
        // When more than one concept is kept, each satisfies Eq. 5.
        let freq = concept_frequencies(&d);
        if kept.len() > 1 {
            for &j in &kept {
                prop_assert!(!discard(freq[j], d.rows(), d.cols()));
            }
        }
    }

    /// Eq. 5 keeps exactly the integer band `⌈0.5·n/m⌉ ≤ f ≤ ⌊0.5·n⌋`.
    #[test]
    fn discard_keeps_exactly_the_integer_band(n in 1usize..200, m in 1usize..40) {
        let lower = (n + 2 * m - 1) / (2 * m); // ⌈n / (2m)⌉
        let upper = n / 2; // ⌊n / 2⌋
        for f in 0..=n {
            let kept = !discard(f, n, m);
            prop_assert_eq!(
                kept,
                (lower..=upper).contains(&f),
                "f={} n={} m={} band=[{}, {}]",
                f, n, m, lower, upper
            );
        }
    }

    /// When every image claims the same concept, Eq. 5 discards the whole
    /// vocabulary (f = n > n/2 for the claimed one, f = 0 < n/(2m) for the
    /// rest) and the fallback must keep exactly one valid concept.
    #[test]
    fn denoise_fallback_keeps_exactly_one(n in 1usize..40, m in 2usize..10, j in 0usize..10) {
        let j = j % m;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let mut row = vec![0.05 / m as f64; m];
                row[j] = 0.9;
                row
            })
            .collect();
        let d = Matrix::from_rows(&rows);
        let freq = concept_frequencies(&d);
        prop_assert!((0..m).all(|c| discard(freq[c], n, m)));
        let kept = denoise_concepts(&d);
        prop_assert_eq!(kept.len(), 1);
        prop_assert!(kept[0] < m);
    }

    #[test]
    fn similarity_matrix_is_valid_gram(scores in score_matrix()) {
        let d = concept_distributions(&scores, 3.0);
        let q = Similarity::cosine(&d).to_dense();
        let n = d.rows();
        prop_assert_eq!(q.shape(), (n, n));
        for i in 0..n {
            prop_assert!((q[(i, i)] - 1.0).abs() < 1e-9);
            for j in 0..n {
                prop_assert!((q[(i, j)] - q[(j, i)]).abs() < 1e-9);
                // Distributions are non-negative ⇒ cosines in [0, 1].
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&q[(i, j)]));
            }
        }
    }

    #[test]
    fn loss_gradient_is_descent_direction(
        seed in any::<u64>(),
        t in 4usize..12,
        k in 2usize..8,
        alpha in 0.0..0.5f64,
        beta in 0.0..0.1f64,
    ) {
        let mut r = rng::seeded(seed);
        let z = rng::gauss_matrix(&mut r, t, k, 0.5);
        let mut q = Matrix::identity(t);
        for i in 0..t {
            for j in (i + 1)..t {
                let v = if (i + j) % 3 == 0 { 0.9 } else { 0.1 };
                q[(i, j)] = v;
                q[(j, i)] = v;
            }
        }
        let p = LossParams { alpha, beta, gamma: 0.3, lambda: 0.5 };
        let (l0, grad) = hashing_loss_and_grad(&z, &q, &p);
        prop_assert!(l0.total.is_finite());
        prop_assert!(grad.as_slice().iter().all(|v| v.is_finite()));
        // A small step along −grad must not increase the loss.
        if grad.max_abs() > 1e-9 {
            let mut z2 = z.clone();
            z2.axpy(-1e-4 / grad.max_abs(), &grad);
            let (l1, _) = hashing_loss_and_grad(&z2, &q, &p);
            prop_assert!(l1.total <= l0.total + 1e-9, "{} -> {}", l0.total, l1.total);
        }
    }

    #[test]
    fn loss_breakdown_components_nonnegative(
        seed in any::<u64>(),
        t in 3usize..10,
    ) {
        let mut r = rng::seeded(seed);
        let z = rng::gauss_matrix(&mut r, t, 4, 0.7);
        let q = Matrix::identity(t);
        let p = LossParams { alpha: 0.2, beta: 0.01, gamma: 0.2, lambda: 0.5 };
        let (b, _) = hashing_loss_and_grad(&z, &q, &p);
        prop_assert!(b.similarity >= 0.0);
        prop_assert!(b.quantization >= 0.0);
        // The −log contrastive term is non-negative (probability ≤ 1).
        prop_assert!(b.contrastive >= -1e-12);
        prop_assert!((b.total - b.similarity - b.quantization - b.contrastive).abs() < 1e-9);
    }
}

proptest! {
    #[test]
    fn cosine_gram_parallel_matches_serial_bitwise(scores in score_matrix()) {
        use uhscm_linalg::par;
        let serial = par::with_threads(1, || cosine_gram(&scores));
        for threads in [2usize, 3, 8] {
            let parallel = par::with_threads(threads, || cosine_gram(&scores));
            prop_assert_eq!(serial.as_slice(), parallel.as_slice());
        }
    }

    #[test]
    fn similarity_parallel_matches_serial_bitwise(scores in score_matrix(), tau in 0.5..5.0f64) {
        use uhscm_linalg::par;
        let d = concept_distributions(&scores, tau);
        let serial = par::with_threads(1, || Similarity::cosine(&d).to_dense());
        for threads in [2usize, 3, 8] {
            let parallel = par::with_threads(threads, || Similarity::cosine(&d).to_dense());
            prop_assert_eq!(serial.as_slice(), parallel.as_slice());
        }
    }

    /// A block of the factored operator has the bits of the same sub-block
    /// of the dense reference, for random index lists with repeats, over
    /// non-negative distributions and over feature rows with negative
    /// entries.
    #[test]
    fn block_matches_dense_cosine_gram_bitwise(
        scores in score_matrix(),
        tau in 0.5..5.0f64,
        picks in prop::collection::vec(any::<usize>(), 0..40),
    ) {
        let idx: Vec<usize> = picks.iter().map(|p| p % scores.rows()).collect();
        let distributions = concept_distributions(&scores, tau);
        let features = scores.map(|v| v - 0.25);
        for x in [&distributions, &features] {
            let block = Similarity::cosine(x).block(&idx);
            prop_assert_eq!(block.shape(), (idx.len(), idx.len()));
            let got: Vec<u64> = block.as_slice().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, sub_block_bits(&cosine_gram(x), &idx));
        }
    }

    /// The mean of 2-3 operators has the bits of the dense element-wise mean
    /// `(q_0 + q_1 + …) × 1/k`, diagonal included.
    #[test]
    fn averaged_block_matches_dense_mean_bitwise(
        scores in score_matrix(),
        k in 2usize..4,
        picks in prop::collection::vec(any::<usize>(), 0..40),
    ) {
        let idx: Vec<usize> = picks.iter().map(|p| p % scores.rows()).collect();
        let parts = [
            concept_distributions(&scores, 1.0),
            scores.map(|v| v - 0.25),
            concept_distributions(&scores, 3.0),
        ];
        let parts = &parts[..k];
        let mut dense = cosine_gram(&parts[0]);
        for x in &parts[1..] {
            dense.axpy(1.0, &cosine_gram(x));
        }
        dense.scale(1.0 / k as f64);
        let mean = Similarity::mean(parts.iter().map(Similarity::cosine).collect());
        let got: Vec<u64> = mean.block(&idx).as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, sub_block_bits(&dense, &idx));
    }
}
