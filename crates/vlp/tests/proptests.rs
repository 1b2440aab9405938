//! Property-based tests for the simulated VLP model.

use proptest::prelude::*;
use uhscm_linalg::{par, rng, vecops, Matrix};
use uhscm_vlp::{PromptTemplate, SimClip, VggFeatures};

fn any_template() -> impl Strategy<Value = PromptTemplate> {
    prop::sample::select(PromptTemplate::ALL.to_vec())
}

fn unit_latents(n: usize, dim: usize, seed: u64) -> Matrix {
    let mut r = rng::seeded(seed);
    let mut m = rng::gauss_matrix(&mut r, n, dim, 1.0);
    for i in 0..n {
        vecops::normalize(m.row_mut(i));
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn image_embeddings_unit_norm(seed in any::<u64>(), n in 1usize..10, dim in 4usize..32) {
        let clip = SimClip::with_defaults(dim, seed);
        let latents = unit_latents(n, dim, seed ^ 1);
        let emb = clip.embed_images(&latents);
        prop_assert_eq!(emb.shape(), (n, clip.embed_dim()));
        for row in emb.iter_rows() {
            prop_assert!((vecops::norm(row) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn text_embeddings_unit_norm(name in "[a-z]{1,10}", tpl in any_template(), seed in any::<u64>()) {
        let clip = SimClip::with_defaults(16, seed);
        let emb = clip.embed_text(&name, tpl);
        prop_assert!((vecops::norm(&emb) - 1.0).abs() < 1e-9);
        // Deterministic.
        prop_assert_eq!(clip.embed_text(&name, tpl), emb);
    }

    #[test]
    fn scores_are_bounded_affine_cosines(seed in any::<u64>(), tpl in any_template()) {
        let clip = SimClip::with_defaults(16, seed);
        let latents = unit_latents(4, 16, seed ^ 2);
        let concepts: Vec<String> = ["cat", "dog", "sky"].iter().map(|s| s.to_string()).collect();
        let scores = clip.score_matrix(&latents, &concepts, tpl);
        prop_assert_eq!(scores.shape(), (4, 3));
        // s = 0.2 + 0.12·cos with cos ∈ [−1, 1].
        prop_assert!(scores.as_slice().iter().all(|&s| (0.079..=0.321).contains(&s)));
    }

    #[test]
    fn clip_kernels_parallel_match_serial_bitwise(
        seed in any::<u64>(),
        n in 1usize..12,
        dim in 3usize..20,
        m in 1usize..7,
        tpl in any_template(),
    ) {
        // Ragged sizes: 2 and 3 threads split the n image rows unevenly.
        let clip = SimClip::with_defaults(dim, seed);
        let latents = unit_latents(n, dim, seed ^ 5);
        let concepts: Vec<String> =
            ["cat", "dog", "sky", "sea", "car", "tree"][..m].iter().map(|s| s.to_string()).collect();
        let text_rows: Vec<Vec<f64>> = concepts.iter().map(|c| clip.embed_text(c, tpl)).collect();
        let text = Matrix::from_rows(&text_rows);
        let run = || -> Vec<u64> {
            let emb = clip.embed_images(&latents);
            let scores = clip.score_matrix(&latents, &concepts, tpl);
            let against = clip.score_images_against(&latents, &text);
            [emb, scores, against].iter().flat_map(|x| x.as_slice()).map(|v| v.to_bits()).collect()
        };
        let serial = par::with_threads(1, run);
        for threads in [2usize, 3] {
            prop_assert_eq!(&serial, &par::with_threads(threads, run));
        }
    }

    #[test]
    fn feature_extraction_deterministic_and_unit(seed in any::<u64>(), n in 1usize..8) {
        let vgg = VggFeatures::with_defaults(16, seed);
        let latents = unit_latents(n, 16, seed ^ 3);
        let a = vgg.extract(&latents);
        let b = vgg.extract(&latents);
        prop_assert_eq!(a.as_slice(), b.as_slice());
        for row in a.iter_rows() {
            prop_assert!((vecops::norm(row) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn score_against_matches_embed_then_dot(seed in any::<u64>()) {
        let clip = SimClip::with_defaults(12, seed);
        let latents = unit_latents(3, 12, seed ^ 4);
        let text = clip.embed_text("sunset", PromptTemplate::PhotoOfThe);
        let text_m = Matrix::from_rows(&[text.clone()]);
        let scores = clip.score_images_against(&latents, &text_m);
        let img = clip.embed_images(&latents);
        for i in 0..3 {
            let expected = 0.2 + 0.12 * vecops::dot(img.row(i), &text);
            prop_assert!((scores[(i, 0)] - expected).abs() < 1e-12);
        }
    }
}
