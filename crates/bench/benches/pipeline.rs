//! Micro-benchmarks for the UHSCM pipeline stages: concept mining,
//! similarity construction, the Eq. 11 loss, and network training steps.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use uhscm_core::loss::{hashing_loss_and_grad, LossParams};
use uhscm_core::similarity::Similarity;
use uhscm_core::{concept_distributions, denoise_concepts};
use uhscm_data::{vocab, Dataset, DatasetConfig, DatasetKind};
use uhscm_linalg::{rng, Matrix};
use uhscm_nn::{Mlp, Sgd};
use uhscm_vlp::{PromptTemplate, SimClip};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.measurement_time(Duration::from_secs(2)).sample_size(10);

    let cfg =
        DatasetConfig { n_train: 400, n_query: 50, n_database: 800, ..DatasetConfig::default() };
    let ds = Dataset::generate(DatasetKind::Cifar10Like, &cfg, 42);
    let clip = SimClip::with_defaults(ds.latents.cols(), 7);
    let concepts = vocab::nus_wide_81();
    let latents = ds.latents_of(&ds.split.train);

    group.bench_function("clip_score_matrix_400x81", |bench| {
        bench
            .iter(|| black_box(clip.score_matrix(&latents, &concepts, PromptTemplate::PhotoOfThe)));
    });

    let scores = clip.score_matrix(&latents, &concepts, PromptTemplate::PhotoOfThe);
    group.bench_function("concept_distributions_400x81", |bench| {
        bench.iter(|| black_box(concept_distributions(&scores, 3.0)));
    });

    let dists = concept_distributions(&scores, 3.0);
    group.bench_function("denoise_concepts_400x81", |bench| {
        bench.iter(|| black_box(denoise_concepts(&dists)));
    });

    // The t × t block one training step reads (t = 128 of n = 400).
    let sim = Similarity::cosine(&dists);
    let batch: Vec<usize> = (0..128).map(|i| (i * 3) % 400).collect();
    group.bench_function("similarity_block_t128", |bench| {
        bench.iter(|| black_box(sim.block(&batch)));
    });

    // Eq. 11 loss on a paper-sized batch (t=128, k=64).
    let mut r = rng::seeded(3);
    let z = rng::gauss_matrix(&mut r, 128, 64, 0.5);
    let mut q = Matrix::zeros(128, 128);
    for i in 0..128 {
        q[(i, i)] = 1.0;
        for j in (i + 1)..128 {
            let v = if (i + j) % 4 == 0 { 0.9 } else { 0.1 };
            q[(i, j)] = v;
            q[(j, i)] = v;
        }
    }
    let params = LossParams { alpha: 0.2, beta: 0.001, gamma: 0.2, lambda: 0.8 };
    group.bench_function("eq11_loss_and_grad_t128_k64", |bench| {
        bench.iter(|| black_box(hashing_loss_and_grad(&z, &q, &params)));
    });

    // One SGD step of the hashing network on a batch.
    let x = rng::gauss_matrix(&mut r, 128, 128, 1.0);
    group.bench_function("network_step_t128", |bench| {
        let mut mlp = Mlp::hashing_network(128, &[128], 64, &mut r);
        let mut sgd = Sgd::paper_defaults();
        bench.iter(|| {
            let zb = mlp.forward(&x);
            let (_, grad) = hashing_loss_and_grad(&zb, &q, &params);
            mlp.backward_params(&grad);
            sgd.step(&mut mlp);
        });
    });

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
