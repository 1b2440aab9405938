//! Simulation-design ablation: how the reproduction's substitution knobs
//! shape the headline result.
//!
//! DESIGN.md claims three mechanics carry the paper's phenomena: the
//! low-rank style nuisance in the CNN-style features, the image-tower noise
//! that concept softmax suppresses, and the concept-relatedness model. This
//! harness sweeps the first two and reports the UHSCM-vs-ITQ MAP gap (the
//! paper's headline comparison) at each setting, demonstrating that the
//! reproduced gap is a *mechanism*, not a hand-tuned constant.

use serde::Serialize;
use uhscm_baselines::itq::Itq;
use uhscm_baselines::UnsupervisedHasher;
use uhscm_bench::context::EXPERIMENT_SEED;
use uhscm_bench::report::f3;
use uhscm_bench::{markdown_table, write_json, Scale};
use uhscm_core::pipeline::SimilaritySource;
use uhscm_data::{Dataset, DatasetKind};
use uhscm_eval::{mean_average_precision, HammingRanker};
use uhscm_linalg::Matrix;
use uhscm_vlp::{SimClip, SimClipConfig, VggFeatures};

#[derive(Serialize)]
struct Point {
    knob: String,
    value: f64,
    uhscm_map: f64,
    itq_map: f64,
    gap: f64,
}

fn main() {
    let scale = Scale::from_env_args();
    let bits = 32;
    let dataset =
        Dataset::generate(DatasetKind::Cifar10Like, &scale.dataset_config(), EXPERIMENT_SEED);
    let latent_dim = dataset.latents.cols();
    println!("# Simulation-design ablation (CIFAR10, {bits} bits, scale: {})\n", scale.id());

    let mut records = Vec::new();

    // --- Knob 1: style-nuisance norm in the CNN-style features -----------
    let mut rows = Vec::new();
    for &style in &[0.0, 0.5, 1.0, 1.5, 2.0] {
        let vgg =
            VggFeatures::with_style(latent_dim, 128, 0.8, 16, style, EXPERIMENT_SEED ^ 0x7667);
        let (u, i) = run_pair(&dataset, &vgg, None, bits, scale);
        rows.push(vec![format!("{style}"), f3(u), f3(i), f3(u - i)]);
        records.push(Point {
            knob: "style_norm".into(),
            value: style,
            uhscm_map: u,
            itq_map: i,
            gap: u - i,
        });
        eprintln!("[ablation_sim] style={style} → UHSCM {u:.3} ITQ {i:.3}");
    }
    println!("## Style-nuisance norm (features)\n");
    println!(
        "{}",
        markdown_table(&["style".into(), "UHSCM".into(), "ITQ".into(), "gap".into()], &rows)
    );

    // --- Knob 2: VLP image-tower noise ------------------------------------
    let mut rows = Vec::new();
    for &noise in &[0.0, 0.3, 0.6, 0.9, 1.2] {
        let clip_cfg = SimClipConfig { image_noise: noise, ..SimClipConfig::default() };
        let (u, i) = run_pair_with_clip(&dataset, clip_cfg, bits, scale);
        rows.push(vec![format!("{noise}"), f3(u), f3(i), f3(u - i)]);
        records.push(Point {
            knob: "image_noise".into(),
            value: noise,
            uhscm_map: u,
            itq_map: i,
            gap: u - i,
        });
        eprintln!("[ablation_sim] image_noise={noise} → UHSCM {u:.3} ITQ {i:.3}");
    }
    println!("## VLP image-tower noise\n");
    println!(
        "{}",
        markdown_table(&["image_noise".into(), "UHSCM".into(), "ITQ".into(), "gap".into()], &rows)
    );

    if let Some(path) = write_json(&format!("ablation_sim_{}", scale.id()), &records) {
        println!("results written to {}", path.display());
    }
}

/// Train UHSCM (with the default VLP checkpoint) and ITQ on custom features.
fn run_pair(
    dataset: &Dataset,
    vgg: &VggFeatures,
    clip_cfg: Option<SimClipConfig>,
    bits: usize,
    scale: Scale,
) -> (f64, f64) {
    let clip = SimClip::new(
        dataset.latents.cols(),
        clip_cfg.unwrap_or_default(),
        EXPERIMENT_SEED ^ 0xc11b,
    );
    let train_latents = dataset.latents_of(&dataset.split.train);
    let train_features = vgg.extract(&train_latents);
    let query_features = vgg.extract(&dataset.latents_of(&dataset.split.query));
    let db_features = vgg.extract(&dataset.latents_of(&dataset.split.database));

    // UHSCM: default concept-mined similarity over this checkpoint.
    let config = scale.uhscm_config(dataset.kind, bits);
    let source = SimilaritySource::default();
    let outcome = {
        // Build similarity manually so the custom clip/vgg are used.
        let scores = match &source {
            SimilaritySource::ConceptsDenoised { vocab, template } => {
                let s = clip.score_matrix(&train_latents, vocab, *template);
                let d = uhscm_core::concept_distributions(&s, config.tau_factor);
                let kept = uhscm_core::denoise_concepts(&d);
                let kept_scores = select_columns(&s, &kept);
                uhscm_core::concept_distributions(&kept_scores, config.tau_factor)
            }
            _ => unreachable!("default source is ConceptsDenoised"),
        };
        uhscm_core::Similarity::cosine(&scores)
    };
    let model = uhscm_core::train_hashing_network(
        &train_features,
        &outcome,
        &config,
        uhscm_core::pipeline::Regularizer::Modified,
        EXPERIMENT_SEED ^ 0x7261,
    );
    let rel = relevance(dataset);
    let top_n = dataset.split.database.len();
    let ranker = HammingRanker::new(model.encode(&db_features));
    let uhscm_map = mean_average_precision(&ranker, &model.encode(&query_features), &rel, top_n);

    // ITQ on the same features.
    let itq = Itq::train(&train_features, bits, EXPERIMENT_SEED ^ 0xba5e);
    let ranker = HammingRanker::new(itq.encode(&db_features));
    let itq_map = mean_average_precision(&ranker, &itq.encode(&query_features), &rel, top_n);
    (uhscm_map, itq_map)
}

/// Vary the VLP checkpoint while keeping the default feature extractor.
fn run_pair_with_clip(
    dataset: &Dataset,
    clip_cfg: SimClipConfig,
    bits: usize,
    scale: Scale,
) -> (f64, f64) {
    let vgg = VggFeatures::with_defaults(dataset.latents.cols(), EXPERIMENT_SEED ^ 0x7667);
    run_pair(dataset, &vgg, Some(clip_cfg), bits, scale)
}

fn relevance(dataset: &Dataset) -> impl Fn(usize, usize) -> bool + '_ {
    move |qi, di| {
        uhscm_data::share_label(
            &dataset.labels[dataset.split.query[qi]],
            &dataset.labels[dataset.split.database[di]],
        )
    }
}

fn select_columns(m: &Matrix, cols: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), cols.len());
    for i in 0..m.rows() {
        let src = m.row(i);
        for (k, &c) in cols.iter().enumerate() {
            out[(i, k)] = src[c];
        }
    }
    out
}
