//! Shape tests: the qualitative claims of the paper's evaluation must hold
//! on the synthetic reproduction at reduced scale.

use uhscm::core::pipeline::{Pipeline, SimilaritySource};
use uhscm::core::variants::Variant;
use uhscm::core::UhscmConfig;
use uhscm::data::{vocab, Dataset, DatasetConfig, DatasetKind};
use uhscm::vlp::PromptTemplate;

fn dataset(kind: DatasetKind) -> Dataset {
    Dataset::generate(
        kind,
        &DatasetConfig { n_train: 400, n_query: 80, n_database: 1_000, ..DatasetConfig::default() },
        42,
    )
}

fn variant_map(kind: DatasetKind, variant: Variant, bits: usize) -> f64 {
    let ds = dataset(kind);
    let pipeline = Pipeline::new(&ds, 7);
    let config = UhscmConfig { bits, epochs: 15, ..UhscmConfig::for_dataset(kind) };
    let model = variant.train(&pipeline, &config);
    pipeline.evaluate_map(&model, ds.split.database.len())
}

/// §4.4.2: concept mining beats raw image-feature similarity (UHSCM > IF).
#[test]
fn concept_mining_beats_image_features_on_cifar() {
    let full = variant_map(DatasetKind::Cifar10Like, Variant::Full, 32);
    let image_features = variant_map(DatasetKind::Cifar10Like, Variant::ImageFeatures, 32);
    assert!(full > image_features, "UHSCM ({full:.3}) must beat UHSCM_IF ({image_features:.3})");
}

/// §4.4.4: frequency denoising beats k-means clustering of the concepts,
/// and coarse clustering (c20) trails fine clustering (c50).
#[test]
fn denoising_beats_coarse_clustering() {
    let full = variant_map(DatasetKind::Cifar10Like, Variant::Full, 32);
    let c20 = variant_map(DatasetKind::Cifar10Like, Variant::Clustered(20), 32);
    assert!(full > c20, "UHSCM ({full:.3}) must beat UHSCM_c20 ({c20:.3})");
}

/// §4.4.5: the modified contrastive loss helps (UHSCM > w/o MCL).
#[test]
fn modified_contrastive_loss_helps() {
    let full = variant_map(DatasetKind::NusWideLike, Variant::Full, 32);
    let without = variant_map(DatasetKind::NusWideLike, Variant::WithoutMcl, 32);
    assert!(full > without, "UHSCM ({full:.3}) must beat UHSCM_w/o MCL ({without:.3})");
}

/// §4.4.1: on NUS-WIDE the NUS-81 vocabulary beats the MS-COCO vocabulary
/// (COCO's categories barely overlap the NUS-21 evaluation classes).
#[test]
fn vocabulary_match_matters_on_nus() {
    let nus_vocab = variant_map(DatasetKind::NusWideLike, Variant::Full, 32);
    let coco_vocab = variant_map(DatasetKind::NusWideLike, Variant::Coco, 32);
    assert!(
        nus_vocab > coco_vocab,
        "NUS-81 vocabulary ({nus_vocab:.3}) must beat COCO-80 ({coco_vocab:.3}) on NUS-WIDE"
    );
}

/// §3.3.2 intuition check: denoising keeps the concepts matching the
/// dataset's real classes and discards out-of-domain ones.
#[test]
fn denoising_retains_in_domain_concepts() {
    let ds = dataset(DatasetKind::Cifar10Like);
    let pipeline = Pipeline::new(&ds, 7);
    let outcome = pipeline.build_similarity(&SimilaritySource::default(), 3.0);
    let kept = outcome.kept_concepts.expect("default source mines concepts");
    assert!(kept.len() < vocab::nus_wide_81().len());
    // At least half of CIFAR's classes must have a surviving synonym.
    let canon_kept: Vec<String> = kept.iter().map(|c| uhscm::data::canonical(c)).collect();
    let matched = vocab::cifar10_classes()
        .iter()
        .filter(|class| canon_kept.contains(&uhscm::data::canonical(class)))
        .count();
    assert!(matched >= 5, "only {matched}/10 CIFAR classes survive: {kept:?}");
}

/// §4.4.3: the paper's default template is at least as good as "it
/// contains the {c}" (P2) on the multi-label datasets.
#[test]
fn default_prompt_not_worse_than_p2() {
    let default = variant_map(DatasetKind::FlickrLike, Variant::Full, 32);
    let p2 = variant_map(DatasetKind::FlickrLike, Variant::Prompt2, 32);
    assert!(default >= p2 - 0.02, "default template ({default:.3}) fell behind P2 ({p2:.3})");
}

/// The paper uses the same concept vocabulary for all datasets; the
/// similarity generator must therefore work unchanged across them.
#[test]
fn every_similarity_source_works_on_every_dataset() {
    for kind in DatasetKind::ALL {
        let ds = dataset(kind);
        let pipeline = Pipeline::new(&ds, 7);
        for source in [
            SimilaritySource::default(),
            SimilaritySource::ClipFeatures,
            SimilaritySource::ConceptsClustered {
                vocab: vocab::nus_wide_81(),
                template: PromptTemplate::PhotoOfThe,
                clusters: 20,
            },
        ] {
            let q = pipeline.build_similarity(&source, 3.0).q.to_dense();
            assert_eq!(q.rows(), ds.split.train.len(), "{kind:?} {source:?}");
            assert!(q.as_slice().iter().all(|v| v.is_finite()));
        }
    }
}
