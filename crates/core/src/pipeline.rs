//! End-to-end UHSCM pipeline: dataset → similarity matrix → trained codes.
//!
//! Wires together the simulated VLP model (`uhscm-vlp`), the semantic
//! similarity generator (steps 2-5 of Algorithm 1) and the hashing-network
//! trainer (steps 6-13), covering the full model *and* every similarity
//! construction the ablation study compares.

use crate::similarity::Similarity;
pub use crate::trainer::Regularizer;
use crate::trainer::{train_hashing_network, TrainedHasher};
use crate::{concept_distributions, denoise_concepts, UhscmConfig};
use uhscm_data::{share_label, vocab, Dataset};
use uhscm_eval::{mean_average_precision, BitCodes, HammingRanker};
use uhscm_linalg::{kmeans, rng, vecops, Matrix};
use uhscm_vlp::{PromptTemplate, SimClip, VggFeatures};

/// How the semantic similarity matrix `Q` is constructed.
#[derive(Debug, Clone)]
pub enum SimilaritySource {
    /// Full UHSCM: mine over `vocab`, denoise (Eq. 4-5), re-mine, cosine.
    ConceptsDenoised { vocab: Vec<String>, template: PromptTemplate },
    /// `UHSCM_w/o de`: skip denoising (Eq. 3 directly).
    ConceptsRaw { vocab: Vec<String>, template: PromptTemplate },
    /// `UHSCM_cn`: k-means the concept prompt embeddings into `clusters`
    /// groups and mine over the cluster centroids.
    ConceptsClustered { vocab: Vec<String>, template: PromptTemplate, clusters: usize },
    /// `UHSCM_avg`: average the denoised similarity matrices of several
    /// templates.
    ConceptsAveraged { vocab: Vec<String>, templates: Vec<PromptTemplate> },
    /// `UHSCM_IF`: cosine similarity of raw VLP image features.
    ClipFeatures,
}

impl Default for SimilaritySource {
    /// The paper's default: NUS-WIDE-81 vocabulary, "a photo of the {c}".
    fn default() -> Self {
        SimilaritySource::ConceptsDenoised {
            vocab: vocab::nus_wide_81(),
            template: PromptTemplate::PhotoOfThe,
        }
    }
}

/// Result of similarity construction, including what survived denoising.
#[derive(Debug, Clone)]
pub struct SimilarityOutcome {
    /// The `n × n` semantic similarity matrix over the training items, held
    /// as its factor.
    pub q: Similarity,
    /// Names of retained concepts (when concept mining was used).
    pub kept_concepts: Option<Vec<String>>,
}

/// A dataset bound to frozen VLP and feature-extraction checkpoints.
pub struct Pipeline<'a> {
    dataset: &'a Dataset,
    clip: SimClip,
    vgg: VggFeatures,
    /// Cached backbone features of the training split.
    train_features: Matrix,
    /// Cached latents of the training split (VLP input).
    train_latents: Matrix,
    seed: u64,
}

impl<'a> Pipeline<'a> {
    /// Bind `dataset` to VLP/VGG checkpoints derived from `seed`.
    pub fn new(dataset: &'a Dataset, seed: u64) -> Self {
        let latent_dim = dataset.latents.cols();
        let clip = SimClip::with_defaults(latent_dim, seed ^ 0xc11b);
        let vgg = VggFeatures::with_defaults(latent_dim, seed ^ 0x7667);
        let train_latents = dataset.latents_of(&dataset.split.train);
        let train_features = vgg.extract(&train_latents);
        Self { dataset, clip, vgg, train_features, train_latents, seed }
    }

    /// The bound dataset.
    pub fn dataset(&self) -> &Dataset {
        self.dataset
    }

    /// The simulated CLIP checkpoint.
    pub fn clip(&self) -> &SimClip {
        &self.clip
    }

    /// Backbone (simulated VGG) features for arbitrary item indices.
    pub fn features_of(&self, indices: &[usize]) -> Matrix {
        self.vgg.extract(&self.dataset.latents_of(indices))
    }

    /// Backbone features of the training split (cached).
    pub fn train_features(&self) -> &Matrix {
        &self.train_features
    }

    /// Build the semantic similarity matrix per `source` (steps 2-5 of
    /// Algorithm 1 or the relevant ablation).
    ///
    /// # Panics
    ///
    /// Panics if an ablation source is misconfigured: fewer than two
    /// clusters for `ConceptsClustered`, or an empty template list for
    /// `PromptAverage`.
    pub fn build_similarity(
        &self,
        source: &SimilaritySource,
        tau_factor: f64,
    ) -> SimilarityOutcome {
        let _span = uhscm_obs::span("build_similarity");
        match source {
            SimilaritySource::ConceptsDenoised { vocab, template } => {
                let (scores, d) = {
                    let _s = uhscm_obs::span("score_concepts");
                    let scores = self.clip.score_matrix(&self.train_latents, vocab, *template);
                    let d = concept_distributions(&scores, tau_factor);
                    (scores, d)
                };
                let (kept, d2) = {
                    let _s = uhscm_obs::span("denoise");
                    let kept = denoise_concepts(&d);
                    let kept_scores = select_columns(&scores, &kept);
                    let d2 = concept_distributions(&kept_scores, tau_factor);
                    (kept, d2)
                };
                if uhscm_obs::enabled() {
                    uhscm_obs::registry::gauge_set("pipeline.concepts.total", vocab.len() as f64);
                    uhscm_obs::registry::gauge_set("pipeline.concepts.kept", kept.len() as f64);
                }
                let q = {
                    let _s = uhscm_obs::span("build_q");
                    Similarity::cosine(&d2)
                };
                SimilarityOutcome {
                    q,
                    kept_concepts: Some(kept.iter().map(|&j| vocab[j].clone()).collect()),
                }
            }
            SimilaritySource::ConceptsRaw { vocab, template } => {
                let scores = self.clip.score_matrix(&self.train_latents, vocab, *template);
                let d = concept_distributions(&scores, tau_factor);
                SimilarityOutcome { q: Similarity::cosine(&d), kept_concepts: Some(vocab.clone()) }
            }
            SimilaritySource::ConceptsClustered { vocab, template, clusters } => {
                assert!(*clusters >= 2, "need at least 2 clusters");
                // Cluster prompt embeddings; centroids become the concepts.
                let embs: Vec<Vec<f64>> =
                    vocab.iter().map(|c| self.clip.embed_text(c, *template)).collect();
                let emb_matrix = Matrix::from_rows(&embs);
                let mut r = rng::seeded(self.seed ^ 0x6b6d);
                let result = kmeans(&emb_matrix, *clusters, 100, &mut r);
                let mut centroids = result.centroids;
                for i in 0..centroids.rows() {
                    vecops::normalize(centroids.row_mut(i));
                }
                let scores = self.clip.score_images_against(&self.train_latents, &centroids);
                let d = concept_distributions(&scores, tau_factor);
                SimilarityOutcome { q: Similarity::cosine(&d), kept_concepts: None }
            }
            SimilaritySource::ConceptsAveraged { vocab, templates } => {
                assert!(!templates.is_empty(), "need at least one template");
                let qs: Vec<Similarity> = templates
                    .iter()
                    .map(|t| {
                        let src = SimilaritySource::ConceptsDenoised {
                            vocab: vocab.clone(),
                            template: *t,
                        };
                        self.build_similarity(&src, tau_factor).q
                    })
                    .collect();
                SimilarityOutcome { q: Similarity::mean(qs), kept_concepts: None }
            }
            SimilaritySource::ClipFeatures => {
                let features = self.clip.embed_images(&self.train_latents);
                SimilarityOutcome { q: Similarity::cosine(&features), kept_concepts: None }
            }
        }
    }

    /// Full training: build `Q` per `source`, then run Algorithm 1 with the
    /// modified contrastive regularizer.
    pub fn train(&self, source: &SimilaritySource, config: &UhscmConfig) -> TrainedHasher {
        self.train_with_regularizer(source, config, Regularizer::Modified)
    }

    /// Training with an explicit regularizer choice (ablations 13-14).
    pub fn train_with_regularizer(
        &self,
        source: &SimilaritySource,
        config: &UhscmConfig,
        regularizer: Regularizer,
    ) -> TrainedHasher {
        let _span = uhscm_obs::span("train");
        let outcome = self.build_similarity(source, config.tau_factor);
        let _fit = uhscm_obs::span("fit");
        train_hashing_network(
            &self.train_features,
            &outcome.q,
            config,
            regularizer,
            self.seed ^ 0x7261,
        )
    }

    /// Encode the query and database splits with a trained model.
    pub fn encode_splits(&self, model: &TrainedHasher) -> (BitCodes, BitCodes) {
        let _span = uhscm_obs::span("encode");
        let q = self.encode_items(model, &self.dataset.split.query);
        let db = self.encode_items(model, &self.dataset.split.database);
        (q, db)
    }

    /// Codes of the items at `indices`, extracted and encoded
    /// [`ENCODE_CHUNK`] rows at a time, so memory stays bounded by one
    /// chunk's latents and features. The codes equal one unchunked
    /// `model.encode(&self.features_of(indices))`: each row's backbone noise
    /// is seeded from that row alone, and every kernel on the way is
    /// per-row.
    pub fn encode_items(&self, model: &TrainedHasher, indices: &[usize]) -> BitCodes {
        let mut codes = BitCodes::from_real(&Matrix::zeros(0, model.bits()));
        for chunk in indices.chunks(ENCODE_CHUNK) {
            codes.extend(&model.encode(&self.features_of(chunk)));
        }
        codes
    }

    /// MAP of a trained model over the dataset's query/database splits,
    /// using the paper's share-a-label relevance (top `top_n` results).
    pub fn evaluate_map(&self, model: &TrainedHasher, top_n: usize) -> f64 {
        let _span = uhscm_obs::span("evaluate_map");
        let (query_codes, db_codes) = self.encode_splits(model);
        let ranker = HammingRanker::new(db_codes);
        let rel = self.relevance();
        mean_average_precision(&ranker, &query_codes, &rel, top_n)
    }

    /// The share-a-label relevance predicate between query and database
    /// positions (indices into the respective splits).
    pub fn relevance(&self) -> impl Fn(usize, usize) -> bool + '_ {
        let ds = self.dataset;
        move |qi: usize, di: usize| {
            let q = &ds.labels[ds.split.query[qi]];
            let d = &ds.labels[ds.split.database[di]];
            share_label(q, d)
        }
    }
}

/// Rows per chunk in [`Pipeline::encode_items`].
const ENCODE_CHUNK: usize = 1024;

/// Copy a subset of columns into a new matrix.
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

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_data::{DatasetConfig, DatasetKind};

    fn tiny_pipeline(dataset: &Dataset) -> Pipeline<'_> {
        Pipeline::new(dataset, 7)
    }

    fn tiny_dataset() -> Dataset {
        Dataset::generate(DatasetKind::Cifar10Like, &DatasetConfig::tiny(), 42)
    }

    #[test]
    fn denoising_removes_out_of_domain_concepts() {
        let ds = tiny_dataset();
        let p = tiny_pipeline(&ds);
        let out = p.build_similarity(&SimilaritySource::default(), 3.0);
        let kept = out.kept_concepts.expect("concept mining used");
        // CIFAR-like data over the 81 NUS-WIDE concepts: most concepts are
        // out-of-domain and must be discarded.
        assert!(kept.len() < 81, "nothing denoised");
        assert!(!kept.is_empty());
        // Concepts matching actual CIFAR classes should survive.
        let canon: Vec<String> = kept.iter().map(|c| uhscm_data::canonical(c)).collect();
        let survivors = ["cat", "dog", "car", "airplane", "bird", "horse", "boat"]
            .iter()
            .filter(|c| canon.iter().any(|k| k == *c))
            .count();
        assert!(survivors >= 4, "too few in-domain survivors: {kept:?}");
    }

    #[test]
    fn similarity_matrix_well_formed() {
        let ds = tiny_dataset();
        let p = tiny_pipeline(&ds);
        for source in [
            SimilaritySource::default(),
            SimilaritySource::ClipFeatures,
            SimilaritySource::ConceptsRaw {
                vocab: vocab::nus_wide_81(),
                template: PromptTemplate::PhotoOfThe,
            },
        ] {
            let q = p.build_similarity(&source, 3.0).q.to_dense();
            let n = ds.split.train.len();
            assert_eq!(q.shape(), (n, n));
            for i in 0..n.min(10) {
                assert!((q[(i, i)] - 1.0).abs() < 1e-9);
                for j in 0..n.min(10) {
                    assert!((q[(i, j)] - q[(j, i)]).abs() < 1e-9);
                    assert!(q[(i, j)] <= 1.0 + 1e-9 && q[(i, j)] >= -1.0 - 1e-9);
                }
            }
        }
    }

    /// Similarity matrices at a scale where the Eq. 5 thresholds are
    /// non-degenerate (0.5·n/m ≥ 1 needs n ≥ 2m).
    fn mid_scale(kind: DatasetKind) -> Dataset {
        let cfg =
            DatasetConfig { n_train: 400, n_query: 50, n_database: 800, ..DatasetConfig::tiny() };
        Dataset::generate(kind, &cfg, 42)
    }

    #[test]
    fn denoising_improves_multilabel_similarity_fidelity() {
        // On NUS-WIDE-like data the paper's fidelity gain shows directly in
        // the same-vs-different similarity margin.
        let ds = mid_scale(DatasetKind::NusWideLike);
        let p = tiny_pipeline(&ds);
        let vocab = vocab::nus_wide_81();
        let template = PromptTemplate::PhotoOfThe;
        let q_full = p
            .build_similarity(
                &SimilaritySource::ConceptsDenoised { vocab: vocab.clone(), template },
                3.0,
            )
            .q
            .to_dense();
        let q_raw = p
            .build_similarity(&SimilaritySource::ConceptsRaw { vocab, template }, 3.0)
            .q
            .to_dense();
        let fidelity = |q: &Matrix| {
            let train = &ds.split.train;
            let mut same = Vec::new();
            let mut diff = Vec::new();
            for a in 0..train.len() {
                for b in (a + 1)..train.len() {
                    let gt = share_label(&ds.labels[train[a]], &ds.labels[train[b]]);
                    if gt {
                        same.push(q[(a, b)]);
                    } else {
                        diff.push(q[(a, b)]);
                    }
                }
            }
            vecops::mean(&same) - vecops::mean(&diff)
        };
        assert!(
            fidelity(&q_full) > fidelity(&q_raw),
            "denoising did not improve similarity fidelity"
        );
    }

    #[test]
    fn denoising_removes_false_positive_pairs() {
        // The paper's stated failure mode of raw concepts (§3.3.1): two
        // dissimilar images both claimed by a noise concept become falsely
        // similar. Count dissimilar pairs with q ≥ 0.8 ("positives" under
        // the CIFAR λ) before and after denoising.
        let ds = mid_scale(DatasetKind::Cifar10Like);
        let p = tiny_pipeline(&ds);
        let vocab = vocab::nus_wide_81();
        let template = PromptTemplate::PhotoOfThe;
        let false_positives = |q: &Matrix| {
            let train = &ds.split.train;
            let mut fp = 0usize;
            for a in 0..train.len() {
                for b in (a + 1)..train.len() {
                    if q[(a, b)] >= 0.8 && !share_label(&ds.labels[train[a]], &ds.labels[train[b]])
                    {
                        fp += 1;
                    }
                }
            }
            fp
        };
        let fp_full = false_positives(
            &p.build_similarity(
                &SimilaritySource::ConceptsDenoised { vocab: vocab.clone(), template },
                3.0,
            )
            .q
            .to_dense(),
        );
        let fp_raw = false_positives(
            &p.build_similarity(&SimilaritySource::ConceptsRaw { vocab, template }, 3.0)
                .q
                .to_dense(),
        );
        assert!(
            fp_full * 2 < fp_raw.max(1) * 3,
            "denoising left too many false positives: {fp_full} vs raw {fp_raw}"
        );
    }

    #[test]
    fn clustered_source_produces_valid_q() {
        let ds = tiny_dataset();
        let p = tiny_pipeline(&ds);
        let out = p.build_similarity(
            &SimilaritySource::ConceptsClustered {
                vocab: vocab::nus_wide_81(),
                template: PromptTemplate::PhotoOfThe,
                clusters: 20,
            },
            3.0,
        );
        assert_eq!(out.q.len(), ds.split.train.len());
        assert!(out.q.to_dense().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn end_to_end_training_beats_random_codes() {
        let ds = tiny_dataset();
        let p = tiny_pipeline(&ds);
        let config = UhscmConfig {
            bits: 16,
            epochs: 15,
            batch_size: 32,
            ..UhscmConfig::for_dataset(ds.kind)
        };
        let model = p.train(&SimilaritySource::default(), &config);
        let map = p.evaluate_map(&model, ds.split.database.len());
        // Random 10-class single-label MAP ≈ 0.1; trained must clear it well.
        assert!(map > 0.25, "MAP {map} barely above chance");
    }

    #[test]
    fn averaged_source_matches_component_shape() {
        let ds = tiny_dataset();
        let p = tiny_pipeline(&ds);
        let out = p.build_similarity(
            &SimilaritySource::ConceptsAveraged {
                vocab: vocab::nus_wide_81(),
                templates: PromptTemplate::ALL.to_vec(),
            },
            3.0,
        );
        assert_eq!(out.q.len(), ds.split.train.len());
    }

    #[test]
    fn chunked_encoding_equals_one_unchunked_pass() {
        // 2,500 database items: two full chunks and a partial one.
        let cfg =
            DatasetConfig { n_train: 100, n_query: 10, n_database: 2_500, ..DatasetConfig::tiny() };
        let ds = Dataset::generate(DatasetKind::NusWideLike, &cfg, 5);
        let p = tiny_pipeline(&ds);
        let config = UhscmConfig {
            bits: 16,
            epochs: 1,
            batch_size: 32,
            ..UhscmConfig::for_dataset(ds.kind)
        };
        let model = p.train(&SimilaritySource::default(), &config);
        let (query, db) = p.encode_splits(&model);
        assert!(ds.split.database.len() > 2 * ENCODE_CHUNK);
        assert_ne!(ds.split.database.len() % ENCODE_CHUNK, 0);
        for (codes, split) in [(query, &ds.split.query), (db, &ds.split.database)] {
            assert_eq!(codes, model.encode(&p.features_of(split)));
        }
    }
}
