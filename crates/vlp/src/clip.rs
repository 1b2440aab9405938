//! The simulated CLIP model.

use crate::PromptTemplate;
use uhscm_data::concepts::{canonical, prototype, stable_hash};
use uhscm_linalg::{par, rng, vecops, Matrix};

/// Tunable knobs of the simulated VLP model.
#[derive(Debug, Clone)]
pub struct SimClipConfig {
    /// Joint embedding dimensionality.
    pub embed_dim: usize,
    /// Per-image encoder noise norm (image-tower imperfection).
    pub image_noise: f64,
    /// Affine mapping of cosine similarity to the reported score
    /// `s = score_base + score_gain · cos`, emulating CLIP's compressed
    /// similarity range (real CLIP cosines live in roughly `[0.1, 0.4]`).
    pub score_base: f64,
    /// See [`Self::score_base`].
    pub score_gain: f64,
}

impl Default for SimClipConfig {
    fn default() -> Self {
        Self { embed_dim: 64, image_noise: 0.90, score_base: 0.20, score_gain: 0.12 }
    }
}

/// A simulated vision-language model with frozen, deterministic towers.
///
/// Both towers are pure functions: the same image latent (or the same
/// concept + template) always yields the same embedding, exactly like a
/// frozen pre-trained CLIP checkpoint. Per-input "encoder noise" is derived
/// from a stable hash of the input, so it is reproducible without any shared
/// mutable RNG.
///
/// ```
/// use uhscm_data::{Dataset, DatasetConfig, DatasetKind};
/// use uhscm_vlp::{PromptTemplate, SimClip};
///
/// let ds = Dataset::generate(DatasetKind::Cifar10Like, &DatasetConfig::tiny(), 42);
/// let clip = SimClip::with_defaults(ds.latents.cols(), 7);
/// let concepts = vec!["cat".to_string(), "airplane".to_string()];
/// let scores = clip.score_matrix(
///     &ds.latents_of(&[0, 1]),
///     &concepts,
///     PromptTemplate::PhotoOfThe,
/// );
/// assert_eq!(scores.shape(), (2, 2)); // Eq. 1: one score per (image, concept)
/// ```
#[derive(Debug, Clone)]
pub struct SimClip {
    cfg: SimClipConfig,
    /// `latent_dim × embed_dim` shared projection into the joint space.
    projection: Matrix,
    /// Seed namespace separating this model instance's noise streams.
    seed: u64,
    latent_dim: usize,
}

impl SimClip {
    /// Instantiate a "pre-trained checkpoint" for a given latent
    /// dimensionality. `seed` selects the checkpoint; all noise is derived
    /// from it deterministically.
    pub fn new(latent_dim: usize, cfg: SimClipConfig, seed: u64) -> Self {
        let mut r = rng::seeded(seed ^ 0x5f37_68dc_a7b6_91e2);
        // A random Gaussian projection is near-isometric for our scales;
        // scaled by 1/sqrt(latent_dim) to keep embeddings O(1).
        let projection =
            rng::gauss_matrix(&mut r, latent_dim, cfg.embed_dim, 1.0 / (latent_dim as f64).sqrt());
        Self { cfg, projection, seed, latent_dim }
    }

    /// Checkpoint with default configuration.
    pub fn with_defaults(latent_dim: usize, seed: u64) -> Self {
        Self::new(latent_dim, SimClipConfig::default(), seed)
    }

    /// Latent dimensionality this checkpoint accepts.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Joint embedding dimensionality.
    pub fn embed_dim(&self) -> usize {
        self.cfg.embed_dim
    }

    /// Image tower: embed each row of `latents` into the joint space
    /// (unit-norm rows). This is also what the `UHSCM_IF` ablation consumes
    /// as "image features extracted by the CLIP model".
    ///
    /// # Panics
    ///
    /// Panics if `latents` does not have `latent_dim` columns.
    pub fn embed_images(&self, latents: &Matrix) -> Matrix {
        let _span = uhscm_obs::span("vlp_embed_images");
        assert_eq!(latents.cols(), self.latent_dim, "latent dim mismatch");
        let mut emb = latents.matmul(&self.projection);
        let sigma = self.cfg.image_noise / (self.cfg.embed_dim as f64).sqrt();
        let d = self.cfg.embed_dim;
        // Noise streams are keyed per image, so rows are independent and
        // band order cannot change the draws. Gaussian draws dominate the
        // per-element cost, hence the inflated work estimate.
        let work = emb.rows().saturating_mul(d).saturating_mul(16);
        par::par_row_bands_mut(emb.as_mut_slice(), d, work, |row0, band| {
            for (bi, row) in band.chunks_mut(d).enumerate() {
                let mut r = rng::seeded(self.seed ^ hash_floats(latents.row(row0 + bi)));
                for v in row.iter_mut() {
                    *v += sigma * rng::gauss(&mut r);
                }
                vecops::normalize(row);
            }
        });
        emb
    }

    /// Text tower: embed a concept rendered through `template`
    /// (unit-norm). Template quality manifests as noise around the
    /// concept's true direction; fully out-of-vocabulary text still maps to
    /// a stable (arbitrary) direction, as a real text tower would.
    pub fn embed_text(&self, concept: &str, template: PromptTemplate) -> Vec<f64> {
        let proto = prototype(concept, self.latent_dim);
        let mut emb = vec![0.0; self.cfg.embed_dim];
        for (k, &p) in proto.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            for (e, &w) in emb.iter_mut().zip(self.projection.row(k)) {
                *e += p * w;
            }
        }
        // Template-dependent drift, fixed per (checkpoint, concept, template).
        let key = format!("{}|{}", template.id(), canonical(concept));
        let mut r = rng::seeded(self.seed ^ stable_hash(key.as_bytes()));
        let sigma = template.text_noise_sigma() / (self.cfg.embed_dim as f64).sqrt();
        for e in &mut emb {
            *e += sigma * rng::gauss(&mut r);
        }
        vecops::normalize(&mut emb);
        emb
    }

    /// Eq. 1 of the paper: the `n × m` image-text score matrix for a batch
    /// of images against a concept vocabulary under one prompt template.
    pub fn score_matrix(
        &self,
        latents: &Matrix,
        concepts: &[String],
        template: PromptTemplate,
    ) -> Matrix {
        let _span = uhscm_obs::span("vlp_score_matrix");
        uhscm_obs::registry::counter_add("vlp.score_matrix.calls", 1);
        let img = self.embed_images(latents);
        let txt: Vec<Vec<f64>> = concepts.iter().map(|c| self.embed_text(c, template)).collect();
        let m = concepts.len();
        let mut scores = Matrix::zeros(img.rows(), m);
        let work = img.rows().saturating_mul(m).saturating_mul(self.cfg.embed_dim);
        par::par_row_bands_mut(scores.as_mut_slice(), m, work, |row0, band| {
            for (bi, srow) in band.chunks_mut(m).enumerate() {
                let ir = img.row(row0 + bi);
                for (s, t) in srow.iter_mut().zip(&txt) {
                    // Rows are unit-norm, so the dot product is the cosine.
                    *s = self.cfg.score_base + self.cfg.score_gain * vecops::dot(ir, t);
                }
            }
        });
        scores
    }

    /// Score images against *precomputed* text-side embeddings (rows of
    /// `text_embeddings`, unit-norm, in this model's joint space). Used by
    /// the clustering-based denoising ablations, whose "concepts" are
    /// k-means centroids of prompt embeddings rather than single prompts.
    ///
    /// # Panics
    ///
    /// Panics if `text_embeddings` columns differ from the joint embedding
    /// dimensionality.
    pub fn score_images_against(&self, latents: &Matrix, text_embeddings: &Matrix) -> Matrix {
        assert_eq!(text_embeddings.cols(), self.cfg.embed_dim, "embedding dim mismatch");
        let img = self.embed_images(latents);
        let m = text_embeddings.rows();
        let mut scores = Matrix::zeros(img.rows(), m);
        let work = img.rows().saturating_mul(m).saturating_mul(self.cfg.embed_dim);
        par::par_row_bands_mut(scores.as_mut_slice(), m, work, |row0, band| {
            for (bi, srow) in band.chunks_mut(m).enumerate() {
                let ir = img.row(row0 + bi);
                for (j, s) in srow.iter_mut().enumerate() {
                    *s = self.cfg.score_base
                        + self.cfg.score_gain * vecops::dot(ir, text_embeddings.row(j));
                }
            }
        });
        scores
    }
}

/// Stable hash of an f64 slice via its IEEE-754 bit patterns.
fn hash_floats(values: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    stable_hash(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_data::{Dataset, DatasetConfig, DatasetKind};

    fn test_setup() -> (Dataset, SimClip) {
        let ds = Dataset::generate(DatasetKind::Cifar10Like, &DatasetConfig::tiny(), 42);
        let clip = SimClip::with_defaults(ds.latents.cols(), 7);
        (ds, clip)
    }

    #[test]
    fn towers_are_deterministic() {
        let (ds, clip) = test_setup();
        let a = clip.embed_images(&ds.latents_of(&[0, 1, 2]));
        let b = clip.embed_images(&ds.latents_of(&[0, 1, 2]));
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(
            clip.embed_text("cat", PromptTemplate::PhotoOfThe),
            clip.embed_text("cat", PromptTemplate::PhotoOfThe)
        );
    }

    #[test]
    fn embeddings_unit_norm() {
        let (ds, clip) = test_setup();
        let emb = clip.embed_images(&ds.latents_of(&[0, 5, 9]));
        for row in emb.iter_rows() {
            assert!((vecops::norm(row) - 1.0).abs() < 1e-9);
        }
        let t = clip.embed_text("sunset", PromptTemplate::The);
        assert!((vecops::norm(&t) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn true_concept_scores_higher() {
        let (ds, clip) = test_setup();
        let concepts: Vec<String> = ds.class_names.clone();
        let idx: Vec<usize> = (0..60).collect();
        let scores = clip.score_matrix(&ds.latents_of(&idx), &concepts, PromptTemplate::PhotoOfThe);
        let mut correct = 0;
        for (row, &i) in idx.iter().enumerate() {
            let j = vecops::argmax(scores.row(row));
            if ds.labels[i].contains(&j) {
                correct += 1;
            }
        }
        // The simulated CLIP should be a strong but imperfect zero-shot
        // classifier over in-domain concepts.
        assert!(correct >= 48, "only {correct}/60 argmax matches");
    }

    #[test]
    fn scores_in_clip_like_range() {
        let (ds, clip) = test_setup();
        let concepts: Vec<String> = ds.class_names.clone();
        let scores =
            clip.score_matrix(&ds.latents_of(&[0, 1]), &concepts, PromptTemplate::PhotoOfThe);
        for &s in scores.as_slice() {
            assert!((0.0..=0.5).contains(&s), "score {s} outside CLIP-like range");
        }
    }

    #[test]
    fn synonym_prompts_score_alike() {
        let (_, clip) = test_setup();
        let a = clip.embed_text("automobile", PromptTemplate::PhotoOfThe);
        let b = clip.embed_text("cars", PromptTemplate::PhotoOfThe);
        assert_eq!(a, b);
    }

    #[test]
    fn default_template_better_aligned_than_p2() {
        // Across many concepts, "a photo of the c" embeds closer to the
        // clean projected prototype than "it contains the c".
        let (_, clip) = test_setup();
        let concepts = uhscm_data::vocab::nus_wide_81();
        let mut gap = 0.0;
        for c in &concepts {
            let clean = {
                let proto = prototype(c, clip.latent_dim());
                let m = Matrix::from_rows(&[proto]);
                let mut e = m.matmul(&clip.projection);
                vecops::normalize(e.row_mut(0));
                e.row(0).to_vec()
            };
            let good = clip.embed_text(c, PromptTemplate::PhotoOfThe);
            let bad = clip.embed_text(c, PromptTemplate::ItContains);
            gap += vecops::dot(&clean, &good) - vecops::dot(&clean, &bad);
        }
        assert!(gap / concepts.len() as f64 > 0.0, "P2 aligned better on average");
    }

    #[test]
    fn different_checkpoints_differ() {
        let (ds, _) = test_setup();
        let c1 = SimClip::with_defaults(ds.latents.cols(), 1);
        let c2 = SimClip::with_defaults(ds.latents.cols(), 2);
        let e1 = c1.embed_images(&ds.latents_of(&[0]));
        let e2 = c2.embed_images(&ds.latents_of(&[0]));
        assert_ne!(e1.as_slice(), e2.as_slice());
    }

    #[test]
    #[should_panic(expected = "latent dim mismatch")]
    fn wrong_latent_dim_panics() {
        let clip = SimClip::with_defaults(16, 1);
        let _ = clip.embed_images(&Matrix::zeros(2, 8));
    }
}
