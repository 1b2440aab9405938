//! UHSCM — Unsupervised Hashing with Semantic Concept Mining.
//!
//! This crate is the paper's primary contribution (§3):
//!
//! * [`mining`] — concept distributions from VLP image-text scores
//!   (Eq. 1-2),
//! * [`denoise`] — frequency-based concept denoising (Eq. 4-5),
//! * [`similarity`] — the semantic similarity matrix `Q` (Eq. 3 / Eq. 6),
//! * [`loss`] — the hashing objective (Eq. 7-11): ℓ2 similarity
//!   preservation, quantization, and the modified contrastive regularizer,
//!   plus CIB's original contrastive loss for the `UHSCM_CL` ablation,
//! * [`trainer`] — Algorithm 1 (mini-batch SGD over the hashing network),
//! * [`pipeline`] — end-to-end orchestration from a dataset + simulated VLP
//!   model to binary codes,
//! * [`variants`] — every ablation row of Table 2 as a named configuration.
//!
//! # Quick start
//!
//! ```
//! use uhscm_core::pipeline::{Pipeline, SimilaritySource};
//! use uhscm_core::UhscmConfig;
//! use uhscm_data::{Dataset, DatasetConfig, DatasetKind};
//!
//! let dataset = Dataset::generate(DatasetKind::Cifar10Like, &DatasetConfig::tiny(), 42);
//! let config = UhscmConfig { bits: 16, epochs: 3, ..UhscmConfig::for_dataset(dataset.kind) };
//! let pipeline = Pipeline::new(&dataset, 7);
//! let model = pipeline.train(&SimilaritySource::default(), &config);
//! let codes = model.encode(&pipeline.features_of(&dataset.split.query));
//! assert_eq!(codes.bits(), 16);
//! ```

pub mod config;
pub mod denoise;
pub mod loss;
pub mod mining;
pub mod pipeline;
pub mod similarity;
pub mod trainer;
pub mod variants;

pub use config::UhscmConfig;
pub use denoise::{concept_frequencies, denoise_concepts, discard};
pub use mining::concept_distributions;
pub use pipeline::{Pipeline, Regularizer, SimilaritySource};
pub use similarity::Similarity;
pub use trainer::{train_hashing_network, TrainedHasher};
