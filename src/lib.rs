//! # uhscm — Unsupervised Hashing with Semantic Concept Mining
//!
//! A from-scratch Rust reproduction of UHSCM (Tu et al., SIGMOD 2023),
//! including every substrate the paper depends on. This facade crate
//! re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`linalg`] | `uhscm-linalg` | dense matrices, eigensolver, SVD, PCA, k-means |
//! | [`nn`] | `uhscm-nn` | MLP runtime, SGD, backprop, persistence |
//! | [`data`] | `uhscm-data` | concept vocabularies, synthetic datasets |
//! | [`vlp`] | `uhscm-vlp` | simulated CLIP + CNN feature extractor |
//! | [`eval`] | `uhscm-eval` | bit codes, Hamming ranking, MAP/P@N/PR, t-SNE |
//! | [`core`] | `uhscm-core` | concept mining, denoising, similarity matrix, hashing loss, trainer |
//! | [`baselines`] | `uhscm-baselines` | LSH, SH, ITQ, AGH, SSDH, GH, BGAN, MLS³RDUH, CIB, UTH |
//! | [`serve`] | `uhscm-serve` | online retrieval: sharded index, batched encoding, admission control |
//! | [`store`] | `uhscm-store` | out-of-core segment store: checksummed on-disk code databases |
//!
//! See the `examples/` directory for end-to-end usage and the `uhscm-bench`
//! crate for the harness that regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```
//! use uhscm::core::pipeline::{Pipeline, SimilaritySource};
//! use uhscm::core::UhscmConfig;
//! use uhscm::data::{Dataset, DatasetConfig, DatasetKind};
//!
//! let dataset = Dataset::generate(DatasetKind::Cifar10Like, &DatasetConfig::tiny(), 42);
//! let pipeline = Pipeline::new(&dataset, 7);
//! let config = UhscmConfig { bits: 16, epochs: 2, ..UhscmConfig::for_dataset(dataset.kind) };
//! let model = pipeline.train(&SimilaritySource::default(), &config);
//! assert_eq!(model.bits(), 16);
//! ```

pub mod cli;

pub use uhscm_baselines as baselines;
pub use uhscm_core as core;
pub use uhscm_data as data;
pub use uhscm_eval as eval;
pub use uhscm_linalg as linalg;
pub use uhscm_nn as nn;
pub use uhscm_obs as obs;
pub use uhscm_serve as serve;
pub use uhscm_store as store;
pub use uhscm_vlp as vlp;
