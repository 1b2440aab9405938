//! Golden training checksum: one fixed small configuration of the full
//! pipeline (similarity construction, then Algorithm 1) must produce the
//! same trained weights and the same per-epoch loss terms, bit for bit, at
//! every thread count.
//!
//! The pinned value was computed before any of the trainer's optimizations
//! it now guards. A change that reorders a floating-point operation on the
//! training path moves it; a change that only removes dead work or changes
//! how `Q` is stored must not.

use uhscm::core::pipeline::{Pipeline, SimilaritySource};
use uhscm::core::UhscmConfig;
use uhscm::data::{Dataset, DatasetConfig, DatasetKind};
use uhscm::linalg::par;

const GOLDEN: u64 = 0xa56c_c879_188f_41fa;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, value: f64) -> u64 {
    value
        .to_bits()
        .to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over the trained weights' bits, then each epoch's four loss terms.
fn training_checksum() -> u64 {
    let kind = DatasetKind::NusWideLike;
    let data =
        DatasetConfig { n_train: 400, n_query: 50, n_database: 800, ..DatasetConfig::default() };
    let dataset = Dataset::generate(kind, &data, 903);
    let pipeline = Pipeline::new(&dataset, 903);
    let config = UhscmConfig { bits: 16, epochs: 4, ..UhscmConfig::for_dataset(kind) };
    let model = pipeline.train(&SimilaritySource::default(), &config);
    assert_eq!(model.loss_history.len(), 4);
    let mut hash = model.network().flat_params().into_iter().fold(FNV_OFFSET, fnv1a);
    for epoch in &model.loss_history {
        for term in [epoch.total, epoch.similarity, epoch.quantization, epoch.contrastive] {
            hash = fnv1a(hash, term);
        }
    }
    hash
}

#[test]
fn training_checksum_is_pinned_at_every_thread_count() {
    for threads in [1, 2, 3] {
        let got = par::with_threads(threads, training_checksum);
        assert_eq!(got, GOLDEN, "checksum {got:#018x} at {threads} threads");
    }
}
