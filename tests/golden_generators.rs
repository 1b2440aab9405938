//! Golden generator checksum: both synthetic-data generators must keep
//! their output bits. `Dataset::generate` feeds the experiments and the
//! training benchmark; `LatentStream` feeds `db build` and the scale path.
//!
//! The pinned value was computed before the two generators were made to
//! share one per-item recipe. A change that reorders a random draw or a
//! floating-point operation in either generator moves it.

use uhscm::data::{Dataset, DatasetConfig, DatasetKind, LatentStream};

const GOLDEN: u64 = 0x0c44_79a6_9654_01a4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn fnv1a_f64s(hash: u64, values: &[f64]) -> u64 {
    values.iter().fold(hash, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

fn fnv1a_usizes(hash: u64, values: &[usize]) -> u64 {
    values.iter().fold(hash, |h, &v| fnv1a(h, &(v as u64).to_le_bytes()))
}

/// FNV-1a over every kind's `Dataset::generate` latents, labels and train
/// split, then every kind's `LatentStream` latents and label masks drawn in
/// several chunks.
fn generators_checksum() -> u64 {
    let config = DatasetConfig::tiny();
    let mut hash = FNV_OFFSET;
    for (k, kind) in DatasetKind::ALL.into_iter().enumerate() {
        let ds = Dataset::generate(kind, &config, 7 + k as u64);
        hash = fnv1a_f64s(hash, ds.latents.as_slice());
        for labels in &ds.labels {
            hash = fnv1a_usizes(hash, &[labels.len()]);
            hash = fnv1a_usizes(hash, labels);
        }
        hash = fnv1a_usizes(hash, &ds.split.train);
    }
    for (k, kind) in DatasetKind::ALL.into_iter().enumerate() {
        let mut stream = LatentStream::new(kind, &config, 250, 11 + k as u64);
        let mut chunks = 0;
        while let Some(chunk) = stream.next_chunk(64) {
            hash = fnv1a_usizes(hash, &[chunk.start]);
            hash = fnv1a_f64s(hash, chunk.latents.as_slice());
            for mask in &chunk.label_masks {
                hash = fnv1a(hash, &mask.to_le_bytes());
            }
            chunks += 1;
        }
        assert_eq!(chunks, 4, "250 items in chunks of 64");
    }
    hash
}

#[test]
fn generator_checksum_is_pinned() {
    let got = generators_checksum();
    assert_eq!(got, GOLDEN, "checksum {got:#018x}");
}
