//! Chunked, out-of-core dataset generation for million-item databases.
//!
//! [`Dataset::generate`](crate::Dataset::generate) drives one sequential
//! RNG through every item, which is the right shape for the golden-seeded
//! experiment configs but forces the whole latent matrix into memory and
//! ties every item's bytes to its predecessors. The stream here makes the
//! opposite trade for the scale path (`db build`, the `scale` bench):
//!
//! * **Per-item seeding** — item `i`'s RNG is derived from `(seed, i)`
//!   alone, so the stream is *chunk-size invariant*: any chunking of
//!   `0..total` yields bitwise-identical latents and labels. A 1M-item
//!   build can be verified against a 10k re-read of the same indices.
//! * **Bounded memory** — [`LatentStream::next_chunk`] materializes one
//!   chunk of latents at a time; nothing retains earlier chunks. Peak
//!   memory is `chunk × latent_dim` floats regardless of `total`.
//! * **Compact labels** — ground truth is returned as one `u32` bitmask
//!   per item (every benchmark kind has ≤ 32 evaluation classes), so the
//!   relevance oracle for 1M items is 4 MB, not a `Vec<Vec<usize>>`.
//!
//! Both generators draw every item through one shared recipe (label
//! sampling, prototype mixing, distractors, context noise, normalization);
//! they differ only in the RNG they hand it. `Dataset::generate` passes
//! its one sequential RNG, which pins the experiment goldens; the stream
//! passes a fresh RNG per item index, which buys chunk-size invariance.

use crate::dataset::{DatasetConfig, DatasetKind, ItemRecipe};
use uhscm_linalg::{rng, Matrix};

/// One generated chunk: items `start .. start + latents.rows()` of the
/// stream, in order.
#[derive(Debug, Clone)]
pub struct StreamChunk {
    /// Global index of the chunk's first item.
    pub start: usize,
    /// `chunk_len × latent_dim` latent semantic vectors.
    pub latents: Matrix,
    /// One label bitmask per item (bit `c` ⇔ class `c` present).
    pub label_masks: Vec<u32>,
}

/// Ground-truth relevance of §4.2 over packed label masks: two items are
/// similar iff their label sets intersect.
#[inline]
pub fn share_mask(a: u32, b: u32) -> bool {
    a & b != 0
}

/// A deterministic, chunk-size-invariant generator of dataset items.
pub struct LatentStream {
    recipe: ItemRecipe,
    seed: u64,
    next: usize,
    total: usize,
}

impl LatentStream {
    /// Set up a stream of `total` items for `kind`, reusing the size-free
    /// fields of `config` (`latent_dim`, noise and distractor parameters).
    ///
    /// # Panics
    ///
    /// Panics if the kind defines more than 32 evaluation classes (the
    /// label-mask width) or if a co-occurrence group names a class the
    /// kind does not define.
    pub fn new(kind: DatasetKind, config: &DatasetConfig, total: usize, seed: u64) -> Self {
        let recipe = ItemRecipe::new(kind, config);
        assert!(recipe.class_names.len() <= 32, "label masks hold at most 32 classes");
        Self { recipe, seed, next: 0, total }
    }

    /// Total items the stream will produce.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Items not yet produced.
    pub fn remaining(&self) -> usize {
        self.total - self.next
    }

    /// Generate the next at-most-`max_items` items; `None` once the stream
    /// is exhausted. Chunk boundaries never change the items produced.
    pub fn next_chunk(&mut self, max_items: usize) -> Option<StreamChunk> {
        let take = self.remaining().min(max_items.max(1));
        if take == 0 {
            return None;
        }
        let start = self.next;
        let mut latents = Matrix::zeros(take, self.recipe.config.latent_dim);
        let mut label_masks = Vec::with_capacity(take);
        for k in 0..take {
            label_masks.push(self.fill_item(start + k, latents.row_mut(k)));
        }
        self.next += take;
        Some(StreamChunk { start, latents, label_masks })
    }

    /// Generate item `index` into `row`, returning its label mask. The
    /// item RNG depends only on `(seed, index)`.
    fn fill_item(&self, index: usize, row: &mut [f64]) -> u32 {
        // SplitMix64-style index mix; `rng::seeded` scrambles further, so
        // adjacent indices still yield uncorrelated streams.
        let item_seed =
            self.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 ^ 0x243f_6a88_85a3_08d3);
        let labels = self.recipe.draw(&mut rng::seeded(item_seed), row);
        labels.iter().fold(0, |mask, &c| mask | 1 << c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::share_label;
    use uhscm_linalg::vecops;

    fn drain(mut s: LatentStream, chunk: usize) -> (Vec<f64>, Vec<u32>) {
        let mut flat = Vec::new();
        let mut masks = Vec::new();
        let mut expect_start = 0;
        while let Some(c) = s.next_chunk(chunk) {
            assert_eq!(c.start, expect_start);
            assert_eq!(c.latents.rows(), c.label_masks.len());
            expect_start += c.latents.rows();
            flat.extend_from_slice(c.latents.as_slice());
            masks.extend_from_slice(&c.label_masks);
        }
        (flat, masks)
    }

    #[test]
    fn chunk_size_invariant() {
        let cfg = DatasetConfig::tiny();
        let full = drain(LatentStream::new(DatasetKind::NusWideLike, &cfg, 100, 9), 100);
        for chunk in [1usize, 7, 33, 64] {
            let part = drain(LatentStream::new(DatasetKind::NusWideLike, &cfg, 100, 9), chunk);
            assert_eq!(full, part, "chunk={chunk}");
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let cfg = DatasetConfig::tiny();
        let a = drain(LatentStream::new(DatasetKind::Cifar10Like, &cfg, 50, 1), 16);
        let b = drain(LatentStream::new(DatasetKind::Cifar10Like, &cfg, 50, 1), 16);
        let c = drain(LatentStream::new(DatasetKind::Cifar10Like, &cfg, 50, 2), 16);
        assert_eq!(a, b);
        assert_ne!(a.0, c.0);
    }

    #[test]
    fn items_are_unit_norm_and_labeled() {
        let cfg = DatasetConfig::tiny();
        let mut s = LatentStream::new(DatasetKind::FlickrLike, &cfg, 40, 5);
        let chunk = s.next_chunk(40).unwrap();
        for i in 0..chunk.latents.rows() {
            assert!((vecops::norm(chunk.latents.row(i)) - 1.0).abs() < 1e-9);
        }
        assert!(chunk.label_masks.iter().all(|&m| m != 0), "empty label set");
        assert!(chunk.label_masks.iter().all(|&m| m >> 24 == 0), "class out of range");
        assert!(chunk.label_masks.iter().any(|&m| m.count_ones() > 1), "never multi-label");
    }

    #[test]
    fn share_mask_matches_share_label() {
        let to_set = |m: u32| -> Vec<usize> { (0..32).filter(|b| m >> b & 1 == 1).collect() };
        for (a, b) in [(0b101u32, 0b010u32), (0b101, 0b100), (0b1, 0b1), (0b110, 0b1)] {
            assert_eq!(share_mask(a, b), share_label(&to_set(a), &to_set(b)), "{a:b} {b:b}");
        }
    }

    #[test]
    fn exhausted_stream_returns_none() {
        let mut s = LatentStream::new(DatasetKind::Cifar10Like, &DatasetConfig::tiny(), 10, 3);
        assert_eq!(s.total(), 10);
        assert!(s.next_chunk(4).is_some());
        assert!(s.next_chunk(4).is_some());
        assert_eq!(s.remaining(), 2);
        assert_eq!(s.next_chunk(4).unwrap().latents.rows(), 2);
        assert!(s.next_chunk(4).is_none());
        assert_eq!(s.remaining(), 0);
    }
}
