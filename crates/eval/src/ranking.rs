//! Hamming ranking over a code database.

use crate::bitcode::hamming_scan;
use crate::BitCodes;
use std::collections::BinaryHeap;

/// Ranks database codes by Hamming distance from query codes.
///
/// Because distances are integers in `0..=bits`, ranking is a counting sort:
/// `O(n + k)` per query with stable (index-ascending) order inside each
/// distance bucket — deterministic tie-breaking matters for reproducible
/// MAP numbers.
#[derive(Debug, Clone)]
pub struct HammingRanker {
    db: BitCodes,
}

impl HammingRanker {
    /// Build a ranker over `db`.
    pub fn new(db: BitCodes) -> Self {
        Self { db }
    }

    /// The database codes.
    pub fn database(&self) -> &BitCodes {
        &self.db
    }

    /// Distances from query `qi` of `queries` to every database code.
    pub fn distances(&self, queries: &BitCodes, qi: usize) -> Vec<u32> {
        let mut out = vec![0u32; self.db.len()];
        self.distances_into(queries, qi, &mut out);
        out
    }

    /// [`Self::distances`] into a caller-provided buffer, so per-query loops
    /// (MAP, P@N, PR curves) reuse one allocation across the whole query set.
    ///
    /// # Panics
    /// Panics on code-length mismatch or if `out.len() != self.database().len()`.
    pub(crate) fn distances_into(&self, queries: &BitCodes, qi: usize, out: &mut [u32]) {
        hamming_scan::scan_into(queries, qi, &self.db, out);
    }

    /// Database indices sorted by ascending Hamming distance (stable).
    pub fn rank(&self, queries: &BitCodes, qi: usize) -> Vec<u32> {
        let dists = self.distances(queries, qi);
        counting_rank(&dists, self.db.bits())
    }

    /// The first `n` entries of [`Self::rank`] without materializing the
    /// full ranking: a bounded max-heap over `(distance, index)` keeps the
    /// `n` best candidates in `O(db · log n)` and no `O(db)` output
    /// allocation. Tie-breaking is identical to the counting sort —
    /// ascending distance, then ascending database index — because the heap
    /// orders candidates by exactly that lexicographic key.
    pub fn rank_top_n(&self, queries: &BitCodes, qi: usize, n: usize) -> Vec<u32> {
        self.rank_top_n_with_dist(queries, qi, n).into_iter().map(|(_, j)| j).collect()
    }

    /// [`Self::rank_top_n`] with the Hamming distance attached: the first
    /// `n` `(distance, index)` pairs in ascending `(distance, index)` order.
    /// This is the candidate format the online shard-merge
    /// ([`merge_top_n`]) consumes, so sharded serving can reproduce the
    /// offline ranking bit-for-bit.
    pub fn rank_top_n_with_dist(&self, queries: &BitCodes, qi: usize, n: usize) -> Vec<(u32, u32)> {
        let total = self.db.len();
        let n = n.min(total);
        if n == 0 {
            return Vec::new();
        }
        // When most of the database is requested, heap maintenance costs
        // more than the O(db + bits) counting sort; the prefix is the same.
        // Distances are computed once and reused for the output pairs —
        // re-deriving them per ranked index would double the popcount work
        // and this branch sits on the serve hot path.
        if n * 4 >= total {
            let dists = self.distances(queries, qi);
            let order = counting_rank(&dists, self.db.bits());
            return order.into_iter().take(n).map(|j| (dists[j as usize], j)).collect();
        }
        // Distances come from the batched scan kernel in SCAN_BLOCK-sized
        // stack chunks: the popcount sweep runs at full width-specialized
        // speed and the heap only ever sees a 2 KB resident buffer.
        let mut heap: BinaryHeap<(u32, u32)> = BinaryHeap::with_capacity(n + 1);
        let mut block = [0u32; hamming_scan::SCAN_BLOCK];
        let mut start = 0;
        while start < total {
            let end = (start + hamming_scan::SCAN_BLOCK).min(total);
            let dists = &mut block[..end - start];
            hamming_scan::scan_range_into(queries, qi, &self.db, start..end, dists);
            for (off, &d) in dists.iter().enumerate() {
                let cand = (d, (start + off) as u32);
                if heap.len() < n {
                    heap.push(cand);
                } else if let Some(&worst) = heap.peek() {
                    if cand < worst {
                        heap.pop();
                        heap.push(cand);
                    }
                }
            }
            start = end;
        }
        heap.into_sorted_vec()
    }
}

/// Merge per-shard top-`n` candidate lists into the global top-`n`.
///
/// Each shard list holds `(distance, global_index)` pairs — that shard's
/// best `min(n, shard_len)` candidates, e.g. from
/// [`HammingRanker::rank_top_n_with_dist`] over a contiguous slice of the
/// database with the slice offset added to every index. The merged result
/// is ordered by ascending `(distance, index)` — exactly the counting-sort
/// tie-breaking contract of [`HammingRanker::rank`] — so a sharded deployment
/// returns bitwise-identical rankings to a single-shard one, for any shard
/// count, as long as the shards partition the database into contiguous
/// index ranges.
pub fn merge_top_n(shards: &[Vec<(u32, u32)>], n: usize) -> Vec<(u32, u32)> {
    let mut all: Vec<(u32, u32)> = shards.concat();
    // Indices are unique across shards, so the lexicographic key is unique
    // and an unstable sort is deterministic.
    all.sort_unstable();
    all.truncate(n);
    all
}

/// Counting sort of indices by distance value.
fn counting_rank(dists: &[u32], max_dist: usize) -> Vec<u32> {
    let mut buckets = vec![0u32; max_dist + 2];
    for &d in dists {
        buckets[d as usize + 1] += 1;
    }
    for i in 1..buckets.len() {
        buckets[i] += buckets[i - 1];
    }
    let mut out = vec![0u32; dists.len()];
    for (idx, &d) in dists.iter().enumerate() {
        let slot = &mut buckets[d as usize];
        out[*slot as usize] = idx as u32;
        *slot += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_linalg::Matrix;

    fn codes(rows: &[Vec<f64>]) -> BitCodes {
        BitCodes::from_real(&Matrix::from_rows(rows))
    }

    #[test]
    fn rank_orders_by_distance() {
        let db = codes(&[
            vec![1.0, 1.0, 1.0, 1.0],     // d=4 from query
            vec![-1.0, -1.0, -1.0, -1.0], // d=0
            vec![1.0, -1.0, -1.0, -1.0],  // d=1
        ]);
        let q = codes(&[vec![-1.0, -1.0, -1.0, -1.0]]);
        let ranker = HammingRanker::new(db);
        assert_eq!(ranker.rank(&q, 0), vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_index() {
        let db = codes(&[
            vec![1.0, -1.0],  // d=1
            vec![-1.0, 1.0],  // d=1
            vec![-1.0, -1.0], // d=0
        ]);
        let q = codes(&[vec![-1.0, -1.0]]);
        let ranker = HammingRanker::new(db);
        assert_eq!(ranker.rank(&q, 0), vec![2, 0, 1]);
    }

    #[test]
    fn top_n_breaks_ties_like_full_rank() {
        // Six codes, all tied at distance 1 except one exact match — the
        // heap path (n*4 < total) must order ties by ascending index just
        // like the counting sort.
        let db = codes(&[
            vec![1.0, -1.0, -1.0],  // d=1
            vec![-1.0, 1.0, -1.0],  // d=1
            vec![-1.0, -1.0, -1.0], // d=0
            vec![-1.0, -1.0, 1.0],  // d=1
            vec![1.0, -1.0, -1.0],  // d=1 (duplicate of 0)
            vec![-1.0, 1.0, -1.0],  // d=1 (duplicate of 1)
        ]);
        let q = codes(&[vec![-1.0, -1.0, -1.0]]);
        let ranker = HammingRanker::new(db);
        let full = ranker.rank(&q, 0);
        assert_eq!(full, vec![2, 0, 1, 3, 4, 5]);
        for n in 0..=6 {
            assert_eq!(ranker.rank_top_n(&q, 0, n), full[..n].to_vec(), "n={n}");
        }
    }

    #[test]
    fn top_n_heap_path_matches_counting_sort() {
        // 16 codes with many duplicate distances; n=2 forces the bounded
        // heap (2*4 < 16) and must reproduce the stable prefix.
        let rows: Vec<Vec<f64>> = (0..16)
            .map(|i| (0..4).map(|b| if (i >> b) & 1 == 1 { 1.0 } else { -1.0 }).collect())
            .collect();
        let db = codes(&rows);
        let q = codes(&[vec![-1.0, -1.0, -1.0, -1.0]]);
        let ranker = HammingRanker::new(db);
        let full = ranker.rank(&q, 0);
        for n in [1usize, 2, 3] {
            assert_eq!(ranker.rank_top_n(&q, 0, n), full[..n].to_vec(), "n={n}");
        }
    }

    /// Global top-n via `shards` contiguous slices + [`merge_top_n`].
    fn sharded_top_n(db: &BitCodes, q: &BitCodes, shards: usize, n: usize) -> Vec<(u32, u32)> {
        let bands = uhscm_linalg::par::partition(db.len(), shards);
        let per_shard: Vec<Vec<(u32, u32)>> = bands
            .into_iter()
            .map(|r| {
                let offset = r.start as u32;
                let local = HammingRanker::new(db.slice(r));
                local
                    .rank_top_n_with_dist(q, 0, n)
                    .into_iter()
                    .map(|(d, j)| (d, j + offset))
                    .collect()
            })
            .collect();
        merge_top_n(&per_shard, n)
    }

    #[test]
    fn sharded_merge_matches_single_shard_on_crafted_ties() {
        // 24 codes built so nearly everything ties: only 3 bits => distances
        // in 0..=3, eight codes per distance bucket on average. Tie-breaking
        // by ascending global index is the whole test.
        let rows: Vec<Vec<f64>> = (0..24)
            .map(|i| (0..3).map(|b| if (i >> b) & 1 == 1 { 1.0 } else { -1.0 }).collect())
            .collect();
        let db = codes(&rows);
        let q = codes(&[vec![-1.0, 1.0, -1.0]]);
        let ranker = HammingRanker::new(db.clone());
        for n in [0usize, 1, 3, 5, 8, 24, 30] {
            let oracle = ranker.rank_top_n_with_dist(&q, 0, n);
            assert_eq!(
                oracle.iter().map(|&(_, j)| j).collect::<Vec<_>>(),
                ranker.rank_top_n(&q, 0, n),
                "with_dist must agree with rank_top_n at n={n}"
            );
            for shards in [1usize, 2, 4] {
                assert_eq!(
                    sharded_top_n(&db, &q, shards, n),
                    oracle,
                    "shards={shards} n={n} must be bit-for-bit identical"
                );
            }
        }
    }

    #[test]
    fn sharded_merge_handles_duplicate_codes_across_shard_boundaries() {
        // Every code identical: all distances tie, so the merged ranking
        // must be exactly 0..n in index order for any shard count.
        let db = codes(&vec![vec![1.0, -1.0, 1.0, 1.0]; 10]);
        let q = codes(&[vec![-1.0, -1.0, 1.0, 1.0]]);
        let ranker = HammingRanker::new(db.clone());
        for shards in [1usize, 2, 4] {
            let merged = sharded_top_n(&db, &q, shards, 7);
            assert_eq!(merged, ranker.rank_top_n_with_dist(&q, 0, 7), "shards={shards}");
            assert_eq!(
                merged.iter().map(|&(_, j)| j).collect::<Vec<_>>(),
                vec![0, 1, 2, 3, 4, 5, 6]
            );
        }
    }

    #[test]
    fn merge_top_n_orders_by_distance_then_index() {
        let a = vec![(0u32, 4u32), (2, 5)];
        let b = vec![(0u32, 1u32), (2, 2)];
        assert_eq!(merge_top_n(&[a, b], 3), vec![(0, 1), (0, 4), (2, 2)]);
        assert_eq!(merge_top_n(&[], 3), Vec::<(u32, u32)>::new());
    }

    #[test]
    fn rank_is_permutation() {
        let db = codes(&[
            vec![1.0, -1.0, 1.0],
            vec![-1.0, -1.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![-1.0, 1.0, -1.0],
            vec![1.0, 1.0, -1.0],
        ]);
        let q = codes(&[vec![1.0, 1.0, 1.0]]);
        let ranker = HammingRanker::new(db);
        let mut r = ranker.rank(&q, 0);
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2, 3, 4]);
    }
}
