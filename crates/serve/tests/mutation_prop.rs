//! Property test for the generation-swapped [`ShardedIndex`] under
//! arbitrary insert/remove/query interleavings, seeded from the
//! `HashIndex` oracle test in `crates/eval/tests/index_prop.rs`.
//!
//! Two independent oracles pin each committed generation:
//!
//! * a **linear scan** over a mirror of everything ever inserted plus a
//!   liveness flag — ground truth for the `(distance, index)`-ascending
//!   top-`n` contract;
//! * the existing [`HashIndex`] (multi-probe buckets + tombstones), driven
//!   through the same interleaving — two unrelated index structures must
//!   agree bit-for-bit on every prefix of the ranking.
//!
//! The same operation stream is replayed against shard counts {1, 2, 4}:
//! segment layout must never leak into results, commits must bump the
//! generation by exactly one, and no-op removes must not commit. Each step
//! also runs one multi-query `search_batch` with mixed depths under 1, 2
//! and 3 threads: batch composition and thread count must not leak either.

use proptest::prelude::*;
use uhscm_eval::{BitCodes, HashIndex};
use uhscm_linalg::{par, rng};
use uhscm_serve::ShardedIndex;

/// One step of an interleaving: `true` inserts `1 + (param % 3)` fresh
/// codes, `false` removes item `param % total` (possibly already removed).
fn ops() -> impl Strategy<Value = Vec<(bool, u64)>> {
    prop::collection::vec((any::<bool>(), any::<u64>()), 1..24)
}

/// Ground truth: brute-force top-`n` for query `qi` over the live mirror in
/// the offline ranker's `(distance, index)`-ascending order.
fn linear_top_n(
    all: &BitCodes,
    alive: &[bool],
    q: &BitCodes,
    qi: usize,
    n: usize,
) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> =
        (0..all.len()).filter(|&j| alive[j]).map(|j| (q.hamming(qi, all, j), j as u32)).collect();
    v.sort_unstable();
    v.truncate(n);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_mutations_match_linear_scan_and_hash_index_oracles(
        seed in any::<u64>(),
        n0 in 1usize..24,
        bits in 4usize..24,
        ops in ops(),
    ) {
        let mut r = rng::seeded(seed);
        let initial = BitCodes::from_real(&rng::gauss_matrix(&mut r, n0, bits, 1.0));
        let q = BitCodes::from_real(&rng::gauss_matrix(&mut r, 1, bits, 1.0));
        // The batch: `q` itself plus three more queries, one per depth.
        let mut batch = q.clone();
        batch.extend(&BitCodes::from_real(&rng::gauss_matrix(&mut r, 3, bits, 1.0)));

        let indexes: Vec<ShardedIndex> =
            [1usize, 2, 4].iter().map(|&s| ShardedIndex::new(&initial, s)).collect();
        // Genesis splits into at most `len` non-empty bands; every insert
        // afterwards appends exactly one segment.
        let genesis_segments: Vec<usize> =
            [1usize, 2, 4].iter().map(|&s| s.min(initial.len())).collect();
        let mut inserts_done = 0usize;
        let mut hash_oracle = HashIndex::build(initial.clone(), 4);
        let mut all = initial; // mirror of everything ever inserted
        let mut alive = vec![true; all.len()];
        let mut expected_gen = 0u64;

        for (step, &(is_insert, param)) in ops.iter().enumerate() {
            if is_insert {
                let count = 1 + (param % 3) as usize;
                let fresh = BitCodes::from_real(&rng::gauss_matrix(&mut r, count, bits, 1.0));
                expected_gen += 1;
                for (s, index) in indexes.iter().enumerate() {
                    let commit = index.insert(&fresh);
                    prop_assert_eq!(commit.generation, expected_gen,
                        "step {} shards#{}: generation", step, s);
                    prop_assert_eq!(commit.first_index as usize, all.len(),
                        "step {} shards#{}: insert offset", step, s);
                    prop_assert_eq!(commit.count, fresh.len());
                }
                prop_assert_eq!(hash_oracle.insert(&fresh), all.len());
                all.extend(&fresh);
                alive.resize(all.len(), true);
                inserts_done += 1;
            } else {
                let target = (param % all.len() as u64) as usize;
                let was_alive = alive[target];
                // A state change commits exactly one generation; a no-op
                // remove commits nothing (else generation numbers would
                // stop mapping 1:1 onto state changes).
                if was_alive {
                    expected_gen += 1;
                }
                for (s, index) in indexes.iter().enumerate() {
                    let commit = index.remove(target);
                    prop_assert_eq!(commit.removed, was_alive,
                        "step {} shards#{}: remove({}) presence", step, s, target);
                    prop_assert_eq!(commit.generation, expected_gen,
                        "step {} shards#{}: generation", step, s);
                    // Double remove: explicit absence, still no commit.
                    let again = index.remove(target);
                    prop_assert!(!again.removed, "step {} shards#{}: double remove", step, s);
                    prop_assert_eq!(again.generation, expected_gen);
                }
                prop_assert_eq!(hash_oracle.remove(target), was_alive);
                alive[target] = false;
            }

            let live = alive.iter().filter(|&&a| a).count();
            for (s, index) in indexes.iter().enumerate() {
                prop_assert_eq!(index.len(), live, "step {} shards#{}: live len", step, s);
                prop_assert_eq!(index.total_len(), all.len());
                prop_assert_eq!(index.generation(), expected_gen);
                // The pinned generation must agree item-by-item with the
                // liveness mirror, and hold exactly genesis-bands + one
                // segment per insert.
                let snap = index.snapshot();
                prop_assert_eq!(snap.num_segments(), genesis_segments[s] + inserts_done,
                    "step {} shards#{}: segment count", step, s);
                for (j, &a) in alive.iter().enumerate() {
                    prop_assert_eq!(snap.is_live(j), a, "step {} shards#{}: is_live({})",
                        step, s, j);
                }
            }
            prop_assert_eq!(hash_oracle.live_len(), live);

            // Every committed generation must rank bitwise-identically to
            // both oracles, at depths below, at, and beyond the live count.
            for n in [1usize, 3, all.len() + 2] {
                let want = linear_top_n(&all, &alive, &q, 0, n);
                for (s, index) in indexes.iter().enumerate() {
                    let got = index.search(&q, 0, n);
                    prop_assert_eq!(got.as_slice(), want.as_slice(),
                        "step {} shards#{} n {}: vs linear scan", step, s, n);
                }
                // HashIndex::knn emits (index, distance) and clamps to the
                // live count; remap to the serve-side (distance, index).
                let hash_want: Vec<(u32, u32)> =
                    hash_oracle.knn(&q, 0, n).iter().map(|&(j, d)| (d, j)).collect();
                prop_assert_eq!(&want[..hash_want.len()], hash_want.as_slice(),
                    "step {} n {}: vs HashIndex", step, n);
            }

            // One batch per step with depths 0, 1, the live count and more
            // than the total, at every shard and thread count.
            let depths = [0usize, 1, live, all.len() + 2];
            for (s, index) in indexes.iter().enumerate() {
                let snap = index.snapshot();
                for threads in [1usize, 2, 3] {
                    let got = par::with_threads(threads, || snap.search_batch(&batch, &depths));
                    prop_assert_eq!(got.len(), depths.len());
                    for (qi, &n) in depths.iter().enumerate() {
                        let want = linear_top_n(&all, &alive, &batch, qi, n);
                        prop_assert_eq!(got[qi].as_slice(), want.as_slice(),
                            "step {} shards#{} threads {} query {}: batch vs linear scan",
                            step, s, threads, qi);
                    }
                }
            }
        }
    }
}
