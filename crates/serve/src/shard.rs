//! Generation-swapped sharded Hamming index: copy-on-write segments with
//! lock-free-for-readers commits, searched a whole query batch at a time.
//!
//! The database lives in immutable [`Generation`]s. A generation is a list
//! of contiguous, `Arc`-shared *segments* (each a [`BitCodes`] block whose
//! local index `i` is global index `offset + i`) plus a tombstone set of
//! logically deleted global indices. Readers grab the current generation
//! with one `Arc` clone ([`ShardedIndex::snapshot`]) and search it for as
//! long as they like; writers build the next generation off the current one
//! — sharing every existing segment, appending at most one new segment, or
//! adding one tombstone — and commit it with a single pointer swap. At any
//! commit instant at most two generations are materialized (the outgoing
//! one and its child), and they share all segment storage, so the extra
//! memory is `O(inserted codes + tombstones)`, never a second database.
//!
//! Search ([`Generation::search_batch`]) walks each segment in
//! [`hamming_scan::SCAN_BLOCK`]-code blocks and scans every block for
//! every query of the batch while the block is in L1, so a batch of `b`
//! queries reads the codes once, not `b` times. Each query feeds its
//! distances to an exact streaming selector: because distances lie in
//! `0..=bits`, a `bits + 1` histogram of the accepted candidates yields the
//! running `k`-th distance, the *bound*. A run of codes at or beyond the
//! bound costs one vectorized minimum and one compare; only codes under
//! the bound are looked up in the tombstone set. Segment chunks fan out through [`par::par_map_chunks`]
//! and their per-query lists merge with [`uhscm_eval::merge_top_n`].
//!
//! Determinism contract: every query gets the `(distance, global_index)`
//! ascending top-`k` of the live codes — the offline counting-sort
//! tie-break restricted to non-tombstoned indices — at any segment count,
//! thread count and batch composition. Exactness: candidates arrive in
//! ascending global index, so when a code is rejected at `d ≥ bound`, the
//! at least `k` accepted candidates at distance `≤ bound` all precede it
//! in `(distance, index)` order; a rejected code can never place.
//! Precondition: every distance is `≤ bits`, which the [`BitCodes`]
//! constructors guarantee by refusing set padding bits. The mutation
//! proptest and the swap-boundary loopback harness pin this against
//! oracles.
//!
//! Lock discipline (checked by `xtask lint`'s lock passes): `mutate` is a
//! plain writer-serialization mutex; `current` is the published pointer.
//! Writers take `mutate`, read `current` for one line to clone the base
//! `Arc`, build the child off-lock, and write `current` for one line to
//! swap. Readers touch `current` for one line only. No blocking I/O or
//! search work ever happens under either lock.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use uhscm_eval::bitcode::hamming_scan;
use uhscm_eval::{merge_top_n, BitCodes};
use uhscm_linalg::par;
use uhscm_obs::obs_span;

/// One immutable, contiguous block of database codes. Shared by `Arc`
/// between generations: an insert-built child reuses every parent segment.
struct Segment {
    /// Global index of this segment's first code.
    offset: u32,
    codes: BitCodes,
}

/// Codes per bound check in [`Selector::offer`].
const OFFER_RUN: usize = 128;

/// Exact streaming top-`k` for one query over candidates offered in
/// ascending global index order.
struct Selector {
    /// Hits wanted (already clamped to the generation's code count).
    k: usize,
    /// Accepted candidates in arrival order; cut back to the `k` that can
    /// still place whenever it reaches `2k`, so it stays `O(k)`.
    kept: Vec<(u32, u32)>,
    /// `hist[d]`: candidates ever accepted at distance `d`.
    hist: Vec<u32>,
    /// The `k`-th smallest accepted distance once `k` candidates are in,
    /// `bits + 1` before that, 0 for `k == 0`. Only distances below it are
    /// accepted.
    bound: u32,
    /// Accepted candidates at distances below `bound`.
    ahead: usize,
}

impl Selector {
    fn new(k: usize, bits: usize) -> Self {
        let open = u32::try_from(bits).map_or(u32::MAX, |b| b.saturating_add(1));
        Selector {
            k,
            kept: Vec::new(),
            hist: vec![0; bits.saturating_add(1)],
            bound: if k == 0 { 0 } else { open },
            ahead: 0,
        }
    }

    /// No further code can enter: all `k` places are taken at distance 0.
    fn closed(&self) -> bool {
        self.bound == 0
    }

    /// Offer the distances of the consecutive global indices `first..`.
    fn offer(&mut self, dists: &[u32], first: u32, tombstones: &BTreeSet<u32>) {
        // Once the bound settles, most runs of codes hold none under it: a
        // vectorized minimum rejects a whole run without a branch per code.
        for (run, start) in dists.chunks(OFFER_RUN).zip((first..).step_by(OFFER_RUN)) {
            if run.iter().fold(u32::MAX, |m, &d| m.min(d)) >= self.bound {
                continue;
            }
            for (&d, global) in run.iter().zip(start..) {
                if d < self.bound && !tombstones.contains(&global) {
                    self.accept(d, global);
                }
            }
        }
    }

    fn accept(&mut self, d: u32, global: u32) {
        self.kept.push((d, global));
        self.hist[d as usize] += 1;
        self.ahead += 1;
        // Lower the bound until fewer than `k` accepted candidates lie
        // below it; it only ever falls, so this is `O(bits)` per query.
        while self.ahead >= self.k {
            self.bound -= 1;
            self.ahead -= self.hist[self.bound as usize] as usize;
        }
        if self.kept.len() >= self.k.saturating_mul(2) {
            self.compact();
        }
    }

    /// Keep only the candidates that still place: those below the bound
    /// and the first `k - ahead` arrivals (smallest indices) at it.
    fn compact(&mut self) {
        let bound = self.bound;
        let mut ties = self.k.saturating_sub(self.ahead);
        self.kept.retain(|&(d, _)| {
            if d == bound && ties > 0 {
                ties -= 1;
                return true;
            }
            d < bound
        });
    }

    /// The selected hits in ascending `(distance, index)` order.
    fn finish(mut self) -> Vec<(u32, u32)> {
        self.compact();
        self.kept.sort_unstable();
        self.kept
    }
}

/// One immutable, committed state of the database: `Arc`-shared segments
/// plus the tombstone set. Queries that captured a generation keep searching
/// it unaffected by later commits.
pub struct Generation {
    /// Commit sequence number; the genesis build is 0, every committed
    /// mutation increments by exactly 1.
    seq: u64,
    bits: usize,
    segments: Vec<Arc<Segment>>,
    /// Logically deleted global indices (skipped during scans).
    tombstones: BTreeSet<u32>,
    /// Total codes across all segments, including tombstoned ones.
    total: usize,
}

impl Generation {
    /// The next generation sharing every segment of `self`: `O(segments)`
    /// `Arc` clones plus one tombstone-set clone, never a code copy.
    fn child(&self) -> Generation {
        Generation {
            seq: self.seq + 1,
            bits: self.bits,
            segments: self.segments.clone(),
            tombstones: self.tombstones.clone(),
            total: self.total,
        }
    }

    /// Append `codes` as one new segment at the end of the index space.
    fn push_segment(&mut self, codes: &BitCodes) {
        self.segments.push(Arc::new(Segment { offset: self.total as u32, codes: codes.clone() }));
        self.total += codes.len();
    }

    /// Commit sequence number of this generation.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Code width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Codes ever inserted, including tombstoned ones.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Live (non-tombstoned) codes.
    pub fn live_len(&self) -> usize {
        self.total - self.tombstones.len()
    }

    /// Number of segments (genesis bands plus one per committed insert).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Whether global index `i` exists and is not tombstoned.
    pub fn is_live(&self, i: usize) -> bool {
        match u32::try_from(i) {
            // Indices that cannot fit the tombstone key type cannot have
            // been stored either, so they are simply not live.
            Ok(key) => i < self.total && !self.tombstones.contains(&key),
            Err(_) => false,
        }
    }

    /// Global top-`n` for query `qi` of `queries`: a one-query
    /// [`Self::search_batch`].
    pub fn search(&self, queries: &BitCodes, qi: usize, n: usize) -> Vec<(u32, u32)> {
        let one = queries.slice(qi..qi.saturating_add(1));
        self.search_batch(&one, &[n]).pop().unwrap_or_default()
    }

    /// Global top-`top_ks[q]` for every query `q` of `queries`, as
    /// `(distance, global_index)` pairs in ascending `(distance, index)`
    /// order over the live codes — the offline ranker's counting-sort
    /// tie-break contract, restricted to non-tombstoned indices. One pass
    /// over the codes serves the whole batch (see the module docs).
    ///
    /// Segment chunks are searched via [`par::par_map_chunks`], so the
    /// fan-out uses the same deterministic worker pool as the dense kernels
    /// (and runs serially under a serial plan, bit-for-bit identically).
    ///
    /// # Panics
    ///
    /// Panics if `top_ks.len() != queries.len()`, or if a query is scanned
    /// against codes of a different width.
    pub fn search_batch(&self, queries: &BitCodes, top_ks: &[usize]) -> Vec<Vec<(u32, u32)>> {
        obs_span!("serve_search");
        assert_eq!(top_ks.len(), queries.len(), "one top_k per query");
        // No search can return more than `total` hits, so clamping the
        // caller's `top_k` never changes a result and bounds every buffer.
        let wants: Vec<usize> = top_ks.iter().map(|&n| n.min(self.total)).collect();
        // Work estimate: one popcount pass over every stored word per query.
        let words = self.bits.div_ceil(64).max(1);
        let work = self.total.saturating_mul(words).saturating_mul(wants.len());
        let mut chunks = par::par_map_chunks(self.segments.len(), work, |chunk| {
            self.scan_chunk(&self.segments[chunk], queries, &wants)
        });
        wants
            .iter()
            .enumerate()
            .map(|(q, &want)| {
                let lists: Vec<Vec<(u32, u32)>> =
                    chunks.iter_mut().map(|chunk| std::mem::take(&mut chunk[q])).collect();
                merge_top_n(&lists, want)
            })
            .collect()
    }

    /// Per-query exact top-`wants[q]` over the live codes of `segments`, a
    /// run of segments in ascending offset order.
    fn scan_chunk(
        &self,
        segments: &[Arc<Segment>],
        queries: &BitCodes,
        wants: &[usize],
    ) -> Vec<Vec<(u32, u32)>> {
        let mut selectors: Vec<Selector> =
            wants.iter().map(|&k| Selector::new(k, self.bits)).collect();
        let mut block = [0u32; hamming_scan::SCAN_BLOCK];
        for segment in segments {
            let len = segment.codes.len();
            for start in (0..len).step_by(hamming_scan::SCAN_BLOCK) {
                let end = len.min(start + hamming_scan::SCAN_BLOCK);
                let first = segment.offset + start as u32;
                let dists = &mut block[..end - start];
                for (q, selector) in selectors.iter_mut().enumerate() {
                    if selector.closed() {
                        continue;
                    }
                    hamming_scan::scan_range_into(queries, q, &segment.codes, start..end, dists);
                    selector.offer(dists, first, &self.tombstones);
                }
            }
        }
        selectors.into_iter().map(Selector::finish).collect()
    }
}

/// Streaming constructor for a genesis generation: segments are pushed one
/// at a time (e.g. straight off a `uhscm-store` segment reader) and become
/// the contiguous bands of generation 0 — the database is never
/// concatenated in memory. By the determinism contract above, an index
/// built from *any* segmentation of the same codes answers every query
/// bit-for-bit identically to [`ShardedIndex::new`] on the materialized
/// database, at any shard count.
pub struct GenesisBuilder {
    bits: usize,
    segments: Vec<Arc<Segment>>,
    total: usize,
}

impl GenesisBuilder {
    /// Start an empty genesis of `bits`-bit codes.
    pub fn new(bits: usize) -> Self {
        Self { bits, segments: Vec::new(), total: 0 }
    }

    /// Append `codes` as the next contiguous band (taking ownership — the
    /// chunk is the only copy held). Empty chunks are skipped.
    ///
    /// # Panics
    ///
    /// Panics on a bit-width mismatch or if the total code count would
    /// exceed the `u32` global index space.
    pub fn push(&mut self, codes: BitCodes) {
        assert_eq!(codes.bits(), self.bits, "code length mismatch");
        if codes.is_empty() {
            return;
        }
        assert!(codes.len() <= (u32::MAX as usize) - self.total, "genesis exceeds u32 index space");
        let offset = self.total as u32;
        self.total += codes.len();
        self.segments.push(Arc::new(Segment { offset, codes }));
    }

    /// Codes pushed so far.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Seal the bands into generation 0 of a [`ShardedIndex`].
    pub fn finish(self) -> ShardedIndex {
        let genesis = Arc::new(Generation {
            seq: 0,
            bits: self.bits,
            segments: self.segments,
            tombstones: BTreeSet::new(),
            total: self.total,
        });
        ShardedIndex { current: RwLock::new(genesis), mutate: Mutex::new(()), bits: self.bits }
    }
}

/// Receipt of a committed insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertCommit {
    /// Sequence number of the generation this insert committed as.
    pub generation: u64,
    /// Global index of the first inserted code.
    pub first_index: u32,
    /// How many codes were inserted.
    pub count: usize,
    /// Live codes after the commit.
    pub live: usize,
}

/// Receipt of a remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoveCommit {
    /// Sequence number of the committed generation. Unchanged (no commit)
    /// when `removed` is false.
    pub generation: u64,
    /// Whether the item was live; removing an already-dead item is a no-op
    /// and does not commit a new generation.
    pub removed: bool,
    /// Live codes after the operation.
    pub live: usize,
}

/// A sharded Hamming index with a copy-on-write write path.
///
/// Reads ([`Self::snapshot`], [`Self::search`]) are wait-free with respect
/// to writers apart from one briefly-held pointer read; writes
/// ([`Self::insert`], [`Self::remove`]) serialize on an internal mutex,
/// build the child generation off-lock, and publish it atomically.
pub struct ShardedIndex {
    /// The current committed generation; swapped whole on every commit.
    current: RwLock<Arc<Generation>>,
    /// Serializes writers: one copy-on-write child build at a time.
    mutate: Mutex<()>,
    bits: usize,
}

/// `current` poisoning requires a writer panicking mid-swap; the stored
/// value is a plain `Arc` (intact after any partial operation), so recover
/// the guard instead of cascading the panic into every query.
fn read_current(lock: &RwLock<Arc<Generation>>) -> RwLockReadGuard<'_, Arc<Generation>> {
    match lock.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Write-side twin of [`read_current`]; same poisoning argument.
fn write_current(lock: &RwLock<Arc<Generation>>) -> RwLockWriteGuard<'_, Arc<Generation>> {
    match lock.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Writer-gate recovery: the gate protects no data (it only serializes
/// copy-on-write builds), so a poisoned gate is always safe to reuse.
fn lock_mutate(lock: &Mutex<()>) -> MutexGuard<'_, ()> {
    match lock.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl ShardedIndex {
    /// Build generation 0 from `db` split into `num_shards` contiguous
    /// bands (clamped to `1..=len` non-empty bands; an empty database
    /// yields no bands).
    ///
    /// # Panics
    ///
    /// Panics if `db` holds more codes than the `u32` global index space.
    pub fn new(db: &BitCodes, num_shards: usize) -> Self {
        let mut genesis = GenesisBuilder::new(db.bits());
        for band in par::partition(db.len(), num_shards) {
            genesis.push(db.slice(band));
        }
        genesis.finish()
    }

    /// The current committed generation, pinned: later commits never touch
    /// it, so a query (or a whole batch) can search one coherent state.
    pub fn snapshot(&self) -> Arc<Generation> {
        Arc::clone(&read_current(&self.current))
    }

    /// Live (non-tombstoned) codes in the current generation.
    pub fn len(&self) -> usize {
        self.snapshot().live_len()
    }

    /// Codes ever inserted (including tombstoned) in the current generation.
    pub fn total_len(&self) -> usize {
        self.snapshot().total_len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Code width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Segments in the current generation (genesis bands + one per insert).
    pub fn num_shards(&self) -> usize {
        self.snapshot().num_segments()
    }

    /// Sequence number of the current committed generation.
    pub fn generation(&self) -> u64 {
        self.snapshot().seq()
    }

    /// Search the current generation (see [`Generation::search`]). Pins a
    /// snapshot first, so a concurrent commit cannot tear the scan.
    pub fn search(&self, queries: &BitCodes, qi: usize, n: usize) -> Vec<(u32, u32)> {
        self.snapshot().search(queries, qi, n)
    }

    /// Append `added` as a new segment and commit the child generation.
    /// Queries in flight keep their pinned generation; queries admitted
    /// after the swap see the new codes. An empty `added` commits nothing.
    ///
    /// # Panics
    /// Panics if `added`'s bit width differs from the index's.
    pub fn insert(&self, added: &BitCodes) -> InsertCommit {
        assert_eq!(added.bits(), self.bits, "code length mismatch");
        let _writer = lock_mutate(&self.mutate);
        let cur = self.snapshot();
        if added.is_empty() {
            return InsertCommit {
                generation: cur.seq(),
                first_index: cur.total_len() as u32,
                count: 0,
                live: cur.live_len(),
            };
        }
        let mut next = cur.child();
        next.push_segment(added);
        let commit = InsertCommit {
            generation: next.seq(),
            first_index: cur.total_len() as u32,
            count: added.len(),
            live: next.live_len(),
        };
        self.commit(next);
        commit
    }

    /// Tombstone global index `index` and commit the child generation.
    /// Removing an already-dead item reports `removed: false` without
    /// committing (idempotence keeps generation numbers meaningful: every
    /// committed sequence number corresponds to exactly one state change).
    ///
    /// # Panics
    /// Panics if `index` is out of range (the server validates client
    /// indices against [`Self::total_len`] before calling; total length
    /// never shrinks, so the check cannot go stale).
    pub fn remove(&self, index: usize) -> RemoveCommit {
        let _writer = lock_mutate(&self.mutate);
        let cur = self.snapshot();
        assert!(index < cur.total_len(), "remove index {index} out of range");
        if !cur.is_live(index) {
            return RemoveCommit { generation: cur.seq(), removed: false, live: cur.live_len() };
        }
        let mut next = cur.child();
        // The range assert above bounds `index` by the stored total, which
        // itself fits `u32` by construction, so the conversion is total;
        // `try_from` keeps the narrowing visibly checked.
        let Ok(key) = u32::try_from(index) else {
            return RemoveCommit { generation: cur.seq(), removed: false, live: cur.live_len() };
        };
        next.tombstones.insert(key);
        let commit = RemoveCommit { generation: next.seq(), removed: true, live: next.live_len() };
        self.commit(next);
        commit
    }

    /// Publish `next` as the current generation: one pointer swap, after
    /// which the old generation lives only as long as its pinned snapshots.
    /// Telemetry for the swap is emitted by the serving layer (off the
    /// writer gate).
    fn commit(&self, next: Generation) {
        *write_current(&self.current) = Arc::new(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhscm_eval::{BitCodes, HammingRanker};

    /// Deterministic toy codes with heavy distance ties.
    fn toy_codes(n: usize, bits: usize) -> BitCodes {
        let rows: Vec<Vec<bool>> =
            (0..n).map(|i| (0..bits).map(|b| (i >> (b % 4)) & 1 == 1).collect()).collect();
        BitCodes::from_bools(&rows)
    }

    #[test]
    fn sharded_search_matches_single_ranker_at_all_shard_counts() {
        let db = toy_codes(33, 7);
        let queries = toy_codes(5, 7);
        let oracle = HammingRanker::new(db.clone());
        for shards in [1usize, 2, 4, 9, 33, 64] {
            let index = ShardedIndex::new(&db, shards);
            for qi in 0..queries.len() {
                for n in [0usize, 1, 3, 10, 33, 50] {
                    let got = index.search(&queries, qi, n);
                    let want = oracle.rank_top_n_with_dist(&queries, qi, n);
                    assert_eq!(got, want, "shards={shards} qi={qi} n={n}");
                }
            }
        }
    }

    #[test]
    fn empty_database_yields_no_hits() {
        let db = BitCodes::from_bools(&Vec::<Vec<bool>>::new());
        let index = ShardedIndex::new(&db, 4);
        assert!(index.is_empty());
        assert_eq!(index.num_shards(), 0);
        let queries = toy_codes(1, 0);
        assert_eq!(index.search(&queries, 0, 5), Vec::new());
    }

    #[test]
    fn shard_count_is_clamped_to_database_size() {
        let db = toy_codes(3, 4);
        let index = ShardedIndex::new(&db, 16);
        assert_eq!(index.num_shards(), 3);
        assert_eq!(index.len(), 3);
        assert_eq!(index.bits(), 4);
    }

    #[test]
    fn insert_appends_a_segment_and_bumps_the_generation() {
        let db = toy_codes(10, 5);
        let index = ShardedIndex::new(&db, 2);
        assert_eq!(index.generation(), 0);

        let added = toy_codes(3, 5);
        let commit = index.insert(&added);
        assert_eq!(commit.generation, 1);
        assert_eq!(commit.first_index, 10);
        assert_eq!(commit.count, 3);
        assert_eq!(commit.live, 13);
        assert_eq!(index.len(), 13);
        assert_eq!(index.total_len(), 13);
        assert_eq!(index.num_shards(), 3, "genesis bands plus one insert segment");

        // The combined index ranks exactly like a from-scratch database.
        let mut full = db.clone();
        full.extend(&added);
        let oracle = HammingRanker::new(full);
        let queries = toy_codes(2, 5);
        for qi in 0..2 {
            assert_eq!(
                index.search(&queries, qi, 13),
                oracle.rank_top_n_with_dist(&queries, qi, 13)
            );
        }

        // Inserting nothing commits nothing (empty codes of matching width).
        let noop = index.insert(&db.slice(0..0));
        assert_eq!((noop.generation, noop.count), (1, 0));
        assert_eq!(index.generation(), 1);
    }

    #[test]
    fn remove_tombstones_without_disturbing_other_indices() {
        let db = toy_codes(12, 4);
        let index = ShardedIndex::new(&db, 3);
        let queries = toy_codes(1, 4);

        let before = index.search(&queries, 0, 12);
        let victim = before[0].1;
        let commit = index.remove(victim as usize);
        assert!(commit.removed);
        assert_eq!(commit.generation, 1);
        assert_eq!(commit.live, 11);
        assert_eq!(index.len(), 11);
        assert_eq!(index.total_len(), 12);

        let after = index.search(&queries, 0, 12);
        assert_eq!(after.len(), 11);
        assert!(after.iter().all(|&(_, j)| j != victim));
        // Surviving hits keep their global indices and relative order.
        let expect: Vec<(u32, u32)> =
            before.iter().copied().filter(|&(_, j)| j != victim).collect();
        assert_eq!(after, expect);

        // Double remove: no commit, explicit absence.
        let again = index.remove(victim as usize);
        assert!(!again.removed);
        assert_eq!(again.generation, 1);
        assert_eq!(index.generation(), 1);
    }

    #[test]
    fn pinned_snapshots_survive_later_commits() {
        let db = toy_codes(8, 4);
        let index = ShardedIndex::new(&db, 2);
        let queries = toy_codes(1, 4);

        let pinned = index.snapshot();
        let want = pinned.search(&queries, 0, 8);

        index.insert(&toy_codes(4, 4));
        index.remove(0);
        assert_eq!(index.generation(), 2);

        // The pinned generation still answers exactly as it did at commit 0.
        assert_eq!(pinned.seq(), 0);
        assert_eq!(pinned.search(&queries, 0, 8), want);
        assert_eq!(pinned.total_len(), 8);
        // And the live index has moved on.
        assert_eq!(index.total_len(), 12);
        assert_eq!(index.len(), 11);
    }

    #[test]
    fn genesis_builder_matches_materialized_index_at_any_banding() {
        let db = toy_codes(33, 7);
        let queries = toy_codes(5, 7);
        let oracle = HammingRanker::new(db.clone());
        for band in [1usize, 2, 4, 5, 33] {
            let mut b = GenesisBuilder::new(db.bits());
            let mut at = 0;
            while at < db.len() {
                let end = (at + band).min(db.len());
                b.push(db.slice(at..end));
                at = end;
            }
            assert_eq!(b.total_len(), db.len());
            let index = b.finish();
            assert_eq!(index.len(), db.len());
            for qi in 0..queries.len() {
                for n in [1usize, 3, 33] {
                    assert_eq!(
                        index.search(&queries, qi, n),
                        oracle.rank_top_n_with_dist(&queries, qi, n),
                        "band={band} qi={qi} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn genesis_builder_supports_mutations() {
        let db = toy_codes(10, 5);
        let mut b = GenesisBuilder::new(5);
        b.push(db.slice(0..6));
        b.push(db.slice(6..6)); // empty chunks are skipped
        b.push(db.slice(6..10));
        let index = b.finish();
        assert_eq!((index.num_shards(), index.generation()), (2, 0));
        let commit = index.insert(&toy_codes(3, 5));
        assert_eq!((commit.generation, commit.first_index), (1, 10));
        assert!(index.remove(0).removed);
        assert_eq!(index.len(), 12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remove_out_of_range_panics() {
        let index = ShardedIndex::new(&toy_codes(3, 4), 1);
        index.remove(3);
    }

    /// Sorted linear scan over the live codes: the selector's oracle.
    fn live_top_n(
        db: &BitCodes,
        dead: &[u32],
        q: &BitCodes,
        qi: usize,
        n: usize,
    ) -> Vec<(u32, u32)> {
        let mut all: Vec<(u32, u32)> = (0..db.len() as u32)
            .filter(|j| !dead.contains(j))
            .map(|j| (q.hamming(qi, db, j as usize), j))
            .collect();
        all.sort_unstable();
        all.truncate(n);
        all
    }

    #[test]
    fn batch_search_is_exact_with_ties_and_tombstones_at_the_bound() {
        // Query 0 is all-zero. Every code but 7, 19 and 33 sits at distance
        // 2 from it, so past the third hit all codes tie at the bound; the
        // tombstones hit the 6th place (2), a closer code (19) and an
        // inserted tie (41). Query 1 is the common code itself: everything
        // ties at distance 0, closing the selectors early. The descending
        // database (distance falls with index) makes nearly every code enter
        // and forces repeated compaction. The random database spans several
        // scan blocks and bound-check runs.
        let bits = 6;
        let code = |set: usize| (0..bits).map(|b| b < set).collect::<Vec<bool>>();
        let closer = [7usize, 19, 33];
        let ties: Vec<Vec<bool>> =
            (0..40).map(|i| if closer.contains(&i) { code(1) } else { code(2) }).collect();
        let descending: Vec<Vec<bool>> = (0..40).map(|i| code(bits - i * bits / 40)).collect();
        let noise =
            uhscm_linalg::rng::gauss_matrix(&mut uhscm_linalg::rng::seeded(5), 1300, bits, 1.0);
        let random: Vec<Vec<bool>> =
            (0..1300).map(|i| noise.row(i).iter().map(|&v| v > 0.0).collect()).collect();
        let queries = BitCodes::from_bools(&[code(0), code(2), code(0), code(3), code(2), code(0)]);
        let added = BitCodes::from_bools(&vec![code(2); 5]);
        let dead = [2u32, 19, 41];
        for rows in [ties, descending, random] {
            let genesis = BitCodes::from_bools(&rows);
            let mut db = genesis.clone();
            db.extend(&added);
            let live = db.len() - dead.len();
            let top_ks = [6, 5, 0, live, 1, db.len() + 5];
            for shards in [1usize, 2, 3, 40] {
                let index = ShardedIndex::new(&genesis, shards);
                index.insert(&added);
                for &j in &dead {
                    assert!(index.remove(j as usize).removed);
                }
                let snap = index.snapshot();
                for threads in [1usize, 2, 3] {
                    let got = par::with_threads(threads, || snap.search_batch(&queries, &top_ks));
                    for (qi, hits) in got.iter().enumerate() {
                        let want = live_top_n(&db, &dead, &queries, qi, top_ks[qi]);
                        assert_eq!(hits, &want, "shards={shards} threads={threads} qi={qi}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one top_k per query")]
    fn batch_search_needs_one_top_k_per_query() {
        let index = ShardedIndex::new(&toy_codes(3, 4), 1);
        index.snapshot().search_batch(&toy_codes(2, 4), &[1]);
    }
}
