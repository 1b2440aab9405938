//! Bit-packed binary hash codes.
//!
//! The paper's codes live in `{-1, +1}^k`; retrieval only ever consumes them
//! through Hamming distance, `H_d(b_i, b_j) = (k − b_i^T b_j) / 2`, which for
//! packed bits is exactly the popcount of the XOR. Packing 64 bits per word
//! makes Hamming ranking over the whole database a handful of XOR/popcount
//! instructions per pair.

use std::io::{self, Read, Write};
use uhscm_linalg::Matrix;

const MAGIC: &[u8; 4] = b"UHBC";
const FORMAT_VERSION: u32 = 1;
/// Words [`BitCodes::load`] reads per chunk (8 KiB of stack).
const LOAD_CHUNK_WORDS: usize = 1024;

/// A set of `n` binary codes of `bits` bits each, packed 64 per word.
///
/// Bit convention: bit set ⇔ the real-valued code entry is `> 0` ⇔ `+1`
/// (`sgn` in the paper returns −1 at zero, matching "returns 1 if the input
/// is positive and −1 otherwise").
///
/// ```
/// use uhscm_eval::BitCodes;
/// use uhscm_linalg::Matrix;
///
/// let relaxed = Matrix::from_rows(&[vec![0.9, -0.2, 0.4], vec![-0.3, -0.8, 0.4]]);
/// let codes = BitCodes::from_real(&relaxed);
/// assert_eq!(codes.bits(), 3);
/// assert_eq!(codes.hamming(0, &codes, 1), 1); // only bit 0 differs
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitCodes {
    n: usize,
    bits: usize,
    words_per_code: usize,
    data: Vec<u64>,
}

impl BitCodes {
    /// Quantize the rows of a real-valued code matrix with `sgn`.
    pub fn from_real(codes: &Matrix) -> Self {
        let n = codes.rows();
        let bits = codes.cols();
        let words_per_code = bits.div_ceil(64);
        let mut data = vec![0u64; n * words_per_code];
        for i in 0..n {
            let row = codes.row(i);
            let words = &mut data[i * words_per_code..(i + 1) * words_per_code];
            for (b, &v) in row.iter().enumerate() {
                if v > 0.0 {
                    words[b / 64] |= 1u64 << (b % 64);
                }
            }
        }
        Self { n, bits, words_per_code, data }
    }

    /// Build from explicit ±1 sign rows (`true` ⇔ +1).
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_bools(rows: &[Vec<bool>]) -> Self {
        let n = rows.len();
        let bits = rows.first().map_or(0, Vec::len);
        let words_per_code = bits.div_ceil(64);
        let mut data = vec![0u64; n * words_per_code];
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), bits, "ragged code rows");
            let words = &mut data[i * words_per_code..(i + 1) * words_per_code];
            for (b, &set) in row.iter().enumerate() {
                if set {
                    words[b / 64] |= 1u64 << (b % 64);
                }
            }
        }
        Self { n, bits, words_per_code, data }
    }

    /// Number of codes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Code length in bits (`k`).
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The packed words of code `i`.
    #[inline]
    pub fn code(&self, i: usize) -> &[u64] {
        &self.data[i * self.words_per_code..(i + 1) * self.words_per_code]
    }

    /// The whole packed word buffer, codes laid out contiguously
    /// (`words_per_code` words per code). This is the serialization surface
    /// consumed by the segment store.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.data
    }

    /// Rebuild a code set from a raw packed word buffer, validating the two
    /// invariants every scan kernel relies on: `data.len() == n ·
    /// bits.div_ceil(64)`, and no padding bit above `bits` is set in any
    /// word (whole-word popcounts would otherwise overcount distances).
    ///
    /// Returns a static description of the violated invariant on failure;
    /// deserializers map it into their own typed error. Hostile input must
    /// flow through this constructor — never into the private fields.
    pub fn from_words(n: usize, bits: usize, data: Vec<u64>) -> Result<BitCodes, &'static str> {
        let words_per_code = bits.div_ceil(64);
        let expect = n.checked_mul(words_per_code).ok_or("code buffer length overflows")?;
        if data.len() != expect {
            return Err("code buffer length mismatch");
        }
        if bits % 64 != 0 && words_per_code > 0 {
            let pad_mask = !0u64 << (bits % 64);
            let mut tail = data.iter().skip(words_per_code - 1).step_by(words_per_code);
            if tail.any(|&w| w & pad_mask != 0) {
                return Err("padding bits set above code width");
            }
        }
        Ok(BitCodes { n, bits, words_per_code, data })
    }

    /// Hamming distance between code `i` of `self` and code `j` of `other`.
    ///
    /// # Panics
    /// Panics (debug) if the two sets have different code lengths.
    #[inline]
    pub fn hamming(&self, i: usize, other: &BitCodes, j: usize) -> u32 {
        debug_assert_eq!(self.bits, other.bits, "code length mismatch");
        self.code(i).iter().zip(other.code(j)).map(|(a, b)| (a ^ b).count_ones()).sum()
    }

    /// Unpack code `i` back to ±1 reals.
    ///
    /// Walks each packed word with a shift instead of re-deriving a
    /// word/bit pair per output element (the old div/mod-per-bit loop).
    pub fn unpack(&self, i: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.bits);
        let mut remaining = self.bits;
        for &word in self.code(i) {
            let take = remaining.min(64);
            let mut w = word;
            for _ in 0..take {
                out.push(if w & 1 == 1 { 1.0 } else { -1.0 });
                w >>= 1;
            }
            remaining -= take;
        }
        out
    }

    /// Serialize the packed codes (magic `UHBC`, version, dims, raw words —
    /// all little-endian). A trained system persists its database codes once
    /// and serves lookups from the reloaded set.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&(self.n as u64).to_le_bytes())?;
        w.write_all(&(self.bits as u64).to_le_bytes())?;
        for &word in &self.data {
            w.write_all(&word.to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserialize codes written by [`Self::save`].
    ///
    /// Returns `InvalidData` errors for wrong magic/version, impossible
    /// dimensions or set padding bits (the [`Self::from_words`] checks),
    /// and `UnexpectedEof` for truncation. The body is read in bounded
    /// chunks, so memory grows only with the bytes actually present, never
    /// with the count a header claims.
    pub fn load(r: &mut impl Read) -> io::Result<BitCodes> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a UHSCM bitcode file"));
        }
        let mut buf4 = [0u8; 4];
        r.read_exact(&mut buf4)?;
        let version = u32::from_le_bytes(buf4);
        if version != FORMAT_VERSION {
            return Err(bad("unsupported bitcode format version"));
        }
        let mut buf8 = [0u8; 8];
        r.read_exact(&mut buf8)?;
        let n = u64::from_le_bytes(buf8) as usize;
        r.read_exact(&mut buf8)?;
        let bits = u64::from_le_bytes(buf8) as usize;
        if bits == 0 || bits > 1 << 20 || n > 1 << 32 {
            return Err(bad("bitcode dimensions out of range"));
        }
        let total =
            n.checked_mul(bits.div_ceil(64)).ok_or_else(|| bad("bitcode size overflows"))?;
        let mut bytes = [0u8; 8 * LOAD_CHUNK_WORDS];
        let mut data = Vec::new();
        while data.len() < total {
            let chunk = &mut bytes[..8 * (total - data.len()).min(LOAD_CHUNK_WORDS)];
            r.read_exact(chunk)?;
            data.extend(chunk.chunks_exact(8).map(|b| {
                let mut word = [0u8; 8];
                word.copy_from_slice(b);
                u64::from_le_bytes(word)
            }));
        }
        BitCodes::from_words(n, bits, data).map_err(bad)
    }

    /// Append all codes from `other` (same bit width).
    ///
    /// # Panics
    /// Panics on bit-width mismatch.
    pub fn extend(&mut self, other: &BitCodes) {
        assert_eq!(self.bits, other.bits, "code length mismatch");
        self.data.extend_from_slice(&other.data);
        self.n += other.n;
    }

    /// Copy of the codes in `range` as their own set (same bit width).
    /// Shard builders cut a database into contiguous slices with this; the
    /// slice's local index `i` corresponds to global index `range.start + i`.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds or decreasing.
    pub fn slice(&self, range: std::ops::Range<usize>) -> BitCodes {
        assert!(range.start <= range.end && range.end <= self.n, "slice out of bounds");
        BitCodes {
            n: range.len(),
            bits: self.bits,
            words_per_code: self.words_per_code,
            data: self.data[range.start * self.words_per_code..range.end * self.words_per_code]
                .to_vec(),
        }
    }

    /// Unpack every code into an `n × bits` ±1 matrix.
    pub fn unpack_all(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.bits);
        for i in 0..self.n {
            m.row_mut(i).copy_from_slice(&self.unpack(i));
        }
        m
    }
}

/// Batched query-vs-database Hamming scans over the packed word buffer.
///
/// [`BitCodes::hamming`] builds two word slices per pair; fine for a single
/// distance, wasteful for the database-sweep shape every retrieval path
/// actually runs (`rank_top_n`, MAP/P@N/PR, `HashIndex` probing, the serve
/// shards). The kernels here hoist the query words once and walk the
/// database's packed `data` buffer directly, writing distances into a
/// caller-provided `&mut [u32]`.
///
/// The inner loop is monomorphized per code width: dedicated instantiations
/// for `words_per_code` ∈ {1, 2, 4} (bits ≤ 64, ≤ 128, ≤ 256 — every width
/// the paper uses lands on one of these) and a 4-unrolled generic fallback
/// for everything else. Padding bits above `bits` are never set by
/// construction, so whole-word popcounts are exact for any bit width.
///
/// Offline eval and online serving both funnel through these kernels (via
/// [`crate::HammingRanker`]), so offline == online bitwise identity of
/// rankings is preserved by construction rather than by parallel
/// maintenance of two scan loops.
pub mod hamming_scan {
    use super::BitCodes;
    use std::ops::Range;

    /// Block length used by callers that scan through a fixed stack buffer
    /// instead of materializing all `n` distances (top-`n` heaps, radius
    /// filters): 512 distances = 2 KB of stack.
    pub const SCAN_BLOCK: usize = 512;

    /// Distances from query `qi` of `queries` to every code of `db`,
    /// written to `out[j]` for database index `j`.
    ///
    /// # Panics
    /// Panics on code-length mismatch or if `out.len() != db.len()`.
    pub fn scan_into(queries: &BitCodes, qi: usize, db: &BitCodes, out: &mut [u32]) {
        scan_range_into(queries, qi, db, 0..db.n, out);
    }

    /// [`scan_into`] restricted to database indices `range`; `out[k]` holds
    /// the distance to code `range.start + k`.
    ///
    /// # Panics
    /// Panics on code-length mismatch, an out-of-bounds range, or if
    /// `out.len() != range.len()`.
    pub fn scan_range_into(
        queries: &BitCodes,
        qi: usize,
        db: &BitCodes,
        range: Range<usize>,
        out: &mut [u32],
    ) {
        assert_eq!(queries.bits, db.bits, "code length mismatch");
        assert!(range.start <= range.end && range.end <= db.n, "scan range out of bounds");
        assert_eq!(out.len(), range.len(), "scan output length mismatch");
        let w = db.words_per_code;
        if w == 0 {
            out.fill(0);
            return;
        }
        let q = queries.code(qi);
        let data = &db.data[range.start * w..range.end * w];
        match w {
            1 => scan_w::<1>(q, data, out),
            2 => scan_w::<2>(q, data, out),
            4 => scan_w::<4>(q, data, out),
            _ => scan_generic(q, data, out),
        }
    }

    /// Visit `(database_index, distance)` for each index in `indices` —
    /// the scattered-access twin of [`scan_into`] used by bucketed index
    /// probes. The query words and the width dispatch are hoisted out of
    /// the loop exactly like the contiguous scan.
    ///
    /// # Panics
    /// Panics on code-length mismatch or an out-of-range index.
    pub fn gather_each(
        queries: &BitCodes,
        qi: usize,
        db: &BitCodes,
        indices: &[u32],
        visit: impl FnMut(u32, u32),
    ) {
        assert_eq!(queries.bits, db.bits, "code length mismatch");
        let w = db.words_per_code;
        if w == 0 {
            let mut visit = visit;
            for &j in indices {
                assert!((j as usize) < db.n, "gather index out of range");
                visit(j, 0);
            }
            return;
        }
        let q = queries.code(qi);
        match w {
            1 => gather_w::<1>(q, &db.data, indices, visit),
            2 => gather_w::<2>(q, &db.data, indices, visit),
            4 => gather_w::<4>(q, &db.data, indices, visit),
            _ => gather_generic(q, &db.data, indices, visit),
        }
    }

    /// Width-monomorphized contiguous scan: the query lives in a `[u64; W]`
    /// register array and the XOR/popcount chain is fully unrolled.
    fn scan_w<const W: usize>(q: &[u64], data: &[u64], out: &mut [u32]) {
        let mut qw = [0u64; W];
        qw.copy_from_slice(q);
        for (o, code) in out.iter_mut().zip(data.chunks_exact(W)) {
            let mut d = 0u32;
            for t in 0..W {
                d += (qw[t] ^ code[t]).count_ones();
            }
            *o = d;
        }
    }

    /// Generic-width contiguous scan, manually unrolled by four words.
    fn scan_generic(q: &[u64], data: &[u64], out: &mut [u32]) {
        let w = q.len();
        for (o, code) in out.iter_mut().zip(data.chunks_exact(w)) {
            *o = wide_hamming(q, code);
        }
    }

    /// Width-monomorphized scattered gather.
    fn gather_w<const W: usize>(
        q: &[u64],
        data: &[u64],
        indices: &[u32],
        mut visit: impl FnMut(u32, u32),
    ) {
        let mut qw = [0u64; W];
        qw.copy_from_slice(q);
        for &j in indices {
            let code = &data[j as usize * W..j as usize * W + W];
            let mut d = 0u32;
            for t in 0..W {
                d += (qw[t] ^ code[t]).count_ones();
            }
            visit(j, d);
        }
    }

    /// Generic-width scattered gather.
    fn gather_generic(q: &[u64], data: &[u64], indices: &[u32], mut visit: impl FnMut(u32, u32)) {
        let w = q.len();
        for &j in indices {
            let code = &data[j as usize * w..(j as usize + 1) * w];
            visit(j, wide_hamming(q, code));
        }
    }

    /// XOR/popcount over two equal-length word slices, unrolled by four.
    #[inline]
    fn wide_hamming(q: &[u64], code: &[u64]) -> u32 {
        let mut d = 0u32;
        let mut qc = q.chunks_exact(4);
        let mut cc = code.chunks_exact(4);
        for (qs, cs) in (&mut qc).zip(&mut cc) {
            d += (qs[0] ^ cs[0]).count_ones()
                + (qs[1] ^ cs[1]).count_ones()
                + (qs[2] ^ cs[2]).count_ones()
                + (qs[3] ^ cs[3]).count_ones();
        }
        for (a, b) in qc.remainder().iter().zip(cc.remainder()) {
            d += (a ^ b).count_ones();
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_convention_positive_only() {
        // 0.0 must quantize to −1 (paper: "returns -1 otherwise").
        let m = Matrix::from_rows(&[vec![0.5, -0.5, 0.0]]);
        let codes = BitCodes::from_real(&m);
        assert_eq!(codes.unpack(0), vec![1.0, -1.0, -1.0]);
    }

    #[test]
    fn hamming_hand_computed() {
        let a = BitCodes::from_bools(&[vec![true, true, false, false]]);
        let b = BitCodes::from_bools(&[vec![true, false, true, false]]);
        assert_eq!(a.hamming(0, &b, 0), 2);
        assert_eq!(a.hamming(0, &a, 0), 0);
    }

    #[test]
    fn hamming_matches_inner_product_identity() {
        // H_d = (k − bᵀb') / 2 for ±1 codes.
        let m =
            Matrix::from_rows(&[vec![1.0, -1.0, 1.0, 1.0, -1.0], vec![-1.0, -1.0, 1.0, -1.0, 1.0]]);
        let codes = BitCodes::from_real(&m);
        let dot: f64 = m.row(0).iter().zip(m.row(1)).map(|(a, b)| a * b).sum();
        let expected = (5.0 - dot) / 2.0;
        assert_eq!(codes.hamming(0, &codes, 1) as f64, expected);
    }

    #[test]
    fn multiword_codes() {
        // 130 bits spans three words.
        let row: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let other: Vec<bool> = (0..130).map(|i| i % 3 == 1).collect();
        let a = BitCodes::from_bools(&[row.clone()]);
        let b = BitCodes::from_bools(&[other.clone()]);
        let expected = row.iter().zip(&other).filter(|(x, y)| x != y).count() as u32;
        assert_eq!(a.hamming(0, &b, 0), expected);
        assert_eq!(a.bits(), 130);
    }

    #[test]
    fn save_load_round_trip() {
        let m = Matrix::from_rows(&[vec![0.5; 130], vec![-0.5; 130]]);
        let codes = BitCodes::from_real(&m);
        let mut buf = Vec::new();
        codes.save(&mut buf).unwrap();
        let loaded = BitCodes::load(&mut buf.as_slice()).unwrap();
        assert_eq!(codes, loaded);
    }

    #[test]
    fn load_rejects_garbage() {
        let garbage = b"definitely not a bitcode file at all";
        assert!(BitCodes::load(&mut garbage.as_ref()).is_err());
    }

    #[test]
    fn load_rejects_truncation() {
        let m = Matrix::from_rows(&[vec![1.0; 64]]);
        let codes = BitCodes::from_real(&m);
        let mut buf = Vec::new();
        codes.save(&mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(BitCodes::load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn load_rejects_set_padding_bits() {
        // A 3-bit code whose stored word also sets padding bits 3..8 would
        // scan at distances above the code width.
        let codes = BitCodes::from_bools(&[vec![true, false, true]]);
        let mut buf = Vec::new();
        codes.save(&mut buf).unwrap();
        assert_eq!(BitCodes::load(&mut buf.as_slice()).unwrap(), codes);
        let body = buf.len() - 8;
        buf[body] |= 0xF8;
        let err = BitCodes::load(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("padding"), "{err}");
    }

    #[test]
    fn load_of_a_forged_header_fails_without_the_claimed_allocation() {
        // 2^32 codes of 2^20 bits claim 512 TiB; the body holds one word.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 32).to_le_bytes());
        buf.extend_from_slice(&(1u64 << 20).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = BitCodes::load(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn load_reads_bodies_longer_than_one_chunk() {
        let codes = BitCodes::from_bools(&patterned_rows(LOAD_CHUNK_WORDS / 2 + 3, 130, 5));
        let mut buf = Vec::new();
        codes.save(&mut buf).unwrap();
        assert_eq!(BitCodes::load(&mut buf.as_slice()).unwrap(), codes);
        buf.pop();
        let err = BitCodes::load(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn extend_appends_codes() {
        let mut a = BitCodes::from_real(&Matrix::from_rows(&[vec![1.0, -1.0, 1.0]]));
        let b =
            BitCodes::from_real(&Matrix::from_rows(&[vec![-1.0, -1.0, 1.0], vec![1.0, 1.0, 1.0]]));
        a.extend(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.unpack(1), vec![-1.0, -1.0, 1.0]);
        assert_eq!(a.unpack(2), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "code length mismatch")]
    fn extend_rejects_width_mismatch() {
        let mut a = BitCodes::from_real(&Matrix::from_rows(&[vec![1.0, -1.0]]));
        let b = BitCodes::from_real(&Matrix::from_rows(&[vec![1.0, -1.0, 1.0]]));
        a.extend(&b);
    }

    #[test]
    fn unpack_round_trip() {
        let m = Matrix::from_rows(&[vec![0.3, -0.2, 0.9, -0.7], vec![-0.1, 0.4, -0.6, 0.2]]);
        let codes = BitCodes::from_real(&m);
        let unpacked = codes.unpack_all();
        let recoded = BitCodes::from_real(&unpacked);
        assert_eq!(codes, recoded);
    }

    /// Deterministic bit pattern for the width-sweep tests: varies with
    /// both the code index and the bit position so no word is all-zero or
    /// all-one.
    fn patterned_rows(n: usize, bits: usize, salt: usize) -> Vec<Vec<bool>> {
        (0..n).map(|i| (0..bits).map(|b| (i * 37 + b * 13 + salt) % 5 < 2).collect()).collect()
    }

    #[test]
    fn from_bools_unpack_round_trip_across_word_widths() {
        // Widths straddling the u64 word boundaries (and the word-at-a-time
        // unpack's final partial word).
        for bits in [1usize, 63, 64, 65, 128, 200] {
            let rows = patterned_rows(5, bits, 1);
            let codes = BitCodes::from_bools(&rows);
            let back: Vec<Vec<bool>> = (0..codes.len())
                .map(|i| codes.unpack(i).iter().map(|&v| v > 0.0).collect())
                .collect();
            assert_eq!(rows, back, "bits={bits}");
            assert_eq!(BitCodes::from_bools(&back), codes, "bits={bits}");
        }
    }

    #[test]
    fn hamming_scan_matches_pairwise_across_word_widths() {
        // Widths selecting every specialized scan kernel (1, 2, and 4
        // words per code) and the generic fallback (3 and 5 words), with
        // partial final words in most cases.
        for bits in [1usize, 63, 64, 65, 128, 192, 200, 320] {
            let db = BitCodes::from_bools(&patterned_rows(33, bits, 0));
            let queries = BitCodes::from_bools(&patterned_rows(7, bits, 3));
            let mut out = vec![0u32; db.len()];
            for qi in 0..queries.len() {
                hamming_scan::scan_into(&queries, qi, &db, &mut out);
                for (j, &d) in out.iter().enumerate() {
                    assert_eq!(d, queries.hamming(qi, &db, j), "bits={bits} qi={qi} j={j}");
                }

                let mut mid = vec![0u32; 20];
                hamming_scan::scan_range_into(&queries, qi, &db, 9..29, &mut mid);
                assert_eq!(mid, out[9..29], "range scan bits={bits} qi={qi}");

                let indices = [0u32, 7, 13, 32];
                let mut seen = Vec::new();
                hamming_scan::gather_each(&queries, qi, &db, &indices, |j, d| seen.push((j, d)));
                let want: Vec<(u32, u32)> = indices.iter().map(|&j| (j, out[j as usize])).collect();
                assert_eq!(seen, want, "gather bits={bits} qi={qi}");
            }
        }
    }

    #[test]
    fn from_words_round_trips_and_validates() {
        let codes = BitCodes::from_bools(&patterned_rows(6, 70, 2));
        let rebuilt =
            BitCodes::from_words(codes.len(), codes.bits(), codes.as_words().to_vec()).unwrap();
        assert_eq!(rebuilt, codes);

        // Wrong buffer length.
        let mut short = codes.as_words().to_vec();
        short.pop();
        assert_eq!(
            BitCodes::from_words(codes.len(), codes.bits(), short),
            Err("code buffer length mismatch")
        );

        // A set padding bit (above bit 70 in the second word) must be
        // rejected — it would corrupt whole-word popcount distances.
        let mut forged = codes.as_words().to_vec();
        forged[1] |= 1u64 << 63;
        assert_eq!(
            BitCodes::from_words(codes.len(), codes.bits(), forged),
            Err("padding bits set above code width")
        );

        // Word-aligned widths have no padding to check.
        let aligned = BitCodes::from_bools(&patterned_rows(3, 128, 4));
        let back = BitCodes::from_words(aligned.len(), aligned.bits(), aligned.as_words().to_vec());
        assert_eq!(back.unwrap(), aligned);
    }

    #[test]
    fn hamming_scan_empty_database_and_zero_width() {
        let q = BitCodes::from_bools(&[vec![true, false, true]]);
        let empty = q.slice(0..0);
        let mut out = [0u32; 0];
        hamming_scan::scan_into(&q, 0, &empty, &mut out);

        // Zero-width codes: every distance is 0.
        let zq = BitCodes::from_bools(&[vec![], vec![]]);
        let zdb = BitCodes::from_bools(&[vec![], vec![], vec![]]);
        let mut dists = [7u32; 3];
        hamming_scan::scan_into(&zq, 1, &zdb, &mut dists);
        assert_eq!(dists, [0, 0, 0]);
        let mut seen = Vec::new();
        hamming_scan::gather_each(&zq, 0, &zdb, &[2, 0], |j, d| seen.push((j, d)));
        assert_eq!(seen, vec![(2, 0), (0, 0)]);
    }
}
