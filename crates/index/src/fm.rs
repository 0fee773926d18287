//! The FM-Index: backward search, left extension and sampled locate.
//!
//! This is the data structure at the heart of the paper's preprocessing
//! stage (§II-A): seeds chosen by the filtration stage are counted with
//! backward search, and their candidate locations are recovered from the
//! sampled suffix array. Left extension ([`FmIndex::extend_left`]) is the
//! primitive the DP filtration reuses incrementally ("used FM-Index
//! backward search in an efficient way to reduce memory accesses", §II-B).
//!
//! The BWT and its rank checkpoints share one array of 32-byte blocks of
//! 64 rows each, so a rank query reads a single cache line and counts
//! with one XOR, one mask and a popcount.

use repute_genome::DnaSeq;

use crate::bitvec::RankBitVec;
use crate::bwt::{self, SENTINEL};
use crate::suffix_array::SuffixArray;

/// BWT rows covered by one `OccBlock`.
const BLOCK_ROWS: usize = 64;

/// The low bit of every 2-bit symbol slot in a block.
const LOW_BITS: u64 = u64::MAX / 3;

/// A half-open range of rows in the Burrows–Wheeler matrix.
///
/// Every suffix of the reference that starts with the searched pattern
/// corresponds to exactly one row in `lo..hi`; the interval width is the
/// pattern's occurrence count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// First matching row.
    pub lo: u32,
    /// One past the last matching row.
    pub hi: u32,
}

impl Interval {
    /// Number of matching rows (pattern occurrences).
    #[inline]
    pub fn width(self) -> u32 {
        self.hi.saturating_sub(self.lo)
    }

    /// Returns `true` when no row matches.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.hi <= self.lo
    }
}

/// Configures FM-Index sampling rates; see [`FmIndex::builder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FmBuilder {
    sa_sample: usize,
}

impl Default for FmBuilder {
    fn default() -> Self {
        FmBuilder { sa_sample: 32 }
    }
}

impl FmBuilder {
    /// Sets the suffix-array sampling rate (text positions between samples).
    ///
    /// Larger rates shrink the index (the footprint reduction the paper's
    /// §IV points at, citing Bowtie 2) at the cost of slower locates.
    ///
    /// # Panics
    ///
    /// Panics if `positions == 0`.
    pub fn sa_sample(mut self, positions: usize) -> FmBuilder {
        assert!(positions > 0, "sa sample rate must be positive");
        self.sa_sample = positions;
        self
    }

    /// Builds the index over `reference`.
    pub fn build(self, reference: &DnaSeq) -> FmIndex {
        FmIndex::build_with(reference, self)
    }
}

/// Memory footprint of an [`FmIndex`], in bytes per component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FmFootprint {
    /// Packed 2-bit BWT symbols.
    pub bwt_bytes: usize,
    /// Per-block base counts.
    pub occ_bytes: usize,
    /// Sampled suffix-array entries.
    pub sa_bytes: usize,
    /// Sample-marking bit vector.
    pub mark_bytes: usize,
}

impl FmFootprint {
    /// Total bytes across all components.
    pub fn total(&self) -> usize {
        self.bwt_bytes + self.occ_bytes + self.sa_bytes + self.mark_bytes
    }
}

/// One 64-row block of the rank structure: the base counts taken before
/// the block, then the block's symbols as 2-bit codes. Blocks are 32 bytes
/// and 32-byte aligned, so two share a 64-byte cache line and a rank query
/// never straddles one.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct OccBlock {
    /// Occurrences of each base in all rows before the block.
    counts: [u32; 4],
    /// Row `64·b + j` holds its base code at bits `2(j % 32)..` of word
    /// `j / 32`. The sentinel row stores code 0; `FmIndex::occ` corrects
    /// for it.
    words: [u64; 2],
}

/// An FM-Index over a DNA reference.
///
/// # Example
///
/// ```
/// use repute_genome::DnaSeq;
/// use repute_index::FmIndex;
///
/// # fn main() -> Result<(), repute_genome::GenomeError> {
/// let reference: DnaSeq = "ACGTACGTACGA".parse()?;
/// let fm = FmIndex::build(&reference);
///
/// let pattern: DnaSeq = "CGT".parse()?;
/// let interval = fm.interval(&pattern.to_codes()).expect("pattern occurs");
/// assert_eq!(interval.width(), 2);
///
/// let mut positions = fm.locate(interval, usize::MAX);
/// positions.sort_unstable();
/// assert_eq!(positions, vec![1, 5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FmIndex {
    /// The BWT with its rank checkpoints; always `n_rows / 64 + 1` blocks,
    /// so `occ` at row `n_rows` needs no clamp.
    blocks: Vec<OccBlock>,
    /// The one row whose BWT symbol is the sentinel.
    sentinel_row: u32,
    /// `first[s]` = number of symbols lexicographically smaller than `s`
    /// (internal alphabet: sentinel `0`, bases `1..=4`).
    first: [u32; 5],
    /// Marks BWT rows whose suffix position is sampled.
    sampled_rows: RankBitVec,
    /// Suffix positions for marked rows, in row order.
    sa_samples: Vec<u32>,
    sa_sample: usize,
    text_len: usize,
}

impl FmIndex {
    /// Builds an index with default sampling (SA every 32 positions).
    pub fn build(reference: &DnaSeq) -> FmIndex {
        FmBuilder::default().build(reference)
    }

    /// Starts a builder to customise sampling rates.
    pub fn builder() -> FmBuilder {
        FmBuilder::default()
    }

    fn build_with(reference: &DnaSeq, config: FmBuilder) -> FmIndex {
        let codes = reference.to_codes();
        let sa = SuffixArray::from_codes(&codes);
        let bwt = bwt::transform_with_sa(&codes, &sa);

        // Sampled SA: row 0 is the sentinel suffix (conceptual position
        // `text_len`), never sampled. A text position p is sampled iff
        // p % sa_sample == 0, which always includes p = 0 so every LF walk
        // terminates.
        let mut row_positions: Vec<Option<u32>> = vec![None; bwt.symbols.len()];
        for (i, &p) in sa.positions().iter().enumerate() {
            if (p as usize).is_multiple_of(config.sa_sample) {
                row_positions[i + 1] = Some(p);
            }
        }
        let sampled_rows = RankBitVec::from_bits(row_positions.iter().map(|p| p.is_some()));
        let sa_samples: Vec<u32> = row_positions.into_iter().flatten().collect();
        FmIndex::from_symbols(&bwt.symbols, sampled_rows, sa_samples, config.sa_sample)
    }

    /// Packs byte-per-symbol BWT `symbols` (exactly one sentinel, bases
    /// `1..=4`) into rank blocks and derives `first`.
    fn from_symbols(
        symbols: &[u8],
        sampled_rows: RankBitVec,
        sa_samples: Vec<u32>,
        sa_sample: usize,
    ) -> FmIndex {
        let mut blocks = Vec::with_capacity(symbols.len() / BLOCK_ROWS + 1);
        let mut running = [0u32; 4];
        let mut sentinel_row = 0;
        for start in (0..=symbols.len()).step_by(BLOCK_ROWS) {
            let mut block = OccBlock {
                counts: running,
                words: [0; 2],
            };
            let end = symbols.len().min(start + BLOCK_ROWS);
            for (j, &s) in symbols[start..end].iter().enumerate() {
                if s == SENTINEL {
                    sentinel_row = (start + j) as u32;
                } else {
                    let code = bwt::to_code(s);
                    running[code as usize] += 1;
                    block.words[j / 32] |= u64::from(code) << (2 * (j % 32));
                }
            }
            blocks.push(block);
        }
        // The one sentinel sorts before every base.
        let mut first = [0u32, 1, 0, 0, 0];
        for code in 0..3 {
            first[code + 2] = first[code + 1] + running[code];
        }
        FmIndex {
            blocks,
            sentinel_row,
            first,
            sampled_rows,
            sa_samples,
            sa_sample,
            text_len: symbols.len() - 1,
        }
    }

    /// Length of the indexed reference in bases.
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Number of BWT rows: the text's suffixes plus the sentinel suffix.
    fn n_rows(&self) -> usize {
        self.text_len + 1
    }

    /// The interval covering every suffix (the backward-search start state).
    pub fn full_interval(&self) -> Interval {
        Interval {
            lo: 0,
            hi: self.n_rows() as u32,
        }
    }

    /// BWT symbol of `row` in the internal alphabet.
    #[inline]
    fn symbol(&self, row: usize) -> u8 {
        if row == self.sentinel_row as usize {
            return SENTINEL;
        }
        let j = row % BLOCK_ROWS;
        let word = self.blocks[row / BLOCK_ROWS].words[j / 32];
        let code = (word >> (2 * (j % 32))) as u8 & 3;
        bwt::to_symbol(code)
    }

    /// Rank of base `code` among BWT rows strictly before `row`.
    #[inline]
    fn occ(&self, code: u8, row: u32) -> u32 {
        let row = row as usize;
        let block = &self.blocks[row / BLOCK_ROWS];
        let j = row % BLOCK_ROWS;
        let before = (1u128 << (2 * j)) - 1;
        let pattern = u64::from(code) * LOW_BITS;
        // Slots equal to `code` XOR to 0b00; inverted, both bits are set,
        // leaving one hit bit on the slot's low bit.
        let hits = |word: u64, mask: u64| {
            let same = !(word ^ pattern);
            same & (same >> 1) & LOW_BITS & mask
        };
        let low = hits(block.words[0], before as u64);
        let high = hits(block.words[1], (before >> 64) as u64);
        // Hits sit on even bits only, so both words fold into one popcount.
        let mut count = block.counts[code as usize] + (low | high << 1).count_ones();
        // The sentinel is stored as code 0: drop it if it was counted.
        if code == 0 && (row - j..row).contains(&(self.sentinel_row as usize)) {
            count -= 1;
        }
        count
    }

    /// Extends a match interval one base to the left.
    ///
    /// If `interval` matches pattern `P`, the result matches `base·P`.
    /// Returns an empty interval when no occurrence survives.
    ///
    /// # Panics
    ///
    /// Panics if `code > 3` or the interval is out of range.
    #[inline]
    pub fn extend_left(&self, interval: Interval, code: u8) -> Interval {
        assert!(code <= 3, "base code {code} out of range");
        assert!(
            interval.hi as usize <= self.n_rows() && interval.lo <= interval.hi,
            "interval {interval:?} out of range"
        );
        let base = self.first[(code + 1) as usize];
        Interval {
            lo: base + self.occ(code, interval.lo),
            hi: base + self.occ(code, interval.hi),
        }
    }

    /// Backward-searches a pattern of 2-bit base codes.
    ///
    /// Returns `None` when the pattern does not occur. The empty pattern
    /// yields the full interval.
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds 3.
    pub fn interval(&self, pattern: &[u8]) -> Option<Interval> {
        let mut interval = self.full_interval();
        for &code in pattern.iter().rev() {
            interval = self.extend_left(interval, code);
            if interval.is_empty() {
                return None;
            }
        }
        Some(interval)
    }

    /// Number of occurrences of a pattern in the reference.
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds 3.
    pub fn count(&self, pattern: &[u8]) -> u32 {
        self.interval(pattern).map_or(0, Interval::width)
    }

    /// One LF-mapping step: the row of the suffix one position to the left.
    #[inline]
    fn lf(&self, row: u32) -> u32 {
        let s = self.symbol(row as usize);
        if s == SENTINEL {
            0
        } else {
            self.first[s as usize] + self.occ(s - 1, row)
        }
    }

    /// Recovers the text position of a single BWT row via the sampled SA.
    ///
    /// # Panics
    ///
    /// Panics if `row` is the sentinel row 0 (which has no text position)
    /// or out of range.
    pub fn position_of_row(&self, row: u32) -> u32 {
        assert!(
            row > 0 && (row as usize) < self.n_rows(),
            "row {row} has no text position"
        );
        let mut row = row;
        let mut steps = 0u32;
        loop {
            if self.sampled_rows.get(row as usize) {
                let idx = self.sampled_rows.rank1(row as usize);
                return self.sa_samples[idx] + steps;
            }
            row = self.lf(row);
            steps += 1;
            debug_assert!(steps as usize <= self.sa_sample + 1, "LF walk too long");
        }
    }

    /// Recovers up to `limit` text positions for an interval.
    ///
    /// Positions are returned in row order (not sorted). This mirrors the
    /// paper's *first-n* output restriction: OpenCL 1.2 forbids dynamic
    /// allocation, so REPUTE reports only the first `n` locations per read.
    pub fn locate(&self, interval: Interval, limit: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(interval.width().min(limit as u32) as usize);
        for row in interval.lo..interval.hi {
            if out.len() >= limit {
                break;
            }
            if row == 0 {
                continue; // sentinel row: matches nothing real
            }
            out.push(self.position_of_row(row));
        }
        out
    }

    /// Serialises the index to a binary stream (the `repute` CLI's
    /// prebuilt-index format). Only the BWT, one byte per symbol, and the
    /// suffix-array samples — the expensive-to-rebuild parts — are stored;
    /// rank blocks are rebuilt on load. The header's occ field records the
    /// block size, 64; loaders accept any non-zero value there.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out` (a `&mut` writer is accepted).
    pub fn write_to<W: std::io::Write>(&self, mut out: W) -> std::io::Result<()> {
        let n_rows = self.n_rows();
        out.write_all(b"RPFM")?;
        out.write_all(&1u16.to_le_bytes())?;
        out.write_all(&(BLOCK_ROWS as u32).to_le_bytes())?;
        out.write_all(&(self.sa_sample as u32).to_le_bytes())?;
        out.write_all(&(self.text_len as u64).to_le_bytes())?;
        out.write_all(&(n_rows as u64).to_le_bytes())?;
        let symbols: Vec<u8> = (0..n_rows).map(|row| self.symbol(row)).collect();
        out.write_all(&symbols)?;
        let marked: Vec<u32> = (0..n_rows)
            .filter(|&row| self.sampled_rows.get(row))
            .map(|row| row as u32)
            .collect();
        out.write_all(&(marked.len() as u64).to_le_bytes())?;
        for row in &marked {
            out.write_all(&row.to_le_bytes())?;
        }
        for sample in &self.sa_samples {
            out.write_all(&sample.to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserialises an index written by [`FmIndex::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] on a bad magic,
    /// version, or inconsistent payload, and propagates I/O errors from
    /// `input` (a `&mut` reader is accepted).
    pub fn read_from<R: std::io::Read>(mut input: R) -> std::io::Result<FmIndex> {
        fn bad(msg: impl Into<String>) -> std::io::Error {
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
        }
        let mut magic = [0u8; 4];
        input.read_exact(&mut magic)?;
        if &magic != b"RPFM" {
            return Err(bad("not an FM-Index stream (bad magic)"));
        }
        let mut b2 = [0u8; 2];
        input.read_exact(&mut b2)?;
        if u16::from_le_bytes(b2) != 1 {
            return Err(bad("unsupported FM-Index format version"));
        }
        let mut b4 = [0u8; 4];
        let mut b8 = [0u8; 8];
        // The occ field is the writer's checkpoint spacing; rank blocks are
        // rebuilt at 64 rows whatever it says.
        input.read_exact(&mut b4)?;
        let occ_sample = u32::from_le_bytes(b4);
        input.read_exact(&mut b4)?;
        let sa_sample = u32::from_le_bytes(b4) as usize;
        if occ_sample == 0 || sa_sample == 0 {
            return Err(bad("zero sampling rate"));
        }
        input.read_exact(&mut b8)?;
        let text_len = u64::from_le_bytes(b8) as usize;
        input.read_exact(&mut b8)?;
        let bwt_len = u64::from_le_bytes(b8) as usize;
        if bwt_len != text_len + 1 {
            return Err(bad(format!(
                "BWT length {bwt_len} does not match text length {text_len}"
            )));
        }
        let mut bwt = vec![0u8; bwt_len];
        input.read_exact(&mut bwt)?;
        if bwt.iter().any(|&s| s > 4) {
            return Err(bad("BWT symbol out of range"));
        }
        if bwt.iter().filter(|&&s| s == SENTINEL).count() != 1 {
            return Err(bad("BWT must contain exactly one sentinel"));
        }
        input.read_exact(&mut b8)?;
        let marked_count = u64::from_le_bytes(b8) as usize;
        if marked_count > bwt_len {
            return Err(bad("more SA samples than BWT rows"));
        }
        let mut marked = vec![0u32; marked_count];
        for slot in &mut marked {
            input.read_exact(&mut b4)?;
            *slot = u32::from_le_bytes(b4);
        }
        if marked.windows(2).any(|w| w[0] >= w[1])
            || marked.last().is_some_and(|&r| r as usize >= bwt_len)
        {
            return Err(bad("sampled rows must be strictly increasing and in range"));
        }
        let mut sa_samples = vec![0u32; marked_count];
        for slot in &mut sa_samples {
            input.read_exact(&mut b4)?;
            *slot = u32::from_le_bytes(b4);
        }

        let mut marked_iter = marked.iter().peekable();
        let sampled_rows = RankBitVec::from_bits((0..bwt_len).map(|row| {
            if marked_iter.peek() == Some(&&(row as u32)) {
                marked_iter.next();
                true
            } else {
                false
            }
        }));
        Ok(FmIndex::from_symbols(
            &bwt,
            sampled_rows,
            sa_samples,
            sa_sample,
        ))
    }

    /// Reports the index's memory footprint per component.
    pub fn footprint(&self) -> FmFootprint {
        let blocks = self.blocks.len();
        FmFootprint {
            bwt_bytes: blocks * std::mem::size_of::<[u64; 2]>(),
            occ_bytes: blocks * std::mem::size_of::<[u32; 4]>(),
            sa_bytes: self.sa_samples.len() * 4,
            mark_bytes: self.sampled_rows.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_genome::rng::StdRng;
    use repute_genome::synth::ReferenceBuilder;

    fn naive_count(text: &[u8], pattern: &[u8]) -> u32 {
        if pattern.is_empty() || pattern.len() > text.len() {
            return if pattern.is_empty() {
                text.len() as u32 + 1
            } else {
                0
            };
        }
        text.windows(pattern.len())
            .filter(|w| *w == pattern)
            .count() as u32
    }

    fn naive_positions(text: &[u8], pattern: &[u8]) -> Vec<u32> {
        text.windows(pattern.len())
            .enumerate()
            .filter(|(_, w)| *w == pattern)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn counts_match_naive_on_random_text() {
        let mut rng = StdRng::seed_from_u64(17);
        let codes: Vec<u8> = (0..2000).map(|_| rng.gen_range(0..4)).collect();
        let seq = DnaSeq::from_codes(&codes).unwrap();
        let fm = FmIndex::build(&seq);
        for plen in [1usize, 2, 4, 8, 16] {
            for _ in 0..20 {
                let start = rng.gen_range(0..codes.len() - plen);
                let pattern = &codes[start..start + plen];
                assert_eq!(
                    fm.count(pattern),
                    naive_count(&codes, pattern),
                    "pattern at {start} len {plen}"
                );
            }
        }
    }

    #[test]
    fn absent_pattern_counts_zero() {
        let seq: DnaSeq = "AAAAAAAA".parse().unwrap();
        let fm = FmIndex::build(&seq);
        assert_eq!(fm.count(&[1]), 0); // no C
        assert!(fm.interval(&[1, 1]).is_none());
        assert_eq!(fm.count(&[0]), 8);
    }

    #[test]
    fn empty_pattern_yields_full_interval() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let fm = FmIndex::build(&seq);
        assert_eq!(fm.interval(&[]), Some(fm.full_interval()));
    }

    #[test]
    fn locate_matches_naive() {
        let mut rng = StdRng::seed_from_u64(23);
        let codes: Vec<u8> = (0..1500).map(|_| rng.gen_range(0..4)).collect();
        let seq = DnaSeq::from_codes(&codes).unwrap();
        for sa_sample in [1usize, 4, 32, 64] {
            let fm = FmIndex::builder().sa_sample(sa_sample).build(&seq);
            for plen in [3usize, 6, 12] {
                for _ in 0..10 {
                    let start = rng.gen_range(0..codes.len() - plen);
                    let pattern = &codes[start..start + plen];
                    let interval = fm.interval(pattern).expect("pattern occurs");
                    let mut got = fm.locate(interval, usize::MAX);
                    got.sort_unstable();
                    assert_eq!(
                        got,
                        naive_positions(&codes, pattern),
                        "sa_sample {sa_sample}"
                    );
                }
            }
        }
    }

    #[test]
    fn locate_respects_limit() {
        let seq: DnaSeq = "ACACACACACACACAC".parse().unwrap();
        let fm = FmIndex::build(&seq);
        let interval = fm.interval(&[0, 1]).unwrap(); // "AC"
        assert_eq!(interval.width(), 8);
        assert_eq!(fm.locate(interval, 3).len(), 3);
        assert_eq!(fm.locate(interval, 0).len(), 0);
    }

    #[test]
    fn extend_left_composes_like_interval() {
        let reference = ReferenceBuilder::new(5000).seed(9).build();
        let codes = reference.to_codes();
        let fm = FmIndex::build(&reference);
        let pattern = &codes[100..116];
        // Manual right-to-left extension equals one-shot search.
        let mut interval = fm.full_interval();
        for &c in pattern.iter().rev() {
            interval = fm.extend_left(interval, c);
        }
        assert_eq!(Some(interval), fm.interval(pattern));
    }

    /// Byte-scan rank oracle: occurrences of base `code` in `symbols[..row]`.
    fn oracle_occ(symbols: &[u8], code: u8, row: usize) -> u32 {
        symbols[..row]
            .iter()
            .filter(|&&s| s == bwt::to_symbol(code))
            .count() as u32
    }

    /// Asserts that `extend_left` from every row `0..=n_rows` and for every
    /// base agrees with the byte-scan oracle over `symbols`.
    fn assert_extend_matches_oracle(fm: &FmIndex, symbols: &[u8]) {
        assert_eq!(fm.n_rows(), symbols.len());
        for code in 0..4u8 {
            let base = fm.first[(code + 1) as usize];
            for row in 0..=symbols.len() as u32 {
                let iv = fm.extend_left(Interval { lo: row, hi: row }, code);
                let want = base + oracle_occ(symbols, code, row as usize);
                assert_eq!(iv, Interval { lo: want, hi: want }, "code {code} row {row}");
            }
        }
        for (row, &s) in symbols.iter().enumerate() {
            assert_eq!(fm.symbol(row), s, "symbol at row {row}");
        }
    }

    #[test]
    fn packed_occ_matches_byte_scan_on_real_bwts() {
        let mut rng = StdRng::seed_from_u64(31);
        // n_rows = len + 1, so lengths 63 and 127 land on a block boundary.
        for len in (62..=66).chain(126..=130) {
            for _ in 0..8 {
                let codes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
                let fm = FmIndex::build(&DnaSeq::from_codes(&codes).unwrap());
                assert_extend_matches_oracle(&fm, &bwt::transform(&codes).symbols);
            }
        }
    }

    #[test]
    fn packed_occ_matches_byte_scan_for_every_sentinel_placement() {
        let mut rng = StdRng::seed_from_u64(32);
        for n_rows in (63..=67).chain(127..=131) {
            let last = n_rows - 1;
            for sentinel_row in [0, last, 62, 63, 64, 65, 126, 127, 128] {
                if sentinel_row >= n_rows {
                    continue;
                }
                let mut symbols: Vec<u8> = (0..n_rows).map(|_| rng.gen_range(1..=4)).collect();
                symbols[sentinel_row] = SENTINEL;
                let fm = FmIndex::from_symbols(&symbols, RankBitVec::from_bits([]), Vec::new(), 1);
                assert_eq!(fm.sentinel_row as usize, sentinel_row);
                assert_extend_matches_oracle(&fm, &symbols);
            }
        }
    }

    #[test]
    fn rank_blocks_cover_the_final_row() {
        assert_eq!(std::mem::size_of::<OccBlock>(), 32);
        assert_eq!(std::mem::align_of::<OccBlock>(), 32);
        for len in [63usize, 64, 127] {
            let seq = DnaSeq::from_codes(&vec![2u8; len]).unwrap();
            let fm = FmIndex::build(&seq);
            assert_eq!(fm.blocks.len(), fm.n_rows() / BLOCK_ROWS + 1);
            assert_eq!(fm.count(&[2]), len as u32);
        }
    }

    #[test]
    fn footprint_shrinks_with_sparser_sa_sampling() {
        let reference = ReferenceBuilder::new(20_000).seed(11).build();
        let dense = FmIndex::builder().sa_sample(1).build(&reference);
        let sparse = FmIndex::builder().sa_sample(64).build(&reference);
        assert!(sparse.footprint().sa_bytes < dense.footprint().sa_bytes / 32);
        assert!(sparse.footprint().total() < dense.footprint().total());
        assert!(dense.footprint().total() > 0);
    }

    #[test]
    fn full_genome_scale_smoke() {
        let reference = ReferenceBuilder::new(100_000).seed(12).build();
        let codes = reference.to_codes();
        let fm = FmIndex::build(&reference);
        // Every sampled 20-mer of the reference must be found at its origin.
        for start in (0..codes.len() - 20).step_by(9973) {
            let pattern = &codes[start..start + 20];
            let interval = fm.interval(pattern).expect("present");
            let positions = fm.locate(interval, usize::MAX);
            assert!(
                positions.contains(&(start as u32)),
                "missing origin {start}"
            );
        }
    }

    #[test]
    fn serialisation_round_trips_and_answers_identically() {
        let reference = ReferenceBuilder::new(30_000).seed(88).build();
        let codes = reference.to_codes();
        let fm = FmIndex::builder().sa_sample(8).build(&reference);
        let mut buf = Vec::new();
        fm.write_to(&mut buf).unwrap();
        let back = FmIndex::read_from(buf.as_slice()).unwrap();
        assert_eq!(back.text_len(), fm.text_len());
        for start in (0..29_900).step_by(977) {
            let pattern = &codes[start..start + 18];
            assert_eq!(back.count(pattern), fm.count(pattern));
            if let Some(iv) = fm.interval(pattern) {
                let mut a = fm.locate(iv, usize::MAX);
                let mut b = back.locate(back.interval(pattern).unwrap(), usize::MAX);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn streams_with_the_old_occ_spacing_load_identically() {
        let reference = ReferenceBuilder::new(5_000).seed(90).build();
        let codes = reference.to_codes();
        let fm = FmIndex::builder().sa_sample(8).build(&reference);
        let mut buf = Vec::new();
        fm.write_to(&mut buf).unwrap();
        // Header: magic, version, occ field, sa field, text len, BWT len;
        // then the BWT one byte per symbol.
        assert_eq!(buf[6..10], 64u32.to_le_bytes());
        let bwt_start = 4 + 2 + 4 + 4 + 8 + 8;
        assert_eq!(
            buf[bwt_start..bwt_start + codes.len() + 1],
            bwt::transform(&codes).symbols[..]
        );
        // Earlier writers recorded their checkpoint spacing, 128, here.
        buf[6..10].copy_from_slice(&128u32.to_le_bytes());
        let old = FmIndex::read_from(buf.as_slice()).unwrap();
        for start in (0..4_980).step_by(53) {
            for len in [1usize, 6, 15] {
                let pattern = &codes[start..start + len];
                assert_eq!(old.count(pattern), fm.count(pattern));
                let iv = fm.interval(pattern).expect("pattern occurs");
                assert_eq!(old.interval(pattern), Some(iv));
                assert_eq!(old.locate(iv, usize::MAX), fm.locate(iv, usize::MAX));
            }
        }
        let mut again = Vec::new();
        old.write_to(&mut again).unwrap();
        buf[6..10].copy_from_slice(&64u32.to_le_bytes());
        assert_eq!(again, buf);
    }

    #[test]
    fn serialisation_rejects_corruption() {
        let reference = ReferenceBuilder::new(2_000).seed(89).build();
        let fm = FmIndex::build(&reference);
        let mut buf = Vec::new();
        fm.write_to(&mut buf).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(FmIndex::read_from(bad.as_slice()).is_err());
        // Truncation.
        let short = &buf[..buf.len() - 4];
        assert!(FmIndex::read_from(short).is_err());
        // Corrupted BWT symbol.
        let mut bad = buf.clone();
        bad[30] = 9;
        assert!(FmIndex::read_from(bad.as_slice()).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_code_rejected() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let fm = FmIndex::build(&seq);
        let _ = fm.count(&[4]);
    }

    #[test]
    #[should_panic(expected = "no text position")]
    fn sentinel_row_has_no_position() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let fm = FmIndex::build(&seq);
        let _ = fm.position_of_row(0);
    }
}
