//! Seed-frequency tables with incremental backward-search reuse.
//!
//! The DP filtration needs the occurrence count of `read[d..p]` for many
//! `(d, p)` pairs. Backward search extends patterns to the *left*, so for
//! a fixed end `p` every start `d` is one [`repute_index::FmIndex::extend_left`]
//! away from `d + 1` — the "efficient way" of using backward search the
//! paper credits for reduced memory accesses (§II-B). Columns stop as soon
//! as the interval empties: every longer seed ending at `p` then has
//! exactly zero occurrences, no further index work needed.

use repute_index::{FmIndex, Interval};

use crate::oss::OssParams;

/// Extra extension depth beyond `s_min` before a column is capped.
///
/// The Optimal Seed Solver caps seed lengths: beyond `s_min + MAX_EXTRA`
/// bases a seed's count has almost always stabilised (unique regions hit
/// zero or one long before; repeat regions stay high however far one
/// extends). Lookups past the cap return the capped suffix's interval —
/// a superset of the true occurrences, which verification filters. This
/// bounds per-column work, the time half of the paper's memory/time
/// optimisation.
pub const MAX_EXTRA: usize = 16;

/// Interval slots per column: one for each seed length `s_min..=s_min + MAX_EXTRA`.
const STRIDE: usize = MAX_EXTRA + 1;

/// Shape of one column of the table: seeds ending at a fixed read position.
#[derive(Debug, Clone, Copy, Default)]
struct Column {
    /// The column's first `len` slots hold the intervals of the seeds of
    /// length `s_min..s_min + len`. Longer seeds have zero occurrences
    /// unless the column was capped, in which case the deepest slot
    /// approximates them.
    len: u8,
    capped: bool,
}

/// Precomputed seed frequencies for one read.
///
/// # Example
///
/// ```
/// use repute_genome::synth::ReferenceBuilder;
/// use repute_index::FmIndex;
/// use repute_filter::{freq::FreqTable, oss::OssParams};
///
/// let reference = ReferenceBuilder::new(10_000).seed(3).build();
/// let fm = FmIndex::build(&reference);
/// let read = reference.subseq(100..200).to_codes();
/// let params = OssParams::new(4, 15).expect("valid");
/// let table = FreqTable::build(&fm, &read, &params);
/// // The read itself occurs, so each of its seeds occurs at least once.
/// assert!(table.count(0, 15) >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct FreqTable {
    /// Every column's intervals, `STRIDE` slots per column; column `c`
    /// covers the seeds ending at read position `s_min + c`.
    entries: Vec<Interval>,
    columns: Vec<Column>,
    read_len: usize,
    params: OssParams,
    extend_ops: u64,
}

impl FreqTable {
    /// Builds the frequency table for the seeds the DP of `params` can
    /// ask about.
    ///
    /// Under the paper's restricted exploration space only the live
    /// columns are computed, each to the depth its iterations need (see
    /// [`OssParams::max_seed_len_at`]) — the *time* half of the
    /// exploration-space optimisation; the DP-table shrinkage is the
    /// memory half.
    ///
    /// # Panics
    ///
    /// Panics if the read is shorter than `s_min` or contains codes
    /// above 3.
    pub fn build(fm: &FmIndex, read: &[u8], params: &OssParams) -> FreqTable {
        let s_min = params.s_min();
        let n = read.len();
        assert!(
            n >= s_min,
            "read length {n} shorter than minimum seed length {s_min}"
        );
        let mut extend_ops = 0u64;
        let n_columns = n - s_min + 1;
        let mut entries = vec![Interval { lo: 0, hi: 0 }; n_columns * STRIDE];
        let mut columns = vec![Column::default(); n_columns];
        for (p, (slots, column)) in
            (s_min..=n).zip(entries.chunks_exact_mut(STRIDE).zip(&mut columns))
        {
            let Some(depth_limit) = params.max_seed_len_at(p, n) else {
                continue; // dead column: never probed
            };
            let depth = depth_limit.min(s_min + MAX_EXTRA);
            let mut interval = fm.full_interval();
            let mut d = p;
            // First s_min extensions establish the shortest seed.
            let mut alive = true;
            while d > p - s_min {
                d -= 1;
                interval = fm.extend_left(interval, read[d]);
                extend_ops += 1;
                if interval.is_empty() {
                    alive = false;
                    break;
                }
            }
            if !alive {
                continue; // no seed ending at p occurs
            }
            slots[0] = interval;
            let mut len = 1;
            // Keep extending while occurrences remain, the seed can still
            // grow, and the depth bound is not reached.
            let floor = p - depth;
            while d > floor {
                d -= 1;
                interval = fm.extend_left(interval, read[d]);
                extend_ops += 1;
                if interval.is_empty() {
                    break;
                }
                slots[len] = interval;
                len += 1;
            }
            *column = Column {
                len: len as u8,
                capped: d == floor && !interval.is_empty() && floor > 0,
            };
        }
        FreqTable {
            entries,
            columns,
            read_len: n,
            params: *params,
            extend_ops,
        }
    }

    /// The minimum seed length this table was built for.
    pub fn s_min(&self) -> usize {
        self.params.s_min()
    }

    /// The DP parameters this table was built for; the solver must run
    /// with the same ones.
    pub fn params(&self) -> &OssParams {
        &self.params
    }

    /// Length of the read this table covers.
    pub fn read_len(&self) -> usize {
        self.read_len
    }

    /// FM-Index extension operations spent building the table.
    pub fn extend_ops(&self) -> u64 {
        self.extend_ops
    }

    /// Records the table's index work into a per-read metric record. The
    /// DP solver's `SelectionOutcome` records the DP-side counters; between
    /// the two every filtration operation is counted exactly once.
    pub fn record_metrics(&self, metrics: &mut repute_obs::MapMetrics) {
        metrics.fm_extend_ops += self.extend_ops;
    }

    /// Occurrence count of the seed `read[start..end]`.
    ///
    /// # Panics
    ///
    /// Panics if `end > read_len`, `start >= end`, or the seed is shorter
    /// than `s_min`.
    pub fn count(&self, start: usize, end: usize) -> u32 {
        self.interval(start, end).map_or(0, Interval::width)
    }

    /// FM interval of the seed `read[start..end]`, `None` when the seed
    /// does not occur.
    ///
    /// For seeds longer than `s_min + MAX_EXTRA` the interval of the
    /// capped suffix is returned — a superset of the true occurrence set
    /// (and its width an upper bound on the count); the verification
    /// stage filters the difference.
    ///
    /// # Panics
    ///
    /// Panics if `end > read_len`, `start >= end`, or the seed is shorter
    /// than `s_min`.
    pub fn interval(&self, start: usize, end: usize) -> Option<Interval> {
        assert!(
            end <= self.read_len && start < end,
            "seed {start}..{end} out of bounds for read of length {}",
            self.read_len
        );
        let len = end - start;
        let s_min = self.s_min();
        assert!(
            len >= s_min,
            "seed length {len} below the table's minimum {s_min}"
        );
        let c = end - s_min;
        let Column {
            len: stored,
            capped,
        } = self.columns[c];
        let slot = if len - s_min < stored as usize {
            len - s_min
        } else if capped {
            stored as usize - 1
        } else {
            return None;
        };
        Some(self.entries[c * STRIDE + slot])
    }

    /// Approximate heap footprint of the table in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Interval>()
            + self.columns.len() * std::mem::size_of::<Column>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_genome::synth::ReferenceBuilder;
    use repute_genome::DnaSeq;

    fn setup() -> (DnaSeq, FmIndex) {
        let reference = ReferenceBuilder::new(20_000).seed(8).build();
        let fm = FmIndex::build(&reference);
        (reference, fm)
    }

    /// The interval the table must report for `read[start..end]`: none in a
    /// dead column, else the exact interval of the seed clipped to its
    /// column's depth — the seed itself below the cap, the capped suffix
    /// above it.
    fn expected_interval(
        fm: &FmIndex,
        read: &[u8],
        params: &OssParams,
        start: usize,
        end: usize,
    ) -> Option<Interval> {
        let depth = params.max_seed_len_at(end, read.len())?;
        let depth = depth.min(params.s_min() + MAX_EXTRA);
        fm.interval(&read[start.max(end - depth)..end])
    }

    #[test]
    fn counts_match_direct_backward_search_below_cap() {
        let (reference, fm) = setup();
        let params = OssParams::new(5, 12).unwrap();
        let (mut dead, mut capped) = (0, 0);
        // 80 bases leave little slack over (δ+1)·s_min = 72, so some
        // columns are dead; the 100-base read has capped columns.
        for read_len in [100usize, 80] {
            let read = reference.subseq(1000..1000 + read_len).to_codes();
            let table = FreqTable::build(&fm, &read, &params);
            for end in 12..=read_len {
                for start in 0..=end - 12 {
                    let want = expected_interval(&fm, &read, &params, start, end);
                    assert_eq!(table.interval(start, end), want, "seed {start}..{end}");
                    assert_eq!(table.count(start, end), want.map_or(0, Interval::width));
                    match params.max_seed_len_at(end, read_len) {
                        None => dead += 1,
                        Some(depth) if end - start <= depth.min(12 + MAX_EXTRA) => {
                            assert_eq!(
                                table.count(start, end),
                                fm.count(&read[start..end]),
                                "seed {start}..{end}"
                            );
                        }
                        Some(_) => capped += usize::from(want.is_some()),
                    }
                }
            }
        }
        assert!(dead > 0, "no dead column exercised");
        assert!(capped > 0, "no capped column exercised");
    }

    #[test]
    fn capped_lookups_upper_bound_true_counts() {
        let (reference, fm) = setup();
        let read = reference.subseq(1000..1100).to_codes();
        let params = OssParams::new(5, 12).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        for end in (40usize..=100).step_by(13) {
            for start in (0..end.saturating_sub(12 + MAX_EXTRA)).step_by(9) {
                assert!(
                    table.count(start, end) >= fm.count(&read[start..end]),
                    "capped count must upper-bound the true count at {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn zero_count_beyond_empty_extension() {
        let (_, fm) = setup();
        // A noise read likely has long seeds with zero occurrences.
        let read: Vec<u8> = (0..100).map(|i| ((i * 7 + i / 3) % 4) as u8).collect();
        let params = OssParams::new(5, 12).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        for end in (12usize..=100).step_by(11) {
            let min_start = end.saturating_sub(12 + MAX_EXTRA);
            for start in (min_start..=end - 12).step_by(7) {
                assert_eq!(table.count(start, end), fm.count(&read[start..end]));
            }
        }
    }

    #[test]
    fn column_work_is_bounded_by_the_cap() {
        let (reference, fm) = setup();
        let read = reference.subseq(3000..3150).to_codes();
        let params = OssParams::new(7, 12).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        // ≤ (s_min + MAX_EXTRA) extensions per column.
        let columns = (read.len() - 12 + 1) as u64;
        assert!(table.extend_ops() <= columns * (12 + MAX_EXTRA) as u64);
    }

    #[test]
    fn extension_ops_are_bounded_by_table_size() {
        let (reference, fm) = setup();
        let read = reference.subseq(2000..2150).to_codes();
        let params = OssParams::new(7, 15).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        // At most one extension per (start, end) pair.
        let n = read.len() as u64;
        assert!(table.extend_ops() <= n * (n + 1) / 2);
        assert!(table.extend_ops() >= n - params.s_min() as u64);
        assert!(table.heap_bytes() > 0);
    }

    #[test]
    fn interval_agrees_with_fm() {
        let (reference, fm) = setup();
        let read = reference.subseq(500..600).to_codes();
        let params = OssParams::new(3, 20).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        let interval = table.interval(10, 35).expect("seed occurs");
        assert_eq!(Some(interval), fm.interval(&read[10..35]));
    }

    #[test]
    #[should_panic(expected = "below the table's minimum")]
    fn short_seed_lookup_rejected() {
        let (reference, fm) = setup();
        let read = reference.subseq(0..100).to_codes();
        let params = OssParams::new(5, 12).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        let _ = table.count(0, 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_lookup_rejected() {
        let (reference, fm) = setup();
        let read = reference.subseq(0..50).to_codes();
        let params = OssParams::new(2, 12).unwrap();
        let table = FreqTable::build(&fm, &read, &params);
        let _ = table.count(40, 60);
    }
}
