//! Output checks: SAM records per read, recall against the generator's
//! truth, and exact-repeat checks of digests and counts across runs of
//! one seed.

use std::collections::HashMap;
use std::path::Path;

use repute_bench::harness::match_tolerance;
use repute_core::journal::Fnv64;
use repute_genome::fastq::FastqRecord;
use repute_genome::reads::ReadOrigin;
use repute_genome::Strand;

/// SAM alignments per read name: `(strand, 0-based position)`, empty for
/// a read written as unmapped.
pub type Alignments<'a> = HashMap<&'a str, Vec<(Strand, u64)>>;

/// Parses the body of a SAM text (header lines skipped).
pub fn parse_sam(text: &str) -> Alignments<'_> {
    let mut out: Alignments<'_> = HashMap::new();
    for line in text.lines().filter(|l| !l.starts_with('@')) {
        let mut fields = line.split('\t');
        let (Some(name), Some(flag), Some(_), Some(pos)) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        let entry = out.entry(name).or_default();
        let flag: u16 = flag.parse().unwrap_or(0x4);
        let pos: u64 = pos.parse().unwrap_or(0);
        if flag & 0x4 == 0 && pos > 0 {
            let strand = if flag & 0x10 != 0 {
                Strand::Reverse
            } else {
                Strand::Forward
            };
            entry.push((strand, pos - 1));
        }
    }
    out
}

/// Reads among `reads` that have no SAM record at all.
pub fn missing_records(alignments: &Alignments<'_>, reads: &[FastqRecord]) -> u64 {
    reads
        .iter()
        .filter(|r| !alignments.contains_key(r.id.as_str()))
        .count() as u64
}

/// Recall tally: reads whose origin has at most delta edits, and how many
/// of them were reported at that origin within `match_tolerance(delta)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Recall {
    pub eligible: u64,
    pub found: u64,
}

impl Recall {
    pub fn add(&mut self, origin: Option<&ReadOrigin>, hits: &[(Strand, u64)], delta: u32) {
        let Some(origin) = origin.filter(|o| o.edits <= delta) else {
            return;
        };
        self.eligible += 1;
        let tol = u64::from(match_tolerance(delta));
        if hits
            .iter()
            .any(|&(s, p)| s == origin.strand && p.abs_diff(origin.position as u64) <= tol)
        {
            self.found += 1;
        }
    }

    pub fn merge(&mut self, other: Recall) {
        self.eligible += other.eligible;
        self.found += other.found;
    }

    pub fn fraction(&self) -> f64 {
        ratio(self.found, self.eligible)
    }
}

/// Recall of one SAM text over a read set.
pub fn recall(
    alignments: &Alignments<'_>,
    reads: &[FastqRecord],
    truth: &[Option<ReadOrigin>],
    delta: u32,
) -> Recall {
    let mut tally = Recall::default();
    for (read, origin) in reads.iter().zip(truth) {
        let hits = alignments
            .get(read.id.as_str())
            .map_or(&[][..], Vec::as_slice);
        tally.add(origin.as_ref(), hits, delta);
    }
    tally
}

/// `num / den`, zero for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn digest(bytes: &[u8]) -> String {
    let mut h = Fnv64::new();
    h.write(bytes);
    format!("{:016x}", h.finish())
}

/// Digest of the `repute` binary at `repute` and of this executable.
pub fn build_digest(repute: &Path) -> std::io::Result<String> {
    let mut h = Fnv64::new();
    h.write(&std::fs::read(repute)?);
    h.write(&std::fs::read(std::env::current_exe()?)?);
    Ok(format!("{:016x}", h.finish()))
}

/// Records `value` under `key` in the benchmark's work area on first
/// sight and afterwards requires every run to reproduce it exactly, so a
/// count or output that drifts between runs of one seed and one build is
/// flagged, not averaged. Returns the earlier value on a mismatch.
pub fn same_as_before(store: &Path, key: &str, value: &str) -> std::io::Result<Option<String>> {
    std::fs::create_dir_all(store)?;
    let path = store.join(key);
    match std::fs::read_to_string(&path) {
        Ok(before) if before == value => Ok(None),
        Ok(before) => Ok(Some(before)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::write(&path, value)?;
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in `0..=1`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median (the mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
