//! The `repute map` path composed in process from each layer's public
//! calls, with a span around every call. It must write the same SAM as
//! the CLI: a mismatch fails the run.

use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use repute_core::{ReputeConfig, ReputeMapper};
use repute_eval::sam;
use repute_filter::freq::FreqTable;
use repute_filter::oss::OssSolver;
use repute_genome::fastq::FastqReader;
use repute_genome::{DnaSeq, Strand};
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::{CandidateSet, IndexedReference, Mapper as _, Mapping, VerifyEngine};
use repute_obs::MapMetrics;
use repute_prefilter::{
    Candidate, Chain, PreFilter, PrefilterMode, QgramFilter, ShdFilter, Verdict,
};

use crate::spans::Tracer;
use crate::Result;

/// The mapper's cap on located occurrences per seed.
const PER_SEED_LOCATE_CAP: usize = 20_000;

/// What one pass over a read set produced.
#[derive(PartialEq)]
pub struct Pass {
    pub sam: Vec<u8>,
    pub metrics: MapMetrics,
    /// Raw (unresolved) mappings per read, in read order.
    pub mappings: Vec<Vec<Mapping>>,
    pub reads: Vec<DnaSeq>,
}

/// `repute map` defaults the workloads keep: `--s-min 12`,
/// `--max-locations 100`.
pub fn config(delta: u32, prefilter: PrefilterMode) -> Result<ReputeConfig> {
    Ok(ReputeConfig::new(delta, 12)
        .map_err(|e| e.to_string())?
        .with_max_locations(100)
        .with_prefilter(prefilter))
}

/// Per-pass mapping context: the index, the configuration and the
/// prefilter chain the configuration selects.
struct Mapper<'a> {
    indexed: &'a IndexedReference,
    config: &'a ReputeConfig,
    filter: Option<&'a dyn PreFilter>,
}

/// Calls `f` with a [`Mapper`] whose prefilter chain matches `config`.
fn with_mapper<T>(
    indexed: &IndexedReference,
    config: &ReputeConfig,
    f: impl FnOnce(&Mapper<'_>) -> T,
) -> T {
    let shd = ShdFilter::new();
    let qgram = QgramFilter::new(indexed.prefilter_bins());
    let chain = Chain::new(vec![&qgram, &shd]);
    let filter: Option<&dyn PreFilter> = match config.prefilter() {
        PrefilterMode::None => None,
        PrefilterMode::Shd => Some(&shd),
        PrefilterMode::Qgram => Some(&qgram),
        PrefilterMode::Both => Some(&chain),
    };
    f(&Mapper {
        indexed,
        config,
        filter,
    })
}

/// The configured prefilter, timed: every `examine` and `examine_batch`
/// call the verification engine makes is logged as a host-clock
/// interval, later recorded as a `prefilter.examine` span under the
/// `align.verify` span that made it.
struct TimedFilter<'a> {
    inner: &'a dyn PreFilter,
    origin: Instant,
    calls: Mutex<Vec<(f64, f64)>>,
}

impl<'a> TimedFilter<'a> {
    fn new(inner: &'a dyn PreFilter, origin: Instant) -> TimedFilter<'a> {
        TimedFilter {
            inner,
            origin,
            calls: Mutex::new(Vec::new()),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let begin = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        if let Ok(mut calls) = self.calls.lock() {
            calls.push((begin, end));
        }
        out
    }

    /// Moves the logged calls into `t` as children of its open span.
    fn flush(&self, t: &mut Tracer, req: u64) {
        if let Ok(mut calls) = self.calls.lock() {
            for (begin, end) in calls.drain(..) {
                t.child("prefilter.examine", req, begin, end);
            }
        }
    }
}

impl fmt::Debug for TimedFilter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TimedFilter").field(&self.inner).finish()
    }
}

impl PreFilter for TimedFilter<'_> {
    fn examine(&self, candidate: &Candidate<'_>) -> Verdict {
        self.timed(|| self.inner.examine(candidate))
    }

    fn examine_batch(&self, candidates: &[Candidate<'_>], verdicts: &mut Vec<Verdict>) {
        self.timed(|| self.inner.examine_batch(candidates, verdicts));
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Mapper<'_> {
    /// `ReputeMapper::map_read_metered`, one span per layer call. The
    /// prefilter runs inside the engine's verification, as in the
    /// mapper, so its spans nest in `align.verify`.
    fn map_read(
        &self,
        read: &DnaSeq,
        req: u64,
        metrics: &mut MapMetrics,
        t: &mut Tracer,
    ) -> Vec<Mapping> {
        t.begin("core.map_read", req);
        let fm = self.indexed.fm();
        let delta = self.config.delta();
        let limit = self.config.max_locations();
        let timed = self
            .filter
            .filter(|_| t.enabled())
            .map(|filter| TimedFilter::new(filter, t.origin()));
        let engine = VerifyEngine::new(self.indexed.codes(), delta);
        let engine = match (&timed, self.filter) {
            (Some(timed), _) => engine.with_prefilter(timed),
            (None, Some(filter)) => engine.with_prefilter(filter),
            (None, None) => engine,
        };
        let solver = OssSolver::new(*self.config.oss_params());
        let mut out = Vec::new();
        let strands = [
            (Strand::Forward, read.to_codes()),
            (Strand::Reverse, read.reverse_complement().to_codes()),
        ];
        for (strand, codes) in strands {
            if !self.config.feasible_for(codes.len()) {
                continue;
            }
            t.begin("filter.freq_table", req);
            let table = FreqTable::build(fm, &codes, self.config.oss_params());
            t.end();
            table.record_metrics(metrics);

            t.begin("filter.oss_select", req);
            let outcome = solver.select(&codes, &table);
            t.end();
            outcome.record_metrics(metrics);

            t.begin("index.locate", req);
            let mut candidates = CandidateSet::new();
            for seed in &outcome.selection.seeds {
                if let Some(interval) = seed.interval {
                    let positions = fm.locate(interval, PER_SEED_LOCATE_CAP);
                    metrics.fm_locate_ops += positions.len() as u64;
                    metrics.candidates_raw += positions.len() as u64;
                    for pos in positions {
                        candidates.add(pos, seed.anchor);
                    }
                }
            }
            t.end();

            t.begin("mappers.merge", req);
            let merged = candidates.into_merged(CandidateSet::merge_gap(delta));
            t.end();
            metrics.candidates_merged += merged.len() as u64;

            t.begin("align.verify", req);
            engine.verify_metered(&codes, strand, &merged, limit, &mut out, metrics);
            if let Some(timed) = &timed {
                timed.flush(t, req);
            }
            t.end();
            if out.len() >= limit {
                break;
            }
        }
        t.end();
        out
    }
}

/// Whether `ReputeMapper::map_read_metered` gives, read by read, the
/// composed path's mappings and, summed over the reads, its metrics.
pub fn agrees_with_mapper<'a>(
    set: &ReferenceSet,
    config: &ReputeConfig,
    reads: impl IntoIterator<Item = &'a DnaSeq>,
    mappings: &[Vec<Mapping>],
    metrics: &MapMetrics,
) -> bool {
    let mapper = ReputeMapper::new(Arc::clone(set.indexed()), *config);
    let mut total = MapMetrics::new();
    let mut n = 0;
    for (read, expected) in reads.into_iter().zip(mappings) {
        if mapper.map_read_metered(read, &mut total).mappings != *expected {
            return false;
        }
        n += 1;
    }
    n == mappings.len() && total == *metrics
}

/// `repute map` over a FASTQ file: parse, map and SAM-encode each read in
/// turn, as the CLI's sequential pass does.
pub fn map_fastq(
    set: &ReferenceSet,
    config: &ReputeConfig,
    fastq: &Path,
    t: &mut Tracer,
) -> Result<Pass> {
    let names: Vec<&str> = set.records().iter().map(|(n, _)| n.as_str()).collect();
    let mut out = sam_header(set)?.into_bytes();
    let mut metrics = MapMetrics::new();
    let mut mappings = Vec::new();
    let mut reads = Vec::new();
    let mut records = FastqReader::new(BufReader::new(File::open(fastq)?));
    with_mapper(set.indexed(), config, |mapper| -> Result<()> {
        for req in 0u64.. {
            t.begin("genome.fastq_parse", req);
            let record = records.next();
            t.end();
            let Some(record) = record else { break };
            let record = record?;
            let raw = mapper.map_read(&record.seq, req, &mut metrics, t);
            t.begin("eval.sam_write", req);
            let resolved = set.resolve_mappings(record.seq.len(), &raw);
            sam::write_resolved_record(&mut out, &names, &record.id, &record.seq, &resolved, None)?;
            t.end();
            mappings.push(raw);
            reads.push(record.seq);
        }
        Ok(())
    })?;
    Ok(Pass {
        sam: out,
        metrics,
        mappings,
        reads,
    })
}

/// SAM records (no header) of each read from the composed path, with
/// the pass's metrics and each read's raw mappings.
pub fn sam_records(
    set: &ReferenceSet,
    config: &ReputeConfig,
    reads: &[(String, DnaSeq)],
    t: &mut Tracer,
) -> Result<(Vec<String>, MapMetrics, Vec<Vec<Mapping>>)> {
    let names: Vec<&str> = set.records().iter().map(|(n, _)| n.as_str()).collect();
    let mut metrics = MapMetrics::new();
    let mut records = Vec::with_capacity(reads.len());
    let mut mappings = Vec::with_capacity(reads.len());
    with_mapper(set.indexed(), config, |mapper| -> Result<()> {
        for (req, (id, seq)) in reads.iter().enumerate() {
            let raw = mapper.map_read(seq, req as u64, &mut metrics, t);
            t.begin("eval.sam_write", req as u64);
            let mut out = Vec::new();
            let resolved = set.resolve_mappings(seq.len(), &raw);
            sam::write_resolved_record(&mut out, &names, id, seq, &resolved, None)?;
            t.end();
            records.push(String::from_utf8(out)?);
            mappings.push(raw);
        }
        Ok(())
    })?;
    Ok((records, metrics, mappings))
}

/// The SAM header `repute map` and `repute serve` write for `set`.
pub fn sam_header(set: &ReferenceSet) -> Result<String> {
    let header: Vec<(&str, usize)> = set
        .records()
        .iter()
        .map(|(n, l)| (n.as_str(), *l))
        .collect();
    let mut out = Vec::new();
    sam::write_header_multi(&mut out, &header)?;
    Ok(String::from_utf8(out)?)
}

/// Reads, parses and indexes a FASTA reference, then writes the `.rpx`
/// `repute index` would write and loads it back, as `repute map --index`
/// does. Spans: `genome.fasta_parse`, `index.build`, `index.load`.
pub fn build_and_load(fasta: &Path, rpx: &Path, t: &mut Tracer) -> Result<Arc<ReferenceSet>> {
    use repute_genome::fasta::{read_fasta, AmbiguityPolicy};
    use std::io::{BufWriter, Write};

    t.begin("genome.fasta_parse", 0);
    let source = std::fs::read(fasta)?;
    let records = read_fasta(source.as_slice(), AmbiguityPolicy::Randomize(0))?;
    t.end();
    t.begin("index.build", 0);
    let built = ReferenceSet::build(records.into_iter().map(|r| (r.id, r.seq)).collect());
    t.end();
    let mut out = BufWriter::new(File::create(rpx)?);
    built.write_to(&mut out)?;
    out.flush()?;
    drop(built);
    t.begin("index.load", 0);
    let loaded = ReferenceSet::read_from(BufReader::new(File::open(rpx)?))?;
    t.end();
    Ok(Arc::new(loaded))
}

/// Bytes the loaded index holds: FM-index, q-gram index, prefilter bins.
pub fn index_bytes(indexed: &IndexedReference) -> u64 {
    (indexed.fm().footprint().total()
        + indexed.qgram().heap_bytes()
        + indexed.prefilter_bins().heap_bytes()) as u64
}
