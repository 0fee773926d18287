//! Seeded inputs: reference, reads and truth, written with the genome
//! crate's generators. The program under test only sees the files.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use repute_genome::fasta::{write_fasta, FastaRecord};
use repute_genome::fastq::{write_fastq, FastqRecord};
use repute_genome::reads::{ErrorProfile, ReadOrigin, ReadSimulator};
use repute_genome::synth::{ReferenceBuilder, RepeatFamily};
use repute_prefilter::PrefilterMode;

use crate::Result;

/// Reference length of every workload (chr21-like composition).
const REF_LEN: usize = 4_000_000;

/// Share of reads drawn as random noise that maps nowhere.
const UNMAPPABLE: f64 = 0.02;

/// Name of the single reference record.
const REF_NAME: &str = "chrSim";

/// One map workload: its inputs and the `repute map` options it runs.
pub struct MapSpec {
    /// Adds young, low-divergence repeat families to the reference.
    pub young_repeats: bool,
    pub read_len: usize,
    pub reads: usize,
    pub profile: ErrorProfile,
    pub delta: u32,
    pub prefilter: PrefilterMode,
    /// `--platform` (with `--schedule dynamic`), if any.
    pub platform: Option<&'static str>,
}

pub const MAP_100BP_D5: MapSpec = MapSpec {
    young_repeats: false,
    read_len: 100,
    reads: 2_500,
    profile: ErrorProfile::err012100(),
    delta: 5,
    prefilter: PrefilterMode::None,
    platform: None,
};

pub const MAP_150BP_D7_REPEATS: MapSpec = MapSpec {
    young_repeats: true,
    read_len: 150,
    reads: 1_000,
    profile: ErrorProfile::srr826460(),
    delta: 7,
    prefilter: PrefilterMode::Both,
    platform: Some("hikey970"),
};

/// Generated files plus the in-memory reads and their truth.
pub struct Inputs {
    pub fasta: PathBuf,
    pub fastq: PathBuf,
    pub reads: Vec<FastqRecord>,
    pub truth: Vec<Option<ReadOrigin>>,
}

/// Writes `reference.fa`, `reads.fq` and `truth.tsv` for `spec` into `dir`.
pub fn generate(spec: &MapSpec, seed: u64, dir: &Path) -> Result<Inputs> {
    let started = Instant::now();
    let mut builder = ReferenceBuilder::new(REF_LEN).seed(seed);
    if spec.young_repeats {
        // `ReferenceBuilder`'s default chr21-like families (Alu-like and
        // LINE-like), plus young families whose copies are nearly
        // identical: a few 300 bp units at 2%, and many 2 kbp units at 5%
        // that give reads hundreds of seed hits, mostly in windows beyond
        // delta.
        builder = builder.repeat_families(vec![
            RepeatFamily {
                unit_len: 300,
                copies: REF_LEN / 1_100,
                divergence: 0.12,
            },
            RepeatFamily {
                unit_len: 2_000,
                copies: REF_LEN / 12_000,
                divergence: 0.18,
            },
            RepeatFamily {
                unit_len: 300,
                copies: REF_LEN / 40_000,
                divergence: 0.02,
            },
            RepeatFamily {
                unit_len: 2_000,
                copies: REF_LEN / 6_000,
                divergence: 0.05,
            },
        ]);
    }
    let reference = builder.build();
    let simulated = ReadSimulator::new(spec.read_len, spec.reads)
        .profile(spec.profile)
        .unmappable_fraction(UNMAPPABLE)
        .seed(seed ^ 0x5EED)
        .simulate_fastq(&reference);
    let (reads, truth): (Vec<FastqRecord>, Vec<Option<ReadOrigin>>) = simulated.into_iter().unzip();

    let fasta = dir.join("reference.fa");
    let mut out = BufWriter::new(File::create(&fasta)?);
    write_fasta(&mut out, &[FastaRecord::new(REF_NAME, reference)], 70)?;
    out.flush()?;
    let fastq = dir.join("reads.fq");
    let mut out = BufWriter::new(File::create(&fastq)?);
    write_fastq(&mut out, &reads)?;
    out.flush()?;
    let mut out = BufWriter::new(File::create(dir.join("truth.tsv"))?);
    writeln!(out, "read\tstrand\tposition\tedits")?;
    for (read, origin) in reads.iter().zip(&truth) {
        match origin {
            Some(o) => writeln!(
                out,
                "{}\t{}\t{}\t{}",
                read.id,
                o.strand.symbol(),
                o.position,
                o.edits
            )?,
            None => writeln!(out, "{}\t*\t*\t*", read.id)?,
        }
    }
    out.flush()?;
    eprintln!(
        "perfbench: generated inputs in {:.2} s",
        started.elapsed().as_secs_f64()
    );
    Ok(Inputs {
        fasta,
        fastq,
        reads,
        truth,
    })
}
