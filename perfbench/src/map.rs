//! The `repute map` workloads: end to end through the CLI, and traced
//! through the in-process composition.

use std::collections::HashMap;
use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use repute_core::{map_scheduled_with_faults_traced, ReputeMapper, Schedule, ScheduleMode};
use repute_hetsim::{profiles, FaultPlan, Platform};
use repute_obs::MapMetrics;
use repute_prefilter::PrefilterMode;

use crate::check::{self, median, percentile, ratio};
use crate::gen::{self, MapSpec};
use crate::spans::Tracer;
use crate::{compose, proc, spec, Args, Report, Result, WORK_ROOT};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Fewest `repute map` processes a run times, however long they take.
const MIN_RUNS: usize = 3;

/// A `repute` command with stdio detached; stderr goes to `log`.
pub fn repute(args: &Args, log: &Path) -> Result<Command> {
    let mut cmd = Command::new(&args.repute);
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(File::create(log)?);
    Ok(cmd)
}

/// Fails with the tail of the child's log unless it exited cleanly.
pub fn ensure_success(exit: &proc::Exit, what: &str, log: &Path) -> Result<()> {
    if exit.success() {
        return Ok(());
    }
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let tail: Vec<&str> = text.lines().rev().take(5).collect();
    Err(format!(
        "{what} exited with {:?}: {}",
        exit.code,
        tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
    )
    .into())
}

/// `repute index` into `rpx`.
pub fn index(args: &Args, fasta: &Path, rpx: &Path, log: &Path) -> Result<proc::Exit> {
    let exit = proc::run(
        repute(args, log)?
            .arg("index")
            .arg("--reference")
            .arg(fasta)
            .arg("--output")
            .arg(rpx),
    )?;
    ensure_success(&exit, "repute index", log)?;
    Ok(exit)
}

fn map_command(
    args: &Args,
    spec: &MapSpec,
    rpx: &Path,
    fastq: &Path,
    sam: &Path,
    log: &Path,
) -> Result<Command> {
    let mut cmd = repute(args, log)?;
    cmd.arg("map")
        .arg("--index")
        .arg(rpx)
        .arg("--reads")
        .arg(fastq)
        .arg("--delta")
        .arg(spec.delta.to_string())
        .arg("--output")
        .arg(sam);
    if spec.prefilter != PrefilterMode::None {
        cmd.arg("--prefilter").arg(spec.prefilter.to_string());
    }
    if let Some(platform) = spec.platform {
        cmd.args(["--platform", platform, "--schedule", "dynamic"]);
    }
    Ok(cmd)
}

fn store() -> std::path::PathBuf {
    Path::new(WORK_ROOT).join("repeat-check")
}

/// Key of a value stored for the exact-repeat check: workload, seed and
/// a digest of the `repute` binary and of this executable, so that only
/// runs of one build are compared and a code change starts afresh.
fn repeat_key(args: &Args, what: &str) -> Result<String> {
    let build = check::build_digest(&args.repute)?;
    Ok(format!("{}-s{}-{build}.{what}", args.workload, args.seed))
}

/// Flags a SAM that differs from an earlier run of the same seed.
fn sam_repeats(args: &Args, sam: &[u8]) -> Result<bool> {
    let key = repeat_key(args, "sam")?;
    match check::same_as_before(&store(), &key, &check::digest(sam))? {
        None => Ok(true),
        Some(before) => {
            eprintln!("perfbench: SAM digest differs from an earlier run of this seed ({before})");
            Ok(false)
        }
    }
}

/// Untraced: `repute index` set-up, then `repute map` processes for
/// `--seconds`, each one job of `spec.reads` reads.
pub fn end_to_end(args: &Args, spec: &MapSpec, work: &Path) -> Result<Report> {
    let inputs = gen::generate(spec, args.seed, work)?;
    let rpx = work.join("ref.rpx");
    let log = work.join("repute.log");
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        setup.push(index(args, &inputs.fasta, &rpx, &log)?.wall_s);
    }

    let reads = inputs.reads.len() as u64;
    let sam_path = work.join("out.sam");
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut first: Option<(Vec<u8>, u64)> = None;
    let mut recall = check::Recall::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let started = Instant::now();
    while walls.len() < MIN_RUNS || started.elapsed().as_secs_f64() < args.seconds {
        let _ = std::fs::remove_file(&sam_path);
        let exit = proc::run(&mut map_command(
            args,
            spec,
            &rpx,
            &inputs.fastq,
            &sam_path,
            &log,
        )?)?;
        attempted += reads;
        walls.push(exit.wall_s);
        rss.push(exit.peak_rss_mib);
        if let Err(e) = ensure_success(&exit, "repute map", &log) {
            eprintln!("perfbench: {e}");
            failed += reads;
            continue;
        }
        let sam = std::fs::read(&sam_path)?;
        match &first {
            Some((bytes, missing)) if *bytes == sam => failed += missing,
            Some(_) => {
                eprintln!("perfbench: repute map wrote a different SAM than the first run");
                failed += reads;
            }
            None => {
                let text = std::str::from_utf8(&sam)?;
                let alignments = check::parse_sam(text);
                let missing = check::missing_records(&alignments, &inputs.reads);
                recall = check::recall(&alignments, &inputs.reads, &inputs.truth, spec.delta);
                if !sam_repeats(args, &sam)? {
                    failed += reads;
                }
                failed += missing;
                first = Some((sam, missing));
            }
        }
    }

    let per_s: Vec<f64> = walls.iter().map(|w| reads as f64 / w).collect();
    let jobs_per_s: Vec<f64> = walls.iter().map(|w| 1.0 / w).collect();
    let mut values = HashMap::new();
    values.insert("setup_s", median(&setup));
    values.insert("map_reads_per_s", median(&per_s));
    values.insert("jobs_per_s", median(&jobs_per_s));
    values.insert("job_p50_ms", median(&walls) * 1e3);
    values.insert("job_p99_ms", percentile(&walls, 0.99) * 1e3);
    values.insert("peak_rss_mib", median(&rss));
    values.insert("recall", recall.fraction());
    eprintln!(
        "perfbench: {} repute map runs of {reads} reads; recall {}/{}",
        walls.len(),
        recall.found,
        recall.eligible
    );
    Ok(Report {
        correct: failed == 0 && first.is_some(),
        attempted,
        failed,
        values,
    })
}

fn platform_by_name(name: &str) -> Result<Platform> {
    match name {
        "hikey970" => Ok(profiles::system2_hikey970()),
        other => Err(format!("unknown platform {other:?}").into()),
    }
}

/// Traced: the composed path in process, untraced and traced, checked
/// against one untraced `repute map` process.
pub fn traced(args: &Args, spec: &MapSpec, work: &Path) -> Result<Report> {
    let inputs = gen::generate(spec, args.seed, work)?;
    let rpx = work.join("ref.rpx");
    let log = work.join("repute.log");
    let mut t = Tracer::new(true);
    let set = compose::build_and_load(&inputs.fasta, &rpx, &mut t)?;

    let sam_path = work.join("out.sam");
    let exit = proc::run(&mut map_command(
        args,
        spec,
        &rpx,
        &inputs.fastq,
        &sam_path,
        &log,
    )?)?;
    ensure_success(&exit, "repute map", &log)?;
    let cli_sam = std::fs::read(&sam_path)?;

    let mut config = compose::config(spec.delta, spec.prefilter)?;
    if spec.platform.is_some() {
        config = config.with_schedule(ScheduleMode::Dynamic);
    }
    let (pass, same, overhead) = passes(&mut t, |tracer| {
        compose::map_fastq(&set, &config, &inputs.fastq, tracer)
    })?;
    let reads = pass.reads.len() as u64;
    let mut failed = 0u64;
    let mut fail = |what: &str, n: u64| {
        eprintln!("perfbench: {what}");
        failed += n;
    };
    if pass.sam != cli_sam {
        fail("the composed path's SAM differs from repute map's", reads);
    }
    if !same {
        fail("the untraced and traced passes differ", reads);
    }
    if !sam_repeats(args, &cli_sam)? {
        fail(
            "repute map's SAM drifted from an earlier run of this seed",
            reads,
        );
    }
    if !compose::agrees_with_mapper(&set, &config, &pass.reads, &pass.mappings, &pass.metrics) {
        fail(
            "the composed path's mappings or metrics differ from ReputeMapper's",
            reads,
        );
    }

    let mut values = HashMap::new();
    if let Some(name) = spec.platform {
        let platform = platform_by_name(name)?;
        let mapper = ReputeMapper::new(Arc::clone(set.indexed()), config);
        let schedule = Schedule::for_config(&config, &platform, pass.reads.len());
        t.begin("core.executor", 0);
        let (run, _) = map_scheduled_with_faults_traced(
            &mapper,
            &platform,
            &schedule,
            config.host_threads(),
            &FaultPlan::new(),
            config.max_retries(),
            false,
            &pass.reads,
        )?;
        t.end();
        let differing = run
            .outputs
            .iter()
            .zip(&pass.mappings)
            .filter(|(o, m)| o.mappings != **m)
            .count() as u64;
        if differing > 0 || run.outputs.len() != pass.mappings.len() {
            fail(
                "the executor's mappings differ from the SAM pass",
                differing.max(1),
            );
        }
        values.insert("hetsim.simulated_s", run.simulated_seconds);
        values.insert("hetsim.energy_j", run.energy.energy_j);
        values.insert(
            "core.batches",
            run.timelines.iter().map(Vec::len).sum::<usize>() as f64,
        );
    }

    mapping_counts(&mut values, &pass.metrics, reads);
    values.insert("eval.sam_bytes", pass.sam.len() as f64);
    values.insert("index.bytes", compose::index_bytes(set.indexed()) as f64);
    values.insert("trace.overhead_s", overhead);
    eprintln!(
        "perfbench: tracing overhead {overhead:.3} s, {} spans",
        t.span_count()
    );
    finish_traced(args, &t, values, reads, failed)
}

/// Traced and untraced pass pairs behind `trace.overhead_s`.
const OVERHEAD_PAIRS: usize = 3;

/// Runs `pass` once as warm-up, then traced and untraced in turn,
/// `OVERHEAD_PAIRS` times each. The first traced pass records into `t`;
/// the others record into throwaway recorders of the same cost. Returns
/// the output, whether every pass gave the same output, and the tracing
/// overhead: median traced minus median untraced wall time.
pub fn passes<P: PartialEq>(
    t: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> Result<P>,
) -> Result<(P, bool, f64)> {
    let mut timed = |tracer: &mut Tracer| -> Result<(P, f64)> {
        let started = Instant::now();
        let out = pass(tracer)?;
        Ok((out, started.elapsed().as_secs_f64()))
    };
    let (first, _) = timed(&mut Tracer::new(false))?;
    let mut same = true;
    let mut traced = Vec::new();
    let mut plain = Vec::new();
    for i in 0..OVERHEAD_PAIRS {
        let (out, wall) = if i == 0 {
            timed(t)?
        } else {
            timed(&mut Tracer::new(true))?
        };
        same &= out == first;
        traced.push(wall);
        let (out, wall) = timed(&mut Tracer::new(false))?;
        same &= out == first;
        plain.push(wall);
    }
    Ok((first, same, median(&traced) - median(&plain)))
}

/// Exact per-layer counts of a composed mapping pass over `reads` reads.
pub fn mapping_counts(values: &mut HashMap<&'static str, f64>, m: &MapMetrics, reads: u64) {
    let pairs: [(&'static str, u64); 12] = [
        ("filter.fm_extend_ops", m.fm_extend_ops),
        ("filter.dp_cells", m.dp_cells),
        ("filter.seeds", m.seeds_selected),
        ("index.locate_ops", m.fm_locate_ops),
        ("mappers.candidates_raw", m.candidates_raw),
        ("mappers.candidates_merged", m.candidates_merged),
        ("prefilter.tested", m.prefilter_tested),
        ("prefilter.rejected", m.prefilter_rejected),
        ("prefilter.words", m.prefilter_words),
        ("align.verifications", m.verifications),
        ("align.word_updates", m.word_updates),
        ("align.hits", m.hits),
    ];
    for (name, v) in pairs {
        values.insert(name, v as f64);
    }
    values.insert("filter.extends_per_read", ratio(m.fm_extend_ops, reads));
    values.insert(
        "mappers.merge_ratio",
        ratio(m.candidates_merged, m.candidates_raw),
    );
    values.insert(
        "prefilter.reject_ratio",
        ratio(m.prefilter_rejected, m.prefilter_tested),
    );
    values.insert("align.hit_ratio", ratio(m.hits, m.verifications));
}

/// Adds the spans' self times, checks that every count repeats an
/// earlier run of this seed exactly, writes the Chrome trace and checks
/// that `repute trace` summarises it.
pub fn finish_traced(
    args: &Args,
    t: &Tracer,
    mut values: HashMap<&'static str, f64>,
    attempted: u64,
    mut failed: u64,
) -> Result<Report> {
    let self_times = t.self_times();
    for m in spec::PER_LAYER.iter().filter(|m| m.unit == "s") {
        if let Some(span) = m.name.strip_suffix("_s") {
            if let Some(&v) = self_times.get(span) {
                values.insert(m.name, v);
            }
        }
    }

    let mut counts = String::new();
    for m in spec::PER_LAYER.iter().filter(|m| m.unit != "s") {
        let v = values.get(m.name).copied().unwrap_or(0.0);
        counts.push_str(&format!("{}={v}\n", m.name));
    }
    let key = repeat_key(args, "counts")?;
    if let Some(before) = check::same_as_before(&store(), &key, &counts)? {
        for (now, was) in counts.lines().zip(before.lines()) {
            if now != was {
                eprintln!("perfbench: count drift: {was} before, {now} now");
            }
        }
        failed = attempted;
    }

    let trace_path = Path::new(WORK_ROOT).join(format!("trace-{}.json", args.workload));
    std::fs::write(&trace_path, t.chrome_trace())?;
    let log = Path::new(WORK_ROOT).join(format!("trace-{}.log", args.workload));
    let exit = proc::run(
        Command::new(&args.repute)
            .arg("trace")
            .arg(&trace_path)
            .stdin(Stdio::null())
            .stdout(File::create(&log)?)
            .stderr(Stdio::null()),
    )?;
    if !exit.success() {
        eprintln!("perfbench: repute trace could not summarise {trace_path:?}");
        failed = attempted;
    }
    eprintln!("perfbench: wrote {trace_path:?} (summary in {log:?})");
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        values,
    })
}
