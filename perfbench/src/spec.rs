//! What the benchmark measures: its workloads, its end-to-end metrics
//! with their regression bounds, and its per-layer metrics with the
//! end-to-end metric each should move. `BENCHMARK.json` and
//! `perfbench/layers.json` are written from these tables
//! (`bash perfbench/run.sh --write-manifest`), so the printed metric
//! names and the manifest cannot drift apart.

/// Seconds one run measures: `run_seconds`, passed back as `--seconds`.
pub const RUN_SECONDS: u64 = 30;

/// A seed no tuning run used; a later change confirms its claim on it.
pub const HELD_OUT_SEED: u64 = 4_242_001;

/// One benchmark workload.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "map-100bp-d5",
        why: "default repute map --index on 100 bp reads, delta 5: FM frequency-table and OSS \
              seed filtration dominate; prefilter and executor are bypassed",
    },
    WorkloadInfo {
        name: "map-150bp-d7-repeats",
        why: "150 bp reads, delta 7, on a reference with young repeats, --prefilter both \
              --platform hikey970: candidates, prefilter, verification and executor dominate",
    },
    WorkloadInfo {
        name: "serve-small-jobs",
        why: "repute serve with a compacting journal over a Unix socket, 2 closed-loop \
              clients of 1-4 read jobs and rare 100-read jobs: per-job path and queueing",
    },
];

/// One end-to-end metric (host wall clock, tracing off).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "map_reads_per_s",
        unit: "reads/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "jobs/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "job_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "job_p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "recall",
        unit: "fraction",
        better: "higher",
        bound: 0.02,
    },
];

/// One per-layer metric of the traced run, with the end-to-end metric
/// it should move and the workloads on which it should move it.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The library call the metric is measured around or counted at.
    pub call: &'static str,
    pub moves: &'static str,
    pub on: &'static [&'static str],
}

const MAP100: &str = "map-100bp-d5";
const REPEATS: &str = "map-150bp-d7-repeats";
const SERVE: &str = "serve-small-jobs";
const ALL: &[&str] = &[MAP100, REPEATS, SERVE];
const MAPS: &[&str] = &[MAP100, REPEATS];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    call: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        call,
        moves,
        on,
    }
}

pub const PER_LAYER: &[Layer] = &[
    layer(
        "genome.fasta_parse_s",
        "s",
        "lower",
        "fasta::read_fasta",
        "setup_s",
        ALL,
    ),
    layer(
        "genome.fastq_parse_s",
        "s",
        "lower",
        "fastq::FastqReader",
        "map_reads_per_s",
        MAPS,
    ),
    layer(
        "index.build_s",
        "s",
        "lower",
        "ReferenceSet::build (IndexedReference::build)",
        "setup_s",
        ALL,
    ),
    layer(
        "index.load_s",
        "s",
        "lower",
        "ReferenceSet::read_from (.rpx)",
        "setup_s",
        ALL,
    ),
    layer(
        "index.bytes",
        "bytes",
        "lower",
        "FM footprint + q-gram index + prefilter bins",
        "peak_rss_mib",
        ALL,
    ),
    layer(
        "index.locate_s",
        "s",
        "lower",
        "FmIndex::locate",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "index.locate_ops",
        "count",
        "lower",
        "FmIndex::locate positions",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "filter.freq_table_s",
        "s",
        "lower",
        "FreqTable::build",
        "map_reads_per_s",
        ALL,
    ),
    layer(
        "filter.fm_extend_ops",
        "count",
        "lower",
        "FreqTable::build extends",
        "map_reads_per_s",
        ALL,
    ),
    layer(
        "filter.extends_per_read",
        "count",
        "lower",
        "FreqTable::build extends / reads",
        "map_reads_per_s",
        ALL,
    ),
    layer(
        "filter.oss_select_s",
        "s",
        "lower",
        "OssSolver::select",
        "map_reads_per_s",
        ALL,
    ),
    layer(
        "filter.dp_cells",
        "count",
        "lower",
        "OssSolver::select cells",
        "map_reads_per_s",
        ALL,
    ),
    layer(
        "filter.seeds",
        "count",
        "lower",
        "OssSolver::select seeds",
        "map_reads_per_s",
        ALL,
    ),
    layer(
        "mappers.merge_s",
        "s",
        "lower",
        "CandidateSet::into_merged",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "mappers.candidates_raw",
        "count",
        "lower",
        "CandidateSet::add",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "mappers.candidates_merged",
        "count",
        "lower",
        "CandidateSet::into_merged",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "mappers.merge_ratio",
        "fraction",
        "lower",
        "candidates_merged / candidates_raw",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "prefilter.examine_s",
        "s",
        "lower",
        "PreFilter::examine_batch of the configured chain, inside verify_metered",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "prefilter.tested",
        "count",
        "lower",
        "PreFilter::examine_batch candidates",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "prefilter.rejected",
        "count",
        "higher",
        "PreFilter::examine_batch rejections",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "prefilter.reject_ratio",
        "fraction",
        "higher",
        "rejected / tested",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "prefilter.words",
        "count",
        "lower",
        "PreFilter::examine_batch cost words",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "align.verify_s",
        "s",
        "lower",
        "VerifyEngine::verify_metered, less its prefilter calls",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "align.verifications",
        "count",
        "lower",
        "VerifyEngine::verify_metered windows",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "align.word_updates",
        "count",
        "lower",
        "VerifyEngine::verify_metered Myers words",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "align.hits",
        "count",
        "higher",
        "VerifyEngine::verify_metered hits",
        "recall",
        ALL,
    ),
    layer(
        "align.hit_ratio",
        "fraction",
        "higher",
        "hits / verifications",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "eval.sam_write_s",
        "s",
        "lower",
        "sam::write_resolved_record",
        "map_reads_per_s",
        &[MAP100],
    ),
    layer(
        "eval.sam_bytes",
        "bytes",
        "lower",
        "sam::write_resolved_record bytes",
        "map_reads_per_s",
        &[MAP100],
    ),
    layer(
        "core.map_read_s",
        "s",
        "lower",
        "ReputeMapper::map_read_metered glue (self time)",
        "map_reads_per_s",
        ALL,
    ),
    layer(
        "core.executor_s",
        "s",
        "lower",
        "map_scheduled_with_faults_traced",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "core.batches",
        "count",
        "lower",
        "executor kernel launches",
        "map_reads_per_s",
        &[REPEATS],
    ),
    layer(
        "hetsim.simulated_s",
        "sim_s",
        "lower",
        "MappingRun::simulated_seconds (device model)",
        "none (model count)",
        &[REPEATS, SERVE],
    ),
    layer(
        "hetsim.energy_j",
        "J",
        "lower",
        "MappingRun::energy (device model)",
        "none (model count)",
        &[REPEATS],
    ),
    layer(
        "serve.parse_s",
        "s",
        "lower",
        "envelope::parse_request",
        "jobs_per_s, job_p50_ms",
        &[SERVE],
    ),
    layer(
        "serve.accept_s",
        "s",
        "lower",
        "ServeCore::submit (admission + journal append)",
        "jobs_per_s, job_p50_ms",
        &[SERVE],
    ),
    layer(
        "serve.drain_s",
        "s",
        "lower",
        "ServeCore::drain + JobResponse::to_json_line (batch, commit, encode)",
        "jobs_per_s, job_p50_ms",
        &[SERVE],
    ),
    layer(
        "serve.queue_wait_s",
        "s",
        "lower",
        "submit return to start of the drain that runs the job",
        "job_p99_ms",
        &[SERVE],
    ),
    layer(
        "serve.batches",
        "count",
        "lower",
        "ServeCounters::batches",
        "jobs_per_s",
        &[SERVE],
    ),
    layer(
        "serve.jobs_per_batch",
        "count",
        "higher",
        "completed / batches",
        "jobs_per_s",
        &[SERVE],
    ),
    layer(
        "serve.journal_bytes",
        "bytes",
        "lower",
        "ServeCore::journal_size_bytes",
        "job_p50_ms",
        &[SERVE],
    ),
    layer(
        "trace.overhead_s",
        "s",
        "lower",
        "traced minus untraced in-process pass",
        "none (tracing cost)",
        ALL,
    ),
];

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"perfbench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders `perfbench/layers.json`: the held-out seed, each workload's
/// reason, and the layer metric → end-to-end metric → workload table.
pub fn layers_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"held_out_seed\": {HELD_OUT_SEED},\n"));
    out.push_str("  \"workloads\": {\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {}: {}", quote(w.name), quote(w.why)))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  },\n  \"layers\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            let on: Vec<String> = m.on.iter().map(|w| quote(w)).collect();
            format!(
                "    {{\"metric\": {}, \"call\": {}, \"moves\": {}, \"workloads\": [{}]}}",
                quote(m.name),
                quote(m.call),
                quote(m.moves),
                on.join(", ")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    repute_obs::json::escape_into(&mut out, s);
    out.push('"');
    out
}
