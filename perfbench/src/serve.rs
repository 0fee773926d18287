//! The `repute serve` workload: a daemon with a compacting journal on a
//! Unix socket, loaded by closed-loop clients that each send one job per
//! connection and wait for its answer.

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use repute_core::ReputeMapper;
use repute_eval::sam;
use repute_genome::reads::ReadOrigin;
use repute_genome::rng::StdRng;
use repute_genome::DnaSeq;
use repute_hetsim::profiles;
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::Mapper;
use repute_prefilter::PrefilterMode;
use repute_serve::envelope::{parse_request, JobEnvelope, JobResponse, JobStatus, Request};
use repute_serve::transport::{shutdown_over_socket, submit_over_socket};
use repute_serve::{ServeCore, ServeOptions};

use crate::check::{self, median, percentile, Recall};
use crate::gen::{self, MAP_100BP_D5};
use crate::map::{self, SETUP_REPEATS};
use crate::spans::{Tracer, TID_WAIT};
use crate::{compose, proc, Args, Report, Result};

/// Closed-loop clients (one job in flight each).
const CLIENTS: usize = 2;
/// Jobs draw their reads from the first reads of `map-100bp-d5`.
const POOL: usize = 2_000;
/// Share of jobs carrying `BIG_READS` reads; the rest carry 1-4.
const BIG_SHARE: f64 = 0.02;
const BIG_READS: usize = 100;
/// `--journal-compact-threshold` of the daemon.
const COMPACT_THRESHOLD: usize = 200;
/// Rounds of the traced drive; each sends one job per client.
const TRACED_ROUNDS: usize = 1_000;
/// Longest a daemon may take to accept its first connection.
const LAUNCH_LIMIT: Duration = Duration::from_secs(60);

/// The reads jobs are drawn from, with their truth and expected SAM.
struct Pool {
    reads: Vec<(String, DnaSeq)>,
    truth: Vec<Option<ReadOrigin>>,
    header: String,
    /// Each read's SAM records as `ReputeMapper` output writes them.
    records: Vec<String>,
}

/// One job: `len` consecutive pool reads from `start`.
struct Job {
    id: String,
    start: usize,
    len: usize,
}

impl Job {
    fn line(&self, pool: &Pool) -> String {
        JobEnvelope::new(
            &self.id,
            pool.reads[self.start..self.start + self.len].to_vec(),
        )
        .to_json_line()
    }

    fn expected_sam(&self, pool: &Pool) -> String {
        let mut sam = pool.header.clone();
        for record in &pool.records[self.start..self.start + self.len] {
            sam.push_str(record);
        }
        sam
    }
}

/// A client's seeded job sequence: the socket run and the traced drive
/// replay the same jobs.
struct JobStream {
    rng: StdRng,
    client: usize,
    sent: u64,
}

impl JobStream {
    fn new(seed: u64, client: usize) -> JobStream {
        JobStream {
            rng: StdRng::seed_from_u64(seed ^ (0x10B5 + client as u64).wrapping_mul(0x9E37_79B9)),
            client,
            sent: 0,
        }
    }

    fn next(&mut self) -> Job {
        let len = if self.rng.gen::<f64>() < BIG_SHARE {
            BIG_READS
        } else {
            self.rng.gen_range(1..5usize)
        };
        let start = self.rng.gen_range(0..POOL - len + 1);
        let id = format!("c{}-{}", self.client, self.sent);
        self.sent += 1;
        Job { id, start, len }
    }
}

fn pool_reads(inputs: &gen::Inputs) -> (Vec<(String, DnaSeq)>, Vec<Option<ReadOrigin>>) {
    let reads = inputs.reads[..POOL]
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect();
    (reads, inputs.truth[..POOL].to_vec())
}

/// Checks one response against the expected SAM and adds its reads to
/// the recall tally. Returns whether the job succeeded.
fn check_response(
    pool: &Pool,
    job: &Job,
    response: Option<&JobResponse>,
    recall: &mut Recall,
) -> bool {
    let Some(response) = response.filter(|r| r.status == JobStatus::Ok) else {
        return false;
    };
    let Some(text) = response.sam.as_deref() else {
        return false;
    };
    if text != job.expected_sam(pool) {
        return false;
    }
    let alignments = check::parse_sam(text);
    for i in job.start..job.start + job.len {
        let hits = alignments
            .get(pool.reads[i].0.as_str())
            .map_or(&[][..], Vec::as_slice);
        recall.add(pool.truth[i].as_ref(), hits, MAP_100BP_D5.delta);
    }
    true
}

/// One answered (or failed) job of the load phase.
struct Done {
    latency_s: f64,
    /// Reads of a job answered `OK` with the expected SAM; `None` for a
    /// failed job.
    ok_reads: Option<u64>,
}

fn client(
    seed: u64,
    c: usize,
    pool: &Pool,
    socket: &Path,
    started: Instant,
    seconds: f64,
) -> (Vec<Done>, Recall) {
    let mut stream = JobStream::new(seed, c);
    let mut done = Vec::new();
    let mut recall = Recall::default();
    while started.elapsed().as_secs_f64() < seconds {
        let job = stream.next();
        let line = job.line(pool);
        let t0 = Instant::now();
        let responses = submit_over_socket(socket, &[line]);
        let latency_s = t0.elapsed().as_secs_f64();
        let response = responses
            .as_ref()
            .ok()
            .filter(|r| r.len() == 1)
            .map(|r| &r[0]);
        let ok = check_response(pool, &job, response, &mut recall);
        done.push(Done {
            latency_s,
            ok_reads: ok.then_some(job.len as u64),
        });
    }
    (done, recall)
}

/// Starts `repute serve` and returns it with the seconds from spawn
/// until its socket accepted a connection.
fn launch(
    args: &Args,
    rpx: &Path,
    socket: &Path,
    journal: &Path,
    log: &Path,
) -> Result<(proc::Running, f64)> {
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(socket);
    let mut cmd = map::repute(args, log)?;
    cmd.arg("serve")
        .arg("--index")
        .arg(rpx)
        .arg("--socket")
        .arg(socket)
        .arg("--journal")
        .arg(journal)
        .arg("--journal-compact-threshold")
        .arg(COMPACT_THRESHOLD.to_string());
    let mut daemon = proc::Running::spawn(&mut cmd)?;
    loop {
        if UnixStream::connect(socket).is_ok() {
            let ready = daemon.started().elapsed().as_secs_f64();
            return Ok((daemon, ready));
        }
        if let Some(exit) = daemon.try_wait()? {
            map::ensure_success(&exit, "repute serve", log)?;
            return Err("repute serve exited before accepting a connection".into());
        }
        if daemon.started().elapsed() > LAUNCH_LIMIT {
            return Err("repute serve did not accept a connection in time".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Asks the daemon to drain and exit, and reaps it.
fn stop(daemon: proc::Running, socket: &Path, log: &Path) -> Result<proc::Exit> {
    shutdown_over_socket(socket)?;
    let exit = daemon.wait_or_kill(Duration::from_secs(30))?;
    map::ensure_success(&exit, "repute serve", log)?;
    Ok(exit)
}

/// Untraced: daemon launches as set-up, then `--seconds` of load.
pub fn end_to_end(args: &Args, work: &Path) -> Result<Report> {
    let inputs = gen::generate(&MAP_100BP_D5, args.seed, work)?;
    let rpx = work.join("ref.rpx");
    let log = work.join("repute.log");
    map::index(args, &inputs.fasta, &rpx, &log)?;

    let set = ReferenceSet::read_from(BufReader::new(File::open(&rpx)?))?;
    let names: Vec<&str> = set.records().iter().map(|(n, _)| n.as_str()).collect();
    let mapper = ReputeMapper::new(
        Arc::clone(set.indexed()),
        compose::config(MAP_100BP_D5.delta, PrefilterMode::None)?,
    );
    let (reads, truth) = pool_reads(&inputs);
    let mut records = Vec::with_capacity(reads.len());
    for (id, seq) in &reads {
        let raw = mapper.map_read(seq).mappings;
        let resolved = set.resolve_mappings(seq.len(), &raw);
        let mut out = Vec::new();
        sam::write_resolved_record(&mut out, &names, id, seq, &resolved, None)?;
        records.push(String::from_utf8(out)?);
    }
    let pool = Pool {
        header: compose::sam_header(&set)?,
        reads,
        truth,
        records,
    };
    drop(mapper);
    drop(set);

    let socket = work.join("serve.sock");
    let journal = work.join("serve.journal");
    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = daemon.take() {
            stop(previous, &socket, &log)?;
        }
        let (started, ready) = launch(args, &rpx, &socket, &journal, &log)?;
        setup.push(ready);
        daemon = Some(started);
    }
    let daemon = daemon.expect("at least one launch");

    let started = Instant::now();
    let results: Vec<(Vec<Done>, Recall)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (pool, socket) = (&pool, &socket);
                s.spawn(move || client(args.seed, c, pool, socket, started, args.seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let load_s = started.elapsed().as_secs_f64();
    let exit = stop(daemon, &socket, &log)?;

    let mut done = Vec::new();
    let mut recall = Recall::default();
    for (d, r) in results {
        done.extend(d);
        recall.merge(r);
    }
    let jobs = done.len() as u64;
    let failed = done.iter().filter(|d| d.ok_reads.is_none()).count() as u64;
    let latencies: Vec<f64> = done.iter().map(|d| d.latency_s).collect();
    let ok_jobs = jobs - failed;
    let ok_reads: u64 = done.iter().filter_map(|d| d.ok_reads).sum();
    eprintln!(
        "perfbench: {jobs} jobs ({failed} failed) in {load_s:.3} s; recall {}/{}",
        recall.found, recall.eligible
    );
    if jobs < 1_000 {
        eprintln!("perfbench: fewer than 1000 jobs; job_p99_ms has under ten samples beyond it");
    }
    let mut values = HashMap::new();
    values.insert("setup_s", median(&setup));
    values.insert("map_reads_per_s", ok_reads as f64 / load_s);
    values.insert("jobs_per_s", ok_jobs as f64 / load_s);
    values.insert("job_p50_ms", median(&latencies) * 1e3);
    values.insert("job_p99_ms", percentile(&latencies, 0.99) * 1e3);
    values.insert("peak_rss_mib", exit.peak_rss_mib);
    values.insert("recall", recall.fraction());
    Ok(Report {
        correct: failed == 0 && jobs > 0,
        attempted: jobs,
        failed,
        values,
    })
}

/// What one in-process drive of the daemon core produced.
#[derive(Debug, PartialEq)]
struct Drive {
    batches: u64,
    completed: u64,
    journal_bytes: u64,
    simulated_s: f64,
    failed: u64,
}

/// Feeds `ServeCore` the job lines of the socket run, taking the steps
/// `MuxServer::on_line` and `MuxServer::on_eof` take, each in its own
/// span: parse, admission (with the journal append), and drain (batch
/// run, commit, response encode). Each round opens one connection per
/// client, sends its job line, then closes the connections in order (the
/// first close drains both jobs, as when two clients wait on the daemon
/// at once).
fn drive(
    set: &ReferenceSet,
    pool: &Pool,
    seed: u64,
    journal: &Path,
    t: &mut Tracer,
) -> Result<Drive> {
    let options = ServeOptions {
        journal_compact_threshold: COMPACT_THRESHOLD,
        ..ServeOptions::default()
    };
    let mut core = ServeCore::new(set.clone(), profiles::system1(), options)?;
    let _ = std::fs::remove_file(journal);
    core.attach_journal(journal, false)?;
    let mut streams: Vec<JobStream> = (0..CLIENTS).map(|c| JobStream::new(seed, c)).collect();
    let mut recall = Recall::default();
    let mut failed = 0u64;
    let mut queued: Vec<(u64, f64)> = Vec::new();
    // Encoded responses by acceptance seq, as the mux holds them until
    // their connection closes.
    let mut undelivered: HashMap<u64, String> = HashMap::new();
    let mut req = 0u64;
    for _ in 0..TRACED_ROUNDS {
        let mut open = Vec::with_capacity(CLIENTS);
        for stream in &mut streams {
            let job = stream.next();
            let line = job.line(pool);
            t.begin("serve.parse", req);
            let parsed = parse_request(&line);
            t.end();
            let seq = match parsed {
                Ok(Request::Job(envelope)) => {
                    t.begin("serve.accept", req);
                    let refusal = core.submit(envelope)?;
                    t.end();
                    refusal.is_none().then(|| core.last_accepted_seq())
                }
                Ok(Request::Shutdown) => None,
                Err(_) => {
                    core.note_rejected();
                    None
                }
            };
            if t.enabled() && seq.is_some() {
                queued.push((req, t.now()));
            }
            open.push((req, seq, job));
            req += 1;
        }
        for (conn, seq, job) in open {
            if t.enabled() {
                let now = t.now();
                for (r, since) in queued.drain(..) {
                    t.record("serve.queue_wait", r, since, now, TID_WAIT);
                }
            }
            t.begin("serve.drain", conn);
            for response in core.drain()? {
                if let Some(s) = response.seq {
                    undelivered.insert(s, response.to_json_line());
                }
            }
            t.end();
            let response = seq
                .and_then(|s| undelivered.remove(&s))
                .and_then(|line| JobResponse::parse(&line).ok());
            if !check_response(pool, &job, response.as_ref(), &mut recall) {
                failed += 1;
            }
        }
    }
    let counters = core.counters();
    Ok(Drive {
        batches: counters.batches,
        completed: counters.completed,
        journal_bytes: core.journal_size_bytes()?.unwrap_or(0),
        simulated_s: core.simulated_seconds(),
        failed,
    })
}

/// Traced: index build and load, then the composed map path over the
/// job pool and the daemon core driven in process, run as warm-up,
/// traced and untraced passes.
pub fn traced(args: &Args, work: &Path) -> Result<Report> {
    let inputs = gen::generate(&MAP_100BP_D5, args.seed, work)?;
    let rpx = work.join("ref.rpx");
    let journal = work.join("serve.journal");
    let mut t = Tracer::new(true);
    let set = compose::build_and_load(&inputs.fasta, &rpx, &mut t)?;
    let config = compose::config(MAP_100BP_D5.delta, PrefilterMode::None)?;
    let (reads, truth) = pool_reads(&inputs);

    let mut pool = Pool {
        header: compose::sam_header(&set)?,
        reads,
        truth,
        records: Vec::new(),
    };
    let (output, same, overhead) = map::passes(&mut t, |tracer| {
        let (records, metrics, mappings) =
            compose::sam_records(&set, &config, &pool.reads, tracer)?;
        if pool.records.is_empty() {
            pool.records = records.clone();
        }
        let drive = drive(&set, &pool, args.seed, &journal, tracer)?;
        Ok((records, metrics, mappings, drive))
    })?;
    let (records, metrics, mappings, drive) = output;

    let jobs = (TRACED_ROUNDS * CLIENTS) as u64;
    let mut failed = drive.failed;
    if !same {
        eprintln!("perfbench: the untraced and traced passes differ");
        failed = jobs;
    }
    let reads = pool.reads.iter().map(|(_, seq)| seq);
    if !compose::agrees_with_mapper(&set, &config, reads, &mappings, &metrics) {
        eprintln!("perfbench: the composed path's mappings or metrics differ from ReputeMapper's");
        failed = jobs;
    }

    let mut values = HashMap::new();
    map::mapping_counts(&mut values, &metrics, pool.reads.len() as u64);
    let sam_bytes = pool.header.len() + records.iter().map(String::len).sum::<usize>();
    values.insert("eval.sam_bytes", sam_bytes as f64);
    values.insert("index.bytes", compose::index_bytes(set.indexed()) as f64);
    values.insert("serve.batches", drive.batches as f64);
    values.insert(
        "serve.jobs_per_batch",
        check::ratio(drive.completed, drive.batches),
    );
    values.insert("serve.journal_bytes", drive.journal_bytes as f64);
    values.insert("hetsim.simulated_s", drive.simulated_s);
    values.insert("trace.overhead_s", overhead);
    eprintln!(
        "perfbench: tracing overhead {overhead:.3} s, {} spans",
        t.span_count()
    );
    map::finish_traced(args, &t, values, jobs, failed)
}
