//! Host-clock benchmark of the `repute` CLI, the `repute serve` daemon
//! and the library layers beneath them.
//!
//! ```text
//! perfbench --repute <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-manifest
//! ```
//!
//! `--trace 0` drives the release `repute` binary from outside and
//! prints the end-to-end metrics; `--trace 1` composes the same path in
//! process with a span around every layer call and prints the per-layer
//! metrics. The last stdout line is one JSON object. See README.md.

mod check;
mod compose;
mod gen;
mod map;
mod proc;
mod serve;
mod spans;
mod spec;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Command-line options of one run.
pub struct Args {
    pub repute: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run prints: correctness, operation counts and named metrics.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: HashMap<&'static str, f64>,
}

impl Report {
    /// The result line: end-to-end metrics untraced, per-layer traced. A
    /// per-layer metric of a layer the workload does not call reads 0.
    fn to_json(&self, traced: bool) -> Result<String> {
        let mut metrics = Vec::new();
        let mut put = |name: &str, unit: &str, value: f64| {
            let value = if value.is_finite() { value } else { 0.0 };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        };
        if traced {
            for m in spec::PER_LAYER {
                put(
                    m.name,
                    m.unit,
                    self.values.get(m.name).copied().unwrap_or(0.0),
                );
            }
        } else {
            for m in spec::END_TO_END {
                let value = self
                    .values
                    .get(m.name)
                    .copied()
                    .ok_or_else(|| format!("metric {} was not measured", m.name))?;
                put(m.name, m.unit, value);
            }
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A per-run scratch directory inside the checkout, removed on exit.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(args: &Args) -> Result<WorkDir> {
        let dir = Path::new(WORK_ROOT).join(format!(
            "{}-s{}-p{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where runs keep scratch inputs, traces and the exact-repeat records
/// (relative to the checkout root, the working directory).
pub const WORK_ROOT: &str = ".bench_work";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args> {
    let mut repute = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--repute" => repute = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>()?),
            "--seconds" => seconds = Some(value()?.parse::<f64>()?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        repute: repute.ok_or("--repute is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Report> {
    let work = WorkDir::create(args)?;
    let spec = match args.workload.as_str() {
        "map-100bp-d5" => &gen::MAP_100BP_D5,
        "map-150bp-d7-repeats" => &gen::MAP_150BP_D7_REPEATS,
        "serve-small-jobs" => {
            return if args.trace {
                serve::traced(args, work.path())
            } else {
                serve::end_to_end(args, work.path())
            };
        }
        other => return Err(format!("unknown workload {other:?}").into()),
    };
    if args.trace {
        map::traced(args, spec, work.path())
    } else {
        map::end_to_end(args, spec, work.path())
    }
}

fn write_manifest() -> Result<()> {
    std::fs::write("BENCHMARK.json", spec::benchmark_json())?;
    std::fs::write("perfbench/layers.json", spec::layers_json())?;
    eprintln!("wrote BENCHMARK.json and perfbench/layers.json");
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--write-manifest") {
        return match write_manifest() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    match run(&args).and_then(|report| report.to_json(args.trace)) {
        Ok(line) => {
            eprintln!(
                "perfbench: {} done in {:.1} s",
                args.workload,
                started.elapsed().as_secs_f64()
            );
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
