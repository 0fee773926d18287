//! In-memory host-clock spans recorded by the benchmark around calls
//! into each layer, written out at the end as a Chrome trace that
//! `repute trace` summarises.

use std::collections::HashMap;
use std::time::Instant;

use repute_obs::trace::{write_chrome_trace, Span};

const NO_PARENT: u32 = u32::MAX;

/// Lane of the spans nested under one request.
pub const TID_WORK: u32 = 0;
/// Lane of queue-wait spans, which overlap the work lane.
pub const TID_WAIT: u32 = 1;

struct Rec {
    name: &'static str,
    begin: f64,
    end: f64,
    parent: u32,
    req: u64,
    tid: u32,
}

/// Span recorder. A disabled recorder reads no clock and stores
/// nothing, so the same code runs as the untraced pass.
pub struct Tracer {
    on: bool,
    t0: Instant,
    recs: Vec<Rec>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Host seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// The instant `now` counts from.
    pub fn origin(&self) -> Instant {
        self.t0
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.recs.len() as u32);
        let begin = self.now();
        self.recs.push(Rec {
            name,
            begin,
            end: begin,
            parent,
            req,
            tid: TID_WORK,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let idx = self.open.pop().expect("end() matches a begin()");
        self.recs[idx as usize].end = end;
    }

    /// Records a finished top-level span with explicit times.
    pub fn record(&mut self, name: &'static str, req: u64, begin: f64, end: f64, tid: u32) {
        if self.on {
            self.recs.push(Rec {
                name,
                begin,
                end,
                parent: NO_PARENT,
                req,
                tid,
            });
        }
    }

    /// Records a finished span with explicit times, nested in the
    /// innermost open span.
    pub fn child(&mut self, name: &'static str, req: u64, begin: f64, end: f64) {
        if self.on {
            self.recs.push(Rec {
                name,
                begin,
                end,
                parent: self.open.last().copied().unwrap_or(NO_PARENT),
                req,
                tid: TID_WORK,
            });
        }
    }

    pub fn span_count(&self) -> usize {
        self.recs.len()
    }

    /// Summed self time per span name: each span's duration minus the
    /// part its children cover (children run inside, one at a time).
    pub fn self_times(&self) -> HashMap<&'static str, f64> {
        let mut own: Vec<f64> = self.recs.iter().map(|r| r.end - r.begin).collect();
        for r in &self.recs {
            if r.parent != NO_PARENT {
                own[r.parent as usize] -= r.end - r.begin;
            }
        }
        let mut out = HashMap::new();
        for (r, t) in self.recs.iter().zip(own) {
            *out.entry(r.name).or_insert(0.0) += t;
        }
        out
    }

    /// The spans as Chrome-trace JSON: one host process; `args` carry the
    /// span id, its parent's id and the request id (read index or job).
    pub fn chrome_trace(&self) -> String {
        let spans: Vec<Span> = self
            .recs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let cat = r.name.split('.').next().unwrap_or(r.name);
                let span = Span::new(r.name, cat, 0, r.begin, r.end)
                    .on_tid(r.tid)
                    .arg_u64("id", i as u64)
                    .arg_u64("req", r.req);
                if r.parent == NO_PARENT {
                    span
                } else {
                    span.arg_u64("parent", u64::from(r.parent))
                }
            })
            .collect();
        write_chrome_trace(&[(0, "perfbench host clock".to_string())], &spans)
    }
}
