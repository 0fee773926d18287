//! Child processes timed on the host clock, with the peak resident set
//! of each child (not of the benchmark) taken from `wait4`.

use std::io;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// `struct rusage` of Linux (x86-64 and aarch64): two `timeval`s, then
/// fourteen `long` counters, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

const WNOHANG: i32 = 1;

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, `None` when a signal ended the child.
    pub code: Option<i32>,
    /// Spawn to reap, host seconds.
    pub wall_s: f64,
    /// Peak resident set of the child.
    pub peak_rss_mib: f64,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// A spawned child that is killed and reaped if dropped unreaped, so no
/// error path leaves a process behind.
pub struct Running {
    child: Child,
    started: Instant,
    reaped: bool,
}

impl Running {
    pub fn spawn(cmd: &mut Command) -> io::Result<Running> {
        let started = Instant::now();
        let child = cmd.spawn()?;
        Ok(Running {
            child,
            started,
            reaped: false,
        })
    }

    pub fn started(&self) -> Instant {
        self.started
    }

    /// Reaps the child, blocking (`block`) or not; `None` while it runs.
    fn reap(&mut self, block: bool) -> io::Result<Option<Exit>> {
        let pid = i32::try_from(self.child.id()).expect("pids fit in i32");
        let mut status = 0i32;
        let mut usage = RUsage::default();
        loop {
            // SAFETY: `status` and `usage` are live, writable and laid out
            // as the kernel's `int` and `struct rusage`; `pid` is our own
            // unreaped child, so no other process can be reaped by it.
            let r = unsafe {
                wait4(
                    pid,
                    &mut status,
                    if block { 0 } else { WNOHANG },
                    &mut usage,
                )
            };
            if r == pid {
                break;
            }
            if r == 0 {
                return Ok(None);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        self.reaped = true;
        let exited = status & 0x7f == 0;
        Ok(Some(Exit {
            code: exited.then_some((status >> 8) & 0xff),
            wall_s: self.started.elapsed().as_secs_f64(),
            peak_rss_mib: usage.maxrss_kib as f64 / 1024.0,
        }))
    }

    pub fn wait(mut self) -> io::Result<Exit> {
        Ok(self.reap(true)?.expect("a blocking wait4 reaps the child"))
    }

    /// `Some` once the child has ended (and is reaped).
    pub fn try_wait(&mut self) -> io::Result<Option<Exit>> {
        self.reap(false)
    }

    /// Waits up to `limit` for the child to end by itself, then kills it.
    pub fn wait_or_kill(mut self, limit: Duration) -> io::Result<Exit> {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if let Some(exit) = self.reap(false)? {
                return Ok(exit);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        self.wait()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.reap(true);
        }
    }
}

/// Runs a command to completion.
pub fn run(cmd: &mut Command) -> io::Result<Exit> {
    Running::spawn(cmd)?.wait()
}
