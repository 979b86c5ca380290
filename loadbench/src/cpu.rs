//! CPU accounting from `/proc`: server CPU is the whole process's CPU time
//! minus the time the load-generator threads spent, each read from its own
//! `/proc/thread-self/stat`.
//!
//! `/proc` reports `utime` and `stime` in `USER_HZ` clock ticks, which the
//! Linux ABI fixes at 100 per second. A tick is charged to whichever thread
//! is running when it fires, so a figure built from fewer than
//! [`MIN_TICKS`] ticks cannot resolve 1%, and is refused.
//!
//! Within a phase the generator also reads the nanosecond CPU clocks
//! (`CLOCK_PROCESS_CPUTIME_ID`, `CLOCK_THREAD_CPUTIME_ID`) at fixed window
//! boundaries ([`CpuMark`]), and a probe thread times a fixed reference
//! kernel every 100 ms ([`run_probe`]). On a shared host the CPU time of
//! the same work drifts with other tenants' load; server CPU per request
//! is taken per window and scaled by the kernel's time in that window
//! ([`cpu_windows`]), so most of the drift cancels.

use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `USER_HZ`: `/proc` CPU-time ticks per second.
pub const TICKS_PER_SEC: u64 = 100;

/// Fewest ticks a CPU figure may rest on: one tick must be at most 1% of it.
pub const MIN_TICKS: u64 = 100;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) is parenthesized and may itself hold spaces or
/// parentheses, so fields are counted from the *last* `)`.
///
/// # Errors
///
/// Returns a description when the line does not have the expected shape.
pub fn parse_stat_ticks(stat: &str) -> Result<u64, String> {
    let close = stat
        .rfind(')')
        .ok_or_else(|| format!("no command name in stat line {stat:?}"))?;
    // After ")" come fields 3 (state) onwards; utime is field 14.
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let field = |number: usize| -> Result<u64, String> {
        fields
            .get(number - 3)
            .ok_or_else(|| format!("stat line has no field {number}"))?
            .parse::<u64>()
            .map_err(|err| format!("stat field {number}: {err}"))
    };
    Ok(field(14)? + field(15)?)
}

fn read_ticks(path: &str) -> Result<u64, String> {
    let stat = fs::read_to_string(path).map_err(|err| format!("read {path}: {err}"))?;
    parse_stat_ticks(&stat)
}

/// CPU ticks consumed so far by the whole process (live and exited
/// threads).
///
/// # Errors
///
/// Fails when `/proc/self/stat` is unreadable or malformed.
pub fn process_ticks() -> Result<u64, String> {
    read_ticks("/proc/self/stat")
}

/// CPU ticks consumed so far by the calling thread.
///
/// # Errors
///
/// Fails when `/proc/thread-self/stat` is unreadable or malformed.
pub fn thread_ticks() -> Result<u64, String> {
    read_ticks("/proc/thread-self/stat")
}

/// CPU split of one measured phase, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSplit {
    /// Whole-process ticks during the phase.
    pub process: u64,
    /// Ticks spent by the load-generator threads during the phase.
    pub generator: u64,
}

impl CpuSplit {
    /// Ticks charged to the server: the process minus the generator.
    #[must_use]
    pub fn server(&self) -> u64 {
        self.process.saturating_sub(self.generator)
    }

    /// Server CPU per completed request, in microseconds.
    ///
    /// # Errors
    ///
    /// Refuses a figure resting on fewer than [`MIN_TICKS`] server ticks
    /// (it could not resolve 1%) or on zero completed requests.
    pub fn server_us_per_request(&self, completed: u64) -> Result<f64, String> {
        let server = self.server();
        if server < MIN_TICKS {
            return Err(format!(
                "server CPU rests on {server} clock ticks; at least {MIN_TICKS} are \
                 needed to resolve 1% (measure more work per phase)"
            ));
        }
        if completed == 0 {
            return Err("no completed requests to charge server CPU to".to_owned());
        }
        Ok(server as f64 * 1e6 / TICKS_PER_SEC as f64 / completed as f64)
    }

    /// Share of the process's CPU the generator used (0 when idle).
    #[must_use]
    pub fn generator_share(&self) -> f64 {
        if self.process == 0 {
            0.0
        } else {
            self.generator as f64 / self.process as f64
        }
    }
}

/// The CPU clocks read at one window boundary of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMark {
    /// When, ns after the phase origin.
    pub at_ns: u64,
    /// Whole-process CPU time so far ([`process_cpu_ns`]).
    pub process_ns: u64,
    /// CPU time the benchmark's own threads (load generator and probe)
    /// have used in the phase so far.
    pub generator_ns: u64,
}

/// CPU time, in microseconds, the reference kernel takes on the host the
/// benchmark was defined on; [`CpuWindow::reference_us_per_request`]
/// scales server CPU to it.
pub const REFERENCE_KERNEL_US: f64 = 2000.0;

/// How often the probe times the reference kernel (~2 ms of CPU a timing,
/// so 2% of a core).
pub const PROBE_EVERY: Duration = Duration::from_millis(100);

/// One timing of the reference kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSample {
    /// When it ended, ns after the phase origin.
    pub at_ns: u64,
    /// Its CPU time, ns.
    pub cpu_ns: u64,
}

/// A fixed piece of CPU work that owes nothing to the program under test:
/// pseudo-random reads and writes over a 256 KB table (cache- and
/// ALU-bound, like most of the server's work). Its CPU time follows
/// the host's speed, not the program's.
pub fn reference_kernel(table: &mut [u32; 1 << 16]) -> u32 {
    let mask = table.len() - 1;
    let mut x = 1u32;
    for _ in 0..200_000 {
        let j = x as usize & mask;
        table[j] = table[j].wrapping_add(x);
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) ^ table[(j * 7) & mask];
    }
    x
}

/// Times [`reference_kernel`] every `every` until `stop` is closed or
/// sent to, publishing this thread's CPU time so far (ns) into
/// `published` after each timing. Returns the timings and the thread's
/// CPU ticks.
pub fn run_probe(
    origin: Instant,
    every: Duration,
    stop: mpsc::Receiver<()>,
    published: &AtomicU64,
) -> (Vec<ProbeSample>, u64) {
    let start_ticks = thread_ticks().unwrap_or(0);
    let start_ns = thread_cpu_ns();
    let mut table: Box<[u32; 1 << 16]> = vec![1u32; 1 << 16]
        .into_boxed_slice()
        .try_into()
        .expect("table length");
    let mut samples = Vec::new();
    while let Err(mpsc::RecvTimeoutError::Timeout) = stop.recv_timeout(every) {
        let before = thread_cpu_ns();
        std::hint::black_box(reference_kernel(&mut table));
        let after = thread_cpu_ns();
        samples.push(ProbeSample {
            at_ns: Instant::now().saturating_duration_since(origin).as_nanos() as u64,
            cpu_ns: after - before,
        });
        published.store(after - start_ns, Ordering::Relaxed);
    }
    let ticks = thread_ticks()
        .unwrap_or(start_ticks)
        .saturating_sub(start_ticks);
    (samples, ticks)
}

/// Server CPU in one window between neighbouring [`CpuMark`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuWindow {
    /// Server CPU per completed request, µs.
    pub us_per_request: f64,
    /// Median CPU time of the reference kernel in the window, µs.
    pub reference_us: f64,
}

impl CpuWindow {
    /// Server CPU per request at the reference speed: µs per request
    /// scaled by [`REFERENCE_KERNEL_US`] over the window's kernel time, so
    /// a window in which the host ran everything slower (a busy
    /// hyperthread sibling, a lower clock) counts the same work the same.
    #[must_use]
    pub fn reference_us_per_request(&self) -> f64 {
        self.us_per_request * REFERENCE_KERNEL_US / self.reference_us
    }
}

/// Server CPU in each window between neighbouring marks: the process's CPU
/// over the window minus the benchmark threads', over the requests
/// completed in it (`completions` holds completion times, ns after the
/// phase origin, in any order), beside the median reference-kernel time
/// of the `probe` samples taken in it.
///
/// A window shorter than `min_window_ns` (the phase's ragged end), with
/// fewer than `min_requests` completions or with no probe sample is
/// skipped: its figures would rest on too little to resolve.
#[must_use]
pub fn cpu_windows(
    marks: &[CpuMark],
    completions: &[u64],
    probe: &[ProbeSample],
    min_window_ns: u64,
    min_requests: usize,
) -> Vec<CpuWindow> {
    let mut done = completions.to_vec();
    done.sort_unstable();
    let count = |from: u64, to: u64| {
        done.partition_point(|&t| t < to) - done.partition_point(|&t| t < from)
    };
    marks
        .windows(2)
        .filter(|pair| pair[1].at_ns.saturating_sub(pair[0].at_ns) >= min_window_ns)
        .filter_map(|pair| {
            let (from, to) = (pair[0], pair[1]);
            let requests = count(from.at_ns, to.at_ns);
            if requests < min_requests.max(1) {
                return None;
            }
            let kernel_us: Vec<f64> = probe
                .iter()
                .filter(|p| (from.at_ns..to.at_ns).contains(&p.at_ns))
                .map(|p| p.cpu_ns as f64 / 1e3)
                .collect();
            let reference_us = crate::stats::median(&kernel_us)?;
            let process = to.process_ns.saturating_sub(from.process_ns);
            let generator = to.generator_ns.saturating_sub(from.generator_ns);
            Some(CpuWindow {
                us_per_request: process.saturating_sub(generator) as f64 / 1e3 / requests as f64,
                reference_us,
            })
        })
        .collect()
}

/// Peak resident set (`VmHWM`) of the process, in MB.
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|err| format!("read status: {err}"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|err| format!("VmHWM: {err}"))?;
    Ok(kb / 1024.0)
}

/// `(steal, total)` ticks of all CPUs so far, from `/proc/stat`: time the
/// hypervisor ran someone else while this machine's CPUs wanted to run.
///
/// # Errors
///
/// Fails when `/proc/stat` is unreadable or malformed.
pub fn steal_ticks() -> Result<(u64, u64), String> {
    let stat = fs::read_to_string("/proc/stat").map_err(|err| format!("read /proc/stat: {err}"))?;
    let line = stat
        .lines()
        .find(|line| line.starts_with("cpu "))
        .ok_or("no cpu line in /proc/stat")?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse::<u64>().map_err(|err| format!("/proc/stat: {err}")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal ...
    let steal = *fields.get(7).ok_or("no steal field in /proc/stat")?;
    Ok((steal, fields.iter().take(8).sum()))
}

/// CPU time the calling thread has used so far, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Unlike wall time it leaves out the time
/// the thread waited for a core, including time the hypervisor gave the
/// core to another machine, so short computations time steadily on a
/// shared host.
///
/// # Panics
///
/// Panics if the kernel refuses the clock (every Linux since 2.6.12 has
/// it).
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(3, "CLOCK_THREAD_CPUTIME_ID")
}

/// CPU time the whole process (live and exited threads) has used so far,
/// in nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// # Panics
///
/// Panics if the kernel refuses the clock.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(2, "CLOCK_PROCESS_CPUTIME_ID")
}

fn cpu_clock_ns(clock: i32, name: &str) -> u64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `struct timespec`; clock_gettime
    // writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut now) };
    assert_eq!(rc, 0, "clock_gettime({name}) failed");
    now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}
