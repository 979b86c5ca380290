//! `loadbench`: one run of one workload of the HyRec end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload online-ml2 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the run sets the stack up, warms up, offers the
//! workload's nominal rate for 70% of `--seconds`, replays a sample of the
//! jobs it received through the widget with the server idle, bisects a
//! fixed rate ladder for the highest rate that meets the latency limit,
//! then sets the stack up a few more times (reporting the median set-up
//! time). A probe thread times a fixed reference kernel throughout, and
//! server CPU and set-up time are reported at its reference speed. With
//! `--trace 1` it offers the nominal rate twice — through the stock
//! routers, then through the traced ones — and reports the per-layer
//! figures. The last line of standard output is the result as one JSON
//! object; the line before it is the run's context.

use hyrec_client::Widget;
use hyrec_loadbench::cpu::{self, CpuMark, CpuSplit, CpuWindow, ProbeSample};
use hyrec_loadbench::generator::{self, GenConfig, Kind, Outcome, Rec, Sample};
use hyrec_loadbench::schedule::{self, Arrival};
use hyrec_loadbench::stack::{Stack, Workload};
use hyrec_loadbench::stats::{self, Summary};
use hyrec_loadbench::traced::{self, Layer, Span, Tracer};
use hyrec_wire::PersonalizationJob;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency limit on a rung's p99 (from intended send times), ms. Far
/// above the low-load p99 and its spread, so the saturation knee sets
/// `max_rps`, not noise.
const LIMIT_MS: f64 = 100.0;
/// A run is invalid when its generator sent the nominal phase's p99
/// request this late (ms): the latencies would then measure the
/// generator, not the server.
const LATE_LIMIT_MS: f64 = 50.0;
/// A run is also invalid when jobs waited this long (p99, ms) for the
/// browser side: the follow-up requests then left far off schedule.
const BROWSER_WAIT_LIMIT_MS: f64 = 500.0;
/// Times the stack is set up in an untraced run, at least; `setup_s` is
/// their median, scaled to the reference kernel's speed during them.
const SETUPS: usize = 3;
/// Fast set-ups repeat until they have taken this long in all (at most
/// `SETUPS_MAX` times), so a 0.1 s median rests on enough samples.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
const SETUPS_MAX: usize = 15;
/// Ratio between neighbouring rungs of the rate ladder.
const LADDER_STEP: f64 = 1.08;
/// The ladder spans `nominal · STEP^LOW ..= nominal · STEP^HIGH`
/// (about ½× to 25× nominal).
const LADDER_LOW: i32 = -9;
const LADDER_HIGH: i32 = 42;
/// A failed rung is tried again when its p99 stayed within this many
/// latency limits.
const NEAR_MISS: f64 = 3.0;
/// Shares of `--seconds` spent on the discarded warm-up, on the nominal
/// phase, and on each ladder rung.
const WARMUP_SHARE: f64 = 0.1;
const NOMINAL_SHARE: f64 = 0.7;
const RUNG_SHARE: f64 = 0.03;
/// How long responses may trail the last due send before they count as
/// lost (a rung that lags by more has failed anyway).
const DRAIN: Duration = Duration::from_secs(5);
const PROBE_DRAIN: Duration = Duration::from_secs(1);
/// After a rung, the server counts as idle once it parsed no request for
/// this long, or after `SETTLE_MAX`.
const SETTLE_QUIET: Duration = Duration::from_millis(250);
const SETTLE_MAX: Duration = Duration::from_secs(5);
/// Windows of the windowed p99 latencies: the nominal phase's, and a
/// rung's.
const WINDOW: Duration = Duration::from_secs(1);
const RUNG_WINDOW: Duration = Duration::from_millis(250);
/// `cpu_us_per_req` is the median over the nominal phase's CPU windows
/// ([`generator::CPU_WINDOW`]), each scaled to the reference kernel's
/// speed in it. A window needs this share of the full length and this
/// many completions to count.
const CPU_WINDOW_MIN_SHARE: f64 = 0.5;
const CPU_WINDOW_MIN_REQUESTS: usize = 100;
/// Lanes connect this long before the first due send.
const START_DELAY: Duration = Duration::from_millis(20);
/// Job bodies kept per phase for the full decode check and the widget
/// replay: every arrival at a fixed stride, so they span the phase.
const SAMPLES: usize = 120;
/// Passes of the widget replay over the kept bodies; each job's time is
/// its best over the passes.
const REPLAY_PASSES: usize = 3;
/// Largest allowed gap between the sampler + encoder span medians and the
/// `/online/` handler span median (the stages must add up).
const STAGE_TOLERANCE: f64 = 0.15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err("--seconds must be at least 1".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("loadbench: {err}");
            eprintln!(
                "usage: loadbench --workload <online-ml2|replay-digg|churn-ml1> --seed <n> \
                 [--seconds <s>] [--trace <0|1>]"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                eprintln!("{name:>34} = {value:.6} {unit}");
            }
            for (name, value, unit) in &report.ungated {
                eprintln!("{name:>34} = {value:.6} {unit} (not gated)");
            }
            for problem in &report.problems {
                eprintln!("loadbench: check failed: {problem}");
            }
            println!("{}", report.context);
            if let Some(reason) = &report.invalid {
                eprintln!("loadbench: run invalid: {reason}");
                std::process::exit(3);
            }
            println!("{}", report.result_json());
        }
        Err(err) => {
            eprintln!("loadbench: {err}");
            std::process::exit(1);
        }
    }
}

/// Everything one run reports.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Figures printed and kept in the context, outside the result.
    ungated: Vec<(&'static str, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    invalid: Option<String>,
    context: String,
}

impl Report {
    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| metric_json(name, *value, unit))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        json_number(value)
    )
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

/// One measured stretch of load at one offered rate.
struct Phase {
    rps: f64,
    seconds: f64,
    recs: Vec<Rec>,
    cpu: CpuSplit,
    cpu_marks: Vec<CpuMark>,
    probe: Vec<ProbeSample>,
    samples: Vec<Sample>,
    touched: Vec<u32>,
    compute_wait_ns: Vec<u64>,
    failures: Vec<String>,
    batches: u64,
    batched_requests: u64,
    /// Share of the machine's CPU time the hypervisor took away during the
    /// phase (context only: background load on a shared host).
    steal_share: f64,
}

impl Phase {
    fn failed(&self) -> usize {
        self.recs
            .iter()
            .filter(|r| r.outcome == Outcome::Failed)
            .count()
    }

    /// Requests answered `200` whose body failed its check: wrong at any
    /// rate, unlike a refusal or a timeout on an overloaded rung.
    fn wrong_answers(&self) -> usize {
        self.recs
            .iter()
            .filter(|r| r.outcome == Outcome::Failed && r.status == 200)
            .count()
    }

    fn completed(&self) -> usize {
        self.recs.len() - self.failed()
    }

    fn latencies(&self, kinds: &[Kind]) -> Vec<u64> {
        self.recs
            .iter()
            .filter(|r| kinds.contains(&r.kind))
            .filter_map(Rec::latency_ns)
            .collect()
    }

    /// Send lateness of the scheduled (first-of-chain) requests.
    fn lateness(&self) -> Vec<u64> {
        self.recs
            .iter()
            .filter(|r| r.rid % schedule::STEPS == 0)
            .map(|r| stats::lateness_ns(r.intended_ns, r.sent_ns))
            .collect()
    }

    /// Whether the rung met the latency limit with nothing failed and no
    /// backlog growth — and was really offered: a generator that fell
    /// behind its schedule did not load the server at this rate.
    fn rung_passes(&self) -> bool {
        if self.failed() > 0 || validity(self).is_some() {
            return false;
        }
        let all = [Kind::Online, Kind::Rate, Kind::Neighbors];
        let p99 = self.windowed_p99_ms(&all, RUNG_WINDOW);
        // Backlog growth shows as the last quarter's median latency.
        let tail_start = (self.seconds * 0.75 * 1e9) as u64;
        let tail: Vec<u64> = self
            .recs
            .iter()
            .filter(|r| r.intended_ns >= tail_start)
            .filter_map(Rec::latency_ns)
            .collect();
        let tail_p50 = Summary::of_ns(tail).map_or(f64::INFINITY, |s| s.p50_ms);
        p99.is_some_and(|p99| p99 <= LIMIT_MS) && tail_p50 <= LIMIT_MS
    }

    /// A failed rung whose latencies stayed within a few limits: a burst
    /// of background load can explain it, a saturated server cannot.
    fn near_miss(&self) -> bool {
        let all = [Kind::Online, Kind::Rate, Kind::Neighbors];
        self.failed() == 0
            && self
                .windowed_p99_ms(&all, RUNG_WINDOW)
                .is_some_and(|p99| p99 <= NEAR_MISS * LIMIT_MS)
    }

    /// Median over windows (merged until each holds enough samples to
    /// resolve it) of each window's p99, ms: one burst of background load
    /// then spoils one window, not the rung's figure.
    fn windowed_p99_ms(&self, kinds: &[Kind], window: Duration) -> Option<f64> {
        stats::median(&self.window_quantiles_ms(kinds, window, 0.99))
    }

    /// Each window's `q` quantile, ms (see [`stats::window_percentiles`]).
    fn window_quantiles_ms(&self, kinds: &[Kind], window: Duration, q: f64) -> Vec<f64> {
        let samples: Vec<(u64, u64)> = self
            .recs
            .iter()
            .filter(|r| kinds.contains(&r.kind))
            .filter_map(|r| Some((r.intended_ns, r.latency_ns()?)))
            .collect();
        stats::window_percentiles(&samples, window.as_nanos() as u64, q)
            .into_iter()
            .map(|ns| ns / 1e6)
            .collect()
    }

    fn summary(&self, kinds: &[Kind]) -> Option<Summary> {
        Summary::of_ns(self.latencies(kinds))
    }

    fn late_ms_p99(&self) -> f64 {
        Summary::of_ns(self.lateness()).map_or(0.0, |s| s.p99_ms)
    }

    fn compute_wait_ms_p99(&self) -> f64 {
        Summary::of_ns(self.compute_wait_ns.clone()).map_or(0.0, |s| s.p99_ms)
    }

    /// Server CPU per completed request in each CPU window.
    fn cpu_windows(&self) -> Vec<CpuWindow> {
        let completions: Vec<u64> = self
            .recs
            .iter()
            .filter(|r| r.outcome != Outcome::Failed)
            .filter_map(|r| r.done_ns)
            .collect();
        cpu::cpu_windows(
            &self.cpu_marks,
            &completions,
            &self.probe,
            (generator::CPU_WINDOW.as_nanos() as f64 * CPU_WINDOW_MIN_SHARE) as u64,
            CPU_WINDOW_MIN_REQUESTS,
        )
    }

    fn achieved_rps(&self) -> f64 {
        self.completed() as f64 / self.seconds
    }

    fn batch_mean(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    fn job_kb(&self) -> f64 {
        let (bytes, jobs) = self
            .recs
            .iter()
            .filter(|r| r.kind == Kind::Online && r.outcome == Outcome::Ok)
            .fold((0usize, 0usize), |(b, n), r| (b + r.body_len, n + 1));
        if jobs == 0 {
            0.0
        } else {
            bytes as f64 / jobs as f64 / 1000.0
        }
    }
}

/// Drives the workload against a stack, phase after phase.
struct Driver {
    stack: Stack,
    rng: StdRng,
    next_index: u64,
    conns: usize,
    compute_thread: bool,
}

impl Driver {
    /// Offers `rps` for `seconds` and measures it.
    /// With `browsers` off, every replay browser leaves after `/online/`.
    fn phase(
        &mut self,
        rps: f64,
        seconds: f64,
        browsers: bool,
        drain: Duration,
    ) -> Result<Phase, String> {
        let workload = self.stack.workload;
        let duration_ns = (seconds * 1e9) as u64;
        let plan: Vec<Arrival> = if workload.replays() {
            let vote_rate = rps / workload.requests_per_arrival(browsers);
            // A phase that would run past the window's end replays it from
            // its start instead (votes repeated; the mix stays the same).
            let needed = (vote_rate * seconds * 1.5) as usize + 64;
            if self.stack.cursor + needed > self.stack.window.len() {
                self.stack.cursor = 0;
            }
            let (plan, used) = schedule::vote_replay(
                &mut self.rng,
                &self.stack.window[self.stack.cursor..],
                vote_rate,
                duration_ns,
                workload.shape(),
                workload.abandon(),
                self.next_index,
            );
            self.stack.cursor += used;
            plan
        } else {
            schedule::read_mix(
                &mut self.rng,
                &self.stack.liked_by,
                rps,
                duration_ns,
                self.next_index,
            )
        };
        self.next_index += plan.len() as u64;
        let front = self.stack.front();
        let config = GenConfig {
            addr: front.addr,
            conns: self.conns,
            compute_thread: self.compute_thread,
            origin: Instant::now() + START_DELAY,
            drain,
            scheduled: workload.scheduled(),
            browsers,
            sample_every: (plan.len() / SAMPLES).max(1) as u64,
            sample_cap: SAMPLES,
        };
        let (batches, batched) = (front.stats.batches(), front.stats.batched_requests());
        let process_start = cpu::process_ticks()?;
        let steal_start = cpu::steal_ticks()?;
        let result = generator::run(&config, &plan);
        let process = cpu::process_ticks()?.saturating_sub(process_start);
        let steal_end = cpu::steal_ticks()?;
        let total = steal_end.1.saturating_sub(steal_start.1).max(1);
        let steal_share = steal_end.0.saturating_sub(steal_start.0) as f64 / total as f64;
        let mut phase = Phase {
            rps,
            seconds,
            recs: result.recs,
            cpu: CpuSplit {
                process,
                generator: result.cpu_ticks,
            },
            cpu_marks: result.cpu_marks,
            probe: result.probe,
            samples: result.samples,
            touched: result.touched,
            compute_wait_ns: result.compute_wait_ns,
            failures: result.failures,
            batches: front.stats.batches() - batches,
            batched_requests: front.stats.batched_requests() - batched,
            steal_share,
        };
        phase.touched.sort_unstable();
        phase.touched.dedup();
        Ok(phase)
    }

    /// Waits until the server has stopped parsing requests (an overloaded
    /// rung leaves orphaned pipelined requests behind), at most
    /// [`SETTLE_MAX`].
    fn settle(&self) {
        let stats = &self.stack.front().stats;
        let deadline = Instant::now() + SETTLE_MAX;
        let mut seen = stats.requests();
        while Instant::now() < deadline {
            std::thread::sleep(SETTLE_QUIET);
            let now = stats.requests();
            if now == seen {
                return;
            }
            seen = now;
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // At most nproc connections on at most nproc threads: one I/O thread
    // and, with two cores or more, one browser-side compute thread.
    let conns = nproc.clamp(1, 2);

    // The stack the run drives is the process's first, so its memory
    // figures are those of one set-up; the other set-ups, timed for
    // `setup_s`, come after the load.
    let (stack, first_s, mut kernel_us) = timed_setup(workload, args.seed, nproc);
    let mut driver = Driver {
        stack,
        rng: StdRng::seed_from_u64(args.seed ^ 0x6c6f_6164),
        next_index: 0,
        conns,
        compute_thread: nproc > 1,
    };
    let nominal = workload.nominal_rps();
    let mut ctx = Context::default();
    ctx.field("workload", format!("\"{}\"", workload.name()));
    ctx.field("seed", args.seed.to_string());
    ctx.field("seconds", json_number(args.seconds));
    ctx.field("trace", args.trace.to_string());
    ctx.field("nproc", nproc.to_string());
    ctx.field("connections", conns.to_string());
    ctx.field(
        "generator_threads",
        (1 + usize::from(nproc > 1)).to_string(),
    );
    ctx.field("reactor_workers", nproc.to_string());
    ctx.field(
        "reference_kernel_every_ms",
        cpu::PROBE_EVERY.as_millis().to_string(),
    );
    ctx.field("git_sha", format!("\"{}\"", git_sha()));
    ctx.field("nominal_rps", json_number(nominal));
    ctx.field("latency_limit_ms", json_number(LIMIT_MS));
    ctx.field("late_limit_ms", json_number(LATE_LIMIT_MS));
    ctx.field("browser_wait_limit_ms", json_number(BROWSER_WAIT_LIMIT_MS));

    let outcome = if args.trace {
        traced_run(&mut driver, args, &mut ctx)
    } else {
        plain_run(&mut driver, args, &mut ctx)
    };
    driver.stack.shutdown();
    let mut report = outcome?;
    if !args.trace {
        let mut setup_s = vec![first_s];
        while setup_s.len() < SETUPS
            || (setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64()
                && setup_s.len() < SETUPS_MAX)
        {
            let (stack, seconds, kernel) = timed_setup(workload, args.seed, nproc);
            stack.shutdown();
            setup_s.push(seconds);
            kernel_us.extend(kernel);
        }
        let kernel = stats::median(&kernel_us).ok_or("the set-ups outran the probe")?;
        ctx.field("setup_s_all", json_list(&setup_s));
        ctx.field("setup_reference_kernel_us", json_number(kernel));
        let median = stats::median(&setup_s).unwrap_or(0.0);
        report.metrics.insert(
            0,
            ("setup_s", median * cpu::REFERENCE_KERNEL_US / kernel, "s"),
        );
    }
    let ungated: Vec<String> = report
        .ungated
        .iter()
        .map(|(name, value, unit)| metric_json(name, *value, unit))
        .collect();
    ctx.field("ungated", format!("{{{}}}", ungated.join(", ")));
    report.context = format!("{{\"context\": {{{}}}}}", ctx.fields.join(", "));
    Ok(report)
}

/// Sets the stack up once while the probe times the reference kernel;
/// returns the stack, the set-up's seconds and the kernel timings, µs.
fn timed_setup(workload: Workload, seed: u64, nproc: usize) -> (Stack, f64, Vec<f64>) {
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    let published = std::sync::atomic::AtomicU64::new(0);
    let published = &published;
    let origin = Instant::now();
    let (stack, seconds, kernel) = std::thread::scope(|scope| {
        let probe =
            scope.spawn(move || cpu::run_probe(origin, cpu::PROBE_EVERY, stopped, published));
        let stack = Stack::setup(workload, seed, nproc);
        let seconds = origin.elapsed().as_secs_f64();
        drop(stop);
        let (kernel, _) = probe.join().expect("probe thread panicked");
        (stack, seconds, kernel)
    });
    let kernel_us = kernel.iter().map(|k| k.cpu_ns as f64 / 1e3).collect();
    (stack, seconds, kernel_us)
}

/// The untraced run: every end-to-end metric except `setup_s`.
fn plain_run(driver: &mut Driver, args: &Args, ctx: &mut Context) -> Result<Report, String> {
    let workload = driver.stack.workload;
    let nominal = workload.nominal_rps();
    let warmup = driver.phase(nominal, args.seconds * WARMUP_SHARE, true, DRAIN)?;
    let phase = driver.phase(nominal, args.seconds * NOMINAL_SHARE, true, DRAIN)?;
    let invalid = validity(&phase);
    ctx.phase("nominal", &phase);
    ctx.field(
        "online_window_p99_ms",
        json_list(&phase.window_quantiles_ms(&[Kind::Online], WINDOW, 0.99)),
    );
    ctx.field(
        "write_window_p99_ms",
        json_list(&phase.window_quantiles_ms(&[Kind::Rate, Kind::Neighbors], WINDOW, 0.99)),
    );
    ctx.field(
        "online_window_p50_ms",
        json_list(&phase.window_quantiles_ms(&[Kind::Online], WINDOW, 0.5)),
    );
    // Quality, the browser replay and memory are read before the ladder, whose
    // browsers leave unanswered and whose top rungs overload the server.
    let view_similarity = driver.stack.view_similarity(&phase.touched);
    ctx.field("touched_users", phase.touched.len().to_string());
    let peak_rss_mb = cpu::peak_rss_mb()?;
    let mut browser = BrowserReplay::new(&phase.samples, workload.scheduled())?;
    ctx.field("widget_samples", browser.samples().to_string());
    browser.run();
    let widget = browser.finish();

    // Bisect the rung ladder for the highest rate meeting the limit. A
    // rung that narrowly fails is tried once more before it counts as
    // failed, so a burst of background load does not cut the search short.
    let rungs: Vec<f64> = (LADDER_LOW..=LADDER_HIGH)
        .map(|i| nominal * LADDER_STEP.powi(i))
        .collect();
    let nominal_rung = (-LADDER_LOW) as usize;
    let probe_seconds = args.seconds * RUNG_SHARE;
    let (mut lo, mut hi) = if phase.rung_passes() {
        (Some(nominal_rung), rungs.len())
    } else {
        (None, nominal_rung)
    };
    // The rate achieved on the highest passing rung, as measured.
    let mut max_rps = lo.map(|_| phase.achieved_rps());
    let mut probe_attempted = 0;
    let mut probe_wrong = 0;
    let mut problems = Vec::new();
    while hi > lo.map_or(0, |l| l + 1) {
        let mid = (lo.map_or(0, |l| l + 1) + hi - 1) / 2;
        let mut pass = false;
        let mut achieved = 0.0;
        for _ in 0..2 {
            let probe = driver.phase(rungs[mid], probe_seconds, false, PROBE_DRAIN)?;
            driver.settle();
            probe_attempted += probe.recs.len();
            probe_wrong += probe.wrong_answers();
            if probe.wrong_answers() > 0 {
                problems.extend(probe.failures.iter().cloned());
            }
            pass = probe.rung_passes();
            achieved = probe.achieved_rps();
            ctx.probe(&probe, pass);
            // Only a near miss is worth a second try; an overloaded rung
            // misses by far.
            if pass || !probe.near_miss() {
                break;
            }
        }
        if pass {
            lo = Some(mid);
            max_rps = Some(achieved);
        } else {
            hi = mid;
        }
    }
    // No rung passed, not even the lowest: report the rung below it.
    let max_rps = max_rps.unwrap_or(rungs[0] / LADDER_STEP);
    ctx.field("ladder_rps", json_list(&rungs));
    ctx.field(
        "max_rung_rps",
        json_number(lo.map_or(rungs[0] / LADDER_STEP, |l| rungs[l])),
    );

    let online = phase
        .summary(&[Kind::Online])
        .ok_or("nominal phase answered no /online/ request")?;
    // Only the replay loop writes; the read mix sends `/online/` alone.
    let writes = if workload.replays() {
        Some(
            phase
                .summary(&[Kind::Rate, Kind::Neighbors])
                .ok_or("nominal phase answered no write")?,
        )
    } else {
        None
    };
    problems.extend(check_tails(&[("online", online.n)]));
    if let Some(writes) = &writes {
        problems.extend(check_tails(&[("write", writes.n)]));
    }
    problems.extend(warmup.failures.iter().cloned());
    problems.extend(phase.failures.iter().cloned());
    problems.extend(widget.problems.iter().cloned());
    // The whole phase's figure must rest on enough clock ticks. The
    // reported one is the median over its windows, each scaled to the
    // reference kernel's speed in it: on a shared host the same work takes
    // more CPU time while other tenants are busy (a busy hyperthread
    // sibling, a lower clock), and the kernel's time moves with it.
    let whole_cpu_us = phase.cpu.server_us_per_request(phase.completed() as u64)?;
    let windows = phase.cpu_windows();
    let scaled: Vec<f64> = windows
        .iter()
        .map(CpuWindow::reference_us_per_request)
        .collect();
    let cpu_us = stats::median(&scaled).ok_or("no CPU window held enough requests")?;
    let raw: Vec<f64> = windows.iter().map(|w| w.us_per_request).collect();
    let kernel: Vec<f64> = windows.iter().map(|w| w.reference_us).collect();
    ctx.field("server_cpu_ticks", phase.cpu.server().to_string());
    ctx.field("cpu_us_per_req_whole_phase", json_number(whole_cpu_us));
    ctx.field("cpu_us_per_req_windows", json_list(&raw));
    ctx.field("reference_kernel_us_windows", json_list(&kernel));
    ctx.field(
        "reference_kernel_us_nominal",
        json_number(cpu::REFERENCE_KERNEL_US),
    );

    // Reported, not gated. Wall-clock figures under load follow the shared
    // host's background load (CPU time the hypervisor takes away) further
    // than any bound allows; the widget's time swings between two levels
    // from one process to the next (see the README).
    let mut ungated = vec![
        ("widget_ms", widget.total_ms_p50, "ms"),
        ("max_rps", max_rps, "req/s"),
        ("online_p50_ms", online.p50_ms, "ms"),
        ("online_p99_ms", online.p99_ms, "ms"),
    ];
    if let Some(writes) = writes {
        ungated.push(("write_p99_ms", writes.p99_ms, "ms"));
    }
    // `setup_s` joins these once the run's later set-ups are timed.
    let metrics = vec![
        ("cpu_us_per_req", cpu_us, "us"),
        (
            "ok_ratio",
            phase.completed() as f64 / phase.recs.len().max(1) as f64,
            "ratio",
        ),
        ("job_kb", phase.job_kb(), "KB"),
        ("view_similarity", view_similarity, "ratio"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    Ok(Report {
        metrics,
        ungated,
        attempted: warmup.recs.len() + phase.recs.len() + probe_attempted,
        failed: warmup.failed() + phase.failed() + probe_wrong + widget.wrong,
        problems,
        invalid,
        context: String::new(),
    })
}

/// The traced run: the nominal rate through the stock routers, then
/// through the traced ones; every per-layer metric.
fn traced_run(driver: &mut Driver, args: &Args, ctx: &mut Context) -> Result<Report, String> {
    let workload = driver.stack.workload;
    let nominal = workload.nominal_rps();
    let warmup = driver.phase(nominal, args.seconds * WARMUP_SHARE, true, DRAIN)?;
    let plain = driver.phase(nominal, args.seconds * NOMINAL_SHARE / 2.0, true, DRAIN)?;
    ctx.phase("untraced", &plain);

    let tracer = Arc::new(Tracer::default());
    let router = traced::traced_router(&driver.stack, &tracer);
    driver.stack.rebind(move |_| router);
    let sched_before = sched_counters(&driver.stack);
    if let Some(sweeper) = &driver.stack.sweeper {
        let _ = sweeper.take_durations();
    }
    let phase = driver.phase(nominal, args.seconds * NOMINAL_SHARE / 2.0, true, DRAIN)?;
    ctx.phase("traced", &phase);
    let sched_after = sched_counters(&driver.stack);
    let sweeps = driver
        .stack
        .sweeper
        .as_ref()
        .map(|s| s.take_durations())
        .unwrap_or_default();
    let spans = tracer.take_spans();
    let rids = tracer.take_rids();
    let mut browser = BrowserReplay::new(&phase.samples, workload.scheduled())?;
    browser.run();
    let widget = browser.finish();
    let invalid = validity(&plain).or_else(|| validity(&phase));

    let mut problems: Vec<String> = warmup
        .failures
        .iter()
        .chain(&plain.failures)
        .chain(&phase.failures)
        .chain(&widget.problems)
        .cloned()
        .collect();
    let identity = traced::check_identity(workload, args.seed)?;
    ctx.field("identity_responses_compared", identity.to_string());

    let ledger = Ledger::new(&spans);
    let handler = ledger.durations(Layer::OnlineHandler);
    let handler_p50 = median_ns(&handler);
    let stage_p50 = median_ns(&ledger.durations(if workload.scheduled() {
        Layer::Issue
    } else {
        Layer::Build
    })) + median_ns(&ledger.durations(Layer::Encode));
    let stage_share = if handler_p50 > 0.0 {
        stage_p50 / handler_p50
    } else {
        0.0
    };
    ctx.field("stage_share", json_number(stage_share));
    ctx.field("online_handler_spans", handler.len().to_string());
    if workload == Workload::OnlineMl2 && (stage_share - 1.0).abs() > STAGE_TOLERANCE {
        problems.push(format!(
            "stages do not add up: sampler + encoder span medians are {:.1}% of the \
             /online/ handler span median (tolerance {:.0}%)",
            stage_share * 100.0,
            STAGE_TOLERANCE * 100.0
        ));
    }

    // Request latency minus its handler call's span: framing, gather
    // wait, pool queue, write-out and loopback (a residual, not a span).
    let handler_of: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| {
            matches!(
                s.layer,
                Layer::OnlineHandler | Layer::RateHandler | Layer::NeighborsHandler
            )
        })
        .map(|s| (s.batch, s.dur_ns()))
        .collect();
    let batch_of: HashMap<u64, u64> = rids.into_iter().collect();
    let outside: Vec<u64> = phase
        .recs
        .iter()
        .filter_map(|r| {
            let span = handler_of.get(batch_of.get(&r.rid)?)?;
            Some(r.latency_ns()?.saturating_sub(*span))
        })
        .collect();
    let outside = Summary::of_ns(outside);

    let untraced_p50 = plain.summary(&[Kind::Online]).map_or(0.0, |s| s.p50_ms);
    let traced_p50 = phase.summary(&[Kind::Online]).map_or(0.0, |s| s.p50_ms);
    let (issued, completed) = (
        sched_after.issued - sched_before.issued,
        sched_after.completed - sched_before.completed,
    );
    let sweep_p99 = Summary::of_ns(sweeps).map_or(0.0, |s| s.p99_ms);
    let metrics = vec![
        ("gen.late_ms_p99", phase.late_ms_p99(), "ms"),
        ("gen.cpu_share", phase.cpu.generator_share(), "ratio"),
        ("gen.offered_rps", phase.rps, "req/s"),
        ("gen.achieved_rps", phase.achieved_rps(), "req/s"),
        ("http.batch_mean", phase.batch_mean(), "count"),
        ("http.online.handler_ms_p50", handler_p50 / 1e6, "ms"),
        ("http.online.handler_ms_p99", p99_ms(&handler), "ms"),
        (
            "http.rate.handler_ms_p99",
            p99_ms(&ledger.durations(Layer::RateHandler)),
            "ms",
        ),
        (
            "http.neighbors.handler_ms_p99",
            p99_ms(&ledger.durations(Layer::NeighborsHandler)),
            "ms",
        ),
        (
            "http.outside_handler_ms_p50",
            outside.as_ref().map_or(0.0, |s| s.p50_ms),
            "ms",
        ),
        (
            "http.outside_handler_ms_p99",
            outside.as_ref().map_or(0.0, |s| s.p99_ms),
            "ms",
        ),
        (
            "sampler.build_us_per_job",
            ledger.us_per_item(Layer::Build),
            "us",
        ),
        (
            "sampler.candidates_per_job",
            ledger.candidates_per_job(),
            "count",
        ),
        (
            "encoder.encode_us_per_job",
            ledger.us_per_item(Layer::Encode),
            "us",
        ),
        (
            "encoder.batch_ms_p99",
            p99_ms(&ledger.durations(Layer::Encode)),
            "ms",
        ),
        (
            "encoder.bytes_per_job",
            ledger.extra_per_item(Layer::Encode),
            "B",
        ),
        (
            "encoder.fragment_reuse_ratio",
            tracer.fragment_reuse_ratio(),
            "ratio",
        ),
        (
            "encoder.cached_profiles",
            driver.stack.encoder.cached_profiles() as f64,
            "count",
        ),
        (
            "record.us_per_vote",
            ledger.us_per_item(Layer::Record),
            "us",
        ),
        (
            "apply.us_per_update",
            ledger.us_per_item(Layer::Apply),
            "us",
        ),
        (
            "sched.issue_us_per_job",
            ledger.us_per_item(Layer::Issue),
            "us",
        ),
        (
            "sched.complete_us_per_update",
            ledger.us_per_item(Layer::Complete),
            "us",
        ),
        ("sched.sweep_ms_p99", sweep_p99, "ms"),
        (
            "sched.useful_ratio",
            if issued == 0 {
                0.0
            } else {
                completed as f64 / issued as f64
            },
            "ratio",
        ),
        (
            "sched.reissued",
            (sched_after.reissued - sched_before.reissued) as f64,
            "count",
        ),
        (
            "sched.fallback",
            (sched_after.fallbacks - sched_before.fallbacks) as f64,
            "count",
        ),
        (
            "sched.rejected_total",
            (sched_after.rejected - sched_before.rejected) as f64,
            "count",
        ),
        ("wire.job_decode_us", widget.decode_us_mean, "us"),
        ("wire.update_encode_us", widget.encode_us_mean, "us"),
        (
            "wire.update_decode_us",
            ledger.us_per_item(Layer::UpdateDecode),
            "us",
        ),
        ("client.kernel_ms_p50", widget.kernel_ms_p50, "ms"),
        (
            "trace.overhead_ratio",
            if untraced_p50 > 0.0 {
                traced_p50 / untraced_p50
            } else {
                0.0
            },
            "ratio",
        ),
    ];
    Ok(Report {
        metrics,
        ungated: Vec::new(),
        attempted: warmup.recs.len() + plain.recs.len() + phase.recs.len(),
        failed: warmup.failed() + plain.failed() + phase.failed() + widget.wrong,
        problems,
        invalid,
        context: String::new(),
    })
}

/// The run is invalid when the generator fell behind its own schedule:
/// sends more than [`LATE_LIMIT_MS`] late at p99, or jobs waiting more
/// than [`BROWSER_WAIT_LIMIT_MS`] at p99 for the browser side.
fn validity(phase: &Phase) -> Option<String> {
    let late = phase.late_ms_p99();
    let wait = phase.compute_wait_ms_p99();
    (late > LATE_LIMIT_MS || wait > BROWSER_WAIT_LIMIT_MS).then(|| {
        format!(
            "generator fell behind: p99 send lateness {late:.1} ms (limit {LATE_LIMIT_MS}), \
             p99 browser-side wait {wait:.1} ms (limit {BROWSER_WAIT_LIMIT_MS}); the box, \
             not the program, set the latencies"
        )
    })
}

/// Percentiles resting on too few samples are problems, not results.
fn check_tails(series: &[(&str, usize)]) -> Vec<String> {
    series
        .iter()
        .filter(|(_, n)| !stats::tail_ok(*n, 0.99))
        .map(|(name, n)| {
            format!(
                "{name} p99 rests on {n} samples; at least {} must lie beyond it",
                stats::MIN_TAIL
            )
        })
        .collect()
}

fn median_ns(durations: &[u64]) -> f64 {
    let values: Vec<f64> = durations.iter().map(|&d| d as f64).collect();
    stats::median(&values).unwrap_or(0.0)
}

fn p99_ms(durations: &[u64]) -> f64 {
    Summary::of_ns(durations.to_vec()).map_or(0.0, |s| s.p99_ms)
}

/// Span arithmetic per layer.
struct Ledger<'a> {
    spans: &'a [Span],
}

impl<'a> Ledger<'a> {
    fn new(spans: &'a [Span]) -> Self {
        Self { spans }
    }

    fn of(&self, layer: Layer) -> impl Iterator<Item = &'a Span> + '_ {
        self.spans.iter().filter(move |s| s.layer == layer)
    }

    fn durations(&self, layer: Layer) -> Vec<u64> {
        self.of(layer).map(Span::dur_ns).collect()
    }

    /// Busy time per work item, µs (0 when the layer was idle).
    fn us_per_item(&self, layer: Layer) -> f64 {
        let (ns, items) = self
            .of(layer)
            .fold((0u64, 0u64), |(ns, n), s| (ns + s.dur_ns(), n + s.items));
        if items == 0 {
            0.0
        } else {
            ns as f64 / items as f64 / 1e3
        }
    }

    fn extra_per_item(&self, layer: Layer) -> f64 {
        let (extra, items) = self
            .of(layer)
            .fold((0u64, 0u64), |(e, n), s| (e + s.extra, n + s.items));
        if items == 0 {
            0.0
        } else {
            extra as f64 / items as f64
        }
    }

    fn candidates_per_job(&self) -> f64 {
        let build = self.extra_per_item(Layer::Build);
        if build > 0.0 {
            build
        } else {
            self.extra_per_item(Layer::Issue)
        }
    }
}

#[derive(Default)]
struct SchedCounters {
    issued: u64,
    completed: u64,
    reissued: u64,
    fallbacks: u64,
    rejected: u64,
}

fn sched_counters(stack: &Stack) -> SchedCounters {
    stack
        .scheduled
        .as_ref()
        .map(|s| {
            let stats = s.scheduler().stats();
            SchedCounters {
                issued: stats.issued(),
                completed: stats.completed(),
                reissued: stats.reissued(),
                fallbacks: stats.fallbacks(),
                rejected: stats.rejected_total(),
            }
        })
        .unwrap_or_default()
}

/// Browser-side timings over the kept job bodies, replayed with the
/// server idle. The replay is also the full check of the read mix's kept
/// jobs: each must decode, and on the plain router answer the uid it was
/// requested for.
struct WidgetTimes {
    /// Kept bodies that failed their check.
    wrong: usize,
    /// Median browser round trip (decode, widget, encode the update), ms.
    total_ms_p50: f64,
    /// Median `Widget::run_job` time (the kernel alone), ms.
    kernel_ms_p50: f64,
    /// Mean `PersonalizationJob::decode` time, µs.
    decode_us_mean: f64,
    /// Mean `KnnUpdate::encode` time, µs.
    encode_us_mean: f64,
    problems: Vec<String>,
}

/// Replays kept jobs through the steps of `Widget::run_encoded_job`
/// (decode, kernel, encode the update), timed apart in the thread's own
/// CPU time, which leaves out time spent waiting for a core. Each step's
/// time per job is its best over the passes.
struct BrowserReplay<'a> {
    widget: Widget,
    valid: Vec<&'a Sample>,
    best: Vec<[Duration; 3]>,
    problems: Vec<String>,
}

impl<'a> BrowserReplay<'a> {
    fn new(samples: &'a [Sample], scheduled: bool) -> Result<Self, String> {
        let mut problems = Vec::new();
        let mut valid = Vec::with_capacity(samples.len());
        for sample in samples {
            match PersonalizationJob::decode(&sample.body) {
                Ok(job) if scheduled || job.uid.0 == sample.requested => valid.push(sample),
                Ok(job) => problems.push(format!(
                    "job for uid {} answers uid {}",
                    sample.requested, job.uid.0
                )),
                Err(err) => problems.push(format!("kept job does not decode: {err}")),
            }
        }
        if valid.is_empty() {
            return Err("no valid job bodies were kept for the widget replay".to_owned());
        }
        Ok(Self {
            widget: Widget::new(),
            best: vec![[Duration::MAX; 3]; valid.len()],
            valid,
            problems,
        })
    }

    fn samples(&self) -> usize {
        self.valid.len()
    }

    /// [`REPLAY_PASSES`] passes, back to back.
    fn run(&mut self) {
        for _ in 0..REPLAY_PASSES {
            self.pass();
        }
    }

    fn pass(&mut self) {
        let since = |start: u64| Duration::from_nanos(cpu::thread_cpu_ns() - start);
        for (sample, best) in self.valid.iter().zip(self.best.iter_mut()) {
            let start = cpu::thread_cpu_ns();
            let job = PersonalizationJob::decode(std::hint::black_box(&sample.body))
                .expect("kept job decoded when it was checked");
            let decoded = since(start);
            let start = cpu::thread_cpu_ns();
            let output = self.widget.run_job(std::hint::black_box(&job));
            let kernel = since(start);
            let start = cpu::thread_cpu_ns();
            std::hint::black_box(output.update.encode());
            let encoded = since(start);
            for (slot, time) in best.iter_mut().zip([decoded, kernel, encoded]) {
                *slot = (*slot).min(time);
            }
        }
    }

    fn finish(self) -> WidgetTimes {
        let column = |step: usize, scale: f64| -> Vec<f64> {
            self.best
                .iter()
                .map(|b| b[step].as_secs_f64() * scale)
                .collect()
        };
        let total: Vec<f64> = self
            .best
            .iter()
            .map(|b| b.iter().sum::<Duration>().as_secs_f64() * 1e3)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        WidgetTimes {
            wrong: self.problems.len(),
            total_ms_p50: stats::median(&total).unwrap_or(0.0),
            kernel_ms_p50: stats::median(&column(1, 1e3)).unwrap_or(0.0),
            decode_us_mean: mean(&column(0, 1e6)),
            encode_us_mean: mean(&column(2, 1e6)),
            problems: self.problems.into_iter().take(8).collect(),
        }
    }
}

/// The run context printed before the result.
#[derive(Default)]
struct Context {
    fields: Vec<String>,
    probes: Vec<String>,
}

impl Context {
    fn field(&mut self, name: &str, value: String) {
        self.fields.push(format!("\"{name}\": {value}"));
    }

    fn phase_json(phase: &Phase) -> String {
        let mut out = format!(
            "{{\"offered_rps\": {}, \"seconds\": {}, \"attempted\": {}, \"failed\": {}, \
             \"achieved_rps\": {}, \"gen_late_ms_p99\": {}, \"late_samples\": {}, \
             \"compute_wait_ms_p99\": {}, \"gen_cpu_ticks\": {}, \"process_cpu_ticks\": {}, \
             \"batch_mean\": {}, \"steal_share\": {}",
            json_number(phase.rps),
            json_number(phase.seconds),
            phase.recs.len(),
            phase.failed(),
            json_number(phase.achieved_rps()),
            json_number(phase.late_ms_p99()),
            phase.lateness().len(),
            json_number(phase.compute_wait_ms_p99()),
            phase.cpu.generator,
            phase.cpu.process,
            json_number(phase.batch_mean()),
            json_number(phase.steal_share),
        );
        for (name, kinds) in [
            ("online", &[Kind::Online][..]),
            ("write", &[Kind::Rate, Kind::Neighbors][..]),
        ] {
            if let Some(s) = phase.summary(kinds) {
                let _ = write!(
                    out,
                    ", \"{name}_samples\": {}, \"{name}_p50_ms\": {}, \"{name}_p90_ms\": {}, \
                     \"{name}_p99_ms\": {}",
                    s.n,
                    json_number(s.p50_ms),
                    json_number(s.p90_ms),
                    json_number(s.p99_ms)
                );
            }
        }
        out.push('}');
        out
    }

    fn phase(&mut self, name: &str, phase: &Phase) {
        let json = Self::phase_json(phase);
        self.field(name, json);
    }

    fn probe(&mut self, phase: &Phase, pass: bool) {
        let json = Self::phase_json(phase);
        self.probes
            .push(format!("{{\"pass\": {pass}, \"phase\": {json}}}"));
        let list = format!("[{}]", self.probes.join(", "));
        self.fields.retain(|f| !f.starts_with("\"probes\""));
        self.field("probes", list);
    }
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
    format!("[{}]", items.join(", "))
}

/// The commit being measured, read from `.git` when the checkout has one.
fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
