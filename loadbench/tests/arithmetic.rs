//! Percentile, lateness and `/proc` CPU-accounting arithmetic.

use hyrec_loadbench::cpu::{
    self, cpu_windows, CpuMark, CpuSplit, CpuWindow, ProbeSample, MIN_TICKS,
};
use hyrec_loadbench::stats::{
    latency_ns, lateness_ns, median, nearest_rank, percentile, tail_ok, window_percentiles, Summary,
};

/// Median over windows of each window's `q` percentile.
fn windowed_percentile(samples: &[(u64, u64)], window_ns: u64, q: f64) -> Option<f64> {
    median(&window_percentiles(samples, window_ns, q))
}

#[test]
fn nearest_rank_percentiles() {
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&sorted, 0.50), Some(50));
    assert_eq!(percentile(&sorted, 0.99), Some(99));
    assert_eq!(percentile(&sorted, 1.0), Some(100));
    assert_eq!(percentile(&sorted, 0.001), Some(1));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&[7], 0.99), Some(7));
    // Rank is ceil(q·n): 0.5 of 5 samples is the 3rd.
    assert_eq!(nearest_rank(5, 0.5), 3);
    assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.5), Some(30));
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert!(!tail_ok(0, 0.99));
    assert!(!tail_ok(999, 0.99));
    assert!(tail_ok(1000, 0.99));
    assert!(tail_ok(20, 0.5));
    assert!(!tail_ok(19, 0.5));
}

#[test]
fn lateness_and_latency_count_from_the_intended_time() {
    assert_eq!(lateness_ns(1_000, 1_250), 250);
    // Sending early is on time, never negative lateness.
    assert_eq!(lateness_ns(1_000, 900), 0);
    // A stall before sending is charged to the request's latency.
    assert_eq!(latency_ns(1_000, 9_000), 8_000);
    assert_eq!(latency_ns(1_000, 500), 0);
}

#[test]
fn summary_reports_milliseconds() {
    let samples: Vec<u64> = (1..=1000).map(|i| i * 1_000).collect();
    let summary = Summary::of_ns(samples).expect("non-empty");
    assert_eq!(summary.n, 1000);
    assert!((summary.p50_ms - 0.5).abs() < 1e-12);
    assert!((summary.p99_ms - 0.99).abs() < 1e-12);
    assert!(Summary::of_ns(Vec::new()).is_none());
}

#[test]
fn median_of_odd_and_even_lists() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn windowed_p99_shrugs_off_one_bad_window() {
    // Five one-second windows of 1000 samples; one holds a spike.
    let mut samples = Vec::new();
    for window in 0..5u64 {
        for i in 0..1000u64 {
            let at = window * 1_000_000_000 + i * 1_000_000;
            let value = if window == 2 && i >= 900 {
                1_000_000
            } else {
                i
            };
            samples.push((at, value));
        }
    }
    let windowed = windowed_percentile(&samples, 1_000_000_000, 0.99).expect("samples");
    assert_eq!(windowed, 989.0);
    // Over the whole run the spike owns the tail.
    let mut all: Vec<u64> = samples.iter().map(|&(_, v)| v).collect();
    all.sort_unstable();
    assert_eq!(percentile(&all, 0.99), Some(1_000_000));
}

#[test]
fn windows_merge_until_the_percentile_resolves() {
    // 1500 samples spread over 15 s: no single second holds 1000, so the
    // first window grows to 1000 samples and the 500 left join it.
    let samples: Vec<(u64, u64)> = (0..1500u64).map(|i| (i * 10_000_000, i % 100)).collect();
    let windowed = windowed_percentile(&samples, 1_000_000_000, 0.99).expect("samples");
    // Each value 0..99 appears 15 times; rank ceil(0.99 · 1500) = 1485.
    assert_eq!(windowed, 98.0);
    assert_eq!(windowed_percentile(&[], 1_000_000_000, 0.99), None);
}

#[test]
fn stat_line_parsing_counts_fields_after_the_command_name() {
    // Field 2 may hold spaces and parentheses; utime and stime are fields
    // 14 and 15.
    let line = "4242 (we(ird) name) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                1234 56 0 0 20 0 3 0 12345 1000000 100 18446744073709551615";
    assert_eq!(cpu::parse_stat_ticks(line), Ok(1290));
    assert!(cpu::parse_stat_ticks("no parens here").is_err());
    assert!(cpu::parse_stat_ticks("1 (x) S 1 2").is_err());
}

#[test]
fn server_cpu_is_process_minus_generator() {
    let split = CpuSplit {
        process: 700,
        generator: 200,
    };
    assert_eq!(split.server(), 500);
    // 500 ticks = 5 s of CPU over 10_000 requests = 500 µs each.
    let per_request = split.server_us_per_request(10_000).expect("enough ticks");
    assert!((per_request - 500.0).abs() < 1e-9);
    assert!((split.generator_share() - 200.0 / 700.0).abs() < 1e-12);
}

#[test]
fn window_cpu_charges_each_window_its_own_requests() {
    let mark = |at_ms: u64, process_ms: u64, generator_ms: u64| CpuMark {
        at_ns: at_ms * 1_000_000,
        process_ns: process_ms * 1_000_000,
        generator_ns: generator_ms * 1_000_000,
    };
    // Four 1 s windows, then a 200 ms tail.
    let marks = [
        mark(0, 0, 0),
        mark(1000, 600, 100),
        mark(2000, 1300, 200),
        mark(3000, 1400, 250),
        mark(4000, 1900, 300),
        mark(4200, 2000, 310),
    ];
    let at = |ms: u64| ms * 1_000_000;
    // 1000 completions in the first window, 500 in the second, 10 in the
    // third, 500 in the fourth, 100 in the tail.
    let mut completions: Vec<u64> = (0..1000).map(at).collect();
    completions.extend((0..500).map(|i| at(1000 + 2 * i)));
    completions.extend((0..10).map(|i| at(2000 + 100 * i)));
    completions.extend((0..500).map(|i| at(3000 + 2 * i)));
    completions.extend((0..100).map(|i| at(4000 + i)));
    completions.reverse();
    // The kernel took 2 ms in the first window, 1 or 4 ms in the second
    // (median 2.5), and none ran in the fourth.
    let probe = |ms: u64, kernel_us: u64| ProbeSample {
        at_ns: at(ms),
        cpu_ns: kernel_us * 1000,
    };
    let samples = [
        probe(500, 2000),
        probe(1100, 1000),
        probe(1500, 4000),
        probe(1900, 2500),
        probe(2500, 2000),
        probe(4100, 2000),
    ];
    let windows = cpu_windows(&marks, &completions, &samples, 500_000_000, 100);
    // (600 - 100) ms over 1000 requests; (700 - 100) ms over 500. The
    // third window has too few requests, the fourth no kernel timing, and
    // the tail is too short.
    assert_eq!(
        windows,
        vec![
            CpuWindow {
                us_per_request: 500.0,
                reference_us: 2000.0,
            },
            CpuWindow {
                us_per_request: 1200.0,
                reference_us: 2500.0,
            },
        ]
    );
    // At the reference speed the second window's work costs less.
    assert_eq!(windows[0].reference_us_per_request(), 500.0);
    assert_eq!(windows[1].reference_us_per_request(), 960.0);
    assert!(cpu_windows(&marks[..1], &completions, &samples, 1, 1).is_empty());
}

#[test]
fn probe_times_the_kernel_until_stopped() {
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    let published = std::sync::atomic::AtomicU64::new(0);
    let origin = std::time::Instant::now();
    let published_ref = &published;
    let (samples, _ticks) = std::thread::scope(|scope| {
        let probe = scope.spawn(move || {
            cpu::run_probe(
                origin,
                std::time::Duration::from_millis(5),
                stopped,
                published_ref,
            )
        });
        std::thread::sleep(std::time::Duration::from_millis(200));
        drop(stop);
        probe.join().expect("probe thread")
    });
    assert!(samples.len() >= 3, "only {} timings", samples.len());
    assert!(samples.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
    assert!(samples.iter().all(|s| s.cpu_ns > 0));
    let total: u64 = samples.iter().map(|s| s.cpu_ns).sum();
    assert!(published.load(std::sync::atomic::Ordering::Relaxed) >= total);
}

#[test]
fn cpu_clocks_move_with_work() {
    let process_before = cpu::process_cpu_ns();
    let thread_before = cpu::thread_cpu_ns();
    let start = std::time::Instant::now();
    let mut x = 0u64;
    while start.elapsed() < std::time::Duration::from_millis(50) {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    let thread = cpu::thread_cpu_ns() - thread_before;
    let process = cpu::process_cpu_ns() - process_before;
    assert!(thread >= 10_000_000, "a 50 ms spin showed only {thread} ns");
    assert!(process >= thread, "process {process} < thread {thread}");
}

#[test]
fn too_few_ticks_to_resolve_one_percent_fail_loudly() {
    let split = CpuSplit {
        process: MIN_TICKS + 40,
        generator: 41,
    };
    let err = split
        .server_us_per_request(1000)
        .expect_err("99 ticks cannot resolve 1%");
    assert!(err.contains("99 clock ticks"), "{err}");
    let enough = CpuSplit {
        process: MIN_TICKS,
        generator: 0,
    };
    assert!(enough.server_us_per_request(1000).is_ok());
    assert!(enough.server_us_per_request(0).is_err());
}

#[test]
fn proc_counters_are_readable_and_move_with_work() {
    let process_before = cpu::process_ticks().expect("/proc/self/stat");
    let thread_before = cpu::thread_ticks().expect("/proc/thread-self/stat");
    // Burn about 0.3 s of this thread's CPU.
    let start = std::time::Instant::now();
    let mut x = 0u64;
    while start.elapsed() < std::time::Duration::from_millis(300) {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    let thread = cpu::thread_ticks().expect("thread ticks") - thread_before;
    let process = cpu::process_ticks().expect("process ticks") - process_before;
    assert!(thread >= 10, "a 0.3 s spin showed only {thread} ticks");
    assert!(process >= thread, "process {process} < thread {thread}");
    assert!(cpu::peak_rss_mb().expect("VmHWM") > 0.0);
}
