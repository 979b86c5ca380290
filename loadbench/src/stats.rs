//! Percentile, lateness and summary arithmetic over recorded samples.
//!
//! Every percentile here is the *nearest-rank* percentile: the smallest
//! sample such that at least `q·n` samples are at or below it. A reported
//! percentile is only trusted when at least [`MIN_TAIL`] samples lie beyond
//! it, so a p99 needs 1000 samples; [`tail_ok`] says whether that holds.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported as resolved.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of quantile `q` (`0 < q ≤ 1`) among `n` samples.
#[must_use]
pub fn nearest_rank(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// Whether at least [`MIN_TAIL`] of `n` samples lie beyond the `q`
/// percentile (the sample-count rule for reporting it).
#[must_use]
pub fn tail_ok(n: usize, q: f64) -> bool {
    n > 0 && n - nearest_rank(n, q) >= MIN_TAIL
}

/// How late a send was against its schedule, in nanoseconds (never
/// negative: a send ahead of time is on time).
#[must_use]
pub fn lateness_ns(intended_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(intended_ns)
}

/// Latency of a request timed from its *intended* send time, so a stall
/// that delays later sends is charged to them (no coordinated omission).
#[must_use]
pub fn latency_ns(intended_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(intended_ns)
}

/// The percentiles the benchmark reports, in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median, ms.
    pub p50_ms: f64,
    /// 90th percentile, ms.
    pub p90_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
}

impl Summary {
    /// Summarizes nanosecond samples; `None` when empty.
    #[must_use]
    pub fn of_ns(mut samples: Vec<u64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        Some(Self {
            n: samples.len(),
            p50_ms: ns_to_ms(percentile(&samples, 0.50)?),
            p90_ms: ns_to_ms(percentile(&samples, 0.90)?),
            p99_ms: ns_to_ms(percentile(&samples, 0.99)?),
        })
    }
}

/// Nanoseconds to milliseconds.
#[must_use]
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median of a non-empty list of reals (mean of the middle pair for even
/// lengths); `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Splits `(at_ns, value)` samples into consecutive windows of `window_ns`
/// by `at_ns` and returns each window's `q` percentile, in window order. A
/// window holding too few samples to resolve `q` (see [`tail_ok`]) grows
/// into the next one, and a short remainder at the end joins the last
/// window, so every window's percentile rests on enough samples.
#[must_use]
pub fn window_percentiles(samples: &[(u64, u64)], window_ns: u64, q: f64) -> Vec<f64> {
    let mut ordered = samples.to_vec();
    ordered.sort_unstable_by_key(|&(at, _)| at);
    let window_ns = window_ns.max(1);
    let mut windows: Vec<Vec<u64>> = Vec::new();
    let mut current: Vec<u64> = Vec::new();
    let Some(&(first, _)) = ordered.first() else {
        return Vec::new();
    };
    let mut window_end = first + window_ns;
    for &(at, value) in &ordered {
        if at >= window_end && tail_ok(current.len(), q) {
            windows.push(std::mem::take(&mut current));
            window_end = at + window_ns;
        }
        current.push(value);
    }
    match windows.last_mut() {
        Some(last) if !tail_ok(current.len(), q) => last.extend(current),
        _ => windows.push(current),
    }
    windows
        .iter_mut()
        .filter_map(|window| {
            window.sort_unstable();
            percentile(window, q).map(|v| v as f64)
        })
        .collect()
}
