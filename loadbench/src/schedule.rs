//! Seeded arrival schedules and the HTTP requests they turn into.
//!
//! A schedule is a list of [`Arrival`]s: when a browser interaction is due
//! (nanoseconds from the phase start) and what it does ([`Chain`]). The
//! same seed and the same inputs give the same schedule, bit for bit; the
//! generator then sends each chain's first request at its due time whatever
//! the server is doing (open loop). Follow-up requests of a chain are sent
//! as soon as the response they depend on arrives.

use hyrec_datasets::TraceEvent;
use rand::rngs::StdRng;
use rand::Rng;

/// What one arrival does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    /// A browser fetching its personalization job: `GET /online/`.
    Online {
        /// Requesting user.
        uid: u32,
    },
    /// One interaction of the paper's replay loop: `GET /rate/`, then
    /// `GET /online/`, then the widget, then `POST /neighbors/`. An
    /// abandoned interaction stops after `/online/` (the browser left).
    Vote {
        /// Voting user.
        uid: u32,
        /// Rated item.
        item: u32,
        /// Like (`true`) or dislike.
        like: bool,
        /// Whether the browser leaves before returning its result.
        abandon: bool,
    },
}

/// One scheduled interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, nanoseconds after the phase start.
    pub at_ns: u64,
    /// Position in the run's arrival sequence (request ids derive from it).
    pub index: u64,
    /// What the interaction does.
    pub chain: Chain,
}

/// Request-id slots per arrival: a chain sends at most three requests.
pub const STEPS: u64 = 4;

/// Request id of step `step` (0-based) of arrival `index`; stable across
/// runs of one seed, whatever the timing.
#[must_use]
pub fn rid(index: u64, step: u64) -> u64 {
    index * STEPS + step
}

/// Poisson arrival times at `rate` per second over `[0, duration_ns)`.
#[must_use]
pub fn poisson_times(rng: &mut StdRng, rate: f64, duration_ns: u64) -> Vec<u64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut times = Vec::with_capacity((rate * duration_ns as f64 / 1e9) as usize + 16);
    let mut at = 0.0f64;
    loop {
        // Exponential gap by inversion; 1 - u lies in (0, 1].
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate * 1e9;
        if at >= duration_ns as f64 {
            return times;
        }
        times.push(at as u64);
    }
}

/// The read mix: Poisson arrivals at `rate`, each a `/online/` fetch for
/// the user of a uniformly drawn liked event, so users come in proportion
/// to their trace activity.
#[must_use]
pub fn read_mix(
    rng: &mut StdRng,
    liked_by: &[u32],
    rate: f64,
    duration_ns: u64,
    first_index: u64,
) -> Vec<Arrival> {
    assert!(!liked_by.is_empty(), "read mix needs liked events");
    poisson_times(rng, rate, duration_ns)
        .into_iter()
        .zip(first_index..)
        .map(|(at_ns, index)| Arrival {
            at_ns,
            index,
            chain: Chain::Online {
                uid: liked_by[rng.gen_range(0..liked_by.len())],
            },
        })
        .collect()
}

/// Maps trace timestamps (seconds, ascending) onto `[0, duration_ns)`,
/// keeping their relative gaps — bursts stay bursts. `end_s` is the trace
/// time at which the window ends (the next event's time).
#[must_use]
pub fn compress(times_s: &[u64], end_s: u64, duration_ns: u64) -> Vec<u64> {
    let Some(&start) = times_s.first() else {
        return Vec::new();
    };
    let span = end_s.saturating_sub(start);
    if span == 0 {
        // A window of simultaneous events: spread them evenly instead.
        let step = duration_ns / times_s.len() as u64;
        return (0..times_s.len() as u64).map(|i| i * step).collect();
    }
    times_s
        .iter()
        .map(|&t| ((t - start) as u128 * u128::from(duration_ns) / span as u128) as u64)
        .collect()
}

/// When a replay's votes fall due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// At their trace times, compressed into the phase (bursts stay).
    Trace,
    /// Poisson at the mean rate, in trace order (sessions stay, bursts go).
    Poisson,
}

/// The replay loop over a chronological trace window: the first
/// `vote_rate · duration` events of `window` (about) become
/// [`Chain::Vote`]s, due as `shape` says, each abandoned with probability
/// `abandon`. Returns the arrivals and how many events were used.
///
/// # Panics
///
/// Panics if the window holds too few events for the phase.
#[must_use]
pub fn vote_replay(
    rng: &mut StdRng,
    window: &[TraceEvent],
    vote_rate: f64,
    duration_ns: u64,
    shape: Shape,
    abandon: f64,
    first_index: u64,
) -> (Vec<Arrival>, usize) {
    let due = match shape {
        Shape::Trace => {
            let count = (vote_rate * duration_ns as f64 / 1e9).ceil() as usize;
            assert!(
                count < window.len(),
                "trace window exhausted: need {count} events, {} left",
                window.len()
            );
            let times: Vec<u64> = window[..count].iter().map(|e| e.time.0).collect();
            compress(&times, window[count].time.0, duration_ns)
        }
        Shape::Poisson => poisson_times(rng, vote_rate, duration_ns),
    };
    let count = due.len();
    assert!(
        count <= window.len(),
        "trace window exhausted: need {count} events, {} left",
        window.len()
    );
    let arrivals = window[..count]
        .iter()
        .zip(due)
        .zip(first_index..)
        .map(|((event, at_ns), index)| Arrival {
            at_ns,
            index,
            chain: Chain::Vote {
                uid: event.user.0,
                item: event.item.0,
                like: event.vote == hyrec_core::Vote::Like,
                abandon: abandon > 0.0 && rng.gen_bool(abandon),
            },
        })
        .collect();
    (arrivals, count)
}

/// `GET /online/` for `uid`.
#[must_use]
pub fn online_request(uid: u32, rid: u64) -> Vec<u8> {
    format!("GET /online/?uid={uid}&rid={rid} HTTP/1.1\r\nHost: hyrec\r\n\r\n").into_bytes()
}

/// `GET /rate/` recording `uid`'s vote on `item`.
#[must_use]
pub fn rate_request(uid: u32, item: u32, like: bool, rid: u64) -> Vec<u8> {
    let like = u8::from(like);
    format!(
        "GET /rate/?uid={uid}&item={item}&like={like}&rid={rid} HTTP/1.1\r\nHost: hyrec\r\n\r\n"
    )
    .into_bytes()
}

/// `POST /neighbors/` carrying a gzipped `KnnUpdate`.
#[must_use]
pub fn neighbors_request(body: &[u8], rid: u64) -> Vec<u8> {
    let mut request = format!(
        "POST /neighbors/?rid={rid} HTTP/1.1\r\nHost: hyrec\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

/// The first request an arrival sends.
#[must_use]
pub fn first_request(arrival: &Arrival) -> Vec<u8> {
    let rid = rid(arrival.index, 0);
    match arrival.chain {
        Chain::Online { uid } => online_request(uid, rid),
        Chain::Vote {
            uid, item, like, ..
        } => rate_request(uid, item, like, rid),
    }
}
