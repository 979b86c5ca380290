//! The workloads and the serving stack each one runs against.
//!
//! Set-up generates the workload's trace (a fixed data set), loads the profile
//! table, seeds a warm KNN table, warms the encoder's fragment cache, and
//! binds the stock router on a one-shard [`ReactorServer`] with one worker
//! per core and the default coalescing policy. Everything the benchmark
//! times afterwards runs against that stack.

use crate::schedule::Shape;
use hyrec_core::{
    CandidateProfile, CandidateSet, Cosine, ItemId, Neighbor, Neighborhood, Similarity, UserId,
    Vote,
};
use hyrec_datasets::{DatasetSpec, TraceEvent, TraceGenerator};
use hyrec_http::api::{hyrec_router_with, hyrec_scheduled_router};
use hyrec_http::reactor::{ReactorHandle, ReactorStats};
use hyrec_http::{BatchPolicy, ReactorServer, Router};
use hyrec_sched::SchedConfig;
use hyrec_server::{HyRecServer, JobEncoder, ScheduledServer};
use hyrec_wire::PersonalizationJob;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read mix over the full ML2 trace, warm tables and cache.
    OnlineMl2,
    /// The replay loop over a chronological window of the full Digg trace.
    ReplayDigg,
    /// The replay loop over ML1 on the scheduled router, with abandonment.
    ChurnMl1,
}

/// Neighbourhood size of every workload's server (the paper's default).
pub const K: usize = 10;

/// Seed of every workload's trace. The trace is the workload's data set,
/// the same on every run; the run's seed drives what varies between runs:
/// arrivals, the users they pick, abandonment, the warm KNN table and the
/// sampler.
pub const TRACE_SEED: u64 = 2014;

/// Share of trace events preloaded before the replayed window starts.
pub const PRELOAD_SHARE: f64 = 0.8;

/// Lease timeout of `churn-ml1`'s scheduler, in milliseconds: short enough
/// that abandoned leases expire, re-issue and fall back within a run, and
/// longer than any answered job waits for its browser (a run whose jobs
/// wait 500 ms at p99 is invalid). Only abandoned jobs expire, so the
/// re-issue and fallback work follows the seeded abandonment, not how
/// fast the host ran the browsers.
pub const LEASE_TIMEOUT_MS: u64 = 1000;

/// Interval of the benchmark-owned lease sweep on `churn-ml1`.
pub const SWEEP_EVERY_MS: u64 = 50;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::OnlineMl2, Self::ReplayDigg, Self::ChurnMl1];

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::OnlineMl2 => "online-ml2",
            Self::ReplayDigg => "replay-digg",
            Self::ChurnMl1 => "churn-ml1",
        }
    }

    /// The Table 2 preset the workload's trace is generated from.
    #[must_use]
    pub fn spec(self) -> DatasetSpec {
        match self {
            Self::OnlineMl2 => DatasetSpec::ML2,
            Self::ReplayDigg => DatasetSpec::DIGG,
            Self::ChurnMl1 => DatasetSpec::ML1,
        }
    }

    /// Nominal offered rate, requests per second — fixed, so that parent
    /// and change are compared at the same load.
    #[must_use]
    pub fn nominal_rps(self) -> f64 {
        match self {
            Self::OnlineMl2 => 1000.0,
            Self::ReplayDigg => 900.0,
            Self::ChurnMl1 => 540.0,
        }
    }

    /// Whether the workload runs on the scheduled (leased) router.
    #[must_use]
    pub fn scheduled(self) -> bool {
        self == Self::ChurnMl1
    }

    /// Share of fetched jobs whose browser leaves without answering.
    #[must_use]
    pub fn abandon(self) -> f64 {
        match self {
            Self::ChurnMl1 => 0.3,
            Self::OnlineMl2 | Self::ReplayDigg => 0.0,
        }
    }

    /// When the replay's votes fall due: Digg keeps its trace's bursts;
    /// ML1's generated sessions put a user's dozens of ratings in the same
    /// second, so its votes come Poisson, in trace order.
    #[must_use]
    pub fn shape(self) -> Shape {
        match self {
            Self::ReplayDigg => Shape::Trace,
            Self::OnlineMl2 | Self::ChurnMl1 => Shape::Poisson,
        }
    }

    /// Whether arrivals replay the trace window (else the read mix).
    #[must_use]
    pub fn replays(self) -> bool {
        self != Self::OnlineMl2
    }

    /// Mean requests one arrival sends, with or without the browser's
    /// answer.
    #[must_use]
    pub fn requests_per_arrival(self, browsers: bool) -> f64 {
        match (self.replays(), browsers) {
            // /rate/ and /online/ always, /neighbors/ unless abandoned.
            (true, true) => 3.0 - self.abandon(),
            (true, false) => 2.0,
            (false, _) => 1.0,
        }
    }
}

/// A bound front-end: the reactor serving one router.
pub struct Front {
    handle: ReactorHandle,
    /// Bound address.
    pub addr: SocketAddr,
    /// The reactor's counters.
    pub stats: Arc<ReactorStats>,
}

impl Front {
    /// Binds a one-shard reactor with `workers` workers serving `router`.
    ///
    /// # Panics
    ///
    /// Panics if the loopback listener cannot be bound.
    #[must_use]
    pub fn bind(router_for: impl FnOnce(Arc<ReactorStats>) -> Router, workers: usize) -> Self {
        let server = ReactorServer::bind("127.0.0.1:0", workers).expect("bind loopback reactor");
        let addr = server.local_addr();
        let stats = server.stats_handle();
        let handle = server.serve(router_for(Arc::clone(&stats)));
        Self {
            handle,
            addr,
            stats,
        }
    }

    /// Stops the server and joins its threads.
    pub fn stop(self) {
        self.handle.stop();
    }
}

/// Everything a workload runs against.
pub struct Stack {
    /// The workload.
    pub workload: Workload,
    /// The HyRec server holding the tables.
    pub server: Arc<HyRecServer>,
    /// The shared fragment-caching encoder.
    pub encoder: Arc<JobEncoder>,
    /// The lease scheduler's wrapper (`churn-ml1` only).
    pub scheduled: Option<Arc<ScheduledServer>>,
    /// The user of every liked event: the read mix draws from it.
    pub liked_by: Vec<u32>,
    /// The chronological window the replay loop consumes.
    pub window: Vec<TraceEvent>,
    /// Events of the window already replayed.
    pub cursor: usize,
    /// The lease sweep the benchmark owns (`churn-ml1` only).
    pub sweeper: Option<Sweeper>,
    /// Worker threads of the reactor.
    pub workers: usize,
    /// The stock front-end, once bound.
    pub front: Option<Front>,
}

impl Stack {
    /// Builds the workload's tables (the trace from [`TRACE_SEED`], the
    /// rest from `seed`) and binds the stock router.
    #[must_use]
    pub fn setup(workload: Workload, seed: u64, workers: usize) -> Self {
        let mut stack = Self::tables(workload, workload.spec(), seed, workers, sched_config());
        stack.front = Some(Front::bind(
            |stats| stack.stock_router(Some(stats)),
            workers,
        ));
        stack
    }

    /// Builds the tables only (no front-end): trace, profiles, warm KNN
    /// table, warm fragment cache, and the scheduler (configured by
    /// `sched`) on `churn-ml1`.
    #[must_use]
    pub fn tables(
        workload: Workload,
        spec: DatasetSpec,
        seed: u64,
        workers: usize,
        sched: SchedConfig,
    ) -> Self {
        let trace = TraceGenerator::new(spec, TRACE_SEED).generate().binarize();
        let events = trace.events();
        // Candidate ids stay raw, as in the repository's load harnesses:
        // the fragment cache is keyed by the ids jobs carry, and raw ids
        // let set-up warm it for every user without the sampler.
        let server = Arc::new(
            HyRecServer::builder()
                .k(K)
                .anonymize_users(false)
                .seed(seed)
                .build(),
        );
        let preload = if workload.replays() {
            (events.len() as f64 * PRELOAD_SHARE) as usize
        } else {
            events.len()
        };
        let votes: Vec<(UserId, ItemId, Vote)> = events[..preload]
            .iter()
            .map(|e| (e.user, e.item, e.vote))
            .collect();
        for chunk in votes.chunks(8192) {
            let _ = server.record_many(chunk);
        }
        seed_knn(&server, seed);
        let encoder = Arc::new(JobEncoder::new());
        warm_cache(&server, &encoder);
        let scheduled = workload
            .scheduled()
            .then(|| Arc::new(ScheduledServer::new(Arc::clone(&server), sched)));
        let sweeper = scheduled
            .as_ref()
            .map(|s| Sweeper::spawn(Arc::clone(s), SWEEP_EVERY_MS));
        let liked_by = if workload.replays() {
            Vec::new()
        } else {
            events
                .iter()
                .filter(|e| e.vote == Vote::Like)
                .map(|e| e.user.0)
                .collect()
        };
        Self {
            workload,
            server,
            encoder,
            scheduled,
            liked_by,
            window: events[preload..].to_vec(),
            cursor: 0,
            sweeper,
            workers,
            front: None,
        }
    }

    /// The stock router over this stack's tables: `hyrec_router_with`,
    /// or `hyrec_scheduled_router` on `churn-ml1` (whose `/stats/` shows
    /// `stats` when given).
    #[must_use]
    pub fn stock_router(&self, stats: Option<Arc<ReactorStats>>) -> Router {
        let encoder = Arc::clone(&self.encoder);
        match &self.scheduled {
            Some(scheduled) => hyrec_scheduled_router(
                Arc::clone(scheduled),
                encoder,
                BatchPolicy::default(),
                stats,
            ),
            None => hyrec_router_with(Arc::clone(&self.server), encoder, BatchPolicy::default()),
        }
    }

    /// The bound front-end.
    ///
    /// # Panics
    ///
    /// Panics if no front-end is bound.
    #[must_use]
    pub fn front(&self) -> &Front {
        self.front.as_ref().expect("front-end bound")
    }

    /// Replaces the front-end with one serving `router`.
    pub fn rebind(&mut self, router_for: impl FnOnce(Arc<ReactorStats>) -> Router) {
        if let Some(front) = self.front.take() {
            front.stop();
        }
        self.front = Some(Front::bind(router_for, self.workers));
    }

    /// Stops the front-end and the sweeper, joining their threads.
    pub fn shutdown(mut self) {
        if let Some(front) = self.front.take() {
            front.stop();
        }
        if let Some(sweeper) = self.sweeper.take() {
            sweeper.stop();
        }
    }

    /// Mean stored KNN view similarity over `users` (users without a
    /// stored neighbourhood count as 0).
    #[must_use]
    pub fn view_similarity(&self, users: &[u32]) -> f64 {
        if users.is_empty() {
            return 0.0;
        }
        let total: f64 = users
            .iter()
            .map(|&u| {
                self.server
                    .knn_table()
                    .with(UserId(u), Neighborhood::view_similarity)
                    .unwrap_or(0.0)
            })
            .sum();
        total / users.len() as f64
    }
}

/// The scheduler settings of `churn-ml1`: the defaults, with a lease
/// timeout of [`LEASE_TIMEOUT_MS`].
#[must_use]
pub fn sched_config() -> SchedConfig {
    SchedConfig {
        lease_timeout: LEASE_TIMEOUT_MS,
        ..SchedConfig::default()
    }
}

/// Seeds a warm KNN table: `K` distinct random other users per user, each
/// stored with its true cosine similarity (the paper's "assume its KNN
/// table is up to date", without paying for an exact KNN pass).
fn seed_knn(server: &HyRecServer, seed: u64) {
    let profiles = server.profiles().snapshot();
    let mut sorted = profiles;
    sorted.sort_unstable_by_key(|(user, _)| *user);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b6e_6e5f_7365_6564);
    let n = sorted.len();
    let mut entries = Vec::with_capacity(n);
    for (index, (user, profile)) in sorted.iter().enumerate() {
        let mut picks: Vec<usize> = Vec::with_capacity(K);
        while picks.len() < K.min(n.saturating_sub(1)) {
            let other = rng.gen_range(0..n);
            if other != index && !picks.contains(&other) {
                picks.push(other);
            }
        }
        let hood = Neighborhood::from_neighbors(picks.into_iter().map(|other| {
            let (neighbor, neighbor_profile) = &sorted[other];
            Neighbor {
                user: *neighbor,
                similarity: Cosine.score(profile, neighbor_profile),
            }
        }));
        entries.push((*user, hood));
    }
    server.knn_table().update_many(entries);
}

/// Warms the encoder's fragment cache with every user's profile: encodes
/// jobs whose candidate sets partition the user table, so each user's
/// fragment is compressed once here (one thread per core) instead of on
/// the first `/online/` that samples them.
fn warm_cache(server: &HyRecServer, encoder: &JobEncoder) {
    let mut profiles = server.profiles().snapshot();
    profiles.sort_unstable_by_key(|(user, _)| *user);
    let jobs: Vec<PersonalizationJob> = profiles
        .chunks(128)
        .map(|chunk| PersonalizationJob {
            uid: chunk[0].0,
            k: K,
            r: server.config().r,
            lease: 0,
            epoch: 0,
            profile: Arc::clone(&chunk[0].1),
            candidates: CandidateSet::from_deduped(
                chunk
                    .iter()
                    .map(|(user, profile)| CandidateProfile {
                        user: *user,
                        profile: Arc::clone(profile),
                    })
                    .collect(),
            ),
        })
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let share = jobs.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for part in jobs.chunks(share) {
            scope.spawn(move || {
                for batch in part.chunks(32) {
                    let _ = encoder.encode_jobs(batch);
                }
            });
        }
    });
}

/// The benchmark-owned lease sweep: a thread calling
/// [`ScheduledServer::sweep_and_recover`] on a fixed cadence and timing
/// every call.
/// Handle of the sweep thread.
pub struct Sweeper {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
    /// Duration of every sweep so far, ns.
    pub durations: Arc<Mutex<Vec<u64>>>,
}

impl Sweeper {
    /// Starts sweeping every `every_ms` milliseconds.
    #[must_use]
    pub fn spawn(scheduled: Arc<ScheduledServer>, every_ms: u64) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let durations = Arc::new(Mutex::new(Vec::new()));
        let flag = Arc::clone(&stop);
        let log = Arc::clone(&durations);
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(every_ms));
                let start = Instant::now();
                let _ = scheduled.sweep_and_recover(scheduled.now_ms());
                log.lock()
                    .expect("sweep log lock poisoned")
                    .push(start.elapsed().as_nanos() as u64);
            }
        });
        Self {
            stop,
            thread,
            durations,
        }
    }

    /// Takes the durations recorded so far.
    #[must_use]
    pub fn take_durations(&self) -> Vec<u64> {
        std::mem::take(&mut *self.durations.lock().expect("sweep log lock poisoned"))
    }

    /// Stops and joins the sweep thread.
    ///
    /// # Panics
    ///
    /// Panics if the sweep thread panicked.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("sweep thread panicked");
    }
}
