//! The traced run's routers: the stock routes rebuilt from the layers'
//! public functions, with a span recorded around the handler and around
//! every call into a layer.
//!
//! `/online/`, `/rate/` and `POST /neighbors/` are rebuilt here from
//! `build_jobs`/`issue_jobs`, `encode_jobs`, `record_many`,
//! `KnnUpdate::decode`, `apply_updates` and `complete_updates`, in the same
//! order and with the same parsing and answers as `hyrec_http::api`;
//! [`check_identity`] replays the same batches through both routers and
//! demands byte-identical responses. Any other route is the stock one.

use crate::stack::{Stack, Workload};
use hyrec_core::{FastHashSet, ItemId, Profile, UserId, Vote};
use hyrec_http::router::Resolution;
use hyrec_http::{BatchPolicy, Request, Response, Router};
use hyrec_sched::RejectReason;
use hyrec_server::{HyRecServer, JobEncoder, ScheduledServer};
use hyrec_wire::{KnnUpdate, PersonalizationJob};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// The layer a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A whole `/online/` handler call.
    OnlineHandler,
    /// A whole `/rate/` handler call.
    RateHandler,
    /// A whole `POST /neighbors/` handler call.
    NeighborsHandler,
    /// `HyRecServer::build_jobs` (items: jobs; extra: candidates).
    Build,
    /// `JobEncoder::encode_jobs` (items: jobs; extra: bytes out).
    Encode,
    /// `HyRecServer::record_many` / `ScheduledServer::record_many` (items: votes).
    Record,
    /// `HyRecServer::apply_updates` (items: updates).
    Apply,
    /// One `KnnUpdate::decode` (items: 1).
    UpdateDecode,
    /// `ScheduledServer::issue_jobs` (items: jobs; extra: candidates).
    Issue,
    /// `ScheduledServer::complete_updates` (items: updates).
    Complete,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer.
    pub layer: Layer,
    /// Start, ns after the tracer's origin.
    pub start_ns: u64,
    /// End, ns after the tracer's origin.
    pub end_ns: u64,
    /// The handler call this span belongs to (its own id for a handler).
    pub batch: u64,
    /// Work items (jobs, votes, updates).
    pub items: u64,
    /// Layer-specific count (candidates, bytes).
    pub extra: u64,
}

impl Span {
    /// Duration, ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store shared by the traced handlers; spans stay in memory until
/// the run reads them.
pub struct Tracer {
    origin: Instant,
    next_batch: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// `(request id, handler call)` of every traced request.
    rids: Mutex<Vec<(u64, u64)>>,
    reuse: Mutex<Reuse>,
}

/// Candidate profiles seen so far, by `Arc` identity. A weak reference
/// keeps each allocation, so its address is never reused by another
/// profile, without keeping a replaced profile's contents alive.
#[derive(Default)]
struct Reuse {
    seen: FastHashSet<usize>,
    keep: Vec<Weak<Profile>>,
    reused: u64,
    total: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            next_batch: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            rids: Mutex::new(Vec::new()),
            reuse: Mutex::new(Reuse::default()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span of `layer` under handler call `batch`.
    fn span<R>(&self, layer: Layer, batch: u64, items: usize, f: impl FnOnce() -> R) -> (R, Span) {
        let start_ns = self.now();
        let out = f();
        let span = Span {
            layer,
            start_ns,
            end_ns: self.now(),
            batch,
            items: items as u64,
            extra: 0,
        };
        (out, span)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Opens a handler call: returns its id and records its requests' ids.
    fn open(&self, requests: &[Request]) -> u64 {
        let batch = self.next_batch.fetch_add(1, Ordering::Relaxed);
        let mut rids = self.rids.lock().expect("rid log poisoned");
        rids.extend(
            requests
                .iter()
                .filter_map(|r| r.query_param("rid")?.parse::<u64>().ok())
                .map(|rid| (rid, batch)),
        );
        batch
    }

    fn note_candidates(&self, jobs: &[PersonalizationJob]) {
        let mut reuse = self.reuse.lock().expect("reuse log poisoned");
        for candidate in jobs.iter().flat_map(|job| job.candidates.iter()) {
            reuse.total += 1;
            if reuse.seen.insert(Arc::as_ptr(&candidate.profile) as usize) {
                reuse.keep.push(Arc::downgrade(&candidate.profile));
            } else {
                reuse.reused += 1;
            }
        }
    }

    /// Takes every span recorded so far.
    #[must_use]
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }

    /// Takes the `(request id, handler call)` pairs recorded so far.
    #[must_use]
    pub fn take_rids(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.rids.lock().expect("rid log poisoned"))
    }

    /// Share of candidate profiles whose `Arc` had already been shipped in
    /// an earlier job of this run.
    #[must_use]
    pub fn fragment_reuse_ratio(&self) -> f64 {
        let reuse = self.reuse.lock().expect("reuse log poisoned");
        if reuse.total == 0 {
            0.0
        } else {
            reuse.reused as f64 / reuse.total as f64
        }
    }
}

/// What the traced handlers call into, and the tracer they record to.
struct Layers {
    tracer: Arc<Tracer>,
    server: Arc<HyRecServer>,
    encoder: Arc<JobEncoder>,
    scheduled: Option<Arc<ScheduledServer>>,
}

/// A traced handler body: `(layers, handler call, batch, responses)`;
/// returns the jobs it served, if any.
type Serve = fn(&Layers, u64, &[Request], &mut Vec<Response>) -> Vec<PersonalizationJob>;

/// The traced router over a stack's tables.
#[must_use]
pub fn traced_router(stack: &Stack, tracer: &Arc<Tracer>) -> Router {
    let layers = Arc::new(Layers {
        tracer: Arc::clone(tracer),
        server: Arc::clone(&stack.server),
        encoder: Arc::clone(&stack.encoder),
        scheduled: stack.scheduled.clone(),
    });
    let mut router = Router::new();
    let traced: [(&str, &str, Layer, Serve); 3] = [
        ("GET", "/online/", Layer::OnlineHandler, Layers::online),
        ("GET", "/rate/", Layer::RateHandler, Layers::rate),
        (
            "POST",
            "/neighbors/",
            Layer::NeighborsHandler,
            Layers::neighbors,
        ),
    ];
    for (method, path, layer, serve) in traced {
        let layers = Arc::clone(&layers);
        router.route(
            method,
            path,
            BatchPolicy::default(),
            move |requests: &[Request], out: &mut Vec<Response>| {
                let tracer = &layers.tracer;
                let batch = tracer.open(requests);
                let (jobs, span) = tracer.span(layer, batch, requests.len(), || {
                    serve(&layers, batch, requests, out)
                });
                tracer.push(span);
                // Bookkeeping of the benchmark's own, outside the span.
                tracer.note_candidates(&jobs);
            },
        );
    }
    // The remaining stock routes, unchanged.
    let stock = stack.stock_router(None);
    for (method, path) in [("GET", "/neighbors/"), ("GET", "/stats/")] {
        if let Some(route) = stock_route(&stock, method, path) {
            router.route(
                method,
                path,
                route.policy(),
                move |requests: &[Request], out: &mut Vec<Response>| {
                    out.extend(route.run(requests));
                },
            );
        }
    }
    router
}

/// The stock route serving `method path`, if the router has one.
fn stock_route(
    router: &Router,
    method: &str,
    path: &str,
) -> Option<Arc<hyrec_http::router::Route>> {
    let request = Request::parse(format!("{method} {path} HTTP/1.1\r\n\r\n").as_bytes()).ok()?;
    match router.resolve(&request) {
        Resolution::Route(index) => Some(Arc::clone(router.route_at(index))),
        Resolution::MethodNotAllowed | Resolution::NotFound => None,
    }
}

impl Layers {
    fn online(
        &self,
        batch: u64,
        requests: &[Request],
        out: &mut Vec<Response>,
    ) -> Vec<PersonalizationJob> {
        let tracer = &self.tracer;
        let parsed: Vec<Result<UserId, String>> = requests.iter().map(parse_uid).collect();
        let uids: Vec<UserId> = parsed
            .iter()
            .filter_map(|p| p.as_ref().ok().copied())
            .collect();
        let (jobs, mut span) = match &self.scheduled {
            Some(s) => tracer.span(Layer::Issue, batch, uids.len(), || {
                s.issue_jobs(&uids, s.now_ms())
            }),
            None => tracer.span(Layer::Build, batch, uids.len(), || {
                self.server.build_jobs(&uids)
            }),
        };
        span.extra = jobs.iter().map(|j| j.candidates.len() as u64).sum();
        tracer.push(span);
        let (bodies, mut span) = tracer.span(Layer::Encode, batch, jobs.len(), || {
            self.encoder.encode_jobs(&jobs)
        });
        span.extra = bodies.iter().map(|b| b.len() as u64).sum();
        tracer.push(span);
        let mut bodies = bodies.into_iter();
        out.extend(parsed.into_iter().map(|p| match p {
            Ok(_) => {
                Response::ok_pregzipped_json(bodies.next().expect("one encoded body per valid uid"))
            }
            Err(reason) => Response::bad_request(&reason),
        }));
        jobs
    }

    fn rate(
        &self,
        batch: u64,
        requests: &[Request],
        out: &mut Vec<Response>,
    ) -> Vec<PersonalizationJob> {
        let parsed: Vec<Result<(UserId, ItemId, Vote), String>> =
            requests.iter().map(parse_rate).collect();
        let votes: Vec<(UserId, ItemId, Vote)> = parsed
            .iter()
            .filter_map(|p| p.as_ref().ok().copied())
            .collect();
        let (changed, span) = self.tracer.span(Layer::Record, batch, votes.len(), || {
            match &self.scheduled {
                Some(s) => s.record_many(&votes, s.now_ms()),
                None => self.server.record_many(&votes),
            }
        });
        self.tracer.push(span);
        let mut changed = changed.into_iter();
        out.extend(parsed.into_iter().map(|p| match p {
            Ok(_) => {
                let flag = changed.next().expect("one change flag per valid vote");
                Response::ok(
                    "application/json",
                    format!("{{\"ok\":true,\"changed\":{flag}}}").into_bytes(),
                )
            }
            Err(reason) => Response::bad_request(&reason),
        }));
        Vec::new()
    }

    fn neighbors(
        &self,
        batch: u64,
        requests: &[Request],
        out: &mut Vec<Response>,
    ) -> Vec<PersonalizationJob> {
        let tracer = &self.tracer;
        let decoded: Vec<Result<KnnUpdate, String>> = requests
            .iter()
            .map(|req| {
                let (update, span) = tracer.span(Layer::UpdateDecode, batch, 1, || {
                    KnnUpdate::decode(&req.body).map_err(|err| err.to_string())
                });
                tracer.push(span);
                update
            })
            .collect();
        if let Some(s) = &self.scheduled {
            let updates: Vec<KnnUpdate> = decoded
                .iter()
                .filter_map(|p| p.as_ref().ok().cloned())
                .collect();
            let (outcomes, span) = tracer.span(Layer::Complete, batch, updates.len(), || {
                s.complete_updates(&updates, s.now_ms())
            });
            tracer.push(span);
            let mut outcomes = outcomes.into_iter();
            out.extend(decoded.into_iter().map(|p| match p {
                Ok(_) => completion_response(outcomes.next().expect("one outcome per update")),
                Err(reason) => Response::bad_request(&reason),
            }));
            return Vec::new();
        }
        let mut updates = Vec::with_capacity(requests.len());
        out.extend(decoded.into_iter().map(|p| {
            match p.and_then(|update| validate_update(&update).map(|()| update)) {
                Ok(update) => {
                    updates.push(update);
                    Response::ok("application/json", b"{\"ok\":true}".to_vec())
                }
                Err(reason) => Response::bad_request(&reason),
            }
        }));
        let ((), span) = tracer.span(Layer::Apply, batch, updates.len(), || {
            self.server.apply_updates(&updates);
        });
        tracer.push(span);
        Vec::new()
    }
}

fn completion_response(outcome: Result<(), RejectReason>) -> Response {
    match outcome {
        Ok(()) => Response::ok("application/json", b"{\"ok\":true}".to_vec()),
        Err(reason) => {
            let mut response = Response::ok(
                "application/json",
                format!("{{\"ok\":false,\"reject\":\"{reason}\"}}").into_bytes(),
            );
            response.status = match reason {
                RejectReason::NanSimilarity | RejectReason::OutOfRangeSimilarity => 400,
                _ => 409,
            };
            response
        }
    }
}

fn validate_update(update: &KnnUpdate) -> Result<(), String> {
    for (index, neighbor) in update.neighbors.iter().enumerate() {
        let sim = neighbor.similarity;
        if sim.is_nan() {
            return Err(format!("sim{index} is NaN"));
        }
        if !(0.0..=1.0 + hyrec_sched::DEFAULT_SIMILARITY_TOLERANCE).contains(&sim) {
            return Err(format!("sim{index} out of range [0, 1]: {sim}"));
        }
    }
    Ok(())
}

fn parse_u32_strict(text: &str) -> Option<u32> {
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    text.parse::<u32>().ok()
}

fn parse_uid(req: &Request) -> Result<UserId, String> {
    req.query_param("uid")
        .and_then(parse_u32_strict)
        .map(UserId)
        .ok_or_else(|| "missing or invalid `uid`".to_owned())
}

fn parse_rate(req: &Request) -> Result<(UserId, ItemId, Vote), String> {
    let uid = parse_uid(req)?;
    let item = req
        .query_param("item")
        .and_then(parse_u32_strict)
        .map(ItemId)
        .ok_or_else(|| "missing or invalid `item`".to_owned())?;
    let vote = match req.query_param("like") {
        Some("1") => Vote::Like,
        Some("0") => Vote::Dislike,
        _ => return Err("`like` must be 0 or 1".to_owned()),
    };
    Ok((uid, item, vote))
}

/// Replays the same batches of `/online/`, `POST /neighbors/` and `/rate/`
/// requests through the stock router and the traced router, each over its
/// own identically seeded stack for `workload`'s router kind, and demands
/// byte-identical status and body for every response. Returns how many
/// responses were compared.
///
/// # Errors
///
/// Describes the first response that differs.
pub fn check_identity(workload: Workload, seed: u64) -> Result<usize, String> {
    let spec = hyrec_datasets::DatasetSpec::ML1.scaled(0.1);
    let twin = || {
        // Staleness ages come from each stack's own wall clock, so two
        // stacks rank age ties differently; without the age term the
        // scheduler's picks depend on the requests alone.
        let sched = hyrec_sched::SchedConfig {
            age_weight: 0.0,
            ..crate::stack::sched_config()
        };
        let mut stack = Stack::tables(workload, spec, seed, 1, sched);
        if let Some(sweeper) = stack.sweeper.take() {
            sweeper.stop();
        }
        stack
    };
    let (stock_stack, traced_stack) = (twin(), twin());
    let stock = stock_stack.stock_router(None);
    let tracer = Arc::new(Tracer::default());
    let traced = traced_router(&traced_stack, &tracer);
    let mut users = stock_stack.server.profiles().user_ids();
    users.sort_unstable();
    let widget = hyrec_client::Widget::new();
    let mut compared = 0;
    for round in 0..8usize {
        let size = round % 5 + 1;
        let picks: Vec<UserId> = (0..size)
            .map(|i| users[(round * 7 + i * 13) % users.len()])
            .collect();
        let online: Vec<Request> = picks
            .iter()
            .map(|u| parse_request(&format!("GET /online/?uid={}&rid=0 HTTP/1.1\r\n\r\n", u.0)))
            .collect();
        let jobs = compare(&stock, &traced, &online, &mut compared)?;
        let posts: Vec<Request> = jobs
            .iter()
            .map(|body| {
                let job = PersonalizationJob::decode(body).map_err(|e| e.to_string())?;
                let update = widget.run_job(&job).update.encode();
                let mut request =
                    parse_request("POST /neighbors/?rid=0 HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
                request.body = update;
                Ok(request)
            })
            .collect::<Result<_, String>>()?;
        compare(&stock, &traced, &posts, &mut compared)?;
        let votes: Vec<Request> = picks
            .iter()
            .enumerate()
            .map(|(i, u)| {
                parse_request(&format!(
                    "GET /rate/?uid={}&item={}&like={}&rid=0 HTTP/1.1\r\n\r\n",
                    u.0,
                    round * 31 + i,
                    (round + i) % 2
                ))
            })
            .collect();
        compare(&stock, &traced, &votes, &mut compared)?;
    }
    Ok(compared)
}

fn parse_request(text: &str) -> Request {
    Request::parse(text.as_bytes()).expect("benchmark-built request parses")
}

/// Runs one batch through both routers; returns the stock bodies.
fn compare(
    stock: &Router,
    traced: &Router,
    batch: &[Request],
    compared: &mut usize,
) -> Result<Vec<Vec<u8>>, String> {
    let run = |router: &Router| -> Result<Vec<Response>, String> {
        match router.resolve(&batch[0]) {
            Resolution::Route(index) => Ok(router.route_at(index).run(batch)),
            _ => Err(format!(
                "no route for {} {}",
                batch[0].method, batch[0].path
            )),
        }
    };
    let (expected, actual) = (run(stock)?, run(traced)?);
    for (want, got) in expected.iter().zip(&actual) {
        *compared += 1;
        if want.status != got.status || want.body != got.body {
            return Err(format!(
                "{} {}: traced route answered {} ({} bytes), stock route {} ({} bytes)",
                batch[0].method,
                batch[0].path,
                got.status,
                got.body.len(),
                want.status,
                want.body.len()
            ));
        }
    }
    Ok(expected.into_iter().map(|r| r.body).collect())
}
