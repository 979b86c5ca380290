//! The open-loop load generator.
//!
//! One I/O thread owns every connection (at most one per core) and runs an
//! event loop over their nonblocking keep-alive sockets: it sends every
//! scheduled request at its due time, pipelined behind whatever is still
//! in flight, and never waits for a response before the next due send
//! (open loop). Responses come back in request order on a connection, so
//! a FIFO of pending requests per connection pairs them up.
//!
//! The browser's work — decoding a job and running the widget on it —
//! happens on a second, compute thread, so it never delays a scheduled
//! send. When the compute thread has produced a chain's `KnnUpdate`, the
//! I/O thread posts it. With a single core the compute runs inline.
//!
//! Every request is timed from its *intended* send time: its schedule
//! slot for a chain's first request, or the moment it became ready (the
//! widget finished) for a follow-up. The generator also reports how late
//! it sent against that schedule, how long jobs waited for the compute
//! thread, and its own CPU time, so the server's share can be separated.
//!
//! A third, probe thread sends nothing: every 100 ms it times a fixed
//! reference kernel (~2 ms of CPU), so server CPU can be read against the
//! host's speed at the time (see [`cpu::run_probe`]).

use crate::cpu::{self, CpuMark, ProbeSample};
use crate::inflate;
use crate::schedule::{self, Arrival, Chain};
use hyrec_client::Widget;
use hyrec_http::Response;
use hyrec_wire::{JsonValue, PersonalizationJob};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Which route a request went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GET /online/`.
    Online,
    /// `GET /rate/`.
    Rate,
    /// `POST /neighbors/`.
    Neighbors,
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered as the protocol says.
    Ok,
    /// A `409` naming its reason: a completion whose lease had died
    /// (expected under leases, not a failure).
    Rejected,
    /// Transport error, timeout, unexpected status or a body that fails
    /// its check.
    Failed,
}

/// One request as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Route.
    pub kind: Kind,
    /// Request id (see [`schedule::rid`]).
    pub rid: u64,
    /// Intended send time, ns after the phase origin.
    pub intended_ns: u64,
    /// When the generator queued it for the socket.
    pub sent_ns: u64,
    /// When its response was complete; `None` if it never came.
    pub done_ns: Option<u64>,
    /// HTTP status (0 when there was no response).
    pub status: u16,
    /// Response body length in bytes.
    pub body_len: usize,
    /// Verdict of the response check.
    pub outcome: Outcome,
}

impl Rec {
    /// Latency from the intended send time, if answered.
    #[must_use]
    pub fn latency_ns(&self) -> Option<u64> {
        self.done_ns
            .map(|done| crate::stats::latency_ns(self.intended_ns, done))
    }
}

/// A kept `/online/` body, for the widget replay after the load.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The uid the request asked for.
    pub requested: u32,
    /// The gzipped job.
    pub body: Vec<u8>,
}

/// Settings of one phase.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Connections to use: reads go out on the first, writes on the
    /// second.
    pub conns: usize,
    /// Run the browser's work on its own thread (else inline).
    pub compute_thread: bool,
    /// Phase origin: due times are offsets from it.
    pub origin: Instant,
    /// How long after the last due time a response may still arrive.
    pub drain: Duration,
    /// Leases on: jobs may be for another user than requested, and a
    /// completion may be refused with `409`.
    pub scheduled: bool,
    /// Whether replay chains run the browser (decode, widget, post the
    /// update). Without it every browser leaves after `/online/`, and the
    /// job only gets the check every job gets under load (or, when kept,
    /// the full check after the load).
    pub browsers: bool,
    /// Keep the `/online/` body of every arrival whose index is a multiple
    /// of this (set so that the kept bodies span the phase).
    pub sample_every: u64,
    /// At most this many kept bodies.
    pub sample_cap: usize,
}

/// The I/O thread reads the CPU clocks every this often (see [`CpuMark`]).
pub const CPU_WINDOW: Duration = Duration::from_secs(1);

/// What one phase's generator measured.
#[derive(Debug, Default)]
pub struct GenResult {
    /// Every request sent (and every scheduled one never sent).
    pub recs: Vec<Rec>,
    /// CPU ticks of the generator's threads, the probe's included.
    pub cpu_ticks: u64,
    /// CPU clocks read at each window boundary, and once more at the end.
    pub cpu_marks: Vec<CpuMark>,
    /// Timings of the reference kernel.
    pub probe: Vec<ProbeSample>,
    /// Kept `/online/` bodies.
    pub samples: Vec<Sample>,
    /// Users whose jobs were served or whose votes were recorded.
    pub touched: Vec<u32>,
    /// How long each job waited for the compute thread, ns.
    pub compute_wait_ns: Vec<u64>,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl GenResult {
    fn fail(&mut self, what: String) {
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// A job handed to the browser side.
struct Task {
    arrival: Arrival,
    rec: usize,
    body: Vec<u8>,
    enqueued_ns: u64,
}

/// What the browser side made of a job.
struct Done {
    arrival: Arrival,
    rec: usize,
    verdict: Result<u32, String>,
    update: Option<Vec<u8>>,
    ready_ns: u64,
    wait_ns: u64,
    sample: Option<Sample>,
}

/// The browser's side of a job: decode and check it, run the widget
/// unless the browser leaves, encode the update.
struct Browser {
    widget: Widget,
    origin: Instant,
    scheduled: bool,
    sample_every: u64,
    sample_cap: usize,
    sampled: usize,
}

impl Browser {
    fn work(&mut self, task: Task) -> Done {
        let start = since(self.origin);
        let requested = requested(&task.arrival);
        let mut update = None;
        let verdict = PersonalizationJob::decode(&task.body)
            .map_err(|e| format!("job does not decode: {e}"))
            .and_then(|job| {
                if !self.scheduled && job.uid.0 != requested {
                    return Err(format!("job for uid {} answers uid {requested}", job.uid.0));
                }
                if let Chain::Vote { abandon: false, .. } = task.arrival.chain {
                    update = Some(self.widget.run_job(&job).update.encode());
                }
                Ok(job.uid.0)
            });
        let sample = (verdict.is_ok()
            && task.arrival.index.is_multiple_of(self.sample_every)
            && self.sampled < self.sample_cap)
            .then(|| {
                self.sampled += 1;
                Sample {
                    requested,
                    body: task.body,
                }
            });
        Done {
            arrival: task.arrival,
            rec: task.rec,
            verdict,
            update,
            ready_ns: since(self.origin),
            wait_ns: start.saturating_sub(task.enqueued_ns),
            sample,
        }
    }
}

fn since(origin: Instant) -> u64 {
    Instant::now().saturating_duration_since(origin).as_nanos() as u64
}

/// Runs one phase: sends `arrivals` on their schedule over
/// `config.conns` connections, follows their chains, checks every
/// response — while a probe thread times the reference kernel (see
/// [`cpu::run_probe`]).
#[must_use]
pub fn run(config: &GenConfig, arrivals: &[Arrival]) -> GenResult {
    let probe_cpu = Arc::new(AtomicU64::new(0));
    let (stop, stopped) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let published = Arc::clone(&probe_cpu);
        let probe = scope
            .spawn(move || cpu::run_probe(config.origin, cpu::PROBE_EVERY, stopped, &published));
        let mut result = drive(config, arrivals, probe_cpu);
        drop(stop);
        let (samples, ticks) = probe.join().expect("probe thread panicked");
        result.probe = samples;
        result.cpu_ticks += ticks;
        result
    })
}

/// [`run`] without the probe; `probe_cpu` is the probe thread's published
/// CPU time, for the window marks.
fn drive(config: &GenConfig, arrivals: &[Arrival], probe_cpu: Arc<AtomicU64>) -> GenResult {
    let browser = Browser {
        widget: Widget::new(),
        origin: config.origin,
        scheduled: config.scheduled,
        sample_every: config.sample_every.max(1),
        sample_cap: config.sample_cap,
        sampled: 0,
    };
    if !config.compute_thread {
        let mut io = Io::new(config, Compute::Inline(browser), vec![probe_cpu]);
        io.run(arrivals);
        return io.finish();
    }
    let (task_tx, task_rx) = mpsc::channel::<Task>();
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let (wake_rx, wake_tx) = match UnixStream::pair().and_then(|(rx, tx)| {
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok((rx, tx))
    }) {
        Ok(pair) => pair,
        Err(err) => {
            let mut result = GenResult::default();
            result.fail(format!("wake socket: {err}"));
            return result;
        }
    };
    // The compute thread's CPU time in the phase so far, ns, published
    // after every job for the I/O thread's window marks.
    let compute_cpu = Arc::new(AtomicU64::new(0));
    let published = Arc::clone(&compute_cpu);
    std::thread::scope(|scope| {
        let compute = scope.spawn(move || {
            let start = cpu::thread_ticks().unwrap_or(0);
            let start_ns = cpu::thread_cpu_ns();
            let mut browser = browser;
            let mut wake_tx = wake_tx;
            for task in task_rx {
                let done = browser.work(task);
                published.store(cpu::thread_cpu_ns() - start_ns, Ordering::Relaxed);
                if done_tx.send(done).is_err() {
                    break;
                }
                // A lost wake-up only delays the post until the next poll
                // timeout, so a full wake socket is fine.
                let _ = wake_tx.write(&[1]);
            }
            cpu::thread_ticks().unwrap_or(start).saturating_sub(start)
        });
        let mut io = Io::new(
            config,
            Compute::Thread {
                tasks: Some(task_tx),
                done: done_rx,
                wake: wake_rx,
            },
            vec![probe_cpu, compute_cpu],
        );
        io.run(arrivals);
        io.close_tasks();
        // The compute thread ends once the task channel closes.
        let compute_ticks = compute.join().expect("compute thread panicked");
        // Verdicts the compute thread sent after the loop ended.
        io.take_done();
        let mut result = io.finish();
        result.cpu_ticks += compute_ticks;
        result
    })
}

enum Compute {
    Inline(Browser),
    Thread {
        tasks: Option<mpsc::Sender<Task>>,
        done: mpsc::Receiver<Done>,
        wake: UnixStream,
    },
}

/// A request in flight on a connection.
struct Pending {
    kind: Kind,
    rid: u64,
    intended_ns: u64,
    sent_ns: u64,
    arrival: Arrival,
}

struct Conn {
    stream: Option<TcpStream>,
    out: Vec<u8>,
    inflight: VecDeque<Pending>,
    inbuf: Vec<u8>,
}

struct Io<'a> {
    config: &'a GenConfig,
    compute: Compute,
    conns: Vec<Conn>,
    /// Jobs handed to the compute side and not yet back.
    outstanding: usize,
    result: GenResult,
    start_ticks: u64,
    /// This thread's CPU clock when the phase began, ns.
    start_cpu_ns: u64,
    /// CPU time the generator's other threads have used in the phase so
    /// far, ns, each published by its thread.
    other_cpu: Vec<Arc<AtomicU64>>,
    /// When the next CPU mark is due, ns after the origin.
    next_mark_ns: u64,
}

impl<'a> Io<'a> {
    fn new(config: &'a GenConfig, compute: Compute, other_cpu: Vec<Arc<AtomicU64>>) -> Self {
        let mut result = GenResult::default();
        let conns = (0..config.conns.max(1))
            .map(|_| Conn {
                stream: connect(config.addr)
                    .map_err(|err| result.fail(format!("connect: {err}")))
                    .ok(),
                out: Vec::new(),
                inflight: VecDeque::new(),
                inbuf: Vec::with_capacity(256 * 1024),
            })
            .collect();
        Self {
            config,
            compute,
            conns,
            outstanding: 0,
            result,
            start_ticks: cpu::thread_ticks().unwrap_or(0),
            start_cpu_ns: cpu::thread_cpu_ns(),
            other_cpu,
            next_mark_ns: 0,
        }
    }

    /// Reads the CPU clocks into a [`CpuMark`] when a window boundary
    /// has passed (or `always`).
    fn mark_cpu(&mut self, always: bool) {
        let now = self.now();
        if now < self.next_mark_ns && !always {
            return;
        }
        let others: u64 = self
            .other_cpu
            .iter()
            .map(|ns| ns.load(Ordering::Relaxed))
            .sum();
        self.result.cpu_marks.push(CpuMark {
            at_ns: now,
            process_ns: cpu::process_cpu_ns(),
            generator_ns: cpu::thread_cpu_ns() - self.start_cpu_ns + others,
        });
        let window = CPU_WINDOW.as_nanos() as u64;
        self.next_mark_ns = (now / window + 1) * window;
    }

    fn now(&self) -> u64 {
        since(self.config.origin)
    }

    fn run(&mut self, arrivals: &[Arrival]) {
        let last_due = arrivals.last().map_or(0, |a| a.at_ns);
        let deadline = last_due + self.config.drain.as_nanos() as u64;
        let mut next = 0;
        loop {
            self.mark_cpu(false);
            let now = self.now();
            while next < arrivals.len() && arrivals[next].at_ns <= now {
                self.send_first(arrivals[next]);
                next += 1;
            }
            self.take_done();
            self.flush_all();
            let idle = self.outstanding == 0
                && self
                    .conns
                    .iter()
                    .all(|c| c.inflight.is_empty() && c.out.is_empty());
            if next == arrivals.len() && idle {
                break;
            }
            let now = self.now();
            if now >= deadline {
                let missing: usize = self.conns.iter().map(|c| c.inflight.len()).sum();
                self.result.fail(format!(
                    "{missing} responses still missing {} ms after the last due send",
                    self.config.drain.as_millis()
                ));
                break;
            }
            let until = arrivals
                .get(next)
                .map_or(deadline, |a| a.at_ns)
                .min(self.next_mark_ns.max(now));
            let wait = Duration::from_nanos(until.saturating_sub(now).min(20_000_000));
            if let Err(err) = self.wait_ready(wait) {
                self.result.fail(format!("poll: {err}"));
                break;
            }
            for index in 0..self.conns.len() {
                self.read_conn(index);
            }
        }
        self.mark_cpu(true);
        // Arrivals never sent failed; so did requests left in flight
        // (recorded by `finish`).
        for arrival in &arrivals[next..] {
            let pending = Pending {
                kind: first_kind(arrival),
                rid: schedule::rid(arrival.index, 0),
                intended_ns: arrival.at_ns,
                sent_ns: arrival.at_ns,
                arrival: *arrival,
            };
            self.record(&pending, None, 0, 0, Outcome::Failed);
        }
    }

    fn close_tasks(&mut self) {
        if let Compute::Thread { tasks, .. } = &mut self.compute {
            tasks.take();
        }
    }

    fn finish(mut self) -> GenResult {
        // Requests still in flight when the loop gave up, and follow-ups
        // queued after it, never completed.
        for index in 0..self.conns.len() {
            while let Some(pending) = self.conns[index].inflight.pop_front() {
                self.record(&pending, None, 0, 0, Outcome::Failed);
            }
        }
        let ticks = cpu::thread_ticks().unwrap_or(self.start_ticks);
        self.result.cpu_ticks += ticks.saturating_sub(self.start_ticks);
        self.result
    }

    fn send_first(&mut self, arrival: Arrival) {
        self.send(
            first_kind(&arrival),
            schedule::rid(arrival.index, 0),
            arrival.at_ns,
            &schedule::first_request(&arrival),
            arrival,
        );
    }

    /// The connection a request goes out on: with two or more, reads take
    /// the first and writes the second, so a cheap write never queues
    /// behind a large job on one pipelined connection — a coupling the
    /// browsers, each on its own connection, would not see.
    fn conn_for(&self, kind: Kind) -> usize {
        match kind {
            Kind::Online => 0,
            Kind::Rate | Kind::Neighbors => self.conns.len().min(2) - 1,
        }
    }

    fn send(&mut self, kind: Kind, rid: u64, intended_ns: u64, request: &[u8], arrival: Arrival) {
        let conn = self.conn_for(kind);
        let sent_ns = self.now();
        let pending = Pending {
            kind,
            rid,
            intended_ns,
            sent_ns,
            arrival,
        };
        if self.conns[conn].stream.is_none() {
            match connect(self.config.addr) {
                Ok(stream) => self.conns[conn].stream = Some(stream),
                Err(err) => {
                    self.result.fail(format!("connect: {err}"));
                    self.record(&pending, None, 0, 0, Outcome::Failed);
                    return;
                }
            }
        }
        self.conns[conn].out.extend_from_slice(request);
        self.conns[conn].inflight.push_back(pending);
    }

    fn record(
        &mut self,
        pending: &Pending,
        done_ns: Option<u64>,
        status: u16,
        body_len: usize,
        outcome: Outcome,
    ) -> usize {
        self.result.recs.push(Rec {
            kind: pending.kind,
            rid: pending.rid,
            intended_ns: pending.intended_ns,
            sent_ns: pending.sent_ns,
            done_ns,
            status,
            body_len,
            outcome,
        });
        self.result.recs.len() - 1
    }

    /// Drops a connection after a transport error; its requests fail.
    fn break_conn(&mut self, index: usize, why: String) {
        self.result.fail(why);
        self.conns[index].stream = None;
        self.conns[index].out.clear();
        self.conns[index].inbuf.clear();
        while let Some(pending) = self.conns[index].inflight.pop_front() {
            self.record(&pending, None, 0, 0, Outcome::Failed);
        }
    }

    fn flush_all(&mut self) {
        for index in 0..self.conns.len() {
            let conn = &mut self.conns[index];
            let Some(stream) = conn.stream.as_mut() else {
                continue;
            };
            if let Err(err) = flush(stream, &mut conn.out) {
                self.break_conn(index, format!("write: {err}"));
            }
        }
    }

    fn wait_ready(&mut self, wait: Duration) -> io::Result<()> {
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .filter_map(|c| {
                let stream = c.stream.as_ref()?;
                Some(PollFd {
                    fd: stream.as_raw_fd(),
                    events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                    revents: 0,
                })
            })
            .collect();
        if let Compute::Thread { wake, .. } = &self.compute {
            fds.push(PollFd {
                fd: wake.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
        }
        poll(&mut fds, wait)?;
        if let Compute::Thread { wake, .. } = &mut self.compute {
            let mut sink = [0u8; 256];
            while matches!(wake.read(&mut sink), Ok(n) if n > 0) {}
        }
        Ok(())
    }

    fn read_conn(&mut self, index: usize) {
        let conn = &mut self.conns[index];
        let Some(stream) = conn.stream.as_mut() else {
            return;
        };
        let open = match read_available(stream, &mut conn.inbuf) {
            Ok(open) => open,
            Err(err) => return self.break_conn(index, format!("read: {err}")),
        };
        let mut consumed = 0;
        loop {
            let parsed = Response::try_parse(&self.conns[index].inbuf[consumed..]);
            match parsed {
                Ok(Some((response, used))) => {
                    consumed += used;
                    let done = self.now();
                    let Some(pending) = self.conns[index].inflight.pop_front() else {
                        return self.break_conn(index, "response without a request".to_owned());
                    };
                    self.on_response(&pending, &response, done);
                }
                Ok(None) => break,
                Err(err) => return self.break_conn(index, format!("bad response: {err}")),
            }
        }
        let conn = &mut self.conns[index];
        conn.inbuf.drain(..consumed);
        if !open {
            if conn.inflight.is_empty() && conn.out.is_empty() && conn.inbuf.is_empty() {
                // The server closed a keep-alive connection that sat idle;
                // the next send reconnects.
                conn.stream = None;
            } else {
                self.break_conn(index, "server closed the connection".to_owned());
            }
        }
    }

    fn on_response(&mut self, pending: &Pending, response: &Response, done: u64) {
        let verdict = match pending.kind {
            Kind::Online => check_job(response, requested(&pending.arrival), self.config.scheduled),
            Kind::Rate => check_rate(response),
            Kind::Neighbors => check_completion(response, self.config.scheduled),
        };
        let outcome = match &verdict {
            Ok(outcome) => *outcome,
            Err(reason) => {
                self.result.fail(format!(
                    "{:?} rid {} status {}: {reason}",
                    pending.kind, pending.rid, response.status
                ));
                Outcome::Failed
            }
        };
        let rec = self.record(
            pending,
            Some(done),
            response.status,
            response.body.len(),
            outcome,
        );
        if outcome == Outcome::Failed {
            return;
        }
        match (pending.kind, pending.arrival.chain) {
            (Kind::Rate, Chain::Vote { uid, .. }) => {
                self.result.touched.push(uid);
                let rid = schedule::rid(pending.arrival.index, 1);
                let now = self.now();
                self.send(
                    Kind::Online,
                    rid,
                    now,
                    &schedule::online_request(uid, rid),
                    pending.arrival,
                );
            }
            (Kind::Online, chain) => {
                let sampled = pending
                    .arrival
                    .index
                    .is_multiple_of(self.config.sample_every.max(1));
                // A replay chain's job goes to the browser; any other job
                // is decoded in full only when kept (after the load).
                if self.config.browsers && matches!(chain, Chain::Vote { .. }) {
                    self.hand_over(Task {
                        arrival: pending.arrival,
                        rec,
                        body: response.body.clone(),
                        enqueued_ns: done,
                    });
                    return;
                }
                let uid = requested(&pending.arrival);
                self.result.touched.push(uid);
                if sampled && self.result.samples.len() < self.config.sample_cap {
                    self.result.samples.push(Sample {
                        requested: uid,
                        body: response.body.clone(),
                    });
                }
            }
            _ => {}
        }
    }

    fn hand_over(&mut self, task: Task) {
        match &mut self.compute {
            Compute::Inline(browser) => {
                let done = browser.work(task);
                self.apply_done(done);
            }
            Compute::Thread { tasks, .. } => {
                if let Some(tasks) = tasks {
                    if tasks.send(task).is_ok() {
                        self.outstanding += 1;
                    }
                }
            }
        }
    }

    fn take_done(&mut self) {
        loop {
            let done = match &self.compute {
                Compute::Thread { done, .. } => match done.try_recv() {
                    Ok(done) => done,
                    Err(_) => return,
                },
                Compute::Inline(_) => return,
            };
            self.outstanding -= 1;
            self.apply_done(done);
        }
    }

    fn apply_done(&mut self, done: Done) {
        self.result.compute_wait_ns.push(done.wait_ns);
        if let Some(sample) = done.sample {
            self.result.samples.push(sample);
        }
        match done.verdict {
            Ok(job_uid) => self.result.touched.push(job_uid),
            Err(reason) => {
                self.result.recs[done.rec].outcome = Outcome::Failed;
                self.result.fail(format!(
                    "Online rid {}: {reason}",
                    self.result.recs[done.rec].rid
                ));
                return;
            }
        }
        if let Some(update) = done.update {
            let rid = schedule::rid(done.arrival.index, 2);
            self.send(
                Kind::Neighbors,
                rid,
                done.ready_ns,
                &schedule::neighbors_request(&update, rid),
                done.arrival,
            );
        }
    }
}

fn first_kind(arrival: &Arrival) -> Kind {
    match arrival.chain {
        Chain::Online { .. } => Kind::Online,
        Chain::Vote { .. } => Kind::Rate,
    }
}

/// The user an arrival asks a job for.
fn requested(arrival: &Arrival) -> u32 {
    match arrival.chain {
        Chain::Online { uid } | Chain::Vote { uid, .. } => uid,
    }
}

/// The `uid` a gzipped job is for, read from the start of its JSON
/// (`{"uid":<uid>,…`, the wire shape's first field) without inflating
/// the rest.
///
/// # Errors
///
/// Describes a body that does not inflate or does not open with a uid.
pub fn job_uid(body: &[u8]) -> Result<u32, String> {
    const HEAD: &[u8] = b"{\"uid\":";
    // The head, up to ten digits and the comma after them.
    let text = inflate::gzip_prefix(body, HEAD.len() + 11)?;
    let rest = text
        .strip_prefix(HEAD)
        .ok_or("job does not open with its uid")?;
    let end = rest
        .iter()
        .position(|b| !b.is_ascii_digit())
        .filter(|&end| end > 0 && rest[end] == b',')
        .ok_or("job uid is not a number")?;
    std::str::from_utf8(&rest[..end])
        .ok()
        .and_then(|digits| digits.parse().ok())
        .ok_or_else(|| "job uid is not a u32".to_owned())
}

/// The check every `/online/` answer gets under load: a `200` carrying a
/// gzip member (magic, deflate method, non-empty trailer) whose inflated
/// start names the job's uid — on the plain router, the uid requested.
/// The full `PersonalizationJob::decode` runs on the browser side, or for
/// kept bodies after the load: it costs more than the server spends on
/// the job.
fn check_job(response: &Response, requested: u32, scheduled: bool) -> Result<Outcome, String> {
    if response.status != 200 {
        return Err("online: non-200".to_owned());
    }
    if response.header("content-encoding") != Some("gzip") {
        return Err("online: body not marked gzip".to_owned());
    }
    let body = &response.body;
    if body.len() < 18 || body[..3] != [0x1f, 0x8b, 0x08] {
        return Err("online: body is not a gzip member".to_owned());
    }
    let isize = u32::from_le_bytes(body[body.len() - 4..].try_into().expect("4-byte trailer"));
    if isize == 0 {
        return Err("online: gzip member inflates to nothing".to_owned());
    }
    let uid = job_uid(body).map_err(|e| format!("online: {e}"))?;
    if !scheduled && uid != requested {
        return Err(format!("online: job for uid {requested} answers uid {uid}"));
    }
    Ok(Outcome::Ok)
}

fn check_rate(response: &Response) -> Result<Outcome, String> {
    if response.status != 200 {
        return Err("rate: non-200".to_owned());
    }
    let text = std::str::from_utf8(&response.body).map_err(|e| e.to_string())?;
    JsonValue::parse(text)
        .map_err(|e| e.to_string())?
        .get("changed")
        .and_then(JsonValue::as_bool)
        .ok_or("rate: `changed` is not a bool")?;
    Ok(Outcome::Ok)
}

fn check_completion(response: &Response, scheduled: bool) -> Result<Outcome, String> {
    match response.status {
        200 => Ok(Outcome::Ok),
        409 if scheduled => {
            let text = std::str::from_utf8(&response.body).map_err(|e| e.to_string())?;
            match JsonValue::parse(text)
                .map_err(|e| e.to_string())?
                .get("reject")
                .and_then(JsonValue::as_str)
            {
                Some(reason) if !reason.is_empty() => Ok(Outcome::Rejected),
                _ => Err("409 without a reason".to_owned()),
            }
        }
        _ => Err("neighbors: unexpected status".to_owned()),
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Writes as much of `out` as the socket takes without blocking.
fn flush(stream: &mut TcpStream, out: &mut Vec<u8>) -> io::Result<()> {
    let mut written = 0;
    while written < out.len() {
        match stream.write(&out[written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    out.drain(..written);
    Ok(())
}

/// Reads everything available without blocking; `Ok(false)` on EOF.
fn read_available(stream: &mut TcpStream, inbuf: &mut Vec<u8>) -> io::Result<bool> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(false),
            Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(true),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
}

/// Blocks until one of `fds` is ready or `wait` passes — with nanosecond
/// timeout precision, so sends leave on time.
fn poll(fds: &mut [PollFd], wait: Duration) -> io::Result<()> {
    let timeout = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, initialized slice of `#[repr(C)]` values laid
    // out like the kernel's `struct pollfd`, and `nfds` is its length;
    // `timeout` is a live `struct timespec`; a null signal mask leaves the
    // mask unchanged. ppoll writes only the `revents` fields inside `fds`.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}
