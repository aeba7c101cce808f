//! The open-loop `serve_mixed` workload.
//!
//! An `AttributionService` with two workers hosts a live IMDB-like database
//! with its queries registered. One generator thread sends a fixed,
//! seeded stream of operations on a fixed schedule: nine in ten submit a
//! lineage drawn Zipf-skewed from a pool larger than the cache, one in ten
//! submits an update of the live database. Every run reads the same
//! lineages the same number of times; the seed orders the reads and the
//! updated facts. Each operation is timed from when it was due. A
//! closed-loop phase after it measures the service's capacity.

use crate::explain::{cache_layers, Replay};
use crate::inputs::{imdb_dbs, lineage_pool, update_stream, zipf_draws};
use crate::live::{self, ms, UpdateSample};
use crate::report::{peak_rss_mb, Layers, Outcome};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::verify::{digest, reference_engine, Oracle};
use crate::Args;
use banzhaf_boolean::Dnf;
use banzhaf_engine::{Attribution, BatchOptions, Engine, EngineConfig, Update, UpdateReport};
use banzhaf_query::delta_groundings;
use banzhaf_serve::{block_on, join_all, AttributionService, RequestOptions, ServeError, Ticket};
use banzhaf_workloads::{DatasetSpec, LiveWorkload};
use std::collections::{HashMap, HashSet};
use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Service workers.
const WORKERS: usize = 2;
/// Offered load of the open loop, operations per second: about a seventh of
/// the capacity the closed-loop phase measures on a 2-core machine. Updates
/// apply one at a time, and at about half the capacity their bursts queued
/// the reads behind them.
const RATE_PER_S: f64 = 200.0;
/// One operation in this many is an update operation: a fact deleted and
/// inserted again (two `submit_update` calls, due together).
const UPDATE_EVERY: usize = 10;
/// Scale of the live IMDB-like database. At scale 4 an update took 6 ms
/// at the median and 50–60 ms in the tail, and the reads queued behind the
/// costliest updates set the read tail: on five seeds run alternately at
/// both scales, the spread of `p50_ms` was 0.18 at scale 4 and 0.10 at
/// scale 2, and that of `update_tail_ms` 0.09 and 0.05.
const LIVE_SCALE: usize = 2;
/// Databases per corpus in the lineage pool.
const POOL_SEEDS: u64 = 64;
/// Most popular pool lineages attributed by the warm pass.
const WARM_LINEAGES: usize = 512;
/// Set-ups before the measured phases; the last is kept. As many more run
/// between the steps of verification, a third before each, and `setup_s`
/// is the median of all. A set-up takes about 0.1 s, within one stretch of
/// the machine's speed, so more are sampled than on the explain workloads:
/// with eight (five before), the median moved by 19% between two sets of
/// ten runs.
const SETUPS_BEFORE: usize = 9;
/// Share of `--seconds` spent in the open loop (rounded up to whole passes
/// over the update stream); the rest measures the capacity of the same mix.
const OPEN_SHARE: f64 = 0.75;
/// Requests kept outstanding while measuring capacity.
const OUTSTANDING: usize = 8;
/// Longest wait for an outstanding request once the generator stopped.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Records the instant a request completes: the worker that completes it
/// wakes this waker.
struct Notify {
    index: usize,
    done: Sender<(usize, Instant)>,
}

impl Wake for Notify {
    fn wake(self: Arc<Self>) {
        let _ = self.done.send((self.index, Instant::now()));
    }
}

/// A submitted request's ticket.
enum Pending {
    Read(Ticket<Attribution>),
    Update(Ticket<UpdateReport>),
}

/// One operation of the run.
struct Request {
    /// Pool index of a read, or `None` for an update.
    lineage: Option<usize>,
    /// Stream index of an update.
    update: usize,
    open_loop: bool,
    due: Instant,
    submitted: Instant,
    sent: Instant,
    done: Option<Instant>,
    pending: Option<Pending>,
    read: Option<Result<Attribution, ServeError>>,
    report: Option<Result<UpdateReport, ServeError>>,
    queue_depth: usize,
}

impl Request {
    /// From the due time to completion, ms (infinite if it never completed).
    fn latency_ms(&self) -> f64 {
        self.done.map_or(f64::INFINITY, |d| ms(d - self.due))
    }

    /// How late the client sent it, ms.
    fn lag_ms(&self) -> f64 {
        ms(self.submitted - self.due)
    }

    /// Time spent in the submit call, µs.
    fn submit_us(&self) -> f64 {
        (self.sent - self.submitted).as_secs_f64() * 1e6
    }

    /// Whether the submission itself was refused.
    fn refused(&self) -> bool {
        self.done.is_some() && self.read.is_none() && self.report.is_none()
    }
}

/// Submits requests and collects their completion instants.
struct Client<'a> {
    service: &'a AttributionService,
    pool: &'a [Dnf],
    stream: &'a [Update],
    /// Pool indices of the reads, in the order they are sent (cycled).
    reads: &'a [usize],
    /// Operations sent so far.
    ops: usize,
    requests: Vec<Request>,
    tx: Sender<(usize, Instant)>,
    rx: Receiver<(usize, Instant)>,
    outstanding: usize,
    updates_sent: usize,
    sample_depth: bool,
}

impl Client<'_> {
    /// Submits a read of `lineage` (or, for `None`, the next update) that
    /// was due at `due`. Returns whether it completed at once.
    fn submit(&mut self, lineage: Option<usize>, due: Instant, open_loop: bool) -> bool {
        let index = self.requests.len();
        let update = self.updates_sent;
        self.updates_sent += usize::from(lineage.is_none());
        let submitted = Instant::now();
        let pending = match lineage {
            Some(l) => self
                .service
                .submit(self.pool[l].clone(), RequestOptions::default())
                .ok()
                .map(Pending::Read),
            None => self
                .service
                .submit_update(
                    self.stream[update % self.stream.len()].clone(),
                    RequestOptions::default(),
                )
                .ok()
                .map(Pending::Update),
        };
        let sent = Instant::now();
        let queue_depth = if self.sample_depth { self.service.stats().queue_depth } else { 0 };
        let mut request = Request {
            lineage,
            update,
            open_loop,
            due,
            submitted,
            sent,
            done: None,
            pending,
            read: None,
            report: None,
            queue_depth,
        };
        let waker = Waker::from(Arc::new(Notify { index, done: self.tx.clone() }));
        let mut cx = Context::from_waker(&waker);
        let ready = match request.pending.as_mut() {
            None => true,
            Some(Pending::Read(t)) => match Pin::new(t).poll(&mut cx) {
                Poll::Ready(out) => {
                    request.read = Some(out);
                    true
                }
                Poll::Pending => false,
            },
            Some(Pending::Update(t)) => match Pin::new(t).poll(&mut cx) {
                Poll::Ready(out) => {
                    request.report = Some(out);
                    true
                }
                Poll::Pending => false,
            },
        };
        if ready {
            request.done = Some(Instant::now());
            request.pending = None;
        } else {
            self.outstanding += 1;
        }
        self.requests.push(request);
        ready
    }

    /// Submits the next operation, due at `due`: one in [`UPDATE_EVERY`] is
    /// an update operation (the next delete and its re-insert), the others
    /// read the next lineage of the read order.
    fn submit_op(&mut self, due: Instant, open_loop: bool) {
        let i = self.ops;
        self.ops += 1;
        let lineage = (i % UPDATE_EVERY != UPDATE_EVERY - 1)
            .then(|| self.reads[(i - i / UPDATE_EVERY) % self.reads.len()]);
        self.submit(lineage, due, open_loop);
        if lineage.is_none() {
            self.submit(None, due, open_loop);
        }
    }

    /// Waits for the next completion; `false` on timeout.
    fn complete_one(&mut self, timeout: Duration) -> bool {
        let Ok((index, at)) = self.rx.recv_timeout(timeout) else {
            return false;
        };
        self.on_done(index, at);
        true
    }

    /// Records the completions that have arrived, without waiting.
    fn poll_done(&mut self) {
        while let Ok((index, at)) = self.rx.try_recv() {
            self.on_done(index, at);
        }
    }

    /// Takes the outcome of request `index`, which completed at `at`.
    fn on_done(&mut self, index: usize, at: Instant) {
        let request = &mut self.requests[index];
        request.done = Some(at);
        // The worker stored the outcome before waking: these resolve at once.
        match request.pending.take() {
            Some(Pending::Read(t)) => request.read = Some(block_on(t)),
            Some(Pending::Update(t)) => request.report = Some(block_on(t)),
            None => {}
        }
        self.outstanding -= 1;
    }

    /// Waits for every outstanding request; `false` if one never completed.
    fn drain(&mut self) -> bool {
        while self.outstanding > 0 {
            if !self.complete_one(DRAIN_TIMEOUT) {
                return false;
            }
        }
        true
    }
}

impl Client<'_> {
    /// The open loop of `ops` operations: operation `i` is due at
    /// `start + i / rate`, except that the read after an update operation
    /// is due with it and queues right behind it. The read tail is then the
    /// wait for a whole update; due one interval later, a read waited for
    /// what was left of the update, its wall less 5 ms, and a change of a
    /// third in a 13 ms update moved the tail by half. Returns once every
    /// request it sent has completed (`false` if one never did).
    fn open_loop(&mut self, ops: u32) -> bool {
        let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
        let start = Instant::now();
        for i in 0..ops {
            let after_update = i > 0 && (i as usize).is_multiple_of(UPDATE_EVERY);
            let due = start + interval * if after_update { i - 1 } else { i };
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            self.submit_op(due, true);
            self.poll_done();
        }
        self.drain()
    }

    /// The capacity phase: the same mix, closed loop with [`OUTSTANDING`]
    /// requests outstanding. Returns the reads it completed per second.
    fn capacity(&mut self, budget: Duration) -> f64 {
        let first = self.requests.len();
        let start = Instant::now();
        let mut last = start;
        while start.elapsed() < budget || self.outstanding > 0 {
            if start.elapsed() < budget && self.outstanding < OUTSTANDING {
                self.submit_op(Instant::now(), false);
                continue;
            }
            if !self.complete_one(DRAIN_TIMEOUT) {
                break;
            }
            last = Instant::now();
        }
        let reads = self.requests[first..]
            .iter()
            .filter(|r| r.read.as_ref().is_some_and(Result::is_ok))
            .count();
        reads as f64 / (last - start).as_secs_f64()
    }
}

/// Runs `serve_mixed`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let mut tracer = Tracer::new(args.trace);
    // Inputs.
    let pool = lineage_pool(POOL_SEEDS);
    // One database decides the cost of every update, and that cost varies
    // tenfold between generated databases, so every run hosts the database
    // generated as if its seed were the corpus's default; the seed orders
    // the updated facts.
    let live_db = imdb_dbs(DatasetSpec::default().seed, LIVE_SCALE, 1).remove(0);
    let stream = update_stream(&live_db, args.seed);
    // The open loop runs for about `OPEN_SHARE` of `--seconds`, rounded up
    // to whole passes over the update stream: update cost is heavy tailed
    // over facts, and the read tail is set by the reads queued behind the
    // costliest updates, so every run applies each update equally often.
    let ops_per_pass = UPDATE_EVERY * stream.len() / 2;
    let passes = (args.seconds * OPEN_SHARE * RATE_PER_S / ops_per_pass as f64).ceil().max(1.0);
    let open_ops = passes as usize * ops_per_pass;
    // The reads of the open loop; the capacity phase cycles through them
    // again.
    let reads = zipf_draws(pool.len(), open_ops - open_ops / UPDATE_EVERY, args.seed);
    let warm: Vec<Dnf> = pool[..WARM_LINEAGES.min(pool.len())].to_vec();

    out.end_phase("inputs");
    // Set-up: service start with the live queries registered, then the warm
    // pass over the most popular lineages. Repeated before the measured
    // phases (the last is kept) and between the steps of verification.
    let set_up = || {
        let service = live::start_service(&live_db, WORKERS);
        let tickets: Vec<_> = warm
            .iter()
            .map(|l| service.submit(l.clone(), RequestOptions::default()).expect("queue has room"))
            .collect();
        let warmed = block_on(join_all(tickets));
        assert!(warmed.iter().all(Result::is_ok), "warm pass failed");
        service
    };
    let mut kept = None;
    for _ in 0..SETUPS_BEFORE {
        drop(kept.take());
        kept = Some(out.time_set_up(set_up));
    }
    let service = kept.expect("at least one set-up");
    out.end_phase("set-ups");

    let (tx, rx) = channel();
    let mut client = Client {
        service: &service,
        pool: &pool,
        stream: &stream,
        reads: &reads,
        ops: 0,
        requests: Vec::new(),
        tx,
        rx,
        outstanding: 0,
        updates_sent: 0,
        sample_depth: tracer.enabled(),
    };
    let cache_before = service.engine_stats().cache;
    let drained = client.open_loop(open_ops as u32);
    let cache_after = service.engine_stats().cache;
    if drained {
        let budget = Duration::from_secs_f64(args.seconds * (1.0 - OPEN_SHARE));
        out.answers_per_s = client.capacity(budget);
    }
    out.peak_rss_mb = peak_rss_mb();
    out.end_phase("measured");
    let requests = std::mem::take(&mut client.requests);
    drop(client);
    let final_state = live::live_state(&service, &live_db);
    service.shutdown();

    let open: Vec<&Request> = requests.iter().filter(|r| r.open_loop).collect();
    out.reads_ms = open.iter().filter(|r| r.lineage.is_some()).map(|r| r.latency_ms()).collect();
    // Update requests come in (delete, re-insert) pairs due together.
    let update_requests: Vec<&Request> =
        open.iter().copied().filter(|r| r.lineage.is_none()).collect();
    let updates: Vec<UpdateSample> = update_requests
        .chunks_exact(2)
        .map(|pair| UpdateSample {
            latency_ms: pair[1].latency_ms(),
            submit_us: pair.iter().map(|r| r.submit_us()).collect(),
            lag_ms: pair[0].lag_ms(),
            queue_depth: pair.iter().map(|r| r.queue_depth).collect(),
            rejected: pair.iter().filter(|r| r.refused()).count(),
            reports: pair.iter().filter_map(|r| r.report.clone().and_then(Result::ok)).collect(),
        })
        .collect();
    out.updates_ms = updates.iter().map(|u| u.latency_ms).collect();
    let lags: Vec<f64> = open.iter().map(|r| r.lag_ms()).collect();
    out.note(format!(
        "open loop: {} operations at {RATE_PER_S}/s; generator lag median {:.4} ms, max {:.4} ms",
        open.len(),
        median(&lags),
        lags.iter().copied().fold(0.0, f64::max)
    ));

    // Verification, outside the timed region, with a set-up before each step.
    let applied: Vec<Update> = requests
        .iter()
        .filter(|r| r.lineage.is_none() && matches!(r.report, Some(Ok(_))))
        .map(|r| stream[r.update % stream.len()].clone())
        .collect();
    let mut oracle = Oracle::default();
    let set_ups = |out: &mut Outcome| {
        for _ in 0..SETUPS_BEFORE / 3 {
            out.time_set_up(set_up).shutdown();
        }
    };
    set_ups(&mut out);
    let read_mismatches = verify_reads(&pool, &requests, &mut oracle);
    set_ups(&mut out);
    let live_mismatches = live::check_final_state(&final_state, &live_db, &applied);
    set_ups(&mut out);
    let failed_ops = requests
        .iter()
        .filter(|r| {
            r.done.is_none() || !matches!((&r.read, &r.report), (Some(Ok(_)), _) | (_, Some(Ok(_))))
        })
        .count() as u64;
    out.attempted = requests.len() as u64;
    out.failed = failed_ops + read_mismatches + oracle.bad + live_mismatches;
    out.note(format!(
        "verified {} reads against cacheless recomputations ({read_mismatches} differ), the final \
         live state after {} updates against a cold re-explain ({live_mismatches} answers \
         differ); {}",
        requests.iter().filter(|r| r.lineage.is_some()).count(),
        applied.len(),
        oracle.describe()
    ));

    if tracer.enabled() {
        trace_requests(&requests, &mut tracer);
        let (eval_ms, groundings) = replay_delta_joins(&live_db, &applied, &mut tracer);
        let layers = &mut out.layers;
        layers.set("query.eval_ms", mean(&eval_ms));
        let update_wall: f64 = out.updates_ms.iter().sum();
        layers.set("query.eval_share", eval_ms.iter().sum::<f64>() / update_wall);
        layers.set("query.answers", mean(&groundings));
        cache_layers(&cache_before, &cache_after, open.len() as f64, layers);
        request_layers(&open, &pool, &mut tracer, layers);
        live::layer_metrics(&updates, layers);
        layers.set("serve.gen_lag_ms", mean(&lags));
        layers.set("trace.p50_ms", median(&out.reads_ms));
        layers.set("trace.update_p50_ms", median(&out.updates_ms));
    }
    out.end_phase("verified");
    crate::finish_trace(&tracer, args, &mut out);
    out
}

/// Engine, replay and serve metrics over the open loop's requests.
fn request_layers(open: &[&Request], pool: &[Dnf], tracer: &mut Tracer, layers: &mut Layers) {
    let reads: Vec<(&Request, &Attribution)> =
        open.iter().filter_map(|r| Some((*r, r.read.as_ref()?.as_ref().ok()?))).collect();
    layers.set("engine.batch_ms", replay_session(&reads, pool, tracer));
    let wall: Vec<f64> = reads.iter().map(|(_, a)| ms(a.stats.wall)).collect();
    layers.set("engine.backend_ms", mean(&wall));
    let steps: Vec<f64> = reads.iter().map(|(_, a)| a.stats.compile_steps as f64).collect();
    layers.set("engine.compile_steps", mean(&steps));
    let mut replay = Replay::default();
    let mut seen = HashSet::new();
    for (i, (r, a)) in reads.iter().enumerate() {
        let lineage = &pool[r.lineage.expect("reads have a lineage")];
        if seen.insert(r.lineage) {
            replay.canon(&[lineage], tracer, i as u64);
        }
        if !a.stats.cache_hit {
            replay.compute(&[lineage], tracer, i as u64);
        }
    }
    replay.layers(tracer, reads.len().max(1) as f64, layers);
    let wait: Vec<f64> = reads.iter().map(|(r, a)| r.latency_ms() - ms(a.stats.wall)).collect();
    layers.set("serve.wait_ms", mean(&wait));
    layers.set("serve.submit_us", mean(&open.iter().map(|r| r.submit_us()).collect::<Vec<_>>()));
    let depth: Vec<f64> = open.iter().map(|r| r.queue_depth as f64).collect();
    layers.set("serve.queue_depth", mean(&depth));
    let rejected = open.iter().filter(|r| r.refused()).count();
    layers.set("serve.rejected", rejected as f64);
}

/// The service reports only the backend wall of a request, not the
/// session's: this replays the reads in order, one `Session::attribute_batch`
/// call each, on a fresh engine of the service's configuration, and returns
/// the mean wall per call, ms.
fn replay_session(reads: &[(&Request, &Attribution)], pool: &[Dnf], tracer: &mut Tracer) -> f64 {
    let engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    let mut wall = Vec::with_capacity(reads.len());
    for (i, (r, _)) in reads.iter().enumerate() {
        let lineage = &pool[r.lineage.expect("reads have a lineage")];
        let start = Instant::now();
        black_box(session.attribute_batch(&[lineage], BatchOptions::default()));
        let end = Instant::now();
        tracer.record("replay.attribute_batch", i as u64, None, start, end);
        wall.push(ms(end - start));
    }
    mean(&wall)
}

/// Compares every read with a cacheless recomputation of its lineage, and
/// checks that recomputation with the oracle. Returns the number of reads
/// that differ.
fn verify_reads(pool: &[Dnf], requests: &[Request], oracle: &mut Oracle) -> u64 {
    let mut session = reference_engine().session();
    let mut reference: HashMap<usize, Option<u64>> = HashMap::new();
    let mut mismatches = 0;
    for r in requests {
        let (Some(l), Some(Ok(got))) = (r.lineage, &r.read) else {
            continue;
        };
        let want = reference.entry(l).or_insert_with(|| {
            let att = session.attribute(&pool[l]).ok();
            oracle.check(&pool[l], att.as_ref());
            att.as_ref().and_then(digest)
        });
        if want.is_none() || digest(got) != *want {
            mismatches += 1;
        }
    }
    mismatches
}

/// One span per request from its due time to its completion, with the
/// submit call and the engine's reported wall as children.
fn trace_requests(requests: &[Request], tracer: &mut Tracer) {
    for (i, r) in requests.iter().enumerate() {
        let Some(done) = r.done else { continue };
        let (name, inner, wall) = match (&r.read, &r.report) {
            (Some(Ok(a)), _) => ("serve.read", "engine.backend", a.stats.wall),
            (_, Some(Ok(u))) => ("serve.update", "live.apply", u.wall),
            _ => continue,
        };
        let op = i as u64;
        let root = tracer.record(name, op, None, r.due, done);
        tracer.record("serve.submit", op, root, r.submitted, r.sent);
        tracer.record(inner, op, root, done.checked_sub(wall).unwrap_or(r.due), done);
    }
}

/// Replays the insert delta joins of the applied updates on a copy of the
/// live database: per insert, the `delta_groundings` wall over every
/// registered query (ms) and the number of groundings found.
fn replay_delta_joins(
    workload: &LiveWorkload,
    applied: &[Update],
    tracer: &mut Tracer,
) -> (Vec<f64>, Vec<f64>) {
    let mut db = workload.db.clone();
    let (mut wall, mut found) = (Vec::new(), Vec::new());
    for (i, update) in applied.iter().enumerate() {
        let Ok(id) = db.apply_update(update) else { continue };
        if !update.is_insert() {
            continue;
        }
        let start = Instant::now();
        let n: usize =
            workload.queries.iter().map(|(_, q)| delta_groundings(q, &db, id).len()).sum();
        let end = Instant::now();
        tracer.record("replay.delta_join", i as u64, None, start, end);
        wall.push(ms(end - start));
        found.push(n as f64);
    }
    (wall, found)
}
