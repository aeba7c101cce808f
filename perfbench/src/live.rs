//! The write path: a service hosting a live database, its update stream,
//! and the check of the final live state against a cold re-explain.

use crate::report::Layers;
use crate::stats::mean;
use crate::trace::Tracer;
use crate::verify::{mismatched_answers, reference_engine};
use banzhaf_engine::{EngineConfig, QueryAttribution, Update, UpdateReport};
use banzhaf_serve::{AttributionService, RequestOptions, ServeConfig};
use banzhaf_workloads::LiveWorkload;
use std::time::{Duration, Instant};

/// Room for every request a run can have outstanding: a refused request
/// would be a failure, and the open loop never offers more than this.
pub const QUEUE_CAPACITY: usize = 1 << 16;

/// Starts a service with `workers` workers hosting `workload`'s database
/// live, with every query of the workload registered on it.
pub fn start_service(workload: &LiveWorkload, workers: usize) -> AttributionService {
    let mut config = ServeConfig::new(EngineConfig::default())
        .with_workers(workers)
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_live_database(workload.db.clone());
    for (name, query) in &workload.queries {
        config = config.with_live_query(name.clone(), query.clone());
    }
    AttributionService::start(config)
}

/// One update operation: a fact deleted and then inserted again, each
/// submitted once the previous update resolved.
pub struct UpdateSample {
    /// From when the delete was due to the re-insert's resolved report, ms.
    pub latency_ms: f64,
    /// Time spent inside each `submit_update` call, µs.
    pub submit_us: Vec<f64>,
    /// How late the client sent the delete (after the due time in the open
    /// loop, after it was ready to in a closed loop), ms.
    pub lag_ms: f64,
    /// The service's queue depth right after each accepted submission.
    pub queue_depth: Vec<usize>,
    /// Submissions the service refused.
    pub rejected: usize,
    /// The reports of the updates that applied.
    pub reports: Vec<UpdateReport>,
}

impl UpdateSample {
    /// Whether both updates applied.
    pub fn ok(&self) -> bool {
        self.reports.len() == 2
    }
}

/// A service hosting one database live, with its update stream and the
/// updates applied so far.
pub struct Host<'a> {
    /// The service.
    pub service: AttributionService,
    /// The database and queries it hosts.
    pub workload: &'a LiveWorkload,
    /// Its update stream (delete/re-insert pairs).
    pub stream: Vec<Update>,
    /// The updates it has applied, in order.
    pub applied: Vec<Update>,
}

/// The hosts' update streams, run closed loop (one client, one update in
/// flight), one delete/re-insert pair per host in turn.
#[derive(Default)]
pub struct UpdateLoop {
    /// The update operations run so far.
    pub samples: Vec<UpdateSample>,
    /// The sum of their latencies.
    pub spent: Duration,
}

impl UpdateLoop {
    /// Whether the loop has made whole passes over every host's stream, so
    /// that it has applied each update equally often: update cost is heavy
    /// tailed over facts.
    pub fn at_pass_end(&self, hosts: &[Host<'_>]) -> bool {
        self.samples.len().is_multiple_of(hosts.len() * (hosts[0].stream.len() / 2))
    }

    /// Runs the next update operation.
    pub fn step(&mut self, hosts: &mut [Host<'_>], tracer: &mut Tracer) {
        let ready = Instant::now();
        let pair = self.samples.len();
        let n = hosts.len();
        let host = &mut hosts[pair % n];
        let first = (pair / n * 2) % host.stream.len();
        let op = pair as u64;
        let start = Instant::now();
        let mut submit_us = Vec::new();
        let mut queue_depth = Vec::new();
        let mut rejected = 0;
        let mut reports = Vec::new();
        let mut spans = Vec::new();
        for update in &host.stream[first..first + 2] {
            let submit = Instant::now();
            let ticket = host.service.submit_update(update.clone(), RequestOptions::default());
            let submitted = Instant::now();
            match &ticket {
                Ok(_) if tracer.enabled() => queue_depth.push(host.service.stats().queue_depth),
                Ok(_) => {}
                Err(_) => rejected += 1,
            }
            let report = ticket.ok().and_then(|t| t.wait().ok());
            let end = Instant::now();
            submit_us.push((submitted - submit).as_secs_f64() * 1e6);
            spans.push(("serve.submit", submit, submitted));
            if let Some(r) = report {
                spans.push(("live.apply", end.checked_sub(r.wall).unwrap_or(submit), end));
                host.applied.push(update.clone());
                reports.push(r);
            }
        }
        let end = Instant::now();
        self.spent += end - start;
        let root = tracer.record("update", op, None, start, end);
        for (name, from, to) in spans {
            tracer.record(name, op, root, from, to);
        }
        self.samples.push(UpdateSample {
            latency_ms: ms(end - start),
            submit_us,
            lag_ms: ms(start - ready),
            queue_depth,
            rejected,
            reports,
        });
    }
}

/// The service's live attribution of every query of `workload`.
pub fn live_state(
    service: &AttributionService,
    workload: &LiveWorkload,
) -> Vec<Option<QueryAttribution>> {
    workload.queries.iter().map(|(name, _)| service.live_attribution(name)).collect()
}

/// Compares a service's final live attributions (its [`live_state`]) with a
/// cold, cacheless re-explain of the database the applied updates lead to.
/// Returns the number of answers that differ.
pub fn check_final_state(
    state: &[Option<QueryAttribution>],
    workload: &LiveWorkload,
    applied: &[Update],
) -> u64 {
    let mut db = workload.db.clone();
    for update in applied {
        if db.apply_update(update).is_err() {
            return 1;
        }
    }
    let mut cold = reference_engine().session();
    workload
        .queries
        .iter()
        .zip(state)
        .map(|((_, query), live)| match live {
            Some(live) => mismatched_answers(live, &cold.explain(query, &db)),
            None => 1,
        })
        .sum()
}

/// The per-layer metrics of the live layer over `samples`, per update.
pub fn layer_metrics(samples: &[UpdateSample], layers: &mut Layers) {
    let reports: Vec<&UpdateReport> = samples.iter().flat_map(|s| &s.reports).collect();
    let avg =
        |f: &dyn Fn(&UpdateReport) -> f64| mean(&reports.iter().map(|r| f(r)).collect::<Vec<_>>());
    layers.set("live.apply_ms", avg(&|r| ms(r.wall)));
    layers.set("live.touched", avg(&|r| r.touched.len() as f64));
    layers.set("live.compile_steps", avg(&|r| r.compile_steps as f64));
    layers.set("live.cache_hits", avg(&|r| r.cache_hits as f64));
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
