//! The closed-loop explain workloads, `explain_imdb` and `explain_tpch`.
//!
//! One client calls `Session::explain` over a fixed, seeded list of
//! (database, query) operations, then runs seeded update streams closed
//! loop against services hosting databases of the same corpus live.

use crate::inputs::{imdb_dbs, shuffle, tpch_dbs, update_stream, Rng};
use crate::live::{self, ms, Host, UpdateLoop, UpdateSample};
use crate::report::{peak_rss_mb, Layers, Outcome};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::verify::{query_digest, reference_engine, Oracle};
use crate::Args;
use banzhaf::{exaban_all_with_counts, model_counts, Budget, DTree, PivotHeuristic};
use banzhaf_boolean::Dnf;
use banzhaf_engine::{
    canonical_key_probe, prekey_probe, AnswerAttribution, BatchOptions, CacheStats, Engine,
    EngineConfig, QueryAttribution, Session, Update,
};
use banzhaf_query::evaluate;
use banzhaf_workloads::{DatasetSpec, LiveWorkload};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Which corpus an explain workload runs.
#[derive(Clone, Copy)]
pub enum Corpus {
    /// IMDB-like: many small, skewed lineages; the cache holds every shape.
    Imdb,
    /// TPC-H-like: few, large, symmetric lineages over fresh databases; the
    /// shapes outnumber the cache.
    Tpch,
}

/// Set-ups before the measured phases; the last is kept. Three more run
/// between the steps of verification, once the kept instance is gone, and
/// `setup_s` is the median of all six: load from other tenants of the
/// machine moves its speed by up to 1.5× over a few seconds, so the set-ups
/// are spread over the run.
const SETUPS_BEFORE: usize = 3;
/// Share of the measured time spent on explains; the rest goes to update
/// operations.
const READ_SHARE: f64 = 0.75;
/// Scale of the IMDB-like databases. At scale 4 query evaluation outgrows
/// the CPU caches and its speed moves with the machine's load: runs of
/// identical work made alternately at scales 4 and 2 read `p50_ms` 32–54 ms
/// at scale 4 (spread 0.41 over five runs) and 14.0–15.8 ms at scale 2
/// (0.07).
const IMDB_SCALE: usize = 2;
/// IMDB-like databases, all explained in every round.
const IMDB_DBS: u64 = 4;
/// Scale of the TPC-H-like databases. Explain cost per database is heavy
/// tailed and the tail grows with scale: at scale 4 about one database in
/// sixty compiles for 15–30 s and gigabytes, at scale 3 one in a few
/// hundred takes 2–4 s, which no run of a few seconds averages out. At
/// scale 2 the costliest database in a thousand is about ten times the mean.
const TPCH_SCALE: usize = 2;
/// TPC-H-like databases, one per round. They hold about four times as many
/// lineage shapes as the cache, so a pass over them in any order evicts
/// shapes before they come round again (with 128, 97% of lookups hit).
const TPCH_DBS: u64 = 256;
/// Databases hosted live for the update phase. They are generated as if
/// the run's seed were the corpus generator's default seed, so every run
/// updates the same databases: update cost depends mostly on the database
/// (the median moved by half between seeds when they were the run's own),
/// and the seed still picks the updated facts.
const LIVE_DBS: u64 = 4;
/// Passes over the rounds in a run's order (more than a run reaches). A
/// run measures whole passes, so every run explains each round equally
/// often.
const PASSES: u64 = 256;
/// TPC-H-like databases explained by the warm pass only.
const TPCH_WARM_DBS: u64 = 48;

/// `0..n` in an order shuffled by `seed` and `pass`.
fn shuffled(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, &mut Rng::new(seed, 100 + pass));
    order
}

/// One explain operation: a query of a database.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Op {
    db: usize,
    query: usize,
}

/// A run's inputs.
struct Inputs {
    /// The databases explained.
    dbs: Vec<LiveWorkload>,
    /// Databases only the warm pass explains.
    warm_dbs: Vec<LiveWorkload>,
    /// The rounds of operations.
    rounds: Vec<Vec<Op>>,
    /// The order rounds are run in, pass after pass.
    order: Vec<usize>,
    /// The databases hosted live, and their update streams.
    live_dbs: Vec<LiveWorkload>,
    streams: Vec<Vec<Update>>,
}

/// Builds a run's inputs. The operation stream comes from the seed; the
/// databases do not: every run explains and updates the same databases,
/// generated as if its seed were the corpus's default, so runs on different
/// seeds do the same work in different orders. Explain and update cost
/// depend on the database, heavily so for TPC-H-like ones (the costliest in
/// a thousand is ten times the mean): with databases of its own, a run's
/// tail would be decided by whether it drew one of those.
fn inputs(corpus: Corpus, seed: u64) -> Inputs {
    let default_seed = DatasetSpec::default().seed;
    let (dbs, warm_dbs) = match corpus {
        Corpus::Imdb => (imdb_dbs(default_seed, IMDB_SCALE, IMDB_DBS), Vec::new()),
        Corpus::Tpch => (
            tpch_dbs(default_seed, TPCH_SCALE, 0, TPCH_DBS),
            tpch_dbs(default_seed, TPCH_SCALE, TPCH_DBS, TPCH_WARM_DBS),
        ),
    };
    let rounds: Vec<Vec<Op>> = match corpus {
        // One round explains one query of one database, so every pass runs
        // the operations in an order of its own. With one order for the
        // whole run, each operation always followed the same one and met
        // its footprint in the CPU caches, so the seed's order could move
        // an operation for the whole run: on six seeds the latency of the
        // median's query spread 0.17 while the throughput spread 0.04.
        Corpus::Imdb => (0..dbs.len())
            .flat_map(|db| (0..dbs[db].queries.len()).map(move |query| vec![Op { db, query }]))
            .collect(),
        // One round explains every query of one database.
        Corpus::Tpch => (0..dbs.len())
            .map(|db| (0..dbs[db].queries.len()).map(|query| Op { db, query }).collect())
            .collect(),
    };
    let order = (0..PASSES)
        .flat_map(|pass| match corpus {
            Corpus::Imdb => shuffled(rounds.len(), seed, pass),
            // Every pass in the same order, so a database comes round again
            // a whole pass later, when its large lineages have left the
            // cache: each visit of the costliest databases misses. In orders
            // of their own, some visits came round within a few rounds and
            // hit, and how many of the costliest explains missed decided
            // `tail_ms` (105 or 129 ms on two seeds).
            Corpus::Tpch => shuffled(rounds.len(), seed, 0),
        })
        .collect();
    let live_dbs = match corpus {
        Corpus::Imdb => imdb_dbs(default_seed, IMDB_SCALE, LIVE_DBS),
        Corpus::Tpch => tpch_dbs(default_seed, TPCH_SCALE, 0, LIVE_DBS),
    };
    let streams = live_dbs.iter().map(|w| update_stream(w, seed)).collect();
    Inputs { dbs, warm_dbs, rounds, order, live_dbs, streams }
}

/// The program's set-up: engine start, the warm pass (every operation once
/// for IMDB-like databases, the warm-only databases for TPC-H-like ones),
/// and the services hosting the live databases with their queries
/// registered.
fn set_up<'a>(corpus: Corpus, inputs: &'a Inputs) -> (Engine, Session, Vec<Host<'a>>) {
    let engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    let warm: Vec<(&LiveWorkload, usize)> = match corpus {
        Corpus::Imdb => {
            inputs.rounds.iter().flatten().map(|op| (&inputs.dbs[op.db], op.query)).collect()
        }
        Corpus::Tpch => {
            inputs.warm_dbs.iter().flat_map(|w| (0..w.queries.len()).map(move |q| (w, q))).collect()
        }
    };
    for (w, q) in warm {
        black_box(session.explain(&w.queries[q].1, &w.db));
    }
    let hosts = inputs
        .live_dbs
        .iter()
        .zip(&inputs.streams)
        .map(|(w, stream)| Host {
            service: live::start_service(w, 1),
            workload: w,
            stream: stream.clone(),
            applied: Vec::new(),
        })
        .collect();
    (engine, session, hosts)
}

/// The explain operations, closed loop, round after round in the inputs'
/// order.
#[derive(Default)]
struct ReadLoop {
    /// Rounds run so far.
    rounds: usize,
    /// Each operation with the digest of its output (`None` if it failed).
    executed: Vec<(Op, Option<u64>)>,
    answers: u64,
    /// Sum of the operation latencies.
    spent: Duration,
    /// Σ backend wall per operation, ms.
    backend_ms: Vec<f64>,
    visited: HashSet<usize>,
    replay: Replay,
}

impl ReadLoop {
    /// Whether the loop has made whole passes over the rounds, so that it
    /// has explained each round equally often.
    fn at_pass_end(&self, inputs: &Inputs) -> bool {
        self.rounds.is_multiple_of(inputs.rounds.len())
    }

    /// Runs the next round.
    fn step(
        &mut self,
        inputs: &Inputs,
        session: &mut Session,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) {
        let r = inputs.order[self.rounds % inputs.order.len()];
        self.rounds += 1;
        let first_visit = self.visited.insert(r);
        for &op in &inputs.rounds[r] {
            let w = &inputs.dbs[op.db];
            let query = &w.queries[op.query].1;
            let id = self.executed.len() as u64;
            let start = Instant::now();
            let explained = if tracer.enabled() {
                traced_explain(session, query, &w.db, tracer, id, start)
            } else {
                session.explain(query, &w.db)
            };
            let end = Instant::now();
            self.spent += end - start;
            out.reads_ms.push(ms(end - start));
            self.answers += explained.answers.len() as u64;
            self.backend_ms.push(
                explained
                    .answers
                    .iter()
                    .filter_map(AnswerAttribution::attribution)
                    .map(|a| ms(a.stats.wall))
                    .sum(),
            );
            self.executed.push((op, query_digest(&explained)));
            if tracer.enabled() {
                if first_visit {
                    let lineages: Vec<&Dnf> =
                        explained.answers.iter().map(|a| &a.lineage).collect();
                    self.replay.canon(&lineages, tracer, id);
                }
                self.replay.compute(&computed(&explained), tracer, id);
            }
        }
    }
}

/// Runs an explain workload.
pub fn run(corpus: Corpus, args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let mut tracer = Tracer::new(args.trace);
    let inputs = inputs(corpus, args.seed);
    out.end_phase("inputs");

    // Set up several times; the last set-up is kept.
    let mut kept = None;
    for _ in 0..SETUPS_BEFORE {
        drop(kept.take());
        kept = Some(out.time_set_up(|| set_up(corpus, &inputs)));
    }
    let (engine, mut session, mut hosts) = kept.expect("at least one set-up");
    out.end_phase("set-ups");

    let cache_before = engine.stats().cache;
    let steps_before = session.stats().compile_steps;
    // Rounds of explains and update operations interleave, so that both
    // sample the machine across the whole run: the next step goes to the
    // side further behind its share of the measured time, and each side
    // stops at the end of a whole pass once its share is spent.
    let read_budget = args.seconds * READ_SHARE;
    let update_budget = args.seconds * (1.0 - READ_SHARE);
    let mut reads = ReadLoop::default();
    let mut update_loop = UpdateLoop::default();
    loop {
        let read_used = reads.spent.as_secs_f64() / read_budget;
        let update_used = update_loop.spent.as_secs_f64() / update_budget;
        let reads_done = read_used >= 1.0 && reads.at_pass_end(&inputs);
        let updates_done = update_used >= 1.0 && update_loop.at_pass_end(&hosts);
        if reads_done && updates_done {
            break;
        } else if !reads_done && (updates_done || read_used <= update_used) {
            reads.step(&inputs, &mut session, &mut tracer, &mut out);
        } else {
            update_loop.step(&mut hosts, &mut tracer);
        }
    }
    let updates = update_loop.samples;
    out.answers_per_s = reads.answers as f64 / reads.spent.as_secs_f64();
    let cache_after = engine.stats().cache;
    let read_steps = session.stats().compile_steps - steps_before;
    out.updates_ms = updates.iter().map(|u| u.latency_ms).collect();
    out.peak_rss_mb = peak_rss_mb();
    out.end_phase("measured");

    // Verification, outside the timed region, with a set-up before each step.
    let finals: Vec<_> = hosts
        .into_iter()
        .map(|h| (live::live_state(&h.service, h.workload), h.workload, h.applied))
        .collect();
    drop((engine, session));
    let ops = reads.executed.len() as u64;
    let failed_updates = updates.iter().filter(|u| !u.ok()).count() as u64;
    out.attempted = ops + updates.len() as u64;
    let mut oracle = Oracle::default();
    drop(out.time_set_up(|| set_up(corpus, &inputs)));
    let read_mismatches = verify_reads(&inputs.dbs, &reads.executed, &mut oracle);
    drop(out.time_set_up(|| set_up(corpus, &inputs)));
    let live_mismatches: u64 = finals
        .iter()
        .map(|(state, workload, applied)| live::check_final_state(state, workload, applied))
        .sum();
    drop(out.time_set_up(|| set_up(corpus, &inputs)));
    out.failed = read_mismatches + oracle.bad + failed_updates + live_mismatches;
    out.note(format!(
        "verified {ops} explains against a cacheless recomputation ({read_mismatches} differ), \
         the final live states after {} updates against a cold re-explain ({live_mismatches} \
         answers differ); {}",
        finals.iter().map(|(_, _, applied)| applied.len()).sum::<usize>(),
        oracle.describe()
    ));
    out.note(format!(
        "{} answers over {:.3} s of explain wall",
        reads.answers,
        reads.spent.as_secs_f64()
    ));

    if tracer.enabled() {
        let ops = ops as f64;
        let layers = &mut out.layers;
        let span_ms = |name| per_op(&tracer, name, ops);
        layers.set("query.eval_ms", span_ms("query.evaluate"));
        layers.set("query.eval_share", span_ms("query.evaluate") * ops / ms(reads.spent));
        layers.set("query.answers", reads.answers as f64 / ops);
        layers.set("engine.batch_ms", span_ms("engine.attribute_batch"));
        layers.set("engine.backend_ms", mean(&reads.backend_ms));
        layers.set("engine.compile_steps", read_steps as f64 / ops);
        cache_layers(&cache_before, &cache_after, ops, layers);
        reads.replay.layers(&tracer, ops, layers);
        live::layer_metrics(&updates, layers);
        serve_layers(&updates, layers);
        layers.set("trace.p50_ms", median(&out.reads_ms));
        layers.set("trace.update_p50_ms", median(&out.updates_ms));
    }
    out.end_phase("verified");
    crate::finish_trace(&tracer, args, &mut out);
    out
}

/// `Session::explain`, split into its two public halves so that each gets
/// its own span: `evaluate`, then `Session::attribute_batch`.
fn traced_explain(
    session: &mut Session,
    query: &banzhaf_query::UnionQuery,
    db: &banzhaf_db::Database,
    tracer: &mut Tracer,
    id: u64,
    start: Instant,
) -> QueryAttribution {
    let raw = evaluate(query, db).into_answers();
    let evaluated = Instant::now();
    let lineages: Vec<&Dnf> = raw.iter().map(|a| &a.lineage).collect();
    let outcomes = session.attribute_batch(&lineages, BatchOptions::default());
    let end = Instant::now();
    let root = tracer.record("explain", id, None, start, end);
    tracer.record("query.evaluate", id, root, start, evaluated);
    tracer.record("engine.attribute_batch", id, root, evaluated, end);
    let answers = raw
        .into_iter()
        .zip(outcomes)
        .map(|(a, outcome)| AnswerAttribution { tuple: a.tuple, lineage: a.lineage, outcome })
        .collect();
    QueryAttribution { answers }
}

/// The lineages of an explanation the engine attributed itself rather than
/// serving from its cache.
fn computed(explained: &QueryAttribution) -> Vec<&Dnf> {
    explained
        .answers
        .iter()
        .filter(|a| a.attribution().is_some_and(|att| !att.stats.cache_hit))
        .map(|a| &a.lineage)
        .collect()
}

/// Replays the layers below the session outside the blocking path: the
/// canonical key and pre-key of lineages the engine looked up, and the
/// compile and count of lineages the engine attributed itself (its cache
/// misses), so that the replayed compile and count add up to the same work
/// as the engine's backend wall. One span per layer per replayed list.
#[derive(Default)]
pub struct Replay {
    keyed: u64,
    nodes: u64,
}

impl Replay {
    /// Replays the canonical key and pre-key of `lineages`.
    pub fn canon(&mut self, lineages: &[&Dnf], tracer: &mut Tracer, id: u64) {
        let t0 = Instant::now();
        for l in lineages {
            black_box(canonical_key_probe(l));
        }
        let t1 = Instant::now();
        for l in lineages {
            black_box(prekey_probe(l));
        }
        let t2 = Instant::now();
        tracer.record("replay.canonical_key", id, None, t0, t1);
        tracer.record("replay.prekey", id, None, t1, t2);
        self.keyed += lineages.len() as u64;
    }

    /// Replays the compile and count of `lineages`.
    pub fn compute(&mut self, lineages: &[&Dnf], tracer: &mut Tracer, id: u64) {
        if lineages.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let trees: Vec<DTree> = lineages
            .iter()
            .map(|l| {
                DTree::compile_full(
                    (*l).clone(),
                    PivotHeuristic::MostFrequent,
                    &Budget::unlimited(),
                )
                .expect("an unlimited budget never interrupts")
            })
            .collect();
        let t1 = Instant::now();
        for tree in &trees {
            let counts = model_counts(tree);
            black_box(exaban_all_with_counts(tree, &counts));
        }
        let t2 = Instant::now();
        tracer.record("replay.compile", id, None, t0, t1);
        tracer.record("replay.count", id, None, t1, t2);
        self.nodes += trees.iter().map(|t| t.num_nodes() as u64).sum::<u64>();
    }

    /// Sets the canon metrics per lineage keyed, and the dtree and core
    /// metrics per operation, over `ops` operations.
    pub fn layers(&self, tracer: &Tracer, ops: f64, layers: &mut Layers) {
        let times = tracer.self_times();
        let total = |name| times.get(name).map_or(0.0, |t| t.1);
        let keyed = self.keyed.max(1) as f64;
        layers.set("canon.key_us", total("replay.canonical_key") * 1e3 / keyed);
        layers.set("canon.prekey_us", total("replay.prekey") * 1e3 / keyed);
        layers.set("dtree.compile_ms", total("replay.compile") / ops);
        layers.set("dtree.nodes", self.nodes as f64 / ops);
        layers.set("core.count_ms", total("replay.count") / ops);
    }
}

/// Sets the cache metrics from the counter difference over `ops`
/// operations.
pub fn cache_layers(before: &CacheStats, after: &CacheStats, ops: f64, layers: &mut Layers) {
    let hits = (after.hits - before.hits) as f64;
    let lookups = hits + (after.misses - before.misses) as f64;
    let searches = (after.canon_searches - before.canon_searches) as f64;
    layers.set("cache.lookups", lookups / ops);
    layers.set("cache.hit_rate", if lookups > 0.0 { hits / lookups } else { 0.0 });
    layers.set("cache.canon_searches", searches / ops);
    layers.set("cache.prekey_skips", (after.prekey_skips - before.prekey_skips) as f64 / ops);
    layers.set("cache.evictions", (after.evictions - before.evictions) as f64 / ops);
    layers.set("cache.searches_per_hit", if hits > 0.0 { searches / hits } else { searches });
}

/// Serve-layer metrics of a closed-loop update phase.
fn serve_layers(updates: &[UpdateSample], layers: &mut Layers) {
    let wait: Vec<f64> = updates
        .iter()
        .map(|u| u.latency_ms - u.reports.iter().map(|r| ms(r.wall)).sum::<f64>())
        .collect();
    layers.set("serve.wait_ms", mean(&wait));
    let submit: Vec<f64> = updates.iter().flat_map(|u| u.submit_us.iter().copied()).collect();
    layers.set("serve.submit_us", mean(&submit));
    let depth: Vec<f64> =
        updates.iter().flat_map(|u| u.queue_depth.iter().map(|&d| d as f64)).collect();
    layers.set("serve.queue_depth", mean(&depth));
    layers.set("serve.gen_lag_ms", mean(&updates.iter().map(|u| u.lag_ms).collect::<Vec<_>>()));
    layers.set("serve.rejected", updates.iter().map(|u| u.rejected as f64).sum());
}

/// Mean total duration of the spans called `name`, per operation.
fn per_op(tracer: &Tracer, name: &str, ops: f64) -> f64 {
    tracer.self_times().get(name).map_or(0.0, |t| t.1) / ops
}

/// Compares every executed operation's digest with a cacheless,
/// single-threaded recomputation, and checks that recomputation with the
/// oracle. Returns the number of operations that differ.
fn verify_reads(dbs: &[LiveWorkload], executed: &[(Op, Option<u64>)], oracle: &mut Oracle) -> u64 {
    let mut reference: HashMap<Op, Option<u64>> = HashMap::new();
    let mut session = reference_engine().session();
    let mut mismatches = 0;
    for (op, got) in executed {
        let want = reference.entry(*op).or_insert_with(|| {
            let w = &dbs[op.db];
            let explained = session.explain(&w.queries[op.query].1, &w.db);
            oracle.check_query(&explained);
            query_digest(&explained)
        });
        if got.is_none() || got != want {
            mismatches += 1;
        }
    }
    mismatches
}
