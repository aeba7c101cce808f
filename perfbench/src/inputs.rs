//! Seeded input generation. Nothing here is timed: every input is built
//! before the program's set-up starts.

use banzhaf_boolean::Dnf;
use banzhaf_engine::Update;
use banzhaf_workloads::{
    academic_workload, imdb_workload, tpch_workload, DatasetSpec, LiveWorkload,
};

/// SplitMix64: a small, seedable generator, so the inputs depend on the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-purpose `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf(1) distribution over `n` ranks.
    pub fn new(n: usize) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                total += 1.0 / (r + 1) as f64;
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The seed of the `k`-th generated database of a run.
fn db_seed(seed: u64, k: u64) -> u64 {
    Rng::new(seed, 1000 + k).next_u64()
}

/// The IMDB-like query left out of every workload. Its one Boolean answer
/// has a non-hierarchical lineage of 90–250 variables whose d-tree
/// compilation takes from 10 ms to a minute depending on the database
/// (exponential growth): a single such operation would decide a whole run.
pub const IMDB_EXCLUDED_QUERY: &str = "imdb_q5";

/// `count` IMDB-like databases at `scale`, from `seed`, with every query
/// but [`IMDB_EXCLUDED_QUERY`].
pub fn imdb_dbs(seed: u64, scale: usize, count: u64) -> Vec<LiveWorkload> {
    (0..count)
        .map(|k| {
            let mut w = imdb_workload(&DatasetSpec { scale, seed: db_seed(seed, k) });
            w.queries.retain(|(name, _)| name != IMDB_EXCLUDED_QUERY);
            w
        })
        .collect()
}

/// `count` TPC-H-like databases at `scale`, from `seed`, starting at the
/// `first`-th seed of the run.
pub fn tpch_dbs(seed: u64, scale: usize, first: u64, count: u64) -> Vec<LiveWorkload> {
    (first..first + count)
        .map(|k| tpch_workload(&DatasetSpec { scale, seed: db_seed(seed, k) }))
        .collect()
}

/// The serve pool: every answer lineage of the three corpora at scale 2
/// over `seeds` databases each, in an order shuffled once, so that pool
/// index is Zipf rank. The pool and its rank order are the same on every
/// run, generated as if the run's seed were the corpus's default seed: the
/// lineages' costs are heavy tailed, and with a pool of its own, a run's
/// tail was decided by which costly lineages its seed made popular.
pub fn lineage_pool(seeds: u64) -> Vec<Dnf> {
    let default_seed = DatasetSpec::default().seed;
    let mut pool = Vec::new();
    for k in 0..seeds {
        let spec = DatasetSpec { scale: 2, seed: db_seed(default_seed, 5000 + k) };
        for workload in [academic_workload(&spec), imdb_workload(&spec), tpch_workload(&spec)] {
            pool.extend(workload.corpus().instances.into_iter().map(|i| i.lineage));
        }
    }
    shuffle(&mut pool, &mut Rng::new(default_seed, 7));
    pool
}

/// `n` Zipf-drawn ranks over `0..ranks`. The draws are the same on every
/// run (made from the corpus's default seed); `seed` only orders them, so
/// every run reads the same lineages the same number of times.
pub fn zipf_draws(ranks: usize, n: usize, seed: u64) -> Vec<usize> {
    let zipf = Zipf::new(ranks);
    let mut rng = Rng::new(DatasetSpec::default().seed, 13);
    let mut draws: Vec<usize> = (0..n).map(|_| zipf.draw(&mut rng)).collect();
    shuffle(&mut draws, &mut Rng::new(seed, 13));
    draws
}

/// Shuffles `items` in place (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Facts of a live database that its update stream touches. The update
/// tails sit on the few costliest facts; with fewer facts a run makes more
/// passes, so it measures each of those more often (with 64, the explain
/// workloads' `update_tail_ms` spread over a fifth of its median between
/// seeds).
pub const UPDATED_FACTS: usize = 32;

/// The update stream of a live database: [`UPDATED_FACTS`] facts of its
/// mutable relations, evenly spaced in fact-id order, in an order shuffled
/// by `seed`, as delete/re-insert pairs (update `2k` deletes a fact, update
/// `2k + 1` inserts it again with a fresh fact id). The stream can be
/// cycled: each pass leaves the database as it found it. Update cost is
/// heavy tailed over facts, so every run updates the same facts (a run
/// makes several passes), in different orders for different seeds.
pub fn update_stream(workload: &LiveWorkload, seed: u64) -> Vec<Update> {
    let all: Vec<(String, Vec<banzhaf_db::Value>)> = workload
        .db
        .endogenous_facts()
        .filter(|(_, f)| workload.mutable_relations.iter().any(|r| r == f.relation()))
        .map(|(_, f)| (f.relation().to_owned(), f.values().to_vec()))
        .collect();
    let step = (all.len() / UPDATED_FACTS).max(1);
    let mut facts: Vec<_> = all.into_iter().step_by(step).take(UPDATED_FACTS).collect();
    shuffle(&mut facts, &mut Rng::new(seed, 11));
    facts
        .into_iter()
        .flat_map(|(relation, values)| {
            [Update::delete(relation.clone(), values.clone()), Update::insert(relation, values)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let zipf = Zipf::new(1000);
        let draws = |seed| {
            let mut rng = Rng::new(seed, 3);
            (0..100).map(|_| zipf.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
    }

    #[test]
    fn zipf_draws_are_one_multiset_in_seeded_orders() {
        let (a, b) = (zipf_draws(1000, 500, 1), zipf_draws(1000, 500, 2));
        assert_eq!(a, zipf_draws(1000, 500, 1));
        assert_ne!(a, b);
        let sorted = |mut v: Vec<usize>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(a), sorted(b));
    }

    #[test]
    fn update_stream_restores_the_database() {
        let workload = imdb_dbs(1, 1, 1).remove(0);
        let stream = update_stream(&workload, 5);
        let mut db = workload.db.clone();
        for update in &stream {
            db.apply_update(update).unwrap();
        }
        assert_eq!(db.num_tuples(), workload.db.num_tuples());
        assert_eq!(stream.len(), 2 * UPDATED_FACTS, "each chosen fact once");
        assert_ne!(stream, update_stream(&workload, 6), "the seed orders the facts");
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(100);
        let mut rng = Rng::new(0, 0);
        let low = (0..10_000).filter(|_| zipf.draw(&mut rng) < 10).count();
        // P(rank < 10) = H(10) / H(100) ≈ 0.566.
        assert!((5_200..6_100).contains(&low), "{low}");
    }
}
