//! Output verification, run outside the timed region.
//!
//! Every result the timed region produced is reduced to a digest of its exact
//! values and model count, and compared with the digest of a cacheless,
//! single-threaded recomputation of the same input. The recomputation itself
//! is checked against the brute-force oracle of `banzhaf-boolean` on the
//! lineages small enough for it, within a work budget.

use banzhaf_arith::{Int, Natural};
use banzhaf_boolean::{Dnf, Var};
use banzhaf_engine::{Attribution, CacheConfig, Engine, EngineConfig, QueryAttribution, Score};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Lineages with at most this many variables are checked by brute force.
pub const ORACLE_MAX_VARS: usize = 16;

/// The reference engine: default algorithm, no cache, one thread.
pub fn reference_engine() -> Engine {
    Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled()).with_threads(1))
}

/// Digest of one attribution's exact values (by fact) and model count;
/// `None` if some value is not exact.
pub fn digest(attribution: &Attribution) -> Option<u64> {
    let mut values: Vec<(Var, &Natural)> = attribution
        .values
        .iter()
        .map(|(v, s)| match s {
            Score::Exact(n) => Some((*v, n)),
            _ => None,
        })
        .collect::<Option<_>>()?;
    values.sort_by_key(|(v, _)| *v);
    let mut h = DefaultHasher::new();
    values.hash(&mut h);
    attribution.model_count.hash(&mut h);
    Some(h.finish())
}

/// Digest of a whole explained query: every answer tuple with its
/// attribution's digest. `None` if some answer failed or is not exact.
pub fn query_digest(explained: &QueryAttribution) -> Option<u64> {
    let mut h = DefaultHasher::new();
    for answer in &explained.answers {
        answer.tuple.hash(&mut h);
        digest(answer.attribution()?)?.hash(&mut h);
    }
    Some(h.finish())
}

/// Checks a lineage's attribution against brute-force enumeration. Returns
/// `None` when the lineage is too large for the oracle.
pub fn oracle_agrees(lineage: &Dnf, attribution: &Attribution) -> Option<bool> {
    if lineage.num_vars() > ORACLE_MAX_VARS {
        return None;
    }
    let count_ok = attribution.model_count.as_ref() == Some(&lineage.brute_force_model_count());
    let values_ok = attribution.values.len() == lineage.num_vars()
        && lineage.brute_force_all_banzhaf().into_iter().all(|(v, expected)| {
            matches!(attribution.value(v), Some(Score::Exact(n)) if Int::from(n.clone()) == expected)
        });
    Some(count_ok && values_ok)
}

/// The brute-force oracle under a work budget: enumeration costs
/// `vars · 2^vars · clauses` clause tests per lineage, so a run checks the
/// lineages it meets, in order, while their cost fits in what is left of
/// [`ORACLE_BUDGET`]. Which lineages are checked depends on the inputs
/// only.
pub struct Oracle {
    left: u64,
    /// Lineages checked.
    pub checked: u64,
    /// Lineages the oracle disagrees with.
    pub bad: u64,
    /// Small-enough lineages left unchecked because the budget ran out.
    pub skipped: u64,
}

/// Clause tests the oracle may spend per run (a few seconds).
pub const ORACLE_BUDGET: u64 = 1 << 28;

impl Default for Oracle {
    fn default() -> Self {
        Oracle { left: ORACLE_BUDGET, checked: 0, bad: 0, skipped: 0 }
    }
}

impl Oracle {
    /// Checks one lineage's attribution (`None` = the attribution failed).
    pub fn check(&mut self, lineage: &Dnf, attribution: Option<&Attribution>) {
        let n = lineage.num_vars();
        if n > ORACLE_MAX_VARS {
            return;
        }
        let cost = (n as u64).max(1) << n;
        let cost = cost * lineage.num_clauses().max(1) as u64;
        if cost > self.left {
            self.skipped += 1;
            return;
        }
        self.left -= cost;
        self.checked += 1;
        let ok = attribution.and_then(|a| oracle_agrees(lineage, a)).unwrap_or(false);
        self.bad += u64::from(!ok);
    }

    /// Checks every answer of an explanation.
    pub fn check_query(&mut self, explained: &QueryAttribution) {
        for answer in &explained.answers {
            self.check(&answer.lineage, answer.attribution());
        }
    }

    /// One line describing what the oracle did.
    pub fn describe(&self) -> String {
        format!(
            "{} lineages checked against the brute-force oracle ({} differ, {} left unchecked \
             by its budget)",
            self.checked, self.bad, self.skipped
        )
    }
}

/// Compares two explanations answer by answer: tuples, exact values and
/// model counts. Returns the number of answers that differ (a missing or
/// extra answer counts as one).
pub fn mismatched_answers(got: &QueryAttribution, want: &QueryAttribution) -> u64 {
    let extra = got.answers.len().abs_diff(want.answers.len()) as u64;
    let differ = got
        .answers
        .iter()
        .zip(&want.answers)
        .filter(|(g, w)| {
            let dg = g.attribution().and_then(digest);
            let dw = w.attribution().and_then(digest);
            g.tuple != w.tuple || dg.is_none() || dg != dw
        })
        .count() as u64;
    extra + differ
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Dnf {
        // Example 13 of the paper.
        Dnf::from_clauses(vec![vec![Var(0), Var(1)], vec![Var(0), Var(2)], vec![Var(3)]])
    }

    #[test]
    fn reference_matches_the_oracle() {
        let phi = example();
        let att = reference_engine().session().attribute(&phi).unwrap();
        assert_eq!(oracle_agrees(&phi, &att), Some(true));
    }

    #[test]
    fn a_corrupted_value_is_caught() {
        let phi = example();
        let att = reference_engine().session().attribute(&phi).unwrap();
        let mut corrupted = att.clone();
        let Some(Score::Exact(n)) = corrupted.values.get(&Var(3)).cloned() else {
            panic!("exact value expected");
        };
        corrupted.values.insert(Var(3), Score::Exact(&n + &Natural::from(1u64)));
        assert_ne!(digest(&corrupted), digest(&att));
        assert_eq!(oracle_agrees(&phi, &corrupted), Some(false));
        let mut oracle = Oracle::default();
        oracle.check(&phi, Some(&att));
        oracle.check(&phi, Some(&corrupted));
        oracle.check(&phi, None);
        assert_eq!((oracle.checked, oracle.bad), (3, 2));
    }

    #[test]
    fn a_corrupted_model_count_is_caught() {
        let phi = example();
        let att = reference_engine().session().attribute(&phi).unwrap();
        let mut corrupted = att.clone();
        corrupted.model_count = Some(Natural::from(12u64));
        assert_ne!(digest(&corrupted), digest(&att));
        assert_eq!(oracle_agrees(&phi, &corrupted), Some(false));
    }

    #[test]
    fn a_corrupted_answer_is_counted() {
        use banzhaf_db::Database;
        use banzhaf_query::parse_program;
        let mut db = Database::new();
        db.add_relation("R", 1);
        db.add_relation("S", 2);
        for x in 0..3i64 {
            db.insert_endogenous("R", vec![x.into()]).unwrap();
            db.insert_endogenous("S", vec![x.into(), (x + 1).into()]).unwrap();
        }
        let query = parse_program("Q(X) :- R(X), S(X, Y).").unwrap();
        let want = reference_engine().session().explain(&query, &db);
        let mut got = want.clone();
        assert_eq!(mismatched_answers(&got, &want), 0);
        assert_eq!(query_digest(&got), query_digest(&want));
        let att = got.answers[1].outcome.as_mut().unwrap();
        att.model_count = Some(Natural::from(0u64));
        assert_eq!(mismatched_answers(&got, &want), 1);
        assert_ne!(query_digest(&got), query_digest(&want));
    }
}
