//! Cross-crate property-based tests: on randomly generated lineages, all
//! algorithm layers must agree with the brute-force ground truth and with each
//! other, and the approximation algorithms must honour their guarantees.

use banzhaf_repro::prelude::*;
use proptest::prelude::*;

/// Strategy generating small random positive DNFs (as clause lists) so that
/// brute-force verification stays feasible.
fn small_dnf() -> impl Strategy<Value = Dnf> {
    // Between 1 and 8 clauses, each with 1..=3 variables drawn from 8.
    proptest::collection::vec(proptest::collection::vec(0u32..8, 1..=3), 1..=8).prop_map(
        |clauses| {
            Dnf::from_clauses(
                clauses.into_iter().map(|c| c.into_iter().map(Var).collect::<Vec<_>>()),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ExaBan on a compiled d-tree equals brute force for all variables, and
    /// the model count matches; both Shannon pivot heuristics agree.
    #[test]
    fn exaban_matches_brute_force(phi in small_dnf()) {
        for heuristic in [PivotHeuristic::MostFrequent, PivotHeuristic::FirstVariable] {
            let tree = DTree::compile_full(phi.clone(), heuristic, &Budget::unlimited()).unwrap();
            let result = exaban_all(&tree);
            prop_assert_eq!(result.model_count.clone(), phi.brute_force_model_count());
            for x in phi.universe().iter() {
                let expected = phi.brute_force_banzhaf(x);
                prop_assert_eq!(Int::from(result.value(x).unwrap().clone()), expected.clone());
                let (single, _) = exaban_single(&tree, x);
                prop_assert_eq!(single, expected);
            }
        }
    }

    /// The Sig22 baseline (CNF + DPLL compiler) agrees with ExaBan.
    #[test]
    fn sig22_agrees_with_exaban(phi in small_dnf()) {
        let tree = DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        let exact = exaban_all(&tree);
        let sig = sig22_exact(&phi, &Budget::unlimited()).unwrap();
        prop_assert_eq!(&exact.model_count, &sig.model_count);
        for x in phi.universe().iter() {
            prop_assert_eq!(exact.value(x), sig.value(x));
        }
    }

    /// Bounds on any partial d-tree bracket the exact Banzhaf value and model
    /// count, after every single expansion step.
    #[test]
    fn bounds_always_bracket_exact_values(phi in small_dnf(), opt4 in any::<bool>()) {
        let exact_count = phi.brute_force_model_count();
        let mut tree = DTree::from_leaf(phi.clone());
        loop {
            for x in phi.universe().iter() {
                let quad = bounds_for_var(&tree, x, opt4);
                let exact = phi.brute_force_banzhaf(x);
                prop_assert!(quad.banzhaf_lower <= exact);
                prop_assert!(exact <= quad.banzhaf_upper);
                prop_assert!(quad.count_lower <= exact_count);
                prop_assert!(exact_count <= quad.count_upper);
            }
            if !tree.expand_largest_leaf(PivotHeuristic::MostFrequent) {
                break;
            }
        }
    }

    /// AdaBan returns an interval containing the exact value and satisfying
    /// the requested relative error, for several ε.
    #[test]
    fn adaban_interval_is_sound_and_tight_enough(phi in small_dnf(), eps_idx in 0usize..4) {
        let eps_str = ["0", "0.1", "0.3", "1"][eps_idx];
        let options = AdaBanOptions::with_epsilon_str(eps_str);
        let mut tree = DTree::from_leaf(phi.clone());
        for x in phi.universe().iter() {
            let interval = adaban(&mut tree, x, &options, &Budget::unlimited()).unwrap();
            let exact = phi.brute_force_banzhaf(x);
            prop_assert!(Int::from(interval.lower.clone()) <= exact);
            prop_assert!(exact <= Int::from(interval.upper.clone()));
            prop_assert!(interval.meets_epsilon(&options.epsilon));
        }
    }

    /// IchiBan's certain top-k contains only variables whose exact value is at
    /// least the k-th largest exact value (i.e. it is a valid top-k set under
    /// ties), and certified rankings are consistent with the exact values.
    #[test]
    fn ichiban_topk_is_exact(phi in small_dnf(), k in 1usize..5) {
        let mut exact: Vec<(Var, Int)> = phi.brute_force_all_banzhaf();
        exact.sort_by(|(va, ba), (vb, bb)| bb.cmp(ba).then(va.cmp(vb)));
        let k = k.min(exact.len());
        let threshold = exact[k - 1].1.clone();

        let mut tree = DTree::from_leaf(phi.clone());
        let topk = ichiban_topk(&mut tree, k, &IchiBanOptions::certain(), &Budget::unlimited()).unwrap();
        prop_assert_eq!(topk.members.len(), k);
        let exact_of = |v: Var| exact.iter().find(|(u, _)| *u == v).unwrap().1.clone();
        for member in &topk.members {
            prop_assert!(exact_of(*member) >= threshold.clone());
        }

        let mut tree = DTree::from_leaf(phi.clone());
        let ranking = ichiban_rank(&mut tree, &IchiBanOptions::certain(), &Budget::unlimited()).unwrap();
        prop_assert!(ranking.certified);
        let values: Vec<Int> = ranking.order.iter().map(|v| exact_of(*v)).collect();
        for w in values.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    /// Shapley values from the d-tree satisfy the efficiency axiom and the
    /// per-size critical counts sum to the Banzhaf values.
    #[test]
    fn shapley_and_critical_counts_are_consistent(phi in small_dnf()) {
        let tree = DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        let banzhaf = exaban_all(&tree);
        let critical = critical_counts_all(&tree);
        for x in phi.universe().iter() {
            let mut total = Natural::zero();
            for c in &critical[&x] {
                total += c;
            }
            prop_assert_eq!(&total, banzhaf.value(x).unwrap());
        }
        let shapley = shapley_all(&tree);
        let sum: f64 = shapley.values().map(ShapleyValue::to_f64).sum();
        let satisfied_by_all = !phi.is_false();
        let satisfied_by_none = phi.evaluate(&Assignment::empty());
        let expected = (satisfied_by_all as i32 - satisfied_by_none as i32) as f64;
        prop_assert!((sum - expected).abs() < 1e-6);
    }

    /// The lineage produced by the provenance-aware evaluator for a
    /// single-atom query has one clause per endogenous matching fact.
    #[test]
    fn single_atom_query_lineage(count in 1usize..8) {
        let mut db = Database::new();
        db.add_relation("R", 1);
        for i in 0..count {
            db.insert_endogenous("R", vec![(i as i64).into()]).unwrap();
        }
        let query = parse_program("Q() :- R(X).").unwrap();
        let result = evaluate(&query, &db);
        prop_assert_eq!(result.answers().len(), 1);
        let lineage = &result.answers()[0].lineage;
        prop_assert_eq!(lineage.num_clauses(), count);
        let tree = DTree::compile_full(lineage.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        let values = exaban_all(&tree);
        // Every fact is symmetric: Banzhaf value 1 (pivotal only when all
        // others are absent).
        for v in lineage.universe().iter() {
            prop_assert_eq!(values.value(v).unwrap().to_u64(), Some(1));
        }
    }
}

proptest! {
    /// AdaBan's exact ε stopping test `(1−ε)·U ≤ (1+ε)·L` agrees with a
    /// conservative f64 evaluation away from the decision boundary.
    #[test]
    fn error_condition_matches_f64(l in 0u64..1_000_000, span in 0u64..1_000_000, num in 0u64..100, den in 1u64..100) {
        let u = l + span;
        let eps = Rational::new(Int::from(num), Natural::from(den));
        let exact = ApproxInterval::new(Natural::from(l), Natural::from(u)).meets_epsilon(&eps);
        let e = num as f64 / den as f64;
        let lhs = (1.0 - e) * u as f64;
        let rhs = (1.0 + e) * l as f64;
        if (lhs - rhs).abs() > 1e-3 * (lhs.abs() + rhs.abs() + 1.0) {
            prop_assert_eq!(exact, lhs <= rhs);
        }
    }
}
