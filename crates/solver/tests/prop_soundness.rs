//! Property tests for the native solver: on randomly generated small models,
//! the solver's SAT/UNSAT verdict must agree with exhaustive enumeration, and
//! any produced solution must actually satisfy the model.
//!
//! Shared generators live in `tests/common` (seeded xorshift — every run
//! explores the identical case set).

mod common;

use common::{brute_force_sat, gen_model, Rng};
use lyra_solver::flatten::flatten_with_objective;
use lyra_solver::{
    minimize_with, solve, solve_flat, Ix, Minimized, Model, Outcome, Solution, SolverConfig,
};

#[test]
fn solver_agrees_with_brute_force() {
    let mut rng = Rng::new(0x5eed_0001);
    for case in 0..256 {
        let m = gen_model(&mut rng);
        let expected = brute_force_sat(&m);
        match solve(&m) {
            Outcome::Sat(sol) => {
                assert!(
                    expected,
                    "case {case}: solver said SAT but brute force disagrees"
                );
                assert!(
                    sol.satisfies(&m),
                    "case {case}: returned solution violates model"
                );
            }
            Outcome::Unsat => {
                assert!(
                    !expected,
                    "case {case}: solver said UNSAT but model is satisfiable"
                )
            }
            Outcome::Unknown => {} // budget exhausted — no verdict to check
        }
    }
}

#[test]
fn minimize_returns_feasible_minimum() {
    let mut rng = Rng::new(0x5eed_0002);
    for case in 0..128 {
        let m = gen_model(&mut rng);
        if !brute_force_sat(&m) {
            continue;
        }
        // Objective: sum of all integer variables.
        let mut m = m;
        let vars: Vec<Ix> = m.int_decls().map(|(id, _)| Ix::var(id)).collect();
        let obj = m.sum(vars);
        let (sol, v) = lyra_solver::minimize(&m, &obj)
            .unwrap_or_else(|| panic!("case {case}: minimize found nothing on a SAT model"));
        assert!(sol.satisfies(&m), "case {case}");
        assert_eq!(sol.eval_ix(&m, obj), v, "case {case}");
        // No feasible assignment has a smaller objective (brute force).
        let nb = m.num_bools();
        let domains: Vec<(i64, i64)> = m.int_decls().map(|(_, d)| (d.lo, d.hi)).collect();
        for mask in 0..(1usize << nb) {
            let bools: Vec<bool> = (0..nb).map(|i| mask >> i & 1 == 1).collect();
            let mut ints = vec![0i64; domains.len()];
            check_no_better(&m, &bools, &domains, &mut ints, 0, v, &obj, case);
        }
    }
}

/// Minimize an objective over every variable with coefficients of both
/// signs on the booleans, so that the first model is rarely the best and
/// the search tightens its bound more than once before the optimum.
#[test]
fn mixed_sign_minimization_reaches_the_brute_force_optimum() {
    let mut rng = Rng::new(0x5eed_0003);
    let cfg = SolverConfig::default();
    let (mut optimal, mut multi_round) = (0, 0);
    for case in 0..256 {
        let mut m = gen_model(&mut rng);
        let mut terms: Vec<Ix> = Vec::new();
        let bools: Vec<_> = m.bool_decls().map(|(id, _)| id).collect();
        let ints: Vec<_> = m.int_decls().map(|(id, _)| id).collect();
        for id in bools {
            let c = [-5, -3, -2, 2, 3, 5][rng.below(6) as usize];
            terms.push(m.scale(Ix::bool01(id), c));
        }
        for id in ints {
            let c = [-1, 1, 2][rng.below(3) as usize];
            terms.push(m.scale(Ix::var(id), c));
        }
        let obj = m.sum(terms);
        match (minimize_with(&m, &obj, &cfg).0, brute_force_min(&m, obj)) {
            (Minimized::Optimal(sol, v), Some(best)) => {
                assert!(sol.satisfies(&m), "case {case}");
                assert_eq!(sol.eval_ix(&m, obj), v, "case {case}");
                assert_eq!(v, best, "case {case}: solver minimum against brute force");
                optimal += 1;
                // The first round is this search; a first model worse than
                // the optimum means a second model, then a refutation.
                let first = solve_flat(&flatten_with_objective(&m, Some(&obj)), &cfg).0;
                let first = first.solution().expect("a satisfiable first round");
                multi_round += (sol.eval_ix(&m, obj) < first.eval_ix(&m, obj)) as u32;
            }
            (Minimized::Infeasible, None) => {}
            (result, best) => panic!("case {case}: {result:?} against brute force {best:?}"),
        }
    }
    assert!(optimal >= 150, "only {optimal} satisfiable cases");
    assert!(
        multi_round >= MULTI_ROUND_FLOOR,
        "only {multi_round} minimizations took three rounds or more"
    );
}

/// Cases of [`mixed_sign_minimization_reaches_the_brute_force_optimum`]
/// whose minimization must take at least three rounds: 126 of its 167
/// satisfiable cases do.
const MULTI_ROUND_FLOOR: u32 = 100;

/// The least objective value over every model, by enumeration.
fn brute_force_min(m: &Model, obj: Ix) -> Option<i64> {
    let nb = m.num_bools();
    let domains: Vec<(i64, i64)> = m.int_decls().map(|(_, d)| (d.lo, d.hi)).collect();
    let mut best = None;
    for mask in 0..(1usize << nb) {
        let bools: Vec<bool> = (0..nb).map(|i| mask >> i & 1 == 1).collect();
        let mut ints: Vec<i64> = domains.iter().map(|d| d.0).collect();
        loop {
            let sol = Solution::from_parts(bools.clone(), ints.clone());
            if sol.satisfies(m) {
                let v = sol.eval_ix(m, obj);
                best = Some(best.map_or(v, |b: i64| b.min(v)));
            }
            // Next integer assignment, odometer-style.
            let Some(i) = (0..ints.len()).find(|&i| ints[i] < domains[i].1) else {
                break;
            };
            ints[i] += 1;
            for (x, d) in ints[..i].iter_mut().zip(&domains) {
                *x = d.0;
            }
        }
    }
    best
}

#[allow(clippy::too_many_arguments)]
fn check_no_better(
    m: &Model,
    bools: &[bool],
    domains: &[(i64, i64)],
    ints: &mut Vec<i64>,
    idx: usize,
    best: i64,
    obj: &Ix,
    case: usize,
) {
    if idx == domains.len() {
        let sol = Solution::from_parts(bools.to_vec(), ints.clone());
        if sol.satisfies(m) {
            assert!(
                sol.eval_ix(m, *obj) >= best,
                "case {case}: brute force found objective {} < solver minimum {}",
                sol.eval_ix(m, *obj),
                best
            );
        }
        return;
    }
    for v in domains[idx].0..=domains[idx].1 {
        ints[idx] = v;
        check_no_better(m, bools, domains, ints, idx + 1, best, obj, case);
    }
}
