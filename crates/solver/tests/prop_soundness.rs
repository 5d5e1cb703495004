//! Property tests for the native solver: on randomly generated small models,
//! the solver's SAT/UNSAT verdict must agree with exhaustive enumeration, and
//! any produced solution must actually satisfy the model.
//!
//! Shared generators live in `tests/common` (seeded xorshift — every run
//! explores the identical case set).

mod common;

use common::{brute_force_sat, gen_model, Rng};
use lyra_solver::{solve, Ix, Model, Outcome, Solution};

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
