//! Differential property tests: the portfolio race must agree with the
//! sequential search on every verdict and every minimized objective value.
//!
//! A portfolio is only a scheduling change — whichever diversified worker
//! finishes first, satisfiability and optimal objective values are
//! properties of the formula, not the search order. These tests drive both
//! entry points over hundreds of random models (seeded xorshift — every
//! run explores the identical case set) and fail on any divergence. Which
//! *model* carries a SAT verdict may legitimately differ between workers,
//! so solutions are checked against the formula, not against each other.

mod common;

use common::{gen_model, Rng};
use lyra_solver::{
    solve, solve_portfolio, Ix, Minimized, Outcome, Portfolio, SearchStats, Sequential, SolveCtx,
    Solver, SolverConfig,
};

/// Worker counts exercised per case: a degenerate race, a typical race,
/// and one larger than the diversification table's named rows.
const WORKER_COUNTS: [usize; 3] = [1, 4, 6];

#[test]
fn portfolio_agrees_with_sequential_on_sat_unsat() {
    let mut rng = Rng::new(0x5eed_0003);
    let cfg = SolverConfig::default();
    for case in 0..256 {
        let m = gen_model(&mut rng);
        let sequential = solve(&m);
        let workers = WORKER_COUNTS[case % WORKER_COUNTS.len()];
        let (portfolio, stats) = solve_portfolio(&m, &cfg, workers);
        match (&sequential, &portfolio) {
            (Outcome::Sat(_), Outcome::Sat(sol)) => {
                assert!(
                    sol.satisfies(&m),
                    "case {case}: portfolio SAT model violates the formula"
                );
            }
            (Outcome::Unsat, Outcome::Unsat) => {}
            (Outcome::Unknown, _) | (_, Outcome::Unknown) => {} // budget, no verdict
            (seq, par) => panic!("case {case}: sequential={seq:?} portfolio={par:?}"),
        }
        assert_eq!(
            stats.workers_spawned, workers as u64,
            "case {case}: spawn accounting"
        );
    }
}

#[test]
fn portfolio_minimize_matches_sequential_objective() {
    let mut rng = Rng::new(0x5eed_0004);
    let ctx = SolveCtx::default();
    for case in 0..200 {
        let m = gen_model(&mut rng);
        let obj = Ix::sum(m.int_decls().map(|(id, _)| Ix::var(id)).collect());
        let (seq, _) = Sequential.minimize(&m, &obj, &ctx);
        let workers = WORKER_COUNTS[case % WORKER_COUNTS.len()];
        let (par, _) = Portfolio { workers }.minimize(&m, &obj, &ctx);
        match (&seq, &par) {
            (Minimized::Optimal(_, seq_v), Minimized::Optimal(par_sol, par_v)) => {
                assert_eq!(
                    seq_v, par_v,
                    "case {case}: minimized objective diverged (workers={workers})"
                );
                assert!(
                    par_sol.satisfies(&m),
                    "case {case}: portfolio optimum violates the formula"
                );
                assert_eq!(par_sol.eval_ix(&obj), *par_v, "case {case}");
            }
            (Minimized::Infeasible, Minimized::Infeasible) => {}
            (s, p) => panic!("case {case}: sequential={s:?} portfolio={p:?}"),
        }
    }
}

#[test]
fn portfolio_stats_never_double_count_a_win() {
    // On a model every worker solves instantly, the winner's counters must
    // be a plausible single-worker effort — not the sum over the race.
    let mut rng = Rng::new(0x5eed_0005);
    let cfg = SolverConfig::default();
    for _ in 0..32 {
        let m = gen_model(&mut rng);
        let (seq_outcome, seq_stats): (Outcome, SearchStats) = {
            let flat = lyra_solver::flatten(&m);
            let (o, _, s) = lyra_solver::solve_flat(&flat, &cfg, &[]);
            (o, s)
        };
        if matches!(seq_outcome, Outcome::Unknown) {
            continue;
        }
        let (_, par_stats) = solve_portfolio(&m, &cfg, 4);
        // Workers are diversified, so effort varies — but a winning worker
        // on these tiny models stays within a small factor of sequential,
        // whereas summing four workers would systematically inflate it.
        assert!(
            par_stats.decisions <= seq_stats.decisions * 4 + 64,
            "suspicious decision count: sequential={} portfolio={}",
            seq_stats.decisions,
            par_stats.decisions
        );
        assert_eq!(par_stats.workers_spawned, 4);
        assert_eq!(par_stats.workers_cancelled, 3);
    }
}
