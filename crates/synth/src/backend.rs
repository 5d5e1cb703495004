//! Solver backend: the native `lyra-solver` CDCL(T) search. The paper uses
//! Z3; this reproduction ships a dependency-free solver for the fragment of
//! SMT the encoding actually emits, and reports [`lyra_solver::SearchStats`]
//! with every verdict so the compile driver can surface solver effort.

use lyra_solver::{Ix, Minimized, Model, Outcome, SearchStats, SolverConfig};

/// Which solver to use. Only the native solver exists today; the enum is
/// kept (non-exhaustively) so an external SMT backend can slot in without
/// an API break.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum Backend {
    /// The native CDCL + bounds-propagation solver.
    #[default]
    Native,
}

/// Vestigial: the solver has one deterministic engine and nothing left to
/// select. The repository's benchmark (`benchmark/src/api.rs`, which PRs
/// may not edit) passes `SolverStrategy::default()` to
/// [`solve_with_limits`]; that call is the only reason this type exists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SolverStrategy {
    /// One deterministic search per solve.
    #[default]
    Sequential,
}

/// Solve `model`, optionally minimizing `objective`. Returns the verdict
/// together with the search statistics accumulated while reaching it.
pub fn solve(model: &Model, objective: Option<&Ix>, backend: &Backend) -> (Outcome, SearchStats) {
    solve_with_limits(
        model,
        objective,
        backend,
        &[],
        Default::default(),
        &SolveLimits::default(),
    )
}

/// The watchdog's limits on one solve, passed through to the search's
/// [`SolverConfig`].
#[derive(Debug, Clone, Default)]
pub struct SolveLimits {
    /// Wall-clock deadline; on expiry the search winds down with
    /// [`Outcome::Unknown`] (never a wrong verdict).
    pub deadline: Option<std::time::Instant>,
    /// Decision budget override (`None` keeps the solver default).
    pub max_decisions: Option<u64>,
}

/// [`solve`] under explicit [`SolveLimits`].
///
/// Two parameters are vestigial, accepted and ignored: `hints` (the search
/// takes no phase hints; pass `&[]`) and the [`SolverStrategy`] (pass
/// `Default::default()`). The repository's benchmark calls this function
/// with both, which is the only reason they are still in its signature.
///
/// A minimization truncated (deadline, decision budget) after finding at
/// least one model returns that model as [`Outcome::Sat`] — possibly
/// non-optimal, which is exactly the degraded-result contract. One
/// truncated before any model returns [`Outcome::Unknown`], not `Unsat`: a
/// spent budget proves nothing.
pub fn solve_with_limits(
    model: &Model,
    objective: Option<&Ix>,
    backend: &Backend,
    _hints: &[(lyra_solver::BoolId, bool)],
    _strategy: SolverStrategy,
    limits: &SolveLimits,
) -> (Outcome, SearchStats) {
    let Backend::Native = backend;
    let mut cfg = SolverConfig {
        deadline: limits.deadline,
        ..Default::default()
    };
    if let Some(d) = limits.max_decisions {
        cfg.max_decisions = d;
    }
    match objective {
        None => {
            let flat = lyra_solver::flatten(model);
            let (outcome, _, stats) = lyra_solver::solve_flat(&flat, &cfg, &[]);
            if let Outcome::Sat(ref s) = outcome {
                debug_assert!(s.satisfies(model), "solver returned a non-model");
            }
            (outcome, stats)
        }
        Some(obj) => {
            let (res, stats) = lyra_solver::minimize_with(model, obj, &cfg);
            let outcome = match res {
                Minimized::Optimal(sol, _) | Minimized::Truncated(Some((sol, _))) => {
                    Outcome::Sat(sol)
                }
                Minimized::Infeasible => Outcome::Unsat,
                Minimized::Truncated(None) => Outcome::Unknown,
            };
            (outcome, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_solver::Bx;

    fn tiny_model() -> (Model, lyra_solver::BoolId, lyra_solver::IntId) {
        let mut m = Model::new();
        let d = m.bool_var("d");
        let e = m.int_var("e", 0, 100);
        m.require(Bx::implies(Bx::var(d), Ix::var(e).ge(Ix::lit(40))));
        m.require(Bx::var(d));
        (m, d, e)
    }

    #[test]
    fn native_solves() {
        let (m, d, e) = tiny_model();
        let (outcome, _) = solve(&m, None, &Backend::Native);
        let sol = outcome.solution().unwrap();
        assert!(sol.bool(d));
        assert!(sol.int(e) >= 40);
    }

    #[test]
    fn stats_are_reported() {
        let (m, _, _) = tiny_model();
        let (_, stats) = solve(&m, None, &Backend::Native);
        // The tiny model must at least propagate something.
        assert!(stats.decisions + stats.propagations > 0);
    }

    #[test]
    fn minimize_reports_stats() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 100);
        m.require(Ix::var(x).ge(Ix::lit(17)));
        let (outcome, stats) = solve(&m, Some(&Ix::var(x)), &Backend::Native);
        let sol = outcome.solution().unwrap();
        assert_eq!(sol.int(x), 17);
        assert!(stats.decisions + stats.propagations > 0);
    }
}
