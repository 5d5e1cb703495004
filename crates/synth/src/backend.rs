//! Solver backend: the native `lyra-solver` CDCL(T) search. The paper uses
//! Z3; this reproduction ships a dependency-free solver for the fragment of
//! SMT the encoding actually emits, and reports [`lyra_solver::SearchStats`]
//! with every verdict so the compile driver can surface solver effort.

use lyra_solver::decompose::{Decomposed, Minimized, Sequential, Solver};
use lyra_solver::{Ix, Model, Outcome, SearchStats, Solution, SolverConfig};

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
    solve_with_hints(model, objective, backend, &[])
}

/// [`solve`] with initial phase hints (a previous solution's variable
/// values). The solver tries the hinted values first, keeping successive
/// placements stable under small program changes (§8 "Synthesizing
/// incremental changes").
pub fn solve_with_hints(
    model: &Model,
    objective: Option<&Ix>,
    backend: &Backend,
    hints: &[(lyra_solver::BoolId, bool)],
) -> (Outcome, SearchStats) {
    solve_with_limits(
        model,
        objective,
        backend,
        hints,
        Default::default(),
        &SolveLimits::default(),
    )
}

/// Resource limits on one solve — the watchdog's knobs — plus the
/// decomposition toggle and the integer hints that ride along with them
/// into the engine's [`SolverConfig`].
#[derive(Debug, Clone, Default)]
pub struct SolveLimits {
    /// Wall-clock deadline; on expiry the search winds down with
    /// [`Outcome::Unknown`] (never a wrong verdict).
    pub deadline: Option<std::time::Instant>,
    /// Decision budget override (`None` keeps the solver default).
    pub max_decisions: Option<u64>,
    /// Restart aggressively (short interval, slow activity decay) — the
    /// configuration the degradation ladder uses for its retry, which
    /// tends to find *a* model quickly at the cost of proof power.
    pub aggressive_restarts: bool,
    /// Split the flattened formula into connected components and solve
    /// them independently (see `lyra_solver::decompose::Decomposed`).
    pub decomposition: bool,
    /// Integer value hints (a previous solution's entry-shard sizes): the
    /// solver branches to these values first where still feasible, so an
    /// incremental re-solve keeps table shards where the fleet already
    /// holds them — the placement half of O(delta) rollouts.
    pub int_hints: Vec<(lyra_solver::IntId, i64)>,
}

/// [`solve_with_hints`] under explicit [`SolveLimits`]. The
/// [`SolverStrategy`] is accepted and ignored (see its definition); pass
/// `Default::default()`.
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
    hints: &[(lyra_solver::BoolId, bool)],
    _strategy: SolverStrategy,
    limits: &SolveLimits,
) -> (Outcome, SearchStats) {
    match backend {
        Backend::Native => {
            let mut cfg = SolverConfig {
                phase_hints: hints
                    .iter()
                    .map(|&(id, v)| (id.index() as u32, v))
                    .collect(),
                int_hints: limits
                    .int_hints
                    .iter()
                    .map(|&(id, v)| (id.index() as u32, v))
                    .collect(),
                deadline: limits.deadline,
                ..Default::default()
            };
            if let Some(d) = limits.max_decisions {
                cfg.max_decisions = d;
            }
            if limits.aggressive_restarts {
                cfg.restart_interval = 32;
                cfg.activity_decay = 0.99;
            }
            let engine: &dyn Solver = if limits.decomposition {
                &Decomposed
            } else {
                &Sequential
            };
            match objective {
                None => engine.solve(model, &cfg),
                Some(obj) => {
                    let (res, stats) = engine.minimize(model, obj, &cfg);
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
    }
}

/// Native solver with an explicit configuration (used by tests).
pub fn solve_native_with(model: &Model, cfg: &SolverConfig) -> (Outcome, SearchStats) {
    let flat = lyra_solver::flatten(model);
    let (outcome, _, stats) = lyra_solver::solve_flat(&flat, cfg, &[]);
    (outcome, stats)
}

/// Check a solution against the model — shared sanity hook.
pub fn verify(model: &Model, sol: &Solution) -> bool {
    sol.satisfies(model)
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
    fn int_hints_steer_the_model_toward_the_previous_value() {
        // `x` can be anything in [0, 100]; unhinted extraction lands on the
        // lower bound. A hint at 73 must make the solver branch there first
        // and keep it — the mechanism churn-aware placement relies on.
        let mut m = Model::new();
        let x = m.int_var("x", 0, 100);
        m.require(Ix::var(x).ge(Ix::lit(0)));
        let limits = SolveLimits {
            int_hints: vec![(x, 73)],
            ..Default::default()
        };
        let (outcome, _) =
            solve_with_limits(&m, None, &Backend::Native, &[], Default::default(), &limits);
        assert_eq!(outcome.solution().unwrap().int(x), 73);

        // An infeasible hint (outside the domain) must not break the solve.
        let limits = SolveLimits {
            int_hints: vec![(x, 999)],
            ..Default::default()
        };
        let (outcome, _) =
            solve_with_limits(&m, None, &Backend::Native, &[], Default::default(), &limits);
        assert!(outcome.solution().is_some());
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
