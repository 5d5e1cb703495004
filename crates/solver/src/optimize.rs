//! Branch-and-bound minimization over [`solve_flat`]: the crate's one
//! optimization loop.

use crate::expr::Ix;
use crate::flatten::{flatten_with_objective, FlatVar};
use crate::model::{Model, Solution};
use crate::search::{solve_flat, SearchStats, SolverConfig};
use crate::Outcome;

/// An always-active linear bound `Σ terms ≤ k` — the branch-and-bound
/// rounds' tightening constraints.
pub type BoundConstraint = (Vec<(i64, FlatVar)>, i64);

/// Why a branch-and-bound minimization stopped, with what it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Minimized {
    /// A model with this objective value, and a refutation of anything
    /// better.
    Optimal(Solution, i64),
    /// The constraints themselves were refuted.
    Infeasible,
    /// A round ran out of budget or deadline: the best model
    /// found so far, if any round found one, and no proof either way.
    Truncated(Option<(Solution, i64)>),
}

impl Minimized {
    /// The best model found and its objective value, proved optimal or not.
    pub fn best(self) -> Option<(Solution, i64)> {
        match self {
            Minimized::Optimal(sol, value) => Some((sol, value)),
            Minimized::Infeasible => None,
            Minimized::Truncated(best) => best,
        }
    }
}

/// Minimize `objective` subject to the model, by branch-and-bound: each
/// round is one [`solve_flat`] under `cfg` with an added bound requiring a
/// strictly better value than the last model's.
pub fn minimize_with(
    model: &Model,
    objective: &Ix,
    cfg: &SolverConfig,
) -> (Minimized, SearchStats) {
    let flat = flatten_with_objective(model, Some(objective));
    let obj_terms = flat.objective.clone().expect("objective lowered");
    let mut extra: Vec<BoundConstraint> = Vec::new();
    let mut best: Option<(Solution, i64)> = None;
    let mut total = SearchStats::default();
    loop {
        let (outcome, raw, stats) = solve_flat(&flat, cfg, &extra);
        total.absorb(stats);
        let stop = match outcome {
            Outcome::Sat(_) => {
                let raw = raw.expect("raw assignment accompanies Sat");
                let value = raw.eval_lin(&obj_terms) + flat.objective_constant;
                best = Some((raw.extract(&flat), value));
                // Require strictly better: Σ ≤ value - constant - 1.
                extra.push((obj_terms.clone(), value - flat.objective_constant - 1));
                continue;
            }
            Outcome::Unsat => match best {
                Some((sol, value)) => Minimized::Optimal(sol, value),
                None => Minimized::Infeasible,
            },
            Outcome::Unknown => Minimized::Truncated(best),
        };
        return (stop, total);
    }
}

/// [`minimize_with`] under default limits. Returns the best solution found
/// together with its objective value.
pub fn minimize(model: &Model, objective: &Ix) -> Option<(Solution, i64)> {
    minimize_with(model, objective, &SolverConfig::default())
        .0
        .best()
}
