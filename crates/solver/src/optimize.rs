//! Branch-and-bound minimization: the crate's one optimization loop.
//!
//! A minimization is one search. Each model it finds tightens the
//! objective's bound in place (`Search::tighten`) and the same search
//! goes on, keeping its learned clauses, watch lists, activities, saved
//! phases and level-0 trail. The search's decision budget and deadline
//! span the whole minimization, and the optimum is the search's one final
//! refutation.

use crate::expr::Ix;
use crate::flatten::flatten_with_objective;
use crate::model::{Model, Solution};
use crate::search::{Search, SearchStats, SolveLimits};
use crate::Outcome;

/// Why a branch-and-bound minimization stopped, with what it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Minimized {
    /// A model with this objective value, and a refutation of anything
    /// better.
    Optimal(Solution, i64),
    /// The constraints themselves were refuted.
    Infeasible,
    /// The search ran out of budget or deadline: the best model found so
    /// far, if it found one, and no proof either way.
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

/// Minimize `objective` subject to the model, by branch-and-bound within
/// one search under `limits`: each model found adds a bound requiring a
/// strictly better value, and the search resumes under it.
pub fn minimize_with(
    model: &Model,
    objective: &Ix,
    limits: &SolveLimits,
) -> (Minimized, SearchStats) {
    let flat = flatten_with_objective(model, Some(objective));
    let terms = flat.objective.as_deref().expect("objective lowered");
    let mut search = Search::new(&flat, limits);
    let mut best: Option<(Solution, i64)> = None;
    let mut step = search.run();
    let stop = loop {
        match step {
            (Outcome::Sat(sol), raw) => {
                let sum = raw.expect("raw assignment accompanies Sat").eval_lin(terms);
                best = Some((sol, sum + flat.objective_constant));
                // Require strictly better: Σ ≤ sum - 1.
                step = if search.tighten(sum - 1) {
                    search.resume()
                } else {
                    (Outcome::Unsat, None)
                };
            }
            (Outcome::Unsat, _) => {
                break match best {
                    Some((sol, value)) => Minimized::Optimal(sol, value),
                    None => Minimized::Infeasible,
                }
            }
            (Outcome::Unknown, _) => break Minimized::Truncated(best),
        }
    };
    (stop, search.stats)
}

/// [`minimize_with`] under default limits. Returns the best solution found
/// together with its objective value.
pub fn minimize(model: &Model, objective: &Ix) -> Option<(Solution, i64)> {
    minimize_with(model, objective, &SolveLimits::default())
        .0
        .best()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Bx;

    /// Branch-and-bound rounds on [`weighted_pigeons`]: one per model
    /// found, and the last, which refutes anything better.
    const ROUNDS: usize = 7;

    /// Six pigeons, five holes, at most one pigeon per hole; minimize
    /// `−Σ (i + 1)·placed(i)`. Every variable tries `false` first, so the
    /// first model places nobody and each round places a little more.
    fn weighted_pigeons() -> (Model, Ix) {
        let mut m = Model::new();
        let p: Vec<Vec<_>> = (0..6)
            .map(|i| (0..5).map(|h| m.bool_var(format!("p{i}h{h}"))).collect())
            .collect();
        for h in 0..5 {
            let c = m.at_most_one(p.iter().map(|row| Bx::var(row[h])));
            m.require(c);
        }
        let placed: Vec<Ix> = p
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let any = m.any_of(row.iter().copied());
                let one = m.ite(any, Ix::lit(1), Ix::lit(0));
                m.scale(one, -(i as i64 + 1))
            })
            .collect();
        let obj = m.sum(placed);
        (m, obj)
    }

    #[test]
    fn rounds_resume_one_search_and_keep_what_it_learned() {
        let (m, obj) = weighted_pigeons();
        let limits = SolveLimits::default();
        let (result, stats) = minimize_with(&m, &obj, &limits);
        let Minimized::Optimal(_, value) = result else {
            panic!("{result:?}");
        };
        assert_eq!(value, -(2 + 3 + 4 + 5 + 6));

        // The same loop by hand: every clause learned before a tightening
        // is still in the arena after it.
        let flat = flatten_with_objective(&m, Some(&obj));
        let terms = flat.objective.as_deref().expect("objective lowered");
        let mut search = Search::new(&flat, &limits);
        let (mut step, mut bounds, mut carried) = (search.run(), Vec::new(), 0);
        while let (Outcome::Sat(_), Some(raw)) = step {
            let k = raw.eval_lin(terms) - 1;
            bounds.push(k);
            let before = search.learned_clauses();
            let open = search.tighten(k);
            let after = search.learned_clauses();
            assert_eq!(before[..], after[..before.len()], "bound {k}");
            carried += before.len();
            if !open {
                break;
            }
            step = search.resume();
        }
        assert_eq!(search.stats, stats);
        let rounds = bounds.len() + 1;
        assert_eq!(rounds, ROUNDS);
        assert!(carried > 0, "no clause was learned before a tightening");

        // Each round as a fresh search under every bound so far. One search
        // propagates less: it never re-propagates the root. Its decisions
        // are those of the fresh rounds until the last, whose pigeonhole
        // refutation runs under carried activities and takes 1 080 against
        // a fresh search's 1 045, so decisions are not compared.
        let mut fresh = SearchStats::default();
        for r in 0..rounds {
            let mut s = Search::new(&flat, &limits);
            if bounds[..r].iter().all(|&k| s.tighten(k)) {
                s.run();
            }
            fresh.absorb(s.stats);
        }
        assert!(
            stats.propagations < fresh.propagations,
            "{} propagations in one search, {} in fresh rounds",
            stats.propagations,
            fresh.propagations
        );
    }
}
