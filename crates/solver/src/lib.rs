#![warn(missing_docs)]
//! # lyra-solver — a native constraint solver for the Lyra compiler
//!
//! The Lyra paper (SIGCOMM 2020) encodes program placement and chip resource
//! constraints as an SMT formula and solves it with Z3. This crate provides a
//! from-scratch, dependency-free solver for the *fragment of SMT Lyra
//! actually needs*: boolean structure (and/or/not/implies/iff/ite) over
//! boolean variables and **linear comparisons over bounded integers**, plus
//! integer `ite`, ceiling division by constants, and linear objectives.
//!
//! The solver is deliberately simple and robust (in the spirit of smoltcp):
//!
//! * a [`Model`] is one arena: composite expressions are fixed-size nodes in
//!   one `Vec`, built by `Model` methods ([`Model::and`],
//!   [`Model::implies`], [`Model::sum`], …) and named by `Copy` handles
//!   ([`Bx`], [`Ix`]); constants, variables and single-term linear forms
//!   need no node — no macros, no type-level tricks;
//! * [`flatten()`] lowers a [`Model`] to CNF clauses (Tseitin transformation)
//!   plus normalized linear atoms (`Σ cᵢ·vᵢ ≤ k`);
//! * [`solve`] runs a CDCL-style search: two-watched-literal unit
//!   propagation, 1-UIP conflict analysis with non-chronological
//!   backjumping, activity-ordered decisions with phase saving, geometric
//!   restarts, bounds-consistency propagation on active linear atoms, and
//!   interval splitting for any integers left unfixed;
//! * [`minimize_with`] (and [`minimize`], under default limits) runs the
//!   crate's one branch-and-bound loop inside one search: each model found
//!   tightens the objective's bound in place and the search resumes.
//!
//! ## Clause storage
//!
//! A [`FlatModel`]'s clauses are one [`flatten::Clauses`] arena: every
//! literal back to back in one `Vec<Lit>`, plus a `u32` offset per clause,
//! never a `Vec` per clause. Each search copies the arena with two
//! `memcpy`s and appends learned clauses to its copy; the watch lists are
//! one buffer of `u32` clause indices, each list sized by one counting
//! pass before it is filled. A [`minimize_with`] is one search, so it does this once: a
//! tightened bound keeps the clauses, learned ones included, and the watch
//! lists as they stand.
//!
//! A search has two limits, a decision budget and a deadline
//! ([`SolverConfig`]); everything else about it is fixed. Both span a
//! whole minimization.
//!
//! Every entry point reports [`SearchStats`] (decisions, propagations,
//! conflicts, learned clauses, restarts) so the compile driver can expose
//! solver effort per compilation.
//!
//! ## Example
//!
//! ```
//! use lyra_solver::{Model, Bx, Ix};
//!
//! let mut m = Model::new();
//! let deploy_a = m.bool_var("deploy_a");
//! let deploy_b = m.bool_var("deploy_b");
//! let entries = m.int_var("entries", 0, 4096);
//!
//! // The table must be deployed somewhere.
//! let somewhere = m.or([Bx::var(deploy_a), Bx::var(deploy_b)]);
//! m.require(somewhere);
//! // If deployed on A, at least 1024 entries must fit there.
//! let fits = m.ge(Ix::var(entries), Ix::lit(1024));
//! let on_a = m.implies(Bx::var(deploy_a), fits);
//! m.require(on_a);
//!
//! let sol = lyra_solver::solve(&m).solution().expect("satisfiable");
//! assert!(sol.bool(deploy_a) || sol.bool(deploy_b));
//! assert!(sol.satisfies(&m) && sol.eval_bx(&m, on_a));
//! ```

pub mod expr;
pub mod flatten;
pub mod model;
pub mod optimize;
pub mod search;

pub use expr::{Bx, Ix, VarRef};
pub use flatten::{flatten, FlatModel, FlatVar};
pub use model::{BoolId, IntId, Model, Solution};
pub use optimize::{minimize, minimize_with, Minimized};
pub use search::{solve, solve_flat, RawAssignment, SearchStats, SolverConfig};

/// Outcome of a solver invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A satisfying assignment was found.
    Sat(Solution),
    /// The formula is unsatisfiable.
    Unsat,
    /// The search budget (decision limit) was exhausted.
    Unknown,
}

impl Outcome {
    /// Returns the solution if the outcome is [`Outcome::Sat`].
    pub fn solution(self) -> Option<Solution> {
        match self {
            Outcome::Sat(s) => Some(s),
            _ => None,
        }
    }

    /// True if the outcome is [`Outcome::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat(_))
    }
}
