//! The [`Solver`] API: one dispatch point over the sequential search and
//! connected-component decomposition.
//!
//! ## Engines
//!
//! * [`Sequential`] — one deterministic CDCL(T) search;
//! * [`Decomposed`] — split the flat formula into connected components over
//!   variable sharing, solve the components independently (in parallel),
//!   and stitch the sub-assignments back together. Components are exact —
//!   two components share no variable — so the split is a pure win: the
//!   conjunction is satisfiable iff every component is, and any component
//!   refutation refutes the whole. When the formula is one component (or an
//!   objective / branch-and-bound bound couples everything), `Decomposed`
//!   falls back to [`Sequential`].
//!
//! Both are deterministic: a component's search does not depend on which
//! pool thread runs it or when, so the same formula yields the same
//! assignment on every run and every machine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::flatten::{flatten, flatten_with_objective, FlatModel, FlatVar, LinAtom};
use crate::model::{Model, Solution};
use crate::search::{solve_flat, RawAssignment, SearchStats, SolverConfig};
use crate::Outcome;

/// An always-active linear bound `Σ terms ≤ k` — the branch-and-bound
/// rounds' tightening constraints.
pub type BoundConstraint = (Vec<(i64, FlatVar)>, i64);

/// What one component solve produced: verdict, witness, and search stats.
type SolveResult = (Outcome, Option<RawAssignment>, SearchStats);

/// A solver engine: the single dispatch point `lyra-synth` calls instead of
/// matching on a strategy enum inline.
///
/// All engines agree on verdicts — SAT/UNSAT and optimal objective values
/// are properties of the formula, not the schedule — and differ only in how
/// the search is run (one searcher, or one per component).
pub trait Solver: Send + Sync {
    /// Engine name, for logs and summaries.
    fn name(&self) -> &'static str;

    /// Solve a flattened formula under `extra` always-active bounds.
    fn solve_flat(
        &self,
        flat: &FlatModel,
        extra: &[BoundConstraint],
        cfg: &SolverConfig,
    ) -> (Outcome, Option<RawAssignment>, SearchStats);

    /// Flatten and solve a model (decision problem).
    fn solve(&self, model: &Model, cfg: &SolverConfig) -> (Outcome, SearchStats) {
        let flat = flatten(model);
        let (outcome, _, stats) = self.solve_flat(&flat, &[], cfg);
        if let Outcome::Sat(ref s) = outcome {
            debug_assert!(s.satisfies(model), "engine returned a non-model");
        }
        (outcome, stats)
    }

    /// Minimize `objective` subject to the model, by branch-and-bound where
    /// each bound-tightening round goes through [`Solver::solve_flat`]. This
    /// is the crate's only branch-and-bound loop.
    fn minimize(
        &self,
        model: &Model,
        objective: &crate::expr::Ix,
        cfg: &SolverConfig,
    ) -> (Minimized, SearchStats) {
        let flat = flatten_with_objective(model, Some(objective));
        let obj_terms = flat.objective.clone().expect("objective lowered");
        let mut extra: Vec<BoundConstraint> = Vec::new();
        let mut best: Option<(Solution, i64)> = None;
        let mut total = SearchStats::default();
        loop {
            let (outcome, raw, stats) = self.solve_flat(&flat, &extra, cfg);
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
}

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

/// Minimize `objective` subject to the model's constraints with one
/// sequential search per branch-and-bound round and default limits.
///
/// Returns the best solution found together with its objective value.
pub fn minimize(model: &Model, objective: &crate::expr::Ix) -> Option<(Solution, i64)> {
    Sequential
        .minimize(model, objective, &SolverConfig::default())
        .0
        .best()
}

/// One deterministic CDCL(T) search.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sequential;

impl Solver for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn solve_flat(
        &self,
        flat: &FlatModel,
        extra: &[BoundConstraint],
        cfg: &SolverConfig,
    ) -> (Outcome, Option<RawAssignment>, SearchStats) {
        solve_flat(flat, cfg, extra)
    }
}

/// Split the formula into connected components over variable sharing and
/// solve them independently; fall back to [`Sequential`] when the formula
/// does not decompose (or an objective/bound couples everything).
#[derive(Debug, Clone, Copy, Default)]
pub struct Decomposed;

/// Threads the component pool may use: the machine's available
/// parallelism, capped at 8.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Union-find with path halving over the unified variable id space:
/// SAT variable `v` ↦ `v`, integer variable `i` ↦ `num_sat_vars + i`.
struct UnionFind(Vec<u32>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n as u32).collect())
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.0[x as usize] != x {
            self.0[x as usize] = self.0[self.0[x as usize] as usize];
            x = self.0[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra.max(rb) as usize] = ra.min(rb);
        }
    }
}

fn unified_id(flat: &FlatModel, v: FlatVar) -> u32 {
    match v {
        FlatVar::Bool(b) => b,
        FlatVar::Int(i) => flat.num_sat_vars as u32 + i,
    }
}

/// One connected component of the formula, remapped to a dense local
/// variable space.
struct SubProblem {
    flat: FlatModel,
    /// Global SAT variable per local SAT index.
    bools: Vec<u32>,
    /// Global integer variable per local integer index.
    ints: Vec<u32>,
}

/// Partition `flat` into connected components over variable sharing.
/// Returns `None` when the formula is a single component (no win).
fn split_components(flat: &FlatModel) -> Option<Vec<SubProblem>> {
    let n_sat = flat.num_sat_vars;
    let n_int = flat.int_bounds.len();
    let mut uf = UnionFind::new(n_sat + n_int);
    for cl in &flat.clauses {
        for w in cl.windows(2) {
            uf.union(w[0].var(), w[1].var());
        }
    }
    for atom in &flat.atoms {
        for &(_, v) in &atom.terms {
            uf.union(atom.var, unified_id(flat, v));
        }
    }
    // Group constrained variables by component root, in deterministic
    // (ascending-root) order.
    let mut roots: Vec<u32> = Vec::new();
    let mut comp_of_root: HashMap<u32, usize> = HashMap::new();
    let mut comp_index = |root: u32, roots: &mut Vec<u32>| -> usize {
        *comp_of_root.entry(root).or_insert_with(|| {
            roots.push(root);
            roots.len() - 1
        })
    };
    let mut clause_comp: Vec<Option<usize>> = Vec::with_capacity(flat.clauses.len());
    for cl in &flat.clauses {
        clause_comp.push(cl.first().map(|l| comp_index(uf.find(l.var()), &mut roots)));
    }
    let atom_comp: Vec<usize> = flat
        .atoms
        .iter()
        .map(|a| comp_index(uf.find(a.var), &mut roots))
        .collect();
    if roots.len() <= 1 {
        return None;
    }
    // Collect each component's variables (ascending, so layouts are
    // deterministic) and build the remapped sub-formulas.
    let mut subs: Vec<SubProblem> = roots
        .iter()
        .map(|_| SubProblem {
            flat: FlatModel::default(),
            bools: Vec::new(),
            ints: Vec::new(),
        })
        .collect();
    let mut sat_local: Vec<u32> = vec![u32::MAX; n_sat];
    let mut int_local: Vec<u32> = vec![u32::MAX; n_int];
    for v in 0..n_sat as u32 {
        if let Some(&ci) = comp_of_root.get(&uf.find(v)) {
            sat_local[v as usize] = subs[ci].bools.len() as u32;
            subs[ci].bools.push(v);
        }
    }
    for i in 0..n_int as u32 {
        if let Some(&ci) = comp_of_root.get(&uf.find(n_sat as u32 + i)) {
            int_local[i as usize] = subs[ci].ints.len() as u32;
            subs[ci].flat.int_bounds.push(flat.int_bounds[i as usize]);
            subs[ci].ints.push(i);
        }
    }
    for sub in &mut subs {
        sub.flat.num_sat_vars = sub.bools.len();
        // Raw merge never projects through `extract`, but keep the model
        // prefix fields coherent for debugging.
        sub.flat.num_model_bools = sub.bools.len();
        sub.flat.num_model_ints = sub.ints.len();
    }
    let map_lit = |l: crate::flatten::Lit| {
        let local = sat_local[l.var() as usize];
        if l.is_neg() {
            crate::flatten::Lit::neg(local)
        } else {
            crate::flatten::Lit::pos(local)
        }
    };
    let map_var = |v: FlatVar| match v {
        FlatVar::Bool(b) => FlatVar::Bool(sat_local[b as usize]),
        FlatVar::Int(i) => FlatVar::Int(int_local[i as usize]),
    };
    for (cl, comp) in flat.clauses.iter().zip(&clause_comp) {
        if let Some(ci) = comp {
            subs[*ci]
                .flat
                .clauses
                .push(cl.iter().map(|&l| map_lit(l)).collect());
        }
    }
    for (atom, &ci) in flat.atoms.iter().zip(&atom_comp) {
        let sub = &mut subs[ci].flat;
        let idx = sub.atoms.len();
        let var = sat_local[atom.var as usize];
        sub.atoms.push(LinAtom {
            var,
            terms: atom.terms.iter().map(|&(c, v)| (c, map_var(v))).collect(),
            k: atom.k,
        });
        sub.atom_of_var.insert(var, idx);
    }
    Some(subs)
}

impl Solver for Decomposed {
    fn name(&self) -> &'static str {
        "decomposed"
    }

    fn solve_flat(
        &self,
        flat: &FlatModel,
        extra: &[BoundConstraint],
        cfg: &SolverConfig,
    ) -> (Outcome, Option<RawAssignment>, SearchStats) {
        // Objectives and branch-and-bound bounds couple otherwise-independent
        // variables; the monolithic engine handles those rounds.
        if flat.objective.is_some() || !extra.is_empty() {
            return Sequential.solve_flat(flat, extra, cfg);
        }
        if flat.clauses.iter().any(|c| c.is_empty()) {
            return (Outcome::Unsat, None, SearchStats::default());
        }
        let Some(subs) = split_components(flat) else {
            return Sequential.solve_flat(flat, extra, cfg);
        };
        // Solve components in parallel, each with the sequential engine.
        // They share `cfg`'s deadline, so all wind down together.
        let results: Vec<Mutex<Option<SolveResult>>> =
            subs.iter().map(|_| Mutex::new(None)).collect();
        // Hints arrive in *global* variable indices; each component solves
        // in its own dense local space, so project the hints through the
        // component's variable map (both lists are ascending — binary
        // search). Without this, stability hints silently land on the
        // wrong variables whenever decomposition kicks in.
        let sub_cfgs: Vec<SolverConfig> = subs
            .iter()
            .map(|sub| SolverConfig {
                phase_hints: cfg
                    .phase_hints
                    .iter()
                    .filter_map(|&(g, ph)| sub.bools.binary_search(&g).ok().map(|l| (l as u32, ph)))
                    .collect(),
                int_hints: cfg
                    .int_hints
                    .iter()
                    .filter_map(|&(g, t)| sub.ints.binary_search(&g).ok().map(|l| (l as u32, t)))
                    .collect(),
                ..cfg.clone()
            })
            .collect();
        let next = AtomicUsize::new(0);
        let pool = default_workers().min(subs.len());
        std::thread::scope(|scope| {
            for _ in 0..pool {
                let (subs, results, next, sub_cfgs) = (&subs, &results, &next, &sub_cfgs);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= subs.len() {
                        return;
                    }
                    let solved = Sequential.solve_flat(&subs[i].flat, &[], &sub_cfgs[i]);
                    *results[i]
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(solved);
                });
            }
        });
        // Stitch: UNSAT anywhere refutes the conjunction; Unknown anywhere
        // (budget/deadline) leaves the verdict open; otherwise merge
        // the sub-assignments over lower-bound defaults (unconstrained
        // variables belong to no component).
        let mut total = SearchStats::default();
        let mut sat = vec![false; flat.num_sat_vars];
        let mut ints: Vec<i64> = flat.int_bounds.iter().map(|b| b.0).collect();
        let mut unknown = false;
        for (sub, slot) in subs.iter().zip(&results) {
            let solved = slot
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .take();
            let Some((outcome, raw, stats)) = solved else {
                unknown = true;
                continue;
            };
            total.absorb(stats);
            match outcome {
                Outcome::Unsat => return (Outcome::Unsat, None, total),
                Outcome::Unknown => unknown = true,
                Outcome::Sat(_) => {
                    let raw = raw.expect("raw assignment accompanies Sat");
                    for (local, &global) in sub.bools.iter().enumerate() {
                        sat[global as usize] = raw.sat[local];
                    }
                    for (local, &global) in sub.ints.iter().enumerate() {
                        ints[global as usize] = raw.ints[local];
                    }
                }
            }
        }
        if unknown {
            return (Outcome::Unknown, None, total);
        }
        let merged = RawAssignment { sat, ints };
        let sol = merged.extract(flat);
        (Outcome::Sat(sol), Some(merged), total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Bx, Ix};

    /// Two structurally independent blocks in one model: a chain of
    /// implications and an integer budget.
    fn two_block_model(unsat_second: bool) -> Model {
        let mut m = Model::new();
        let vs: Vec<_> = (0..5).map(|i| m.bool_var(format!("a{i}"))).collect();
        for w in vs.windows(2) {
            m.require(Bx::implies(Bx::var(w[0]), Bx::var(w[1])));
        }
        m.require(Bx::var(vs[0]));
        let x = m.int_var("x", 0, 10);
        let y = m.int_var("y", 0, 10);
        m.require(
            Ix::var(x)
                .add(Ix::var(y))
                .ge(Ix::lit(if unsat_second { 25 } else { 15 })),
        );
        m
    }

    #[test]
    fn decomposed_agrees_sat() {
        let m = two_block_model(false);
        let cfg = SolverConfig::default();
        let (o, _) = Decomposed.solve(&m, &cfg);
        let sol = o.solution().expect("both blocks satisfiable");
        assert!(sol.satisfies(&m));
    }

    #[test]
    fn decomposed_agrees_unsat() {
        let m = two_block_model(true);
        let cfg = SolverConfig::default();
        let (seq, _) = Sequential.solve(&m, &cfg);
        let (dec, _) = Decomposed.solve(&m, &cfg);
        assert_eq!(seq, Outcome::Unsat);
        assert_eq!(dec, Outcome::Unsat);
    }

    #[test]
    fn split_finds_components() {
        let m = two_block_model(false);
        let flat = flatten(&m);
        let subs = split_components(&flat).expect("two independent blocks");
        assert!(subs.len() >= 2, "got {} components", subs.len());
        // Every constrained variable lands in exactly one component.
        let mapped: usize = subs.iter().map(|s| s.bools.len()).sum();
        assert!(mapped <= flat.num_sat_vars);
    }

    #[test]
    fn single_component_falls_back() {
        let mut m = Model::new();
        let a = m.bool_var("a");
        let b = m.bool_var("b");
        m.require(Bx::or(vec![Bx::var(a), Bx::var(b)]));
        let flat = flatten(&m);
        // The TRUE-constant variable forms its own component, but the
        // or-clause couples a, b, and the Tseitin node.
        let subs = split_components(&flat);
        if let Some(subs) = &subs {
            assert!(subs.len() >= 2);
        }
        let (o, _) = Decomposed.solve(&m, &SolverConfig::default());
        assert!(o.solution().expect("trivially SAT").satisfies(&m));
    }

    #[test]
    fn engines_agree_on_random_models() {
        // Seeded differential over mixed bool/int models with several
        // independent groups; a root-level suite does the same end-to-end
        // through the compiler.
        let mut seed = 0x5eed_dec0_u64;
        let mut rng = move || {
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for case in 0..60 {
            let mut m = Model::new();
            let groups = 2 + (rng() % 3) as usize;
            for g in 0..groups {
                let bs: Vec<_> = (0..3).map(|i| m.bool_var(format!("g{g}b{i}"))).collect();
                let x = m.int_var(format!("g{g}x"), 0, 8);
                m.require(Bx::or(bs.iter().map(|&b| Bx::var(b)).collect()));
                if rng() % 2 == 0 {
                    m.require(Bx::implies(
                        Bx::var(bs[0]),
                        Ix::var(x).ge(Ix::lit((rng() % 12) as i64)),
                    ));
                }
                if rng() % 3 == 0 {
                    m.require(Bx::var(bs[0]));
                }
                if rng() % 4 == 0 {
                    m.require(Ix::var(x).le(Ix::lit((rng() % 6) as i64)));
                }
            }
            let cfg = SolverConfig::default();
            let (seq, _) = Sequential.solve(&m, &cfg);
            let (dec, _) = Decomposed.solve(&m, &cfg);
            match (&seq, &dec) {
                (Outcome::Sat(_), Outcome::Sat(s)) => {
                    assert!(s.satisfies(&m), "case {case}: stitched non-model")
                }
                (Outcome::Unsat, Outcome::Unsat) => {}
                other => panic!("case {case}: engines disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn minimize_via_trait_matches_direct() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 100);
        let y = m.int_var("y", 0, 100);
        m.require(Ix::var(x).add(Ix::var(y)).ge(Ix::lit(23)));
        let obj = Ix::var(x).add(Ix::var(y));
        let cfg = SolverConfig::default();
        for engine in [&Sequential as &dyn Solver, &Decomposed] {
            let (min, _) = engine.minimize(&m, &obj, &cfg);
            assert!(
                matches!(min, Minimized::Optimal(_, 23)),
                "engine {}: {min:?}",
                engine.name()
            );
        }
    }
}
