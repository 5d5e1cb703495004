//! CDCL(T)-style search over a [`FlatModel`].
//!
//! The boolean core is conflict-driven clause learning: two-watched-literal
//! unit propagation, 1-UIP conflict analysis with non-chronological
//! backjumping, activity-ordered decisions with phase saving, and geometric
//! restarts. The theory side is bounds-consistency propagation over the
//! linear atoms the current boolean assignment activates; theory conflicts
//! and theory-propagated literals are handled conservatively (they block
//! resolution, falling back to a decision-negation clause, which keeps
//! learning sound without tracking full theory explanations).
//!
//! Integers left unfixed once every boolean is assigned are resolved by
//! interval splitting, chronologically; exhausting the splits counts as a
//! theory conflict for the boolean layer.

use crate::flatten::{flatten, Clauses, FlatModel, FlatVar, Lit};
use crate::model::{Model, Solution};
use crate::Outcome;

/// The two limits on one search — a whole minimization is one search.
/// Everything else about it is fixed.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Abort with [`Outcome::Unknown`] after this many decisions.
    pub max_decisions: u64,
    /// Wall-clock deadline. Checked before the search starts and polled
    /// (decimated — every `DEADLINE_POLL_MASK`+1 propagation passes, to
    /// keep `Instant::now` off the hot path) during propagation; on expiry
    /// the search winds down with [`Outcome::Unknown`].
    pub deadline: Option<std::time::Instant>,
}

/// The deadline is polled when `passes & DEADLINE_POLL_MASK == 0` — once
/// every 64 propagation passes. Propagation passes are short (micro- to
/// low-milliseconds), so expiry is still observed within single-digit
/// milliseconds while `Instant::now` stays off the fast path.
const DEADLINE_POLL_MASK: u64 = 63;

/// Conflicts before the first restart; the interval grows by half at each.
const RESTART_INTERVAL: u64 = 128;

/// Variable-activity decay applied at each conflict.
const ACTIVITY_DECAY: f64 = 0.95;

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_decisions: 5_000_000,
            deadline: None,
        }
    }
}

/// Counters describing a finished search.
///
/// Returned by every solver entry point, over every branch-and-bound
/// round for [`crate::minimize_with`]; the compile driver surfaces them on
/// `CompileOutput` so long solves are observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Boolean and integer decisions made.
    pub decisions: u64,
    /// Literals assigned by propagation.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Clauses learned.
    pub learned: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Always 0: the learned-clause database is never reduced. Kept, like
    /// `workers_spawned`, only because the repository's benchmark reads it.
    pub reductions: u64,
    /// Always 0: no engine races workers. The field is read by the
    /// repository's benchmark, which is the only reason it exists.
    pub workers_spawned: u64,
    /// Always 0, kept for the same reason as `workers_spawned`.
    pub workers_cancelled: u64,
    /// Linear constraints visited by bounds propagation (one visit = one
    /// recomputation of a constraint's slack and the bounds it implies).
    pub linear_visits: u64,
    /// Integer bounds tightened (by propagation or by an integer split).
    pub bound_updates: u64,
    /// Negative-cycle checks run by the creep guard.
    pub creep_checks: u64,
}

impl SearchStats {
    /// Accumulate another run's counters into this one (used when a solve
    /// is a sequence of searches, e.g. a quotient attempt and then the
    /// full model).
    pub fn absorb(&mut self, other: SearchStats) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.learned += other.learned;
        self.restarts += other.restarts;
        self.linear_visits += other.linear_visits;
        self.bound_updates += other.bound_updates;
        self.creep_checks += other.creep_checks;
    }
}

/// Solve a model with default configuration.
pub fn solve(model: &Model) -> Outcome {
    let flat = flatten(model);
    let (outcome, _, _) = solve_flat(&flat, &SolverConfig::default());
    finish(model, outcome)
}

fn finish(model: &Model, outcome: Outcome) -> Outcome {
    if let Outcome::Sat(ref s) = outcome {
        debug_assert!(s.satisfies(model), "solver returned a non-model");
    }
    outcome
}

/// Raw (flat) assignment: every SAT variable and every integer variable.
#[derive(Debug, Clone)]
pub struct RawAssignment {
    /// SAT variable values.
    pub sat: Vec<bool>,
    /// Integer variable values (model + auxiliary).
    pub ints: Vec<i64>,
}

impl RawAssignment {
    /// Evaluate a linear combination under this assignment.
    pub fn eval_lin(&self, terms: &[(i64, FlatVar)]) -> i64 {
        terms
            .iter()
            .map(|&(c, v)| {
                c * match v {
                    FlatVar::Bool(b) => self.sat[b as usize] as i64,
                    FlatVar::Int(i) => self.ints[i as usize],
                }
            })
            .sum()
    }

    /// Project onto the source model's variables.
    pub fn extract(&self, flat: &FlatModel) -> Solution {
        Solution::from_parts(
            self.sat[..flat.num_model_bools].to_vec(),
            self.ints[..flat.num_model_ints].to_vec(),
        )
    }
}

/// Solve a flattened model. Returns the outcome projected onto model
/// variables, the raw assignment when satisfiable, and the search counters.
pub fn solve_flat(
    flat: &FlatModel,
    cfg: &SolverConfig,
) -> (Outcome, Option<RawAssignment>, SearchStats) {
    let mut s = Search::new(flat, cfg);
    let (outcome, raw) = s.run();
    (outcome, raw, s.stats)
}

/// Why a SAT variable holds its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// A decision.
    Decision,
    /// Unit-propagated by clause index.
    Clause(usize),
    /// Forced by linear (theory) propagation — no clause explanation.
    Theory,
}

#[derive(Debug, Clone, Copy)]
enum TrailItem {
    Sat(u32),
    IntLo(u32, i64),
    IntHi(u32, i64),
    Activated,
}

/// An integer split decision (the post-boolean phase). The split point
/// `mid` partitions the interval into `[lo, mid]`, tried first, and
/// `[mid+1, hi]`; `flipped` says whether the upper half has been tried
/// after a conflict.
#[derive(Debug, Clone, Copy)]
struct IntSplit {
    var: u32,
    mid: i64,
    flipped: bool,
    trail_mark: usize,
}

enum Conflict {
    /// A clause became empty.
    Clause(usize),
    /// A linear constraint is unsatisfiable under current bounds.
    Theory,
}

/// An active linear constraint `sign · Σ terms ≤ k`. The terms are borrowed
/// from the flat model's atom (or its objective, for a bound set by
/// [`Search::tighten`]); `sign` is −1 for an atom assigned false, whose
/// negation `−Σ ≤ −k − 1` is active.
#[derive(Clone, Copy)]
struct ActiveLin<'a> {
    terms: &'a [(i64, FlatVar)],
    sign: i64,
    k: i64,
}

/// Active-constraint indices whose inputs changed since their last visit:
/// a bitset, so they come back out in ascending index order.
#[derive(Default)]
struct DirtySet {
    words: Vec<u64>,
}

impl DirtySet {
    fn insert(&mut self, i: usize) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= bit;
    }

    /// Remove and return the smallest member `≥ from`.
    fn take_from(&mut self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.words.get(w)? & (!0u64 << (from % 64));
        while word == 0 {
            w += 1;
            word = *self.words.get(w)?;
        }
        self.words[w] &= !(word & word.wrapping_neg());
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// Indexed binary max-heap of SAT variables, ordered by activity with the
/// lower variable index first among equals — the order a linear scan for
/// "highest activity, first found" visits them in.
struct VarHeap {
    heap: Vec<u32>,
    /// Position of each variable in `heap`; `u32::MAX` when absent.
    pos: Vec<u32>,
}

impl VarHeap {
    /// A heap holding every variable `0..act.len()`.
    fn full(act: &[f64]) -> Self {
        let n = act.len() as u32;
        let mut h = VarHeap {
            heap: (0..n).collect(),
            pos: (0..n).collect(),
        };
        h.rebuild(act);
        h
    }

    fn before(act: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (act[a as usize], act[b as usize]);
        x > y || (x == y && a < b)
    }

    fn place(&mut self, i: usize, v: u32) {
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(act, v, self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, v);
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len()
                && Self::before(act, self.heap[child + 1], self.heap[child])
            {
                child += 1;
            }
            if !Self::before(act, self.heap[child], v) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, v);
    }

    /// Restore the heap order after activities changed wholesale.
    fn rebuild(&mut self, act: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, act);
        }
    }

    /// Insert `v` unless it is already present.
    fn insert(&mut self, v: u32, act: &[f64]) {
        if self.pos[v as usize] == u32::MAX {
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, act);
        }
    }

    /// `v`'s activity went up: move it toward the root if it is present.
    fn raised(&mut self, v: u32, act: &[f64]) {
        let i = self.pos[v as usize];
        if i != u32::MAX {
            self.sift_up(i as usize, act);
        }
    }

    fn pop(&mut self, act: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap has a first element");
        self.pos[top as usize] = u32::MAX;
        if top != last {
            self.place(0, last);
            self.sift_down(0, act);
        }
        Some(top)
    }
}

#[cfg(test)]
thread_local! {
    /// Searches on this thread propagate with the full-sweep reference
    /// schedule (see [`Search::propagate_linear_full_sweep`]).
    static FULL_SWEEP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Visits one [`Search::propagate_linear`] call may spend per active
/// constraint (plus a fixed allowance) before the creep guard checks for a
/// negative cycle. A call that converges normally visits each constraint a
/// handful of times; one that creeps visits them once per unit of domain.
const CREEP_VISITS_PER_CONSTRAINT: usize = 8;
const CREEP_VISITS_BASE: usize = 64;

/// One CDCL(T) search over a flat model. [`Search::run`] finds a model or
/// refutes the formula; a minimization then [`tighten`](Search::tighten)s
/// the objective's bound and [`resume`](Search::resume)s the same search.
pub(crate) struct Search<'a> {
    flat: &'a FlatModel,
    cfg: &'a SolverConfig,
    /// Counters since construction, over every round of a minimization.
    pub(crate) stats: SearchStats,
    /// -1 unassigned, 0 false, 1 true.
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// Watched literals: literal code → clause indices watching it.
    watches: Watches,
    /// Original + learned clauses; first two positions are watched.
    clauses: Clauses,
    num_original_clauses: usize,
    trail: Vec<TrailItem>,
    /// Trail mark at the start of each decision level (level 0 excluded).
    level_marks: Vec<usize>,
    /// Active linear constraints, a stack in the order they were
    /// activated: atoms as their variables were assigned, and an objective
    /// bound at level 0 at each [`Search::tighten`].
    active: Vec<ActiveLin<'a>>,
    /// Per variable and direction (see [`Search::occ_slot`]), the stack of
    /// active constraints a change of that bound can disturb.
    occ: Vec<Vec<u32>>,
    /// Active constraints to revisit.
    dirty: DirtySet,
    queue: std::collections::VecDeque<(Lit, Reason)>,
    /// Integer split stack (post-boolean phase).
    int_splits: Vec<IntSplit>,
    /// VSIDS-lite activity per variable.
    activity: Vec<f64>,
    activity_inc: f64,
    /// Decision order: holds every unassigned variable (and, lazily, some
    /// assigned ones that `pick_bool` discards when they surface).
    order: VarHeap,
    /// Conflict-analysis scratch: variables already in the resolvent, and
    /// the list of them to reset afterwards.
    seen: Vec<bool>,
    seen_vars: Vec<u32>,
    saved_phase: Vec<bool>,
    conflicts_since_restart: u64,
    /// Conflicts since the last restart that trigger the next one.
    restart_limit: u64,
    /// Set once the deadline has been seen to pass.
    expired: bool,
    /// Propagation passes completed; drives decimated deadline polling.
    passes: u64,
}

impl<'a> Search<'a> {
    pub(crate) fn new(flat: &'a FlatModel, cfg: &'a SolverConfig) -> Self {
        let nvars = flat.num_sat_vars;
        let activity = vec![0.0; nvars];
        let clauses = flat.clauses.clone();
        Search {
            flat,
            cfg,
            stats: SearchStats::default(),
            assign: vec![-1; nvars],
            level: vec![0; nvars],
            reason: vec![Reason::Decision; nvars],
            lo: flat.int_bounds.iter().map(|b| b.0).collect(),
            hi: flat.int_bounds.iter().map(|b| b.1).collect(),
            watches: Watches::new(&clauses, 2 * nvars),
            clauses,
            num_original_clauses: flat.clauses.len(),
            trail: Vec::new(),
            level_marks: Vec::new(),
            active: Vec::new(),
            occ: vec![Vec::new(); 2 * (flat.int_bounds.len() + flat.num_model_bools)],
            dirty: DirtySet::default(),
            queue: std::collections::VecDeque::new(),
            int_splits: Vec::new(),
            order: VarHeap::full(&activity),
            activity,
            activity_inc: 1.0,
            seen: vec![false; nvars],
            seen_vars: Vec::new(),
            // Every variable tries `false` first: "not deployed" suits
            // Lyra's placement booleans.
            saved_phase: vec![false; nvars],
            conflicts_since_restart: 0,
            restart_limit: RESTART_INTERVAL,
            expired: false,
            passes: 0,
        }
    }

    /// The learned clauses in the arena, in order, each with its literals
    /// sorted (watching reorders them).
    #[cfg(test)]
    pub(crate) fn learned_clauses(&self) -> Vec<Vec<Lit>> {
        (self.num_original_clauses..self.clauses.len())
            .map(|ci| {
                let mut cl = self.clauses[ci].to_vec();
                cl.sort_by_key(|l| l.0);
                cl
            })
            .collect()
    }

    fn decision_level(&self) -> u32 {
        self.level_marks.len() as u32
    }

    fn bump(&mut self, var: u32) {
        self.activity[var as usize] += self.activity_inc;
        if self.activity[var as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.activity_inc *= 1e-100;
            // Rescaling can flush small activities to equal values, which
            // reorders them by index.
            self.order.rebuild(&self.activity);
        } else {
            self.order.raised(var, &self.activity);
        }
    }

    /// Has the wall-clock deadline passed?
    fn deadline_expired(&mut self) -> bool {
        self.expired = self
            .cfg
            .deadline
            .is_some_and(|deadline| std::time::Instant::now() >= deadline);
        self.expired
    }

    /// Enqueue the original unit clauses and propagate at level 0. False
    /// when that already refutes the formula.
    fn propagate_units(&mut self) -> bool {
        for ci in 0..self.num_original_clauses {
            let cl = &self.clauses[ci];
            if cl.is_empty() {
                return false;
            }
            if cl.len() == 1 {
                let lit = cl[0];
                self.queue.push_back((lit, Reason::Clause(ci)));
            }
        }
        self.propagate().is_none()
    }

    /// Propagate the root, then search: [`Outcome::Sat`] with the raw
    /// assignment, a refutation, or [`Outcome::Unknown`] once a limit is
    /// spent.
    pub(crate) fn run(&mut self) -> (Outcome, Option<RawAssignment>) {
        if self.deadline_expired() {
            return (Outcome::Unknown, None);
        }
        if !self.propagate_units() {
            return (Outcome::Unsat, None);
        }
        self.resume()
    }

    /// Require `Σ objective ≤ k` from here on, for a search that has just
    /// found a model. Unwinds the integer splits, backjumps to level 0 —
    /// keeping the level-0 trail, the learned clauses, the watch lists,
    /// the activities and the saved phases — activates the bound as an
    /// always-active constraint at level 0 and propagates. False when that
    /// refutes the formula, which proves the last model optimal.
    ///
    /// Bounds only tighten, so every clause learned so far, including a
    /// decision-negation clause from a theory conflict, is still implied
    /// once this bound joins the ones before it.
    pub(crate) fn tighten(&mut self, k: i64) -> bool {
        while let Some(split) = self.int_splits.pop() {
            self.undo_to(split.trail_mark);
        }
        self.backjump(0);
        let flat: &'a FlatModel = self.flat;
        let terms = flat
            .objective
            .as_deref()
            .expect("a bound needs an objective");
        self.activate(ActiveLin { terms, sign: 1, k });
        self.propagate().is_none()
    }

    /// The decision loop, from wherever the search stands: after
    /// [`Search::run`]'s root propagation or a [`Search::tighten`].
    pub(crate) fn resume(&mut self) -> (Outcome, Option<RawAssignment>) {
        loop {
            if self.expired || self.stats.decisions > self.cfg.max_decisions {
                return (Outcome::Unknown, None);
            }
            if let Some(v) = self.pick_bool() {
                self.stats.decisions += 1;
                let phase = self.saved_phase[v as usize];
                let lit = if phase { Lit::pos(v) } else { Lit::neg(v) };
                self.level_marks.push(self.trail.len());
                self.queue.push_back((lit, Reason::Decision));
                if let Some(conflict) = self.propagate() {
                    if !self.handle_conflict(conflict) {
                        return (Outcome::Unsat, None);
                    }
                }
            } else if let Some(var) = self.pick_int() {
                self.stats.decisions += 1;
                self.push_int_split(var);
                if let Some(_c) = self.propagate() {
                    if !self.resolve_int_conflict() {
                        return (Outcome::Unsat, None);
                    }
                }
            } else {
                let raw = self.snapshot();
                let sol = raw.extract(self.flat);
                return (Outcome::Sat(sol), Some(raw));
            }
        }
    }

    // ---- decisions -------------------------------------------------------

    /// The unassigned variable of highest activity, lowest index among
    /// equals. It leaves the heap; `undo_to` puts it back.
    fn pick_bool(&mut self) -> Option<u32> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v as usize] == -1 {
                return Some(v);
            }
        }
        None
    }

    fn pick_int(&self) -> Option<u32> {
        let mut best: Option<(u32, i64)> = None;
        for i in 0..self.lo.len() {
            let w = self.hi[i] - self.lo[i];
            if w > 0 && best.map(|(_, bw)| w > bw).unwrap_or(true) {
                best = Some((i as u32, w));
            }
        }
        best?;
        if self.all_lo_satisfies() {
            return None;
        }
        best.map(|(i, _)| i)
    }

    fn all_lo_satisfies(&self) -> bool {
        self.active.iter().all(|lin| {
            let sum: i64 = lin
                .terms
                .iter()
                .map(|&(c, v)| {
                    c * match v {
                        FlatVar::Bool(b) => (self.assign[b as usize] == 1) as i64,
                        FlatVar::Int(i) => self.lo[i as usize],
                    }
                })
                .sum();
            lin.sign * sum <= lin.k
        })
    }

    fn push_int_split(&mut self, var: u32) {
        let (l, h) = (self.lo[var as usize], self.hi[var as usize]);
        let mid = l + (h - l) / 2;
        self.int_splits.push(IntSplit {
            var,
            mid,
            flipped: false,
            trail_mark: self.trail.len(),
        });
        self.set_hi(var, mid);
    }

    /// Chronological handling within the integer phase. Returns false when
    /// the whole search is UNSAT.
    fn resolve_int_conflict(&mut self) -> bool {
        loop {
            match self.int_splits.pop() {
                Some(split) if !split.flipped => {
                    self.undo_to(split.trail_mark);
                    self.int_splits.push(IntSplit {
                        flipped: true,
                        ..split
                    });
                    // Try the half the first branch skipped.
                    self.set_lo(split.var, split.mid + 1);
                    if self.hi[split.var as usize] >= self.lo[split.var as usize]
                        && self.propagate().is_none()
                    {
                        return true;
                    }
                    // fall through: keep unwinding
                }
                Some(split) => {
                    self.undo_to(split.trail_mark);
                }
                None => {
                    // Every integer option under this boolean assignment is
                    // dead: theory conflict for the boolean layer.
                    return self.handle_conflict(Conflict::Theory);
                }
            }
        }
    }

    // ---- conflict analysis ------------------------------------------------

    /// Handle a boolean-layer conflict: learn, backjump, assert. Returns
    /// false when the formula is UNSAT.
    fn handle_conflict(&mut self, conflict: Conflict) -> bool {
        self.stats.conflicts += 1;
        self.conflicts_since_restart += 1;
        self.activity_inc /= ACTIVITY_DECAY;
        // Integer splits are invalidated by any boolean backjump.
        while let Some(split) = self.int_splits.pop() {
            self.undo_to(split.trail_mark);
        }
        if self.decision_level() == 0 {
            return false;
        }
        let learned = match conflict {
            Conflict::Clause(ci) => self.analyze(ci),
            Conflict::Theory => self.decision_negation_clause(),
        };
        let Some(mut learned) = learned else {
            return false; // empty learned clause
        };
        // Order: learned[0] = asserting literal (current level); learned[1]
        // = highest remaining level, which is the backjump level.
        let backjump_level = if learned.len() == 1 {
            0
        } else {
            // Move the literal with the highest level (below current) to
            // position 1.
            let mut best = 1;
            for i in 2..learned.len() {
                if self.level[learned[i].var() as usize] > self.level[learned[best].var() as usize]
                {
                    best = i;
                }
            }
            learned.swap(1, best);
            self.level[learned[1].var() as usize]
        };
        // Backjump.
        self.backjump(backjump_level);
        // Install the learned clause.
        let asserting = learned[0];
        let unit = learned.len() == 1;
        self.stats.learned += 1;
        if unit {
            self.queue.push_back((asserting, Reason::Decision));
        } else {
            let ci = self.clauses.len();
            self.watches.push(learned[0], ci);
            self.watches.push(learned[1], ci);
            self.clauses.push(learned);
            self.queue.push_back((asserting, Reason::Clause(ci)));
        }
        // Restart?
        if self.conflicts_since_restart >= self.restart_limit {
            self.stats.restarts += 1;
            self.conflicts_since_restart = 0;
            self.restart_limit = self.restart_limit.saturating_mul(3) / 2;
            self.backjump(0);
            // The backjump emptied the queue. A longer learned clause is in
            // the database and not unit at level 0, so its asserting
            // literal goes with the rest; a unit one is stored nowhere
            // else, and at level 0 it is a permanent implication.
            if unit {
                self.queue.push_back((asserting, Reason::Decision));
            }
        }
        match self.propagate() {
            None => true,
            Some(c) => self.handle_conflict(c),
        }
    }

    /// 1-UIP conflict analysis. `None` means the conflict is at level 0.
    fn analyze(&mut self, conflict_clause: usize) -> Option<Vec<Lit>> {
        let learned = self.resolve_to_uip(conflict_clause);
        for v in self.seen_vars.drain(..) {
            self.seen[v as usize] = false;
        }
        learned
    }

    /// Absorb clause `ci`'s literals into the running resolvent: literals
    /// below the current level join `learned`, current-level ones are
    /// counted, level-0 facts drop out.
    fn absorb(
        &mut self,
        ci: usize,
        skip: Option<u32>,
        learned: &mut Vec<Lit>,
        current_count: &mut usize,
    ) {
        let current = self.decision_level();
        for j in 0..self.clauses[ci].len() {
            let l = self.clauses[ci][j];
            let v = l.var();
            if Some(v) == skip || self.seen[v as usize] {
                continue;
            }
            self.seen[v as usize] = true;
            self.seen_vars.push(v);
            self.bump(v);
            let lv = self.level[v as usize];
            if lv == current {
                *current_count += 1;
            } else if lv > 0 {
                learned.push(l);
            }
        }
    }

    fn resolve_to_uip(&mut self, conflict_clause: usize) -> Option<Vec<Lit>> {
        let current = self.decision_level();
        let mut learned: Vec<Lit> = Vec::new();
        let mut current_count = 0usize;
        self.absorb(conflict_clause, None, &mut learned, &mut current_count);

        // Walk the trail backwards, resolving current-level literals.
        let mut trail_idx = self.trail.len();
        let asserting: Option<Lit> = loop {
            if current_count == 0 {
                // Degenerate: conflict involves no current-level literal we
                // can pivot on (all were theory facts) — fall back.
                return self.decision_negation_clause();
            }
            // Find the most recently assigned seen variable at the current
            // level.
            let mut found: Option<u32> = None;
            while trail_idx > 0 {
                trail_idx -= 1;
                if let TrailItem::Sat(v) = self.trail[trail_idx] {
                    if self.seen[v as usize] && self.level[v as usize] == current {
                        found = Some(v);
                        break;
                    }
                }
            }
            let Some(v) = found else {
                return self.decision_negation_clause();
            };
            current_count -= 1;
            if current_count == 0 {
                // v is the UIP.
                let lit = if self.assign[v as usize] == 1 {
                    Lit::neg(v)
                } else {
                    Lit::pos(v)
                };
                break Some(lit);
            }
            match self.reason[v as usize] {
                Reason::Clause(ci) => {
                    self.absorb(ci, Some(v), &mut learned, &mut current_count);
                }
                Reason::Decision | Reason::Theory => {
                    // Cannot resolve through this literal: no clause
                    // explanation. Fall back to the sound decision clause.
                    return self.decision_negation_clause();
                }
            }
        };
        let asserting = asserting?;
        let mut clause = Vec::with_capacity(learned.len() + 1);
        clause.push(asserting);
        clause.extend(learned);
        Some(clause)
    }

    /// The sound fallback: ¬(conjunction of all current boolean decisions).
    /// `None` when there are no decisions (UNSAT).
    fn decision_negation_clause(&mut self) -> Option<Vec<Lit>> {
        let mut decision_vars: Vec<u32> = Vec::new();
        for item in &self.trail {
            if let TrailItem::Sat(v) = item {
                if self.reason[*v as usize] == Reason::Decision && self.level[*v as usize] > 0 {
                    decision_vars.push(*v);
                }
            }
        }
        if decision_vars.is_empty() {
            return None;
        }
        // Asserting literal = negation of the last (deepest) decision.
        let mut clause: Vec<Lit> = Vec::with_capacity(decision_vars.len());
        let last = *decision_vars.last().unwrap();
        let neg = |v: u32, this: &Self| {
            if this.assign[v as usize] == 1 {
                Lit::neg(v)
            } else {
                Lit::pos(v)
            }
        };
        clause.push(neg(last, self));
        for &v in decision_vars.iter().rev().skip(1) {
            clause.push(neg(v, self));
            self.bump(v);
        }
        Some(clause)
    }

    fn backjump(&mut self, target_level: u32) {
        if let Some(&mark) = self.level_marks.get(target_level as usize) {
            self.level_marks.truncate(target_level as usize);
            self.undo_to(mark);
        }
        self.queue.clear();
    }

    // ---- propagation -------------------------------------------------------

    fn set_lo(&mut self, var: u32, v: i64) {
        if v > self.lo[var as usize] {
            self.trail
                .push(TrailItem::IntLo(var, self.lo[var as usize]));
            self.lo[var as usize] = v;
            self.stats.bound_updates += 1;
            self.mark_dirty(self.occ_slot(FlatVar::Int(var), 1));
        }
    }

    fn set_hi(&mut self, var: u32, v: i64) {
        if v < self.hi[var as usize] {
            self.trail
                .push(TrailItem::IntHi(var, self.hi[var as usize]));
            self.hi[var as usize] = v;
            self.stats.bound_updates += 1;
            self.mark_dirty(self.occ_slot(FlatVar::Int(var), -1));
        }
    }

    /// Index into `occ` for "constraints in which `v` has a coefficient of
    /// `c`'s sign". A constraint's slack depends on the lower bound of its
    /// positive-coefficient variables and the upper bound of its negative
    /// ones, so a raised lower bound (or a boolean assigned true) disturbs
    /// the even slot's constraints and a lowered upper bound (or a boolean
    /// assigned false) the odd slot's. The bounds a constraint *derives*
    /// are the opposite ones, which is why visiting it does not mark it.
    fn occ_slot(&self, v: FlatVar, c: i64) -> usize {
        let var = match v {
            FlatVar::Int(i) => i as usize,
            FlatVar::Bool(b) => self.lo.len() + b as usize,
        };
        2 * var + (c < 0) as usize
    }

    fn mark_dirty(&mut self, slot: usize) {
        for &ci in &self.occ[slot] {
            self.dirty.insert(ci as usize);
        }
    }

    /// Push a constraint onto the active stack, dirty.
    fn activate(&mut self, lin: ActiveLin<'a>) {
        let ci = self.active.len();
        for &(c, v) in lin.terms {
            let slot = self.occ_slot(v, lin.sign * c);
            self.occ[slot].push(ci as u32);
        }
        self.active.push(lin);
        self.dirty.insert(ci);
    }

    /// Propagate the queue to fixpoint. `Some(conflict)` on failure.
    ///
    /// An expired deadline winds the search down by pretending the pass
    /// succeeded; the decision loop then exits with [`Outcome::Unknown`].
    fn propagate(&mut self) -> Option<Conflict> {
        loop {
            if self.passes & DEADLINE_POLL_MASK == 0 && self.deadline_expired() {
                self.queue.clear();
                return None;
            }
            self.passes += 1;
            while let Some((lit, reason)) = self.queue.pop_front() {
                match value(&self.assign, lit) {
                    Some(true) => continue,
                    Some(false) => {
                        // The queued implication contradicts the current
                        // assignment. Attribute it to its clause when known.
                        self.queue.clear();
                        return Some(match reason {
                            Reason::Clause(ci) => Conflict::Clause(ci),
                            _ => Conflict::Theory,
                        });
                    }
                    None => {}
                }
                self.stats.propagations += 1;
                let var = lit.var();
                self.assign[var as usize] = if lit.is_neg() { 0 } else { 1 };
                self.level[var as usize] = self.decision_level();
                self.reason[var as usize] = reason;
                self.saved_phase[var as usize] = !lit.is_neg();
                self.trail.push(TrailItem::Sat(var));
                // Atom and Tseitin variables sit above the model's own
                // booleans and are in no linear term.
                if (var as usize) < self.flat.num_model_bools {
                    let c = if lit.is_neg() { -1 } else { 1 };
                    self.mark_dirty(self.occ_slot(FlatVar::Bool(var), c));
                }
                // Activate the atom if this variable guards one.
                if let Some(atom) = self.flat.atom_of(var) {
                    let (sign, k) = if lit.is_neg() {
                        (-1, -atom.k - 1)
                    } else {
                        (1, atom.k)
                    };
                    self.activate(ActiveLin {
                        terms: &atom.terms,
                        sign,
                        k,
                    });
                    self.trail.push(TrailItem::Activated);
                }
                // Visit clauses watching the falsified literal. A clause
                // that moves its watch moves it to a literal not false, so
                // this list only shrinks while it is walked.
                let falsified = lit.negate();
                let mut i = 0;
                while i < self.watches.len(falsified) {
                    let ci = self.watches.get(falsified, i);
                    if let Err(ci) = self.update_clause_watch(ci, falsified, &mut i) {
                        self.queue.clear();
                        return Some(Conflict::Clause(ci));
                    }
                }
            }
            // Linear propagation fixpoint; may enqueue boolean literals.
            match self.propagate_linear() {
                Err(()) => return Some(Conflict::Theory),
                Ok(true) => continue,
                Ok(false) => return None,
            }
        }
    }

    /// Maintain the invariant for clause `ci` after `falsified` became
    /// false. `Err(ci)` on conflict.
    fn update_clause_watch(
        &mut self,
        ci: usize,
        falsified: Lit,
        i: &mut usize,
    ) -> Result<(), usize> {
        let cl = self.clauses.clause_mut(ci);
        if cl[0] == falsified {
            cl.swap(0, 1);
        }
        debug_assert_eq!(cl[1], falsified);
        let w0 = cl[0];
        if value(&self.assign, w0) == Some(true) {
            *i += 1;
            return Ok(());
        }
        for j in 2..cl.len() {
            if value(&self.assign, cl[j]) != Some(false) {
                cl.swap(1, j);
                self.watches.push(cl[1], ci);
                self.watches.swap_remove(falsified, *i);
                return Ok(());
            }
        }
        match value(&self.assign, w0) {
            None => {
                self.queue.push_back((w0, Reason::Clause(ci)));
                *i += 1;
                Ok(())
            }
            Some(false) => Err(ci),
            Some(true) => unreachable!("handled above"),
        }
    }

    /// Bounds-consistency fixpoint over the active linear constraints.
    /// `Ok(true)` if boolean literals were enqueued, `Err(())` on conflict.
    ///
    /// Only dirty constraints are visited, in ascending index order with
    /// wrap-around — the order in which repeated sweeps over every
    /// constraint would have reached them, a clean constraint's visit
    /// being a no-op.
    fn propagate_linear(&mut self) -> Result<bool, ()> {
        #[cfg(test)]
        if FULL_SWEEP.with(|f| f.get()) {
            return self.propagate_linear_full_sweep();
        }
        let budget = CREEP_VISITS_BASE + CREEP_VISITS_PER_CONSTRAINT * self.active.len();
        let mut visits = 0usize;
        let mut cursor = 0usize;
        loop {
            let Some(ci) = self
                .dirty
                .take_from(cursor)
                .or_else(|| self.dirty.take_from(0))
            else {
                return Ok(false);
            };
            cursor = ci + 1;
            self.stats.linear_visits += 1;
            visits += 1;
            // Creep guard: bounds that chase each other round a cycle move
            // one unit per lap. Past the budget, decide by the cycle's
            // weight instead of by walking the domain. No boolean changes
            // inside this call, so one check per call is enough.
            if visits == budget {
                self.stats.creep_checks += 1;
                if self.has_negative_cycle() {
                    return Err(());
                }
            }
            if self.visit(ci)? {
                return Ok(true);
            }
        }
    }

    /// Reference schedule: sweep every active constraint, again and again,
    /// until a whole sweep tightens nothing. No creep guard.
    #[cfg(test)]
    fn propagate_linear_full_sweep(&mut self) -> Result<bool, ()> {
        loop {
            let before = self.stats.bound_updates;
            for ci in 0..self.active.len() {
                self.stats.linear_visits += 1;
                if self.visit(ci)? {
                    return Ok(true);
                }
            }
            if self.stats.bound_updates == before {
                return Ok(false);
            }
        }
    }

    /// Tighten every bound constraint `ci` implies under the current
    /// bounds and assignment. `Ok(true)` if boolean literals were enqueued,
    /// `Err(())` if the constraint cannot be satisfied.
    fn visit(&mut self, ci: usize) -> Result<bool, ()> {
        let ActiveLin { terms, sign, k } = self.active[ci];
        let mut min_sum = 0i64;
        for &(c, v) in terms {
            min_sum += self.min_contrib(sign * c, v);
        }
        if min_sum > k {
            return Err(());
        }
        let mut enqueued = false;
        for &(c, v) in terms {
            let c = sign * c;
            let others = min_sum - self.min_contrib(c, v);
            let slack = k - others; // need c·v ≤ slack
            match v {
                FlatVar::Int(idx) => {
                    if c > 0 {
                        let ub = slack.div_euclid(c);
                        if ub < self.hi[idx as usize] {
                            self.set_hi(idx, ub);
                            if self.hi[idx as usize] < self.lo[idx as usize] {
                                return Err(());
                            }
                        }
                    } else if c < 0 {
                        let lb = neg_div_ceil(slack, c);
                        if lb > self.lo[idx as usize] {
                            self.set_lo(idx, lb);
                            if self.hi[idx as usize] < self.lo[idx as usize] {
                                return Err(());
                            }
                        }
                    }
                }
                FlatVar::Bool(b) => {
                    if self.assign[b as usize] != -1 {
                        continue;
                    }
                    if c > 0 && slack < c {
                        self.queue.push_back((Lit::neg(b), Reason::Theory));
                        enqueued = true;
                    } else if c < 0 && slack < 0 {
                        self.queue.push_back((Lit::pos(b), Reason::Theory));
                        enqueued = true;
                    }
                }
            }
        }
        Ok(enqueued)
    }

    /// Must this `propagate_linear` call end in a conflict? True when the
    /// active two-variable unit-coefficient constraints (assigned booleans
    /// folded into the right-hand side) are infeasible whatever the bounds.
    ///
    /// With nodes `+x` (2i) and `−x` (2i+1), `a + b ≤ w` over nodes is the
    /// pair of difference constraints `a − ¬b ≤ w`, `b − ¬a ≤ w`. Those
    /// have a real solution iff the graph has no negative cycle, and any
    /// bounds fixpoint with non-empty domains is such a solution (`+x ↦ hi`,
    /// `−x ↦ −lo`) — so with a negative cycle propagation cannot reach a
    /// fixpoint, however long it takes to find that out.
    ///
    /// It could still stop early by forcing a boolean, which is a different
    /// search path from the conflict. So the check abstains (false) when
    /// any active constraint ties an unassigned boolean to an integer. The
    /// caller has by then visited every constraint that was dirty on entry,
    /// so whatever is visited from here on was disturbed by an integer
    /// bound; if none of those mentions an unassigned boolean, none can
    /// force one, and conflict is the only way out.
    fn has_negative_cycle(&self) -> bool {
        let mut edges: Vec<(u32, u32, i64)> = Vec::new();
        for lin in &self.active {
            let mut w = lin.k;
            let mut nodes = [0u32; 2];
            let (mut ints, mut unit, mut open_bool) = (0, true, false);
            for &(c, v) in lin.terms {
                let c = lin.sign * c;
                match v {
                    FlatVar::Bool(b) => match self.assign[b as usize] {
                        1 => w -= c,
                        0 => {}
                        _ => open_bool = true,
                    },
                    FlatVar::Int(i) => {
                        if ints < 2 {
                            nodes[ints] = 2 * i + (c < 0) as u32;
                        }
                        ints += 1;
                        unit &= c.abs() == 1;
                    }
                }
            }
            if open_bool && ints > 0 {
                return false;
            }
            if ints == 2 && unit {
                edges.push((nodes[1] ^ 1, nodes[0], w));
                edges.push((nodes[0] ^ 1, nodes[1], w));
            }
        }
        // Bellman–Ford from a virtual source at distance 0 from every
        // node. Two edges add at most four nodes, so `2·|edges|` bounds the
        // node count; a relaxation still possible after that many rounds
        // follows a negative cycle.
        let mut dist = vec![0i64; 2 * self.lo.len()];
        for _ in 0..2 * edges.len() {
            let mut relaxed = false;
            for &(from, to, w) in &edges {
                let d = dist[from as usize] + w;
                if d < dist[to as usize] {
                    dist[to as usize] = d;
                    relaxed = true;
                }
            }
            if !relaxed {
                return false;
            }
        }
        !edges.is_empty()
    }

    fn min_contrib(&self, c: i64, v: FlatVar) -> i64 {
        match v {
            FlatVar::Bool(b) => match self.assign[b as usize] {
                1 => c,
                0 => 0,
                _ => c.min(0),
            },
            FlatVar::Int(i) => {
                if c >= 0 {
                    c * self.lo[i as usize]
                } else {
                    c * self.hi[i as usize]
                }
            }
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().unwrap() {
                TrailItem::Sat(v) => {
                    self.assign[v as usize] = -1;
                    self.order.insert(v, &self.activity);
                }
                TrailItem::IntLo(v, old) => self.lo[v as usize] = old,
                TrailItem::IntHi(v, old) => self.hi[v as usize] = old,
                TrailItem::Activated => {
                    // The newest constraint is the last entry of each
                    // occurrence stack it was pushed on.
                    let lin = self.active.pop().expect("an activation to undo");
                    for &(c, v) in lin.terms {
                        let slot = self.occ_slot(v, lin.sign * c);
                        self.occ[slot].pop();
                    }
                }
            }
        }
        // Every mark the trail holds was taken at a propagation fixpoint,
        // where no surviving constraint has anything left to do.
        self.dirty.clear();
        self.queue.clear();
    }

    fn snapshot(&self) -> RawAssignment {
        RawAssignment {
            sat: self.assign.iter().map(|&v| v == 1).collect(),
            ints: self.lo.clone(),
        }
    }
}

/// The value of `lit` under `assign` (-1 unassigned, 0 false, 1 true).
fn value(assign: &[i8], lit: Lit) -> Option<bool> {
    match assign[lit.var() as usize] {
        -1 => None,
        v => Some((v == 1) != lit.is_neg()),
    }
}

/// Per literal code, the indices of the clauses watching it, all lists in
/// one buffer: literal `l`'s list is `buf[start[l]..start[l] + len[l]]`,
/// with room up to `start[l] + cap[l]`. A counting pass sizes each list
/// for the first two literals of every clause that has two, so building
/// them allocates four vectors, not one per literal. A list that outgrows
/// its room moves, in order, to the end of the buffer with twice the room;
/// the room it leaves is not reused.
/// Each list behaves as a `Vec` would — same entries, same order, same
/// `swap_remove` — so the search path does not depend on the layout.
struct Watches {
    buf: Vec<u32>,
    start: Vec<usize>,
    len: Vec<u32>,
    cap: Vec<u32>,
}

impl Watches {
    fn new(clauses: &Clauses, num_lits: usize) -> Self {
        let watched = || clauses.iter().enumerate().filter(|(_, cl)| cl.len() >= 2);
        let mut cap = vec![0u32; num_lits];
        for (_, cl) in watched() {
            cap[cl[0].0 as usize] += 1;
            cap[cl[1].0 as usize] += 1;
        }
        let (mut start, mut next) = (Vec::with_capacity(num_lits), 0);
        for &c in &cap {
            start.push(next);
            next += c as usize;
        }
        let mut w = Watches {
            buf: vec![0; next],
            start,
            len: vec![0; num_lits],
            cap,
        };
        for (ci, cl) in watched() {
            w.push(cl[0], ci);
            w.push(cl[1], ci);
        }
        w
    }

    fn len(&self, lit: Lit) -> usize {
        self.len[lit.0 as usize] as usize
    }

    fn get(&self, lit: Lit, i: usize) -> usize {
        self.buf[self.start[lit.0 as usize] + i] as usize
    }

    fn push(&mut self, lit: Lit, ci: usize) {
        let l = lit.0 as usize;
        let (start, len) = (self.start[l], self.len[l] as usize);
        if len == self.cap[l] as usize {
            let moved = self.buf.len();
            self.buf.extend_from_within(start..start + len);
            self.cap[l] = (2 * self.cap[l]).max(4);
            self.buf.resize(moved + self.cap[l] as usize, 0);
            self.start[l] = moved;
        }
        self.buf[self.start[l] + len] = ci as u32;
        self.len[l] += 1;
    }

    fn swap_remove(&mut self, lit: Lit, i: usize) {
        let l = lit.0 as usize;
        let (start, last) = (self.start[l], self.len[l] as usize - 1);
        self.buf[start + i] = self.buf[start + last];
        self.len[l] -= 1;
    }
}

/// `ceil(a / c)` where `c < 0` (used when dividing an inequality by a
/// negative coefficient, which flips its direction).
fn neg_div_ceil(a: i64, c: i64) -> i64 {
    debug_assert!(c < 0);
    // Rust's `/` truncates toward zero, which equals the ceiling when the
    // quotient is negative (a > 0 here) and the floor when it is positive
    // (a < 0), in which case we adjust up.
    let q = a / c;
    if a % c != 0 && a < 0 {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod linear_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Bx, Ix};
    use crate::model::Model;

    /// Exactly one of `vs` is true.
    fn exactly_one(m: &mut Model, vs: &[crate::BoolId]) -> Bx {
        let vars = vs.iter().map(|&v| Bx::var(v));
        let (some, one) = (m.or(vars.clone()), m.at_most_one(vars));
        m.and([some, one])
    }

    #[test]
    fn neg_div_ceil_cases() {
        assert_eq!(neg_div_ceil(7, -2), -3); // 7/-2 = -3.5 → -3
        assert_eq!(neg_div_ceil(-7, -2), 4); // -7/-2 = 3.5 → 4
        assert_eq!(neg_div_ceil(6, -2), -3);
        assert_eq!(neg_div_ceil(-6, -2), 3);
        assert_eq!(neg_div_ceil(0, -5), 0);
    }

    #[test]
    fn sat_pure_bool() {
        let mut m = Model::new();
        let a = m.bool_var("a");
        let b = m.bool_var("b");
        let c = m.or([Bx::var(a), Bx::var(b)]);
        m.require(c);
        let c = m.not(Bx::var(a));
        m.require(c);
        let sol = solve(&m).solution().unwrap();
        assert!(!sol.bool(a));
        assert!(sol.bool(b));
    }

    #[test]
    fn unsat_pure_bool() {
        let mut m = Model::new();
        let a = m.bool_var("a");
        m.require(Bx::var(a));
        let c = m.not(Bx::var(a));
        m.require(c);
        assert_eq!(solve(&m), Outcome::Unsat);
    }

    #[test]
    fn sat_int_bounds() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 10);
        let y = m.int_var("y", 0, 10);
        let xy = m.sum([Ix::var(x), Ix::var(y)]);
        let c = m.ge(xy, Ix::lit(15));
        m.require(c);
        let c = m.le(Ix::var(x), Ix::lit(7));
        m.require(c);
        let sol = solve(&m).solution().unwrap();
        assert!(sol.int(x) + sol.int(y) >= 15);
        assert!(sol.int(x) <= 7);
    }

    #[test]
    fn unsat_int() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 5);
        let y = m.int_var("y", 0, 5);
        let xy = m.sum([Ix::var(x), Ix::var(y)]);
        let c = m.ge(xy, Ix::lit(11));
        m.require(c);
        assert_eq!(solve(&m), Outcome::Unsat);
    }

    #[test]
    fn conditional_constraint() {
        let mut m = Model::new();
        let d = m.bool_var("deploy");
        let x = m.int_var("x", 0, 100);
        let ge = m.ge(Ix::var(x), Ix::lit(50));
        let c = m.implies(Bx::var(d), ge);
        m.require(c);
        let c = m.le(Ix::var(x), Ix::lit(10));
        m.require(c);
        let c = m.or([Bx::var(d)]); // force d
        m.require(c);
        assert_eq!(solve(&m), Outcome::Unsat);
    }

    #[test]
    fn exactly_one_picks_one() {
        let mut m = Model::new();
        let vs: Vec<_> = (0..5).map(|i| m.bool_var(format!("v{i}"))).collect();
        let c = exactly_one(&mut m, &vs);
        m.require(c);
        let sol = solve(&m).solution().unwrap();
        assert_eq!(vs.iter().filter(|&&v| sol.bool(v)).count(), 1);
    }

    #[test]
    fn ite_and_ceil_div() {
        let mut m = Model::new();
        let d = m.bool_var("d");
        let e = m.int_var("entries", 0, 4096);
        let blocks = m.ceil_div(Ix::var(e), 1024);
        let ge = m.ge(blocks, Ix::lit(3));
        let c = m.implies(Bx::var(d), ge);
        m.require(c);
        m.require(Bx::var(d));
        let c = m.le(Ix::var(e), Ix::lit(3000));
        m.require(c);
        let sol = solve(&m).solution().unwrap();
        assert!(
            sol.int(e) > 2048,
            "need ceil(e/1024) >= 3, got e = {}",
            sol.int(e)
        );
        assert!(sol.int(e) <= 3000);
    }

    #[test]
    fn minimize_simple() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 100);
        let c = m.ge(Ix::var(x), Ix::lit(37));
        m.require(c);
        let (sol, v) = crate::minimize(&m, &Ix::var(x)).unwrap();
        assert_eq!(v, 37);
        assert_eq!(sol.int(x), 37);
    }

    #[test]
    fn minimize_deployment_count() {
        let mut m = Model::new();
        let f: Vec<_> = (0..3).map(|i| m.bool_var(format!("f{i}"))).collect();
        let c = exactly_one(&mut m, &f[..2]);
        m.require(c);
        let c = exactly_one(&mut m, &f[1..]);
        m.require(c);
        let obj = m.sum(f.iter().map(|&v| Ix::bool01(v)));
        let (sol, v) = crate::minimize(&m, &obj).unwrap();
        assert_eq!(v, 1);
        assert!(sol.bool(f[1]));
    }

    #[test]
    fn ite_evaluation_in_solution() {
        let mut m = Model::new();
        let d = m.bool_var("d");
        let x = m.int_var("x", 0, 10);
        m.require(Bx::var(d));
        let ite = m.ite(Bx::var(d), Ix::lit(7), Ix::lit(2));
        let c = m.eq(Ix::var(x), ite);
        m.require(c);
        let sol = solve(&m).solution().unwrap();
        assert_eq!(sol.int(x), 7);
    }

    #[test]
    fn respects_decision_limit() {
        let mut m = Model::new();
        let vars: Vec<Vec<_>> = (0..6)
            .map(|p| (0..5).map(|h| m.bool_var(format!("p{p}h{h}"))).collect())
            .collect();
        for p in &vars {
            let c = m.any_of(p.iter().copied());
            m.require(c);
        }
        for h in 0..5 {
            let c = m.at_most_one(vars.iter().map(|row| Bx::var(row[h])));
            m.require(c);
        }
        let flat = flatten(&m);
        let cfg = SolverConfig {
            max_decisions: 10,
            ..Default::default()
        };
        let (outcome, _, stats) = solve_flat(&flat, &cfg);
        assert!(stats.decisions > 0);
        assert!(matches!(outcome, Outcome::Unknown | Outcome::Unsat));
    }

    #[test]
    fn pigeonhole_unsat_with_learning() {
        // 6 pigeons, 5 holes — UNSAT; learning makes it fast.
        let mut m = Model::new();
        let vars: Vec<Vec<_>> = (0..6)
            .map(|p| (0..5).map(|h| m.bool_var(format!("p{p}h{h}"))).collect())
            .collect();
        for p in &vars {
            let c = m.any_of(p.iter().copied());
            m.require(c);
        }
        for h in 0..5 {
            let c = m.at_most_one(vars.iter().map(|row| Bx::var(row[h])));
            m.require(c);
        }
        assert_eq!(solve(&m), Outcome::Unsat);
    }

    #[test]
    fn learning_stats_populated() {
        // An instance that forces at least one conflict.
        let mut m = Model::new();
        let vs: Vec<_> = (0..8).map(|i| m.bool_var(format!("v{i}"))).collect();
        for i in 0..7 {
            let not_i = m.not(Bx::var(vs[i]));
            let c = m.or([not_i, Bx::var(vs[i + 1])]);
            m.require(c);
        }
        let c = m.or([Bx::var(vs[0]), Bx::var(vs[7])]);
        m.require(c);
        let (not7, not3) = (m.not(Bx::var(vs[7])), m.not(Bx::var(vs[3])));
        let c = m.or([not7, not3]);
        m.require(c);
        let flat = flatten(&m);
        let cfg = SolverConfig::default();
        let mut s = Search::new(&flat, &cfg);
        let (outcome, _) = s.run();
        assert!(outcome.is_sat() || outcome == Outcome::Unsat);
    }

    #[test]
    fn restart_keeps_a_just_learned_unit_clause() {
        // (a ∨ b) ∧ (a ∨ ¬b): deciding ¬a conflicts and learns the unit
        // clause `a`. With a restart due at that very conflict, the unit
        // must still be asserted afterwards, or the search learns it again
        // at every restart until the budget runs out.
        let mut m = Model::new();
        let a = m.bool_var("a");
        let b = m.bool_var("b");
        let c = m.or([Bx::var(a), Bx::var(b)]);
        m.require(c);
        let not_b = m.not(Bx::var(b));
        let c = m.or([Bx::var(a), not_b]);
        m.require(c);
        let flat = flatten(&m);
        let cfg = SolverConfig {
            max_decisions: 10_000,
            ..Default::default()
        };
        let mut s = Search::new(&flat, &cfg);
        s.restart_limit = 1;
        let (outcome, _) = s.run();
        let stats = s.stats;
        assert!(outcome.solution().expect("a = true is a model").bool(a));
        assert_eq!(stats.conflicts, 1, "{stats:?}");
    }

    fn pigeonhole(pigeons: usize, holes: usize) -> Model {
        let mut m = Model::new();
        let vars: Vec<Vec<_>> = (0..pigeons)
            .map(|p| {
                (0..holes)
                    .map(|h| m.bool_var(format!("p{p}h{h}")))
                    .collect()
            })
            .collect();
        for p in &vars {
            let c = m.any_of(p.iter().copied());
            m.require(c);
        }
        for h in 0..holes {
            let c = m.at_most_one(vars.iter().map(|row| Bx::var(row[h])));
            m.require(c);
        }
        m
    }

    #[test]
    fn expired_deadline_stops_before_search() {
        use std::time::{Duration, Instant};
        let m = pigeonhole(10, 9);
        let flat = flatten(&m);
        let cfg = SolverConfig {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Default::default()
        };
        let t = Instant::now();
        let (outcome, _, stats) = solve_flat(&flat, &cfg);
        assert_eq!(outcome, Outcome::Unknown);
        assert_eq!(stats.decisions, 0, "no search past an expired deadline");
        assert!(t.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn deadline_interrupts_search_promptly() {
        use std::time::{Duration, Instant};
        // Hard enough to outlast a 20 ms deadline by orders of magnitude.
        let m = pigeonhole(12, 11);
        let flat = flatten(&m);
        let cfg = SolverConfig {
            deadline: Some(Instant::now() + Duration::from_millis(20)),
            ..Default::default()
        };
        let t = Instant::now();
        let (outcome, _, _) = solve_flat(&flat, &cfg);
        assert!(matches!(outcome, Outcome::Unknown | Outcome::Unsat));
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "deadline was not observed promptly: {:?}",
            t.elapsed()
        );
    }
}
