//! Lowering a [`Model`] to a [`FlatModel`]: CNF clauses over SAT variables
//! (via the Tseitin transformation) plus normalized linear atoms
//! `Σ cᵢ·vᵢ ≤ k`.
//!
//! SAT variable space layout:
//!
//! * `0 .. model.num_bools()` — the model's boolean variables;
//! * then one variable per distinct linear atom (the *atom variables*);
//! * then Tseitin variables introduced for internal formula nodes.
//!
//! Integer variable space layout: the model's integers first, then
//! auxiliaries introduced for `ite` and `ceil_div` nodes.
//!
//! The lowering walks the model's arena in place. The two connectives
//! Tseitin has no gate for are expanded as they are met: `a = b` is lowered
//! as `a ≤ b ∧ a ≥ b` and `a ≠ b` as `a < b ∨ a > b`, each side lowered once
//! per bound. (At-most-one is stored already expanded.)
//!
//! ## Clause storage
//!
//! Clauses live in one [`Clauses`] arena: every literal back to back in
//! one `Vec<Lit>`, and one `u32` offset per clause. The lowering appends
//! each clause as it writes it, with no `Vec` of its own; a search copies
//! the arena once (two `memcpy`s) and appends its learned clauses to that
//! copy. `{:?}` renders the arena exactly as `Vec<Vec<Lit>>` rendered, so a
//! fingerprint taken over the rendering does not change. The lowering
//! keeps gate operands and comparison terms on two scratch stacks and
//! looks atoms up by a key written into a reused buffer, so it allocates
//! only for what it keeps: the arena, the atoms and the cache's keys.

use std::collections::HashMap;

use crate::expr::{div_ceil_i64, normalize_terms, Bx, CmpOp, Ix, LinExpr, Node, VarRef, B, I};
use crate::model::{IntId, Model};

/// A literal: SAT variable index with a sign. `Lit(2*v)` is `v`,
/// `Lit(2*v + 1)` is `¬v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit(pub u32);

impl Lit {
    /// Positive literal of variable `v`.
    pub fn pos(v: u32) -> Lit {
        Lit(v << 1)
    }

    /// Negative literal of variable `v`.
    pub fn neg(v: u32) -> Lit {
        Lit((v << 1) | 1)
    }

    /// The underlying variable.
    pub fn var(self) -> u32 {
        self.0 >> 1
    }

    /// True if the literal is negated.
    pub(crate) fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// A normalized linear constraint `Σ terms ≤ k` guarded by an atom variable.
///
/// When the atom variable is assigned *true* the constraint `Σ ≤ k` becomes
/// active; when assigned *false* its negation `Σ ≥ k + 1` becomes active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinAtom {
    /// SAT variable guarding this atom.
    pub var: u32,
    /// Coefficient / variable pairs (variables may be model bools as 0/1, or
    /// integers — model or auxiliary).
    pub terms: Vec<(i64, FlatVar)>,
    /// Right-hand side of `Σ ≤ k`.
    pub k: i64,
}

/// A variable reference inside a flattened linear atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlatVar {
    /// SAT (boolean) variable, coerced to 0/1. Always one of the model's
    /// booleans — Tseitin and atom variables never appear in atoms.
    Bool(u32),
    /// Integer variable (model or auxiliary), by flat index.
    Int(u32),
}

/// CNF clauses stored back to back: clause `i` is
/// `lits[starts[i]..starts[i + 1]]`. One allocation for every literal and
/// one for the offsets, however many clauses there are, so a search copies
/// the whole database with two `memcpy`s and appends learned clauses to the
/// same arena. `{:?}` prints it as the `Vec<Vec<Lit>>` it replaces. No
/// clause is empty, so a clause index fits in a `u32` as an offset does.
#[derive(Clone)]
pub struct Clauses {
    lits: Vec<Lit>,
    /// Start of each clause, then the end of the last: `len() + 1` entries.
    starts: Vec<u32>,
}

impl Default for Clauses {
    fn default() -> Self {
        Clauses {
            lits: Vec::new(),
            starts: vec![0],
        }
    }
}

impl Clauses {
    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// True when there are no clauses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one clause; its index is the old `len()`.
    pub(crate) fn push(&mut self, clause: impl IntoIterator<Item = Lit>) {
        self.lits.extend(clause);
        let end = u32::try_from(self.lits.len()).expect("fewer than 2³² clause literals");
        debug_assert!(end > self.starts[self.len()], "an empty clause");
        self.starts.push(end);
    }

    /// Every clause, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        self.starts
            .windows(2)
            .map(|w| &self.lits[w[0] as usize..w[1] as usize])
    }

    /// Clause `i`, to reorder its literals in place.
    pub(crate) fn clause_mut(&mut self, i: usize) -> &mut [Lit] {
        let span = self.span(i);
        &mut self.lits[span]
    }

    fn span(&self, i: usize) -> std::ops::Range<usize> {
        self.starts[i] as usize..self.starts[i + 1] as usize
    }
}

impl std::ops::Index<usize> for Clauses {
    type Output = [Lit];

    fn index(&self, i: usize) -> &[Lit] {
        &self.lits[self.span(i)]
    }
}

impl std::fmt::Debug for Clauses {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// `atom_of_var` entry of a SAT variable that guards no atom.
const NO_ATOM: u32 = u32::MAX;

/// The result of flattening a [`Model`].
#[derive(Debug, Clone, Default)]
pub struct FlatModel {
    /// Number of boolean variables belonging to the source model.
    pub num_model_bools: usize,
    /// Number of integer variables belonging to the source model.
    pub num_model_ints: usize,
    /// Total number of SAT variables (model + atoms + Tseitin).
    pub num_sat_vars: usize,
    /// Inclusive bounds for every integer variable (model then auxiliary).
    pub int_bounds: Vec<(i64, i64)>,
    /// CNF clauses, back to back in one arena.
    pub clauses: Clauses,
    /// Linear atoms, indexed by `atom_of_var`.
    pub atoms: Vec<LinAtom>,
    /// Per SAT variable, the index into `atoms` of the atom it guards, or
    /// `u32::MAX` if it guards none.
    pub atom_of_var: Vec<u32>,
    /// Linear form of the objective, if one was lowered.
    pub objective: Option<Vec<(i64, FlatVar)>>,
    /// Constant offset of the objective.
    pub objective_constant: i64,
}

impl FlatModel {
    /// The atom SAT variable `var` guards, if it guards one.
    pub(crate) fn atom_of(&self, var: u32) -> Option<&LinAtom> {
        self.atoms.get(self.atom_of_var[var as usize] as usize)
    }
}

struct Flattener<'m> {
    model: &'m Model,
    flat: FlatModel,
    next_sat_var: u32,
    true_lit: Lit,
    /// Atom variable by [`atom_key`].
    atom_cache: HashMap<Vec<u64>, u32>,
    /// Scratch for the key of the atom being looked up.
    key: Vec<u64>,
    /// Operands of the gates being lowered, innermost last: a gate pushes
    /// its operands' literals and pops them when its clauses are written.
    lits: Vec<Lit>,
    /// Terms of the comparisons being lowered, innermost last, likewise.
    terms: Vec<(i64, VarRef)>,
}

/// Write the key of the atom `Σ terms ≤ rhs` (terms normalised) to `key`:
/// each term's coefficient and variable, then `rhs`, as words. A slice of
/// integers is hashed as one run of bytes, which costs a fraction of
/// hashing each field of each term on its own.
fn atom_key(key: &mut Vec<u64>, terms: &[(i64, VarRef)], rhs: i64) {
    key.clear();
    for &(c, v) in terms {
        let var = match v {
            VarRef::Bool(b) => b.0 as u64,
            VarRef::Int(i) => 1 << 32 | i.0 as u64,
        };
        key.extend([c as u64, var]);
    }
    key.push(rhs as u64);
}

/// Flatten a model to CNF + linear atoms.
pub fn flatten(model: &Model) -> FlatModel {
    flatten_with_objective(model, None)
}

/// Flatten a model, additionally lowering `objective` so a branch-and-bound
/// loop can evaluate and constrain it.
pub fn flatten_with_objective(model: &Model, objective: Option<&Ix>) -> FlatModel {
    let mut f = Flattener::new(model);
    for &c in model.constraints() {
        let lit = f.lower_bx(c);
        f.flat.clauses.push([lit]);
    }
    if let Some(&obj) = objective {
        let lin = f.lower_ix(obj);
        f.flat.objective = Some(lin.terms.iter().map(|&(c, v)| (c, flat_var(v))).collect());
        f.flat.objective_constant = lin.constant;
    }
    let mut flat = f.flat;
    flat.num_sat_vars = f.next_sat_var as usize;
    flat.atom_of_var = vec![NO_ATOM; flat.num_sat_vars];
    for (i, atom) in flat.atoms.iter().enumerate() {
        flat.atom_of_var[atom.var as usize] = i as u32;
    }
    flat
}

/// Bounds `(lo, hi)` of `constant + Σ terms` under the variable bounds of
/// `flat`.
fn bounds_of(flat: &FlatModel, constant: i64, terms: &[(i64, VarRef)]) -> (i64, i64) {
    let mut lo = constant;
    let mut hi = constant;
    for &(c, v) in terms {
        let (vlo, vhi) = match v {
            VarRef::Bool(_) => (0, 1),
            VarRef::Int(i) => flat.int_bounds[i.index()],
        };
        if c >= 0 {
            lo += c * vlo;
            hi += c * vhi;
        } else {
            lo += c * vhi;
            hi += c * vlo;
        }
    }
    (lo, hi)
}

fn flat_var(v: VarRef) -> FlatVar {
    match v {
        VarRef::Int(i) => FlatVar::Int(i.0),
        VarRef::Bool(b) => FlatVar::Bool(b.0),
    }
}

impl<'m> Flattener<'m> {
    fn new(model: &'m Model) -> Self {
        let mut flat = FlatModel {
            num_model_bools: model.num_bools(),
            num_model_ints: model.num_ints(),
            int_bounds: model.int_bounds().collect(),
            ..Default::default()
        };
        let mut next = model.num_bools() as u32;
        // Reserve one variable that is always true, to represent constants.
        let true_var = next;
        next += 1;
        flat.clauses.push([Lit::pos(true_var)]);
        Flattener {
            model,
            flat,
            next_sat_var: next,
            true_lit: Lit::pos(true_var),
            atom_cache: HashMap::new(),
            key: Vec::new(),
            lits: Vec::new(),
            terms: Vec::new(),
        }
    }

    fn fresh_var(&mut self) -> u32 {
        let v = self.next_sat_var;
        self.next_sat_var += 1;
        v
    }

    fn fresh_int(&mut self, lo: i64, hi: i64) -> u32 {
        let idx = self.flat.int_bounds.len() as u32;
        self.flat.int_bounds.push((lo, hi));
        idx
    }

    /// Lower an integer expression to a normalised linear form.
    fn lower_ix(&mut self, ix: Ix) -> LinExpr {
        let base = self.terms.len();
        let constant = self.accumulate(ix, 1);
        let terms = self.terms.split_off(base);
        LinExpr { constant, terms }.normalize()
    }

    /// Push the terms of `mul · ix` onto `self.terms` (unnormalised) and
    /// return its constant, introducing an auxiliary integer (with defining
    /// clauses) for each `ite` and `ceil_div` node met.
    fn accumulate(&mut self, ix: Ix, mul: i64) -> i64 {
        let node = match ix.0 {
            I::Lit(k) => return mul * k,
            I::Term { k, c, v } => {
                self.terms.push((mul * c, v));
                return mul * k;
            }
            I::Node(n) => self.model.nodes[n as usize],
        };
        let model = self.model;
        match node {
            Node::Lin(k, s) => {
                self.terms
                    .extend(model.terms[s.range()].iter().map(|&(c, v)| (mul * c, v)));
                mul * k
            }
            Node::Sum(s) => {
                let mut k = 0;
                for &x in &model.ixs[s.range()] {
                    k += self.accumulate(x, mul);
                }
                k
            }
            Node::Scaled(a, k) => self.accumulate(a, mul * k),
            Node::Ite(c, a, b) => {
                let t = self.lower_ite(c, a, b);
                self.terms.push((mul, VarRef::Int(IntId(t))));
                0
            }
            Node::CeilDiv(a, k) => {
                let t = self.lower_ceil_div(a, k);
                self.terms.push((mul, VarRef::Int(IntId(t))));
                0
            }
            _ => unreachable!("a boolean node behind an integer handle"),
        }
    }

    /// An auxiliary `t` with `c → t = a` and `¬c → t = b`.
    fn lower_ite(&mut self, c: Bx, a: Ix, b: Ix) -> u32 {
        let clit = self.lower_bx(c);
        let la = self.lower_ix(a);
        let lb = self.lower_ix(b);
        let (alo, ahi) = bounds_of(&self.flat, la.constant, &la.terms);
        let (blo, bhi) = bounds_of(&self.flat, lb.constant, &lb.terms);
        let t = self.fresh_int(alo.min(blo), ahi.max(bhi));
        let tvar = LinExpr {
            constant: 0,
            terms: vec![(1, VarRef::Int(IntId(t)))],
        };
        // c → t = a  ≡  (¬c ∨ t ≤ a) ∧ (¬c ∨ t ≥ a)
        let d1 = tvar.clone().sub(&la);
        let le_a = self.atom_le(d1.clone(), 0);
        let ge_a = self.atom_le(d1.scale(-1), 0);
        self.flat.clauses.push([clit.negate(), le_a]);
        self.flat.clauses.push([clit.negate(), ge_a]);
        // ¬c → t = b
        let d2 = tvar.sub(&lb);
        let le_b = self.atom_le(d2.clone(), 0);
        let ge_b = self.atom_le(d2.scale(-1), 0);
        self.flat.clauses.push([clit, le_b]);
        self.flat.clauses.push([clit, ge_b]);
        t
    }

    /// An auxiliary `t` with `k·t ≥ a ∧ k·t ≤ a + k - 1`.
    fn lower_ceil_div(&mut self, a: Ix, k: i64) -> u32 {
        let la = self.lower_ix(a);
        let (alo, ahi) = bounds_of(&self.flat, la.constant, &la.terms);
        let t = self.fresh_int(div_ceil_i64(alo, k), div_ceil_i64(ahi, k));
        let kt = LinExpr {
            constant: 0,
            terms: vec![(k, VarRef::Int(IntId(t)))],
        };
        let c1 = la.clone().sub(&kt); // a - k·t ≤ 0
        let a1 = self.atom_le(c1, 0);
        let c2 = kt.sub(&la); // k·t - a ≤ k - 1
        let a2 = self.atom_le(c2, k - 1);
        self.flat.clauses.push([a1]);
        self.flat.clauses.push([a2]);
        t
    }

    /// Literal for the atom `lin ≤ k`.
    fn atom_le(&mut self, lin: LinExpr, k: i64) -> Lit {
        let base = self.terms.len();
        self.terms.extend(lin.terms);
        self.atom_le_terms(base, lin.constant, k)
    }

    /// Literal for the atom `constant + Σ terms[base..] ≤ k`
    /// (deduplicated), popping those terms; the constant folds into `k`.
    fn atom_le_terms(&mut self, base: usize, constant: i64, k: i64) -> Lit {
        let n = normalize_terms(&mut self.terms[base..]);
        self.terms.truncate(base + n);
        let lit = self.atom_lit(base, k - constant);
        self.terms.truncate(base);
        lit
    }

    /// Literal for the atom `Σ terms[base..] ≤ rhs`, its terms normalised.
    fn atom_lit(&mut self, base: usize, rhs: i64) -> Lit {
        let terms = &self.terms[base..];
        // Constant and bound-implied atoms fold to true/false.
        let (lo, hi) = bounds_of(&self.flat, 0, terms);
        if hi <= rhs {
            return self.true_lit;
        }
        if lo > rhs {
            return self.true_lit.negate();
        }
        atom_key(&mut self.key, terms, rhs);
        if let Some(&v) = self.atom_cache.get(self.key.as_slice()) {
            return Lit::pos(v);
        }
        let v = self.fresh_var();
        self.atom_cache.insert(self.key.clone(), v);
        self.flat.atoms.push(LinAtom {
            var: v,
            terms: self.terms[base..]
                .iter()
                .map(|&(c, v)| (c, flat_var(v)))
                .collect(),
            k: rhs,
        });
        Lit::pos(v)
    }

    /// The atom `a ⋈ b` for `⋈` one of `≤ < ≥ >`: `a − b ≤ 0` (or `≤ −1`),
    /// `b − a` for the other direction; `a` is lowered before `b`.
    fn lower_cmp(&mut self, op: CmpOp, a: Ix, b: Ix) -> Lit {
        let (sign, k) = match op {
            CmpOp::Le => (1, 0),
            CmpOp::Lt => (1, -1),
            CmpOp::Ge => (-1, 0),
            CmpOp::Gt => (-1, -1),
            CmpOp::Eq | CmpOp::Ne => unreachable!("expanded by lower_bx"),
        };
        let base = self.terms.len();
        let constant = self.accumulate(a, sign) + self.accumulate(b, -sign);
        self.atom_le_terms(base, constant, k)
    }

    /// `y ↔ ⋀ lits[base..]` for a fresh `y`, popping those literals.
    fn and_gate(&mut self, base: usize) -> Lit {
        let y = Lit::pos(self.fresh_var());
        let lits = &self.lits[base..];
        // y → each lit
        for &l in lits {
            self.flat.clauses.push([y.negate(), l]);
        }
        // all lits → y
        self.flat
            .clauses
            .push(lits.iter().map(|l| l.negate()).chain([y]));
        self.lits.truncate(base);
        y
    }

    /// `y ↔ ⋁ lits[base..]` for a fresh `y`, popping those literals.
    fn or_gate(&mut self, base: usize) -> Lit {
        let y = Lit::pos(self.fresh_var());
        let lits = &self.lits[base..];
        // each lit → y
        for &l in lits {
            self.flat.clauses.push([l.negate(), y]);
        }
        // y → some lit
        self.flat
            .clauses
            .push(lits.iter().copied().chain([y.negate()]));
        self.lits.truncate(base);
        y
    }

    /// Lower each of `xs` and push its literal onto `self.lits`; returns
    /// where they start.
    fn push_operands(&mut self, xs: &[Bx]) -> usize {
        let base = self.lits.len();
        for &x in xs {
            let l = self.lower_bx(x);
            self.lits.push(l);
        }
        base
    }

    /// Tseitin-lower a boolean expression, returning the literal equivalent
    /// to it.
    fn lower_bx(&mut self, bx: Bx) -> Lit {
        let node = match bx.0 {
            B::Const(true) => return self.true_lit,
            B::Const(false) => return self.true_lit.negate(),
            B::Var(v) => return Lit::pos(v.0),
            B::Node(n) => self.model.nodes[n as usize],
        };
        let model = self.model;
        match node {
            Node::Not(b) => self.lower_bx(b).negate(),
            Node::And(s) => {
                let base = self.push_operands(&model.bxs[s.range()]);
                self.and_gate(base)
            }
            Node::Or(s) => {
                let base = self.push_operands(&model.bxs[s.range()]);
                self.or_gate(base)
            }
            Node::Implies(a, b) => {
                let base = self.push_operands(&[a, b]);
                self.lits[base] = self.lits[base].negate();
                self.or_gate(base)
            }
            Node::Iff(a, b) => {
                let la = self.lower_bx(a);
                let lb = self.lower_bx(b);
                let y = Lit::pos(self.fresh_var());
                // y → (la ↔ lb); ¬y → (la ↔ ¬lb)
                self.flat.clauses.push([y.negate(), la.negate(), lb]);
                self.flat.clauses.push([y.negate(), la, lb.negate()]);
                self.flat.clauses.push([y, la, lb]);
                self.flat.clauses.push([y, la.negate(), lb.negate()]);
                y
            }
            Node::Cmp(CmpOp::Eq, a, b) => {
                let le = self.lower_cmp(CmpOp::Le, a, b);
                let ge = self.lower_cmp(CmpOp::Ge, a, b);
                let base = self.lits.len();
                self.lits.extend([le, ge]);
                self.and_gate(base)
            }
            Node::Cmp(CmpOp::Ne, a, b) => {
                let lt = self.lower_cmp(CmpOp::Lt, a, b);
                let gt = self.lower_cmp(CmpOp::Gt, a, b);
                let base = self.lits.len();
                self.lits.extend([lt, gt]);
                self.or_gate(base)
            }
            Node::Cmp(op, a, b) => self.lower_cmp(op, a, b),
            _ => unreachable!("an integer node behind a boolean handle"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Bx, Ix};
    use crate::model::Model;

    #[test]
    fn flatten_simple_bool() {
        let mut m = Model::new();
        let a = m.bool_var("a");
        let b = m.bool_var("b");
        let c = m.or([Bx::var(a), Bx::var(b)]);
        m.require(c);
        let f = flatten(&m);
        assert_eq!(f.num_model_bools, 2);
        assert!(f.num_sat_vars >= 3); // a, b, TRUE, or-node
        assert!(!f.clauses.is_empty());
    }

    #[test]
    fn flatten_dedups_atoms() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 100);
        for _ in 0..2 {
            let c = m.le(Ix::var(x), Ix::lit(5));
            m.require(c);
        }
        let f = flatten(&m);
        assert_eq!(f.atoms.len(), 1);
    }

    #[test]
    fn flatten_folds_trivial_atoms() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 10);
        let c = m.le(Ix::var(x), Ix::lit(100)); // always true given bounds
        m.require(c);
        let c = m.ge(Ix::var(x), Ix::lit(0)); // always true
        m.require(c);
        let f = flatten(&m);
        assert_eq!(f.atoms.len(), 0);
    }

    #[test]
    fn flatten_objective() {
        let mut m = Model::new();
        let a = m.bool_var("a");
        let x = m.int_var("x", 0, 9);
        m.require(Bx::var(a));
        let ten_a = m.scale(Ix::bool01(a), 10);
        let obj = m.sum([Ix::var(x), ten_a]);
        let f = flatten_with_objective(&m, Some(&obj));
        let o = f.objective.as_ref().unwrap();
        assert_eq!(o.len(), 2);
    }

    #[test]
    fn clauses_sit_back_to_back_and_print_as_nested_vecs() {
        let rows = vec![
            vec![Lit::pos(0)],
            vec![Lit::neg(1), Lit::pos(2)],
            vec![Lit::pos(3), Lit::neg(0), Lit::pos(1)],
        ];
        let mut c = Clauses::default();
        assert!(c.is_empty());
        assert_eq!(format!("{c:?}"), format!("{:?}", Vec::<Vec<Lit>>::new()));
        for row in &rows {
            c.push(row.iter().copied());
        }
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&c[i], &row[..], "clause {i}");
        }
        assert!(c.iter().eq(rows.iter().map(|row| &row[..])));
        // `encode_identity`'s fingerprints hash this rendering.
        assert_eq!(format!("{c:?}"), format!("{rows:?}"));
        assert_eq!(format!("{c:#?}"), format!("{rows:#?}"));

        // A search's copy takes a learned clause and reorders a clause in
        // place; its neighbours and the original stay as they were.
        let mut search = c.clone();
        let learned = [Lit::neg(2), Lit::pos(0)];
        search.push(learned);
        search.clause_mut(1).swap(0, 1);
        assert_eq!(search.len(), 4);
        assert_eq!(&search[3], &learned[..]);
        assert_eq!(&search[1], &[Lit::pos(2), Lit::neg(1)][..]);
        let mut expected = rows.clone();
        expected[1].swap(0, 1);
        expected.push(learned.to_vec());
        assert_eq!(format!("{search:?}"), format!("{expected:?}"));
        assert_eq!(format!("{c:?}"), format!("{rows:?}"));
    }

    #[test]
    fn lit_encoding_roundtrip() {
        let l = Lit::pos(7);
        assert_eq!(l.var(), 7);
        assert!(!l.is_neg());
        let n = l.negate();
        assert!(n.is_neg());
        assert_eq!(n.var(), 7);
        assert_eq!(n.negate(), l);
    }

    #[test]
    fn expand_at_most_one() {
        let mut m = Model::new();
        let vs: Vec<_> = (0..3).map(|i| m.bool_var(format!("v{i}"))).collect();
        let e = m.at_most_one(vs.iter().map(|&v| Bx::var(v)));
        // 3 choose 2 = 3 pairwise clauses
        match m.bx_node(e) {
            Some(Node::And(s)) => assert_eq!(s.len, 3),
            other => panic!("expected And, got {other:?}"),
        }
        let (v0, v1) = (Bx::var(vs[0]), Bx::var(vs[1]));
        let (n0, n1) = (m.not(v0), m.not(v1));
        let first = m.or([n0, n1]);
        let Some(Node::And(s)) = m.bx_node(e) else {
            unreachable!()
        };
        assert!(m.same_bx(m.bxs[s.start as usize], first));
    }

    #[test]
    fn equalities_lower_to_two_bounds_under_one_gate() {
        // `x = 3` is `x ≤ 3 ∧ x ≥ 3`: two atoms and one `and` gate;
        // `x ≠ 3` is `x ≤ 2 ∨ x ≥ 4`: two more under an `or` gate.
        let mut m = Model::new();
        let x = m.int_var("x", 0, 9);
        let eq = m.eq(Ix::var(x), Ix::lit(3));
        m.require(eq);
        let f = flatten(&m);
        let row = |c: i64| (vec![(c, FlatVar::Int(0))], 3 * c);
        let rows: Vec<_> = f.atoms.iter().map(|a| (a.terms.clone(), a.k)).collect();
        assert_eq!(rows, [row(1), row(-1)]);
        assert_eq!(f.num_sat_vars, 1 + 2 + 1);

        let ne = m.ne(Ix::var(x), Ix::lit(3));
        m.require(ne);
        let f = flatten(&m);
        assert_eq!(f.atoms.len(), 4);
        assert_eq!(f.num_sat_vars, 1 + 2 + 1 + 2 + 1);
    }

    #[test]
    fn atom_of_var_is_a_dense_map() {
        let mut m = Model::new();
        let a = m.bool_var("a");
        let x = m.int_var("x", 0, 9);
        let ge = m.ge(Ix::var(x), Ix::lit(4));
        let c = m.implies(Bx::var(a), ge);
        m.require(c);
        let f = flatten(&m);
        assert_eq!(f.atom_of_var.len(), f.num_sat_vars);
        for v in 0..f.num_sat_vars as u32 {
            let atom = f.atoms.iter().find(|atom| atom.var == v);
            assert_eq!(f.atom_of(v), atom, "variable {v}");
        }
        assert_eq!(f.atoms.len(), 1);
    }
}
