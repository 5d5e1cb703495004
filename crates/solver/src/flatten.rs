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

use std::collections::HashMap;

use crate::expr::{div_ceil_i64, Bx, CmpOp, Ix, LinExpr, VarRef};
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
    pub fn is_neg(self) -> bool {
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
    /// CNF clauses.
    pub clauses: Vec<Vec<Lit>>,
    /// Linear atoms, indexed by `atom_of_var`.
    pub atoms: Vec<LinAtom>,
    /// Map from SAT variable to its atom index, if it is an atom variable.
    pub atom_of_var: HashMap<u32, usize>,
    /// Linear form of the objective, if one was lowered.
    pub objective: Option<Vec<(i64, FlatVar)>>,
    /// Constant offset of the objective.
    pub objective_constant: i64,
}

impl FlatModel {
    /// Bounds `(lo, hi)` a linear combination can take given variable bounds.
    pub fn lin_bounds(&self, terms: &[(i64, FlatVar)]) -> (i64, i64) {
        let mut lo = 0i64;
        let mut hi = 0i64;
        for &(c, v) in terms {
            let (vlo, vhi) = match v {
                FlatVar::Bool(_) => (0, 1),
                FlatVar::Int(i) => self.int_bounds[i as usize],
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
}

struct Flattener<'m> {
    /// Kept for debugging helpers and future name-aware diagnostics.
    #[allow(dead_code)]
    model: &'m Model,
    flat: FlatModel,
    next_sat_var: u32,
    true_lit: Lit,
    atom_cache: HashMap<(Vec<(i64, FlatVar)>, i64), u32>,
}

/// Flatten a model to CNF + linear atoms.
pub fn flatten(model: &Model) -> FlatModel {
    flatten_with_objective(model, None)
}

/// Flatten a model, additionally lowering `objective` so a branch-and-bound
/// loop can evaluate and constrain it.
pub fn flatten_with_objective(model: &Model, objective: Option<&Ix>) -> FlatModel {
    let mut f = Flattener::new(model);
    for c in model.constraints() {
        let expanded = expand(c.clone());
        let lit = f.lower_bx(&expanded);
        f.flat.clauses.push(vec![lit]);
    }
    if let Some(obj) = objective {
        let lin = f.lower_ix(obj);
        f.flat.objective = Some(lin.terms.iter().map(|&(c, v)| (c, f.flat_var(v))).collect());
        f.flat.objective_constant = lin.constant;
    }
    f.flat.num_sat_vars = f.next_sat_var as usize;
    f.flat
}

/// Pre-expansion: rewrite `AtMostOne`, `Iff` over comparisons, `Eq`/`Ne`
/// comparisons into the core connectives so Tseitin only sees
/// and/or/not/implies/iff/var/const/le-atoms.
fn expand(bx: Bx) -> Bx {
    match bx {
        Bx::Const(_) | Bx::Var(_) => bx,
        Bx::Not(b) => Bx::not(expand(*b)),
        Bx::And(xs) => Bx::and(xs.into_iter().map(expand).collect()),
        Bx::Or(xs) => Bx::or(xs.into_iter().map(expand).collect()),
        Bx::Implies(a, b) => Bx::implies(expand(*a), expand(*b)),
        Bx::Iff(a, b) => Bx::iff(expand(*a), expand(*b)),
        Bx::AtMostOne(xs) => {
            let xs: Vec<Bx> = xs.into_iter().map(expand).collect();
            let mut pairs = Vec::new();
            for i in 0..xs.len() {
                for j in (i + 1)..xs.len() {
                    pairs.push(Bx::or(vec![Bx::not(xs[i].clone()), Bx::not(xs[j].clone())]));
                }
            }
            Bx::and(pairs)
        }
        Bx::Cmp(op, a, b) => match op {
            CmpOp::Eq => Bx::and(vec![
                Bx::Cmp(CmpOp::Le, a.clone(), b.clone()),
                Bx::Cmp(CmpOp::Ge, a, b),
            ]),
            CmpOp::Ne => Bx::or(vec![
                Bx::Cmp(CmpOp::Lt, a.clone(), b.clone()),
                Bx::Cmp(CmpOp::Gt, a, b),
            ]),
            _ => Bx::Cmp(op, a, b),
        },
    }
}

impl<'m> Flattener<'m> {
    fn new(model: &'m Model) -> Self {
        let mut flat = FlatModel {
            num_model_bools: model.num_bools(),
            num_model_ints: model.num_ints(),
            ..Default::default()
        };
        for (_, d) in model.int_decls() {
            flat.int_bounds.push((d.lo, d.hi));
        }
        let mut next = model.num_bools() as u32;
        // Reserve one variable that is always true, to represent constants.
        let true_var = next;
        next += 1;
        flat.clauses.push(vec![Lit::pos(true_var)]);
        Flattener {
            model,
            flat,
            next_sat_var: next,
            true_lit: Lit::pos(true_var),
            atom_cache: HashMap::new(),
        }
    }

    fn fresh_var(&mut self) -> u32 {
        let v = self.next_sat_var;
        self.next_sat_var += 1;
        v
    }

    fn flat_var(&self, v: VarRef) -> FlatVar {
        match v {
            VarRef::Int(i) => FlatVar::Int(i.index() as u32),
            VarRef::Bool(b) => FlatVar::Bool(b.index() as u32),
        }
    }

    fn fresh_int(&mut self, lo: i64, hi: i64) -> u32 {
        let idx = self.flat.int_bounds.len() as u32;
        self.flat.int_bounds.push((lo, hi));
        idx
    }

    /// Lower an integer expression to a linear form, introducing auxiliary
    /// integers (as fresh `IntId`-like flat indices) with defining clauses.
    fn lower_ix(&mut self, ix: &Ix) -> LinExpr {
        match ix {
            Ix::Lin(l) => l.clone().normalize(),
            Ix::Sum(xs) => {
                let mut acc = LinExpr::constant(0);
                for x in xs {
                    let l = self.lower_ix(x);
                    acc = acc.add(&l);
                }
                acc
            }
            Ix::Scaled(a, k) => self.lower_ix(a).scale(*k),
            Ix::Ite(c, a, b) => {
                let clit = self.lower_bx(&expand((**c).clone()));
                let la = self.lower_ix(a);
                let lb = self.lower_ix(b);
                let (alo, ahi) = self.bounds_of(&la);
                let (blo, bhi) = self.bounds_of(&lb);
                let t = self.fresh_int(alo.min(blo), ahi.max(bhi));
                let tvar = LinExpr {
                    constant: 0,
                    terms: vec![(1, VarRef::Int(crate::model::IntId(t)))],
                };
                // c → t = a  ≡  (¬c ∨ t ≤ a) ∧ (¬c ∨ t ≥ a)
                let d1 = tvar.clone().sub(&la);
                let le_a = self.atom_le(&d1, 0);
                let ge_a = self.atom_le(&d1.clone().scale(-1), 0);
                self.flat.clauses.push(vec![clit.negate(), le_a]);
                self.flat.clauses.push(vec![clit.negate(), ge_a]);
                // ¬c → t = b
                let d2 = tvar.clone().sub(&lb);
                let le_b = self.atom_le(&d2, 0);
                let ge_b = self.atom_le(&d2.clone().scale(-1), 0);
                self.flat.clauses.push(vec![clit, le_b]);
                self.flat.clauses.push(vec![clit, ge_b]);
                tvar
            }
            Ix::CeilDiv(a, k) => {
                let la = self.lower_ix(a);
                let (alo, ahi) = self.bounds_of(&la);
                let t = self.fresh_int(div_ceil_i64(alo, *k), div_ceil_i64(ahi, *k));
                let tvar = LinExpr {
                    constant: 0,
                    terms: vec![(1, VarRef::Int(crate::model::IntId(t)))],
                };
                // k·t ≥ a  ∧  k·t ≤ a + k - 1
                let kt = tvar.clone().scale(*k);
                let c1 = la.clone().sub(&kt); // a - k·t ≤ 0
                let a1 = self.atom_le(&c1, 0);
                let c2 = kt.sub(&la); // k·t - a ≤ k - 1
                let a2 = self.atom_le(&c2, *k - 1);
                self.flat.clauses.push(vec![a1]);
                self.flat.clauses.push(vec![a2]);
                tvar
            }
        }
    }

    fn bounds_of(&self, l: &LinExpr) -> (i64, i64) {
        let mut lo = l.constant;
        let mut hi = l.constant;
        for &(c, v) in &l.terms {
            let (vlo, vhi) = match v {
                VarRef::Bool(_) => (0, 1),
                VarRef::Int(i) => self.flat.int_bounds[i.index()],
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

    /// Literal for the atom `lin ≤ k` (deduplicated). The linear expression's
    /// constant folds into `k`.
    fn atom_le(&mut self, lin: &LinExpr, k: i64) -> Lit {
        let lin = lin.clone().normalize();
        let rhs = k - lin.constant;
        let terms: Vec<(i64, FlatVar)> = lin
            .terms
            .iter()
            .map(|&(c, v)| (c, self.flat_var(v)))
            .collect();
        // Constant atoms fold to true/false immediately.
        if terms.is_empty() {
            return if 0 <= rhs {
                self.true_lit
            } else {
                self.true_lit.negate()
            };
        }
        // Bound-implied atoms also fold.
        let (lo, hi) = self.flat.lin_bounds(&terms);
        if hi <= rhs {
            return self.true_lit;
        }
        if lo > rhs {
            return self.true_lit.negate();
        }
        let key = (terms.clone(), rhs);
        if let Some(&v) = self.atom_cache.get(&key) {
            return Lit::pos(v);
        }
        let v = self.fresh_var();
        self.atom_cache.insert(key, v);
        let idx = self.flat.atoms.len();
        self.flat.atoms.push(LinAtom {
            var: v,
            terms,
            k: rhs,
        });
        self.flat.atom_of_var.insert(v, idx);
        Lit::pos(v)
    }

    /// Tseitin-lower a boolean expression, returning the literal equivalent
    /// to it.
    fn lower_bx(&mut self, bx: &Bx) -> Lit {
        match bx {
            Bx::Const(true) => self.true_lit,
            Bx::Const(false) => self.true_lit.negate(),
            Bx::Var(v) => Lit::pos(v.index() as u32),
            Bx::Not(b) => self.lower_bx(b).negate(),
            Bx::And(xs) => {
                let lits: Vec<Lit> = xs.iter().map(|x| self.lower_bx(x)).collect();
                let y = Lit::pos(self.fresh_var());
                // y → each lit
                for &l in &lits {
                    self.flat.clauses.push(vec![y.negate(), l]);
                }
                // all lits → y
                let mut cl: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
                cl.push(y);
                self.flat.clauses.push(cl);
                y
            }
            Bx::Or(xs) => {
                let lits: Vec<Lit> = xs.iter().map(|x| self.lower_bx(x)).collect();
                let y = Lit::pos(self.fresh_var());
                // each lit → y
                for &l in &lits {
                    self.flat.clauses.push(vec![l.negate(), y]);
                }
                // y → some lit
                let mut cl = lits;
                cl.push(y.negate());
                self.flat.clauses.push(cl);
                y
            }
            Bx::Implies(a, b) => {
                let or = Bx::Or(vec![Bx::not((**a).clone()), (**b).clone()]);
                self.lower_bx(&or)
            }
            Bx::Iff(a, b) => {
                let la = self.lower_bx(a);
                let lb = self.lower_bx(b);
                let y = Lit::pos(self.fresh_var());
                // y → (la ↔ lb); ¬y → (la ↔ ¬lb)
                self.flat.clauses.push(vec![y.negate(), la.negate(), lb]);
                self.flat.clauses.push(vec![y.negate(), la, lb.negate()]);
                self.flat.clauses.push(vec![y, la, lb]);
                self.flat.clauses.push(vec![y, la.negate(), lb.negate()]);
                y
            }
            Bx::Cmp(op, a, b) => {
                let la = self.lower_ix(a);
                let lb = self.lower_ix(b);
                match op {
                    CmpOp::Le => {
                        let d = la.sub(&lb);
                        self.atom_le(&d, 0)
                    }
                    CmpOp::Lt => {
                        let d = la.sub(&lb);
                        self.atom_le(&d, -1)
                    }
                    CmpOp::Ge => {
                        let d = lb.sub(&la);
                        self.atom_le(&d, 0)
                    }
                    CmpOp::Gt => {
                        let d = lb.sub(&la);
                        self.atom_le(&d, -1)
                    }
                    CmpOp::Eq | CmpOp::Ne => {
                        // `expand` rewrites these before lowering; handle
                        // defensively anyway.
                        let e = expand(Bx::Cmp(*op, a.clone(), b.clone()));
                        self.lower_bx(&e)
                    }
                }
            }
            Bx::AtMostOne(xs) => {
                let e = expand(Bx::AtMostOne(xs.clone()));
                self.lower_bx(&e)
            }
        }
    }
}

// Allow constructing IntId for auxiliary variables inside this crate.
impl crate::model::IntId {
    pub(crate) fn aux(idx: u32) -> Self {
        crate::model::IntId(idx)
    }
}

// Keep the helper used (the constructor above is exercised through
// `fresh_int` call sites which build IntId directly).
#[allow(dead_code)]
fn _use_aux() {
    let _ = IntId::aux(0);
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
        m.require(Bx::or(vec![Bx::var(a), Bx::var(b)]));
        let f = flatten(&m);
        assert_eq!(f.num_model_bools, 2);
        assert!(f.num_sat_vars >= 3); // a, b, TRUE, or-node
        assert!(!f.clauses.is_empty());
    }

    #[test]
    fn flatten_dedups_atoms() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 100);
        m.require(Ix::var(x).le(Ix::lit(5)));
        m.require(Ix::var(x).le(Ix::lit(5)));
        let f = flatten(&m);
        assert_eq!(f.atoms.len(), 1);
    }

    #[test]
    fn flatten_folds_trivial_atoms() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 10);
        m.require(Ix::var(x).le(Ix::lit(100))); // always true given bounds
        m.require(Ix::var(x).ge(Ix::lit(0))); // always true
        let f = flatten(&m);
        assert_eq!(f.atoms.len(), 0);
    }

    #[test]
    fn flatten_objective() {
        let mut m = Model::new();
        let a = m.bool_var("a");
        let x = m.int_var("x", 0, 9);
        m.require(Bx::var(a));
        let obj = Ix::var(x).add(Ix::bool01(a).scale(10));
        let f = flatten_with_objective(&m, Some(&obj));
        let o = f.objective.as_ref().unwrap();
        assert_eq!(o.len(), 2);
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
        let e = expand(Bx::AtMostOne(vs.iter().map(|&v| Bx::var(v)).collect()));
        // 3 choose 2 = 3 pairwise clauses
        match e {
            Bx::And(xs) => assert_eq!(xs.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
    }
}
