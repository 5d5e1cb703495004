//! The constraint [`Model`]: variable declarations, the expression arena,
//! required constraints, and solved [`Solution`]s.

use std::fmt::{Display, Write};

use crate::expr::{div_ceil_i64, normalize_terms, Bx, CmpOp, Ix, Node, Span, VarRef, B, I};

/// Identifier of a boolean variable within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoolId(pub(crate) u32);

/// Identifier of an integer variable within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntId(pub(crate) u32);

impl BoolId {
    /// Raw index of this variable (stable within its model).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl IntId {
    /// Raw index of this variable (stable within its model).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Declaration of a boolean variable, borrowed from its model.
#[derive(Debug, Clone, Copy)]
pub struct BoolDecl<'m> {
    /// Human-readable name (used in debugging output and diagnostics).
    pub name: &'m str,
}

/// Declaration of a bounded integer variable, borrowed from its model.
#[derive(Debug, Clone, Copy)]
pub struct IntDecl<'m> {
    /// Human-readable name.
    pub name: &'m str,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

#[derive(Debug, Clone, Copy)]
struct IntRec {
    name: Span,
    lo: i64,
    hi: i64,
}

/// A constraint model: variables plus a conjunction of required boolean
/// expressions, all stored in one arena.
///
/// Composite expressions are built with `Model` methods ([`Model::and`],
/// [`Model::implies`], [`Model::sum`], [`Model::ite`], the comparisons …),
/// which fold constants exactly as the paper's formulas read (`x ∧ true` is
/// `x`, `ite(true, a, b)` is `a`, a sum of linear forms is one linear
/// form), and return `Copy` handles into the arena. Nothing is
/// deduplicated: each call adds what it builds, so the constraint sequence
/// is exactly the sequence of calls.
///
/// `Model` is backend-agnostic — the native solver flattens and searches it,
/// and an external SMT backend could translate the identical structure.
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// Every variable name, back to back.
    names: String,
    bools: Vec<Span>,
    ints: Vec<IntRec>,
    pub(crate) nodes: Vec<Node>,
    /// Operands of `And` / `Or` nodes.
    pub(crate) bxs: Vec<Bx>,
    /// Operands of `Sum` nodes.
    pub(crate) ixs: Vec<Ix>,
    /// Terms of `Lin` nodes.
    pub(crate) terms: Vec<(i64, VarRef)>,
    pub(crate) constraints: Vec<Bx>,
}

fn span(start: usize, len: usize) -> Span {
    Span {
        start: start as u32,
        len: len as u32,
    }
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    fn name(&mut self, name: impl Display) -> Span {
        let start = self.names.len();
        write!(self.names, "{name}").expect("formatting into a String");
        span(start, self.names.len() - start)
    }

    /// Declare a fresh boolean variable.
    pub fn bool_var(&mut self, name: impl Display) -> BoolId {
        let id = BoolId(self.bools.len() as u32);
        let name = self.name(name);
        self.bools.push(name);
        id
    }

    /// Declare a fresh integer variable with inclusive bounds `[lo, hi]`.
    ///
    /// Panics if `lo > hi`.
    pub fn int_var(&mut self, name: impl Display, lo: i64, hi: i64) -> IntId {
        assert!(lo <= hi, "int var {name}: empty domain [{lo}, {hi}]");
        let id = IntId(self.ints.len() as u32);
        let name = self.name(name);
        self.ints.push(IntRec { name, lo, hi });
        id
    }

    /// Add a constraint that every solution must satisfy.
    pub fn require(&mut self, c: Bx) {
        self.constraints.push(c);
    }

    /// Number of declared boolean variables.
    pub fn num_bools(&self) -> usize {
        self.bools.len()
    }

    /// Number of declared integer variables.
    pub fn num_ints(&self) -> usize {
        self.ints.len()
    }

    /// Number of required constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// All constraints, in the order they were required.
    pub fn constraints(&self) -> &[Bx] {
        &self.constraints
    }

    /// Iterate over boolean declarations with their ids.
    pub fn bool_decls(&self) -> impl Iterator<Item = (BoolId, BoolDecl<'_>)> {
        (0u32..).zip(&self.bools).map(|(i, &name)| {
            let name = &self.names[name.range()];
            (BoolId(i), BoolDecl { name })
        })
    }

    /// Iterate over integer declarations with their ids.
    pub fn int_decls(&self) -> impl Iterator<Item = (IntId, IntDecl<'_>)> {
        (0u32..).zip(&self.ints).map(|(i, d)| {
            let name = &self.names[d.name.range()];
            let (lo, hi) = (d.lo, d.hi);
            (IntId(i), IntDecl { name, lo, hi })
        })
    }

    /// Bounds of every integer variable, in declaration order.
    pub(crate) fn int_bounds(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        self.ints.iter().map(|d| (d.lo, d.hi))
    }

    fn push_bx(&mut self, n: Node) -> Bx {
        self.nodes.push(n);
        Bx(B::Node(self.nodes.len() as u32 - 1))
    }

    fn push_ix(&mut self, n: Node) -> Ix {
        self.nodes.push(n);
        Ix(I::Node(self.nodes.len() as u32 - 1))
    }

    /// Negation (with a couple of cheap simplifications).
    pub fn not(&mut self, b: Bx) -> Bx {
        match b.0 {
            B::Const(v) => Bx::lit(!v),
            B::Node(n) => match self.nodes[n as usize] {
                Node::Not(inner) => inner,
                _ => self.push_bx(Node::Not(b)),
            },
            B::Var(_) => self.push_bx(Node::Not(b)),
        }
    }

    /// N-ary conjunction.
    pub fn and(&mut self, xs: impl IntoIterator<Item = Bx>) -> Bx {
        self.junction(xs, true)
    }

    /// N-ary disjunction.
    pub fn or(&mut self, xs: impl IntoIterator<Item = Bx>) -> Bx {
        self.junction(xs, false)
    }

    /// `and` (`unit` = true) or `or` (`unit` = false): `unit` operands drop
    /// out, a `!unit` operand decides the whole, and zero or one operands
    /// left need no node.
    fn junction(&mut self, xs: impl IntoIterator<Item = Bx>, unit: bool) -> Bx {
        let start = self.bxs.len();
        let mut decided = false;
        for x in xs {
            match x.0 {
                B::Const(v) if v == unit => {}
                B::Const(_) => decided = true,
                _ => self.bxs.push(x),
            }
        }
        let len = self.bxs.len() - start;
        let folded = match len {
            _ if decided => Bx::lit(!unit),
            0 => Bx::lit(unit),
            1 => self.bxs[start],
            _ => {
                let s = span(start, len);
                return self.push_bx(if unit { Node::And(s) } else { Node::Or(s) });
            }
        };
        self.bxs.truncate(start);
        folded
    }

    /// Disjunction of variables.
    pub fn any_of(&mut self, vars: impl IntoIterator<Item = BoolId>) -> Bx {
        self.or(vars.into_iter().map(Bx::var))
    }

    /// Implication `a → b`.
    pub fn implies(&mut self, a: Bx, b: Bx) -> Bx {
        match (a.0, b.0) {
            (B::Const(false), _) | (_, B::Const(true)) => Bx::lit(true),
            (B::Const(true), _) => b,
            (_, B::Const(false)) => self.not(a),
            _ => self.push_bx(Node::Implies(a, b)),
        }
    }

    /// Equivalence `a ↔ b`.
    pub fn iff(&mut self, a: Bx, b: Bx) -> Bx {
        self.push_bx(Node::Iff(a, b))
    }

    /// At most one of `xs` is true, stored as the pairwise encoding
    /// `⋀_{i<j} (¬xᵢ ∨ ¬xⱼ)` that `flatten` lowers it to.
    pub fn at_most_one(&mut self, xs: impl IntoIterator<Item = Bx>) -> Bx {
        let xs: Vec<Bx> = xs.into_iter().collect();
        let mut pairs = Vec::new();
        for (i, &a) in xs.iter().enumerate() {
            for &b in &xs[i + 1..] {
                let (na, nb) = (self.not(a), self.not(b));
                pairs.push(self.or([na, nb]));
            }
        }
        self.and(pairs)
    }

    /// Is `x` a linear form (inline, or a `Lin` node)?
    fn is_linear(&self, x: Ix) -> bool {
        match x.0 {
            I::Lit(_) | I::Term { .. } => true,
            I::Node(n) => matches!(self.nodes[n as usize], Node::Lin(..)),
        }
    }

    /// Append the terms of linear `x` to `terms`; return its constant.
    fn append_linear(&mut self, x: Ix) -> i64 {
        match x.0 {
            I::Lit(k) => k,
            I::Term { k, c, v } => {
                self.terms.push((c, v));
                k
            }
            I::Node(n) => match self.nodes[n as usize] {
                Node::Lin(k, s) => {
                    self.terms.extend_from_within(s.range());
                    k
                }
                _ => unreachable!("append_linear on a non-linear form"),
            },
        }
    }

    /// `k + Σ terms[start..]` as a handle: no node for at most one term.
    fn linear_from(&mut self, k: i64, start: usize) -> Ix {
        match self.terms.len() - start {
            0 => Ix::lit(k),
            1 => {
                let (c, v) = self.terms.pop().expect("one term");
                Ix(I::Term { k, c, v })
            }
            len => self.push_ix(Node::Lin(k, span(start, len))),
        }
    }

    /// Sum of expressions. All-linear operands add up to one linear form —
    /// what lowering a `Sum` node would compute — instead of a node over
    /// them.
    pub fn sum(&mut self, xs: impl IntoIterator<Item = Ix>) -> Ix {
        let start = self.ixs.len();
        self.ixs.extend(xs);
        let len = self.ixs.len() - start;
        if len == 0 {
            return Ix::lit(0);
        }
        if len == 1 {
            return self.ixs.pop().expect("one operand");
        }
        if !self.ixs[start..].iter().all(|&x| self.is_linear(x)) {
            return self.push_ix(Node::Sum(span(start, len)));
        }
        let t = self.terms.len();
        let mut k = 0;
        for i in start..start + len {
            k += self.append_linear(self.ixs[i]);
        }
        self.ixs.truncate(start);
        self.linear_from(k, t)
    }

    /// `Σ vars` as one linear form: integer variables, or booleans coerced
    /// to 0/1.
    pub fn total(&mut self, vars: impl IntoIterator<Item = VarRef>) -> Ix {
        let t = self.terms.len();
        self.terms.extend(vars.into_iter().map(|v| (1, v)));
        self.linear_from(0, t)
    }

    /// `if cond then a else b`.
    pub fn ite(&mut self, cond: Bx, a: Ix, b: Ix) -> Ix {
        match cond.0 {
            B::Const(true) => a,
            B::Const(false) => b,
            _ => self.push_ix(Node::Ite(cond, a, b)),
        }
    }

    /// `⌈a / k⌉`, `k ≥ 1`. Panics on `k < 1`.
    pub fn ceil_div(&mut self, a: Ix, k: i64) -> Ix {
        assert!(k >= 1, "ceil_div divisor must be >= 1, got {k}");
        match a.0 {
            _ if k == 1 => a,
            I::Lit(v) => Ix::lit(div_ceil_i64(v, k)),
            _ => self.push_ix(Node::CeilDiv(a, k)),
        }
    }

    /// `k · a` for constant `k`: linear forms are scaled (and normalised),
    /// sums and `ite` branches scaled operand by operand.
    pub fn scale(&mut self, a: Ix, k: i64) -> Ix {
        if self.is_linear(a) {
            let t = self.terms.len();
            let constant = self.append_linear(a);
            for term in &mut self.terms[t..] {
                term.0 *= k;
            }
            let len = normalize_terms(&mut self.terms[t..]);
            self.terms.truncate(t + len);
            return self.linear_from(constant * k, t);
        }
        let I::Node(n) = a.0 else {
            unreachable!("inline forms are linear")
        };
        match self.nodes[n as usize] {
            Node::Sum(s) => {
                let operands: Vec<Ix> = self.ixs[s.range()].to_vec();
                let scaled: Vec<Ix> = operands.into_iter().map(|x| self.scale(x, k)).collect();
                let start = self.ixs.len();
                self.ixs.extend(scaled);
                self.push_ix(Node::Sum(span(start, s.len as usize)))
            }
            Node::Ite(c, x, y) => {
                let (x, y) = (self.scale(x, k), self.scale(y, k));
                self.push_ix(Node::Ite(c, x, y))
            }
            _ => self.push_ix(Node::Scaled(a, k)),
        }
    }

    fn cmp(&mut self, op: CmpOp, a: Ix, b: Ix) -> Bx {
        self.push_bx(Node::Cmp(op, a, b))
    }

    /// `a = b`.
    pub fn eq(&mut self, a: Ix, b: Ix) -> Bx {
        self.cmp(CmpOp::Eq, a, b)
    }

    /// `a ≠ b`.
    #[cfg(test)]
    pub(crate) fn ne(&mut self, a: Ix, b: Ix) -> Bx {
        self.cmp(CmpOp::Ne, a, b)
    }

    /// `a ≤ b`.
    pub fn le(&mut self, a: Ix, b: Ix) -> Bx {
        self.cmp(CmpOp::Le, a, b)
    }

    /// `a < b`.
    pub fn lt(&mut self, a: Ix, b: Ix) -> Bx {
        self.cmp(CmpOp::Lt, a, b)
    }

    /// `a ≥ b`.
    pub fn ge(&mut self, a: Ix, b: Ix) -> Bx {
        self.cmp(CmpOp::Ge, a, b)
    }

    /// `a > b`.
    pub fn gt(&mut self, a: Ix, b: Ix) -> Bx {
        self.cmp(CmpOp::Gt, a, b)
    }
}

/// A satisfying assignment produced by the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    pub(crate) bools: Vec<bool>,
    pub(crate) ints: Vec<i64>,
}

impl Solution {
    /// Construct a solution from raw assignments (used by backends).
    pub fn from_parts(bools: Vec<bool>, ints: Vec<i64>) -> Self {
        Solution { bools, ints }
    }

    /// Value of a boolean variable.
    pub fn bool(&self, id: BoolId) -> bool {
        self.bools[id.index()]
    }

    /// Value of an integer variable.
    pub fn int(&self, id: IntId) -> i64 {
        self.ints[id.index()]
    }

    fn var(&self, v: VarRef) -> i64 {
        match v {
            VarRef::Int(i) => self.int(i),
            VarRef::Bool(b) => self.bool(b) as i64,
        }
    }

    /// Evaluate a boolean expression of `model` under this solution.
    pub fn eval_bx(&self, model: &Model, bx: Bx) -> bool {
        let n = match bx.0 {
            B::Const(b) => return b,
            B::Var(v) => return self.bool(v),
            B::Node(n) => model.nodes[n as usize],
        };
        let all = |s: Span| model.bxs[s.range()].iter();
        match n {
            Node::Not(b) => !self.eval_bx(model, b),
            Node::And(s) => all(s).all(|&x| self.eval_bx(model, x)),
            Node::Or(s) => all(s).any(|&x| self.eval_bx(model, x)),
            Node::Implies(a, b) => !self.eval_bx(model, a) || self.eval_bx(model, b),
            Node::Iff(a, b) => self.eval_bx(model, a) == self.eval_bx(model, b),
            Node::Cmp(op, a, b) => {
                let (a, b) = (self.eval_ix(model, a), self.eval_ix(model, b));
                match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Le => a <= b,
                    CmpOp::Lt => a < b,
                    CmpOp::Ge => a >= b,
                    CmpOp::Gt => a > b,
                }
            }
            _ => unreachable!("an integer node behind a boolean handle"),
        }
    }

    /// Evaluate an integer expression of `model` under this solution.
    pub fn eval_ix(&self, model: &Model, ix: Ix) -> i64 {
        let n = match ix.0 {
            I::Lit(k) => return k,
            I::Term { k, c, v } => return k + c * self.var(v),
            I::Node(n) => model.nodes[n as usize],
        };
        match n {
            Node::Lin(k, s) => {
                let terms = model.terms[s.range()].iter();
                k + terms.map(|&(c, v)| c * self.var(v)).sum::<i64>()
            }
            Node::Ite(c, a, b) => {
                let branch = if self.eval_bx(model, c) { a } else { b };
                self.eval_ix(model, branch)
            }
            Node::CeilDiv(a, k) => div_ceil_i64(self.eval_ix(model, a), k),
            Node::Sum(s) => {
                let xs = model.ixs[s.range()].iter();
                xs.map(|&x| self.eval_ix(model, x)).sum()
            }
            Node::Scaled(a, k) => k * self.eval_ix(model, a),
            _ => unreachable!("a boolean node behind an integer handle"),
        }
    }

    /// Check that this solution satisfies every constraint of `model`.
    ///
    /// Used by tests and as a final sanity check by the search loop.
    pub fn satisfies(&self, model: &Model) -> bool {
        model.constraints.iter().all(|&c| self.eval_bx(model, c))
            && model
                .int_bounds()
                .zip(&self.ints)
                .all(|((lo, hi), v)| (lo..=hi).contains(v))
    }
}

/// Structural views for tests: handles compare by identity, so two
/// separately built nodes are compared by what they hold.
#[cfg(test)]
impl Model {
    pub(crate) fn bx_node(&self, x: Bx) -> Option<Node> {
        match x.0 {
            B::Node(n) => Some(self.nodes[n as usize]),
            _ => None,
        }
    }

    pub(crate) fn ix_node(&self, x: Ix) -> Option<Node> {
        match x.0 {
            I::Node(n) => Some(self.nodes[n as usize]),
            _ => None,
        }
    }

    /// The linear form behind `x`, if it is one: constant and terms.
    pub(crate) fn linear(&self, x: Ix) -> Option<(i64, Vec<(i64, VarRef)>)> {
        match x.0 {
            I::Lit(k) => Some((k, Vec::new())),
            I::Term { k, c, v } => Some((k, vec![(c, v)])),
            I::Node(n) => match self.nodes[n as usize] {
                Node::Lin(k, s) => Some((k, self.terms[s.range()].to_vec())),
                _ => None,
            },
        }
    }

    /// Structural equality through `Not`, `And` and `Or`; anything else
    /// compares by handle.
    pub(crate) fn same_bx(&self, a: Bx, b: Bx) -> bool {
        let list = |s: Span| &self.bxs[s.range()];
        match (self.bx_node(a), self.bx_node(b)) {
            (Some(Node::Not(x)), Some(Node::Not(y))) => self.same_bx(x, y),
            (Some(Node::And(x)), Some(Node::And(y))) | (Some(Node::Or(x)), Some(Node::Or(y))) => {
                let mut pairs = list(x).iter().zip(list(y));
                x.len == y.len && pairs.all(|(&p, &q)| self.same_bx(p, q))
            }
            _ => a == b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declares_and_indexes() {
        let mut m = Model::new();
        let a = m.bool_var("a");
        let x = m.int_var("x", -5, 5);
        assert_eq!(m.num_bools(), 1);
        assert_eq!(m.num_ints(), 1);
        let (id, d) = m.bool_decls().next().unwrap();
        assert_eq!((id, d.name), (a, "a"));
        let (id, d) = m.int_decls().next().unwrap();
        assert_eq!((id, d.name, d.lo, d.hi), (x, "x", -5, 5));
    }

    #[test]
    #[should_panic]
    fn rejects_empty_domain() {
        let mut m = Model::new();
        let _ = m.int_var("x", 3, 2);
    }

    #[test]
    fn solution_eval() {
        let mut m = Model::new();
        let a = m.bool_var("a");
        let x = m.int_var("x", 0, 100);
        let sol = Solution::from_parts(vec![true], vec![7]);
        assert!(sol.bool(a));
        assert_eq!(sol.int(x), 7);
        // (a ? x : 0) + 3 == 10
        let ite = m.ite(Bx::var(a), Ix::var(x), Ix::lit(0));
        let e = m.sum([ite, Ix::lit(3)]);
        assert_eq!(sol.eval_ix(&m, e), 10);
        let ten = m.eq(e, Ix::lit(10));
        assert!(sol.eval_bx(&m, ten));
    }

    #[test]
    fn satisfies_checks_bounds() {
        let mut m = Model::new();
        let _x = m.int_var("x", 0, 5);
        let bad = Solution::from_parts(vec![], vec![9]);
        assert!(!bad.satisfies(&m));
        let ok = Solution::from_parts(vec![], vec![4]);
        assert!(ok.satisfies(&m));
    }
}
