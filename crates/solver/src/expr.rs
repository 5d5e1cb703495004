//! Expressions for the solver: boolean ([`Bx`]) and integer ([`Ix`])
//! handles into their [`Model`](crate::Model)'s arena.
//!
//! A model keeps every composite expression as a fixed-size `Node` in one
//! `Vec` and refers to it by index, the way a decision-diagram compiler keeps
//! its nodes in one table. Handles are `Copy`. Leaves need no arena:
//! constants, variables and single-term linear forms (`k + c·v`) live inline
//! in the handle, so [`Bx::var`], [`Bx::lit`], [`Ix::var`], [`Ix::lit`] and
//! [`Ix::bool01`] are free functions while every composite constructor is a
//! `Model` method. Building a model is a few amortised `Vec` pushes instead
//! of one heap allocation per node, and dropping it frees a handful of
//! buffers instead of walking a tree.
//!
//! A handle is meaningful only in the model that built it.

use crate::model::{BoolId, IntId};

/// A variable reference usable inside a linear expression.
///
/// Boolean variables are interpreted as 0/1 integers, which is exactly the
/// coercion the paper uses in its encodings (e.g. `Σ If(f_s(I), 1, 0) = 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VarRef {
    /// An integer variable.
    Int(IntId),
    /// A boolean variable coerced to 0/1.
    Bool(BoolId),
}

/// A boolean expression: a constant, a variable, or a node of its model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bx(pub(crate) B);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum B {
    Const(bool),
    Var(BoolId),
    Node(u32),
}

/// An integer expression: a single-term linear form, or a node of its
/// model.
///
/// Beyond linear arithmetic, the model offers two conveniences that the
/// Lyra encodings need constantly:
///
/// * [`Model::ite`](crate::Model::ite) — `if b then e₁ else e₂` (e.g.
///   `If(f_s(I), 1, 0)`),
/// * [`Model::ceil_div`](crate::Model::ceil_div) — `⌈e / k⌉` for a
///   *constant* k (memory-block math, eqs. (2), (11), (15) of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ix(pub(crate) I);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum I {
    /// The constant `k`.
    Lit(i64),
    /// `k + c·v`.
    Term {
        k: i64,
        c: i64,
        v: VarRef,
    },
    Node(u32),
}

/// A run of operands in one of the model's shared operand `Vec`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl Span {
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One composite expression. Boolean kinds sit behind a [`Bx`], integer
/// kinds behind an [`Ix`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Node {
    Not(Bx),
    /// Operands in `Model::bxs`; at least two.
    And(Span),
    /// Operands in `Model::bxs`; at least two.
    Or(Span),
    Implies(Bx, Bx),
    Iff(Bx, Bx),
    Cmp(CmpOp, Ix, Ix),
    /// `constant + Σ terms`, terms in `Model::terms`, at least two,
    /// unnormalised.
    Lin(i64, Span),
    Ite(Bx, Ix, Ix),
    /// `⌈a / k⌉`, `k ≥ 2`.
    CeilDiv(Ix, i64),
    /// Operands in `Model::ixs`; at least two, not all linear.
    Sum(Span),
    Scaled(Ix, i64),
}

/// Comparison operators on integer expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `≤`
    Le,
    /// `<`
    Lt,
    /// `≥`
    Ge,
    /// `>`
    Gt,
}

impl Bx {
    /// A boolean variable.
    pub fn var(v: BoolId) -> Bx {
        Bx(B::Var(v))
    }

    /// `true` / `false`.
    pub fn lit(b: bool) -> Bx {
        Bx(B::Const(b))
    }
}

impl Ix {
    /// The constant `k`.
    pub fn lit(k: i64) -> Ix {
        Ix(I::Lit(k))
    }

    /// An integer variable.
    pub fn var(v: IntId) -> Ix {
        let v = VarRef::Int(v);
        Ix(I::Term { k: 0, c: 1, v })
    }

    /// A boolean variable coerced to 0/1.
    pub fn bool01(v: BoolId) -> Ix {
        let v = VarRef::Bool(v);
        Ix(I::Term { k: 0, c: 1, v })
    }
}

/// A linear expression `constant + Σ coeff·var`: the normal form every
/// [`Ix`] lowers to in [`flatten`](crate::flatten()).
#[derive(Debug, Clone)]
pub(crate) struct LinExpr {
    pub(crate) constant: i64,
    /// Coefficient/variable pairs; sorted and deduplicated by
    /// [`LinExpr::normalize`].
    pub(crate) terms: Vec<(i64, VarRef)>,
}

impl LinExpr {
    /// Merge duplicate variables and drop zero coefficients.
    pub(crate) fn normalize(mut self) -> Self {
        let n = normalize_terms(&mut self.terms);
        self.terms.truncate(n);
        self
    }

    /// `self - other`, normalised.
    pub(crate) fn sub(mut self, other: &LinExpr) -> Self {
        self.constant -= other.constant;
        self.terms.extend(other.terms.iter().map(|&(c, v)| (-c, v)));
        self.normalize()
    }

    /// `k · self`, normalised.
    pub(crate) fn scale(mut self, k: i64) -> Self {
        self.constant *= k;
        for (c, _) in &mut self.terms {
            *c *= k;
        }
        self.normalize()
    }
}

/// Sort `terms` by variable, merge duplicates and drop zero coefficients,
/// in place; the normal form is the first `n` terms, `n` returned.
pub(crate) fn normalize_terms(terms: &mut [(i64, VarRef)]) -> usize {
    terms.sort_by_key(|&(_, v)| v);
    let mut merged = 0;
    for i in 0..terms.len() {
        let (c, v) = terms[i];
        if merged > 0 && terms[merged - 1].1 == v {
            terms[merged - 1].0 += c;
        } else {
            terms[merged] = (c, v);
            merged += 1;
        }
    }
    let mut n = 0;
    for i in 0..merged {
        if terms[i].0 != 0 {
            terms[n] = terms[i];
            n += 1;
        }
    }
    n
}

/// Ceiling division on `i64` for non-negative numerators.
pub fn div_ceil_i64(a: i64, b: i64) -> i64 {
    debug_assert!(b >= 1);
    if a >= 0 {
        (a + b - 1) / b
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn linexpr_normalizes_duplicates() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 10);
        let e = LinExpr {
            constant: 3,
            terms: vec![
                (2, VarRef::Int(x)),
                (5, VarRef::Int(x)),
                (0, VarRef::Int(x)),
            ],
        }
        .normalize();
        assert_eq!(e.terms, vec![(7, VarRef::Int(x))]);
        assert_eq!(e.constant, 3);
    }

    #[test]
    fn linexpr_sub_cancels() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 10);
        let a = LinExpr {
            constant: 0,
            terms: vec![(1, VarRef::Int(x))],
        };
        let d = a.clone().sub(&a);
        assert!(d.terms.is_empty());
        assert_eq!(d.constant, 0);
    }

    #[test]
    fn bx_simplifications() {
        let mut m = Model::new();
        assert_eq!(m.and([]), Bx::lit(true));
        assert_eq!(m.or([]), Bx::lit(false));
        assert_eq!(m.and([Bx::lit(false), Bx::lit(true)]), Bx::lit(false));
        assert_eq!(m.or([Bx::lit(true)]), Bx::lit(true));
        assert_eq!(m.not(Bx::lit(true)), Bx::lit(false));
        let not_false = m.not(Bx::lit(false));
        assert_eq!(m.not(not_false), Bx::lit(false));
        assert_eq!(m.implies(Bx::lit(false), Bx::lit(false)), Bx::lit(true));
    }

    #[test]
    fn linear_sums_are_one_linear_form() {
        let mut m = Model::new();
        let (a, b) = (m.bool_var("a"), m.bool_var("b"));
        let x = m.int_var("x", 0, 10);
        let want = (
            3,
            vec![
                (1, VarRef::Bool(a)),
                (1, VarRef::Int(x)),
                (1, VarRef::Bool(b)),
            ],
        );
        let x3 = m.sum([Ix::var(x), Ix::lit(3)]);
        let sum = m.sum([Ix::bool01(a), x3, Ix::bool01(b)]);
        assert_eq!(m.linear(sum), Some(want.clone()));
        let vars = [VarRef::Bool(a), VarRef::Int(x), VarRef::Bool(b)];
        let total = m.total(vars);
        let total3 = m.sum([total, Ix::lit(3)]);
        assert_eq!(m.linear(total3), Some(want));
        // A non-linear operand keeps the node.
        let ite = m.ite(Bx::var(a), Ix::lit(1), Ix::lit(0));
        let mixed = m.sum([ite, Ix::var(x)]);
        assert!(matches!(m.ix_node(mixed), Some(Node::Sum(_))));
    }

    #[test]
    fn any_of_builds_what_or_builds() {
        let mut m = Model::new();
        let vs: Vec<_> = (0..3).map(|i| m.bool_var(format!("v{i}"))).collect();
        for n in 0..=3 {
            let or = m.or(vs[..n].iter().map(|&v| Bx::var(v)));
            let any = m.any_of(vs[..n].iter().copied());
            assert!(m.same_bx(any, or), "n = {n}");
        }
    }

    #[test]
    fn ix_constant_folding() {
        let mut m = Model::new();
        assert_eq!(m.ceil_div(Ix::lit(10), 3), Ix::lit(4));
        assert_eq!(m.ceil_div(Ix::lit(9), 3), Ix::lit(3));
        assert_eq!(m.ceil_div(Ix::lit(5), 1), Ix::lit(5));
    }

    #[test]
    #[should_panic]
    fn ceil_div_rejects_zero() {
        let _ = Model::new().ceil_div(Ix::lit(4), 0);
    }

    #[test]
    fn div_ceil_matches_manual() {
        assert_eq!(div_ceil_i64(0, 4), 0);
        assert_eq!(div_ceil_i64(1, 4), 1);
        assert_eq!(div_ceil_i64(4, 4), 1);
        assert_eq!(div_ceil_i64(5, 4), 2);
    }
}
