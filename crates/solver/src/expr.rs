//! Expression trees for the solver: boolean expressions ([`Bx`]), integer
//! expressions ([`Ix`]), and linear forms ([`LinExpr`]).
//!
//! Expressions are plain owned trees. They are cheap to build relative to the
//! cost of solving, and keeping them as ordinary `enum`s makes the flattening
//! pass in the native solver straightforward to audit.

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

/// A linear expression `constant + Σ coeff·var`.
///
/// `LinExpr` is the normal form that every [`Ix`] eventually lowers to; the
/// flattening pass introduces auxiliary integer variables for the non-linear
/// conveniences (`ite`, ceiling division).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    /// Constant offset.
    pub constant: i64,
    /// Coefficient/variable pairs. Kept sorted and deduplicated by
    /// [`LinExpr::normalize`].
    pub terms: Vec<(i64, VarRef)>,
}

impl LinExpr {
    /// The constant expression `k`.
    pub fn constant(k: i64) -> Self {
        LinExpr {
            constant: k,
            terms: Vec::new(),
        }
    }

    /// The expression `1·v`.
    pub fn var(v: VarRef) -> Self {
        LinExpr {
            constant: 0,
            terms: vec![(1, v)],
        }
    }

    /// Merge duplicate variables and drop zero coefficients.
    pub fn normalize(mut self) -> Self {
        self.terms.sort_by_key(|&(_, v)| v);
        let mut out: Vec<(i64, VarRef)> = Vec::with_capacity(self.terms.len());
        for (c, v) in self.terms {
            match out.last_mut() {
                Some((lc, lv)) if *lv == v => *lc += c,
                _ => out.push((c, v)),
            }
        }
        out.retain(|&(c, _)| c != 0);
        self.terms = out;
        self
    }

    /// `self + other` (DSL-style, by reference — not `std::ops::Add`).
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, other: &LinExpr) -> Self {
        self.constant += other.constant;
        self.terms.extend_from_slice(&other.terms);
        self.normalize()
    }

    /// `self - other` (DSL-style, by reference — not `std::ops::Sub`).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(mut self, other: &LinExpr) -> Self {
        self.constant -= other.constant;
        self.terms.extend(other.terms.iter().map(|&(c, v)| (-c, v)));
        self.normalize()
    }

    /// `k · self`.
    pub fn scale(mut self, k: i64) -> Self {
        self.constant *= k;
        for (c, _) in &mut self.terms {
            *c *= k;
        }
        self.normalize()
    }

    /// True if the expression has no variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }
}

/// A boolean expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bx {
    /// Constant `true`/`false`.
    Const(bool),
    /// A boolean variable.
    Var(BoolId),
    /// Negation.
    Not(Box<Bx>),
    /// N-ary conjunction. `And(vec![])` is `true`.
    And(Vec<Bx>),
    /// N-ary disjunction. `Or(vec![])` is `false`.
    Or(Vec<Bx>),
    /// Implication `a → b`.
    Implies(Box<Bx>, Box<Bx>),
    /// Equivalence `a ↔ b`.
    Iff(Box<Bx>, Box<Bx>),
    /// Linear comparison `lhs ⋈ rhs` over integer expressions.
    Cmp(CmpOp, Box<Ix>, Box<Ix>),
    /// At most one of the operands is true (pairwise encoding).
    AtMostOne(Vec<Bx>),
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
        Bx::Var(v)
    }

    /// `true` / `false`.
    pub fn lit(b: bool) -> Bx {
        Bx::Const(b)
    }

    /// Negation (with a couple of cheap simplifications).
    ///
    /// Named after the SMT connective on purpose (an associated function,
    /// not `std::ops::Not` — there is no `self` receiver).
    #[allow(clippy::should_implement_trait)]
    pub fn not(b: Bx) -> Bx {
        match b {
            Bx::Const(v) => Bx::Const(!v),
            Bx::Not(inner) => *inner,
            other => Bx::Not(Box::new(other)),
        }
    }

    /// N-ary conjunction.
    pub fn and(mut xs: Vec<Bx>) -> Bx {
        xs.retain(|x| !matches!(x, Bx::Const(true)));
        if xs.iter().any(|x| matches!(x, Bx::Const(false))) {
            return Bx::Const(false);
        }
        match xs.len() {
            0 => Bx::Const(true),
            1 => xs.pop().unwrap(),
            _ => Bx::And(xs),
        }
    }

    /// N-ary disjunction.
    pub fn or(mut xs: Vec<Bx>) -> Bx {
        xs.retain(|x| !matches!(x, Bx::Const(false)));
        if xs.iter().any(|x| matches!(x, Bx::Const(true))) {
            return Bx::Const(true);
        }
        match xs.len() {
            0 => Bx::Const(false),
            1 => xs.pop().unwrap(),
            _ => Bx::Or(xs),
        }
    }

    /// Disjunction of variables. A single variable is itself — no
    /// one-element operand list is built to be thrown away.
    pub fn any_of(mut vars: impl ExactSizeIterator<Item = BoolId>) -> Bx {
        match vars.len() {
            0 => Bx::Const(false),
            1 => Bx::Var(vars.next().expect("one variable")),
            _ => Bx::Or(vars.map(Bx::Var).collect()),
        }
    }

    /// Implication `a → b`.
    pub fn implies(a: Bx, b: Bx) -> Bx {
        match (&a, &b) {
            (Bx::Const(false), _) | (_, Bx::Const(true)) => Bx::Const(true),
            (Bx::Const(true), _) => b,
            (_, Bx::Const(false)) => Bx::not(a),
            _ => Bx::Implies(Box::new(a), Box::new(b)),
        }
    }

    /// Equivalence `a ↔ b`.
    pub fn iff(a: Bx, b: Bx) -> Bx {
        Bx::Iff(Box::new(a), Box::new(b))
    }

    /// At most one of `xs` is true.
    pub fn at_most_one(xs: Vec<Bx>) -> Bx {
        Bx::AtMostOne(xs)
    }

    /// Exactly one of `xs` is true.
    pub fn exactly_one(xs: Vec<Bx>) -> Bx {
        Bx::and(vec![Bx::or(xs.clone()), Bx::AtMostOne(xs)])
    }
}

/// An integer expression tree.
///
/// Beyond linear arithmetic, `Ix` offers two conveniences that the Lyra
/// encodings need constantly:
///
/// * [`Ix::ite`] — `if b then e₁ else e₂` (e.g. `If(f_s(I), 1, 0)`),
/// * [`Ix::ceil_div`] — `⌈e / k⌉` for a *constant* k (memory-block math,
///   eqs. (2), (11), (15) of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ix {
    /// A linear expression.
    Lin(LinExpr),
    /// `if cond then a else b`.
    Ite(Box<Bx>, Box<Ix>, Box<Ix>),
    /// `⌈a / k⌉` with constant `k ≥ 1`.
    CeilDiv(Box<Ix>, i64),
    /// Sum of integer expressions.
    Sum(Vec<Ix>),
    /// `k · a` for constant `k`.
    Scaled(Box<Ix>, i64),
}

impl Ix {
    /// The constant `k`.
    pub fn lit(k: i64) -> Ix {
        Ix::Lin(LinExpr::constant(k))
    }

    /// An integer variable.
    pub fn var(v: IntId) -> Ix {
        Ix::Lin(LinExpr::var(VarRef::Int(v)))
    }

    /// A boolean variable coerced to 0/1.
    pub fn bool01(v: BoolId) -> Ix {
        Ix::Lin(LinExpr::var(VarRef::Bool(v)))
    }

    /// `if cond then a else b`.
    pub fn ite(cond: Bx, a: Ix, b: Ix) -> Ix {
        match cond {
            Bx::Const(true) => a,
            Bx::Const(false) => b,
            c => Ix::Ite(Box::new(c), Box::new(a), Box::new(b)),
        }
    }

    /// `⌈self / k⌉`, `k ≥ 1`. Panics on `k < 1`.
    pub fn ceil_div(self, k: i64) -> Ix {
        assert!(k >= 1, "ceil_div divisor must be >= 1, got {k}");
        if k == 1 {
            return self;
        }
        match self {
            Ix::Lin(l) if l.is_constant() => Ix::lit(div_ceil_i64(l.constant, k)),
            other => Ix::CeilDiv(Box::new(other), k),
        }
    }

    /// Sum of expressions. All-linear operands add up to one linear form —
    /// what lowering the `Sum` node would compute — instead of a node
    /// over one heap-allocated operand each.
    pub fn sum(xs: Vec<Ix>) -> Ix {
        match xs.len() {
            0 => Ix::lit(0),
            1 => xs.into_iter().next().unwrap(),
            _ if xs.iter().all(|x| matches!(x, Ix::Lin(_))) => {
                let mut acc = LinExpr::default();
                for x in xs {
                    if let Ix::Lin(l) = x {
                        acc.constant += l.constant;
                        acc.terms.extend(l.terms);
                    }
                }
                Ix::Lin(acc)
            }
            _ => Ix::Sum(xs),
        }
    }

    /// `Σ vars` as one linear form: integer variables, or booleans coerced
    /// to 0/1.
    pub fn total(vars: impl Iterator<Item = VarRef>) -> Ix {
        Ix::Lin(LinExpr {
            constant: 0,
            terms: vars.map(|v| (1, v)).collect(),
        })
    }

    /// `self + other` (DSL-style; the paper's encodings read as formulas).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Ix) -> Ix {
        Ix::sum(vec![self, other])
    }

    /// `k · self` for constant `k`.
    pub fn scale(self, k: i64) -> Ix {
        match self {
            Ix::Lin(l) => Ix::Lin(l.scale(k)),
            Ix::Sum(xs) => Ix::Sum(xs.into_iter().map(|x| x.scale(k)).collect()),
            Ix::Ite(c, a, b) => Ix::Ite(c, Box::new(a.scale(k)), Box::new(b.scale(k))),
            other => Ix::Scaled(Box::new(other), k),
        }
    }

    /// `self = other`.
    pub fn eq(self, other: Ix) -> Bx {
        Bx::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self ≠ other`.
    pub fn ne(self, other: Ix) -> Bx {
        Bx::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self ≤ other`.
    pub fn le(self, other: Ix) -> Bx {
        Bx::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Ix) -> Bx {
        Bx::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self ≥ other`.
    pub fn ge(self, other: Ix) -> Bx {
        Bx::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Ix) -> Bx {
        Bx::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }
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
        let a = LinExpr::var(VarRef::Int(x));
        let b = LinExpr::var(VarRef::Int(x));
        let d = a.sub(&b);
        assert!(d.is_constant());
        assert_eq!(d.constant, 0);
    }

    #[test]
    fn bx_simplifications() {
        assert_eq!(Bx::and(vec![]), Bx::Const(true));
        assert_eq!(Bx::or(vec![]), Bx::Const(false));
        assert_eq!(
            Bx::and(vec![Bx::Const(false), Bx::Const(true)]),
            Bx::Const(false)
        );
        assert_eq!(Bx::or(vec![Bx::Const(true)]), Bx::Const(true));
        assert_eq!(Bx::not(Bx::Const(true)), Bx::Const(false));
        assert_eq!(Bx::not(Bx::not(Bx::Const(false))), Bx::Const(false));
        assert_eq!(
            Bx::implies(Bx::Const(false), Bx::Const(false)),
            Bx::Const(true)
        );
    }

    #[test]
    fn linear_sums_are_one_linear_form() {
        let mut m = Model::new();
        let (a, b) = (m.bool_var("a"), m.bool_var("b"));
        let x = m.int_var("x", 0, 10);
        let terms = vec![
            (1, VarRef::Bool(a)),
            (1, VarRef::Int(x)),
            (1, VarRef::Bool(b)),
        ];
        let want = Ix::Lin(LinExpr { constant: 3, terms });
        let sum = Ix::sum(vec![
            Ix::bool01(a),
            Ix::var(x).add(Ix::lit(3)),
            Ix::bool01(b),
        ]);
        assert_eq!(sum, want);
        let vars = [VarRef::Bool(a), VarRef::Int(x), VarRef::Bool(b)];
        assert_eq!(Ix::total(vars.into_iter()).add(Ix::lit(3)), want);
        // A non-linear operand keeps the node.
        let ite = Ix::ite(Bx::var(a), Ix::lit(1), Ix::lit(0));
        assert!(matches!(Ix::sum(vec![ite, Ix::var(x)]), Ix::Sum(_)));
    }

    #[test]
    fn any_of_builds_what_or_builds() {
        let mut m = Model::new();
        let vs: Vec<_> = (0..3).map(|i| m.bool_var(format!("v{i}"))).collect();
        for n in 0..=3 {
            let or = Bx::or(vs[..n].iter().map(|&v| Bx::var(v)).collect());
            assert_eq!(Bx::any_of(vs[..n].iter().copied()), or);
        }
    }

    #[test]
    fn ix_constant_folding() {
        assert_eq!(Ix::lit(10).ceil_div(3), Ix::lit(4));
        assert_eq!(Ix::lit(9).ceil_div(3), Ix::lit(3));
        assert_eq!(Ix::lit(5).ceil_div(1), Ix::lit(5));
    }

    #[test]
    #[should_panic]
    fn ceil_div_rejects_zero() {
        let _ = Ix::lit(4).ceil_div(0);
    }

    #[test]
    fn div_ceil_matches_manual() {
        assert_eq!(div_ceil_i64(0, 4), 0);
        assert_eq!(div_ceil_i64(1, 4), 1);
        assert_eq!(div_ceil_i64(4, 4), 1);
        assert_eq!(div_ceil_i64(5, 4), 2);
    }
}
