//! Shared helpers for the solver's property tests: a deterministic PRNG,
//! a random-model generator, and brute-force satisfiability checking.
//!
//! Randomness comes from a seeded xorshift generator (the workspace builds
//! offline with no external crates), so every run explores the identical
//! case set — failures reproduce from the printed case index alone.

use lyra_solver::{Bx, Ix, Model, Solution};

/// Deterministic xorshift64* PRNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// A random boolean expression over variable *indices*.
#[derive(Debug, Clone)]
pub enum RandBx {
    Var(usize),
    NotVar(usize),
    Or(Vec<RandBx>),
    And(Vec<RandBx>),
    Implies(Box<RandBx>, Box<RandBx>),
    /// c0·x0 + c1·x1 + cb·b0 ≤ k (indices taken modulo arity)
    Lin {
        c0: i64,
        c1: i64,
        cb: i64,
        k: i64,
        ge: bool,
    },
    IteCmp {
        cond: usize,
        then_min: i64,
    },
}

pub fn gen_bx(rng: &mut Rng, depth: u32) -> RandBx {
    let pick = if depth == 0 {
        rng.below(4)
    } else {
        rng.below(7)
    };
    match pick {
        0 => RandBx::Var(rng.below(6) as usize),
        1 => RandBx::NotVar(rng.below(6) as usize),
        2 => RandBx::Lin {
            c0: rng.range(-3, 3),
            c1: rng.range(-3, 3),
            cb: rng.range(-2, 2),
            k: rng.range(-10, 10),
            ge: rng.bool(),
        },
        3 => RandBx::IteCmp {
            cond: rng.below(6) as usize,
            then_min: rng.range(0, 5),
        },
        4 => RandBx::Or(
            (0..rng.range(1, 3))
                .map(|_| gen_bx(rng, depth - 1))
                .collect(),
        ),
        5 => RandBx::And(
            (0..rng.range(1, 3))
                .map(|_| gen_bx(rng, depth - 1))
                .collect(),
        ),
        _ => RandBx::Implies(
            Box::new(gen_bx(rng, depth - 1)),
            Box::new(gen_bx(rng, depth - 1)),
        ),
    }
}

pub fn gen_model(rng: &mut Rng) -> Model {
    let num_bools = rng.range(1, 4) as usize;
    let num_ints = rng.range(1, 2) as usize;
    let mut m = Model::new();
    let bools: Vec<_> = (0..num_bools)
        .map(|i| m.bool_var(format!("b{i}")))
        .collect();
    let ints: Vec<_> = (0..num_ints)
        .map(|i| {
            let lo = rng.range(0, 2);
            let hi = rng.range(3, 7);
            m.int_var(format!("x{i}"), lo, hi)
        })
        .collect();
    let num_constraints = rng.range(1, 4);
    for _ in 0..num_constraints {
        let bx = to_bx(&mut m, &gen_bx(rng, 2), &bools, &ints);
        m.require(bx);
    }
    m
}

pub fn to_bx(
    m: &mut Model,
    r: &RandBx,
    bools: &[lyra_solver::BoolId],
    ints: &[lyra_solver::IntId],
) -> Bx {
    let all = |m: &mut Model, xs: &[RandBx]| -> Vec<Bx> {
        xs.iter().map(|x| to_bx(m, x, bools, ints)).collect()
    };
    match r {
        RandBx::Var(i) => Bx::var(bools[i % bools.len()]),
        RandBx::NotVar(i) => m.not(Bx::var(bools[i % bools.len()])),
        RandBx::Or(xs) => {
            let xs = all(m, xs);
            m.or(xs)
        }
        RandBx::And(xs) => {
            let xs = all(m, xs);
            m.and(xs)
        }
        RandBx::Implies(a, b) => {
            let (a, b) = (to_bx(m, a, bools, ints), to_bx(m, b, bools, ints));
            m.implies(a, b)
        }
        RandBx::Lin { c0, c1, cb, k, ge } => {
            let t0 = m.scale(Ix::var(ints[0]), *c0);
            let t1 = m.scale(Ix::var(ints[ints.len() - 1]), *c1);
            let tb = m.scale(Ix::bool01(bools[0]), *cb);
            let e = m.sum([t0, t1]);
            let e = m.sum([e, tb]);
            if *ge {
                m.ge(e, Ix::lit(*k))
            } else {
                m.le(e, Ix::lit(*k))
            }
        }
        RandBx::IteCmp { cond, then_min } => {
            let c = Bx::var(bools[cond % bools.len()]);
            let ite = m.ite(c, Ix::var(ints[0]), Ix::lit(0));
            m.ge(ite, Ix::lit(*then_min))
        }
    }
}

/// Exhaustively check satisfiability of a small model.
pub fn brute_force_sat(m: &Model) -> bool {
    let nb = m.num_bools();
    let domains: Vec<(i64, i64)> = m.int_decls().map(|(_, d)| (d.lo, d.hi)).collect();
    let total_bool = 1usize << nb;
    for mask in 0..total_bool {
        let bools: Vec<bool> = (0..nb).map(|i| mask >> i & 1 == 1).collect();
        let mut ints = vec![0i64; domains.len()];
        if enumerate_ints(m, &bools, &domains, &mut ints, 0) {
            return true;
        }
    }
    false
}

fn enumerate_ints(
    m: &Model,
    bools: &[bool],
    domains: &[(i64, i64)],
    ints: &mut Vec<i64>,
    idx: usize,
) -> bool {
    if idx == domains.len() {
        let sol = Solution::from_parts(bools.to_vec(), ints.clone());
        return sol.satisfies(m);
    }
    for v in domains[idx].0..=domains[idx].1 {
        ints[idx] = v;
        if enumerate_ints(m, bools, domains, ints, idx + 1) {
            return true;
        }
    }
    false
}
