//! Property tests for the synthesis solver backend on placement-shaped
//! formulas: implications between deployment booleans, exactly-one groups,
//! capacity sums, conditional integer bounds, and split sums — the shapes
//! `encode.rs` emits. Verdicts are checked against brute-force enumeration
//! over deliberately small variable pools.
//!
//! Randomness comes from a seeded xorshift generator (the workspace builds
//! offline with no external crates), so every run explores the identical
//! case set and failures reproduce from the printed case index.

use lyra_solver::{Bx, Ix, Model, Outcome, Solution};
use lyra_synth::backend::solve_limited;
use lyra_synth::SolveLimits;

const NUM_BOOLS: usize = 6;
const NUM_INTS: usize = 3;
const INT_HI: i64 = 6;

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

/// Placement-flavored random constraints over a small variable pool.
enum Con {
    Implies(usize, usize),
    ExactlyOne(Vec<usize>),
    CapacitySum {
        vars: Vec<usize>,
        weight: i64,
        cap: i64,
    },
    CondBound {
        guard: usize,
        int: usize,
        min: i64,
    },
    SplitSum {
        ints: Vec<usize>,
        total: i64,
    },
}

fn gen_con(rng: &mut Rng) -> Con {
    match rng.below(5) {
        0 => Con::Implies(
            rng.below(NUM_BOOLS as u64) as usize,
            rng.below(NUM_BOOLS as u64) as usize,
        ),
        1 => Con::ExactlyOne(
            (0..rng.range(1, 3))
                .map(|_| rng.below(NUM_BOOLS as u64) as usize)
                .collect(),
        ),
        2 => Con::CapacitySum {
            vars: (0..rng.range(1, 4))
                .map(|_| rng.below(NUM_BOOLS as u64) as usize)
                .collect(),
            weight: rng.range(1, 5),
            cap: rng.range(0, 12),
        },
        3 => Con::CondBound {
            guard: rng.below(NUM_BOOLS as u64) as usize,
            int: rng.below(NUM_INTS as u64) as usize,
            min: rng.range(0, INT_HI + 1),
        },
        _ => Con::SplitSum {
            ints: (0..rng.range(1, 3))
                .map(|_| rng.below(NUM_INTS as u64) as usize)
                .collect(),
            total: rng.range(0, 2 * INT_HI),
        },
    }
}

fn build(cons: &[Con]) -> Model {
    let mut m = Model::new();
    let bools: Vec<_> = (0..NUM_BOOLS)
        .map(|i| m.bool_var(format!("f{i}")))
        .collect();
    let ints: Vec<_> = (0..NUM_INTS)
        .map(|i| m.int_var(format!("e{i}"), 0, INT_HI))
        .collect();
    for c in cons {
        match c {
            Con::Implies(a, b) => {
                let c = m.implies(Bx::var(bools[*a]), Bx::var(bools[*b]));
                m.require(c);
            }
            Con::ExactlyOne(vs) => {
                let mut seen: Vec<usize> = vs.clone();
                seen.sort_unstable();
                seen.dedup();
                let vars = seen.iter().map(|&v| Bx::var(bools[v]));
                let (some, one) = (m.or(vars.clone()), m.at_most_one(vars));
                let c = m.and([some, one]);
                m.require(c);
            }
            Con::CapacitySum { vars, weight, cap } => {
                let terms: Vec<Ix> = vars
                    .iter()
                    .map(|&v| m.scale(Ix::bool01(bools[v]), *weight))
                    .collect();
                let sum = m.sum(terms);
                let c = m.le(sum, Ix::lit(*cap));
                m.require(c);
            }
            Con::CondBound { guard, int, min } => {
                let ge = m.ge(Ix::var(ints[*int]), Ix::lit(*min));
                let c = m.implies(Bx::var(bools[*guard]), ge);
                m.require(c);
            }
            Con::SplitSum { ints: idx, total } => {
                let mut seen: Vec<usize> = idx.clone();
                seen.sort_unstable();
                seen.dedup();
                let sum = m.sum(seen.iter().map(|&i| Ix::var(ints[i])));
                let c = m.eq(sum, Ix::lit((*total).min(INT_HI * seen.len() as i64)));
                m.require(c);
            }
        }
    }
    m
}

/// Visit every assignment of the small pool; returns the best objective
/// value among satisfying assignments (`None` if UNSAT).
fn brute_force_best(m: &Model, obj: Option<Ix>) -> Option<i64> {
    let mut best: Option<i64> = None;
    let mut sat = false;
    let domain = (INT_HI + 1) as usize;
    for mask in 0..(1usize << NUM_BOOLS) {
        let bools: Vec<bool> = (0..NUM_BOOLS).map(|i| mask >> i & 1 == 1).collect();
        for combo in 0..domain.pow(NUM_INTS as u32) {
            let mut c = combo;
            let mut ints = Vec::with_capacity(NUM_INTS);
            for _ in 0..NUM_INTS {
                ints.push((c % domain) as i64);
                c /= domain;
            }
            let sol = Solution::from_parts(bools.clone(), ints);
            if sol.satisfies(m) {
                sat = true;
                match obj {
                    Some(o) => {
                        let v = sol.eval_ix(m, o);
                        best = Some(best.map_or(v, |b: i64| b.min(v)));
                    }
                    None => return Some(0),
                }
            }
        }
    }
    if sat {
        best.or(Some(0))
    } else {
        None
    }
}

#[test]
fn native_agrees_with_brute_force_on_placement_shapes() {
    let mut rng = Rng::new(0x5eed_0003);
    for case in 0..96 {
        let cons: Vec<Con> = (0..rng.range(1, 7)).map(|_| gen_con(&mut rng)).collect();
        let m = build(&cons);
        let expected = brute_force_best(&m, None).is_some();
        let (outcome, _, _) = solve_limited(&m, None, &SolveLimits::default());
        match outcome {
            Outcome::Sat(s) => {
                assert!(
                    expected,
                    "case {case}: solver said SAT but brute force disagrees"
                );
                assert!(
                    s.satisfies(&m),
                    "case {case}: returned solution violates model"
                );
            }
            Outcome::Unsat => {
                assert!(
                    !expected,
                    "case {case}: solver said UNSAT but model is satisfiable"
                )
            }
            Outcome::Unknown => {}
        }
    }
}

#[test]
fn minimization_matches_brute_force_optimum() {
    let mut rng = Rng::new(0x5eed_0004);
    for case in 0..64 {
        let cons: Vec<Con> = (0..rng.range(1, 6)).map(|_| gen_con(&mut rng)).collect();
        let mut m = build(&cons);
        // Objective: number of deployed booleans.
        let vars: Vec<Ix> = m.bool_decls().map(|(id, _)| Ix::bool01(id)).collect();
        let obj = m.sum(vars);
        let expected = brute_force_best(&m, Some(obj));
        let (outcome, _, _) = solve_limited(&m, Some(&obj), &SolveLimits::default());
        match (outcome, expected) {
            (Outcome::Sat(s), Some(best)) => {
                assert!(s.satisfies(&m), "case {case}: minimizer returned non-model");
                assert_eq!(
                    s.eval_ix(&m, obj),
                    best,
                    "case {case}: optimal objective differs"
                );
            }
            (Outcome::Unsat, None) => {}
            (x, y) => panic!("case {case}: outcome mismatch: {x:?} vs brute force {y:?}"),
        }
    }
}
