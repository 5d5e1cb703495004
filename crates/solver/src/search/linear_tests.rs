//! Event-driven linear propagation against the schedule it replaced.
//!
//! The reference ([`Search::propagate_linear_full_sweep`], test-only) visits
//! every active constraint, sweep after sweep, until a sweep tightens
//! nothing, and has no creep guard. The dirty-set schedule must take the
//! search down the same path: same verdict, same model, same decisions,
//! propagations, conflicts and learned clauses. Only the visit counts may
//! differ. Randomness is a seeded xorshift, so every run explores the same
//! cases and a failure reproduces from its case number.

use super::*;
use crate::expr::{Bx, Ix};
use crate::model::{BoolId, IntId, Model};
use crate::optimize::minimize_with;

/// Run `f` with every search on this thread using the reference schedule.
fn with_full_sweep<T>(f: impl FnOnce() -> T) -> T {
    FULL_SWEEP.with(|c| c.set(true));
    let out = f();
    FULL_SWEEP.with(|c| c.set(false));
    out
}

/// The counters that describe the search path (not its cost).
fn path(s: &SearchStats) -> [u64; 5] {
    [
        s.decisions,
        s.propagations,
        s.conflicts,
        s.learned,
        s.restarts,
    ]
}

struct Rng(u64);

impl Rng {
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

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// A random comparison over one to three integers and up to two 0/1
/// booleans, with coefficients and right-hand side scaled to the domain.
fn gen_lin(rng: &mut Rng, m: &mut Model, bools: &[BoolId], ints: &[IntId], top: i64) -> Bx {
    let mut terms = Vec::new();
    for _ in 0..rng.range(1, 3) {
        let c = rng.pick(&[-3, -2, -1, -1, 1, 1, 2, 3]);
        terms.push(m.scale(Ix::var(rng.pick(ints)), c));
    }
    for _ in 0..rng.range(0, 2) {
        let c = rng.range(-top, top);
        terms.push(m.scale(Ix::bool01(rng.pick(bools)), c));
    }
    let lhs = m.sum(terms);
    let rhs = Ix::lit(rng.range(-top, 2 * top));
    match rng.below(5) {
        0 => m.le(lhs, rhs),
        1 => m.ge(lhs, rhs),
        2 => m.lt(lhs, rhs),
        3 => m.gt(lhs, rhs),
        _ => m.eq(lhs, rhs),
    }
}

fn gen_bx(
    rng: &mut Rng,
    m: &mut Model,
    bools: &[BoolId],
    ints: &[IntId],
    top: i64,
    depth: u32,
) -> Bx {
    let (x, y) = (rng.pick(ints), rng.pick(ints));
    let sub = |rng: &mut Rng, m: &mut Model| gen_bx(rng, m, bools, ints, top, depth - 1);
    match rng.below(if depth == 0 { 6 } else { 9 }) {
        0 => Bx::var(rng.pick(bools)),
        1 => m.not(Bx::var(rng.pick(bools))),
        2 | 3 => gen_lin(rng, m, bools, ints, top),
        // The shapes placement encodings creep on: a path equality and a
        // strict order between two shards.
        4 => {
            let xy = m.sum([Ix::var(x), Ix::var(y)]);
            m.eq(xy, Ix::lit(rng.range(top / 2, top)))
        }
        5 => {
            let y_plus = m.sum([Ix::var(y), Ix::lit(rng.range(0, 2))]);
            m.ge(Ix::var(x), y_plus)
        }
        6 => {
            let xs: Vec<Bx> = (0..rng.range(1, 3)).map(|_| sub(rng, m)).collect();
            m.or(xs)
        }
        7 => {
            let xs: Vec<Bx> = (0..rng.range(1, 3)).map(|_| sub(rng, m)).collect();
            m.and(xs)
        }
        _ => {
            let (a, b) = (sub(rng, m), sub(rng, m));
            m.implies(a, b)
        }
    }
}

/// A mixed boolean/integer model. Domains are small, medium or wide per
/// model; the wide ones are what a creeping cycle needs to outrun the
/// guard's budget, and still small enough for the reference to walk.
fn gen_model(rng: &mut Rng) -> Model {
    let mut m = Model::new();
    let bools: Vec<_> = (0..rng.range(2, 6))
        .map(|i| m.bool_var(format!("b{i}")))
        .collect();
    let top = rng.pick(&[6, 40, 150, 600]);
    let ints: Vec<_> = (0..rng.range(2, 5))
        .map(|i| {
            let lo = rng.range(0, 2);
            let hi = rng.range(top / 2 + 2, top);
            m.int_var(format!("x{i}"), lo, hi)
        })
        .collect();
    for _ in 0..rng.range(2, 7) {
        let bx = gen_bx(rng, &mut m, &bools, &ints, top, 2);
        m.require(bx);
    }
    if rng.below(3) == 0 {
        let amo = m.at_most_one(bools.iter().take(3).map(|&b| Bx::var(b)));
        m.require(amo);
    }
    m
}

#[test]
fn dirty_schedule_takes_the_full_sweep_search_path() {
    let mut rng = Rng(0x5eed_0014);
    // A budget both schedules exhaust at the same decision. About one
    // generated model in two thousand needs far more: the integer split
    // phase enumerates a wide domain chronologically, learning nothing
    // (0 restarts, at most 8 conflicts when the cap is hit). EXPERIMENTS.md
    // "Solver diet" lists nine such cases.
    let limits = SolveLimits {
        max_decisions: Some(20_000),
        ..SolveLimits::default()
    };
    let (mut guarded, mut refuted_by_guard, mut sat, mut unsat) = (0, 0, 0, 0);
    for case in 0..500 {
        let mut m = gen_model(&mut rng);
        let flat = flatten(&m);
        let (outcome, raw, stats) = solve_flat(&flat, &limits);
        let (ref_outcome, ref_raw, ref_stats) = with_full_sweep(|| solve_flat(&flat, &limits));
        assert_eq!(outcome, ref_outcome, "case {case}: verdict or model");
        assert_eq!(
            raw.map(|r| (r.sat, r.ints)),
            ref_raw.map(|r| (r.sat, r.ints)),
            "case {case}: raw assignment"
        );
        assert_eq!(path(&stats), path(&ref_stats), "case {case}: search path");
        assert!(
            stats.linear_visits <= ref_stats.linear_visits,
            "case {case}: {} visits against the reference's {}",
            stats.linear_visits,
            ref_stats.linear_visits
        );
        assert_eq!(ref_stats.creep_checks, 0, "the reference has no guard");
        match outcome {
            Outcome::Sat(ref sol) => {
                assert!(sol.satisfies(&m), "case {case}: non-model");
                sat += 1;
            }
            Outcome::Unsat => unsat += 1,
            Outcome::Unknown => {}
        }

        // The same through the branch-and-bound loop: every round adds an
        // always-active bound over all the variables.
        let bools: Vec<BoolId> = m.bool_decls().map(|(id, _)| id).collect();
        let mut terms: Vec<Ix> = m.int_decls().map(|(id, _)| Ix::var(id)).collect();
        terms.extend(bools.into_iter().map(|b| m.scale(Ix::bool01(b), 3)));
        let obj = m.sum(terms);
        let (min, min_stats) = minimize_with(&m, &obj, &limits);
        let (ref_min, ref_min_stats) = with_full_sweep(|| minimize_with(&m, &obj, &limits));
        assert_eq!(min, ref_min, "case {case}: minimum or its model");
        assert_eq!(
            path(&min_stats),
            path(&ref_min_stats),
            "case {case}: minimisation search path"
        );

        let checks = stats.creep_checks + min_stats.creep_checks;
        guarded += (checks > 0) as u32;
        // A guard verdict shows as bounds the reference tightened and this
        // search never had to.
        refuted_by_guard += (checks > 0
            && stats.bound_updates + min_stats.bound_updates
                < ref_stats.bound_updates + ref_min_stats.bound_updates)
            as u32;
    }
    // The corpus must exercise what it claims to: both verdicts, and the
    // guard firing and cutting a creep short.
    assert!(sat >= 100 && unsat >= 40, "sat {sat} unsat {unsat}");
    assert!(
        guarded >= 20,
        "only {guarded} cases reached the creep guard"
    );
    assert!(
        refuted_by_guard >= 10,
        "only {refuted_by_guard} creeps cut short"
    );
}

/// Require `v + z = s` for each `v` of `vs`.
fn shared_sum(m: &mut Model, vs: [IntId; 2], z: IntId, s: i64) {
    for v in vs {
        let vz = m.sum([Ix::var(v), Ix::var(z)]);
        let c = m.eq(vz, Ix::lit(s));
        m.require(c);
    }
}

/// `x + z = S`, `y + z = S`, `x ≥ y + 1`: infeasible, and bounds propagation
/// alone finds out one unit of a 10⁷-wide domain per lap.
#[test]
fn creeping_cycle_is_refuted_by_weight_not_by_walking_the_domain() {
    let s = 10_000_000;
    let mut m = Model::new();
    let x = m.int_var("x", 0, s);
    let y = m.int_var("y", 0, s);
    let z = m.int_var("z", 0, s);
    shared_sum(&mut m, [x, y], z, s);
    let y1 = m.sum([Ix::var(y), Ix::lit(1)]);
    let c = m.ge(Ix::var(x), y1);
    m.require(c);
    let flat = flatten(&m);
    let (outcome, _, stats) = solve_flat(&flat, &SolveLimits::default());
    assert_eq!(outcome, Outcome::Unsat);
    assert!(stats.linear_visits < 10_000, "{stats:?}");
    assert_eq!(stats.creep_checks, 1, "{stats:?}");

    // With the order relaxed to `x ≥ y` the cycle has weight 0: feasible,
    // and no guard is needed to see it.
    let mut m = Model::new();
    let x = m.int_var("x", 0, s);
    let y = m.int_var("y", 0, s);
    let z = m.int_var("z", 0, s);
    shared_sum(&mut m, [x, y], z, s);
    let c = m.ge(Ix::var(x), Ix::var(y));
    m.require(c);
    let (outcome, _, stats) = solve_flat(&flatten(&m), &SolveLimits::default());
    let sol = outcome.solution().expect("x = y is a model");
    assert!(sol.satisfies(&m));
    assert!(stats.linear_visits < 10_000, "{stats:?}");
}

/// The same cycle beside `x ≤ 300 + 1000·b`: halfway through the creep
/// the reference forces `b`, a propagation the conflict alone would not
/// show. The guard sees an unassigned boolean tied to an integer and
/// abstains, so the search path stays the reference's.
#[test]
fn guard_abstains_while_a_boolean_could_still_be_forced() {
    let s = 600;
    let mut m = Model::new();
    let b = m.bool_var("b");
    let x = m.int_var("x", 0, s);
    let y = m.int_var("y", 0, s);
    let z = m.int_var("z", 0, s);
    shared_sum(&mut m, [x, y], z, s);
    let y1 = m.sum([Ix::var(y), Ix::lit(1)]);
    let c = m.ge(Ix::var(x), y1);
    m.require(c);
    let b1000 = m.scale(Ix::bool01(b), 1000);
    let cap = m.sum([Ix::lit(300), b1000]);
    let c = m.le(Ix::var(x), cap);
    m.require(c);
    let flat = flatten(&m);
    let limits = SolveLimits::default();
    let (outcome, _, stats) = solve_flat(&flat, &limits);
    let (ref_outcome, _, ref_stats) = with_full_sweep(|| solve_flat(&flat, &limits));
    assert_eq!(outcome, Outcome::Unsat);
    assert_eq!(ref_outcome, Outcome::Unsat);
    assert_eq!(path(&stats), path(&ref_stats));
    // One check abstains; once `b` is forced, the next one decides.
    assert_eq!(stats.creep_checks, 2, "{stats:?}");
}

/// Bounds of the integers after level-0 propagation, per schedule.
fn level0_bounds(m: &Model, full_sweep: bool) -> Option<(Vec<i64>, Vec<i64>, SearchStats)> {
    let flat = flatten(m);
    let limits = SolveLimits::default();
    let run = || {
        let mut s = Search::new(&flat, &limits);
        s.propagate_units()
            .then(|| (s.lo.clone(), s.hi.clone(), s.stats))
    };
    if full_sweep {
        with_full_sweep(run)
    } else {
        run()
    }
}

/// `x₁ < x₂ < … < x₅₀`, stated from the far end of the chain backwards so
/// that a sweep moves each lower bound one link: enough visits to arm the
/// guard, but satisfiable, so it finds no negative cycle and propagation
/// carries on to the reference's fixpoint.
#[test]
fn long_chain_reaches_the_reference_bounds() {
    let n = 50;
    let mut m = Model::new();
    let xs: Vec<_> = (0..n)
        .map(|i| m.int_var(format!("x{i}"), 0, 1000))
        .collect();
    for i in (0..n - 1).rev() {
        let before_next = m.sum([Ix::var(xs[i + 1]), Ix::lit(-1)]);
        let c = m.le(Ix::var(xs[i]), before_next);
        m.require(c);
    }
    let (lo, hi, stats) = level0_bounds(&m, false).expect("satisfiable");
    let (ref_lo, ref_hi, ref_stats) = level0_bounds(&m, true).expect("satisfiable");
    assert_eq!((&lo, &hi), (&ref_lo, &ref_hi));
    assert_eq!(lo[n - 1], n as i64 - 1);
    assert_eq!(hi[0], 1000 - (n as i64 - 1));
    assert_eq!(stats.creep_checks, 1, "{stats:?}");
    assert_eq!(stats.bound_updates, ref_stats.bound_updates);
    assert!(
        stats.linear_visits < ref_stats.linear_visits,
        "{} visits against the reference's {}",
        stats.linear_visits,
        ref_stats.linear_visits
    );
}

/// A creep the guard cannot decide — `2x − 2y ≤ −1` and `2y − 2x ≤ 1` are
/// feasible over the reals and outside the unit-coefficient fragment — is
/// walked to its end exactly as before.
#[test]
fn undecided_creep_carries_on_to_the_reference_result() {
    let mut m = Model::new();
    let x = m.int_var("x", 0, 2000);
    let y = m.int_var("y", 0, 2000);
    let (x2, y2) = (m.scale(Ix::var(x), 2), m.scale(Ix::var(y), 2));
    let y2m1 = m.sum([y2, Ix::lit(-1)]);
    let c = m.le(x2, y2m1);
    m.require(c);
    let x2p1 = m.sum([x2, Ix::lit(1)]);
    let c = m.le(y2, x2p1);
    m.require(c);
    let flat = flatten(&m);
    let limits = SolveLimits::default();
    let (outcome, _, stats) = solve_flat(&flat, &limits);
    let (ref_outcome, _, ref_stats) = with_full_sweep(|| solve_flat(&flat, &limits));
    assert_eq!(outcome, Outcome::Unsat);
    assert_eq!(ref_outcome, Outcome::Unsat);
    assert_eq!(path(&stats), path(&ref_stats));
    assert_eq!(stats.creep_checks, 1, "{stats:?}");
    assert_eq!(stats.bound_updates, ref_stats.bound_updates);
}

#[test]
fn dirty_set_yields_members_in_ascending_order_from_a_cursor() {
    let mut d = DirtySet::default();
    for i in [3, 64, 200, 65, 3] {
        d.insert(i);
    }
    assert_eq!(d.take_from(4), Some(64));
    assert_eq!(d.take_from(65), Some(65));
    assert_eq!(d.take_from(66), Some(200));
    assert_eq!(d.take_from(201), None);
    assert_eq!(d.take_from(0), Some(3));
    assert_eq!(d.take_from(0), None);
    d.insert(7);
    d.clear();
    assert_eq!(d.take_from(0), None);
}

/// The heap hands out variables in the order the scan it replaced would:
/// highest activity first, lowest index among equals, under bumps, wholesale
/// rescaling, removals and re-insertions.
#[test]
fn var_heap_pops_what_a_linear_scan_would_pick() {
    let mut rng = Rng(0x5eed_0015);
    let n = 40;
    let mut act = vec![0.0f64; n];
    let mut heap = VarHeap::full(&act);
    let mut present = vec![true; n];
    for step in 0..4000 {
        match rng.below(4) {
            0 => {
                let v = rng.below(n as u64) as usize;
                act[v] += rng.pick(&[0.5, 1.0, 1.0, 3.0]);
                heap.raised(v as u32, &act);
            }
            1 => {
                let v = rng.below(n as u64) as usize;
                heap.insert(v as u32, &act);
                present[v] = true;
            }
            2 if step % 97 == 0 => {
                // Flush the small activities together, as rescaling does.
                for a in &mut act {
                    *a = (*a / 4.0).floor();
                }
                heap.rebuild(&act);
            }
            _ => {
                let scan = (0..n)
                    .filter(|&v| present[v])
                    .fold(None, |best: Option<usize>, v| match best {
                        Some(b) if act[v] <= act[b] => Some(b),
                        _ => Some(v),
                    });
                assert_eq!(heap.pop(&act).map(|v| v as usize), scan, "step {step}");
                if let Some(v) = scan {
                    present[v] = false;
                }
            }
        }
    }
}
