//! Portfolio solving: race diversified CDCL searchers, first verdict wins.
//!
//! Modern SAT practice (ManySAT, Hamadi et al., JSAT 2009) runs several
//! differently-tuned copies of the same solver on one formula and takes
//! whichever finishes first — diversification (seeds, restart schedules,
//! activity decay, phase polarity) makes the copies explore the search
//! space in genuinely different orders, so the *minimum* of their runtimes
//! is often far below the median. This module implements that race on
//! `std::thread::scope` with a shared [`AtomicBool`] cancellation flag that
//! every worker polls once per propagation pass (see
//! [`SolverConfig::cancel`]).
//!
//! Accounting follows the compile driver's needs: the returned
//! [`SearchStats`] are the **winning worker's counters only**, plus the
//! `workers_spawned` / `workers_cancelled` pair — raced losers never
//! double-count into phase timings. When no worker reaches a verdict
//! (budget exhaustion), every worker's effort is summed, since all of it
//! was genuinely spent.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::flatten::{flatten, FlatModel, FlatVar};
use crate::model::Model;
use crate::search::{solve_flat_warm, RawAssignment, SearchStats, SolverConfig, WarmStart};
use crate::Outcome;

/// Lock a mutex, recovering from poisoning. A poisoned mutex here only
/// means some worker panicked mid-race; the guarded data (winner slot,
/// leftover stats) is always written atomically from the reader's point of
/// view — a worker either completed its insertion or never started it — so
/// the stored value stays coherent and the race result remains usable.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Consume a mutex, recovering from poisoning (see [`lock_recovering`]).
fn into_inner_recovering<T>(m: Mutex<T>) -> T {
    m.into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Portfolio workers to spawn by default: the machine's available
/// parallelism, capped at 8 (beyond that, diversification repeats and the
/// marginal worker mostly burns cache bandwidth).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The diversification table: worker `i`'s configuration, derived from a
/// base configuration. Worker 0 runs the base configuration unchanged (the
/// sequential twin), so a 1-worker portfolio degenerates to a sequential
/// solve. Workers 1–3 vary the restart schedule, activity decay, and
/// default polarity; workers ≥ 4 additionally draw pseudo-random initial
/// phases from distinct seeds.
pub fn diversify(base: &SolverConfig, i: usize) -> SolverConfig {
    let mut cfg = base.clone();
    match i {
        0 => {}
        1 => {
            // Aggressive restarts, opposite polarity.
            cfg.default_phase = !base.default_phase;
            cfg.restart_interval = 64;
        }
        2 => {
            // Slow decay (long memory), lazy restarts.
            cfg.activity_decay = 0.90;
            cfg.restart_interval = 256;
        }
        3 => {
            // Fast decay (short memory), rapid restarts.
            cfg.activity_decay = 0.99;
            cfg.restart_interval = 32;
        }
        _ => {
            // Random initial phases from a per-worker seed; stagger the
            // restart schedule so seeds don't share a rhythm.
            cfg.seed = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            cfg.default_phase = i % 2 == 1;
            cfg.restart_interval = base.restart_interval.max(32) << (i % 3);
        }
    }
    cfg
}

/// Race `workers` diversified searchers on a flattened model. The first
/// worker reaching SAT or UNSAT wins and cancels the rest; the result
/// carries the winner's counters plus the spawned/cancelled pair. When all
/// workers exhaust their budget the outcome is [`Outcome::Unknown`] with
/// every worker's effort summed.
pub fn solve_flat_portfolio(
    flat: &FlatModel,
    base: &SolverConfig,
    extra: &[(Vec<(i64, FlatVar)>, i64)],
    workers: usize,
) -> (Outcome, Option<RawAssignment>, SearchStats) {
    let (outcome, raw, stats, _) = solve_flat_portfolio_warm(flat, base, extra, workers, None);
    (outcome, raw, stats)
}

/// [`solve_flat_portfolio`] with warm-start seeding: every worker is seeded
/// with the same bundle (diversification still varies their schedules), and
/// the **winning worker's** export is returned so callers can persist the
/// freshest learned-clause database. `None` export when no worker reached a
/// verdict.
pub fn solve_flat_portfolio_warm(
    flat: &FlatModel,
    base: &SolverConfig,
    extra: &[(Vec<(i64, FlatVar)>, i64)],
    workers: usize,
    warm: Option<&WarmStart>,
) -> (
    Outcome,
    Option<RawAssignment>,
    SearchStats,
    Option<WarmStart>,
) {
    let n = workers.max(1);
    if n == 1 {
        let (outcome, raw, mut stats, export) = solve_flat_warm(flat, base, extra, warm);
        stats.workers_spawned += 1;
        return (outcome, raw, stats, Some(export));
    }
    let cancel = Arc::new(AtomicBool::new(false));
    // Winner slot plus the effort of workers that reached no verdict.
    type Verdict = (Outcome, Option<RawAssignment>, SearchStats, WarmStart);
    let winner: Mutex<Option<Verdict>> = Mutex::new(None);
    let leftovers: Mutex<SearchStats> = Mutex::new(SearchStats::default());
    std::thread::scope(|scope| {
        for i in 0..n {
            let mut cfg = diversify(base, i);
            cfg.cancel = Some(cancel.clone());
            let (winner, leftovers, cancel) = (&winner, &leftovers, &cancel);
            scope.spawn(move || {
                // A panicking worker must not take the race down with it:
                // `std::thread::scope` re-raises worker panics at the join
                // point, and a panic while holding either mutex would
                // poison it for every surviving worker. Catching here turns
                // a crashed worker into one that simply never reports —
                // its siblings keep racing and one of them decides.
                let solved = catch_unwind(AssertUnwindSafe(|| {
                    solve_flat_warm(flat, &cfg, extra, warm)
                }));
                let Ok((outcome, raw, stats, export)) = solved else {
                    return;
                };
                match outcome {
                    Outcome::Sat(_) | Outcome::Unsat => {
                        let mut w = lock_recovering(winner);
                        if w.is_none() {
                            *w = Some((outcome, raw, stats, export));
                            cancel.store(true, Ordering::Relaxed);
                        }
                        // A verdict that arrives after the race is decided
                        // is discarded like a cancelled worker.
                    }
                    Outcome::Unknown => {
                        lock_recovering(leftovers).absorb(stats);
                    }
                }
            });
        }
    });
    let won = into_inner_recovering(winner);
    match won {
        Some((outcome, raw, mut stats, export)) => {
            stats.workers_spawned += n as u64;
            stats.workers_cancelled += (n - 1) as u64;
            (outcome, raw, stats, Some(export))
        }
        None => {
            // Everyone exhausted the budget: all effort was real.
            let mut stats = into_inner_recovering(leftovers);
            stats.workers_spawned += n as u64;
            (Outcome::Unknown, None, stats, None)
        }
    }
}

/// Portfolio counterpart of [`crate::solve`]: flatten and race.
pub fn solve_portfolio(
    model: &Model,
    cfg: &SolverConfig,
    workers: usize,
) -> (Outcome, SearchStats) {
    let flat = flatten(model);
    let (outcome, _, stats) = solve_flat_portfolio(&flat, cfg, &[], workers);
    if let Outcome::Sat(ref s) = outcome {
        debug_assert!(s.satisfies(model), "portfolio returned a non-model");
    }
    (outcome, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Bx, Ix};
    use crate::model::Model;

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
            m.require(Bx::or(p.iter().map(|&v| Bx::var(v)).collect()));
        }
        for h in 0..holes {
            m.require(Bx::at_most_one(
                vars.iter().map(|row| Bx::var(row[h])).collect(),
            ));
        }
        m
    }

    #[test]
    fn portfolio_sat() {
        let mut m = Model::new();
        let a = m.bool_var("a");
        let b = m.bool_var("b");
        m.require(Bx::or(vec![Bx::var(a), Bx::var(b)]));
        m.require(Bx::not(Bx::var(a)));
        let (outcome, stats) = solve_portfolio(&m, &SolverConfig::default(), 4);
        let sol = outcome.solution().unwrap();
        assert!(!sol.bool(a));
        assert!(sol.bool(b));
        assert_eq!(stats.workers_spawned, 4);
        assert_eq!(stats.workers_cancelled, 3);
    }

    #[test]
    fn portfolio_unsat() {
        let m = pigeonhole(6, 5);
        let (outcome, stats) = solve_portfolio(&m, &SolverConfig::default(), 3);
        assert_eq!(outcome, Outcome::Unsat);
        assert_eq!(stats.workers_spawned, 3);
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let mut m = Model::new();
        let x = m.int_var("x", 0, 10);
        m.require(Ix::var(x).ge(Ix::lit(3)));
        let (outcome, stats) = solve_portfolio(&m, &SolverConfig::default(), 1);
        assert!(outcome.is_sat());
        assert_eq!(stats.workers_spawned, 1);
        assert_eq!(stats.workers_cancelled, 0);
    }

    #[test]
    fn poisoned_locks_recover() {
        let m = Mutex::new(41);
        // Poison the mutex by panicking while holding its guard.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison");
        }));
        assert!(m.is_poisoned());
        *lock_recovering(&m) += 1;
        assert_eq!(into_inner_recovering(m), 42);
    }

    #[test]
    fn portfolio_with_expired_deadline_returns_unknown_promptly() {
        use std::time::{Duration, Instant};
        let m = pigeonhole(12, 11); // far harder than the time allowed
        let flat = flatten(&m);
        let cfg = SolverConfig {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Default::default()
        };
        let t = Instant::now();
        let (outcome, _, stats) = solve_flat_portfolio(&flat, &cfg, &[], 4);
        assert_eq!(outcome, Outcome::Unknown);
        assert_eq!(stats.workers_spawned, 4);
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "expired deadline must stop all workers promptly: {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn diversify_worker0_is_base() {
        let base = SolverConfig::default();
        let d0 = diversify(&base, 0);
        assert_eq!(d0.restart_interval, base.restart_interval);
        assert_eq!(d0.seed, 0);
        // Workers differ from each other in at least one dimension.
        let d1 = diversify(&base, 1);
        let d5 = diversify(&base, 5);
        assert_ne!(d1.restart_interval, base.restart_interval);
        assert_ne!(d5.seed, 0);
    }
}
