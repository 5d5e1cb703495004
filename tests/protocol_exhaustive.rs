//! Exhaustive small-scope check of the rollout / recovery protocol.
//!
//! This walk runs the protocol end to end: the one transaction machine
//! (`Txn::step`: prepares, commit round, rollback round, a recovery's
//! state queries) behind the one driver, over a channel and the switch
//! agents, through the public `apply_rollout_logged` and `recover`. The
//! machine alone, on three targets and with no channel, is walked by
//! `crates/core/src/rollout.rs`'s `step_walk` test.
//!
//! The chaos suites in `fault_injection.rs` *sample* fault schedules on
//! 4-switch fleets with real loss rates and switch death. This file
//! *enumerates* them on the smallest fleet that still has a second switch
//! to disagree with: a 2-target load-balancer rollout with
//! `max_attempts = 1` (so a prepare or commit is one transmission and a
//! rollback message gets its 4× budget of four).
//!
//! A scripted [`ControlChannel`] rules transmission *i* by step *i* of a
//! script. Past the end of the script it takes the first alternative and
//! records it, so every run leaves behind one complete schedule; the next
//! schedule is the odometer successor of that one. That is a depth-first
//! walk of the tree of schedules by replay, with no state to snapshot.
//! Each step is one of the four [`Delivery`] fates, optionally with a late
//! copy of the message that the channel holds back and releases from a
//! later `drain_late` — reordering it past what the sender transmits in
//! between. The late-copy dimension is what does not fit unbounded (it
//! multiplies 6·10⁴ schedules by 4^length), so it is bounded three ways:
//! **one late copy per schedule**; **of a prepare or commit transmission
//! only** (all copies of one rollback message wear one token and name an
//! epoch that is being abandoned, so to the agent a held-back rollback
//! attempt is that attempt's `AckLost`); and **released at the first or
//! second later `drain_late`, or not before the transaction is over** (the
//! delays that differ in what the destination switch sees: before its
//! rollback, between two rollback transmissions, and after the settle —
//! where the network hands it to whatever runs next). Debug builds — the
//! tier-1 `cargo test` — walk the tree without the late-copy dimension;
//! release builds (CI's `rollout-chaos` job) walk all of it, about ten
//! times as many schedules.
//!
//! Every schedule is then crossed with the controller dying: at every
//! [`CrashPoint`] and after every journaled send the schedule reaches.
//! Schedules that share the prefix a crash depends on would repeat the
//! same crashed run, so each distinct (crash, prefix) pair runs once — at
//! the first schedule, in walk order, that has the prefix. A crashed run
//! is recovered from scratch over a channel that delivers everything and
//! over one that drops everything — the network outlives the controller,
//! so either still holds the late copy the crashed controller's channel
//! held, and releases it ahead of the recovery's state queries or right
//! behind them — and `recover` is then run a second time.
//!
//! After every run: exactly one of committed / rolled back; every switch
//! on one epoch with nothing staged or retained; the epoch advanced iff
//! the transaction committed; the logical entries are what they were; the
//! only switches reverted out-of-band are those whose every rollback
//! transmission went unacknowledged (so a transition the final sweep had
//! to paper over is a failure, not a pass); the second `recover` found
//! nothing to do and changed nothing; and a follow-up rollout, with the
//! late copy landing between its prepares and its commits, takes a fresh
//! epoch and commits — a burned epoch is never reused, and a stale copy of
//! it cannot hurt its successor.

use std::cell::Cell;
use std::fmt::Debug;
use std::rc::Rc;

use lyra::{
    CompileOutput, CompileRequest, Compiler, ControlChannel, ControlMsg, CrashPlan, CrashPoint,
    Delivery, IntentRecord, IntentStore, ReliableChannel, RolloutConfig, Runtime, RuntimeError,
};
use lyra_diag::codes;
use lyra_topo::figure1_network;

const LB: &str = r#"
    pipeline[LB]{loadbalancer};
    algorithm loadbalancer {
        extern dict<bit[32] h, bit[32] ip>[64] conn_table;
        if (flow_h in conn_table) {
            ipv4.dstAddr = conn_table[flow_h];
        } else {
            copy_to_cpu();
        }
    }
"#;
const LB_SCOPES: &str = "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";

const FATES: [Delivery; 4] = [
    Delivery::Delivered,
    Delivery::Duplicated,
    Delivery::AckLost,
    Delivery::Dropped,
];

/// When a held-back copy is released: at the n-th `drain_late` after it
/// was taken, or (`usize::MAX`) not by this channel at all — the aftermath
/// gets it.
const DELAYS: [usize; 3] = [1, 2, usize::MAX];

/// Whether schedules may hold a copy back at all (see the module docs).
const LATE_COPIES: bool = !cfg!(debug_assertions);

/// One step of a schedule: which of `arity` alternatives rules this
/// transmission. Alternatives `0..4` are the fates; `4..16` are the same
/// fates with a late copy held back for one of [`DELAYS`], offered only on
/// a prepare or commit and only while the schedule has not used its one
/// late copy.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Step {
    choice: u8,
    arity: u8,
}

impl Step {
    fn fate(self) -> Delivery {
        FATES[usize::from(self.choice % 4)]
    }

    /// The delay a held-back copy of this transmission sits out, if one is
    /// held back.
    fn late(self) -> Option<usize> {
        Some(DELAYS[usize::from(self.choice.checked_sub(4)?) / 4])
    }
}

impl Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.fate())?;
        match self.late() {
            Some(usize::MAX) => write!(f, "+late(aftermath)"),
            Some(drains) => write!(f, "+late({drains})"),
            None => Ok(()),
        }
    }
}

/// Advance `steps` to the next schedule in depth-first order. Returns the
/// position that changed (everything before it is shared with the
/// previous schedule), or `None` when the walk is complete.
fn successor(steps: &mut Vec<Step>) -> Option<usize> {
    while let Some(last) = steps.last_mut() {
        if last.choice + 1 < last.arity {
            last.choice += 1;
            return Some(steps.len() - 1);
        }
        steps.pop();
    }
    None
}

/// The scripted channel. `clock` counts the transmissions ruled so far and
/// is shared with the journal, so every record knows how much of the
/// script had been consumed when it was written.
struct Scripted {
    steps: Vec<Step>,
    clock: Rc<Cell<usize>>,
    late_used: bool,
    /// The held-back copy and the `drain_late` calls it still sits out.
    pending: Option<(usize, ControlMsg)>,
    /// Every switch a rollback was sent to, and whether any transmission
    /// of it was acknowledged.
    rollbacks: Vec<(String, bool)>,
}

impl Scripted {
    fn new(steps: Vec<Step>, clock: Rc<Cell<usize>>) -> Self {
        Scripted {
            steps,
            clock,
            late_used: false,
            pending: None,
            rollbacks: Vec::new(),
        }
    }

    /// Switches whose rollback exhausted its budget unacknowledged — the
    /// only ones the engine may revert out-of-band.
    fn unacked_rollbacks(&self) -> u64 {
        self.rollbacks.iter().filter(|(_, acked)| !acked).count() as u64
    }

    /// The copy still held back when the scripted part ended.
    fn leftover(&mut self) -> Option<ControlMsg> {
        self.pending.take().map(|(_, msg)| msg)
    }
}

impl ControlChannel for Scripted {
    fn transmit(&mut self, msg: &ControlMsg) -> Delivery {
        let i = self.clock.get();
        if i == self.steps.len() {
            let may_hold_back = LATE_COPIES
                && !self.late_used
                && (msg.op.is_prepare() || msg.op.name() == "commit");
            let arity = if may_hold_back { 16 } else { 4 };
            self.steps.push(Step { choice: 0, arity });
        }
        let step = self.steps[i];
        self.clock.set(i + 1);
        if let Some(drains) = step.late() {
            self.late_used = true;
            self.pending = Some((drains, msg.clone()));
        }
        if msg.op.name() == "rollback" {
            if self
                .rollbacks
                .last()
                .is_none_or(|(sw, _)| *sw != msg.switch)
            {
                self.rollbacks.push((msg.switch.clone(), false));
            }
            if matches!(step.fate(), Delivery::Delivered | Delivery::Duplicated) {
                self.rollbacks.last_mut().unwrap().1 = true;
            }
        }
        step.fate()
    }

    fn drain_late(&mut self) -> Vec<ControlMsg> {
        match &mut self.pending {
            Some((1, _)) => self.leftover().into_iter().collect(),
            Some((drains, _)) => {
                if *drains != usize::MAX {
                    *drains -= 1;
                }
                Vec::new()
            }
            None => Vec::new(),
        }
    }
}

/// What the network does after the scripted part: rules every
/// transmission the same way, and releases the late copy it may still
/// hold at its `release_at`-th `drain_late` — the first puts it ahead of
/// everything the next controller sends, the third lands it behind a
/// recovery's two state queries or a rollout's two prepares.
struct Aftermath {
    pending: Option<ControlMsg>,
    release_at: usize,
    fate: Delivery,
}

impl ControlChannel for Aftermath {
    fn transmit(&mut self, _msg: &ControlMsg) -> Delivery {
        self.fate
    }

    fn drain_late(&mut self) -> Vec<ControlMsg> {
        self.release_at = self.release_at.saturating_sub(1);
        match self.release_at {
            0 => self.pending.take().into_iter().collect(),
            _ => Vec::new(),
        }
    }
}

/// An intent store that stamps every record with the channel clock.
struct ClockedStore {
    records: Vec<(IntentRecord, usize)>,
    clock: Rc<Cell<usize>>,
}

impl IntentStore for ClockedStore {
    fn append(&mut self, record: &IntentRecord) -> Result<(), RuntimeError> {
        self.records.push((record.clone(), self.clock.get()));
        Ok(())
    }

    fn load(&self) -> Result<Vec<IntentRecord>, RuntimeError> {
        Ok(self.records.iter().map(|(r, _)| r.clone()).collect())
    }
}

type Entries = Vec<(String, u64, u64)>;

struct Scope {
    prior: CompileOutput,
    next: CompileOutput,
    entries: Entries,
}

impl Scope {
    fn runtime(&self) -> Runtime<'_> {
        let mut rt = Runtime::new(&self.prior);
        let entries: Vec<(u64, u64)> = self.entries.iter().map(|(_, k, v)| (*k, *v)).collect();
        rt.install_many("conn_table", &entries).unwrap();
        assert!(rt.epochs_coherent());
        rt
    }

    fn config(crash: Option<CrashPlan>) -> RolloutConfig {
        RolloutConfig {
            max_attempts: 1,
            crash,
            ..Default::default()
        }
    }

    /// The invariants every finished transaction must leave behind.
    fn assert_settled(&self, rt: &Runtime<'_>, epoch0: u64, committed: bool, what: &dyn Debug) {
        assert!(rt.epochs_coherent(), "{what:?}: epochs incoherent");
        let (epoch, output) = if committed {
            (epoch0 + 1, &self.next)
        } else {
            (epoch0, &self.prior)
        };
        assert_eq!(rt.epoch(), epoch, "{what:?}: epoch advances iff committed");
        assert!(
            std::ptr::eq(rt.output(), output),
            "{what:?}: serves the wrong output"
        );
        assert_eq!(
            rt.logical_entries(),
            self.entries,
            "{what:?}: entries moved"
        );
    }

    /// A follow-up rollout over a network still holding `pending`: it must
    /// take a fresh epoch — `epoch0 + 1` is committed or burned — and
    /// commit, whatever stale copy arrives in the middle of it.
    fn assert_epoch_not_reused<'a>(
        &'a self,
        rt: &mut Runtime<'a>,
        pending: Option<ControlMsg>,
        epoch0: u64,
        what: &dyn Debug,
    ) {
        let mut channel = Aftermath {
            pending,
            release_at: 3,
            fate: Delivery::Delivered,
        };
        let follow = rt
            .apply_rollout(&self.prior, &mut channel, &Self::config(None))
            .unwrap();
        assert_eq!(follow.epoch, epoch0 + 2, "{what:?}: epoch reused");
        assert!(follow.committed, "{what:?}: follow-up rollout {follow:?}");
        assert!(
            channel.pending.is_none(),
            "{what:?}: the late copy never arrived"
        );
        assert!(rt.epochs_coherent(), "{what:?}: follow-up left remnants");
        assert_eq!(rt.epoch(), epoch0 + 2, "{what:?}");
        assert_eq!(rt.logical_entries(), self.entries, "{what:?}");
    }
}

/// The crashes a finished schedule reaches, each with the number of
/// transmissions it depends on, read off the clocked journal: the named
/// points around each record ([`IntentRecord::crash_points`]), and one
/// crash after each journaled send.
fn crashes_reached(records: &[(IntentRecord, usize)]) -> Vec<(CrashPlan, usize)> {
    let (mut crashes, mut sends) = (Vec::new(), 0);
    for (record, at) in records {
        let [before, after] = record
            .crash_points()
            .map(|p| p.map(|p| (CrashPlan::at(p), *at)));
        crashes.extend(before);
        if let IntentRecord::Sent { .. } = record {
            sends += 1;
            crashes.push((CrashPlan::after_sends(sends), *at));
        }
        crashes.extend(after);
    }
    crashes
}

#[test]
fn every_schedule_of_a_two_switch_rollout_is_all_or_nothing() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let scope = Scope {
        prior: compiler.compile(&req).unwrap(),
        next: compiler.compile(&req).unwrap(),
        entries: (1..=5u64)
            .map(|k| ("conn_table".to_string(), k, 100 + k))
            .collect(),
    };
    assert_eq!(scope.prior.placement.switches.len(), 2, "a 2-target scope");

    let (mut schedules, mut crashed, mut committed_runs, mut longest) = (0u64, 0u64, 0u64, 0);
    let mut crash_points_hit = [0u64; CrashPoint::ALL.len()];
    let mut steps: Vec<Step> = Vec::new();
    let mut fresh_from = 0;
    loop {
        // --- The schedule itself, controller alive throughout. ----------
        let clock = Rc::new(Cell::new(0));
        let mut channel = Scripted::new(std::mem::take(&mut steps), clock.clone());
        let mut store = ClockedStore {
            records: Vec::new(),
            clock: clock.clone(),
        };
        let mut rt = scope.runtime();
        let epoch0 = rt.epoch();
        let report = rt
            .apply_rollout_logged(&scope.next, &mut channel, &Scope::config(None), &mut store)
            .unwrap();
        steps = std::mem::take(&mut channel.steps);
        assert_eq!(
            clock.get(),
            steps.len(),
            "the run consumed its whole script"
        );
        let what = &steps;
        assert!(
            report.committed ^ report.rolled_back,
            "{what:?}: {report:?}"
        );
        assert_eq!(report.epoch, epoch0 + 1, "{what:?}");
        assert_eq!(
            report.forced_rollbacks,
            channel.unacked_rollbacks(),
            "{what:?}: out-of-band reverts the schedule does not explain: {report:?}"
        );
        scope.assert_settled(&rt, epoch0, report.committed, what);
        scope.assert_epoch_not_reused(&mut rt, channel.leftover(), epoch0, what);
        schedules += 1;
        committed_runs += u64::from(report.committed);
        longest = longest.max(steps.len());

        // --- The same schedule with the controller dying on the way. ----
        for (plan, depends_on) in crashes_reached(&store.records) {
            if depends_on < fresh_from {
                continue; // an earlier schedule shares the prefix: same run
            }
            let aftermaths = [Delivery::Delivered, Delivery::Dropped]
                .into_iter()
                .flat_map(|fate| [1, 3].map(|release_at| (fate, release_at)));
            for (recovery_fate, release_at) in aftermaths {
                let what = &(&steps, &plan, recovery_fate, release_at);
                let clock = Rc::new(Cell::new(0));
                let mut channel = Scripted::new(steps.clone(), clock.clone());
                let mut store = ClockedStore {
                    records: Vec::new(),
                    clock: clock.clone(),
                };
                let mut rt = scope.runtime();
                let config = Scope::config(Some(plan.clone()));
                let err = rt
                    .apply_rollout_logged(&scope.next, &mut channel, &config, &mut store)
                    .expect_err("the crash plan must fire where the journal said");
                assert_eq!(err.code, Some(codes::CONTROLLER_CRASHED), "{what:?}");
                assert_eq!(clock.get(), depends_on, "{what:?}: crash moved");

                let mut aftermath = Aftermath {
                    pending: channel.leftover(),
                    release_at,
                    fate: recovery_fate,
                };
                if aftermath.pending.is_none() && release_at > 1 {
                    continue; // nothing held back: when it is released is moot
                }
                let config = Scope::config(None);
                let first = rt
                    .recover(&scope.next, &mut store, &mut aftermath, &config)
                    .unwrap();
                assert!(first.in_flight, "{what:?}: {first:?}");
                assert!(first.committed ^ first.rolled_back, "{what:?}: {first:?}");
                // A recovery rollback over a dead channel reverts both
                // switches out-of-band; nothing else may.
                let forced = if recovery_fate == Delivery::Dropped {
                    2
                } else {
                    0
                };
                assert_eq!(first.forced_rollbacks, forced, "{what:?}: {first:?}");
                scope.assert_settled(&rt, epoch0, first.committed, what);

                let second = rt
                    .recover(
                        &scope.next,
                        &mut store,
                        &mut ReliableChannel::new(),
                        &config,
                    )
                    .unwrap();
                assert!(
                    !second.in_flight && !second.committed && !second.rolled_back,
                    "{what:?}: second recovery found work: {second:?}"
                );
                scope.assert_settled(&rt, epoch0, first.committed, what);
                scope.assert_epoch_not_reused(&mut rt, aftermath.pending.take(), epoch0, what);
            }
            crashed += 1;
            if let Some(i) = CrashPoint::ALL
                .iter()
                .position(|p| CrashPlan::at(*p) == plan)
            {
                crash_points_hit[i] += 1;
            }
        }

        match successor(&mut steps) {
            Some(changed) => fresh_from = changed + 1,
            None => break,
        }
    }

    println!(
        "protocol_exhaustive: {schedules} schedule(s) ({committed_runs} committed, longest \
         {longest} transmission(s)) + {crashed} distinct crashed run(s), each recovered over a \
         delivering and over a dropping channel; crash points hit {crash_points_hit:?}"
    );
    assert!(
        schedules + crashed >= 10_000,
        "the enumeration collapsed: {schedules} + {crashed}"
    );
    assert!(committed_runs > 0 && committed_runs < schedules);
    assert!(
        crash_points_hit.iter().all(|&n| n > 0),
        "a crash point was never reached: {crash_points_hit:?}"
    );
    // A count that moves means the protocol sends a different number of
    // messages, or journals or passes a crash position somewhere else.
    // Debug builds walk no late copies.
    let expected = if cfg!(debug_assertions) {
        (63_496, 16, 12, 1_480, [1, 4, 4, 16, 30])
    } else {
        (685_792, 208, 12, 15_934, [1, 28, 28, 208, 324])
    };
    assert_eq!(
        (
            schedules,
            committed_runs,
            longest,
            crashed,
            crash_points_hit
        ),
        expected
    );
}
