//! Closed-loop self-healing: failure detection, gray-failure scoring, and
//! automatic remediation.
//!
//! The Lyra paper's one-big-pipeline abstraction assumes the controller
//! *learns* about failures somehow; PRs 4–8 built the machinery that reacts
//! to a failure once it is known (fault-set recompiles, two-phase rollouts,
//! crash recovery, anti-entropy audit). This module closes the loop:
//!
//! 1. **Detection** — a `HealthMonitor` drives seeded heartbeat probes (a
//!    read-only [`ControlOp::Query`] each) over the existing
//!    [`ControlChannel`] and folds in passive evidence from rollout sends,
//!    one sample at a time through the pure per-target `step`. It tells
//!    *dead* (consecutive missed probes) from *gray* (slow or lossy —
//!    answering, but badly) from *flapping* (oscillating), with hysteresis
//!    so one dropped packet never triggers a recompile.
//! 2. **Remediation** — a `SelfHealer` turns the monitor's verdicts into
//!    a [`FaultSet`] delta and drives `recompile_for_faults → apply_rollout
//!    → audit_switches` automatically: rate-limited, damped backoff on
//!    failure, coalescing while a round is in flight, and restore-on-
//!    recovery gated behind a clean probation window.
//! 3. **Chaos** — a seeded [`ChaosSchedule`] (kill / restore / flap / slow
//!    / lossy on a virtual clock) exercises the whole loop end to end;
//!    [`run_selfheal`] reports MTTR and proves zero mixed-epoch exposure
//!    under live traffic.
//!
//! Everything is deterministic for a fixed seed: the clock is a virtual
//! tick counter, the only randomness is the in-tree xorshift generator,
//! and wall time is measured but never consulted for decisions.

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use lyra_diag::codes;
use lyra_diag::Diagnostic;
use lyra_ir::DataPlaneState;
use lyra_topo::FaultSet;

use crate::channel::{ControlChannel, ControlMsg, ControlOp, Delivery, Rng};
use crate::dataplane::{replay_compiled, replay_under, ReplayConfig, ReplayReport};
use crate::fault::FaultRecompile;
use crate::rollout::{RolloutConfig, RolloutReport};
use crate::runtime::Runtime;
use crate::{CompileError, CompileOutput, CompileRequest, Compiler};

// ---------------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------------

/// Something the monitor watches and the healer can fail or restore: a
/// switch, or a link between two switches. Links are canonical (endpoints
/// sorted) so `Link("B","A")` and `Link("A","B")` are the same target.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    /// A switch, by topology name.
    Switch(String),
    /// A link, by its (sorted) endpoint names.
    Link(String, String),
}

impl Target {
    /// A switch target.
    pub fn switch(name: impl Into<String>) -> Target {
        Target::Switch(name.into())
    }

    /// A link target (endpoints are sorted into canonical order).
    pub fn link(a: impl Into<String>, b: impl Into<String>) -> Target {
        let (a, b) = (a.into(), b.into());
        if a <= b {
            Target::Link(a, b)
        } else {
            Target::Link(b, a)
        }
    }

    /// The wire name a probe for this target is addressed to. Switch
    /// probes go to the switch itself; link probes go to a synthetic
    /// `a~b` destination — the chaos channel rules on it like any other
    /// address, and the switch agent ignores it (no state keyed by it).
    pub fn wire(&self) -> String {
        match self {
            Target::Switch(s) => s.clone(),
            Target::Link(a, b) => format!("{a}~{b}"),
        }
    }

    /// Parse a wire name back into a target (`a~b` → link, else switch).
    pub fn from_wire(wire: &str) -> Target {
        match wire.split_once('~') {
            Some((a, b)) => Target::link(a, b),
            None => Target::switch(wire),
        }
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Target::Switch(s) => write!(f, "switch `{s}`"),
            Target::Link(a, b) => write!(f, "link `{a}~{b}`"),
        }
    }
}

// ---------------------------------------------------------------------------
// Detection: probe outcomes, health states, the per-target step
// ---------------------------------------------------------------------------

/// What one probe (or one piece of passive evidence) observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeOutcome {
    /// Answered promptly.
    Ok,
    /// Answered, but badly: the acknowledgement was lost or the send
    /// needed retries — gray evidence, not death.
    Degraded,
    /// Never answered.
    Lost,
}

/// The monitor's verdict on one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Answering normally.
    Healthy,
    /// Confirmed dead: `DEAD_MISSES` consecutive probes went unanswered.
    Dead,
    /// Confirmed gray: answering, but lossy or slow, sustained over the
    /// confirmation window.
    Gray,
    /// Flap-damped: the target oscillated enough that the monitor refuses
    /// to restore it until the flap penalty decays and a long clean streak
    /// accrues. Quarantine is what turns a flapping link into *one*
    /// recompile instead of a recompile storm.
    Quarantined,
}

impl HealthState {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Dead => "dead",
            HealthState::Gray => "gray",
            HealthState::Quarantined => "quarantined",
        }
    }

    /// States the healer treats as failed (kept in the fault set).
    pub fn is_faulted(&self) -> bool {
        *self != HealthState::Healthy
    }
}

// Detector and healer constants — constants, not options, because no caller,
// test or bench has ever needed a second value. Beside each: what moves when
// it does, over the 200 chaos schedules of `tests/fault_injection.rs` and
// its two flap schedules (EXPERIMENTS.md "Detector diet"; as shipped: 537
// recompiles, 11 rollbacks, Σ MTTR 162 ticks — the suite asserts these three
// — max 8, flap 8×3 = 1 recompile and quarantined).

/// Consecutive `Lost` samples that confirm a target dead. 4: rollbacks
/// 11 → 21, max MTTR 8 → 24. 2: same verdicts, half the margin of E1.
const DEAD_MISSES: u64 = 3;
/// Adverse share of the window (lost + degraded) that counts as gray when
/// sustained. Never reached (2.0): lossy and slow targets are never failed,
/// recompiles 537 → 391, max MTTR 8 → 24.
const GRAY_LOSS: f64 = 0.34;
/// Evidence window, in samples (at most 32: it is a `u32` of bits). 8:
/// same verdicts. 32: gray confirms late, max MTTR 8 → 24.
const WINDOW: u32 = 16;
/// Samples the gray condition must hold. 1: same verdicts, Σ MTTR → 188.
const CONFIRM_TICKS: u64 = 3;
/// Consecutive `Ok` samples before a faulted target may be restored. 32: a
/// slow flapper is held failed through its up-phases (flap 3×20: 6 → 2
/// recompiles). 8: same verdicts; E3 is what this bounds.
const RESTORE_CLEAN: u64 = 16;
/// Flap penalty at which a target is quarantined. Never (∞): flap 8×3
/// costs 2 recompiles and ends healthy.
const FLAP_LIMIT: f64 = 2.5;
/// Per-sample decay of the flap penalty. 0.90: nothing is ever
/// quarantined. 1.0: nothing ever leaves, restores 335 → 246.
const FLAP_DECAY: f64 = 0.97;
/// Penalty below which a quarantined target may be restored. ∞ (the clean
/// streak alone): flap 8×3 costs 2 recompiles and ends healthy.
const QUARANTINE_EXIT: f64 = 0.5;
/// Minimum ticks between remediation rounds. 1: rollbacks 11 → 18 (rounds
/// run into faults still being confirmed), Σ MTTR → 50. 8: Σ MTTR → 493.
const REMEDIATE_COOLDOWN: u64 = 4;
/// Cooldown multiplier after a failed round. 1: rollbacks 11 → 12; what it
/// spaces out is a round that keeps failing for a reason probing cannot see
/// (a fault set no flow path survives): both Aggs of the LB scope dead for
/// 240 ticks cost 6 failed recompiles, not 59
/// (`failing_remediation_backs_off_to_the_cooldown_ceiling`).
const BACKOFF_FACTOR: u64 = 2;
/// Cooldown ceiling. Never binds on the suite; it spaces the last rounds of
/// the backoff test 64 ticks apart, and it is E6's bound.
const MAX_COOLDOWN: u64 = 64;

/// Per-target detection record: everything [`step`] reads and writes.
#[derive(Debug, Clone, Copy)]
struct TargetHealth {
    state: HealthState,
    /// Evidence window, newest sample in bit 0; a set bit is an adverse
    /// (`Degraded` or `Lost`) sample.
    window: u32,
    /// Samples in the window (saturates at `WINDOW`).
    samples: u32,
    consecutive_ok: u64,
    consecutive_lost: u64,
    /// Ticks the gray condition has held.
    gray_ticks: u64,
    /// Exponentially-decaying flap penalty.
    flap_penalty: f64,
}

impl TargetHealth {
    const NEW: TargetHealth = TargetHealth {
        state: HealthState::Healthy,
        window: 0,
        samples: 0,
        consecutive_ok: 0,
        consecutive_lost: 0,
        gray_ticks: 0,
        flap_penalty: 0.0,
    };

    /// Adverse fraction of the evidence window.
    fn adverse(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.window.count_ones() as f64 / self.samples as f64
    }

    /// Clean long enough for the healer to restore it.
    fn restorable(&self) -> bool {
        self.state.is_faulted()
            && self.consecutive_ok >= RESTORE_CLEAN
            && (self.state != HealthState::Quarantined || self.flap_penalty < QUARANTINE_EXIT)
    }

    /// The healer restored this target: back to healthy, with the flap
    /// penalty intact — penalty memory across restores is what stops a
    /// slow flapper from cycling fail/restore forever.
    fn restored(mut self) -> TargetHealth {
        self.state = HealthState::Healthy;
        self.gray_ticks = 0;
        self
    }
}

/// What one [`step`] changed that anyone outside it needs to hear about.
#[derive(Debug, Clone, Copy)]
struct Transition {
    from: HealthState,
    to: HealthState,
    /// The sample was a down-edge on an already-faulted target (an
    /// up-then-down oscillation, not a fresh failure).
    flap_edge: bool,
}

/// The per-target state machine: fold one evidence sample into `h`. Pure —
/// no clock, no channel, no text; [`HealthMonitor`] renders diagnostics
/// from the returned transition.
fn step(mut h: TargetHealth, outcome: ProbeOutcome) -> (TargetHealth, Option<Transition>) {
    h.window =
        (h.window << 1 | (outcome != ProbeOutcome::Ok) as u32) & (u32::MAX >> (u32::BITS - WINDOW));
    h.samples = (h.samples + 1).min(WINDOW);
    let prev_ok_streak = h.consecutive_ok;
    match outcome {
        ProbeOutcome::Ok => {
            h.consecutive_ok += 1;
            h.consecutive_lost = 0;
        }
        ProbeOutcome::Degraded => {
            h.consecutive_ok = 0;
            h.consecutive_lost = 0;
        }
        ProbeOutcome::Lost => {
            h.consecutive_lost += 1;
            h.consecutive_ok = 0;
        }
    }
    if h.adverse() >= GRAY_LOSS && h.samples >= WINDOW / 2 {
        h.gray_ticks += 1;
    } else {
        h.gray_ticks = 0;
    }
    // Flap damping: decay every sample; charge every confirmation and every
    // down-edge seen while the target is already faulted.
    h.flap_penalty *= FLAP_DECAY;
    let from = h.state;
    let flap_edge = outcome == ProbeOutcome::Lost && prev_ok_streak >= 2 && from.is_faulted();
    if flap_edge {
        h.flap_penalty += 1.0;
    }
    let confirmed = if h.consecutive_lost >= DEAD_MISSES {
        Some(HealthState::Dead)
    } else if h.gray_ticks >= CONFIRM_TICKS {
        Some(HealthState::Gray)
    } else {
        None
    };
    if let (HealthState::Healthy, Some(state)) = (from, confirmed) {
        h.flap_penalty += 1.0;
        h.state = state;
    }
    // Quarantine promotion overrides everything.
    if h.flap_penalty >= FLAP_LIMIT {
        h.state = HealthState::Quarantined;
    }
    let changed = (h.state != from || flap_edge).then_some(Transition {
        from,
        to: h.state,
        flap_edge,
    });
    (h, changed)
}

/// Failure detector: probes every watched target once per [`tick`]
/// (virtual clock — no wall time in any decision), folds each outcome
/// through [`step`], and renders the confirmed transitions as diagnostics.
///
/// [`tick`]: HealthMonitor::tick
#[derive(Debug)]
struct HealthMonitor {
    now: u64,
    targets: BTreeMap<Target, TargetHealth>,
    probe_seq: u64,
    diagnostics: Vec<Diagnostic>,
    /// Targets whose flapping diagnostic was already emitted (once per
    /// target).
    flapping: BTreeSet<Target>,
}

impl HealthMonitor {
    /// A monitor watching nothing yet.
    fn new() -> Self {
        HealthMonitor {
            now: 0,
            targets: BTreeMap::new(),
            probe_seq: 0,
            diagnostics: Vec::new(),
            flapping: BTreeSet::new(),
        }
    }

    /// Watch every switch the placement uses and every link any flow path
    /// crosses. Idempotent and additive: targets already watched keep
    /// their history, so re-calling after a remediation rollout extends
    /// coverage to the new placement without resetting suspicion.
    fn watch_output(&mut self, output: &CompileOutput) {
        for sw in output.placement.switches.keys() {
            self.watch(Target::switch(sw.clone()));
        }
        for paths in output.flow_paths.values() {
            for path in paths {
                for hop in path.windows(2) {
                    self.watch(Target::link(hop[0].clone(), hop[1].clone()));
                }
            }
        }
    }

    /// Watch a single target (idempotent).
    fn watch(&mut self, target: Target) {
        self.targets.entry(target).or_insert(TargetHealth::NEW);
    }

    /// The current state of a target, if watched.
    #[cfg(test)]
    fn state(&self, target: &Target) -> Option<HealthState> {
        self.targets.get(target).map(|h| h.state)
    }

    /// A restore round for `target` committed.
    fn mark_restored(&mut self, target: &Target) {
        if let Some(h) = self.targets.get_mut(target) {
            *h = h.restored();
        }
    }

    /// Advance the virtual clock one tick: probe every watched target over
    /// `channel` and fold the outcomes through [`step`].
    fn tick(&mut self, channel: &mut dyn ControlChannel) {
        self.now += 1;
        let mut outcomes = Vec::with_capacity(self.targets.len());
        for target in self.targets.keys() {
            self.probe_seq += 1;
            let msg = ControlMsg {
                switch: target.wire(),
                epoch: 0,
                token: self.probe_seq,
                op: ControlOp::Query,
            };
            let outcome = match channel.transmit(&msg) {
                Delivery::Delivered | Delivery::Duplicated => ProbeOutcome::Ok,
                Delivery::AckLost => ProbeOutcome::Degraded,
                Delivery::Dropped => ProbeOutcome::Lost,
            };
            outcomes.push((target.clone(), outcome));
        }
        // Probes are read-only; late copies answer no one. Drain so a
        // shared channel's reorder queue does not grow without bound.
        let _ = channel.drain_late();
        for (target, outcome) in outcomes {
            self.fold(&target, outcome);
        }
    }

    /// Fold passive evidence from a rollout into the scores: a switch
    /// whose sends needed retries is gray evidence; a clean send is a
    /// free healthy sample. No probes are spent.
    fn observe_rollout(&mut self, report: &RolloutReport) {
        for sr in &report.switches {
            let outcome = if sr.retries > 0 {
                ProbeOutcome::Degraded
            } else {
                ProbeOutcome::Ok
            };
            self.fold(&Target::switch(sr.switch.clone()), outcome);
        }
    }

    /// Run one evidence sample for `target` through [`step`] and render
    /// what it changed: one diagnostic per confirmed state change, the
    /// flapping code once per target.
    fn fold(&mut self, target: &Target, outcome: ProbeOutcome) {
        let Some(h) = self.targets.get_mut(target) else {
            return;
        };
        let prev_ok_streak = h.consecutive_ok;
        let (next, transition) = step(*h, outcome);
        *h = next;
        let Some(tr) = transition else {
            return;
        };
        let now = self.now;
        let confirmed = match tr.to {
            // A flap edge alone: nothing was confirmed.
            _ if tr.to == tr.from => None,
            HealthState::Dead => Some((
                codes::HEALTH_DEAD,
                format!(
                    "{target} confirmed dead at tick {now}: {} consecutive missed probes",
                    next.consecutive_lost
                ),
            )),
            HealthState::Gray => Some((
                codes::HEALTH_GRAY,
                format!(
                    "{target} confirmed gray at tick {now}: {:.0}% of the last {} probes \
                     were adverse for {} ticks",
                    next.adverse() * 100.0,
                    next.samples,
                    next.gray_ticks
                ),
            )),
            HealthState::Quarantined => Some((
                codes::HEALTH_QUARANTINED,
                format!(
                    "{target} quarantined at tick {now}: flap penalty {:.2} ≥ \
                     {FLAP_LIMIT:.2}; restore is blocked until the penalty decays and a \
                     long clean streak accrues",
                    next.flap_penalty
                ),
            )),
            HealthState::Healthy => None,
        };
        if let Some((code, msg)) = confirmed {
            self.diagnostics.push(Diagnostic::warning(code, msg));
        }
        if tr.flap_edge && self.flapping.insert(target.clone()) {
            self.diagnostics.push(Diagnostic::warning(
                codes::HEALTH_FLAPPING,
                format!(
                    "{target} is flapping: went down again at tick {now} after answering \
                     {prev_ok_streak} probes; flap penalty {:.2}",
                    next.flap_penalty
                ),
            ));
        }
    }

    /// The monitor's final view, for [`SelfHealOutcome::health`].
    fn report(&self) -> HealthReport {
        HealthReport {
            targets: self
                .targets
                .iter()
                .map(|(t, h)| TargetStatus {
                    target: t.clone(),
                    state: h.state,
                    flap_penalty: h.flap_penalty,
                    consecutive_ok: h.consecutive_ok,
                    consecutive_lost: h.consecutive_lost,
                    window_adverse: h.adverse(),
                })
                .collect(),
            diagnostics: self.diagnostics.clone(),
        }
    }
}

/// One target's line in a [`HealthReport`].
#[derive(Debug, Clone)]
pub struct TargetStatus {
    /// The target.
    pub target: Target,
    /// Its current verdict.
    pub state: HealthState,
    /// Flap penalty.
    pub flap_penalty: f64,
    /// Current clean streak.
    pub consecutive_ok: u64,
    /// Current loss streak.
    pub consecutive_lost: u64,
    /// Adverse fraction of the evidence window.
    pub window_adverse: f64,
}

/// The monitor's summary: the per-target verdicts and what it diagnosed.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Per-target verdicts.
    pub targets: Vec<TargetStatus>,
    /// Everything the monitor diagnosed (LYR0580–LYR0583).
    pub diagnostics: Vec<Diagnostic>,
}

// ---------------------------------------------------------------------------
// Remediation: the self-healer policy engine
// ---------------------------------------------------------------------------

/// One remediation round the healer wants executed.
#[derive(Debug, Clone)]
struct RemediationPlan {
    /// Targets to add to the fault set.
    fail: Vec<Target>,
    /// Targets to remove from the fault set (restore).
    restore: Vec<Target>,
    /// The full desired fault set after this round.
    desired: BTreeSet<Target>,
    /// Earliest confirmation tick among the newly-failed targets (for
    /// MTTR: detect → healed).
    tick_detected: Option<u64>,
}

impl RemediationPlan {
    /// The desired set as a [`FaultSet`].
    fn fault_set(&self) -> FaultSet {
        let mut fs = FaultSet::new();
        for t in &self.desired {
            match t {
                Target::Switch(s) => fs.add_switch(s.clone()),
                Target::Link(a, b) => fs.add_link(a, b),
            }
        }
        fs
    }
}

/// What [`SelfHealer::plan`] decided this tick.
#[derive(Debug)]
enum PlanOutcome {
    /// Desired and active fault sets agree — nothing to do.
    Idle,
    /// Work is pending but the rate limiter is holding it back; `first`
    /// is true the first tick of each deferral window (for the LYR0586
    /// diagnostic — one per window, not one per tick).
    Deferred {
        /// First deferral since the last completed round.
        first: bool,
    },
    /// Execute this round now.
    Go(RemediationPlan),
}

/// Policy engine between detection and action: tracks the desired fault
/// set (what the monitor has confirmed) against the active one (what the
/// deployment was last recompiled for), rate-limits rounds, backs off on
/// failure, and coalesces confirmations that arrive while a round is
/// rate-limited into one recompile.
#[derive(Debug, Clone)]
struct SelfHealer {
    desired: BTreeSet<Target>,
    active: BTreeSet<Target>,
    confirmed_at: BTreeMap<Target, u64>,
    next_allowed: u64,
    cooldown: u64,
    deferral_logged: bool,
}

impl SelfHealer {
    /// A healer with nothing failed.
    fn new() -> Self {
        SelfHealer {
            desired: BTreeSet::new(),
            active: BTreeSet::new(),
            confirmed_at: BTreeMap::new(),
            next_allowed: 0,
            cooldown: REMEDIATE_COOLDOWN,
            deferral_logged: false,
        }
    }

    /// One tick's confirm/restore pass over the monitor's verdicts: the
    /// desired fault set is every faulted target the monitor does not hold
    /// restorable. State-driven, not edge-driven, so a restorable target
    /// that relapses before its restore round runs is wanted failed again,
    /// and one whose fail round never committed goes straight back to
    /// healthy — the deployment has nothing to undo for it.
    fn reconcile<'a>(
        &mut self,
        tick: u64,
        verdicts: impl IntoIterator<Item = (&'a Target, &'a mut TargetHealth)>,
    ) {
        for (target, h) in verdicts {
            if h.restorable() {
                self.desired.remove(target);
                if !self.active.contains(target) {
                    *h = h.restored();
                }
            } else if h.state.is_faulted() && !self.desired.contains(target) {
                self.confirm(target.clone(), tick);
            }
        }
    }

    /// The monitor confirmed `target` faulted at `tick`.
    fn confirm(&mut self, target: Target, tick: u64) {
        if self.desired.insert(target.clone()) {
            self.confirmed_at.insert(target, tick);
        }
    }

    /// True when the active deployment matches every confirmed suspicion.
    fn settled(&self) -> bool {
        self.desired == self.active
    }

    /// Decide whether to act this tick.
    fn plan(&mut self, tick: u64) -> PlanOutcome {
        if self.settled() {
            return PlanOutcome::Idle;
        }
        if tick < self.next_allowed {
            let first = !self.deferral_logged;
            self.deferral_logged = true;
            return PlanOutcome::Deferred { first };
        }
        let fail: Vec<Target> = self.desired.difference(&self.active).cloned().collect();
        let restore: Vec<Target> = self.active.difference(&self.desired).cloned().collect();
        let tick_detected = fail
            .iter()
            .filter_map(|t| self.confirmed_at.get(t).copied())
            .min();
        PlanOutcome::Go(RemediationPlan {
            fail,
            restore,
            desired: self.desired.clone(),
            tick_detected,
        })
    }

    /// Record the outcome of an executed round. Success snapshots the
    /// desired set as active and relaxes the cooldown; failure keeps the
    /// delta pending and backs the cooldown off (damped — the ceiling
    /// stops a persistently-failing remediation from spinning).
    fn complete(&mut self, tick: u64, plan: &RemediationPlan, success: bool) {
        if success {
            self.active = plan.desired.clone();
            self.cooldown = REMEDIATE_COOLDOWN;
        } else {
            self.cooldown = (self.cooldown * BACKOFF_FACTOR).min(MAX_COOLDOWN);
        }
        self.next_allowed = tick + self.cooldown;
        self.deferral_logged = false;
    }
}

// ---------------------------------------------------------------------------
// Chaos: seeded failure schedules on the virtual clock
// ---------------------------------------------------------------------------

/// One scheduled fault.
#[derive(Debug, Clone)]
pub enum ChaosEvent {
    /// The target stops answering at `at` (until a later `Restore`).
    Kill {
        /// Tick the target dies.
        at: u64,
        /// What dies.
        target: Target,
    },
    /// The target answers again from `at`.
    Restore {
        /// Tick the target revives.
        at: u64,
        /// What revives.
        target: Target,
    },
    /// The target oscillates: down for `period` ticks, up for `period`
    /// ticks, `count` times, starting at `at`.
    Flap {
        /// First down tick.
        at: u64,
        /// Half-cycle length in ticks.
        period: u64,
        /// Down/up cycles.
        count: u64,
        /// What flaps.
        target: Target,
    },
    /// The target answers slowly in `[at, until)`: delivered, ack lost.
    Slow {
        /// First slow tick.
        at: u64,
        /// First tick back to normal.
        until: u64,
        /// What slows.
        target: Target,
    },
    /// The target drops each message with probability `p` in `[at, until)`.
    Lossy {
        /// First lossy tick.
        at: u64,
        /// First tick back to normal.
        until: u64,
        /// Drop probability per transmission.
        p: f64,
        /// What drops.
        target: Target,
    },
}

impl ChaosEvent {
    fn target(&self) -> &Target {
        match self {
            ChaosEvent::Kill { target, .. }
            | ChaosEvent::Restore { target, .. }
            | ChaosEvent::Flap { target, .. }
            | ChaosEvent::Slow { target, .. }
            | ChaosEvent::Lossy { target, .. } => target,
        }
    }
}

/// A deterministic fault schedule on the virtual clock. The schedule is
/// ground truth: tests compare the monitor's verdicts against
/// [`ChaosSchedule::down_at`].
#[derive(Debug, Clone, Default)]
pub struct ChaosSchedule {
    /// The scheduled faults.
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        ChaosSchedule::default()
    }

    /// Kill `target` at `at`.
    pub fn kill(mut self, at: u64, target: Target) -> Self {
        self.events.push(ChaosEvent::Kill { at, target });
        self
    }

    /// Restore `target` at `at`.
    pub fn restore(mut self, at: u64, target: Target) -> Self {
        self.events.push(ChaosEvent::Restore { at, target });
        self
    }

    /// Flap `target`: `count` down/up cycles of `period` ticks each way,
    /// starting at `at`.
    pub fn flap(mut self, at: u64, target: Target, period: u64, count: u64) -> Self {
        self.events.push(ChaosEvent::Flap {
            at,
            period: period.max(1),
            count,
            target,
        });
        self
    }

    /// Slow `target` in `[at, until)`.
    pub fn slow(mut self, at: u64, until: u64, target: Target) -> Self {
        self.events.push(ChaosEvent::Slow { at, until, target });
        self
    }

    /// Make `target` lossy (drop probability `p`) in `[at, until)`.
    pub fn lossy(mut self, at: u64, until: u64, target: Target, p: f64) -> Self {
        self.events.push(ChaosEvent::Lossy {
            at,
            until,
            p,
            target,
        });
        self
    }

    /// Ground truth: is `target` itself down at `tick`? (Does not chase
    /// link endpoints — `ChaosChannel` layers that on.)
    pub fn down_at(&self, target: &Target, tick: u64) -> bool {
        let mut down = false;
        let mut last_edge = 0u64;
        for ev in &self.events {
            if ev.target() != target {
                continue;
            }
            match ev {
                ChaosEvent::Kill { at, .. } if *at <= tick && *at >= last_edge => {
                    down = true;
                    last_edge = *at;
                }
                ChaosEvent::Restore { at, .. } if *at <= tick && *at >= last_edge => {
                    down = false;
                    last_edge = *at;
                }
                _ => {}
            }
        }
        if down {
            return true;
        }
        self.events.iter().any(|ev| match ev {
            ChaosEvent::Flap {
                at,
                period,
                count,
                target: t,
            } if t == target => {
                if tick < *at || tick >= at + 2 * period * count {
                    false
                } else {
                    ((tick - at) / period).is_multiple_of(2)
                }
            }
            _ => false,
        })
    }

    /// Is `target` in a slow window at `tick`?
    pub fn slow_at(&self, target: &Target, tick: u64) -> bool {
        self.events.iter().any(|ev| match ev {
            ChaosEvent::Slow {
                at,
                until,
                target: t,
            } => t == target && *at <= tick && tick < *until,
            _ => false,
        })
    }

    /// The drop probability `target` suffers at `tick` (0 when outside
    /// every lossy window; overlapping windows take the max).
    pub fn lossy_p_at(&self, target: &Target, tick: u64) -> f64 {
        self.events
            .iter()
            .filter_map(|ev| match ev {
                ChaosEvent::Lossy {
                    at,
                    until,
                    p,
                    target: t,
                } if t == target && *at <= tick && tick < *until => Some(*p),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

/// A [`ControlChannel`] ruled by a [`ChaosSchedule`] on the virtual clock.
/// Rollout messages (addressed to real switches) and health probes
/// (addressed to wire names, including `a~b` link probes) flow through the
/// same fates: a dead switch drops everything, a dead link drops its own
/// probes, a slow target loses acknowledgements, a lossy one drops
/// stochastically (seeded — the same seed replays the identical run).
#[derive(Debug)]
struct ChaosChannel {
    schedule: ChaosSchedule,
    rng: Rng,
    tick: u64,
}

impl ChaosChannel {
    /// A channel ruled by `schedule`, with seeded loss.
    fn new(schedule: ChaosSchedule, seed: u64) -> Self {
        ChaosChannel {
            schedule,
            rng: Rng::new(seed),
            tick: 0,
        }
    }

    /// Advance the virtual clock (the monitor calls this once per tick).
    fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// Effective down: the target itself, or — for a link — either
    /// endpoint.
    fn down(&self, target: &Target) -> bool {
        if self.schedule.down_at(target, self.tick) {
            return true;
        }
        if let Target::Link(a, b) = target {
            return self.schedule.down_at(&Target::switch(a.clone()), self.tick)
                || self.schedule.down_at(&Target::switch(b.clone()), self.tick);
        }
        false
    }
}

impl ControlChannel for ChaosChannel {
    fn transmit(&mut self, msg: &ControlMsg) -> Delivery {
        let target = Target::from_wire(&msg.switch);
        if self.down(&target) {
            return Delivery::Dropped;
        }
        let p = self.schedule.lossy_p_at(&target, self.tick);
        if p > 0.0 && self.rng.next_f64() < p {
            return Delivery::Dropped;
        }
        if self.schedule.slow_at(&target, self.tick) {
            return Delivery::AckLost;
        }
        Delivery::Delivered
    }
}

// ---------------------------------------------------------------------------
// The closed loop: run_selfheal
// ---------------------------------------------------------------------------

/// Tuning for one [`run_selfheal`] run.
#[derive(Debug, Clone)]
pub struct SelfHealConfig {
    /// Seed behind chaos loss draws, rollout channels and replay traffic.
    pub seed: u64,
    /// Rollout tuning for remediation rounds.
    pub rollout: RolloutConfig,
    /// Virtual ticks to run.
    pub ticks: u64,
    /// Packets to push through each remediation rollout and the final
    /// serving check. `0` = control plane only (no traffic threads).
    pub traffic_packets: u64,
    /// Replay worker threads (when `traffic_packets > 0`).
    pub workers: usize,
}

impl Default for SelfHealConfig {
    fn default() -> Self {
        SelfHealConfig {
            seed: 0x11ea_17bb,
            rollout: RolloutConfig::default(),
            ticks: 64,
            traffic_packets: 0,
            workers: 2,
        }
    }
}

/// One executed remediation round.
#[derive(Debug, Clone, Default)]
pub struct RemediationReport {
    /// Round number (1-based).
    pub round: u64,
    /// Earliest confirmation tick among this round's newly-failed targets.
    pub tick_detected: Option<u64>,
    /// Tick the round started executing.
    pub tick_started: u64,
    /// Tick the remediation rollout committed (None if it failed).
    pub tick_healed: Option<u64>,
    /// Wire names failed this round.
    pub failed: Vec<String>,
    /// Wire names restored this round.
    pub restored: Vec<String>,
    /// Whether the remediation rollout committed.
    pub committed: bool,
    /// Whether it rolled back.
    pub rolled_back: bool,
    /// Post-remediation anti-entropy audit verdict.
    pub audit_clean: bool,
    /// Mixed-epoch packets observed while traffic ran under the rollout.
    pub mixed_epoch_exposure: u64,
    /// Wall time of the round (measured, never consulted).
    pub elapsed: Duration,
}

impl RemediationReport {
    /// Detect → healed, in virtual ticks (None if the round failed or
    /// was a pure restore).
    pub fn mttr_ticks(&self) -> Option<u64> {
        match (self.tick_detected, self.tick_healed) {
            (Some(d), Some(h)) if h >= d => Some(h - d),
            _ => None,
        }
    }
}

/// What a full closed-loop run observed.
#[derive(Debug, Clone, Default)]
pub struct SelfHealOutcome {
    /// The monitor's final view.
    pub health: HealthReport,
    /// Every executed remediation round, in order.
    pub remediations: Vec<RemediationReport>,
    /// Fault-set recompiles performed.
    pub recompiles: u64,
    /// Remediation rollouts that committed.
    pub rollouts_committed: u64,
    /// Remediation rollouts that rolled back or failed.
    pub rollouts_rolled_back: u64,
    /// Targets restored to service.
    pub restores: u64,
    /// Mixed-epoch packets across every replay (must be zero).
    pub mixed_epoch_exposure: u64,
    /// Replay workers that panicked (must be zero).
    pub worker_panics: u64,
    /// Packets delivered across every replay.
    pub traffic_delivered: u64,
    /// Final verdict: every confirmed suspicion remediated, epochs
    /// coherent on the surviving deployment.
    pub converged: bool,
    /// Final anti-entropy audit verdict.
    pub final_audit_clean: bool,
    /// Healer/loop diagnostics (LYR0584–LYR0587).
    pub diagnostics: Vec<Diagnostic>,
}

impl SelfHealOutcome {
    /// Add one replay's packet counters to the run's totals.
    fn count_traffic(&mut self, replay: &ReplayReport) {
        self.traffic_delivered += replay.delivered;
        self.mixed_epoch_exposure += replay.mixed_epoch_exposure;
        self.worker_panics += replay.worker_panics;
    }
}

/// Run the full closed loop: compile `req`, install `entries`, then tick
/// the monitor against `schedule` for `cfg.ticks` virtual ticks, executing
/// every remediation round the healer confirms — fault-set recompile,
/// two-phase rollout (under live traffic when `cfg.traffic_packets > 0`),
/// logical-entry re-install, anti-entropy audit, and restore-on-recovery.
/// One [`Runtime`] serves the whole run.
///
/// Deterministic for a fixed `cfg.seed`; `Err` is reserved for the
/// initial compile failing — everything after that is reported in the
/// outcome, not thrown.
pub fn run_selfheal(
    compiler: &Compiler,
    req: &CompileRequest<'_>,
    entries: &[(String, u64, u64)],
    schedule: &ChaosSchedule,
    cfg: &SelfHealConfig,
) -> Result<SelfHealOutcome, CompileError> {
    let baseline = compiler.compile(req)?;
    // The runtime borrows every output it is rolled onto, so each round's
    // recompile lands in a slot declared before it: one per tick, since a
    // round starts at most once per tick.
    let recompiles: Vec<OnceCell<FaultRecompile>> =
        (0..cfg.ticks).map(|_| OnceCell::new()).collect();
    let mut monitor = HealthMonitor::new();
    monitor.watch_output(&baseline);
    let mut healer = SelfHealer::new();
    let mut chaos = ChaosChannel::new(schedule.clone(), cfg.seed ^ 0xc4a0_55ed);
    let replay_cfg = |salt: u64| {
        ReplayConfig::default()
            .with_packets(cfg.traffic_packets)
            .with_workers(cfg.workers)
            .with_seed(cfg.seed ^ salt)
    };
    let mut out = SelfHealOutcome::default();
    // What switches declared dead held, until a remediation re-homes it.
    let mut lost: Vec<(String, DataPlaneState)> = Vec::new();

    let mut rt = Runtime::new(&baseline);
    for (table, key, value) in entries {
        if let Err(e) = rt.install(table, *key, *value) {
            out.diagnostics.push(Diagnostic::warning(
                codes::HEAL_FAILED,
                format!("seed install of `{table}`[{key}] failed: {e}"),
            ));
        }
    }

    for (tick, slot) in (1..=cfg.ticks).zip(&recompiles) {
        chaos.set_tick(tick);
        monitor.tick(&mut chaos);
        healer.reconcile(tick, &mut monitor.targets);
        let plan = match healer.plan(tick) {
            PlanOutcome::Idle => continue,
            PlanOutcome::Deferred { first } => {
                if first {
                    out.diagnostics.push(Diagnostic::warning(
                        codes::HEAL_RATE_LIMITED,
                        format!(
                            "remediation deferred at tick {tick}: cooldown in effect; \
                             confirmed suspicions coalesce into the next round"
                        ),
                    ));
                }
                continue;
            }
            PlanOutcome::Go(plan) => plan,
        };

        let round = out.remediations.len() as u64 + 1;
        let round_t0 = Instant::now();
        let mut report = RemediationReport {
            round,
            tick_detected: plan.tick_detected,
            tick_started: tick,
            failed: plan.fail.iter().map(Target::wire).collect(),
            restored: plan.restore.iter().map(Target::wire).collect(),
            ..RemediationReport::default()
        };
        let faults = plan.fault_set();
        let rec = match compiler.recompile_for_faults(req, rt.output(), &faults) {
            Ok(rec) => slot.get_or_init(|| rec),
            Err(e) => {
                // Nothing changed: the healer backs off and retries.
                healer.complete(tick, &plan, false);
                out.diagnostics.push(Diagnostic::error(
                    codes::HEAL_FAILED,
                    format!("round {round}: recompile under fault set failed: {e}"),
                ));
                report.elapsed = round_t0.elapsed();
                out.remediations.push(report);
                continue;
            }
        };
        out.recompiles += 1;

        // The controller knows these switches are dead: their shards
        // survive only as entries for the remediation rollout to re-home
        // inside its transaction, and are kept until one commits. An entry
        // the survivors cannot hold refuses the rollout (`LYR0560`) rather
        // than vanishing.
        for (sw, dp) in rt.declare_faults(faults) {
            if !lost.iter().any(|(held, _)| *held == sw) {
                lost.push((sw, dp));
            }
        }

        let rollout_cfg = cfg
            .rollout
            .clone()
            .with_scope_health(rec.scope_health.clone())
            .with_seed(cfg.seed ^ (round << 8));
        let rollout_res = if cfg.traffic_packets > 0 {
            replay_under(&mut rt, &rec.output, &replay_cfg(round), |rt| {
                rt.stage(&rec.output, &lost, true, &mut chaos, &rollout_cfg, None)
            })
            .map(|outcome| {
                report.mixed_epoch_exposure = outcome.replay.mixed_epoch_exposure;
                out.count_traffic(&outcome.replay);
                outcome.rollout
            })
        } else {
            rt.stage(&rec.output, &lost, true, &mut chaos, &rollout_cfg, None)
        };

        match rollout_res {
            Ok(rollout) if rollout.committed => {
                lost.clear();
                monitor.observe_rollout(&rollout);
                report.audit_clean = rt.audit_switches().clean();
                report.committed = true;
                report.tick_healed = Some(tick);
                for t in &plan.restore {
                    monitor.mark_restored(t);
                    out.diagnostics.push(Diagnostic::warning(
                        codes::HEAL_RESTORED,
                        format!(
                            "{t} restored to service at tick {tick} after a clean \
                             probation window"
                        ),
                    ));
                }
                out.restores += plan.restore.len() as u64;
                healer.complete(tick, &plan, true);
                monitor.watch_output(&rec.output);
                out.rollouts_committed += 1;
                out.diagnostics.push(Diagnostic::warning(
                    codes::HEAL_REMEDIATED,
                    format!(
                        "round {round}: remediation committed at tick {tick} (failed [{}], \
                         restored [{}], epoch {})",
                        report.failed.join(", "),
                        report.restored.join(", "),
                        rollout.epoch
                    ),
                ));
            }
            Ok(rollout) => {
                monitor.observe_rollout(&rollout);
                report.rolled_back = rollout.rolled_back;
                healer.complete(tick, &plan, false);
                out.rollouts_rolled_back += 1;
                out.diagnostics.push(Diagnostic::warning(
                    codes::HEAL_FAILED,
                    format!(
                        "round {round}: remediation rollout did not commit at tick {tick}; \
                         backing off and coalescing"
                    ),
                ));
            }
            Err(e) => {
                healer.complete(tick, &plan, false);
                out.rollouts_rolled_back += 1;
                out.diagnostics.push(Diagnostic::error(
                    codes::HEAL_FAILED,
                    format!("round {round}: remediation rollout failed: {e}"),
                ));
            }
        }
        report.elapsed = round_t0.elapsed();
        out.remediations.push(report);
    }

    // Budget exhausted: final serving check on the newest committed output.
    if cfg.traffic_packets > 0 {
        out.count_traffic(&replay_compiled(&rt, &replay_cfg(0xf17a)));
    }
    out.final_audit_clean = rt.audit_switches().clean();
    out.converged = healer.settled() && rt.epochs_coherent();
    out.health = monitor.report();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompileRequest;
    use lyra_topo::figure1_network;

    const LB: &str = r#"
        pipeline[LB]{loadbalancer};
        algorithm loadbalancer {
            extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
            bit[32] hash;
            hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
            if (hash in conn_table) {
                ipv4.dstAddr = conn_table[hash];
            }
        }
    "#;
    const LB_SCOPES: &str =
        "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";

    fn lb_request() -> CompileRequest<'static> {
        CompileRequest::new(LB, LB_SCOPES, figure1_network())
    }

    fn run_monitor(schedule: ChaosSchedule, target: Target, ticks: u64) -> HealthMonitor {
        let mut monitor = HealthMonitor::new();
        monitor.watch(target);
        let mut chaos = ChaosChannel::new(schedule, 7);
        for t in 1..=ticks {
            chaos.set_tick(t);
            monitor.tick(&mut chaos);
        }
        monitor
    }

    #[test]
    fn target_wire_round_trips_and_links_are_canonical() {
        assert_eq!(Target::link("B", "A"), Target::link("A", "B"));
        let link = Target::link("ToR3", "Agg3");
        assert_eq!(link.wire(), "Agg3~ToR3");
        assert_eq!(Target::from_wire("Agg3~ToR3"), link);
        assert_eq!(Target::from_wire("Agg3"), Target::switch("Agg3"));
    }

    #[test]
    fn clean_history_confirms_dead_after_three_misses() {
        let t = Target::switch("Agg3");
        let schedule = ChaosSchedule::new().kill(5, t.clone());
        let monitor = run_monitor(schedule.clone(), t.clone(), 7);
        assert_eq!(monitor.state(&t), Some(HealthState::Dead));
        // …but not before the third miss (hysteresis).
        let early = run_monitor(schedule, t.clone(), 6);
        assert_ne!(early.state(&t), Some(HealthState::Dead));
        let report = monitor.report();
        assert!(report
            .diagnostics
            .iter()
            .any(|d| format!("{d}").contains("LYR0580")));
    }

    #[test]
    fn slow_target_confirms_gray_not_dead() {
        let t = Target::switch("Agg4");
        let schedule = ChaosSchedule::new().slow(1, 100, t.clone());
        let monitor = run_monitor(schedule, t.clone(), 20);
        assert_eq!(
            monitor.state(&t),
            Some(HealthState::Gray),
            "a slow-but-answering target is gray, never dead"
        );
        let report = monitor.report();
        assert!(report
            .diagnostics
            .iter()
            .any(|d| format!("{d}").contains("LYR0581")));
    }

    #[test]
    fn lossy_target_becomes_faulted_deterministically() {
        let t = Target::switch("ToR3");
        let schedule = ChaosSchedule::new().lossy(1, 100, t.clone(), 0.5);
        let monitor = run_monitor(schedule, t.clone(), 40);
        let state = monitor.state(&t).unwrap();
        assert!(
            state.is_faulted(),
            "a 50%-lossy target must be confirmed faulted, got {}",
            state.name()
        );
    }

    #[test]
    fn flapping_target_is_quarantined() {
        let t = Target::link("Agg3", "ToR3");
        // Down 4 / up 4, eight times: the up phase is shorter than the
        // probation window, so the target can never be restored — and the
        // repeated down-edges drive the flap penalty over the limit.
        let schedule = ChaosSchedule::new().flap(3, t.clone(), 4, 8);
        let monitor = run_monitor(schedule, t.clone(), 70);
        assert_eq!(monitor.state(&t), Some(HealthState::Quarantined));
        let report = monitor.report();
        assert!(report
            .diagnostics
            .iter()
            .any(|d| format!("{d}").contains("LYR0582")));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| format!("{d}").contains("LYR0583")));
    }

    #[test]
    fn dead_target_recovers_through_probation() {
        let t = Target::switch("Agg3");
        let schedule = ChaosSchedule::new()
            .kill(5, t.clone())
            .restore(12, t.clone());
        let mut monitor = HealthMonitor::new();
        monitor.watch(t.clone());
        let mut chaos = ChaosChannel::new(schedule, 7);
        let mut restorable_at = None;
        for tick in 1..=40 {
            chaos.set_tick(tick);
            monitor.tick(&mut chaos);
            if restorable_at.is_none() && monitor.targets[&t].restorable() {
                restorable_at = Some(tick);
            }
        }
        let when = restorable_at.expect("target never became restorable");
        // Dead at 7; clean from 12; restorable at the RESTORE_CLEAN-th
        // clean probe since revival — never before the full window.
        assert_eq!(when, 12 + RESTORE_CLEAN - 1, "restorable at tick {when}");
        monitor.mark_restored(&t);
        assert_eq!(monitor.state(&t), Some(HealthState::Healthy));
    }

    #[test]
    fn healer_rate_limits_and_coalesces() {
        let mut healer = SelfHealer::new();
        assert!(matches!(healer.plan(1), PlanOutcome::Idle));
        healer.confirm(Target::switch("A"), 1);
        let plan = match healer.plan(1) {
            PlanOutcome::Go(p) => p,
            other => panic!("expected Go, got {other:?}"),
        };
        assert_eq!(plan.fail, vec![Target::switch("A")]);
        // The round fails: cooldown doubles (4 → 8).
        healer.complete(1, &plan, false);
        assert!(matches!(
            healer.plan(2),
            PlanOutcome::Deferred { first: true }
        ));
        // A second confirmation arrives while rate-limited…
        healer.confirm(Target::switch("B"), 3);
        assert!(matches!(
            healer.plan(4),
            PlanOutcome::Deferred { first: false }
        ));
        // …and coalesces into the next allowed round.
        let plan = match healer.plan(9) {
            PlanOutcome::Go(p) => p,
            other => panic!("expected Go after cooldown, got {other:?}"),
        };
        assert_eq!(plan.fail.len(), 2, "both confirmations in one round");
        assert_eq!(plan.tick_detected, Some(1), "earliest confirmation wins");
        healer.complete(9, &plan, true);
        assert!(healer.settled());
        assert!(matches!(healer.plan(10), PlanOutcome::Idle));
    }

    /// The cooldown schedule in ticks: 4 after a success, doubled by each
    /// failure, and never past 64.
    #[test]
    fn healer_cooldown_is_four_ticks_doubling_to_sixty_four() {
        let mut healer = SelfHealer::new();
        let go = |healer: &mut SelfHealer, tick: u64, confirm: &str| {
            healer.confirm(Target::switch(confirm), tick);
            match healer.plan(tick) {
                PlanOutcome::Go(p) => p,
                other => panic!("expected Go at tick {tick}, got {other:?}"),
            }
        };
        let plan = go(&mut healer, 10, "A");
        healer.complete(10, &plan, true);
        // Pending work waits out the cooldown after a success.
        healer.confirm(Target::switch("B"), 10);
        assert!(matches!(healer.plan(13), PlanOutcome::Deferred { .. }));
        let mut tick = 14;
        for cooldown in [8, 16, 32, 64, 64, 64] {
            let plan = go(&mut healer, tick, "B");
            healer.complete(tick, &plan, false);
            let deferred = healer.plan(tick + cooldown - 1);
            assert!(
                matches!(deferred, PlanOutcome::Deferred { .. }),
                "a cooldown of {cooldown} from tick {tick}: {deferred:?}"
            );
            tick += cooldown;
        }
        assert!(matches!(healer.plan(tick), PlanOutcome::Go(_)));
    }

    #[test]
    fn chaos_schedule_is_ground_truth() {
        let s = Target::switch("S");
        let sched = ChaosSchedule::new()
            .kill(10, s.clone())
            .restore(20, s.clone())
            .flap(30, s.clone(), 2, 2)
            .slow(50, 55, s.clone())
            .lossy(60, 65, s.clone(), 0.5);
        assert!(!sched.down_at(&s, 9));
        assert!(sched.down_at(&s, 10));
        assert!(sched.down_at(&s, 19));
        assert!(!sched.down_at(&s, 20));
        // Flap: down [30,32), up [32,34), down [34,36), up from 38.
        assert!(sched.down_at(&s, 30));
        assert!(!sched.down_at(&s, 32));
        assert!(sched.down_at(&s, 34));
        assert!(!sched.down_at(&s, 38));
        assert!(sched.slow_at(&s, 50) && !sched.slow_at(&s, 55));
        assert_eq!(sched.lossy_p_at(&s, 60), 0.5);
        assert_eq!(sched.lossy_p_at(&s, 65), 0.0);
    }

    #[test]
    fn chaos_channel_downs_links_when_an_endpoint_dies() {
        let sched = ChaosSchedule::new().kill(1, Target::switch("Agg3"));
        let mut ch = ChaosChannel::new(sched, 3);
        ch.set_tick(2);
        let probe = |ch: &mut ChaosChannel, wire: &str| {
            ch.transmit(&ControlMsg {
                switch: wire.into(),
                epoch: 0,
                token: 1,
                op: ControlOp::Query,
            })
        };
        assert_eq!(probe(&mut ch, "Agg3"), Delivery::Dropped);
        assert_eq!(probe(&mut ch, "Agg3~ToR3"), Delivery::Dropped);
        assert_eq!(probe(&mut ch, "Agg4~ToR3"), Delivery::Delivered);
    }

    /// A remediation re-homes what a dead switch held inside its own
    /// transaction. When the survivors cannot hold it — here Agg4's replica
    /// drifted to a full shard without a key Agg3 held — the rollout is
    /// refused and nothing changes: the entry cannot be installed after a
    /// commit either, so a commit without it would drop it.
    #[test]
    fn a_dead_shard_the_survivors_cannot_absorb_refuses_the_remediation() {
        let compiler = Compiler::new();
        let req = lb_request();
        let out = compiler.compile(&req).unwrap();
        let mut rt = Runtime::new(&out);
        let entries: Vec<(u64, u64)> = (0..1024).map(|k| (k, k + 1)).collect();
        rt.install_many("conn_table", &entries).unwrap();
        let table = || "conn_table".to_string();
        rt.inject_drift(
            "Agg4",
            &crate::DriftOp::Remove {
                table: table(),
                key: 7,
            },
        )
        .unwrap();
        let extra = crate::DriftOp::Insert {
            table: table(),
            key: 5000,
            value: 1,
        };
        rt.inject_drift("Agg4", &extra).unwrap();
        let mut faults = FaultSet::new();
        faults.add_switch("Agg3");
        let rec = compiler.recompile_for_faults(&req, &out, &faults).unwrap();
        let (epoch, agg4) = (rt.epoch(), rt.shard("Agg4", "conn_table").cloned());

        let lost = rt.declare_faults(faults);
        assert_eq!(lost.len(), 1, "Agg3's state outlives it as entries");
        // The entry the survivors cannot hold.
        assert!(rt.install("conn_table", 7, 8).is_err());
        let config = RolloutConfig::default().with_scope_health(rec.scope_health.clone());
        let mut channel = crate::ReliableChannel::new();
        let err = rt
            .stage(&rec.output, &lost, true, &mut channel, &config, None)
            .unwrap_err();
        assert_eq!(err.code, Some(codes::ROLLOUT_PREPARE_FAILED), "{err}");
        assert!(rt.epochs_coherent() && rt.epoch() == epoch);
        assert_eq!(rt.shard("Agg4", "conn_table").cloned(), agg4);
    }

    #[test]
    fn selfheal_detects_kills_and_remediates_once() {
        let compiler = Compiler::new();
        let req = lb_request();
        let entries: Vec<(String, u64, u64)> = (0..32)
            .map(|i| ("conn_table".to_string(), i, 100 + i))
            .collect();
        let schedule = ChaosSchedule::new().kill(5, Target::switch("Agg3"));
        let cfg = SelfHealConfig {
            ticks: 40,
            ..SelfHealConfig::default()
        };
        let outcome = run_selfheal(&compiler, &req, &entries, &schedule, &cfg).unwrap();
        assert!(outcome.converged, "loop did not converge: {outcome:?}");
        assert_eq!(
            outcome.recompiles, 1,
            "one confirmed kill must cost exactly one recompile"
        );
        assert_eq!(outcome.rollouts_committed, 1);
        assert!(outcome.final_audit_clean);
        let round = &outcome.remediations[0];
        assert!(round.committed);
        assert!(round.failed.contains(&"Agg3".to_string()));
        assert!(round.mttr_ticks().is_some());
        assert!(outcome
            .diagnostics
            .iter()
            .any(|d| format!("{d}").contains("LYR0584")));
        // The monitor's final view has the switch dead, and the healer's
        // fault set matches it.
        assert_eq!(
            outcome
                .health
                .targets
                .iter()
                .find(|t| t.target == Target::switch("Agg3"))
                .unwrap()
                .state,
            HealthState::Dead
        );
    }

    #[test]
    fn selfheal_restores_after_a_clean_probation() {
        let compiler = Compiler::new();
        let req = lb_request();
        let entries: Vec<(String, u64, u64)> = (0..16)
            .map(|i| ("conn_table".to_string(), i, 200 + i))
            .collect();
        let schedule = ChaosSchedule::new()
            .kill(5, Target::switch("Agg3"))
            .restore(12, Target::switch("Agg3"));
        let cfg = SelfHealConfig {
            ticks: 60,
            ..SelfHealConfig::default()
        };
        let outcome = run_selfheal(&compiler, &req, &entries, &schedule, &cfg).unwrap();
        assert!(outcome.converged, "loop did not converge");
        assert!(
            outcome.restores >= 1,
            "the revived switch was never restored"
        );
        assert!(outcome
            .diagnostics
            .iter()
            .any(|d| format!("{d}").contains("LYR0585")));
        // After restore, the switch is healthy again in the final view.
        assert_eq!(
            outcome
                .health
                .targets
                .iter()
                .find(|t| t.target == Target::switch("Agg3"))
                .unwrap()
                .state,
            HealthState::Healthy
        );
        // MTTR is reported for the kill round.
        assert!(outcome.remediations[0].mttr_ticks().is_some());
    }

    #[test]
    fn selfheal_is_deterministic_for_a_seed() {
        let compiler = Compiler::new();
        let req = lb_request();
        let entries = vec![("conn_table".to_string(), 1, 2)];
        let schedule = ChaosSchedule::new().kill(4, Target::switch("Agg3")).lossy(
            10,
            25,
            Target::switch("ToR3"),
            0.6,
        );
        let cfg = SelfHealConfig {
            ticks: 48,
            ..SelfHealConfig::default()
        };
        let fingerprint = |o: &SelfHealOutcome| {
            (
                o.recompiles,
                o.rollouts_committed,
                o.rollouts_rolled_back,
                o.restores,
                o.remediations
                    .iter()
                    .map(|r| (r.round, r.tick_started, r.tick_healed, r.committed))
                    .collect::<Vec<_>>(),
                o.health
                    .targets
                    .iter()
                    .map(|t| (t.target.wire(), t.state.name()))
                    .collect::<Vec<_>>(),
            )
        };
        let a = run_selfheal(&compiler, &req, &entries, &schedule, &cfg).unwrap();
        let b = run_selfheal(&compiler, &req, &entries, &schedule, &cfg).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn selfheal_serves_traffic_with_zero_mixed_epoch_exposure() {
        let compiler = Compiler::new();
        let req = lb_request();
        let entries: Vec<(String, u64, u64)> = (0..8)
            .map(|i| ("conn_table".to_string(), i, 300 + i))
            .collect();
        let schedule = ChaosSchedule::new().kill(5, Target::switch("Agg4"));
        let cfg = SelfHealConfig {
            ticks: 32,
            traffic_packets: 4_000,
            workers: 2,
            ..SelfHealConfig::default()
        };
        let outcome = run_selfheal(&compiler, &req, &entries, &schedule, &cfg).unwrap();
        assert!(outcome.converged);
        assert_eq!(
            outcome.mixed_epoch_exposure, 0,
            "mixed-epoch packets observed"
        );
        assert_eq!(outcome.worker_panics, 0);
        assert!(
            outcome.traffic_delivered > 0,
            "the healed plane served nothing"
        );
    }
}

/// Small-scope enumeration of the detector, in the style of
/// `tests/protocol_exhaustive.rs`: where the chaos suite *samples* 200
/// schedules, this walks **every** probe-outcome sequence inside a stated
/// scope through the real [`step`], [`SelfHealer::reconcile`],
/// [`SelfHealer::plan`] and [`SelfHealer::complete`], and checks properties
/// E1–E6 of docs/ROBUSTNESS.md §9 at every state it reaches. It lives here,
/// not under `tests/`, so `step` stays private.
///
/// Four walks. One target over every `{Ok, Degraded, Lost}` sequence of
/// length [`DEPTH`]. One target over run-structured sequences of up to
/// [`ELEMENTS`] elements — a run of one outcome whose length is a threshold
/// or one of its two neighbours, or a flap burst — which reach restore,
/// quarantine and life after both; walked once with every round committing
/// and once with every round failing its first attempt, so restores wait
/// out a backoff and relapse. Two targets behind one healer over
/// [`JOINT_RUNS`] joint runs, with every round both failed and committed:
/// deferral, coalescing, backoff. And the healer alone, kept unsettled,
/// over every outcome of its first [`ROUNDS`] rounds. Debug builds (tier-1) walk the
/// small scope; release builds (CI's `selfheal-chaos` job) more than ten
/// times as many sequences.
#[cfg(test)]
mod exhaustive {
    use super::*;
    use ProbeOutcome::{Degraded, Lost};

    const CLEAN: ProbeOutcome = ProbeOutcome::Ok;
    const OUTCOMES: [ProbeOutcome; 3] = [CLEAN, Degraded, Lost];
    const RELEASE: bool = !cfg!(debug_assertions);

    const DEPTH: usize = if RELEASE { 13 } else { 10 };
    const ELEMENTS: usize = if RELEASE { 4 } else { 3 };
    const JOINT_RUNS: usize = if RELEASE { 4 } else { 3 };
    const ROUNDS: u32 = if RELEASE { 16 } else { 12 };
    /// Sequences the four walks must add up to (the test prints the count).
    const FLOOR: u64 = if RELEASE { 10_000_000 } else { 250_000 };

    /// E4's stated bound: clean ticks after which any quarantined target is
    /// restorable. One flap charge needs two answered probes and a miss, so
    /// the penalty never exceeds 1 / (1 − FLAP_DECAY³) ≈ 11.5, and
    /// 11.5 · FLAP_DECAY^103 < QUARANTINE_EXIT.
    const QUARANTINE_EXIT_TICKS: u64 = 103;

    /// One element of a run-structured sequence.
    #[derive(Clone, Copy)]
    enum Element {
        /// That many samples of one outcome.
        Run(ProbeOutcome, u64),
        /// Clean samples up to the one that makes the target restorable,
        /// plus this many. That threshold is wherever the flap penalty puts
        /// it, so the run is sized from the state, not from a constant.
        CleanToRestore(i64),
        /// `cycles` × (`down` missed, `up` clean).
        Flap { down: u64, up: u64, cycles: u64 },
    }

    /// Runs of every outcome at every threshold a streak is compared
    /// against and its two neighbours, and at a single sample; and flap
    /// bursts — down for one sample (a flap charge, never a death) or
    /// `DEAD_MISSES`, up for the two samples a charge needs or one short of
    /// a restore, for 2, 3 or 8 cycles (the flap acceptance test's count).
    fn elements() -> Vec<Element> {
        let thresholds = [
            DEAD_MISSES,
            CONFIRM_TICKS,
            u64::from(WINDOW / 2),
            u64::from(WINDOW),
            RESTORE_CLEAN,
            REMEDIATE_COOLDOWN,
        ];
        let mut lengths: BTreeSet<u64> =
            thresholds.iter().flat_map(|t| [t - 1, *t, t + 1]).collect();
        lengths.insert(1);
        let mut elements = Vec::new();
        for o in OUTCOMES {
            elements.extend(lengths.iter().map(|len| Element::Run(o, *len)));
        }
        elements.extend([-1, 0, 1].map(Element::CleanToRestore));
        for down in [1, DEAD_MISSES] {
            for up in [2, RESTORE_CLEAN - 1] {
                for cycles in [2, 3, 8] {
                    elements.push(Element::Flap { down, up, cycles });
                }
            }
        }
        elements
    }

    /// Clean samples `h` needs before it is restorable (E4: finitely many).
    fn clean_ticks_to_restorable(mut h: TargetHealth) -> u64 {
        let mut n = 0;
        while !h.restorable() {
            assert!(n < 10_000, "E4: {h:?} is absorbing — never restorable");
            h = step(h, CLEAN).0;
            n += 1;
        }
        n
    }

    /// What the walks count.
    #[derive(Default)]
    struct Tally {
        sequences: u64,
        steps: u64,
        dead: u64,
        gray: u64,
        quarantined: u64,
        restores: u64,
        relapses: u64,
        failed_rounds: u64,
        worst_quarantine_exit: u64,
    }

    /// Some targets behind one healer, plus what the properties must
    /// remember. `seen` is the oracle: the outcomes each target was fed,
    /// kept apart from `TargetHealth`'s own counters so a miscounting `step`
    /// cannot vouch for itself.
    #[derive(Clone)]
    struct World {
        names: std::rc::Rc<[Target]>,
        hs: Vec<TargetHealth>,
        seen: Vec<Vec<ProbeOutcome>>,
        /// The committed fault set holds the target.
        failed: Vec<bool>,
        healer: SelfHealer,
        tick: u64,
        last_round: u64,
        /// The last round failed (a flaky world commits only retries).
        retrying: bool,
    }

    impl World {
        fn new(n: usize) -> World {
            World {
                names: (0..n).map(|i| Target::switch(format!("T{i}"))).collect(),
                hs: vec![TargetHealth::NEW; n],
                seen: vec![Vec::new(); n],
                failed: vec![false; n],
                healer: SelfHealer::new(),
                tick: 0,
                last_round: 0,
                retrying: false,
            }
        }

        /// One tick: fold `outcomes` (one per target) through `step`, run
        /// the confirm/restore pass, ask the healer for a plan. Checks E1,
        /// E2, E4, E5 and E6; returns the round to execute, if any.
        fn tick(
            &mut self,
            outcomes: &[ProbeOutcome],
            tally: &mut Tally,
        ) -> Option<RemediationPlan> {
            self.tick += 1;
            for (i, &o) in outcomes.iter().enumerate() {
                self.seen[i].push(o);
                let seen = &self.seen[i];
                let before = self.hs[i];
                let (next, transition) = step(before, o);
                self.hs[i] = next;
                tally.steps += 1;
                // A restore was pending and the target went bad again.
                tally.relapses += u64::from(before.restorable() && !next.restorable());
                let trailing_lost = seen.iter().rev().take_while(|o| **o == Lost).count() as u64;
                let recent = &seen[seen.len().saturating_sub(WINDOW as usize)..];
                let adverse =
                    recent.iter().filter(|o| **o != CLEAN).count() as f64 / recent.len() as f64;
                if !before.state.is_faulted() {
                    // E1: DEAD_MISSES straight misses always confirm, and
                    // nothing short of that or a gray window ever does.
                    if trailing_lost >= DEAD_MISSES {
                        assert!(
                            next.state.is_faulted(),
                            "E1: {seen:?} left {next:?} healthy"
                        );
                    }
                    if next.state.is_faulted() {
                        assert!(
                            trailing_lost >= DEAD_MISSES || adverse >= GRAY_LOSS,
                            "E1: {seen:?} confirmed {next:?} on {trailing_lost} miss(es) and \
                             {adverse:.2} adverse"
                        );
                    }
                }
                if let Some(tr) = transition {
                    assert_eq!((tr.from, tr.to), (before.state, next.state));
                    assert_ne!(tr.to, HealthState::Healthy, "only a restore heals");
                    // E2: gray never turns dead, and dead means the last
                    // DEAD_MISSES probes all went unanswered.
                    assert!(
                        !(tr.from == HealthState::Gray && tr.to == HealthState::Dead),
                        "E2: gray stepped to dead after {seen:?}"
                    );
                    if tr.to == HealthState::Dead && tr.from != HealthState::Dead {
                        assert!(trailing_lost >= DEAD_MISSES, "E2: dead after {seen:?}");
                    }
                    if tr.to != tr.from {
                        match tr.to {
                            HealthState::Dead => tally.dead += 1,
                            HealthState::Gray => tally.gray += 1,
                            _ => tally.quarantined += 1,
                        }
                    }
                }
                // E4: quarantine is not absorbing. A clean sample only
                // shortens the way out, so measure at the others.
                if next.state == HealthState::Quarantined
                    && (o != CLEAN || before.state != HealthState::Quarantined)
                {
                    let n = clean_ticks_to_restorable(next);
                    assert!(
                        n <= QUARANTINE_EXIT_TICKS,
                        "E4: {next:?} needs {n} clean ticks, bound {QUARANTINE_EXIT_TICKS}"
                    );
                    tally.worst_quarantine_exit = tally.worst_quarantine_exit.max(n);
                }
            }
            self.healer
                .reconcile(self.tick, self.names.iter().zip(self.hs.iter_mut()));
            for (i, name) in self.names.iter().enumerate() {
                // E5: after the pass the healer wants failed exactly the
                // faulted targets that are not restorable, and every other
                // faulted one is in the committed fault set, awaiting its
                // restore round.
                let h = &self.hs[i];
                let wanted = self.healer.desired.contains(name);
                assert_eq!(
                    wanted,
                    h.state.is_faulted() && !h.restorable(),
                    "E5: {name} is {h:?}, wanted failed: {wanted}"
                );
                assert!(
                    !h.state.is_faulted() || wanted || self.healer.active.contains(name),
                    "E5: nothing holds {name} ({h:?}) failed or pending restore"
                );
                assert_eq!(self.healer.active.contains(name), self.failed[i]);
            }
            match self.healer.plan(self.tick) {
                PlanOutcome::Idle => None,
                // E6: pending work waits out a cooldown, never more than
                // MAX_COOLDOWN ticks since the last round.
                PlanOutcome::Deferred { .. } => {
                    assert!(
                        self.tick < self.last_round + MAX_COOLDOWN,
                        "E6: still deferred at tick {}, last round at {}",
                        self.tick,
                        self.last_round
                    );
                    None
                }
                PlanOutcome::Go(plan) => Some(plan),
            }
        }

        /// Execute `plan` with the given outcome, as `run_selfheal` does.
        /// Checks E3 on the way.
        fn round(&mut self, plan: &RemediationPlan, success: bool, tally: &mut Tally) {
            self.last_round = self.tick;
            self.retrying = !success;
            self.healer.complete(self.tick, plan, success);
            if !success {
                tally.failed_rounds += 1;
                return;
            }
            for (i, name) in self.names.iter().enumerate() {
                if plan.fail.contains(name) {
                    // E3: one fail round per target between restores.
                    assert!(
                        !self.failed[i],
                        "E3: {name} failed twice, no restore between"
                    );
                    self.failed[i] = true;
                }
                if plan.restore.contains(name) {
                    // E3: never restored within RESTORE_CLEAN samples of
                    // an adverse one.
                    let clean = self.seen[i].iter().rev().take_while(|o| **o == CLEAN);
                    let clean = clean.count() as u64;
                    assert!(self.failed[i], "E3: {name} restored but never failed");
                    assert!(
                        clean >= RESTORE_CLEAN,
                        "E3: {name} restored {clean} clean sample(s) after an adverse one"
                    );
                    self.failed[i] = false;
                    self.hs[i] = self.hs[i].restored();
                    tally.restores += 1;
                }
            }
        }

        /// Feed `outcomes` for `len` ticks. Every round commits, unless
        /// `flaky`: then every round fails once and commits when retried.
        fn feed(&mut self, outcomes: &[ProbeOutcome], len: u64, flaky: bool, tally: &mut Tally) {
            for _ in 0..len {
                if let Some(plan) = self.tick(outcomes, tally) {
                    self.round(&plan, !flaky || self.retrying, tally);
                }
            }
        }

        /// Feed `outcomes` for `len` ticks, every round both failed and
        /// committed, and hand each world that comes out to `then`.
        fn branch(
            &self,
            outcomes: &[ProbeOutcome],
            len: u64,
            tally: &mut Tally,
            then: &mut dyn FnMut(&World, &mut Tally),
        ) {
            let mut world = self.clone();
            for done in 0..len {
                if let Some(plan) = world.tick(outcomes, tally) {
                    let mut failed = world.clone();
                    failed.round(&plan, false, tally);
                    failed.branch(outcomes, len - done - 1, tally, then);
                    world.round(&plan, true, tally);
                }
            }
            then(&world, tally);
        }
    }

    /// Walk 1: every sequence of `DEPTH` outcomes.
    fn walk_depth(world: &World, depth: usize, tally: &mut Tally) {
        if depth == DEPTH {
            tally.sequences += 1;
            return;
        }
        for o in OUTCOMES {
            let mut next = world.clone();
            next.feed(&[o], 1, false, tally);
            walk_depth(&next, depth + 1, tally);
        }
    }

    /// Walk 2: every sequence of up to `left` more elements (a run never
    /// repeats the outcome just fed — that is only a longer run).
    fn walk_elements(world: &World, all: &[Element], flaky: bool, left: usize, tally: &mut Tally) {
        if left == 0 {
            return;
        }
        let last = world.seen[0].last().copied();
        for &element in all {
            let mut next = world.clone();
            match element {
                Element::Run(o, _) if Some(o) == last => continue,
                Element::Run(o, len) => next.feed(&[o], len, flaky, tally),
                Element::CleanToRestore(_) if !next.hs[0].state.is_faulted() => continue,
                Element::CleanToRestore(extra) => {
                    let len = clean_ticks_to_restorable(next.hs[0]) as i64 + extra;
                    next.feed(&[CLEAN], len.max(0) as u64, flaky, tally);
                }
                Element::Flap { down, up, cycles } => {
                    for _ in 0..cycles {
                        next.feed(&[Lost], down, flaky, tally);
                        next.feed(&[CLEAN], up, flaky, tally);
                    }
                }
            }
            tally.sequences += 1;
            walk_elements(&next, all, flaky, left - 1, tally);
        }
    }

    /// Walk 3: two targets, `left` more joint runs at the lengths that
    /// decide a confirmation, a cooldown or a restore.
    fn walk_joint(world: &World, left: usize, tally: &mut Tally) {
        if left == 0 {
            tally.sequences += 1;
            return;
        }
        for a in OUTCOMES {
            for b in OUTCOMES {
                for len in [1, DEAD_MISSES, REMEDIATE_COOLDOWN, RESTORE_CLEAN] {
                    world.branch(&[a, b], len, tally, &mut |next, tally| {
                        walk_joint(next, left - 1, tally)
                    });
                }
            }
        }
    }

    /// Walk 4 (E6): the healer alone, never settled — whenever a round
    /// commits, the desired set flips — with each of its next `left`
    /// rounds both failed and committed.
    fn walk_healer(healer: &SelfHealer, last_round: u64, left: u32, tally: &mut Tally) {
        if left == 0 {
            tally.sequences += 1;
            return;
        }
        let mut healer = healer.clone();
        let mut tick = last_round;
        let plan = loop {
            tick += 1;
            match healer.plan(tick) {
                PlanOutcome::Idle => unreachable!("the walk keeps the healer unsettled"),
                PlanOutcome::Deferred { .. } => assert!(
                    tick < last_round + MAX_COOLDOWN,
                    "E6: still deferred at tick {tick}, last round at {last_round}"
                ),
                PlanOutcome::Go(plan) => break plan,
            }
        };
        let mut failed = healer.clone();
        failed.complete(tick, &plan, false);
        tally.failed_rounds += 1;
        walk_healer(&failed, tick, left - 1, tally);
        healer.complete(tick, &plan, true);
        let target = Target::switch("T0");
        if !healer.desired.remove(&target) {
            healer.confirm(target, tick);
        }
        walk_healer(&healer, tick, left - 1, tally);
    }

    #[test]
    fn every_sequence_in_scope_keeps_e1_to_e6() {
        let mut tally = Tally::default();
        let mut counts = Vec::new();
        walk_depth(&World::new(1), 0, &mut tally);
        counts.push(tally.sequences);
        for flaky in [false, true] {
            walk_elements(&World::new(1), &elements(), flaky, ELEMENTS, &mut tally);
        }
        counts.push(tally.sequences);
        walk_joint(&World::new(2), JOINT_RUNS, &mut tally);
        counts.push(tally.sequences);
        let mut healer = SelfHealer::new();
        healer.confirm(Target::switch("T0"), 0);
        walk_healer(&healer, 0, ROUNDS, &mut tally);
        // The densest flap there is on a dead target — answer twice, miss
        // once, forever — drives the penalty to its supremum, so E4's
        // bound is tight.
        let mut world = World::new(1);
        world.feed(&[Lost], DEAD_MISSES, false, &mut tally);
        for _ in 0..200 {
            world.feed(&[CLEAN], 2, false, &mut tally);
            world.feed(&[Lost], 1, false, &mut tally);
        }
        println!(
            "health::exhaustive: {} sequence(s) — {} of length {DEPTH}, {} of ≤ {ELEMENTS} \
             element(s), {} two-target schedule(s) of {JOINT_RUNS} joint run(s), {} healer \
             histories of {ROUNDS} round(s) — in {} step(s); reached {} dead / {} gray / {} \
             quarantined confirmation(s), {} restore(s), {} relapse(s), {} failed round(s); \
             quarantine is left within N = {} clean tick(s)",
            tally.sequences,
            counts[0],
            counts[1] - counts[0],
            counts[2] - counts[1],
            tally.sequences - counts[2],
            tally.steps,
            tally.dead,
            tally.gray,
            tally.quarantined,
            tally.restores,
            tally.relapses,
            tally.failed_rounds,
            tally.worst_quarantine_exit,
        );
        assert!(
            tally.sequences >= FLOOR,
            "the walk collapsed: {} sequence(s), floor {FLOOR}",
            tally.sequences
        );
        // A property is vacuous on states the walk never reaches.
        assert!(tally.dead > 0 && tally.gray > 0 && tally.quarantined > 0);
        assert!(tally.restores > 0 && tally.relapses > 0 && tally.failed_rounds > 0);
        assert_eq!(tally.worst_quarantine_exit, QUARANTINE_EXIT_TICKS);
    }
}
