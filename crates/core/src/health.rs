//! Closed-loop self-healing: failure detection, gray-failure scoring, and
//! automatic remediation.
//!
//! The Lyra paper's one-big-pipeline abstraction assumes the controller
//! *learns* about failures somehow; PRs 4–8 built the machinery that reacts
//! to a failure once it is known (fault-set recompiles, two-phase rollouts,
//! crash recovery, anti-entropy audit). This module closes the loop:
//!
//! 1. **Detection** — a [`HealthMonitor`] drives seeded heartbeat probes
//!    ([`ControlOp::Probe`]) over the existing [`ControlChannel`] and folds
//!    in passive evidence from rollout sends. A phi-accrual-style suspicion
//!    score distinguishes *dead* (consecutive missed probes) from *gray*
//!    (slow or lossy — answering, but badly) from *flapping* (oscillating),
//!    with hysteresis so one dropped packet never triggers a recompile.
//! 2. **Remediation** — a [`SelfHealer`] turns confirmed suspicions into a
//!    [`FaultSet`] delta and drives `recompile_for_faults → apply_rollout →
//!    audit_switches` automatically: rate-limited, damped backoff on
//!    failure, coalescing while a round is in flight, and restore-on-
//!    recovery gated behind a probation window.
//! 3. **Chaos** — a seeded [`ChaosSchedule`] (kill / restore / flap / slow
//!    / lossy on a virtual clock) exercises the whole loop end to end;
//!    [`run_selfheal`] reports MTTR and proves zero mixed-epoch exposure
//!    under live traffic.
//!
//! Everything is deterministic for a fixed seed: the clock is a virtual
//! tick counter, the only randomness is the in-tree xorshift generator,
//! and wall time is measured but never consulted for decisions.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use lyra_diag::codes;
use lyra_diag::json::{Object, Value};
use lyra_diag::{Code, Diagnostic};
use lyra_topo::FaultSet;

use crate::channel::{ControlChannel, ControlMsg, ControlOp, Delivery, Rng};
use crate::dataplane::{replay_compiled, replay_under_rollout, ReplayConfig};
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
// Detection: probe outcomes, suspicion, health states
// ---------------------------------------------------------------------------

/// What one probe (or one piece of passive evidence) observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
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
    /// Suspicion is rising but below the confirmation thresholds; no
    /// action is taken (hysteresis against single dropped packets).
    Suspect,
    /// Confirmed dead: enough consecutive missed probes that the accrued
    /// suspicion crossed `phi_dead`.
    Dead,
    /// Confirmed gray: answering, but lossy or slow, sustained over the
    /// confirmation window.
    Gray,
    /// Recovering: probes are clean again, but the target must stay clean
    /// for a full probation window before the healer restores it.
    Probation,
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
            HealthState::Suspect => "suspect",
            HealthState::Dead => "dead",
            HealthState::Gray => "gray",
            HealthState::Probation => "probation",
            HealthState::Quarantined => "quarantined",
        }
    }

    /// States the healer treats as failed (kept in the fault set).
    pub fn is_faulted(&self) -> bool {
        matches!(
            self,
            HealthState::Dead
                | HealthState::Gray
                | HealthState::Probation
                | HealthState::Quarantined
        )
    }
}

/// Detection and remediation tuning. Defaults confirm a dead target after
/// 3 consecutive missed probes against a clean history, a gray target
/// after 3 ticks of ≥ ~1/3 adverse probes, and quarantine a target that
/// flaps about three times within the decay window.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Accrued suspicion at which a target is confirmed dead.
    pub phi_dead: f64,
    /// Accrued suspicion at which a target becomes suspect.
    pub phi_gray: f64,
    /// Adverse fraction of the evidence window (lost + degraded) that
    /// counts as gray when sustained.
    pub gray_loss: f64,
    /// Evidence window length (probes per target).
    pub window: usize,
    /// Ticks the gray condition must hold before confirmation.
    pub confirm_ticks: u64,
    /// Consecutive clean probes before a faulted target enters probation,
    /// and again before a probationary target becomes restorable.
    pub recovery_ticks: u64,
    /// Flap penalty at which a target is quarantined.
    pub flap_limit: f64,
    /// Per-tick multiplicative decay of the flap penalty.
    pub flap_decay: f64,
    /// Penalty below which a quarantined target may leave quarantine.
    pub quarantine_exit: f64,
    /// Minimum ticks between remediation rounds.
    pub remediate_cooldown: u64,
    /// Cooldown multiplier after a failed round (damped backoff).
    pub backoff_factor: u64,
    /// Cooldown ceiling.
    pub max_cooldown: u64,
    /// Seed for probe jitter and chaos determinism.
    pub seed: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            // A miss against a clean history scores ~2.0, so three
            // consecutive misses confirm death (just under 6.0 to absorb
            // the probability clamp's float error).
            phi_dead: 5.9,
            phi_gray: 2.0,
            gray_loss: 0.34,
            window: 16,
            confirm_ticks: 3,
            recovery_ticks: 8,
            flap_limit: 2.5,
            flap_decay: 0.97,
            quarantine_exit: 0.5,
            remediate_cooldown: 4,
            backoff_factor: 2,
            max_cooldown: 64,
            seed: 0x11ea_17bb,
        }
    }
}

impl HealthConfig {
    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One confirmed state transition, as surfaced by [`HealthMonitor::tick`].
#[derive(Debug, Clone)]
pub struct HealthEvent {
    /// Virtual tick at which the transition happened.
    pub tick: u64,
    /// The target that changed state.
    pub target: Target,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Accrued suspicion at the transition.
    pub phi: f64,
    /// Flap penalty at the transition.
    pub flap_penalty: f64,
    /// The diagnostic code classifying the transition.
    pub code: Code,
}

/// Per-target detection record.
#[derive(Debug, Clone)]
struct TargetHealth {
    state: HealthState,
    /// Recent probe outcomes, newest last.
    window: VecDeque<ProbeOutcome>,
    consecutive_ok: u64,
    consecutive_lost: u64,
    /// Accrued suspicion (phi-accrual style: misses weighted by how
    /// reliable the target's recent history was).
    phi: f64,
    /// Ticks the gray condition has held.
    gray_ticks: u64,
    /// Clean probes observed while in probation.
    probation_ok: u64,
    /// Exponentially-decaying flap penalty.
    flap_penalty: f64,
    /// Whether the flapping diagnostic was already emitted (once per
    /// target — the per-down-edge events still fire).
    flap_diag_emitted: bool,
}

impl TargetHealth {
    fn new() -> Self {
        TargetHealth {
            state: HealthState::Healthy,
            window: VecDeque::new(),
            consecutive_ok: 0,
            consecutive_lost: 0,
            phi: 0.0,
            gray_ticks: 0,
            probation_ok: 0,
            flap_penalty: 0.0,
            flap_diag_emitted: false,
        }
    }

    /// Adverse fraction of the evidence window.
    fn adverse(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let bad = self
            .window
            .iter()
            .filter(|o| !matches!(o, ProbeOutcome::Ok))
            .count();
        bad as f64 / self.window.len() as f64
    }

    /// Probability a probe succeeds, estimated from the window *excluding*
    /// the trailing loss run (otherwise the misses being scored would
    /// dilute their own weight). Clamped away from 0 and 1; an empty
    /// history is presumed reliable, so misses against it score high.
    fn p_ok(&self) -> f64 {
        let trailing = self
            .window
            .iter()
            .rev()
            .take_while(|o| matches!(o, ProbeOutcome::Lost))
            .count();
        let prefix = self.window.len() - trailing;
        if prefix == 0 {
            return 0.99;
        }
        let oks = self
            .window
            .iter()
            .take(prefix)
            .filter(|o| matches!(o, ProbeOutcome::Ok))
            .count();
        (oks as f64 / prefix as f64).clamp(0.01, 0.99)
    }
}

/// Counters the monitor accumulates across its lifetime.
#[derive(Debug, Clone, Copy, Default)]
struct ProbeCounters {
    sent: u64,
    ok: u64,
    degraded: u64,
    lost: u64,
}

/// Failure detector: probes every watched target once per [`tick`]
/// (virtual clock — no wall time in any decision), scores the evidence,
/// and reports confirmed transitions.
///
/// [`tick`]: HealthMonitor::tick
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    now: u64,
    targets: BTreeMap<Target, TargetHealth>,
    probe_seq: u64,
    counters: ProbeCounters,
    diagnostics: Vec<Diagnostic>,
    events: u64,
}

impl HealthMonitor {
    /// A monitor with the given tuning, watching nothing yet.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthMonitor {
            cfg,
            now: 0,
            targets: BTreeMap::new(),
            probe_seq: 0,
            counters: ProbeCounters::default(),
            diagnostics: Vec::new(),
            events: 0,
        }
    }

    /// Current virtual tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Watch every switch the placement uses and every link any flow path
    /// crosses. Idempotent and additive: targets already watched keep
    /// their history, so re-calling after a remediation rollout extends
    /// coverage to the new placement without resetting suspicion.
    pub fn watch_output(&mut self, output: &CompileOutput) {
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
    pub fn watch(&mut self, target: Target) {
        self.targets.entry(target).or_insert_with(TargetHealth::new);
    }

    /// The current state of a target, if watched.
    pub fn state(&self, target: &Target) -> Option<HealthState> {
        self.targets.get(target).map(|h| h.state)
    }

    /// Targets currently confirmed faulted (dead, gray, in probation, or
    /// quarantined) — the set the healer should keep failed.
    pub fn faulted(&self) -> Vec<Target> {
        self.targets
            .iter()
            .filter(|(_, h)| h.state.is_faulted())
            .map(|(t, _)| t.clone())
            .collect()
    }

    /// Probationary targets whose clean streak has run the full probation
    /// window — safe for the healer to restore.
    pub fn restorable(&self) -> Vec<Target> {
        self.targets
            .iter()
            .filter(|(_, h)| {
                h.state == HealthState::Probation && h.probation_ok >= self.cfg.recovery_ticks
            })
            .map(|(t, _)| t.clone())
            .collect()
    }

    /// The healer restored this target: back to healthy, with the flap
    /// penalty intact — penalty memory across restores is what stops a
    /// slow flapper from cycling fail/restore forever.
    pub fn mark_restored(&mut self, target: &Target) {
        if let Some(h) = self.targets.get_mut(target) {
            h.state = HealthState::Healthy;
            h.probation_ok = 0;
            h.gray_ticks = 0;
        }
    }

    /// Advance the virtual clock one tick: probe every watched target over
    /// `channel`, fold the outcomes into the suspicion scores, decay flap
    /// penalties, and return the confirmed state transitions.
    pub fn tick(&mut self, channel: &mut dyn ControlChannel) -> Vec<HealthEvent> {
        self.now += 1;
        let mut outcomes = Vec::with_capacity(self.targets.len());
        for target in self.targets.keys() {
            self.probe_seq += 1;
            let msg = ControlMsg {
                switch: target.wire(),
                epoch: 0,
                token: self.probe_seq,
                op: ControlOp::Probe,
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
        let mut events = Vec::new();
        for (target, outcome) in outcomes {
            self.counters.sent += 1;
            match outcome {
                ProbeOutcome::Ok => self.counters.ok += 1,
                ProbeOutcome::Degraded => self.counters.degraded += 1,
                ProbeOutcome::Lost => self.counters.lost += 1,
            }
            if let Some(ev) = self.record(&target, outcome) {
                events.push(ev);
            }
        }
        self.events += events.len() as u64;
        events
    }

    /// Fold passive evidence from a rollout into the scores: a switch
    /// whose sends needed retries is gray evidence; a clean send is a
    /// free healthy sample. No probes are spent.
    pub fn observe_rollout(&mut self, report: &RolloutReport) {
        let samples: Vec<(Target, ProbeOutcome)> = report
            .switches
            .iter()
            .map(|sr| {
                let outcome = if sr.retries > 0 {
                    ProbeOutcome::Degraded
                } else {
                    ProbeOutcome::Ok
                };
                (Target::switch(sr.switch.clone()), outcome)
            })
            .filter(|(t, _)| self.targets.contains_key(t))
            .collect();
        for (target, outcome) in samples {
            let _ = self.record(&target, outcome);
        }
    }

    /// Apply one evidence sample to `target` and run the state machine.
    fn record(&mut self, target: &Target, outcome: ProbeOutcome) -> Option<HealthEvent> {
        let cfg = self.cfg.clone();
        let now = self.now;
        let h = self.targets.get_mut(target)?;
        // Evidence window and streaks.
        h.window.push_back(outcome);
        while h.window.len() > cfg.window {
            h.window.pop_front();
        }
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
        // Suspicion: misses weighted by how reliable the history was.
        let miss_weight = -(1.0 - h.p_ok()).log10();
        h.phi = h.consecutive_lost as f64 * miss_weight;
        // Gray condition persistence.
        if h.adverse() >= cfg.gray_loss && h.window.len() >= cfg.window / 2 {
            h.gray_ticks += 1;
        } else {
            h.gray_ticks = 0;
        }
        // Flap damping: decay every sample; charge every down-edge seen
        // while the target is already faulted (an up-then-down oscillation,
        // not a fresh failure).
        h.flap_penalty *= cfg.flap_decay;
        let mut flap_event = false;
        if outcome == ProbeOutcome::Lost && prev_ok_streak >= 2 && h.state.is_faulted() {
            h.flap_penalty += 1.0;
            flap_event = true;
        }
        // State machine.
        let from = h.state;
        let mut code = None;
        let to = match h.state {
            HealthState::Healthy | HealthState::Suspect => {
                if h.phi >= cfg.phi_dead {
                    h.flap_penalty += 1.0;
                    code = Some(codes::HEALTH_DEAD);
                    HealthState::Dead
                } else if h.gray_ticks >= cfg.confirm_ticks {
                    h.flap_penalty += 1.0;
                    code = Some(codes::HEALTH_GRAY);
                    HealthState::Gray
                } else if h.phi >= cfg.phi_gray {
                    HealthState::Suspect
                } else {
                    HealthState::Healthy
                }
            }
            HealthState::Dead => {
                if h.consecutive_ok >= cfg.recovery_ticks {
                    h.probation_ok = 0;
                    HealthState::Probation
                } else {
                    HealthState::Dead
                }
            }
            HealthState::Gray => {
                if h.consecutive_ok >= cfg.recovery_ticks && h.gray_ticks == 0 {
                    h.probation_ok = 0;
                    HealthState::Probation
                } else {
                    HealthState::Gray
                }
            }
            HealthState::Probation => {
                if h.phi >= cfg.phi_dead {
                    code = Some(codes::HEALTH_DEAD);
                    HealthState::Dead
                } else if h.gray_ticks >= cfg.confirm_ticks {
                    code = Some(codes::HEALTH_GRAY);
                    HealthState::Gray
                } else {
                    if outcome == ProbeOutcome::Ok {
                        h.probation_ok += 1;
                    }
                    HealthState::Probation
                }
            }
            HealthState::Quarantined => {
                if h.flap_penalty < cfg.quarantine_exit
                    && h.consecutive_ok >= 2 * cfg.recovery_ticks
                {
                    h.probation_ok = 0;
                    HealthState::Probation
                } else {
                    HealthState::Quarantined
                }
            }
        };
        h.state = to;
        // Quarantine promotion overrides everything except full health.
        let (to, code) = if h.flap_penalty >= cfg.flap_limit && to != HealthState::Quarantined {
            h.state = HealthState::Quarantined;
            (HealthState::Quarantined, Some(codes::HEALTH_QUARANTINED))
        } else {
            (to, code)
        };
        // Diagnostics: once per confirmed transition; the flapping code
        // once per target (its per-edge events still return below).
        if let Some(c) = code {
            if from != to {
                let msg = if c == codes::HEALTH_DEAD {
                    format!(
                        "{target} confirmed dead at tick {now}: {} consecutive missed \
                         probes (phi {:.1} ≥ {:.1})",
                        h.consecutive_lost, h.phi, cfg.phi_dead
                    )
                } else if c == codes::HEALTH_GRAY {
                    format!(
                        "{target} confirmed gray at tick {now}: {:.0}% of the last {} \
                         probes were adverse for {} ticks",
                        h.adverse() * 100.0,
                        h.window.len(),
                        h.gray_ticks
                    )
                } else {
                    format!(
                        "{target} quarantined at tick {now}: flap penalty {:.2} ≥ {:.2}; \
                         restore is blocked until the penalty decays and a long clean \
                         streak accrues",
                        h.flap_penalty, cfg.flap_limit
                    )
                };
                self.diagnostics.push(Diagnostic::warning(c, msg));
            }
        }
        if flap_event && !h.flap_diag_emitted {
            h.flap_diag_emitted = true;
            self.diagnostics.push(Diagnostic::warning(
                codes::HEALTH_FLAPPING,
                format!(
                    "{target} is flapping: went down again at tick {now} after answering \
                     {prev_ok_streak} probes; flap penalty {:.2}",
                    h.flap_penalty
                ),
            ));
        }
        if from != to {
            Some(HealthEvent {
                tick: now,
                target: target.clone(),
                from,
                to,
                phi: h.phi,
                flap_penalty: h.flap_penalty,
                code: code.unwrap_or(codes::HEALTH_FLAPPING),
            })
        } else if flap_event {
            Some(HealthEvent {
                tick: now,
                target: target.clone(),
                from,
                to,
                phi: h.phi,
                flap_penalty: h.flap_penalty,
                code: codes::HEALTH_FLAPPING,
            })
        } else {
            None
        }
    }

    /// Snapshot the monitor's view for reports and the session JSON.
    pub fn report(&self) -> HealthReport {
        HealthReport {
            ticks: self.now,
            probes_sent: self.counters.sent,
            probes_ok: self.counters.ok,
            probes_degraded: self.counters.degraded,
            probes_lost: self.counters.lost,
            transitions: self.events,
            targets: self
                .targets
                .iter()
                .map(|(t, h)| TargetStatus {
                    target: t.clone(),
                    state: h.state,
                    phi: h.phi,
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
    /// Accrued suspicion.
    pub phi: f64,
    /// Flap penalty.
    pub flap_penalty: f64,
    /// Current clean streak.
    pub consecutive_ok: u64,
    /// Current loss streak.
    pub consecutive_lost: u64,
    /// Adverse fraction of the evidence window.
    pub window_adverse: f64,
}

impl TargetStatus {
    /// Serialise for the session JSON.
    pub fn to_json(&self) -> Value {
        let mut o = Object::new();
        o.push("target", Value::str(self.target.wire()));
        o.push("state", Value::str(self.state.name()));
        o.push("phi", Value::Number(self.phi));
        o.push("flap_penalty", Value::Number(self.flap_penalty));
        o.push("consecutive_ok", Value::Number(self.consecutive_ok as f64));
        o.push(
            "consecutive_lost",
            Value::Number(self.consecutive_lost as f64),
        );
        o.push("window_adverse", Value::Number(self.window_adverse));
        Value::Object(o)
    }
}

/// The monitor's summary: counters plus the per-target verdicts.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Virtual ticks elapsed.
    pub ticks: u64,
    /// Probes transmitted.
    pub probes_sent: u64,
    /// Probes answered promptly.
    pub probes_ok: u64,
    /// Probes answered badly (ack lost / retries).
    pub probes_degraded: u64,
    /// Probes never answered.
    pub probes_lost: u64,
    /// Confirmed state transitions observed.
    pub transitions: u64,
    /// Per-target verdicts.
    pub targets: Vec<TargetStatus>,
    /// Everything the monitor diagnosed (LYR0580–LYR0583).
    pub diagnostics: Vec<Diagnostic>,
}

impl HealthReport {
    /// Targets currently in the given state.
    pub fn in_state(&self, state: HealthState) -> usize {
        self.targets.iter().filter(|t| t.state == state).count()
    }

    /// Serialise for the session JSON.
    pub fn to_json(&self) -> Value {
        let mut o = Object::new();
        o.push("ticks", Value::Number(self.ticks as f64));
        o.push("probes_sent", Value::Number(self.probes_sent as f64));
        o.push("probes_ok", Value::Number(self.probes_ok as f64));
        o.push(
            "probes_degraded",
            Value::Number(self.probes_degraded as f64),
        );
        o.push("probes_lost", Value::Number(self.probes_lost as f64));
        o.push("transitions", Value::Number(self.transitions as f64));
        o.push(
            "targets",
            Value::Array(self.targets.iter().map(|t| t.to_json()).collect()),
        );
        o.push(
            "diagnostics",
            Value::Array(
                self.diagnostics
                    .iter()
                    .map(|d| Value::str(format!("{d}")))
                    .collect(),
            ),
        );
        Value::Object(o)
    }
}

// ---------------------------------------------------------------------------
// Remediation: the self-healer policy engine
// ---------------------------------------------------------------------------

/// One remediation round the healer wants executed.
#[derive(Debug, Clone)]
pub struct RemediationPlan {
    /// Targets to add to the fault set.
    pub fail: Vec<Target>,
    /// Targets to remove from the fault set (restore).
    pub restore: Vec<Target>,
    /// The full desired fault set after this round.
    pub desired: BTreeSet<Target>,
    /// Earliest confirmation tick among the newly-failed targets (for
    /// MTTR: detect → healed).
    pub tick_detected: Option<u64>,
}

impl RemediationPlan {
    /// The desired set as a [`FaultSet`].
    pub fn fault_set(&self) -> FaultSet {
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
pub enum PlanOutcome {
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
#[derive(Debug)]
pub struct SelfHealer {
    desired: BTreeSet<Target>,
    active: BTreeSet<Target>,
    confirmed_at: BTreeMap<Target, u64>,
    next_allowed: u64,
    cooldown: u64,
    base_cooldown: u64,
    backoff_factor: u64,
    max_cooldown: u64,
    deferral_logged: bool,
}

impl SelfHealer {
    /// A healer with nothing failed, tuned from `cfg`.
    pub fn new(cfg: &HealthConfig) -> Self {
        SelfHealer {
            desired: BTreeSet::new(),
            active: BTreeSet::new(),
            confirmed_at: BTreeMap::new(),
            next_allowed: 0,
            cooldown: cfg.remediate_cooldown,
            base_cooldown: cfg.remediate_cooldown.max(1),
            backoff_factor: cfg.backoff_factor.max(1),
            max_cooldown: cfg.max_cooldown.max(1),
            deferral_logged: false,
        }
    }

    /// The monitor confirmed `target` faulted at `tick`.
    pub fn confirm(&mut self, target: Target, tick: u64) {
        self.confirmed_at.entry(target.clone()).or_insert(tick);
        self.desired.insert(target);
    }

    /// The monitor cleared `target` for restore.
    pub fn request_restore(&mut self, target: &Target) {
        self.desired.remove(target);
    }

    /// True when the active deployment matches every confirmed suspicion.
    pub fn settled(&self) -> bool {
        self.desired == self.active
    }

    /// The fault set the deployment currently runs under.
    pub fn active(&self) -> &BTreeSet<Target> {
        &self.active
    }

    /// Decide whether to act this tick.
    pub fn plan(&mut self, tick: u64) -> PlanOutcome {
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
    pub fn complete(&mut self, tick: u64, plan: &RemediationPlan, success: bool) {
        if success {
            self.active = plan.desired.clone();
            for t in &plan.fail {
                self.confirmed_at.remove(t);
            }
            self.cooldown = self.base_cooldown;
        } else {
            self.cooldown = (self.cooldown * self.backoff_factor).min(self.max_cooldown);
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
    /// link endpoints — [`ChaosChannel`] layers that on.)
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
pub struct ChaosChannel {
    schedule: ChaosSchedule,
    rng: Rng,
    tick: u64,
}

impl ChaosChannel {
    /// A channel ruled by `schedule`, with seeded loss.
    pub fn new(schedule: ChaosSchedule, seed: u64) -> Self {
        ChaosChannel {
            schedule,
            rng: Rng::new(seed),
            tick: 0,
        }
    }

    /// Advance the virtual clock (the monitor calls this once per tick).
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// Current virtual tick.
    pub fn tick(&self) -> u64 {
        self.tick
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
    /// Detection and healer tuning.
    pub health: HealthConfig,
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
            health: HealthConfig::default(),
            rollout: RolloutConfig::default(),
            ticks: 64,
            traffic_packets: 0,
            workers: 2,
        }
    }
}

/// One executed remediation round.
#[derive(Debug, Clone)]
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
    /// Drifted entries the audit repaired.
    pub drift_repaired: u64,
    /// Instruction churn of the remediation rollout.
    pub instr_churn: usize,
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

    /// Serialise for the session JSON.
    pub fn to_json(&self) -> Value {
        let mut o = Object::new();
        o.push("round", Value::Number(self.round as f64));
        o.push(
            "tick_detected",
            self.tick_detected
                .map(|t| Value::Number(t as f64))
                .unwrap_or(Value::Null),
        );
        o.push("tick_started", Value::Number(self.tick_started as f64));
        o.push(
            "tick_healed",
            self.tick_healed
                .map(|t| Value::Number(t as f64))
                .unwrap_or(Value::Null),
        );
        o.push(
            "mttr_ticks",
            self.mttr_ticks()
                .map(|t| Value::Number(t as f64))
                .unwrap_or(Value::Null),
        );
        o.push(
            "failed",
            Value::Array(self.failed.iter().map(Value::str).collect()),
        );
        o.push(
            "restored",
            Value::Array(self.restored.iter().map(Value::str).collect()),
        );
        o.push("committed", Value::Bool(self.committed));
        o.push("rolled_back", Value::Bool(self.rolled_back));
        o.push("audit_clean", Value::Bool(self.audit_clean));
        o.push("drift_repaired", Value::Number(self.drift_repaired as f64));
        o.push("instr_churn", Value::Number(self.instr_churn as f64));
        o.push(
            "mixed_epoch_exposure",
            Value::Number(self.mixed_epoch_exposure as f64),
        );
        o.push("elapsed_us", Value::Number(self.elapsed.as_micros() as f64));
        Value::Object(o)
    }
}

/// What a full closed-loop run observed.
#[derive(Debug, Clone)]
pub struct SelfHealOutcome {
    /// Virtual ticks run.
    pub ticks: u64,
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
    /// Ticks on which pending work was deferred by the rate limiter.
    pub rate_limited_deferrals: u64,
    /// Mixed-epoch packets across every replay (must be zero).
    pub mixed_epoch_exposure: u64,
    /// Replay workers that panicked (must be zero).
    pub worker_panics: u64,
    /// Packets delivered across every replay.
    pub traffic_delivered: u64,
    /// Packets refused for epoch mismatch across every replay.
    pub traffic_refused: u64,
    /// Final verdict: every confirmed suspicion remediated, epochs
    /// coherent on the surviving deployment.
    pub converged: bool,
    /// Final anti-entropy audit verdict.
    pub final_audit_clean: bool,
    /// Healer/loop diagnostics (LYR0584–LYR0587).
    pub diagnostics: Vec<Diagnostic>,
    /// Wall time of the whole run (measured, never consulted).
    pub elapsed: Duration,
}

impl SelfHealOutcome {
    /// Serialise for the session JSON and `lyrac --monitor`.
    pub fn to_json(&self) -> Value {
        let mut o = Object::new();
        o.push("ticks", Value::Number(self.ticks as f64));
        o.push("health", self.health.to_json());
        o.push(
            "remediations",
            Value::Array(self.remediations.iter().map(|r| r.to_json()).collect()),
        );
        o.push("recompiles", Value::Number(self.recompiles as f64));
        o.push(
            "rollouts_committed",
            Value::Number(self.rollouts_committed as f64),
        );
        o.push(
            "rollouts_rolled_back",
            Value::Number(self.rollouts_rolled_back as f64),
        );
        o.push("restores", Value::Number(self.restores as f64));
        o.push(
            "rate_limited_deferrals",
            Value::Number(self.rate_limited_deferrals as f64),
        );
        o.push(
            "mixed_epoch_exposure",
            Value::Number(self.mixed_epoch_exposure as f64),
        );
        o.push("worker_panics", Value::Number(self.worker_panics as f64));
        o.push(
            "traffic_delivered",
            Value::Number(self.traffic_delivered as f64),
        );
        o.push(
            "traffic_refused",
            Value::Number(self.traffic_refused as f64),
        );
        o.push("converged", Value::Bool(self.converged));
        o.push("final_audit_clean", Value::Bool(self.final_audit_clean));
        o.push(
            "diagnostics",
            Value::Array(
                self.diagnostics
                    .iter()
                    .map(|d| Value::str(format!("{d}")))
                    .collect(),
            ),
        );
        o.push("elapsed_us", Value::Number(self.elapsed.as_micros() as f64));
        Value::Object(o)
    }
}

/// Logical state carried between runtime generations. The runtime borrows
/// the output it serves, so each committed remediation ends the borrow,
/// swaps the served output, and rebuilds the runtime from this snapshot —
/// the same dance a controller failover performs from its intent log.
struct Snapshot {
    entries: Vec<(String, u64, u64)>,
    epoch: u64,
    epoch_counter: u64,
    faults: FaultSet,
}

impl Snapshot {
    fn capture(rt: &Runtime<'_>) -> Self {
        Snapshot {
            entries: rt.logical_entries(),
            epoch: rt.epoch,
            epoch_counter: rt.epoch_counter,
            faults: rt.faults.clone(),
        }
    }

    fn hydrate(&self, rt: &mut Runtime<'_>) {
        rt.resume_at(self.epoch, self.epoch_counter);
        rt.declare_faults(self.faults.clone());
        for (table, key, value) in &self.entries {
            // Entries whose surviving placement cannot hold them are
            // dropped by the planner, not an error here.
            let _ = rt.install(table, *key, *value);
        }
        rt.refresh_expected();
    }
}

/// Run the full closed loop: compile `req`, install `entries`, then tick
/// the monitor against `schedule` for `cfg.ticks` virtual ticks, executing
/// every remediation round the healer confirms — fault-set recompile,
/// two-phase rollout (under live traffic when `cfg.traffic_packets > 0`),
/// logical-entry re-install, anti-entropy audit, and restore-on-recovery.
///
/// Deterministic for a fixed `cfg.health.seed`; `Err` is reserved for the
/// initial compile failing — everything after that is reported in the
/// outcome, not thrown.
pub fn run_selfheal(
    compiler: &Compiler,
    req: &CompileRequest<'_>,
    entries: &[(String, u64, u64)],
    schedule: &ChaosSchedule,
    cfg: &SelfHealConfig,
) -> Result<SelfHealOutcome, CompileError> {
    let t0 = Instant::now();
    let baseline = compiler.compile(req)?;
    let mut current: Box<CompileOutput> = Box::new(baseline);
    let mut monitor = HealthMonitor::new(cfg.health.clone());
    monitor.watch_output(&current);
    let mut healer = SelfHealer::new(&cfg.health);
    let mut chaos = ChaosChannel::new(schedule.clone(), cfg.health.seed ^ 0xc4a0_55ed);

    let mut remediations: Vec<RemediationReport> = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut recompiles = 0u64;
    let mut rollouts_committed = 0u64;
    let mut rollouts_rolled_back = 0u64;
    let mut restores = 0u64;
    let mut rate_limited_deferrals = 0u64;
    let mut mixed_epoch_exposure = 0u64;
    let mut worker_panics = 0u64;
    let mut traffic_delivered = 0u64;
    let mut traffic_refused = 0u64;
    let mut converged = false;
    let mut final_audit_clean = false;

    let mut snapshot: Option<Snapshot> = None;
    let mut tick = 0u64;
    let mut round = 0u64;

    'generations: loop {
        // Declared before the runtime so a staged recompile outlives the
        // borrow `apply_rollout` takes on it. At most one remediation
        // executes per generation: once the runtime borrows the staged
        // output, the generation must end before anything new is staged.
        let mut staged: Option<FaultRecompile> = None;
        let mut committed = false;
        {
            let mut rt = Runtime::new(&current);
            match &snapshot {
                Some(snap) => snap.hydrate(&mut rt),
                None => {
                    for (table, key, value) in entries {
                        if let Err(e) = rt.install(table, *key, *value) {
                            diagnostics.push(Diagnostic::warning(
                                codes::HEAL_FAILED,
                                format!("seed install of `{table}`[{key}] failed: {e}"),
                            ));
                        }
                    }
                }
            }

            while tick < cfg.ticks {
                tick += 1;
                chaos.set_tick(tick);
                let events = monitor.tick(&mut chaos);
                for ev in &events {
                    if matches!(ev.to, HealthState::Dead | HealthState::Gray) {
                        healer.confirm(ev.target.clone(), tick);
                    }
                }
                for t in monitor.restorable() {
                    healer.request_restore(&t);
                }
                let plan = match healer.plan(tick) {
                    PlanOutcome::Idle => continue,
                    PlanOutcome::Deferred { first } => {
                        rate_limited_deferrals += 1;
                        if first {
                            diagnostics.push(Diagnostic::warning(
                                codes::HEAL_RATE_LIMITED,
                                format!(
                                    "remediation deferred at tick {tick}: cooldown in \
                                     effect; confirmed suspicions coalesce into the \
                                     next round"
                                ),
                            ));
                        }
                        continue;
                    }
                    PlanOutcome::Go(plan) => plan,
                };

                round += 1;
                let round_t0 = Instant::now();
                let faults = plan.fault_set();
                // Ground truth before any state is torn down: entries held
                // only by a dying switch must survive the remediation.
                let pre_entries = rt.logical_entries();
                let rec = match compiler.recompile_for_faults(req, &current, &faults) {
                    Ok(rec) => rec,
                    Err(e) => {
                        // Nothing was staged or borrowed — the generation
                        // continues; the healer backs off and retries.
                        healer.complete(tick, &plan, false);
                        diagnostics.push(Diagnostic::error(
                            codes::HEAL_FAILED,
                            format!("round {round}: recompile under fault set failed: {e}"),
                        ));
                        remediations.push(RemediationReport {
                            round,
                            tick_detected: plan.tick_detected,
                            tick_started: tick,
                            tick_healed: None,
                            failed: plan.fail.iter().map(Target::wire).collect(),
                            restored: plan.restore.iter().map(Target::wire).collect(),
                            committed: false,
                            rolled_back: false,
                            audit_clean: false,
                            drift_repaired: 0,
                            instr_churn: 0,
                            mixed_epoch_exposure: 0,
                            elapsed: round_t0.elapsed(),
                        });
                        continue;
                    }
                };
                recompiles += 1;
                let rec_ref: &FaultRecompile = staged.insert(rec);

                // The controller knows these switches are dead: their
                // state goes with them.
                rt.declare_faults(faults);

                let rollout_cfg = cfg
                    .rollout
                    .clone()
                    .with_scope_health(rec_ref.scope_health.clone())
                    .with_seed(cfg.health.seed ^ (round << 8));
                let mut round_mixed = 0u64;
                let rollout_res = if cfg.traffic_packets > 0 {
                    let replay_cfg = ReplayConfig::default()
                        .with_packets(cfg.traffic_packets)
                        .with_workers(cfg.workers)
                        .with_seed(cfg.health.seed ^ round);
                    match replay_under_rollout(
                        &mut rt,
                        &rec_ref.output,
                        &mut chaos,
                        &rollout_cfg,
                        &replay_cfg,
                    ) {
                        Ok(outcome) => {
                            traffic_delivered += outcome.replay.delivered;
                            traffic_refused += outcome.replay.refused_epoch_mismatch;
                            round_mixed = outcome.replay.mixed_epoch_exposure;
                            mixed_epoch_exposure += round_mixed;
                            worker_panics += outcome.replay.worker_panics;
                            Ok(outcome.rollout)
                        }
                        Err(e) => Err(e),
                    }
                } else {
                    rt.apply_rollout(&rec_ref.output, &mut chaos, &rollout_cfg)
                };

                let mut report = RemediationReport {
                    round,
                    tick_detected: plan.tick_detected,
                    tick_started: tick,
                    tick_healed: None,
                    failed: plan.fail.iter().map(Target::wire).collect(),
                    restored: plan.restore.iter().map(Target::wire).collect(),
                    committed: false,
                    rolled_back: false,
                    audit_clean: false,
                    drift_repaired: 0,
                    instr_churn: 0,
                    mixed_epoch_exposure: round_mixed,
                    elapsed: Duration::ZERO,
                };
                match rollout_res {
                    Ok(rollout) if rollout.committed => {
                        monitor.observe_rollout(&rollout);
                        // Re-install the pre-remediation logical view onto
                        // the new placement (idempotent; entries that lost
                        // every holder are re-homed, the rest are no-ops).
                        for (table, key, value) in &pre_entries {
                            let _ = rt.install(table, *key, *value);
                        }
                        let audit = rt.audit_switches();
                        report.audit_clean = audit.clean();
                        report.drift_repaired = audit.repaired;
                        report.instr_churn = rollout.instr_churn;
                        report.committed = true;
                        report.tick_healed = Some(tick);
                        for t in &plan.restore {
                            monitor.mark_restored(t);
                            diagnostics.push(Diagnostic::warning(
                                codes::HEAL_RESTORED,
                                format!(
                                    "{t} restored to service at tick {tick} after a \
                                     clean probation window"
                                ),
                            ));
                        }
                        restores += plan.restore.len() as u64;
                        healer.complete(tick, &plan, true);
                        monitor.watch_output(&rec_ref.output);
                        rollouts_committed += 1;
                        diagnostics.push(Diagnostic::warning(
                            codes::HEAL_REMEDIATED,
                            format!(
                                "round {round}: remediation committed at tick {tick} \
                                 (failed [{}], restored [{}], epoch {})",
                                report.failed.join(", "),
                                report.restored.join(", "),
                                rollout.epoch
                            ),
                        ));
                        committed = true;
                    }
                    Ok(rollout) => {
                        monitor.observe_rollout(&rollout);
                        report.rolled_back = rollout.rolled_back;
                        healer.complete(tick, &plan, false);
                        rollouts_rolled_back += 1;
                        diagnostics.push(Diagnostic::warning(
                            codes::HEAL_FAILED,
                            format!(
                                "round {round}: remediation rollout did not commit at \
                                 tick {tick}; backing off and coalescing"
                            ),
                        ));
                    }
                    Err(e) => {
                        healer.complete(tick, &plan, false);
                        rollouts_rolled_back += 1;
                        diagnostics.push(Diagnostic::error(
                            codes::HEAL_FAILED,
                            format!("round {round}: remediation rollout failed: {e}"),
                        ));
                    }
                }
                report.elapsed = round_t0.elapsed();
                remediations.push(report);
                // The runtime now borrows the staged output (even a failed
                // rollout took the borrow): end the generation either way.
                snapshot = Some(Snapshot::capture(&rt));
                break;
            }

            if tick >= cfg.ticks {
                // Budget exhausted: final serving check on this runtime
                // (post-commit it already serves the newest output).
                if cfg.traffic_packets > 0 {
                    let replay_cfg = ReplayConfig::default()
                        .with_packets(cfg.traffic_packets)
                        .with_workers(cfg.workers)
                        .with_seed(cfg.health.seed ^ 0xf17a);
                    let replay = replay_compiled(&rt, &replay_cfg);
                    traffic_delivered += replay.delivered;
                    traffic_refused += replay.refused_epoch_mismatch;
                    mixed_epoch_exposure += replay.mixed_epoch_exposure;
                    worker_panics += replay.worker_panics;
                }
                let audit = rt.audit_switches();
                final_audit_clean = audit.clean();
                converged = healer.settled() && rt.epochs_coherent();
                snapshot = Some(Snapshot::capture(&rt));
            }
        }
        if committed {
            // A committed generation always staged an output.
            if let Some(rec) = staged.take() {
                *current = rec.output;
            }
        }
        if tick >= cfg.ticks {
            break 'generations;
        }
    }

    Ok(SelfHealOutcome {
        ticks: cfg.ticks,
        health: monitor.report(),
        remediations,
        recompiles,
        rollouts_committed,
        rollouts_rolled_back,
        restores,
        rate_limited_deferrals,
        mixed_epoch_exposure,
        worker_panics,
        traffic_delivered,
        traffic_refused,
        converged,
        final_audit_clean,
        diagnostics,
        elapsed: t0.elapsed(),
    })
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
        let mut monitor = HealthMonitor::new(HealthConfig::default());
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
        let mut monitor = HealthMonitor::new(HealthConfig::default());
        monitor.watch(t.clone());
        let mut chaos = ChaosChannel::new(schedule, 7);
        let mut restorable_at = None;
        for tick in 1..=40 {
            chaos.set_tick(tick);
            monitor.tick(&mut chaos);
            if restorable_at.is_none() && monitor.restorable().contains(&t) {
                restorable_at = Some(tick);
            }
        }
        let when = restorable_at.expect("target never became restorable");
        // Dead at ~7; clean from 12; probation after 8 clean; restorable
        // after 8 more — never before the full double window.
        assert!(when >= 12 + 16, "restorable too early, at tick {when}");
        monitor.mark_restored(&t);
        assert_eq!(monitor.state(&t), Some(HealthState::Healthy));
    }

    #[test]
    fn healer_rate_limits_and_coalesces() {
        let cfg = HealthConfig::default();
        let mut healer = SelfHealer::new(&cfg);
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
                op: ControlOp::Probe,
            })
        };
        assert_eq!(probe(&mut ch, "Agg3"), Delivery::Dropped);
        assert_eq!(probe(&mut ch, "Agg3~ToR3"), Delivery::Dropped);
        assert_eq!(probe(&mut ch, "Agg4~ToR3"), Delivery::Delivered);
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

    #[test]
    fn selfheal_outcome_serialises() {
        let compiler = Compiler::new();
        let req = lb_request();
        let schedule = ChaosSchedule::new().kill(3, Target::switch("Agg3"));
        let cfg = SelfHealConfig {
            ticks: 16,
            ..SelfHealConfig::default()
        };
        let outcome = run_selfheal(&compiler, &req, &[], &schedule, &cfg).unwrap();
        let json = outcome.to_json().to_pretty();
        for key in [
            "\"ticks\"",
            "\"health\"",
            "\"remediations\"",
            "\"mixed_epoch_exposure\"",
            "\"converged\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let parsed = lyra_diag::json::parse(&json).expect("session JSON must parse");
        assert!(parsed.get("health").is_some());
    }
}
