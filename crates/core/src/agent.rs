//! The switch agent: the one per-switch state machine of the rollout
//! protocol (transition table: `docs/ROBUSTNESS.md` §6 "One switch agent").
//!
//! Everything that moves a switch between epochs lives here, and the four
//! protocol fields of [`SwitchState`] are private to this module, so the
//! compiler keeps it that way. The rollout engine ([`crate::rollout`]) and
//! restart recovery ([`crate::recovery`]) are *controllers*: they decide
//! what to send and hand every delivered copy to [`deliver`]; the traffic
//! plane ([`LiveTrafficPlane`]) keeps no protocol state of its own — the
//! agent [`publish`](LiveTrafficPlane::publish)es to it whenever a
//! transition changes the epoch a switch serves.
//!
//! A refused prepare, commit or rollback still records its token: the
//! switch ruled on that message once and a replay must not get a second
//! ruling.

use std::collections::{BTreeMap, BTreeSet};

use lyra_ir::DataPlaneState;

use crate::channel::{ControlMsg, ControlOp, EntryOp};
use crate::dataplane::LiveTrafficPlane;
use crate::CompileOutput;

/// Per-switch state: the active data plane plus the two-phase bookkeeping
/// the protocol drives (staged next epoch, retained prior epoch,
/// idempotency tokens already applied).
#[derive(Debug, Clone, Default)]
pub(crate) struct SwitchState {
    /// The active (serving) data-plane state. Installs, staging and audit
    /// repairs edit tables in place; the epoch it belongs to moves only
    /// through this module.
    pub(crate) dp: DataPlaneState,
    /// The epoch the active state belongs to.
    epoch: u64,
    /// A prepared-but-uncommitted next epoch: `(epoch, state)`.
    staged: Option<(u64, DataPlaneState)>,
    /// The previous epoch retained after a commit, until the transaction
    /// settles — what a rollback restores.
    prior: Option<(u64, DataPlaneState)>,
    /// Idempotency tokens of control messages already applied; replays
    /// and network duplicates of these are acknowledged without effect.
    tokens: BTreeSet<u64>,
}

/// What a switch answers a state query with: the epoch it serves and the
/// epoch it has staged, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Held {
    pub(crate) serving: u64,
    pub(crate) staged: Option<u64>,
}

impl SwitchState {
    /// A fresh switch at `epoch` with globals sized from `output`. Clones
    /// share the zeroed arrays (copy-on-write), so a fleet of fresh
    /// switches is built by cloning one.
    pub(crate) fn fresh(output: &CompileOutput, epoch: u64) -> Self {
        let mut dp = DataPlaneState::new();
        for (global, &(_, len)) in &output.ir.globals {
            dp.global(global, len as usize);
        }
        SwitchState {
            dp,
            epoch,
            ..Default::default()
        }
    }

    /// The epoch this switch serves.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The staged-but-uncommitted epoch and its state, if any.
    pub(crate) fn staged(&self) -> Option<(u64, &DataPlaneState)> {
        self.staged.as_ref().map(|(e, dp)| (*e, dp))
    }

    /// What this switch holds, as a state query reports it.
    pub(crate) fn held(&self) -> Held {
        Held {
            serving: self.epoch,
            staged: self.staged.as_ref().map(|(e, _)| *e),
        }
    }

    /// The prior epoch retained since a commit, and its state, if any.
    pub(crate) fn prior(&self) -> Option<(u64, &DataPlaneState)> {
        self.prior.as_ref().map(|(e, dp)| (*e, dp))
    }

    /// Set the epoch tag outright and drop any staged or retained epoch:
    /// the anti-entropy repair of a regressed tag, and how a runtime
    /// rebuilt from a snapshot resumes at the epoch it was captured on.
    pub(crate) fn reset_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.staged = None;
        self.prior = None;
    }

    /// Seeded drift: the epoch tag slips back by one behind the
    /// controller's back.
    pub(crate) fn regress_epoch(&mut self) {
        self.epoch = self.epoch.saturating_sub(1);
    }

    /// Rule on one delivered message. Returns whether the serving epoch
    /// changed. The agent sees only what the message says and what the
    /// switch already knows — never the sender's intent — which is why the
    /// epoch guards exist: stale late replays must lose.
    fn apply(&mut self, msg: &ControlMsg) -> bool {
        if matches!(msg.op, ControlOp::Query) {
            // Read-only: the switch reports its liveness and epochs in the
            // ack. Records no token, so a retried copy is never suppressed.
            return false;
        }
        if !self.tokens.insert(msg.token) {
            return false; // duplicate or replay of an already-applied message
        }
        // A prepare may open only a *newer* epoch, and never clobbers a
        // staged epoch with an older one — a late prepare from a
        // rolled-back attempt must not overwrite the current stage.
        let may_open =
            msg.epoch > self.epoch && self.staged.as_ref().is_none_or(|(e, _)| msg.epoch >= *e);
        match &msg.op {
            ControlOp::PrepareDelta {
                base_epoch,
                ops,
                globals,
                batch_index: 0,
                ..
            } => {
                // The first batch opens the staged epoch from its base — an
                // O(1) copy-on-write clone of the serving state, or an empty
                // switch — with the new epoch's globals swapped in. A delta
                // against another epoch would converge on the wrong state.
                let base = match *base_epoch {
                    _ if !may_open => None,
                    None => Some(DataPlaneState::new()),
                    Some(e) => (e == self.epoch).then(|| self.dp.clone()),
                };
                if let Some(mut dp) = base {
                    dp.globals = globals.clone();
                    apply_entry_ops(&mut dp, ops);
                    self.staged = Some((msg.epoch, dp));
                }
            }
            ControlOp::PrepareDelta { ops, .. } => {
                // Later batches append to the already-open staged epoch; a
                // batch for any other epoch — a replay from a burned
                // attempt — is dropped.
                if let Some((_, dp)) = self.staged.as_mut().filter(|(e, _)| *e == msg.epoch) {
                    apply_entry_ops(dp, ops);
                }
            }
            ControlOp::Commit => {
                let ours = |(e, _): &mut (u64, _)| *e == msg.epoch && self.epoch != msg.epoch;
                if let Some((_, dp)) = self.staged.take_if(ours) {
                    let old = std::mem::replace(&mut self.dp, dp);
                    self.prior = Some((self.epoch, old));
                    self.epoch = msg.epoch;
                    return true;
                }
            }
            ControlOp::Rollback => {
                self.staged.take_if(|(e, _)| *e == msg.epoch);
                return self.revert(msg.epoch);
            }
            ControlOp::Query => {}
        }
        false
    }

    /// Back to the retained prior epoch, if this switch is serving `epoch`
    /// and still retains one. Returns whether it moved.
    fn revert(&mut self, epoch: u64) -> bool {
        if self.epoch != epoch {
            return false;
        }
        let Some((e, dp)) = self.prior.take() else {
            return false;
        };
        self.dp = dp;
        self.epoch = e;
        true
    }
}

/// Apply one batch of entry operations to a staged data-plane state.
fn apply_entry_ops(dp: &mut DataPlaneState, ops: &[EntryOp]) {
    for op in ops {
        match op {
            EntryOp::Set { table, key, value } => {
                dp.install(table, *key, *value);
            }
            EntryOp::Remove { table, key } => {
                dp.uninstall(table, *key);
            }
            EntryOp::Table { table, entries } => {
                dp.externs.insert(table.clone(), entries.clone());
            }
        }
    }
}

/// Hand a delivered control message to its switch's agent; a message to a
/// switch that no longer exists is lost on the floor. An attached traffic
/// plane is told when the switch now serves a different epoch.
pub(crate) fn deliver(
    states: &mut BTreeMap<String, SwitchState>,
    plane: Option<&LiveTrafficPlane>,
    msg: &ControlMsg,
) {
    let Some(st) = states.get_mut(&msg.switch) else {
        return;
    };
    if st.apply(msg) {
        publish(plane, &msg.switch, st);
    }
}

/// Tell an attached traffic plane that `switch` now serves another epoch.
fn publish(plane: Option<&LiveTrafficPlane>, switch: &str, st: &SwitchState) {
    if let Some(plane) = plane {
        plane.publish(switch, st);
    }
}

/// Revert one switch out-of-band (console access): the last resort when
/// even rollback messages cannot get through.
pub(crate) fn force_rollback(
    states: &mut BTreeMap<String, SwitchState>,
    plane: Option<&LiveTrafficPlane>,
    switch: &str,
    epoch: u64,
) {
    let Some(st) = states.get_mut(switch) else {
        return;
    };
    st.staged = None;
    if st.revert(epoch) {
        publish(plane, switch, st);
    }
}

/// The finalize sweep that ends every transaction: each switch drops its
/// staged epoch, its retained prior and its token log — including remnants
/// of older crashed attempts no targeted message can name. When the
/// transaction `abandoned` its epoch, a switch still serving it is
/// reverted first, and counted: after a rollback round that never happens
/// unless a transition above is wrong, so the count is reported as forced
/// rollbacks rather than swallowed.
pub(crate) fn settle(
    states: &mut BTreeMap<String, SwitchState>,
    plane: Option<&LiveTrafficPlane>,
    abandoned: Option<u64>,
) -> u64 {
    let mut reverted = 0;
    for (sw, st) in states.iter_mut() {
        if abandoned.is_some_and(|epoch| st.revert(epoch)) {
            reverted += 1;
            publish(plane, sw, st);
        }
        st.staged = None;
        st.prior = None;
        st.tokens.clear();
    }
    reverted
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_ir::ExternTable;

    fn msg(epoch: u64, token: u64, op: ControlOp) -> ControlMsg {
        ControlMsg {
            switch: "SW".into(),
            epoch,
            token,
            op,
        }
    }

    /// A prepare from an empty switch whose state is recognisable by
    /// `marker`.
    fn prepare(marker: u64) -> ControlOp {
        ControlOp::PrepareDelta {
            base_epoch: None,
            ops: vec![EntryOp::Table {
                table: "t".into(),
                entries: ExternTable::from_sorted(vec![(1, marker)]),
            }],
            globals: BTreeMap::new(),
            batch_index: 0,
            batches_total: 1,
        }
    }

    fn marker(dp: &DataPlaneState) -> Option<u64> {
        dp.externs.get("t").and_then(|t| t.get(1))
    }

    fn switch_at(epoch: u64) -> SwitchState {
        SwitchState {
            epoch,
            ..Default::default()
        }
    }

    #[test]
    fn a_prepare_opens_only_a_newer_epoch_and_never_clobbers_a_newer_stage() {
        let mut st = switch_at(5);
        assert!(!st.apply(&msg(5, 1, prepare(50))));
        assert!(st.staged().is_none(), "the serving epoch was re-staged");
        st.apply(&msg(7, 2, prepare(70)));
        st.apply(&msg(6, 3, prepare(60))); // late copy from a burned attempt
        let (epoch, staged) = st.staged().unwrap();
        assert_eq!((epoch, marker(staged)), (7, Some(70)));
        st.apply(&msg(7, 4, prepare(71))); // the same epoch may re-stage
        assert_eq!(marker(st.staged().unwrap().1), Some(71));
        assert_eq!(st.epoch(), 5, "prepares stage, they do not flip");
    }

    #[test]
    fn commit_and_rollback_act_only_on_the_epoch_they_name() {
        let mut st = switch_at(5);
        st.dp.install("t", 1, 50);
        st.apply(&msg(6, 1, prepare(60)));
        assert!(!st.apply(&msg(7, 2, ControlOp::Commit)), "wrong epoch");
        assert!(!st.apply(&msg(7, 3, ControlOp::Rollback)));
        assert_eq!(st.staged().map(|(e, _)| e), Some(6), "foreign rollback");
        assert!(st.apply(&msg(6, 4, ControlOp::Commit)));
        assert_eq!((st.epoch(), marker(&st.dp)), (6, Some(60)));
        assert_eq!(
            st.prior().map(|(e, dp)| (e, marker(dp))),
            Some((5, Some(50)))
        );
        assert!(st.staged().is_none());
        assert!(!st.apply(&msg(5, 5, ControlOp::Rollback)), "not serving 5");
        assert!(st.apply(&msg(6, 6, ControlOp::Rollback)));
        assert_eq!((st.epoch(), marker(&st.dp)), (5, Some(50)));
        assert!(st.prior().is_none());
        // Nothing retained: a second rollback has nothing to restore.
        assert!(!st.apply(&msg(6, 7, ControlOp::Rollback)));
        assert_eq!(st.epoch(), 5);
    }

    #[test]
    fn a_seen_token_gets_no_second_ruling_and_queries_record_none() {
        let mut st = switch_at(5);
        assert!(!st.apply(&msg(6, 9, ControlOp::Query)));
        st.apply(&msg(6, 9, prepare(60))); // the query did not burn token 9
        assert_eq!(st.staged().map(|(e, _)| e), Some(6));
        // A refused commit still records its token: the replay of it is
        // not ruled on again once the switch could act on it.
        assert!(!st.apply(&msg(7, 10, ControlOp::Commit)));
        st.apply(&msg(7, 11, prepare(70)));
        assert!(!st.apply(&msg(7, 10, ControlOp::Commit)));
        assert_eq!(st.epoch(), 5);
    }

    #[test]
    fn force_rollback_and_settle_revert_only_the_abandoned_epoch() {
        let mut states = BTreeMap::new();
        for (sw, flip) in [("A", true), ("B", false)] {
            let mut st = switch_at(5);
            st.apply(&msg(6, 1, prepare(60)));
            if flip {
                st.apply(&msg(6, 2, ControlOp::Commit));
            }
            states.insert(sw.to_string(), st);
        }
        force_rollback(&mut states, None, "A", 7); // not the epoch A serves
        assert_eq!(states["A"].epoch(), 6);
        force_rollback(&mut states, None, "B", 6);
        assert!(states["B"].staged().is_none(), "any staged epoch goes");
        // Settling a commit reverts nothing; settling the abandoned epoch
        // takes the one switch still serving it back, and says so.
        let mut committed = states.clone();
        assert_eq!(settle(&mut committed, None, None), 0);
        assert_eq!(committed["A"].epoch(), 6);
        assert_eq!(settle(&mut states, None, Some(6)), 1);
        for st in states.values().chain(committed.values()) {
            assert!(st.staged().is_none() && st.prior().is_none() && st.tokens.is_empty());
        }
        assert_eq!((states["A"].epoch(), states["B"].epoch()), (5, 5));
    }
}
