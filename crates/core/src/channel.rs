//! The control channel between the rollout engine and each switch.
//!
//! A transactional rollout ([`crate::rollout`]) converges a running
//! deployment onto a new placement by sending each switch four kinds of
//! [`ControlOp`]: prepare (a delta against its serving state or against an
//! empty switch), commit, rollback, and a read-only query that is also the
//! health monitor's heartbeat. Real control channels lose, delay, and
//! duplicate those messages; this module interposes a [`ControlChannel`]
//! trait that decides the *fate* of every transmission so tests can inject
//! a deterministic, seeded fault model ([`LossyChannel`]) while production
//! callers use the in-process [`ReliableChannel`].
//!
//! The channel never applies a message itself — it only rules on delivery.
//! The rollout engine applies delivered messages to the per-switch state
//! machines, which makes duplicated and late deliveries observable end to
//! end (and is exactly what the idempotency tokens on [`ControlMsg`]
//! exist to survive).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use lyra_ir::ExternTable;

/// One entry-level change in a delta prepare: the unit of a batched
/// install message. A rollout that touched 1% of a million-entry table
/// ships ~10⁴ of these instead of the 10⁶-entry table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryOp {
    /// Install or overwrite `table[key] = value` in the staged epoch.
    Set {
        /// Extern table name.
        table: String,
        /// Entry key.
        key: u64,
        /// Entry value.
        value: u64,
    },
    /// Remove `table[key]` from the staged epoch.
    Remove {
        /// Extern table name.
        table: String,
        /// Entry key.
        key: u64,
    },
    /// Install a whole table the base does not hold; in-process it shares
    /// the staged table's pages.
    Table {
        /// Extern table name.
        table: String,
        /// Every entry of the table in the staged epoch.
        entries: ExternTable,
    },
}

impl EntryOp {
    /// Estimated wire size: a one-byte opcode, the 8-byte key (and value
    /// for sets; every entry's 16 bytes for a whole table), plus the table
    /// name (amortized to a 2-byte table id on a real SDK wire; we charge
    /// the name once per op to stay conservative).
    pub fn wire_bytes(&self) -> usize {
        match self {
            EntryOp::Set { table, .. } => 1 + table.len() + 16,
            EntryOp::Remove { table, .. } => 1 + table.len() + 8,
            EntryOp::Table { table, entries } => 1 + table.len() + 16 * entries.len(),
        }
    }
}

/// The operation a control message carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlOp {
    /// Stage the next epoch as a batch of entry-level changes against a
    /// base: the switch's *serving* state, or an empty switch. Batch 0
    /// opens the staged epoch (a copy of the base with the globals
    /// replaced); later batches append to it. Each batch is its own
    /// message with its own idempotency token, so the lossy-channel fault
    /// model rules on every batch independently — exactly like a real
    /// SDK's bounded-size install RPCs.
    PrepareDelta {
        /// The serving epoch this delta was diffed against, which a switch
        /// serving any other epoch must refuse; `None` opens the staged
        /// epoch from an empty switch, whatever epoch it serves.
        base_epoch: Option<u64>,
        /// Entry-level changes, applied in order.
        ops: Vec<EntryOp>,
        /// The complete global register arrays of the new epoch, whole
        /// in batch 0 and empty afterwards. They are not small — NetCache
        /// declares 21 MB of registers per switch — so in-process they
        /// ride as shared pointers to the staged state's arrays, and
        /// [`ControlOp::wire_bytes`] still *models* their full size, as
        /// a real wire would carry it.
        globals: BTreeMap<String, Arc<Vec<u64>>>,
        /// Position of this batch in the prepare stream for this switch.
        batch_index: u32,
        /// Total batches in the stream (for acknowledgement accounting).
        batches_total: u32,
    },
    /// Flip the switch to its staged epoch and garbage-collect the old one
    /// (the old state is retained switch-side until the rollout finalizes,
    /// so a rollback can still revert).
    Commit,
    /// Abandon the staged epoch; if the switch already committed, revert
    /// to the retained prior epoch.
    Rollback,
    /// Ask the switch for its liveness, its serving epoch and any staged
    /// epoch. Read-only: it records no idempotency token. A restarted
    /// controller sends it during [`crate::Runtime::recover`] to learn how
    /// far an in-flight rollout got; the health monitor (`crate::health`)
    /// sends it as a heartbeat, so a dropped one is evidence, not state.
    Query,
}

impl ControlOp {
    /// Short wire name (for reports and logs).
    pub fn name(&self) -> &'static str {
        match self {
            ControlOp::PrepareDelta { .. } => "prepare-delta",
            ControlOp::Commit => "commit",
            ControlOp::Rollback => "rollback",
            ControlOp::Query => "query",
        }
    }

    /// True for a prepare.
    pub fn is_prepare(&self) -> bool {
        matches!(self, ControlOp::PrepareDelta { .. })
    }

    /// Estimated payload size on a real wire, in bytes. A prepare charges
    /// its ops (a whole table by its entries) plus the globals in batch 0;
    /// control-only ops are a fixed header. This is the number the bench
    /// harness tracks to prove prepare cost scales with the delta, not
    /// the state.
    pub fn wire_bytes(&self) -> usize {
        match self {
            ControlOp::PrepareDelta { ops, globals, .. } => {
                let ops: usize = ops.iter().map(|o| o.wire_bytes()).sum();
                let globals: usize = globals
                    .iter()
                    .map(|(name, arr)| name.len() + arr.len() * 8)
                    .sum();
                // base_epoch + batch_index + batches_total.
                ops + globals + 16
            }
            ControlOp::Commit | ControlOp::Rollback | ControlOp::Query => 0,
        }
    }
}

/// One control-plane message addressed to one switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlMsg {
    /// Destination switch.
    pub switch: String,
    /// The epoch this message is about (the epoch being rolled out).
    pub epoch: u64,
    /// Idempotency token, unique per logical message. Retransmissions and
    /// network duplicates reuse the token, so a switch that already
    /// applied it acknowledges without re-applying.
    pub token: u64,
    /// What to do.
    pub op: ControlOp,
}

impl ControlMsg {
    /// Estimated total wire size: a fixed header (switch id, epoch,
    /// token, opcode) plus the op payload.
    pub fn wire_bytes(&self) -> usize {
        self.switch.len() + 8 + 8 + 1 + self.op.wire_bytes()
    }
}

/// The fate of one transmission attempt, as ruled by the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered once; the acknowledgement came back.
    Delivered,
    /// Delivered twice (network duplicate); the acknowledgement came back.
    Duplicated,
    /// Never delivered; the sender times out.
    Dropped,
    /// Delivered, but the acknowledgement was lost — the switch applied
    /// the message while the sender times out and must retry. This is the
    /// case idempotency tokens exist for.
    AckLost,
}

/// Decides the fate of control messages between the rollout engine and
/// the switches. Implementations must be deterministic for a fixed seed so
/// chaos scenarios reproduce.
pub trait ControlChannel {
    /// Rule on one transmission attempt of `msg`.
    fn transmit(&mut self, msg: &ControlMsg) -> Delivery;

    /// Late (reordered) copies that are due for delivery now. The engine
    /// drains this before every transmission and applies the returned
    /// messages to the switches — their acknowledgements go nowhere, like
    /// any packet that outlived its sender's patience.
    fn drain_late(&mut self) -> Vec<ControlMsg> {
        Vec::new()
    }
}

/// A perfect channel: every message is delivered exactly once. The default
/// for in-process use ([`crate::Runtime::fail_switch`] and friends).
#[derive(Debug, Default)]
pub struct ReliableChannel;

impl ReliableChannel {
    /// A new reliable channel.
    pub fn new() -> Self {
        ReliableChannel
    }
}

impl ControlChannel for ReliableChannel {
    fn transmit(&mut self, _msg: &ControlMsg) -> Delivery {
        Delivery::Delivered
    }
}

/// Deterministic xorshift64* generator (the workspace builds offline; all
/// randomness is seeded and in-tree). Shared with the rollout engine's
/// backoff jitter.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
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

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A seeded fault-injecting channel: drops, timeouts (acknowledgement
/// loss), duplicates, late replays, and an optional mid-rollout switch
/// death. All probabilities are per transmission attempt; the same seed
/// replays the identical fault sequence.
#[derive(Debug)]
pub struct LossyChannel {
    rng: Rng,
    /// Probability the message never arrives.
    pub drop_p: f64,
    /// Probability the message arrives but its acknowledgement is lost.
    pub ack_loss_p: f64,
    /// Probability the message is delivered twice.
    pub dup_p: f64,
    /// Probability a copy of the message is also delivered *late*, after
    /// a few more transmissions (reordering).
    pub late_p: f64,
    /// `(switch, after_n_messages)` — the switch stops answering entirely
    /// once this many messages (to anyone) have been transmitted. Models a
    /// switch dying in the middle of a rollout.
    kill: Option<(String, u64)>,
    /// Pending late copies: `(deliveries_remaining, message)`.
    late: VecDeque<(u64, ControlMsg)>,
    sent: u64,
}

impl LossyChannel {
    /// A lossless channel with the given seed; layer faults on with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> Self {
        LossyChannel {
            rng: Rng::new(seed),
            drop_p: 0.0,
            ack_loss_p: 0.0,
            dup_p: 0.0,
            late_p: 0.0,
            kill: None,
            late: VecDeque::new(),
            sent: 0,
        }
    }

    /// Set the message-drop probability.
    pub fn with_drop_p(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Set the acknowledgement-loss probability.
    pub fn with_ack_loss_p(mut self, p: f64) -> Self {
        self.ack_loss_p = p;
        self
    }

    /// Set the duplicate-delivery probability.
    pub fn with_dup_p(mut self, p: f64) -> Self {
        self.dup_p = p;
        self
    }

    /// Set the late-replay probability.
    pub fn with_late_p(mut self, p: f64) -> Self {
        self.late_p = p;
        self
    }

    /// Kill `switch` after `after` total transmissions: every later
    /// message to it is dropped, as if the switch died mid-rollout.
    pub fn with_switch_death(mut self, switch: impl Into<String>, after: u64) -> Self {
        self.kill = Some((switch.into(), after));
        self
    }

    /// Total transmission attempts ruled on so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn switch_dead(&self, switch: &str) -> bool {
        self.kill
            .as_ref()
            .is_some_and(|(s, after)| s == switch && self.sent > *after)
    }
}

impl ControlChannel for LossyChannel {
    fn transmit(&mut self, msg: &ControlMsg) -> Delivery {
        self.sent += 1;
        if self.switch_dead(&msg.switch) {
            return Delivery::Dropped;
        }
        if self.rng.next_f64() < self.late_p {
            let countdown = 1 + self.rng.below(5);
            self.late.push_back((countdown, msg.clone()));
        }
        if self.rng.next_f64() < self.drop_p {
            return Delivery::Dropped;
        }
        if self.rng.next_f64() < self.ack_loss_p {
            return Delivery::AckLost;
        }
        if self.rng.next_f64() < self.dup_p {
            return Delivery::Duplicated;
        }
        Delivery::Delivered
    }

    fn drain_late(&mut self) -> Vec<ControlMsg> {
        let mut due = Vec::new();
        for (countdown, _) in self.late.iter_mut() {
            *countdown = countdown.saturating_sub(1);
        }
        while matches!(self.late.front(), Some((0, _))) {
            let Some((_, msg)) = self.late.pop_front() else {
                break; // front was just checked; defensive rather than panicking
            };
            // A late copy to a dead switch is lost like everything else.
            if !self.switch_dead(&msg.switch) {
                due.push(msg);
            }
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(switch: &str, token: u64) -> ControlMsg {
        ControlMsg {
            switch: switch.into(),
            epoch: 1,
            token,
            op: ControlOp::Commit,
        }
    }

    #[test]
    fn reliable_always_delivers() {
        let mut ch = ReliableChannel::new();
        for t in 0..10 {
            assert_eq!(ch.transmit(&msg("S", t)), Delivery::Delivered);
        }
        assert!(ch.drain_late().is_empty());
    }

    #[test]
    fn lossy_is_deterministic_for_a_seed() {
        let run = |seed: u64| -> Vec<Delivery> {
            let mut ch = LossyChannel::new(seed)
                .with_drop_p(0.3)
                .with_ack_loss_p(0.2)
                .with_dup_p(0.2);
            (0..64).map(|t| ch.transmit(&msg("S", t))).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn dead_switch_drops_everything_after_the_cut() {
        let mut ch = LossyChannel::new(7).with_switch_death("S", 3);
        let fates: Vec<Delivery> = (0..8).map(|t| ch.transmit(&msg("S", t))).collect();
        assert!(fates[..3].iter().all(|d| *d == Delivery::Delivered));
        assert!(fates[3..].iter().all(|d| *d == Delivery::Dropped));
        // Other switches are unaffected.
        assert_eq!(ch.transmit(&msg("T", 99)), Delivery::Delivered);
    }

    #[test]
    fn wire_bytes_charge_delta_by_ops_and_snapshot_by_state() {
        // A snapshot is a prepare from an empty switch that ships each
        // table whole; it is charged by the entries it carries.
        let entries = ExternTable::from_sorted((0..10_000u64).map(|k| (k, k)).collect());
        let prepare = |base_epoch, ops| ControlOp::PrepareDelta {
            base_epoch,
            ops,
            globals: BTreeMap::new(),
            batch_index: 0,
            batches_total: 1,
        };
        let snapshot = prepare(
            None,
            vec![EntryOp::Table {
                table: "t".into(),
                entries,
            }],
        );
        let delta = prepare(
            Some(1),
            (0..100u64)
                .map(|k| EntryOp::Set {
                    table: "t".into(),
                    key: k,
                    value: k,
                })
                .collect(),
        );
        assert_eq!(snapshot.wire_bytes(), 1 + 1 + 10_000 * 16 + 16);
        assert!(delta.wire_bytes() < snapshot.wire_bytes() / 50);
        assert_eq!(ControlOp::Commit.wire_bytes(), 0);
    }

    #[test]
    fn late_copies_surface_after_a_few_sends() {
        let mut ch = LossyChannel::new(11).with_late_p(1.0);
        let original = msg("S", 0);
        ch.transmit(&original);
        let mut seen = Vec::new();
        for t in 1..16 {
            seen.extend(ch.drain_late());
            ch.transmit(&msg("S", t));
        }
        seen.extend(ch.drain_late());
        assert!(
            seen.iter().any(|m| m.token == original.token),
            "the late copy of token 0 never surfaced"
        );
    }
}
