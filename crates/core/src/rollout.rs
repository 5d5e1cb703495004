//! Transactional placement rollout: two-phase control-plane updates.
//!
//! Applying a recompiled placement ([`crate::fault::FaultRecompile`]) to a
//! live [`Runtime`] with independent `install` calls has no atomicity — a
//! failure halfway leaves the network matching *neither* placement. This
//! module converges a deployment onto a new [`CompileOutput`] as a
//! transaction:
//!
//! ```text
//!            ┌───────── per switch ─────────┐
//!  idle ──▶ prepare (stage epoch N+1) ──▶ commit (flip to N+1, keep N)
//!    ▲          │ exhausted                   │ exhausted
//!    │          ▼                             ▼
//!    └────── rollback (abandon N+1; committed switches revert to N)
//! ```
//!
//! * **Prepare** stages each switch's next-epoch table state (validated
//!   against shard capacity and, when provided, scope health) as a delta
//!   against what it serves, without touching the serving state.
//! * **Commit** flips each switch to its staged epoch; the old state is
//!   retained switch-side until the rollout finalizes, so a later failure
//!   can still revert it.
//! * Any failure triggers **rollback to the prior epoch** on every switch
//!   — with a 4× retry budget, and a forced out-of-band revert as the
//!   last resort (counted in [`RolloutReport::forced_rollbacks`]) — so the
//!   deployment is always *entirely* on the old placement or *entirely* on
//!   the new one, never mixed. [`Runtime::inject`] enforces the same
//!   invariant at the data plane by refusing mixed-epoch paths.
//!
//! Messages travel through a fault-injectable [`ControlChannel`] with
//! bounded retry, exponential backoff and seeded jitter; idempotency
//! tokens make retransmissions, network duplicates and late replays safe.
//! Epoch numbers are *burned* on rollback (never reused), so a stale
//! message from an abandoned attempt can never corrupt a later one.
//!
//! The transaction is one plain-data `Txn`, advanced by one pure step that
//! takes what the last action returned and decides the next: journal a
//! record, send an op to a switch with a budget (its intent journaled
//! first), revert a switch out-of-band, or conclude. Crash points are
//! positions around journal records and the conclusion. `Runtime::drive`
//! carries the actions out; it is the only code that touches the channel,
//! the intent log, the crash plan, the clock and the switch agents
//! (`crate::agent`, the one per-switch state machine). A placement rollout
//! and a failover re-sync ([`Runtime::fail_switch`] / [`Runtime::fail_link`],
//! staged from the shards the switches already serve) start the machine at
//! its `begin` record; restart recovery ([`crate::recovery`]) at its state
//! queries, with the journaled tokens and decision. All of them report a
//! [`RolloutReport`].

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lyra_diag::json::{Object, Value};
use lyra_diag::{codes, Diagnostic};
use lyra_ir::{DataPlaneState, ExternTable};
use lyra_topo::ScopeHealth;

use crate::agent::{deliver, force_rollback, settle, Held, SwitchState};
use crate::channel::{
    ControlChannel, ControlMsg, ControlOp, Delivery, EntryOp, ReliableChannel, Rng,
};
use crate::dataplane::LiveTrafficPlane;
use crate::runtime::{stage_layout, Runtime, RuntimeError};
use crate::CompileOutput;

/// Tuning knobs for one rollout: retry budget, backoff shape, jitter seed,
/// and an optional scope-health gate.
#[derive(Debug, Clone)]
pub struct RolloutConfig {
    /// Transmission attempts per control message before giving up
    /// (rollback messages get 4× this budget — abandoning a rollback is
    /// worse than abandoning a rollout).
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for backoff jitter (mixed with the epoch, so retries of
    /// successive rollouts do not synchronize).
    pub seed: u64,
    /// Per-algorithm scope health under the fault set being rolled out
    /// (from [`crate::fault::FaultRecompile::scope_health`]). Any
    /// non-survivable entry gates the rollout with `LYR0564` before a
    /// single message is sent. Empty = no gate.
    pub scope_health: BTreeMap<String, ScopeHealth>,
    /// Controller-crash injection: when set, the rollout aborts with
    /// `LYR0570` at the planned point, leaving the switches and the
    /// intent log exactly as they were — [`crate::Runtime::recover`]
    /// must then finish the transaction. `None` = never crash.
    pub crash: Option<CrashPlan>,
    /// Force every prepare to carry every table whole from an empty
    /// switch, even where a delta would do. The escape hatch for operators
    /// who distrust a switch's held state, and the bench baseline that the
    /// O(delta) path is measured against.
    pub force_snapshot: bool,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        RolloutConfig {
            max_attempts: 8,
            base_backoff: Duration::from_micros(20),
            max_backoff: Duration::from_millis(1),
            seed: 1,
            scope_health: BTreeMap::new(),
            crash: None,
            force_snapshot: false,
        }
    }
}

impl RolloutConfig {
    /// Gate this rollout on the given per-algorithm scope health.
    pub fn with_scope_health(mut self, health: BTreeMap<String, ScopeHealth>) -> Self {
        self.scope_health = health;
        self
    }

    /// Set the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Inject a controller crash at the planned point (chaos testing).
    pub fn with_crash(mut self, plan: CrashPlan) -> Self {
        self.crash = Some(plan);
        self
    }

    /// Force from-empty prepares (disable the O(delta) path).
    pub fn with_force_snapshot(mut self, force: bool) -> Self {
        self.force_snapshot = force;
        self
    }
}

// ---------------------------------------------------------------------------
// Write-ahead intent log
// ---------------------------------------------------------------------------

/// One record of the write-ahead intent log.
///
/// The rollout engine journals every decision and idempotency token
/// *before* the corresponding [`ControlChannel`] send, so a controller
/// crash between journal and wire is indistinguishable from a dropped
/// message — which the tokens already make safe to re-drive. After a
/// restart, [`crate::Runtime::recover`] replays these records to find the
/// in-flight rollout, its decision point, and the tokens it was using.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntentRecord {
    /// A rollout began: the epoch was allocated and the target set chosen;
    /// nothing has been sent yet.
    Begin {
        /// The epoch being rolled out.
        epoch: u64,
        /// The epoch that was serving when the rollout began (what a
        /// rollback restores).
        prior_epoch: u64,
        /// Every switch the transaction touches.
        targets: Vec<String>,
    },
    /// The controller is about to transmit one control message.
    Sent {
        /// The epoch the message is about.
        epoch: u64,
        /// Destination switch.
        switch: String,
        /// Idempotency token the message carries. Recovery re-drives the
        /// same logical message with the same token, so a switch that
        /// already applied it before the crash acknowledges without
        /// re-applying.
        token: u64,
        /// Wire name of the operation (`prepare-delta` / `commit` / `rollback`).
        op: String,
    },
    /// The controller decided the transaction's outcome (journaled before
    /// the first message of the corresponding phase).
    Decision {
        /// The in-flight epoch.
        epoch: u64,
        /// `true` = commit everywhere; `false` = roll everything back.
        commit: bool,
    },
    /// The rollout — or its restart recovery — finalized.
    End {
        /// The epoch that finalized.
        epoch: u64,
        /// `true` = the epoch committed; `false` = it was rolled back
        /// (and burned).
        committed: bool,
    },
}

impl IntentRecord {
    /// The epoch this record is about.
    pub fn epoch(&self) -> u64 {
        match self {
            IntentRecord::Begin { epoch, .. }
            | IntentRecord::Sent { epoch, .. }
            | IntentRecord::Decision { epoch, .. }
            | IntentRecord::End { epoch, .. } => *epoch,
        }
    }

    /// The named crash points just before and just after this record is
    /// journaled; a committed `end`'s sits before the switches settle. A
    /// journaled send is followed by [`CrashPlan::after_sends`] instead.
    pub fn crash_points(&self) -> [Option<CrashPoint>; 2] {
        use CrashPoint::*;
        match *self {
            Self::Begin { .. } => [None, Some(BeforePrepare)],
            Self::Sent { .. } => [None, None],
            Self::Decision { commit: true, .. } => [Some(AfterPrepare), Some(AfterCommitDecision)],
            Self::Decision { commit: false, .. } => [None, Some(AfterRollbackDecision)],
            Self::End { committed, .. } => [committed.then_some(BeforeFinalize), None],
        }
    }

    /// Serialize as one JSON object — one line of the file-backed log.
    pub fn to_json(&self) -> Value {
        let mut o = Object::new();
        let t = match self {
            IntentRecord::Begin { .. } => "begin",
            IntentRecord::Sent { .. } => "sent",
            IntentRecord::Decision { .. } => "decision",
            IntentRecord::End { .. } => "end",
        };
        o.push("t", Value::str(t));
        o.push("epoch", Value::Number(self.epoch() as f64));
        match self {
            IntentRecord::Begin {
                prior_epoch,
                targets,
                ..
            } => {
                o.push("prior_epoch", Value::Number(*prior_epoch as f64));
                let targets = targets.iter().map(|s| Value::str(s.clone())).collect();
                o.push("targets", Value::Array(targets));
            }
            IntentRecord::Sent {
                switch, token, op, ..
            } => {
                o.push("switch", Value::str(switch.clone()));
                // A decimal string: tokens reach 2⁶⁴ − 1, and a JSON number
                // (an f64) rounds every token above 2⁵³.
                o.push("token", Value::String(token.to_string()));
                o.push("op", Value::str(op.clone()));
            }
            IntentRecord::Decision { commit, .. } => o.push("commit", Value::Bool(*commit)),
            IntentRecord::End { committed, .. } => o.push("committed", Value::Bool(*committed)),
        }
        Value::Object(o)
    }

    /// Parse a record serialized by [`IntentRecord::to_json`]. `None` on
    /// any unknown or malformed shape (a torn tail line after a crash).
    pub fn from_json(v: &Value) -> Option<IntentRecord> {
        let num = |k: &str| v.get(k).and_then(|x| x.as_number()).map(|n| n as u64);
        let epoch = num("epoch")?;
        match v.get("t")?.as_str()? {
            "begin" => Some(IntentRecord::Begin {
                epoch,
                prior_epoch: num("prior_epoch")?,
                targets: v
                    .get("targets")?
                    .as_array()?
                    .iter()
                    .map(|s| s.as_str().map(str::to_string))
                    .collect::<Option<Vec<String>>>()?,
            }),
            "sent" => Some(IntentRecord::Sent {
                epoch,
                switch: v.get("switch")?.as_str()?.to_string(),
                token: v.get("token")?.as_str()?.parse().ok()?,
                op: v.get("op")?.as_str()?.to_string(),
            }),
            "decision" => Some(IntentRecord::Decision {
                epoch,
                commit: v.get("commit")?.as_bool()?,
            }),
            "end" => Some(IntentRecord::End {
                epoch,
                committed: v.get("committed")?.as_bool()?,
            }),
            _ => None,
        }
    }
}

/// A durable, append-only store for the write-ahead intent log.
///
/// Implementations must make [`IntentStore::append`] durable before
/// returning — the rollout engine journals before every send, and
/// recovery correctness rests on the journal never lagging the wire. An
/// append error halts the rollout as a crash would (`LYR0577`), because
/// an un-journaled send could not be recovered.
pub trait IntentStore {
    /// Durably append one record.
    fn append(&mut self, record: &IntentRecord) -> Result<(), RuntimeError>;

    /// Read every record back, oldest first. Fails with `LYR0574` when
    /// the log is unreadable or holds a torn non-tail record.
    fn load(&self) -> Result<Vec<IntentRecord>, RuntimeError>;
}

/// In-memory [`IntentStore`] with injectable append faults, for chaos
/// tests (a store whose disk "fails" mid-rollout).
#[derive(Debug, Clone, Default)]
pub struct MemIntentStore {
    records: Vec<IntentRecord>,
    appends: u64,
    fail_after: Option<u64>,
}

impl MemIntentStore {
    /// An empty, never-failing store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store whose appends succeed `n` times and then fail with
    /// `LYR0577` forever (injected store fault).
    pub fn failing_after(n: u64) -> Self {
        MemIntentStore {
            fail_after: Some(n),
            ..Self::default()
        }
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl IntentStore for MemIntentStore {
    fn append(&mut self, record: &IntentRecord) -> Result<(), RuntimeError> {
        self.appends += 1;
        if self.fail_after.is_some_and(|n| self.appends > n) {
            return Err(RuntimeError::new(
                "intent store append failed (injected fault)".to_string(),
            )
            .with_code(codes::INTENT_STORE_IO));
        }
        self.records.push(record.clone());
        Ok(())
    }

    fn load(&self) -> Result<Vec<IntentRecord>, RuntimeError> {
        Ok(self.records.clone())
    }
}

/// File-backed [`IntentStore`]: one JSON record per line, append-only,
/// synced per append. A torn *tail* line (the crash cut a record short)
/// is tolerated on load — exactly like a real write-ahead log — and cut
/// off before the next append; a torn record followed by intact ones
/// means corruption (`LYR0574`).
#[derive(Debug, Clone)]
pub struct FileIntentStore {
    path: PathBuf,
}

impl FileIntentStore {
    /// Use (creating on first append if absent) the log at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Self {
        FileIntentStore { path: path.into() }
    }
}

/// One line of the file-backed log as a record (`None` when torn).
fn parse_line(line: &str) -> Option<IntentRecord> {
    lyra_diag::json::parse(line)
        .ok()
        .as_ref()
        .and_then(IntentRecord::from_json)
}

/// Make `f` hold exactly the records [`FileIntentStore::load`] returns,
/// ending on a newline, before anything is appended after them. A crash
/// can leave the last line unterminated: a whole record gets its newline,
/// a torn one is cut back to the last complete line. Appending after
/// either would glue the new record onto it.
fn end_on_a_record(f: &mut std::fs::File) -> std::io::Result<()> {
    if f.metadata()?.len() == 0 {
        return Ok(());
    }
    let mut last = [0u8];
    f.seek(SeekFrom::End(-1))?;
    f.read_exact(&mut last)?;
    if last == *b"\n" {
        return Ok(());
    }
    let mut text = Vec::new();
    f.seek(SeekFrom::Start(0))?;
    f.read_to_end(&mut text)?;
    let tail = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    match std::str::from_utf8(&text[tail..]).ok().and_then(parse_line) {
        Some(_) => f.write_all(b"\n"),
        None => f.set_len(tail as u64),
    }
}

impl IntentStore for FileIntentStore {
    fn append(&mut self, record: &IntentRecord) -> Result<(), RuntimeError> {
        let io_err = |e: std::io::Error| {
            RuntimeError::new(format!(
                "intent log `{}`: append failed: {e}",
                self.path.display()
            ))
            .with_code(codes::INTENT_STORE_IO)
        };
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&self.path)
            .map_err(io_err)?;
        end_on_a_record(&mut f).map_err(io_err)?;
        let mut line = record.to_json().to_pretty();
        line.retain(|c| c != '\n');
        writeln!(f, "{line}").map_err(io_err)?;
        f.sync_data().map_err(io_err)?;
        Ok(())
    }

    fn load(&self) -> Result<Vec<IntentRecord>, RuntimeError> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => {
                return Err(RuntimeError::new(format!(
                    "intent log `{}`: unreadable: {e}",
                    self.path.display()
                ))
                .with_code(codes::INTENT_LOG_CORRUPT))
            }
        };
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut records = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match parse_line(line) {
                Some(r) => records.push(r),
                // The crash can cut the *last* record short; anything
                // torn earlier means the log cannot be trusted.
                None if i + 1 == lines.len() => break,
                None => {
                    return Err(RuntimeError::new(format!(
                        "intent log `{}`: torn record at line {} (not the tail); \
                         the log cannot be trusted",
                        self.path.display(),
                        i + 1
                    ))
                    .with_code(codes::INTENT_LOG_CORRUPT))
                }
            }
        }
        Ok(records)
    }
}

// ---------------------------------------------------------------------------
// Controller crash injection
// ---------------------------------------------------------------------------

/// A named position of the rollout transaction, next to a journal record
/// or the conclusion, where a [`CrashPlan`] can kill the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After the `Begin` record is journaled, before any message is sent.
    BeforePrepare,
    /// After every prepare was acknowledged, before the commit decision
    /// is journaled.
    AfterPrepare,
    /// After the commit decision is journaled, before the first commit
    /// message is sent.
    AfterCommitDecision,
    /// After every commit was acknowledged, before the rollout finalizes
    /// (retained prior epochs and tokens not yet dropped).
    BeforeFinalize,
    /// After a rollback decision is journaled, before the first rollback
    /// message is sent.
    AfterRollbackDecision,
}

impl CrashPoint {
    /// Every named point, in transaction order — chaos sweeps iterate this.
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::BeforePrepare,
        CrashPoint::AfterPrepare,
        CrashPoint::AfterCommitDecision,
        CrashPoint::BeforeFinalize,
        CrashPoint::AfterRollbackDecision,
    ];
}

/// [`LossyChannel`](crate::channel::LossyChannel)-style controller-crash
/// injection: kills the controller at a planned point inside
/// [`crate::Runtime::apply_rollout`]. The rollout aborts with `LYR0570`,
/// leaving the switches and the intent log exactly as the crash found
/// them; [`crate::Runtime::recover`] must then finish the transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashPlan {
    at: Option<CrashPoint>,
    after_sends: Option<u64>,
}

impl CrashPlan {
    /// Crash at the named transaction point.
    pub fn at(point: CrashPoint) -> Self {
        CrashPlan {
            at: Some(point),
            after_sends: None,
        }
    }

    /// Crash immediately after the `n`-th (1-based) message intent is
    /// journaled, before that message reaches the wire. Varying `n`
    /// sweeps every mid-phase point of the transaction.
    pub fn after_sends(n: u64) -> Self {
        CrashPlan {
            at: None,
            after_sends: Some(n.max(1)),
        }
    }
}

/// What one switch experienced during a rollout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchRollout {
    /// Switch name.
    pub switch: String,
    /// Wall-clock spent in the prepare phase (including retries).
    pub prepare: Duration,
    /// Wall-clock spent in the commit phase (including retries).
    pub commit: Duration,
    /// Retransmissions this switch needed across both phases.
    pub retries: u64,
    /// Logical entries the new epoch adds on this switch.
    pub entries_added: u64,
    /// Logical entries the new epoch removes from this switch.
    pub entries_removed: u64,
    /// Entries whose key survives but whose value changes — counted apart
    /// from adds/removes so a value-only update is neither invisible in
    /// the report nor dropped from the wire delta.
    pub entries_modified: u64,
}

/// The outcome of one transaction — a live rollout, a failover re-sync, or
/// a restart recovery ([`Runtime::recover`]): exactly one of
/// [`RolloutReport::committed`] / [`RolloutReport::rolled_back`] is set
/// (both false only when nothing was in flight), plus per-switch phase
/// timings and channel-level fault counters.
#[derive(Debug, Clone, Default)]
pub struct RolloutReport {
    /// The epoch this transaction tried to install (burned if rolled back;
    /// 0 for a recovery that found nothing in flight).
    pub epoch: u64,
    /// A transaction was driven to an outcome: false for a no-op, and for a
    /// recovery that found no crashed rollout in the journal or switches.
    pub in_flight: bool,
    /// Every switch flipped to the new epoch.
    pub committed: bool,
    /// The transaction failed and every switch is back on the prior epoch.
    pub rolled_back: bool,
    /// Switches reverted out-of-band because even the rollback message
    /// budget was exhausted (the last-resort path that preserves the
    /// all-or-nothing invariant) — or because the final sweep still found
    /// them serving the abandoned epoch, which no fault schedule should
    /// produce.
    pub forced_rollbacks: u64,
    /// Intent-log records a recovery replayed.
    pub replayed_records: usize,
    /// Recovery state queries that went unanswered, or found their switch
    /// gone (each forces the rollback outcome, `LYR0573`).
    pub query_failures: u64,
    /// Transmission attempts across all messages and phases.
    pub messages_sent: u64,
    /// Retransmissions (attempts beyond the first per logical message).
    pub retries: u64,
    /// Attempts the channel dropped outright.
    pub dropped: u64,
    /// Attempts delivered whose acknowledgement was lost (the switch
    /// applied the message; the sender retried anyway).
    pub ack_lost: u64,
    /// Attempts delivered twice by the channel.
    pub duplicates: u64,
    /// Estimated wire payload of every prepare message of this rollout
    /// (counted once per logical message; retransmissions do not
    /// multiply it). Delta-based prepares make this scale with what
    /// changed, not with total table state.
    pub prepare_bytes: u64,
    /// Switches prepared with a delta (add/remove/modify records against
    /// their serving state).
    pub delta_prepares: u64,
    /// Switches prepared from an empty switch, every table whole — under
    /// [`RolloutConfig::force_snapshot`], or for a switch off the prior
    /// epoch when its prepare was sent.
    pub snapshot_prepares: u64,
    /// Logical entries staging handed to the first-fit planner: those some
    /// surviving flow path had lost sight of. Everything else stayed in the
    /// shard it was in. A count, not a time — the deterministic form of
    /// "staging is O(moved entries)".
    pub entries_planned: u64,
    /// Keys staging's per-table merges visited to find those entries. A
    /// table with one replica group on every surviving path is not walked,
    /// so re-syncing a replicated table after one replica dies visits
    /// none, however many entries it holds.
    pub keys_walked: u64,
    /// Per-switch phase record.
    pub switches: Vec<SwitchRollout>,
    /// Structured diagnostics (LYR056x) describing any failure and the
    /// rollback, in occurrence order.
    pub diagnostics: Vec<Diagnostic>,
    /// Wall clock spent before the first prepare message: staging the
    /// next-epoch layout and diffing it against the serving state. Part of
    /// [`RolloutReport::elapsed`].
    pub stage: Duration,
    /// End-to-end wall clock: stage + prepare + commit + finalize.
    pub elapsed: Duration,
}

impl RolloutReport {
    /// Switches that gained at least one entry — what a failover re-sync
    /// reports as "re-synced onto".
    pub fn resynced(&self) -> Vec<String> {
        self.switches
            .iter()
            .filter(|s| s.entries_added > 0)
            .map(|s| s.switch.clone())
            .collect()
    }
}

/// One switch's diff between its serving state and a staged next epoch:
/// the wire operations that turn the former into the latter, with adds,
/// removes and value-only modifications counted apart (conflating a value
/// rewrite with either under-counts churn and drops it from the delta).
#[derive(Debug, Clone, Default)]
struct SwitchDelta {
    ops: Vec<EntryOp>,
    added: u64,
    removed: u64,
    modified: u64,
}

/// Diff two per-switch data-plane states: a table `current` lacks ships
/// whole, sharing `next`'s pages, the rest through
/// [`ExternTable::for_each_delta`]. The cost is O(pages + changed entries)
/// when `next` was derived from `current` by copy-on-write mutation — the
/// common staged-epoch case — never worse than one sorted merge.
fn entry_delta(current: &DataPlaneState, next: &DataPlaneState) -> SwitchDelta {
    let mut d = SwitchDelta::default();
    let empty = ExternTable::new();
    let tables: BTreeSet<&String> = current.externs.keys().chain(next.externs.keys()).collect();
    for table in tables {
        let target = next.externs.get(table).unwrap_or(&empty);
        let Some(base) = current.externs.get(table) else {
            d.added += target.len() as u64;
            let (table, entries) = (table.clone(), target.clone());
            d.ops.push(EntryOp::Table { table, entries });
            continue;
        };
        base.for_each_delta(target, |key, old, new| {
            match (old, new) {
                (None, Some(_)) => d.added += 1,
                (Some(_), Some(_)) => d.modified += 1,
                (Some(_), None) => d.removed += 1,
                (None, None) => return,
            }
            let table = table.clone();
            d.ops.push(match new {
                Some(value) => EntryOp::Set { table, key, value },
                None => EntryOp::Remove { table, key },
            });
        });
    }
    d
}

/// Entry operations per [`ControlOp::PrepareDelta`] batch. Bounds the
/// per-message payload so the lossy-channel fault model (drop, duplicate,
/// late replay — ruled per transmission) applies at a realistic message
/// granularity instead of one arbitrarily large frame per switch.
const DELTA_BATCH_OPS: usize = 4096;

/// Split one switch's delta into batched prepare operations, pushed onto
/// `out` last batch first. Batch 0 carries the staged epoch's complete
/// globals map — globals are replaced wholesale, not diffed, and the
/// message shares the staged arrays rather than copying them. An empty
/// delta still produces batch 0, so an untouched switch opens the staged
/// epoch and takes part in the commit.
fn delta_batches(
    base_epoch: Option<u64>,
    mut ops: Vec<EntryOp>,
    globals: &BTreeMap<String, Arc<Vec<u64>>>,
    out: &mut Vec<ControlOp>,
) {
    let batches_total = ops.len().div_ceil(DELTA_BATCH_OPS).max(1) as u32;
    for batch_index in (0..batches_total).rev() {
        let (ops, globals) = match batch_index {
            0 => (std::mem::take(&mut ops), globals.clone()),
            i => (ops.split_off(i as usize * DELTA_BATCH_OPS), BTreeMap::new()),
        };
        out.push(ControlOp::PrepareDelta {
            base_epoch,
            ops,
            globals,
            batch_index,
            batches_total,
        });
    }
}

/// Mint the idempotency token for message `seq` (1-based) of `epoch`:
/// `(epoch << 32) | seq`. Each half gets a full 32 bits; overflowing
/// either is a hard controller error (`LYR0590`) rather than a silent
/// collision with another epoch's tokens, which a switch would swallow as
/// a duplicate.
pub(crate) fn mint_token(epoch: u64, seq: u64) -> Result<u64, RuntimeError> {
    if epoch > u64::from(u32::MAX) || seq > u64::from(u32::MAX) {
        return Err(RuntimeError::new(format!(
            "idempotency token space exhausted: epoch {epoch} / message sequence {seq} \
             do not fit the (epoch << 32) | seq token split"
        ))
        .with_code(codes::TOKEN_OVERFLOW));
    }
    Ok((epoch << 32) | seq)
}

// ---------------------------------------------------------------------------
// The transaction machine
// ---------------------------------------------------------------------------

/// What one send came back with: acknowledged within its budget or not,
/// after how many attempts, and the wall clock since the previous send
/// ended (its journaling, retries and backoff included).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sent {
    pub(crate) acked: bool,
    pub(crate) attempts: u32,
    pub(crate) elapsed: Duration,
}

/// One thing a transaction asks of the world.
#[derive(Debug)]
pub(crate) enum Action {
    /// Append a record to the intent log.
    Journal(IntentRecord),
    /// Journal `intent`, if any (write-ahead: a crash finds the token), then
    /// send `msg` until it is acknowledged or `attempts` are spent.
    Send {
        msg: ControlMsg,
        attempts: u32,
        intent: Option<IntentRecord>,
    },
    /// Revert a switch out-of-band: even its rollback budget was spent.
    Revert(String),
    /// Settle every switch on the epoch that won, serve it, journal `End`.
    Conclude { committed: bool },
}

impl Action {
    /// The named crash points passed before this action is carried out and
    /// once it is done ([`IntentRecord::crash_points`]); a conclusion is
    /// carried out before its `end` is journaled.
    pub(crate) fn crash_points(&self) -> [Option<CrashPoint>; 2] {
        match *self {
            Action::Journal(ref record) => record.crash_points(),
            Action::Conclude { committed } => {
                let epoch = 0; // any: the points do not depend on it
                [
                    IntentRecord::End { epoch, committed }.crash_points()[0],
                    None,
                ]
            }
            _ => [None, None],
        }
    }
}

/// The round a transaction is in; all but `Begin` walk the targets in order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Round {
    Begin,
    Prepare,
    #[default]
    Query,
    Commit,
    Rollback,
    Done,
}

/// One target's next epoch as staged: the state, its diff against the
/// serving state, and whether the serving state may be that diff's base
/// (not under [`RolloutConfig::force_snapshot`]).
#[derive(Debug, Default)]
pub(crate) struct Staged {
    pub(crate) state: DataPlaneState,
    pub(crate) delta: Vec<EntryOp>,
    pub(crate) trusted: bool,
}

/// One transaction as plain data — a live rollout, a failover re-sync or a
/// restart recovery — advanced only by [`Txn::step`]. A live rollout starts
/// at its `begin` record; a recovery at its state queries, with the tokens and
/// the decision the crashed controller journaled. Both then run the same
/// commit round, rollback round and conclusion.
#[derive(Default)]
pub(crate) struct Txn {
    pub(crate) epoch: u64,
    /// The epoch a rollback restores.
    pub(crate) prior_epoch: u64,
    pub(crate) targets: Vec<String>,
    /// The round, and the target it is at.
    round: Round,
    at: usize,
    /// Transmissions per message; a rollback message gets 4×.
    attempts: u32,
    /// Per target, what its prepares are built from (live only).
    staged: Vec<Staged>,
    /// The current target's prepare batches not yet sent, last first.
    batches: Vec<ControlOp>,
    /// Where idempotency tokens come from: the highest sequence number
    /// journaled or minted so far, and `(switch, op name, token)` of every
    /// message journaled before a crash, oldest first. A recovery re-drives
    /// a journaled message with its latest token, so a switch that applied
    /// it before the crash acknowledges without re-applying, and mints past
    /// every journaled token otherwise, so a fresh one never collides.
    seq: u64,
    logged: Vec<(String, String, u64)>,
    /// The decision a recovery found journaled: commit (`true`) or roll
    /// back.
    decision: Option<bool>,
    /// No queried target failed to confirm the epoch.
    confirmed: bool,
    recovering: bool,
    pub(crate) report: RolloutReport,
}

impl Txn {
    /// A transaction from `prior_epoch` to `report.epoch`, at its queries.
    fn new(prior_epoch: u64, targets: Vec<String>, attempts: u32, report: RolloutReport) -> Self {
        Txn {
            epoch: report.epoch,
            prior_epoch,
            targets,
            attempts,
            confirmed: true,
            report: RolloutReport {
                in_flight: true,
                ..report
            },
            ..Default::default()
        }
    }

    /// A live rollout of `staged` (in target order) from `prior_epoch` to
    /// `report.epoch`; `report` carries what staging measured.
    pub(crate) fn rollout(
        prior_epoch: u64,
        targets: Vec<String>,
        staged: Vec<Staged>,
        attempts: u32,
        report: RolloutReport,
    ) -> Self {
        let mut tx = Txn::new(prior_epoch, targets, attempts, report);
        (tx.round, tx.staged) = (Round::Begin, staged);
        tx
    }

    /// The restart recovery of the rollout `records` leave in flight — the
    /// last `Begin` without a matching `End`; `None` when there is none. It
    /// queries every target, then commits only if a journaled decision says
    /// so and every target confirms, re-driving with the journaled tokens;
    /// it rolls back otherwise.
    pub(crate) fn recovery(records: &[IntentRecord], attempts: u32) -> Option<Txn> {
        let mut open: Option<(u64, u64, &Vec<String>)> = None;
        let (mut decision, mut seq, mut logged) = (None, 0, Vec::new());
        for rec in records {
            match rec {
                IntentRecord::Begin {
                    epoch,
                    prior_epoch,
                    targets,
                } => {
                    open = Some((*epoch, *prior_epoch, targets));
                    (decision, seq) = (None, 0);
                    logged.clear();
                }
                // A record about any other rollout than the in-flight one.
                _ if open.is_none_or(|(epoch, ..)| epoch != rec.epoch()) => {}
                IntentRecord::Sent {
                    switch, token, op, ..
                } => {
                    logged.push((switch.clone(), op.clone(), *token));
                    // The sequence half of `(epoch << 32) | seq`.
                    seq = seq.max(*token & 0xFFFF_FFFF);
                }
                IntentRecord::Decision { commit, .. } => decision = Some(*commit),
                IntentRecord::End { .. } => open = None,
            }
        }
        let (epoch, prior_epoch, targets) = open?;
        let report = RolloutReport {
            epoch,
            ..Default::default()
        };
        let mut tx = Txn::new(prior_epoch, targets.clone(), attempts, report);
        (tx.seq, tx.logged, tx.decision, tx.recovering) = (seq, logged, decision, true);
        Some(tx)
    }

    /// Take what the last action returned — `Some` after a send — and
    /// decide the next action; `None` once the transaction is over. `held`
    /// reads what a target holds now (`None` once it is gone). `Err` only
    /// when the token space is exhausted.
    pub(crate) fn step(
        &mut self,
        observed: Option<Sent>,
        held: impl Fn(&str) -> Option<Held>,
    ) -> Result<Option<Action>, RuntimeError> {
        let mut next = observed.and_then(|sent| self.observe(sent, &held));
        while next.is_none() && self.round != Round::Done {
            let (epoch, i, n) = (self.epoch, self.at, self.targets.len());
            let target = |i: usize| held(&self.targets[i]);
            next = match self.round {
                Round::Begin => {
                    self.round = Round::Prepare;
                    let (prior_epoch, targets) = (self.prior_epoch, self.targets.clone());
                    Some(Action::Journal(IntentRecord::Begin {
                        epoch,
                        prior_epoch,
                        targets,
                    }))
                }
                Round::Prepare if i < n => match self.prepare_batch(i, target(i)) {
                    Some(op) => Some(self.send(op, self.attempts)?),
                    None => self.goto(self.round, i + 1),
                },
                Round::Prepare => {
                    (self.round, self.at) = (Round::Commit, 0);
                    let commit = true;
                    Some(Action::Journal(IntentRecord::Decision { epoch, commit }))
                }
                // A target gone since the crash cannot confirm anything.
                Round::Query if i < n && target(i).is_none() => {
                    self.report.query_failures += 1;
                    self.confirmed = false;
                    self.goto(self.round, i + 1)
                }
                Round::Query if i < n => Some(self.send(ControlOp::Query, self.attempts)?),
                Round::Query if self.decision == Some(true) && self.confirmed => {
                    self.goto(Round::Commit, 0)
                }
                Round::Query => self.goto(Round::Rollback, 0),
                // A target that flipped before a crash needs no commit.
                Round::Commit if i < n && target(i).is_some_and(|h| h.serving == epoch) => {
                    self.goto(self.round, i + 1)
                }
                Round::Commit if i < n => Some(self.send(ControlOp::Commit, self.attempts)?),
                // Every commit was acknowledged — but the acknowledgement of a
                // reused token the switch recorded without ever staging flips
                // nothing, so a target still off the epoch fails the round.
                Round::Commit => {
                    match (0..n).find(|&i| target(i).is_some_and(|h| h.serving != epoch)) {
                        Some(i) => self.fail(i),
                        None => Some(self.conclude(true)),
                    }
                }
                // A target gone has nothing to revert.
                Round::Rollback if i < n && target(i).is_none() => self.goto(self.round, i + 1),
                Round::Rollback if i < n => {
                    Some(self.send(ControlOp::Rollback, self.attempts.saturating_mul(4))?)
                }
                Round::Rollback => Some(self.conclude(false)),
                Round::Done => None,
            };
        }
        Ok(next)
    }

    /// Fold the outcome of the send the round made to its current target,
    /// which may decide a rollback, or an out-of-band revert.
    fn observe(&mut self, sent: Sent, held: &impl Fn(&str) -> Option<Held>) -> Option<Action> {
        let (r, i, sw) = (&mut self.report, self.at, &self.targets[self.at]);
        let retries = u64::from(sent.attempts.saturating_sub(1));
        // A switch's own record counts its prepares and its commit.
        if let (Round::Prepare | Round::Commit, Some(s)) = (self.round, r.switches.get_mut(i)) {
            s.retries += retries;
            match self.round {
                Round::Prepare => s.prepare += sent.elapsed,
                _ => s.commit = sent.elapsed,
            }
        }
        match self.round {
            Round::Prepare | Round::Commit if !sent.acked => return self.fail(i),
            // A target's last prepare batch, or its commit, went through.
            Round::Prepare | Round::Commit if !self.batches.is_empty() => return None,
            Round::Query if !sent.acked => {
                r.query_failures += 1;
                r.diagnostics.push(Diagnostic::warning(
                    codes::RECOVERY_QUERY_FAILED,
                    format!(
                        "switch `{sw}` did not answer the recovery state query within {} \
                         attempts; its state is unknown, forcing rollback",
                        self.attempts
                    ),
                ));
                self.confirmed = false;
            }
            Round::Query => {
                let epoch = self.epoch;
                let holds = |h: Held| h.serving == epoch || h.staged == Some(epoch);
                self.confirmed &= held(sw).is_some_and(holds);
            }
            Round::Rollback if !sent.acked => {
                let recovery = if self.recovering { "recovery " } else { "" };
                r.forced_rollbacks += 1;
                r.diagnostics.push(Diagnostic::warning(
                    codes::ROLLOUT_CHANNEL_EXHAUSTED,
                    format!(
                        "{recovery}rollback of `{sw}` exhausted the control channel ({} \
                         attempts); reverted out-of-band",
                        self.attempts.saturating_mul(4)
                    ),
                ));
                self.at += 1;
                return Some(Action::Revert(sw.clone()));
            }
            _ => {}
        }
        self.goto(self.round, i + 1)
    }

    /// Move on to target `at` of `round`, asking nothing yet.
    fn goto(&mut self, round: Round, at: usize) -> Option<Action> {
        (self.round, self.at) = (round, at);
        None
    }

    /// Target `i`'s next prepare batch, its batches laid out as its turn
    /// comes: the delta against its serving state, or — forced, or off the
    /// prior epoch by then — every table whole from an empty switch.
    fn prepare_batch(&mut self, i: usize, held: Option<Held>) -> Option<ControlOp> {
        if self.batches.is_empty() {
            let staged = self.staged.get_mut(i)?;
            let (base_epoch, ops) =
                if staged.trusted && held.is_some_and(|h| h.serving == self.prior_epoch) {
                    self.report.delta_prepares += 1;
                    (Some(self.prior_epoch), std::mem::take(&mut staged.delta))
                } else {
                    self.report.snapshot_prepares += 1;
                    (None, entry_delta(&DataPlaneState::new(), &staged.state).ops)
                };
            delta_batches(base_epoch, ops, &staged.state.globals, &mut self.batches);
        }
        self.batches.pop()
    }

    /// The token of `op` to `switch`: the latest one journaled before a
    /// crash, else one no message of this epoch has worn.
    fn token(&mut self, switch: &str, op: &str) -> Result<u64, RuntimeError> {
        let journaled = |(s, o, _): &&(String, String, u64)| s == switch && o == op;
        if let Some(&(.., token)) = self.logged.iter().rev().find(journaled) {
            return Ok(token);
        }
        self.seq += 1;
        mint_token(self.epoch, self.seq)
    }

    /// One protocol message to the current target. A state query is
    /// read-only, so never journaled: it wears a fresh token each time.
    fn send(&mut self, op: ControlOp, attempts: u32) -> Result<Action, RuntimeError> {
        let (epoch, switch) = (self.epoch, self.targets[self.at].clone());
        let token = self.token(&switch, op.name())?;
        let intent = (!matches!(op, ControlOp::Query)).then(|| IntentRecord::Sent {
            epoch,
            switch: switch.clone(),
            token,
            op: op.name().to_string(),
        });
        let msg = ControlMsg {
            switch,
            epoch,
            token,
            op,
        };
        if msg.op.is_prepare() {
            self.report.prepare_bytes += msg.wire_bytes() as u64;
        }
        Ok(Action::Send {
            msg,
            attempts,
            intent,
        })
    }

    /// Target `i` did not take its prepare or commit: roll everything
    /// back. A live rollout says why and journals the decision; a recovery
    /// that cannot complete its commit rolls back without a record.
    fn fail(&mut self, i: usize) -> Option<Action> {
        let (sw, epoch, attempts) = (&self.targets[i], self.epoch, self.attempts);
        let error = match self.round {
            Round::Prepare => Diagnostic::error(
                codes::ROLLOUT_PREPARE_FAILED,
                format!(
                    "switch `{sw}` failed to prepare epoch {epoch}: control channel exhausted \
                     after {attempts} attempts"
                ),
            ),
            _ => Diagnostic::error(
                codes::ROLLOUT_COMMIT_TIMEOUT,
                format!(
                    "switch `{sw}` did not acknowledge commit of epoch {epoch} within \
                     {attempts} attempts"
                ),
            ),
        };
        self.batches.clear();
        (self.round, self.at) = (Round::Rollback, 0);
        if self.recovering {
            return None;
        }
        self.report.diagnostics.push(error);
        let commit = false;
        Some(Action::Journal(IntentRecord::Decision { epoch, commit }))
    }

    /// The one outcome tail of live rollouts and recoveries alike.
    fn conclude(&mut self, committed: bool) -> Action {
        let (epoch, prior, r) = (self.epoch, self.prior_epoch, &mut self.report);
        if committed && self.recovering {
            r.diagnostics.push(Diagnostic::warning(
                codes::RECOVERY_COMMITTED,
                format!(
                    "restart recovery completed the in-flight rollout: epoch {epoch} committed \
                     on every switch"
                ),
            ));
        } else if !committed {
            let (code, what) = match self.recovering {
                true => (
                    codes::RECOVERY_ROLLED_BACK,
                    "restart recovery rolled the in-flight rollout back".to_string(),
                ),
                false => (
                    codes::ROLLOUT_ROLLED_BACK,
                    format!("rollout to epoch {epoch} rolled back"),
                ),
            };
            let note = "the burned epoch is never reused; retry allocates a fresh one";
            let message = format!("{what}; epoch {prior} is serving on every switch");
            r.diagnostics
                .push(Diagnostic::warning(code, message).with_note(note));
            if self.recovering && self.decision == Some(true) {
                // Say why the conservative outcome won.
                r.diagnostics.push(Diagnostic::warning(
                    codes::RECOVERY_ROLLED_BACK,
                    "a journaled commit decision could not be completed (unreachable or \
                     unconfirmed switches); rolled back to preserve all-or-nothing"
                        .to_string(),
                ));
            }
        }
        (r.committed, r.rolled_back) = (committed, !committed);
        self.round = Round::Done;
        Action::Conclude { committed }
    }
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// The I/O half of one transaction: the channel, the intent store, the
/// crash plan and the backoff clock. [`Runtime::drive`] carries out what a
/// [`Txn`] asks through it, on the switch agents.
pub(crate) struct Driver<'c, 's> {
    pub(crate) channel: &'c mut dyn ControlChannel,
    pub(crate) store: Option<&'s mut dyn IntentStore>,
    pub(crate) crash: Option<CrashPlan>,
    pub(crate) config: &'c RolloutConfig,
    /// Backoff jitter.
    pub(crate) rng: Rng,
    /// When the previous send ended: one clock read per send.
    pub(crate) clock: Instant,
}

impl Driver<'_, '_> {
    /// Transmit one logical message with bounded retry, exponential backoff
    /// and jitter, handing every delivery (including duplicates and drained
    /// late replays) to the switch agents, and counting what the channel
    /// did with each attempt in `report`.
    pub(crate) fn send(
        &mut self,
        report: &mut RolloutReport,
        states: &mut BTreeMap<String, SwitchState>,
        plane: Option<&LiveTrafficPlane>,
        msg: &ControlMsg,
        attempts: u32,
    ) -> Sent {
        let mut sent = Sent::default();
        while !sent.acked && sent.attempts < attempts.max(1) {
            if sent.attempts > 0 {
                report.retries += 1;
                std::thread::sleep(backoff(self.config, sent.attempts, &mut self.rng));
            }
            // Reordered copies of earlier messages may arrive at any time;
            // deliver the due ones first. Their acks go nowhere.
            for late in self.channel.drain_late() {
                deliver(states, plane, &late);
            }
            sent.attempts += 1;
            report.messages_sent += 1;
            let fate = self.channel.transmit(msg);
            match fate {
                Delivery::Dropped => report.dropped += 1,
                // The switch applied it; the sender cannot know. The retry
                // will be acknowledged as a duplicate by the token guard.
                Delivery::AckLost => report.ack_lost += 1,
                Delivery::Duplicated => report.duplicates += 1,
                Delivery::Delivered => {}
            }
            if fate != Delivery::Dropped {
                deliver(states, plane, msg);
            }
            if fate == Delivery::Duplicated {
                deliver(states, plane, msg); // the duplicate: a token-guarded no-op
            }
            sent.acked = matches!(fate, Delivery::Delivered | Delivery::Duplicated);
        }
        let now = Instant::now();
        sent.elapsed = now - std::mem::replace(&mut self.clock, now);
        sent
    }

    /// Append `record` to the intent log, when there is one.
    fn journal(&mut self, record: &IntentRecord) -> Result<(), RuntimeError> {
        self.store
            .as_deref_mut()
            .map_or(Ok(()), |log| log.append(record))
    }
}

/// Exponential backoff for retry `attempt` (≥ 1), with seeded jitter of up
/// to +50% so racing rollouts do not retry in lockstep.
fn backoff(config: &RolloutConfig, attempt: u32, rng: &mut Rng) -> Duration {
    let factor = 1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX);
    let base = config
        .base_backoff
        .saturating_mul(factor)
        .min(config.max_backoff);
    base.mul_f64(1.0 + 0.5 * rng.next_f64())
}

impl<'a> Runtime<'a> {
    /// Transactionally converge this deployment onto `new_output`
    /// (typically the result of
    /// [`crate::Compiler::recompile_for_faults`]): stage every surviving
    /// switch's next-epoch state (prepare), then flip them all (commit),
    /// rolling every switch back to the current epoch if either phase
    /// fails. On success the runtime serves `new_output` — including its
    /// placement and flow paths — with all logical entries re-planned onto
    /// the new shard layout; switches dropped by the new placement are
    /// flushed. Global registers restart at zero on the new epoch, as on a
    /// re-flashed device.
    ///
    /// Returns the [`RolloutReport`] for both outcomes; `Err` is reserved
    /// for rollouts that could not *start* (scope-health gate `LYR0564`,
    /// or prepare-side capacity validation `LYR0560` — nothing was sent,
    /// nothing changed).
    pub fn apply_rollout(
        &mut self,
        new_output: &'a CompileOutput,
        channel: &mut dyn ControlChannel,
        config: &RolloutConfig,
    ) -> Result<RolloutReport, RuntimeError> {
        self.stage(new_output, &[], true, channel, config, None)
    }

    /// Like [`Runtime::apply_rollout`], but with a durable write-ahead
    /// intent log: every prepare/commit/rollback decision and idempotency
    /// token is journaled to `store` *before* the corresponding channel
    /// send. If the controller crashes mid-rollout (`LYR0570`, injected
    /// via [`RolloutConfig::crash`]) — or the store itself fails
    /// (`LYR0577`) — the switches and the journal are left exactly as the
    /// crash found them, and [`Runtime::recover`] drives the in-flight
    /// transaction to a deterministic all-commit or all-rollback outcome.
    pub fn apply_rollout_logged(
        &mut self,
        new_output: &'a CompileOutput,
        channel: &mut dyn ControlChannel,
        config: &RolloutConfig,
        store: &mut dyn IntentStore,
    ) -> Result<RolloutReport, RuntimeError> {
        self.stage(new_output, &[], true, channel, config, Some(store))
    }

    /// The one path behind [`Runtime::apply_rollout`], the failover
    /// re-syncs and self-healing: lay out the next epoch under `output`
    /// from the shards the switches already serve ([`stage_layout`]; `lost`
    /// holds switches that died, whose shards survive only as entries to
    /// re-home), diff it against what each switch serves, and drive it as a
    /// live [`Txn`]. The report's clock starts here. A `placement` rollout
    /// is gated on the config's scope health and resets global registers; a
    /// re-sync under the serving placement carries them over.
    pub(crate) fn stage(
        &mut self,
        output: &'a CompileOutput,
        lost: &[(String, DataPlaneState)],
        placement: bool,
        channel: &mut dyn ControlChannel,
        config: &RolloutConfig,
        store: Option<&mut dyn IntentStore>,
    ) -> Result<RolloutReport, RuntimeError> {
        let gate = config.scope_health.iter().find(|(_, h)| !h.survivable());
        if let Some((alg, h)) = gate.filter(|_| placement) {
            return Err(RuntimeError::new(format!(
                "rollout gated: the scope of `{alg}` is not survivable ({h:?}) — \
                 traffic could not traverse the new placement"
            ))
            .with_code(codes::ROLLOUT_GATED));
        }
        let t0 = Instant::now();
        let layout =
            stage_layout(output, &self.faults, &self.states, lost, placement).map_err(|e| {
                RuntimeError::new(format!("prepare validation failed: {}", e.message))
                    .with_code(codes::ROLLOUT_PREPARE_FAILED)
            })?;
        // Allocate the next epoch. Rolled-back epochs are burned: the
        // counter never rewinds, so message epochs are unique per attempt.
        self.epoch_counter += 1;
        let epoch = self.epoch_counter;
        let mut report = RolloutReport {
            epoch,
            entries_planned: layout.entries_planned,
            keys_walked: layout.keys_walked,
            ..Default::default()
        };
        // One structural diff per switch drives both the report counters
        // and the delta prepares — O(pages + changed entries) per switch,
        // because the staged states share pages with the serving ones. A
        // switch the placement adds joins empty, at the serving epoch.
        let (n, serving) = (layout.states.len(), self.epoch);
        let (mut targets, mut staged) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (switch, state) in layout.states {
            let fresh = || SwitchState::fresh(output, serving);
            let held = self.states.entry(switch.clone()).or_insert_with(fresh);
            let d = entry_delta(&held.dp, &state);
            let trusted = !config.force_snapshot;
            report.switches.push(SwitchRollout {
                switch: switch.clone(),
                entries_added: d.added,
                entries_removed: d.removed,
                entries_modified: d.modified,
                ..Default::default()
            });
            let delta = d.ops;
            staged.push(Staged {
                state,
                delta,
                trusted,
            });
            targets.push(switch);
        }
        let staged_at = Instant::now();
        report.stage = staged_at - t0;
        let attempts = config.max_attempts;
        let tx = Txn::rollout(self.epoch, targets, staged, attempts, report);
        let io = Driver {
            channel,
            store,
            crash: config.crash.clone(),
            config,
            rng: Rng::new(config.seed ^ epoch.rotate_left(17)),
            clock: staged_at,
        };
        let mut report = self.drive(tx, io, output)?;
        report.elapsed = t0.elapsed();
        Ok(report)
    }

    /// Fail `switch` and transactionally re-sync its lost entries onto
    /// surviving shards through `channel`. The reliable-channel wrapper is
    /// [`Runtime::fail_switch`]; this variant exists so chaos tests can
    /// exercise re-sync over a lossy channel.
    pub fn fail_switch_with_channel(
        &mut self,
        switch: &str,
        channel: &mut dyn ControlChannel,
        config: &RolloutConfig,
    ) -> Result<RolloutReport, RuntimeError> {
        self.known_switch(switch)?;
        if self.faults.switch_failed(switch) {
            return Ok(RolloutReport {
                epoch: self.epoch,
                ..Default::default()
            });
        }
        // The dead switch's shards outlive it only as entries to re-home.
        let lost = Vec::from_iter(self.states.remove(switch).map(|st| (switch.into(), st.dp)));
        self.faults.add_switch(switch);
        self.stage(self.output, &lost, false, channel, config, None)
    }

    /// Fail a switch at runtime: its shards are lost, paths through it
    /// refuse traffic, and every entry it held is re-synced onto surviving
    /// shards as a transaction (retry + rollback semantics come from the
    /// rollout engine). Returns the switches that received re-synced
    /// entries; failing an already-failed switch is a no-op.
    pub fn fail_switch(&mut self, switch: &str) -> Result<Vec<String>, RuntimeError> {
        let config = RolloutConfig::default();
        let report = self.fail_switch_with_channel(switch, &mut ReliableChannel::new(), &config);
        self.converged(report?, &format!("re-sync after `{switch}` failed"))
    }

    /// Fail the link `a — b` and transactionally re-plan entry coverage
    /// for the paths that no longer carry traffic. See
    /// [`Runtime::fail_switch_with_channel`].
    pub fn fail_link_with_channel(
        &mut self,
        a: &str,
        b: &str,
        channel: &mut dyn ControlChannel,
        config: &RolloutConfig,
    ) -> Result<RolloutReport, RuntimeError> {
        self.known_switch(a)?;
        self.known_switch(b)?;
        if self.faults.link_failed(a, b) {
            return Ok(RolloutReport {
                epoch: self.epoch,
                ..Default::default()
            });
        }
        self.faults.add_link(a, b);
        self.stage(self.output, &[], false, channel, config, None)
    }

    /// Fail a link at runtime (reliable channel); see
    /// [`Runtime::fail_switch`] for the transaction semantics.
    pub fn fail_link(&mut self, a: &str, b: &str) -> Result<Vec<String>, RuntimeError> {
        let config = RolloutConfig::default();
        let report = self.fail_link_with_channel(a, b, &mut ReliableChannel::new(), &config);
        self.converged(report?, &format!("re-sync after link `{a}` — `{b}` failed"))
    }

    fn known_switch(&self, switch: &str) -> Result<(), RuntimeError> {
        let paths = self.output.flow_paths.values().flatten();
        if self.states.contains_key(switch)
            || self.output.placement.switches.contains_key(switch)
            || paths.flatten().any(|s| s == switch)
        {
            return Ok(());
        }
        // Same stable code the fault model uses when a `FaultSet` names an
        // element outside the topology — the self-healer calls the `fail_*`
        // entry points repeatedly and matches on this.
        Err(RuntimeError::new(format!("unknown switch `{switch}`"))
            .with_code(codes::SCOPE_UNKNOWN_SWITCH))
    }

    /// The switches a re-sync moved entries onto. The reliable-channel
    /// wrappers promise convergence; surface a rollback (impossible over
    /// [`ReliableChannel`], but the type system cannot know that) as an
    /// error rather than losing it.
    fn converged(&self, report: RolloutReport, what: &str) -> Result<Vec<String>, RuntimeError> {
        if report.rolled_back {
            return Err(RuntimeError::new(format!(
                "{what} rolled back; the prior epoch {} is still serving",
                self.epoch
            ))
            .with_code(codes::ROLLOUT_ROLLED_BACK));
        }
        Ok(report.resynced())
    }

    /// The one driver: carry out what [`Txn::step`] asks — through `io`, on
    /// the switch agents — and feed back what came of it, until the
    /// transaction is over, dying where the crash plan names a position
    /// ([`Action::crash_points`], or a journaled send); then refresh the
    /// controller's shadow of switch-held state (what `audit_switches` diffs
    /// against). A channel failure *is* a result, reported through
    /// [`RolloutReport::rolled_back`]; `Err` means the *controller* died — an
    /// injected crash (`LYR0570`), an intent-store fault (`LYR0577`) or an
    /// exhausted token space (`LYR0590`) — leaving switches and journal for
    /// [`Runtime::recover`].
    pub(crate) fn drive(
        &mut self,
        mut tx: Txn,
        mut io: Driver<'_, '_>,
        next: &'a CompileOutput,
    ) -> Result<RolloutReport, RuntimeError> {
        let (mut observed, mut sends) = (None, 0);
        let crash = io.crash.take().unwrap_or_default();
        let what = "controller crashed (injected by crash plan); the intent log and \
                    switch-held state are the only surviving record — run recovery";
        let die = |planned: bool| match planned {
            false => Ok(()),
            true => Err(RuntimeError::new(what.to_string()).with_code(codes::CONTROLLER_CRASHED)),
        };
        loop {
            let states = &self.states;
            let held = |sw: &str| states.get(sw).map(SwitchState::held);
            let Some(action) = tx.step(observed.take(), held)? else {
                self.refresh_expected();
                return Ok(tx.report);
            };
            let [before, after] = action.crash_points().map(|p| p.is_some() && p == crash.at);
            die(before)?;
            match action {
                Action::Journal(record) => io.journal(&record)?,
                Action::Send {
                    msg,
                    attempts,
                    intent,
                } => {
                    if let Some(record) = intent {
                        io.journal(&record)?;
                        sends += 1; // `CrashPlan::after_sends(n)` counts intents
                        die(crash.after_sends == Some(sends))?;
                    }
                    let (report, plane) = (&mut tx.report, self.plane.as_deref());
                    observed = Some(io.send(report, &mut self.states, plane, &msg, attempts));
                }
                Action::Revert(sw) => {
                    force_rollback(&mut self.states, self.plane.as_deref(), &sw, tx.epoch);
                }
                Action::Conclude { committed } => {
                    let epoch = tx.epoch;
                    let abandoned = (!committed).then_some(epoch);
                    tx.report.forced_rollbacks +=
                        settle(&mut self.states, self.plane.as_deref(), abandoned);
                    if committed {
                        self.epoch = epoch;
                        self.output = next;
                    } else {
                        self.epoch = tx.prior_epoch;
                    }
                    debug_assert!(
                        self.states.values().all(|st| st.epoch() == self.epoch),
                        "a settled deployment serves one epoch"
                    );
                    io.journal(&IntentRecord::End { epoch, committed })?;
                }
            }
            die(after)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::LossyChannel;
    use crate::{CompileRequest, Compiler};
    use lyra_ir::PacketState;
    use lyra_topo::{figure1_network, FaultSet};

    const LB: &str = r#"
        pipeline[LB]{loadbalancer};
        algorithm loadbalancer {
            extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
            if (flow_h in conn_table) {
                ipv4.dstAddr = conn_table[flow_h];
            } else {
                copy_to_cpu();
            }
        }
    "#;
    const LB_SCOPES: &str =
        "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";

    fn lb_request() -> CompileRequest<'static> {
        CompileRequest::new(LB, LB_SCOPES, figure1_network())
    }

    #[test]
    fn reliable_rollout_commits_and_flips_the_output() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let faults = FaultSet::new().with_switch("Agg3");
        let r = compiler
            .recompile_for_faults(&req, &prior, &faults)
            .unwrap();

        let mut rt = Runtime::new(&prior);
        rt.install("conn_table", 42, 0xabcd).unwrap();
        rt.fail_switch("Agg3").unwrap();
        let epoch_before = rt.epoch();

        let config = RolloutConfig::default().with_scope_health(r.scope_health.clone());
        let report = rt
            .apply_rollout(&r.output, &mut ReliableChannel::new(), &config)
            .unwrap();
        assert!(report.committed && !report.rolled_back, "{report:?}");
        assert_eq!(report.forced_rollbacks, 0);
        assert!(rt.epoch() > epoch_before);
        assert!(rt.epochs_coherent());
        assert!(std::ptr::eq(rt.output(), &r.output), "output must flip");

        // The logical entry survived the re-plan onto the new placement.
        let mut pkt = PacketState::new();
        pkt.set("flow_h", 42);
        let (end, _) = rt.inject(&["Agg4", "ToR3"], pkt).unwrap();
        assert_eq!(end.get("ipv4.dstAddr"), 0xabcd);
    }

    #[test]
    fn dead_commit_channel_rolls_back_to_the_old_epoch() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let faults = FaultSet::new().with_switch("Agg3");
        let r = compiler
            .recompile_for_faults(&req, &prior, &faults)
            .unwrap();

        let mut rt = Runtime::new(&prior);
        rt.install("conn_table", 7, 0x0a00).unwrap();
        rt.fail_switch("Agg3").unwrap();
        let epoch_before = rt.epoch();
        let logical_before = rt.logical_entries();

        // Kill the first target (alphabetically Agg4) right after its
        // prepare lands: the commit starves and the rollout must revert —
        // via forced out-of-band rollback for the dead switch. A tiny
        // retry budget keeps the test fast.
        let mut chan = LossyChannel::new(3).with_switch_death("Agg4", 1);
        let config = RolloutConfig {
            max_attempts: 3,
            base_backoff: Duration::from_micros(5),
            max_backoff: Duration::from_micros(50),
            ..Default::default()
        };
        let report = rt.apply_rollout(&r.output, &mut chan, &config).unwrap();
        assert!(report.rolled_back && !report.committed, "{report:?}");
        assert!(
            report.forced_rollbacks >= 1,
            "the dead switch cannot ack a rollback: {report:?}"
        );
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == Some(codes::ROLLOUT_ROLLED_BACK)),
            "{:?}",
            report.diagnostics
        );
        // Fully back on the old epoch: same epoch, same logical entries,
        // coherent switches, old output still serving.
        assert_eq!(rt.epoch(), epoch_before);
        assert!(rt.epochs_coherent());
        assert_eq!(rt.logical_entries(), logical_before);
        assert!(std::ptr::eq(rt.output(), &prior));
        // The burned epoch is never reused.
        let report2 = rt
            .apply_rollout(
                &r.output,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap();
        assert!(report2.committed);
        assert!(report2.epoch > report.epoch);
    }

    #[test]
    fn unsurvivable_scope_health_gates_the_rollout() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let mut rt = Runtime::new(&prior);
        let mut health = BTreeMap::new();
        health.insert("loadbalancer".to_string(), ScopeHealth::Partitioned);
        let err = rt
            .apply_rollout(
                &prior,
                &mut ReliableChannel::new(),
                &RolloutConfig::default().with_scope_health(health),
            )
            .unwrap_err();
        assert_eq!(err.code, Some(codes::ROLLOUT_GATED));
        assert!(rt.epochs_coherent());
    }

    #[test]
    fn ack_loss_retries_are_idempotent() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let faults = FaultSet::new().with_switch("Agg3");
        let r = compiler
            .recompile_for_faults(&req, &prior, &faults)
            .unwrap();

        let mut rt = Runtime::new(&prior);
        rt.install("conn_table", 9, 0x0b00).unwrap();
        rt.fail_switch("Agg3").unwrap();

        // Every message loses its first ack, so every logical message is
        // applied + retried + token-acknowledged. Duplicates galore.
        let mut chan = LossyChannel::new(5).with_ack_loss_p(0.6).with_dup_p(0.3);
        let config = RolloutConfig {
            base_backoff: Duration::from_micros(5),
            max_backoff: Duration::from_micros(50),
            ..Default::default()
        };
        let report = rt.apply_rollout(&r.output, &mut chan, &config).unwrap();
        assert!(report.committed, "{report:?}");
        assert!(
            report.retries > 0,
            "ack loss must force retries: {report:?}"
        );
        assert!(rt.epochs_coherent());
        // Exactly one copy of the entry semantics: the key still resolves.
        let mut pkt = PacketState::new();
        pkt.set("flow_h", 9);
        let (end, _) = rt.inject(&["Agg4", "ToR4"], pkt).unwrap();
        assert_eq!(end.get("ipv4.dstAddr"), 0x0b00);
    }

    #[test]
    fn report_clock_covers_staging_and_counts_what_was_planned() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let mut rt = Runtime::new(&prior);
        for k in 0..32 {
            rt.install("conn_table", k, k + 1).unwrap();
        }
        // Agg4 loses its replica of one key behind the controller's back:
        // once Agg3 dies, that key is the only entry any path lost.
        rt.inject_drift(
            "Agg4",
            &crate::DriftOp::Remove {
                table: "conn_table".into(),
                key: 7,
            },
        )
        .unwrap();
        let agg4 = rt.shard("Agg4", "conn_table").unwrap().clone();
        let resync = rt
            .fail_switch_with_channel(
                "Agg3",
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap();
        assert!(resync.committed, "{resync:?}");
        assert_eq!(resync.entries_planned, 1, "{resync:?}");
        assert_eq!(rt.shard("Agg4", "conn_table").unwrap().get(7), Some(8));
        assert_eq!(rt.logical_entries().len(), 32);
        // The clock starts before staging: stage is part of elapsed.
        assert!(resync.stage > Duration::ZERO);
        let phases: Duration = resync.switches.iter().map(|s| s.prepare + s.commit).sum();
        assert!(
            resync.elapsed >= resync.stage + phases,
            "elapsed {:?} < stage {:?} + prepare/commit {phases:?}",
            resync.elapsed,
            resync.stage
        );
        // Re-rolling the serving placement finds every path covered: no
        // entry reaches the planner and no shard is rebuilt.
        let agg4_after = rt.shard("Agg4", "conn_table").unwrap().clone();
        assert!(
            !agg4_after.same_pages(&agg4),
            "re-homing a key must copy its page, not write through it"
        );
        let again = rt
            .apply_rollout(
                &prior,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap();
        assert!(again.committed, "{again:?}");
        assert_eq!(again.entries_planned, 0, "{again:?}");
        assert!(rt
            .shard("Agg4", "conn_table")
            .unwrap()
            .same_pages(&agg4_after));
    }

    #[test]
    fn fail_switch_is_total_unknown_name_carries_a_coded_error() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let mut rt = Runtime::new(&prior);
        let err = rt.fail_switch("Banana").unwrap_err();
        assert_eq!(err.code, Some(lyra_diag::codes::SCOPE_UNKNOWN_SWITCH));
        assert!(err.message.contains("Banana"), "unhelpful message: {err}");
        // A bad name must not poison any state: the runtime still works.
        assert_eq!(rt.epoch(), 0);
        rt.install("conn_table", 7, 8).unwrap();
        let err = rt.fail_link("Agg3", "Durian").unwrap_err();
        assert_eq!(err.code, Some(lyra_diag::codes::SCOPE_UNKNOWN_SWITCH));
    }

    #[test]
    fn fail_switch_is_idempotent_repeat_is_a_noop() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let mut rt = Runtime::new(&prior);
        rt.install("conn_table", 42, 0xabcd).unwrap();
        rt.fail_switch("Agg3").unwrap();
        let epoch = rt.epoch();
        // Failing it again: no new epoch, no re-sync traffic, Ok(empty).
        let again = rt.fail_switch("Agg3").unwrap();
        assert!(again.is_empty(), "noop re-fail re-synced {again:?}");
        assert_eq!(rt.epoch(), epoch, "a noop must not burn an epoch");
        let report = rt
            .fail_switch_with_channel(
                "Agg3",
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap();
        assert_eq!(report.messages_sent, 0, "noop report sent messages");
        assert!(!report.committed && !report.rolled_back);
    }

    #[test]
    fn token_split_is_collision_free_and_errors_at_the_32_bit_boundary() {
        // Both halves get the full 32 bits.
        let max = u64::from(u32::MAX);
        assert_eq!(mint_token(0, 1).unwrap(), 1);
        assert_eq!(mint_token(max, max).unwrap(), u64::MAX);
        // The old 20-bit split's collision: message 2^20 + 1 of epoch 0
        // wore the same token as message 1 of epoch 1. Not any more.
        let high_seq = mint_token(0, (1 << 20) + 1).unwrap();
        let next_epoch = mint_token(1, 1).unwrap();
        assert_ne!(
            high_seq, next_epoch,
            "tokens must never collide across epochs"
        );
        // Overflowing either half is a hard coded error, never a wrap.
        for (epoch, seq) in [(max + 1, 1), (1, max + 1)] {
            let err = mint_token(epoch, seq).unwrap_err();
            assert_eq!(err.code, Some(codes::TOKEN_OVERFLOW), "{err}");
        }
    }

    #[test]
    fn entry_delta_sees_value_only_updates() {
        let mut current = DataPlaneState::new();
        current.install("t", 1, 10);
        current.install("t", 2, 20);
        current.install("t", 3, 30);
        let mut next = current.clone();
        next.install("t", 2, 99); // value-only rewrite: same key set
        next.install("t", 4, 40); // add
        next.uninstall("t", 3); // remove
        let d = entry_delta(&current, &next);
        assert_eq!((d.added, d.removed, d.modified), (1, 1, 1), "{d:?}");
        // The regression: a key-set diff would drop the `2 -> 99` rewrite
        // from the wire entirely. It must be an explicit Set op.
        assert!(
            d.ops.iter().any(|op| matches!(
                op,
                EntryOp::Set { table, key: 2, value: 99 } if table == "t"
            )),
            "value-only update missing from delta ops: {:?}",
            d.ops
        );
        // Untouched key 1 generates no op at all.
        assert_eq!(d.ops.len(), 3, "{:?}", d.ops);
    }

    /// A table the base lacks ships as one whole-table op that shares the
    /// staged pages; a table it holds is diffed entry by entry.
    #[test]
    fn entry_delta_ships_a_table_the_base_lacks_whole() {
        let mut current = DataPlaneState::new();
        current.install("held", 1, 10).install("held", 2, 20);
        let mut next = current.clone();
        next.uninstall("held", 1);
        next.install("held", 2, 99).install("held", 3, 30);
        for k in 0..1000 {
            next.install("gained", k, k);
        }
        let d = entry_delta(&current, &next);
        assert_eq!((d.added, d.removed, d.modified), (1001, 1, 1), "{d:?}");
        let whole: Vec<_> = d
            .ops
            .iter()
            .filter_map(|op| match op {
                EntryOp::Table { table, entries } => Some((table.as_str(), entries)),
                _ => None,
            })
            .collect();
        assert_eq!(whole.len(), 1, "{:?}", d.ops);
        assert_eq!(whole[0].0, "gained");
        assert!(whole[0].1.same_pages(&next.externs["gained"]));
        let set = |key, value| EntryOp::Set {
            table: "held".into(),
            key,
            value,
        };
        let removed = EntryOp::Remove {
            table: "held".into(),
            key: 1,
        };
        assert_eq!(d.ops[1..], [removed, set(2, 99), set(3, 30)], "{:?}", d.ops);
    }

    #[test]
    fn value_only_divergence_converges_under_delta_prepares() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let mut rt = Runtime::new(&prior);
        for k in 0..16 {
            rt.install("conn_table", k, 0x1000 + k).unwrap();
        }
        // Rewrite one replica's value behind the controller's back. The
        // key set is now identical on every holder but the *values*
        // disagree — exactly the difference the old key-only diff could
        // not see, which under delta prepares would leave the replicas
        // divergent forever.
        let (victim, key) = rt
            .states
            .iter()
            .find_map(|(sw, st)| {
                st.dp
                    .externs
                    .get("conn_table")
                    .and_then(|t| t.iter().next())
                    .map(|(k, _)| (sw.clone(), k))
            })
            .expect("some switch must hold entries");
        rt.inject_drift(
            &victim,
            &crate::DriftOp::Corrupt {
                table: "conn_table".into(),
                key,
                value: 0xdead,
            },
        )
        .unwrap();
        let report = rt
            .apply_rollout(
                &prior,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap();
        assert!(report.committed, "{report:?}");
        assert!(report.delta_prepares > 0, "{report:?}");
        let modified: u64 = report.switches.iter().map(|s| s.entries_modified).sum();
        assert!(
            modified >= 1,
            "value-only rewrite invisible to the rollout: {report:?}"
        );
        // Every holder of the key agrees again: the value rewrite made it
        // onto the wire as a Set op instead of being dropped.
        let values: BTreeSet<u64> = rt
            .states
            .values()
            .filter_map(|st| st.dp.externs.get("conn_table").and_then(|t| t.get(key)))
            .collect();
        assert_eq!(
            values.len(),
            1,
            "replicas still disagree on conn_table[{key}]: {values:?}"
        );
    }

    #[test]
    fn delta_prepares_beat_snapshots_on_wire_bytes() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let run = |force_snapshot: bool| {
            let mut rt = Runtime::new(&prior);
            for k in 0..300 {
                rt.install("conn_table", k, k + 1).unwrap();
            }
            let config = RolloutConfig::default().with_force_snapshot(force_snapshot);
            rt.apply_rollout(&prior, &mut ReliableChannel::new(), &config)
                .unwrap()
        };
        let delta = run(false);
        let snap = run(true);
        assert!(delta.committed && snap.committed);
        assert_eq!(delta.snapshot_prepares, 0, "{delta:?}");
        assert!(delta.delta_prepares > 0, "{delta:?}");
        assert_eq!(snap.delta_prepares, 0, "{snap:?}");
        // Identical placement, unchanged entries: the delta path sends
        // only batch-0 frames while the snapshot path re-ships all 300
        // entries. The gap must be at least the 10x the paper's
        // incremental-update claim needs.
        assert!(
            snap.prepare_bytes >= 10 * delta.prepare_bytes,
            "delta {} bytes vs snapshot {} bytes",
            delta.prepare_bytes,
            snap.prepare_bytes
        );
    }

    #[test]
    fn delta_prepare_refuses_wrong_base_and_wrong_epoch_batches() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let mut states = BTreeMap::new();
        let mut st = SwitchState::fresh(&prior, 5);
        st.dp.install("conn_table", 1, 10);
        states.insert("SW".to_string(), st);
        let delta_msg = |epoch, base_epoch, batch_index, token, ops: Vec<EntryOp>| ControlMsg {
            switch: "SW".into(),
            epoch,
            token,
            op: ControlOp::PrepareDelta {
                base_epoch: Some(base_epoch),
                ops,
                globals: BTreeMap::new(),
                batch_index,
                batches_total: 2,
            },
        };
        // Batch 0 against the wrong base epoch: refused — the switch is
        // not on the state the controller diffed against.
        deliver(&mut states, None, &delta_msg(6, 4, 0, 1, vec![]));
        assert!(states["SW"].staged().is_none(), "wrong-base delta staged");
        // Correct base: opens the staged epoch from the serving state.
        deliver(&mut states, None, &delta_msg(6, 5, 0, 2, vec![]));
        assert_eq!(states["SW"].staged().map(|(e, _)| e), Some(6));
        // A later batch wearing a different epoch (late replay of a
        // burned attempt) must not leak into the open stage.
        let foreign = EntryOp::Set {
            table: "conn_table".into(),
            key: 7,
            value: 77,
        };
        deliver(
            &mut states,
            None,
            &delta_msg(9, 5, 1, 3, vec![foreign.clone()]),
        );
        let staged = states["SW"].staged().unwrap();
        assert!(
            !staged.1.externs["conn_table"].contains_key(7),
            "foreign-epoch batch applied"
        );
        // The matching epoch's batch 1 does apply.
        deliver(&mut states, None, &delta_msg(6, 5, 1, 4, vec![foreign]));
        let staged = states["SW"].staged().unwrap();
        assert_eq!(staged.1.externs["conn_table"].get(7), Some(77));
        // The serving state never moved: prepares stage, they do not flip.
        assert_eq!(states["SW"].epoch(), 5);
        assert_eq!(states["SW"].dp.externs["conn_table"].get(1), Some(10));
    }

    #[test]
    fn audit_repaired_switches_converge_through_delta_prepares() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let mut rt = Runtime::new(&prior);
        for k in 0..8 {
            rt.install("conn_table", k, k + 1).unwrap();
        }
        let (victim, key) = rt
            .states
            .iter()
            .find_map(|(sw, st)| {
                st.dp
                    .externs
                    .get("conn_table")
                    .and_then(|t| t.iter().next())
                    .map(|(k, _)| (sw.clone(), k))
            })
            .expect("some switch must hold entries");
        rt.inject_drift(
            &victim,
            &crate::DriftOp::Remove {
                table: "conn_table".into(),
                key,
            },
        )
        .unwrap();
        let audit = rt.audit_switches();
        assert!(audit.drifted_switches.contains(&victim));
        // The repaired switch still serves the prior epoch, so its next
        // prepare is a delta against its repaired state, like every other
        // switch's.
        let report = rt
            .apply_rollout(
                &prior,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap();
        assert!(report.committed, "{report:?}");
        assert_eq!(report.snapshot_prepares, 0, "{report:?}");
        assert!(report.delta_prepares >= 2, "{report:?}");
        let after = rt.audit_switches();
        assert!(after.clean(), "{after:?}");
    }

    #[test]
    fn fail_link_is_idempotent_and_covered_by_switch_failure() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let mut rt = Runtime::new(&prior);
        rt.install("conn_table", 1, 2).unwrap();
        rt.fail_link("Agg3", "ToR3").unwrap();
        let epoch = rt.epoch();
        // Same link, either endpoint order: noop.
        assert!(rt.fail_link("ToR3", "Agg3").unwrap().is_empty());
        assert_eq!(rt.epoch(), epoch);
        // A link whose endpoint switch already failed is also a noop —
        // the switch failure subsumes it.
        rt.fail_switch("Agg4").unwrap();
        let epoch = rt.epoch();
        assert!(rt.fail_link("Agg4", "ToR4").unwrap().is_empty());
        assert_eq!(rt.epoch(), epoch);
    }
}

/// The transaction machine on its own: every schedule of step outcomes for
/// a three-target transaction, driven through [`Txn::step`] with no
/// `Runtime`, no channel and no compile — the switch agents stand in for
/// the fleet. A live rollout (target A prepares in two delta batches, B in
/// one, C from an empty switch) runs each send to one of three outcomes —
/// acknowledged, spent undelivered, spent delivered with every ack lost —
/// and may crash at every named point and after every journaled send; each
/// crash is then recovered from its journal under every schedule of query
/// (answered or spent) and message outcomes, with every fleet intact and
/// with one target dead since the crash (release builds kill each target
/// in turn, debug builds the last).
#[cfg(test)]
mod step_walk {
    use super::*;

    const ATTEMPTS: u32 = 2;
    /// Targets that may have died between the crash and the recovery.
    const DEAD: &[Option<&str>] = if cfg!(debug_assertions) {
        &[None, Some("C")]
    } else {
        &[None, Some("A"), Some("B"), Some("C")]
    };
    const TARGETS: [&str; 3] = ["A", "B", "C"];
    /// Prepare batches per target: A's delta spans two batches.
    const BATCHES: [u32; 3] = [2, 1, 1];

    /// A depth-first walk of a tree of choices by replay: each run picks
    /// the recorded choice at every point, the first alternative past the
    /// end of the record, and the next run is the odometer successor.
    #[derive(Default)]
    struct Script {
        steps: Vec<(u8, u8)>,
        at: usize,
    }

    impl Script {
        fn pick(&mut self, arity: u8) -> u8 {
            if self.at == self.steps.len() {
                self.steps.push((0, arity));
            }
            self.at += 1;
            self.steps[self.at - 1].0
        }

        /// Move to the next schedule; false once the walk is complete.
        fn advance(&mut self) -> bool {
            self.steps.truncate(std::mem::take(&mut self.at));
            while let Some((choice, arity)) = self.steps.last_mut() {
                if *choice + 1 < *arity {
                    *choice += 1;
                    return true;
                }
                self.steps.pop();
            }
            false
        }
    }

    fn fleet() -> BTreeMap<String, SwitchState> {
        let at_epoch_1 = |sw: &str| {
            let mut st = SwitchState::default();
            st.reset_epoch(1);
            (sw.to_string(), st)
        };
        TARGETS.into_iter().map(at_epoch_1).collect()
    }

    fn live() -> Txn {
        let delta = |n: u64| {
            let remove = |key| EntryOp::Remove {
                table: String::new(),
                key,
            };
            (0..n).map(remove).collect()
        };
        let staged =
            [(DELTA_BATCH_OPS as u64 + 1, true), (0, true), (0, false)].map(|(n, trusted)| {
                Staged {
                    delta: delta(n),
                    trusted,
                    ..Default::default()
                }
            });
        let report = RolloutReport {
            epoch: 2,
            switches: vec![SwitchRollout::default(); TARGETS.len()],
            ..Default::default()
        };
        let targets = TARGETS.map(String::from).to_vec();
        Txn::rollout(1, targets, staged.into(), ATTEMPTS, report)
    }

    /// What the rules need to know of the run so far.
    #[derive(Default)]
    struct Rules {
        /// Recovering with this journaled decision.
        recovering: Option<Option<bool>>,
        /// Prepare batches acknowledged, per target.
        prepared: [u32; 3],
        /// Targets whose state query confirmed the epoch.
        confirmed: [bool; 3],
        /// The last send to each target: its op and whether it was acked.
        last: [Option<(&'static str, bool)>; 3],
        spent_rollbacks: u64,
        reverts: u64,
    }

    impl Rules {
        /// A commit — sent, or concluded without a send — only after every
        /// prepare batch was acknowledged; when recovering, only on a
        /// journaled commit that every target confirmed.
        fn may_commit(&self) {
            match self.recovering {
                None => assert_eq!(self.prepared, BATCHES, "commit before every prepare"),
                Some(decision) => assert!(
                    decision == Some(true) && self.confirmed == [true; 3],
                    "recovery re-drove a commit that was not journaled or confirmed"
                ),
            }
        }
    }

    /// Carry out one action on `fleet` as the driver would, the fate of a
    /// send picked by `script`, and hold the step to the rules. Returns
    /// the observation of a send, and `Some(committed)` once concluded.
    fn act(
        action: Action,
        fleet: &mut BTreeMap<String, SwitchState>,
        script: &mut Script,
        rules: &mut Rules,
    ) -> (Option<Sent>, Option<bool>) {
        let index = |sw: &str| TARGETS.iter().position(|t| *t == sw).unwrap();
        match action {
            Action::Send {
                msg,
                attempts,
                intent,
            } => {
                let (i, op) = (index(&msg.switch), msg.op.name());
                let budget = if op == "rollback" { 4 } else { 1 } * ATTEMPTS;
                assert_eq!(attempts, budget, "{op} budget");
                assert_eq!(intent.is_some(), op != "query", "{op} journaled");
                if op == "commit" {
                    rules.may_commit();
                }
                let fate = script.pick(if op == "query" { 2 } else { 3 });
                let (acked, delivered) = (fate == 0, fate != 1);
                if delivered {
                    deliver(fleet, None, &msg);
                }
                let held = fleet[&msg.switch].held();
                if op == "query" && acked {
                    rules.confirmed[i] = held.serving == 2 || held.staged == Some(2);
                }
                if msg.op.is_prepare() && acked {
                    rules.prepared[i] += 1;
                }
                rules.spent_rollbacks += u64::from(op == "rollback" && !acked);
                rules.last[i] = Some((op, acked));
                let attempts = if acked { 1 } else { attempts };
                let sent = Sent {
                    acked,
                    attempts,
                    elapsed: Duration::ZERO,
                };
                (Some(sent), None)
            }
            Action::Revert(sw) => {
                let i = index(&sw);
                assert_eq!(rules.last[i], Some(("rollback", false)), "revert of {sw}");
                rules.reverts += 1;
                force_rollback(fleet, None, &sw, 2);
                (None, None)
            }
            Action::Conclude { committed } => {
                if committed {
                    rules.may_commit();
                }
                let papered = settle(fleet, None, (!committed).then_some(2));
                assert_eq!(papered, 0, "the final sweep reverted a switch");
                assert_eq!(rules.reverts, rules.spent_rollbacks);
                let epoch = if committed { 2 } else { 1 };
                for st in fleet.values() {
                    assert_eq!(
                        st.held(),
                        Held {
                            serving: epoch,
                            staged: None
                        }
                    );
                }
                (None, Some(committed))
            }
            Action::Journal(_) => unreachable!("a recovery journals no decision"),
        }
    }

    /// Offer a crash at `point`, when the action passes one; true when the
    /// script takes it.
    fn crash_at(point: Option<CrashPoint>, script: &mut Script, hits: &mut [u64; 5]) -> bool {
        let Some(point) = point else {
            return false;
        };
        let crashed = script.pick(2) == 1;
        hits[CrashPoint::ALL.iter().position(|p| *p == point).unwrap()] += u64::from(crashed);
        crashed
    }

    #[test]
    fn every_step_schedule_of_a_three_target_transaction_keeps_the_rules() {
        let (mut schedules, mut committed, mut crashes, mut recoveries, mut recommitted) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut crash_points = [0u64; CrashPoint::ALL.len()];
        let mut outer = Script::default();
        loop {
            let (mut fleet, mut tx, mut rules) = (fleet(), live(), Rules::default());
            let (mut journal, mut observed) = (Vec::new(), None);
            let crashed = loop {
                let held = |sw: &str| fleet.get(sw).map(SwitchState::held);
                let action = tx.step(observed.take(), held).unwrap();
                let action = action.expect("a live rollout concludes before it ends");
                let [before, after] = action.crash_points();
                if crash_at(before, &mut outer, &mut crash_points) {
                    break true;
                }
                if let Action::Send {
                    intent: Some(record),
                    ..
                } = &action
                {
                    journal.push(record.clone());
                    if outer.pick(2) == 1 {
                        break true;
                    }
                }
                match action {
                    Action::Journal(record) => journal.push(record),
                    action => match act(action, &mut fleet, &mut outer, &mut rules) {
                        (_, Some(c)) => {
                            committed += u64::from(c);
                            assert!(tx.step(None, |_| None).unwrap().is_none());
                            break false;
                        }
                        (sent, None) => observed = sent,
                    },
                }
                if crash_at(after, &mut outer, &mut crash_points) {
                    break true;
                }
            };
            schedules += 1;
            if crashed {
                crashes += 1;
                let decision = journal.iter().rev().find_map(|r| match r {
                    IntentRecord::Decision { commit, .. } => Some(*commit),
                    _ => None,
                });
                let mut inner = Script::default();
                loop {
                    let mut fleet = fleet.clone();
                    if let Some(dead) = DEAD[usize::from(inner.pick(DEAD.len() as u8))] {
                        fleet.remove(dead);
                    }
                    let mut tx = Txn::recovery(&journal, ATTEMPTS).expect("in flight");
                    let mut rules = Rules {
                        recovering: Some(decision),
                        ..Default::default()
                    };
                    let mut observed = None;
                    loop {
                        let held = |sw: &str| fleet.get(sw).map(SwitchState::held);
                        match tx.step(observed.take(), held).unwrap() {
                            Some(action) => {
                                let (sent, end) = act(action, &mut fleet, &mut inner, &mut rules);
                                recommitted += u64::from(end == Some(true));
                                observed = sent;
                            }
                            None => break,
                        }
                    }
                    recoveries += 1;
                    if !inner.advance() {
                        break;
                    }
                }
            }
            if !outer.advance() {
                break;
            }
        }
        println!(
            "step_walk: {schedules} live schedule(s) ({committed} committed) + {crashes} \
             crash(es), recovered over {recoveries} schedule(s) ({recommitted} committed); \
             crash points hit {crash_points:?}"
        );
        assert!(committed > 0 && committed < schedules);
        assert!(recommitted > 0 && recommitted < recoveries);
        assert!(crash_points.iter().all(|&n| n > 0), "{crash_points:?}");
        // A count that moves means the machine sends, journals or passes a
        // crash position somewhere else. Debug builds kill one target.
        let recovered = if cfg!(debug_assertions) {
            52_520
        } else {
            67_424
        };
        assert_eq!(
            (schedules, committed, crashes, crash_points),
            (586, 1, 207, [1, 1, 1, 1, 14])
        );
        assert_eq!((recoveries, recommitted), (recovered, 5));
    }

    /// What an action does, in a word or three.
    fn name(action: &Action) -> String {
        match action {
            Action::Journal(record) => format!(
                "journal {}",
                record.to_json().get("t").unwrap().as_str().unwrap()
            ),
            Action::Send { msg, intent, .. } => {
                let wal = ["unjournaled", "journaled"][usize::from(intent.is_some())];
                format!("send {} {} {wal}", msg.op.name(), msg.switch)
            }
            Action::Revert(sw) => format!("revert {sw}"),
            Action::Conclude { committed } => format!("conclude {committed}"),
        }
    }

    /// Carry `tx` out on `fleet` with every send acknowledged at once,
    /// until `stop` holds for an action carried out or the transaction is
    /// over. Returns the actions, the `step` calls made and the journal.
    fn clean_run(
        tx: &mut Txn,
        fleet: &mut BTreeMap<String, SwitchState>,
        stop: impl Fn(&Action) -> bool,
    ) -> (Vec<String>, usize, Vec<IntentRecord>) {
        let (mut actions, mut steps, mut journal, mut observed) = (vec![], 0, vec![], None);
        loop {
            let held = |sw: &str| fleet.get(sw).map(SwitchState::held);
            steps += 1;
            let Some(action) = tx.step(observed.take(), held).unwrap() else {
                return (actions, steps, journal);
            };
            actions.push(name(&action));
            match &action {
                Action::Journal(record) => journal.push(record.clone()),
                Action::Send { msg, intent, .. } => {
                    journal.extend(intent.clone());
                    deliver(fleet, None, msg);
                    let (acked, attempts, elapsed) = (true, 1, Duration::ZERO);
                    observed = Some(Sent {
                        acked,
                        attempts,
                        elapsed,
                    });
                }
                Action::Revert(sw) => force_rollback(fleet, None, sw, tx.epoch),
                Action::Conclude { committed } => {
                    settle(fleet, None, (!committed).then_some(tx.epoch));
                }
            }
            if stop(&action) {
                return (actions, steps, journal);
            }
        }
    }

    /// One action per step: a clean one-target, one-batch rollout is five
    /// actions, and a clean recovery of a journaled commit queries every
    /// target (unjournaled), commits the targets not yet serving
    /// (journaled) and concludes.
    #[test]
    fn a_clean_transaction_takes_one_step_per_action() {
        let mut one = fleet();
        one.retain(|sw, _| sw == "A");
        let staged = vec![Staged {
            trusted: true,
            ..Default::default()
        }];
        let report = RolloutReport {
            epoch: 2,
            switches: vec![SwitchRollout::default()],
            ..Default::default()
        };
        let mut tx = Txn::rollout(1, vec!["A".into()], staged, ATTEMPTS, report);
        let (actions, steps, _) = clean_run(&mut tx, &mut one, |_| false);
        let expected = [
            "journal begin",
            "send prepare-delta A journaled",
            "journal decision",
            "send commit A journaled",
            "conclude true",
        ];
        assert_eq!((actions, steps), (expected.map(String::from).to_vec(), 6));
        assert_eq!(one["A"].held().serving, 2);

        // Three targets, the controller gone right after A's commit.
        let mut three = fleet();
        let mut tx = live();
        let a_commit = |a: &Action| name(a) == "send commit A journaled";
        let (_, _, journal) = clean_run(&mut tx, &mut three, a_commit);
        let mut tx = Txn::recovery(&journal, ATTEMPTS).expect("in flight");
        let (actions, steps, _) = clean_run(&mut tx, &mut three, |_| false);
        let expected = [
            "send query A unjournaled",
            "send query B unjournaled",
            "send query C unjournaled",
            "send commit B journaled",
            "send commit C journaled",
            "conclude true",
        ];
        assert_eq!((actions, steps), (expected.map(String::from).to_vec(), 7));
        assert!(three.values().all(|st| st.held().serving == 2));
    }

    /// A switch off the prior epoch when its prepare is sent cannot take a
    /// delta against that epoch: it is prepared from an empty switch, and
    /// the transaction commits.
    #[test]
    fn a_target_off_the_prior_epoch_is_prepared_from_empty() {
        let mut fleet = fleet();
        fleet.retain(|sw, _| sw != "C");
        fleet.get_mut("B").unwrap().reset_epoch(2);
        let mut next = DataPlaneState::new();
        next.install("t", 1, 10);
        let staged = ["A", "B"].map(|sw| Staged {
            delta: entry_delta(&fleet[sw].dp, &next).ops,
            state: next.clone(),
            trusted: true,
        });
        let report = RolloutReport {
            epoch: 3,
            switches: vec![SwitchRollout::default(); 2],
            ..Default::default()
        };
        let targets = vec!["A".into(), "B".into()];
        let mut tx = Txn::rollout(1, targets, staged.into(), ATTEMPTS, report);
        let bases = std::cell::RefCell::new(Vec::new());
        let base_of = |action: &Action| {
            if let Action::Send { msg, .. } = action {
                if let ControlOp::PrepareDelta { base_epoch, .. } = msg.op {
                    bases.borrow_mut().push((msg.switch.clone(), base_epoch));
                }
            }
            false
        };
        let (actions, ..) = clean_run(&mut tx, &mut fleet, base_of);
        assert_eq!(actions.last().map(String::as_str), Some("conclude true"));
        let expected = [("A".to_string(), Some(1)), ("B".to_string(), None)];
        assert_eq!(bases.into_inner(), expected);
        let r = &tx.report;
        assert_eq!((r.snapshot_prepares, r.delta_prepares), (1, 1), "{r:?}");
        for st in fleet.values() {
            assert_eq!(st.held().serving, 3);
            assert_eq!(st.dp.externs["t"].get(1), Some(10));
        }
    }
}
