//! # Line-rate data-plane execution under live rollouts
//!
//! The runtime's [`Runtime::inject`](crate::Runtime::inject) interprets the
//! IR per packet — fine for semantics, far too slow for measuring a rollout
//! under traffic. This module compiles each placement into slot-indexed
//! bytecode ([`lyra_ir::compiled`]) once at deployment time and replays
//! seeded traffic through it on every core:
//!
//! * [`CompiledDeployment`] — a [`CompileOutput`] flattened to per-switch
//!   bytecode streams sharing one [`ProgramLayout`] register file.
//! * [`LiveTrafficPlane`] — the switches as the *data plane* sees them:
//!   per-switch `RwLock<Arc<EpochPlane>>` snapshots (program + sealed table
//!   snapshot + epoch), flipped atomically by control messages. Workers pin
//!   a packet to one epoch per path; a packet never executes under two.
//! * [`TrafficChannel`] — wraps any [`ControlChannel`] so every message the
//!   rollout engine sends (including lossy fates and late replays) is also
//!   applied to the live plane, exactly as the switch agent would.
//! * [`replay_compiled`] / [`replay_interpreted`] — throughput harnesses
//!   over identical seeded traffic, for the compiled-vs-interpreter bench.
//! * [`replay_under_rollout`] — runs [`Runtime::apply_rollout`] *while*
//!   worker threads push packets, then reports packet loss and mixed-epoch
//!   exposure alongside the rollout report.
//! * [`replay_under_recovery`] — the same harness around
//!   [`Runtime::recover`]: traffic keeps flowing through the mid-flight
//!   remnants a crashed controller left behind while the restarted
//!   controller drives them to all-commit or all-rollback.
//!
//! ## Bring-up
//!
//! Building a plane copies no table entry and no register: every
//! [`TableSnapshot`] shares the runtime's `ExternTable` pages and `Arc`'d
//! register arrays, and because every writer of either copies on write
//! (`Runtime::install`, the interpreter's register writes, delta prepares
//! on the mirror), a built plane is a consistent snapshot of the runtime
//! at the moment it was built. What bring-up does cost — bytecode
//! compilation plus O(pages) pointer copies — is reported per replay as
//! [`ReplayReport::bring_up`].
//!
//! ## Epoch pinning
//!
//! Each worker caches the per-switch serving planes and revalidates the
//! cache against a generation counter bumped on every commit/rollback flip.
//! Before executing a packet it checks that every hop on the packet's path
//! serves the same epoch; a disagreeing path refuses the packet (counted as
//! `refused_epoch_mismatch`, the replay's packet loss) rather than exposing
//! it to two placements — the same guarantee `inject` enforces, kept under
//! concurrency by checking the exact `Arc` snapshots the packet would run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use lyra_ir::{
    execute, CompiledAlgorithm, DataPlaneState, GlobalAccess, GlobalOverlay, InstrId, IrAlgorithm,
    Machine, PacketState, ProgramLayout, TableSnapshot,
};

use crate::channel::{ControlChannel, ControlMsg, ControlOp, Delivery, EntryOp};
use crate::recovery::RecoveryReport;
use crate::rollout::{IntentStore, RolloutConfig, RolloutReport};
use crate::runtime::{Runtime, RuntimeError};
use crate::CompileOutput;

/// Recover a lock even if a worker panicked while holding it: the plane's
/// data is epoch snapshots swapped whole (never partially written), so the
/// poisoned contents are still consistent and refusing to serve would turn
/// one worker's panic into a total outage.
fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// See [`read_lock`].
fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// See [`read_lock`].
fn lock_control<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A placement compiled to per-switch bytecode streams. Built once per
/// deployment; packets then execute with zero name lookups and zero
/// allocation.
pub struct CompiledDeployment {
    layout: Arc<ProgramLayout>,
    switches: BTreeMap<String, Arc<Vec<CompiledAlgorithm>>>,
    paths: Vec<Vec<String>>,
    live_in: Vec<u32>,
}

impl CompiledDeployment {
    /// Compile `output` against its own program's layout.
    pub fn new(output: &CompileOutput) -> Self {
        Self::with_layout(output, Arc::new(ProgramLayout::new(&output.ir)))
    }

    /// Compile `output` against a caller-provided layout — use
    /// [`ProgramLayout::unioned`] when two deployments (current and next
    /// epoch of a rollout) must share one register file.
    pub fn with_layout(output: &CompileOutput, layout: Arc<ProgramLayout>) -> Self {
        let mut switches = BTreeMap::new();
        let mut live_in: BTreeSet<u32> = BTreeSet::new();
        for (sw, plan) in &output.placement.switches {
            let mut algs = Vec::new();
            // Mirror `Runtime::inject`: algorithms in BTreeMap order, each
            // stream's instruction ids sorted into program order.
            for (alg_name, ids) in &plan.instrs {
                let Some(alg) = output.ir.algorithm(alg_name) else {
                    continue; // placement of an unknown algorithm: no code
                };
                let mut ordered: Vec<InstrId> = ids.clone();
                ordered.sort();
                let compiled = CompiledAlgorithm::compile(alg, &ordered, &layout);
                live_in.extend(compiled.live_in().iter().copied());
                algs.push(compiled);
            }
            switches.insert(sw.clone(), Arc::new(algs));
        }
        let mut paths: Vec<Vec<String>> = output
            .flow_paths
            .values()
            .flatten()
            .filter(|p| !p.is_empty())
            .cloned()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        if paths.is_empty() {
            // Degenerate single-switch deployments (PER-SW scopes without
            // recorded flow paths): every holder is its own one-hop path.
            paths = switches.keys().map(|sw| vec![sw.clone()]).collect();
        }
        CompiledDeployment {
            layout,
            switches,
            paths,
            live_in: live_in.into_iter().collect(),
        }
    }

    /// The shared register-file layout.
    pub fn layout(&self) -> &Arc<ProgramLayout> {
        &self.layout
    }

    /// Slots a packet must provide (union over every compiled stream).
    pub fn live_in(&self) -> &[u32] {
        &self.live_in
    }

    /// The replayable paths (deduped union of the placement's flow paths).
    pub fn paths(&self) -> &[Vec<String>] {
        &self.paths
    }

    /// Number of switches holding code.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Total compiled ops across all switches and algorithms.
    pub fn op_count(&self) -> usize {
        self.switches
            .values()
            .map(|algs| algs.iter().map(|a| a.len()).sum::<usize>())
            .sum()
    }
}

/// Everything one switch serves for one epoch: the compiled programs and a
/// sealed snapshot of its tables and global registers, which shares its
/// storage with the runtime state it was taken from. Immutable once built
/// — epoch flips swap the `Arc`, never mutate in place. (Delta prepares
/// mutate the *staged* plane via `Arc::make_mut` before it is ever served,
/// which is why this is `Clone`; the mutation itself is copy-on-write per
/// page, so it never reaches the serving plane's or the runtime's pages.)
#[derive(Clone)]
struct EpochPlane {
    epoch: u64,
    algs: Arc<Vec<CompiledAlgorithm>>,
    snap: TableSnapshot,
}

/// The control-side view of one switch, mirroring the rollout engine's
/// switch-agent state machine (`rollout::deliver`) message for message.
struct PlaneControl {
    epoch: u64,
    staged: Option<(u64, Arc<EpochPlane>)>,
    prior: Option<(u64, Arc<EpochPlane>)>,
    tokens: BTreeSet<u64>,
}

/// The switches as worker threads see them: read-mostly per-switch serving
/// planes plus the control state that flips them. Shared by reference into
/// a [`std::thread::scope`].
pub struct LiveTrafficPlane {
    layout: Arc<ProgramLayout>,
    names: Vec<String>,
    index: BTreeMap<String, usize>,
    serving: Vec<RwLock<Arc<EpochPlane>>>,
    control: Mutex<Vec<PlaneControl>>,
    /// Per-switch programs of the *next* deployment; a `Prepare` pairs the
    /// staged table state with these.
    staged_algs: Vec<Arc<Vec<CompiledAlgorithm>>>,
    paths: Vec<Vec<usize>>,
    live_in: Vec<u32>,
    /// Bumped (release) on every serving flip; workers revalidate their
    /// plane cache against it with one acquire load per packet.
    generation: AtomicU64,
}

impl LiveTrafficPlane {
    /// A static plane for pure-throughput replay: every switch serves the
    /// runtime's current epoch and will never be flipped.
    pub fn for_replay(rt: &Runtime<'_>, dep: &CompiledDeployment) -> Self {
        Self::build(rt, dep, dep)
    }

    /// A plane that will live through a rollout from the deployment of
    /// `rt.output()` (`dep_cur`) to `dep_next`. Covers the union of both
    /// placements' switches so prepares to newly added switches land.
    pub fn for_rollout(
        rt: &Runtime<'_>,
        dep_cur: &CompiledDeployment,
        dep_next: &CompiledDeployment,
    ) -> Self {
        Self::build(rt, dep_cur, dep_next)
    }

    fn build(
        rt: &Runtime<'_>,
        dep_cur: &CompiledDeployment,
        dep_next: &CompiledDeployment,
    ) -> Self {
        let empty = DataPlaneState::new();
        let empty_algs: Arc<Vec<CompiledAlgorithm>> = Arc::new(Vec::new());
        let mut names: BTreeSet<String> = dep_cur.switches.keys().cloned().collect();
        names.extend(dep_next.switches.keys().cloned());
        names.extend(rt.states.keys().cloned());
        let names: Vec<String> = names.into_iter().collect();
        let index: BTreeMap<String, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let mut serving = Vec::with_capacity(names.len());
        let mut control = Vec::with_capacity(names.len());
        let mut staged_algs = Vec::with_capacity(names.len());
        for name in &names {
            let st = rt.states.get(name);
            let (epoch, dp) = match st {
                Some(st) => (st.epoch, &st.dp),
                None => (rt.epoch, &empty),
            };
            let next_algs = dep_next.switches.get(name).unwrap_or(&empty_algs).clone();
            // A switch that retains a prior epoch already flipped to the
            // *next* deployment mid-rollout (a crashed controller can leave
            // the fleet like this); its serving program is the next one.
            let flipped = st.is_some_and(|st| st.prior.is_some());
            let cur_algs = dep_cur.switches.get(name).unwrap_or(&empty_algs).clone();
            let algs = if flipped {
                next_algs.clone()
            } else {
                cur_algs.clone()
            };
            serving.push(RwLock::new(Arc::new(EpochPlane {
                epoch,
                algs,
                snap: TableSnapshot::build(&dep_cur.layout, dp),
            })));
            // Mirror any mid-flight staged/prior/token remnants so a plane
            // built *after* a controller crash agrees with the runtime's
            // switch agents message for message during recovery.
            let staged = st.and_then(|st| st.staged.as_ref()).map(|(e, dp)| {
                (
                    *e,
                    Arc::new(EpochPlane {
                        epoch: *e,
                        algs: next_algs.clone(),
                        snap: TableSnapshot::build(&dep_cur.layout, dp),
                    }),
                )
            });
            let prior = st.and_then(|st| st.prior.as_ref()).map(|(e, dp)| {
                (
                    *e,
                    Arc::new(EpochPlane {
                        epoch: *e,
                        algs: cur_algs,
                        snap: TableSnapshot::build(&dep_cur.layout, dp),
                    }),
                )
            });
            control.push(PlaneControl {
                epoch,
                staged,
                prior,
                tokens: st.map(|st| st.tokens.clone()).unwrap_or_default(),
            });
            staged_algs.push(next_algs);
        }
        let paths = dep_cur
            .paths
            .iter()
            .map(|p| p.iter().filter_map(|h| index.get(h).copied()).collect())
            .collect();
        let mut live_in: BTreeSet<u32> = dep_cur.live_in.iter().copied().collect();
        live_in.extend(dep_next.live_in.iter().copied());
        LiveTrafficPlane {
            layout: dep_cur.layout.clone(),
            names,
            index,
            serving,
            control: Mutex::new(control),
            staged_algs,
            paths,
            live_in: live_in.into_iter().collect(),
            generation: AtomicU64::new(0),
        }
    }

    /// The epoch a switch currently serves (`None` if unknown here).
    pub fn serving_epoch(&self, switch: &str) -> Option<u64> {
        let i = *self.index.get(switch)?;
        Some(read_lock(&self.serving[i]).epoch)
    }

    /// True when the plane agrees with the runtime on every switch the
    /// runtime knows: the serving epoch matches, and the plane retains
    /// staged/prior state exactly where the runtime's switch agent does.
    /// This is the traffic-plane half of
    /// [`Runtime::epochs_coherent_with_plane`](crate::Runtime::epochs_coherent_with_plane).
    pub fn mirrors(&self, rt: &Runtime<'_>) -> bool {
        let control = lock_control(&self.control);
        self.names.iter().enumerate().all(|(i, name)| {
            let Some(st) = rt.states.get(name) else {
                return true; // failed/unknown switch: no runtime state to mirror
            };
            let ctl = &control[i];
            read_lock(&self.serving[i]).epoch == st.epoch
                && ctl.epoch == st.epoch
                && ctl.staged.as_ref().map(|(e, _)| *e) == st.staged.as_ref().map(|(e, _)| *e)
                && ctl.prior.as_ref().map(|(e, _)| *e) == st.prior.as_ref().map(|(e, _)| *e)
        })
    }

    /// Apply one delivered control message, mirroring the rollout engine's
    /// switch agent: token idempotency, stale-prepare guards, commit flip
    /// with retained prior, rollback restore.
    pub fn apply(&self, msg: &ControlMsg) {
        let Some(&i) = self.index.get(&msg.switch) else {
            return; // message to a switch the plane does not know: dropped
        };
        if matches!(msg.op, ControlOp::Query | ControlOp::Probe) {
            // Read-only state query (recovery) or health probe: nothing to
            // apply, and no token is recorded — a retried copy must never
            // be suppressed.
            return;
        }
        let mut control = lock_control(&self.control);
        let ctl = &mut control[i];
        if ctl.tokens.contains(&msg.token) {
            return;
        }
        match &msg.op {
            ControlOp::Prepare { staged } => {
                let newer_than_active = msg.epoch > ctl.epoch;
                let not_stale = ctl.staged.as_ref().is_none_or(|(e, _)| msg.epoch >= *e);
                if newer_than_active && not_stale {
                    let plane = Arc::new(EpochPlane {
                        epoch: msg.epoch,
                        algs: self.staged_algs[i].clone(),
                        snap: TableSnapshot::build(&self.layout, staged),
                    });
                    ctl.staged = Some((msg.epoch, plane));
                }
            }
            ControlOp::PrepareDelta {
                base_epoch,
                ops,
                globals,
                batch_index,
                ..
            } => {
                if *batch_index == 0 {
                    // Opening batch: clone the *serving* snapshot (an
                    // O(pages) pointer copy that shares every page with
                    // it), point it at the next epoch's globals, and fold
                    // the ops in copy-on-write — the staged snapshot ends
                    // up owning only the pages the delta touched. Same
                    // guards as the switch agent, plus the delta-specific
                    // check that the serving epoch is the base the diff
                    // was cut against.
                    let newer_than_active = msg.epoch > ctl.epoch;
                    let not_stale = ctl.staged.as_ref().is_none_or(|(e, _)| msg.epoch >= *e);
                    if newer_than_active && not_stale && *base_epoch == ctl.epoch {
                        let mut snap = read_lock(&self.serving[i]).snap.clone();
                        snap.globals = self.layout.shared_globals(globals);
                        apply_delta_ops(&self.layout, &mut snap, ops);
                        let plane = Arc::new(EpochPlane {
                            epoch: msg.epoch,
                            algs: self.staged_algs[i].clone(),
                            snap,
                        });
                        ctl.staged = Some((msg.epoch, plane));
                    }
                } else if let Some((e, plane)) = ctl.staged.as_mut() {
                    // Later batches append onto the staged plane — which
                    // is not serving yet, so in-place mutation behind
                    // `make_mut` cannot be observed by a worker.
                    if *e == msg.epoch {
                        let ep = Arc::make_mut(plane);
                        apply_delta_ops(&self.layout, &mut ep.snap, ops);
                    }
                }
            }
            ControlOp::Query | ControlOp::Probe => return, // handled above; kept for exhaustiveness
            ControlOp::Commit => {
                if ctl.epoch != msg.epoch {
                    if let Some((e, plane)) = ctl.staged.take() {
                        if e == msg.epoch {
                            let old = {
                                let mut s = write_lock(&self.serving[i]);
                                std::mem::replace(&mut *s, plane)
                            };
                            ctl.prior = Some((ctl.epoch, old));
                            ctl.epoch = msg.epoch;
                            self.generation.fetch_add(1, Ordering::Release);
                        } else {
                            ctl.staged = Some((e, plane)); // wrong epoch: ignore
                        }
                    }
                }
            }
            ControlOp::Rollback => {
                if ctl.epoch == msg.epoch {
                    if let Some((e, plane)) = ctl.prior.take() {
                        *write_lock(&self.serving[i]) = plane;
                        ctl.epoch = e;
                        self.generation.fetch_add(1, Ordering::Release);
                    }
                }
                if ctl.staged.as_ref().is_some_and(|(e, _)| *e == msg.epoch) {
                    ctl.staged = None;
                }
            }
        }
        ctl.tokens.insert(msg.token);
    }

    /// Resynchronise the plane with the runtime after a rollout returns —
    /// covers the paths messages alone cannot: out-of-band forced rollbacks
    /// and the finalize sweep that clears staged/prior/tokens. `winner` is
    /// the deployment of whichever output the runtime now serves.
    pub fn align(&self, rt: &Runtime<'_>, winner: &CompiledDeployment) {
        self.resync(rt, winner, &self.names);
    }

    /// Re-snapshot only the named switches from the runtime — the targeted
    /// form of [`LiveTrafficPlane::align`] the anti-entropy audit uses:
    /// after [`Runtime::audit_switches`](crate::Runtime::audit_switches)
    /// repairs drift, pass
    /// [`AuditReport::drifted_switches`](crate::AuditReport::drifted_switches)
    /// so repaired state becomes servable without rebuilding the healthy
    /// majority. `winner` is the deployment of the output the runtime
    /// serves. Unknown names are ignored.
    pub fn resync(&self, rt: &Runtime<'_>, winner: &CompiledDeployment, switches: &[String]) {
        let empty = DataPlaneState::new();
        let empty_algs: Arc<Vec<CompiledAlgorithm>> = Arc::new(Vec::new());
        let mut control = lock_control(&self.control);
        for name in switches {
            let Some(&i) = self.index.get(name) else {
                continue;
            };
            let (epoch, dp) = match rt.states.get(name) {
                Some(st) => (st.epoch, &st.dp),
                None => (rt.epoch, &empty),
            };
            let algs = winner.switches.get(name).unwrap_or(&empty_algs).clone();
            *write_lock(&self.serving[i]) = Arc::new(EpochPlane {
                epoch,
                algs,
                snap: TableSnapshot::build(&self.layout, dp),
            });
            control[i] = PlaneControl {
                epoch,
                staged: None,
                prior: None,
                tokens: BTreeSet::new(),
            };
        }
        self.generation.fetch_add(1, Ordering::Release);
    }
}

/// Fold a delta prepare's entry ops into a staged [`TableSnapshot`]. Ops
/// naming tables the layout does not know are dropped, matching how the
/// interpreter-side switch agent ignores installs into undeclared tables.
fn apply_delta_ops(layout: &ProgramLayout, snap: &mut TableSnapshot, ops: &[EntryOp]) {
    for op in ops {
        match op {
            EntryOp::Set { table, key, value } => {
                if let Some(t) = layout.table(table) {
                    snap.set(t, *key, *value);
                }
            }
            EntryOp::Remove { table, key } => {
                if let Some(t) = layout.table(table) {
                    snap.remove(t, *key);
                }
            }
        }
    }
}

/// A [`ControlChannel`] adapter that forwards every transmit to an inner
/// channel (which decides the fate) and applies each *delivered* copy to a
/// [`LiveTrafficPlane`], so the data plane flips in lock-step with the
/// runtime's switch states — duplicates, late replays, lost acks and all.
pub struct TrafficChannel<'a> {
    inner: &'a mut dyn ControlChannel,
    plane: &'a LiveTrafficPlane,
}

impl<'a> TrafficChannel<'a> {
    /// Wrap `inner`, mirroring deliveries onto `plane`.
    pub fn new(inner: &'a mut dyn ControlChannel, plane: &'a LiveTrafficPlane) -> Self {
        TrafficChannel { inner, plane }
    }
}

impl ControlChannel for TrafficChannel<'_> {
    fn transmit(&mut self, msg: &ControlMsg) -> Delivery {
        let fate = self.inner.transmit(msg);
        match fate {
            Delivery::Delivered | Delivery::AckLost => self.plane.apply(msg),
            Delivery::Duplicated => {
                self.plane.apply(msg);
                self.plane.apply(msg);
            }
            Delivery::Dropped => {}
        }
        fate
    }

    fn drain_late(&mut self) -> Vec<ControlMsg> {
        let msgs = self.inner.drain_late();
        for m in &msgs {
            self.plane.apply(m);
        }
        msgs
    }
}

/// Replay-harness knobs.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Total packets to push (shared across all workers).
    pub packets: u64,
    /// Worker threads. `replay_interpreted` ignores this (the interpreter
    /// baseline is single-threaded, like `inject`).
    pub workers: usize,
    /// Seed for the packet generator. A packet's contents and path are a
    /// pure function of `(seed, packet index)`, so results do not depend on
    /// which worker claims which packet.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            packets: 200_000,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            seed: 0x017a_5eed,
        }
    }
}

impl ReplayConfig {
    /// Set the packet budget.
    pub fn with_packets(mut self, packets: u64) -> Self {
        self.packets = packets;
        self
    }

    /// Set the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the traffic seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What a replay observed.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Packets attempted (delivered + refused).
    pub packets: u64,
    /// Packets that executed end to end under one pinned epoch.
    pub delivered: u64,
    /// Packets refused because their path's hops disagreed on the serving
    /// epoch mid-rollout — the harness's packet-loss figure.
    pub refused_epoch_mismatch: u64,
    /// Packets that *executed* under two different epochs. The pinning
    /// check makes this structurally zero; it is counted (not assumed) so
    /// the invariant is measured, and asserted in the chaos tests.
    pub mixed_epoch_exposure: u64,
    /// Worker threads that panicked mid-replay. Their partial counts are
    /// lost but the replay completes on the survivors — a poisoned worker
    /// must not take the serving plane down with it.
    pub worker_panics: u64,
    /// Total effects fired (actions recorded by executed packets).
    pub effects: u64,
    /// XOR-fold of every packet's machine digest — order-independent, so
    /// equal traffic must produce the same digest for any worker count.
    pub digest: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Time spent before the first packet: compiling the deployment(s) to
    /// bytecode and building the plane the workers read. Not part of
    /// `elapsed`.
    pub bring_up: Duration,
    /// Wall-clock time of the replay.
    pub elapsed: Duration,
    /// Delivered packets per second.
    pub pps: f64,
}

impl ReplayReport {
    /// Serialise for logs and the bench recorder.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"packets\":{},\"delivered\":{},\"refused_epoch_mismatch\":{},\
             \"mixed_epoch_exposure\":{},\"worker_panics\":{},\"effects\":{},\
             \"digest\":\"{:#x}\",\"workers\":{},\"bring_up_us\":{},\"elapsed_us\":{},\
             \"pps\":{:.0}}}",
            self.packets,
            self.delivered,
            self.refused_epoch_mismatch,
            self.mixed_epoch_exposure,
            self.worker_panics,
            self.effects,
            self.digest,
            self.workers,
            self.bring_up.as_micros(),
            self.elapsed.as_micros(),
            self.pps,
        )
    }
}

/// A replay and the rollout it ran under.
#[derive(Debug)]
pub struct RolloutReplayOutcome {
    /// The traffic-side observations.
    pub replay: ReplayReport,
    /// The control-side report from [`Runtime::apply_rollout`].
    pub rollout: RolloutReport,
}

/// splitmix64 finalizer — the replay's only randomness. Deterministic per
/// packet index so worker scheduling cannot change the traffic.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-packet base state from the seed and the global packet index.
fn packet_base(seed: u64, idx: u64) -> u64 {
    splitmix(seed ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The value of live-in field `j` for a packet: a mix of small values
/// (branch selectors, opcodes, table keys that collide) and wide ones.
fn field_value(base: u64, j: usize) -> u64 {
    let r = splitmix(base ^ ((j as u64) << 17));
    match r & 3 {
        0 => r >> 59,
        1 => (r >> 48) & 0xff,
        _ => r >> 2,
    }
}

#[derive(Default)]
struct WorkerOut {
    delivered: u64,
    refused: u64,
    mixed: u64,
    effects: u64,
    digest: u64,
}

fn run_worker(
    plane: &LiveTrafficPlane,
    cfg: &ReplayConfig,
    next: &AtomicU64,
    stop: &AtomicBool,
) -> WorkerOut {
    let mut machine = Machine::new(&plane.layout);
    let mut overlay = GlobalOverlay::new();
    let mut cache: Vec<Arc<EpochPlane>> = Vec::new();
    let mut cache_gen = u64::MAX;
    let mut out = WorkerOut::default();
    loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        if idx >= cfg.packets || stop.load(Ordering::Relaxed) {
            break;
        }
        // Revalidate the per-switch plane cache: one acquire load per
        // packet in steady state, a full re-read only after a flip.
        let gen = plane.generation.load(Ordering::Acquire);
        if gen != cache_gen {
            cache = plane.serving.iter().map(|l| read_lock(l).clone()).collect();
            cache_gen = gen;
        }
        let base = packet_base(cfg.seed, idx);
        if plane.paths.is_empty() {
            out.delivered += 1;
            continue;
        }
        let path = &plane.paths[(base % plane.paths.len() as u64) as usize];
        // Epoch pinning: the packet runs only if every hop serves the same
        // epoch. The check is on the exact snapshots the packet would
        // execute, so a concurrent flip cannot slip a second epoch in.
        if let Some(&first) = path.first() {
            let pin = cache[first].epoch;
            if path.iter().any(|&h| cache[h].epoch != pin) {
                out.refused += 1;
                continue;
            }
        }
        machine.reset();
        for (j, &slot) in plane.live_in.iter().enumerate() {
            machine.set_slot(slot, field_value(base, j));
        }
        let mut pinned: Option<u64> = None;
        for &h in path {
            let ep = &cache[h];
            if let Some(pin) = pinned {
                if ep.epoch != pin {
                    out.mixed += 1; // measured, never expected: see pinning
                    break;
                }
            }
            pinned = Some(ep.epoch);
            // Globals are per-switch, so the overlay resets at each hop;
            // within a hop, reads see this packet's earlier writes.
            overlay.clear();
            let mut globals = GlobalAccess::Isolated {
                baseline: &ep.snap.globals,
                overlay: &mut overlay,
            };
            for alg in ep.algs.iter() {
                machine.run(alg, &ep.snap, &mut globals);
            }
        }
        out.delivered += 1;
        out.effects += machine.effect_count() as u64;
        out.digest ^= splitmix(machine.digest() ^ base);
    }
    out
}

/// Join replay workers without letting one panicked worker take the
/// harness down: a panicked worker's partial counts are lost, but the
/// replay (and the serving plane behind it) completes on the survivors.
/// The panic is counted on the report instead of re-raised — the
/// thread-side counterpart of the poison-recovering lock helpers above.
fn join_workers(
    handles: Vec<std::thread::ScopedJoinHandle<'_, WorkerOut>>,
) -> (Vec<WorkerOut>, u64) {
    let mut outs = Vec::with_capacity(handles.len());
    let mut panics = 0u64;
    for h in handles {
        match h.join() {
            Ok(o) => outs.push(o),
            Err(_) => panics += 1,
        }
    }
    (outs, panics)
}

fn aggregate(
    outs: Vec<WorkerOut>,
    worker_panics: u64,
    workers: usize,
    bring_up: Duration,
    elapsed: Duration,
) -> ReplayReport {
    let mut report = ReplayReport {
        packets: 0,
        delivered: 0,
        refused_epoch_mismatch: 0,
        mixed_epoch_exposure: 0,
        worker_panics,
        effects: 0,
        digest: 0,
        workers,
        bring_up,
        elapsed,
        pps: 0.0,
    };
    for o in outs {
        report.delivered += o.delivered;
        report.refused_epoch_mismatch += o.refused;
        report.mixed_epoch_exposure += o.mixed;
        report.effects += o.effects;
        report.digest ^= o.digest;
    }
    report.packets = report.delivered + report.refused_epoch_mismatch;
    report.pps = report.delivered as f64 / elapsed.as_secs_f64().max(1e-9);
    report
}

/// Replay seeded traffic through the *compiled* engine on a static plane
/// (no rollout in flight) and measure throughput.
pub fn replay_compiled(rt: &Runtime<'_>, cfg: &ReplayConfig) -> ReplayReport {
    let built = Instant::now();
    let dep = CompiledDeployment::new(rt.output());
    let plane = LiveTrafficPlane::for_replay(rt, &dep);
    let workers = cfg.workers.max(1);
    let next = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (outs, panics) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| s.spawn(|| run_worker(&plane, cfg, &next, &stop)))
            .collect();
        join_workers(handles)
    });
    aggregate(outs, panics, workers, t0 - built, t0.elapsed())
}

/// Replay the *same* seeded traffic through the reference interpreter,
/// single-threaded, as the throughput baseline. State handling matches
/// [`Runtime::inject`]: one persistent mutable [`DataPlaneState`] clone per
/// switch, shared packet state across hops.
pub fn replay_interpreted(rt: &Runtime<'_>, cfg: &ReplayConfig) -> ReplayReport {
    let built = Instant::now();
    let output = rt.output();
    let dep = CompiledDeployment::new(output);
    let layout = dep.layout.clone();
    let mut states: BTreeMap<&str, DataPlaneState> = BTreeMap::new();
    let mut streams: BTreeMap<&str, Vec<(&IrAlgorithm, Vec<InstrId>)>> = BTreeMap::new();
    for (sw, plan) in &output.placement.switches {
        let dp = rt
            .states
            .get(sw)
            .map(|st| st.dp.clone())
            .unwrap_or_default();
        states.insert(sw.as_str(), dp);
        let mut algs = Vec::new();
        for (alg_name, ids) in &plan.instrs {
            if let Some(alg) = output.ir.algorithm(alg_name) {
                let mut ordered: Vec<InstrId> = ids.clone();
                ordered.sort();
                algs.push((alg, ordered));
            }
        }
        streams.insert(sw.as_str(), algs);
    }
    let paths: Vec<Vec<&str>> = dep
        .paths()
        .iter()
        .map(|p| {
            p.iter()
                .map(String::as_str)
                .filter(|h| streams.contains_key(h))
                .collect()
        })
        .collect();
    let t0 = Instant::now();
    let mut delivered = 0u64;
    let mut effects = 0u64;
    for idx in 0..cfg.packets {
        let base = packet_base(cfg.seed, idx);
        let mut pkt = PacketState::new();
        for (j, &slot) in dep.live_in().iter().enumerate() {
            pkt.set(layout.slot_name(slot), field_value(base, j));
        }
        if !paths.is_empty() {
            let path = &paths[(base % paths.len() as u64) as usize];
            for &sw in path {
                // Paths are pre-filtered to stream switches, but a hop
                // without state is a skip, not a panic, in a replay loop.
                let Some(dp) = states.get_mut(sw) else {
                    continue;
                };
                let Some(algs) = streams.get(sw) else {
                    continue;
                };
                for (alg, ids) in algs {
                    effects += execute(alg, ids, &mut pkt, dp).len() as u64;
                }
            }
        }
        delivered += 1;
    }
    let elapsed = t0.elapsed();
    ReplayReport {
        packets: delivered,
        delivered,
        refused_epoch_mismatch: 0,
        mixed_epoch_exposure: 0,
        worker_panics: 0,
        effects,
        digest: 0,
        workers: 1,
        bring_up: t0 - built,
        elapsed,
        pps: delivered as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

/// Run [`Runtime::apply_rollout`] while worker threads replay traffic
/// through the live plane, then report both sides.
///
/// The current and next deployments are compiled against one unioned
/// layout, so a worker's machine can execute either epoch. Workers push a
/// tenth of the packet budget on the old epoch first (so the flip happens
/// under load), the rollout runs over a [`TrafficChannel`] wrapping
/// `channel`, the plane is re-aligned with the runtime's final state
/// (forced rollbacks, finalize), and the remaining traffic drains on
/// whichever epoch won.
///
/// On a gated rollout (`Err`), traffic stops and the error is returned.
pub fn replay_under_rollout<'a>(
    rt: &mut Runtime<'a>,
    new_output: &'a CompileOutput,
    channel: &mut dyn ControlChannel,
    rollout_cfg: &RolloutConfig,
    replay_cfg: &ReplayConfig,
) -> Result<RolloutReplayOutcome, RuntimeError> {
    let built = Instant::now();
    let layout = Arc::new(ProgramLayout::unioned(&[&rt.output().ir, &new_output.ir]));
    let dep_cur = CompiledDeployment::with_layout(rt.output(), layout.clone());
    let dep_next = CompiledDeployment::with_layout(new_output, layout);
    let plane = LiveTrafficPlane::for_rollout(rt, &dep_cur, &dep_next);
    let workers = replay_cfg.workers.max(1);
    let next = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (outs, rollout) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| s.spawn(|| run_worker(&plane, replay_cfg, &next, &stop)))
            .collect();
        // Let traffic establish itself on the old epoch before flipping.
        let warm = replay_cfg.packets / 10;
        while next.load(Ordering::Relaxed) < warm && !handles.iter().all(|h| h.is_finished()) {
            std::thread::yield_now();
        }
        let mut traffic = TrafficChannel::new(channel, &plane);
        let rollout = rt.apply_rollout(new_output, &mut traffic, rollout_cfg);
        match &rollout {
            Ok(report) => {
                let winner = if report.committed {
                    &dep_next
                } else {
                    &dep_cur
                };
                plane.align(rt, winner);
            }
            Err(_) => stop.store(true, Ordering::Relaxed),
        }
        let outs = join_workers(handles);
        (outs, rollout)
    });
    let elapsed = t0.elapsed();
    let (outs, panics) = outs;
    let rollout = rollout?;
    Ok(RolloutReplayOutcome {
        replay: aggregate(outs, panics, workers, t0 - built, elapsed),
        rollout,
    })
}

/// A replay and the restart recovery it ran under.
#[derive(Debug)]
pub struct RecoveryReplayOutcome {
    /// The traffic-side observations.
    pub replay: ReplayReport,
    /// The control-side report from [`Runtime::recover`].
    pub recovery: RecoveryReport,
}

/// Run [`Runtime::recover`] while worker threads replay traffic through
/// the mid-flight state a crashed controller left behind.
///
/// The plane is built from the runtime *as the crash left it* — staged
/// epochs, retained priors, switches already flipped, and the idempotency
/// tokens each switch consumed — so recovery's re-driven messages land on
/// the traffic plane exactly as they land on the switch agents. Traffic
/// establishes itself first (a tenth of the packet budget), recovery runs
/// over a [`TrafficChannel`] wrapping `channel` (the same channel instance
/// the crashed rollout used: the network outlives the controller), the
/// plane is re-aligned with whichever epoch won, and the rest of the
/// traffic drains. Epoch pinning holds throughout, so
/// [`ReplayReport::mixed_epoch_exposure`] must come back zero even though
/// the fleet is mid-transaction when traffic starts.
pub fn replay_under_recovery<'a>(
    rt: &mut Runtime<'a>,
    new_output: &'a CompileOutput,
    store: &mut dyn IntentStore,
    channel: &mut dyn ControlChannel,
    rollout_cfg: &RolloutConfig,
    replay_cfg: &ReplayConfig,
) -> Result<RecoveryReplayOutcome, RuntimeError> {
    let built = Instant::now();
    let layout = Arc::new(ProgramLayout::unioned(&[&rt.output().ir, &new_output.ir]));
    let dep_cur = CompiledDeployment::with_layout(rt.output(), layout.clone());
    let dep_next = CompiledDeployment::with_layout(new_output, layout);
    let plane = LiveTrafficPlane::for_rollout(rt, &dep_cur, &dep_next);
    let workers = replay_cfg.workers.max(1);
    let next = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (outs, recovery) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| s.spawn(|| run_worker(&plane, replay_cfg, &next, &stop)))
            .collect();
        // Traffic flows through the crashed fleet before recovery starts.
        let warm = replay_cfg.packets / 10;
        while next.load(Ordering::Relaxed) < warm && !handles.iter().all(|h| h.is_finished()) {
            std::thread::yield_now();
        }
        let mut traffic = TrafficChannel::new(channel, &plane);
        let recovery = rt.recover(new_output, store, &mut traffic, rollout_cfg);
        match &recovery {
            Ok(report) => {
                let winner = if report.committed {
                    &dep_next
                } else {
                    &dep_cur
                };
                plane.align(rt, winner);
            }
            Err(_) => stop.store(true, Ordering::Relaxed),
        }
        let outs = join_workers(handles);
        (outs, recovery)
    });
    let elapsed = t0.elapsed();
    let (outs, panics) = outs;
    let recovery = recovery?;
    Ok(RecoveryReplayOutcome {
        replay: aggregate(outs, panics, workers, t0 - built, elapsed),
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{LossyChannel, ReliableChannel};
    use crate::{CompileRequest, Compiler, FaultSet};
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
    const LB_SCOPES: &str =
        "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";

    fn lb_request() -> CompileRequest<'static> {
        CompileRequest::new(LB, LB_SCOPES, figure1_network())
    }

    #[test]
    fn compiled_replay_matches_interpreter_effect_stream() {
        let out = Compiler::new().compile(&lb_request()).unwrap();
        let mut rt = Runtime::new(&out);
        rt.install("conn_table", 42, 0xabcd).unwrap();
        let cfg = ReplayConfig::default()
            .with_packets(2_000)
            .with_workers(1)
            .with_seed(7);
        let compiled = replay_compiled(&rt, &cfg);
        let interp = replay_interpreted(&rt, &cfg);
        assert_eq!(compiled.delivered, 2_000);
        assert_eq!(interp.delivered, 2_000);
        // The LB program is stateless outside its tables, so persistent
        // (interpreter) and isolated (compiled) replay see identical
        // traffic and must fire identical effect counts.
        assert_eq!(compiled.effects, interp.effects);
        assert_eq!(compiled.mixed_epoch_exposure, 0);
        assert_eq!(compiled.refused_epoch_mismatch, 0);
    }

    #[test]
    fn worker_count_does_not_change_the_digest() {
        let out = Compiler::new().compile(&lb_request()).unwrap();
        let mut rt = Runtime::new(&out);
        rt.install("conn_table", 9, 0x0b00).unwrap();
        let base = ReplayConfig::default().with_packets(4_000).with_seed(11);
        let one = replay_compiled(&rt, &base.clone().with_workers(1));
        let four = replay_compiled(&rt, &base.clone().with_workers(4));
        assert_eq!(one.digest, four.digest, "replay must be deterministic");
        assert_eq!(one.effects, four.effects);
        assert_eq!(one.delivered, four.delivered);
    }

    #[test]
    fn reliable_rollout_under_traffic_commits_with_zero_exposure() {
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
        let config = RolloutConfig::default().with_scope_health(r.scope_health.clone());
        let mut chan = ReliableChannel::new();
        let outcome = replay_under_rollout(
            &mut rt,
            &r.output,
            &mut chan,
            &config,
            &ReplayConfig::default().with_packets(30_000).with_workers(3),
        )
        .unwrap();
        assert!(outcome.rollout.committed, "{:?}", outcome.rollout);
        assert_eq!(outcome.replay.mixed_epoch_exposure, 0);
        assert_eq!(
            outcome.replay.delivered + outcome.replay.refused_epoch_mismatch,
            30_000
        );
        // Post-rollout the plane serves the new epoch everywhere.
        assert!(rt.epochs_coherent());
    }

    #[test]
    fn lossy_rollback_under_traffic_restores_the_old_epoch() {
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
        let mut chan = LossyChannel::new(3).with_switch_death("Agg4", 1);
        let config = RolloutConfig {
            max_attempts: 3,
            base_backoff: Duration::from_micros(5),
            max_backoff: Duration::from_micros(50),
            ..Default::default()
        };
        let outcome = replay_under_rollout(
            &mut rt,
            &r.output,
            &mut chan,
            &config,
            &ReplayConfig::default().with_packets(30_000).with_workers(3),
        )
        .unwrap();
        assert!(outcome.rollout.rolled_back, "{:?}", outcome.rollout);
        assert_eq!(outcome.replay.mixed_epoch_exposure, 0);
        assert_eq!(rt.epoch(), epoch_before);
        // After align, every plane switch is back on the old epoch.
        let plane = LiveTrafficPlane::for_replay(&rt, &CompiledDeployment::new(rt.output()));
        for sw in ["Agg3", "Agg4", "ToR3", "ToR4"] {
            if let Some(epoch) = plane.serving_epoch(sw) {
                assert_eq!(epoch, epoch_before, "{sw} must serve the prior epoch");
            }
        }
    }

    /// The LB with a table big enough that every shard spans several
    /// pages, and enough entries installed to fill them.
    fn paged_lb() -> CompileOutput {
        let program = LB.replace("[64] conn_table", "[8192] conn_table");
        Compiler::new()
            .compile(&CompileRequest::new(&program, LB_SCOPES, figure1_network()))
            .unwrap()
    }

    fn install_paged(rt: &mut Runtime<'_>) {
        let entries: Vec<(u64, u64)> = (0..8192u64).map(|k| (k * 7, k + 1)).collect();
        rt.install_many("conn_table", &entries).unwrap();
    }

    /// A switch serving a `conn_table` shard.
    fn shard_holder<'o>(out: &'o CompileOutput, rt: &Runtime<'_>) -> &'o String {
        let mut holders = out.placement.switches.keys();
        holders
            .find(|sw| rt.shard(sw, "conn_table").is_some())
            .unwrap()
    }

    /// The snapshot switch `sw` currently serves.
    fn serving_snap(plane: &LiveTrafficPlane, sw: &str) -> TableSnapshot {
        read_lock(&plane.serving[plane.index[sw]]).snap.clone()
    }

    /// A single-switch program whose digest depends on a register (read
    /// into `seen`) and whose effects depend on a table (misses punt).
    const COUNTER: &str = r#"
        pipeline[P]{ctr};
        algorithm ctr {
            global bit[32][16] hits;
            extern dict<bit[32] k, bit[32] v>[2048] flows;
            seen = hits[bucket];
            hits[bucket] = seen + 1;
            if (flow in flows) {
                out = flows[flow];
            } else {
                copy_to_cpu();
            }
        }
    "#;

    fn counter_output() -> CompileOutput {
        let mut topo = lyra_topo::Topology::new();
        topo.add_switch("ToR1", lyra_topo::Layer::ToR, "tofino-32q");
        Compiler::new()
            .compile(&CompileRequest::new(
                COUNTER,
                "ctr: [ ToR1 | PER-SW | - ]",
                topo,
            ))
            .unwrap()
    }

    #[test]
    fn bring_up_shares_every_page_and_register_with_the_runtime() {
        // Tables: every served shard is the runtime's shard, page for page.
        let out = paged_lb();
        let mut rt = Runtime::new(&out);
        install_paged(&mut rt);
        let dep = CompiledDeployment::new(&out);
        let plane = LiveTrafficPlane::for_replay(&rt, &dep);
        let handle = dep.layout().table("conn_table").unwrap();
        let mut shards = 0;
        for sw in out.placement.switches.keys() {
            let Some(shard) = rt.shard(sw, "conn_table") else {
                continue;
            };
            assert!(shard.page_count() >= 3, "{sw}: {} entries", shard.len());
            let served = serving_snap(&plane, sw);
            assert!(served.table(handle).same_pages(shard), "{sw} copied pages");
            shards += 1;
        }
        assert!(shards >= 2, "the LB must be sharded for this to mean much");

        // Registers: every baseline is the switch state's own array.
        let out = counter_output();
        let rt = Runtime::new(&out);
        let dep = CompiledDeployment::new(&out);
        let plane = LiveTrafficPlane::for_replay(&rt, &dep);
        let served = serving_snap(&plane, "ToR1");
        let held = &rt.states["ToR1"].dp.globals;
        assert_eq!(served.globals.len(), held.len());
        for (name, arr) in held {
            let g = dep.layout().global(name).unwrap() as usize;
            assert!(Arc::ptr_eq(&served.globals[g], arr), "`{name}` was copied");
        }
        // ...and so is the controller's expected shadow: three holders,
        // one array.
        assert!(Arc::ptr_eq(
            &rt.expected["ToR1"].globals["hits"],
            &held["hits"]
        ));
    }

    /// A one-message delta prepare for `sw` carrying `ops`.
    fn delta_prepare(rt: &Runtime<'_>, sw: &str, token: u64, ops: Vec<EntryOp>) -> ControlMsg {
        ControlMsg {
            switch: sw.into(),
            epoch: rt.epoch() + 1,
            token,
            op: ControlOp::PrepareDelta {
                base_epoch: rt.epoch(),
                ops,
                globals: rt.states[sw].dp.globals.clone(),
                batch_index: 0,
                batches_total: 1,
            },
        }
    }

    #[test]
    fn a_one_entry_delta_prepare_unshares_exactly_one_page() {
        let out = paged_lb();
        let mut rt = Runtime::new(&out);
        install_paged(&mut rt);
        let dep = CompiledDeployment::new(&out);
        let plane = LiveTrafficPlane::for_rollout(&rt, &dep, &dep);
        let handle = dep.layout().table("conn_table").unwrap();
        let sw = shard_holder(&out, &rt);
        let key = rt.shard(sw, "conn_table").unwrap().keys().nth(700).unwrap();
        let set = EntryOp::Set {
            table: "conn_table".into(),
            key,
            value: 0xfeed,
        };
        plane.apply(&delta_prepare(&rt, sw, 1, vec![set]));

        let serving = serving_snap(&plane, sw);
        let staged = {
            let control = lock_control(&plane.control);
            let (epoch, staged) = control[plane.index[sw]].staged.as_ref().unwrap();
            assert_eq!(*epoch, rt.epoch() + 1);
            staged.snap.clone()
        };
        let (before, after) = (serving.table(handle), staged.table(handle));
        assert_eq!(after.get(key), Some(0xfeed));
        assert_ne!(
            before.get(key),
            Some(0xfeed),
            "the serving epoch saw the delta"
        );
        assert_eq!(after.page_count(), before.page_count());
        assert_eq!(after.shared_pages(before), before.page_count() - 1);
        // The runtime's own shard is still what is being served.
        assert!(before.same_pages(rt.shard(sw, "conn_table").unwrap()));
    }

    #[test]
    fn a_built_plane_is_a_snapshot_of_the_runtime() {
        let out = counter_output();
        let mut rt = Runtime::new(&out);
        let entries: Vec<(u64, u64)> = (0..1500u64).map(|k| (1000 + k * 3, k)).collect();
        rt.install_many("flows", &entries).unwrap();
        let dep = CompiledDeployment::new(&out);
        let built = LiveTrafficPlane::for_replay(&rt, &dep);
        let cfg = ReplayConfig::default()
            .with_packets(4_000)
            .with_workers(1)
            .with_seed(3);
        let replay = |plane: &LiveTrafficPlane| {
            let out = run_worker(plane, &cfg, &AtomicU64::new(0), &AtomicBool::new(false));
            (out.digest, out.effects)
        };
        let before = replay(&built);

        // Park copies of the serving state where a rollout would: all of
        // them share the register arrays with it.
        let st = rt.states.get_mut("ToR1").unwrap();
        st.staged = Some((7, st.dp.clone()));
        st.prior = Some((0, st.dp.clone()));

        // The runtime moves on: a key the traffic hits (small values are
        // common) and a register write from an injected packet.
        rt.install("flows", 5, 0xbeef).unwrap();
        let mut pkt = PacketState::new();
        pkt.set("bucket", 3).set("flow", 5);
        rt.inject(&["ToR1"], pkt).unwrap();
        assert_eq!(rt.global("ToR1", "hits", 3), Some(1));

        // The plane built earlier still serves what it was built from...
        assert_eq!(replay(&built), before);
        let served = serving_snap(&built, "ToR1");
        let (flows, hits) = (
            dep.layout().table("flows").unwrap(),
            dep.layout().global("hits").unwrap() as usize,
        );
        assert_eq!(served.table(flows).get(5), None);
        assert_eq!(served.globals[hits][3], 0);
        // ...a plane built now sees both changes...
        let fresh = LiveTrafficPlane::for_replay(&rt, &dep);
        let after = replay(&fresh);
        assert_ne!(after.0, before.0, "digest must see the register write");
        assert_ne!(after.1, before.1, "effects must see the new entry");
        // ...and the register write copied the array instead of writing
        // through the pointer every other holder shares.
        let st = &rt.states["ToR1"];
        for (who, dp) in [
            ("staged", &st.staged.as_ref().unwrap().1),
            ("prior", &st.prior.as_ref().unwrap().1),
            ("expected", &rt.expected["ToR1"]),
        ] {
            assert_eq!(dp.globals["hits"][3], 0, "{who} was written through");
        }
        assert_eq!(st.staged.as_ref().unwrap().1.externs["flows"].get(5), None);
    }

    #[test]
    fn mirror_lookups_flip_with_the_epoch_and_flip_back() {
        let out = paged_lb();
        let mut rt = Runtime::new(&out);
        install_paged(&mut rt);
        let dep = CompiledDeployment::new(&out);
        let plane = LiveTrafficPlane::for_rollout(&rt, &dep, &dep);
        let handle = dep.layout().table("conn_table").unwrap();
        let sw = shard_holder(&out, &rt);
        let shard = rt.shard(sw, "conn_table").unwrap();
        // One op per kind, in pages far apart.
        let (gone, changed) = (
            shard.keys().nth(10).unwrap(),
            shard.keys().nth(900).unwrap(),
        );
        let added = shard.keys().last().unwrap() + 1;
        let old = |k| shard.get(k);
        let table = || "conn_table".to_string();
        let ops = vec![
            EntryOp::Remove {
                table: table(),
                key: gone,
            },
            EntryOp::Set {
                table: table(),
                key: changed,
                value: 0xc0de,
            },
            EntryOp::Set {
                table: table(),
                key: added,
                value: 0xadd,
            },
        ];
        let lookups = |plane: &LiveTrafficPlane| {
            let snap = serving_snap(plane, sw);
            [gone, changed, added].map(|k| snap.table(handle).get(k))
        };
        let epoch0 = [old(gone), old(changed), None];
        let epoch1 = [None, Some(0xc0de), Some(0xadd)];

        plane.apply(&delta_prepare(&rt, sw, 1, ops));
        assert_eq!(lookups(&plane), epoch0, "a prepare must not serve");
        let flip = |token, op| ControlMsg {
            switch: sw.clone(),
            epoch: rt.epoch() + 1,
            token,
            op,
        };
        plane.apply(&flip(2, ControlOp::Commit));
        assert_eq!(plane.serving_epoch(sw), Some(rt.epoch() + 1));
        assert_eq!(lookups(&plane), epoch1);
        plane.apply(&flip(3, ControlOp::Rollback));
        assert_eq!(plane.serving_epoch(sw), Some(rt.epoch()));
        assert_eq!(lookups(&plane), epoch0);
        assert!(serving_snap(&plane, sw).table(handle).same_pages(shard));
    }

    #[test]
    fn traffic_channel_mirrors_duplicates_and_ignores_drops() {
        let out = Compiler::new().compile(&lb_request()).unwrap();
        let rt = Runtime::new(&out);
        let dep = CompiledDeployment::new(&out);
        let plane = LiveTrafficPlane::for_rollout(&rt, &dep, &dep);
        let epoch0 = plane.serving_epoch("Agg3").unwrap();
        // Hand-deliver a prepare+commit pair for the next epoch.
        let staged = DataPlaneState::new();
        plane.apply(&ControlMsg {
            switch: "Agg3".into(),
            epoch: epoch0 + 1,
            token: 1,
            op: ControlOp::Prepare {
                staged: staged.clone(),
            },
        });
        assert_eq!(plane.serving_epoch("Agg3"), Some(epoch0), "prepare stages");
        let commit = ControlMsg {
            switch: "Agg3".into(),
            epoch: epoch0 + 1,
            token: 2,
            op: ControlOp::Commit,
        };
        plane.apply(&commit);
        plane.apply(&commit); // duplicate: token-idempotent
        assert_eq!(plane.serving_epoch("Agg3"), Some(epoch0 + 1));
        // Rollback restores the retained prior.
        plane.apply(&ControlMsg {
            switch: "Agg3".into(),
            epoch: epoch0 + 1,
            token: 3,
            op: ControlOp::Rollback,
        });
        assert_eq!(plane.serving_epoch("Agg3"), Some(epoch0));
    }
}
