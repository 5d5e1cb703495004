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
//!   snapshot + epoch). It keeps no protocol state: the runtime's switch
//!   agent (`crate::agent`) publishes to it whenever a delivered message or
//!   a forced revert changes the epoch a switch serves, and the plane swaps
//!   that switch's snapshot whole. Workers pin a packet to one epoch per
//!   path; a packet never executes under two.
//! * [`replay_compiled`] / [`replay_interpreted`] — throughput harnesses
//!   over identical seeded traffic, for the compiled-vs-interpreter bench.
//! * [`replay_under_rollout`] — runs [`Runtime::apply_rollout`] *while*
//!   worker threads push packets, then reports packet loss and mixed-epoch
//!   exposure alongside the rollout report.
//! * [`replay_under_recovery`] — the same harness and outcome around
//!   [`Runtime::recover`]: traffic keeps flowing through the mid-flight
//!   remnants a crashed controller left behind while the restarted
//!   controller drives them to all-commit or all-rollback.
//!
//! ## Bring-up
//!
//! Building a plane copies no table entry and no register: every
//! [`TableSnapshot`] shares the runtime's `ExternTable` pages and `Arc`'d
//! register arrays, and because every writer of either copies on write
//! (`Runtime::install`, the interpreter's register writes, the agent's
//! delta prepares), a built plane is a consistent snapshot of the runtime
//! at the moment it was built. What bring-up does cost — bytecode
//! compilation plus one pointer copy per table and register array — is
//! reported per replay as [`ReplayReport::bring_up`].
//!
//! ## Epoch pinning
//!
//! Each worker caches the per-switch serving planes and revalidates the
//! cache against a generation counter bumped on every commit/rollback flip.
//! Workers run packets in lane batches of one path each; before executing
//! a batch a worker checks that every hop on the path serves the same
//! epoch; a disagreeing path refuses the batch's packets (counted, packet
//! by packet, as `refused_epoch_mismatch`, the replay's packet loss) rather
//! than exposing them to two placements — the same guarantee `inject`
//! enforces, kept under concurrency by checking the exact `Arc` snapshots
//! the packets would run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use lyra_ir::{
    execute, CompiledAlgorithm, DataPlaneState, GlobalAccess, GlobalOverlay, InstrId, IrAlgorithm,
    Machine, PacketState, ProgramLayout, TableSnapshot, LANES,
};

use crate::agent::SwitchState;
use crate::channel::ControlChannel;
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
/// — epoch flips swap the `Arc`, never mutate in place.
struct EpochPlane {
    epoch: u64,
    algs: Arc<Vec<CompiledAlgorithm>>,
    snap: TableSnapshot,
}

/// The switches as worker threads see them: read-mostly per-switch serving
/// planes, each a snapshot of what the runtime's switch agent serves.
/// Shared by reference into a [`std::thread::scope`].
pub struct LiveTrafficPlane {
    layout: Arc<ProgramLayout>,
    names: Vec<String>,
    index: BTreeMap<String, usize>,
    serving: Vec<RwLock<Arc<EpochPlane>>>,
    /// Per-switch programs of the deployment the plane was built on and of
    /// the *next* one (the same, for a static plane).
    programs: Vec<[Arc<Vec<CompiledAlgorithm>>; 2]>,
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
        Self::for_rollout(rt, dep, dep)
    }

    /// A plane that will live through a rollout from the deployment of
    /// `rt.output()` (`dep_cur`) to `dep_next`. Covers the union of both
    /// placements' switches so newly added switches have a plane to flip.
    pub fn for_rollout(
        rt: &Runtime<'_>,
        dep_cur: &CompiledDeployment,
        dep_next: &CompiledDeployment,
    ) -> Self {
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
        let programs = names
            .iter()
            .map(|name| {
                [dep_cur, dep_next].map(|dep| dep.switches.get(name).unwrap_or(&empty_algs).clone())
            })
            .collect();
        let paths = dep_cur
            .paths
            .iter()
            .map(|p| p.iter().filter_map(|h| index.get(h).copied()).collect())
            .collect();
        let mut live_in: BTreeSet<u32> = dep_cur.live_in.iter().copied().collect();
        live_in.extend(dep_next.live_in.iter().copied());
        let mut plane = LiveTrafficPlane {
            layout: dep_cur.layout.clone(),
            names,
            index,
            serving: Vec::new(),
            programs,
            paths,
            live_in: live_in.into_iter().collect(),
            generation: AtomicU64::new(0),
        };
        plane.serving = (0..plane.names.len())
            .map(|i| {
                RwLock::new(plane.epoch_plane(i, rt.states.get(&plane.names[i]), rt.epoch, None))
            })
            .collect();
        plane
    }

    /// The epoch a switch currently serves (`None` if unknown here).
    #[cfg(test)]
    pub(crate) fn serving_epoch(&self, switch: &str) -> Option<u64> {
        let i = *self.index.get(switch)?;
        Some(read_lock(&self.serving[i]).epoch)
    }

    /// What switch `i` serves given its agent's state: that state's epoch
    /// and tables — or, for a switch the runtime holds no state for (a dead
    /// one), the deployment epoch and empty tables. The program is the next
    /// deployment's iff `next_program`; `None` asks the agent — a switch that
    /// retains a prior epoch has flipped to the next deployment (a crashed
    /// controller can leave a fleet half like this), one that does not is
    /// on, or back on, the current one.
    fn epoch_plane(
        &self,
        i: usize,
        st: Option<&SwitchState>,
        deployment_epoch: u64,
        next_program: Option<bool>,
    ) -> Arc<EpochPlane> {
        let empty = DataPlaneState::new();
        let (epoch, dp) = st.map_or((deployment_epoch, &empty), |st| (st.epoch(), &st.dp));
        let next = next_program.unwrap_or(st.is_some_and(|st| st.prior().is_some()));
        Arc::new(EpochPlane {
            epoch,
            algs: self.programs[i][usize::from(next)].clone(),
            snap: TableSnapshot::build(&self.layout, dp),
        })
    }

    fn serve(&self, i: usize, plane: Arc<EpochPlane>) {
        *write_lock(&self.serving[i]) = plane;
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Serve what `switch`'s agent now serves; the agent calls this whenever
    /// a delivery or a forced revert changed the switch's serving epoch.
    pub(crate) fn publish(&self, switch: &str, st: &SwitchState) {
        if let Some(&i) = self.index.get(switch) {
            self.serve(i, self.epoch_plane(i, Some(st), st.epoch(), None));
        }
    }

    /// Republish every switch once the transaction has settled. The agents
    /// no longer retain a prior epoch to tell the programs apart, so the
    /// caller says which deployment won; and this is what moves switches
    /// the runtime holds no state for (they never see a message) to the
    /// deployment epoch — or every path through a dead switch would stay
    /// refused for the rest of the replay.
    fn align(&self, rt: &Runtime<'_>, committed: bool) {
        for (i, name) in self.names.iter().enumerate() {
            let st = rt.states.get(name);
            self.serve(i, self.epoch_plane(i, st, rt.epoch, Some(committed)));
        }
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
        // `available_parallelism` reads the cgroup quota files on every
        // call; ask once per process, not once per replay.
        static WORKERS: OnceLock<usize> = OnceLock::new();
        ReplayConfig {
            packets: 200_000,
            workers: *WORKERS.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            }),
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

/// A replay and the transaction it ran under.
#[derive(Debug)]
pub struct RolloutReplayOutcome {
    /// The traffic-side observations.
    pub replay: ReplayReport,
    /// The control-side report from [`Runtime::apply_rollout`] or
    /// [`Runtime::recover`].
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
/// (branch selectors, opcodes, table keys that collide) and wide ones —
/// by `r & 3`, the top 5 bits, one byte at bit 48, or `r >> 2` (twice as
/// likely) — picked by table rather than by branch, so a column of them
/// costs no mispredicted jumps.
fn field_value(base: u64, j: usize) -> u64 {
    const SHIFT: [u32; 4] = [59, 48, 2, 2];
    const MASK: [u64; 4] = [u64::MAX, 0xff, u64::MAX, u64::MAX];
    let r = splitmix(base ^ ((j as u64) << 17));
    let k = (r & 3) as usize;
    (r >> SHIFT[k]) & MASK[k]
}

/// Packet indices a worker claims with one atomic add.
const BLOCK: u64 = 256;

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
    let mut batch = Batch {
        plane,
        machine: Machine::new(&plane.layout),
        overlay: GlobalOverlay::new(),
        cache: Vec::new(),
        cache_gen: u64::MAX,
        column: [0; LANES],
        digests: [0; LANES],
        out: WorkerOut::default(),
    };
    // Claimed packets wait in their path's bucket until it holds a full
    // batch; what is left when the claims run out is flushed partial.
    let mut buckets: Vec<Vec<u64>> = (0..plane.paths.len())
        .map(|_| Vec::with_capacity(LANES))
        .collect();
    loop {
        if stop.load(Ordering::Relaxed) {
            // Buffered packets are dropped unrun, like unclaimed ones.
            return batch.out;
        }
        let first = next.fetch_add(BLOCK, Ordering::Relaxed);
        if first >= cfg.packets {
            break;
        }
        for idx in first..(first + BLOCK).min(cfg.packets) {
            let base = packet_base(cfg.seed, idx);
            if buckets.is_empty() {
                batch.out.delivered += 1;
                continue;
            }
            let p = (base % buckets.len() as u64) as usize;
            buckets[p].push(base);
            if buckets[p].len() == LANES {
                batch.run(p, &buckets[p]);
                buckets[p].clear();
            }
        }
    }
    for (p, bases) in buckets.iter().enumerate() {
        if !bases.is_empty() && !stop.load(Ordering::Relaxed) {
            batch.run(p, bases);
        }
    }
    batch.out
}

/// One worker's lane state: its machine and overlay, the per-switch plane
/// cache, and its counts.
struct Batch<'p> {
    plane: &'p LiveTrafficPlane,
    machine: Machine,
    overlay: GlobalOverlay,
    cache: Vec<Arc<EpochPlane>>,
    cache_gen: u64,
    column: [u64; LANES],
    digests: [u64; LANES],
    out: WorkerOut,
}

impl Batch<'_> {
    /// Run the packets `bases` — all on path `p` — as one lane batch,
    /// pinned to one epoch.
    fn run(&mut self, p: usize, bases: &[u64]) {
        let plane = self.plane;
        let n = bases.len();
        // Revalidate the per-switch plane cache: one acquire load per
        // batch in steady state, a full re-read only after a flip.
        let gen = plane.generation.load(Ordering::Acquire);
        if gen != self.cache_gen {
            self.cache = plane.serving.iter().map(|l| read_lock(l).clone()).collect();
            self.cache_gen = gen;
        }
        let path = &plane.paths[p];
        // Epoch pinning: the batch runs only if every hop serves the same
        // epoch. The check is on the exact snapshots the packets would
        // execute, so a concurrent flip cannot slip a second epoch in.
        if let Some(&first) = path.first() {
            let pin = self.cache[first].epoch;
            if path.iter().any(|&h| self.cache[h].epoch != pin) {
                self.out.refused += n as u64;
                return;
            }
        }
        let machine = &mut self.machine;
        machine.begin(n);
        for (j, &slot) in plane.live_in.iter().enumerate() {
            for (v, &base) in self.column.iter_mut().zip(bases) {
                *v = field_value(base, j);
            }
            machine.set_column(slot, &self.column[..n]);
        }
        let mut pinned: Option<u64> = None;
        for &h in path {
            let ep = &self.cache[h];
            if let Some(pin) = pinned {
                if ep.epoch != pin {
                    self.out.mixed += n as u64; // measured, never expected
                    break;
                }
            }
            pinned = Some(ep.epoch);
            if ep.algs.is_empty() {
                continue;
            }
            // Globals are per-switch, so the overlays reset at each hop;
            // within a hop, a lane's reads see its own earlier writes.
            self.overlay.clear();
            let mut globals = GlobalAccess::Isolated {
                baseline: &ep.snap.globals,
                overlay: &mut self.overlay,
            };
            for alg in ep.algs.iter() {
                machine.run(alg, &ep.snap, &mut globals);
            }
        }
        self.out.delivered += n as u64;
        self.out.effects += machine.effect_count() as u64;
        machine.digests(&mut self.digests[..n]);
        for (&d, &base) in self.digests.iter().zip(bases) {
            self.out.digest ^= splitmix(d ^ base);
        }
    }
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

/// Push `cfg.packets` seeded packets through `plane` on `cfg.workers`
/// threads. `control` runs on the calling thread once `warm` packets have
/// been claimed, holding the flag that stops the workers early.
///
/// Workers claim packets in blocks and hold each in its path's bucket
/// until the bucket fills a lane batch. With no stop, every packet is
/// delivered or refused. A packet still buffered when `stop` fires is
/// neither, like a packet never claimed.
fn run_traffic<R>(
    plane: &LiveTrafficPlane,
    cfg: &ReplayConfig,
    built: Instant,
    warm: u64,
    control: impl FnOnce(&AtomicBool) -> R,
) -> (ReplayReport, R) {
    let workers = cfg.workers.max(1);
    let next = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let ((outs, panics), result) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| s.spawn(|| run_worker(plane, cfg, &next, &stop)))
            .collect();
        while next.load(Ordering::Relaxed) < warm && !handles.iter().all(|h| h.is_finished()) {
            std::thread::yield_now();
        }
        let result = control(&stop);
        (join_workers(handles), result)
    });
    let report = aggregate(outs, panics, workers, t0 - built, t0.elapsed());
    (report, result)
}

/// Replay seeded traffic through the *compiled* engine on a static plane
/// (no rollout in flight) and measure throughput.
pub fn replay_compiled(rt: &Runtime<'_>, cfg: &ReplayConfig) -> ReplayReport {
    let built = Instant::now();
    let dep = CompiledDeployment::new(rt.output());
    let plane = LiveTrafficPlane::for_replay(rt, &dep);
    run_traffic(&plane, cfg, built, 0, |_| ()).0
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

/// Run `control` — one transaction on `rt` toward `new_output` — while
/// worker threads replay traffic through a live plane, and report the
/// traffic side next to the transaction's report.
///
/// The current and next deployments are compiled against one unioned
/// layout, so a worker's machine can execute either epoch, and the plane is
/// built from the runtime as it stands, mid-flight remnants of a crashed
/// rollout included. The plane is attached to the runtime for exactly the
/// duration of `control`, so every flip the switch agents make is
/// published to it; it is then re-aligned with whichever deployment the
/// report says won, and the remaining traffic drains on that. When
/// `control` fails, traffic stops and the error is returned.
pub(crate) fn replay_under<'a>(
    rt: &mut Runtime<'a>,
    new_output: &'a CompileOutput,
    replay_cfg: &ReplayConfig,
    control: impl FnOnce(&mut Runtime<'a>) -> Result<RolloutReport, RuntimeError>,
) -> Result<RolloutReplayOutcome, RuntimeError> {
    let built = Instant::now();
    let layout = Arc::new(ProgramLayout::unioned(&[&rt.output().ir, &new_output.ir]));
    let dep_cur = CompiledDeployment::with_layout(rt.output(), layout.clone());
    let dep_next = CompiledDeployment::with_layout(new_output, layout);
    let plane = Arc::new(LiveTrafficPlane::for_rollout(rt, &dep_cur, &dep_next));
    // Traffic establishes itself on a tenth of the budget before anything flips.
    let warm = replay_cfg.packets / 10;
    let (replay, result) = run_traffic(&plane, replay_cfg, built, warm, |stop| {
        rt.plane = Some(plane.clone());
        let result = control(rt);
        rt.plane = None;
        match &result {
            Ok(report) => plane.align(rt, report.committed),
            Err(_) => stop.store(true, Ordering::Relaxed),
        }
        result
    });
    Ok(RolloutReplayOutcome {
        replay,
        rollout: result?,
    })
}

/// Run [`Runtime::apply_rollout`] over `channel` while worker threads
/// replay traffic through the live plane, then report both sides. Every
/// fate the channel rules — drops, duplicates, lost acks, late replays —
/// reaches the plane through the switch agents, and only as an epoch flip.
///
/// On a gated rollout (`Err`), traffic stops and the error is returned.
pub fn replay_under_rollout<'a>(
    rt: &mut Runtime<'a>,
    new_output: &'a CompileOutput,
    channel: &mut dyn ControlChannel,
    rollout_cfg: &RolloutConfig,
    replay_cfg: &ReplayConfig,
) -> Result<RolloutReplayOutcome, RuntimeError> {
    replay_under(rt, new_output, replay_cfg, |rt| {
        rt.apply_rollout(new_output, channel, rollout_cfg)
    })
}

/// Run [`Runtime::recover`] while worker threads replay traffic through
/// the mid-flight state a crashed controller left behind.
///
/// The plane is built from the runtime *as the crash left it* — switches
/// already flipped serve the next program — and recovery runs over
/// `channel` (the same channel instance the crashed rollout used: the
/// network outlives the controller). Epoch pinning holds throughout, so
/// [`ReplayReport::mixed_epoch_exposure`] must come back zero even though
/// the fleet is mid-transaction when traffic starts.
pub fn replay_under_recovery<'a>(
    rt: &mut Runtime<'a>,
    new_output: &'a CompileOutput,
    store: &mut dyn IntentStore,
    channel: &mut dyn ControlChannel,
    rollout_cfg: &RolloutConfig,
    replay_cfg: &ReplayConfig,
) -> Result<RolloutReplayOutcome, RuntimeError> {
    replay_under(rt, new_output, replay_cfg, |rt| {
        rt.recover(new_output, store, channel, rollout_cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::deliver;
    use crate::channel::{
        ControlMsg, ControlOp, Delivery, EntryOp, LossyChannel, ReliableChannel, Rng,
    };
    use crate::rollout::{CrashPlan, Driver, MemIntentStore};
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
                base_epoch: Some(rt.epoch()),
                ops,
                globals: rt.states[sw].dp.globals.clone(),
                batch_index: 0,
                batches_total: 1,
            },
        }
    }

    /// A one-message prepare that stages `staged` from an empty switch.
    fn from_empty(staged: DataPlaneState) -> ControlOp {
        let whole = |(table, entries)| EntryOp::Table { table, entries };
        ControlOp::PrepareDelta {
            base_epoch: None,
            ops: staged.externs.into_iter().map(whole).collect(),
            globals: staged.globals,
            batch_index: 0,
            batches_total: 1,
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
        let prepare = delta_prepare(&rt, sw, 1, vec![set]);
        deliver(&mut rt.states, Some(&plane), &prepare);

        // The copy-on-write happens in the switch agent: its staged state
        // shares every page but one with what the plane is serving.
        let serving = serving_snap(&plane, sw);
        let (epoch, staged) = rt.states[sw].staged().unwrap();
        assert_eq!(epoch, rt.epoch() + 1);
        let (before, after) = (serving.table(handle), &staged.externs["conn_table"]);
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

        // Park copies of the serving state where a rollout would — a
        // retained prior and a staged next epoch: all of them share the
        // register arrays with it.
        let park = |epoch, token, op| ControlMsg {
            switch: "ToR1".into(),
            epoch,
            token,
            op,
        };
        let staged = rt.states["ToR1"].dp.clone();
        for msg in [
            park(1, 1, from_empty(staged.clone())),
            park(1, 2, ControlOp::Commit),
            park(7, 3, from_empty(staged)),
        ] {
            deliver(&mut rt.states, None, &msg);
        }
        rt.epoch = 1;

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
            ("staged", st.staged().unwrap().1),
            ("prior", st.prior().unwrap().1),
            ("expected", &rt.expected["ToR1"]),
        ] {
            assert_eq!(dp.globals["hits"][3], 0, "{who} was written through");
        }
        assert_eq!(st.staged().unwrap().1.externs["flows"].get(5), None);
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
        let shard = rt.shard(sw, "conn_table").unwrap().clone();
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

        let (serving, next) = (rt.epoch(), rt.epoch() + 1);
        let prepare = delta_prepare(&rt, sw, 1, ops);
        deliver(&mut rt.states, Some(&plane), &prepare);
        assert_eq!(lookups(&plane), epoch0, "a prepare must not serve");
        let flip = |token, op| ControlMsg {
            switch: sw.clone(),
            epoch: next,
            token,
            op,
        };
        deliver(&mut rt.states, Some(&plane), &flip(2, ControlOp::Commit));
        assert_eq!(plane.serving_epoch(sw), Some(next));
        assert_eq!(lookups(&plane), epoch1);
        deliver(&mut rt.states, Some(&plane), &flip(3, ControlOp::Rollback));
        assert_eq!(plane.serving_epoch(sw), Some(serving));
        assert_eq!(lookups(&plane), epoch0);
        assert!(serving_snap(&plane, sw).table(handle).same_pages(&shard));
    }

    /// A channel that rules the scripted fates in order, then `then` forever.
    struct Fates {
        script: std::collections::VecDeque<Delivery>,
        then: Delivery,
    }

    impl ControlChannel for Fates {
        fn transmit(&mut self, _msg: &ControlMsg) -> Delivery {
            self.script.pop_front().unwrap_or(self.then)
        }
    }

    #[test]
    fn traffic_channel_mirrors_duplicates_and_ignores_drops() {
        let out = Compiler::new().compile(&lb_request()).unwrap();
        let mut rt = Runtime::new(&out);
        let dep = CompiledDeployment::new(&out);
        let plane = Arc::new(LiveTrafficPlane::for_rollout(&rt, &dep, &dep));
        rt.plane = Some(plane.clone());
        let epoch0 = plane.serving_epoch("Agg3").unwrap();
        // A prepare+commit pair for the next epoch, sent the way the
        // engine sends: the commit is first dropped, then duplicated.
        let mut channel = Fates {
            script: [Delivery::Delivered, Delivery::Dropped, Delivery::Duplicated].into(),
            then: Delivery::Delivered,
        };
        let config = RolloutConfig::default();
        let mut io = Driver {
            channel: &mut channel,
            store: None,
            crash: None,
            config: &config,
            rng: Rng::new(1),
            clock: Instant::now(),
        };
        let mut report = RolloutReport::default();
        let mut send = |rt: &mut Runtime<'_>, report: &mut RolloutReport, token, op| {
            let msg = ControlMsg {
                switch: "Agg3".into(),
                epoch: epoch0 + 1,
                token,
                op,
            };
            io.send(report, &mut rt.states, rt.plane.as_deref(), &msg, 1)
        };
        let staged = DataPlaneState::new();
        assert!(send(&mut rt, &mut report, 1, from_empty(staged)).acked);
        assert_eq!(plane.serving_epoch("Agg3"), Some(epoch0), "prepare stages");
        assert!(!send(&mut rt, &mut report, 2, ControlOp::Commit).acked);
        assert_eq!(
            plane.serving_epoch("Agg3"),
            Some(epoch0),
            "a drop flips nothing"
        );
        // Delivered twice: token-idempotent.
        assert!(send(&mut rt, &mut report, 2, ControlOp::Commit).acked);
        assert_eq!(report.duplicates, 1);
        assert_eq!(plane.serving_epoch("Agg3"), Some(epoch0 + 1));
        assert_eq!(rt.switch_epoch("Agg3"), Some(epoch0 + 1));
        // Rollback restores the retained prior.
        assert!(send(&mut rt, &mut report, 3, ControlOp::Rollback).acked);
        assert_eq!(plane.serving_epoch("Agg3"), Some(epoch0));
    }

    #[test]
    fn publish_follows_a_forced_rollback() {
        let out = Compiler::new().compile(&lb_request()).unwrap();
        let mut rt = Runtime::new(&out);
        rt.install("conn_table", 7, 0x0a00).unwrap();
        let dep = CompiledDeployment::new(&out);
        let plane = Arc::new(LiveTrafficPlane::for_rollout(&rt, &dep, &dep));
        let epoch0 = rt.epoch();
        let targets = rt.states.len() as u64;
        assert!(targets >= 2);
        // Every prepare and all commits but the last get through; after
        // that the channel is dead, so the commit times out and not one
        // rollback message arrives: every switch is reverted out-of-band.
        let mut channel = Fates {
            script: vec![Delivery::Delivered; 2 * targets as usize - 1].into(),
            then: Delivery::Dropped,
        };
        let config = RolloutConfig {
            max_attempts: 2,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(5),
            ..Default::default()
        };
        let replay_cfg = ReplayConfig::default().with_packets(20_000).with_workers(2);
        let (replay, report) = run_traffic(&plane, &replay_cfg, Instant::now(), 2_000, |_| {
            rt.plane = Some(plane.clone());
            let report = rt.apply_rollout(&out, &mut channel, &config).unwrap();
            rt.plane = None;
            // No `align` has run: the agents' own publishes must already
            // have taken every flipped switch back.
            for sw in rt.states.keys() {
                assert_eq!(plane.serving_epoch(sw), Some(epoch0), "{sw} still flipped");
            }
            report
        });
        assert!(report.rolled_back, "{report:?}");
        assert_eq!(report.forced_rollbacks, targets, "{report:?}");
        // The flips were real: every switch but the last went to the new
        // epoch and came back, one generation bump each way.
        assert_eq!(plane.generation.load(Ordering::Acquire), 2 * (targets - 1));
        assert_eq!(replay.mixed_epoch_exposure, 0);
        assert_eq!(replay.worker_panics, 0);
        assert_eq!(replay.packets, 20_000);
        assert!(rt.epochs_coherent());
    }

    #[test]
    fn a_plane_built_mid_flight_serves_the_next_program_where_a_prior_is_retained() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let next = compiler.compile(&req).unwrap();
        let mut rt = Runtime::new(&prior);
        rt.install("conn_table", 42, 0xabcd).unwrap();
        let epoch0 = rt.epoch();
        // Crash with the second commit journaled but not sent: exactly one
        // switch has flipped and retains its prior epoch.
        let targets = rt.states.len() as u64;
        assert!(targets >= 2);
        let config = RolloutConfig::default().with_crash(CrashPlan::after_sends(targets + 2));
        let mut store = MemIntentStore::new();
        rt.apply_rollout_logged(&next, &mut ReliableChannel::new(), &config, &mut store)
            .unwrap_err();
        let flipped: Vec<&String> = rt
            .states
            .iter()
            .filter(|(_, st)| st.prior().is_some())
            .map(|(sw, _)| sw)
            .collect();
        assert_eq!(flipped.len(), 1, "one commit landed before the crash");

        let layout = Arc::new(ProgramLayout::unioned(&[&prior.ir, &next.ir]));
        let dep_cur = CompiledDeployment::with_layout(&prior, layout.clone());
        let dep_next = CompiledDeployment::with_layout(&next, layout);
        let plane = LiveTrafficPlane::for_rollout(&rt, &dep_cur, &dep_next);
        for (sw, st) in &rt.states {
            let served = read_lock(&plane.serving[plane.index[sw]]).clone();
            assert_eq!(served.epoch, st.epoch(), "{sw}");
            let (dep, epoch) = if flipped.contains(&sw) {
                (&dep_next, epoch0 + 1)
            } else {
                (&dep_cur, epoch0)
            };
            assert_eq!(served.epoch, epoch, "{sw}");
            let program = dep.switches.get(sw).expect("a live switch holds code");
            assert!(
                Arc::ptr_eq(&served.algs, program),
                "{sw} serves the wrong program"
            );
        }
    }
}
