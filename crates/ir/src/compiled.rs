//! A compiled data-plane execution engine for the context-aware IR.
//!
//! The reference interpreter ([`crate::interp`]) is the semantic oracle:
//! clear, stateful, and slow — every operand read is a string-keyed map
//! probe. This module flattens an [`IrAlgorithm`] (or any per-switch
//! instruction subset of one) into a slot-indexed bytecode stream at
//! *deployment* time so the per-packet loop does **zero hash-map lookups
//! and zero allocation**:
//!
//! * field/metadata storage bases are resolved once to dense register
//!   slots shared program-wide ([`ProgramLayout`]) — a packet travels a
//!   multi-switch path as one flat `u64` register file, the compiled
//!   equivalent of the bridge header;
//! * extern tables and global register arrays become integer handles into
//!   per-switch [`TableSnapshot`]s, which *share* the control plane's
//!   storage — the paged [`ExternTable`]s and `Arc`'d register arrays of
//!   the [`DataPlaneState`] they were built from — instead of copying it:
//!   a lookup is a fence-key search plus one in-page binary search on the
//!   very pages the runtime installed into;
//! * predicates become skip offsets (`Op::Guard`) over runs of
//!   identically-predicated instructions, so untaken branches cost one
//!   compare + jump instead of a per-instruction string probe;
//! * builtin calls are pre-dispatched at compile time — environment reads
//!   (deterministic per name) collapse to a precomputed constant.
//!
//! Execution happens on a reusable lane [`Machine`]: each op runs across
//! a batch of up to [`LANES`] packets that travel the same path, a guard
//! narrows the batch to a lane mask, `begin` clears only the slots the
//! previous batch touched, and effects are recorded into flat buffers that
//! are reused across batches. One packet is the one-lane batch.
//!
//! Global register state has two access modes ([`GlobalAccess`]):
//! `Persistent` mutates a real, owned store with the interpreter's exact
//! semantics (used by the differential suite to verify compiled streams
//! against the oracle over packet *sequences*), while `Isolated` gives
//! each packet a private overlay over a read-only, shared baseline — the
//! mode batched multi-worker replay uses, which makes per-packet results
//! independent of worker count by construction.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use crate::instr::*;
use crate::interp::{
    builtin_call, global_read, global_write, mask, shl, shr, slice, DataPlaneState, Effect,
    PacketState,
};
use crate::table::ExternTable;
use lyra_lang::{BinOp, UnOp};

/// Program-wide compiled layout: dense slots for storage bases, integer
/// handles for extern tables, global register arrays, and action names.
/// One layout serves every algorithm of a program and every per-switch
/// subset, so compiled streams on different switches exchange packet state
/// through the same register file.
#[derive(Debug, Clone)]
pub struct ProgramLayout {
    slot_names: Vec<String>,
    slot_index: BTreeMap<String, u32>,
    table_names: Vec<String>,
    table_index: BTreeMap<String, u32>,
    global_names: Vec<String>,
    global_index: BTreeMap<String, u32>,
    /// Declared length per global handle (0 = undeclared, grows on write).
    global_lens: Vec<usize>,
    /// Per global handle, the zeroed array a snapshot serves when the
    /// state it is built from does not hold that global: made on first
    /// use, then shared by every snapshot built under this layout.
    global_zeros: Vec<OnceLock<Arc<Vec<u64>>>>,
    action_names: Vec<String>,
    action_index: BTreeMap<String, u32>,
}

impl ProgramLayout {
    /// Build the layout for a whole program: slots from every algorithm's
    /// value table, table/global handles from the declarations plus any
    /// name an instruction references, action handles from every `Action`.
    pub fn new(ir: &IrProgram) -> Self {
        Self::unioned(&[ir])
    }

    /// Build one layout covering several programs — e.g. the current and
    /// the next placement of a rollout, whose compiled streams must agree
    /// on every slot and handle so one machine can serve either epoch.
    /// Names are interned by identity, so programs sharing base/table/
    /// global names share slots and handles.
    pub fn unioned(irs: &[&IrProgram]) -> Self {
        let mut l = ProgramLayout {
            slot_names: Vec::new(),
            slot_index: BTreeMap::new(),
            table_names: Vec::new(),
            table_index: BTreeMap::new(),
            global_names: Vec::new(),
            global_index: BTreeMap::new(),
            global_lens: Vec::new(),
            global_zeros: Vec::new(),
            action_names: Vec::new(),
            action_index: BTreeMap::new(),
        };
        for ir in irs {
            for name in ir.externs.keys() {
                l.intern_table(name);
            }
            for (name, &(_, len)) in &ir.globals {
                let g = l.intern_global(name);
                l.global_lens[g as usize] = len as usize;
            }
            for alg in &ir.algorithms {
                for info in &alg.values {
                    l.intern_slot(&info.base);
                }
                for instr in &alg.instrs {
                    if let Some(t) = instr.op.table() {
                        l.intern_table(t);
                    }
                    if let Some(g) = instr.op.global() {
                        l.intern_global(g);
                    }
                    if let IrOp::Action { name, .. } = &instr.op {
                        l.intern_action(name);
                    }
                }
            }
        }
        l
    }

    fn intern_slot(&mut self, base: &str) -> u32 {
        if let Some(&s) = self.slot_index.get(base) {
            return s;
        }
        let s = self.slot_names.len() as u32;
        self.slot_names.push(base.to_string());
        self.slot_index.insert(base.to_string(), s);
        s
    }

    fn intern_table(&mut self, name: &str) -> u32 {
        if let Some(&t) = self.table_index.get(name) {
            return t;
        }
        let t = self.table_names.len() as u32;
        self.table_names.push(name.to_string());
        self.table_index.insert(name.to_string(), t);
        t
    }

    fn intern_global(&mut self, name: &str) -> u32 {
        if let Some(&g) = self.global_index.get(name) {
            return g;
        }
        let g = self.global_names.len() as u32;
        self.global_names.push(name.to_string());
        self.global_index.insert(name.to_string(), g);
        self.global_lens.push(0);
        self.global_zeros.push(OnceLock::new());
        g
    }

    fn intern_action(&mut self, name: &str) -> u32 {
        if let Some(&a) = self.action_index.get(name) {
            return a;
        }
        let a = self.action_names.len() as u32;
        self.action_names.push(name.to_string());
        self.action_index.insert(name.to_string(), a);
        a
    }

    /// Number of register slots.
    pub fn slots(&self) -> usize {
        self.slot_names.len()
    }

    /// Slot of a storage base name.
    pub fn slot(&self, base: &str) -> Option<u32> {
        self.slot_index.get(base).copied()
    }

    /// Base name of a slot.
    pub fn slot_name(&self, slot: u32) -> &str {
        &self.slot_names[slot as usize]
    }

    /// Handle of an extern table.
    pub fn table(&self, name: &str) -> Option<u32> {
        self.table_index.get(name).copied()
    }

    /// Handle of a global register array.
    pub fn global(&self, name: &str) -> Option<u32> {
        self.global_index.get(name).copied()
    }

    /// Number of global handles.
    pub fn globals(&self) -> usize {
        self.global_names.len()
    }

    /// Action name of a handle.
    pub fn action_name(&self, a: u32) -> &str {
        &self.action_names[a as usize]
    }

    /// The register arrays of `globals` indexed by handle, *shared* with
    /// the map (pointer copies); an array the map lacks reads as zeros at
    /// its declared length, one allocation per layout however many
    /// snapshots need it. This is the baseline every [`TableSnapshot`]
    /// serves [`GlobalAccess::Isolated`] reads from.
    pub fn shared_globals(&self, globals: &BTreeMap<String, Arc<Vec<u64>>>) -> Vec<Arc<Vec<u64>>> {
        self.global_names
            .iter()
            .enumerate()
            .map(|(g, name)| match globals.get(name) {
                Some(arr) => arr.clone(),
                None => self.global_zeros[g]
                    .get_or_init(|| Arc::new(vec![0; self.global_lens[g]]))
                    .clone(),
            })
            .collect()
    }

    /// Materialize an *owned* global store (indexed by handle) from a
    /// data-plane state, sizing absent arrays from their declared lengths
    /// — the store [`GlobalAccess::Persistent`] mutates. Copies every
    /// array; nothing that builds a serving plane calls it.
    pub fn globals_from(&self, dp: &DataPlaneState) -> Vec<Vec<u64>> {
        self.global_names
            .iter()
            .enumerate()
            .map(|(g, name)| match dp.globals.get(name) {
                Some(arr) => arr.to_vec(),
                None => vec![0; self.global_lens[g]],
            })
            .collect()
    }

    /// Write a global store back into a data-plane state (the inverse of
    /// [`ProgramLayout::globals_from`], for differential comparisons).
    pub fn globals_into(&self, store: &[Vec<u64>], dp: &mut DataPlaneState) {
        for (g, arr) in store.iter().enumerate() {
            dp.globals
                .insert(self.global_names[g].clone(), Arc::new(arr.clone()));
        }
    }
}

/// A compiled operand: a constant or a register slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Immediate.
    Const(u64),
    /// Register slot.
    Slot(u32),
}

/// A compiled destination: the slot plus the precomputed width mask.
#[derive(Debug, Clone, Copy)]
struct Dst {
    slot: u32,
    mask: u64,
}

/// One bytecode op. Every field is pre-resolved: slots, table/global
/// handles, width masks, skip offsets, env-read constants.
#[derive(Debug, Clone)]
enum Op {
    /// If `regs[slot] == 0`, skip the next `skip` ops (a run of
    /// instructions sharing this predicate).
    Guard {
        slot: u32,
        skip: u32,
    },
    Assign {
        dst: Dst,
        a: Src,
    },
    Bin {
        op: BinOp,
        dst: Dst,
        a: Src,
        b: Src,
    },
    Un {
        op: UnOp,
        dst: Dst,
        a: Src,
    },
    /// Pre-dispatched hash builtin: `reference_hash(args)`, its output
    /// mask composed into the destination's.
    Hash {
        dst: Dst,
        args: Box<[Src]>,
    },
    /// Pre-dispatched `min`/`max` fold.
    Fold {
        dst: Dst,
        is_min: bool,
        args: Box<[Src]>,
    },
    /// Pre-dispatched environment read (deterministic per builtin name).
    Env {
        dst: Dst,
        value: u64,
    },
    /// Void builtin: record an effect.
    Act {
        action: u32,
        args: Box<[Src]>,
    },
    /// Sticky membership test (`dst |= key in table`). Its search also
    /// leaves the table's [`Probe`] for a linked `Lookup`.
    Member {
        dst: Dst,
        table: u32,
        key: Src,
    },
    /// Sticky lookup (`dst = table[key]` on hit, unchanged on miss).
    /// `probe` is the index of the latest `Member` before it on the same
    /// table and key, when no op in between rewrites the key's slot: the
    /// lanes that `Member` searched this run take its answer.
    Lookup {
        dst: Dst,
        table: u32,
        key: Src,
        probe: Option<u32>,
    },
    GlobalRead {
        dst: Dst,
        global: u32,
        index: Src,
    },
    GlobalWrite {
        global: u32,
        index: Src,
        value: Src,
    },
    Slice {
        dst: Dst,
        a: Src,
        hi: u32,
        lo: u32,
    },
}

/// An algorithm (or per-switch subset of one) flattened to bytecode over a
/// shared [`ProgramLayout`].
#[derive(Debug, Clone)]
pub struct CompiledAlgorithm {
    /// Source algorithm name.
    pub name: String,
    ops: Vec<Op>,
    /// Slots read before any write in this stream (live-in: the packet
    /// fields this stream consumes).
    live_in: Vec<u32>,
}

impl CompiledAlgorithm {
    /// Compile `subset` (in the order given) of `alg` against `layout`.
    /// The layout must come from the program that owns `alg` (same base
    /// names, table/global/action names).
    pub fn compile(alg: &IrAlgorithm, subset: &[InstrId], layout: &ProgramLayout) -> Self {
        let slot_of = |v: ValueId| -> u32 {
            layout
                .slot(&alg.value(v).base)
                .expect("layout must cover every base of the algorithm")
        };
        let src_of = |o: &Operand| -> Src {
            match o {
                Operand::Const(c) => Src::Const(*c),
                Operand::Value(v) => Src::Slot(slot_of(*v)),
            }
        };
        let dst_of = |d: ValueId| -> Dst {
            let info = alg.value(d);
            Dst {
                slot: slot_of(d),
                mask: mask(u64::MAX, info.width),
            }
        };
        let mut ops: Vec<Op> = Vec::with_capacity(subset.len());
        let mut written: Vec<bool> = vec![false; layout.slots()];
        // Per table handle, the latest `Member`'s op index and key, while
        // its key slot has not been rewritten.
        let mut members: Vec<Option<(u32, Src)>> = vec![None; layout.table_names.len()];
        let mut live_in: Vec<u32> = Vec::new();
        // Open guard: (pred slot, index of the Guard op).
        let mut guard: Option<(u32, usize)> = None;
        let close_guard = |ops: &mut Vec<Op>, guard: &mut Option<(u32, usize)>| {
            if let Some((_, at)) = guard.take() {
                let skip = (ops.len() - at - 1) as u32;
                if skip == 0 {
                    // Guard over an empty run (every instr was elided).
                    ops.remove(at);
                } else if let Op::Guard { skip: s, .. } = &mut ops[at] {
                    *s = skip;
                }
            }
        };
        for &id in subset {
            let instr = alg.instr(id);
            // Dead value op: no destination and no side effect.
            let elide = instr.dst.is_none() && !instr.op.has_side_effect();
            if elide {
                continue;
            }
            let note_read = |s: Src, written: &[bool], live_in: &mut Vec<u32>| {
                if let Src::Slot(slot) = s {
                    if !written[slot as usize] && !live_in.contains(&slot) {
                        live_in.push(slot);
                    }
                }
            };
            // Predicate → guard run. A run breaks when the predicate
            // changes or when an instruction redefines the predicate's own
            // storage (the next instruction must re-check it).
            let pred_slot = instr.pred.map(slot_of);
            match (pred_slot, &guard) {
                (None, _) => close_guard(&mut ops, &mut guard),
                (Some(p), Some((open, _))) if *open == p => {}
                (Some(p), _) => {
                    close_guard(&mut ops, &mut guard);
                    note_read(Src::Slot(p), &written, &mut live_in);
                    guard = Some((p, ops.len()));
                    ops.push(Op::Guard { slot: p, skip: 0 });
                }
            }
            let dst = instr.dst.map(dst_of);
            let op = match &instr.op {
                IrOp::Assign(a) => {
                    let a = src_of(a);
                    note_read(a, &written, &mut live_in);
                    Op::Assign {
                        dst: dst.expect("assign has a destination"),
                        a,
                    }
                }
                IrOp::Binary { op, a, b } => {
                    let (a, b) = (src_of(a), src_of(b));
                    note_read(a, &written, &mut live_in);
                    note_read(b, &written, &mut live_in);
                    Op::Bin {
                        op: *op,
                        dst: dst.expect("binary has a destination"),
                        a,
                        b,
                    }
                }
                IrOp::Unary { op, a } => {
                    let a = src_of(a);
                    note_read(a, &written, &mut live_in);
                    Op::Un {
                        op: *op,
                        dst: dst.expect("unary has a destination"),
                        a,
                    }
                }
                IrOp::Call { name, args } => {
                    let args: Box<[Src]> = args.iter().map(src_of).collect();
                    for &a in args.iter() {
                        note_read(a, &written, &mut live_in);
                    }
                    let dst = dst.expect("call has a destination");
                    let bare = name.strip_prefix("lyra_").unwrap_or(name);
                    let hash = |out_mask: u64, args| Op::Hash {
                        dst: Dst {
                            slot: dst.slot,
                            mask: dst.mask & out_mask,
                        },
                        args,
                    };
                    match bare {
                        "crc32_hash" | "identity_hash" => hash(0xffff_ffff, args),
                        "crc16_hash" => hash(0xffff, args),
                        "min" => Op::Fold {
                            dst,
                            is_min: true,
                            args,
                        },
                        "max" => Op::Fold {
                            dst,
                            is_min: false,
                            args,
                        },
                        // Environment reads depend only on the name:
                        // fold the whole call to a constant now.
                        _ => Op::Env {
                            dst,
                            value: builtin_call(name, &[]),
                        },
                    }
                }
                IrOp::Action { name, args } => {
                    let args: Box<[Src]> = args.iter().map(src_of).collect();
                    for &a in args.iter() {
                        note_read(a, &written, &mut live_in);
                    }
                    Op::Act {
                        action: layout
                            .action_index
                            .get(name)
                            .copied()
                            .expect("layout must cover every action name"),
                        args,
                    }
                }
                IrOp::TableMember { table, key } => {
                    let key = src_of(key);
                    note_read(key, &written, &mut live_in);
                    let dst = dst.expect("member has a destination");
                    // Sticky OR reads the previous destination value.
                    note_read(Src::Slot(dst.slot), &written, &mut live_in);
                    let table = layout.table(table).expect("layout covers tables");
                    members[table as usize] = Some((ops.len() as u32, key));
                    Op::Member { dst, table, key }
                }
                IrOp::TableLookup { table, key } => {
                    let key = src_of(key);
                    note_read(key, &written, &mut live_in);
                    let table = layout.table(table).expect("layout covers tables");
                    Op::Lookup {
                        dst: dst.expect("lookup has a destination"),
                        table,
                        key,
                        probe: members[table as usize]
                            .filter(|&(_, k)| k == key)
                            .map(|(at, _)| at),
                    }
                }
                IrOp::GlobalRead { global, index } => {
                    let index = src_of(index);
                    note_read(index, &written, &mut live_in);
                    Op::GlobalRead {
                        dst: dst.expect("global read has a destination"),
                        global: layout.global(global).expect("layout covers globals"),
                        index,
                    }
                }
                IrOp::GlobalWrite {
                    global,
                    index,
                    value,
                } => {
                    let (index, value) = (src_of(index), src_of(value));
                    note_read(index, &written, &mut live_in);
                    note_read(value, &written, &mut live_in);
                    Op::GlobalWrite {
                        global: layout.global(global).expect("layout covers globals"),
                        index,
                        value,
                    }
                }
                IrOp::Slice { a, hi, lo } => {
                    let a = src_of(a);
                    note_read(a, &written, &mut live_in);
                    Op::Slice {
                        dst: dst.expect("slice has a destination"),
                        a,
                        hi: *hi,
                        lo: *lo,
                    }
                }
            };
            ops.push(op);
            if let Some(d) = instr.dst {
                let slot = slot_of(d) as usize;
                written[slot] = true;
                // A rewritten key unlinks the probes searched with it.
                for m in members.iter_mut() {
                    if matches!(m, Some((_, Src::Slot(k))) if *k as usize == slot) {
                        *m = None;
                    }
                }
                // A write to the open guard's own predicate base ends the
                // run: later instructions must re-evaluate the guard.
                if let Some((open, _)) = guard {
                    if open as usize == slot {
                        close_guard(&mut ops, &mut guard);
                    }
                }
            }
        }
        close_guard(&mut ops, &mut guard);
        live_in.sort_unstable();
        CompiledAlgorithm {
            name: alg.name.clone(),
            ops,
            live_in,
        }
    }

    /// Slots this stream reads before writing (its packet inputs).
    pub fn live_in(&self) -> &[u32] {
        &self.live_in
    }

    /// Number of bytecode ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the stream compiled to nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Read-only per-switch state snapshot, indexed by the layout's integer
/// handles: every extern table and every global register array of the
/// [`DataPlaneState`] it was built from, *shared* with that state rather
/// than copied. Building one costs O(pages + arrays) pointer copies
/// whatever the tables hold, and because both storages are copy-on-write
/// the snapshot keeps reading exactly what the state held when it was
/// taken, however the state is mutated afterwards.
#[derive(Debug, Clone, Default)]
pub struct TableSnapshot {
    tables: Vec<ExternTable>,
    /// Baseline global contents by handle (what `Isolated` reads through
    /// to), shared with the state the snapshot was built from.
    pub globals: Vec<Arc<Vec<u64>>>,
}

impl TableSnapshot {
    /// Snapshot a data-plane state under `layout`.
    pub fn build(layout: &ProgramLayout, dp: &DataPlaneState) -> Self {
        let tables = layout
            .table_names
            .iter()
            .map(|name| dp.externs.get(name).cloned().unwrap_or_default())
            .collect();
        TableSnapshot {
            tables,
            globals: layout.shared_globals(&dp.globals),
        }
    }

    /// The storage behind table handle `table`: what `Member` / `Lookup`
    /// ops search, and what tests compare (via
    /// [`ExternTable::same_pages`]) against the state the snapshot came
    /// from.
    #[inline]
    pub fn table(&self, table: u32) -> &ExternTable {
        &self.tables[table as usize]
    }

    /// Total entries across all tables (for reports).
    pub fn entries(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Insert or overwrite one entry of table handle `table`, copying
    /// only the page it lands in. This is how a delta prepare is merged
    /// into a staged snapshot on the live-traffic mirror without ever
    /// materializing the full next-epoch `DataPlaneState`.
    pub fn set(&mut self, table: u32, key: u64, value: u64) {
        self.tables[table as usize].insert(key, value);
    }

    /// Remove one entry of table handle `table` (no-op when absent).
    pub fn remove(&mut self, table: u32, key: u64) {
        self.tables[table as usize].remove(key);
    }
}

/// Packets one [`Machine`] batch holds: the width of a lane mask.
pub const LANES: usize = 64;

/// Scratch for one operand or result, lane by lane.
type Column = [u64; LANES];

/// The mask of lanes `0 .. n`.
fn first_lanes(n: usize) -> u64 {
    if n >= LANES {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The lanes set in `mask`, lowest first.
fn set_lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// All ones when lane `i` of `mask` is set, else all zeros: the select
/// that blends a lane-masked write without a branch.
#[inline(always)]
fn lane_select(mask: u64, i: usize) -> u64 {
    0u64.wrapping_sub((mask >> i) & 1)
}

/// One FNV-1a step of the packet digest.
#[inline(always)]
fn fnv(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x1000_0000_01b3)
}

/// The packet-private overlays of global writes, one write log per lane:
/// the batched engine's isolation mechanism. A read scans its lane's
/// (tiny, newest-first) log before falling back to the snapshot baseline,
/// so a read-after-write inside a hop sees only the same packet's write;
/// `clear` is O(writes).
#[derive(Debug)]
pub struct GlobalOverlay {
    writes: Vec<Vec<(u32, u64, u64)>>,
    /// Lanes whose log is not empty.
    dirty: u64,
}

impl Default for GlobalOverlay {
    fn default() -> Self {
        GlobalOverlay {
            writes: (0..LANES).map(|_| Vec::new()).collect(),
            dirty: 0,
        }
    }
}

impl GlobalOverlay {
    /// An empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget all writes (start the next packet / hop).
    pub fn clear(&mut self) {
        for lane in set_lanes(self.dirty) {
            self.writes[lane].clear();
        }
        self.dirty = 0;
    }

    #[inline]
    fn read(&self, lane: usize, global: u32, index: u64) -> Option<u64> {
        self.writes[lane]
            .iter()
            .rev()
            .find(|&&(g, i, _)| g == global && i == index)
            .map(|&(_, _, v)| v)
    }

    #[inline]
    fn write(&mut self, lane: usize, global: u32, index: u64, value: u64) {
        self.writes[lane].push((global, index, value));
        self.dirty |= 1 << lane;
    }
}

/// How compiled streams touch global register arrays.
pub enum GlobalAccess<'a> {
    /// Mutate a real store (indexed by global handle) with the reference
    /// interpreter's exact semantics — state persists across packets.
    /// Sequential by definition, so only a one-lane batch may run on it.
    Persistent(&'a mut Vec<Vec<u64>>),
    /// Per-packet isolation: reads fall through a private overlay to the
    /// read-only snapshot baseline; writes land in the overlay only. This
    /// is what makes batched execution independent of worker count.
    Isolated {
        /// The epoch-pinned baseline (typically [`TableSnapshot::globals`]).
        baseline: &'a [Arc<Vec<u64>>],
        /// The packet-private write logs, one per lane.
        overlay: &'a mut GlobalOverlay,
    },
}

impl GlobalAccess<'_> {
    /// The register `Isolated` keys its overlay by: the index wrapped
    /// exactly as the baseline store wraps it.
    #[inline]
    fn wrap(arr: &[u64], i: u64) -> u64 {
        if arr.is_empty() {
            i
        } else {
            i % arr.len() as u64
        }
    }

    #[inline]
    fn read(&self, lane: usize, g: u32, i: u64) -> u64 {
        match self {
            GlobalAccess::Persistent(store) => global_read(&store[g as usize], i),
            GlobalAccess::Isolated { baseline, overlay } => {
                let arr = &baseline[g as usize];
                let i = Self::wrap(arr, i);
                overlay
                    .read(lane, g, i)
                    .unwrap_or_else(|| global_read(arr, i))
            }
        }
    }

    #[inline]
    fn write(&mut self, lane: usize, g: u32, i: u64, v: u64) {
        match self {
            GlobalAccess::Persistent(store) => global_write(&mut store[g as usize], i, v),
            GlobalAccess::Isolated { baseline, overlay } => {
                let i = Self::wrap(&baseline[g as usize], i);
                overlay.write(lane, g, i, v);
            }
        }
    }
}

/// One recorded effect: `(lane, action handle, arg range in the flat
/// buffer)`.
#[derive(Debug, Clone, Copy)]
struct EffectRec {
    lane: u32,
    action: u32,
    start: u32,
    len: u32,
}

/// What the latest `Member` on one table left for a linked `Lookup`:
/// the lanes it searched, those that hit, and the values they hit.
#[derive(Debug, Clone)]
struct Probe {
    /// The [`Machine::run`] and op index of that `Member`.
    run: u64,
    at: u32,
    probed: u64,
    found: u64,
    values: Column,
}

/// An operand's column in a register file of `n` lanes per slot: the
/// slot's own, or the constant splatted into `splat`.
#[inline(always)]
fn column<'a>(regs: &'a [u64], s: Src, splat: &'a mut Column, n: usize) -> &'a [u64] {
    match s {
        Src::Slot(slot) => &regs[slot as usize * n..][..n],
        Src::Const(c) => {
            splat[..n].fill(c);
            &splat[..n]
        }
    }
}

#[inline(always)]
fn map1(out: &mut [u64], x: &[u64], f: impl Fn(u64) -> u64) {
    for (o, &x) in out.iter_mut().zip(x) {
        *o = f(x);
    }
}

#[inline(always)]
fn map2(out: &mut [u64], x: &[u64], y: &[u64], f: impl Fn(u64, u64) -> u64) {
    for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
        *o = f(x, y);
    }
}

/// A reusable lane machine: each op of a stream runs across a batch of up
/// to [`LANES`] packets that travel the same path, over one register
/// column per slot as many lanes wide as the batch (so a one-lane run
/// keeps a dense register file). Create once per worker, then
/// [`Machine::begin`] a batch, or [`Machine::reset`] for one packet — the
/// steady-state loop performs no allocation.
///
/// A guard op narrows the batch to the lanes whose predicate holds
/// until its run ends; runs never nest (`compile` closes one before it
/// opens the next), so one mask suffices. Every write is recorded once
/// per lane in a batch-level touch log of `(slot, newly-touched lanes)`,
/// which is what `begin` clears and what [`Machine::digests`] folds.
/// Each table's latest `Member` leaves its search in a per-table probe
/// that a linked `Lookup` of the same run reads instead of searching
/// again; a probe from an earlier run is never read.
///
/// The one-packet calls (`reset`, `set_slot`, `slot`, `digest`,
/// `load_packet`, `store_packet`) are the one-lane batch: they read and
/// write lane 0, and kernels only do the live lanes' work.
#[derive(Debug)]
pub struct Machine {
    /// Live lanes of the current batch, and their mask.
    lanes: usize,
    live: u64,
    /// Slot `s`, lane `i` at `s * lanes + i`.
    regs: Vec<u64>,
    /// Per slot, the lanes that have touched it this batch.
    touched_lanes: Vec<u64>,
    /// The batch touch log, in program order.
    log: Vec<(u32, u64)>,
    effect_args: Vec<u64>,
    effects: Vec<EffectRec>,
    /// Per table handle, the latest `Member`'s probe.
    probes: Vec<Probe>,
    /// Calls to `run` so far: stamps the probes of the current one.
    runs: u64,
    /// Kernel scratch: two constant splats and the result column.
    splat_a: Column,
    splat_b: Column,
    out: Column,
}

impl Machine {
    /// A machine sized for `layout`, holding an empty one-lane batch.
    pub fn new(layout: &ProgramLayout) -> Self {
        let n = layout.slots();
        Machine {
            lanes: 1,
            live: 1,
            regs: vec![0; n * LANES],
            touched_lanes: vec![0; n],
            log: Vec::with_capacity(n),
            effect_args: Vec::new(),
            effects: Vec::new(),
            probes: vec![
                Probe {
                    run: 0,
                    at: 0,
                    probed: 0,
                    found: 0,
                    values: [0; LANES],
                };
                layout.table_names.len()
            ],
            runs: 0,
            splat_a: [0; LANES],
            splat_b: [0; LANES],
            out: [0; LANES],
        }
    }

    /// Start a batch of `lanes` packets (1 ..= [`LANES`]): only the slots
    /// the previous batch touched are cleared.
    pub fn begin(&mut self, lanes: usize) {
        assert!(
            (1..=LANES).contains(&lanes),
            "a batch holds 1..={LANES} lanes, not {lanes}"
        );
        // Every register outside the touch log is zero, whatever the
        // lane count, so the next batch may use another. One lane is one
        // store, not a call to `memset`.
        let n = self.lanes;
        for &(slot, _) in &self.log {
            let s = slot as usize;
            if self.touched_lanes[s] != 0 {
                self.touched_lanes[s] = 0;
                match n {
                    1 => self.regs[s] = 0,
                    _ => self.regs[s * n..][..n].fill(0),
                }
            }
        }
        self.log.clear();
        self.effect_args.clear();
        self.effects.clear();
        self.lanes = lanes;
        self.live = first_lanes(lanes);
    }

    /// Clear the machine for the next packet: a one-lane batch.
    pub fn reset(&mut self) {
        self.begin(1);
    }

    /// Record `lanes` of `slot` as touched.
    #[inline]
    fn touch(&mut self, slot: u32, lanes: u64) {
        let new = lanes & !self.touched_lanes[slot as usize];
        if new != 0 {
            self.touched_lanes[slot as usize] |= new;
            self.log.push((slot, new));
        }
    }

    /// Seed a packet field of lane 0.
    #[inline]
    pub fn set_slot(&mut self, slot: u32, v: u64) {
        self.touch(slot, 1);
        self.regs[slot as usize * self.lanes] = v;
    }

    /// Seed a packet field across the batch: `values[i]` is lane `i`'s.
    pub fn set_column(&mut self, slot: u32, values: &[u64]) {
        assert_eq!(values.len(), self.lanes, "one value per live lane");
        self.touch(slot, self.live);
        let n = self.lanes;
        self.regs[slot as usize * n..][..n].copy_from_slice(values);
    }

    /// Read a register of lane 0.
    #[inline]
    pub fn slot(&self, slot: u32) -> u64 {
        self.lane_slot(slot, 0)
    }

    /// Read a register of lane `lane`.
    #[inline]
    pub fn lane_slot(&self, slot: u32, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane {lane} is not in the batch");
        self.regs[slot as usize * self.lanes + lane]
    }

    /// Write the result column to `dst` in the lanes of `write`, `n` the
    /// batch's lane count.
    #[inline(always)]
    fn commit(&mut self, dst: Dst, write: u64, n: usize) {
        if write == 0 {
            return;
        }
        self.touch(dst.slot, write);
        let col = &mut self.regs[dst.slot as usize * n..][..n];
        if write == self.live {
            for (c, &v) in col.iter_mut().zip(&self.out) {
                *c = v & dst.mask;
            }
        } else {
            for (i, (c, &v)) in col.iter_mut().zip(&self.out).enumerate() {
                let sel = lane_select(write, i);
                *c = (v & dst.mask & sel) | (*c & !sel);
            }
        }
    }

    /// Load every known field of a packet state into lane 0 (differential
    /// harness entry point — the replay hot path seeds columns directly).
    pub fn load_packet(&mut self, layout: &ProgramLayout, pkt: &PacketState) {
        for (name, &v) in &pkt.values {
            if let Some(slot) = layout.slot(name) {
                self.set_slot(slot, v);
            }
        }
    }

    /// Store lane 0's touched slots — every field it was seeded with or
    /// wrote — back into a packet state. A seeded field that was never
    /// written stores the value it was seeded with, so a packet loaded
    /// with [`Machine::load_packet`] ends up with exactly the keys and
    /// values the interpreter's insert-on-write leaves.
    pub fn store_packet(&self, layout: &ProgramLayout, pkt: &mut PacketState) {
        for &(slot, lanes) in &self.log {
            if lanes & 1 != 0 {
                pkt.values
                    .insert(layout.slot_name(slot).to_string(), self.slot(slot));
            }
        }
    }

    /// Execute one compiled stream across the batch against a table
    /// snapshot and a global access mode. Effects accumulate until the
    /// next `begin` / `reset`.
    ///
    /// # Panics
    ///
    /// On [`GlobalAccess::Persistent`] with more than one live lane.
    pub fn run(
        &mut self,
        prog: &CompiledAlgorithm,
        snap: &TableSnapshot,
        globals: &mut GlobalAccess<'_>,
    ) {
        assert!(
            self.lanes == 1 || !matches!(globals, GlobalAccess::Persistent(_)),
            "persistent globals are sequential: run them one lane at a time"
        );
        self.runs += 1;
        // The same kernels, compiled three times: for one lane and for a
        // full batch the lane count is a constant, so their loops lose
        // their trip-count checks.
        match self.lanes {
            1 => self.run_lanes(prog, snap, globals, 1),
            LANES => self.run_lanes(prog, snap, globals, LANES),
            n => self.run_lanes(prog, snap, globals, n),
        }
    }

    /// [`Machine::run`] on a batch of `n` lanes.
    #[inline(always)]
    fn run_lanes(
        &mut self,
        prog: &CompiledAlgorithm,
        snap: &TableSnapshot,
        globals: &mut GlobalAccess<'_>,
        n: usize,
    ) {
        let live = self.live;
        let ops = &prog.ops;
        // The lanes the current op runs on, and where the guard run that
        // narrowed them ends.
        let mut mask = live;
        let mut run_end = 0usize;
        let mut ip = 0usize;
        while ip < ops.len() {
            if ip == run_end {
                mask = live;
            }
            match &ops[ip] {
                Op::Guard { slot, skip } => {
                    run_end = ip + 1 + *skip as usize;
                    let col = &self.regs[*slot as usize * n..][..n];
                    mask = col
                        .iter()
                        .enumerate()
                        .fold(0, |m, (i, &v)| m | (((v != 0) as u64) << i));
                    if mask == 0 {
                        ip = run_end;
                        continue;
                    }
                }
                Op::Assign { dst, a } => {
                    let x = column(&self.regs, *a, &mut self.splat_a, n);
                    self.out[..n].copy_from_slice(x);
                    self.commit(*dst, mask, n);
                }
                Op::Bin { op, dst, a, b } => {
                    let x = column(&self.regs, *a, &mut self.splat_a, n);
                    let y = column(&self.regs, *b, &mut self.splat_b, n);
                    let out = &mut self.out[..n];
                    match op {
                        BinOp::Add => map2(out, x, y, u64::wrapping_add),
                        BinOp::Sub => map2(out, x, y, u64::wrapping_sub),
                        BinOp::Mul => map2(out, x, y, u64::wrapping_mul),
                        BinOp::Div => map2(out, x, y, |x, y| x.checked_div(y).unwrap_or(0)),
                        BinOp::Mod => map2(out, x, y, |x, y| x.checked_rem(y).unwrap_or(0)),
                        BinOp::And => map2(out, x, y, |x, y| x & y),
                        BinOp::Or => map2(out, x, y, |x, y| x | y),
                        BinOp::Xor => map2(out, x, y, |x, y| x ^ y),
                        BinOp::Shl => map2(out, x, y, shl),
                        BinOp::Shr => map2(out, x, y, shr),
                        BinOp::Eq => map2(out, x, y, |x, y| (x == y) as u64),
                        BinOp::Ne => map2(out, x, y, |x, y| (x != y) as u64),
                        BinOp::Lt => map2(out, x, y, |x, y| (x < y) as u64),
                        BinOp::Le => map2(out, x, y, |x, y| (x <= y) as u64),
                        BinOp::Gt => map2(out, x, y, |x, y| (x > y) as u64),
                        BinOp::Ge => map2(out, x, y, |x, y| (x >= y) as u64),
                        BinOp::LAnd => map2(out, x, y, |x, y| (x != 0 && y != 0) as u64),
                        BinOp::LOr => map2(out, x, y, |x, y| (x != 0 || y != 0) as u64),
                    }
                    self.commit(*dst, mask, n);
                }
                Op::Un { op, dst, a } => {
                    let x = column(&self.regs, *a, &mut self.splat_a, n);
                    let out = &mut self.out[..n];
                    match op {
                        UnOp::Not => map1(out, x, |x| (x == 0) as u64),
                        UnOp::BitNot => map1(out, x, |x| !x),
                        UnOp::Neg => map1(out, x, u64::wrapping_neg),
                    }
                    self.commit(*dst, mask, n);
                }
                Op::Hash { dst, args } => {
                    // `reference_hash` over the arg columns, lane-parallel;
                    // its output mask is folded into `dst.mask`.
                    self.out[..n].fill(0x9e37_79b9_7f4a_7c15);
                    for &a in args.iter() {
                        let x = column(&self.regs, a, &mut self.splat_a, n);
                        for (acc, &x) in self.out[..n].iter_mut().zip(x) {
                            let v = (*acc ^ x).wrapping_mul(0xff51_afd7_ed55_8ccd);
                            *acc = v ^ (v >> 33);
                        }
                    }
                    self.commit(*dst, mask, n);
                }
                Op::Fold { dst, is_min, args } => {
                    let out = &mut self.out[..n];
                    out.fill(0);
                    for (k, &a) in args.iter().enumerate() {
                        let x = column(&self.regs, a, &mut self.splat_a, n);
                        let lanes = out.iter_mut().zip(x);
                        match (k, *is_min) {
                            (0, _) => lanes.for_each(|(acc, &x)| *acc = x),
                            (_, true) => lanes.for_each(|(acc, &x)| *acc = (*acc).min(x)),
                            (_, false) => lanes.for_each(|(acc, &x)| *acc = (*acc).max(x)),
                        }
                    }
                    self.commit(*dst, mask, n);
                }
                Op::Env { dst, value } => {
                    self.out[..n].fill(*value);
                    self.commit(*dst, mask, n);
                }
                Op::Act { action, args } => {
                    for lane in set_lanes(mask) {
                        let start = self.effect_args.len() as u32;
                        for &a in args.iter() {
                            let v = match a {
                                Src::Const(c) => c,
                                Src::Slot(s) => self.regs[s as usize * n + lane],
                            };
                            self.effect_args.push(v);
                        }
                        self.effects.push(EffectRec {
                            lane: lane as u32,
                            action: *action,
                            start,
                            len: args.len() as u32,
                        });
                    }
                }
                Op::Member { dst, table, key } => {
                    // Sticky OR over the previous destination value.
                    let t = snap.table(*table);
                    let keys = column(&self.regs, *key, &mut self.splat_a, n);
                    let prev = &self.regs[dst.slot as usize * n..][..n];
                    let p = &mut self.probes[*table as usize];
                    let mut found = 0u64;
                    for lane in set_lanes(mask) {
                        let hit = t.get(keys[lane]);
                        if let Some(v) = hit {
                            p.values[lane] = v;
                            found |= 1 << lane;
                        }
                        self.out[lane] = prev[lane] | hit.is_some() as u64;
                    }
                    (p.run, p.at, p.probed, p.found) = (self.runs, ip as u32, mask, found);
                    self.commit(*dst, mask, n);
                }
                Op::Lookup {
                    dst,
                    table,
                    key,
                    probe,
                } => {
                    // Sticky: a miss leaves the destination unchanged. The
                    // lanes the linked `Member` searched this run take its
                    // answer; only the others search.
                    let t = snap.table(*table);
                    let keys = column(&self.regs, *key, &mut self.splat_a, n);
                    let p = &self.probes[*table as usize];
                    let probed = match probe {
                        Some(at) if p.run == self.runs && p.at == *at => mask & p.probed,
                        _ => 0,
                    };
                    let mut hits = probed & p.found;
                    for lane in set_lanes(hits) {
                        self.out[lane] = p.values[lane];
                    }
                    for lane in set_lanes(mask & !probed) {
                        if let Some(v) = t.get(keys[lane]) {
                            self.out[lane] = v;
                            hits |= 1 << lane;
                        }
                    }
                    self.commit(*dst, hits, n);
                }
                Op::GlobalRead { dst, global, index } => {
                    let idx = column(&self.regs, *index, &mut self.splat_a, n);
                    for lane in set_lanes(mask) {
                        self.out[lane] = globals.read(lane, *global, idx[lane]);
                    }
                    self.commit(*dst, mask, n);
                }
                Op::GlobalWrite {
                    global,
                    index,
                    value,
                } => {
                    let idx = column(&self.regs, *index, &mut self.splat_a, n);
                    let val = column(&self.regs, *value, &mut self.splat_b, n);
                    for lane in set_lanes(mask) {
                        globals.write(lane, *global, idx[lane], val[lane]);
                    }
                }
                Op::Slice { dst, a, hi, lo } => {
                    let x = column(&self.regs, *a, &mut self.splat_a, n);
                    map1(&mut self.out[..n], x, |x| slice(x, *hi, *lo));
                    self.commit(*dst, mask, n);
                }
            }
            ip += 1;
        }
    }

    /// Number of effects recorded since the last `begin` / `reset`,
    /// across every lane.
    pub fn effect_count(&self) -> usize {
        self.effects.len()
    }

    /// Materialize lane `lane`'s recorded effects (test/verification path
    /// — the hot loop uses [`Machine::effect_count`] and
    /// [`Machine::digests`]).
    pub fn lane_effects(&self, layout: &ProgramLayout, lane: usize) -> Vec<Effect> {
        self.effects
            .iter()
            .filter(|e| e.lane as usize == lane)
            .map(|e| Effect::Action {
                name: layout.action_name(e.action).to_string(),
                args: self.effect_args[e.start as usize..(e.start + e.len) as usize].to_vec(),
            })
            .collect()
    }

    /// Fingerprint the outcome of lanes `0 .. out.len()`, one pass over
    /// the touch log for all of them: each lane folds every slot it
    /// touched, in touch order, then its own effect stream. Touch order
    /// is program order, a function of the packet alone, so a packet's
    /// digest is the same whichever batch, lane or worker runs it — the
    /// determinism the batched-replay tests assert. Untouched slots are
    /// zero and carry no information, so only touched slots are folded.
    pub fn digests(&self, out: &mut [u64]) {
        assert!(out.len() <= self.lanes, "digest of a lane not in the batch");
        // As in `run`: a one-lane fold compiled with a constant width.
        match self.lanes {
            1 => self.fold_log(out, 1),
            n => self.fold_log(out, n),
        }
    }

    /// [`Machine::digests`] over a register file `n` lanes wide.
    #[inline(always)]
    fn fold_log(&self, out: &mut [u64], n: usize) {
        out.fill(0xcbf2_9ce4_8422_2325);
        let full = first_lanes(out.len());
        for &(slot, lanes) in &self.log {
            let col = &self.regs[slot as usize * n..][..n];
            if lanes & full == full {
                for (acc, &v) in out.iter_mut().zip(col) {
                    *acc = fnv(fnv(*acc, slot as u64), v);
                }
            } else {
                for (i, (acc, &v)) in out.iter_mut().zip(col).enumerate() {
                    let sel = lane_select(lanes, i);
                    *acc = (fnv(fnv(*acc, slot as u64), v) & sel) | (*acc & !sel);
                }
            }
        }
        for e in &self.effects {
            let Some(acc) = out.get_mut(e.lane as usize) else {
                continue;
            };
            *acc = fnv(*acc, 0x5eed ^ e.action as u64);
            for &a in &self.effect_args[e.start as usize..(e.start + e.len) as usize] {
                *acc = fnv(*acc, a);
            }
        }
    }

    /// Lane 0's digest (see [`Machine::digests`]).
    pub fn digest(&self) -> u64 {
        let mut d = [0];
        self.digests(&mut d);
        d[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;
    use crate::interp::{execute_all, DataPlaneState, PacketState};

    fn program(src: &str) -> IrProgram {
        frontend(src).unwrap()
    }

    /// Compile the whole algorithm.
    fn compile_all(alg: &IrAlgorithm, layout: &ProgramLayout) -> CompiledAlgorithm {
        let ids: Vec<InstrId> = alg.instr_ids().collect();
        CompiledAlgorithm::compile(alg, &ids, layout)
    }

    /// Run one packet both ways (interpreter vs compiled, persistent
    /// globals) and assert identical observable state.
    fn check(src: &str, fields: &[(&str, u64)], dp: &DataPlaneState) {
        let ir = program(src);
        let layout = ProgramLayout::new(&ir);
        let alg = &ir.algorithms[0];
        let compiled = compile_all(alg, &layout);

        let mut ref_pkt = PacketState::new();
        for &(k, v) in fields {
            ref_pkt.set(k, v);
        }
        let mut ref_dp = dp.clone();
        let ref_fx = execute_all(alg, &mut ref_pkt, &mut ref_dp);

        let mut m = Machine::new(&layout);
        let mut pkt = PacketState::new();
        for &(k, v) in fields {
            pkt.set(k, v);
        }
        m.load_packet(&layout, &pkt);
        let snap = TableSnapshot::build(&layout, dp);
        let mut store = layout.globals_from(dp);
        m.run(&compiled, &snap, &mut GlobalAccess::Persistent(&mut store));
        m.store_packet(&layout, &mut pkt);

        for (name, &v) in &ref_pkt.values {
            assert_eq!(pkt.get(name), v, "field `{name}` diverged");
        }
        assert_eq!(m.lane_effects(&layout, 0), ref_fx, "effects diverged");
        let mut out_dp = dp.clone();
        layout.globals_into(&store, &mut out_dp);
        for (g, arr) in &ref_dp.globals {
            assert_eq!(out_dp.globals.get(g), Some(arr), "global `{g}` diverged");
        }
    }

    #[test]
    fn arithmetic_and_masking_match_interpreter() {
        check(
            "pipeline[P]{a}; algorithm a { bit[8] x; x = 300; y = x + 4; z = y << 2; }",
            &[],
            &DataPlaneState::new(),
        );
    }

    #[test]
    fn slices_and_shifts_follow_the_word_rules() {
        let src = "pipeline[P]{a}; algorithm a { y = x[63:0]; z = x[71:64]; \
                   w = x[70:60]; l = 3 << s; r = x >> s; }";
        let fields = [("x", u64::MAX), ("s", (1u64 << 32) + 1)];
        check(src, &fields, &DataPlaneState::new());
        // Agreement alone is not enough: all evaluators share the rules.
        let mut pkt = PacketState::new();
        for (k, v) in fields {
            pkt.set(k, v);
        }
        execute_all(
            &program(src).algorithms[0],
            &mut pkt,
            &mut DataPlaneState::new(),
        );
        let got = ["y", "z", "w", "l", "r"].map(|f| pkt.get(f));
        assert_eq!(got, [u64::MAX, 0, 0xf, 0, 0]);
    }

    #[test]
    fn predicates_compile_to_guards() {
        let src = "pipeline[P]{a}; algorithm a { if (c == 1) { x = 10; } else { x = 20; } }";
        for c in [0u64, 1, 5] {
            check(src, &[("c", c)], &DataPlaneState::new());
        }
        // The stream has guards and executes the right arm.
        let ir = program(src);
        let layout = ProgramLayout::new(&ir);
        let compiled = compile_all(&ir.algorithms[0], &layout);
        assert!(
            compiled.ops.iter().any(|o| matches!(o, Op::Guard { .. })),
            "predicated code must compile to guard skips"
        );
    }

    #[test]
    fn tables_and_stickiness_match_interpreter() {
        let src = r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[16] t;
                hit = key in t;
                if (hit) { out = t[key]; }
            }
        "#;
        let mut dp = DataPlaneState::new();
        dp.install("t", 42, 777);
        dp.install("t", 7, 111);
        for key in [42u64, 7, 9] {
            check(src, &[("key", key)], &dp);
        }
    }

    /// The load balancer of Figure 1(c), optionally rewriting the
    /// `conn_table` key between its `in` test and its read.
    fn lb(rewrite: &str) -> String {
        format!(
            r#"
            pipeline[LB]{{lb}};
            algorithm lb {{
                extern dict<bit[32] hash, bit[32] ip>[64] conn_table;
                extern dict<bit[32] vip, bit[8] group>[64] vip_table;
                hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
                if (hash in conn_table) {{
                    {rewrite}
                    ipv4.dstAddr = conn_table[hash];
                }} else {{
                    if (ipv4.dstAddr in vip_table) {{
                        dip_group = vip_table[ipv4.dstAddr];
                        copy_to_cpu();
                    }}
                }}
            }}
        "#
        )
    }

    /// Per `Lookup` of `src`, in order: its table, and the table of the
    /// `Member` it is linked to.
    fn lookup_links(src: &str) -> Vec<(u32, Option<u32>)> {
        let ir = program(src);
        let layout = ProgramLayout::new(&ir);
        let compiled = compile_all(&ir.algorithms[0], &layout);
        let ops = &compiled.ops;
        ops.iter()
            .filter_map(|op| match op {
                Op::Lookup { table, probe, .. } => Some((
                    *table,
                    probe.map(|at| match ops[at as usize] {
                        Op::Member { table, .. } => table,
                        ref other => panic!("a lookup is linked to {other:?}"),
                    }),
                )),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn lookups_reuse_their_members_probe_until_the_key_is_rewritten() {
        // Both reads follow an `in` test of their own table and key.
        let links = lookup_links(&lb(""));
        assert_eq!(links.len(), 2);
        assert!(links.iter().all(|&(t, m)| m == Some(t)), "{links:?}");
        // A rewritten `hash` unlinks the `conn_table` read alone.
        let links = lookup_links(&lb("hash = hash + 1;"));
        assert_eq!(links[0].1, None, "{links:?}");
        assert_eq!(links[1].1, Some(links[1].0), "{links:?}");
        // Either way the engine answers as the interpreter does, on
        // hits and misses of both tables.
        let mut dp = DataPlaneState::new();
        let hash = |src: u64, dst: u64| crate::interp::reference_hash(&[src, dst]) & 0xffff_ffff;
        dp.install("conn_table", hash(1, 2), 0xc0de);
        dp.install("conn_table", hash(1, 2) + 1, 0xfeed);
        dp.install("vip_table", 4, 7);
        for rewrite in ["", "hash = hash + 1;"] {
            for (src, dst) in [(1, 2), (1, 3), (1, 4), (5, 6)] {
                check(
                    &lb(rewrite),
                    &[("ipv4.srcAddr", src), ("ipv4.dstAddr", dst)],
                    &dp,
                );
            }
        }
    }

    #[test]
    fn builtins_match_shared_dispatch() {
        let src = r#"
            pipeline[P]{a};
            algorithm a {
                h = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
                h16 = crc16_hash(ipv4.srcAddr);
                lo = min(h, h16);
                q = get_queue_len();
            }
        "#;
        check(
            src,
            &[("ipv4.srcAddr", 0xdead), ("ipv4.dstAddr", 0xbeef)],
            &DataPlaneState::new(),
        );
    }

    #[test]
    fn globals_persist_in_persistent_mode() {
        let ir =
            program("pipeline[P]{a}; algorithm a { global bit[32][4] ctr; ctr[0] = ctr[0] + 1; }");
        let layout = ProgramLayout::new(&ir);
        let compiled = compile_all(&ir.algorithms[0], &layout);
        let mut dp = DataPlaneState::new();
        dp.global("ctr", 4);
        let snap = TableSnapshot::build(&layout, &dp);
        let mut store = layout.globals_from(&dp);
        let mut m = Machine::new(&layout);
        for _ in 0..3 {
            m.reset();
            m.run(&compiled, &snap, &mut GlobalAccess::Persistent(&mut store));
        }
        assert_eq!(store[layout.global("ctr").unwrap() as usize][0], 3);
    }

    #[test]
    #[should_panic(expected = "persistent globals are sequential")]
    fn persistent_globals_refuse_a_batch() {
        let ir =
            program("pipeline[P]{a}; algorithm a { global bit[32][4] ctr; ctr[0] = ctr[0] + 1; }");
        let layout = ProgramLayout::new(&ir);
        let compiled = compile_all(&ir.algorithms[0], &layout);
        let dp = DataPlaneState::new();
        let snap = TableSnapshot::build(&layout, &dp);
        let mut store = layout.globals_from(&dp);
        let mut m = Machine::new(&layout);
        m.begin(2);
        m.run(&compiled, &snap, &mut GlobalAccess::Persistent(&mut store));
    }

    #[test]
    fn isolated_mode_is_per_packet() {
        let ir = program(
            "pipeline[P]{a}; algorithm a { global bit[32][4] ctr; ctr[0] = ctr[0] + 1; out = ctr[0]; }",
        );
        let layout = ProgramLayout::new(&ir);
        let compiled = compile_all(&ir.algorithms[0], &layout);
        let mut dp = DataPlaneState::new();
        dp.global("ctr", 4);
        let snap = TableSnapshot::build(&layout, &dp);
        let mut m = Machine::new(&layout);
        let mut overlay = GlobalOverlay::new();
        for _ in 0..3 {
            m.reset();
            overlay.clear();
            m.run(
                &compiled,
                &snap,
                &mut GlobalAccess::Isolated {
                    baseline: &snap.globals,
                    overlay: &mut overlay,
                },
            );
            // Every packet sees the same baseline: read-after-write works
            // inside the packet, state does not leak across packets.
            assert_eq!(m.slot(layout.slot("out").unwrap()), 1);
        }
    }

    #[test]
    fn snapshots_share_registers_with_the_state_or_with_each_other() {
        let ir = program("pipeline[P]{a}; algorithm a { global bit[32][8] ctr; out = ctr[i]; }");
        let layout = ProgramLayout::new(&ir);
        let g = layout.global("ctr").unwrap() as usize;
        // A state that holds the array is served that very array.
        let mut held = DataPlaneState::new();
        held.global("ctr", 8);
        let snap = TableSnapshot::build(&layout, &held);
        assert!(Arc::ptr_eq(&snap.globals[g], &held.globals["ctr"]));
        // A state that lacks it reads zeros at the declared length, one
        // allocation for every snapshot built under the layout.
        let bare = DataPlaneState::new();
        let (a, b) = (
            TableSnapshot::build(&layout, &bare),
            TableSnapshot::build(&layout, &bare),
        );
        assert_eq!(*a.globals[g], vec![0; 8]);
        assert!(Arc::ptr_eq(&a.globals[g], &b.globals[g]));
    }

    #[test]
    fn sized_global_indices_wrap() {
        let src = r#"
            pipeline[P]{a};
            algorithm a {
                global bit[32][8] sketch;
                h = crc32_hash(key);
                sketch[h] = sketch[h] + 1;
                out = sketch[h];
            }
        "#;
        // The hash is ~32 bits; the array has 8 slots. Interpreter and
        // compiled engine must agree on the wrapped register.
        let mut dp = DataPlaneState::new();
        dp.global("sketch", 8);
        for key in [1u64, 0xffff_ffff, 0xdead_beef] {
            check(src, &[("key", key)], &dp);
        }
    }

    #[test]
    fn effects_record_in_order() {
        check(
            "pipeline[P]{a}; algorithm a { if (bad == 1) { drop(); } copy_to_cpu(); }",
            &[("bad", 1)],
            &DataPlaneState::new(),
        );
    }

    #[test]
    fn subset_streams_compose_like_split_execution() {
        // Compile two disjoint halves; running them in order must equal
        // the whole (the per-switch placement case).
        let src = "pipeline[P]{a}; algorithm a { x = f + 1; y = x * 2; z = y ^ x; w = z + y; }";
        let ir = program(src);
        let layout = ProgramLayout::new(&ir);
        let alg = &ir.algorithms[0];
        let ids: Vec<InstrId> = alg.instr_ids().collect();
        let (first, second) = ids.split_at(ids.len() / 2);
        let c1 = CompiledAlgorithm::compile(alg, first, &layout);
        let c2 = CompiledAlgorithm::compile(alg, second, &layout);
        let whole = compile_all(alg, &layout);
        let dp = DataPlaneState::new();
        let snap = TableSnapshot::build(&layout, &dp);

        let run = |progs: &[&CompiledAlgorithm]| -> u64 {
            let mut m = Machine::new(&layout);
            m.set_slot(layout.slot("f").unwrap(), 41);
            let mut store = layout.globals_from(&dp);
            for p in progs {
                m.run(p, &snap, &mut GlobalAccess::Persistent(&mut store));
            }
            m.digest()
        };
        assert_eq!(run(&[&c1, &c2]), run(&[&whole]));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let src = "pipeline[P]{a}; algorithm a { x = f + 1; if (x > 10) { drop(); } }";
        let ir = program(src);
        let layout = ProgramLayout::new(&ir);
        let compiled = compile_all(&ir.algorithms[0], &layout);
        let dp = DataPlaneState::new();
        let snap = TableSnapshot::build(&layout, &dp);
        let run = |f: u64| -> u64 {
            let mut m = Machine::new(&layout);
            m.set_slot(layout.slot("f").unwrap(), f);
            let mut store = layout.globals_from(&dp);
            m.run(&compiled, &snap, &mut GlobalAccess::Persistent(&mut store));
            m.digest()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(30));
    }
}
