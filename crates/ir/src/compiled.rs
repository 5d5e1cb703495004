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
//! * predicates become skip offsets ([`Op::Guard`]) over runs of
//!   identically-predicated instructions, so untaken branches cost one
//!   compare + jump instead of a per-instruction string probe;
//! * builtin calls are pre-dispatched at compile time — environment reads
//!   (deterministic per name) collapse to a precomputed constant.
//!
//! Execution happens on a reusable [`Machine`]: per-packet `reset` clears
//! only the slots the previous packet touched, and effects are recorded
//! into flat buffers that are reused across packets.
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
    builtin_call, global_read, global_write, mask, DataPlaneState, Effect, PacketState,
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

    /// Name of a global handle.
    pub fn global_name(&self, g: u32) -> &str {
        &self.global_names[g as usize]
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
#[derive(Debug, Clone, Copy)]
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
    /// Pre-dispatched hash builtin: `reference_hash(args) & out_mask`.
    Hash {
        dst: Dst,
        out_mask: u64,
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
    /// Sticky membership test (`dst |= key in table`).
    Member {
        dst: Dst,
        table: u32,
        key: Src,
    },
    /// Sticky lookup (`dst = table[key]` on hit, unchanged on miss).
    Lookup {
        dst: Dst,
        table: u32,
        key: Src,
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
        lo: u32,
        smask: u64,
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
                    match bare {
                        "crc32_hash" | "identity_hash" => Op::Hash {
                            dst,
                            out_mask: 0xffff_ffff,
                            args,
                        },
                        "crc16_hash" => Op::Hash {
                            dst,
                            out_mask: 0xffff,
                            args,
                        },
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
                    Op::Member {
                        dst,
                        table: layout.table(table).expect("layout covers tables"),
                        key,
                    }
                }
                IrOp::TableLookup { table, key } => {
                    let key = src_of(key);
                    note_read(key, &written, &mut live_in);
                    Op::Lookup {
                        dst: dst.expect("lookup has a destination"),
                        table: layout.table(table).expect("layout covers tables"),
                        key,
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
                    let d = dst.expect("slice has a destination");
                    let width = (hi - lo + 1).min(63);
                    Op::Slice {
                        // Slice truncates to the slice width *and* the
                        // destination width; compose both masks.
                        dst: Dst {
                            slot: d.slot,
                            mask: d.mask & mask(u64::MAX, width),
                        },
                        a,
                        lo: *lo,
                        smask: u64::MAX,
                    }
                }
            };
            ops.push(op);
            if let Some(d) = instr.dst {
                let slot = slot_of(d) as usize;
                written[slot] = true;
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

    /// Compile the whole algorithm.
    pub fn compile_all(alg: &IrAlgorithm, layout: &ProgramLayout) -> Self {
        let ids: Vec<InstrId> = alg.instr_ids().collect();
        Self::compile(alg, &ids, layout)
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

/// A packet-private overlay of global writes: the batched engine's
/// isolation mechanism. Reads scan the (tiny, newest-first) write log
/// before falling back to the snapshot baseline; `clear` is O(writes).
#[derive(Debug, Default)]
pub struct GlobalOverlay {
    writes: Vec<(u32, u64, u64)>,
}

impl GlobalOverlay {
    /// An empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget all writes (start the next packet / hop).
    pub fn clear(&mut self) {
        self.writes.clear();
    }

    #[inline]
    fn read(&self, global: u32, index: u64) -> Option<u64> {
        self.writes
            .iter()
            .rev()
            .find(|&&(g, i, _)| g == global && i == index)
            .map(|&(_, _, v)| v)
    }
}

/// How compiled streams touch global register arrays.
pub enum GlobalAccess<'a> {
    /// Mutate a real store (indexed by global handle) with the reference
    /// interpreter's exact semantics — state persists across packets.
    Persistent(&'a mut Vec<Vec<u64>>),
    /// Per-packet isolation: reads fall through a private overlay to the
    /// read-only snapshot baseline; writes land in the overlay only. This
    /// is what makes batched execution independent of worker count.
    Isolated {
        /// The epoch-pinned baseline (typically [`TableSnapshot::globals`]).
        baseline: &'a [Arc<Vec<u64>>],
        /// The packet-private write log.
        overlay: &'a mut GlobalOverlay,
    },
}

impl GlobalAccess<'_> {
    #[inline]
    fn read(&self, g: u32, i: u64) -> u64 {
        match self {
            GlobalAccess::Persistent(store) => global_read(&store[g as usize], i),
            GlobalAccess::Isolated { baseline, overlay } => {
                let arr = &baseline[g as usize];
                // Wrap exactly as the baseline store would, so the overlay
                // key matches the physical register.
                let i = if arr.is_empty() {
                    i
                } else {
                    i % arr.len() as u64
                };
                overlay.read(g, i).unwrap_or_else(|| global_read(arr, i))
            }
        }
    }

    #[inline]
    fn write(&mut self, g: u32, i: u64, v: u64) {
        match self {
            GlobalAccess::Persistent(store) => global_write(&mut store[g as usize], i, v),
            GlobalAccess::Isolated { baseline, overlay } => {
                let arr = &baseline[g as usize];
                let i = if arr.is_empty() {
                    i
                } else {
                    i % arr.len() as u64
                };
                overlay.writes.push((g, i, v));
            }
        }
    }
}

/// One recorded effect: `(action handle, arg range in the flat buffer)`.
#[derive(Debug, Clone, Copy)]
struct EffectRec {
    action: u32,
    start: u32,
    len: u32,
}

/// A reusable execution context: the register file, effect buffers, and
/// touched-slot bookkeeping. Create once per worker, `reset` per packet —
/// the steady-state packet loop performs no allocation.
#[derive(Debug)]
pub struct Machine {
    regs: Vec<u64>,
    /// Slot holds a meaningful value (loaded or written) this packet.
    active: Vec<bool>,
    /// Slot was *written* this packet (what `store_packet` persists).
    written: Vec<bool>,
    touched: Vec<u32>,
    effect_args: Vec<u64>,
    effects: Vec<EffectRec>,
}

impl Machine {
    /// A machine sized for `layout`.
    pub fn new(layout: &ProgramLayout) -> Self {
        let n = layout.slots();
        Machine {
            regs: vec![0; n],
            active: vec![false; n],
            written: vec![false; n],
            touched: Vec::with_capacity(n),
            effect_args: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// Clear the machine for the next packet: only the slots the previous
    /// packet touched are reset.
    pub fn reset(&mut self) {
        for &slot in &self.touched {
            self.regs[slot as usize] = 0;
            self.active[slot as usize] = false;
            self.written[slot as usize] = false;
        }
        self.touched.clear();
        self.effect_args.clear();
        self.effects.clear();
    }

    /// Seed a packet field.
    #[inline]
    pub fn set_slot(&mut self, slot: u32, v: u64) {
        if !self.active[slot as usize] {
            self.active[slot as usize] = true;
            self.touched.push(slot);
        }
        self.regs[slot as usize] = v;
    }

    /// Read a register.
    #[inline]
    pub fn slot(&self, slot: u32) -> u64 {
        self.regs[slot as usize]
    }

    #[inline]
    fn write(&mut self, dst: Dst, v: u64) {
        let s = dst.slot as usize;
        if !self.active[s] {
            self.active[s] = true;
            self.touched.push(dst.slot);
        }
        self.written[s] = true;
        self.regs[s] = v & dst.mask;
    }

    #[inline]
    fn read(&self, s: Src) -> u64 {
        match s {
            Src::Const(c) => c,
            Src::Slot(slot) => self.regs[slot as usize],
        }
    }

    /// Load every known field of a packet state (differential harness
    /// entry point — the replay hot path seeds slots directly).
    pub fn load_packet(&mut self, layout: &ProgramLayout, pkt: &PacketState) {
        for (name, &v) in &pkt.values {
            if let Some(slot) = layout.slot(name) {
                self.set_slot(slot, v);
            }
        }
    }

    /// Store written slots back into a packet state, mirroring the
    /// interpreter's insert-on-write key behavior.
    pub fn store_packet(&self, layout: &ProgramLayout, pkt: &mut PacketState) {
        for &slot in &self.touched {
            if self.written[slot as usize] {
                pkt.values
                    .insert(layout.slot_name(slot).to_string(), self.regs[slot as usize]);
            }
        }
    }

    /// Execute one compiled stream against a table snapshot and a global
    /// access mode. Effects accumulate until the next `reset`.
    pub fn run(
        &mut self,
        prog: &CompiledAlgorithm,
        snap: &TableSnapshot,
        globals: &mut GlobalAccess<'_>,
    ) {
        let ops = &prog.ops;
        let mut ip = 0usize;
        while ip < ops.len() {
            match &ops[ip] {
                Op::Guard { slot, skip } => {
                    if self.regs[*slot as usize] == 0 {
                        ip += *skip as usize;
                    }
                }
                Op::Assign { dst, a } => {
                    let v = self.read(*a);
                    self.write(*dst, v);
                }
                Op::Bin { op, dst, a, b } => {
                    let (x, y) = (self.read(*a), self.read(*b));
                    let v = match op {
                        BinOp::Add => x.wrapping_add(y),
                        BinOp::Sub => x.wrapping_sub(y),
                        BinOp::Mul => x.wrapping_mul(y),
                        BinOp::Div => x.checked_div(y).unwrap_or(0),
                        BinOp::Mod => x.checked_rem(y).unwrap_or(0),
                        BinOp::And => x & y,
                        BinOp::Or => x | y,
                        BinOp::Xor => x ^ y,
                        BinOp::Shl => x.checked_shl(y as u32).unwrap_or(0),
                        BinOp::Shr => x.checked_shr(y as u32).unwrap_or(0),
                        BinOp::Eq => (x == y) as u64,
                        BinOp::Ne => (x != y) as u64,
                        BinOp::Lt => (x < y) as u64,
                        BinOp::Le => (x <= y) as u64,
                        BinOp::Gt => (x > y) as u64,
                        BinOp::Ge => (x >= y) as u64,
                        BinOp::LAnd => ((x != 0) && (y != 0)) as u64,
                        BinOp::LOr => ((x != 0) || (y != 0)) as u64,
                    };
                    self.write(*dst, v);
                }
                Op::Un { op, dst, a } => {
                    let x = self.read(*a);
                    let v = match op {
                        UnOp::Not => (x == 0) as u64,
                        UnOp::BitNot => !x,
                        UnOp::Neg => x.wrapping_neg(),
                    };
                    self.write(*dst, v);
                }
                Op::Hash {
                    dst,
                    out_mask,
                    args,
                } => {
                    // Inline reference_hash over the arg slots: no arg
                    // buffer materialization.
                    let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
                    for &a in args.iter() {
                        acc ^= self.read(a);
                        acc = acc.wrapping_mul(0xff51_afd7_ed55_8ccd);
                        acc ^= acc >> 33;
                    }
                    self.write(*dst, acc & out_mask);
                }
                Op::Fold { dst, is_min, args } => {
                    let it = args.iter().map(|&a| self.read(a));
                    let v = if *is_min {
                        it.min().unwrap_or(0)
                    } else {
                        it.max().unwrap_or(0)
                    };
                    self.write(*dst, v);
                }
                Op::Env { dst, value } => self.write(*dst, *value),
                Op::Act { action, args } => {
                    let start = self.effect_args.len() as u32;
                    for &a in args.iter() {
                        let v = self.read(a);
                        self.effect_args.push(v);
                    }
                    self.effects.push(EffectRec {
                        action: *action,
                        start,
                        len: args.len() as u32,
                    });
                }
                Op::Member { dst, table, key } => {
                    let k = self.read(*key);
                    let hit = snap.table(*table).get(k).is_some() as u64;
                    let prev = self.regs[dst.slot as usize];
                    self.write(*dst, prev | hit);
                }
                Op::Lookup { dst, table, key } => {
                    let k = self.read(*key);
                    if let Some(v) = snap.table(*table).get(k) {
                        self.write(*dst, v);
                    }
                }
                Op::GlobalRead { dst, global, index } => {
                    let i = self.read(*index);
                    let v = globals.read(*global, i);
                    self.write(*dst, v);
                }
                Op::GlobalWrite {
                    global,
                    index,
                    value,
                } => {
                    let i = self.read(*index);
                    let v = self.read(*value);
                    globals.write(*global, i, v);
                }
                Op::Slice { dst, a, lo, smask } => {
                    let x = self.read(*a);
                    self.write(*dst, (x >> lo) & smask);
                }
            }
            ip += 1;
        }
    }

    /// Number of effects recorded since the last `reset`.
    pub fn effect_count(&self) -> usize {
        self.effects.len()
    }

    /// Materialize the recorded effects (test/verification path — the hot
    /// loop uses [`Machine::effect_count`] and [`Machine::digest`]).
    pub fn effects_vec(&self, layout: &ProgramLayout) -> Vec<Effect> {
        self.effects
            .iter()
            .map(|e| Effect::Action {
                name: layout.action_name(e.action).to_string(),
                args: self.effect_args[e.start as usize..(e.start + e.len) as usize].to_vec(),
            })
            .collect()
    }

    /// An order-sensitive fingerprint of the packet outcome: every touched
    /// register slot plus the effect stream. Touch order is program order,
    /// a function of the packet alone, so two runs of the same packet
    /// produce the same digest regardless of worker partitioning — the
    /// determinism the batched-replay tests assert. Untouched slots are
    /// zero and carry no information, so only touched slots are folded.
    pub fn digest(&self) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            acc ^= v;
            acc = acc.wrapping_mul(0x1000_0000_01b3);
        };
        for &slot in &self.touched {
            mix(slot as u64);
            mix(self.regs[slot as usize]);
        }
        for e in &self.effects {
            mix(0x5eed ^ e.action as u64);
            for &a in &self.effect_args[e.start as usize..(e.start + e.len) as usize] {
                mix(a);
            }
        }
        acc
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

    /// Run one packet both ways (interpreter vs compiled, persistent
    /// globals) and assert identical observable state.
    fn check(src: &str, fields: &[(&str, u64)], dp: &DataPlaneState) {
        let ir = program(src);
        let layout = ProgramLayout::new(&ir);
        let alg = &ir.algorithms[0];
        let compiled = CompiledAlgorithm::compile_all(alg, &layout);

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
        assert_eq!(m.effects_vec(&layout), ref_fx, "effects diverged");
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
    fn predicates_compile_to_guards() {
        let src = "pipeline[P]{a}; algorithm a { if (c == 1) { x = 10; } else { x = 20; } }";
        for c in [0u64, 1, 5] {
            check(src, &[("c", c)], &DataPlaneState::new());
        }
        // The stream has guards and executes the right arm.
        let ir = program(src);
        let layout = ProgramLayout::new(&ir);
        let compiled = CompiledAlgorithm::compile_all(&ir.algorithms[0], &layout);
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
        let compiled = CompiledAlgorithm::compile_all(&ir.algorithms[0], &layout);
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
    fn isolated_mode_is_per_packet() {
        let ir = program(
            "pipeline[P]{a}; algorithm a { global bit[32][4] ctr; ctr[0] = ctr[0] + 1; out = ctr[0]; }",
        );
        let layout = ProgramLayout::new(&ir);
        let compiled = CompiledAlgorithm::compile_all(&ir.algorithms[0], &layout);
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
        let whole = CompiledAlgorithm::compile_all(alg, &layout);
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
        let compiled = CompiledAlgorithm::compile_all(&ir.algorithms[0], &layout);
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
