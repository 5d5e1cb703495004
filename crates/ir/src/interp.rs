//! A reference interpreter for the context-aware IR.
//!
//! Executes a lowered algorithm (or any subset of its instructions, in
//! program order) against a packet state and a data-plane state. This is
//! the semantic ground truth used by differential tests: compiling a
//! one-big-pipeline program and splitting it across switches must not
//! change what happens to a packet, so the interpreter runs (a) the whole
//! algorithm and (b) each per-switch instruction subset along a flow path,
//! and the results must agree.
//!
//! Semantics:
//!
//! * values live in [`PacketState`] keyed by storage *base* name — all SSA
//!   versions of a base share storage, exactly as code generation maps
//!   them; unset names read as 0;
//! * a predicated instruction executes only when its predicate value is
//!   non-zero;
//! * results are truncated to the destination's inferred width;
//! * `TableMember` ORs its result into the destination and `TableLookup`
//!   writes only on hit — the *sticky* semantics that make a lookup
//!   replicated across a split table behave like one logical lookup;
//! * void builtins are recorded as [`Effect`]s rather than performed.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::instr::*;
use crate::table::ExternTable;
use lyra_lang::{BinOp, UnOp};

/// Per-packet state: storage base name → value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketState {
    /// Field/metadata values.
    pub values: BTreeMap<String, u64>,
}

impl PacketState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set an initial field value (e.g. a header field).
    pub fn set(&mut self, name: impl Into<String>, value: u64) -> &mut Self {
        self.values.insert(name.into(), value);
        self
    }

    /// Read a field (0 when unset).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }
}

/// Switch-resident state: extern table contents and global register arrays.
///
/// Extern tables use the paged, structurally-shared [`ExternTable`]
/// storage: clones share the page directory (O(1)) and diffing two states
/// that share structure is O(delta) — the properties the transactional
/// rollout engine's delta-based prepare relies on.
///
/// Register arrays are shared the same way, one `Arc` per array: a clone
/// of the state (a staged epoch, the controller's expected shadow, a
/// data-plane snapshot) copies pointers, and whoever writes an array
/// first copies it, once, through `Arc::make_mut`. Holding a clone is
/// therefore holding a consistent snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataPlaneState {
    /// Extern tables: name → paged (key → value) map. Lists store value 1.
    pub externs: BTreeMap<String, ExternTable>,
    /// Globals: name → shared, copy-on-write register array.
    pub globals: BTreeMap<String, Arc<Vec<u64>>>,
}

impl DataPlaneState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a table entry.
    pub fn install(&mut self, table: &str, key: u64, value: u64) -> &mut Self {
        // Bulk installs call this per entry: allocate the name only for
        // the first entry of a table.
        match self.externs.get_mut(table) {
            Some(t) => t.insert(key, value),
            None => self
                .externs
                .entry(table.to_string())
                .or_default()
                .insert(key, value),
        };
        self
    }

    /// Remove a table entry (no-op when absent).
    pub fn uninstall(&mut self, table: &str, key: u64) -> &mut Self {
        if let Some(t) = self.externs.get_mut(table) {
            t.remove(key);
        }
        self
    }

    /// Size a global register array.
    pub fn global(&mut self, name: &str, len: usize) -> &mut Self {
        self.globals
            .insert(name.to_string(), Arc::new(vec![0; len]));
        self
    }

    /// Total installed entries across all extern tables.
    pub fn total_entries(&self) -> usize {
        self.externs.values().map(|t| t.len()).sum()
    }
}

/// An externally visible action performed during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// A void builtin fired (`drop`, `copy_to_cpu`, `add_header`, …).
    Action {
        /// Builtin name.
        name: String,
        /// Evaluated arguments.
        args: Vec<u64>,
    },
}

/// Truncate `v` to `width` bits (width 0 or ≥ 64 = untouched): the one
/// masking rule every evaluator in the workspace applies at a write.
pub fn mask(v: u64, width: u32) -> u64 {
    if width == 0 || width >= 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

/// The bit slice `x[hi:lo]`: bits at or above 64 read as 0, and a slice
/// as wide as the word keeps every bit.
pub fn slice(x: u64, hi: u32, lo: u32) -> u64 {
    let width = (hi.saturating_sub(lo) + 1).min(64);
    mask(x.checked_shr(lo).unwrap_or(0), width)
}

/// `x << y` on 64-bit words: a shift by 64 or more leaves 0, whatever the
/// high bits of `y` are.
pub fn shl(x: u64, y: u64) -> u64 {
    if y >= 64 {
        0
    } else {
        x << y
    }
}

/// `x >> y` on 64-bit words, with [`shl`]'s rule for wide shifts.
pub fn shr(x: u64, y: u64) -> u64 {
    if y >= 64 {
        0
    } else {
        x >> y
    }
}

/// A deterministic stand-in for the chip's CRC units: any interpreter and
/// any generated program in this repository agree on it.
pub fn reference_hash(args: &[u64]) -> u64 {
    let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
    for &a in args {
        acc ^= a;
        acc = acc.wrapping_mul(0xff51_afd7_ed55_8ccd);
        acc ^= acc >> 33;
    }
    acc
}

/// Value-producing builtin dispatch — the single point every interpreter in
/// the workspace (this reference interpreter, the emitted-artifact oracle
/// models, the compiled data-plane engine) routes through, so the hash
/// masking can never drift between them. P4₁₆ `lyra_`-prefixed shims
/// resolve to the underlying builtin name. Unknown names are environment
/// reads, deterministic per name.
pub fn builtin_call(name: &str, args: &[u64]) -> u64 {
    let name = name.strip_prefix("lyra_").unwrap_or(name);
    match name {
        "crc32_hash" | "identity_hash" => reference_hash(args) & 0xffff_ffff,
        "crc16_hash" => reference_hash(args) & 0xffff,
        "min" => args.iter().copied().min().unwrap_or(0),
        "max" => args.iter().copied().max().unwrap_or(0),
        other => reference_hash(&[other.len() as u64]) & 0xffff_ffff,
    }
}

/// Read a global register array at `i`. A sized array wraps the index —
/// hash-indexed sketches fold into the array exactly as the masked hash
/// does on hardware — while an unsized (never-declared) array reads 0.
pub fn global_read(arr: &[u64], i: u64) -> u64 {
    if arr.is_empty() {
        0
    } else {
        arr[(i % arr.len() as u64) as usize]
    }
}

/// Write a global register array at `i` with the same wrapping rule; an
/// unsized array grows to fit, preserving the legacy behavior of ad-hoc
/// states built without [`DataPlaneState::global`].
pub fn global_write(arr: &mut Vec<u64>, i: u64, v: u64) {
    if arr.is_empty() {
        arr.resize(i as usize + 1, 0);
        let last = arr.len() - 1;
        arr[last] = v;
    } else {
        let len = arr.len() as u64;
        arr[(i % len) as usize] = v;
    }
}

/// Execute `subset` (in the order given) of `alg` against the states.
/// Returns the effects fired.
pub fn execute(
    alg: &IrAlgorithm,
    subset: &[InstrId],
    pkt: &mut PacketState,
    dp: &mut DataPlaneState,
) -> Vec<Effect> {
    execute_ids(alg, subset.iter().copied(), pkt, dp)
}

/// Execute the whole algorithm (without materializing the id list).
pub fn execute_all(
    alg: &IrAlgorithm,
    pkt: &mut PacketState,
    dp: &mut DataPlaneState,
) -> Vec<Effect> {
    execute_ids(alg, alg.instr_ids(), pkt, dp)
}

/// The interpreter core. Operand storage is resolved *once per execution*:
/// every SSA value's base name maps to a dense register slot (all versions
/// of a base share one slot, exactly as code generation shares their
/// storage), the slots are loaded from the packet up front, and the
/// instruction loop runs on integer indices — no string-keyed map probe
/// per operand. Written bases are stored back at the end, so the packet
/// state observes exactly the keys the old per-operand path inserted.
fn execute_ids(
    alg: &IrAlgorithm,
    ids: impl Iterator<Item = InstrId>,
    pkt: &mut PacketState,
    dp: &mut DataPlaneState,
) -> Vec<Effect> {
    // Base name → slot; value id → slot.
    let mut index: BTreeMap<&str, u32> = BTreeMap::new();
    let mut bases: Vec<&str> = Vec::new();
    let mut slot_of: Vec<u32> = Vec::with_capacity(alg.values.len());
    for info in &alg.values {
        let next = bases.len() as u32;
        let slot = *index.entry(info.base.as_str()).or_insert_with(|| {
            bases.push(info.base.as_str());
            next
        });
        slot_of.push(slot);
    }
    let mut regs: Vec<u64> = bases.iter().map(|b| pkt.get(b)).collect();
    let mut written: Vec<bool> = vec![false; bases.len()];

    let mut effects = Vec::new();
    let mut argbuf: Vec<u64> = Vec::new();
    let read = |regs: &[u64], o: &Operand| -> u64 {
        match o {
            Operand::Const(c) => *c,
            Operand::Value(v) => regs[slot_of[v.index()] as usize],
        }
    };
    for id in ids {
        let instr = alg.instr(id);
        // Predicate gate.
        if let Some(p) = instr.pred {
            if regs[slot_of[p.index()] as usize] == 0 {
                continue;
            }
        }
        let dst = instr.dst.map(|d| {
            let info = alg.value(d);
            (slot_of[d.index()] as usize, info.width)
        });
        let write = |regs: &mut Vec<u64>, written: &mut Vec<bool>, v: u64| {
            if let Some((slot, width)) = dst {
                regs[slot] = mask(v, width);
                written[slot] = true;
            }
        };
        match &instr.op {
            IrOp::Assign(a) => {
                let v = read(&regs, a);
                write(&mut regs, &mut written, v);
            }
            IrOp::Binary { op, a, b } => {
                let (x, y) = (read(&regs, a), read(&regs, b));
                let v = match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => x.checked_div(y).unwrap_or(0),
                    BinOp::Mod => x.checked_rem(y).unwrap_or(0),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Shl => shl(x, y),
                    BinOp::Shr => shr(x, y),
                    BinOp::Eq => (x == y) as u64,
                    BinOp::Ne => (x != y) as u64,
                    BinOp::Lt => (x < y) as u64,
                    BinOp::Le => (x <= y) as u64,
                    BinOp::Gt => (x > y) as u64,
                    BinOp::Ge => (x >= y) as u64,
                    BinOp::LAnd => ((x != 0) && (y != 0)) as u64,
                    BinOp::LOr => ((x != 0) || (y != 0)) as u64,
                };
                write(&mut regs, &mut written, v);
            }
            IrOp::Unary { op, a } => {
                let x = read(&regs, a);
                let v = match op {
                    UnOp::Not => (x == 0) as u64,
                    UnOp::BitNot => !x,
                    UnOp::Neg => x.wrapping_neg(),
                };
                write(&mut regs, &mut written, v);
            }
            IrOp::Call { name, args } => {
                argbuf.clear();
                argbuf.extend(args.iter().map(|a| read(&regs, a)));
                let v = builtin_call(name, &argbuf);
                write(&mut regs, &mut written, v);
            }
            IrOp::Action { name, args } => {
                let vals: Vec<u64> = args.iter().map(|a| read(&regs, a)).collect();
                effects.push(Effect::Action {
                    name: name.clone(),
                    args: vals,
                });
            }
            IrOp::TableMember { table, key } => {
                let k = read(&regs, key);
                let hit = dp
                    .externs
                    .get(table)
                    .map(|t| t.contains_key(k))
                    .unwrap_or(false) as u64;
                // Sticky OR: a replicated lookup over a split table behaves
                // like one logical lookup.
                let prev = dst.map(|(slot, _)| regs[slot]).unwrap_or(0);
                write(&mut regs, &mut written, prev | hit);
            }
            IrOp::TableLookup { table, key } => {
                let k = read(&regs, key);
                if let Some(v) = dp.externs.get(table).and_then(|t| t.get(k)) {
                    write(&mut regs, &mut written, v);
                }
                // Miss: leave the destination unchanged (sticky).
            }
            IrOp::GlobalRead { global, index } => {
                let i = read(&regs, index);
                let v = dp
                    .globals
                    .get(global)
                    .map(|g| global_read(g, i))
                    .unwrap_or(0);
                write(&mut regs, &mut written, v);
            }
            IrOp::GlobalWrite {
                global,
                index,
                value,
            } => {
                let i = read(&regs, index);
                let v = read(&regs, value);
                // Copy-on-write: an array still shared with a snapshot or
                // another epoch is copied here, on its first write.
                let arr = dp.globals.entry(global.clone()).or_default();
                global_write(Arc::make_mut(arr), i, v);
            }
            IrOp::Slice { a, hi, lo } => {
                let x = read(&regs, a);
                write(&mut regs, &mut written, slice(x, *hi, *lo));
            }
        }
    }
    for (slot, base) in bases.iter().enumerate() {
        if written[slot] {
            pkt.values.insert((*base).to_string(), regs[slot]);
        }
    }
    effects
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn alg(src: &str) -> IrAlgorithm {
        frontend(src).unwrap().algorithms.remove(0)
    }

    #[test]
    fn straight_line_arithmetic() {
        let a = alg("pipeline[P]{a}; algorithm a { x = 3; y = x + 4; z = y << 2; }");
        let mut pkt = PacketState::new();
        let mut dp = DataPlaneState::new();
        execute_all(&a, &mut pkt, &mut dp);
        assert_eq!(pkt.get("x"), 3);
        assert_eq!(pkt.get("y"), 7);
        assert_eq!(pkt.get("z"), 28);
    }

    #[test]
    fn branches_respect_predicates() {
        let a = alg("pipeline[P]{a}; algorithm a { if (c == 1) { x = 10; } else { x = 20; } }");
        let mut dp = DataPlaneState::new();
        let mut p1 = PacketState::new();
        p1.set("c", 1);
        execute_all(&a, &mut p1, &mut dp);
        assert_eq!(p1.get("x"), 10);
        let mut p2 = PacketState::new();
        p2.set("c", 5);
        execute_all(&a, &mut p2, &mut dp);
        assert_eq!(p2.get("x"), 20);
    }

    #[test]
    fn width_masking_applies() {
        let a = alg("pipeline[P]{a}; algorithm a { bit[8] x; x = 300; }");
        let mut pkt = PacketState::new();
        let mut dp = DataPlaneState::new();
        execute_all(&a, &mut pkt, &mut dp);
        assert_eq!(pkt.get("x"), 300 & 0xff);
    }

    #[test]
    fn table_hit_and_miss() {
        let a = alg(r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[16] t;
                if (key in t) {
                    out = t[key];
                }
            }
            "#);
        let mut dp = DataPlaneState::new();
        dp.install("t", 42, 777);
        let mut hitp = PacketState::new();
        hitp.set("key", 42);
        execute_all(&a, &mut hitp, &mut dp);
        assert_eq!(hitp.get("out"), 777);
        let mut missp = PacketState::new();
        missp.set("key", 1);
        execute_all(&a, &mut missp, &mut dp);
        assert_eq!(missp.get("out"), 0);
    }

    #[test]
    fn globals_persist_across_packets() {
        let a = alg("pipeline[P]{a}; algorithm a { global bit[32][4] ctr; ctr[0] = ctr[0] + 1; }");
        let mut dp = DataPlaneState::new();
        dp.global("ctr", 4);
        for _ in 0..3 {
            let mut pkt = PacketState::new();
            execute_all(&a, &mut pkt, &mut dp);
        }
        assert_eq!(dp.globals["ctr"][0], 3);
    }

    #[test]
    fn effects_recorded_not_performed() {
        let a = alg("pipeline[P]{a}; algorithm a { if (bad == 1) { drop(); } }");
        let mut dp = DataPlaneState::new();
        let mut pkt = PacketState::new();
        pkt.set("bad", 1);
        let fx = execute_all(&a, &mut pkt, &mut dp);
        assert_eq!(fx.len(), 1);
        assert!(matches!(&fx[0], Effect::Action { name, .. } if name == "drop"));
        let mut ok = PacketState::new();
        let fx2 = execute_all(&a, &mut ok, &mut dp);
        assert!(fx2.is_empty());
    }

    #[test]
    fn split_lookup_is_sticky() {
        // The same lookup executed on two "switches" with complementary
        // shards behaves like one lookup over the full table.
        let a = alg(r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[16] t;
                hit = key in t;
                if (hit) { out = t[key]; }
            }
            "#);
        let ids: Vec<InstrId> = a.instr_ids().collect();
        // Shard 1 has no entry for key 5; shard 2 does.
        let mut shard1 = DataPlaneState::new();
        shard1.install("t", 9, 111);
        let mut shard2 = DataPlaneState::new();
        shard2.install("t", 5, 222);
        let mut pkt = PacketState::new();
        pkt.set("key", 5);
        execute(&a, &ids, &mut pkt, &mut shard1);
        execute(&a, &ids, &mut pkt, &mut shard2);
        assert_eq!(pkt.get("hit"), 1);
        assert_eq!(pkt.get("out"), 222);
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(reference_hash(&[1, 2, 3]), reference_hash(&[1, 2, 3]));
        assert_ne!(reference_hash(&[1, 2, 3]), reference_hash(&[3, 2, 1]));
    }
}
