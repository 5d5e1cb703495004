//! The placement problem, indexed once.
//!
//! [`encode`](crate::encode::encode) builds one `ScopeIndex` per
//! algorithm — there is exactly one scope per algorithm — and every later
//! reader of the encoding ([`place`](crate::place), [`greedy`](crate::greedy)
//! and the quotient route) goes through it: switches become
//! dense *slots*, instructions and extern tables dense positions, and the
//! facts the path constraints need (which extern an instruction looks up,
//! which dependency edges exist, who reads a defined value) are computed
//! once per algorithm instead of once per path × instruction × hop.
//!
//! The accessors on [`Encoded`] iterate in (algorithm, `SwitchId`,
//! `InstrId`) order — the order `extract`'s per-switch instruction lists
//! are built in.

use lyra_ir::{DepGraph, InstrId, IrAlgorithm, IrProgram, Operand, ValueId};
use lyra_lang::DeployMode;
use lyra_solver::{BoolId, IntId};
use lyra_topo::SwitchId;

use crate::encode::Encoded;

/// One algorithm's share of the index.
#[derive(Debug)]
pub(crate) struct ScopeIndex {
    pub algorithm: String,
    pub deploy: DeployMode,
    /// Programmable switches of the scope, ascending. A position in this
    /// list is a *slot*.
    pub switches: Vec<SwitchId>,
    /// `f_s(I)` as `instr_var[slot][instr]`.
    pub instr_var: Vec<Vec<BoolId>>,
    /// Extern tables the algorithm looks up, ascending by name, with sizes.
    pub externs: Vec<(String, u64)>,
    /// `E_{e,s}` as `extern_var[extern][slot]`. No rows under PER-SW, where
    /// every switch holds the full size.
    pub extern_var: Vec<Vec<IntId>>,
    /// Per instruction, the extern (position in `externs`) it looks up.
    pub reader: Vec<Option<usize>>,
    /// Dependency edges `(b, a)` — `b` needs `a` — in (consumer,
    /// predecessor-list) order. Lookup-to-lookup edges are left out: they
    /// are ordered through the shared entry variables.
    pub edges: Vec<(InstrId, InstrId)>,
    /// Per value-defining instruction, ascending: the value and every
    /// instruction reading it (as operand or predicate).
    pub defs: Vec<(InstrId, ValueId, Vec<InstrId>)>,
    /// Per flow path, the slots of its programmable hops in traversal order.
    pub paths: Vec<Vec<usize>>,
}

/// Where one [`SynthUnit`](crate::SynthUnit) sits in the index, and its
/// tables' variables.
#[derive(Debug)]
pub(crate) struct UnitIndex {
    /// Slot of the unit's switch in that scope.
    pub slot: usize,
    /// Per table of the unit's group: validity `V` and stage depth.
    pub tables: Vec<(BoolId, IntId)>,
}

/// The SSA value an operand reads, if it is not a constant.
pub(crate) fn value_of(o: &Operand) -> Option<ValueId> {
    match o {
        Operand::Value(v) => Some(*v),
        Operand::Const(_) => None,
    }
}

impl ScopeIndex {
    /// The per-algorithm facts; switches, variables and paths are filled in
    /// by the encoder.
    pub fn new(ir: &IrProgram, alg: &IrAlgorithm, deps: &DepGraph, deploy: DeployMode) -> Self {
        let mut names: Vec<&str> = alg.instrs.iter().filter_map(|i| i.op.table()).collect();
        names.sort_unstable();
        names.dedup();
        let looked_up = |i: &lyra_ir::Instr| names.binary_search(&i.op.table()?).ok();
        let reader: Vec<Option<usize>> = alg.instrs.iter().map(looked_up).collect();
        let size = |e: &str| ir.externs.get(e).map_or(1024, |x| x.size);
        // Edges and value readers only matter where instructions can sit
        // on different switches.
        let mut edges = Vec::new();
        let mut defs = Vec::new();
        if deploy == DeployMode::MultiSwitch {
            let mut readers: Vec<Vec<InstrId>> = vec![Vec::new(); alg.values.len()];
            for r in alg.instr_ids() {
                let (instr, reads) = (alg.instr(r), alg.instr(r).op.reads());
                for v in reads.iter().filter_map(value_of).chain(instr.pred) {
                    if readers[v.index()].last() != Some(&r) {
                        readers[v.index()].push(r);
                    }
                }
            }
            for b in alg.instr_ids() {
                let constrained = |a: &&InstrId| reader[a.index()].and(reader[b.index()]).is_none();
                let preds = deps.pred_list(b).iter().filter(constrained);
                edges.extend(preds.map(|&a| (b, a)));
                if let Some(dst) = alg.instr(b).dst {
                    defs.push((b, dst, std::mem::take(&mut readers[dst.index()])));
                }
            }
        }
        ScopeIndex {
            algorithm: alg.name.clone(),
            deploy,
            switches: Vec::new(),
            instr_var: Vec::new(),
            externs: names.iter().map(|&e| (e.to_string(), size(e))).collect(),
            extern_var: Vec::new(),
            reader,
            edges,
            defs,
            paths: Vec::new(),
        }
    }

    /// Slot of switch `s`, if it is a programmable switch of this scope.
    pub fn slot_of(&self, s: SwitchId) -> Option<usize> {
        self.switches.binary_search(&s).ok()
    }

    /// Position of extern `e` among this algorithm's externs.
    pub fn extern_of(&self, e: &str) -> Option<usize> {
        let at = self.externs.binary_search_by(|(n, _)| n.as_str().cmp(e));
        at.ok()
    }
}

impl Encoded {
    /// The index entry of algorithm `alg`.
    pub(crate) fn scope_index(&self, alg: &str) -> Option<&ScopeIndex> {
        let at = self
            .index
            .binary_search_by(|ix| ix.algorithm.as_str().cmp(alg));
        Some(&self.index[at.ok()?])
    }

    /// The deployment variables of `unit`'s switch, by instruction.
    pub(crate) fn unit_vars(&self, unit: &crate::SynthUnit, at: &UnitIndex) -> &[BoolId] {
        let ix = self.scope_index(&unit.alg);
        &ix.expect("a unit's algorithm is indexed").instr_var[at.slot]
    }

    /// Every deployment variable `f_s(I)` as (algorithm, switch,
    /// instruction, variable), ascending in that order.
    pub fn instr_vars(&self) -> impl Iterator<Item = (&str, SwitchId, InstrId, BoolId)> + '_ {
        self.index.iter().flat_map(|ix| {
            let rows = ix.switches.iter().zip(&ix.instr_var);
            rows.flat_map(move |(&s, vars)| {
                (0u32..)
                    .zip(vars)
                    .map(move |(i, &v)| (ix.algorithm.as_str(), s, InstrId(i), v))
            })
        })
    }

    /// Every entry-count variable `E_{e,s}` as (extern, switch, variable),
    /// ascending by (extern, switch). PER-SW scopes have none: each of
    /// their switches holds the extern's full size.
    pub fn extern_vars(&self) -> Vec<(&str, SwitchId, IntId)> {
        let mut out: Vec<(&str, SwitchId, IntId)> = Vec::new();
        for ix in &self.index {
            for ((e, _), vars) in ix.externs.iter().zip(&ix.extern_var) {
                out.extend(
                    ix.switches
                        .iter()
                        .zip(vars)
                        .map(|(&s, &v)| (e.as_str(), s, v)),
                );
            }
        }
        out.sort_unstable_by_key(|&(e, s, _)| (e, s));
        out
    }

    /// The deployment variable of instruction `i` of `alg` on switch `s`.
    pub fn instr_var(&self, alg: &str, s: SwitchId, i: InstrId) -> Option<BoolId> {
        let ix = self.scope_index(alg)?;
        ix.instr_var[ix.slot_of(s)?].get(i.index()).copied()
    }

    /// The entry-count variable of extern `e` on switch `s`.
    pub fn extern_var(&self, e: &str, s: SwitchId) -> Option<IntId> {
        self.index.iter().find_map(|ix| {
            let row = ix.extern_var.get(ix.extern_of(e)?)?;
            Some(row[ix.slot_of(s)?])
        })
    }

    /// Validity `V` and stage-depth variables of the tables of
    /// [`Encoded::units`]`[unit]`, in its group's table order.
    pub fn table_vars(&self, unit: usize) -> &[(BoolId, IntId)] {
        &self.unit_index[unit].tables
    }
}
