//! Placement extraction: turn a solver assignment back into a concrete
//! per-switch plan, including the *extensible resources* of §5.6 /
//! Algorithm 2 — values written upstream and read downstream must be
//! carried in the packet header, and split extern tables propagate their
//! hit/miss bit so a downstream switch can decide whether to look up its
//! shard ("Lyra adds the first ConnTable's entry hit/miss information to
//! the header").
//!
//! [`lift`] is the inverse direction: it completes a choice of deployment
//! booleans and extern entry counts into a full assignment of the encoded
//! model, deriving every definitional auxiliary instead of searching for
//! it. It is the one way a placement becomes an assignment — the
//! carry-over route lifts the previous [`Placement`]
//! ([`lift_placement`]), the quotient route lifts the representatives'
//! solution — and its output is only ever accepted after
//! [`Solution::satisfies`] on the whole model.

use std::collections::BTreeMap;

use lyra_chips::ResourceUsage;
use lyra_ir::{InstrId, IrProgram};
use lyra_solver::Solution;
use lyra_topo::{SwitchId, Topology};

use crate::encode::{Encoded, SynthUnit};
use crate::index::ScopeIndex;
use crate::table::SynthTable;

/// A value that must travel in the packet header between switches
/// (Algorithm 2's extensible resource).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarriedValue {
    /// Storage base name (or `<extern>_hit` for split-table hit bits).
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Producing switch.
    pub from: SwitchId,
    /// Consuming switch.
    pub to: SwitchId,
}

/// The plan for one switch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwitchPlan {
    /// Per algorithm: the instructions deployed here.
    pub instrs: BTreeMap<String, Vec<InstrId>>,
    /// Valid synthesized tables (with extern entry counts substituted).
    pub tables: Vec<SynthTable>,
    /// Extern entries hosted here: extern name → count.
    pub extern_entries: BTreeMap<String, u64>,
    /// Values that must be parsed from the bridge header on ingress.
    pub carried_in: Vec<CarriedValue>,
    /// Values that must be appended to the bridge header on egress.
    pub carried_out: Vec<CarriedValue>,
    /// Parser-hoisted constant stores (Appendix C.1).
    pub parser_sets: BTreeMap<String, Vec<InstrId>>,
    /// Resource accounting for reports (Figure 9's columns).
    pub usage: ResourceUsage,
}

/// A complete placement: plans for every switch that received code.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Placement {
    /// Switch name → plan.
    pub switches: BTreeMap<String, SwitchPlan>,
}

impl Placement {
    /// Total tables across all switches.
    pub fn total_tables(&self) -> u64 {
        self.switches.values().map(|p| p.usage.tables).sum()
    }

    /// Number of switches hosting code.
    pub fn used_switches(&self) -> usize {
        self.switches
            .values()
            .filter(|p| !p.instrs.is_empty())
            .count()
    }

    /// True when instruction `instr` of `alg` is deployed on `switch`.
    pub fn deploys(&self, switch: &str, alg: &str, instr: InstrId) -> bool {
        self.switches
            .get(switch)
            .and_then(|p| p.instrs.get(alg))
            .is_some_and(|is| is.contains(&instr))
    }

    /// Entries of `extern_name` hosted on `switch` (0 when not hosted).
    pub fn shard_size(&self, switch: &str, extern_name: &str) -> u64 {
        self.switches
            .get(switch)
            .and_then(|p| p.extern_entries.get(extern_name))
            .copied()
            .unwrap_or(0)
    }
}

/// Which tables of `unit` a deployment makes valid (`V_t = ⋁ f_s(i)`).
fn valid_tables(unit: &SynthUnit, deployed: impl Fn(InstrId) -> bool) -> Vec<bool> {
    let valid = |t: &SynthTable| t.instrs.iter().any(|&i| deployed(i));
    unit.group.tables.iter().map(valid).collect()
}

/// Complete a placement choice — `deployed(algorithm, switch, instr)` for
/// the `f_s(I)` booleans, `entries(extern, switch)` for the `E_{e,s}`
/// counts — into a full assignment of `enc.model`. The definitional
/// auxiliaries are derived, not searched: `V[s][t]` is the OR of the
/// table's member instructions, `used[s]` the OR of the switch's
/// instructions, `depth[s][t]` the longest chain over valid `depends_on`
/// ([`TableGroup::chain_depths`](crate::TableGroup::chain_depths)).
/// Variables `enc` does not index (per-stage detail) stay at `false` /
/// their lower bound.
///
/// The result is a *candidate*: it satisfies the model exactly when the
/// choice is a feasible placement, and callers must check
/// [`Solution::satisfies`] before using it.
pub fn lift(
    enc: &Encoded,
    deployed: impl Fn(&str, SwitchId, InstrId) -> bool,
    entries: impl Fn(&str, SwitchId) -> i64,
) -> Solution {
    let mut bools = vec![false; enc.model.num_bools()];
    let mut ints: Vec<i64> = enc.model.int_decls().map(|(_, d)| d.lo).collect();
    for ix in &enc.index {
        for (&sw, vars) in ix.switches.iter().zip(&ix.instr_var) {
            let mut any = false;
            for (i, v) in vars.iter().enumerate() {
                bools[v.index()] = deployed(&ix.algorithm, sw, InstrId(i as u32));
                any |= bools[v.index()];
            }
            if let Some(used) = enc.switch_used.get(&sw).filter(|_| any) {
                bools[used.index()] = true;
            }
        }
        for ((e, _), row) in ix.externs.iter().zip(&ix.extern_var) {
            for (&sw, v) in ix.switches.iter().zip(row) {
                ints[v.index()] = entries(e, sw);
            }
        }
    }
    for (u, (unit, ui)) in enc.units.iter().zip(&enc.unit_index).enumerate() {
        let vars = enc.unit_vars(unit, ui);
        let valid = valid_tables(unit, |i| bools[vars[i.index()].index()]);
        let depth = unit.group.chain_depths(&valid);
        for (ti, &(v, d)) in enc.table_vars(u).iter().enumerate() {
            if valid[ti] {
                bools[v.index()] = true;
                ints[d.index()] = depth[ti] as i64;
            }
        }
    }
    Solution::from_parts(bools, ints)
}

/// [`lift`] with the choices read from a previous [`Placement`] by switch
/// *name*: a switch of the placement that `enc` has no variables for (it
/// died, or left the scope) contributes nothing, and a switch the
/// placement never used hosts nothing.
pub fn lift_placement(enc: &Encoded, topo: &Topology, placement: &Placement) -> Solution {
    lift(
        enc,
        |alg, sw, i| placement.deploys(&topo.switch(sw).name, alg, i),
        |e, sw| placement.shard_size(&topo.switch(sw).name, e) as i64,
    )
}

/// Extract the placement from a solved model.
pub fn extract(enc: &Encoded, ir: &IrProgram, topo: &Topology, sol: &Solution) -> Placement {
    let mut placement = Placement::default();

    // Instructions and extern entries (variable or fixed) per switch.
    for ix in &enc.index {
        for (slot, &s) in ix.switches.iter().enumerate() {
            let on = |v: &lyra_solver::BoolId| sol.bool(*v);
            let instrs: Vec<InstrId> = (0u32..)
                .zip(&ix.instr_var[slot])
                .filter_map(|(i, v)| on(v).then_some(InstrId(i)))
                .collect();
            // A split extern is recorded where it holds entries; a PER-SW
            // copy is the full size everywhere.
            let held = |e: usize| match ix.extern_var.get(e) {
                Some(row) => Some(sol.int(row[slot]).max(0) as u64).filter(|&c| c > 0),
                None => Some(ix.externs[e].1),
            };
            let entries: Vec<(&String, u64)> = (0..ix.externs.len())
                .filter_map(|e| held(e).map(|c| (&ix.externs[e].0, c)))
                .collect();
            if instrs.is_empty() && entries.is_empty() {
                continue;
            }
            let plan = placement
                .switches
                .entry(topo.switch(s).name.clone())
                .or_default();
            if !instrs.is_empty() {
                plan.instrs.insert(ix.algorithm.clone(), instrs);
            }
            for (e, count) in entries {
                plan.extern_entries.insert(e.clone(), count);
            }
        }
    }

    // Valid tables per switch, with extern entries substituted, and the
    // longest dependency chain among them (per unit, as the encoder's
    // `depth[s][t]` variables are).
    let mut chains: BTreeMap<String, u64> = BTreeMap::new();
    for (unit, ui) in enc.units.iter().zip(&enc.unit_index) {
        let vars = enc.unit_vars(unit, ui);
        let deployed = |i: InstrId| sol.bool(vars[i.index()]);
        if !vars.iter().any(|&v| sol.bool(v)) {
            continue;
        }
        let sw_name = &topo.switch(unit.switch).name;
        let plan = placement
            .switches
            .get_mut(sw_name)
            .expect("a switch with deployed instructions has a plan");
        let valid = valid_tables(unit, deployed);
        for (t, _) in unit.group.tables.iter().zip(&valid).filter(|(_, &v)| v) {
            let mut t = t.clone();
            if let Some(e) = t.extern_name() {
                if let Some(&count) = plan.extern_entries.get(e) {
                    t.entries = count;
                }
            }
            plan.tables.push(t);
        }
        let chain = unit.group.chain_depths(&valid).into_iter().max();
        let longest = chains.entry(sw_name.clone()).or_default();
        *longest = (*longest).max(chain.unwrap_or(0));
        if !unit.hoists.instrs.is_empty() {
            let hoisted: Vec<InstrId> = unit
                .hoists
                .instrs
                .iter()
                .copied()
                .filter(|&i| deployed(i))
                .collect();
            if !hoisted.is_empty() {
                plan.parser_sets.insert(unit.alg.clone(), hoisted);
            }
        }
    }

    // Carried values (Algorithm 2) along every MULTI-SW path.
    compute_carried(enc, ir, topo, sol, &mut placement);

    // Resource usage accounting.
    for (name, plan) in &mut placement.switches {
        let sw = topo.find(name).expect("switch exists");
        let chip = enc
            .units
            .iter()
            .find(|u| u.switch == sw)
            .map(|u| u.chip.clone());
        let mut usage = ResourceUsage {
            tables: plan.tables.len() as u64,
            actions: plan.tables.iter().map(|t| t.action_count()).sum(),
            registers: plan
                .tables
                .iter()
                .filter(|t| {
                    matches!(t.kind, crate::table::TableKind::Register { .. }) || t.stateful
                })
                .count() as u64,
            ..ResourceUsage::default()
        };
        if let Some(chip) = chip {
            usage.sram_blocks = plan
                .tables
                .iter()
                .map(|t| chip.table_blocks(t.entries, t.match_width))
                .sum();
        }
        usage.longest_code_path = chains.get(name).copied().unwrap_or(0);
        usage.stages = usage.longest_code_path;
        plan.usage = usage;
    }

    placement
}

/// Compute carried values: for every path of every MULTI-SW scope, a value
/// defined on an earlier hop and read on a later hop crosses the boundary;
/// split externs additionally carry their hit bit.
fn compute_carried(
    enc: &Encoded,
    ir: &IrProgram,
    topo: &Topology,
    sol: &Solution,
    placement: &mut Placement,
) {
    // Every split extern of the compile, by name, with the scope that
    // owns its entry variables: a path carries the hit bit of whatever
    // holds entries along it.
    let mut split: Vec<(&str, &ScopeIndex, usize)> = Vec::new();
    for ix in &enc.index {
        let rows = ix.externs.iter().zip(0..ix.extern_var.len());
        split.extend(rows.map(|((e, _), at)| (e.as_str(), ix, at)));
    }
    split.sort_by_key(|&(e, _, _)| e);
    for ix in &enc.index {
        if ix.deploy != lyra_lang::DeployMode::MultiSwitch {
            continue;
        }
        let scope = &enc.scopes[&ix.algorithm];
        let Some(alg) = ir.algorithm(&ix.algorithm) else {
            continue;
        };
        let on = |i: InstrId, slot: usize| sol.bool(ix.instr_var[slot][i.index()]);
        // What crosses from one switch to a later one depends on the two
        // switches alone, so each ordered pair is worked out once, at its
        // first path.
        let n = ix.switches.len();
        let mut seen = vec![false; n * n];
        for (hops, path) in ix.paths.iter().zip(&scope.paths) {
            for (j, &from) in hops.iter().enumerate() {
                let fresh: Vec<usize> = hops[j + 1..]
                    .iter()
                    .copied()
                    .filter(|&to| !std::mem::replace(&mut seen[from * n + to], true))
                    .collect();
                if fresh.is_empty() {
                    continue;
                }
                for (i, dst, readers) in &ix.defs {
                    if !on(*i, from) {
                        continue;
                    }
                    for &to in &fresh {
                        if readers.iter().any(|&r| on(r, to)) {
                            let info = alg.value(*dst);
                            let cv = CarriedValue {
                                name: format!(
                                    "{}_{}",
                                    ix.algorithm,
                                    info.name().replace(['#', '.'], "_")
                                ),
                                width: info.width.max(1),
                                from: ix.switches[from],
                                to: ix.switches[to],
                            };
                            push_carried(placement, topo, cv);
                        }
                    }
                }
            }
            // Split externs: hit bit carried from each holder to the next.
            for &(e, owner, at) in &split {
                let holds = |s: &SwitchId| {
                    owner
                        .slot_of(*s)
                        .is_some_and(|slot| sol.int(owner.extern_var[at][slot]) > 0)
                };
                let holders: Vec<SwitchId> = path.iter().copied().filter(holds).collect();
                for w in holders.windows(2) {
                    let cv = CarriedValue {
                        name: format!("{e}_hit"),
                        width: 1,
                        from: w[0],
                        to: w[1],
                    };
                    push_carried(placement, topo, cv);
                }
            }
        }
    }
}

fn push_carried(placement: &mut Placement, topo: &Topology, cv: CarriedValue) {
    let from_name = topo.switch(cv.from).name.clone();
    let to_name = topo.switch(cv.to).name.clone();
    let out_plan = placement.switches.entry(from_name).or_default();
    if !out_plan.carried_out.contains(&cv) {
        out_plan.carried_out.push(cv.clone());
    }
    let in_plan = placement.switches.entry(to_name).or_default();
    if !in_plan.carried_in.contains(&cv) {
        in_plan.carried_in.push(cv);
    }
}
