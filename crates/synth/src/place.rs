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
use lyra_ir::{InstrId, IrProgram, Operand};
use lyra_solver::Solution;
use lyra_topo::{SwitchId, Topology};

use crate::encode::{Encoded, SynthUnit};
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
/// Variables `enc` keeps no map for (per-stage detail) stay at `false` /
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
    for ((alg, sw, i), &v) in &enc.instr_var {
        if deployed(alg, *sw, *i) {
            bools[v.index()] = true;
            if let Some(&used) = enc.switch_used.get(sw) {
                bools[used.index()] = true;
            }
        }
    }
    for ((e, sw), &v) in &enc.extern_var {
        ints[v.index()] = entries(e, *sw);
    }
    for unit in &enc.units {
        let valid = valid_tables(unit, |i| {
            enc.instr_var
                .get(&(unit.alg.clone(), unit.switch, i))
                .is_some_and(|v| bools[v.index()])
        });
        let depth = unit.group.chain_depths(&valid);
        for (ti, t) in unit.group.tables.iter().enumerate() {
            if !valid[ti] {
                continue;
            }
            let key = (unit.switch, unit.alg.clone(), t.name.clone());
            if let Some(&v) = enc.table_valid.get(&key) {
                bools[v.index()] = true;
            }
            if let Some(&d) = enc.table_depth.get(&key) {
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

    // Instructions per switch.
    for ((alg, s, i), &var) in &enc.instr_var {
        if sol.bool(var) {
            let plan = placement
                .switches
                .entry(topo.switch(*s).name.clone())
                .or_default();
            plan.instrs.entry(alg.clone()).or_default().push(*i);
        }
    }

    // Extern entries per switch (variable and fixed).
    for ((e, s), &var) in &enc.extern_var {
        let count = sol.int(var).max(0) as u64;
        if count > 0 {
            let plan = placement
                .switches
                .entry(topo.switch(*s).name.clone())
                .or_default();
            plan.extern_entries.insert(e.clone(), count);
        }
    }
    for ((e, s), &count) in &enc.extern_fixed {
        let plan = placement
            .switches
            .entry(topo.switch(*s).name.clone())
            .or_default();
        plan.extern_entries.insert(e.clone(), count);
    }

    // Valid tables per switch, with extern entries substituted, and the
    // longest dependency chain among them (per unit, as the encoder's
    // `depth[s][t]` variables are).
    let mut chains: BTreeMap<String, u64> = BTreeMap::new();
    for unit in &enc.units {
        let sw_name = topo.switch(unit.switch).name.clone();
        let Some(plan) = placement.switches.get_mut(&sw_name) else {
            continue;
        };
        let deployed: std::collections::BTreeSet<InstrId> = plan
            .instrs
            .get(&unit.alg)
            .map(|v| v.iter().copied().collect())
            .unwrap_or_default();
        if deployed.is_empty() {
            continue;
        }
        let valid = valid_tables(unit, |i| deployed.contains(&i));
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
        let longest = chains.entry(sw_name).or_default();
        *longest = (*longest).max(chain.unwrap_or(0));
        if !unit.hoists.instrs.is_empty() {
            let hoisted: Vec<InstrId> = unit
                .hoists
                .instrs
                .iter()
                .copied()
                .filter(|i| deployed.contains(i))
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
    for scope in enc.scopes.values() {
        if scope.deploy != lyra_lang::DeployMode::MultiSwitch {
            continue;
        }
        let Some(alg) = ir.algorithm(&scope.algorithm) else {
            continue;
        };
        let on = |i: InstrId, s: SwitchId| -> bool {
            enc.instr_var
                .get(&(scope.algorithm.clone(), s, i))
                .map(|&v| sol.bool(v))
                .unwrap_or(false)
        };
        for path in &scope.paths {
            for (j, &sw) in path.iter().enumerate() {
                for i in alg.instr_ids() {
                    if !on(i, sw) {
                        continue;
                    }
                    let Some(dst) = alg.instr(i).dst else {
                        continue;
                    };
                    // Does any later hop read this value?
                    for &later in &path[j + 1..] {
                        let read_later = alg.instr_ids().any(|r| {
                            on(r, later)
                                && (alg.instr(r).pred == Some(dst)
                                    || alg
                                        .instr(r)
                                        .op
                                        .reads()
                                        .iter()
                                        .any(|o| matches!(o, Operand::Value(v) if *v == dst)))
                        });
                        if read_later {
                            let info = alg.value(dst);
                            let cv = CarriedValue {
                                name: format!(
                                    "{}_{}",
                                    scope.algorithm,
                                    info.name().replace(['#', '.'], "_")
                                ),
                                width: info.width.max(1),
                                from: sw,
                                to: later,
                            };
                            push_carried(placement, topo, cv);
                        }
                    }
                }
            }
            // Split externs: hit bit carried from each holder to the next.
            for (e, _) in ir.externs.iter() {
                let holders: Vec<SwitchId> = path
                    .iter()
                    .copied()
                    .filter(|&s| {
                        enc.extern_var
                            .get(&(e.clone(), s))
                            .map(|&v| sol.int(v) > 0)
                            .unwrap_or(false)
                    })
                    .collect();
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
