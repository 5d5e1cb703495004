//! Greedy first-fit placement — the last rung of the degradation ladder.
//!
//! When the solver cannot reach a verdict inside its deadline, the compile
//! must still answer. This module fabricates a placement *without search*:
//! every MULTI-SW algorithm is hosted whole on the first switch of each
//! flow path that fits a coarse capacity model (SRAM blocks and table
//! slots), and PER-SW algorithms go everywhere their scope demands, as the
//! encoding would force anyway.
//!
//! The result is deliberately conservative rather than optimal: no
//! cross-switch splitting, no extern sharding, no objective optimization.
//! It respects the constraint families a whole-algorithm-per-switch
//! placement can violate — path coverage, instruction co-location with its
//! dependencies (trivially, everything is co-located), and coarse memory /
//! table capacity — but does *not* re-check fine-grained stage layout; the
//! caller marks the output [`DegradeRung::GreedyFirstFit`](crate::DegradeRung)
//! so downstream consumers know a solver-verified placement was not
//! obtained.

use std::collections::{BTreeMap, BTreeSet};

use lyra_chips::ChipModel;
use lyra_diag::{codes, Diagnostic};
use lyra_ir::IrProgram;
use lyra_lang::DeployMode;
use lyra_solver::Solution;
use lyra_topo::{SwitchId, Topology};

use crate::encode::Encoded;

/// Remaining coarse capacity of one switch.
struct SwitchBudget<'a> {
    chip: &'a ChipModel,
    sram_blocks_left: u64,
    tables_left: u64,
}

/// The coarse per-switch cost of hosting one whole algorithm.
struct AlgCost {
    sram_blocks: u64,
    tables: u64,
}

/// Cost of hosting `alg` whole on the switch owning `chip`.
fn alg_cost(enc: &Encoded, ir: &IrProgram, alg: &str, sw: SwitchId, chip: &ChipModel) -> AlgCost {
    let externs = enc.scope_index(alg).map_or(&[][..], |ix| &ix.externs);
    let blocks = |x: &lyra_lang::ExternVar| {
        let width = (x.key_width() + x.value_width()) as u64;
        chip.table_blocks(x.size, width.max(1)).max(1)
    };
    let declared = externs.iter().filter_map(|(e, _)| ir.externs.get(e));
    let tables = enc
        .units
        .iter()
        .find(|u| u.alg == alg && u.switch == sw)
        .map(|u| u.group.tables.len() as u64)
        .unwrap_or(1);
    AlgCost {
        sram_blocks: declared.map(blocks).sum(),
        tables,
    }
}

/// Compute a first-fit placement and express it as a raw [`Solution`] over
/// the encoded model's variables, so [`crate::place::extract`] can be
/// reused unchanged. Returns diagnostics when some flow path has no switch
/// with enough coarse capacity to host its algorithm whole.
pub fn greedy_solution(
    enc: &Encoded,
    ir: &IrProgram,
    topo: &Topology,
) -> Result<Solution, Vec<Diagnostic>> {
    // Per-algorithm programmable switches, from the encoding's own index
    // (only programmable switches got deployment variables).
    let prog_switches =
        |alg: &str| -> &[SwitchId] { enc.scope_index(alg).map_or(&[], |ix| &ix.switches) };
    let chips: BTreeMap<SwitchId, &ChipModel> =
        enc.units.iter().map(|u| (u.switch, &u.chip)).collect();
    let mut budgets: BTreeMap<SwitchId, SwitchBudget> = chips
        .iter()
        .map(|(&sw, &chip)| {
            (
                sw,
                SwitchBudget {
                    chip,
                    sram_blocks_left: chip.total_sram_blocks(),
                    tables_left: (chip.stages * chip.max_tables_per_stage) as u64,
                },
            )
        })
        .collect();

    // hosts[alg] = switches that carry the whole algorithm.
    let mut hosts: BTreeMap<String, BTreeSet<SwitchId>> = BTreeMap::new();
    let mut diagnostics = Vec::new();

    let charge =
        |budgets: &mut BTreeMap<SwitchId, SwitchBudget>, alg: &str, sw: SwitchId| -> bool {
            let Some(b) = budgets.get_mut(&sw) else {
                return false;
            };
            let cost = alg_cost(enc, ir, alg, sw, b.chip);
            if cost.sram_blocks > b.sram_blocks_left || cost.tables > b.tables_left {
                return false;
            }
            b.sram_blocks_left -= cost.sram_blocks;
            b.tables_left -= cost.tables;
            true
        };

    for (alg, scope) in &enc.scopes {
        let alg_hosts = hosts.entry(alg.clone()).or_default();
        match scope.deploy {
            DeployMode::PerSwitch => {
                // The encoding forces every scope switch to carry the whole
                // algorithm; mirror that, and report (rather than mask) a
                // coarse capacity overflow.
                for &sw in prog_switches(alg) {
                    if !charge(&mut budgets, alg, sw) {
                        diagnostics.push(Diagnostic::error(
                            codes::INFEASIBLE_MEMORY,
                            format!(
                                "greedy fallback: `{alg}` does not fit switch `{}`",
                                topo.switch(sw).name
                            ),
                        ));
                    }
                    alg_hosts.insert(sw);
                }
            }
            DeployMode::MultiSwitch => {
                for path in &scope.paths {
                    if path.iter().any(|s| alg_hosts.contains(s)) {
                        continue; // an earlier host already covers this path
                    }
                    let placed = path.iter().copied().find(|&sw| {
                        prog_switches(alg).contains(&sw) && charge(&mut budgets, alg, sw)
                    });
                    match placed {
                        Some(sw) => {
                            alg_hosts.insert(sw);
                        }
                        None => diagnostics.push(Diagnostic::error(
                            codes::INFEASIBLE_MEMORY,
                            format!(
                                "greedy fallback: no switch on path {} can host `{alg}` whole",
                                path.iter()
                                    .map(|&s| topo.switch(s).name.as_str())
                                    .collect::<Vec<_>>()
                                    .join("->")
                            ),
                        )),
                    }
                }
            }
        }
    }
    if !diagnostics.is_empty() {
        return Err(diagnostics);
    }

    // Express the assignment over the model's variables.
    let mut bools = vec![false; enc.model.num_bools()];
    let mut ints = vec![0i64; enc.model.num_ints()];
    for ix in &enc.index {
        let hosting = |sw: &SwitchId| hosts.get(&ix.algorithm).is_some_and(|h| h.contains(sw));
        for slot in (0..ix.switches.len()).filter(|&slot| hosting(&ix.switches[slot])) {
            for var in &ix.instr_var[slot] {
                bools[var.index()] = true;
            }
            for (row, (_, size)) in ix.extern_var.iter().zip(&ix.externs) {
                ints[row[slot].index()] = *size as i64;
            }
        }
    }
    for (sw, var) in &enc.switch_used {
        if hosts.values().any(|h| h.contains(sw)) {
            bools[var.index()] = true;
        }
    }
    Ok(Solution::from_parts(bools, ints))
}
