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
//! It chooses hosts by path coverage and coarse memory / table capacity
//! only; fine-grained layout (stages, PHV, actions) is left to the model.
//! The placement is completed into a full assignment by
//! [`place::lift`](crate::place::lift), and the caller accepts it only if
//! it satisfies the model, marking it
//! [`DegradeRung::GreedyFirstFit`](crate::DegradeRung) so downstream
//! consumers know nothing was optimized.

use std::collections::{BTreeMap, BTreeSet};

use lyra_chips::ChipModel;
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

/// Compute a first-fit placement and lift it into a [`Solution`] of the
/// encoded model — a candidate, which satisfies the model exactly when the
/// placement is feasible. Returns the reason when some switch or flow path
/// has no room to host its algorithm whole.
pub fn greedy_solution(enc: &Encoded, ir: &IrProgram, topo: &Topology) -> Result<Solution, String> {
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
    let mut misfits: Vec<String> = Vec::new();

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
                        misfits.push(format!(
                            "`{alg}` does not fit switch `{}`",
                            topo.switch(sw).name
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
                        None => misfits.push(format!(
                            "no switch on path {} can host `{alg}` whole",
                            path.iter()
                                .map(|&s| topo.switch(s).name.as_str())
                                .collect::<Vec<_>>()
                                .join("->")
                        )),
                    }
                }
            }
        }
    }
    if !misfits.is_empty() {
        return Err(misfits.join("; "));
    }

    // A host carries every instruction of its algorithm and the full size
    // of every extern the algorithm looks up.
    let hosting = |alg: &str, sw: SwitchId| hosts.get(alg).is_some_and(|h| h.contains(&sw));
    let entries = |e: &str, sw: SwitchId| {
        enc.index
            .iter()
            .filter(|ix| hosting(&ix.algorithm, sw))
            .find_map(|ix| Some(ix.externs[ix.extern_of(e)?].1 as i64))
            .unwrap_or(0)
    };
    Ok(crate::place::lift(
        enc,
        |alg, sw, _| hosting(alg, sw),
        entries,
    ))
}
