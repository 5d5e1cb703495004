//! Control-plane table rules shared by the emitters and the oracle.
//!
//! The synthesized tables carry their gating semantics in the IR
//! (per-action predicates, extern hit/miss). On hardware that gating is
//! realized by the *control plane*: the stub installs entries, default
//! actions and gateway rules. This module derives those rules once so the
//! control stub (which embeds them as `LYRA_TABLE_RULES`), the P4₁₆
//! gateway `if`s and the oracle's lifter all agree on a single source
//! of truth.
//!
//! Per synthesized action:
//! * actions containing a table op (`in` / `[]`) run **on hit** — the
//!   looked-up value arrives as action data, so the action cannot run on a
//!   miss;
//! * if such an action also contains plain statements, the emitters
//!   synthesize a `<name>_miss` twin holding only those statements, which
//!   runs **on miss** (the IR executes them regardless of hit/miss);
//! * all other actions run **always** (subject to their condition).
//!
//! The condition is the action's uniform predicate. A predicate whose
//! defining instruction is *plumbing* (never emitted as a statement) is
//! inlined as a comparison over source fields; one that is materialized is
//! rendered as a stored-value test `x != 0` — re-evaluating it at gate
//! time would be unsound when an operand was overwritten in between (see
//! `compute_plumbing`'s stability pass).

use std::collections::{BTreeMap, BTreeSet};

use lyra_ir::{InstrId, IrAlgorithm, IrOp, IrProgram, Operand, ValueId};
use lyra_lang::{BinOp, UnOp};
use lyra_synth::util::compute_plumbing;
use lyra_synth::{SwitchPlan, SynthAction, SynthTable};

use crate::emit::{Render, Storage};
use crate::p416::split_wide_compare;

/// When a rule fires relative to the table's match outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum When {
    /// Run when the table lookup hit.
    Hit,
    /// Run when the table lookup missed.
    Miss,
    /// Run unconditionally (keyless tables).
    Always,
}

impl When {
    /// Stable wire name used in the control stub.
    pub fn as_str(self) -> &'static str {
        match self {
            When::Hit => "hit",
            When::Miss => "miss",
            When::Always => "always",
        }
    }

    /// Parse the wire name back.
    pub fn parse(s: &str) -> Option<When> {
        match s {
            "hit" => Some(When::Hit),
            "miss" => Some(When::Miss),
            "always" => Some(When::Always),
            _ => None,
        }
    }
}

/// One control-plane rule: run `action` of `table` when the match outcome
/// is `when` and `cond` (if any) evaluates nonzero on the live packet
/// state.
#[derive(Debug, Clone)]
pub struct TableRule {
    /// Emitted table name.
    pub table: String,
    /// Emitted action name (may be a synthesized `*_miss` twin).
    pub action: String,
    /// Hit/miss/always gating.
    pub when: When,
    /// Rendered predicate over emitted field names (`md.` form), or `None`
    /// for unconditional rules.
    pub cond: Option<String>,
}

/// The uniform predicate of a synthesized action (every instruction of an
/// action comes from one predicate block, so the first instruction is
/// representative).
pub fn action_pred(alg: &IrAlgorithm, a: &SynthAction) -> Option<ValueId> {
    a.instrs.first().and_then(|&i| alg.instr(i).pred)
}

/// Does this instruction read an extern table (hit test or value lookup)?
pub fn is_table_op(op: &IrOp) -> bool {
    matches!(op, IrOp::TableMember { .. } | IrOp::TableLookup { .. })
}

/// Name of the synthesized miss twin of `action`.
pub fn miss_action_name(action: &str) -> String {
    format!("{action}_miss")
}

/// Does `a` need a miss twin: it is backed by an extern table, contains a
/// table op *and* plain statements that the IR executes regardless of the
/// lookup outcome.
pub fn needs_miss_twin(alg: &IrAlgorithm, t: &SynthTable, a: &SynthAction) -> bool {
    t.extern_name().is_some()
        && a.instrs.iter().any(|&i| is_table_op(&alg.instr(i).op))
        && a.instrs.iter().any(|&i| !is_table_op(&alg.instr(i).op))
}

/// Derive the rules for every table of a switch plan, in emission order.
pub fn table_rules(ir: &IrProgram, plan: &SwitchPlan, storage: &Storage) -> Vec<TableRule> {
    let mut plumb: BTreeMap<String, BTreeSet<InstrId>> = BTreeMap::new();
    let mut out = Vec::new();
    for t in &plan.tables {
        let Some(alg) = ir.algorithm(&t.algorithm) else {
            continue;
        };
        let plumbing = plumb.entry(t.algorithm.clone()).or_insert_with(|| {
            let subset = plan.instrs.get(&t.algorithm).cloned().unwrap_or_default();
            compute_plumbing(alg, &subset)
        });
        let r = storage.render(alg);
        let extern_backed = t.extern_name().is_some();
        for a in &t.actions {
            let cond = action_pred(alg, a).map(|p| render_cond(alg, &r, plumbing, p, 0));
            let has_table_op = a.instrs.iter().any(|&i| is_table_op(&alg.instr(i).op));
            if extern_backed && has_table_op {
                out.push(TableRule {
                    table: t.name.clone(),
                    action: a.name.clone(),
                    when: When::Hit,
                    cond: cond.clone(),
                });
                if needs_miss_twin(alg, t, a) {
                    out.push(TableRule {
                        table: t.name.clone(),
                        action: miss_action_name(&a.name),
                        when: When::Miss,
                        cond,
                    });
                }
            } else {
                out.push(TableRule {
                    table: t.name.clone(),
                    action: a.name.clone(),
                    when: When::Always,
                    cond,
                });
            }
        }
    }
    out
}

/// Render predicate `p` as a boolean condition over emitted field names.
///
/// Inlines only through *plumbing* definitions (which are never emitted as
/// statements, so their storage is never written); anything materialized is
/// tested as `name != 0` against its stored value. `max_compare` splits
/// wide equality compares (0 = no splitting).
pub fn render_cond(
    alg: &IrAlgorithm,
    r: &Render,
    plumbing: &BTreeSet<InstrId>,
    p: ValueId,
    max_compare: u32,
) -> String {
    let def = alg.value(p).def.filter(|d| plumbing.contains(d));
    let Some(def) = def else {
        return format!("{} != 0", r.value(p));
    };
    match &alg.instr(def).op {
        IrOp::Binary { op, a, b } => {
            let (pa, pb) = (
                render_val(alg, r, plumbing, a, max_compare),
                render_val(alg, r, plumbing, b, max_compare),
            );
            match op {
                BinOp::Eq => {
                    let w = operand_width(alg, a).max(operand_width(alg, b));
                    split_wide_compare(&pa, &pb, w, max_compare)
                }
                BinOp::Ne => format!("{pa} != {pb}"),
                BinOp::Lt => format!("{pa} < {pb}"),
                BinOp::Le => format!("{pa} <= {pb}"),
                BinOp::Gt => format!("{pa} > {pb}"),
                BinOp::Ge => format!("{pa} >= {pb}"),
                BinOp::LAnd => format!(
                    "({}) && ({})",
                    render_operand_cond(alg, r, plumbing, a, max_compare),
                    render_operand_cond(alg, r, plumbing, b, max_compare)
                ),
                BinOp::LOr => format!(
                    "({}) || ({})",
                    render_operand_cond(alg, r, plumbing, a, max_compare),
                    render_operand_cond(alg, r, plumbing, b, max_compare)
                ),
                _ => format!("{} != 0", r.value(p)),
            }
        }
        IrOp::Unary { op: UnOp::Not, a } => {
            format!(
                "!({})",
                render_operand_cond(alg, r, plumbing, a, max_compare)
            )
        }
        _ => format!("{} != 0", r.value(p)),
    }
}

fn render_operand_cond(
    alg: &IrAlgorithm,
    r: &Render,
    plumbing: &BTreeSet<InstrId>,
    o: &Operand,
    max_compare: u32,
) -> String {
    match o {
        Operand::Const(c) => format!("{c} != 0"),
        Operand::Value(v) => render_cond(alg, r, plumbing, *v, max_compare),
    }
}

/// Render an operand in *value* position inside a condition. Plumbing
/// definitions (whose storage never exists) are inlined as parenthesized
/// boolean expressions — comparisons evaluate to 0/1 in every backend's
/// expression semantics, so the value is preserved.
fn render_val(
    alg: &IrAlgorithm,
    r: &Render,
    plumbing: &BTreeSet<InstrId>,
    o: &Operand,
    max_compare: u32,
) -> String {
    match o {
        Operand::Const(_) => r.operand(o),
        Operand::Value(v) => {
            if alg.value(*v).def.map(|d| plumbing.contains(&d)) == Some(true) {
                format!("({})", render_cond(alg, r, plumbing, *v, max_compare))
            } else {
                r.value(*v)
            }
        }
    }
}

fn operand_width(alg: &IrAlgorithm, o: &Operand) -> u32 {
    match o {
        Operand::Const(_) => 0,
        Operand::Value(v) => alg.value(*v).width,
    }
}

/// Rewrite a `md.`-form condition to NPL bus names (`lyra_bus.` prefix),
/// touching only whole `md.` name prefixes.
pub fn to_bus_cond(cond: &str) -> String {
    let b = cond.as_bytes();
    let mut out = String::with_capacity(cond.len());
    let mut i = 0;
    while i < b.len() {
        let at_name_start = i == 0 || {
            let prev = b[i - 1] as char;
            !(prev.is_ascii_alphanumeric() || prev == '_' || prev == '.')
        };
        if at_name_start && cond[i..].starts_with("md.") {
            out.push_str("lyra_bus.");
            i += 3;
        } else {
            out.push(b[i] as char);
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_ir::frontend;

    /// The program, a plan hosting all of algorithm `a`, and its plumbing.
    fn plumbing_and_alg(src: &str) -> (lyra_ir::IrProgram, SwitchPlan, BTreeSet<InstrId>) {
        let ir = frontend(src).unwrap();
        let subset: Vec<InstrId> = ir.algorithms[0].instr_ids().collect();
        let p = compute_plumbing(&ir.algorithms[0], &subset);
        let plan = SwitchPlan {
            instrs: BTreeMap::from([("a".to_string(), subset)]),
            ..Default::default()
        };
        (ir, plan, p)
    }

    #[test]
    fn inline_condition_for_plumbing_pred() {
        let (ir, plan, p) =
            plumbing_and_alg("pipeline[P]{a}; algorithm a { if (x == 5) { y = 1; } }");
        let alg = &ir.algorithms[0];
        let storage = Storage::new(&ir, &plan);
        let r = storage.render(alg);
        let gated = alg
            .instr_ids()
            .find(|&i| alg.instr(i).pred.is_some())
            .unwrap();
        let cond = render_cond(alg, &r, &p, alg.instr(gated).pred.unwrap(), 0);
        assert!(cond.contains("=="), "{cond}");
        assert!(cond.contains("md.a_x"), "{cond}");
    }

    #[test]
    fn stored_test_for_materialized_pred() {
        // x is clobbered between the comparison and the gate, so the
        // comparison is materialized and the gate reads its stored result.
        let (ir, plan, p) = plumbing_and_alg(
            "pipeline[P]{a}; algorithm a { c = x == 5; x = 2; if (c) { y = 1; } }",
        );
        let alg = &ir.algorithms[0];
        let storage = Storage::new(&ir, &plan);
        let r = storage.render(alg);
        let gated = alg
            .instr_ids()
            .find(|&i| alg.instr(i).pred.is_some())
            .unwrap();
        let cond = render_cond(alg, &r, &p, alg.instr(gated).pred.unwrap(), 0);
        assert_eq!(cond, "md.a_c != 0");
    }

    #[test]
    fn bus_rewrite_only_touches_md_prefix() {
        assert_eq!(to_bus_cond("md.a_x == 5"), "lyra_bus.a_x == 5");
        assert_eq!(to_bus_cond("ipv4.ttl > md.a_y"), "ipv4.ttl > lyra_bus.a_y");
        assert_eq!(to_bus_cond("custom_md.f == 1"), "custom_md.f == 1");
    }
}
