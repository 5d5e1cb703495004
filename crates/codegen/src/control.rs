//! Control-plane interface generation (§5.8).
//!
//! Lyra does not synthesize control-plane logic; it generates Python
//! functions per extern table (`<t>_entry_set(key, value)` /
//! `<t>_entry_get(key)`) so operators can fill table entries without
//! knowing how the table was split across switches — the per-switch shard
//! size is embedded in the stub. The bodies call a `driver` object bound
//! by `lyra_init(driver)`: the thin adapter over the vendor SDK that the
//! deployment provides (and that the oracle's control model stands in for
//! during differential testing).
//!
//! The stub also embeds `LYRA_TABLE_RULES`, the derived gateway/default
//! rules of every synthesized table (see `crate::oracle::rules`) which
//! `lyra_init` installs, and the transactional-rollout hooks the runtime's
//! two-phase update engine drives (`lyra::rollout`): a `PLACEMENT_EPOCH`
//! version tag and per-table `<t>_prepare(epoch, entries)` /
//! `<t>_commit(epoch)` / `<t>_rollback(epoch)` operations, so a controller
//! can stage the next placement epoch, flip to it atomically, or revert —
//! the switch-side half of the prepare/commit protocol.
//!
//! [`control_plane_stub`] depends on the plan alone: it writes every line
//! but the first, and [`generate`](crate::generate) writes the header line
//! naming the switch, so switches with equal plans share one rendered
//! stub.

use std::fmt::Write;

use lyra_ir::IrProgram;
use lyra_synth::SwitchPlan;

use crate::emit::Storage;
use crate::oracle::{rule_lines, rules::table_rules};

/// Generate the Python control-plane stub for one switch plan, whose rule
/// conditions name fields of `storage`: every line after the header line,
/// which `crate::emit` writes.
pub fn control_plane_stub(ir: &IrProgram, plan: &SwitchPlan, storage: &Storage) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Each extern variable in the Lyra program maps to the functions below;"
    );
    let _ = writeln!(
        out,
        "# bind your controller's SDK adapter with lyra_init(driver)."
    );
    let _ = writeln!(out);

    // Epoch tag for transactional rollouts: the runtime's two-phase update
    // engine stages the next placement under `PLACEMENT_EPOCH + 1` and
    // flips it on commit; a rollback discards the staged epoch. Entries
    // written while an epoch is staged go to the *serving* epoch.
    let _ = writeln!(out, "PLACEMENT_EPOCH = 0");
    let _ = writeln!(out, "_STAGED_EPOCH = None  # prepared, not yet committed");
    let _ = writeln!(out, "_driver = None  # bound by lyra_init()");
    let _ = writeln!(out);
    // Switch-side half of the controller's recovery `Query`: a restarted
    // controller probes each switch's epoch tags to decide whether an
    // in-flight rollout can still reach all-commit or must roll back.
    let _ = writeln!(out, "def lyra_placement_state():");
    let _ = writeln!(
        out,
        "    \"\"\"Answer a controller recovery query: (serving epoch, staged epoch).\"\"\""
    );
    let _ = writeln!(out, "    return (PLACEMENT_EPOCH, _STAGED_EPOCH)");
    let _ = writeln!(out);
    // Switch-side half of the health monitor's heartbeat (`Probe`): the
    // monitor scores missed/slow answers into per-switch suspicion, so
    // this must stay cheap, read-only, and always answerable while the
    // agent process is alive.
    let _ = writeln!(out, "def lyra_health_probe():");
    let _ = writeln!(
        out,
        "    \"\"\"Answer a controller health probe: (serving epoch, staged epoch, alive).\"\"\""
    );
    let _ = writeln!(out, "    return (PLACEMENT_EPOCH, _STAGED_EPOCH, True)");
    let _ = writeln!(out);

    // Derived table rules: which action of which table runs on hit / miss /
    // always, behind which condition. One source of truth shared with the
    // emitters and the semantic oracle.
    let rules = table_rules(ir, plan, storage);
    let _ = writeln!(out, "LYRA_TABLE_RULES = [");
    for l in rule_lines(&rules) {
        let _ = writeln!(out, "{l}");
    }
    let _ = writeln!(out, "]");
    let _ = writeln!(out);
    let _ = writeln!(out, "def lyra_init(driver):");
    let _ = writeln!(
        out,
        "    \"\"\"Bind the SDK driver and install the derived table rules.\"\"\""
    );
    let _ = writeln!(out, "    global _driver");
    let _ = writeln!(out, "    _driver = driver");
    let _ = writeln!(
        out,
        "    for table, action, when, cond in LYRA_TABLE_RULES:"
    );
    let _ = writeln!(out, "        if when == \"miss\":");
    let _ = writeln!(
        out,
        "            driver.table_set_default(table, action, cond)"
    );
    let _ = writeln!(out, "        else:");
    let _ = writeln!(
        out,
        "            driver.table_set_rule(table, action, when, cond)"
    );
    let _ = writeln!(out);

    if plan.extern_entries.is_empty() {
        let _ = writeln!(out, "# (no extern tables are hosted on this switch)");
        return out;
    }

    for (table, &entries) in &plan.extern_entries {
        let (key_desc, value_desc) = match ir.externs.get(table) {
            Some(ext) => match &ext.kind {
                lyra_lang::ExternKind::List { elem } => (
                    format!("{}: bit[{}]", elem.name, elem.ty.width),
                    String::from("(membership)"),
                ),
                lyra_lang::ExternKind::Dict { keys, values } => {
                    let k: Vec<String> = keys
                        .iter()
                        .map(|f| format!("{}: bit[{}]", f.name, f.ty.width))
                        .collect();
                    let v: Vec<String> = values
                        .iter()
                        .map(|f| format!("{}: bit[{}]", f.name, f.ty.width))
                        .collect();
                    (k.join(", "), v.join(", "))
                }
            },
            None => ("key".into(), "value".into()),
        };
        let _ = writeln!(out, "# table `{table}`: {entries} entries on this switch");
        let _ = writeln!(out, "{table}_CAPACITY = {entries}");
        let _ = writeln!(out);
        let _ = writeln!(out, "def {table}_entry_set(key, value):");
        let _ = writeln!(
            out,
            "    \"\"\"Install <{key_desc}> -> <{value_desc}>.\"\"\""
        );
        let _ = writeln!(
            out,
            "    return _driver.table_insert(\"{table}\", key, value, epoch=PLACEMENT_EPOCH)"
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "def {table}_entry_get(key):");
        let _ = writeln!(out, "    \"\"\"Read the entry for <{key_desc}>.\"\"\"");
        let _ = writeln!(
            out,
            "    return _driver.table_get(\"{table}\", key, epoch=PLACEMENT_EPOCH)"
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "def {table}_entry_delete(key):");
        let _ = writeln!(out, "    \"\"\"Remove the entry for <{key_desc}>.\"\"\"");
        let _ = writeln!(
            out,
            "    return _driver.table_delete(\"{table}\", key, epoch=PLACEMENT_EPOCH)"
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "def {table}_prepare(epoch, entries):");
        let _ = writeln!(
            out,
            "    \"\"\"Stage this table's full contents for placement `epoch`"
        );
        let _ = writeln!(
            out,
            "    without touching the serving entries (phase 1 of 2).\"\"\""
        );
        let _ = writeln!(out, "    global _STAGED_EPOCH");
        let _ = writeln!(out, "    _driver.shadow_clear(\"{table}\", epoch)");
        let _ = writeln!(out, "    for key, value in entries:");
        let _ = writeln!(
            out,
            "        _driver.shadow_insert(\"{table}\", key, value, epoch)"
        );
        let _ = writeln!(out, "    _STAGED_EPOCH = epoch");
        let _ = writeln!(out);
        let _ = writeln!(out, "def {table}_commit(epoch):");
        let _ = writeln!(
            out,
            "    \"\"\"Atomically serve the entries staged for `epoch`; the prior"
        );
        let _ = writeln!(
            out,
            "    epoch is retained until the rollout finalizes (phase 2 of 2).\"\"\""
        );
        let _ = writeln!(out, "    global PLACEMENT_EPOCH, _STAGED_EPOCH");
        let _ = writeln!(out, "    _driver.epoch_flip(\"{table}\", epoch)");
        let _ = writeln!(out, "    PLACEMENT_EPOCH = epoch");
        let _ = writeln!(out, "    _STAGED_EPOCH = None");
        let _ = writeln!(out);
        let _ = writeln!(out, "def {table}_rollback(epoch):");
        let _ = writeln!(
            out,
            "    \"\"\"Abandon `epoch`: drop its staged entries, and if it was"
        );
        let _ = writeln!(
            out,
            "    already committed, revert to the retained prior epoch.\"\"\""
        );
        let _ = writeln!(out, "    global _STAGED_EPOCH");
        let _ = writeln!(out, "    _driver.epoch_revert(\"{table}\", epoch)");
        let _ = writeln!(out, "    _STAGED_EPOCH = None");
        let _ = writeln!(out);
        // Anti-entropy hook: the controller's audit compares this digest
        // against its expected-state shadow and only walks the table key by
        // key when the 64-bit summaries disagree. The fold must match the
        // controller's FNV-1a over (key, value) little-endian words in key
        // order — see `lyra_ir::ExternTable::digest`.
        let _ = writeln!(out, "def {table}_state_digest():");
        let _ = writeln!(
            out,
            "    \"\"\"FNV-1a digest of the serving entries, for anti-entropy audits.\"\"\""
        );
        let _ = writeln!(out, "    h = 0xcbf29ce484222325");
        let _ = writeln!(
            out,
            "    for key, value in sorted(_driver.table_dump(\"{table}\", epoch=PLACEMENT_EPOCH)):"
        );
        let _ = writeln!(out, "        for word in (key, value):");
        let _ = writeln!(
            out,
            "            for b in int(word).to_bytes(8, \"little\"):"
        );
        let _ = writeln!(
            out,
            "                h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF"
        );
        let _ = writeln!(out, "    return h");
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_ir::frontend;
    use lyra_synth::SwitchPlan;

    fn stub_for(ir: &IrProgram, plan: &SwitchPlan) -> String {
        control_plane_stub(ir, plan, &Storage::new(ir, plan))
    }

    #[test]
    fn stub_lists_tables_and_capacities() {
        let ir = frontend(
            r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] vip, bit[8] group>[1024] vip_table;
                if (v in vip_table) { x = 1; }
            }
            "#,
        )
        .unwrap();
        let mut plan = SwitchPlan::default();
        plan.extern_entries.insert("vip_table".into(), 512);
        let stub = stub_for(&ir, &plan);
        assert!(stub.contains("vip_table_entry_set"));
        assert!(stub.contains("vip_table_entry_get"));
        assert!(stub.contains("vip_table_CAPACITY = 512"));
        assert!(stub.contains("vip: bit[32]"));
        assert!(stub.contains("group: bit[8]"));
    }

    #[test]
    fn stub_exposes_epoch_and_two_phase_operations() {
        let ir = frontend(
            r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] vip, bit[8] group>[1024] vip_table;
                if (v in vip_table) { x = 1; }
            }
            "#,
        )
        .unwrap();
        let mut plan = SwitchPlan::default();
        plan.extern_entries.insert("vip_table".into(), 512);
        let stub = stub_for(&ir, &plan);
        assert!(stub.contains("PLACEMENT_EPOCH = 0"));
        assert!(stub.contains("def vip_table_prepare(epoch, entries):"));
        assert!(stub.contains("def vip_table_commit(epoch):"));
        assert!(stub.contains("def vip_table_rollback(epoch):"));
    }

    #[test]
    fn stub_answers_recovery_queries_and_audit_digests() {
        let ir = frontend(
            r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] vip, bit[8] group>[1024] vip_table;
                if (v in vip_table) { x = 1; }
            }
            "#,
        )
        .unwrap();
        let mut plan = SwitchPlan::default();
        plan.extern_entries.insert("vip_table".into(), 512);
        let stub = stub_for(&ir, &plan);
        // Recovery probe: a restarted controller asks for the epoch tags.
        assert!(stub.contains("def lyra_placement_state():"));
        assert!(stub.contains("return (PLACEMENT_EPOCH, _STAGED_EPOCH)"));
        // Heartbeat: the health monitor's probe hook rides the same tags.
        assert!(stub.contains("def lyra_health_probe():"));
        assert!(stub.contains("return (PLACEMENT_EPOCH, _STAGED_EPOCH, True)"));
        // Anti-entropy: the digest fold mirrors ExternTable::digest.
        assert!(stub.contains("def vip_table_state_digest():"));
        assert!(stub.contains("h = 0xcbf29ce484222325"));
        assert!(stub.contains("_driver.table_dump(\"vip_table\""));
        assert!(stub.contains("0x100000001b3"));
    }

    #[test]
    fn empty_plan_notes_absence() {
        let ir = frontend("pipeline[P]{a}; algorithm a { x = 1; }").unwrap();
        let stub = stub_for(&ir, &SwitchPlan::default());
        assert!(stub.contains("no extern tables"));
        // The epoch tag and recovery probe are present even with no hosted
        // tables — the switch still participates in rollout transactions
        // (e.g. a flush) and must answer a restarted controller's query.
        assert!(stub.contains("PLACEMENT_EPOCH = 0"));
        assert!(stub.contains("def lyra_placement_state():"));
        assert!(stub.contains("def lyra_health_probe():"));
    }

    #[test]
    fn stub_has_real_driver_calls_and_rules() {
        let ir = frontend(
            r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] vip, bit[8] group>[1024] vip_table;
                if (v in vip_table) { x = vip_table[v]; }
            }
            "#,
        )
        .unwrap();
        let mut plan = SwitchPlan::default();
        plan.extern_entries.insert("vip_table".into(), 512);
        let stub = stub_for(&ir, &plan);
        assert!(!stub.contains("TODO"), "stub still has TODO:\n{stub}");
        assert!(stub.contains("LYRA_TABLE_RULES = ["));
        assert!(stub.contains("def lyra_init(driver):"));
        assert!(stub.contains("_driver.table_insert(\"vip_table\""));
        assert!(stub.contains("_driver.shadow_insert(\"vip_table\""));
        assert!(stub.contains("_driver.epoch_flip(\"vip_table\""));
        assert!(stub.contains("_driver.epoch_revert(\"vip_table\""));
        let cm = crate::oracle::parse_control(&stub).unwrap();
        assert!(!cm.has_todo);
        assert_eq!(cm.capacities.get("vip_table"), Some(&512));
        assert!(cm.functions.contains("lyra_init"));
    }
}
