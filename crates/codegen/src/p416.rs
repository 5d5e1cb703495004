//! P4₁₆ emitter (Silicon One targets).
//!
//! Emits a single-control P4_16 program: header/struct declarations, a
//! parser, actions/tables inside a `control`, and an `apply` block that
//! chains tables in dependency order with gateway `if` conditions.
//!
//! Wide comparisons are split per the chip's `max_compare_width`
//! (Figure 5(a): "the programmer needs to reduce the original 48-bit
//! variable comparison to two 32-bit variable comparisons" — Lyra does this
//! automatically).

use std::fmt::Write;

use lyra_chips::ChipModel;
use lyra_ir::{IrOp, IrProgram};
use lyra_lang::UnOp;
use lyra_synth::SwitchPlan;

use crate::emit::{
    action_params, bridge_fields, hoisted_sets, table_keys, used_globals, Render, Storage,
};

/// Render a comparison `a == b` of `width` bits, splitting it into
/// `max`-bit slice comparisons when the chip requires it.
pub fn split_wide_compare(a: &str, b: &str, width: u32, max: u32) -> String {
    if width <= max || max == 0 {
        return format!("{a} == {b}");
    }
    let mut parts = Vec::new();
    let mut lo = 0;
    while lo < width {
        let hi = (lo + max).min(width) - 1;
        parts.push(format!("{a}[{hi}:{lo}] == {b}[{hi}:{lo}]"));
        lo = hi + 1;
    }
    parts.join(" && ")
}

/// Emit the P4_16 program for one switch plan: every line after the
/// header line, which `crate::emit` writes.
pub fn emit(ir: &IrProgram, plan: &SwitchPlan, chip: &ChipModel, storage: &Storage) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "#include <core.p4>");

    // --- Headers -------------------------------------------------------------
    for h in &ir.headers {
        let _ = writeln!(out, "header {} {{", h.name);
        for f in &h.fields {
            let _ = writeln!(out, "    bit<{}> {};", f.ty.width, f.name);
        }
        let _ = writeln!(out, "}}");
    }
    let _ = writeln!(out, "struct headers_t {{");
    for h in &ir.headers {
        let inst = h.name.strip_suffix("_t").unwrap_or(&h.name);
        let _ = writeln!(out, "    {} {};", h.name, inst);
    }
    let _ = writeln!(out, "}}");

    // --- Metadata --------------------------------------------------------------
    let _ = writeln!(out, "struct metadata_t {{");
    let mut any = !storage.fields().is_empty();
    for (n, w) in storage.fields() {
        let _ = writeln!(out, "    bit<{w}> {n};");
    }
    for (n, w) in bridge_fields(plan) {
        let _ = writeln!(out, "    bit<{w}> bridge_{n};");
        any = true;
    }
    if !any {
        let _ = writeln!(out, "    bit<8> _pad;");
    }
    let _ = writeln!(out, "}}");

    // --- Parser ------------------------------------------------------------------
    let _ = writeln!(
        out,
        "parser LyraParser(packet_in pkt, out headers_t hdr, inout metadata_t md) {{"
    );
    // Parser-hoisted constant moves (§5.4): emitted as assignments in the
    // start state.
    let hoisted = hoisted_sets(ir, plan, storage);
    if ir.parser_nodes.is_empty() {
        if hoisted.is_empty() {
            let _ = writeln!(out, "    state start {{ transition accept; }}");
        } else {
            let _ = writeln!(out, "    state start {{");
            for (d, v) in &hoisted {
                let _ = writeln!(out, "        {d} = {v};");
            }
            let _ = writeln!(out, "        transition accept;");
            let _ = writeln!(out, "    }}");
        }
    } else {
        for (ni, node) in ir.parser_nodes.iter().enumerate() {
            let pname = if ni == 0 {
                "start".to_string()
            } else {
                node.name.clone()
            };
            let _ = writeln!(out, "    state {pname} {{");
            for e in &node.extracts {
                let _ = writeln!(out, "        pkt.extract(hdr.{e});");
            }
            if ni == 0 {
                for (d, v) in &hoisted {
                    let _ = writeln!(out, "        {d} = {v};");
                }
            }
            match (&node.select, node.transitions.is_empty()) {
                (Some(sel), false) => {
                    let _ = writeln!(out, "        transition select(hdr.{}) {{", sel.join("."));
                    for (v, next) in &node.transitions {
                        let _ = writeln!(out, "            0x{v:x} : {next};");
                    }
                    let d = node.default.as_deref().unwrap_or("accept");
                    let d = if d == "ingress" { "accept" } else { d };
                    let _ = writeln!(out, "            default : {d};");
                    let _ = writeln!(out, "        }}");
                }
                _ => {
                    let d = node.default.as_deref().unwrap_or("accept");
                    let d = if d == "ingress" { "accept" } else { d };
                    let _ = writeln!(out, "        transition {d};");
                }
            }
            let _ = writeln!(out, "    }}");
        }
    }
    let _ = writeln!(out, "}}");

    // --- Control --------------------------------------------------------------
    let _ = writeln!(
        out,
        "control LyraIngress(inout headers_t hdr, inout metadata_t md) {{"
    );

    // Registers.
    for (g, (w, len)) in used_globals(ir, plan) {
        let _ = writeln!(out, "    register<bit<{w}>>({len}) {g};");
    }

    // Actions and tables.
    for t in &plan.tables {
        let Some(alg) = ir.algorithm(&t.algorithm) else {
            continue;
        };
        let r = storage.render(alg);
        let mut action_names: Vec<String> = Vec::new();
        let params = action_params(ir, t);
        let plist: Vec<String> = params
            .iter()
            .map(|(n, w)| format!("bit<{w}> {n}"))
            .collect();
        for a in &t.actions {
            let _ = writeln!(out, "    action {}({}) {{", a.name, plist.join(", "));
            for &i in &a.instrs {
                emit_stmt(&mut out, ir, &r, i, &params);
            }
            let _ = writeln!(out, "    }}");
            action_names.push(a.name.clone());
            // Miss twin: the plain statements of a mixed hit action, run by
            // the control plane when the lookup misses (LYRA_TABLE_RULES).
            if crate::oracle::rules::needs_miss_twin(alg, t, a) {
                let miss = crate::oracle::rules::miss_action_name(&a.name);
                let _ = writeln!(out, "    action {miss}() {{");
                for &i in &a.instrs {
                    if !crate::oracle::rules::is_table_op(&alg.instr(i).op) {
                        emit_stmt(&mut out, ir, &r, i, &[]);
                    }
                }
                let _ = writeln!(out, "    }}");
                action_names.push(miss);
            }
        }
        let _ = writeln!(out, "    table {} {{", t.name);
        let keys = table_keys(ir, t, &r);
        if !keys.is_empty() {
            let _ = writeln!(out, "        key = {{");
            for (k, kind) in keys {
                let _ = writeln!(out, "            {k} : {kind};");
            }
            let _ = writeln!(out, "        }}");
        }
        let _ = writeln!(out, "        actions = {{");
        for a in &action_names {
            let _ = writeln!(out, "            {a};");
        }
        let _ = writeln!(out, "            NoAction;");
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out, "        size = {};", t.entries.max(1));
        let _ = writeln!(out, "        default_action = NoAction();");
        let _ = writeln!(out, "    }}");
    }

    // Apply block with gateway conditions. Any table carrying a predicate
    // is gated — extern-backed tables included, so a lookup inside an `if`
    // does not fire when the condition is false. Conditions materialize
    // stored predicates as `x != 0` and only inline plumbing (see
    // `oracle::rules::render_cond`).
    let mut plumb: std::collections::BTreeMap<
        String,
        std::collections::BTreeSet<lyra_ir::InstrId>,
    > = Default::default();
    let _ = writeln!(out, "    apply {{");
    for t in &plan.tables {
        let Some(alg) = ir.algorithm(&t.algorithm) else {
            continue;
        };
        let r = storage.render(alg);
        match t.pred {
            Some(p) => {
                let plumbing = plumb.entry(t.algorithm.clone()).or_insert_with(|| {
                    let subset = plan.instrs.get(&t.algorithm).cloned().unwrap_or_default();
                    lyra_synth::util::compute_plumbing(alg, &subset)
                });
                let cond =
                    crate::oracle::rules::render_cond(alg, &r, plumbing, p, chip.max_compare_width);
                let _ = writeln!(out, "        if ({cond}) {{");
                let _ = writeln!(out, "            {}.apply();", t.name);
                let _ = writeln!(out, "        }}");
            }
            None => {
                let _ = writeln!(out, "        {}.apply();", t.name);
            }
        }
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    out
}

/// Emit one IR instruction as a P4_16 statement.
fn emit_stmt(
    out: &mut String,
    ir: &IrProgram,
    r: &Render,
    i: lyra_ir::InstrId,
    params: &[(String, u32)],
) {
    let instr = r.alg().instr(i);
    let dst = instr.dst.map(|d| r.value(d));
    match &instr.op {
        IrOp::Assign(a) => {
            let _ = writeln!(out, "        {} = {};", dst.unwrap(), r.operand(a));
        }
        IrOp::Binary { op, a, b } => {
            let d = dst.unwrap();
            let (pa, sym, pb) = (r.operand(a), op.symbol(), r.operand(b));
            if op.is_logical() {
                // Logical ops saturate wide operands to a boolean first;
                // a plain `&`/`|` would compute 2 && 1 == 0.
                let _ = writeln!(
                    out,
                    "        {d} = ({pa} != 0 {sym} {pb} != 0) ? (bit<1>)1 : (bit<1>)0;"
                );
            } else if op.is_comparison() {
                // Stored comparison: a one-bit result.
                let _ = writeln!(
                    out,
                    "        {d} = ({pa} {sym} {pb}) ? (bit<1>)1 : (bit<1>)0;"
                );
            } else {
                let _ = writeln!(out, "        {d} = {pa} {sym} {pb};");
            }
        }
        IrOp::Unary { op, a } => {
            let d = dst.unwrap();
            let pa = r.operand(a);
            match op {
                UnOp::Not => {
                    // Logical not of a possibly wide operand: `^ 1` would
                    // only flip the low bit.
                    let _ = writeln!(out, "        {d} = ({pa} == 0) ? (bit<1>)1 : (bit<1>)0;");
                }
                UnOp::BitNot => {
                    let _ = writeln!(out, "        {d} = ~{pa};");
                }
                UnOp::Neg => {
                    let _ = writeln!(out, "        {d} = -{pa};");
                }
            }
        }
        IrOp::Call { name, args } => {
            let d = dst.unwrap();
            if let Some((hname, _)) = crate::emit::is_hash_call(&instr.op) {
                let rendered: Vec<String> = args.iter().map(|a| r.operand(a)).collect();
                // crc16 keeps its native 16-bit output base; crc32 and
                // identity hash into a 32-bit unit.
                let (algo, base) = if hname == "crc16_hash" {
                    ("crc16", 65536u64)
                } else {
                    ("crc32", 4294967296u64)
                };
                let _ = writeln!(
                    out,
                    "        hash({d}, HashAlgorithm.{algo}, (bit<32>)0, {{ {} }}, (bit<64>){base});",
                    rendered.join(", ")
                );
            } else {
                match name.as_str() {
                    "get_queue_len" => {
                        let _ = writeln!(out, "        {d} = (bit<24>)std_meta.deq_qdepth;");
                    }
                    "get_ingress_timestamp" => {
                        let _ = writeln!(
                            out,
                            "        {d} = (bit<32>)std_meta.ingress_global_timestamp;"
                        );
                    }
                    "get_egress_timestamp" => {
                        let _ = writeln!(
                            out,
                            "        {d} = (bit<32>)std_meta.egress_global_timestamp;"
                        );
                    }
                    "min" | "max" => {
                        let (pa, pb) = (r.operand(&args[0]), r.operand(&args[1]));
                        let sym = if name == "min" { "<" } else { ">" };
                        let _ = writeln!(out, "        {d} = ({pa} {sym} {pb}) ? {pa} : {pb};");
                    }
                    other => {
                        let rendered: Vec<String> = args.iter().map(|a| r.operand(a)).collect();
                        let _ =
                            writeln!(out, "        {d} = lyra_{other}({});", rendered.join(", "));
                    }
                }
            }
        }
        IrOp::Action { name, args } => match name.as_str() {
            "drop" => {
                let _ = writeln!(out, "        mark_to_drop();");
            }
            "add_header" => {
                let h = args.first().map(|a| r.operand(a)).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "        hdr.{}.setValid();",
                    h.trim_start_matches("md.")
                );
            }
            "remove_header" => {
                let h = args.first().map(|a| r.operand(a)).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "        hdr.{}.setInvalid();",
                    h.trim_start_matches("md.")
                );
            }
            other => {
                let rendered: Vec<String> = args.iter().map(|a| r.operand(a)).collect();
                let _ = writeln!(out, "        lyra_{other}({});", rendered.join(", "));
            }
        },
        IrOp::TableLookup { table, .. } => {
            if let Some(ext) = ir.externs.get(table) {
                if let lyra_lang::ExternKind::Dict { values, .. } = &ext.kind {
                    if let (Some(d), Some(v)) = (&dst, values.first()) {
                        let p = format!("val_{}", v.name);
                        if params.iter().any(|(n, _)| n == &p) {
                            let _ = writeln!(out, "        {d} = {p};");
                        }
                        // On a miss the IR leaves the destination untouched;
                        // the action simply doesn't run (hit-gated rule).
                    }
                }
            }
        }
        IrOp::TableMember { .. } => {
            if let Some(d) = &dst {
                let _ = writeln!(out, "        {d} = 1; // table hit");
            }
        }
        IrOp::GlobalRead { global, index } => {
            let _ = writeln!(
                out,
                "        {global}.read({}, (bit<32>){});",
                dst.unwrap(),
                r.operand(index)
            );
        }
        IrOp::GlobalWrite {
            global,
            index,
            value,
        } => {
            let _ = writeln!(
                out,
                "        {global}.write((bit<32>){}, {});",
                r.operand(index),
                r.operand(value)
            );
        }
        IrOp::Slice { a, hi, lo } => {
            let _ = writeln!(
                out,
                "        {} = {}[{hi}:{lo}];",
                dst.unwrap(),
                r.operand(a)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_compare_splits() {
        // The Figure 5(a) case: 48-bit MAC on a 44-bit-compare chip splits
        // into two slice comparisons.
        let c = split_wide_compare("smac", "dmac", 48, 44);
        assert!(c.contains("&&"));
        assert!(c.contains("[43:0]"));
        assert!(c.contains("[47:44]"));
    }

    #[test]
    fn narrow_compare_unsplit() {
        assert_eq!(split_wide_compare("a", "b", 32, 44), "a == b");
    }

    #[test]
    fn split_into_three() {
        let c = split_wide_compare("x", "y", 100, 40);
        assert_eq!(c.matches("&&").count(), 2);
        assert!(c.contains("[99:80]"));
    }
}
