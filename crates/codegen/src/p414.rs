//! P4₁₄ emitter (Tofino/RMT targets).
//!
//! Emits the classic P4_14 shape: `header_type` declarations, a metadata
//! bundle, parser states, `field_list`/`field_list_calculation` pairs for
//! hash calls, `register` declarations for globals, `action`/`table`
//! definitions from the synthesized table group, and a `control` block
//! applying tables in dependency order. RMT has no multiply or divide
//! ALU, so a plan that needs `*`, `/` or `%` is refused.

use std::collections::BTreeSet;
use std::fmt::Write;

use lyra_chips::ChipModel;
use lyra_ir::{IrOp, IrProgram, Operand};
use lyra_lang::{BinOp, UnOp};
use lyra_synth::{SwitchPlan, SynthTable, TableKind};

use crate::emit::{
    action_params, bridge_fields, deployed_instrs, hoisted_sets, table_keys, used_globals,
    CodegenError, Render, Storage, SCRATCH_FIELDS,
};

/// Emit the P4_14 program for one switch plan: every line after the
/// header line, which `crate::emit` writes.
pub fn emit(
    ir: &IrProgram,
    plan: &SwitchPlan,
    chip: &ChipModel,
    storage: &Storage,
) -> Result<String, CodegenError> {
    for t in &plan.tables {
        let Some(alg) = ir.algorithm(&t.algorithm) else {
            continue;
        };
        for &i in t.actions.iter().flat_map(|a| &a.instrs) {
            if let IrOp::Binary {
                op: op @ (BinOp::Mul | BinOp::Div | BinOp::Mod),
                ..
            } = alg.instr(i).op
            {
                return Err(CodegenError {
                    message: format!(
                        "P4_14 has no `{}` primitive (algorithm `{}`)",
                        op.symbol(),
                        t.algorithm
                    ),
                });
            }
        }
    }
    let mut out = String::new();

    // --- Headers ----------------------------------------------------------
    let mut declared_headers = BTreeSet::new();
    for h in &ir.headers {
        let _ = writeln!(out, "header_type {} {{", h.name);
        let _ = writeln!(out, "    fields {{");
        for f in &h.fields {
            let _ = writeln!(out, "        {} : {};", f.name, f.ty.width);
        }
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "}}");
        declared_headers.insert(h.name.clone());
        let inst = h.name.strip_suffix("_t").unwrap_or(&h.name);
        let _ = writeln!(out, "header {} {};", h.name, inst);
    }

    // Bridge header for carried values (Algorithm 2 / §5.6).
    if !plan.carried_in.is_empty() || !plan.carried_out.is_empty() {
        let mut fields: Vec<(String, u32)> = Vec::new();
        for (n, w) in bridge_fields(plan) {
            if !fields.iter().any(|(x, _)| *x == n) {
                fields.push((n, w));
            }
        }
        let _ = writeln!(out, "header_type lyra_bridge_t {{");
        let _ = writeln!(out, "    fields {{");
        for (n, w) in &fields {
            let _ = writeln!(out, "        {n} : {w};");
        }
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "}}");
        let _ = writeln!(out, "header lyra_bridge_t lyra_bridge;");
    }

    // --- Metadata -----------------------------------------------------------
    let md_fields = storage.fields();
    // Stored comparisons/logicals are encoded with subtract/min/xor
    // sequences (no compare ALU writes a boolean on RMT); they need two
    // wide scratch fields.
    let need_scratch = plan.tables.iter().any(|t| {
        ir.algorithm(&t.algorithm).is_some_and(|alg| {
            t.actions.iter().flat_map(|a| &a.instrs).any(|&i| {
                matches!(
                    &alg.instr(i).op,
                    IrOp::Binary { op, .. } if op.is_comparison() || op.is_logical()
                ) || matches!(&alg.instr(i).op, IrOp::Unary { op: UnOp::Not, .. })
            })
        })
    });
    let _ = writeln!(out, "header_type lyra_metadata_t {{");
    let _ = writeln!(out, "    fields {{");
    for (n, w) in md_fields {
        let _ = writeln!(out, "        {n} : {w};");
    }
    if need_scratch {
        for n in SCRATCH_FIELDS {
            let _ = writeln!(out, "        {n} : 64;");
        }
    }
    if md_fields.is_empty() && !need_scratch {
        let _ = writeln!(out, "        _pad : 8;");
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out, "metadata lyra_metadata_t md;");

    // --- Parser --------------------------------------------------------------
    let hoisted = hoisted_sets(ir, plan, storage);
    if ir.parser_nodes.is_empty() {
        let _ = writeln!(out, "parser start {{");
        for (d, v) in &hoisted {
            let _ = writeln!(out, "    set_metadata({d}, {v});");
        }
        let _ = writeln!(out, "    return ingress;");
        let _ = writeln!(out, "}}");
    } else {
        for (ni, node) in ir.parser_nodes.iter().enumerate() {
            let pname = if ni == 0 {
                "start".to_string()
            } else {
                node.name.clone()
            };
            let _ = writeln!(out, "parser {pname} {{");
            for e in &node.extracts {
                let _ = writeln!(out, "    extract({e});");
            }
            if ni == 0 {
                for (d, v) in &hoisted {
                    let _ = writeln!(out, "    set_metadata({d}, {v});");
                }
            }
            match (&node.select, node.transitions.is_empty()) {
                (Some(sel), false) => {
                    let _ = writeln!(out, "    return select({}) {{", sel.join("."));
                    for (v, next) in &node.transitions {
                        let _ = writeln!(out, "        0x{v:x} : {next};");
                    }
                    let _ = writeln!(
                        out,
                        "        default : {};",
                        node.default.as_deref().unwrap_or("ingress")
                    );
                    let _ = writeln!(out, "    }}");
                }
                _ => {
                    let _ = writeln!(
                        out,
                        "    return {};",
                        node.default.as_deref().unwrap_or("ingress")
                    );
                }
            }
            let _ = writeln!(out, "}}");
        }
    }

    // --- Registers (globals) ---------------------------------------------
    for (g, (w, len)) in used_globals(ir, plan) {
        let _ = writeln!(out, "register {g} {{");
        let _ = writeln!(out, "    width : {w};");
        let _ = writeln!(out, "    instance_count : {len};");
        let _ = writeln!(out, "}}");
    }

    // --- Hash field lists ---------------------------------------------------
    let mut hash_idx = 0usize;
    let mut hash_decls = String::new();
    let mut hash_of_instr: std::collections::BTreeMap<(String, u32), (String, u32)> =
        std::collections::BTreeMap::new();
    for (alg, instrs) in deployed_instrs(ir, plan) {
        let r = storage.render(alg);
        for &i in &instrs {
            if let Some((name, args)) = crate::emit::is_hash_call(&alg.instr(i).op) {
                let fl = format!("lyra_fl_{hash_idx}");
                let flc = format!("lyra_flc_{hash_idx}");
                hash_idx += 1;
                // crc16 keeps its native 16-bit output; everything else
                // (crc32, identity) is a 32-bit unit.
                let (algo, bits) = if name == "crc16_hash" {
                    ("crc16", 16)
                } else {
                    ("crc32", 32)
                };
                let _ = writeln!(hash_decls, "field_list {fl} {{");
                for a in args {
                    let _ = writeln!(hash_decls, "    {};", r.operand(a));
                }
                let _ = writeln!(hash_decls, "}}");
                let _ = writeln!(hash_decls, "field_list_calculation {flc} {{");
                let _ = writeln!(hash_decls, "    input {{ {fl}; }}");
                let _ = writeln!(hash_decls, "    algorithm : {algo};");
                let _ = writeln!(hash_decls, "    output_width : {bits};");
                let _ = writeln!(hash_decls, "}}");
                hash_of_instr.insert((alg.name.clone(), i.0), (flc, bits));
            }
        }
    }
    out.push_str(&hash_decls);

    // --- Actions and tables -------------------------------------------------
    // Tables whose instructions read egress-only state (queue depth,
    // egress timestamp — §8 "Multi-pipeline support") must run in the
    // egress pipeline; so must every table that depends on one of them.
    let egress_resident = egress_tables(ir, plan);
    let mut apply_order: Vec<String> = Vec::new();
    let mut egress_order: Vec<String> = Vec::new();
    for t in &plan.tables {
        let Some(alg) = ir.algorithm(&t.algorithm) else {
            continue;
        };
        let r = storage.render(alg);
        // Actions. Extern-backed actions that mix a table op with plain
        // statements get a `*_miss` twin holding only the plain
        // statements — the IR executes those regardless of hit/miss, so
        // the control plane runs the twin on a miss (LYRA_TABLE_RULES).
        let mut action_names: Vec<String> = Vec::new();
        let params = action_params(ir, t);
        let names: Vec<&str> = params.iter().map(|(n, _)| n.as_str()).collect();
        for a in &t.actions {
            let _ = writeln!(out, "action {}({}) {{", a.name, names.join(", "));
            for &i in &a.instrs {
                emit_primitive(&mut out, ir, &r, &hash_of_instr, &t.algorithm, i, &params);
            }
            if a.instrs.is_empty() {
                let _ = writeln!(out, "    no_op();");
            }
            let _ = writeln!(out, "}}");
            action_names.push(a.name.clone());
            if crate::oracle::rules::needs_miss_twin(alg, t, a) {
                let miss = crate::oracle::rules::miss_action_name(&a.name);
                let _ = writeln!(out, "action {miss}() {{");
                for &i in &a.instrs {
                    if !crate::oracle::rules::is_table_op(&alg.instr(i).op) {
                        emit_primitive(&mut out, ir, &r, &hash_of_instr, &t.algorithm, i, &[]);
                    }
                }
                let _ = writeln!(out, "}}");
                action_names.push(miss);
            }
        }
        // Table.
        let _ = writeln!(out, "table {} {{", t.name);
        let reads = table_reads(ir, t, &r);
        if !reads.is_empty() {
            let _ = writeln!(out, "    reads {{");
            for (field, kind) in reads {
                let _ = writeln!(out, "        {field} : {kind};");
            }
            let _ = writeln!(out, "    }}");
        }
        let _ = writeln!(out, "    actions {{");
        for a in &action_names {
            let _ = writeln!(out, "        {a};");
        }
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "    size : {};", t.entries.max(1));
        let _ = writeln!(out, "}}");
        if egress_resident.contains(&t.name) {
            egress_order.push(t.name.clone());
        } else {
            apply_order.push(t.name.clone());
        }
    }

    // --- Control -------------------------------------------------------------
    let _ = writeln!(out, "control ingress {{");
    for t in &apply_order {
        let _ = writeln!(out, "    apply({t});");
    }
    if plan.usage.longest_code_path > chip.stages as u64 {
        // The dependency chain exceeds one pipeline pass; take a second
        // pass via recirculation (§8).
        let _ = writeln!(out, "    recirculate(68);");
    }
    let _ = writeln!(out, "}}");
    let _ = writeln!(out, "control egress {{");
    for t in &egress_order {
        let _ = writeln!(out, "    apply({t});");
    }
    let _ = writeln!(out, "}}");

    Ok(out)
}

/// Names of tables that must reside in the egress pipeline: any table whose
/// instructions call an egress-only builtin, plus (transitively) every
/// table depending on one — the egress pipeline cannot feed the ingress
/// pipeline.
fn egress_tables(ir: &IrProgram, plan: &SwitchPlan) -> BTreeSet<String> {
    use lyra_lang::check::builtins;
    let mut egress: BTreeSet<String> = BTreeSet::new();
    let directly = |t: &lyra_synth::SynthTable| -> bool {
        let Some(alg) = ir.algorithm(&t.algorithm) else {
            return false;
        };
        t.instrs.iter().any(|&i| match &alg.instr(i).op {
            IrOp::Call { name, .. } | IrOp::Action { name, .. } => builtins()
                .get(name.as_str())
                .map(|s| s.egress_only)
                .unwrap_or(false),
            _ => false,
        })
    };
    for t in &plan.tables {
        if directly(t) {
            egress.insert(t.name.clone());
        }
    }
    // Transitive closure over intra-plan dependencies (depends_on indexes
    // the plan's table list).
    loop {
        let mut changed = false;
        for t in &plan.tables {
            if egress.contains(&t.name) {
                continue;
            }
            let dep_on_egress = t
                .depends_on
                .iter()
                .filter_map(|&d| plan.tables.get(d))
                .any(|d| egress.contains(&d.name));
            if dep_on_egress {
                egress.insert(t.name.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    egress
}

/// The match fields of a table: an extern's keys, or the source fields
/// of a gate's predicate.
fn table_reads(ir: &IrProgram, t: &SynthTable, r: &Render) -> Vec<(String, &'static str)> {
    match (&t.kind, t.pred) {
        (TableKind::PredicateGate, Some(p)) => pred_source_fields(r.alg(), p, r)
            .into_iter()
            .map(|f| (f, "ternary"))
            .collect(),
        _ => table_keys(ir, t, r),
    }
}

/// Source (live-in) fields a predicate reads.
fn pred_source_fields(alg: &lyra_ir::IrAlgorithm, p: lyra_ir::ValueId, r: &Render) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![p];
    let mut seen = BTreeSet::new();
    while let Some(v) = stack.pop() {
        if !seen.insert(v) {
            continue;
        }
        let info = alg.value(v);
        match info.def {
            None => out.push(r.value(v)),
            Some(def) => {
                for o in alg.instr(def).op.reads() {
                    if let Operand::Value(src) = o {
                        stack.push(src);
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Emit one IR instruction as P4_14 primitives.
fn emit_primitive(
    out: &mut String,
    ir: &IrProgram,
    r: &Render,
    hashes: &std::collections::BTreeMap<(String, u32), (String, u32)>,
    alg_name: &str,
    i: lyra_ir::InstrId,
    params: &[(String, u32)],
) {
    let instr = r.alg().instr(i);
    let dst = instr.dst.map(|d| r.value(d));
    match &instr.op {
        IrOp::Assign(a) => {
            let _ = writeln!(out, "    modify_field({}, {});", dst.unwrap(), r.operand(a));
        }
        IrOp::Binary { op, a, b } => {
            let d = dst.unwrap();
            let (pa, pb) = (r.operand(a), r.operand(b));
            if op.is_comparison() || op.is_logical() {
                emit_bool_encoding(out, &d, *op, &pa, &pb);
                return;
            }
            let prim = match op {
                BinOp::Add => "add",
                BinOp::Sub => "subtract",
                BinOp::And => "bit_and",
                BinOp::Or => "bit_or",
                BinOp::Xor => "bit_xor",
                BinOp::Shl => "shift_left",
                BinOp::Shr => "shift_right",
                _ => unreachable!("`emit` refuses `{}` up front", op.symbol()),
            };
            let _ = writeln!(out, "    {prim}({d}, {pa}, {pb});");
        }
        IrOp::Unary { op, a } => {
            let d = dst.unwrap();
            match op {
                UnOp::Not => {
                    // Logical not of a possibly wide operand: saturate to
                    // one bit first, then flip.
                    let _ = writeln!(out, "    min(md.lyra_cmp_a, {}, 1);", r.operand(a));
                    let _ = writeln!(out, "    bit_xor({d}, md.lyra_cmp_a, 1);");
                }
                UnOp::BitNot => {
                    let _ = writeln!(out, "    bit_not({d}, {});", r.operand(a));
                }
                UnOp::Neg => {
                    let _ = writeln!(out, "    subtract({d}, 0, {});", r.operand(a));
                }
            }
        }
        IrOp::Call { name, args } => {
            let d = dst.unwrap();
            if let Some((flc, bits)) = hashes.get(&(alg_name.to_string(), i.0)) {
                let base = 1u64 << bits;
                let _ = writeln!(
                    out,
                    "    modify_field_with_hash_based_offset({d}, 0, {flc}, {base});"
                );
            } else {
                match name.as_str() {
                    "get_queue_len" => {
                        let _ = writeln!(out, "    modify_field({d}, eg_intr_md.deq_qdepth);");
                    }
                    "get_ingress_timestamp" => {
                        let _ = writeln!(
                            out,
                            "    modify_field({d}, ig_intr_md.ingress_global_tstamp);"
                        );
                    }
                    "get_egress_timestamp" => {
                        let _ = writeln!(
                            out,
                            "    modify_field({d}, eg_intr_md.egress_global_tstamp);"
                        );
                    }
                    "get_switch_id" => {
                        let _ = writeln!(out, "    modify_field({d}, md.lyra_switch_id);");
                    }
                    "get_ingress_port" => {
                        let _ = writeln!(out, "    modify_field({d}, ig_intr_md.ingress_port);");
                    }
                    "get_egress_port" => {
                        let _ = writeln!(out, "    modify_field({d}, eg_intr_md.egress_port);");
                    }
                    "min" | "max" => {
                        let (pa, pb) = (r.operand(&args[0]), r.operand(&args[1]));
                        let prim = if name == "min" { "min" } else { "max" };
                        let _ = writeln!(out, "    {prim}({d}, {pa}, {pb});");
                    }
                    other => {
                        let rendered: Vec<String> = args.iter().map(|a| r.operand(a)).collect();
                        let _ = writeln!(
                            out,
                            "    /* builtin */ modify_field({d}, {other}({}));",
                            rendered.join(", ")
                        );
                    }
                }
            }
        }
        IrOp::Action { name, args } => match name.as_str() {
            "drop" => {
                let _ = writeln!(out, "    drop();");
            }
            "add_header" => {
                let h = args
                    .first()
                    .map(|a| r.operand(a))
                    .unwrap_or_else(|| "lyra_bridge".into());
                let _ = writeln!(out, "    add_header({});", strip_md(&h));
            }
            "remove_header" => {
                let h = args
                    .first()
                    .map(|a| r.operand(a))
                    .unwrap_or_else(|| "lyra_bridge".into());
                let _ = writeln!(out, "    remove_header({});", strip_md(&h));
            }
            "copy_to_cpu" => {
                let rendered: Vec<String> = args.iter().map(|a| r.operand(a)).collect();
                let extra = if rendered.is_empty() {
                    String::new()
                } else {
                    format!(", {}", rendered.join(", "))
                };
                let _ = writeln!(out, "    clone_ingress_pkt_to_egress(250{extra});");
            }
            "mirror" => {
                let rendered: Vec<String> = args.iter().map(|a| r.operand(a)).collect();
                let extra = if rendered.is_empty() {
                    String::new()
                } else {
                    format!(", {}", rendered.join(", "))
                };
                let _ = writeln!(out, "    clone_egress_pkt_to_egress(251{extra});");
            }
            "set_egress_port" | "forward" => {
                let p = args
                    .first()
                    .map(|a| r.operand(a))
                    .unwrap_or_else(|| "0".into());
                let _ = writeln!(
                    out,
                    "    modify_field(ig_intr_md_for_tm.ucast_egress_port, {p});"
                );
            }
            "recirculate" => {
                let _ = writeln!(out, "    recirculate(68);");
            }
            "resubmit" => {
                let _ = writeln!(out, "    resubmit();");
            }
            "count" => {
                let _ = writeln!(out, "    count(lyra_counter, 0);");
            }
            other => {
                let _ = writeln!(out, "    /* action builtin {other} */ no_op();");
            }
        },
        IrOp::TableLookup { table, .. } => {
            // The looked-up value arrives as action data. This primitive
            // only appears in hit actions; on a miss the destination keeps
            // its previous (sticky) value, so nothing is emitted there.
            if let Some(ext) = ir.externs.get(table) {
                if let lyra_lang::ExternKind::Dict { values, .. } = &ext.kind {
                    if let (Some(d), Some(v)) = (&dst, values.first()) {
                        let param = format!("val_{}", v.name);
                        if params.iter().any(|(n, _)| n == &param) {
                            let _ = writeln!(out, "    modify_field({d}, {param});");
                        }
                    }
                }
            }
        }
        IrOp::TableMember { .. } => {
            // Hit/miss is implicit in which action ran; record it.
            if let Some(d) = &dst {
                let _ = writeln!(out, "    modify_field({d}, 1); /* table hit */");
            }
        }
        IrOp::GlobalRead { global, index } => {
            let _ = writeln!(
                out,
                "    register_read({}, {global}, {});",
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
                "    register_write({global}, {}, {});",
                r.operand(index),
                r.operand(value)
            );
        }
        IrOp::Slice { a, hi, lo } => {
            let d = dst.unwrap();
            let width = hi - lo + 1;
            let mask = if width >= 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let _ = writeln!(out, "    shift_right({d}, {}, {lo});", r.operand(a));
            let _ = writeln!(out, "    bit_and({d}, {d}, 0x{mask:x});");
        }
    }
}

fn strip_md(s: &str) -> String {
    s.strip_prefix("md.").unwrap_or(s).to_string()
}

/// Encode a stored comparison / logical connective with RMT ALU
/// primitives. There is no compare unit that writes a boolean, but
/// `min(x, 1)` saturates any nonzero value to 1, so:
///
/// * `x != y`  ≡ `min(x - y, 1)` (64-bit wrapping subtract);
/// * `x == y`  ≡ that, xor 1;
/// * `x > y`   ≡ `min(min(x, y) - x, 1)` (min ≠ x exactly when y < x);
/// * `x && y`  ≡ `min(x,1) & min(y,1)`, `||` likewise with or.
///
/// `md.lyra_cmp_a`/`md.lyra_cmp_b` are 64-bit scratch fields declared
/// whenever any action stores a boolean.
fn emit_bool_encoding(out: &mut String, d: &str, op: BinOp, pa: &str, pb: &str) {
    let s1 = "md.lyra_cmp_a";
    let s2 = "md.lyra_cmp_b";
    match op {
        BinOp::Ne => {
            let _ = writeln!(out, "    subtract({s1}, {pa}, {pb});");
            let _ = writeln!(out, "    min({s1}, {s1}, 1);");
            let _ = writeln!(out, "    modify_field({d}, {s1});");
        }
        BinOp::Eq => {
            let _ = writeln!(out, "    subtract({s1}, {pa}, {pb});");
            let _ = writeln!(out, "    min({s1}, {s1}, 1);");
            let _ = writeln!(out, "    bit_xor({d}, {s1}, 1);");
        }
        BinOp::Gt | BinOp::Le => {
            let _ = writeln!(out, "    min({s1}, {pa}, {pb});");
            let _ = writeln!(out, "    subtract({s1}, {s1}, {pa});");
            let _ = writeln!(out, "    min({s1}, {s1}, 1);");
            if op == BinOp::Gt {
                let _ = writeln!(out, "    modify_field({d}, {s1});");
            } else {
                let _ = writeln!(out, "    bit_xor({d}, {s1}, 1);");
            }
        }
        BinOp::Lt | BinOp::Ge => {
            let _ = writeln!(out, "    min({s1}, {pa}, {pb});");
            let _ = writeln!(out, "    subtract({s1}, {s1}, {pb});");
            let _ = writeln!(out, "    min({s1}, {s1}, 1);");
            if op == BinOp::Lt {
                let _ = writeln!(out, "    modify_field({d}, {s1});");
            } else {
                let _ = writeln!(out, "    bit_xor({d}, {s1}, 1);");
            }
        }
        BinOp::LAnd | BinOp::LOr => {
            let _ = writeln!(out, "    min({s1}, {pa}, 1);");
            let _ = writeln!(out, "    min({s2}, {pb}, 1);");
            let prim = if op == BinOp::LAnd {
                "bit_and"
            } else {
                "bit_or"
            };
            let _ = writeln!(out, "    {prim}({d}, {s1}, {s2});");
        }
        _ => unreachable!("emit_bool_encoding only handles comparisons/logicals"),
    }
}
