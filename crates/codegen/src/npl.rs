//! NPL emitter (Trident-4 targets).
//!
//! Emits the NPL shape of Figure 2: `logical_table` blocks with
//! `key_construct()` (one `_LOOKUPn` branch per merged lookup) and
//! `fields_assign()`, `logical_register` declarations for global arrays,
//! a bus struct for local variables, `function` blocks for plain
//! computation layers, and a `program` block wiring the lookups.
//!
//! Semantics of the emitted guards (the oracle executes them literally):
//! `fields_assign()` runs once per lookup pass; a statement guarded by
//! `_LOOKUPn` executes during pass `n` only, and one guarded by `_HITn`
//! executes during pass `n` only when that pass's lookup hit. Statements
//! are laid out in IR order so pass `n` carries exactly the work between
//! the `n`-th and `n+1`-th table ops, and conditional IR instructions
//! keep their predicate as an `&&` term of the guard.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

use lyra_ir::{InstrId, IrOp, IrProgram, Operand};
use lyra_lang::UnOp;
use lyra_synth::util::compute_plumbing;
use lyra_synth::{SwitchPlan, TableKind};

use crate::emit::{bridge_fields, hoisted_sets, used_globals, Render, Storage};
use crate::oracle::rules;

/// Emit the NPL program for one switch plan: every line after the
/// header line, which `crate::emit` writes.
pub fn emit(ir: &IrProgram, plan: &SwitchPlan, storage: &Storage) -> String {
    let mut out = String::new();

    // --- Bus struct (local variables) --------------------------------------
    let _ = writeln!(out, "bus lyra_bus {{");
    let mut any = !storage.fields().is_empty();
    for (n, w) in storage.fields() {
        let _ = writeln!(out, "    bit[{w}] {n};");
    }
    for (n, w) in bridge_fields(plan) {
        let _ = writeln!(out, "    bit[{w}] bridge_{n};");
        any = true;
    }
    if !any {
        let _ = writeln!(out, "    bit[8] _pad;");
    }
    let _ = writeln!(out, "}}");

    // --- Logical registers ----------------------------------------------------
    for (g, (w, len)) in used_globals(ir, plan) {
        let _ = writeln!(out, "logical_register {g} {{");
        let _ = writeln!(out, "    table_type : register;");
        let _ = writeln!(out, "    num_entries : {len};");
        let _ = writeln!(out, "    fields {{ bit[{w}] value; }}");
        let _ = writeln!(out, "}}");
    }

    // Plumbing per algorithm, for rendering inline conditions.
    let mut plumb: BTreeMap<String, BTreeSet<InstrId>> = BTreeMap::new();
    let mut plumbing_of = |alg: &lyra_ir::IrAlgorithm| -> BTreeSet<InstrId> {
        plumb
            .entry(alg.name.clone())
            .or_insert_with(|| {
                let subset = plan.instrs.get(&alg.name).cloned().unwrap_or_default();
                compute_plumbing(alg, &subset)
            })
            .clone()
    };

    // --- Parser-hoisted assignments ----------------------------------------
    let mut program_calls: Vec<String> = Vec::new();
    if !plan.parser_sets.is_empty() {
        let _ = writeln!(out, "function lyra_parser_init() {{");
        for (d, v) in hoisted_sets(ir, plan, storage) {
            let _ = writeln!(out, "    {} = {};", bus_name(&d), bus_name(&v));
        }
        let _ = writeln!(out, "}}");
        program_calls.push("lyra_parser_init();".to_string());
    }

    // --- Logical tables -----------------------------------------------------
    for t in &plan.tables {
        let Some(alg) = ir.algorithm(&t.algorithm) else {
            continue;
        };
        let r = storage.render(alg);
        let plumbing = plumbing_of(alg);
        let cond_of = |i: InstrId| -> Option<String> {
            alg.instr(i)
                .pred
                .map(|p| rules::to_bus_cond(&rules::render_cond(alg, &r, &plumbing, p, 0)))
        };
        let mut sorted: Vec<InstrId> = t.instrs.clone();
        sorted.sort();
        match &t.kind {
            TableKind::NplLogical { .. } | TableKind::ExternMatch { .. }
                if t.extern_name().is_some() =>
            {
                let lookups = match &t.kind {
                    TableKind::NplLogical { lookups, .. } => *lookups,
                    _ => 1,
                };
                let ext = ir.externs.get(t.extern_name().unwrap());
                let key_w = ext.map(|e| e.key_width()).unwrap_or(32);
                let table_type = if t.match_kind.uses_tcam() {
                    "tcam"
                } else {
                    "hash"
                };
                let _ = writeln!(out, "logical_table {} {{", t.name);
                let _ = writeln!(out, "    table_type : {table_type};");
                let _ = writeln!(out, "    min_size : {};", t.entries.max(1));
                let _ = writeln!(out, "    max_size : {};", t.entries.max(1));
                let _ = writeln!(out, "    keys {{ bit[{key_w}] key; }}");
                let _ = writeln!(out, "    key_construct() {{");
                let key_exprs: Vec<String> = sorted
                    .iter()
                    .filter_map(|&i| match &alg.instr(i).op {
                        IrOp::TableMember { key, .. } | IrOp::TableLookup { key, .. } => {
                            Some(r.operand(key))
                        }
                        _ => None,
                    })
                    .collect();
                for (li, k) in key_exprs.iter().enumerate().take(lookups as usize) {
                    let _ = writeln!(out, "        if (_LOOKUP{li}) {{");
                    let _ = writeln!(out, "            key = {};", bus_name(k));
                    let _ = writeln!(out, "        }}");
                }
                let _ = writeln!(out, "    }}");
                // One statement per IR instruction, in IR order. The k-th
                // table op belongs to lookup pass k; plain statements run
                // in the pass of the most recent table op before them.
                let _ = writeln!(out, "    fields_assign() {{");
                let mut ops_seen: u32 = 0;
                for &i in &sorted {
                    let instr = alg.instr(i);
                    let cond = cond_of(i);
                    if rules::is_table_op(&instr.op) {
                        let base = format!("_HIT{ops_seen}");
                        let guard = match &cond {
                            Some(c) => format!("{base} && ({c})"),
                            None => base,
                        };
                        let _ = writeln!(out, "        if ({guard}) {{");
                        if let Some(d) = instr.dst {
                            let dst = bus_name(&r.value(d));
                            match &instr.op {
                                IrOp::TableLookup { .. } => {
                                    let _ = writeln!(out, "            {dst} = {}_value;", t.name);
                                }
                                _ => {
                                    let _ = writeln!(out, "            {dst} = 1;");
                                }
                            }
                        }
                        let _ = writeln!(out, "        }}");
                        ops_seen += 1;
                    } else {
                        // `ops_seen` table ops precede this statement, so it
                        // belongs to pass `ops_seen - 1`: pass k's key is
                        // constructed before its fields_assign runs, so
                        // guarding under _LOOKUP{ops_seen} would execute the
                        // statement after the next lookup already read its
                        // key — a stale read for any statement the key
                        // depends on.
                        let pass = ops_seen.saturating_sub(1).min(lookups.saturating_sub(1));
                        let base = format!("_LOOKUP{pass}");
                        let guard = match &cond {
                            Some(c) => format!("{base} && ({c})"),
                            None => base,
                        };
                        let _ = writeln!(out, "        if ({guard}) {{");
                        emit_stmt(&mut out, &r, i, 3);
                        let _ = writeln!(out, "        }}");
                    }
                }
                let _ = writeln!(out, "    }}");
                let _ = writeln!(out, "}}");
                for li in 0..lookups {
                    program_calls.push(format!("{}.lookup({li});", t.name));
                }
            }
            TableKind::Register { global } => {
                // Access functions around the logical register.
                let fname = format!("{}_access", t.name);
                let _ = writeln!(out, "function {fname}() {{");
                emit_guarded_body(&mut out, &r, &sorted, &cond_of);
                let _ = writeln!(out, "}}");
                let _ = global;
                program_calls.push(format!("{fname}();"));
            }
            _ => {
                // Plain computation layer → NPL function.
                let fname = format!("{}_fn", t.name);
                let _ = writeln!(out, "function {fname}() {{");
                emit_guarded_body(&mut out, &r, &sorted, &cond_of);
                let _ = writeln!(out, "}}");
                program_calls.push(format!("{fname}();"));
            }
        }
    }

    // --- Program ----------------------------------------------------------------
    let _ = writeln!(out, "program lyra_main {{");
    for c in &program_calls {
        let _ = writeln!(out, "    {c}");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Emit a function body: each instruction in IR order, wrapped in an
/// `if (cond)` guard when the IR instruction is predicated.
fn emit_guarded_body(
    out: &mut String,
    r: &Render,
    instrs: &[InstrId],
    cond_of: &dyn Fn(InstrId) -> Option<String>,
) {
    for &i in instrs {
        match cond_of(i) {
            Some(c) => {
                let _ = writeln!(out, "    if ({c}) {{");
                emit_stmt(out, r, i, 2);
                let _ = writeln!(out, "    }}");
            }
            None => emit_stmt(out, r, i, 1),
        }
    }
}

/// NPL bus field reference: locals go through the bus struct.
fn bus_name(rendered: &str) -> String {
    match rendered.strip_prefix("md.") {
        Some(rest) => format!("lyra_bus.{rest}"),
        None => rendered.to_string(),
    }
}

fn emit_stmt(out: &mut String, r: &Render, i: lyra_ir::InstrId, indent: usize) {
    let pad = "    ".repeat(indent);
    let instr = r.alg().instr(i);
    let dst = instr.dst.map(|d| bus_name(&r.value(d)));
    let op_name = |o: &Operand| bus_name(&r.operand(o));
    match &instr.op {
        IrOp::Assign(a) => {
            let _ = writeln!(out, "{pad}{} = {};", dst.unwrap(), op_name(a));
        }
        IrOp::Binary { op, a, b } => {
            // NPL's logical forms saturate wide operands (2 && 1 is 1).
            let (pa, pb) = (op_name(a), op_name(b));
            let _ = writeln!(out, "{pad}{} = {pa} {} {pb};", dst.unwrap(), op.symbol());
        }
        IrOp::Unary { op, a } => {
            let sym = match op {
                UnOp::Not => "!",
                UnOp::BitNot => "~",
                UnOp::Neg => "-",
            };
            let _ = writeln!(out, "{pad}{} = {sym}{};", dst.unwrap(), op_name(a));
        }
        IrOp::Call { name, args } => {
            let rendered: Vec<String> = args.iter().map(&op_name).collect();
            let _ = writeln!(
                out,
                "{pad}{} = {name}({});",
                dst.unwrap(),
                rendered.join(", ")
            );
        }
        IrOp::Action { name, args } => {
            let rendered: Vec<String> = args.iter().map(&op_name).collect();
            let _ = writeln!(out, "{pad}{name}({});", rendered.join(", "));
        }
        IrOp::TableLookup { table, .. } => {
            let _ = writeln!(out, "{pad}{} = {table}_value;", dst.unwrap());
        }
        IrOp::TableMember { .. } => {
            let _ = writeln!(out, "{pad}{} = 1;", dst.unwrap());
        }
        IrOp::GlobalRead { global, index } => {
            let _ = writeln!(
                out,
                "{pad}{} = {global}.value[{}];",
                dst.unwrap(),
                op_name(index)
            );
        }
        IrOp::GlobalWrite {
            global,
            index,
            value,
        } => {
            let _ = writeln!(
                out,
                "{pad}{global}.value[{}] = {};",
                op_name(index),
                op_name(value)
            );
        }
        IrOp::Slice { a, hi, lo } => {
            let _ = writeln!(out, "{pad}{} = {}[{hi}:{lo}];", dst.unwrap(), op_name(a));
        }
    }
}
