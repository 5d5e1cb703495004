//! Code generation driver and shared instruction rendering.

use lyra_chips::{by_name, TargetLang};
use lyra_ir::{IrAlgorithm, IrOp, IrProgram, Operand};
use lyra_lang::ExternKind;
use lyra_synth::{SwitchPlan, SynthResult, SynthTable};
use lyra_topo::Topology;

/// One piece of generated chip-specific code for one switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Switch name.
    pub switch: String,
    /// ASIC model name.
    pub asic: String,
    /// Target language.
    pub lang: TargetLang,
    /// The chip-specific program text.
    pub code: String,
    /// Python control-plane stub (§5.8).
    pub control_plane: String,
}

/// Code generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError {
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codegen error: {}", self.message)
    }
}

impl std::error::Error for CodegenError {}

/// Generate one artifact per switch that received code.
pub fn generate(
    ir: &IrProgram,
    topo: &Topology,
    result: &SynthResult,
) -> Result<Vec<Artifact>, CodegenError> {
    let mut out = Vec::new();
    for (name, plan) in &result.placement.switches {
        if plan.instrs.is_empty() {
            continue;
        }
        let sw = topo.find(name).ok_or_else(|| CodegenError {
            message: format!("placement references unknown switch `{name}`"),
        })?;
        let chip = by_name(&topo.switch(sw).asic).ok_or_else(|| CodegenError {
            message: format!("unknown ASIC `{}`", topo.switch(sw).asic),
        })?;
        let code = match chip.lang {
            TargetLang::P414 => crate::p414::emit(ir, name, plan, &chip)?,
            TargetLang::P416 => crate::p416::emit(ir, name, plan, &chip),
            TargetLang::Npl => crate::npl::emit(ir, name, plan, &chip),
        };
        let control_plane = crate::control::control_plane_stub(ir, name, plan);
        out.push(Artifact {
            switch: name.clone(),
            asic: chip.name.clone(),
            lang: chip.lang,
            code,
            control_plane,
        });
    }
    Ok(out)
}

/// A rendering context: resolves SSA values back to storage names.
pub struct Render<'a> {
    /// The algorithm being rendered.
    pub alg: &'a IrAlgorithm,
    /// Prefix applied to locals (algorithm isolation — §7.3).
    pub prefix: &'a str,
}

impl<'a> Render<'a> {
    /// Storage name of an operand (all SSA versions of a base share
    /// storage).
    pub fn operand(&self, o: &Operand) -> String {
        match o {
            Operand::Const(c) => {
                if *c > 255 {
                    format!("0x{c:x}")
                } else {
                    c.to_string()
                }
            }
            Operand::Value(v) => self.value(*v),
        }
    }

    /// Storage name of a value.
    pub fn value(&self, v: lyra_ir::ValueId) -> String {
        let info = self.alg.value(v);
        if info.base.contains('.') {
            // Header field: used verbatim.
            info.base.clone()
        } else {
            // Local / metadata: algorithm-prefixed metadata field.
            format!("md.{}_{}", self.prefix, sanitize(&info.base))
        }
    }

    /// Width of a value's storage.
    pub fn width(&self, v: lyra_ir::ValueId) -> u32 {
        self.alg.value(v).width.max(1)
    }
}

/// Make a base name identifier-safe (`%t3` → `t3`).
pub fn sanitize(base: &str) -> String {
    base.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect::<String>()
        .trim_start_matches('_')
        .to_string()
}

/// All metadata bases (name, width) an instruction set touches — the
/// generated program's metadata struct.
pub fn metadata_fields(alg: &IrAlgorithm, instrs: &[lyra_ir::InstrId]) -> Vec<(String, u32)> {
    let mut seen = std::collections::BTreeMap::new();
    let mut add = |v: lyra_ir::ValueId| {
        let info = alg.value(v);
        if !info.base.contains('.') {
            seen.entry(sanitize(&info.base))
                .or_insert(info.width.max(1));
        }
    };
    for &i in instrs {
        let instr = alg.instr(i);
        for o in instr.op.reads() {
            if let Operand::Value(v) = o {
                add(v);
            }
        }
        if let Some(d) = instr.dst {
            add(d);
        }
        if let Some(p) = instr.pred {
            add(p);
        }
    }
    seen.into_iter().collect()
}

/// Header instances referenced by the instruction set.
pub fn header_instances(alg: &IrAlgorithm, instrs: &[lyra_ir::InstrId]) -> Vec<String> {
    let mut seen = std::collections::BTreeSet::new();
    for &i in instrs {
        let instr = alg.instr(i);
        let mut values: Vec<lyra_ir::ValueId> = Vec::new();
        for o in instr.op.reads() {
            if let Operand::Value(v) = o {
                values.push(v);
            }
        }
        if let Some(d) = instr.dst {
            values.push(d);
        }
        for v in values {
            if let Some((inst, _)) = alg.value(v).base.split_once('.') {
                seen.insert(inst.to_string());
            }
        }
    }
    seen.into_iter().collect()
}

/// Gather every instruction deployed on a switch across algorithms, with
/// the owning algorithm.
pub fn deployed_instrs<'a>(
    ir: &'a IrProgram,
    plan: &SwitchPlan,
) -> Vec<(&'a IrAlgorithm, Vec<lyra_ir::InstrId>)> {
    let mut out = Vec::new();
    for (alg_name, instrs) in &plan.instrs {
        if let Some(alg) = ir.algorithm(alg_name) {
            out.push((alg, instrs.clone()));
        }
    }
    out
}

/// The registers (globals) the plan's instructions touch, by name, with
/// their (width, length).
pub fn used_globals<'a>(ir: &'a IrProgram, plan: &SwitchPlan) -> Vec<(&'a str, (u32, u64))> {
    let mut used = std::collections::BTreeSet::new();
    for (alg, instrs) in deployed_instrs(ir, plan) {
        used.extend(instrs.iter().filter_map(|&i| alg.instr(i).op.global()));
    }
    used.into_iter()
        .filter_map(|g| ir.globals.get_key_value(g))
        .map(|(g, &shape)| (g.as_str(), shape))
        .collect()
}

/// Action parameters, with their widths: an extern dict's value columns
/// become action data.
pub fn action_params(ir: &IrProgram, t: &SynthTable) -> Vec<(String, u32)> {
    match t.extern_name().and_then(|e| ir.externs.get(e)) {
        Some(ext) => match &ext.kind {
            ExternKind::Dict { values, .. } => values
                .iter()
                .map(|v| (format!("val_{}", v.name), v.ty.width))
                .collect(),
            ExternKind::List { .. } => Vec::new(),
        },
        None => Vec::new(),
    }
}

/// The match keys of an extern-backed table: the key each lookup of the
/// extern reads, under the extern's match kind (Appendix D: range falls
/// back to ternary on chips without native range support — the control
/// plane expands the rules).
pub fn table_keys(ir: &IrProgram, t: &SynthTable, r: &Render) -> Vec<(String, &'static str)> {
    let Some(e) = t.extern_name() else {
        return Vec::new();
    };
    let kind = ir
        .externs
        .get(e)
        .map_or("exact", |x| x.match_kind.keyword());
    let mut keys: Vec<(String, &'static str)> = t
        .instrs
        .iter()
        .filter_map(|&i| match &r.alg.instr(i).op {
            IrOp::TableMember { key, .. } | IrOp::TableLookup { key, .. } => {
                Some((r.operand(key), kind))
            }
            _ => None,
        })
        .collect();
    keys.dedup();
    keys
}

/// Does the op represent a hash builtin?
pub fn is_hash_call(op: &IrOp) -> Option<(&str, &Vec<Operand>)> {
    match op {
        IrOp::Call { name, args }
            if name == "crc32_hash" || name == "crc16_hash" || name == "identity_hash" =>
        {
            Some((name.as_str(), args))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_ir::frontend;

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize("%t3"), "t3");
        assert_eq!(sanitize("a.b"), "a_b");
        assert_eq!(sanitize("plain"), "plain");
    }

    #[test]
    fn metadata_collection() {
        let ir = frontend("pipeline[P]{a}; algorithm a { x = ipv4.src + 1; }").unwrap();
        let alg = &ir.algorithms[0];
        let instrs: Vec<_> = alg.instr_ids().collect();
        let md = metadata_fields(alg, &instrs);
        assert!(md.iter().any(|(n, _)| n == "x"));
        assert!(md.iter().all(|(n, _)| !n.contains('.')));
        let hdrs = header_instances(alg, &instrs);
        assert_eq!(hdrs, vec!["ipv4".to_string()]);
    }
}
