//! Code generation driver and shared instruction rendering.
//!
//! The emitters and the control-stub writer render from a plan alone; the
//! switch name enters an artifact only through this module's two header
//! writers, which write the first line of its code and of its stub.
//! [`generate`] therefore renders each distinct (ASIC, plan) pair once and
//! gives every other switch with an equal pair a copy under its own
//! header. At pod scale the placement gives every switch of one ASIC the
//! same plan: NetCache MULTI-SW on a k = 32 pod renders one program for
//! its 16 switches.

use std::fmt::Write;

use lyra_chips::{by_name, ChipModel, TargetLang};
use lyra_ir::{IrAlgorithm, IrOp, IrProgram, Operand};
use lyra_lang::ExternKind;
use lyra_synth::{Placement, SwitchPlan, SynthResult, SynthTable};
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
///
/// Each distinct (ASIC, plan) pair is rendered once, for the first switch
/// that has it in placement order; every later switch with an equal ASIC
/// and plan gets a copy of that artifact titled with its own name.
pub fn generate(
    ir: &IrProgram,
    topo: &Topology,
    result: &SynthResult,
) -> Result<Vec<Artifact>, CodegenError> {
    generate_placement(ir, topo, &result.placement)
}

fn generate_placement(
    ir: &IrProgram,
    topo: &Topology,
    placement: &Placement,
) -> Result<Vec<Artifact>, CodegenError> {
    let mut out: Vec<Artifact> = Vec::new();
    // The first switch of each (ASIC, plan) class: its plan and its index
    // in `out`.
    let mut firsts: Vec<(&SwitchPlan, usize)> = Vec::new();
    for (name, plan) in &placement.switches {
        if plan.instrs.is_empty() {
            continue;
        }
        let sw = topo.find(name).ok_or_else(|| CodegenError {
            message: format!("placement references unknown switch `{name}`"),
        })?;
        let asic = &topo.switch(sw).asic;
        let first = firsts
            .iter()
            .find(|&&(p, i)| out[i].asic == *asic && p == plan);
        let artifact = match first {
            Some(&(_, i)) => out[i].copy_for(name),
            None => {
                let chip = by_name(asic).ok_or_else(|| CodegenError {
                    message: format!("unknown ASIC `{asic}`"),
                })?;
                firsts.push((plan, out.len()));
                render(ir, name, plan, &chip)?
            }
        };
        out.push(artifact);
    }
    Ok(out)
}

/// Render one switch's artifact from its plan alone: what [`generate`]
/// does for the first switch of each (ASIC, plan) class.
fn render(
    ir: &IrProgram,
    switch: &str,
    plan: &SwitchPlan,
    chip: &ChipModel,
) -> Result<Artifact, CodegenError> {
    let body = match chip.lang {
        TargetLang::P414 => crate::p414::emit(ir, plan, chip).map_err(|e| CodegenError {
            message: format!("switch `{switch}` ({}): {}", chip.name, e.message),
        })?,
        TargetLang::P416 => crate::p416::emit(ir, plan, chip),
        TargetLang::Npl => crate::npl::emit(ir, plan),
    };
    let stub = crate::control::control_plane_stub(ir, plan);
    Ok(Artifact {
        switch: switch.to_string(),
        asic: chip.name.clone(),
        lang: chip.lang,
        code: titled(&body, |out| {
            write_code_header(out, chip.lang, switch, &chip.name)
        }),
        control_plane: titled(&stub, |out| write_stub_header(out, switch)),
    })
}

impl Artifact {
    /// This artifact's program titled for `switch`: the header line is
    /// rewritten and the rest of the text is this artifact's.
    pub fn code_for(&self, switch: &str) -> String {
        titled(after_header(&self.code), |out| {
            write_code_header(out, self.lang, switch, &self.asic)
        })
    }

    /// A copy of this artifact for `switch`, program and stub titled with
    /// its name.
    fn copy_for(&self, switch: &str) -> Artifact {
        Artifact {
            switch: switch.to_string(),
            asic: self.asic.clone(),
            lang: self.lang,
            code: self.code_for(switch),
            control_plane: titled(after_header(&self.control_plane), |out| {
                write_stub_header(out, switch)
            }),
        }
    }
}

/// The first line of a switch's program.
fn write_code_header(out: &mut String, lang: TargetLang, switch: &str, asic: &str) {
    let _ = writeln!(
        out,
        "/* {} program for {switch} ({asic}) — generated by Lyra */",
        lang.name()
    );
}

/// The first line of a switch's control-plane stub.
fn write_stub_header(out: &mut String, switch: &str) {
    let _ = writeln!(
        out,
        "# Control-plane stub for {switch} — generated by Lyra (do not edit)"
    );
}

/// `body` under the line `header` writes.
fn titled(body: &str, header: impl FnOnce(&mut String)) -> String {
    let mut out = String::with_capacity(body.len() + 96);
    header(&mut out);
    out.push_str(body);
    out
}

/// The text after an artifact's header line.
fn after_header(text: &str) -> &str {
    text.split_once('\n').map_or("", |(_, body)| body)
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
    use lyra::{CompileOutput, CompileRequest, Compiler};
    use lyra_apps::{figure9_corpus, programs};
    use lyra_ir::frontend;
    use lyra_topo::{fat_tree_pod, figure1_network, FaultSet, Layer};

    /// MULTI-SW over a whole pod, traffic entering at the Aggs.
    fn pod_scopes(alg: &str, k: usize) -> String {
        let names = |p: &str| {
            (1..=k / 2)
                .map(|i| format!("{p}{i}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{alg}: [ ToR*,Agg* | MULTI-SW | ({}->{}) ]",
            names("Agg"),
            names("ToR")
        )
    }

    /// The compiles whose placements the sharing test generates from.
    fn compiles() -> Vec<(String, CompileOutput, Topology)> {
        let compile = |what: String, src: &str, scopes: &str, topo: Topology| {
            let req = CompileRequest::new(src, scopes, topo.clone());
            let out = Compiler::new()
                .compile(&req)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            (what, out, topo)
        };
        let mut out = Vec::new();
        for asic in ["tofino-32q", "silicon-one", "trident4"] {
            for entry in figure9_corpus() {
                let mut topo = Topology::new();
                topo.add_switch("ToR1", Layer::ToR, asic);
                let scopes = entry
                    .scopes
                    .lines()
                    .filter_map(|l| l.split(':').next())
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(|a| format!("{a}: [ ToR1 | PER-SW | - ]"))
                    .collect::<Vec<_>>()
                    .join("\n");
                out.push(compile(
                    format!("{} @{asic}", entry.name),
                    &entry.source,
                    &scopes,
                    topo,
                ));
            }
        }
        let pod8 = || fat_tree_pod(8, "tofino-32q", "trident4");
        let netcache = programs::netcache();
        let multi = pod_scopes("netcache", 8);
        out.push(compile(
            "NetCache MULTI-SW k=8".into(),
            &netcache,
            &multi,
            pod8(),
        ));
        out.push(compile(
            "NetCache PER-SW k=8".into(),
            &netcache,
            "netcache: [ ToR*,Agg* | PER-SW | - ]",
            pod8(),
        ));
        out.push(compile(
            "LB[4000000] MULTI-SW fig1".into(),
            &programs::load_balancer(4_000_000),
            "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
            figure1_network(),
        ));
        out.push(compile(
            "LB[5500000] MULTI-SW k=8".into(),
            &programs::load_balancer(5_500_000),
            &pod_scopes("loadbalancer", 8),
            pod8(),
        ));
        let req = CompileRequest::new(&netcache, &multi, pod8());
        let compiler = Compiler::new();
        let healthy = compiler.compile(&req).unwrap();
        let faults = FaultSet::new().with_switch("Agg1");
        let r = compiler
            .recompile_for_faults(&req, &healthy, &faults)
            .unwrap();
        out.push(("NetCache MULTI-SW k=8 Agg1 fails".into(), r.output, pod8()));
        out
    }

    #[test]
    fn shared_artifacts_equal_single_switch_renders() {
        // Every artifact `generate` hands out, rendered or copied, is the
        // artifact its switch's own plan renders to on its own.
        let mut copies = 0;
        for (what, out, topo) in compiles() {
            let artifacts = generate_placement(&out.ir, &topo, &out.placement).unwrap();
            assert_eq!(artifacts.len(), out.placement.used_switches(), "{what}");
            let mut classes: Vec<(&str, &SwitchPlan)> = Vec::new();
            for a in &artifacts {
                let plan = &out.placement.switches[&a.switch];
                let chip = by_name(&a.asic).unwrap();
                let single = render(&out.ir, &a.switch, plan, &chip).unwrap();
                assert!(
                    *a == single,
                    "{what}: {} differs from its single-switch render",
                    a.switch
                );
                if classes.contains(&(a.asic.as_str(), plan)) {
                    copies += 1;
                } else {
                    classes.push((&a.asic, plan));
                }
            }
        }
        // NetCache shares one plan per ASIC on the k = 8 pod: 3 copies in
        // MULTI-SW and 3 after Agg1 fails (the four ToRs hold the code), 6 in
        // PER-SW. The LB splits carry values between named hops, so each of
        // their plans is distinct.
        assert_eq!(copies, 12);
    }

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
