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

use std::collections::{BTreeMap, BTreeSet};
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
    let storage = Storage::new(ir, plan);
    let body = match chip.lang {
        TargetLang::P414 => {
            crate::p414::emit(ir, plan, chip, &storage).map_err(|e| CodegenError {
                message: format!("switch `{switch}` ({}): {}", chip.name, e.message),
            })?
        }
        TargetLang::P416 => crate::p416::emit(ir, plan, chip, &storage),
        TargetLang::Npl => crate::npl::emit(ir, plan, &storage),
    };
    let stub = crate::control::control_plane_stub(ir, plan, &storage);
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

/// Metadata fields an emitter declares for itself rather than for an IR
/// base: P4₁₄'s comparison scratch (`md.lyra_cmp_a`, `md.lyra_cmp_b`). No
/// base's field takes either name.
pub(crate) const SCRATCH_FIELDS: [&str; 2] = ["lyra_cmp_a", "lyra_cmp_b"];

/// One switch program's storage namespace (§5.7): the field each IR base
/// of each algorithm the plan hosts lives in, and the metadata fields it
/// declares. Header fields keep their dotted name. A local `x` of
/// algorithm `alg` is the field `alg_x` (`%t3` → `alg_t3`, an inlined
/// `f$1$y` → `alg_f_1_y`). The map is injective: when two bases claim one
/// field, a user-written local beats a compiler-made name (one holding `%`
/// or `$`), and otherwise the first algorithm in plan order (by name) wins;
/// every other claimant — and any base claiming one of `SCRATCH_FIELDS` —
/// takes the smallest `_<k>` suffix that nothing claims.
pub struct Storage<'ir> {
    /// Algorithm → IR base → index into `fields`.
    index: BTreeMap<&'ir str, BTreeMap<&'ir str, usize>>,
    /// Metadata fields (name, width), in declaration order: by algorithm
    /// in plan order, then by the name each base claims.
    fields: Vec<(String, u32)>,
}

impl<'ir> Storage<'ir> {
    /// The namespace of every non-header base the plan's instructions
    /// touch, each with the width of the first of its values touched.
    pub fn new(ir: &'ir IrProgram, plan: &'ir SwitchPlan) -> Storage<'ir> {
        let mut index = BTreeMap::new();
        // (claimed name, base, width) of every field, in declaration order.
        let mut claims: Vec<(String, &str, u32)> = Vec::new();
        for (alg_name, instrs) in &plan.instrs {
            let Some(alg) = ir.algorithm(alg_name) else {
                continue;
            };
            let mut bases: BTreeMap<&str, u32> = BTreeMap::new();
            for &i in instrs {
                let instr = alg.instr(i);
                let reads = instr.op.reads().into_iter().filter_map(|o| match o {
                    Operand::Value(v) => Some(v),
                    Operand::Const(_) => None,
                });
                for v in reads.chain(instr.dst).chain(instr.pred) {
                    let info = alg.value(v);
                    if !info.base.contains('.') {
                        bases.entry(&info.base).or_insert(info.width.max(1));
                    }
                }
            }
            let mut named: Vec<_> = bases
                .into_iter()
                .map(|(b, w)| (claim(alg_name, b), b, w))
                .collect();
            named.sort_unstable();
            let at = claims.len();
            let positions = named.iter().enumerate().map(|(j, c)| (c.1, at + j));
            index.insert(alg_name.as_str(), positions.collect());
            claims.extend(named);
        }
        let made = |base: &str| base.contains(['%', '$']);
        // The emitters' own scratch fields are claimed before any base.
        let mut owner: BTreeMap<&str, usize> = SCRATCH_FIELDS.map(|n| (n, usize::MAX)).into();
        for (i, (name, base, _)) in claims.iter().enumerate() {
            let o = owner.entry(name).or_insert(i);
            if *o != usize::MAX && made(claims[*o].1) && !made(base) {
                *o = i;
            }
        }
        let mut renamed = BTreeSet::new();
        let mut fields = Vec::with_capacity(claims.len());
        for (i, (name, _, width)) in claims.iter().enumerate() {
            let mut name = name.clone();
            if owner[name.as_str()] != i {
                let mut k = 1;
                while owner.contains_key(format!("{name}_{k}").as_str())
                    || renamed.contains(&format!("{name}_{k}"))
                {
                    k += 1;
                }
                name = format!("{name}_{k}");
                renamed.insert(name.clone());
            }
            fields.push((name, *width));
        }
        Storage { index, fields }
    }

    /// The metadata fields to declare, (name, width), in declaration order.
    pub fn fields(&self) -> &[(String, u32)] {
        &self.fields
    }

    /// Storage name of base `base` of algorithm `alg`: a header field
    /// verbatim, a local as `md.<field>`. A base no instruction of the plan
    /// touches has no field; it is spelled as the name it would claim.
    pub fn name(&self, alg: &str, base: &str) -> String {
        if base.contains('.') {
            return base.to_string();
        }
        match self.index.get(alg).and_then(|bases| bases.get(base)) {
            Some(&at) => format!("md.{}", self.fields[at].0),
            None => format!("md.{}", claim(alg, base)),
        }
    }

    /// A rendering context for algorithm `alg` over this namespace.
    pub fn render<'a>(&'a self, alg: &'a IrAlgorithm) -> Render<'a> {
        Render { alg, storage: self }
    }
}

/// A rendering context: resolves SSA values back to storage names.
pub struct Render<'a> {
    alg: &'a IrAlgorithm,
    storage: &'a Storage<'a>,
}

impl<'a> Render<'a> {
    /// The algorithm being rendered.
    pub fn alg(&self) -> &'a IrAlgorithm {
        self.alg
    }

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
        self.storage.name(&self.alg.name, &self.alg.value(v).base)
    }
}

/// The field base `base` of algorithm `alg` claims.
fn claim(alg: &str, base: &str) -> String {
    let mut name = String::with_capacity(alg.len() + 1 + base.len());
    name.push_str(alg);
    name.push('_');
    name.extend(sanitize(base));
    name
}

/// Make a base name identifier-safe (`%t3` → `t3`).
fn sanitize(base: &str) -> impl Iterator<Item = char> + '_ {
    base.trim_start_matches(|c: char| !c.is_ascii_alphanumeric())
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
}

/// The bridge fields of the plan's carried values (Algorithm 2 / §5.6),
/// (name, width), `carried_in` then `carried_out`, repeats kept.
pub fn bridge_fields(plan: &SwitchPlan) -> impl Iterator<Item = (String, u32)> + '_ {
    plan.carried_in
        .iter()
        .chain(&plan.carried_out)
        .map(|cv| (sanitize(&cv.name).collect(), cv.width.max(1)))
}

/// The plan's parser-hoisted constant moves (§5.4), rendered as
/// (destination, value) pairs.
pub fn hoisted_sets(ir: &IrProgram, plan: &SwitchPlan, storage: &Storage) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (alg_name, hoisted) in &plan.parser_sets {
        let Some(alg) = ir.algorithm(alg_name) else {
            continue;
        };
        let r = storage.render(alg);
        for &i in hoisted {
            if let (Some(d), IrOp::Assign(a)) = (alg.instr(i).dst, &alg.instr(i).op) {
                out.push((r.value(d), r.operand(a)));
            }
        }
    }
    out
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
        let sanitize = |base| sanitize(base).collect::<String>();
        assert_eq!(sanitize("%t3"), "t3");
        assert_eq!(sanitize("a.b"), "a_b");
        assert_eq!(sanitize("plain"), "plain");
    }

    /// A plan hosting every instruction of every algorithm of `ir`.
    fn whole(ir: &IrProgram) -> SwitchPlan {
        let instrs = ir.algorithms.iter();
        SwitchPlan {
            instrs: instrs
                .map(|a| (a.name.clone(), a.instr_ids().collect()))
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn metadata_collection() {
        let ir = frontend("pipeline[P]{a}; algorithm a { x = ipv4.src + 1; }").unwrap();
        let plan = whole(&ir);
        let storage = Storage::new(&ir, &plan);
        assert_eq!(storage.fields(), [("a_x".to_string(), 32)]);
        assert_eq!(storage.name("a", "ipv4.src"), "ipv4.src");
    }

    #[test]
    fn colliding_names_take_free_suffixes() {
        // `a`'s local `b_c` and `a_b`'s local `c` both claim `a_b_c`: the
        // first algorithm keeps it. In `t`, the temporary `%t1` and the
        // inlined `f$1$x` lose to the locals `t1` and `f_1_x`; `%t1` skips
        // `t_t1_1`, which the local `t1_1` claims.
        let ir = frontend(
            "pipeline[P]{a -> a_b -> t}; \
             algorithm a { b_c = ipv4.ttl + 1; ipv4.ttl = b_c; } \
             algorithm a_b { c = ipv4.ttl + 2; ipv4.ttl = c; } \
             algorithm t { t1 = ipv4.ttl; t1_1 = ipv4.ttl; f_1_x = 3; f(); \
                 ipv4.ttl = t1 + t1_1 + f_1_x + 1; } \
             func f() { bit[32] x; x = ipv4.ttl + 1; ipv4.ttl = x; }",
        )
        .unwrap();
        let plan = whole(&ir);
        let storage = Storage::new(&ir, &plan);
        let names: Vec<&str> = storage.fields().iter().map(|(n, _)| n.as_str()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "{names:?}");
        assert_eq!(storage.name("a", "b_c"), "md.a_b_c");
        assert_eq!(storage.name("a_b", "c"), "md.a_b_c_1");
        assert_eq!(storage.name("t", "t1"), "md.t_t1");
        assert_eq!(storage.name("t", "%t1"), "md.t_t1_2");
        assert_eq!(storage.name("t", "t1_1"), "md.t_t1_1");
        assert_eq!(storage.name("t", "f_1_x"), "md.t_f_1_x");
        assert_eq!(storage.name("t", "f$1$x"), "md.t_f_1_x_1");
    }
}
