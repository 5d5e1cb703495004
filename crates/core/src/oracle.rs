//! Cross-backend semantic oracle (differential checking of emitted code).
//!
//! The compiler's translators are the least-verified link in the chain: a
//! placement can be solver-correct while the emitted P4₁₄/P4₁₆/NPL silently
//! diverges from the program's meaning. This module closes that gap by
//! *executing the emitted artifacts*: each generated program is parsed back
//! and lifted into IR ([`lyra_codegen::oracle::lift`]) once, then both it
//! and the exact instruction subset the switch hosts run on the IR
//! interpreter ([`lyra_ir::execute`]) against seeded packets, and both
//! outcomes go through one projection before they are compared.
//!
//! For every case the oracle compares three observable surfaces:
//!
//! 1. final values of every field the switch writes (header fields and
//!    algorithm-prefixed metadata, named as the emitters name them, by
//!    [`Storage`]);
//! 2. final register-array contents;
//! 3. the multiset of canonical effects (`drop`, `set_egress_port`, …).
//!
//! Divergences are minimized (init fields zeroed, table entries dropped,
//! while the divergence persists) and reported as `LYR0601` diagnostics;
//! artifacts the oracle cannot parse or lift are `LYR0603`; control-stub
//! problems (leftover TODOs, missing rules, capacity mismatches) are
//! `LYR0605`.
//! `lyrac --oracle N` drives [`check_output`] after every compile.

use std::collections::{BTreeMap, BTreeSet};

use lyra_codegen::emit::{deployed_instrs, Storage};
use lyra_codegen::oracle as cgo;
use lyra_codegen::Artifact;
use lyra_diag::{codes, Diagnostic};
use lyra_ir::interp::mask;
use lyra_ir::{
    execute, execute_all, DataPlaneState, Effect, InstrId, IrAlgorithm, IrOp, Operand, PacketState,
};
use lyra_synth::SwitchPlan;

use crate::CompileOutput;

/// Oracle run configuration.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Differential cases per artifact.
    pub cases: u64,
    /// RNG seed (same seed → same cases, byte for byte).
    pub seed: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            cases: 64,
            seed: 0xa11ce,
        }
    }
}

/// Outcome of one case on one side (reference or emitted), projected onto
/// the observable surface so sides compare with `==`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleCase {
    /// Observable canonical field name → final value.
    pub vars: BTreeMap<String, u64>,
    /// Register name → contents (trailing zeros trimmed).
    pub globals: BTreeMap<String, Vec<u64>>,
    /// Canonical effects, sorted (order across backends is not specified).
    pub effects: Vec<(String, Vec<u64>)>,
}

/// One generated differential input, in canonical (backend-independent)
/// form: the same `CaseInput` drives the IR reference and every backend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CaseInput {
    /// Canonical field name → initial value (read-before-write fields).
    pub init: BTreeMap<String, u64>,
    /// Extern name → entries (key → value).
    pub entries: BTreeMap<String, BTreeMap<u64, u64>>,
}

impl CaseInput {
    /// Compact one-line rendering for diagnostics.
    fn describe(&self) -> String {
        let init: Vec<String> = self
            .init
            .iter()
            .filter(|(_, v)| **v != 0)
            .map(|(k, v)| format!("{k}={v:#x}"))
            .collect();
        let entries: Vec<String> = self
            .entries
            .iter()
            .flat_map(|(t, m)| m.iter().map(move |(k, v)| format!("{t}[{k:#x}]={v:#x}")))
            .collect();
        format!(
            "init {{{}}} entries {{{}}}",
            init.join(", "),
            entries.join(", ")
        )
    }
}

/// Report of a full oracle pass over a [`CompileOutput`].
#[derive(Debug, Default)]
pub struct OracleReport {
    /// Cases executed per artifact.
    pub cases_per_artifact: u64,
    /// Artifacts checked.
    pub artifacts_checked: usize,
    /// Divergence / parse / control diagnostics (empty when clean).
    pub diagnostics: Vec<Diagnostic>,
}

impl OracleReport {
    /// True when no artifact diverged and every stub checked out.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// xorshift64* — the repository's seeded-test RNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Everything the oracle needs to know about one switch's deployment.
struct SwitchCtx<'a> {
    /// Algorithms and their deployed instruction subsets, in the order the
    /// emitters materialize them (alphabetical by algorithm).
    algs: Vec<(&'a IrAlgorithm, Vec<InstrId>)>,
    /// The emitters' storage namespace: IR base → canonical field name.
    storage: Storage<'a>,
    /// Canonical name → (algorithm index, base, width) of every
    /// read-before-write field: the case's free inputs.
    inputs: BTreeMap<String, (usize, String, u32)>,
    /// Canonical name → (algorithm index, base) of every observable (a
    /// written destination or a free input).
    observables: BTreeMap<String, (usize, String)>,
    /// Extern name → emitted table names backed by it.
    extern_tables: BTreeMap<String, Vec<String>>,
    /// The reference data plane before a case: every declared register
    /// sized exactly like the emitted registers, so out-of-range indices
    /// wrap identically on both sides.
    dp: DataPlaneState,
}

/// One artifact lifted into IR, and its data plane before a case: every
/// register it declares, sized.
struct Lifted {
    alg: IrAlgorithm,
    dp: DataPlaneState,
}

impl Lifted {
    fn new(model: &cgo::ArtifactModel, rules: &[cgo::rules::TableRule]) -> Result<Self, String> {
        Ok(Lifted {
            alg: cgo::lift(model, rules)?,
            dp: sized(&model.registers),
        })
    }
}

/// A data plane with every register of `registers` (name → (width,
/// length)) sized and zeroed.
fn sized(registers: &BTreeMap<String, (u32, u64)>) -> DataPlaneState {
    let mut dp = DataPlaneState::new();
    for (g, &(_, len)) in registers {
        dp.global(g, len as usize);
    }
    dp
}

fn switch_ctx<'a>(out: &'a CompileOutput, plan: &'a SwitchPlan) -> SwitchCtx<'a> {
    let algs = deployed_instrs(&out.ir, plan);
    let storage = Storage::new(&out.ir, plan);
    // Instructions with emitted storage for their result: everything inside
    // a synthesized action body or hoisted into the parser. Deployed
    // instructions outside this set (predicate plumbing) are realized as
    // inlined match conditions — their IR values never materialize in the
    // artifact, so they must not be compared as observables.
    let mut materialized: BTreeMap<&str, BTreeSet<lyra_ir::InstrId>> = BTreeMap::new();
    for t in &plan.tables {
        let set = materialized.entry(t.algorithm.as_str()).or_default();
        for a in &t.actions {
            set.extend(a.instrs.iter().copied());
        }
    }
    for (alg_name, hoisted) in &plan.parser_sets {
        materialized
            .entry(alg_name.as_str())
            .or_default()
            .extend(hoisted.iter().copied());
    }
    let mut inputs = BTreeMap::new();
    let mut observables = BTreeMap::new();
    for (ai, (alg, instrs)) in algs.iter().enumerate() {
        let mat = materialized.get(alg.name.as_str());
        let mut written: BTreeSet<&str> = BTreeSet::new();
        for &id in instrs {
            let instr = alg.instr(id);
            let operands = instr.op.reads().into_iter().filter_map(|o| match o {
                Operand::Value(v) => Some(v),
                Operand::Const(_) => None,
            });
            for v in instr.pred.into_iter().chain(operands) {
                let info = alg.value(v);
                if !written.contains(info.base.as_str()) {
                    inputs
                        .entry(storage.name(&alg.name, &info.base))
                        .or_insert((ai, info.base.clone(), info.width));
                }
            }
            if let Some(d) = instr.dst {
                let info = alg.value(d);
                written.insert(info.base.as_str());
                if mat.is_some_and(|m| m.contains(&id)) {
                    observables
                        .entry(storage.name(&alg.name, &info.base))
                        .or_insert((ai, info.base.clone()));
                }
            }
        }
    }
    for (name, (ai, base, _)) in &inputs {
        observables
            .entry(name.clone())
            .or_insert((*ai, base.clone()));
    }
    let mut extern_tables: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for t in &plan.tables {
        if let Some(e) = t.extern_name() {
            extern_tables
                .entry(e.to_string())
                .or_default()
                .push(t.name.clone());
        }
    }
    SwitchCtx {
        algs,
        storage,
        inputs,
        observables,
        extern_tables,
        dp: sized(&out.ir.globals),
    }
}

/// The reference data plane for `input`: entries installed by extern name.
fn reference_dp(ctx: &SwitchCtx, input: &CaseInput) -> DataPlaneState {
    let mut dp = ctx.dp.clone();
    for (ext, entries) in &input.entries {
        for (&k, &v) in entries {
            dp.install(ext, k, v);
        }
    }
    dp
}

/// Run the IR reference for `input` on this switch, `run` executing each
/// algorithm's deployed instructions: each algorithm gets its own local
/// namespace (matching the emitted per-algorithm metadata prefixes) while
/// header fields and the data-plane state are shared. Returns the
/// observable values by canonical name.
fn run_reference(
    ctx: &SwitchCtx,
    input: &CaseInput,
    dp: &mut DataPlaneState,
    mut run: impl FnMut(&IrAlgorithm, &[InstrId], &mut PacketState, &mut DataPlaneState),
) -> BTreeMap<String, u64> {
    let mut headers: BTreeMap<String, u64> = BTreeMap::new();
    let mut vars: BTreeMap<String, u64> = BTreeMap::new();
    for (ai, (alg, instrs)) in ctx.algs.iter().enumerate() {
        let mut pkt = PacketState::new();
        for (h, v) in &headers {
            pkt.set(h.clone(), *v);
        }
        for (name, (ia, base, _)) in &ctx.inputs {
            if *ia == ai || base.contains('.') {
                if let Some(v) = input.init.get(name) {
                    pkt.set(base.clone(), *v);
                }
            }
        }
        run(alg, instrs, &mut pkt, dp);
        for (base, v) in &pkt.values {
            if base.contains('.') {
                headers.insert(base.clone(), *v);
            }
        }
        for (name, (ia, base)) in &ctx.observables {
            if *ia == ai && !base.contains('.') {
                vars.insert(name.clone(), pkt.get(base));
            }
        }
    }
    for (name, (_, base)) in &ctx.observables {
        if base.contains('.') {
            vars.insert(name.clone(), headers.get(base).copied().unwrap_or(0));
        }
    }
    vars
}

/// Project one side's final state onto the observable surface: observable
/// values by canonical name (0 when unset), registers with trailing zeros
/// trimmed (so IR-side and artifact-side register sizes do not matter), and
/// canonical effects, sorted.
fn project(
    ctx: &SwitchCtx,
    values: &BTreeMap<String, u64>,
    dp: DataPlaneState,
    effects: Vec<Effect>,
) -> OracleCase {
    let mut effects: Vec<(String, Vec<u64>)> = effects
        .into_iter()
        .filter_map(|Effect::Action { name, args }| cgo::canonical_effect(&name, args))
        .collect();
    effects.sort();
    OracleCase {
        vars: ctx
            .observables
            .keys()
            .map(|name| (name.clone(), values.get(name).copied().unwrap_or(0)))
            .collect(),
        globals: dp
            .globals
            .into_iter()
            .filter_map(|(g, a)| {
                let len = a.iter().rposition(|&v| v != 0)? + 1;
                Some((g, a[..len].to_vec()))
            })
            .collect(),
        effects,
    }
}

fn reference_case(ctx: &SwitchCtx, input: &CaseInput) -> OracleCase {
    let mut dp = reference_dp(ctx, input);
    let mut effects = Vec::new();
    let vars = run_reference(ctx, input, &mut dp, |alg, ids, pkt, dp| {
        effects.extend(execute(alg, ids, pkt, dp));
    });
    project(ctx, &vars, dp, effects)
}

/// Run the lifted artifact for `input`: entries installed under every
/// emitted table the extern backs.
fn emitted_case(ctx: &SwitchCtx, lifted: &Lifted, input: &CaseInput) -> OracleCase {
    let mut dp = lifted.dp.clone();
    for (ext, entries) in &input.entries {
        for table in ctx.extern_tables.get(ext).into_iter().flatten() {
            for (&k, &v) in entries {
                dp.install(table, k, v);
            }
        }
    }
    let mut pkt = PacketState::new();
    for (name, &v) in &input.init {
        pkt.set(name.clone(), v);
    }
    let effects = execute_all(&lifted.alg, &mut pkt, &mut dp);
    project(ctx, &pkt.values, dp, effects)
}

/// Generate the seeded input for one case: random values for the free
/// inputs, noise table entries, plus hit-biased entries keyed on the values
/// the packet actually presents to each table (found by stepping the IR
/// reference).
fn gen_case_input(ctx: &SwitchCtx, seed: u64) -> CaseInput {
    let mut rng = Rng::new(seed);
    let mut input = CaseInput::default();
    for (name, (_, _, width)) in &ctx.inputs {
        // Small values keep comparisons and shifts interesting; full-width
        // values exercise masking. Mix both.
        let raw = if rng.next() & 1 == 0 {
            rng.next() & 0xff
        } else {
            rng.next()
        };
        input.init.insert(name.clone(), mask(raw, *width));
    }
    for ext in ctx.extern_tables.keys() {
        let m = input.entries.entry(ext.clone()).or_default();
        for _ in 0..(rng.next() % 3) {
            m.insert(rng.next() & 0xff, rng.next() & 0xffff_ffff);
        }
    }
    // Hit-biasing dry run: step the reference one instruction at a time and
    // capture the key value each table op would look up right now.
    let mut observed: Vec<(String, u64)> = Vec::new();
    let mut dp = reference_dp(ctx, &input);
    run_reference(ctx, &input, &mut dp, |alg, ids, pkt, dp| {
        for &id in ids {
            if let IrOp::TableMember { table, key } | IrOp::TableLookup { table, key } =
                &alg.instr(id).op
            {
                let k = match key {
                    Operand::Const(c) => *c,
                    Operand::Value(v) => pkt.get(&alg.value(*v).base),
                };
                observed.push((table.clone(), k));
            }
            execute(alg, &[id], pkt, dp);
        }
    });
    for (ext, key) in observed {
        if rng.next() & 1 == 0 {
            input
                .entries
                .entry(ext)
                .or_default()
                .insert(key, rng.next() & 0xffff_ffff);
        }
    }
    input
}

/// Does `input` still produce a divergence?
fn diverges(ctx: &SwitchCtx, lifted: &Lifted, input: &CaseInput) -> bool {
    reference_case(ctx, input) != emitted_case(ctx, lifted, input)
}

/// Shrink a diverging input: zero init fields and drop table entries while
/// the divergence persists.
fn minimize(ctx: &SwitchCtx, lifted: &Lifted, input: &CaseInput) -> CaseInput {
    let mut cur = input.clone();
    for _ in 0..4 {
        let mut changed = false;
        let keys: Vec<String> = cur
            .init
            .iter()
            .filter(|(_, v)| **v != 0)
            .map(|(k, _)| k.clone())
            .collect();
        for k in keys {
            let mut t = cur.clone();
            t.init.insert(k.clone(), 0);
            if diverges(ctx, lifted, &t) {
                cur = t;
                changed = true;
            }
        }
        let entry_keys: Vec<(String, u64)> = cur
            .entries
            .iter()
            .flat_map(|(t, m)| m.keys().map(move |&k| (t.clone(), k)))
            .collect();
        for (t, k) in entry_keys {
            let mut trial = cur.clone();
            if let Some(m) = trial.entries.get_mut(&t) {
                m.remove(&k);
            }
            if diverges(ctx, lifted, &trial) {
                cur = trial;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    cur
}

/// First difference between two case outcomes, as text.
fn first_difference(reference: &OracleCase, emitted: &OracleCase) -> String {
    for (name, rv) in &reference.vars {
        let ev = emitted.vars.get(name).copied().unwrap_or(0);
        if *rv != ev {
            return format!("`{name}`: reference {rv:#x}, emitted {ev:#x}");
        }
    }
    for (g, ra) in &reference.globals {
        let ea = emitted.globals.get(g).cloned().unwrap_or_default();
        if *ra != ea {
            return format!("register `{g}`: reference {ra:?}, emitted {ea:?}");
        }
    }
    for (g, ea) in &emitted.globals {
        if !reference.globals.contains_key(g) {
            return format!("register `{g}`: reference [], emitted {ea:?}");
        }
    }
    if reference.effects != emitted.effects {
        return format!(
            "effects: reference {:?}, emitted {:?}",
            reference.effects, emitted.effects
        );
    }
    "outcomes differ".to_string()
}

/// Check one artifact's control stub against its plan. Returns `LYR0605`
/// diagnostics for every problem found.
fn check_control(a: &Artifact, plan: &SwitchPlan, cm: &cgo::ControlModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ctl = |msg: String| {
        Diagnostic::error(
            codes::ORACLE_CONTROL,
            format!("{} ({}): {msg}", a.switch, a.asic),
        )
    };
    if cm.has_todo {
        out.push(ctl("control stub contains a TODO placeholder".into()));
    }
    if cm.epoch != 0 {
        out.push(ctl(format!(
            "control stub advertises PLACEMENT_EPOCH = {}, expected 0 at generation",
            cm.epoch
        )));
    }
    for (ext, &entries) in &plan.extern_entries {
        match cm.capacities.get(ext) {
            None => out.push(ctl(format!("no `{ext}_CAPACITY` in control stub"))),
            Some(&c) if c != entries => out.push(ctl(format!(
                "`{ext}_CAPACITY` is {c}, placement hosts {entries} entries"
            ))),
            _ => {}
        }
        for op in [
            "entry_set",
            "entry_get",
            "entry_delete",
            "prepare",
            "commit",
            "rollback",
        ] {
            let f = format!("{ext}_{op}");
            if !cm.functions.contains(&f) {
                out.push(ctl(format!("control stub lacks `{f}()`")));
            }
        }
    }
    if !cm.functions.contains("lyra_init") {
        out.push(ctl("control stub lacks `lyra_init(driver)`".into()));
    }
    for t in &plan.tables {
        if !cm.rules.iter().any(|r| r.table == t.name) {
            out.push(ctl(format!(
                "no LYRA_TABLE_RULES entry for table `{}`",
                t.name
            )));
        }
    }
    out
}

/// Parse one artifact and its control stub, with the widths the artifact
/// leaves undeclared filled in from the IR.
fn parse_emitted(
    a: &Artifact,
    ctx: &SwitchCtx,
) -> Result<(cgo::ArtifactModel, cgo::ControlModel), String> {
    let mut model = cgo::parse(a).map_err(|e| format!("cannot parse emitted {:?}: {e}", a.lang))?;
    merge_ir_widths(ctx, &mut model);
    let cm = cgo::parse_control(&a.control_plane)
        .map_err(|e| format!("cannot parse control stub: {e}"))?;
    Ok((model, cm))
}

/// Run one deterministic case against one artifact; returns the projected
/// (reference, emitted) outcomes. Canonical names and effects are
/// backend-independent, so outcomes from different backends compiled from
/// the same program are directly comparable (pairwise differential
/// testing).
pub fn run_case(
    out: &CompileOutput,
    artifact: &Artifact,
    seed: u64,
) -> Result<(OracleCase, OracleCase, CaseInput), String> {
    let plan = out
        .placement
        .switches
        .get(&artifact.switch)
        .ok_or_else(|| format!("no plan for switch `{}`", artifact.switch))?;
    let ctx = switch_ctx(out, plan);
    let (model, cm) = parse_emitted(artifact, &ctx)?;
    let lifted = Lifted::new(&model, &cm.rules)?;
    let input = gen_case_input(&ctx, seed);
    let reference = reference_case(&ctx, &input);
    let emitted = emitted_case(&ctx, &lifted, &input);
    Ok((reference, emitted, input))
}

/// Fill widths the artifact does not declare (header fields everywhere;
/// every field in NPL, whose bus only covers locals) from the IR, so the
/// lifted fields mask writes exactly like the reference interpreter.
fn merge_ir_widths(ctx: &SwitchCtx, model: &mut cgo::ArtifactModel) {
    for (alg, instrs) in &ctx.algs {
        for &id in instrs {
            if let Some(d) = alg.instr(id).dst {
                let info = alg.value(d);
                if info.width > 0 {
                    model
                        .widths
                        .entry(ctx.storage.name(&alg.name, &info.base))
                        .or_insert(info.width);
                }
            }
        }
    }
}

/// Run the full oracle over a compile: every artifact, `cfg.cases` seeded
/// differential cases each, plus control-stub checks. Returns all
/// diagnostics; an empty report means the emitted code is semantically
/// faithful on every tested input.
pub fn check_output(out: &CompileOutput, cfg: &OracleConfig) -> OracleReport {
    let mut report = OracleReport {
        cases_per_artifact: cfg.cases,
        ..Default::default()
    };
    for a in &out.artifacts {
        let Some(plan) = out.placement.switches.get(&a.switch) else {
            continue;
        };
        report.artifacts_checked += 1;
        let malformed = |e: String| {
            Diagnostic::error(
                codes::ORACLE_PARSE,
                format!("{} ({}): {e}", a.switch, a.asic),
            )
        };
        let ctx = switch_ctx(out, plan);
        let (model, cm) = match parse_emitted(a, &ctx) {
            Ok(parsed) => parsed,
            Err(e) => {
                report.diagnostics.push(malformed(e));
                continue;
            }
        };
        report.diagnostics.extend(check_control(a, plan, &cm));
        let lifted = match Lifted::new(&model, &cm.rules) {
            Ok(l) => l,
            Err(e) => {
                report.diagnostics.push(malformed(format!(
                    "cannot lift emitted {:?} into IR: {e}",
                    a.lang
                )));
                continue;
            }
        };
        for case in 0..cfg.cases {
            let seed = cfg
                .seed
                .wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let input = gen_case_input(&ctx, seed);
            if diverges(&ctx, &lifted, &input) {
                let min = minimize(&ctx, &lifted, &input);
                let (mr, me) = (
                    reference_case(&ctx, &min),
                    emitted_case(&ctx, &lifted, &min),
                );
                report.diagnostics.push(
                    Diagnostic::error(
                        codes::ORACLE_DIVERGENCE,
                        format!(
                            "{} ({}): emitted {:?} diverges from the IR reference on case \
                             {case} — {}",
                            a.switch,
                            a.asic,
                            a.lang,
                            first_difference(&mr, &me)
                        ),
                    )
                    .with_note(format!("minimized counterexample: {}", min.describe())),
                );
                break; // one counterexample per artifact is enough
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileRequest, Compiler};
    use lyra_topo::figure1_network;

    fn compile(program: &str, scopes: &str) -> CompileOutput {
        Compiler::new()
            .compile(&CompileRequest::new(program, scopes, figure1_network()))
            .unwrap()
    }

    #[test]
    fn clean_on_simple_program() {
        let out = compile(
            r#"
            pipeline[P]{a};
            algorithm a {
                bit[8] x;
                x = ipv4.ttl + 1;
                if (x > 10) { drop(); }
            }
            "#,
            "a: [ ToR1 | PER-SW | - ]",
        );
        let report = check_output(&out, &OracleConfig { cases: 32, seed: 7 });
        assert!(report.is_clean(), "diagnostics: {:#?}", report.diagnostics);
        assert_eq!(report.artifacts_checked, 1);
    }

    #[test]
    fn clean_on_table_program_all_langs() {
        let program = r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[64] t;
                bit[32] h;
                h = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
                if (h in t) { ipv4.dstAddr = t[h]; }
            }
        "#;
        // ToR1 = Tofino (P4₁₄); Agg1 (figure 1) spans other ASICs via
        // PER-SW below; cover all three langs through distinct switches.
        let out = compile(program, "a: [ ToR1,ToR3,Agg1 | PER-SW | - ]");
        let langs: BTreeSet<_> = out
            .artifacts
            .iter()
            .map(|a| format!("{:?}", a.lang))
            .collect();
        assert!(langs.len() >= 2, "want multiple langs, got {langs:?}");
        let report = check_output(&out, &OracleConfig { cases: 24, seed: 3 });
        assert!(report.is_clean(), "diagnostics: {:#?}", report.diagnostics);
    }

    #[test]
    fn reports_minimized_divergence_on_tampered_artifact() {
        let mut out = compile(
            "pipeline[P]{a}; algorithm a { bit[8] x; x = ipv4.ttl + 1; }",
            "a: [ ToR1 | PER-SW | - ]",
        );
        // Sabotage the emitted arithmetic: + 1 becomes + 2.
        out.artifacts[0].code = out.artifacts[0].code.replace(", 1);", ", 2);");
        let report = check_output(&out, &OracleConfig { cases: 16, seed: 1 });
        assert!(!report.is_clean());
        let d = &report.diagnostics[0];
        assert_eq!(d.code, Some(codes::ORACLE_DIVERGENCE));
        assert!(d.message.contains("diverges"), "{}", d.message);
    }

    #[test]
    fn reports_unliftable_artifact_once() {
        let mut out = compile(
            "pipeline[P]{a}; algorithm a { bit[8] x; x = ipv4.ttl + 1; }",
            "a: [ ToR1 | PER-SW | - ]",
        );
        // A rule naming an action the artifact never declares.
        let stub = &mut out.artifacts[0].control_plane;
        let action = &cgo::parse_control(stub).unwrap().rules[0].action;
        *stub = stub.replace(&format!("\"{action}\""), "\"gone\"");
        let report = check_output(&out, &OracleConfig { cases: 8, seed: 1 });
        let [d] = &report.diagnostics[..] else {
            panic!("want one diagnostic: {:#?}", report.diagnostics);
        };
        assert_eq!(d.code, Some(codes::ORACLE_PARSE));
        assert!(d.message.contains("unknown action `gone`"), "{}", d.message);
    }

    #[test]
    fn flags_control_stub_todo() {
        let mut out = compile(
            "pipeline[P]{a}; algorithm a { x = 1; }",
            "a: [ ToR1 | PER-SW | - ]",
        );
        out.artifacts[0]
            .control_plane
            .push_str("\n# TODO: driver call\n");
        let report = check_output(&out, &OracleConfig { cases: 1, seed: 1 });
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Some(codes::ORACLE_CONTROL)));
    }
}
