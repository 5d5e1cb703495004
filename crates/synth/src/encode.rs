//! SMT encoding (§5.4–§5.6 and Appendices A–B): one constraint model that
//! simultaneously decides the chip-specific implementation *and* placement
//! of every algorithm.
//!
//! Variables:
//!
//! * `f_s(I)` — boolean per (switch, instruction): instruction `I` deploys
//!   on switch `s` (§5.1's deployment boolean function);
//! * `E_{e,s}` — integer per (extern table, switch): entries of `e` placed
//!   on `s` (§5.6 / eq. 16 splitting);
//! * `depth_t` — integer per synthesized table per switch: pipeline stage
//!   depth, enforcing the stage budget along dependency chains.
//!
//! Constraint families (all conditional on deployment, which is what rules
//! out plain ILP per §5.5):
//!
//! * scope — instructions only deploy inside their algorithm's scope;
//! * flow paths — every instruction appears exactly once on every path
//!   (extern lookups instead co-locate with their entries, which may be
//!   split);
//! * instruction dependencies (eq. 3) — consumers sit at-or-after
//!   producers along every path;
//! * global variables (App. B.2) — all instructions touching one global
//!   register co-locate;
//! * extern variables (eq. 16) — per path, the per-switch entry counts sum
//!   to the table size, and lookups exist exactly where entries do;
//! * chip resources (App. A) — memory blocks with word-packing (eqs. 11–12
//!   via `ceil_div`), table/action/atom budgets, PHV bits, parser TCAM
//!   entries, and dependency-depth ≤ stages (eqs. 13–15).

use std::collections::BTreeMap;

use lyra_chips::{by_name, ChipModel, TargetLang};
use lyra_ir::{dependency_graph, InstrId, IrProgram};
use lyra_lang::DeployMode;
use lyra_solver::{Bx, Ix, Model, VarRef};
use lyra_topo::{ResolvedScope, SwitchId, Topology};

use crate::index::{value_of, ScopeIndex, UnitIndex};
use crate::npl::{synthesize_npl, NplExtras};
use crate::p4::{synthesize_p4, P4Options, ParserHoists};
use crate::table::TableGroup;

/// What the solver should optimize (§6 / Appendix C.2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Objective {
    /// Any feasible placement.
    #[default]
    Feasible,
    /// Minimize the number of switches hosting generated code.
    MinSwitches,
    /// Maximize utilization of one named switch (by minimizing deployment
    /// elsewhere).
    MaxUseOf(String),
}

/// Options for the whole synthesis + encoding pipeline.
#[derive(Debug, Clone, Default)]
pub struct EncodeOptions {
    /// P4 synthesis options.
    pub p4: P4Options,
    /// Optimization objective.
    pub objective: Objective,
    /// Allow one recirculation pass: a packet may traverse the pipeline
    /// twice, doubling the usable stage depth (§8 — "Lyra uses the
    /// recirculation as an optimization method to pack a longer program
    /// into one switch"). Code generation emits the `recirculate` call when
    /// a plan actually needs the second pass.
    pub allow_recirculation: bool,
    /// Encode full per-stage table assignment (eqs. 13–15): start/end stage
    /// variables per table, per-stage entry counts, per-stage memory and
    /// table-count budgets. More faithful and more expensive than the
    /// default aggregate encoding — intended for single-switch or small
    /// deployments.
    pub stage_detail: bool,
}

/// Errors from encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeError {
    /// Problem description.
    pub message: String,
    /// Stable diagnostic code classifying the failure.
    pub code: lyra_diag::Code,
}

impl EncodeError {
    fn new(code: lyra_diag::Code, message: impl Into<String>) -> Self {
        EncodeError {
            message: message.into(),
            code,
        }
    }

    /// Render this error as a structured [`lyra_diag::Diagnostic`].
    pub fn to_diagnostic(&self) -> lyra_diag::Diagnostic {
        lyra_diag::Diagnostic::error(self.code, self.message.clone())
    }
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "encoding error: {}", self.message)
    }
}

impl std::error::Error for EncodeError {}

/// One algorithm synthesized for one switch: the conditional implementation.
#[derive(Debug, Clone)]
pub struct SynthUnit {
    /// Algorithm name.
    pub alg: String,
    /// Target switch.
    pub switch: SwitchId,
    /// Chip model of the switch.
    pub chip: ChipModel,
    /// Conditional table group (`L_s`).
    pub group: TableGroup,
    /// Parser-hoisted instructions (P4 only).
    pub hoists: ParserHoists,
    /// NPL bus info (NPL only).
    pub npl: Option<NplExtras>,
}

/// The encoded model plus the index needed to interpret a solution: which
/// variable is which instruction on which switch (see [`crate::index`] for
/// the accessors).
#[derive(Debug)]
pub struct Encoded {
    /// The constraint model.
    pub model: Model,
    /// Per-(algorithm, switch) synthesized units.
    pub units: Vec<SynthUnit>,
    /// Switch-used variables (for objectives).
    pub switch_used: BTreeMap<SwitchId, lyra_solver::BoolId>,
    /// The objective expression (a handle into `model`), if one was
    /// requested.
    pub objective: Option<Ix>,
    /// Resolved scopes by algorithm.
    pub scopes: BTreeMap<String, ResolvedScope>,
    /// One entry per scope, ascending by algorithm.
    pub(crate) index: Vec<ScopeIndex>,
    /// Parallel to `units`.
    pub(crate) unit_index: Vec<UnitIndex>,
}

/// Build the complete model for `ir` on `topo` under `scopes`.
pub fn encode(
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    opts: &EncodeOptions,
) -> Result<Encoded, EncodeError> {
    encode_reusing(ir, topo, scopes, opts, None)
}

/// [`encode`], taking the synthesized conditional implementations from
/// `donor` — an encoding of the same program under the same options —
/// where it has them, instead of synthesizing them again.
pub(crate) fn encode_reusing(
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    opts: &EncodeOptions,
    donor: Option<&Encoded>,
) -> Result<Encoded, EncodeError> {
    let mut model = Model::new();
    // Per scope, what its instructions touch; per unit, its cost template.
    let mut touches: Vec<Touches> = Vec::with_capacity(scopes.len());
    let mut costs: Vec<Vec<(bool, Blocks)>> = Vec::new();
    let mut cost_of: Vec<usize> = Vec::new();
    let mut enc = Encoded {
        model: Model::new(),
        units: Vec::new(),
        switch_used: BTreeMap::new(),
        objective: None,
        scopes: scopes
            .iter()
            .map(|s| (s.algorithm.clone(), s.clone()))
            .collect(),
        index: Vec::with_capacity(scopes.len()),
        unit_index: Vec::new(),
    };
    if enc.scopes.len() != scopes.len() {
        // The index is per algorithm, as the paper's scopes are.
        return Err(EncodeError::new(
            lyra_diag::codes::SCOPE_DUPLICATE,
            "an algorithm has more than one scope",
        ));
    }

    // --- Per-algorithm: variables, synthesis, placement constraints ------
    for scope in scopes {
        let alg = ir.algorithm(&scope.algorithm).ok_or_else(|| {
            EncodeError::new(
                lyra_diag::codes::SCOPE_UNKNOWN_ALGORITHM,
                format!("scope references unknown algorithm `{}`", scope.algorithm),
            )
        })?;
        let deps = dependency_graph(alg);
        let all_instrs: Vec<InstrId> = alg.instr_ids().collect();

        // Deployment variables per programmable switch in scope.
        let mut prog_switches: Vec<(SwitchId, ChipModel)> = Vec::new();
        for &s in &scope.switches {
            let asic = &topo.switch(s).asic;
            let chip = by_name(asic).ok_or_else(|| {
                EncodeError::new(
                    lyra_diag::codes::UNKNOWN_ASIC,
                    format!(
                        "unknown ASIC model `{asic}` on switch {}",
                        topo.switch(s).name
                    ),
                )
            })?;
            if chip.programmable {
                prog_switches.push((s, chip));
            }
        }
        if prog_switches.is_empty() {
            return Err(EncodeError::new(
                lyra_diag::codes::NO_PROGRAMMABLE,
                format!(
                    "scope of `{}` contains no programmable switch",
                    scope.algorithm
                ),
            ));
        }

        // The index: slots ascend by switch id; variables are created in
        // the scope's own switch order, which is the order `order` keeps.
        let mut ix = ScopeIndex::new(ir, alg, &deps, scope.deploy);
        ix.switches = prog_switches.iter().map(|&(s, _)| s).collect();
        ix.switches.sort_unstable();
        let order: Vec<usize> = prog_switches
            .iter()
            .map(|&(s, _)| ix.slot_of(s).expect("slot of a scope switch"))
            .collect();
        ix.instr_var = vec![Vec::new(); order.len()];
        for &slot in &order {
            let sw_name = &topo.switch(ix.switches[slot]).name;
            ix.instr_var[slot] = (0..all_instrs.len())
                .map(|i| model.bool_var(format_args!("f[{}][{sw_name}][i{i}]", scope.algorithm)))
                .collect();
        }

        match scope.deploy {
            DeployMode::PerSwitch => {
                // Every instruction on every switch of the region.
                for &slot in &order {
                    for &v in &ix.instr_var[slot] {
                        model.require(Bx::var(v));
                    }
                }
            }
            DeployMode::MultiSwitch => {
                // Extern entry variables.
                for (e, size) in &ix.externs {
                    let mut row = vec![None; order.len()];
                    for &slot in &order {
                        let sw_name = &topo.switch(ix.switches[slot]).name;
                        let name = format_args!("E[{e}][{sw_name}]");
                        row[slot] = Some(model.int_var(name, 0, *size as i64));
                    }
                    ix.extern_var.push(row.into_iter().flatten().collect());
                }
                for path in &scope.paths {
                    // Only programmable switches can host anything; a path
                    // hop through a fixed-function switch is transit-only.
                    let hops: Vec<usize> = path.iter().filter_map(|&s| ix.slot_of(s)).collect();
                    if hops.is_empty() {
                        return Err(EncodeError::new(
                            lyra_diag::codes::NO_PROGRAMMABLE,
                            format!(
                                "a flow path of `{}` crosses no programmable switch",
                                scope.algorithm
                            ),
                        ));
                    }
                    ix.paths.push(hops);
                }
                encode_multi_switch_placement(&mut model, &ix, &order, alg);
            }
        }

        // One resource template per chip model of the scope: the unit —
        // the conditional implementation, synthesized once per target
        // language since it depends on the algorithm and the language
        // alone — and what each of its tables costs on that chip. Every
        // switch of that model gets a copy of the unit.
        let mut templates: Vec<(SynthUnit, usize)> = Vec::new();
        for (&(s, ref chip), &slot) in prog_switches.iter().zip(&order) {
            let known = templates.iter().position(|(u, _)| u.chip.name == chip.name);
            let t = known.unwrap_or_else(|| {
                let is_npl = chip.lang == TargetLang::Npl;
                let made = templates.iter().map(|(u, _)| u);
                let made = made
                    .chain(donor.into_iter().flat_map(|d| &d.units))
                    .find(|u| u.alg == alg.name && (u.chip.lang == TargetLang::Npl) == is_npl);
                let (group, hoists, npl) = match made {
                    Some(u) => (u.group.clone(), u.hoists.clone(), u.npl.clone()),
                    None if is_npl => {
                        let (group, extras) = synthesize_npl(ir, alg, &deps, &all_instrs);
                        (group, ParserHoists::default(), Some(extras))
                    }
                    None => {
                        let (group, hoists) = synthesize_p4(ir, alg, &deps, &all_instrs, &opts.p4);
                        (group, hoists, None)
                    }
                };
                costs.push(table_costs(&ix, chip, &group));
                let (alg, chip) = (alg.name.clone(), chip.clone());
                let unit = SynthUnit {
                    alg,
                    switch: s,
                    chip,
                    group,
                    hoists,
                    npl,
                };
                templates.push((unit, costs.len() - 1));
                templates.len() - 1
            });
            enc.units.push(SynthUnit {
                switch: s,
                ..templates[t].0.clone()
            });
            cost_of.push(templates[t].1);
            enc.unit_index.push(UnitIndex {
                slot,
                tables: Vec::new(),
            });
        }
        touches.push(Touches::of(ir, alg));
        enc.index.push(ix);
    }

    // --- Per-switch resource constraints (across all algorithms) ----------
    encode_switch_resources(&mut model, &mut enc, topo, opts, &touches, &costs, &cost_of);

    // Scopes were indexed in the order given; the accessors promise
    // algorithm order.
    enc.index.sort_by(|a, b| a.algorithm.cmp(&b.algorithm));

    // --- Objective ---------------------------------------------------------
    match &opts.objective {
        Objective::Feasible => {}
        Objective::MinSwitches => {
            let terms = enc.switch_used.values().map(|&u| Ix::bool01(u));
            enc.objective = Some(model.sum(terms));
        }
        Objective::MaxUseOf(name) => {
            let target = topo.find(name).ok_or_else(|| {
                EncodeError::new(
                    lyra_diag::codes::ENCODE,
                    format!("MaxUseOf names unknown switch `{name}`"),
                )
            })?;
            // Minimize deployments on every switch except the target
            // (Appendix C.2: "assigning a much bigger weight for that
            // specified switch and minimizing the final result").
            let elsewhere = enc.instr_vars().filter(|&(_, s, _, _)| s != target);
            let terms = elsewhere.map(|(_, _, _, v)| Ix::bool01(v));
            enc.objective = Some(model.sum(terms));
        }
    }

    enc.model = model;
    Ok(enc)
}

/// Per-stage assignment encoding (eqs. 13–15): for each table `t`,
/// variables `b_start(t)`, `b_end(t)` and `E_{t,j}` such that entries only
/// occupy stages in `[b_start, b_end]`, they sum to the table's size, valid
/// dependent tables start strictly after their producers end, and each
/// stage respects its memory-block and table-count budgets.
fn encode_stage_detail(
    model: &mut Model,
    chip: &ChipModel,
    sw_name: &str,
    unit: &SynthUnit,
    table_valid: &[lyra_solver::BoolId],
    stages: i64,
) {
    let nstages = stages.max(1);
    let mut per_stage_mem: Vec<Vec<Ix>> = vec![Vec::new(); nstages as usize];
    let mut per_stage_tabs: Vec<Vec<Ix>> = vec![Vec::new(); nstages as usize];
    let mut starts: Vec<lyra_solver::IntId> = Vec::new();
    let mut ends: Vec<lyra_solver::IntId> = Vec::new();
    for (ti, t) in unit.group.tables.iter().enumerate() {
        let b_start = model.int_var(format_args!("bstart[{sw_name}][{}]", t.name), 1, nstages);
        let b_end = model.int_var(format_args!("bend[{sw_name}][{}]", t.name), 1, nstages);
        let ordered = model.le(Ix::var(b_start), Ix::var(b_end));
        model.require(ordered);
        starts.push(b_start);
        ends.push(b_end);
        let entries = t.entries.max(1) as i64;
        let mut sum_terms: Vec<Ix> = Vec::new();
        for j in 1..=nstages {
            let e_tj = model.int_var(format_args!("E[{sw_name}][{}][s{j}]", t.name), 0, entries);
            // Entries exist only within [b_start, b_end] (eq. 13).
            let (before, after) = (
                model.lt(Ix::lit(j), Ix::var(b_start)),
                model.gt(Ix::lit(j), Ix::var(b_end)),
            );
            for outside in [before, after] {
                let empty = model.eq(Ix::var(e_tj), Ix::lit(0));
                let c = model.implies(outside, empty);
                model.require(c);
            }
            sum_terms.push(Ix::var(e_tj));
            // Stage memory contribution (eq. 15): blocks for E_{t,j} rows
            // of M_t bits, gated by validity.
            let m = t.match_width.max(1) as i64;
            let (h, w) = if t.match_kind.uses_tcam() {
                (
                    chip.tcam.entries.max(1) as i64,
                    chip.tcam.width.max(1) as i64,
                )
            } else {
                (
                    chip.sram.entries.max(1) as i64,
                    chip.sram.width.max(1) as i64,
                )
            };
            let rows = model.ceil_div(Ix::var(e_tj), h);
            let blocks = if chip.word_packing && !t.match_kind.uses_tcam() {
                let bits = model.scale(rows, m);
                model.ceil_div(bits, w)
            } else {
                model.scale(rows, (m + w - 1) / w)
            };
            let valid = Bx::var(table_valid[ti]);
            let mem = model.ite(valid, blocks, Ix::lit(0));
            per_stage_mem[(j - 1) as usize].push(mem);
            // Table occupies stage j iff b_start ≤ j ≤ b_end.
            let from = model.le(Ix::var(b_start), Ix::lit(j));
            let to = model.le(Ix::lit(j), Ix::var(b_end));
            let occupies = model.and([from, to, valid]);
            let tab = model.ite(occupies, Ix::lit(1), Ix::lit(0));
            per_stage_tabs[(j - 1) as usize].push(tab);
        }
        // A valid table's entries must all be placed (eq. 13's ≥ E_t).
        let placed = model.sum(sum_terms);
        let placed = model.ge(placed, Ix::lit(entries));
        let c = model.implies(Bx::var(table_valid[ti]), placed);
        model.require(c);
    }
    // Dependent tables start strictly after their producers end (eq. 14).
    for (ti, t) in unit.group.tables.iter().enumerate() {
        for &d in &t.depends_on {
            if d >= starts.len() {
                continue;
            }
            let both = model.and([Bx::var(table_valid[ti]), Bx::var(table_valid[d])]);
            let after = model.gt(Ix::var(starts[ti]), Ix::var(ends[d]));
            let c = model.implies(both, after);
            model.require(c);
        }
    }
    // Per-stage budgets. With recirculation the stage index wraps modulo
    // the physical stage count; both passes share the physical budget, so
    // halve it per logical stage (a conservative approximation).
    let phys = chip.stages.max(1) as i64;
    let passes = (nstages + phys - 1) / phys;
    let mem_budget = (chip.sram.blocks.max(chip.tcam.blocks) as i64) / passes.max(1);
    let tab_budget = (chip.max_tables_per_stage as i64) / passes.max(1);
    for j in 0..nstages as usize {
        let mem = std::mem::take(&mut per_stage_mem[j]);
        if !mem.is_empty() {
            require_at_most(model, mem, mem_budget.max(1));
        }
        let tabs = std::mem::take(&mut per_stage_tabs[j]);
        if !tabs.is_empty() {
            require_at_most(model, tabs, tab_budget.max(1));
        }
    }
}

/// Flow-path, dependency, global and extern constraints for one MULTI-SW
/// algorithm, read off its index. `order` lists the slots in the scope's
/// own switch order.
fn encode_multi_switch_placement(
    model: &mut Model,
    ix: &ScopeIndex,
    order: &[usize],
    alg: &lyra_ir::IrAlgorithm,
) {
    let var = |i: InstrId, slot: usize| ix.instr_var[slot][i.index()];
    for hops in &ix.paths {
        // Extern readers co-locate with entries; the rest obey
        // exactly-once-per-path.
        for (i, reader) in ix.reader.iter().enumerate() {
            match *reader {
                None => {
                    // Exactly one deployment along the path.
                    let sum = model.total(hops.iter().map(|&s| VarRef::Bool(ix.instr_var[s][i])));
                    let once = model.eq(sum, Ix::lit(1));
                    model.require(once);
                }
                Some(e) => {
                    // Lookup exists exactly where entries do (eq. 16) —
                    // constrained below per switch; here: entries along the
                    // path sum to the full size.
                    let sum = model.total(hops.iter().map(|&s| VarRef::Int(ix.extern_var[e][s])));
                    let full = model.eq(sum, Ix::lit(ix.externs[e].1 as i64));
                    model.require(full);
                }
            }
        }

        // Instruction dependencies (eq. 3) along this path.
        for &(b, a) in &ix.edges {
            match (ix.reader[a.index()], ix.reader[b.index()]) {
                (None, None) => {
                    // b at hop j → a at some hop j' ≤ j.
                    for (j, &sb) in hops.iter().enumerate() {
                        let earlier = model.any_of(hops[..=j].iter().map(|&sa| var(a, sa)));
                        let c = model.implies(Bx::var(var(b, sb)), earlier);
                        model.require(c);
                    }
                }
                (Some(e), None) => {
                    // b consumes a lookup of e: b must sit at-or-after
                    // the last switch holding entries of e.
                    for (j, &sb) in hops.iter().enumerate() {
                        for &later in &hops[j + 1..] {
                            let empty = model.eq(Ix::var(ix.extern_var[e][later]), Ix::lit(0));
                            let c = model.implies(Bx::var(var(b, sb)), empty);
                            model.require(c);
                        }
                    }
                }
                (None, Some(e)) => {
                    // The lookup of e depends on a (key computation):
                    // a must sit at-or-before the first entries of e.
                    for (j, &sa) in hops.iter().enumerate() {
                        for &earlier in &hops[..j] {
                            let empty = model.eq(Ix::var(ix.extern_var[e][earlier]), Ix::lit(0));
                            let c = model.implies(Bx::var(var(a, sa)), empty);
                            model.require(c);
                        }
                    }
                }
                (Some(_), Some(_)) => unreachable!("lookup-to-lookup edges are not indexed"),
            }
        }
    }

    // Lookup instruction ↔ entries co-location (eq. 16's co-existence),
    // per switch.
    for &s in order {
        for (i, reader) in ix.reader.iter().enumerate() {
            if let Some(e) = *reader {
                let (fv, ev) = (ix.instr_var[s][i], ix.extern_var[e][s]);
                let holds = model.ge(Ix::var(ev), Ix::lit(1));
                let c = model.iff(Bx::var(fv), holds);
                model.require(c);
            }
        }
    }

    // Global variables co-locate (Appendix B.2): every pair of instructions
    // touching the same global register deploys identically.
    let mut global_users: BTreeMap<&str, Vec<InstrId>> = BTreeMap::new();
    for i in alg.instr_ids() {
        if let Some(g) = alg.instr(i).op.global() {
            global_users.entry(g).or_default().push(i);
        }
    }
    for users in global_users.values() {
        for w in users.windows(2) {
            for &s in order {
                let c = model.iff(Bx::var(var(w[0], s)), Bx::var(var(w[1], s)));
                model.require(c);
            }
        }
    }
}

/// What one table costs in memory blocks on one chip model (eqs. 2, 11,
/// 15).
enum Blocks {
    /// A constant number of blocks.
    Fixed(i64),
    /// A table over split extern `e`, as `(e, [pre, h, mid, post])`:
    /// `⌈⌈pre·E/h⌉·mid / post⌉` of the entry variable `E` of its switch.
    Split(usize, [i64; 4]),
}

/// Per table of `group`: whether it lives in TCAM on `chip`, and its block
/// cost there. Non-exact match kinds (lpm / ternary / range) consume TCAM
/// blocks instead of SRAM, with range rules expanded on chips lacking
/// native range match (Appendix D).
fn table_costs(ix: &ScopeIndex, chip: &ChipModel, group: &TableGroup) -> Vec<(bool, Blocks)> {
    let cost = |t: &crate::table::SynthTable| {
        let tcam =
            t.match_kind.uses_tcam() && !matches!(t.kind, crate::table::TableKind::PredicateGate);
        let is_range = t.match_kind == lyra_lang::MatchKind::Range;
        let e = t.extern_name().and_then(|e| ix.extern_of(e));
        let m = t.match_width.max(1) as i64;
        let blocks = match e {
            Some(e) if ix.deploy == DeployMode::MultiSwitch => {
                let mem = if tcam { &chip.tcam } else { &chip.sram };
                let (h, w) = (mem.entries.max(1) as i64, mem.width.max(1) as i64);
                let pre = if tcam && is_range && !chip.supports_range_match {
                    chip.range_expansion.max(1) as i64
                } else {
                    1
                };
                if chip.word_packing && !tcam {
                    Blocks::Split(e, [pre, h, m, w]) // ceil(ceil(E/h)·M / w)
                } else {
                    Blocks::Split(e, [pre, h, (m + w - 1) / w, 1]) // ceil(E/h)·ceil(M/w)
                }
            }
            _ => {
                let entries = e.map_or(t.entries, |e| ix.externs[e].1);
                Blocks::Fixed(if tcam && t.extern_name().is_some() {
                    chip.tcam_blocks(entries, t.match_width, is_range) as i64
                } else {
                    chip.table_blocks(entries, t.match_width) as i64
                })
            }
        };
        (tcam, blocks)
    };
    group.tables.iter().map(cost).collect()
}

/// What an algorithm's instructions touch, whichever chip hosts them.
struct Touches {
    /// PHV storage: (base, width, the instruction behind each touch),
    /// ascending by base. Header fields are keyed switch-wide (one PHV
    /// container per field, shared by every algorithm on the switch);
    /// locals and metadata are algorithm-prefixed and isolated.
    phv: Vec<(String, u32, Vec<InstrId>)>,
    /// Parsed headers, ascending by instance name: (parser TCAM entries,
    /// the instruction behind each touch). Touching a header's field
    /// parses the header and its parser-graph ancestors (eqs. 6–8).
    headers: Vec<(i64, Vec<InstrId>)>,
}

impl Touches {
    fn of(ir: &IrProgram, alg: &lyra_ir::IrAlgorithm) -> Touches {
        let mut phv: BTreeMap<String, (u32, Vec<InstrId>)> = BTreeMap::new();
        let mut headers: BTreeMap<String, Vec<InstrId>> = BTreeMap::new();
        for i in alg.instr_ids() {
            let instr = alg.instr(i);
            let reads = instr.op.reads();
            let accessed = reads.iter().filter_map(value_of).chain(instr.dst);
            for v in accessed.clone().chain(instr.pred) {
                let info = alg.value(v);
                let key = if info.base.contains('.') {
                    info.base.clone()
                } else {
                    format!("{}:{}", alg.name, info.base)
                };
                let entry = phv.entry(key).or_insert((info.width, Vec::new()));
                entry.0 = entry.0.max(info.width);
                entry.1.push(i);
            }
            for v in accessed {
                if let Some((inst, _)) = alg.value(v).base.split_once('.') {
                    for anc in crate::parser_deps::with_ancestors(ir, inst) {
                        headers.entry(anc).or_default().push(i);
                    }
                }
            }
        }
        let entries = |h: &str| crate::parser_deps::parser_entries_for(ir, h) as i64;
        Touches {
            phv: phv.into_iter().map(|(k, (w, is))| (k, w, is)).collect(),
            headers: headers
                .into_iter()
                .map(|(h, is)| (entries(&h), is))
                .collect(),
        }
    }
}

/// The deployment booleans of instructions `is` on the switch owning `vars`.
fn deployed<'a>(
    vars: &'a [lyra_solver::BoolId],
    is: &'a [InstrId],
) -> impl Iterator<Item = lyra_solver::BoolId> + 'a {
    is.iter().map(|i| vars[i.index()])
}

/// Require `Σ terms ≤ cap`.
fn require_at_most(model: &mut Model, terms: Vec<Ix>, cap: i64) {
    let sum = model.sum(terms);
    let c = model.le(sum, Ix::lit(cap));
    model.require(c);
}

/// Per-switch chip resource constraints aggregated over all algorithms:
/// each unit's template (`costs[cost_of[unit]]`, `touches[scope]`)
/// instantiated over the unit's own variables.
fn encode_switch_resources(
    model: &mut Model,
    enc: &mut Encoded,
    topo: &Topology,
    opts: &EncodeOptions,
    touches: &[Touches],
    costs: &[Vec<(bool, Blocks)>],
    cost_of: &[usize],
) {
    // Group units by switch.
    let mut by_switch: BTreeMap<SwitchId, Vec<usize>> = BTreeMap::new();
    for (ui, u) in enc.units.iter().enumerate() {
        by_switch.entry(u.switch).or_default().push(ui);
    }

    let mut unit_index = std::mem::take(&mut enc.unit_index);
    for (&s, unit_ids) in &by_switch {
        let chip = &enc.units[unit_ids[0]].chip;
        let sw_name = &topo.switch(s).name;

        let tables: usize = unit_ids.iter().map(|&ui| costs[cost_of[ui]].len()).sum();
        let mut any_deploy: Vec<lyra_solver::BoolId> = Vec::new();
        let mut mem_terms: Vec<Ix> = Vec::with_capacity(tables);
        let mut tcam_terms: Vec<Ix> = Vec::new();
        let mut table_terms: Vec<Ix> = Vec::with_capacity(tables);
        let mut action_terms: Vec<Ix> = Vec::with_capacity(tables);
        let mut atom_terms: Vec<Ix> = Vec::new();
        let mut parser_terms: Vec<Ix> = Vec::new();
        let mut phv_touch: BTreeMap<&str, (u32, Vec<lyra_solver::BoolId>)> = BTreeMap::new();

        for &ui in unit_ids {
            let unit = &enc.units[ui];
            let slot = unit_index[ui].slot;
            let scope = enc.index.iter().position(|ix| ix.algorithm == unit.alg);
            let scope = scope.expect("a unit's algorithm is indexed");
            let ix = &enc.index[scope];
            let vars = &ix.instr_var[slot];
            let touching = |is| deployed(vars, is);

            // Table validity and per-table resources.
            let mut table_valid: Vec<lyra_solver::BoolId> = Vec::new();
            for (t, (tcam, blocks)) in unit.group.tables.iter().zip(&costs[cost_of[ui]]) {
                let v = model.bool_var(format_args!("V[{sw_name}][{}]", t.name));
                let touched = model.any_of(touching(&t.instrs));
                let c = model.iff(Bx::var(v), touched);
                model.require(c);
                table_valid.push(v);

                // Memory blocks: variable-sized for split externs,
                // constant otherwise.
                let blocks = match *blocks {
                    Blocks::Fixed(k) => Ix::lit(k),
                    Blocks::Split(e, [pre, h, mid, post]) => {
                        let entries = Ix::var(ix.extern_var[e][slot]);
                        let x = model.scale(entries, pre);
                        let x = model.ceil_div(x, h);
                        let x = model.scale(x, mid);
                        model.ceil_div(x, post)
                    }
                };
                let mut when = |k: Ix| model.ite(Bx::var(v), k, Ix::lit(0));
                table_terms.push(when(Ix::lit(1)));
                action_terms.push(when(Ix::lit(t.action_count() as i64)));
                if t.stateful {
                    atom_terms.push(when(Ix::lit(1)));
                }
                let terms = if *tcam {
                    &mut tcam_terms
                } else {
                    &mut mem_terms
                };
                terms.push(when(blocks));
            }

            // Dependency depth ≤ stages (eqs. 13–14, collapsed to depth
            // variables: a valid table sits strictly after every valid
            // table it depends on). With recirculation enabled the packet
            // may take a second pass, doubling the usable depth.
            let pass_count = if opts.allow_recirculation { 2 } else { 1 };
            let stages = (chip.stages.max(1) as i64) * pass_count;
            let depth: Vec<lyra_solver::IntId> = unit
                .group
                .tables
                .iter()
                .map(|t| model.int_var(format_args!("depth[{sw_name}][{}]", t.name), 1, stages))
                .collect();
            for (ti, t) in unit.group.tables.iter().enumerate() {
                for &d in &t.depends_on {
                    let both = model.and([Bx::var(table_valid[ti]), Bx::var(table_valid[d])]);
                    let next = model.sum([Ix::var(depth[d]), Ix::lit(1)]);
                    let deeper = model.ge(Ix::var(depth[ti]), next);
                    let c = model.implies(both, deeper);
                    model.require(c);
                }
            }

            // Full per-stage assignment (eqs. 13–15) when requested: every
            // table gets start/end stage variables and per-stage entry
            // counts; memory and table-count budgets are enforced per stage
            // rather than in aggregate.
            if opts.stage_detail {
                encode_stage_detail(model, chip, sw_name, unit, &table_valid, stages);
            }

            // PHV usage: every storage base touched by a deployed
            // instruction occupies its width (eqs. 9–10 collapsed to the
            // aggregate bit budget; per-word-class packing is validated by
            // `lyra-chips::phv` at codegen time).
            for (base, width, is) in &touches[scope].phv {
                let entry = phv_touch.entry(base).or_insert((*width, Vec::new()));
                entry.0 = entry.0.max(*width);
                entry.1.extend(touching(is));
            }
            // Parser TCAM: one entry set per header a deployed instruction
            // touches.
            for (entries, is) in &touches[scope].headers {
                let touched = model.any_of(touching(is));
                parser_terms.push(model.ite(touched, Ix::lit(*entries), Ix::lit(0)));
            }
            // Track switch usage for objectives.
            any_deploy.extend(vars);
            unit_index[ui].tables = table_valid.into_iter().zip(depth).collect();
        }

        let mut phv_terms: Vec<Ix> = Vec::with_capacity(phv_touch.len());
        for (width, touches) in phv_touch.into_values() {
            let touched = model.any_of(touches);
            phv_terms.push(model.ite(touched, Ix::lit(width as i64), Ix::lit(0)));
        }

        // Budgets.
        require_at_most(model, mem_terms, chip.total_sram_blocks() as i64);
        if !tcam_terms.is_empty() {
            require_at_most(model, tcam_terms, chip.total_tcam_blocks() as i64);
        }
        let table_cap = (chip.stages as i64) * (chip.max_tables_per_stage as i64);
        require_at_most(model, table_terms, table_cap);
        let action_cap = (chip.stages as i64) * (chip.max_actions_per_stage as i64);
        require_at_most(model, action_terms, action_cap);
        let atom_cap = (chip.stages as i64) * (chip.atoms_per_stage as i64);
        if !atom_terms.is_empty() {
            require_at_most(model, atom_terms, atom_cap);
        }
        let phv_bits: i64 = chip.phv.iter().map(|c| (c.width * c.count) as i64).sum();
        require_at_most(model, phv_terms, phv_bits);
        if !parser_terms.is_empty() {
            require_at_most(model, parser_terms, chip.parser_tcam_entries as i64);
        }

        // used_s ↔ any deployment on s.
        let used = model.bool_var(format_args!("used[{sw_name}]"));
        let any = model.any_of(any_deploy);
        let c = model.iff(Bx::var(used), any);
        model.require(c);
        enc.switch_used.insert(s, used);
    }
    enc.unit_index = unit_index;
}
