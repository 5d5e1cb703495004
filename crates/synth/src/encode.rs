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
use lyra_ir::{dependency_graph, DepGraph, InstrId, IrProgram};
use lyra_lang::DeployMode;
use lyra_solver::{Bx, Ix, Model};
use lyra_topo::{ResolvedScope, SwitchId, Topology};

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

/// The encoded model plus every map needed to interpret a solution.
#[derive(Debug)]
pub struct Encoded {
    /// The constraint model.
    pub model: Model,
    /// Instruction deployment variables: (algorithm, switch, instr) → var.
    pub instr_var: BTreeMap<(String, SwitchId, InstrId), lyra_solver::BoolId>,
    /// Extern entry-count variables: (extern, switch) → var. Absent for
    /// PER-SW scopes where the count is the full size.
    pub extern_var: BTreeMap<(String, SwitchId), lyra_solver::IntId>,
    /// Fixed extern entry counts (PER-SW full copies).
    pub extern_fixed: BTreeMap<(String, SwitchId), u64>,
    /// Per-(algorithm, switch) synthesized units.
    pub units: Vec<SynthUnit>,
    /// Switch-used variables (for objectives).
    pub switch_used: BTreeMap<SwitchId, lyra_solver::BoolId>,
    /// Table-validity variables: (switch, algorithm, table) → `V` bool.
    /// Recorded (like `switch_used` and `table_depth`) so
    /// [`crate::place::lift`] can derive the auxiliaries of a placement
    /// instead of searching for them.
    pub table_valid: BTreeMap<(SwitchId, String, String), lyra_solver::BoolId>,
    /// Table-depth variables: (switch, algorithm, table) → depth int.
    pub table_depth: BTreeMap<(SwitchId, String, String), lyra_solver::IntId>,
    /// The objective expression, if one was requested.
    pub objective: Option<Ix>,
    /// Dependency graphs per algorithm (kept for placement extraction).
    pub deps: BTreeMap<String, DepGraph>,
    /// Resolved scopes by algorithm.
    pub scopes: BTreeMap<String, ResolvedScope>,
}

/// Build the complete model for `ir` on `topo` under `scopes`.
pub fn encode(
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    opts: &EncodeOptions,
) -> Result<Encoded, EncodeError> {
    let mut model = Model::new();
    let mut enc = Encoded {
        model: Model::new(),
        instr_var: BTreeMap::new(),
        extern_var: BTreeMap::new(),
        extern_fixed: BTreeMap::new(),
        units: Vec::new(),
        switch_used: BTreeMap::new(),
        table_valid: BTreeMap::new(),
        table_depth: BTreeMap::new(),
        objective: None,
        deps: BTreeMap::new(),
        scopes: scopes
            .iter()
            .map(|s| (s.algorithm.clone(), s.clone()))
            .collect(),
    };

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

        for &(s, _) in &prog_switches {
            for &i in &all_instrs {
                let name = format!(
                    "f[{}][{}][i{}]",
                    scope.algorithm,
                    topo.switch(s).name,
                    i.index()
                );
                let v = model.bool_var(name);
                enc.instr_var.insert((scope.algorithm.clone(), s, i), v);
            }
        }

        // Extern tables used by this algorithm.
        let used_externs: Vec<String> = {
            let mut set = std::collections::BTreeSet::new();
            for &i in &all_instrs {
                if let Some(t) = alg.instr(i).op.table() {
                    set.insert(t.to_string());
                }
            }
            set.into_iter().collect()
        };

        match scope.deploy {
            DeployMode::PerSwitch => {
                // Every instruction on every switch of the region.
                for &(s, _) in &prog_switches {
                    for &i in &all_instrs {
                        let v = enc.instr_var[&(scope.algorithm.clone(), s, i)];
                        model.require(Bx::var(v));
                    }
                    for e in &used_externs {
                        let size = ir.externs.get(e).map(|x| x.size).unwrap_or(1024);
                        enc.extern_fixed.insert((e.clone(), s), size);
                    }
                }
            }
            DeployMode::MultiSwitch => {
                // Extern entry variables.
                for e in &used_externs {
                    let size = ir.externs.get(e).map(|x| x.size).unwrap_or(1024);
                    for &(s, _) in &prog_switches {
                        let v = model.int_var(
                            format!("E[{}][{}]", e, topo.switch(s).name),
                            0,
                            size as i64,
                        );
                        enc.extern_var.insert((e.clone(), s), v);
                    }
                }
                encode_multi_switch_placement(
                    &mut model,
                    &enc,
                    ir,
                    scope,
                    alg,
                    &deps,
                    &all_instrs,
                    &prog_switches,
                )?;
            }
        }

        // Synthesize the conditional implementation once per target
        // language — it depends on the algorithm and the language alone —
        // and give every switch speaking that language a copy.
        let mut p4: Option<(TableGroup, ParserHoists)> = None;
        let mut npl: Option<(TableGroup, NplExtras)> = None;
        for &(s, ref chip) in &prog_switches {
            let (group, hoists, npl) = match chip.lang {
                TargetLang::P414 | TargetLang::P416 => {
                    let (group, hoists) = p4
                        .get_or_insert_with(|| synthesize_p4(ir, alg, &deps, &all_instrs, &opts.p4))
                        .clone();
                    (group, hoists, None)
                }
                TargetLang::Npl => {
                    let (group, extras) = npl
                        .get_or_insert_with(|| synthesize_npl(ir, alg, &deps, &all_instrs))
                        .clone();
                    (group, ParserHoists::default(), Some(extras))
                }
            };
            enc.units.push(SynthUnit {
                alg: scope.algorithm.clone(),
                switch: s,
                chip: chip.clone(),
                group,
                hoists,
                npl,
            });
        }

        enc.deps.insert(scope.algorithm.clone(), deps);
    }

    // --- Per-switch resource constraints (across all algorithms) ----------
    encode_switch_resources(&mut model, &mut enc, ir, topo, opts)?;

    // --- Objective ---------------------------------------------------------
    match &opts.objective {
        Objective::Feasible => {}
        Objective::MinSwitches => {
            let mut terms = Vec::new();
            for (&s, &used) in &enc.switch_used {
                let _ = s;
                terms.push(Ix::bool01(used));
            }
            enc.objective = Some(Ix::sum(terms));
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
            let mut terms = Vec::new();
            for ((_, s, _), &v) in &enc.instr_var {
                if *s != target {
                    terms.push(Ix::bool01(v));
                }
            }
            enc.objective = Some(Ix::sum(terms));
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
        let b_start = model.int_var(format!("bstart[{}][{}]", sw_name, t.name), 1, nstages);
        let b_end = model.int_var(format!("bend[{}][{}]", sw_name, t.name), 1, nstages);
        model.require(Ix::var(b_start).le(Ix::var(b_end)));
        starts.push(b_start);
        ends.push(b_end);
        let entries = t.entries.max(1) as i64;
        let mut sum_terms: Vec<Ix> = Vec::new();
        for j in 1..=nstages {
            let e_tj = model.int_var(format!("E[{}][{}][s{}]", sw_name, t.name, j), 0, entries);
            // Entries exist only within [b_start, b_end] (eq. 13).
            model.require(Bx::implies(
                Ix::lit(j).lt(Ix::var(b_start)),
                Ix::var(e_tj).eq(Ix::lit(0)),
            ));
            model.require(Bx::implies(
                Ix::lit(j).gt(Ix::var(b_end)),
                Ix::var(e_tj).eq(Ix::lit(0)),
            ));
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
            let blocks = if chip.word_packing && !t.match_kind.uses_tcam() {
                Ix::var(e_tj).ceil_div(h).scale(m).ceil_div(w)
            } else {
                Ix::var(e_tj).ceil_div(h).scale((m + w - 1) / w)
            };
            per_stage_mem[(j - 1) as usize].push(Ix::ite(
                Bx::var(table_valid[ti]),
                blocks,
                Ix::lit(0),
            ));
            // Table occupies stage j iff b_start ≤ j ≤ b_end.
            let occupies = Bx::and(vec![
                Ix::var(b_start).le(Ix::lit(j)),
                Ix::lit(j).le(Ix::var(b_end)),
                Bx::var(table_valid[ti]),
            ]);
            per_stage_tabs[(j - 1) as usize].push(Ix::ite(occupies, Ix::lit(1), Ix::lit(0)));
        }
        // A valid table's entries must all be placed (eq. 13's ≥ E_t).
        model.require(Bx::implies(
            Bx::var(table_valid[ti]),
            Ix::sum(sum_terms).ge(Ix::lit(entries)),
        ));
    }
    // Dependent tables start strictly after their producers end (eq. 14).
    for (ti, t) in unit.group.tables.iter().enumerate() {
        for &d in &t.depends_on {
            if d >= starts.len() {
                continue;
            }
            let both = Bx::and(vec![Bx::var(table_valid[ti]), Bx::var(table_valid[d])]);
            model.require(Bx::implies(both, Ix::var(starts[ti]).gt(Ix::var(ends[d]))));
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
            model.require(Ix::sum(mem).le(Ix::lit(mem_budget.max(1))));
        }
        let tabs = std::mem::take(&mut per_stage_tabs[j]);
        if !tabs.is_empty() {
            model.require(Ix::sum(tabs).le(Ix::lit(tab_budget.max(1))));
        }
    }
}

/// Flow-path, dependency, global and extern constraints for one MULTI-SW
/// algorithm.
#[allow(clippy::too_many_arguments)]
fn encode_multi_switch_placement(
    model: &mut Model,
    enc: &Encoded,
    ir: &IrProgram,
    scope: &ResolvedScope,
    alg: &lyra_ir::IrAlgorithm,
    deps: &DepGraph,
    all_instrs: &[InstrId],
    prog_switches: &[(SwitchId, ChipModel)],
) -> Result<(), EncodeError> {
    let prog_set: std::collections::BTreeSet<SwitchId> =
        prog_switches.iter().map(|&(s, _)| s).collect();
    let var = |i: InstrId, s: SwitchId| -> Option<lyra_solver::BoolId> {
        enc.instr_var.get(&(scope.algorithm.clone(), s, i)).copied()
    };
    let evar = |e: &str, s: SwitchId| -> Option<lyra_solver::IntId> {
        enc.extern_var.get(&(e.to_string(), s)).copied()
    };

    // Partition instructions: extern readers co-locate with entries; the
    // rest obey exactly-once-per-path.
    let reader_of = |i: InstrId| -> Option<String> { alg.instr(i).op.table().map(str::to_string) };

    for path in &scope.paths {
        // Only programmable switches can host anything; a path hop through
        // a fixed-function switch is transit-only.
        let hops: Vec<SwitchId> = path
            .iter()
            .copied()
            .filter(|s| prog_set.contains(s))
            .collect();
        if hops.is_empty() {
            return Err(EncodeError::new(
                lyra_diag::codes::NO_PROGRAMMABLE,
                format!(
                    "a flow path of `{}` crosses no programmable switch",
                    scope.algorithm
                ),
            ));
        }
        for &i in all_instrs {
            match reader_of(i) {
                None => {
                    // Exactly one deployment along the path.
                    let sum = Ix::sum(
                        hops.iter()
                            .filter_map(|&s| var(i, s))
                            .map(Ix::bool01)
                            .collect(),
                    );
                    model.require(sum.eq(Ix::lit(1)));
                }
                Some(e) => {
                    // Lookup exists exactly where entries do (eq. 16) —
                    // constrained below per switch; here: entries along the
                    // path sum to the full size.
                    let size = ir.externs.get(&e).map(|x| x.size).unwrap_or(1024);
                    let sum = Ix::sum(
                        hops.iter()
                            .filter_map(|&s| evar(&e, s))
                            .map(Ix::var)
                            .collect(),
                    );
                    model.require(sum.eq(Ix::lit(size as i64)));
                }
            }
        }

        // Instruction dependencies (eq. 3) along this path.
        for &b in all_instrs {
            for &a in deps.pred_list(b) {
                match (reader_of(a), reader_of(b)) {
                    (None, None) => {
                        // b at hop j → a at some hop j' ≤ j.
                        for (j, &sb) in hops.iter().enumerate() {
                            let Some(vb) = var(b, sb) else { continue };
                            let earlier: Vec<Bx> = hops[..=j]
                                .iter()
                                .filter_map(|&sa| var(a, sa))
                                .map(Bx::var)
                                .collect();
                            model.require(Bx::implies(Bx::var(vb), Bx::or(earlier)));
                        }
                    }
                    (Some(e), None) => {
                        // b consumes a lookup of e: b must sit at-or-after
                        // the last switch holding entries of e.
                        for (j, &sb) in hops.iter().enumerate() {
                            let Some(vb) = var(b, sb) else { continue };
                            for &later in &hops[j + 1..] {
                                if let Some(ev) = evar(&e, later) {
                                    model.require(Bx::implies(
                                        Bx::var(vb),
                                        Ix::var(ev).eq(Ix::lit(0)),
                                    ));
                                }
                            }
                        }
                    }
                    (None, Some(e)) => {
                        // The lookup of e depends on a (key computation):
                        // a must sit at-or-before the first entries of e.
                        for (j, &sa) in hops.iter().enumerate() {
                            let Some(va) = var(a, sa) else { continue };
                            for &earlier in &hops[..j] {
                                if let Some(ev) = evar(&e, earlier) {
                                    model.require(Bx::implies(
                                        Bx::var(va),
                                        Ix::var(ev).eq(Ix::lit(0)),
                                    ));
                                }
                            }
                        }
                    }
                    (Some(_), Some(_)) => {
                        // Lookup-to-lookup ordering is induced through the
                        // shared entry variables; nothing extra to add.
                    }
                }
            }
        }
    }

    // Lookup instruction ↔ entries co-location (eq. 16's co-existence),
    // per switch.
    for &(s, _) in prog_switches {
        for &i in all_instrs {
            if let Some(e) = reader_of(i) {
                if let (Some(fv), Some(ev)) = (var(i, s), evar(&e, s)) {
                    model.require(Bx::iff(Bx::var(fv), Ix::var(ev).ge(Ix::lit(1))));
                }
            }
        }
    }

    // Global variables co-locate (Appendix B.2): every pair of instructions
    // touching the same global register deploys identically.
    let mut global_users: BTreeMap<String, Vec<InstrId>> = BTreeMap::new();
    for &i in all_instrs {
        if let Some(g) = alg.instr(i).op.global() {
            global_users.entry(g.to_string()).or_default().push(i);
        }
    }
    for users in global_users.values() {
        for w in users.windows(2) {
            for &(s, _) in prog_switches {
                if let (Some(a), Some(b)) = (var(w[0], s), var(w[1], s)) {
                    model.require(Bx::iff(Bx::var(a), Bx::var(b)));
                }
            }
        }
    }

    Ok(())
}

/// Per-switch chip resource constraints aggregated over all algorithms.
fn encode_switch_resources(
    model: &mut Model,
    enc: &mut Encoded,
    ir: &IrProgram,
    topo: &Topology,
    opts: &EncodeOptions,
) -> Result<(), EncodeError> {
    // Group units by switch.
    let mut by_switch: BTreeMap<SwitchId, Vec<usize>> = BTreeMap::new();
    for (ui, u) in enc.units.iter().enumerate() {
        by_switch.entry(u.switch).or_default().push(ui);
    }

    for (&s, unit_ids) in &by_switch {
        let chip = enc.units[unit_ids[0]].chip.clone();
        let sw_name = topo.switch(s).name.clone();

        let mut any_deploy: Vec<Bx> = Vec::new();
        let mut mem_terms: Vec<Ix> = Vec::new();
        let mut tcam_terms: Vec<Ix> = Vec::new();
        let mut table_terms: Vec<Ix> = Vec::new();
        let mut action_terms: Vec<Ix> = Vec::new();
        let mut atom_terms: Vec<Ix> = Vec::new();
        let mut parser_terms: Vec<Ix> = Vec::new();
        // PHV usage is switch-wide: header fields are shared by every
        // algorithm on the switch (one PHV container per field), while
        // locals/metadata are algorithm-prefixed and isolated.
        let mut phv_touch: BTreeMap<String, (u32, Vec<Bx>)> = BTreeMap::new();

        for &ui in unit_ids {
            let unit = &enc.units[ui];
            let alg = ir
                .algorithm(&unit.alg)
                .expect("unit names a lowered algorithm");

            // Table validity and per-table resources.
            let mut table_valid: Vec<lyra_solver::BoolId> = Vec::new();
            for t in &unit.group.tables {
                let v = model.bool_var(format!("V[{}][{}]", sw_name, t.name));
                let members: Vec<Bx> = t
                    .instrs
                    .iter()
                    .filter_map(|&i| enc.instr_var.get(&(unit.alg.clone(), s, i)).copied())
                    .map(Bx::var)
                    .collect();
                model.require(Bx::iff(Bx::var(v), Bx::or(members)));
                enc.table_valid
                    .insert((s, unit.alg.clone(), t.name.clone()), v);
                table_valid.push(v);

                let valid = Bx::var(v);
                table_terms.push(Ix::ite(valid.clone(), Ix::lit(1), Ix::lit(0)));
                action_terms.push(Ix::ite(
                    valid.clone(),
                    Ix::lit(t.action_count() as i64),
                    Ix::lit(0),
                ));
                if t.stateful {
                    atom_terms.push(Ix::ite(valid.clone(), Ix::lit(1), Ix::lit(0)));
                }

                // Memory blocks (eqs. 2, 11, 15): variable-sized for split
                // externs, constant otherwise. Non-exact match kinds (lpm /
                // ternary / range) consume TCAM blocks instead of SRAM, with
                // range rules expanded on chips lacking native range match
                // (Appendix D).
                let tcam_resident = t.match_kind.uses_tcam()
                    && !matches!(t.kind, crate::table::TableKind::PredicateGate);
                let is_range = t.match_kind == lyra_lang::MatchKind::Range;
                let blocks: Ix = match t.extern_name() {
                    Some(e) => {
                        if let Some(&ev) = enc.extern_var.get(&(e.to_string(), s)) {
                            let m = t.match_width.max(1) as i64;
                            if tcam_resident {
                                let h = chip.tcam.entries.max(1) as i64;
                                let w = chip.tcam.width.max(1) as i64;
                                let exp = if is_range && !chip.supports_range_match {
                                    chip.range_expansion.max(1) as i64
                                } else {
                                    1
                                };
                                Ix::var(ev).scale(exp).ceil_div(h).scale((m + w - 1) / w)
                            } else {
                                let h = chip.sram.entries.max(1) as i64;
                                let w = chip.sram.width.max(1) as i64;
                                if chip.word_packing {
                                    // ceil(ceil(E/h)·M / w)
                                    Ix::var(ev).ceil_div(h).scale(m).ceil_div(w)
                                } else {
                                    // ceil(E/h)·ceil(M/w)
                                    Ix::var(ev).ceil_div(h).scale((m + w - 1) / w)
                                }
                            }
                        } else {
                            let entries = enc
                                .extern_fixed
                                .get(&(e.to_string(), s))
                                .copied()
                                .unwrap_or(t.entries);
                            if tcam_resident {
                                Ix::lit(chip.tcam_blocks(entries, t.match_width, is_range) as i64)
                            } else {
                                Ix::lit(chip.table_blocks(entries, t.match_width) as i64)
                            }
                        }
                    }
                    None => Ix::lit(chip.table_blocks(t.entries, t.match_width) as i64),
                };
                if tcam_resident {
                    tcam_terms.push(Ix::ite(valid, blocks, Ix::lit(0)));
                } else {
                    mem_terms.push(Ix::ite(valid, blocks, Ix::lit(0)));
                }
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
                .map(|t| {
                    let d = model.int_var(format!("depth[{}][{}]", sw_name, t.name), 1, stages);
                    enc.table_depth
                        .insert((s, unit.alg.clone(), t.name.clone()), d);
                    d
                })
                .collect();
            for (ti, t) in unit.group.tables.iter().enumerate() {
                for &d in &t.depends_on {
                    let both = Bx::and(vec![Bx::var(table_valid[ti]), Bx::var(table_valid[d])]);
                    model.require(Bx::implies(
                        both,
                        Ix::var(depth[ti]).ge(Ix::var(depth[d]).add(Ix::lit(1))),
                    ));
                }
            }

            // Full per-stage assignment (eqs. 13–15) when requested: every
            // table gets start/end stage variables and per-stage entry
            // counts; memory and table-count budgets are enforced per stage
            // rather than in aggregate.
            if opts.stage_detail {
                encode_stage_detail(model, &chip, &sw_name, unit, &table_valid, stages);
            }

            // PHV usage: every storage base touched by a deployed
            // instruction occupies its width (eqs. 9–10 collapsed to the
            // aggregate bit budget; per-word-class packing is validated by
            // `lyra-chips::phv` at codegen time). Header fields are keyed
            // switch-wide, locals per algorithm.
            for i in alg.instr_ids() {
                let Some(&fv) = enc.instr_var.get(&(unit.alg.clone(), s, i)) else {
                    continue;
                };
                let instr = alg.instr(i);
                let mut values: Vec<lyra_ir::ValueId> = Vec::new();
                for o in instr.op.reads() {
                    if let lyra_ir::Operand::Value(v) = o {
                        values.push(v);
                    }
                }
                if let Some(d) = instr.dst {
                    values.push(d);
                }
                if let Some(p) = instr.pred {
                    values.push(p);
                }
                for v in values {
                    let info = alg.value(v);
                    let key = if info.base.contains('.') {
                        info.base.clone()
                    } else {
                        format!("{}:{}", unit.alg, info.base)
                    };
                    let entry = phv_touch.entry(key).or_insert((info.width, Vec::new()));
                    entry.0 = entry.0.max(info.width);
                    entry.1.push(Bx::var(fv));
                }
            }

            // Parser TCAM: one entry per header whose fields a deployed
            // instruction touches (plus parser-graph ancestors — eqs. 6–8).
            let mut header_touch: BTreeMap<String, Vec<Bx>> = BTreeMap::new();
            for i in alg.instr_ids() {
                let Some(&fv) = enc.instr_var.get(&(unit.alg.clone(), s, i)) else {
                    continue;
                };
                let instr = alg.instr(i);
                let mut values: Vec<lyra_ir::ValueId> = Vec::new();
                for o in instr.op.reads() {
                    if let lyra_ir::Operand::Value(v) = o {
                        values.push(v);
                    }
                }
                if let Some(d) = instr.dst {
                    values.push(d);
                }
                for v in values {
                    let info = alg.value(v);
                    if let Some((inst, _)) = info.base.split_once('.') {
                        for anc in crate::parser_deps::with_ancestors(ir, inst) {
                            header_touch.entry(anc).or_default().push(Bx::var(fv));
                        }
                    }
                }
            }
            for (h, touches) in header_touch {
                let entries = crate::parser_deps::parser_entries_for(ir, &h) as i64;
                parser_terms.push(Ix::ite(Bx::or(touches), Ix::lit(entries), Ix::lit(0)));
            }

            // Track switch usage for objectives.
            for i in alg.instr_ids() {
                if let Some(&fv) = enc.instr_var.get(&(unit.alg.clone(), s, i)) {
                    any_deploy.push(Bx::var(fv));
                }
            }
        }

        let phv_terms: Vec<Ix> = phv_touch
            .into_values()
            .map(|(width, touches)| Ix::ite(Bx::or(touches), Ix::lit(width as i64), Ix::lit(0)))
            .collect();

        // Budgets.
        let total_blocks = chip.total_sram_blocks() as i64;
        model.require(Ix::sum(mem_terms).le(Ix::lit(total_blocks)));
        if !tcam_terms.is_empty() {
            let total_tcam = chip.total_tcam_blocks() as i64;
            model.require(Ix::sum(tcam_terms).le(Ix::lit(total_tcam)));
        }
        let table_cap = (chip.stages as i64) * (chip.max_tables_per_stage as i64);
        model.require(Ix::sum(table_terms).le(Ix::lit(table_cap)));
        let action_cap = (chip.stages as i64) * (chip.max_actions_per_stage as i64);
        model.require(Ix::sum(action_terms).le(Ix::lit(action_cap)));
        let atom_cap = (chip.stages as i64) * (chip.atoms_per_stage as i64);
        if !atom_terms.is_empty() {
            model.require(Ix::sum(atom_terms).le(Ix::lit(atom_cap)));
        }
        let phv_bits: i64 = chip.phv.iter().map(|c| (c.width * c.count) as i64).sum();
        model.require(Ix::sum(phv_terms).le(Ix::lit(phv_bits)));
        if !parser_terms.is_empty() {
            model.require(Ix::sum(parser_terms).le(Ix::lit(chip.parser_tcam_entries as i64)));
        }

        // used_s ↔ any deployment on s.
        let used = model.bool_var(format!("used[{sw_name}]"));
        model.require(Bx::iff(Bx::var(used), Bx::or(any_deploy)));
        enc.switch_used.insert(s, used);
    }

    Ok(())
}
