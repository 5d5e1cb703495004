#![warn(missing_docs)]
//! # lyra-synth — conditional synthesis, SMT encoding, and placement
//!
//! The back half of the Lyra compiler (§5 of the paper):
//!
//! * [`p4`] — conditional P4 synthesis (Algorithm 1): predicate blocks →
//!   match-action tables, with mutually-exclusive block merging and action
//!   folding;
//! * [`npl`] — conditional NPL synthesis: logical tables with multi-lookup
//!   merging, logical bus and registers;
//! * [`encode`](mod@encode) — the SMT model: deployment booleans `f_s(I)`, extern
//!   split counts `E_{e,s}`, chip resource budgets (memory blocks, tables,
//!   actions, atoms, PHV bits, parser TCAM, stage depth), flow-path,
//!   dependency, and co-location constraints;
//! * [`backend`] — the native CDCL(T) solver;
//! * [`place`] — solution → per-switch [`Placement`], including Algorithm
//!   2's carried values (bridge headers between cooperating switches), and
//!   back: [`place::lift`] completes a placement into a full assignment;
//! * [`explain`] — post-UNSAT necessary-condition analysis naming the
//!   violated constraint family (memory, stages, PHV, tables).
//!
//! The one-call entry point is [`synthesize`].

pub mod backend;
pub mod encode;
pub mod explain;
pub mod greedy;
pub mod index;
pub mod npl;
pub mod p4;
pub mod parser_deps;
pub mod place;
pub mod table;
pub mod util;

pub use backend::{Backend, SolveLimits, SolverStrategy};
pub use encode::{encode, EncodeError, EncodeOptions, Encoded, Objective, SynthUnit};
pub use explain::explain_infeasible;
pub use p4::P4Options;
pub use place::{CarriedValue, Placement, SwitchPlan};
pub use table::{SynthAction, SynthTable, TableGroup, TableKind};

use std::collections::{BTreeMap, BTreeSet};

use lyra_diag::{codes, Diagnostic};
use lyra_ir::IrProgram;
use lyra_solver::{Outcome, SearchStats, Solution};
use lyra_topo::{interchangeable_classes, ResolvedScope, SwitchId, Topology};

/// Synthesis failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum SynthError {
    /// Encoding failed (bad scopes, unknown ASIC, …).
    Encode(EncodeError),
    /// The constraints are unsatisfiable — the program cannot be placed in
    /// this network. Carries diagnostics naming the violated constraint
    /// family plus the solver statistics of the refutation.
    Infeasible {
        /// Explanation of the infeasibility, one diagnostic per provably
        /// violated constraint family (see [`explain_infeasible`]).
        diagnostics: Vec<Diagnostic>,
        /// Search effort spent proving UNSAT.
        stats: SearchStats,
    },
    /// The solver exhausted its decision budget or deadline without a
    /// verdict, and no fallback placement was accepted — distinct from
    /// [`SynthError::Infeasible`]: the program may still be placeable with
    /// a larger budget.
    BudgetExhausted {
        /// Search effort spent before giving up.
        stats: SearchStats,
        /// Why the greedy first-fit rung gave no placement, when a limit
        /// was set and it ran.
        greedy: Option<String>,
    },
}

impl SynthError {
    /// Structured diagnostics for this failure.
    pub fn to_diagnostics(&self) -> Vec<Diagnostic> {
        match self {
            SynthError::Encode(e) => vec![e.to_diagnostic()],
            SynthError::Infeasible { diagnostics, .. } => diagnostics.clone(),
            SynthError::BudgetExhausted { stats, greedy } => {
                let d = Diagnostic::error(
                    codes::SOLVER_BUDGET,
                    format!(
                        "solver budget exhausted after {} decisions without a verdict",
                        stats.decisions
                    ),
                )
                .with_note(
                    "the placement problem was neither solved nor refuted; retry with a \
                     larger decision budget or a later deadline",
                );
                vec![match greedy {
                    Some(reason) => d.with_note(format!("greedy first-fit fallback: {reason}")),
                    None => d,
                }]
            }
        }
    }
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::Encode(e) => write!(f, "{e}"),
            SynthError::Infeasible { diagnostics, .. } => {
                write!(
                    f,
                    "no feasible placement: the program does not fit the target network's resources"
                )?;
                for d in diagnostics {
                    write!(f, "; {}", d.message)?;
                }
                Ok(())
            }
            SynthError::BudgetExhausted { .. } => {
                write!(f, "solver budget exhausted without a verdict")
            }
        }
    }
}

impl std::error::Error for SynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthError::Encode(e) => Some(e),
            SynthError::Infeasible { diagnostics, .. } => diagnostics
                .first()
                .map(|d| d as &(dyn std::error::Error + 'static)),
            SynthError::BudgetExhausted { .. } => None,
        }
    }
}

/// Which rung of the degradation ladder produced a result, when the
/// search could not reach a verdict, or prove its model optimal, inside
/// its limits. Absent (`None` on [`SynthResult::degraded`]) for a normal
/// solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeRung {
    /// The search spent its deadline or decision budget; the placement
    /// came from greedy first-fit ([`greedy::greedy_solution`]) — whole
    /// algorithms on first-fitting path switches — and satisfies the full
    /// model, but nothing was optimized.
    GreedyFirstFit,
    /// A minimization spent its deadline or decision budget after finding
    /// a model: the placement is the best model it found, which satisfies
    /// the full model but is not proved optimal.
    BestSoFar,
}

impl std::fmt::Display for DegradeRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeRung::GreedyFirstFit => write!(f, "greedy-first-fit"),
            DegradeRung::BestSoFar => write!(f, "best-so-far"),
        }
    }
}

/// Which route through [`synthesize_limited`] produced a placement.
/// Orthogonal to [`DegradeRung`]: the rung says whether the monolithic
/// route had to fall back to greedy, the route says whether the solver saw
/// the full problem at all. Every placement is a model of the full
/// encoding: the carried-over, quotient and greedy candidates are accepted
/// only by [`Solution::satisfies`](lyra_solver::Solution::satisfies) on it,
/// and the search returns models (asserted in debug builds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveRoute {
    /// The previous placement, restricted to the switches that still
    /// exist, verified against the new model: no search at all.
    CarriedOver,
    /// One representative per interchangeable-switch class was solved and
    /// the solution replicated onto the class members.
    Quotient,
    /// The solver searched the full model, falling back to greedy
    /// first-fit if the limits required it.
    Monolithic,
}

impl SolveRoute {
    /// Stable name for reports (`lyrac`, session JSON).
    pub fn name(self) -> &'static str {
        match self {
            SolveRoute::CarriedOver => "carried-over",
            SolveRoute::Quotient => "quotient",
            SolveRoute::Monolithic => "monolithic",
        }
    }
}

impl std::fmt::Display for SolveRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of a successful synthesis run.
#[derive(Debug)]
pub struct SynthResult {
    /// The solved placement.
    pub placement: Placement,
    /// The encoded model (kept for code generation, which needs the units).
    pub encoded: Encoded,
    /// Solver search statistics for this run.
    pub stats: SearchStats,
    /// Which degradation-ladder rung produced this result; `None` when the
    /// search finished within its limits.
    pub degraded: Option<DegradeRung>,
}

/// Run the full back-end: synthesize conditional implementations, encode,
/// solve, and extract a placement.
pub fn synthesize(
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    opts: &EncodeOptions,
    backend: &Backend,
) -> Result<SynthResult, SynthError> {
    let limits = SynthLimits::default();
    synthesize_limited(ir, topo, scopes, opts, backend, None, &limits).map(|(result, _)| result)
}

/// Watchdog limits on a synthesis run, plus the quotient-route toggle.
#[derive(Debug, Clone, Default)]
pub struct SynthLimits {
    /// Wall-clock deadline for the search. Expiry does not fail the
    /// compile: the degradation ladder runs instead.
    pub deadline: Option<std::time::Instant>,
    /// Decision budget per search (overrides the solver default); a
    /// minimization is one search.
    pub max_decisions: Option<u64>,
    /// Try the quotient route first: solve a quotient model over
    /// interchangeable-switch class representatives, replicate the
    /// solution, and verify it against the full encoding — falling back to
    /// the monolithic solve on any mismatch.
    pub decomposition: bool,
}

/// One typed bundle of every solver-configuration knob: the watchdog
/// limits and the quotient-route toggle. This is the single public entry
/// point for configuring how placements are solved —
/// `CompileRequest::with_solve_profile` in the driver, `--solve-profile`,
/// `--deadline-ms` and `--decision-budget` in `lyrac`. Every profile runs
/// the same deterministic search: the same request under the same profile
/// yields the same placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveProfile {
    /// Wall-clock budget for the solve phase; expiry triggers the
    /// degradation ladder rather than a failure.
    pub deadline: Option<std::time::Duration>,
    /// Decision budget per search (overrides the solver default); a
    /// minimization is one search.
    pub decision_budget: Option<u64>,
    /// Solve per-pod quotient subproblems and replicate, with verified
    /// stitching and monolithic fallback.
    pub decomposition: bool,
}

impl Default for SolveProfile {
    /// No limits, the quotient route on.
    fn default() -> Self {
        SolveProfile {
            deadline: None,
            decision_budget: None,
            decomposition: true,
        }
    }
}

impl SolveProfile {
    /// Reference preset: one monolithic search, the quotient route
    /// *disabled* — what the quotient route is differentially tested
    /// against.
    pub fn thorough() -> Self {
        SolveProfile {
            decomposition: false,
            ..SolveProfile::default()
        }
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, d: std::time::Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set the per-search decision budget. Under an objective the budget,
    /// like the deadline, spans the whole minimization — every round of
    /// its branch-and-bound — not each round; one spent after the first
    /// model yields that model as [`DegradeRung::BestSoFar`].
    pub fn with_decision_budget(mut self, decisions: u64) -> Self {
        self.decision_budget = Some(decisions);
        self
    }
}

impl SynthLimits {
    /// The limits one solve runs under.
    fn solve_limits(&self) -> SolveLimits {
        SolveLimits {
            deadline: self.deadline,
            max_decisions: self.max_decisions,
        }
    }

    /// True when no limit is configured — the ladder never triggers and
    /// budget exhaustion surfaces as [`SynthError::BudgetExhausted`],
    /// preserving the historical contract.
    fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_decisions.is_none()
    }
}

/// [`synthesize`] under [`SynthLimits`], with graceful degradation, and
/// optionally seeded with a previous placement (§8 "Synthesizing
/// incremental changes"). Also reports the [`SolveRoute`] that produced the
/// placement.
///
/// The problem is encoded **once**. Three routes are then tried in order on
/// that model, and a candidate no search produced is accepted only by
/// [`Solution::satisfies`](lyra_solver::Solution::satisfies) on it:
///
/// 1. **carry-over** — a previous placement under [`Objective::Feasible`]
///    is lifted onto the new encoding ([`place::lift_placement`]) and, if
///    it verifies, returned with no search at all. This is the failover
///    case: faults only remove flow paths, and every constraint family is
///    per switch or per path, so the prior placement restricted to the
///    survivors is still feasible.
/// 2. **quotient** — cold compiles of symmetric MULTI-SW problems
///    ([`SynthLimits::decomposition`]).
/// 3. **monolithic** — the solver on the full model, under the degradation
///    ladder.
///
/// The ladder has two rungs on the same model:
///
/// 1. the search under the deadline and decision budget; a minimization
///    cut short after it found a model returns that model, marked
///    [`DegradeRung::BestSoFar`];
/// 2. when it spends either ([`Outcome::Unknown`]), greedy first-fit
///    placement (no search at all), lifted into a full assignment
///    ([`place::lift`]) and accepted only if it satisfies the model.
///
/// A best-so-far model and a result produced by rung 2 carry
/// [`SynthResult::degraded`] so the driver can surface a degraded-result
/// diagnostic. `Unsat` at rung 1 is a genuine refutation and fails with
/// [`SynthError::Infeasible`]; a spent limit with no accepted greedy
/// placement fails with [`SynthError::BudgetExhausted`], carrying greedy's
/// reason.
pub fn synthesize_limited(
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    opts: &EncodeOptions,
    backend: &Backend,
    previous: Option<&Placement>,
    limits: &SynthLimits,
) -> Result<(SynthResult, SolveRoute), SynthError> {
    let Backend::Native = backend;
    let enc = encode(ir, topo, scopes, opts).map_err(SynthError::Encode)?;
    let finish = |enc: Encoded, sol: &Solution, stats, degraded, route| {
        let placement = place::extract(&enc, ir, topo, sol);
        Ok((
            SynthResult {
                placement,
                encoded: enc,
                stats,
                degraded,
            },
            route,
        ))
    };

    // Route order: carry-over, quotient, monolithic ladder. The first two
    // can only ever *add* a faster way to an answer the third would also
    // accept: each builds a candidate assignment without searching the
    // full model and keeps it only if `Solution::satisfies` holds on the
    // full encoding, so neither changes what is solvable. Any miss
    // (nothing to carry over, ineligible topology, solver timeout,
    // verification mismatch) falls through to the next route.
    //
    // The carry-over route needs `Objective::Feasible`: under an
    // optimizing objective the survivors may admit a smaller optimum than
    // the prior placement. It ignores the deadline — it does no search.
    // Per-stage detail variables are not in `Encoded`'s index, so a lift
    // could never verify with them.
    let plain = opts.objective == Objective::Feasible && !opts.stage_detail;
    if let Some(prev) = previous.filter(|_| plain) {
        let sol = place::lift_placement(&enc, topo, prev);
        if sol.satisfies(&enc.model) {
            let stats = SearchStats::default();
            return finish(enc, &sol, stats, None, SolveRoute::CarriedOver);
        }
    }

    // The quotient route is for cold compiles: a previous placement that
    // did not carry over (a program edit, an objective) goes to the full
    // search. Effort a failed attempt spent is carried into the monolithic
    // run's totals, so reporting stays honest.
    let mut total = SearchStats::default();
    if limits.decomposition
        && previous.is_none()
        && plain
        && scopes
            .iter()
            .any(|s| s.deploy == lyra_lang::DeployMode::MultiSwitch)
    {
        let classes = interchangeable_classes(topo, scopes);
        if !classes.is_empty() {
            let (sol, stats) = try_quotient(&enc, ir, topo, scopes, opts, limits, &classes);
            if let Some(sol) = sol {
                return finish(enc, &sol, stats, None, SolveRoute::Quotient);
            }
            total = stats;
        }
    }

    // Rung 1: the search under the configured limits. A minimization cut
    // short after it found a model keeps that model, marked unproved.
    let (outcome, truncated, stats) =
        backend::solve_limited(&enc.model, enc.objective.as_ref(), &limits.solve_limits());
    total.absorb(stats);
    match outcome {
        Outcome::Sat(sol) => {
            let rung = truncated.then_some(DegradeRung::BestSoFar);
            return finish(enc, &sol, total, rung, SolveRoute::Monolithic);
        }
        Outcome::Unsat => {
            return Err(SynthError::Infeasible {
                diagnostics: explain::explain_infeasible(&enc, ir, topo, opts),
                stats: total,
            })
        }
        Outcome::Unknown if limits.is_unlimited() => {
            // No limit was set, so Unknown means the solver's own decision
            // budget ran out — the historical failure, not a ladder case.
            return Err(SynthError::BudgetExhausted {
                stats: total,
                greedy: None,
            });
        }
        Outcome::Unknown => {}
    }

    // Rung 2: no search at all, held to the same check as every route.
    // Greedy failing is not a refutation — a real solver run might still
    // succeed by splitting algorithms — so it reports exhaustion.
    let reason = match greedy::greedy_solution(&enc, ir, topo) {
        Ok(sol) if sol.satisfies(&enc.model) => {
            let rung = Some(DegradeRung::GreedyFirstFit);
            return finish(enc, &sol, total, rung, SolveRoute::Monolithic);
        }
        Ok(_) => "the whole-algorithm placement it built violates the placement model \
                  (it checks SRAM blocks and table slots, not stages, PHV or actions)"
            .to_string(),
        Err(reason) => reason,
    };
    Err(SynthError::BudgetExhausted {
        stats: total,
        greedy: Some(reason),
    })
}

/// Quotient solving: collapse every interchangeable-switch class to its
/// smallest member, solve the (much smaller) quotient encoding, replicate
/// the representative's placement onto every class member
/// ([`place::lift`]), and verify the lifted solution against the encoding
/// of the whole problem, `full`, with
/// [`Solution::satisfies`](lyra_solver::Solution::satisfies). Returns
/// `(None, effort)` whenever anything disqualifies the attempt — the caller
/// falls back to the monolithic solve, so this path never changes what is
/// solvable, only how fast.
///
/// Soundness does not rest on the class analysis: whatever the quotient
/// produces is accepted *only* after the full model check passes, so a
/// wrong class could at worst waste the quotient solve. The class analysis
/// (`lyra_topo::symmetry`) exists to make the check overwhelmingly likely
/// to pass: verified transpositions map constraints to constraints, so a
/// per-class-constant assignment satisfying the quotient constraints
/// satisfies the full path/resource families too.
fn try_quotient(
    full: &Encoded,
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    opts: &EncodeOptions,
    limits: &SynthLimits,
    classes: &[Vec<SwitchId>],
) -> (Option<Solution>, SearchStats) {
    let mut rep_map: BTreeMap<SwitchId, SwitchId> = BTreeMap::new();
    for class in classes {
        let r = class[0]; // classes are sorted; the smallest id represents
        for &s in class {
            rep_map.insert(s, r);
        }
    }
    let rep = |s: SwitchId| rep_map.get(&s).copied().unwrap_or(s);

    // Quotient scopes: representative switches, mapped + deduplicated
    // paths. A mapped path revisiting a switch (two hops collapsing into
    // one representative) has no counterpart in the path encoding — give
    // up before solving anything.
    let mut q_scopes: Vec<ResolvedScope> = Vec::with_capacity(scopes.len());
    for scope in scopes {
        let mut switches: Vec<SwitchId> = scope.switches.iter().map(|&s| rep(s)).collect();
        switches.sort_unstable();
        switches.dedup();
        let mut paths: Vec<Vec<SwitchId>> = Vec::new();
        for p in &scope.paths {
            let mapped: Vec<SwitchId> = p.iter().map(|&s| rep(s)).collect();
            let distinct: BTreeSet<SwitchId> = mapped.iter().copied().collect();
            if distinct.len() != mapped.len() {
                return (None, SearchStats::default());
            }
            if !paths.contains(&mapped) {
                paths.push(mapped);
            }
        }
        q_scopes.push(ResolvedScope {
            algorithm: scope.algorithm.clone(),
            switches,
            deploy: scope.deploy,
            paths,
        });
    }
    if q_scopes
        .iter()
        .zip(scopes)
        .all(|(q, s)| q.switches.len() == s.switches.len())
    {
        return (None, SearchStats::default()); // quotient is no smaller
    }

    let Ok(q_enc) = encode::encode_reusing(ir, topo, &q_scopes, opts, Some(full)) else {
        return (None, SearchStats::default());
    };

    let (outcome, _, stats) = backend::solve_limited(&q_enc.model, None, &limits.solve_limits());
    let Outcome::Sat(q_sol) = outcome else {
        // Unknown → monolithic retry. Unsat is *not* propagated as a
        // refutation of the full problem: the quotient forces per-class-
        // uniform placements, a strictly stronger model.
        return (None, stats);
    };

    // Replicate: every member deploys what its representative deploys and
    // hosts as many entries; anything unmapped hosts nothing and is caught
    // by the verification below.
    let sol = place::lift(
        full,
        |alg, sw, instr| {
            q_enc
                .instr_var(alg, rep(sw), instr)
                .is_some_and(|q| q_sol.bool(q))
        },
        |e, sw| q_enc.extern_var(e, rep(sw)).map_or(0, |q| q_sol.int(q)),
    );
    // The load-bearing check: the replicated assignment must satisfy every
    // constraint of the full encoding, or the quotient result is discarded.
    let verified = sol.satisfies(&full.model);
    (verified.then_some(sol), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_ir::frontend;
    use lyra_lang::parse_scopes;
    use lyra_topo::{figure1_network, resolve_scope};

    const LB_SRC: &str = r#"
        pipeline[LB]{loadbalancer};
        algorithm loadbalancer {
            extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
            extern dict<bit[32] vip, bit[8] group>[1024] vip_table;
            bit[32] hash;
            hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
            if (hash in conn_table) {
                ipv4.dstAddr = conn_table[hash];
            }
        }
    "#;

    fn lb_setup() -> (IrProgram, Topology, Vec<ResolvedScope>) {
        let ir = frontend(LB_SRC).unwrap();
        let topo = figure1_network();
        let scopes = parse_scopes(
            "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
        )
        .unwrap();
        let resolved: Vec<ResolvedScope> = scopes
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        (ir, topo, resolved)
    }

    #[test]
    fn lb_places_with_native_backend() {
        let (ir, topo, scopes) = lb_setup();
        let res = synthesize(
            &ir,
            &topo,
            &scopes,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .expect("LB placement must be feasible");
        // Every instruction deployed somewhere; conn_table fully placed on
        // every path.
        assert!(res.placement.used_switches() >= 1);
        let total_conn: u64 = res
            .placement
            .switches
            .values()
            .filter_map(|p| p.extern_entries.get("conn_table"))
            .sum();
        assert!(total_conn >= 1024, "conn_table entries: {total_conn}");
    }

    #[test]
    fn synthesis_reports_solver_stats() {
        let (ir, topo, scopes) = lb_setup();
        let res = synthesize(
            &ir,
            &topo,
            &scopes,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .expect("LB placement must be feasible");
        assert!(
            res.stats.decisions + res.stats.propagations > 0,
            "solving a non-trivial model must record search effort"
        );
    }

    #[test]
    fn per_switch_scope_copies_everywhere() {
        let ir = frontend(
            r#"
            pipeline[P]{int_in};
            algorithm int_in {
                extern list<bit[32] ip>[128] watch;
                if (ipv4.src_ip in watch) { int_enable = 1; }
            }
            "#,
        )
        .unwrap();
        let topo = figure1_network();
        let scopes = parse_scopes("int_in: [ ToR* | PER-SW | - ]").unwrap();
        let resolved: Vec<ResolvedScope> = scopes
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        let res = synthesize(
            &ir,
            &topo,
            &resolved,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .unwrap();
        // All four ToRs get the full program.
        assert_eq!(res.placement.used_switches(), 4);
        for (name, plan) in &res.placement.switches {
            assert!(name.starts_with("ToR"));
            assert_eq!(plan.extern_entries.get("watch"), Some(&128));
            assert!(!plan.tables.is_empty());
        }
    }

    #[test]
    fn infeasible_when_table_exceeds_scope_capacity() {
        // A 100M-entry table cannot fit any single Agg switch pair.
        let ir = frontend(
            r#"
            pipeline[P]{big};
            algorithm big {
                extern dict<bit[32] k, bit[32] v>[100000000] huge;
                if (k in huge) { x = 1; }
            }
            "#,
        )
        .unwrap();
        let topo = figure1_network();
        let scopes =
            parse_scopes("big: [ Agg3,Agg4,ToR3,ToR4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]")
                .unwrap();
        let resolved: Vec<ResolvedScope> = scopes
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        let err = synthesize(
            &ir,
            &topo,
            &resolved,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .unwrap_err();
        let SynthError::Infeasible { diagnostics, .. } = err else {
            panic!("expected Infeasible, got {err:?}");
        };
        // The explanation must name the violated family (memory) and the
        // offending extern.
        assert!(
            diagnostics.iter().any(|d| {
                d.code == Some(lyra_diag::codes::INFEASIBLE_MEMORY) && d.message.contains("huge")
            }),
            "diagnostics: {diagnostics:?}"
        );
    }

    #[test]
    fn unprogrammable_scope_is_error() {
        let ir = frontend("pipeline[P]{a}; algorithm a { x = 1; }").unwrap();
        let topo = figure1_network();
        let scopes = parse_scopes("a: [ Core* | PER-SW | - ]").unwrap();
        let resolved: Vec<ResolvedScope> = scopes
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        let err = synthesize(
            &ir,
            &topo,
            &resolved,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .unwrap_err();
        assert!(matches!(err, SynthError::Encode(_)));
    }

    #[test]
    fn expired_deadline_degrades_to_greedy() {
        let (ir, topo, scopes) = lb_setup();
        let (res, route) = synthesize_limited(
            &ir,
            &topo,
            &scopes,
            &EncodeOptions::default(),
            &Backend::Native,
            None,
            &expired(),
        )
        .expect("ladder must produce a degraded placement, not fail");
        assert_eq!(res.degraded, Some(DegradeRung::GreedyFirstFit));
        assert_eq!(route, SolveRoute::Monolithic);
        // The greedy placement still covers every flow path's extern needs.
        let total_conn: u64 = res
            .placement
            .switches
            .values()
            .filter_map(|p| p.extern_entries.get("conn_table"))
            .sum();
        assert!(total_conn >= 1024, "conn_table entries: {total_conn}");
        assert!(res.placement.used_switches() >= 1);
        assert!(place::lift_placement(&res.encoded, &topo, &res.placement)
            .satisfies(&res.encoded.model));
    }

    /// Limits whose deadline has already passed.
    fn expired() -> SynthLimits {
        SynthLimits {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..Default::default()
        }
    }

    /// A dependency chain deeper than a Tofino-64Q's twelve stages: greedy
    /// hosts it whole on each Agg, 18 stages deep. The model rejects that,
    /// so a spent deadline ends in `LYR0410` naming greedy's reason instead
    /// of in a placement the chip cannot run.
    #[test]
    fn greedy_placement_the_model_rejects_is_refused() {
        let decls: String = (0..=16).map(|i| format!("bit[32] x{i};\n")).collect();
        let chain: String = (1..=16)
            .map(|i| format!("x{i} = x{} + {i};\n", i - 1))
            .collect();
        let ir = frontend(&format!(
            "pipeline[P]{{deep}};\nalgorithm deep {{\n{decls}x0 = ipv4.srcAddr;\n{chain}\
             ipv4.dstAddr = x16;\n}}"
        ))
        .unwrap();
        let topo = lyra_topo::fat_tree_pod(4, "tofino-64q", "tofino-64q");
        let scopes: Vec<ResolvedScope> =
            parse_scopes("deep: [ ToR*,Agg* | MULTI-SW | (Agg1,Agg2->ToR1,ToR2) ]")
                .unwrap()
                .iter()
                .map(|s| resolve_scope(&topo, s).unwrap())
                .collect();
        let opts = EncodeOptions::default();
        let err = synthesize_limited(
            &ir,
            &topo,
            &scopes,
            &opts,
            &Backend::Native,
            None,
            &expired(),
        )
        .expect_err("greedy's 18-stage placement must not be emitted");
        let SynthError::BudgetExhausted {
            greedy: Some(reason),
            ..
        } = &err
        else {
            panic!("expected exhaustion with greedy's reason, got {err:?}");
        };
        let [d] = &err.to_diagnostics()[..] else {
            panic!("one diagnostic: {err:?}");
        };
        assert_eq!(d.code, Some(codes::SOLVER_BUDGET));
        assert!(d.notes.iter().any(|n| n.contains(reason.as_str())));
        // Unlimited, the solver splits the chain across the two hops.
        let (res, _) = synthesize_limited(
            &ir,
            &topo,
            &scopes,
            &opts,
            &Backend::Native,
            None,
            &SynthLimits::default(),
        )
        .expect("the chain fits two hops");
        assert_eq!(res.degraded, None);
    }

    /// `synthesize_limited` with default limits.
    fn resynthesize(
        setup: &(IrProgram, Topology, Vec<ResolvedScope>),
        opts: &EncodeOptions,
        previous: &Placement,
    ) -> (SynthResult, SolveRoute) {
        let (ir, topo, scopes) = setup;
        synthesize_limited(
            ir,
            topo,
            scopes,
            opts,
            &Backend::Native,
            Some(previous),
            &SynthLimits::default(),
        )
        .expect("the LB problem is feasible")
    }

    #[test]
    fn feasible_previous_placement_is_carried_over_unsearched() {
        let setup = lb_setup();
        let opts = EncodeOptions::default();
        let first = synthesize(&setup.0, &setup.1, &setup.2, &opts, &Backend::Native).unwrap();
        let (second, route) = resynthesize(&setup, &opts, &first.placement);
        assert_eq!(route, SolveRoute::CarriedOver);
        assert_eq!(second.placement, first.placement);
        assert_eq!(second.stats, SearchStats::default());
        assert_eq!(second.degraded, None);
    }

    #[test]
    fn infeasible_or_optimizing_previous_placement_falls_back_to_search() {
        let setup = lb_setup();
        let opts = EncodeOptions::default();
        let first = synthesize(&setup.0, &setup.1, &setup.2, &opts, &Backend::Native).unwrap();
        // An under-placed shard violates the per-path entry sums.
        let mut broken = first.placement.clone();
        let plan = broken
            .switches
            .values_mut()
            .find(|p| p.extern_entries.contains_key("conn_table"))
            .expect("some switch hosts conn_table");
        *plan.extern_entries.get_mut("conn_table").unwrap() -= 1;
        let (res, route) = resynthesize(&setup, &opts, &broken);
        assert_eq!(route, SolveRoute::Monolithic);
        assert!(
            place::lift_placement(&res.encoded, &setup.1, &res.placement)
                .satisfies(&res.encoded.model)
        );
        // A smaller optimum may exist, so an objective always searches.
        let min = EncodeOptions {
            objective: Objective::MinSwitches,
            ..Default::default()
        };
        let (_, route) = resynthesize(&setup, &min, &first.placement);
        assert_eq!(route, SolveRoute::Monolithic);
    }

    #[test]
    fn unlimited_synthesis_is_undegraded() {
        let (ir, topo, scopes) = lb_setup();
        let res = synthesize(
            &ir,
            &topo,
            &scopes,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .unwrap();
        assert_eq!(res.degraded, None);
    }

    #[test]
    fn greedy_solution_satisfies_placement_shape() {
        let (ir, topo, scopes) = lb_setup();
        let enc = encode(&ir, &topo, &scopes, &EncodeOptions::default()).unwrap();
        let sol = greedy::greedy_solution(&enc, &ir, &topo).unwrap();
        let placement = place::extract(&enc, &ir, &topo, &sol);
        // Whole-algorithm hosting: each hosting switch carries every
        // instruction of the algorithm.
        let n_instrs = ir.algorithm("loadbalancer").unwrap().instrs.len();
        for plan in placement.switches.values() {
            if let Some(is) = plan.instrs.get("loadbalancer") {
                assert_eq!(is.len(), n_instrs, "greedy never splits an algorithm");
            }
        }
        // Both Agg->ToR path families are covered (Agg3 and Agg4 are the
        // first programmable hops of their respective paths).
        assert!(placement.used_switches() >= 1);
    }

    #[test]
    fn min_switches_objective_compacts() {
        let ir = frontend(
            r#"
            pipeline[P]{small};
            algorithm small {
                bit[32] x;
                x = ipv4.srcAddr + 1;
                ipv4.dstAddr = x;
            }
            "#,
        )
        .unwrap();
        let topo = figure1_network();
        let scopes =
            parse_scopes("small: [ Agg3,Agg4,ToR3,ToR4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]")
                .unwrap();
        let resolved: Vec<ResolvedScope> = scopes
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        let opts = EncodeOptions {
            objective: Objective::MinSwitches,
            ..Default::default()
        };
        let res = synthesize(&ir, &topo, &resolved, &opts, &Backend::Native).unwrap();
        // The whole program fits on the two Aggs (one per path entry) —
        // minimizing switch count must not use more than 2.
        assert!(
            res.placement.used_switches() <= 2,
            "used {} switches",
            res.placement.used_switches()
        );
    }
}
