#![warn(missing_docs)]
//! # lyra — the Lyra compiler
//!
//! A Rust reproduction of *Lyra: A Cross-Platform Language and Compiler for
//! Data Plane Programming on Heterogeneous ASICs* (SIGCOMM 2020): a
//! high-level, chip-neutral data-plane language with a *one-big-pipeline*
//! abstraction, compiled into multiple pieces of runnable chip-specific
//! code (P4₁₄, P4₁₆, NPL) deployed across a heterogeneous data center
//! network.
//!
//! The pipeline mirrors the paper's Figure 3:
//!
//! ```text
//! Lyra program ─▶ checker ─▶ preprocessor ─▶ code analyzer   (front-end)
//!                     │                            │
//! algorithm scopes ───┤        context-aware IR ◀──┘
//! topology & config ──┴─▶ synthesizer ─▶ SMT encoding ─▶ solver
//!                                   │
//!                       translator ─┴─▶ P4/NPL code per switch (back-end)
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use lyra::{Compiler, CompileRequest};
//! use lyra_topo::figure1_network;
//!
//! let program = r#"
//!     pipeline[DEMO]{ filter };
//!     algorithm filter {
//!         extern list<bit[32] ip>[256] watch_list;
//!         if (ipv4.src_ip in watch_list) {
//!             int_enable = 1;
//!         }
//!     }
//! "#;
//! let scopes = "filter: [ ToR* | PER-SW | - ]";
//! let out = Compiler::new()
//!     .compile(&CompileRequest::new(program, scopes, figure1_network()))
//!     .expect("compiles");
//! assert_eq!(out.artifacts.len(), 4); // one program per ToR switch
//! ```
//!
//! ## Diagnostics
//!
//! Every failure carries structured [`lyra_diag::Diagnostic`]s with stable
//! `LYR0xxx` codes and byte spans into the program or scope source; render
//! them with [`CompileError::render`] against
//! [`CompileRequest::source_map`]:
//!
//! ```
//! use lyra::{Compiler, CompileRequest};
//! use lyra_topo::figure1_network;
//!
//! let req = CompileRequest::new(
//!     "pipeline[P]{a}; algorithm a { x = undefined_fn(); }",
//!     "a: [ ToR* | PER-SW | - ]",
//!     figure1_network(),
//! );
//! let err = Compiler::new().compile(&req).unwrap_err();
//! let rendered = err.render(&req.source_map());
//! assert!(rendered.contains("error[LYR0103]"));
//! assert!(rendered.contains("^^^")); // the offending span, rustc-style
//! ```

mod agent;
pub mod cache;
pub mod channel;
pub mod dataplane;
pub mod fault;
pub mod health;
pub mod oracle;
pub mod recovery;
pub mod rollout;
pub mod runtime;

pub use cache::{synth_key, SynthCache};
pub use channel::{ControlChannel, ControlMsg, ControlOp, Delivery, LossyChannel, ReliableChannel};
pub use dataplane::{
    replay_compiled, replay_interpreted, replay_under_recovery, replay_under_rollout,
    CompiledDeployment, LiveTrafficPlane, RecoveryReplayOutcome, ReplayConfig, ReplayReport,
    RolloutReplayOutcome,
};
pub use fault::{DriftFinding, DriftKind, DriftOp, FaultRecompile, PlacementDiff};
pub use health::{
    run_selfheal, ChaosEvent, ChaosSchedule, HealthReport, HealthState, RemediationReport,
    SelfHealConfig, SelfHealOutcome, Target, TargetStatus,
};
pub use oracle::{check_output, OracleConfig, OracleReport};
pub use recovery::{AuditReport, RecoveryReport};
pub use rollout::{
    CrashPlan, CrashPoint, FileIntentStore, IntentRecord, IntentStore, MemIntentStore,
    RolloutConfig, RolloutReport, SwitchRollout,
};
pub use runtime::{Runtime, RuntimeError};

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use lyra_codegen::{Artifact, CodeSummary};
pub use lyra_diag::{Diagnostic, Phase, SourceId, SourceMap};
pub use lyra_solver::SearchStats;
pub use lyra_synth::{DegradeRung, EncodeOptions, Objective, P4Options, Placement, SolveRoute};
pub use lyra_topo::{DegradeReport, FaultSet, ScopeHealth};

use lyra_diag::codes;
use lyra_diag::json::{Object, Value};
use lyra_ir::IrProgram;
use lyra_topo::{resolve_scope, resolve_scope_degraded, ResolvedScope, SwitchId, Topology};

/// [`SourceId`] of the Lyra program source inside
/// [`CompileRequest::source_map`].
pub const PROGRAM_SOURCE: SourceId = SourceId(0);
/// [`SourceId`] of the scope specification inside
/// [`CompileRequest::source_map`].
pub const SCOPES_SOURCE: SourceId = SourceId(1);

/// A compilation request: the three inputs of Figure 3. How the placement
/// is solved (deadline, decision budget, quotient route) is the
/// [`Compiler`]'s configuration.
pub struct CompileRequest<'a> {
    /// Lyra program source.
    pub program: &'a str,
    /// Algorithm scope specification (§3.3 / Figure 7 syntax).
    pub scopes: &'a str,
    /// Target network topology.
    pub topology: Topology,
}

impl<'a> CompileRequest<'a> {
    /// Bundle the three compiler inputs.
    pub fn new(program: &'a str, scopes: &'a str, topology: Topology) -> Self {
        CompileRequest {
            program,
            scopes,
            topology,
        }
    }

    /// A [`SourceMap`] over this request's two text inputs, for rendering
    /// diagnostics: the program registers as [`PROGRAM_SOURCE`], the scope
    /// specification as [`SCOPES_SOURCE`].
    pub fn source_map(&self) -> SourceMap {
        let mut sm = SourceMap::new();
        let p = sm.add("<program>", self.program);
        let s = sm.add("<scopes>", self.scopes);
        debug_assert_eq!((p, s), (PROGRAM_SOURCE, SCOPES_SOURCE));
        sm
    }
}

/// Wall-clock timing of each compiler phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileStats {
    /// Parsing the program source.
    pub parse: Duration,
    /// Semantic checking.
    pub check: Duration,
    /// Lowering to the context-aware IR (SSA + inference).
    pub lower: Duration,
    /// Scope parsing and topology resolution.
    pub scopes: Duration,
    /// Synthesis + encoding + solving.
    pub synth: Duration,
    /// Translation to chip-specific code.
    pub codegen: Duration,
    /// Freeing the synthesis result (the encoded model) after codegen.
    pub release: Duration,
    /// End-to-end.
    pub total: Duration,
    /// Synthesis-cache hits this compile (0 unless a [`SynthCache`] is
    /// registered with [`Compiler::with_synth_cache`]).
    pub synth_cache_hits: u64,
    /// Synthesis-cache misses this compile.
    pub synth_cache_misses: u64,
    /// Which route produced the placement: the previous placement carried
    /// over unsearched, a quotient solve, or the monolithic search. `None`
    /// when every synthesis was served from the [`SynthCache`].
    pub solve_route: Option<SolveRoute>,
}

impl CompileStats {
    /// Front-end total (parse + check + lower), the paper's "checker +
    /// preprocessor + code analyzer" grouping.
    pub fn frontend(&self) -> Duration {
        self.parse + self.check + self.lower
    }

    /// Name of [`CompileStats::solve_route`] for reports; `"cached"` when
    /// the synthesis cache answered instead of a route.
    pub fn route_name(&self) -> &'static str {
        self.solve_route.map_or("cached", SolveRoute::name)
    }

    /// Phase/duration pairs in pipeline order.
    pub fn phases(&self) -> [(Phase, Duration); 7] {
        [
            (Phase::Parse, self.parse),
            (Phase::Check, self.check),
            (Phase::Lower, self.lower),
            (Phase::Scopes, self.scopes),
            (Phase::Solve, self.synth),
            (Phase::Codegen, self.codegen),
            (Phase::Release, self.release),
        ]
    }
}

/// Resource utilization of one switch in the solved placement, against its
/// chip's budgets — Figure 9's per-program columns, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceUtilization {
    /// Switch name.
    pub switch: String,
    /// ASIC model name.
    pub asic: String,
    /// Match-action tables placed / chip capacity.
    pub tables: (u64, u64),
    /// SRAM blocks consumed / chip capacity.
    pub sram_blocks: (u64, u64),
    /// Pipeline stages used (longest dependency chain) / stages available.
    pub stages: (u64, u64),
    /// Actions placed / chip capacity.
    pub actions: (u64, u64),
    /// Extern table entries hosted on this switch.
    pub extern_entries: u64,
}

impl ResourceUtilization {
    fn to_json(&self) -> Value {
        let mut o = Object::new();
        o.push("switch", Value::String(self.switch.clone()));
        o.push("asic", Value::String(self.asic.clone()));
        for (key, (used, cap)) in [
            ("tables", self.tables),
            ("sram_blocks", self.sram_blocks),
            ("stages", self.stages),
            ("actions", self.actions),
        ] {
            let mut pair = Object::new();
            pair.push("used", Value::Number(used as f64));
            pair.push("cap", Value::Number(cap as f64));
            o.push(key, Value::Object(pair));
        }
        o.push("extern_entries", Value::Number(self.extern_entries as f64));
        Value::Object(o)
    }
}

/// Event sink for compile-phase progress. Implement this to observe a
/// compilation as it runs (progress bars, tracing, CI timing) without the
/// compiler depending on any logging framework; register it with
/// [`Compiler::with_observer`].
pub trait CompileObserver: Send + Sync {
    /// A phase is about to run.
    fn on_phase_start(&self, phase: Phase) {
        let _ = phase;
    }
    /// A phase finished.
    fn on_phase_end(&self, phase: Phase, elapsed: Duration) {
        let _ = (phase, elapsed);
    }
}

/// A successful compilation.
#[derive(Debug)]
pub struct CompileOutput {
    /// One artifact (code + control-plane stub) per switch receiving code.
    pub artifacts: Vec<Artifact>,
    /// The solved placement (tables, entries, carried values per switch).
    pub placement: Placement,
    /// Flow paths per algorithm (switch names in traversal order) — the
    /// control-plane runtime replicates logical table entries so every
    /// path sees the full table.
    pub flow_paths: BTreeMap<String, Vec<Vec<String>>>,
    /// The context-aware IR (useful for inspection and tests).
    pub ir: IrProgram,
    /// Phase timings.
    pub stats: CompileStats,
    /// Aggregated solver search statistics.
    pub solver: SearchStats,
    /// Per-switch resource utilization against chip budgets.
    pub utilization: Vec<ResourceUtilization>,
    /// Checker warnings (implicit metadata and similar), as structured
    /// diagnostics spanned into the program source.
    pub warnings: Vec<Diagnostic>,
    /// Which degradation-ladder rung produced the placement, when the
    /// solver watchdog fired. `None` for a fully solver-verified placement;
    /// `Some(_)` is mirrored by a `LYR0550` warning in
    /// [`CompileOutput::warnings`].
    pub degraded: Option<DegradeRung>,
}

impl CompileOutput {
    /// The observability record of this run as JSON — phase timings in
    /// microseconds, solver effort, synthesis-cache counters, the solve
    /// route and per-switch utilization. This is what `lyrac --emit-stats`
    /// writes.
    ///
    /// ```
    /// use lyra::{Compiler, CompileRequest};
    /// use lyra_topo::figure1_network;
    ///
    /// let out = Compiler::new()
    ///     .compile(&CompileRequest::new(
    ///         "pipeline[P]{a}; algorithm a { x = 1; }",
    ///         "a: [ ToR1 | PER-SW | - ]",
    ///         figure1_network(),
    ///     ))
    ///     .unwrap();
    /// assert!(out.stats.total >= out.stats.synth);
    /// let json = out.to_json().to_pretty();
    /// assert!(json.contains("\"solver\""));
    /// ```
    pub fn to_json(&self) -> Value {
        let mut phases = Object::new();
        for (ph, d) in self.stats.phases() {
            phases.push(ph.as_str(), Value::Number(d.as_micros() as f64));
        }
        phases.push("total", Value::Number(self.stats.total.as_micros() as f64));
        let s = &self.solver;
        let mut solver = Object::new();
        for (key, n) in [
            ("decisions", s.decisions),
            ("propagations", s.propagations),
            ("conflicts", s.conflicts),
            ("learned", s.learned),
            ("restarts", s.restarts),
            ("linear_visits", s.linear_visits),
            ("bound_updates", s.bound_updates),
            ("creep_checks", s.creep_checks),
        ] {
            solver.push(key, Value::Number(n as f64));
        }
        let mut cache = Object::new();
        cache.push("hits", Value::Number(self.stats.synth_cache_hits as f64));
        cache.push(
            "misses",
            Value::Number(self.stats.synth_cache_misses as f64),
        );
        let mut o = Object::new();
        o.push("phases_us", Value::Object(phases));
        o.push("solver", Value::Object(solver));
        o.push("synth_cache", Value::Object(cache));
        o.push("solve_route", Value::str(self.stats.route_name()));
        o.push(
            "utilization",
            Value::Array(self.utilization.iter().map(|u| u.to_json()).collect()),
        );
        Value::Object(o)
    }

    /// Validate every artifact and return per-switch summaries.
    pub fn validate_all(&self) -> Result<Vec<(String, CodeSummary)>, CompileError> {
        let mut out = Vec::new();
        for a in &self.artifacts {
            let s = lyra_codegen::validate(a).map_err(|e| {
                CompileError::Codegen(vec![Diagnostic::error(
                    codes::VALIDATE,
                    format!("{} ({}): {e}", a.switch, a.asic),
                )])
            })?;
            out.push((a.switch.clone(), s));
        }
        Ok(out)
    }

    /// Total tables across all generated programs.
    pub fn total_tables(&self) -> u64 {
        self.placement.total_tables()
    }
}

/// Compilation failure, by phase. Every variant carries the structured
/// diagnostics of that phase; use [`CompileError::render`] with the
/// request's [`CompileRequest::source_map`] for rustc-style snippets, or
/// [`CompileError::to_json`] for machine consumption.
#[derive(Debug)]
#[non_exhaustive]
pub enum CompileError {
    /// Front-end failure (parse / check / lower).
    Frontend(Vec<Diagnostic>),
    /// Scope parsing or resolution failure.
    Scope(Vec<Diagnostic>),
    /// Synthesis / solving failure (including infeasible placements).
    Synth(Vec<Diagnostic>),
    /// Code generation or validation failure.
    Codegen(Vec<Diagnostic>),
}

impl CompileError {
    /// The diagnostics carried by this error.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        match self {
            CompileError::Frontend(d)
            | CompileError::Scope(d)
            | CompileError::Synth(d)
            | CompileError::Codegen(d) => d,
        }
    }

    /// Name of the failing phase group.
    pub fn phase_name(&self) -> &'static str {
        match self {
            CompileError::Frontend(_) => "front-end",
            CompileError::Scope(_) => "scope",
            CompileError::Synth(_) => "synthesis",
            CompileError::Codegen(_) => "codegen",
        }
    }

    /// Render every diagnostic with source snippets (rustc-style).
    pub fn render(&self, sources: &SourceMap) -> String {
        sources.render_all(self.diagnostics())
    }

    /// Serialize as `{"phase": ..., "diagnostics": [...]}`.
    pub fn to_json(&self) -> Value {
        let mut o = Object::new();
        o.push("phase", Value::String(self.phase_name().to_string()));
        o.push(
            "diagnostics",
            Value::Array(self.diagnostics().iter().map(|d| d.to_json()).collect()),
        );
        Value::Object(o)
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: ", self.phase_name())?;
        for (i, d) in self.diagnostics().iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{}", d.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.diagnostics()
            .first()
            .map(|d| d as &(dyn std::error::Error + 'static))
    }
}

/// The compiler: configuration plus a [`Compiler::compile`] entry point.
///
/// Three settings say how a placement is solved: a deadline
/// ([`Compiler::with_deadline`]), a decision budget
/// ([`Compiler::with_decision_budget`]) and the quotient route
/// ([`Compiler::with_quotient_route`]). The default is one deterministic
/// search with no limits and the quotient route on; the same request under
/// the same settings yields the same placement.
#[derive(Default, Clone)]
pub struct Compiler {
    encode: EncodeOptions,
    /// Wall-clock budget of each compile's solve phase, counted from the
    /// start of that compile.
    deadline: Option<Duration>,
    /// Decision budget of each search; a minimization is one search.
    decision_budget: Option<u64>,
    observer: Option<Arc<dyn CompileObserver>>,
    cache: Option<Arc<SynthCache>>,
}

impl Compiler {
    /// A compiler with default options (feasibility objective, parser
    /// hoisting on, quotient route on, no solve limits).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the optimization objective (§6).
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.encode.objective = objective;
        self
    }

    /// Toggle the Appendix C.1 parser-hoisting optimization.
    pub fn with_parser_hoisting(mut self, on: bool) -> Self {
        self.encode.p4.parser_hoisting = on;
        self
    }

    /// Allow one recirculation pass per switch, doubling the usable stage
    /// depth (§8). Code generation emits the `recirculate` call on plans
    /// that need the second pass.
    pub fn with_recirculation(mut self, on: bool) -> Self {
        self.encode.allow_recirculation = on;
        self
    }

    /// Enable the full per-stage assignment encoding (eqs. 13–15): exact
    /// start/end stages and per-stage entry distribution per table.
    pub fn with_stage_detail(mut self, on: bool) -> Self {
        self.encode.stage_detail = on;
        self
    }

    /// Bound each compile's solve phase by a wall-clock budget, counted from
    /// the start of that compile. Expiry does not fail the compile: the
    /// degradation ladder places the program instead (`LYR0550`).
    ///
    /// ```
    /// use lyra::{CompileRequest, Compiler};
    /// use lyra_topo::figure1_network;
    ///
    /// let req = CompileRequest::new("pipeline[P]{a}; algorithm a { x = 1; }",
    ///                               "a: [ ToR1 | PER-SW | - ]",
    ///                               figure1_network());
    /// let out = Compiler::new()
    ///     .with_deadline(std::time::Duration::from_secs(2))
    ///     .compile(&req)
    ///     .unwrap();
    /// assert!(out.degraded.is_none());
    /// ```
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bound each search by a number of decisions. Under an objective the
    /// budget, like the deadline, spans the whole minimization — every
    /// round of its branch-and-bound — not each round; one spent after the
    /// first model yields that model as [`DegradeRung::BestSoFar`].
    pub fn with_decision_budget(mut self, decisions: u64) -> Self {
        self.decision_budget = Some(decisions);
        self
    }

    /// Try the quotient route on symmetric MULTI-SW problems (on by
    /// default): solve one representative per interchangeable-switch class,
    /// replicate, and verify against the full model, falling back to the
    /// monolithic search. Off is the reference configuration — `lyrac
    /// --solve-profile thorough` — that the route is tested against.
    pub fn with_quotient_route(mut self, on: bool) -> Self {
        self.encode.monolithic = !on;
        self
    }

    /// Register an event sink receiving phase start/end notifications.
    pub fn with_observer(mut self, observer: Arc<dyn CompileObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Share a [`SynthCache`] across compiles: synthesis results are
    /// memoized by content hash ([`synth_key`]), so recompiling an
    /// unchanged problem reuses the solved placement without any solver
    /// effort. Hits and misses surface in
    /// [`CompileStats::synth_cache_hits`] / `synth_cache_misses`.
    pub fn with_synth_cache(mut self, cache: Arc<SynthCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Recompile after a program change, seeded with the previous solved
    /// placement (§8 "Synthesizing incremental changes"): if it still
    /// places the program it is returned as it is
    /// ([`SolveRoute::CarriedOver`]), otherwise the program is searched
    /// cold ([`SolveRoute::Monolithic`]).
    pub fn compile_incremental(
        &self,
        req: &CompileRequest,
        previous: &Placement,
    ) -> Result<CompileOutput, CompileError> {
        self.compile_inner(req, Some(previous), false)
    }

    /// Compile a request end to end.
    pub fn compile(&self, req: &CompileRequest) -> Result<CompileOutput, CompileError> {
        self.compile_inner(req, None, false)
    }

    /// Run `f` as phase `ph`, notifying the observer and timing it.
    fn phase<T>(&self, ph: Phase, f: impl FnOnce() -> T) -> (T, Duration) {
        if let Some(obs) = &self.observer {
            obs.on_phase_start(ph);
        }
        let t = Instant::now();
        let out = f();
        let elapsed = t.elapsed();
        if let Some(obs) = &self.observer {
            obs.on_phase_end(ph, elapsed);
        }
        (out, elapsed)
    }

    /// Synthesize through the cache (when configured): consult it by
    /// content key, fall back to a real [`lyra_synth::synthesize`] run, and
    /// memoize successes. Returns the result plus the route that run took,
    /// `None` for a cache hit — a hit spent no solver effort, so the caller
    /// must not absorb its (historical) [`SearchStats`].
    fn synthesize_cached(
        &self,
        ir: &IrProgram,
        topo: &Topology,
        scopes: &[ResolvedScope],
        previous: Option<&Placement>,
        limits: &lyra_synth::SolveLimits,
    ) -> Result<Solved, lyra_synth::SynthError> {
        let key = self
            .cache
            .as_ref()
            .map(|_| cache::synth_key(ir, topo, scopes, &self.encode));
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            if let Some(hit) = cache.lookup(key) {
                return Ok((hit, None));
            }
        }
        let (result, route) =
            lyra_synth::synthesize(ir, topo, scopes, &self.encode, previous, limits)?;
        let result = Arc::new(result);
        // Degraded results never enter the cache: the key ignores limits,
        // so a later unlimited compile of the same problem must not be
        // served a watchdog fallback placement or an unproved optimum.
        if result.degraded.is_none() {
            if let (Some(cache), Some(key)) = (&self.cache, key) {
                cache.insert(key, result.clone());
            }
        }
        Ok((result, Some(route)))
    }

    fn compile_inner(
        &self,
        req: &CompileRequest,
        previous: Option<&Placement>,
        lenient_scopes: bool,
    ) -> Result<CompileOutput, CompileError> {
        let t0 = Instant::now();
        let mut stats = CompileStats::default();
        // The watchdog's limits: the deadline counts from the start of the
        // compile.
        let limits = lyra_synth::SolveLimits {
            deadline: self.deadline.map(|d| t0 + d),
            max_decisions: self.decision_budget,
        };

        // --- Front-end (checker + preprocessor + code analyzer) ------------
        let (prog, t_parse) = self.phase(Phase::Parse, || {
            lyra_lang::parse_program(req.program).map_err(|e| {
                CompileError::Frontend(vec![e.to_diagnostic().attach_source(PROGRAM_SOURCE)])
            })
        });
        stats.parse = t_parse;
        let prog = prog?;

        let (info, t_check) = self.phase(Phase::Check, || {
            lyra_lang::check_program(&prog).map_err(|e| {
                CompileError::Frontend(
                    e.errors
                        .iter()
                        .map(|d| d.clone().attach_source(PROGRAM_SOURCE))
                        .collect(),
                )
            })
        });
        stats.check = t_check;
        let info = info?;
        let warnings: Vec<Diagnostic> = info
            .warnings
            .iter()
            .map(|w| w.clone().attach_source(PROGRAM_SOURCE))
            .collect();

        let (ir, t_lower) = self.phase(Phase::Lower, || {
            lyra_ir::lower_checked(&prog, &info).map_err(|e| {
                CompileError::Frontend(
                    lyra_ir::FrontendError::Lower(e)
                        .to_diagnostics()
                        .into_iter()
                        .map(|d| d.attach_source(PROGRAM_SOURCE))
                        .collect(),
                )
            })
        });
        stats.lower = t_lower;
        let ir = ir?;

        // --- Scopes --------------------------------------------------------
        let (resolved, t_scopes) = self.phase(Phase::Scopes, || {
            let scope_specs = lyra_lang::parse_scopes(req.scopes).map_err(|e| {
                CompileError::Scope(vec![e.to_diagnostic().attach_source(SCOPES_SOURCE)])
            })?;
            if scope_specs.is_empty() {
                return Err(CompileError::Scope(vec![Diagnostic::error(
                    codes::SCOPE_MISSING,
                    "no algorithm scopes specified",
                )
                .with_note(
                    "every pipeline algorithm needs a `name: [ region | mode | paths ]` line",
                )]));
            }
            // An algorithm has one scope: placement, flow paths and the
            // runtime are all keyed by algorithm, so a second line could
            // only ever be half-honoured.
            let mut repeated: Vec<Diagnostic> = Vec::new();
            for (k, s) in scope_specs.iter().enumerate() {
                if let Some(first) = scope_specs[..k].iter().find(|f| f.algorithm == s.algorithm) {
                    let line = 1 + req.scopes[..first.span.lo as usize].matches('\n').count();
                    repeated.push(
                        Diagnostic::error(
                            codes::SCOPE_DUPLICATE,
                            format!("algorithm `{}` has more than one scope", s.algorithm),
                        )
                        .with_span(SCOPES_SOURCE, s.span)
                        .with_note(format!(
                            "its first scope is on line {line}; give one line covering every \
                             switch and direction the algorithm needs"
                        )),
                    );
                }
            }
            if !repeated.is_empty() {
                return Err(CompileError::Scope(repeated));
            }
            // Every algorithm reachable from a pipeline needs a scope.
            let mut missing: Vec<Diagnostic> = Vec::new();
            for p in &ir.pipelines {
                for a in &p.algorithms {
                    if !scope_specs.iter().any(|s| &s.algorithm == a) {
                        missing.push(
                            Diagnostic::error(
                                codes::SCOPE_MISSING,
                                format!("algorithm `{a}` (pipeline `{}`) has no scope", p.name),
                            )
                            .with_note(format!(
                                "add a line like `{a}: [ ToR* | PER-SW | - ]` to the scope \
                                 specification"
                            )),
                        );
                    }
                }
            }
            if !missing.is_empty() {
                return Err(CompileError::Scope(missing));
            }
            scope_specs
                .iter()
                .map(|s| {
                    if lenient_scopes {
                        // Failover recompilation: tolerate MULTI-SW direction
                        // endpoints that the fault removed, as long as at
                        // least one ingress and one egress survive.
                        resolve_scope_degraded(&req.topology, s)
                    } else {
                        resolve_scope(&req.topology, s)
                    }
                })
                .collect::<Result<Vec<ResolvedScope>, _>>()
                .map_err(|e| {
                    CompileError::Scope(vec![e.to_diagnostic().attach_source(SCOPES_SOURCE)])
                })
        });
        stats.scopes = t_scopes;
        let resolved = resolved?;

        // --- Back-end ------------------------------------------------------
        let groups = self.synthesis_groups(&req.topology, &resolved, previous);
        let (solved, t_synth) = self.phase(Phase::Solve, || {
            self.solve(&ir, &req.topology, &groups, &limits)
        });
        stats.synth = t_synth;
        let solved = solved.map_err(|e| CompileError::Synth(e.to_diagnostics()))?;
        // A cache hit spent no solver effort this compile — its stats belong
        // to the run that populated the cache — and, since only clean
        // results are cached, cannot have degraded it: stats and rung come
        // from the groups that ran, and the route is the last one that ran.
        let mut solver = SearchStats::default();
        let mut degraded = None;
        for (synth, ran) in &solved {
            match ran {
                None => stats.synth_cache_hits += 1,
                Some(route) => {
                    stats.synth_cache_misses += self.cache.is_some() as u64;
                    stats.solve_route = Some(*route);
                    solver.absorb(synth.stats);
                    degraded = degraded.or(synth.degraded);
                }
            }
        }
        let (generated, t_codegen) = self.phase(Phase::Codegen, || {
            let mut placement = Placement::default();
            let mut artifacts = Vec::new();
            for (group, (synth, _)) in groups.iter().zip(&solved) {
                let generated = lyra_codegen::generate(&ir, &req.topology, synth).map_err(|e| {
                    CompileError::Codegen(vec![Diagnostic::error(codes::CODEGEN, e.to_string())])
                })?;
                let Some(&rep) = group.members.first() else {
                    placement.switches.extend(synth.placement.switches.clone());
                    artifacts.extend(generated);
                    continue;
                };
                let rep_name = &req.topology.switch(rep).name;
                let rep_plan = synth.placement.switches.get(rep_name);
                for &member in &group.members {
                    let member_name = &req.topology.switch(member).name;
                    if let Some(plan) = rep_plan {
                        placement.switches.insert(member_name.clone(), plan.clone());
                    }
                    for a in &generated {
                        // Only the code is retitled: every member's stub
                        // still names the representative (ROADMAP item 2).
                        artifacts.push(Artifact {
                            switch: member_name.clone(),
                            asic: a.asic.clone(),
                            lang: a.lang,
                            code: a.code_for(member_name),
                            control_plane: a.control_plane.clone(),
                        });
                    }
                }
            }
            Ok((placement, artifacts))
        });
        stats.codegen = t_codegen;
        // Unless a cache holds them too, this frees the encoded models — at
        // pod scale several milliseconds, so it is a phase.
        let ((), t_release) = self.phase(Phase::Release, || drop(solved));
        stats.release = t_release;
        let (placement, artifacts) = generated?;

        let flow_paths = resolved
            .iter()
            .map(|sc| {
                (
                    sc.algorithm.clone(),
                    sc.paths
                        .iter()
                        .map(|p| {
                            p.iter()
                                .map(|&s| req.topology.switch(s).name.clone())
                                .collect()
                        })
                        .collect(),
                )
            })
            .collect();
        stats.total = t0.elapsed();
        let utilization = utilization_of(&placement, &req.topology);
        let mut warnings = warnings;
        if let Some(rung) = degraded {
            let (verdict, note) = match rung {
                DegradeRung::GreedyFirstFit => (
                    "could not reach a verdict",
                    "the placement satisfies every constraint of the model, but nothing was \
                     optimized; recompile without a deadline or decision budget for a \
                     searched placement",
                ),
                DegradeRung::BestSoFar => (
                    "could not prove the objective optimal",
                    "the placement is the best model the search found and satisfies every \
                     constraint of the model, but a better one may exist; recompile without a \
                     deadline or decision budget for a proved optimum",
                ),
            };
            warnings.push(
                Diagnostic::warning(
                    codes::DEGRADED,
                    format!(
                        "placement produced by the degradation ladder ({rung} rung): the \
                         solver {verdict} within the configured limits"
                    ),
                )
                .with_note(note),
            );
        }
        Ok(CompileOutput {
            artifacts,
            placement,
            flow_paths,
            ir,
            stats,
            solver,
            utilization,
            warnings,
            degraded,
        })
    }

    /// The synthesis problems of a compile. An all-PER-SW feasibility
    /// compile decomposes per switch: every switch of a scope hosts the
    /// full algorithm independently, so the switches with the same ASIC
    /// and algorithm set form one group, solved once on its smallest switch
    /// and replicated to the rest — the paper's explanation for Figure 10's
    /// flat PER-SW curve (§7.2). Every other compile is one group: the
    /// whole problem, seeded with `previous`.
    fn synthesis_groups<'r>(
        &self,
        topo: &Topology,
        resolved: &'r [ResolvedScope],
        previous: Option<&'r Placement>,
    ) -> Vec<Group<'r>> {
        let per_sw = matches!(self.encode.objective, Objective::Feasible)
            && resolved
                .iter()
                .all(|s| s.deploy == lyra_lang::DeployMode::PerSwitch);
        if !per_sw {
            return vec![Group {
                scopes: Cow::Borrowed(resolved),
                previous,
                members: Vec::new(),
            }];
        }
        let mut algs_on: BTreeMap<SwitchId, Vec<&ResolvedScope>> = BTreeMap::new();
        for scope in resolved {
            for &s in &scope.switches {
                algs_on.entry(s).or_default().push(scope);
            }
        }
        // Group key: (ASIC, sorted algorithm names).
        let mut groups: BTreeMap<(&str, Vec<&str>), Vec<SwitchId>> = BTreeMap::new();
        for (&s, scopes) in &algs_on {
            let mut names: Vec<&str> = scopes.iter().map(|sc| sc.algorithm.as_str()).collect();
            names.sort();
            groups
                .entry((&topo.switch(s).asic, names))
                .or_default()
                .push(s);
        }
        groups
            .into_values()
            .map(|members| {
                let rep = members[0];
                let scopes = algs_on[&rep]
                    .iter()
                    .map(|sc| ResolvedScope {
                        algorithm: sc.algorithm.clone(),
                        switches: vec![rep],
                        deploy: sc.deploy,
                        paths: vec![vec![rep]],
                    })
                    .collect();
                Group {
                    scopes: Cow::Owned(scopes),
                    previous: None,
                    members,
                }
            })
            .collect()
    }

    /// Synthesize every group, on scoped threads when there are several
    /// ("Lyra can generate the program for each switch in parallel" —
    /// §7.2). The error is the first failing group's, in group order.
    fn solve(
        &self,
        ir: &IrProgram,
        topo: &Topology,
        groups: &[Group],
        limits: &lyra_synth::SolveLimits,
    ) -> Result<Vec<Solved>, lyra_synth::SynthError> {
        let solve_group =
            |g: &Group| self.synthesize_cached(ir, topo, &g.scopes, g.previous, limits);
        if groups.len() < 2 {
            return groups.iter().map(solve_group).collect();
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = groups
                .iter()
                .map(|g| s.spawn(move || solve_group(g)))
                .collect();
            // Join every thread before looking at any result, so that a
            // worker's panic is re-raised as its own even after an error.
            let joined: Vec<_> = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect();
            joined.into_iter().collect()
        })
    }
}

/// One synthesis result and the route that produced it (`None`: a
/// synthesis-cache hit).
type Solved = (Arc<lyra_synth::SynthResult>, Option<SolveRoute>);

/// One synthesis problem of a compile's back end.
struct Group<'r> {
    /// The scopes solved.
    scopes: Cow<'r, [ResolvedScope]>,
    /// The placement the solve tries first; `None` for a PER-SW group,
    /// which searches cold.
    previous: Option<&'r Placement>,
    /// The switches that get a copy of the representative's plan and code,
    /// the representative first; empty for the whole problem, whose plans
    /// and code are taken as they are.
    members: Vec<SwitchId>,
}

/// Compute per-switch utilization of a placement against chip budgets.
fn utilization_of(placement: &Placement, topo: &Topology) -> Vec<ResourceUtilization> {
    let mut out = Vec::new();
    for (name, plan) in &placement.switches {
        let Some(id) = topo.find(name) else { continue };
        let Some(chip) = lyra_chips::by_name(&topo.switch(id).asic) else {
            continue;
        };
        let u = &plan.usage;
        out.push(ResourceUtilization {
            switch: name.clone(),
            asic: chip.name.clone(),
            tables: (
                u.tables,
                chip.stages as u64 * chip.max_tables_per_stage as u64,
            ),
            sram_blocks: (u.sram_blocks, chip.total_sram_blocks()),
            stages: (u.stages.max(u.longest_code_path), chip.stages as u64),
            actions: (
                u.actions,
                chip.stages as u64 * chip.max_actions_per_stage as u64,
            ),
            extern_entries: plan.extern_entries.values().sum(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_topo::figure1_network;

    const INT_LB: &str = r#"
        pipeline[INT]{int_in};
        pipeline[LB]{loadbalancer};
        algorithm int_in {
            extern list<bit[32] ip>[256] int_watch;
            if (ipv4.src_ip in int_watch) { int_enable = 1; }
        }
        algorithm loadbalancer {
            extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
            bit[32] hash;
            hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
            if (hash in conn_table) {
                ipv4.dstAddr = conn_table[hash];
            }
        }
    "#;

    const SCOPES: &str = r#"
        int_in: [ ToR* | PER-SW | - ]
        loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]
    "#;

    #[test]
    fn compiles_int_plus_lb_composition() {
        let out = Compiler::new()
            .compile(&CompileRequest::new(INT_LB, SCOPES, figure1_network()))
            .unwrap();
        // INT on all 4 ToRs; LB somewhere in its scope.
        assert!(out.artifacts.len() >= 4);
        let summaries = out.validate_all().unwrap();
        for (_, s) in &summaries {
            assert!(s.tables >= 1);
        }
        // Trident-4 switches get NPL; Tofino/SiliconOne get P4.
        for a in &out.artifacts {
            match a.asic.as_str() {
                "trident4" => assert_eq!(a.lang, lyra_chips::TargetLang::Npl),
                "tofino-32q" | "tofino-64q" => {
                    assert_eq!(a.lang, lyra_chips::TargetLang::P414)
                }
                "silicon-one" => assert_eq!(a.lang, lyra_chips::TargetLang::P416),
                other => panic!("unexpected asic {other}"),
            }
        }
    }

    /// The load balancer alone, MULTI-SW over a k = 4 pod with traffic
    /// entering at the Aggs: a problem the quotient route solves.
    fn pod_lb() -> CompileRequest<'static> {
        const LB: &str = r#"
            pipeline[LB]{loadbalancer};
            algorithm loadbalancer {
                extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
                bit[32] hash;
                hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
                if (hash in conn_table) {
                    ipv4.dstAddr = conn_table[hash];
                }
            }
        "#;
        const SCOPES: &str = "loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg1,Agg2->ToR1,ToR2) ]";
        let topo = lyra_topo::fat_tree_pod(4, "tofino-32q", "trident4");
        CompileRequest::new(LB, SCOPES, topo)
    }

    #[test]
    fn default_and_thorough_profiles_agree() {
        let req = pod_lb();
        let default = Compiler::new().compile(&req).unwrap();
        let reference = Compiler::new()
            .with_quotient_route(false)
            .compile(&req)
            .unwrap();
        assert_eq!(default.stats.solve_route, Some(SolveRoute::Quotient));
        assert_eq!(reference.stats.solve_route, Some(SolveRoute::Monolithic));
        for out in [&default, &reference] {
            out.validate_all().unwrap();
        }
        assert_eq!(default.total_tables(), reference.total_tables());
    }

    /// The quotient-route switch is part of the synthesis-cache key: a
    /// monolithic compile of a problem the quotient route already solved
    /// into a shared cache must search, not be served the quotient result.
    #[test]
    fn synth_cache_keeps_the_routes_apart() {
        let cache = Arc::new(SynthCache::new());
        let req = pod_lb();
        let quotient = Compiler::new()
            .with_synth_cache(cache.clone())
            .compile(&req)
            .unwrap();
        assert_eq!(quotient.stats.solve_route, Some(SolveRoute::Quotient));
        assert_eq!(quotient.stats.synth_cache_misses, 1);
        let monolithic = Compiler::new()
            .with_quotient_route(false)
            .with_synth_cache(cache.clone())
            .compile(&req)
            .unwrap();
        assert_eq!(
            (
                monolithic.stats.synth_cache_hits,
                monolithic.stats.synth_cache_misses
            ),
            (0, 1)
        );
        assert_eq!(monolithic.stats.solve_route, Some(SolveRoute::Monolithic));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn synth_cache_hits_on_repeat_multi_sw_compile() {
        let cache = Arc::new(SynthCache::new());
        let compiler = Compiler::new().with_synth_cache(cache.clone());
        // Mixed PER-SW + MULTI-SW scopes take the single-synthesis path.
        let req = CompileRequest::new(INT_LB, SCOPES, figure1_network());
        let first = compiler.compile(&req).unwrap();
        assert_eq!(first.stats.synth_cache_hits, 0);
        assert_eq!(first.stats.synth_cache_misses, 1);
        let second = compiler.compile(&req).unwrap();
        assert_eq!(second.stats.synth_cache_hits, 1);
        assert_eq!(second.stats.synth_cache_misses, 0);
        // The hit reuses the solved placement without solver effort.
        assert_eq!(first.placement, second.placement);
        assert_eq!(second.solver.decisions, 0);
        assert_eq!(second.solver.propagations, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_hit_does_not_inherit_degraded_rung() {
        let cache = Arc::new(SynthCache::new());
        let compiler = Compiler::new().with_synth_cache(cache.clone());
        let limited = compiler.clone().with_deadline(Duration::ZERO);
        let program = "pipeline[P]{a}; algorithm a { x = 1; }";
        let scopes = "a: [ ToR1 | PER-SW | - ]";
        let req = CompileRequest::new(program, scopes, figure1_network());
        let first = limited.compile(&req).unwrap();
        assert!(
            first.degraded.is_some(),
            "an already-expired deadline must degrade"
        );
        // Degraded results never enter the cache…
        assert_eq!(cache.len(), 0);
        // …so an unlimited compile of the same problem populates it cleanly.
        let clean = compiler.compile(&req).unwrap();
        assert!(clean.degraded.is_none());
        assert_eq!(cache.len(), 1);
        // A repeat limited compile hits the cache: no solver effort spent,
        // and no degraded rung inherited from any earlier compile.
        let hit = limited.compile(&req).unwrap();
        assert_eq!(hit.stats.synth_cache_hits, 1);
        assert_eq!(hit.degraded, None, "cache hit must not report a rung");
        assert_eq!(hit.solver.decisions, 0);
        // No route ran, and the stats JSON says so by name.
        assert_eq!(clean.stats.solve_route, Some(SolveRoute::Monolithic));
        assert_eq!(hit.stats.solve_route, None);
        let json = hit.to_json();
        assert_eq!(
            json.get("solve_route").and_then(|v| v.as_str()),
            Some("cached")
        );
    }

    #[test]
    fn synth_cache_misses_on_changed_program() {
        let cache = Arc::new(SynthCache::new());
        let compiler = Compiler::new().with_synth_cache(cache.clone());
        let scopes = "a: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";
        compiler
            .compile(&CompileRequest::new(
                "pipeline[P]{a}; algorithm a { x = 1; }",
                scopes,
                figure1_network(),
            ))
            .unwrap();
        let out = compiler
            .compile(&CompileRequest::new(
                "pipeline[P]{a}; algorithm a { x = 2; }",
                scopes,
                figure1_network(),
            ))
            .unwrap();
        assert_eq!(out.stats.synth_cache_hits, 0);
        assert_eq!(out.stats.synth_cache_misses, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn session_json_carries_cache_and_solver_counters() {
        let out = Compiler::new()
            .compile(&CompileRequest::new(
                "pipeline[P]{a}; algorithm a { x = 1; }",
                "a: [ ToR1 | PER-SW | - ]",
                figure1_network(),
            ))
            .unwrap();
        let json = out.to_json();
        let solver = json.get("solver").expect("solver");
        for key in ["linear_visits", "bound_updates", "creep_checks"] {
            assert!(solver.get(key).is_some(), "missing solver.{key}");
        }
        let cache = json.get("synth_cache").expect("synth_cache");
        assert!(cache.get("hits").is_some());
        assert!(cache.get("misses").is_some());
    }

    #[test]
    fn missing_scope_is_reported() {
        let err = Compiler::new()
            .compile(&CompileRequest::new(
                INT_LB,
                "int_in: [ ToR* | PER-SW | - ]",
                figure1_network(),
            ))
            .unwrap_err();
        assert!(matches!(err, CompileError::Scope(_)));
        assert!(err.to_string().contains("loadbalancer"));
        let diags = err.diagnostics();
        assert_eq!(diags[0].code, Some(codes::SCOPE_MISSING));
    }

    #[test]
    fn parse_errors_surface_as_frontend_with_span() {
        let req = CompileRequest::new(
            "algorithm { broken",
            "x: [ ToR* | - | - ]",
            figure1_network(),
        );
        let err = Compiler::new().compile(&req).unwrap_err();
        assert!(matches!(err, CompileError::Frontend(_)));
        let d = &err.diagnostics()[0];
        assert!(d.code.is_some());
        assert!(d.primary_span().is_some(), "parse errors must carry a span");
        // Rendering against the request's sources produces a snippet.
        let rendered = err.render(&req.source_map());
        assert!(rendered.contains("-->"), "rendered: {rendered}");
    }

    #[test]
    fn check_errors_span_the_program_source() {
        let req = CompileRequest::new(
            "pipeline[P]{a}; algorithm a { x = undefined_fn(); }",
            "a: [ ToR* | PER-SW | - ]",
            figure1_network(),
        );
        let err = Compiler::new().compile(&req).unwrap_err();
        let d = &err.diagnostics()[0];
        assert_eq!(d.code, Some(codes::UNKNOWN_FUNCTION));
        let span = d.primary_span().expect("span");
        assert!(req.program[span.lo as usize..span.hi as usize].contains("undefined_fn"));
    }

    #[test]
    fn scope_errors_span_the_scope_source() {
        let req = CompileRequest::new(
            "pipeline[P]{a}; algorithm a { x = 1; }",
            "a: [ NoSuchSwitch | PER-SW | - ]",
            figure1_network(),
        );
        let err = Compiler::new().compile(&req).unwrap_err();
        assert!(matches!(err, CompileError::Scope(_)));
        let d = &err.diagnostics()[0];
        let label = d.labels.first().expect("label");
        assert_eq!(label.source, Some(SCOPES_SOURCE));
    }

    #[test]
    fn stats_and_session_are_populated() {
        let out = Compiler::new()
            .compile(&CompileRequest::new(
                "pipeline[P]{a}; algorithm a { x = 1; }",
                "a: [ ToR1 | PER-SW | - ]",
                figure1_network(),
            ))
            .unwrap();
        assert!(out.stats.total >= out.stats.synth);
        assert!(!out.utilization.is_empty());
        let json = out.to_json();
        let phases = json.get("phases_us").expect("phases_us");
        assert!(phases.get("total").is_some());
        assert!(json
            .get("solver")
            .and_then(|s| s.get("decisions"))
            .is_some());
    }

    /// One extern lookup, compiled PER-SW on Figure 1's second pod: two
    /// groups (Silicon One ToRs, Trident-4 Aggs) of two members each.
    const LOOKUP: &str = "pipeline[P]{a}; algorithm a { \
        extern dict<bit[32] k, bit[32] v>[64] t; \
        if (flow_h in t) { ipv4.dstAddr = t[flow_h]; } }";
    const GROUPED: &str = "a: [ ToR3,ToR4,Agg3,Agg4 | PER-SW | - ]";

    #[test]
    fn grouped_per_switch_compile_goes_through_the_cache() {
        let cache = Arc::new(SynthCache::new());
        let compiler = Compiler::new().with_synth_cache(cache.clone());
        let req = CompileRequest::new(LOOKUP, GROUPED, figure1_network());
        let first = compiler.compile(&req).unwrap();
        assert_eq!(
            (first.stats.synth_cache_hits, first.stats.synth_cache_misses),
            (0, 2)
        );
        assert_eq!(first.stats.solve_route, Some(SolveRoute::Monolithic));
        assert_eq!(cache.len(), 2);
        let second = compiler.compile(&req).unwrap();
        assert_eq!(
            (
                second.stats.synth_cache_hits,
                second.stats.synth_cache_misses
            ),
            (2, 0)
        );
        assert_eq!(second.solver.decisions, 0);
        assert_eq!(second.stats.solve_route, None);
        assert_eq!(second.stats.route_name(), "cached");
        assert_eq!(first.placement, second.placement);
        for out in [&first, &second] {
            let mut switches: Vec<&str> = out.artifacts.iter().map(|a| a.switch.as_str()).collect();
            switches.sort_unstable();
            assert_eq!(switches, ["Agg3", "Agg4", "ToR3", "ToR4"]);
            for a in &out.artifacts {
                let header = format!("program for {} ", a.switch);
                assert!(a.code.contains(&header), "{}: {}", a.switch, a.code);
            }
        }
    }

    #[test]
    fn observer_sees_every_phase() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct Recorder(Mutex<Vec<(Phase, bool)>>);
        impl CompileObserver for Recorder {
            fn on_phase_start(&self, phase: Phase) {
                self.0.lock().unwrap().push((phase, false));
            }
            fn on_phase_end(&self, phase: Phase, _elapsed: Duration) {
                self.0.lock().unwrap().push((phase, true));
            }
        }
        // Each phase starts, then ends, in pipeline order — on one switch,
        // on two PER-SW groups, and on a MULTI-SW problem.
        let pipeline = CompileStats::default().phases().map(|(ph, _)| ph);
        let want: Vec<(Phase, bool)> = pipeline
            .iter()
            .flat_map(|&ph| [(ph, false), (ph, true)])
            .collect();
        for scopes in [
            "a: [ ToR1 | PER-SW | - ]",
            GROUPED,
            "a: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
        ] {
            let rec = Arc::new(Recorder::default());
            Compiler::new()
                .with_observer(rec.clone())
                .compile(&CompileRequest::new(LOOKUP, scopes, figure1_network()))
                .unwrap();
            assert_eq!(*rec.0.lock().unwrap(), want, "{scopes}");
        }
    }

    #[test]
    fn a_second_scope_line_for_an_algorithm_is_rejected() {
        let src = r#"
            pipeline[LB]{loadbalancer};
            algorithm loadbalancer {
                extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
                if (flow_h in conn_table) { ipv4.dstAddr = conn_table[flow_h]; }
            }
        "#;
        let scopes = "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]\n\
                      loadbalancer: [ ToR1,ToR2,Agg1,Agg2 | MULTI-SW | (Agg1,Agg2->ToR1,ToR2) ]";
        let req = CompileRequest::new(src, scopes, figure1_network());
        let err = Compiler::new().compile(&req).unwrap_err();
        assert!(matches!(err, CompileError::Scope(_)), "{err}");
        let [d] = err.diagnostics() else {
            panic!("one diagnostic for one repeated line: {err}");
        };
        assert_eq!(d.code, Some(codes::SCOPE_DUPLICATE));
        assert!(d.notes[0].contains("line 1"), "{:?}", d.notes);
        // The span is the repeated (second) line.
        let rendered = err.render(&req.source_map());
        assert!(rendered.contains("<scopes>:2:1"), "{rendered}");
    }

    #[test]
    fn every_group_is_synthesized_before_any_code_is_generated() {
        // Two PER-SW groups: the Tofino one solves but cannot emit `*` in
        // P4_14 (LYR0501); the Trident-4 one cannot hold the extern
        // (LYR0402). The synthesis error is reported, though its group
        // comes second.
        let mut topo = Topology::new();
        topo.add_switch("ToR1", lyra_topo::Layer::ToR, "tofino-32q");
        topo.add_switch("Agg1", lyra_topo::Layer::Agg, "trident4");
        let program = "pipeline[P]{a}; algorithm a { \
            extern dict<bit[32] k, bit[32] v>[3200000] t; \
            if (flow_h in t) { ipv4.dstAddr = t[flow_h]; } \
            x = ipv4.srcAddr * ipv4.dstAddr; }";
        let req = CompileRequest::new(program, "a: [ ToR1,Agg1 | PER-SW | - ]", topo);
        let err = Compiler::new().compile(&req).unwrap_err();
        assert!(matches!(err, CompileError::Synth(_)), "{err}");
        assert_eq!(err.diagnostics()[0].code, Some(codes::INFEASIBLE_MEMORY));
    }

    #[test]
    fn infeasible_placements_carry_family_diagnostics() {
        let err = Compiler::new()
            .compile(&CompileRequest::new(
                r#"
                pipeline[P]{big};
                algorithm big {
                    extern dict<bit[32] k, bit[32] v>[100000000] huge;
                    if (k in huge) { x = 1; }
                }
                "#,
                "big: [ Agg3,Agg4,ToR3,ToR4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
                figure1_network(),
            ))
            .unwrap_err();
        assert!(matches!(err, CompileError::Synth(_)));
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| d.code == Some(codes::INFEASIBLE_MEMORY)));
    }
}
