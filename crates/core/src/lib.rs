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
    run_selfheal, ChaosEvent, ChaosSchedule, HealthConfig, HealthReport, HealthState,
    RemediationReport, SelfHealConfig, SelfHealOutcome, Target, TargetStatus,
};
pub use oracle::{check_output, OracleConfig, OracleReport};
pub use recovery::{AuditReport, RecoveryReport};
pub use rollout::{
    CrashPlan, CrashPoint, FileIntentStore, IntentRecord, IntentStore, MemIntentStore,
    RolloutConfig, RolloutReport, SwitchRollout,
};
pub use runtime::{Runtime, RuntimeError};

use std::sync::Arc;
use std::time::{Duration, Instant};

pub use lyra_codegen::{Artifact, CodeSummary};
pub use lyra_diag::{Diagnostic, Phase, SourceId, SourceMap};
pub use lyra_solver::SearchStats;
pub use lyra_synth::{
    Backend, DegradeRung, EncodeOptions, Objective, P4Options, Placement, SolveProfile, SolveRoute,
};
pub use lyra_topo::{DegradeReport, FaultSet, ScopeHealth};

use lyra_diag::codes;
use lyra_diag::json::{Object, Value};
use lyra_ir::IrProgram;
use lyra_topo::{resolve_scope, resolve_scope_degraded, ResolvedScope, Topology};

/// [`SourceId`] of the Lyra program source inside
/// [`CompileRequest::source_map`].
pub const PROGRAM_SOURCE: SourceId = SourceId(0);
/// [`SourceId`] of the scope specification inside
/// [`CompileRequest::source_map`].
pub const SCOPES_SOURCE: SourceId = SourceId(1);

/// A compilation request: the three inputs of Figure 3, plus the
/// [`SolveProfile`] describing how to discharge the placement constraints
/// (watchdog limits and the quotient-route toggle).
pub struct CompileRequest<'a> {
    /// Lyra program source.
    pub program: &'a str,
    /// Algorithm scope specification (§3.3 / Figure 7 syntax).
    pub scopes: &'a str,
    /// Target network topology.
    pub topology: Topology,
    /// How to solve: deadline, decision budget, quotient route. The default
    /// is one deterministic search with the quotient route on and no
    /// limits; see [`SolveProfile`] for the `thorough()` preset.
    pub profile: SolveProfile,
}

impl<'a> CompileRequest<'a> {
    /// Bundle the three compiler inputs (default solve profile).
    pub fn new(program: &'a str, scopes: &'a str, topology: Topology) -> Self {
        CompileRequest {
            program,
            scopes,
            topology,
            profile: SolveProfile::default(),
        }
    }

    /// Select the complete solver configuration for this request.
    ///
    /// ```
    /// use lyra::{CompileRequest, SolveProfile};
    /// use lyra_topo::figure1_network;
    ///
    /// let req = CompileRequest::new("pipeline[P]{a}; algorithm a { x = 1; }",
    ///                               "a: [ ToR1 | PER-SW | - ]",
    ///                               figure1_network())
    ///     .with_solve_profile(
    ///         SolveProfile::default().with_deadline(std::time::Duration::from_secs(2)),
    ///     );
    /// assert!(req.profile.deadline.is_some());
    /// ```
    pub fn with_solve_profile(mut self, profile: SolveProfile) -> Self {
        self.profile = profile;
        self
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

/// Observability record of one compile run: phase timings, solver effort,
/// and per-switch resource utilization. Obtain one from
/// [`CompileOutput::session`]; serialize it with [`CompileSession::to_json`]
/// (this is what `lyrac --emit-stats` writes).
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
/// let session = out.session();
/// assert!(session.stats.total >= session.stats.synth);
/// let json = session.to_json().to_pretty();
/// assert!(json.contains("\"solver\""));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CompileSession {
    /// Per-phase wall-clock timings.
    pub stats: CompileStats,
    /// Aggregated solver search statistics (summed across every solver
    /// invocation the compile made).
    pub solver: SearchStats,
    /// Per-switch resource utilization of the solved placement.
    pub utilization: Vec<ResourceUtilization>,
    /// The transactional rollout that applied this compile to a running
    /// deployment, when one was driven (`lyrac --rollout-fail`); its
    /// retries and rollbacks render under `"rollout"` in the JSON.
    pub rollout: Option<RolloutReport>,
    /// The closed self-healing loop driven against this compile, when one
    /// ran (`lyrac --monitor`); detection verdicts and remediation rounds
    /// render under `"selfheal"` in the JSON.
    pub selfheal: Option<SelfHealOutcome>,
}

impl CompileSession {
    /// Attach the [`RolloutReport`] of the rollout that deployed this
    /// compile, so session JSON carries the full update story.
    pub fn with_rollout(mut self, report: RolloutReport) -> Self {
        self.rollout = Some(report);
        self
    }

    /// Attach the [`SelfHealOutcome`] of a monitoring run driven against
    /// this compile, so session JSON carries the detection and
    /// remediation story.
    pub fn with_selfheal(mut self, outcome: SelfHealOutcome) -> Self {
        self.selfheal = Some(outcome);
        self
    }
    /// Serialize to a JSON value (phases in microseconds).
    pub fn to_json(&self) -> Value {
        let mut phases = Object::new();
        for (ph, d) in self.stats.phases() {
            phases.push(ph.as_str(), Value::Number(d.as_micros() as f64));
        }
        phases.push("total", Value::Number(self.stats.total.as_micros() as f64));
        let mut solver = Object::new();
        solver.push("decisions", Value::Number(self.solver.decisions as f64));
        solver.push(
            "propagations",
            Value::Number(self.solver.propagations as f64),
        );
        solver.push("conflicts", Value::Number(self.solver.conflicts as f64));
        solver.push("learned", Value::Number(self.solver.learned as f64));
        solver.push("restarts", Value::Number(self.solver.restarts as f64));
        solver.push(
            "linear_visits",
            Value::Number(self.solver.linear_visits as f64),
        );
        solver.push(
            "bound_updates",
            Value::Number(self.solver.bound_updates as f64),
        );
        solver.push(
            "creep_checks",
            Value::Number(self.solver.creep_checks as f64),
        );
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
        if let Some(rollout) = &self.rollout {
            o.push("rollout", rollout.to_json());
        }
        if let Some(selfheal) = &self.selfheal {
            o.push("selfheal", selfheal.to_json());
        }
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
    /// A transactional rollout finished (committed or rolled back). Fired
    /// by [`Runtime::apply_rollout`] and the failover re-sync paths when
    /// an observer is registered via [`Runtime::set_observer`], after the
    /// `Phase::Rollout` start/end pair.
    fn on_rollout(&self, report: &RolloutReport) {
        let _ = report;
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
    pub flow_paths: std::collections::BTreeMap<String, Vec<Vec<String>>>,
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
    /// The observability record of this run (timings, solver effort,
    /// utilization) — see [`CompileSession`].
    pub fn session(&self) -> CompileSession {
        CompileSession {
            stats: self.stats,
            solver: self.solver,
            utilization: self.utilization.clone(),
            rollout: None,
            selfheal: None,
        }
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
#[derive(Default, Clone)]
pub struct Compiler {
    backend: Backend,
    encode: EncodeOptions,
    observer: Option<Arc<dyn CompileObserver>>,
    cache: Option<Arc<SynthCache>>,
}

impl Compiler {
    /// A compiler with default options (native solver, feasibility
    /// objective, parser hoisting on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the solver backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
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
    /// content key, fall back to a real [`lyra_synth::synthesize_limited`]
    /// run, and memoize successes. Returns the result plus the route that
    /// run took, `None` for a cache hit — a hit spent no solver effort, so
    /// the caller must not absorb its (historical) [`SearchStats`].
    fn synthesize_cached(
        &self,
        ir: &IrProgram,
        topo: &Topology,
        scopes: &[ResolvedScope],
        opts: &EncodeOptions,
        previous: Option<&Placement>,
        limits: &lyra_synth::SynthLimits,
    ) -> Result<(Arc<lyra_synth::SynthResult>, Option<SolveRoute>), lyra_synth::SynthError> {
        let key = self
            .cache
            .as_ref()
            .map(|_| cache::synth_key(ir, topo, scopes, opts, &self.backend));
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            if let Some(hit) = cache.lookup(key) {
                return Ok((hit, None));
            }
        }
        let (result, route) = lyra_synth::synthesize_limited(
            ir,
            topo,
            scopes,
            opts,
            &self.backend,
            previous,
            limits,
        )?;
        let result = Arc::new(result);
        // Degraded results never enter the cache: the key ignores limits,
        // so a later unlimited compile of the same problem must not be
        // served a watchdog fallback placement.
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
        let profile = &req.profile;
        // The watchdog's limits: the deadline counts from the start of the
        // compile.
        let limits = lyra_synth::SynthLimits {
            deadline: profile.deadline.map(|d| t0 + d),
            max_decisions: profile.decision_budget,
            decomposition: profile.decomposition,
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
            lyra_ir::frontend_ast(&prog).map_err(|e| {
                CompileError::Frontend(
                    e.to_diagnostics()
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
        // PER-SW-only workloads decompose per switch: every switch of a
        // scope hosts the full algorithm independently, so identical
        // (ASIC, algorithm-set) groups share one synthesis run. This is the
        // paper's explanation for Figure 10's flat PER-SW curve ("all the
        // switches have the same program and Lyra can generate the program
        // for each switch in parallel").
        let all_per_sw = resolved
            .iter()
            .all(|s| s.deploy == lyra_lang::DeployMode::PerSwitch)
            && matches!(self.encode.objective, Objective::Feasible);
        let t1 = Instant::now();
        let BackEnd {
            placement,
            artifacts,
            solver,
            t_synth,
            t_codegen,
            t_release,
            hits,
            misses,
            degraded,
            route,
        } = if all_per_sw {
            self.compile_per_switch(&ir, req, &resolved, &limits)?
        } else {
            if let Some(obs) = &self.observer {
                obs.on_phase_start(Phase::Solve);
            }
            let (synth, route) = self
                .synthesize_cached(
                    &ir,
                    &req.topology,
                    &resolved,
                    &self.encode,
                    previous,
                    &limits,
                )
                .map_err(|e| CompileError::Synth(e.to_diagnostics()))?;
            let t_synth = t1.elapsed();
            if let Some(obs) = &self.observer {
                obs.on_phase_end(Phase::Solve, t_synth);
            }
            let was_hit = route.is_none();
            let (artifacts, t_codegen) = self.phase(Phase::Codegen, || {
                lyra_codegen::generate(&ir, &req.topology, &synth).map_err(|e| {
                    CompileError::Codegen(vec![Diagnostic::error(codes::CODEGEN, e.to_string())])
                })
            });
            let (placement, stats, degraded) =
                (synth.placement.clone(), synth.stats, synth.degraded);
            // Unless a cache holds it too, this frees the encoded model —
            // at pod scale several milliseconds, so it is a phase.
            let ((), t_release) = self.phase(Phase::Release, || drop(synth));
            BackEnd {
                placement,
                artifacts: artifacts?,
                // A cache hit spent no solver effort this compile — its
                // stats belong to the run that populated the cache — and
                // its rung (always `None` by the cache invariant) must not
                // be confused with this compile's own outcome.
                solver: if was_hit {
                    SearchStats::default()
                } else {
                    stats
                },
                degraded: if was_hit { None } else { degraded },
                t_synth,
                t_codegen,
                t_release,
                hits: (self.cache.is_some() && was_hit) as u64,
                misses: (self.cache.is_some() && !was_hit) as u64,
                route,
            }
        };
        stats.synth = t_synth;
        stats.codegen = t_codegen;
        stats.release = t_release;
        stats.synth_cache_hits = hits;
        stats.synth_cache_misses = misses;
        stats.solve_route = route;

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
            warnings.push(
                Diagnostic::warning(
                    codes::DEGRADED,
                    format!(
                        "placement produced by the degradation ladder ({rung} rung): the \
                         solver could not reach a verdict within the configured limits"
                    ),
                )
                .with_note(
                    "the placement satisfies every constraint of the model, but nothing was \
                     optimized; recompile without a deadline or decision budget for a \
                     searched placement",
                ),
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

    /// PER-SW fast path: group scope switches by (ASIC model, set of
    /// algorithms), synthesize one representative per group, and replicate
    /// the plan to every member.
    fn compile_per_switch(
        &self,
        ir: &IrProgram,
        req: &CompileRequest,
        resolved: &[ResolvedScope],
        limits: &lyra_synth::SynthLimits,
    ) -> Result<BackEnd, CompileError> {
        use std::collections::BTreeMap;
        let opts = &self.encode;
        let t1 = Instant::now();
        if let Some(obs) = &self.observer {
            obs.on_phase_start(Phase::Solve);
        }

        // Switch → algorithms scoped there.
        let mut algs_on: BTreeMap<lyra_topo::SwitchId, Vec<&ResolvedScope>> = BTreeMap::new();
        for scope in resolved {
            for &s in &scope.switches {
                algs_on.entry(s).or_default().push(scope);
            }
        }
        // Group key: (asic, sorted algorithm names).
        let mut groups: BTreeMap<(String, Vec<String>), Vec<lyra_topo::SwitchId>> = BTreeMap::new();
        for (&s, scopes) in &algs_on {
            let mut names: Vec<String> = scopes.iter().map(|sc| sc.algorithm.clone()).collect();
            names.sort();
            let asic = req.topology.switch(s).asic.clone();
            groups.entry((asic, names)).or_default().push(s);
        }

        // Synthesize one representative per group, on scoped threads ("Lyra
        // can generate the program for each switch in parallel" — §7.2).
        type GroupKey = (String, Vec<String>);
        let group_list: Vec<(&GroupKey, &Vec<lyra_topo::SwitchId>)> = groups.iter().collect();
        let rep_scopes_of = |rep: lyra_topo::SwitchId| -> Vec<ResolvedScope> {
            algs_on[&rep]
                .iter()
                .map(|sc| ResolvedScope {
                    algorithm: sc.algorithm.clone(),
                    switches: vec![rep],
                    deploy: sc.deploy,
                    paths: vec![vec![rep]],
                })
                .collect()
        };
        type SynthOutcome =
            Result<(Arc<lyra_synth::SynthResult>, Option<SolveRoute>), lyra_synth::SynthError>;
        let mut synth_results: Vec<SynthOutcome> = Vec::with_capacity(group_list.len());
        if group_list.len() > 1 {
            let results = std::thread::scope(|s| {
                let handles: Vec<_> = group_list
                    .iter()
                    .map(|(_, members)| {
                        let rep = members[0];
                        let scopes = rep_scopes_of(rep);
                        let topology = &req.topology;
                        s.spawn(move || {
                            self.synthesize_cached(ir, topology, &scopes, opts, None, limits)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("synthesis thread"))
                    .collect::<Vec<_>>()
            });
            synth_results.extend(results);
        } else {
            for (_, members) in &group_list {
                let rep = members[0];
                let scopes = rep_scopes_of(rep);
                synth_results.push(self.synthesize_cached(
                    ir,
                    &req.topology,
                    &scopes,
                    opts,
                    None,
                    limits,
                ));
            }
        }

        let mut placement = Placement::default();
        let mut artifacts = Vec::new();
        let mut solver = SearchStats::default();
        let (mut t_codegen, mut t_release) = (Duration::ZERO, Duration::ZERO);
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut degraded: Option<DegradeRung> = None;
        let mut route: Option<SolveRoute> = None;
        for ((_, members), synth) in group_list.iter().zip(synth_results) {
            let rep = members[0];
            let (synth, ran) = synth.map_err(|e| CompileError::Synth(e.to_diagnostics()))?;
            if ran.is_none() {
                hits += 1;
            } else {
                // Single-switch PER-SW groups have nothing to carry over
                // or to quotient: every group that ran ran monolithic.
                route = ran;
                // A cache hit spent no solver effort and, by the cache's
                // only-store-clean-results invariant, cannot have degraded
                // *this* compile — so the rung (like the stats) is absorbed
                // only from real synthesis runs, never from hits.
                degraded = degraded.or(synth.degraded);
                if self.cache.is_some() {
                    misses += 1;
                }
                solver.absorb(synth.stats);
            }
            let tc = Instant::now();
            let rep_artifacts = lyra_codegen::generate(ir, &req.topology, &synth).map_err(|e| {
                CompileError::Codegen(vec![Diagnostic::error(codes::CODEGEN, e.to_string())])
            })?;
            let rep_name = req.topology.switch(rep).name.clone();
            let rep_plan = synth.placement.switches.get(&rep_name).cloned();
            for &member in members.iter() {
                let member_name = req.topology.switch(member).name.clone();
                if let Some(plan) = &rep_plan {
                    placement.switches.insert(member_name.clone(), plan.clone());
                }
                for a in &rep_artifacts {
                    let mut a = a.clone();
                    a.code = a.code.replace(
                        &format!("program for {rep_name} "),
                        &format!("program for {member_name} "),
                    );
                    a.switch = member_name.clone();
                    artifacts.push(a);
                }
            }
            t_codegen += tc.elapsed();
            let tr = Instant::now();
            drop(synth);
            t_release += tr.elapsed();
        }
        let t_synth = t1.elapsed().saturating_sub(t_codegen + t_release);
        if let Some(obs) = &self.observer {
            obs.on_phase_end(Phase::Solve, t_synth);
            obs.on_phase_start(Phase::Codegen);
            obs.on_phase_end(Phase::Codegen, t_codegen);
            obs.on_phase_start(Phase::Release);
            obs.on_phase_end(Phase::Release, t_release);
        }
        Ok(BackEnd {
            placement,
            artifacts,
            solver,
            t_synth,
            t_codegen,
            t_release,
            hits,
            misses,
            degraded,
            route,
        })
    }
}

/// What the back-end (synthesis + code generation) of one compile
/// produced, on either driver path.
struct BackEnd {
    placement: Placement,
    artifacts: Vec<Artifact>,
    solver: SearchStats,
    t_synth: Duration,
    t_codegen: Duration,
    t_release: Duration,
    hits: u64,
    misses: u64,
    degraded: Option<DegradeRung>,
    route: Option<SolveRoute>,
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

    #[test]
    fn default_and_thorough_profiles_agree() {
        let topo = figure1_network();
        let default = Compiler::new()
            .compile(&CompileRequest::new(INT_LB, SCOPES, topo.clone()))
            .unwrap();
        let thorough = Compiler::new()
            .compile(
                &CompileRequest::new(INT_LB, SCOPES, topo)
                    .with_solve_profile(SolveProfile::thorough()),
            )
            .unwrap();
        // Both must solve; artifact coverage (which switches get code for
        // PER-SW scopes) is identical.
        assert_eq!(default.artifacts.len() >= 4, thorough.artifacts.len() >= 4);
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
        let program = "pipeline[P]{a}; algorithm a { x = 1; }";
        let scopes = "a: [ ToR1 | PER-SW | - ]";
        let limited = CompileRequest::new(program, scopes, figure1_network())
            .with_solve_profile(SolveProfile::default().with_deadline(Duration::ZERO));
        let first = compiler.compile(&limited).unwrap();
        assert!(
            first.degraded.is_some(),
            "an already-expired deadline must degrade"
        );
        // Degraded results never enter the cache…
        assert_eq!(cache.len(), 0);
        // …so an unlimited compile of the same problem populates it cleanly.
        let clean = compiler
            .compile(&CompileRequest::new(program, scopes, figure1_network()))
            .unwrap();
        assert!(clean.degraded.is_none());
        assert_eq!(cache.len(), 1);
        // A repeat limited compile hits the cache: no solver effort spent,
        // and no degraded rung inherited from any earlier compile.
        let hit = compiler.compile(&limited).unwrap();
        assert_eq!(hit.stats.synth_cache_hits, 1);
        assert_eq!(hit.degraded, None, "cache hit must not report a rung");
        assert_eq!(hit.solver.decisions, 0);
        // No route ran, and the session JSON says so by name.
        assert_eq!(clean.stats.solve_route, Some(SolveRoute::Monolithic));
        assert_eq!(hit.stats.solve_route, None);
        let json = hit.session().to_json();
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
        let json = out.session().to_json();
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
        let json = out.session().to_json();
        let phases = json.get("phases_us").expect("phases_us");
        assert!(phases.get("total").is_some());
        assert!(json
            .get("solver")
            .and_then(|s| s.get("decisions"))
            .is_some());
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
        let rec = Arc::new(Recorder::default());
        Compiler::new()
            .with_observer(rec.clone())
            .compile(&CompileRequest::new(
                "pipeline[P]{a}; algorithm a { x = 1; }",
                "a: [ ToR1 | PER-SW | - ]",
                figure1_network(),
            ))
            .unwrap();
        let events = rec.0.lock().unwrap();
        for ph in [
            Phase::Parse,
            Phase::Check,
            Phase::Lower,
            Phase::Scopes,
            Phase::Solve,
            Phase::Release,
        ] {
            assert!(
                events.contains(&(ph, false)) && events.contains(&(ph, true)),
                "missing events for {ph:?}: {events:?}"
            );
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
