//! The benchmark's whole view of the system under test.
//!
//! This is the only file that names a `lyra*` crate. Everything the
//! workloads and layer probes call is re-exported here, grouped by layer,
//! so a change to the system's public surface shows up as a change to
//! this file and nowhere else. Solver behaviour is always whatever
//! `CompileRequest::new` / `SolveLimits::default()` select: no
//! acceleration toggle is named, so they can be removed without touching
//! the benchmark.
//!
//! The two adapters at the bottom are how the benchmark observes from
//! outside: a `CompileObserver` that turns compiler phases into spans and
//! a `ControlChannel` wrapper that turns control messages into spans.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::trace::Tracer;

// lang
pub use lyra_lang::{check_program, parse_program, parse_scopes};
// ir: lowering, table storage, compiled bytecode
pub use lyra_ir::{
    frontend_ast, CompiledAlgorithm, DataPlaneState, ExternTable, GlobalAccess, GlobalOverlay,
    Machine, ProgramLayout, TableSnapshot,
};
// topo
pub use lyra_topo::{
    fat_tree_pod, figure1_network, interchangeable_classes, resolve_scope, FaultSet, Layer,
    Topology,
};
// synth + solver
pub use lyra_solver::flatten;
pub use lyra_synth::backend::solve_with_limits;
pub use lyra_synth::{
    encode, Backend, EncodeOptions, Objective, SolveLimits, SolverStrategy, SynthResult,
};
// codegen
pub use lyra_codegen::{generate, validate};
// core: compiler driver, cache, fault, runtime, rollout, recovery, health, dataplane
pub use lyra::{
    check_output, replay_compiled, replay_interpreted, replay_under_rollout, run_selfheal,
    ChaosSchedule, CompileError, CompileOutput, CompileRequest, CompiledDeployment, Compiler,
    CrashPlan, CrashPoint, FaultRecompile, LiveTrafficPlane, MemIntentStore, OracleConfig,
    PlacementDiff, ReliableChannel, ReplayConfig, ReplayReport, RolloutConfig, RolloutReport,
    Runtime, SelfHealConfig, SynthCache, Target,
};
// apps: the programs under test
pub use lyra_apps::{figure9_corpus, programs};
// diag: the in-tree JSON reader the expected files are parsed with
pub use lyra_diag::json;

use lyra::{CompileObserver, ControlChannel, ControlMsg, Delivery, Diagnostic, Phase};

/// Turns the compiler's phase callbacks into spans under whichever span
/// the benchmark has open around `Compiler::compile`.
pub struct PhaseSpans {
    tracer: Arc<Tracer>,
    open: Mutex<Vec<Option<u32>>>,
}

impl PhaseSpans {
    pub fn new(tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(PhaseSpans {
            tracer,
            open: Mutex::default(),
        })
    }

    fn open(&self) -> std::sync::MutexGuard<'_, Vec<Option<u32>>> {
        self.open
            .lock()
            .expect("phase-span mutex poisoned: an observer callback panicked")
    }
}

fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Parse => "core.phase.parse",
        Phase::Check => "core.phase.check",
        Phase::Lower => "core.phase.lower",
        Phase::Scopes => "core.phase.scopes",
        Phase::Encode => "core.phase.encode",
        Phase::Solve => "core.phase.solve",
        Phase::Synthesize => "core.phase.synthesize",
        Phase::Codegen => "core.phase.codegen",
        Phase::Rollout => "core.phase.rollout",
        _ => "core.phase.other",
    }
}

impl CompileObserver for PhaseSpans {
    fn on_phase_start(&self, phase: Phase) {
        let id = self.tracer.begin(phase_name(phase), "");
        self.open().push(id);
    }

    fn on_phase_end(&self, _phase: Phase, elapsed: std::time::Duration) {
        let id = self.open().pop().flatten();
        self.tracer.end_reported(id, Some(elapsed));
    }
}

/// A reliable channel that records every transmission as a span named by
/// its `ControlOp`, and when the prepare and commit stages began.
pub struct SpanChannel {
    inner: ReliableChannel,
    tracer: Arc<Tracer>,
    pub first_prepare: Option<Instant>,
    pub first_commit: Option<Instant>,
    /// When the latest transmission returned.
    pub last_end: Option<Instant>,
}

impl SpanChannel {
    pub fn new(tracer: Arc<Tracer>) -> Self {
        SpanChannel {
            inner: ReliableChannel::new(),
            tracer,
            first_prepare: None,
            first_commit: None,
            last_end: None,
        }
    }
}

impl ControlChannel for SpanChannel {
    fn transmit(&mut self, msg: &ControlMsg) -> Delivery {
        let start = Instant::now();
        let fate = self.inner.transmit(msg);
        let name = match msg.op.name() {
            "prepare" => "rollout.msg.prepare",
            "prepare-delta" => "rollout.msg.prepare-delta",
            "commit" => {
                self.first_commit.get_or_insert(start);
                "rollout.msg.commit"
            }
            "rollback" => "rollout.msg.rollback",
            _ => "rollout.msg.other",
        };
        if msg.op.is_prepare() {
            self.first_prepare.get_or_insert(start);
        }
        let end = Instant::now();
        self.last_end = Some(end);
        self.tracer.leaf(name, start, end);
        fate
    }
}

/// The distinct codes of `diagnostics`, comma-separated, in order: what
/// the expected files record of a refusal or of an oracle report.
pub fn codes(diagnostics: &[Diagnostic]) -> String {
    let mut codes: Vec<String> = diagnostics
        .iter()
        .filter_map(|d| d.code.map(|c| c.to_string()))
        .collect();
    codes.dedup();
    codes.join(",")
}
