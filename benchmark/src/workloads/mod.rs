//! The workloads and what they share: the run context, the
//! repeated-set-up clock and the sampling loop.

use std::sync::Arc;
use std::time::Instant;

use crate::inputs::Sizes;
use crate::report::Report;
use crate::trace::Tracer;

pub mod compile;
pub mod deploy;

/// The workloads `BENCHMARK.json` declares, in its order.
pub const NAMES: &[&str] = &[
    "compile_corpus",
    "compile_pod",
    "compile_tight",
    "failover_1m",
    "replay_netcache",
    "replay_lb_1m",
];

/// Run by hand and by `--check`, not declared: its op is two threads
/// working on the same tables, and on a shared two-core host two threads'
/// wall clock does not stay within a bound from run to run.
pub const UNDECLARED: &[&str] = &["replay_rollout"];

pub fn all_names() -> impl Iterator<Item = &'static str> {
    NAMES.iter().chain(UNDECLARED).copied()
}

/// A full run repeats its set-up stage at least `SETUP_REPS` times, goes
/// on until that many repetitions of the median one would take
/// `SETUP_MIN_S`, and stops at `SETUP_MAX_REPS`: a set-up of a few
/// milliseconds needs more than five samples for a median that repeats.
/// `setup_s` is the median.
const SETUP_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 9;
const SETUP_MIN_S: f64 = 1.0;

/// One run of one workload.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub check: bool,
    /// Rewrite the expected file from this run instead of checking it.
    pub bless: bool,
    pub sizes: Sizes,
    /// Worker threads of a parallel replay: min(nproc, 4).
    pub workers: usize,
    pub tracer: Arc<Tracer>,
    pub report: Report,
}

impl Ctx {
    /// Run the set-up stage repeatedly (once under `--check`), report the
    /// median as `setup_s` and keep the last product.
    pub fn timed_setup<T>(&mut self, mut setup: impl FnMut(&mut Ctx) -> T) -> T {
        let mut times: Vec<f64> = Vec::new();
        let mut product = None;
        loop {
            drop(product.take());
            let t = Instant::now();
            product = Some(setup(self));
            times.push(t.elapsed().as_secs_f64());
            // By the median, so that one slow repetition (the corpus oracle
            // runs in the first only) does not end the repeating early.
            let enough = times.len() >= SETUP_REPS
                && times.len() as f64 * crate::stats::median(&times) >= SETUP_MIN_S;
            if self.check || enough || times.len() == SETUP_MAX_REPS {
                break;
            }
        }
        self.report.set_median("setup_s", "s", &times);
        product.expect("set-up ran at least once")
    }

    /// Whether a sampling loop that started at `start` with a `share` of
    /// the run's seconds should take another sample.
    pub fn keep_sampling(&self, start: Instant, share: f64, samples: usize) -> bool {
        match self.sizes.max_samples {
            // A traced run needs a sample of each kind, traced and not.
            Some(max) => samples < max * (1 + self.trace as usize),
            None => samples < 3 || start.elapsed().as_secs_f64() < self.seconds * share,
        }
    }

    /// Run `f` inside a span named `span`; its wall time in milliseconds
    /// and what it returned.
    pub fn timed<T>(&self, span: &'static str, label: &str, f: impl FnOnce() -> T) -> (f64, T) {
        let id = self.tracer.begin(span, label);
        let t = Instant::now();
        let out = f();
        let ms = ms_since(t);
        self.tracer.end(id);
        (ms, out)
    }

    /// Share of the seconds the measured loop gets: all of them untraced;
    /// half when traced, leaving the rest to the layer probes.
    pub fn loop_share(&self) -> f64 {
        if self.trace {
            0.5
        } else {
            1.0
        }
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(ctx: &mut Ctx) {
    match ctx.workload {
        "compile_corpus" | "compile_pod" | "compile_tight" => compile::run(ctx),
        "failover_1m" => deploy::failover(ctx),
        "replay_netcache" | "replay_lb_1m" => deploy::replay(ctx),
        "replay_rollout" => deploy::replay_rollout(ctx),
        other => unreachable!("workload `{other}` passed the argument check"),
    }
}
