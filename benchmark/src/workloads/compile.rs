//! `compile_corpus`, `compile_pod`, `compile_tight`: cold compiles of a
//! fixed instance set, one at a time, plus each workload's second timing
//! (warm compile through a `SynthCache`, fault recompile, or the
//! minimising subset).

use std::sync::Arc;
use std::time::Instant;

use super::Ctx;
use crate::api::{
    check_output, codes, CompileError, CompileOutput, CompileRequest, Compiler, FaultRecompile,
    FaultSet, OracleConfig, PhaseSpans, SynthCache,
};
use crate::expected::{Expected, InstanceRecord};
use crate::inputs::{self, Instance, Rng};
use crate::layers;
use crate::stats::{fastest, geomean, median, tail};

/// An instance after set-up: what it produced, and for a fault instance
/// the compiler and healthy output every recompile starts from.
struct Ready<'i> {
    inst: &'i Instance,
    record: InstanceRecord,
    healthy: Option<(Compiler, CompileOutput)>,
}

pub fn request(inst: &Instance) -> CompileRequest<'_> {
    CompileRequest::new(&inst.program, &inst.scopes, inst.topo.clone())
}

/// A cold compiler: new, no synthesis cache, empty warm-start store.
pub fn cold_compiler(inst: &Instance) -> Compiler {
    Compiler::new().with_objective(inst.objective.clone())
}

pub fn record_of(name: &str, result: &Result<CompileOutput, CompileError>) -> InstanceRecord {
    match result {
        Ok(out) => InstanceRecord {
            name: name.to_string(),
            verdict: "sat".to_string(),
            family: String::new(),
            tables_total: out.total_tables(),
            switches_used: out.placement.switches.len() as u64,
            artifact_bytes: out
                .artifacts
                .iter()
                .map(|a| (a.code.len() + a.control_plane.len()) as u64)
                .sum(),
            ..Default::default()
        },
        Err(e) => InstanceRecord {
            name: name.to_string(),
            verdict: "unsat".to_string(),
            family: codes(e.diagnostics()),
            ..Default::default()
        },
    }
}

/// Compiles of one instance the set-up stage tries before it gives up
/// on reproducing the expected record. The default solver profile races
/// a portfolio, and where several placements are feasible the winner
/// varies from compile to compile; the expected file pins one of them.
const TRIES: usize = 16;

/// An instance compiled, checked and (if it has a fault) recompiled.
pub struct Checked {
    pub compiler: Compiler,
    pub result: Result<CompileOutput, CompileError>,
    pub failover: Option<FaultRecompile>,
    pub record: InstanceRecord,
}

/// Compile `inst` cold — then recompile it around its fault and run the
/// oracle, where asked — until what it produced equals `want`, at most
/// `TRIES` times. Counts one op for the expected record and one per
/// validator run. Without the oracle its expected verdict is carried
/// forward unverified.
pub fn compile_checked(
    ctx: &mut Ctx,
    inst: &Instance,
    want: Option<&InstanceRecord>,
    oracle: bool,
) -> Checked {
    let mut tries = 0;
    let checked = loop {
        tries += 1;
        let compiler = cold_compiler(inst);
        let req = request(inst);
        let result = compiler.compile(&req);
        let mut record = record_of(&inst.name, &result);
        let mut failover = None;
        if let Ok(out) = &result {
            if oracle {
                let cfg = OracleConfig {
                    cases: 100,
                    ..OracleConfig::default()
                };
                let diverged = codes(&check_output(out, &cfg).diagnostics);
                record.oracle = if diverged.is_empty() {
                    "clean".to_string()
                } else {
                    diverged
                };
            } else if let Some(w) = want {
                record.oracle.clone_from(&w.oracle);
            }
            if let Some(switch) = inst.fail {
                let faults = FaultSet::new().with_switch(switch);
                match compiler.recompile_for_faults(&req, out, &faults) {
                    Ok(r) => {
                        record.recompile_tables = r.output.total_tables();
                        failover = Some(r);
                    }
                    Err(e) => record.family = codes(e.diagnostics()),
                }
            }
        }
        if ctx.bless || want == Some(&record) || tries == TRIES {
            break Checked {
                compiler,
                result,
                failover,
                record,
            };
        }
    };
    if tries > 1 {
        let retries = ctx.report.get("setup_retries") + (tries - 1) as f64;
        ctx.report.set("setup_retries", "count", retries);
    }
    if !ctx.bless {
        ctx.report.check(want == Some(&checked.record), || {
            format!(
                "{}: expected {want:?}, observed {:?} in each of {TRIES} compiles",
                inst.name, checked.record
            )
        });
    }
    let outputs = checked
        .result
        .iter()
        .chain(checked.failover.iter().map(|r| &r.output));
    for out in outputs {
        let valid = out.validate_all();
        ctx.report.check(valid.is_ok(), || {
            format!("{}: validate_all: {:?}", inst.name, valid.err())
        });
    }
    checked
}

/// Compile every instance, check each output against the expected file
/// and the validators, and warm the shared cache.
fn set_up<'i>(
    ctx: &mut Ctx,
    instances: &'i [Instance],
    expected: &Expected,
    cached: &Compiler,
    oracle: bool,
) -> Vec<Ready<'i>> {
    instances
        .iter()
        .map(|inst| {
            let c = compile_checked(ctx, inst, expected.instance(&inst.name), oracle);
            if inst.warm {
                let warm = cached.compile(&request(inst));
                ctx.report.check(warm.is_ok(), || {
                    format!("{}: cached compile failed", inst.name)
                });
            }
            Ready {
                inst,
                record: c.record,
                healthy: inst.fail.and(c.result.ok()).map(|out| (c.compiler, out)),
            }
        })
        .collect()
}

/// A round visits every instance once, and a visit repeats a short op
/// until it has taken about `REPEAT_UNTIL_MS`, at most `MAX_REPEATS`
/// times. The slowest instance of a workload takes most of every round, so
/// without this the millisecond instances would get as few samples as the
/// second-long one — and it is the short ops whose fastest sample repeats
/// from run to run, if there are a hundred of them.
const REPEAT_UNTIL_MS: f64 = 100.0;
const MAX_REPEATS: usize = 16;

/// Per-instance timing samples of one tracing state.
#[derive(Default, Clone)]
struct Samples {
    cold: Vec<f64>,
    second: Vec<f64>,
}

/// The workload's two timings from per-instance samples: geometric mean
/// over instances of each instance's fastest sample.
fn timings(ready: &[Ready], samples: &[Samples]) -> (f64, f64) {
    let fastests = |pick: &dyn Fn(&Ready, &Samples) -> Option<f64>| -> Vec<f64> {
        ready
            .iter()
            .zip(samples)
            .filter_map(|(r, s)| pick(r, s))
            .collect()
    };
    let primary = fastests(&|_, s| (!s.cold.is_empty()).then(|| fastest(&s.cold)));
    let secondary = fastests(&|r, s| {
        let of = if s.second.is_empty() {
            &s.cold
        } else {
            &s.second
        };
        (r.inst.secondary && !of.is_empty()).then(|| fastest(of))
    });
    (geomean(&primary), geomean(&secondary))
}

pub fn run(ctx: &mut Ctx) {
    let instances = match ctx.workload {
        "compile_corpus" => inputs::corpus_instances(),
        "compile_pod" => inputs::pod_instances(),
        _ => inputs::tight_instances(),
    };
    let expected = Expected::load(ctx.workload);
    let cache = Arc::new(SynthCache::new());
    let cached = Compiler::new().with_synth_cache(cache.clone());
    // The oracle (100 cases per artifact) costs forty times the rest of
    // the corpus set-up; it runs in the first repetition only, so the
    // median `setup_s` is the set-up without it.
    let mut oracle = ctx.workload == "compile_corpus";
    let ready = ctx.timed_setup(|ctx| {
        let ready = set_up(ctx, &instances, &expected, &cached, oracle);
        oracle = false;
        ready
    });
    if ctx.bless {
        let blessed = Expected {
            instances: ready.iter().map(|r| r.record.clone()).collect(),
            golden: None,
        };
        blessed.write(ctx.workload).expect("write expected file");
    }
    let tables: u64 = ready
        .iter()
        .map(|r| r.record.tables_total + r.record.recompile_tables)
        .sum();
    ctx.report.set("tables_total", "count", tables as f64);
    let switches: u64 = ready
        .iter()
        .filter(|r| r.inst.objective != crate::api::Objective::Feasible)
        .map(|r| r.record.switches_used)
        .sum();
    ctx.report.set("switches_used", "count", switches as f64);

    // Measured loop: rounds over every instance in a seed-shuffled order,
    // one op at a time, short ops several times per visit. In a traced run
    // odd rounds record spans (compiler observer attached) and even rounds
    // do not; the difference is the tracing overhead.
    let observer = PhaseSpans::new(ctx.tracer.clone());
    let mut samples = [
        vec![Samples::default(); ready.len()],
        vec![Samples::default(); ready.len()],
    ];
    let mut rng = Rng::new(ctx.seed);
    let mut order: Vec<usize> = (0..ready.len()).collect();
    // Ops per visit of each instance, fixed by its first op (0: not yet).
    let mut repeats = vec![0usize; ready.len()];
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let start = Instant::now();
    let mut rounds = 0;
    while ctx.keep_sampling(start, ctx.loop_share(), rounds) {
        let traced = ctx.trace && rounds % 2 == 1;
        ctx.tracer.set_enabled(traced);
        rng.shuffle(&mut order);
        for &i in &order {
            let r = &ready[i];
            let req = request(r.inst);
            let name = &r.inst.name;
            let mine = &mut samples[traced as usize][i];
            for rep in 0..repeats[i].max(1) {
                ctx.tracer.next_op();
                let ms = match &r.healthy {
                    None => {
                        let mut compiler = cold_compiler(r.inst);
                        if traced {
                            compiler = compiler.with_observer(observer.clone());
                        }
                        let (ms, result) =
                            ctx.timed("core.compile", name, || compiler.compile(&req));
                        mine.cold.push(ms);
                        let verdict = if result.is_ok() { "sat" } else { "unsat" };
                        ctx.report.check(verdict == r.record.verdict, || {
                            format!("{name}: verdict changed to {verdict}")
                        });
                        ms
                    }
                    Some((compiler, healthy)) => {
                        let faults = FaultSet::new().with_switch(r.inst.fail.unwrap_or_default());
                        let (ms, result) = ctx.timed("fault.recompile", name, || {
                            compiler.recompile_for_faults(&req, healthy, &faults)
                        });
                        mine.second.push(ms);
                        ctx.report
                            .check(result.is_ok(), || format!("{name}: recompile failed"));
                        ms
                    }
                };
                if r.inst.warm {
                    let (ms, result) =
                        ctx.timed("cache.warm_compile", name, || cached.compile(&req));
                    mine.second.push(ms);
                    ctx.report
                        .check(result.is_ok(), || format!("{name}: warm compile failed"));
                }
                if rep == 0 && repeats[i] == 0 {
                    repeats[i] = ((REPEAT_UNTIL_MS / ms) as usize).clamp(1, MAX_REPEATS);
                }
            }
        }
        rounds += 1;
    }
    ctx.tracer.set_enabled(false);

    let (primary, secondary) = timings(&ready, &samples[0]);
    if !ctx.trace {
        ctx.report.put(
            "primary_ms",
            "ms",
            primary,
            None,
            "compile_ms: geomean over instances of the fastest sample",
        );
        let what = match ctx.workload {
            "compile_corpus" => "compile_warm_ms: same instances through a warm SynthCache",
            "compile_pod" => "recompile_ms: hinted recompile after Agg1 fails",
            _ => "compile_ms of the min-switches instances",
        };
        ctx.report.put("secondary_ms", "ms", secondary, None, what);
        for (r, s) in ready.iter().zip(&samples[0]) {
            for (kind, of) in [("cold", &s.cold), ("second", &s.second)] {
                if !of.is_empty() {
                    let name = format!("instance_ms[{} {kind}]", r.inst.name);
                    ctx.report.set_fastest(&name, "ms", of);
                }
            }
        }
        // Tail of the slowest cold instance: the highest percentile that
        // still has ten samples beyond it.
        let slowest = samples[0]
            .iter()
            .filter(|s| !s.cold.is_empty())
            .max_by(|a, b| median(&a.cold).total_cmp(&median(&b.cold)));
        if let Some((pct, value)) = slowest.and_then(|s| tail(&s.cold)) {
            let note = format!(
                "p{pct} of the slowest instance, n={}",
                slowest.map_or(0, |s| s.cold.len())
            );
            ctx.report.put("compile_tail_ms", "ms", value, None, &note);
        }
        return;
    }

    let (traced_primary, _) = timings(&ready, &samples[1]);
    layers::trace_overhead(ctx, primary, traced_primary, "core.compile");
    let lookups = (cache.hits() - hits0) + (cache.misses() - misses0);
    if lookups > 0 {
        ctx.report.set(
            "cache.hit_share",
            "ratio",
            (cache.hits() - hits0) as f64 / lookups as f64,
        );
    }
    layers::phase_metrics(ctx, "core.compile");
    let budget = ctx.seconds * (1.0 - ctx.loop_share());
    layers::compile_layers(ctx, &instances, budget);
    if ctx.workload == "compile_pod" {
        let lb_k16 = instances.iter().find(|i| i.fail.is_some());
        layers::health(ctx, lb_k16.expect("compile_pod has fault instances"));
    }
}
