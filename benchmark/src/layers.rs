//! Per-layer numbers of a traced run: what the recorded spans say about
//! the compiler's phases, and direct probes that call one layer's public
//! functions at a time on the workload's own inputs.
//!
//! Times of a multi-instance workload are sums over instances of each
//! instance's median, so the layers add up to the workload's compile
//! time; counts are sums over instances.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use crate::api::{
    check_program, encode, flatten, frontend_ast, generate, interchangeable_classes, parse_program,
    parse_scopes, replay_compiled, replay_interpreted, resolve_scope, run_selfheal,
    solve_with_limits, validate, Backend, ChaosSchedule, CompiledAlgorithm, CompiledDeployment,
    CrashPlan, CrashPoint, DataPlaneState, EncodeOptions, ExternTable, FaultSet, GlobalAccess,
    GlobalOverlay, LiveTrafficPlane, Machine, MemIntentStore, PlacementDiff, ProgramLayout,
    ReliableChannel, ReplayConfig, ReplayReport, RolloutConfig, Runtime, SelfHealConfig,
    SolveLimits, SolverStrategy, SynthResult, TableSnapshot, Target,
};
use crate::inputs::Instance;
use crate::stats::{median, summary};
use crate::trace;
use crate::workloads::compile::{cold_compiler, request};
use crate::workloads::deploy::{fail_over, Deployed, Replayed, RolloutSample};
use crate::workloads::{ms_since, Ctx};

/// Longest one direct solve may run; a monolithic pod-scale model can
/// take far longer than the compile that avoids it.
const SOLVE_CAP: Duration = Duration::from_millis(1500);

/// Median milliseconds of `f`, repeated up to seven times or until
/// `budget_s` is spent (always at least once).
fn probe<T>(budget_s: f64, mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        times.push(ms_since(t));
        if times.len() >= 7 || start.elapsed().as_secs_f64() >= budget_s {
            return (median(&times), out);
        }
    }
}

/// Phase spans under the spans named `root`: per instance label the
/// median of each phase and of the root's self time, summed over labels.
pub fn phase_metrics(ctx: &mut Ctx, root: &'static str) {
    let spans = ctx.tracer.spans();
    let own = trace::self_times(&spans);
    let mut by_label: BTreeMap<(&str, &'static str), Vec<f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == root {
            by_label
                .entry((&s.label, "self"))
                .or_default()
                .push(own[i] as f64);
        } else if let Some(p) = s.parent.map(|p| &spans[p as usize]) {
            if p.name == root {
                by_label
                    .entry((&p.label, s.name))
                    .or_default()
                    .push(s.reported_or_duration_ns() as f64);
            }
        }
    }
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let labels: BTreeSet<&str> = by_label.keys().map(|k| k.0).collect();
    let many = labels.len() > 1;
    for ((label, name), ns) in &by_label {
        *sums.entry(name).or_default() += median(ns);
        if many && *name == "core.phase.solve" {
            let row = format!("core.phase.solve_ms[{label}]");
            ctx.report.set(&row, "ms", median(ns) / 1e6);
        }
    }
    let ns = |name: &str| sums.get(name).copied().unwrap_or(0.0);
    for (metric, span) in [
        ("core.phase.parse_us", "core.phase.parse"),
        ("core.phase.check_us", "core.phase.check"),
        ("core.phase.lower_us", "core.phase.lower"),
        ("core.phase.scopes_us", "core.phase.scopes"),
    ] {
        ctx.report.set(metric, "us", ns(span) / 1e3);
    }
    ctx.report
        .set("core.phase.solve_ms", "ms", ns("core.phase.solve") / 1e6);
    ctx.report.set(
        "core.phase.codegen_ms",
        "ms",
        ns("core.phase.codegen") / 1e6,
    );
    ctx.report
        .set("core.driver_self_ms", "ms", ns("self") / 1e6);
    let covered = trace::coverage(&spans, root);
    ctx.report.set("core.phase_coverage", "ratio", covered);
}

/// Sum over instance labels of the median duration, in milliseconds, of
/// the spans named `name`; `None` when there is no such span.
pub fn summed_medians_ms(spans: &[trace::Span], name: &str) -> Option<f64> {
    let mut by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        by_label
            .entry(&s.label)
            .or_default()
            .push(s.duration_ns() as f64 / 1e6);
    }
    (!by_label.is_empty()).then(|| by_label.values().map(|v| median(v)).sum())
}

/// `trace.*`: the primary timing traced against untraced, how much of
/// the spans named `root` their children explain, and the span count.
pub fn trace_overhead(ctx: &mut Ctx, untraced_ms: f64, traced_ms: f64, root: &'static str) {
    ctx.report.set("trace.primary_ms", "ms", traced_ms);
    ctx.report.set(
        "trace.overhead_pct",
        "%",
        100.0 * (traced_ms - untraced_ms) / untraced_ms,
    );
    let spans = ctx.tracer.spans();
    ctx.report.set(
        "trace.coverage_pct",
        "%",
        100.0 * trace::coverage(&spans, root),
    );
    ctx.report.set("trace.spans", "count", spans.len() as f64);
}

/// Direct probes of `lang`, `ir` lowering, `topo`, `synth`, `solver` and
/// `codegen` on every instance, within about `budget_s` seconds.
pub fn compile_layers(ctx: &mut Ctx, instances: &[Instance], budget_s: f64) {
    // Twelve probes per instance share the budget.
    let each = budget_s / (instances.len() * 12) as f64;
    let mut sum: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |name: &'static str, v: f64| *sum.entry(name).or_default() += v;
    let mut source_bytes = 0.0;
    for inst in instances {
        let id = ctx.tracer.begin("layers.compile", &inst.name);
        // lang
        let (ms, prog) = probe(each, || parse_program(&inst.program));
        add("lang.parse_us", ms * 1e3);
        source_bytes += inst.program.len() as f64;
        let prog = prog.expect("instance parsed during set-up");
        add(
            "lang.check_us",
            probe(each, || check_program(&prog)).0 * 1e3,
        );
        let (ms, specs) = probe(each, || parse_scopes(&inst.scopes));
        add("lang.scopes_us", ms * 1e3);
        let specs = specs.expect("scopes parsed during set-up");
        // ir
        let (ms, ir) = probe(each, || frontend_ast(&prog));
        add("ir.lower_us", ms * 1e3);
        let ir = ir.expect("instance lowered during set-up");
        add("ir.instrs", ir.total_instrs() as f64);
        // topo
        let (ms, scopes) = probe(each, || {
            specs
                .iter()
                .map(|s| resolve_scope(&inst.topo, s))
                .collect::<Result<Vec<_>, _>>()
        });
        add("topo.resolve_us", ms * 1e3);
        let scopes = scopes.expect("scopes resolved during set-up");
        add(
            "topo.paths",
            scopes.iter().map(|s| s.paths.len()).sum::<usize>() as f64,
        );
        let (ms, _) = probe(each, || interchangeable_classes(&inst.topo, &scopes));
        add("topo.symmetry_us", ms * 1e3);
        if let Some(switch) = inst.fail {
            let faults = FaultSet::new().with_switch(switch);
            add(
                "topo.degrade_us",
                probe(each, || inst.topo.degrade(&faults)).0 * 1e3,
            );
        }
        // synth
        let opts = EncodeOptions {
            objective: inst.objective.clone(),
            ..EncodeOptions::default()
        };
        let (ms, enc) = probe(each, || encode(&ir, &inst.topo, &scopes, &opts));
        add("synth.encode_ms", ms);
        let enc = enc.expect("instance encoded during set-up");
        add("synth.model_bools", enc.model.num_bools() as f64);
        add("synth.model_ints", enc.model.num_ints() as f64);
        add(
            "synth.model_constraints",
            enc.model.num_constraints() as f64,
        );
        add("synth.units", enc.units.len() as f64);
        // solver
        let (ms, flat) = probe(each, || flatten(&enc.model));
        add("solver.flatten_ms", ms);
        add("solver.flat_clauses", flat.clauses.len() as f64);
        add("solver.flat_atoms", flat.atoms.len() as f64);
        add("solver.sat_vars", flat.num_sat_vars as f64);
        let (ms, (_, stats)) = probe(each, || {
            let limits = SolveLimits {
                deadline: Some(Instant::now() + SOLVE_CAP),
                ..SolveLimits::default()
            };
            solve_with_limits(
                &enc.model,
                enc.objective.as_ref(),
                &Backend::Native,
                &[],
                SolverStrategy::default(),
                &limits,
            )
        });
        add("solver.solve_ms", ms);
        if instances.len() > 1 {
            // Per-instance rows: sums hide which instance searches.
            let row = |what: &str| format!("solver.{what}[{}]", inst.name);
            ctx.report.set(&row("solve_ms"), "ms", ms);
            ctx.report
                .set(&row("conflicts"), "count", stats.conflicts as f64);
            ctx.report.set(
                &row("props_per_ms"),
                "1/ms",
                stats.propagations as f64 / ms.max(1e-9),
            );
        }
        add("solver.decisions", stats.decisions as f64);
        add("solver.conflicts", stats.conflicts as f64);
        add("solver.propagations", stats.propagations as f64);
        add("solver.learned", stats.learned as f64);
        add("solver.restarts", stats.restarts as f64);
        add("solver.reductions", stats.reductions as f64);
        add("solver.workers_spawned", stats.workers_spawned as f64);
        add("solver.workers_cancelled", stats.workers_cancelled as f64);
        // codegen, on the placement the compiler itself chooses
        let req = request(inst);
        if let Ok(out) = cold_compiler(inst).compile(&req) {
            let result = SynthResult {
                placement: out.placement.clone(),
                encoded: enc,
                stats,
                degraded: None,
            };
            let (ms, artifacts) = probe(each, || generate(&ir, &inst.topo, &result));
            add("codegen.generate_ms", ms);
            let artifacts = artifacts.expect("placement generated during set-up");
            add(
                "codegen.artifact_bytes",
                artifacts
                    .iter()
                    .map(|a| a.code.len() + a.control_plane.len())
                    .sum::<usize>() as f64,
            );
            let (ms, _) = probe(each, || artifacts.iter().map(validate).collect::<Vec<_>>());
            add("codegen.validate_ms", ms);
        }
        ctx.tracer.end(id);
    }
    // cache and fault: ops the measured loop recorded
    let spans = ctx.tracer.spans();
    if let Some(ms) = summed_medians_ms(&spans, "cache.warm_compile") {
        ctx.report.set("cache.warm_compile_ms", "ms", ms);
    }
    if let Some(ms) = summed_medians_ms(&spans, "fault.recompile") {
        ctx.report.set("fault.recompile_ms", "ms", ms);
    }

    let unit_of = |name: &str| {
        crate::report::PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("count", |(_, u)| *u)
    };
    let spawned = sum.get("solver.workers_spawned").copied().unwrap_or(0.0);
    let cancelled = sum.remove("solver.workers_cancelled").unwrap_or(0.0);
    for (name, v) in &sum {
        ctx.report.set(name, unit_of(name), *v);
    }
    let get = |n: &str| sum.get(n).copied().unwrap_or(0.0);
    ctx.report.set(
        "lang.parse_mb_s",
        "MB/s",
        source_bytes / get("lang.parse_us").max(1e-9),
    );
    if spawned > 0.0 {
        ctx.report
            .set("solver.cancel_share", "ratio", cancelled / spawned);
    }
    ctx.report.set(
        "solver.props_per_ms",
        "1/ms",
        get("solver.propagations") / get("solver.solve_ms").max(1e-9),
    );
}

/// `run_selfheal` on `inst`: kill its fault switch at tick 4, time the
/// remediation round (detection confirmed → committed and audited).
pub fn health(ctx: &mut Ctx, inst: &Instance) {
    let Some(victim) = inst.fail else { return };
    let compiler = cold_compiler(inst);
    let req = request(inst);
    let entries: Vec<(String, u64, u64)> = (0..16u64)
        .map(|i| ("conn_table".to_string(), i * 7, 0x0a00_0000 + i))
        .collect();
    let schedule = ChaosSchedule::new().kill(4, Target::switch(victim));
    let cfg = SelfHealConfig {
        ticks: 24,
        ..SelfHealConfig::default()
    };
    let mut rounds = Vec::new();
    let mut ticks = 0;
    for _ in 0..if ctx.check { 1 } else { 9 } {
        let id = ctx.tracer.begin("health.selfheal", &inst.name);
        let outcome = run_selfheal(&compiler, &req, &entries, &schedule, &cfg);
        ctx.tracer.end(id);
        let healed = outcome.as_ref().ok().and_then(|o| {
            o.remediations
                .iter()
                .find(|r| r.committed && r.audit_clean && o.converged)
        });
        ctx.report.check(healed.is_some(), || {
            format!(
                "{}: self-heal did not converge on a clean commit",
                inst.name
            )
        });
        if let Some(r) = healed {
            rounds.push(r.elapsed.as_secs_f64() * 1e3);
            ticks = r.mttr_ticks().unwrap_or(0);
        }
    }
    if rounds.is_empty() {
        return;
    }
    let s = summary(&rounds);
    ctx.report
        .put("health.selfheal_round_ms", "ms", s.median, Some(s), "");
    ctx.report.set("health.selfheal_round_q1_ms", "ms", s.q1);
    ctx.report.set("health.selfheal_round_q3_ms", "ms", s.q3);
    ctx.report.set("health.mttr_ticks", "count", ticks as f64);
}

/// Median duration, in milliseconds, of the spans named `name`.
fn span_median_ms(spans: &[trace::Span], name: &str) -> Option<f64> {
    let ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    (!ms.is_empty()).then(|| median(&ms))
}

/// `rollout.*` from the traced rollouts among `samples`: wall clock, its
/// stage / prepare / commit split by first message of each kind, and the
/// report's own counters.
pub fn rollout_metrics(ctx: &mut Ctx, samples: &[RolloutSample]) {
    let traced: Vec<&RolloutSample> = samples
        .iter()
        .filter(|s| s.traced && s.split.is_some())
        .collect();
    let Some(last) = traced.last() else { return };
    let med = |f: &dyn Fn(&RolloutSample) -> f64| {
        median(&traced.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let part = |i: usize| {
        med(&|s| {
            let (stage, prepare, commit) = s.split.unwrap_or_default();
            [stage, prepare, commit][i]
        })
    };
    let (wall, stage) = (med(&|s| s.wall_ms), part(0));
    ctx.report.set("rollout.wall_ms", "ms", wall);
    ctx.report.set("rollout.stage_ms", "ms", stage);
    ctx.report.set("rollout.prepare_ms", "ms", part(1));
    ctx.report.set("rollout.commit_ms", "ms", part(2));
    ctx.report
        .set("rollout.stage_share", "ratio", stage / wall.max(1e-9));
    ctx.report.set(
        "rollout.reported_ms",
        "ms",
        med(&|s| s.report.elapsed.as_secs_f64() * 1e3),
    );
    let r = &last.report;
    let moved: u64 = r
        .switches
        .iter()
        .map(|s| s.entries_added + s.entries_removed + s.entries_modified)
        .sum();
    for (name, unit, v) in [
        ("rollout.messages", "count", r.messages_sent),
        ("rollout.delta_prepares", "count", r.delta_prepares),
        ("rollout.snapshot_prepares", "count", r.snapshot_prepares),
        ("rollout.entries_moved", "count", moved),
        ("rollout.prepare_bytes", "B", r.prepare_bytes),
    ] {
        ctx.report.set(name, unit, v as f64);
    }
}

/// `runtime`, `fault`, `recovery` and the forced-snapshot rollout, on the
/// failover deployment at its full entry count.
pub fn runtime_layers(ctx: &mut Ctx, d: &Deployed) {
    // What the measured loop's traced samples already recorded.
    let spans = ctx.tracer.spans();
    for (metric, span) in [
        ("runtime.new_ms", "runtime.new"),
        ("runtime.install_many_ms", "runtime.install_many"),
        ("runtime.fail_switch_ms", "runtime.fail_switch"),
        ("fault.recompile_ms", "fault.recompile"),
    ] {
        if let Some(ms) = span_median_ms(&spans, span) {
            ctx.report.set(metric, "ms", ms);
        }
    }
    ctx.report.set(
        "runtime.install_ns",
        "ns",
        ctx.report.get("runtime.install_many_ms") * 1e6 / d.entries.len().max(1) as f64,
    );
    if let Some(fo) = &d.failover {
        let (ms, _) = probe(0.05, || {
            PlacementDiff::between(&d.healthy.placement, &fo.output.placement)
        });
        ctx.report.set("fault.diff_us", "us", ms * 1e3);
        ctx.report
            .set("fault.entry_churn", "count", fo.diff.entry_churn() as f64);
        ctx.report
            .set("fault.total_churn", "count", fo.diff.total_churn() as f64);
    }

    ctx.tracer.set_enabled(true);
    let id = ctx.tracer.begin("layers.runtime", &d.inst.name);
    // One healthy runtime serves the read-only probes, then the
    // forced-snapshot failover.
    let mut slot = None;
    let mut rt = d.seeded(ctx, &d.entries);
    let (ms, held) = probe(0.0, || rt.logical_entries().len());
    ctx.report.set("runtime.logical_entries_ms", "ms", ms);
    ctx.report.check(held == d.entries.len(), || {
        format!("{held} logical entries, {} installed", d.entries.len())
    });
    let (ms, audit) = probe(0.0, || rt.audit_switches());
    ctx.report.set("recovery.audit_clean_ms", "ms", ms);
    ctx.report.check(audit.clean(), || {
        format!(
            "audit of an untouched fleet found {} drifts",
            audit.findings.len()
        )
    });
    let (_, snapshot) = fail_over(ctx, d, &mut rt, &mut slot, true);
    ctx.report
        .set("rollout.snapshot_ms", "ms", snapshot.wall_ms);
    ctx.report.set(
        "rollout.snapshot_bytes",
        "B",
        snapshot.report.prepare_bytes as f64,
    );
    drop(rt);

    // Controller crash right after the commit decision is journaled, then
    // recovery from the intent log.
    if let Some(fo) = &d.failover {
        let mut rt = d.seeded(ctx, &d.entries);
        let failed = rt.fail_switch(d.victim());
        let config = RolloutConfig::default().with_scope_health(fo.scope_health.clone());
        let mut store = MemIntentStore::new();
        let crashed = rt.apply_rollout_logged(
            &fo.output,
            &mut ReliableChannel::new(),
            &config
                .clone()
                .with_crash(CrashPlan::at(CrashPoint::AfterCommitDecision)),
            &mut store,
        );
        let t = Instant::now();
        let recovered = rt.recover(&fo.output, &mut store, &mut ReliableChannel::new(), &config);
        ctx.report
            .set("recovery.recover_us", "us", ms_since(t) * 1e3);
        ctx.report
            .set("recovery.journal_records", "count", store.len() as f64);
        ctx.report.check(
            failed.is_ok()
                && crashed.is_err()
                && recovered.as_ref().is_ok_and(|r| r.committed)
                && rt.epochs_coherent(),
            || "recovery did not drive the journaled commit home".to_string(),
        );
    }
    ctx.tracer.end(id);
    ctx.tracer.set_enabled(false);
}

/// `dataplane.*` and the bytecode micro-probes, on `rt` as seeded.
pub fn dataplane_layers(
    ctx: &mut Ctx,
    d: &Deployed,
    rt: &Runtime<'_>,
    replays: &[Replayed],
    prefix: u64,
) {
    let (ms, dep) = probe(0.2, || CompiledDeployment::new(&d.healthy));
    ctx.report.set("dataplane.deploy_ms", "ms", ms);
    ctx.report
        .set("dataplane.ops", "count", dep.op_count() as f64);
    let (ms, _) = probe(0.5, || LiveTrafficPlane::for_replay(rt, &dep));
    ctx.report.set("dataplane.plane_build_ms", "ms", ms);
    let hops: usize = dep.paths().iter().map(Vec::len).sum();
    ctx.report.set(
        "dataplane.hops_per_pkt",
        "count",
        hops as f64 / dep.paths().len().max(1) as f64,
    );

    let config = |workers: usize| {
        ReplayConfig::default()
            .with_packets(prefix)
            .with_workers(workers)
            .with_seed(ctx.seed)
    };
    let mpps_of = |parallel: bool| -> Option<f64> {
        let v: Vec<f64> = replays
            .iter()
            .filter(|r| r.parallel == parallel)
            .map(|r| r.report.delivered as f64 / r.report.elapsed.as_secs_f64().max(1e-9) / 1e6)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    // A workload with no single-worker replays of its own gets one here.
    let single = mpps_of(false).unwrap_or_else(|| replay_compiled(rt, &config(1)).pps / 1e6);
    ctx.report
        .set("dataplane.ns_per_pkt", "ns", 1e3 / single.max(1e-9));
    if let Some(par) = mpps_of(true) {
        ctx.report.set(
            "dataplane.par_efficiency",
            "ratio",
            par / (ctx.workers as f64 * single),
        );
    }
    let interp = replay_interpreted(rt, &config(1));
    ctx.report
        .set("dataplane.interp_mpps", "Mpps", interp.pps / 1e6);
    let sum = |f: fn(&ReplayReport) -> u64| replays.iter().map(|r| f(&r.report)).sum::<u64>();
    let (packets, delivered) = (sum(|r| r.packets), sum(|r| r.delivered));
    ctx.report.set(
        "dataplane.effects_per_pkt",
        "ratio",
        sum(|r| r.effects) as f64 / delivered.max(1) as f64,
    );
    ctx.report.set(
        "dataplane.refused_share",
        "ratio",
        sum(|r| r.refused_epoch_mismatch) as f64 / packets.max(1) as f64,
    );
    ctx.report.set(
        "dataplane.mixed_epoch",
        "count",
        sum(|r| r.mixed_epoch_exposure) as f64,
    );

    // Bytecode alone: `Machine::run` of the busiest switch's streams on a
    // static snapshot — no paths, no epochs, no plane cache.
    let layout = ProgramLayout::new(&d.healthy.ir);
    let streams = d
        .healthy
        .placement
        .switches
        .values()
        .map(|plan| {
            plan.instrs
                .iter()
                .filter_map(|(alg, ids)| {
                    let mut ids = ids.clone();
                    ids.sort();
                    let alg = d.healthy.ir.algorithm(alg)?;
                    Some(CompiledAlgorithm::compile(alg, &ids, &layout))
                })
                .collect::<Vec<_>>()
        })
        .max_by_key(|algs| algs.iter().map(CompiledAlgorithm::len).sum::<usize>())
        .unwrap_or_default();
    let mut dp = DataPlaneState::new();
    for &(k, v) in &d.entries {
        dp.install(d.table, k, v);
    }
    let (ms, snap) = probe(0.3, || TableSnapshot::build(&layout, &dp));
    ctx.report.set("ir.snapshot_build_ms", "ms", ms);
    let live_in: Vec<u32> = {
        let mut v: Vec<u32> = streams.iter().flat_map(|a| a.live_in().to_vec()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut machine = Machine::new(&layout);
    let mut overlay = GlobalOverlay::new();
    let mut rng = crate::inputs::Rng::new(ctx.seed);
    const RUNS: u64 = 200_000;
    let mut run_all = |with_digest: bool| -> f64 {
        let mut sink = 0u64;
        let t = Instant::now();
        for _ in 0..RUNS {
            machine.reset();
            let base = rng.next();
            for (j, &slot) in live_in.iter().enumerate() {
                // Small values half the time, so lookups hit as in replay.
                let r = base.rotate_left(j as u32 * 7);
                machine.set_slot(slot, if r & 1 == 0 { r >> 56 } else { r >> 2 });
            }
            overlay.clear();
            let mut globals = GlobalAccess::Isolated {
                baseline: &snap.globals,
                overlay: &mut overlay,
            };
            for alg in &streams {
                machine.run(alg, &snap, &mut globals);
            }
            sink ^= if with_digest {
                machine.digest()
            } else {
                machine.effect_count() as u64
            };
        }
        std::hint::black_box(sink);
        t.elapsed().as_nanos() as f64 / RUNS as f64
    };
    let run_ns = run_all(false);
    ctx.report.set("ir.machine_run_ns", "ns", run_ns);
    ctx.report
        .set("ir.digest_ns", "ns", (run_all(true) - run_ns).max(0.0));
}

/// `ir.table_*`: the paged copy-on-write `ExternTable` on its own, at the
/// workload's entry count.
pub fn table_layers(ctx: &mut Ctx, entries: &[(u64, u64)]) {
    let n = entries.len().max(1);
    let t = Instant::now();
    let mut table = ExternTable::new();
    for &(k, v) in entries {
        table.insert(k, v);
    }
    ctx.report.set(
        "ir.table_insert_ns",
        "ns",
        t.elapsed().as_nanos() as f64 / n as f64,
    );
    let (ms, sorted) = probe(0.3, || ExternTable::from_sorted(entries.to_vec()));
    ctx.report.set("ir.table_from_sorted_ms", "ms", ms);

    // Hits: present keys in random order. Misses: absent keys drawn from
    // the same range, so both walk the same pages.
    let mut rng = crate::inputs::Rng::new(ctx.seed);
    let max_key = entries.last().map_or(1, |e| e.0);
    let lookups = 200_000.min(n);
    let hits: Vec<u64> = (0..lookups)
        .map(|_| entries[(rng.next() % n as u64) as usize].0)
        .collect();
    let mut misses = Vec::with_capacity(lookups);
    while misses.len() < lookups {
        let k = rng.next() % (max_key + 1);
        if !table.contains_key(k) {
            misses.push(k);
        }
    }
    for (metric, keys) in [
        ("ir.table_get_hit_ns", &hits),
        ("ir.table_get_miss_ns", &misses),
    ] {
        let t = Instant::now();
        let found = keys.iter().filter(|k| table.get(**k).is_some()).count();
        let ns = t.elapsed().as_nanos() as f64 / keys.len() as f64;
        std::hint::black_box(found);
        ctx.report.set(metric, "ns", ns);
    }

    // One change on a copy-on-write clone: every untouched page is shared
    // and skipped. The same table rebuilt from scratch shares none, which
    // is what staging a rollout entry by entry produces.
    let count_delta = |a: &ExternTable, b: &ExternTable| {
        let mut changed = 0u64;
        a.for_each_delta(b, |_, _, _| changed += 1);
        changed
    };
    let mut cow = table.clone();
    cow.insert(max_key + 1, 1);
    let (ms, changed) = probe(0.1, || count_delta(&table, &cow));
    ctx.report.set("ir.table_delta_us", "us", ms * 1e3);
    let (ms, same) = probe(0.3, || count_delta(&table, &sorted));
    ctx.report.set("ir.table_delta_rebuilt_ms", "ms", ms);
    ctx.report.check(changed == 1 && same == 0, || {
        format!("table deltas: {changed} after one insert, {same} against an equal table")
    });
}
