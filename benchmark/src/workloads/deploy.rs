//! `failover_1m`, `replay_netcache`, `replay_lb_1m`, `replay_rollout`:
//! workloads over a running deployment — a compiled placement, a seeded
//! `Runtime`, and either a failover rolled out onto it or traffic
//! replayed through it (or both at once).

use std::time::Instant;

use super::compile::{cold_compiler, compile_checked, request};
use super::{ms_since, Ctx};
use crate::api::{
    replay_compiled, replay_interpreted, replay_under_rollout, CompileOutput, FaultRecompile,
    FaultSet, ReplayConfig, ReplayReport, RolloutConfig, RolloutReport, Runtime, SpanChannel,
};
use crate::expected::{Expected, GoldenRecord, InstanceRecord};
use crate::inputs::{self, Instance, GOLDEN_ENTRIES, GOLDEN_PACKETS, GOLDEN_SEED};
use crate::layers;
use crate::stats::{fastest, summary};

/// A deployment after set-up. Owns everything; runtimes borrow from it.
pub struct Deployed {
    pub inst: Instance,
    /// The extern table the workload fills.
    pub table: &'static str,
    pub entries: Vec<(u64, u64)>,
    pub healthy: CompileOutput,
    /// The recompile after `inst.fail`, for workloads that roll one out.
    pub failover: Option<FaultRecompile>,
    record: InstanceRecord,
}

impl Deployed {
    pub fn victim(&self) -> &'static str {
        self.inst.fail.unwrap_or_default()
    }

    /// A fresh runtime holding `entries`.
    pub fn seeded<'a>(&'a self, ctx: &Ctx, entries: &[(u64, u64)]) -> Runtime<'a> {
        let mut rt = ctx
            .tracer
            .span("runtime.new", "", || Runtime::new(&self.healthy));
        let placed = ctx.tracer.span("runtime.install_many", "", || {
            rt.install_many(self.table, entries)
        });
        assert!(
            placed.is_ok_and(|n| n >= entries.len() as u64),
            "{}: the table admits every generated entry",
            self.inst.name
        );
        rt
    }
}

fn replay_config(packets: u64, workers: usize, seed: u64) -> ReplayConfig {
    ReplayConfig::default()
        .with_packets(packets)
        .with_workers(workers)
        .with_seed(seed)
}

/// A replay is sound when every packet ran, under one epoch, on workers
/// that all survived.
fn replay_problem(r: &ReplayReport, packets: u64) -> Option<String> {
    (r.delivered + r.refused_epoch_mismatch != packets
        || r.mixed_epoch_exposure != 0
        || r.worker_panics != 0)
        .then(|| {
            format!(
                "replay: {} delivered + {} refused of {packets}, {} mixed-epoch, {} panics",
                r.delivered, r.refused_epoch_mismatch, r.mixed_epoch_exposure, r.worker_panics
            )
        })
}

fn mpps(r: &ReplayReport) -> f64 {
    r.delivered as f64 / r.elapsed.as_secs_f64().max(1e-9) / 1e6
}

/// Compile the deployment (and its failover, where the workload rolls
/// one out), check both against the expected file and the validators,
/// and replay the golden traffic.
fn deploy(
    ctx: &mut Ctx,
    mut inst: Instance,
    table: &'static str,
    n: usize,
    generate: fn(usize, u64) -> Vec<(u64, u64)>,
) -> Deployed {
    let expected = Expected::load(ctx.workload);
    if !matches!(ctx.workload, "failover_1m" | "replay_rollout") {
        inst.fail = None;
    }
    let c = compile_checked(ctx, &inst, expected.instance(&inst.name), false);
    let healthy = c
        .result
        .unwrap_or_else(|e| panic!("{}: does not compile: {e}", inst.name));
    let (failover, record) = (c.failover, c.record);
    let d = Deployed {
        entries: generate(n, ctx.seed),
        inst,
        table,
        healthy,
        failover,
        record,
    };

    let mut golden = None;
    if ctx.workload.starts_with("replay") {
        let rt = d.seeded(ctx, &generate(GOLDEN_ENTRIES.min(n), GOLDEN_SEED));
        let r = replay_compiled(&rt, &replay_config(GOLDEN_PACKETS, 1, GOLDEN_SEED));
        ctx.report.op(replay_problem(&r, GOLDEN_PACKETS));
        golden = Some(GoldenRecord {
            effects: r.effects,
            delivered: r.delivered,
            digest: format!("{:016x}", r.digest),
        });
    }
    if ctx.bless {
        let blessed = Expected {
            instances: vec![d.record.clone()],
            golden,
        };
        blessed.write(ctx.workload).expect("write expected file");
    } else {
        ctx.report.check(golden == expected.golden, || {
            format!(
                "golden replay: expected {:?}, observed {golden:?}",
                expected.golden
            )
        });
    }
    ctx.report.set(
        "tables_total",
        "count",
        (d.record.tables_total + d.record.recompile_tables) as f64,
    );
    d
}

/// One `apply_rollout`, timed from outside.
pub struct RolloutSample {
    pub traced: bool,
    /// Wall clock around the call (not `RolloutReport.elapsed`, which
    /// starts after staging).
    pub wall_ms: f64,
    /// Call → first prepare, first prepare → first commit, first commit →
    /// return, by the channel wrapper's message times.
    pub split: Option<(f64, f64, f64)>,
    pub report: RolloutReport,
}

/// Roll `output` out onto `rt` over a reliable channel (inside the
/// `SpanChannel` wrapper) and check that it commits.
fn timed_rollout<'a>(
    ctx: &mut Ctx,
    rt: &mut Runtime<'a>,
    output: &'a CompileOutput,
    config: &RolloutConfig,
) -> RolloutSample {
    let traced = ctx.tracer.enabled();
    let mut channel = SpanChannel::new(ctx.tracer.clone());
    let span = ctx.tracer.begin("rollout.apply", "");
    let t1 = Instant::now();
    let report = rt.apply_rollout(output, &mut channel, config);
    let t2 = Instant::now();
    ctx.tracer.end(span);
    let report = report.unwrap_or_else(|e| panic!("rollout could not start: {}", e.message));
    ctx.report
        .check(report.committed && rt.epochs_coherent(), || {
            "rollout did not commit coherently".to_string()
        });
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    RolloutSample {
        traced,
        wall_ms: ms(t1, t2),
        split: channel
            .first_prepare
            .zip(channel.first_commit)
            .map(|(p, c)| (ms(t1, p), ms(p, c), ms(c, t2))),
        report,
    }
}

/// One failover on `rt`: the fault becomes known, the controller fails
/// the switch, recompiles around it with a cold compiler and rolls the
/// new placement out. Returns the whole time and the rollout's share.
pub fn fail_over<'a>(
    ctx: &mut Ctx,
    d: &'a Deployed,
    rt: &mut Runtime<'a>,
    slot: &'a mut Option<FaultRecompile>,
    force_snapshot: bool,
) -> (f64, RolloutSample) {
    let compiler = cold_compiler(&d.inst);
    let req = request(&d.inst);
    let faults = FaultSet::new().with_switch(d.victim());
    ctx.tracer.next_op();
    let root = ctx.tracer.begin("failover", &d.inst.name);
    let t0 = Instant::now();
    let resynced = ctx
        .tracer
        .span("runtime.fail_switch", "", || rt.fail_switch(d.victim()));
    ctx.report.check(resynced.is_ok(), || {
        format!("fail_switch: {:?}", resynced.err().map(|e| e.message))
    });
    let recompiled = ctx.tracer.span("fault.recompile", "", || {
        compiler.recompile_for_faults(&req, &d.healthy, &faults)
    });
    let r: &'a FaultRecompile =
        slot.insert(recompiled.unwrap_or_else(|e| panic!("failover recompile: {e}")));
    let config = RolloutConfig::default()
        .with_scope_health(r.scope_health.clone())
        .with_force_snapshot(force_snapshot);
    let rollout = timed_rollout(ctx, rt, &r.output, &config);
    let failover_ms = ms_since(t0);
    ctx.tracer.end(root);
    (failover_ms, rollout)
}

pub fn failover(ctx: &mut Ctx) {
    let n = ctx.sizes.entries_1m;
    let d = ctx.timed_setup(|ctx| {
        let d = deploy(
            ctx,
            inputs::fig1_lb(1 << 21),
            "conn_table",
            n,
            inputs::entries,
        );
        // What every sample repeats before its failover.
        drop(d.seeded(ctx, &d.entries));
        d
    });

    let mut samples: Vec<(f64, RolloutSample)> = Vec::new();
    let start = Instant::now();
    while ctx.keep_sampling(start, ctx.loop_share(), samples.len()) {
        ctx.tracer
            .set_enabled(ctx.trace && samples.len().is_multiple_of(2));
        let mut slot = None;
        let mut rt = d.seeded(ctx, &d.entries);
        let sample = fail_over(ctx, &d, &mut rt, &mut slot, false);
        if samples.is_empty() {
            // The one place the full logical view is checked. This first
            // failover is also the warm-up: the fastest sample is never it.
            let held = rt.logical_entries().len();
            ctx.report.check(held == n, || {
                format!("{held} logical entries after failover, {n} installed")
            });
        }
        samples.push(sample);
    }
    ctx.tracer.set_enabled(false);

    let failover_ms = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|(_, r)| r.traced == traced)
            .map(|(ms, _)| *ms)
            .collect()
    };
    if !ctx.trace {
        let rollout_ms: Vec<f64> = samples.iter().map(|(_, r)| r.wall_ms).collect();
        ctx.report
            .set_fastest("primary_ms", "ms", &failover_ms(false));
        ctx.report.set_fastest("secondary_ms", "ms", &rollout_ms);
        ctx.report
            .set_median("failover_ms", "ms", &failover_ms(false));
        ctx.report.set_median("rollout_ms", "ms", &rollout_ms);
        let bytes: Vec<f64> = samples
            .iter()
            .map(|(_, r)| r.report.prepare_bytes as f64)
            .collect();
        ctx.report.set_median("prepare_bytes", "B", &bytes);
        return;
    }
    layers::trace_overhead(
        ctx,
        fastest(&failover_ms(false)),
        fastest(&failover_ms(true)),
        "failover",
    );
    let rollouts: Vec<RolloutSample> = samples.into_iter().map(|(_, r)| r).collect();
    layers::rollout_metrics(ctx, &rollouts);
    layers::runtime_layers(ctx, &d);
    layers::table_layers(ctx, &d.entries);
    layers::compile_layers(ctx, std::slice::from_ref(&d.inst), 0.5);
}

/// Of the steady replays, one in this many runs on W workers. Two threads
/// on a shared two-core host time the host's scheduler as much as the
/// engine, so the parallel figure is printed and feeds
/// `dataplane.par_efficiency` but carries no bound.
const PARALLEL_EVERY: usize = 4;

/// One steady replay.
pub struct Replayed {
    traced: bool,
    /// Ran on W workers, not on one.
    pub parallel: bool,
    pub report: ReplayReport,
}

pub fn replay(ctx: &mut Ctx) {
    let lb = ctx.workload == "replay_lb_1m";
    let (n, packets, prefix) = (
        if lb {
            ctx.sizes.entries_1m
        } else {
            inputs::NETCACHE_ENTRIES
        },
        ctx.sizes.packets,
        ctx.sizes.interp_packets,
    );
    let workers = ctx.workers;
    let d = ctx.timed_setup(|ctx| {
        let d = if lb {
            deploy(
                ctx,
                inputs::fig1_lb(1 << 21),
                "conn_table",
                n,
                inputs::entries,
            )
        } else {
            let entries = inputs::netcache_entries;
            deploy(ctx, inputs::netcache_pod8(), "cache_lookup", n, entries)
        };
        let rt = d.seeded(ctx, &d.entries);
        let one = replay_compiled(&rt, &replay_config(prefix, 1, ctx.seed));
        let many = replay_compiled(&rt, &replay_config(prefix, workers, ctx.seed));
        ctx.report.op(replay_problem(&one, prefix));
        ctx.report.check(
            (one.digest, one.effects) == (many.digest, many.effects),
            || format!("{workers}-worker digest or effects differ from 1-worker"),
        );
        if lb {
            // LB keeps no state outside its tables, so the persistent
            // reference interpreter must fire exactly the same effects.
            // (NetCache's counters persist in the interpreter and are
            // per-packet in the compiled engine; its reference is the
            // golden replay in the expected file.)
            let interp = replay_interpreted(&rt, &replay_config(prefix, 1, ctx.seed));
            ctx.report.check(interp.effects == one.effects, || {
                format!(
                    "compiled engine fired {} effects, interpreter {}",
                    one.effects, interp.effects
                )
            });
        }
        drop(rt);
        d
    });

    // Replays on one runtime: a replay reads the tables and never writes
    // them. Every `PARALLEL_EVERY`-th replay runs on W workers, the rest
    // on one; in a traced run every other group records spans. The
    // one-worker replays are short so that a run holds a hundred of them:
    // the host's contention comes in bursts, and only a short op finds the
    // quiet between them.
    let rt = d.seeded(ctx, &d.entries);
    let mut replays: Vec<Replayed> = Vec::new();
    // Inside `replay_compiled` before the packet loop: compiling the
    // deployment's bytecode and building the traffic plane.
    let mut bring_up_ms: Vec<f64> = Vec::new();
    let start = Instant::now();
    while ctx.keep_sampling(start, ctx.loop_share(), replays.len() / PARALLEL_EVERY) {
        let parallel = replays.len() % PARALLEL_EVERY == PARALLEL_EVERY - 1;
        let (w, packets) = if parallel {
            (workers, ctx.sizes.long_packets)
        } else {
            (1, packets)
        };
        ctx.tracer
            .set_enabled(ctx.trace && (replays.len() / PARALLEL_EVERY).is_multiple_of(2));
        ctx.tracer.next_op();
        let root = ctx.tracer.begin("replay", &d.inst.name);
        let t0 = Instant::now();
        let report = replay_compiled(&rt, &replay_config(packets, w, ctx.seed));
        let t1 = Instant::now();
        // `elapsed` is the engine's own clock over the packet loop; what
        // precedes it inside the call is deployment and plane build.
        let run_start = t1.checked_sub(report.elapsed).map_or(t0, |t| t.max(t0));
        ctx.tracer.leaf("dataplane.build", t0, run_start);
        ctx.tracer.leaf("dataplane.run", run_start, t1);
        ctx.tracer.end(root);
        ctx.report.op(replay_problem(&report, packets));
        let first = replays
            .iter()
            .find(|r| r.parallel == parallel)
            .map(|f| (f.report.digest, f.report.effects));
        ctx.report.check(
            first.is_none_or(|f| f == (report.digest, report.effects)),
            || "digest or effects changed between replays".to_string(),
        );
        bring_up_ms.push((run_start - t0).as_secs_f64() * 1e3);
        replays.push(Replayed {
            traced: ctx.tracer.enabled(),
            parallel,
            report,
        });
    }
    ctx.tracer.set_enabled(false);

    let pick = |parallel: bool, traced: bool, f: fn(&ReplayReport) -> f64| -> Vec<f64> {
        replays
            .iter()
            .filter(|r| r.parallel == parallel && r.traced == traced)
            .map(|r| f(&r.report))
            .collect()
    };
    let elapsed_ms = |r: &ReplayReport| r.elapsed.as_secs_f64() * 1e3;
    if !ctx.trace {
        ctx.report
            .set_fastest("primary_ms", "ms", &pick(false, false, elapsed_ms));
        ctx.report.set_fastest("secondary_ms", "ms", &bring_up_ms);
        ctx.report
            .set_median("replay_mpps", "Mpps", &pick(false, false, mpps));
        let s = summary(&pick(true, false, mpps));
        ctx.report.put(
            "replay_par_mpps",
            "Mpps",
            s.median,
            Some(s),
            &format!("W={workers}"),
        );
        return;
    }
    layers::trace_overhead(
        ctx,
        fastest(&pick(false, false, elapsed_ms)),
        fastest(&pick(false, true, elapsed_ms)),
        "replay",
    );
    layers::dataplane_layers(ctx, &d, &rt, &replays, prefix);
    if lb {
        layers::table_layers(ctx, &d.entries);
    }
    layers::compile_layers(ctx, std::slice::from_ref(&d.inst), 0.5);
}

/// What one replay under a rollout observed.
struct UnderRollout {
    traced: bool,
    wall_ms: f64,
    report: ReplayReport,
}

/// Fail the victim on `rt`, then commit the failover placement while
/// `ctx.workers` threads replay `packets` packets through the same tables.
fn under_rollout<'a>(
    ctx: &mut Ctx,
    d: &'a Deployed,
    rt: &mut Runtime<'a>,
    packets: u64,
) -> UnderRollout {
    let fo = d.failover.as_ref().expect("set-up recompiled the failover");
    let resynced = rt.fail_switch(d.victim());
    ctx.report
        .check(resynced.is_ok(), || "fail_switch failed".to_string());
    let traced = ctx.tracer.enabled();
    let mut channel = SpanChannel::new(ctx.tracer.clone());
    let config = RolloutConfig::default().with_scope_health(fo.scope_health.clone());
    ctx.tracer.next_op();
    let root = ctx.tracer.begin("replay_under_rollout", &d.inst.name);
    let t0 = Instant::now();
    let outcome = replay_under_rollout(
        rt,
        &fo.output,
        &mut channel,
        &config,
        &replay_config(packets, ctx.workers, ctx.seed),
    );
    let t1 = Instant::now();
    // From outside, the call splits at the first and last control message:
    // plane build, warm-up traffic and staging come before, the protocol
    // between, and the drain of the remaining traffic after.
    if let Some((first, last)) = channel.first_prepare.zip(channel.last_end) {
        ctx.tracer.leaf("replay.until_prepare", t0, first);
        ctx.tracer.leaf("rollout.protocol", first, last);
        ctx.tracer.leaf("replay.drain", last, t1);
    }
    ctx.tracer.end(root);
    let wall_ms = (t1 - t0).as_secs_f64() * 1e3;
    let outcome = outcome.unwrap_or_else(|e| panic!("rollout could not start: {}", e.message));
    ctx.report.op(replay_problem(&outcome.replay, packets));
    ctx.report
        .check(outcome.rollout.committed && rt.epochs_coherent(), || {
            "rollout under traffic did not commit coherently".to_string()
        });
    UnderRollout {
        traced,
        wall_ms,
        report: outcome.replay,
    }
}

pub fn replay_rollout(ctx: &mut Ctx) {
    // The controller is one more running thread beside the traffic, so the
    // traffic gets one worker fewer: never more threads than cores.
    ctx.workers = (ctx.workers - 1).max(1);
    let (n, packets, prefix) = (
        ctx.sizes.entries_100k,
        ctx.sizes.long_packets,
        ctx.sizes.interp_packets,
    );
    let d = ctx.timed_setup(|ctx| {
        let d = deploy(
            ctx,
            inputs::fig1_lb(1 << 18),
            "conn_table",
            n,
            inputs::entries,
        );
        let mut rt = d.seeded(ctx, &d.entries);
        under_rollout(ctx, &d, &mut rt, prefix);
        drop(rt);
        d
    });
    let fo = d.failover.as_ref().expect("set-up recompiled the failover");
    let config = RolloutConfig::default().with_scope_health(fo.scope_health.clone());

    let mut under: Vec<UnderRollout> = Vec::new();
    let mut quiet: Vec<RolloutSample> = Vec::new();
    let start = Instant::now();
    while ctx.keep_sampling(start, ctx.loop_share(), under.len()) {
        ctx.tracer
            .set_enabled(ctx.trace && under.len().is_multiple_of(2));
        let mut rt = d.seeded(ctx, &d.entries);
        under.push(under_rollout(ctx, &d, &mut rt, packets));
        drop(rt);
        // The same rollout with no traffic: the write path on its own.
        let mut rt = d.seeded(ctx, &d.entries);
        let resynced = rt.fail_switch(d.victim());
        ctx.report
            .check(resynced.is_ok(), || "fail_switch failed".to_string());
        ctx.tracer.next_op();
        quiet.push(timed_rollout(ctx, &mut rt, &fo.output, &config));
    }
    ctx.tracer.set_enabled(false);

    let walls = |traced: bool| -> Vec<f64> {
        under
            .iter()
            .filter(|u| u.traced == traced)
            .map(|u| u.wall_ms)
            .collect()
    };
    if !ctx.trace {
        ctx.report.set_fastest("primary_ms", "ms", &walls(false));
        let rollout_ms: Vec<f64> = quiet.iter().map(|q| q.wall_ms).collect();
        ctx.report.set_fastest("secondary_ms", "ms", &rollout_ms);
        ctx.report.set_median("rollout_ms", "ms", &rollout_ms);
        let s = summary(&under.iter().map(|u| mpps(&u.report)).collect::<Vec<_>>());
        let note = format!("W={}, failover committed under the traffic", ctx.workers);
        ctx.report
            .put("replay_par_mpps", "Mpps", s.median, Some(s), &note);
        let bytes = quiet[0].report.prepare_bytes;
        ctx.report.set("prepare_bytes", "B", bytes as f64);
        return;
    }
    layers::trace_overhead(
        ctx,
        fastest(&walls(false)),
        fastest(&walls(true)),
        "replay_under_rollout",
    );
    layers::rollout_metrics(ctx, &quiet);
    let rt = d.seeded(ctx, &d.entries);
    let replays: Vec<Replayed> = under
        .into_iter()
        .map(|u| Replayed {
            traced: u.traced,
            parallel: ctx.workers > 1,
            report: u.report,
        })
        .collect();
    layers::dataplane_layers(ctx, &d, &rt, &replays, prefix);
    layers::table_layers(ctx, &d.entries);
    layers::compile_layers(ctx, std::slice::from_ref(&d.inst), 0.5);
}
