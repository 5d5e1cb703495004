//! `record_bench` — record solver-performance benchmark snapshots.
//!
//! Measures the Figure 10 scalability cases and the Figure 9 corpus under
//! the current solver (one deterministic search + quotient route + synthesis
//! cache) and writes machine-readable snapshots:
//!
//! * `BENCH_fig10.json` — per-case median wall time / `encode` time /
//!   conflicts / decisions at k ∈ {4, 8, 16, 32} (NetCache MULTI-SW also
//!   at k = 48, under a 10 s deadline that skips the row rather than hang
//!   the snapshot), a monolithic-vs-default-vs-cached comparison on the
//!   hardest case (LB MULTI-SW at k = 16), a
//!   `rollout` section (p50 transactional prepare+commit latency applying
//!   a failover placement to the running k = 16 LB deployment) and a
//!   `failover.recompile` section (`recompile_for_faults` after Agg1 dies
//!   at k = 16 against compiling the survivor network from scratch, with
//!   the solve route taken) and a `solver.propagation` section (the three
//!   `MinSwitches` placements of the benchmark's `compile_tight` workload:
//!   solve time, propagations and linear-constraint visits, now and before
//!   event-driven propagation);
//! * `BENCH_fig9.json` — per-program median compile time, conflicts, and
//!   synthesis-cache hit rate on a single-switch target.
//!
//! * `BENCH_pps.json` — data-plane throughput: seeded traffic replayed
//!   through the NetCache k = 8 MULTI-SW deployment on the reference
//!   interpreter versus the compiled batched engine (single worker and all
//!   cores), plus two lossy-channel rollout-under-traffic scenarios with
//!   their packet-loss and mixed-epoch-exposure counts.
//!
//! `--smoke` re-measures the k = 4 cases and the rollout p50 once each and
//! fails (exit 1) if any is more than 3× slower than the committed
//! `BENCH_fig10.json` baseline — CI's cheap performance-regression
//! tripwire. Two datacenter-scale tripwires ride along: NetCache MULTI-SW
//! must stay within 2× of its snapshot at k = 16 and under one second
//! absolute at k = 32, and its `encode` at k = 16 within 3× of the
//! committed `encode_ms`. A `Feasible` failover recompile must take the
//! carried-over route and must not be slower than compiling the survivor
//! network from scratch. Propagation is bounded by count, not by the clock:
//! each `MinSwitches` placement within 50 000 linear visits (LB 5.5 M k = 4
//! made 60 M), NetCache k = 8 within two per propagation. The data-plane
//! tripwire also runs: the compiled engine must beat the interpreter by a
//! fixed floor and a lossy rollout under traffic must show zero mixed-epoch
//! exposure. `--pps-smoke` runs only that data-plane tripwire.

use std::time::{Duration, Instant};

use lyra::{
    replay_compiled, replay_interpreted, replay_under_rollout, run_selfheal, ChaosSchedule,
    CompileRequest, Compiler, CrashPlan, CrashPoint, DriftOp, HealthConfig, LossyChannel,
    MemIntentStore, Objective, ReliableChannel, ReplayConfig, ReplayReport, RolloutConfig, Runtime,
    SelfHealConfig, SolveProfile, SynthCache, Target,
};
use lyra_apps::{figure9_corpus, programs};
use lyra_diag::json::{parse, Object, Value};
use lyra_topo::{fat_tree_pod, figure1_network, FaultSet, Layer, Topology};

/// Timed samples per measurement (median reported).
const SAMPLES: usize = 5;
/// Pod sizes recorded in the fig10 snapshot.
const KS: [usize; 4] = [4, 8, 16, 32];
/// Smoke mode: allowed slowdown over the committed baseline.
const SMOKE_FACTOR: f64 = 3.0;
/// Smoke mode: absolute grace added to the bound, so sub-millisecond
/// baselines don't trip on scheduler noise.
const SMOKE_GRACE_MS: f64 = 500.0;
/// Smoke mode: tighter slowdown bound for the datacenter-scale MULTI-SW
/// tripwire — the quotient solve must stay within 2x of its snapshot.
const SMOKE_SCALE_FACTOR: f64 = 2.0;
/// Smoke mode: grace for the datacenter-scale tripwire (the quotient
/// k = 16 row is tens of milliseconds, so noise needs less headroom).
const SMOKE_SCALE_GRACE_MS: f64 = 100.0;
/// Smoke mode: hard wall-time budget for NetCache MULTI-SW at k = 32.
const SMOKE_K32_BUDGET_MS: f64 = 1000.0;
/// Smoke mode: linear-constraint visits any `MinSwitches` tripwire compile
/// may make.
const SMOKE_LINEAR_VISITS: u64 = 50_000;
/// Smoke mode: visits per propagation NetCache k = 8 `MinSwitches` may make.
const SMOKE_VISITS_PER_PROPAGATION: f64 = 2.0;

struct Case {
    name: &'static str,
    program: String,
    multi: bool,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "LB(MULTI-SW)",
            program: programs::load_balancer(1_000_000),
            multi: true,
        },
        Case {
            name: "NetCache(PER-SW)",
            program: programs::netcache(),
            multi: false,
        },
        Case {
            name: "NetCache(MULTI-SW)",
            program: programs::netcache(),
            multi: true,
        },
    ]
}

fn alg_of(program: &str) -> &'static str {
    if program.contains("algorithm loadbalancer") {
        "loadbalancer"
    } else {
        "netcache"
    }
}

fn scopes_for(k: usize, program: &str, multi: bool) -> String {
    let alg = alg_of(program);
    if multi {
        let aggs: Vec<String> = (1..=k / 2).map(|i| format!("Agg{i}")).collect();
        let tors: Vec<String> = (1..=k / 2).map(|i| format!("ToR{i}")).collect();
        format!(
            "{alg}: [ ToR*,Agg* | MULTI-SW | ({}->{}) ]",
            aggs.join(","),
            tors.join(",")
        )
    } else {
        format!("{alg}: [ ToR*,Agg* | PER-SW | - ]")
    }
}

fn pod(k: usize) -> Topology {
    fat_tree_pod(k, "tofino-32q", "trident4")
}

struct Measured {
    median: Duration,
    conflicts: u64,
    decisions: u64,
    /// Some sample came off the degradation ladder (a deadline expired).
    degraded: bool,
}

/// Compile `samples` times under `compiler`/`profile`; return the median
/// wall time and the last run's solver counters.
fn measure(
    compiler: &Compiler,
    program: &str,
    scopes: &str,
    topo: &Topology,
    profile: SolveProfile,
    samples: usize,
) -> Measured {
    let mut times = Vec::with_capacity(samples);
    let mut conflicts = 0;
    let mut decisions = 0;
    let mut degraded = false;
    for _ in 0..samples {
        let req =
            CompileRequest::new(program, scopes, topo.clone()).with_solve_profile(profile.clone());
        let t = Instant::now();
        let out = compiler.compile(&req).expect("benchmark workload compiles");
        times.push(t.elapsed());
        conflicts = out.solver.conflicts;
        decisions = out.solver.decisions;
        degraded |= out.degraded.is_some();
    }
    times.sort();
    Measured {
        median: times[times.len() / 2],
        conflicts,
        decisions,
        degraded,
    }
}

/// `lyra_synth::encode` of the whole instance, `samples` times: (median,
/// fastest) in milliseconds. For a PER-SW case this is the encoding of the
/// whole pod, which the driver's per-switch path never builds.
fn measure_encode(program: &str, scopes: &str, topo: &Topology, samples: usize) -> (f64, f64) {
    let ir = lyra_ir::frontend(program).expect("benchmark program lowers");
    let scopes: Vec<_> = lyra_lang::parse_scopes(scopes)
        .expect("benchmark scopes parse")
        .iter()
        .map(|s| lyra_topo::resolve_scope(topo, s).expect("benchmark scopes resolve"))
        .collect();
    let opts = lyra_synth::EncodeOptions::default();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            let enc = lyra_synth::encode(&ir, topo, &scopes, &opts).expect("instance encodes");
            let elapsed = ms(t.elapsed());
            drop(enc);
            elapsed
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], times[0])
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn record_fig10() -> Object {
    let mut cases_json: Vec<Value> = Vec::new();
    for case in cases() {
        // The heaviest case also records k = 48, the largest fat-tree pod
        // the paper targets, under a deadline: a regression in the
        // decomposition path degrades the compile and skips the row
        // instead of hanging the snapshot.
        let heaviest = case.name == "NetCache(MULTI-SW)";
        for k in KS.into_iter().chain(heaviest.then_some(48)) {
            let topo = pod(k);
            let scopes = scopes_for(k, &case.program, case.multi);
            let profile = if k > 32 {
                SolveProfile::default().with_deadline(Duration::from_secs(10))
            } else {
                SolveProfile::default()
            };
            let m = measure(
                &Compiler::new(),
                &case.program,
                &scopes,
                &topo,
                profile,
                SAMPLES,
            );
            if m.degraded {
                println!(
                    "fig10 {} k={k}: degraded within deadline — row skipped",
                    case.name
                );
                continue;
            }
            let (encode_ms, _) = measure_encode(&case.program, &scopes, &topo, SAMPLES);
            println!(
                "fig10 {:<20} k={k:<3} median {:>9.1?}  encode {encode_ms:>7.2} ms  conflicts {:>6}  decisions {:>8}",
                case.name, m.median, m.conflicts, m.decisions
            );
            let mut o = Object::new();
            o.push("name", Value::str(case.name));
            o.push("k", Value::Number(k as f64));
            o.push("median_ms", Value::Number(ms(m.median)));
            o.push("encode_ms", Value::Number(encode_ms));
            o.push("conflicts", Value::Number(m.conflicts as f64));
            o.push("decisions", Value::Number(m.decisions as f64));
            cases_json.push(Value::Object(o));
        }
    }

    // Head-to-head on the hardest recorded case: LB MULTI-SW at k = 16.
    // Monolithic reference vs the default profile vs the default through
    // a warm synthesis cache.
    let k = 16;
    let lb = &cases()[0];
    let topo = pod(k);
    let scopes = scopes_for(k, &lb.program, lb.multi);
    let compare = |compiler: &Compiler, profile| {
        measure(compiler, &lb.program, &scopes, &topo, profile, SAMPLES)
    };
    let default = compare(&Compiler::new(), SolveProfile::default());
    let cache = std::sync::Arc::new(SynthCache::new());
    let cached_compiler = Compiler::new().with_synth_cache(cache.clone());
    // One cold compile populates the cache; the measured samples are warm.
    let req = CompileRequest::new(&lb.program, &scopes, topo.clone());
    cached_compiler.compile(&req).expect("cold compile");
    let warm = compare(&cached_compiler, SolveProfile::default());
    // Monolithic reference (decomposition off): how the same case solves
    // without the quotient route — the denominator for the "curve bent"
    // claim.
    let mono = compare(&Compiler::new(), SolveProfile::thorough());
    let hit_rate = cache.hits() as f64 / (cache.hits() + cache.misses()) as f64;
    println!(
        "fig10 comparison LB(MULTI-SW)@k16: monolithic {:?}  default {:?}  \
         default+cache(warm) {:?}  (cache hit rate {:.2})",
        mono.median, default.median, warm.median, hit_rate
    );
    let mut cmp = Object::new();
    cmp.push("case", Value::str("LB(MULTI-SW)@k16"));
    cmp.push("monolithic_ms", Value::Number(ms(mono.median)));
    cmp.push("default_ms", Value::Number(ms(default.median)));
    cmp.push("cached_warm_ms", Value::Number(ms(warm.median)));
    cmp.push(
        "speedup_cached",
        Value::Number(ms(default.median) / ms(warm.median).max(1e-9)),
    );
    cmp.push("cache_hit_rate", Value::Number(hit_rate));

    let mut root = Object::new();
    root.push("bench", Value::str("fig10"));
    root.push("samples", Value::Number(SAMPLES as f64));
    root.push("cases", Value::Array(cases_json));
    root.push("comparison", Value::Object(cmp));
    root.push("rollout", Value::Object(record_rollout()));
    root.push("recovery", Value::Object(record_recovery()));
    root.push("mttr", Value::Object(record_mttr()));
    let mut failover = Object::new();
    failover.push("recompile", Value::Array(record_failover_recompile()));
    root.push("failover", Value::Object(failover));
    let mut solver = Object::new();
    solver.push("propagation", Value::Array(record_propagation()));
    root.push("solver", Value::Object(solver));
    root
}

/// One of the benchmark's three `MinSwitches` placements (`compile_tight`),
/// with what the full-sweep propagation it replaced spent on it: the solve
/// phase's p50 and the constraint visits of one compile (symmetry chains
/// still on), at commit 656b846 on the recording host.
struct PropagationCase {
    name: &'static str,
    program: String,
    k: usize,
    before_solve_ms: f64,
    before_visits: u64,
}

fn propagation_cases() -> Vec<PropagationCase> {
    vec![
        PropagationCase {
            name: "LB[3000000](MULTI-SW) min-switches",
            program: programs::load_balancer(3_000_000),
            k: 6,
            before_solve_ms: 8.45,
            before_visits: 133_777,
        },
        PropagationCase {
            name: "LB[5500000](MULTI-SW) min-switches",
            program: programs::load_balancer(5_500_000),
            k: 4,
            before_solve_ms: 2271.7,
            before_visits: 60_596_636,
        },
        PropagationCase {
            name: "NetCache(MULTI-SW) min-switches",
            program: programs::netcache(),
            k: 8,
            before_solve_ms: 240.3,
            before_visits: 5_523_430,
        },
    ]
}

/// Solve-phase p50 and the (deterministic) solver counters of `samples`
/// cold `MinSwitches` compiles.
fn measure_propagation(case: &PropagationCase, samples: usize) -> (Duration, lyra::SearchStats) {
    let scopes = scopes_for(case.k, &case.program, true);
    let mut solves = Vec::with_capacity(samples);
    let mut counters = lyra::SearchStats::default();
    for _ in 0..samples {
        let req = CompileRequest::new(&case.program, &scopes, pod(case.k));
        let out = Compiler::new()
            .with_objective(Objective::MinSwitches)
            .compile(&req)
            .expect("benchmark workload compiles");
        solves.push(out.stats.synth);
        counters = out.solver;
    }
    (p50(solves), counters)
}

fn visits_per_propagation(s: &lyra::SearchStats) -> f64 {
    s.linear_visits as f64 / s.propagations.max(1) as f64
}

fn record_propagation() -> Vec<Value> {
    let mut rows = Vec::new();
    for case in propagation_cases() {
        let (solve, s) = measure_propagation(&case, SAMPLES);
        println!(
            "propagation {:<36} k={}: solve p50 {:?} (was {:.1} ms), {} propagations, {} linear \
             visits (was {}), {} creep check(s)",
            case.name,
            case.k,
            solve,
            case.before_solve_ms,
            s.propagations,
            s.linear_visits,
            case.before_visits,
            s.creep_checks,
        );
        let mut before = Object::new();
        before.push("commit", Value::str("656b846"));
        before.push("solve_ms", Value::Number(case.before_solve_ms));
        before.push("linear_visits", Value::Number(case.before_visits as f64));
        before.push(
            "visits_per_propagation",
            Value::Number(case.before_visits as f64 / s.propagations.max(1) as f64),
        );
        let mut o = Object::new();
        o.push("name", Value::str(case.name));
        o.push("k", Value::Number(case.k as f64));
        o.push("solve_ms", Value::Number(ms(solve)));
        o.push("decisions", Value::Number(s.decisions as f64));
        o.push("propagations", Value::Number(s.propagations as f64));
        o.push("conflicts", Value::Number(s.conflicts as f64));
        o.push("linear_visits", Value::Number(s.linear_visits as f64));
        o.push(
            "visits_per_propagation",
            Value::Number(visits_per_propagation(&s)),
        );
        o.push("creep_checks", Value::Number(s.creep_checks as f64));
        o.push("before", Value::Object(before));
        rows.push(Value::Object(o));
    }
    rows
}

/// Pod size of the failover-recompile rows.
const FAILOVER_K: usize = 16;

/// One failover recompile against its from-scratch alternative.
struct FailoverRow {
    /// p50 of `recompile_for_faults` with Agg1 dead.
    recompile: Duration,
    /// p50 of a cold compile of the survivor network.
    survivors_cold: Duration,
    /// Route and solver decisions of the last recompile.
    route: &'static str,
    decisions: u64,
}

/// Recompile `case` at k = 16 around a dead Agg1, `samples` times, and
/// compile the network without Agg1 from scratch as often.
fn measure_failover_recompile(case: &Case, samples: usize) -> FailoverRow {
    let k = FAILOVER_K;
    let scopes = scopes_for(k, &case.program, case.multi);
    let req = CompileRequest::new(&case.program, &scopes, pod(k));
    let compiler = Compiler::new();
    let healthy = compiler.compile(&req).expect("healthy compile");
    let faults = FaultSet::new().with_switch("Agg1");
    let mut recompiles = Vec::with_capacity(samples);
    let (mut route, mut decisions) = ("cached", 0);
    for _ in 0..samples {
        let t = Instant::now();
        let r = compiler
            .recompile_for_faults(&req, &healthy, &faults)
            .expect("Agg1 failover recompile");
        recompiles.push(t.elapsed());
        route = r.output.stats.route_name();
        decisions = r.output.solver.decisions;
    }
    // The same network with Agg1 gone, as a compile that never saw it.
    let survivors = pod(k).degrade(&faults).topology;
    let survivor_scopes = scopes.replace("(Agg1,", "(");
    let cold = measure(
        &Compiler::new(),
        &case.program,
        &survivor_scopes,
        &survivors,
        SolveProfile::default(),
        samples,
    );
    FailoverRow {
        recompile: p50(recompiles),
        survivors_cold: cold.median,
        route,
        decisions,
    }
}

fn record_failover_recompile() -> Vec<Value> {
    let mut rows = Vec::new();
    for case in cases().iter().filter(|c| c.multi) {
        let row = measure_failover_recompile(case, SAMPLES);
        println!(
            "failover recompile {:<20} k={FAILOVER_K} Agg1 dead: p50 {:?} by the {} route \
             ({} decisions), survivors from scratch {:?}",
            case.name, row.recompile, row.route, row.decisions, row.survivors_cold
        );
        let mut o = Object::new();
        o.push("name", Value::str(case.name));
        o.push("k", Value::Number(FAILOVER_K as f64));
        o.push("failed", Value::str("Agg1"));
        o.push("p50_recompile_ms", Value::Number(ms(row.recompile)));
        o.push("survivors_cold_ms", Value::Number(ms(row.survivors_cold)));
        o.push("route", Value::str(row.route));
        o.push("decisions", Value::Number(row.decisions as f64));
        rows.push(Value::Object(o));
    }
    rows
}

/// Entries installed before each measured rollout, spread across keys.
const ROLLOUT_ENTRIES: u64 = 16;
/// Smoke mode: absolute bound for the rollout p50 when the committed
/// baseline predates the `rollout` section.
const SMOKE_ROLLOUT_ABS_MS: f64 = 250.0;

/// Median wall time of a full transactional rollout (prepare + commit
/// across every switch, reliable channel) applying the Agg1-failover
/// placement to a running k = 16 LB MULTI-SW deployment.
fn measure_rollout(samples: usize) -> Duration {
    let k = 16;
    let lb = &cases()[0];
    let topo = pod(k);
    let scopes = scopes_for(k, &lb.program, lb.multi);
    let compiler = Compiler::new();
    let req = CompileRequest::new(&lb.program, &scopes, topo);
    let healthy = compiler.compile(&req).expect("healthy k=16 compile");
    let mut faults = FaultSet::new();
    faults.add_switch("Agg1");
    let r = compiler
        .recompile_for_faults(&req, &healthy, &faults)
        .expect("Agg1 failover recompile");

    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut rt = Runtime::new(&healthy);
        for i in 0..ROLLOUT_ENTRIES {
            rt.install("conn_table", i * 7, 0x0a00_0000 + i)
                .expect("bench entry install");
        }
        rt.fail_switch("Agg1").expect("live failover");
        let config = RolloutConfig::default().with_scope_health(r.scope_health.clone());
        let t = Instant::now();
        let report = rt
            .apply_rollout(&r.output, &mut ReliableChannel::new(), &config)
            .expect("rollout starts");
        times.push(t.elapsed());
        assert!(report.committed, "reliable rollout must commit");
    }
    times.sort();
    times[times.len() / 2]
}

fn record_rollout() -> Object {
    let p50 = measure_rollout(SAMPLES);
    println!("rollout LB(MULTI-SW)@k16 failover: p50 commit {p50:?}");
    let mut o = Object::new();
    o.push("case", Value::str("LB(MULTI-SW)@k16 Agg1-failover"));
    o.push("entries", Value::Number(ROLLOUT_ENTRIES as f64));
    o.push("p50_commit_ms", Value::Number(ms(p50)));
    o.push("scale", Value::Array(record_rollout_scale()));
    o
}

/// Entry counts for the rollout wire-cost study, with the `conn_table`
/// size each needs so the per-path capacity constraint admits it.
const ROLLOUT_SCALES: [(usize, u64); 3] =
    [(1_000, 4_096), (100_000, 262_144), (1_000_000, 1 << 21)];
/// Modeled control-channel rate for the in-band commit-latency figure:
/// 1 Gbps, i.e. 125 bytes per microsecond.
const WIRE_BYTES_PER_MS: f64 = 125_000.0;
/// Modeled per-message overhead (serialization + RTT) for the same figure.
const WIRE_MSG_MS: f64 = 0.05;
/// Smoke mode: minimum snapshot/delta prepare-bytes ratio at the smallest
/// scale row — the O(delta) tripwire.
const SMOKE_DELTA_RATIO_FLOOR: f64 = 10.0;

/// One row of the rollout scale study. Everything here is a measured
/// wall clock or an exact count except the two `wire_ms_*` figures, which
/// are modeled from the byte and message counts.
struct ScaleRow {
    entries: usize,
    /// `fail_switch` re-sync + failover rollout, delta prepares.
    p50_failover: Duration,
    /// The `fail_switch` re-sync alone.
    p50_resync: Duration,
    /// The failover rollout alone (staging + prepare + commit).
    p50_wall_delta: Duration,
    p50_wall_snapshot: Duration,
    /// `RolloutReport.stage` of the delta rollout.
    p50_stage_delta: Duration,
    /// Reading the logical view and planning every entry of it from
    /// scratch onto the failover placement — what staging did per rollout
    /// before it kept shards.
    p50_replan: Duration,
    /// Entries the re-sync and the delta rollout handed to the planner.
    planned_resync: u64,
    planned_delta: u64,
    /// Entries the dead switch's shard held.
    lost: u64,
    bytes_delta: u64,
    bytes_snapshot: u64,
    wire_ms_delta: f64,
    wire_ms_snapshot: f64,
}

impl ScaleRow {
    /// Measured: how many times faster the whole failover is than planning
    /// every entry again.
    fn speedup_vs_replan(&self) -> f64 {
        ms(self.p50_replan) / ms(self.p50_failover).max(1e-9)
    }
}

/// Seeded xorshift64* entry generator (ascending unique keys), mirroring
/// the `tests/common` one so bench and test suites agree on workloads.
fn scale_entries(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut x = seed.max(1);
    let mut step = move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut entries = Vec::with_capacity(n);
    let mut key = 0u64;
    for _ in 0..n {
        key += 1 + step() % 7;
        entries.push((key, step()));
    }
    entries
}

fn p50(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// An Agg3 failover over `n` installed entries on the Figure 1 pod,
/// measured twice: delta prepares vs. snapshots forced. Wall clocks cover
/// whole control-plane calls (staging + prepare + commit); the from-scratch
/// re-plan beside them is the measured baseline staging is judged against.
/// The modeled wire figures isolate what the control channel would ship
/// (prepare payload at 1 Gbps plus per-message overhead) — in this
/// simulator a "snapshot" is an in-memory page-sharing clone, so only the
/// byte counts, not the clock, tell the two prepare kinds apart.
fn measure_rollout_scale(n: usize, table_size: u64, samples: usize) -> ScaleRow {
    let program = format!(
        r#"
        pipeline[LB]{{loadbalancer}};
        algorithm loadbalancer {{
            extern dict<bit[32] h, bit[32] ip>[{table_size}] conn_table;
            if (flow_h in conn_table) {{
                ipv4.dstAddr = conn_table[flow_h];
            }} else {{
                copy_to_cpu();
            }}
        }}
    "#
    );
    let scopes = "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";
    let compiler = Compiler::new();
    let req = CompileRequest::new(&program, scopes, figure1_network());
    let healthy = compiler.compile(&req).expect("scaled LB compiles");
    let mut faults = FaultSet::new();
    faults.add_switch("Agg3");
    let failover = compiler
        .recompile_for_faults(&req, &healthy, &faults)
        .expect("Agg3 failover recompile");
    let entries = scale_entries(n, 0x5ca1e + n as u64);

    struct Run {
        resync: Vec<Duration>,
        rollout: Vec<Duration>,
        failover: Vec<Duration>,
        stage: Vec<Duration>,
        lost: u64,
        planned_resync: u64,
        report: lyra::RolloutReport,
    }
    let run = |force_snapshot: bool| -> Run {
        let mut r = Run {
            resync: Vec::new(),
            rollout: Vec::new(),
            failover: Vec::new(),
            stage: Vec::new(),
            lost: 0,
            planned_resync: 0,
            report: Default::default(),
        };
        for _ in 0..samples {
            let mut rt = Runtime::new(&healthy);
            rt.install_many("conn_table", &entries)
                .expect("bulk install");
            r.lost = rt.installed_on("Agg3", "conn_table");
            let config = RolloutConfig::default()
                .with_scope_health(failover.scope_health.clone())
                .with_force_snapshot(force_snapshot);
            let t0 = Instant::now();
            let resync = rt
                .fail_switch_with_channel(
                    "Agg3",
                    &mut ReliableChannel::new(),
                    &RolloutConfig::default(),
                )
                .expect("live failover");
            let t1 = Instant::now();
            let report = rt
                .apply_rollout(&failover.output, &mut ReliableChannel::new(), &config)
                .expect("failover rollout starts");
            let t2 = Instant::now();
            assert!(
                resync.committed && report.committed,
                "reliable scaled failover must commit"
            );
            r.resync.push(t1 - t0);
            r.rollout.push(t2 - t1);
            r.failover.push(t2 - t0);
            r.stage.push(report.stage);
            r.planned_resync = resync.entries_planned;
            r.report = report;
        }
        r
    };
    let delta = run(false);
    let snapshot = run(true);
    // The baseline: read the logical view back out of a deployment, then
    // place every entry of it into an empty one.
    let replan: Vec<Duration> = (0..samples)
        .map(|_| {
            let mut serving = Runtime::new(&failover.output);
            serving
                .install_many("conn_table", &entries)
                .expect("bulk install");
            let mut rt = Runtime::new(&failover.output);
            let t = Instant::now();
            let logical: Vec<(u64, u64)> = serving
                .logical_entries()
                .into_iter()
                .map(|(_, key, value)| (key, value))
                .collect();
            rt.install_many("conn_table", &logical)
                .expect("from-scratch re-plan");
            t.elapsed()
        })
        .collect();
    let wire_ms = |r: &lyra::RolloutReport| {
        r.prepare_bytes as f64 / WIRE_BYTES_PER_MS + r.messages_sent as f64 * WIRE_MSG_MS
    };
    ScaleRow {
        entries: n,
        p50_failover: p50(delta.failover),
        p50_resync: p50(delta.resync),
        p50_wall_delta: p50(delta.rollout),
        p50_wall_snapshot: p50(snapshot.rollout),
        p50_stage_delta: p50(delta.stage),
        p50_replan: p50(replan),
        planned_resync: delta.planned_resync,
        planned_delta: delta.report.entries_planned,
        lost: delta.lost,
        bytes_delta: delta.report.prepare_bytes,
        bytes_snapshot: snapshot.report.prepare_bytes,
        wire_ms_delta: wire_ms(&delta.report),
        wire_ms_snapshot: wire_ms(&snapshot.report),
    }
}

/// The rollout scale study at 10³ / 10⁵ / 10⁶ installed entries, delta
/// prepares vs. forced snapshots. The 10⁶-entry row carries the
/// acceptance floors: on the wire, the delta path must beat snapshots by
/// ≥10x on prepare bytes (exact) and on the modeled in-band latency; on the
/// clock, the whole failover must beat planning every entry again by ≥10x
/// (measured), with the planner handed no more than the dead shard.
fn record_rollout_scale() -> Vec<Value> {
    let mut rows = Vec::new();
    for (n, table_size) in ROLLOUT_SCALES {
        // Million-entry samples are seconds each; the median over 3 is
        // stable because the work is deterministic.
        let samples = if n >= 1_000_000 { 3 } else { SAMPLES };
        let row = measure_rollout_scale(n, table_size, samples);
        println!(
            "rollout scale {n}: failover p50 {:?} (re-sync {:?} + rollout {:?}, stage {:?}) vs \
             from-scratch re-plan {:?} = {:.1}x; {}B delta / {}B snapshot on the wire",
            row.p50_failover,
            row.p50_resync,
            row.p50_wall_delta,
            row.p50_stage_delta,
            row.p50_replan,
            row.speedup_vs_replan(),
            row.bytes_delta,
            row.bytes_snapshot
        );
        assert!(
            row.planned_resync <= row.lost && row.planned_delta == 0,
            "staging at {n} entries planned {} + {} entries; the dead shard held {}",
            row.planned_resync,
            row.planned_delta,
            row.lost
        );
        if n >= 1_000_000 {
            assert!(
                row.bytes_snapshot >= 10 * row.bytes_delta.max(1),
                "10^6-entry delta rollout no longer beats snapshots >=10x on prepare bytes"
            );
            assert!(
                row.wire_ms_snapshot >= 10.0 * row.wire_ms_delta.max(f64::EPSILON),
                "10^6-entry delta rollout no longer beats snapshots >=10x on modeled wire latency"
            );
            assert!(
                row.speedup_vs_replan() >= 10.0,
                "10^6-entry failover is only {:.1}x faster than re-planning every entry",
                row.speedup_vs_replan()
            );
        }
        let mut measured = Object::new();
        measured.push("p50_failover_ms", Value::Number(ms(row.p50_failover)));
        measured.push("p50_resync_ms", Value::Number(ms(row.p50_resync)));
        measured.push("p50_commit_ms_delta", Value::Number(ms(row.p50_wall_delta)));
        measured.push(
            "p50_commit_ms_snapshot",
            Value::Number(ms(row.p50_wall_snapshot)),
        );
        measured.push("p50_stage_ms_delta", Value::Number(ms(row.p50_stage_delta)));
        measured.push(
            "p50_replan_from_scratch_ms",
            Value::Number(ms(row.p50_replan)),
        );
        measured.push(
            "failover_speedup_vs_replan",
            Value::Number(row.speedup_vs_replan()),
        );
        measured.push(
            "entries_planned_resync",
            Value::Number(row.planned_resync as f64),
        );
        measured.push(
            "entries_planned_delta",
            Value::Number(row.planned_delta as f64),
        );
        measured.push("dead_shard_entries", Value::Number(row.lost as f64));
        measured.push("prepare_bytes_delta", Value::Number(row.bytes_delta as f64));
        measured.push(
            "prepare_bytes_snapshot",
            Value::Number(row.bytes_snapshot as f64),
        );
        let mut modeled = Object::new();
        modeled.push(
            "assumes",
            Value::str("1 Gbps control channel, 0.05 ms per message"),
        );
        modeled.push("wire_ms_delta_1gbps", Value::Number(row.wire_ms_delta));
        modeled.push(
            "wire_ms_snapshot_1gbps",
            Value::Number(row.wire_ms_snapshot),
        );
        let mut o = Object::new();
        o.push("entries", Value::Number(row.entries as f64));
        o.push("measured", Value::Object(measured));
        o.push("modeled", Value::Object(modeled));
        rows.push(Value::Object(o));
    }
    rows
}

/// Smoke mode: absolute bound for the recovery p50 when the committed
/// baseline predates the `recovery` section.
const SMOKE_RECOVERY_ABS_MS: f64 = 250.0;

/// Median wall time of a controller restart recovery: the same k = 16
/// Agg1-failover rollout crashes right after the commit decision is
/// journaled (the most expensive recovery path — every switch must be
/// queried and the commit re-driven), and the restarted controller drives
/// it home from the intent log over a reliable channel.
fn measure_recovery(samples: usize) -> Duration {
    let k = 16;
    let lb = &cases()[0];
    let topo = pod(k);
    let scopes = scopes_for(k, &lb.program, lb.multi);
    let compiler = Compiler::new();
    let req = CompileRequest::new(&lb.program, &scopes, topo);
    let healthy = compiler.compile(&req).expect("healthy k=16 compile");
    let mut faults = FaultSet::new();
    faults.add_switch("Agg1");
    let r = compiler
        .recompile_for_faults(&req, &healthy, &faults)
        .expect("Agg1 failover recompile");

    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut rt = Runtime::new(&healthy);
        for i in 0..ROLLOUT_ENTRIES {
            rt.install("conn_table", i * 7, 0x0a00_0000 + i)
                .expect("bench entry install");
        }
        rt.fail_switch("Agg1").expect("live failover");
        let mut store = MemIntentStore::new();
        let crash_cfg = RolloutConfig::default()
            .with_scope_health(r.scope_health.clone())
            .with_crash(CrashPlan::at(CrashPoint::AfterCommitDecision));
        rt.apply_rollout_logged(
            &r.output,
            &mut ReliableChannel::new(),
            &crash_cfg,
            &mut store,
        )
        .expect_err("instrumented rollout must crash");
        let config = RolloutConfig::default().with_scope_health(r.scope_health.clone());
        let t = Instant::now();
        let rep = rt
            .recover(&r.output, &mut store, &mut ReliableChannel::new(), &config)
            .expect("recovery runs");
        times.push(t.elapsed());
        assert!(
            rep.committed,
            "journaled commit decision must be driven home"
        );
    }
    times.sort();
    times[times.len() / 2]
}

fn record_recovery() -> Object {
    let p50 = measure_recovery(SAMPLES);
    println!("recovery LB(MULTI-SW)@k16 crash@commit-decision: p50 recover {p50:?}");
    let mut o = Object::new();
    o.push(
        "case",
        Value::str("LB(MULTI-SW)@k16 Agg1-failover crash@commit-decision"),
    );
    o.push("entries", Value::Number(ROLLOUT_ENTRIES as f64));
    o.push("p50_recover_ms", Value::Number(ms(p50)));
    o
}

/// Smoke mode: absolute bound for the MTTR p50 when the committed
/// baseline predates the `mttr` section.
const SMOKE_MTTR_ABS_MS: f64 = 400.0;
/// Tick the MTTR bench kills its victim on.
const MTTR_KILL_TICK: u64 = 4;

/// Median wall time of one closed-loop remediation round — detection
/// confirmed to rollout committed and audited — when the health monitor
/// catches a seeded kill of Agg1 on the running k = 16 LB MULTI-SW
/// deployment. Also returns the virtual detect→healed tick count, which
/// is deterministic (the healer fires the round on the confirming tick).
fn measure_mttr(samples: usize) -> (Duration, u64) {
    let k = 16;
    let lb = &cases()[0];
    let topo = pod(k);
    let scopes = scopes_for(k, &lb.program, lb.multi);
    let compiler = Compiler::new();
    let req = CompileRequest::new(&lb.program, &scopes, topo);
    let entries: Vec<(String, u64, u64)> = (0..ROLLOUT_ENTRIES)
        .map(|i| ("conn_table".to_string(), i * 7, 0x0a00_0000 + i))
        .collect();
    let schedule = ChaosSchedule::new().kill(MTTR_KILL_TICK, Target::switch("Agg1"));
    let cfg = SelfHealConfig {
        health: HealthConfig::default(),
        ticks: 24,
        ..SelfHealConfig::default()
    };

    let mut times = Vec::with_capacity(samples);
    let mut mttr_ticks = 0;
    for _ in 0..samples {
        let outcome =
            run_selfheal(&compiler, &req, &entries, &schedule, &cfg).expect("mttr selfheal");
        assert!(outcome.converged, "mttr bench run did not converge");
        let round = outcome
            .remediations
            .iter()
            .find(|r| r.committed)
            .expect("kill must be remediated");
        assert!(round.audit_clean, "mttr remediation audited dirty");
        times.push(round.elapsed);
        mttr_ticks = round.mttr_ticks().expect("healed round has a tick span");
    }
    times.sort();
    (times[times.len() / 2], mttr_ticks)
}

fn record_mttr() -> Object {
    let (p50, ticks) = measure_mttr(SAMPLES);
    println!(
        "mttr  LB(MULTI-SW)@k16 kill@t{MTTR_KILL_TICK}: p50 detect→healed {p50:?} ({ticks} ticks)"
    );
    let mut o = Object::new();
    o.push("case", Value::str("LB(MULTI-SW)@k16 Agg1-kill closed loop"));
    o.push("entries", Value::Number(ROLLOUT_ENTRIES as f64));
    o.push("kill_tick", Value::Number(MTTR_KILL_TICK as f64));
    o.push("p50_heal_ms", Value::Number(ms(p50)));
    o.push("mttr_ticks", Value::Number(ticks as f64));
    o
}

/// Table sizes swept by `--audit-cost` (entries installed before the
/// audit; the numbers land in EXPERIMENTS.md).
const AUDIT_SIZES: [u64; 4] = [16, 64, 256, 1024];

/// Anti-entropy audit cost vs table size on the k = 16 LB deployment:
/// one clean pass (digest compare only) and one pass over a fleet with
/// seeded drift (digest mismatch forces the key-by-key diff + repairs).
fn audit_cost() {
    let k = 16;
    let lb = &cases()[0];
    let topo = pod(k);
    let scopes = scopes_for(k, &lb.program, lb.multi);
    let compiler = Compiler::new();
    let req = CompileRequest::new(&lb.program, &scopes, topo);
    let out = compiler.compile(&req).expect("healthy k=16 compile");
    for entries in AUDIT_SIZES {
        let mut rt = Runtime::new(&out);
        for i in 0..entries {
            rt.install("conn_table", i, 0x0a00_0000 + i)
                .expect("bench entry install");
        }
        let mut clean_times = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t = Instant::now();
            let rep = rt.audit_switches();
            clean_times.push(t.elapsed());
            assert!(rep.clean(), "clean deployment must audit clean");
        }
        clean_times.sort();
        let digests = rt.audit_switches().digests_compared;

        // Seed drift on every hosting switch: one foreign entry plus one
        // corrupted value, so each shard pays the full diff path.
        let hosts: Vec<String> = out
            .placement
            .switches
            .iter()
            .filter(|(_, p)| p.extern_entries.contains_key("conn_table"))
            .map(|(n, _)| n.clone())
            .collect();
        let mut drifted_times = Vec::with_capacity(SAMPLES);
        let mut findings = 0;
        for round in 0..SAMPLES {
            let mut seeded = 0;
            for (i, sw) in hosts.iter().enumerate() {
                let op = DriftOp::Insert {
                    table: "conn_table".into(),
                    key: 0xd41f_7000 + (round * hosts.len() + i) as u64,
                    value: 0xbad,
                };
                rt.inject_drift(sw, &op).expect("drift injects");
                seeded += 1;
            }
            let t = Instant::now();
            let rep = rt.audit_switches();
            drifted_times.push(t.elapsed());
            assert_eq!(rep.findings.len(), seeded, "audit must find every seed");
            findings = seeded;
        }
        drifted_times.sort();
        println!(
            "audit LB(MULTI-SW)@k16 entries={entries:>5}: clean p50 {:>9.1?} \
             ({digests} digests), drifted p50 {:>9.1?} ({findings} repairs)",
            clean_times[SAMPLES / 2],
            drifted_times[SAMPLES / 2],
        );
    }
}

/// Packets replayed through the compiled engine per pps measurement.
const PPS_PACKETS: u64 = 400_000;
/// Packets for the interpreter baseline (same seed, slower engine).
const PPS_INTERP_PACKETS: u64 = 100_000;
/// Packets replayed while each rollout scenario flips epochs.
const PPS_ROLLOUT_PACKETS: u64 = 120_000;
/// Traffic seed shared by every pps measurement.
const PPS_SEED: u64 = 0x9e37_79b9;
/// Smoke mode: the compiled single-worker engine must beat the
/// interpreter by at least this factor on the NetCache k = 8 deployment.
const PPS_SMOKE_FLOOR: f64 = 8.0;
/// Smoke mode: packet budgets for the quick pps tripwire.
const PPS_SMOKE_PACKETS: u64 = 60_000;
const PPS_SMOKE_INTERP_PACKETS: u64 = 20_000;

/// The pps workload: NetCache at k = 8, MULTI-SW, with cache entries
/// installed so replayed traffic exercises hit, miss, and hot-key paths.
fn pps_workload() -> (Compiler, CompileRequest<'static>, lyra::CompileOutput) {
    let program = programs::netcache().leak();
    let scopes = scopes_for(8, program, true).leak();
    let req = CompileRequest::new(program, scopes, pod(8));
    let compiler = Compiler::new();
    let out = compiler.compile(&req).expect("NetCache k=8 compiles");
    (compiler, req, out)
}

fn seeded_runtime(out: &lyra::CompileOutput) -> Runtime<'_> {
    let mut rt = Runtime::new(out);
    for i in 0..64u64 {
        if rt.install("cache_lookup", i * 5, i % 97).is_err() {
            break;
        }
    }
    rt
}

fn replay_json(r: &ReplayReport) -> Object {
    let mut o = Object::new();
    o.push("packets", Value::Number(r.packets as f64));
    o.push("delivered", Value::Number(r.delivered as f64));
    o.push(
        "refused_epoch_mismatch",
        Value::Number(r.refused_epoch_mismatch as f64),
    );
    o.push(
        "mixed_epoch_exposure",
        Value::Number(r.mixed_epoch_exposure as f64),
    );
    o.push("effects", Value::Number(r.effects as f64));
    o.push("workers", Value::Number(r.workers as f64));
    o.push("elapsed_ms", Value::Number(ms(r.elapsed)));
    o.push("pps", Value::Number(r.pps));
    o
}

/// Replay traffic while a two-phase rollout flips the deployment over a
/// lossy channel; returns the scenario row and the exposure count.
fn pps_rollout_scenario(
    name: &str,
    compiler: &Compiler,
    req: &CompileRequest,
    out: &lyra::CompileOutput,
    packets: u64,
    kill_first_target: bool,
) -> (Object, u64) {
    let faults = FaultSet::new().with_switch("Agg1");
    let r = compiler
        .recompile_for_faults(req, out, &faults)
        .expect("Agg1 failover recompile");
    let mut rt = seeded_runtime(out);
    rt.fail_switch("Agg1").expect("live failover");
    let mut chan = LossyChannel::new(3)
        .with_drop_p(0.2)
        .with_ack_loss_p(0.1)
        .with_dup_p(0.05);
    let mut config = RolloutConfig::default().with_scope_health(r.scope_health.clone());
    if kill_first_target {
        // Kill the alphabetically-first switch of the new placement right
        // after its prepare lands: the commit starves and the rollout must
        // roll every switch back while traffic keeps flowing.
        let victim = r
            .output
            .placement
            .switches
            .keys()
            .next()
            .expect("new placement has switches")
            .clone();
        chan = LossyChannel::new(3).with_switch_death(&victim, 1);
        config.max_attempts = 3;
        config.base_backoff = Duration::from_micros(5);
        config.max_backoff = Duration::from_micros(50);
    }
    let replay_cfg = ReplayConfig::default()
        .with_packets(packets)
        .with_workers(2)
        .with_seed(PPS_SEED);
    let outcome = replay_under_rollout(&mut rt, &r.output, &mut chan, &config, &replay_cfg)
        .expect("rollout starts");
    let state = if outcome.rollout.committed {
        "committed"
    } else if outcome.rollout.rolled_back {
        "rolled_back"
    } else {
        "no-op"
    };
    println!(
        "pps   rollout[{name}]: {state}, {} delivered, {} refused (loss), {} mixed-epoch, \
         {} forced rollback(s)",
        outcome.replay.delivered,
        outcome.replay.refused_epoch_mismatch,
        outcome.replay.mixed_epoch_exposure,
        outcome.rollout.forced_rollbacks,
    );
    let exposure = outcome.replay.mixed_epoch_exposure;
    let mut o = Object::new();
    o.push("name", Value::str(name));
    o.push("outcome", Value::str(state));
    o.push("replay", Value::Object(replay_json(&outcome.replay)));
    let mut ro = Object::new();
    ro.push("committed", Value::Bool(outcome.rollout.committed));
    ro.push("rolled_back", Value::Bool(outcome.rollout.rolled_back));
    ro.push(
        "forced_rollbacks",
        Value::Number(outcome.rollout.forced_rollbacks as f64),
    );
    ro.push(
        "messages_sent",
        Value::Number(outcome.rollout.messages_sent as f64),
    );
    ro.push("dropped", Value::Number(outcome.rollout.dropped as f64));
    ro.push("retries", Value::Number(outcome.rollout.retries as f64));
    o.push("rollout", Value::Object(ro));
    (o, exposure)
}

fn record_pps() -> Object {
    let (compiler, req, out) = pps_workload();
    let rt = seeded_runtime(&out);
    let interp = replay_interpreted(
        &rt,
        &ReplayConfig::default()
            .with_packets(PPS_INTERP_PACKETS)
            .with_seed(PPS_SEED),
    );
    let single = replay_compiled(
        &rt,
        &ReplayConfig::default()
            .with_packets(PPS_PACKETS)
            .with_workers(1)
            .with_seed(PPS_SEED),
    );
    let batched = replay_compiled(
        &rt,
        &ReplayConfig::default()
            .with_packets(PPS_PACKETS)
            .with_seed(PPS_SEED),
    );
    println!(
        "pps   NetCache(MULTI-SW)@k8: interpreter {:.0} pps, compiled(1w) {:.0} pps ({:.1}x), \
         compiled({}w) {:.0} pps ({:.1}x)",
        interp.pps,
        single.pps,
        single.pps / interp.pps.max(1e-9),
        batched.workers,
        batched.pps,
        batched.pps / interp.pps.max(1e-9),
    );
    let (lossy_commit, e1) = pps_rollout_scenario(
        "lossy-commit",
        &compiler,
        &req,
        &out,
        PPS_ROLLOUT_PACKETS,
        false,
    );
    let (lossy_rollback, e2) = pps_rollout_scenario(
        "lossy-rollback",
        &compiler,
        &req,
        &out,
        PPS_ROLLOUT_PACKETS,
        true,
    );
    assert_eq!(e1 + e2, 0, "a packet executed under two epochs");

    let mut root = Object::new();
    root.push("bench", Value::str("pps"));
    root.push("case", Value::str("NetCache(MULTI-SW)@k8"));
    root.push("interpreter", Value::Object(replay_json(&interp)));
    root.push("compiled_single", Value::Object(replay_json(&single)));
    root.push("compiled_batched", Value::Object(replay_json(&batched)));
    root.push(
        "speedup_single",
        Value::Number(single.pps / interp.pps.max(1e-9)),
    );
    root.push(
        "speedup_batched",
        Value::Number(batched.pps / interp.pps.max(1e-9)),
    );
    root.push(
        "rollout_scenarios",
        Value::Array(vec![
            Value::Object(lossy_commit),
            Value::Object(lossy_rollback),
        ]),
    );
    root
}

/// Quick data-plane tripwire: the compiled engine must beat the
/// interpreter by [`PPS_SMOKE_FLOOR`], and a lossy rollout under traffic
/// must keep mixed-epoch exposure at zero. Returns the failure count.
fn pps_smoke() -> usize {
    let (compiler, req, out) = pps_workload();
    let rt = seeded_runtime(&out);
    let interp = replay_interpreted(
        &rt,
        &ReplayConfig::default()
            .with_packets(PPS_SMOKE_INTERP_PACKETS)
            .with_seed(PPS_SEED),
    );
    let single = replay_compiled(
        &rt,
        &ReplayConfig::default()
            .with_packets(PPS_SMOKE_PACKETS)
            .with_workers(1)
            .with_seed(PPS_SEED),
    );
    let speedup = single.pps / interp.pps.max(1e-9);
    let mut failures = 0;
    let status = if speedup < PPS_SMOKE_FLOOR {
        failures += 1;
        "REGRESSED"
    } else {
        "ok"
    };
    println!(
        "smoke pps NetCache(MULTI-SW)@k8: compiled {:.0} pps vs interpreter {:.0} pps — \
         {speedup:.1}x (floor {PPS_SMOKE_FLOOR:.0}x) {status}",
        single.pps, interp.pps
    );
    drop(rt);
    let (_, exposure) = pps_rollout_scenario(
        "lossy-rollback",
        &compiler,
        &req,
        &out,
        PPS_SMOKE_PACKETS,
        true,
    );
    if exposure > 0 {
        println!("smoke pps: {exposure} packet(s) executed under two epochs REGRESSED");
        failures += 1;
    }
    failures
}

fn record_fig9() -> Object {
    let mut rows: Vec<Value> = Vec::new();
    for entry in figure9_corpus() {
        let mut topo = Topology::new();
        topo.add_switch("ToR1", Layer::ToR, "tofino-32q");
        let scopes: String = entry
            .scopes
            .lines()
            .filter_map(|l| l.split(':').next())
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|a| format!("{a}: [ ToR1 | PER-SW | - ]"))
            .collect::<Vec<_>>()
            .join("\n");
        let m = measure(
            &Compiler::new(),
            &entry.source,
            &scopes,
            &topo,
            SolveProfile::default(),
            SAMPLES,
        );
        // Hit rate over repeat compiles with a shared cache: the first
        // misses, the rest hit.
        let cache = std::sync::Arc::new(SynthCache::new());
        let compiler = Compiler::new().with_synth_cache(cache.clone());
        for _ in 0..3 {
            let req = CompileRequest::new(&entry.source, &scopes, topo.clone());
            compiler.compile(&req).expect("corpus compiles");
        }
        let hit_rate = cache.hits() as f64 / (cache.hits() + cache.misses()) as f64;
        println!(
            "fig9  {:<20} median {:>9.1?}  conflicts {:>6}  cache hit rate {:.2}",
            entry.name, m.median, m.conflicts, hit_rate
        );
        let mut o = Object::new();
        o.push("name", Value::str(entry.name));
        o.push("median_ms", Value::Number(ms(m.median)));
        o.push("conflicts", Value::Number(m.conflicts as f64));
        o.push("cache_hit_rate", Value::Number(hit_rate));
        rows.push(Value::Object(o));
    }
    let mut root = Object::new();
    root.push("bench", Value::str("fig9"));
    root.push("samples", Value::Number(SAMPLES as f64));
    root.push("programs", Value::Array(rows));
    root
}

/// Smoke mode: single-sample the k = 4 fig10 cases against the committed
/// baseline. Returns the number of regressions.
fn smoke() -> usize {
    let baseline = match std::fs::read_to_string("BENCH_fig10.json") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("record_bench --smoke: cannot read BENCH_fig10.json: {e}");
            return 1;
        }
    };
    let baseline = match parse(&baseline) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("record_bench --smoke: BENCH_fig10.json is not valid JSON: {e:?}");
            return 1;
        }
    };
    let Some(cases_json) = baseline.get("cases").and_then(|c| c.as_array()) else {
        eprintln!("record_bench --smoke: baseline has no `cases` array");
        return 1;
    };
    // The committed `field` of the fig10 row of `name` at `k`.
    let recorded = |name: &str, k: usize, field: &str| -> Option<f64> {
        let row = cases_json.iter().find(|c| {
            c.get("name").and_then(|n| n.as_str()) == Some(name)
                && c.get("k").and_then(|v| v.as_number()) == Some(k as f64)
        });
        row?.get(field)?.as_number()
    };
    let mut failures = 0;
    for case in cases() {
        let k = 4;
        let Some(baseline_ms) = recorded(case.name, k, "median_ms") else {
            eprintln!("smoke: no baseline for {} @k{k} — skipping", case.name);
            continue;
        };
        let topo = pod(k);
        let scopes = scopes_for(k, &case.program, case.multi);
        let m = measure(
            &Compiler::new(),
            &case.program,
            &scopes,
            &topo,
            SolveProfile::default(),
            1,
        );
        let bound = baseline_ms * SMOKE_FACTOR + SMOKE_GRACE_MS;
        let status = if ms(m.median) > bound {
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "smoke {:<20} k={k}: {:.1} ms (baseline {:.1} ms, bound {:.1} ms) {status}",
            case.name,
            ms(m.median),
            baseline_ms,
            bound
        );
        if ms(m.median) > bound {
            failures += 1;
        }
    }

    // Rollout-latency tripwire: p50 prepare+commit on the k = 16 LB
    // failover. Bounded by the committed baseline when it carries the
    // `rollout` section, by an absolute ceiling otherwise.
    let rollout_baseline = baseline
        .get("rollout")
        .and_then(|r| r.get("p50_commit_ms"))
        .and_then(|v| v.as_number());
    let bound = match rollout_baseline {
        Some(b) => b * SMOKE_FACTOR + SMOKE_GRACE_MS,
        None => SMOKE_ROLLOUT_ABS_MS,
    };
    let p50 = ms(measure_rollout(1));
    let status = if p50 > bound { "REGRESSED" } else { "ok" };
    println!(
        "smoke rollout LB(MULTI-SW)@k16: {p50:.2} ms (bound {bound:.1} ms{}) {status}",
        if rollout_baseline.is_some() {
            ""
        } else {
            ", absolute — no baseline"
        }
    );
    if p50 > bound {
        failures += 1;
    }

    // O(delta) tripwire: at the smallest scale row, delta prepares must
    // still beat forced snapshots by the floor on prepare bytes, and
    // staging must hand the planner nothing on the failover rollout and no
    // more than the dead shard on the re-sync. Both are exact counts, not
    // timings, so no grace is needed.
    let (n, table_size) = ROLLOUT_SCALES[0];
    let row = measure_rollout_scale(n, table_size, 1);
    let ratio = row.bytes_snapshot as f64 / row.bytes_delta.max(1) as f64;
    let staged_o_delta = row.planned_delta == 0 && row.planned_resync <= row.lost;
    let regressed = ratio < SMOKE_DELTA_RATIO_FLOOR || !staged_o_delta;
    println!(
        "smoke rollout-delta @{n} entries: snapshot {}B / delta {}B = {ratio:.1}x \
         (floor {SMOKE_DELTA_RATIO_FLOOR:.0}x); planner saw {} (re-sync, dead shard {}) + {} \
         (rollout) entries; measured failover {:.2} ms vs from-scratch re-plan {:.2} ms {}",
        row.bytes_snapshot,
        row.bytes_delta,
        row.planned_resync,
        row.lost,
        row.planned_delta,
        ms(row.p50_failover),
        ms(row.p50_replan),
        if regressed { "REGRESSED" } else { "ok" }
    );
    if regressed {
        failures += 1;
    }

    // Restart-recovery tripwire: p50 of driving a crash@commit-decision
    // rollout home from the intent log. Bounded by the committed baseline
    // when it carries the `recovery` section, by an absolute ceiling
    // otherwise.
    let recovery_baseline = baseline
        .get("recovery")
        .and_then(|r| r.get("p50_recover_ms"))
        .and_then(|v| v.as_number());
    let bound = match recovery_baseline {
        Some(b) => b * SMOKE_FACTOR + SMOKE_GRACE_MS,
        None => SMOKE_RECOVERY_ABS_MS,
    };
    let p50 = ms(measure_recovery(1));
    let status = if p50 > bound { "REGRESSED" } else { "ok" };
    println!(
        "smoke recovery LB(MULTI-SW)@k16: {p50:.2} ms (bound {bound:.1} ms{}) {status}",
        if recovery_baseline.is_some() {
            ""
        } else {
            ", absolute — no baseline"
        }
    );
    if p50 > bound {
        failures += 1;
    }

    // Self-healing tripwire: p50 of one closed-loop remediation round
    // (seeded Agg1 kill detected, recompiled, rolled out, audited) on the
    // k = 16 LB deployment. Bounded by the committed baseline when it
    // carries the `mttr` section, by an absolute ceiling otherwise.
    let mttr_baseline = baseline
        .get("mttr")
        .and_then(|r| r.get("p50_heal_ms"))
        .and_then(|v| v.as_number());
    let bound = match mttr_baseline {
        Some(b) => b * SMOKE_FACTOR + SMOKE_GRACE_MS,
        None => SMOKE_MTTR_ABS_MS,
    };
    let (p50, ticks) = measure_mttr(1);
    let p50 = ms(p50);
    let status = if p50 > bound { "REGRESSED" } else { "ok" };
    println!(
        "smoke mttr LB(MULTI-SW)@k16: {p50:.2} ms / {ticks} ticks (bound {bound:.1} ms{}) {status}",
        if mttr_baseline.is_some() {
            ""
        } else {
            ", absolute — no baseline"
        }
    );
    if p50 > bound {
        failures += 1;
    }

    // Failover-recompile tripwire: under `Feasible` the prior placement is
    // carried onto the survivors, which costs one encode and no search —
    // so a recompile that misses the route, or is slower than compiling
    // the survivor network from scratch, has regressed. No baseline: the
    // two sides are measured here, back to back.
    for case in cases().iter().filter(|c| c.multi) {
        let row = measure_failover_recompile(case, 3);
        let regressed = row.route != "carried-over" || row.recompile > row.survivors_cold;
        let status = if regressed { "REGRESSED" } else { "ok" };
        println!(
            "smoke failover recompile {:<20} k={FAILOVER_K}: {:.2} ms by the {} route \
             (survivors from scratch {:.2} ms) {status}",
            case.name,
            ms(row.recompile),
            row.route,
            ms(row.survivors_cold)
        );
        if regressed {
            failures += 1;
        }
    }

    // Propagation tripwire, on counts (they repeat exactly; the clock does
    // not): bounds propagation must visit the constraints a change touched,
    // and a creeping cycle must be refuted by its weight. The full sweep
    // made 60 M visits on LB 5.5 M k=4 and over a hundred per propagation
    // on NetCache k=8.
    for case in propagation_cases() {
        let (_, s) = measure_propagation(&case, 1);
        let regressed = s.linear_visits > SMOKE_LINEAR_VISITS
            || (case.name.starts_with("NetCache")
                && visits_per_propagation(&s) > SMOKE_VISITS_PER_PROPAGATION);
        let status = if regressed { "REGRESSED" } else { "ok" };
        println!(
            "smoke propagation {:<36} k={}: {} linear visits, {:.2} per propagation, {} creep \
             check(s) {status}",
            case.name,
            case.k,
            s.linear_visits,
            visits_per_propagation(&s),
            s.creep_checks
        );
        if regressed {
            failures += 1;
        }
    }

    // Datacenter-scale tripwires: the decomposition path must keep the MULTI-SW curve bent. k = 16 is bounded against
    // the committed snapshot at 2x (tighter than the generic 3x above,
    // with a small grace since the quotient row is tens of ms); k = 32
    // carries the absolute one-second budget from the scaling work —
    // losing the quotient path sends it back toward the multi-second
    // monolithic encoding, which either bound catches.
    let nc = cases().pop().expect("NetCache MULTI-SW case");
    for (k, bound, label) in [
        (
            16usize,
            recorded(nc.name, 16, "median_ms")
                .map(|b| b * SMOKE_SCALE_FACTOR + SMOKE_SCALE_GRACE_MS),
            "2x snapshot",
        ),
        (32usize, Some(SMOKE_K32_BUDGET_MS), "absolute budget"),
    ] {
        let Some(bound) = bound else {
            eprintln!("smoke: no baseline for {} @k{k} — skipping", nc.name);
            continue;
        };
        let topo = pod(k);
        let scopes = scopes_for(k, &nc.program, nc.multi);
        let m = measure(
            &Compiler::new(),
            &nc.program,
            &scopes,
            &topo,
            SolveProfile::default(),
            1,
        );
        let status = if ms(m.median) > bound {
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "smoke {:<20} k={k}: {:.1} ms (bound {:.1} ms, {label}) {status}",
            nc.name,
            ms(m.median),
            bound
        );
        if ms(m.median) > bound {
            failures += 1;
        }
    }
    // Encode tripwire: the index-built encoder of NetCache MULTI-SW at
    // k = 16 against the committed `encode_ms`. The fastest of a few
    // samples repeats well, so the bound carries almost no grace.
    match recorded(nc.name, 16, "encode_ms") {
        None => eprintln!("smoke: no encode baseline for {} @k16 — skipping", nc.name),
        Some(baseline_ms) => {
            let scopes = scopes_for(16, &nc.program, nc.multi);
            let (_, fastest) = measure_encode(&nc.program, &scopes, &pod(16), SAMPLES);
            let bound = baseline_ms * SMOKE_FACTOR + 1.0;
            let status = if fastest > bound { "REGRESSED" } else { "ok" };
            println!(
                "smoke encode {:<13} k=16: {fastest:.2} ms (baseline {baseline_ms:.2} ms, \
                 bound {bound:.2} ms) {status}",
                nc.name
            );
            failures += (fastest > bound) as usize;
        }
    }
    failures + pps_smoke()
}

fn main() {
    if std::env::args().any(|a| a == "--audit-cost") {
        audit_cost();
        return;
    }
    if std::env::args().any(|a| a == "--pps-smoke") {
        let failures = pps_smoke();
        if failures > 0 {
            eprintln!("record_bench --pps-smoke: {failures} data-plane tripwire(s) failed");
            std::process::exit(1);
        }
        println!("record_bench --pps-smoke: data plane within bounds");
        return;
    }
    if std::env::args().any(|a| a == "--smoke") {
        let failures = smoke();
        if failures > 0 {
            eprintln!("record_bench --smoke: {failures} case(s) regressed over baseline");
            std::process::exit(1);
        }
        println!("record_bench --smoke: all cases within bounds");
        return;
    }
    let fig10 = record_fig10();
    std::fs::write("BENCH_fig10.json", Value::Object(fig10).to_pretty())
        .expect("write BENCH_fig10.json");
    let fig9 = record_fig9();
    std::fs::write("BENCH_fig9.json", Value::Object(fig9).to_pretty())
        .expect("write BENCH_fig9.json");
    let pps = record_pps();
    std::fs::write("BENCH_pps.json", Value::Object(pps).to_pretty()).expect("write BENCH_pps.json");
    println!("wrote BENCH_fig10.json, BENCH_fig9.json, and BENCH_pps.json");
}
