//! `record_bench` — record the paper's two evaluation figures.
//!
//! Measures the Figure 10 scalability cases and the Figure 9 corpus under
//! the current solver (one deterministic search + quotient route + synthesis
//! cache) and writes machine-readable snapshots:
//!
//! * `BENCH_fig10.json` — per-case median wall time / `encode` time /
//!   conflicts / decisions at k ∈ {4, 8, 16, 32} on the mixed pod (NetCache
//!   MULTI-SW also at k = 48, under a 10 s deadline that skips the row
//!   rather than hang the snapshot) and on the paper's two homogeneous
//!   panels (all-Tofino and all-Trident-4 pods; each row's `asics` is
//!   `<ToR ASIC>+<Agg ASIC>`), the NPL-vs-P4 compile-time ratio at k = 32,
//!   and a monolithic-vs-default-vs-cached comparison on the hardest case
//!   (LB MULTI-SW at k = 16);
//! * `BENCH_fig9.json` — per-program median compile time, conflicts, and
//!   synthesis-cache hit rate on a single-switch target.
//!
//! Run from the repository root (it overwrites the two files there):
//! `cargo run --release -p lyra-bench --bin record_bench`. The shape claims
//! that do not depend on the clock are tier-1 tests (`tests/integration.rs`);
//! everything else this repository times — replay throughput, rollouts,
//! recovery, self-healing, failover recompiles, propagation — is timed by
//! the `benchmark/` package alone.

use std::time::{Duration, Instant};

use lyra::{CompileRequest, Compiler, SolveProfile, SynthCache};
use lyra_apps::{figure9_corpus, programs};
use lyra_diag::json::{Object, Value};
use lyra_topo::{fat_tree_pod, Layer, Topology};

/// Timed samples per measurement (median reported).
const SAMPLES: usize = 5;
/// Pod sizes recorded in the fig10 snapshot.
const KS: [usize; 4] = [4, 8, 16, 32];
/// The fig10 pods as (ToR ASIC, Agg ASIC): the mixed pod the comparison
/// also measures on, then the paper's all-P4 and all-NPL panels.
const PODS: [(&str, &str); 3] = [
    ("tofino-32q", "trident4"),
    ("tofino-32q", "tofino-32q"),
    ("trident4", "trident4"),
];

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

/// `lyra_synth::encode` of the whole instance, `samples` times: the median
/// in milliseconds. For a PER-SW case this is the encoding of the whole
/// pod, which the driver's per-switch path never builds.
fn measure_encode(program: &str, scopes: &str, topo: &Topology, samples: usize) -> f64 {
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
    times[times.len() / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn record_fig10() -> Object {
    let mut cases_json: Vec<Value> = Vec::new();
    // Median compile of each case at k = 32 on the homogeneous pods, in
    // `PODS` order: the all-P4 panel's cases, then the all-NPL panel's.
    let mut homogeneous_k32 = Vec::new();
    for (tor, agg) in PODS {
        let asics = format!("{tor}+{agg}");
        for case in cases() {
            // The heaviest case also records k = 48 on the mixed pod, the
            // largest fat-tree pod the paper targets, under a deadline: a
            // regression in the decomposition path degrades the compile and
            // skips the row instead of hanging the snapshot.
            let heaviest = case.name == "NetCache(MULTI-SW)" && tor != agg;
            for k in KS.into_iter().chain(heaviest.then_some(48)) {
                let topo = fat_tree_pod(k, tor, agg);
                let scopes = scopes_for(k, &case.program, case.multi);
                let profile = if k > 32 {
                    SolveProfile::default().with_deadline(Duration::from_secs(10))
                } else {
                    SolveProfile::default()
                };
                let compiler = Compiler::new();
                let m = measure(&compiler, &case.program, &scopes, &topo, profile, SAMPLES);
                if m.degraded {
                    println!("fig10 {} {asics} k={k}: degraded — row skipped", case.name);
                    continue;
                }
                let encode_ms = measure_encode(&case.program, &scopes, &topo, SAMPLES);
                println!(
                    "fig10 {:<20} {asics:<19} k={k:<3} median {:>9.1?}  encode {encode_ms:>7.2} \
                     ms  conflicts {:>6}  decisions {:>8}",
                    case.name, m.median, m.conflicts, m.decisions
                );
                if k == 32 && tor == agg {
                    homogeneous_k32.push(ms(m.median));
                }
                let mut o = Object::new();
                o.push("name", Value::str(case.name));
                o.push("asics", Value::str(&asics));
                o.push("k", Value::Number(k as f64));
                o.push("median_ms", Value::Number(ms(m.median)));
                o.push("encode_ms", Value::Number(encode_ms));
                o.push("conflicts", Value::Number(m.conflicts as f64));
                o.push("decisions", Value::Number(m.decisions as f64));
                cases_json.push(Value::Object(o));
            }
        }
    }
    // The paper reports NPL synthesis ≈ 2× faster than P4 (§7.2); recorded,
    // not asserted.
    let (p4, npl) = homogeneous_k32.split_at(cases().len());
    let mut npl_vs_p4 = Vec::new();
    for ((case, p4), npl) in cases().iter().zip(p4).zip(npl) {
        println!("fig10 {:<20} k=32 NPL/P4 {:.2}", case.name, npl / p4);
        let mut o = Object::new();
        o.push("name", Value::str(case.name));
        o.push("p4_ms", Value::Number(*p4));
        o.push("npl_ms", Value::Number(*npl));
        o.push("npl_over_p4", Value::Number(npl / p4));
        npl_vs_p4.push(Value::Object(o));
    }

    // Head-to-head on the hardest recorded case: LB MULTI-SW at k = 16.
    // Monolithic reference vs the default profile vs the default through
    // a warm synthesis cache.
    let k = 16;
    let lb = &cases()[0];
    let (tor, agg) = PODS[0];
    let topo = fat_tree_pod(k, tor, agg);
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
    root.push("npl_vs_p4_k32", Value::Array(npl_vs_p4));
    root.push("comparison", Value::Object(cmp));
    root
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

fn main() {
    let fig10 = record_fig10();
    std::fs::write("BENCH_fig10.json", Value::Object(fig10).to_pretty())
        .expect("write BENCH_fig10.json");
    let fig9 = record_fig9();
    std::fs::write("BENCH_fig9.json", Value::Object(fig9).to_pretty())
        .expect("write BENCH_fig9.json");
    println!("wrote BENCH_fig10.json and BENCH_fig9.json");
}
