//! Differential testing of the datacenter-scale solve path: the default
//! profile (quotient route + connected-component splitting) against the
//! monolithic reference profile (`SolveProfile::thorough`, decomposition
//! off) on seeded random MULTI-SW placement problems over fat-tree pods.
//!
//! Decomposition is a pure solver optimization — it must never flip a
//! verdict. Every case compiles the same program, scopes, and topology
//! under both profiles and asserts SAT/UNSAT (compiles vs infeasible)
//! agreement, plus placement sanity when both succeed.
//!
//! Randomness comes from a seeded xorshift generator (the workspace builds
//! offline with no external crates), so every run explores the identical
//! case set and failures reproduce from the printed case index.

use lyra::{CompileError, CompileOutput, CompileRequest, Compiler, SolveProfile};
use lyra_topo::fat_tree_pod;

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// A random MULTI-SW-friendly program: a couple of extern tables with
/// seeded sizes, compute, conditionals, and lookups. Oversized externs
/// (one case in four) push the pod past its aggregate SRAM so UNSAT
/// agreement is exercised too.
fn gen_program(rng: &mut Rng) -> String {
    let var = |i: u64| format!("v{i}");
    let ops = ["+", "-", "&", "|", "^"];
    let t0 = if rng.below(4) == 0 {
        rng.range(60_000_000, 90_000_000)
    } else {
        rng.range(64, 512)
    };
    let t1 = rng.range(64, 512);
    let n = rng.range(2, 7);
    let mut body = String::new();
    for _ in 0..n {
        match rng.below(5) {
            0 => body.push_str(&format!(
                "    {} = {} {} {};\n",
                var(rng.below(4)),
                var(rng.below(4)),
                ops[rng.below(ops.len() as u64) as usize],
                var(rng.below(4)),
            )),
            1 => body.push_str(&format!(
                "    if ({} > {}) {{\n        {} = {} + 1;\n    }}\n",
                var(rng.below(4)),
                rng.below(256),
                var(rng.below(4)),
                var(rng.below(4)),
            )),
            2 => {
                let t = rng.below(2);
                let k = var(rng.below(4));
                body.push_str(&format!(
                    "    if ({k} in t{t}) {{\n        {} = t{t}[{k}];\n    }}\n",
                    var(rng.below(4)),
                ));
            }
            3 => body.push_str(&format!(
                "    {} = crc32_hash({}, ipv4.srcAddr);\n",
                var(rng.below(4)),
                var(rng.below(4)),
            )),
            _ => body.push_str(&format!(
                "    ipv4.dstAddr = {} ^ ipv4.dstAddr;\n",
                var(rng.below(4)),
            )),
        }
    }
    format!(
        r#"
pipeline[GEN]{{generated}};
algorithm generated {{
    extern dict<bit[32] k, bit[32] v>[{t0}] t0;
    extern dict<bit[32] k, bit[32] v>[{t1}] t1;
{body}
}}
"#
    )
}

/// One MULTI-SW scope spanning the whole pod, Aggs to ToRs.
fn pod_scopes(k: usize) -> String {
    let aggs: Vec<String> = (1..=k / 2).map(|i| format!("Agg{i}")).collect();
    let tors: Vec<String> = (1..=k / 2).map(|i| format!("ToR{i}")).collect();
    format!(
        "generated: [ ToR*,Agg* | MULTI-SW | ({}->{}) ]",
        aggs.join(","),
        tors.join(",")
    )
}

enum Verdict {
    Placed(Box<CompileOutput>),
    Infeasible,
}

fn compile(case: usize, program: &str, scopes: &str, k: usize, profile: SolveProfile) -> Verdict {
    let topo = fat_tree_pod(k, "tofino-32q", "trident4");
    let req = CompileRequest::new(program, scopes, topo).with_solve_profile(profile);
    match Compiler::new().compile(&req) {
        Ok(out) => {
            assert!(
                out.degraded.is_none(),
                "case {case}: no limits set, nothing may degrade"
            );
            Verdict::Placed(Box::new(out))
        }
        // Resource infeasibility is the only legitimate failure for a
        // generated program that already passed the front end elsewhere.
        Err(CompileError::Synth(_)) => Verdict::Infeasible,
        Err(e) => panic!("case {case}: unexpected failure phase: {e}\n{program}"),
    }
}

/// The default (decomposing) profile and the monolithic reference agree on
/// every verdict over ≥200 seeded fat-tree instances (k=4 and k=8).
#[test]
fn accelerated_profile_agrees_with_monolithic_reference() {
    let mut rng = Rng::new(0x5eed_dec1);
    let mut placed = 0u64;
    let mut infeasible = 0u64;
    let mut cases_run = 0u64;
    for case in 0..200 {
        let k = if case % 8 == 7 { 8 } else { 4 };
        let program = gen_program(&mut rng);
        let scopes = pod_scopes(k);
        let default = compile(case, &program, &scopes, k, SolveProfile::default());
        let reference = compile(case, &program, &scopes, k, SolveProfile::thorough());
        cases_run += 1;
        match (default, reference) {
            (Verdict::Placed(a), Verdict::Placed(b)) => {
                placed += 1;
                for out in [&a, &b] {
                    assert!(
                        !out.placement.switches.is_empty(),
                        "case {case} (k={k}): empty placement\n{program}"
                    );
                    assert!(
                        !out.artifacts.is_empty(),
                        "case {case} (k={k}): no artifacts\n{program}"
                    );
                }
                // Both placements host every extern table in full across
                // each flow path — spot-check total entry conservation.
                for table in a.ir.externs.keys() {
                    let total = |o: &CompileOutput| -> u64 {
                        o.placement
                            .switches
                            .values()
                            .filter_map(|p| p.extern_entries.get(table))
                            .sum()
                    };
                    assert!(
                        (total(&a) > 0) == (total(&b) > 0),
                        "case {case} (k={k}): `{table}` hosted by one profile only\n{program}"
                    );
                }
            }
            (Verdict::Infeasible, Verdict::Infeasible) => infeasible += 1,
            (Verdict::Placed(_), Verdict::Infeasible) => panic!(
                "case {case} (k={k}): the default profile placed what the \
                 monolithic reference calls infeasible\n{program}"
            ),
            (Verdict::Infeasible, Verdict::Placed(_)) => {
                panic!("case {case} (k={k}): decomposition lost a feasible placement\n{program}")
            }
        }
    }
    assert!(cases_run >= 200, "only {cases_run} instances compiled");
    assert!(placed >= 100, "only {placed} SAT agreements explored");
    assert!(
        infeasible >= 20,
        "only {infeasible} UNSAT agreements explored"
    );
}
