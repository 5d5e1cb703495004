//! Cross-backend differential fuzzing through the semantic oracle.
//!
//! Every emitted artifact is parsed back into an executable model and
//! driven with seeded packets; the final observable state must match the
//! IR reference interpreter (`lyra::check_output`), and — for the same
//! program compiled to different ASICs — the backends must also agree
//! with each other on every canonical observable they share
//! (`lyra::oracle::run_case`).
//!
//! Randomness comes from a seeded xorshift generator (the workspace
//! builds offline with no external crates), so every run explores the
//! identical case set and failures reproduce from the printed case
//! index and seed.

mod common;

use common::Rng;
use lyra::oracle::run_case;
use lyra::{CompileOutput, CompileRequest, Compiler, OracleConfig};
use lyra_apps::figure9_corpus;
use lyra_diag::codes;
use lyra_topo::{Layer, Topology};

/// The three single-switch targets, one per backend language.
const ASICS: [&str; 3] = ["tofino-32q", "silicon-one", "trident4"];

fn single(asic: &str) -> Topology {
    let mut t = Topology::new();
    t.add_switch("S1", Layer::ToR, asic);
    t
}

/// The oracle's verdict on every Figure 9 program, PER-SW on one Tofino
/// and on one Trident-4: 17 of the 20 compiles are clean. The other three
/// are ROADMAP item 1's known bugs, each reported once as `LYR0601` on the
/// first case; the fix for item 1 turns them clean.
#[test]
fn figure9_corpus_oracle_verdicts() {
    // Known divergences: (program, ASIC) → the first observable that differs.
    let known = [
        // Algorithm 1's sibling merge puts the `arp_table` query inside the
        // `ipv4_route` table, so its hit flag reads the wrong lookup.
        ("simple_router", "tofino-32q", "`md.simple_router_t6`"),
        // The generated `switch` program looks up a local it never
        // assigns: the reference reads 0, the artifact a random key.
        ("switch", "tofino-32q", "`ethernet.dst_mac`"),
        ("switch", "trident4", "`ethernet.dst_mac`"),
    ];
    let mut clean = 0;
    for asic in ["tofino-32q", "trident4"] {
        for entry in figure9_corpus() {
            let scopes: Vec<String> = entry
                .scopes
                .lines()
                .filter_map(|l| l.split(':').next().map(str::trim))
                .filter(|a| !a.is_empty())
                .map(|a| format!("{a}: [ S1 | PER-SW | - ]"))
                .collect();
            let out = Compiler::new()
                .compile(&CompileRequest::new(
                    &entry.source,
                    &scopes.join("\n"),
                    single(asic),
                ))
                .unwrap_or_else(|e| panic!("{} @{asic}: {e}", entry.name));
            let report = lyra::check_output(&out, &OracleConfig::default());
            let diags = render_diags(&report);
            match known.iter().find(|k| (k.0, k.1) == (entry.name, asic)) {
                None => {
                    assert!(report.is_clean(), "{} @{asic}:\n{diags}", entry.name);
                    clean += 1;
                }
                Some((_, _, first)) => {
                    let [d] = &report.diagnostics[..] else {
                        panic!("{} @{asic}: want one LYR0601, got\n{diags}", entry.name);
                    };
                    assert_eq!(d.code, Some(codes::ORACLE_DIVERGENCE), "{diags}");
                    assert!(
                        d.message
                            .contains(&format!("on case 0 — {first}: reference")),
                        "{} @{asic}: {diags}",
                        entry.name
                    );
                }
            }
        }
    }
    assert_eq!(clean, 17);
}

/// A random but oracle-friendly Lyra algorithm: straight-line compute,
/// conditionals, extern lookups (both membership and value reads), global
/// register bumps, hashes, and intrinsic actions.
fn gen_program(rng: &mut Rng) -> String {
    let var = |i: u64| format!("v{i}");
    let ops = ["+", "-", "&", "|", "^"];
    let actions = ["drop();", "copy_to_cpu();", "mirror(1);"];
    let n = rng.range(2, 9);
    let mut body = String::new();
    for _ in 0..n {
        match rng.below(7) {
            0 => {
                body.push_str(&format!(
                    "    {} = {} {} {};\n",
                    var(rng.below(5)),
                    var(rng.below(5)),
                    ops[rng.below(ops.len() as u64) as usize],
                    var(rng.below(5)),
                ));
            }
            1 => {
                body.push_str(&format!(
                    "    if ({} > {}) {{\n        {} = {} + 1;\n    }}\n",
                    var(rng.below(5)),
                    rng.below(256),
                    var(rng.below(5)),
                    var(rng.below(5)),
                ));
            }
            2 => {
                let t = rng.below(2);
                let k = var(rng.below(5));
                body.push_str(&format!(
                    "    if ({k} in t{t}) {{\n        {} = t{t}[{k}];\n    }}\n",
                    var(rng.below(5)),
                ));
            }
            3 => {
                body.push_str(&format!(
                    "    g0[{}] = g0[{}] + 1;\n",
                    rng.below(8),
                    rng.below(8),
                ));
            }
            4 => {
                body.push_str(&format!(
                    "    {} = crc32_hash({}, ipv4.srcAddr);\n",
                    var(rng.below(5)),
                    var(rng.below(5)),
                ));
            }
            5 => {
                body.push_str(&format!(
                    "    if ({} == {}) {{\n        {}\n    }}\n",
                    var(rng.below(5)),
                    rng.below(16),
                    actions[rng.below(actions.len() as u64) as usize],
                ));
            }
            _ => {
                body.push_str(&format!(
                    "    ipv4.dstAddr = {} ^ ipv4.dstAddr;\n",
                    var(rng.below(5)),
                ));
            }
        }
    }
    format!(
        r#"
pipeline[GEN]{{generated}};
algorithm generated {{
    extern dict<bit[32] k, bit[32] v>[64] t0;
    extern dict<bit[32] k, bit[32] v>[64] t1;
    global bit[32][16] g0;
{body}
}}
"#
    )
}

fn compile_on(program: &str, asic: &str) -> Option<CompileOutput> {
    Compiler::new()
        .compile(&CompileRequest::new(
            program,
            "generated: [ S1 | PER-SW | - ]",
            single(asic),
        ))
        .ok()
}

fn render_diags(report: &lyra::OracleReport) -> String {
    report
        .diagnostics
        .iter()
        .map(|d| {
            let mut s = match d.code {
                Some(c) => format!("[{c}] {}", d.message),
                None => d.message.clone(),
            };
            for n in &d.notes {
                s.push_str(&format!("\n  note: {n}"));
            }
            s
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every emitted artifact agrees with the IR reference interpreter on
/// hundreds of seeded packets, for every backend.
#[test]
fn emitted_code_matches_ir_reference() {
    let mut rng = Rng::new(0x5eed_6001);
    let cfg = OracleConfig {
        cases: 24,
        seed: 0x0d15ea5e,
    };
    let mut cases_run = [0u64; 3];
    for case in 0..36 {
        let program = gen_program(&mut rng);
        for (ai, asic) in ASICS.iter().enumerate() {
            let Some(out) = compile_on(&program, asic) else {
                continue; // clean resource-limit failures are fine
            };
            let report = lyra::check_output(&out, &cfg);
            assert!(
                report.is_clean(),
                "case {case} on {asic}: oracle divergence\n{}\nprogram:\n{program}\ncode:\n{}",
                render_diags(&report),
                out.artifacts[0].code
            );
            cases_run[ai] += cfg.cases * report.artifacts_checked as u64;
        }
    }
    for (ai, asic) in ASICS.iter().enumerate() {
        assert!(
            cases_run[ai] >= 200,
            "only {} IR-vs-emitted cases ran on {asic}",
            cases_run[ai]
        );
    }
}

/// The same program compiled to two different ASICs produces artifacts
/// that agree with each other: identical canonical effects, identical
/// register contents, and identical values on every canonical observable
/// the two backends share.
#[test]
fn backend_pairs_agree() {
    let mut rng = Rng::new(0x5eed_6002);
    let mut pair_cases = 0u64;
    for case in 0..40 {
        let program = gen_program(&mut rng);
        let outs: Vec<CompileOutput> = match ASICS
            .iter()
            .map(|asic| compile_on(&program, asic))
            .collect::<Option<Vec<_>>>()
        {
            Some(v) => v,
            None => continue, // needs all three backends
        };
        for case_i in 0..8u64 {
            let seed = 0x0bed_f00d_u64
                .wrapping_add((case as u64) << 32)
                .wrapping_add(case_i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let runs: Vec<_> = outs
                .iter()
                .map(|out| {
                    run_case(out, &out.artifacts[0], seed).unwrap_or_else(|e| {
                        panic!("case {case}.{case_i}: oracle cannot run: {e}\n{program}")
                    })
                })
                .collect();
            for a in 0..runs.len() {
                for b in a + 1..runs.len() {
                    let (_, ea, ia) = &runs[a];
                    let (_, eb, ib) = &runs[b];
                    assert_eq!(
                        ia, ib,
                        "case {case}.{case_i}: {} and {} generated different inputs",
                        ASICS[a], ASICS[b]
                    );
                    assert_eq!(
                        ea.effects, eb.effects,
                        "case {case}.{case_i}: effects diverge between {} and {}\n{program}",
                        ASICS[a], ASICS[b]
                    );
                    assert_eq!(
                        ea.globals, eb.globals,
                        "case {case}.{case_i}: registers diverge between {} and {}\n{program}",
                        ASICS[a], ASICS[b]
                    );
                    for (name, va) in &ea.vars {
                        if let Some(vb) = eb.vars.get(name) {
                            assert_eq!(
                                va, vb,
                                "case {case}.{case_i}: `{name}` diverges between {} and {}\n{program}",
                                ASICS[a], ASICS[b]
                            );
                        }
                    }
                    pair_cases += 1;
                }
            }
        }
    }
    // 40 programs x 8 seeds minus clean compile failures; the floor keeps
    // this an actual fuzzer rather than a vacuous loop.
    assert!(
        pair_cases / 3 >= 200,
        "only {} cases per backend pair ran",
        pair_cases / 3
    );
}

/// Property: the structural validator accepts every artifact the three
/// backends emit over the generator — emitted code is always well-formed
/// (balanced braces, every applied table declared, every referenced
/// action/function defined).
#[test]
fn validator_accepts_all_emitted_artifacts() {
    let mut rng = Rng::new(0x5eed_6004);
    let mut validated = 0u64;
    for case in 0..25 {
        let program = gen_program(&mut rng);
        for asic in ASICS {
            let Some(out) = compile_on(&program, asic) else {
                continue;
            };
            let summaries = out.validate_all().unwrap_or_else(|e| {
                panic!(
                    "case {case} on {asic}: emitted code fails validation: {e}\n{program}\n{}",
                    out.artifacts[0].code
                )
            });
            validated += summaries.len() as u64;
        }
    }
    assert!(validated >= 50, "only {validated} artifacts validated");
}

/// The reference side of `run_case` is backend-independent: for one
/// program and one seed, every backend's run starts from the identical
/// canonical input and reference outcome.
#[test]
fn reference_outcome_is_backend_independent() {
    let mut rng = Rng::new(0x5eed_6003);
    for case in 0..12 {
        let program = gen_program(&mut rng);
        let outs: Vec<CompileOutput> = match ASICS
            .iter()
            .map(|asic| compile_on(&program, asic))
            .collect::<Option<Vec<_>>>()
        {
            Some(v) => v,
            None => continue,
        };
        let seed = 0xfeed_0000 + case as u64;
        let runs: Vec<_> = outs
            .iter()
            .map(|out| run_case(out, &out.artifacts[0], seed).expect("runnable"))
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.2, runs[0].2, "case {case}: inputs differ\n{program}");
            assert_eq!(
                r.0.effects, runs[0].0.effects,
                "case {case}: reference effects differ\n{program}"
            );
            assert_eq!(
                r.0.globals, runs[0].0.globals,
                "case {case}: reference registers differ\n{program}"
            );
        }
    }
}

/// The metadata fields an artifact declares: P4₁₄'s `lyra_metadata_t`,
/// P4₁₆'s `metadata_t` or NPL's bus, bridge fields left out.
fn declared_metadata(code: &str) -> Vec<&str> {
    let opener = [
        "header_type lyra_metadata_t {",
        "struct metadata_t {",
        "bus lyra_bus {",
    ];
    let mut lines = code.lines().skip_while(|l| !opener.contains(l));
    lines.next();
    lines
        .map(str::trim)
        .take_while(|l| *l != "}")
        .filter_map(|l| l.strip_suffix(';'))
        .filter_map(|l| match l.split_once(" : ") {
            Some((name, _)) => Some(name),
            None => l.split_whitespace().last(),
        })
        .filter(|name| !name.starts_with("bridge_"))
        .collect()
}

/// Every IR value a switch program stores gets a field of its own. The
/// three programs each gave two values one field: a temporary `%t1` and a
/// local `t1`; `a`'s local `b_c` and `a_b`'s local `c` (both `a_b_c`); an
/// inlined `load_balancing$1$hash` and a local `load_balancing_1_hash`.
/// Each backend then read the wrong value (`LYR0601`), and P4₁₆ and NPL
/// declared `a_b_c` twice. The fourth gives `lyra`'s local `cmp_a` the
/// name of P4₁₄'s comparison scratch field `lyra_cmp_a`.
#[test]
fn storage_names_are_injective() {
    let programs = [
        (
            "pipeline[P]{coll};
             algorithm coll {
                 bit[8] t0; bit[8] t1; bit[8] t2; bit[8] t3; bit[8] t4;
                 t0 = ipv4.protocol; t1 = ipv4.protocol; t2 = ipv4.protocol;
                 t3 = ipv4.protocol; t4 = ipv4.protocol;
                 if (ipv4.ttl > 3) {
                     ipv4.ttl = 1;
                     ipv4.protocol = t0 + t1 + t2 + t3 + t4;
                 }
             }",
            "coll: [ S1 | PER-SW | - ]",
        ),
        (
            "pipeline[P]{a -> a_b};
             algorithm a { bit[8] b_c; b_c = ipv4.ttl + 1; ipv4.protocol = b_c; }
             algorithm a_b { bit[8] c; c = ipv4.ttl + 2; ipv4.ttl = c; }",
            "a: [ S1 | PER-SW | - ]\na_b: [ S1 | PER-SW | - ]",
        ),
        (
            "pipeline[LB]{lb};
             algorithm lb {
                 bit[32] load_balancing_1_hash;
                 load_balancing_1_hash = ipv4.srcAddr + 7;
                 load_balancing();
                 ipv4.srcAddr = load_balancing_1_hash;
             }
             >FUNCTIONS:
             func load_balancing() {
                 bit[32] hash;
                 hash = ipv4.dstAddr + 1;
                 ipv4.dstAddr = hash;
             }",
            "lb: [ S1 | PER-SW | - ]",
        ),
        (
            "pipeline[P]{lyra};
             algorithm lyra {
                 bit[8] cmp_a; bit[8] x;
                 cmp_a = ipv4.ttl + 1;
                 x = ipv4.protocol == 6;
                 ipv4.protocol = cmp_a + x;
             }",
            "lyra: [ S1 | PER-SW | - ]",
        ),
    ];
    let cfg = OracleConfig {
        cases: 200,
        ..OracleConfig::default()
    };
    for (program, scopes) in programs {
        for asic in ASICS {
            let out = Compiler::new()
                .compile(&CompileRequest::new(program, scopes, single(asic)))
                .unwrap_or_else(|e| panic!("{asic}: {e}\n{program}"));
            let report = lyra::check_output(&out, &cfg);
            assert!(report.is_clean(), "{asic}:\n{}", render_diags(&report));
            for a in &out.artifacts {
                let mut fields = declared_metadata(&a.code);
                assert!(!fields.is_empty(), "{asic}: no metadata in\n{}", a.code);
                fields.sort_unstable();
                let n = fields.len();
                fields.dedup();
                assert_eq!(
                    fields.len(),
                    n,
                    "{asic}: a field declared twice\n{}",
                    a.code
                );
            }
        }
    }
}
