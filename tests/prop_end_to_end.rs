//! Property tests across the full pipeline: randomly generated Lyra
//! programs must either compile to valid code or fail with a clean
//! diagnostic, and every successful compilation must uphold the placement
//! invariants.
//!
//! Randomness comes from a seeded xorshift generator (the workspace builds
//! offline with no external crates), so every run explores the identical
//! case set and failures reproduce from the printed case index.

mod common;

use common::Rng;
use lyra::{CompileRequest, Compiler};
use lyra_topo::{Layer, Topology};

/// A random but well-formed Lyra algorithm body.
#[derive(Debug, Clone)]
enum GenStmt {
    Assign {
        dst: usize,
        a: usize,
        b: usize,
        op: usize,
    },
    If {
        cond_var: usize,
        cmp_const: u8,
        then_assign: (usize, usize),
        has_else: bool,
    },
    TableCheck {
        table: usize,
        key: usize,
        assign: (usize, usize),
    },
    GlobalBump {
        global: usize,
        idx: usize,
    },
    ActionCall {
        which: usize,
    },
}

fn gen_stmt(rng: &mut Rng) -> GenStmt {
    match rng.below(5) {
        0 => GenStmt::Assign {
            dst: rng.below(6) as usize,
            a: rng.below(6) as usize,
            b: rng.below(6) as usize,
            op: rng.below(6) as usize,
        },
        1 => GenStmt::If {
            cond_var: rng.below(6) as usize,
            cmp_const: rng.below(256) as u8,
            then_assign: (rng.below(6) as usize, rng.below(6) as usize),
            has_else: rng.next() & 1 == 1,
        },
        2 => GenStmt::TableCheck {
            table: rng.below(2) as usize,
            key: rng.below(6) as usize,
            assign: (rng.below(6) as usize, rng.below(6) as usize),
        },
        3 => GenStmt::GlobalBump {
            global: rng.below(2) as usize,
            idx: rng.below(6) as usize,
        },
        _ => GenStmt::ActionCall {
            which: rng.below(3) as usize,
        },
    }
}

fn render(stmts: &[GenStmt]) -> String {
    let var = |i: usize| format!("v{i}");
    let ops = ["+", "-", "&", "|", "^", "<<"];
    let actions = ["drop();", "copy_to_cpu();", "mirror(1);"];
    let mut body = String::new();
    for s in stmts {
        match s {
            GenStmt::Assign { dst, a, b, op } => {
                body.push_str(&format!(
                    "    {} = {} {} {};\n",
                    var(*dst),
                    var(*a),
                    ops[*op % ops.len()],
                    var(*b)
                ));
            }
            GenStmt::If {
                cond_var,
                cmp_const,
                then_assign,
                has_else,
            } => {
                body.push_str(&format!("    if ({} == {cmp_const}) {{\n", var(*cond_var)));
                body.push_str(&format!(
                    "        {} = {} + 1;\n    }}\n",
                    var(then_assign.0),
                    var(then_assign.1)
                ));
                if *has_else {
                    body.push_str(&format!(
                        "    else {{\n        {} = 0;\n    }}\n",
                        var(then_assign.0)
                    ));
                }
            }
            GenStmt::TableCheck { table, key, assign } => {
                body.push_str(&format!("    if ({} in t{table}) {{\n", var(*key)));
                body.push_str(&format!(
                    "        {} = t{table}[{}];\n    }}\n",
                    var(assign.0),
                    var(*key)
                ));
            }
            GenStmt::GlobalBump { global, idx } => {
                body.push_str(&format!(
                    "    g{global}[{}] = g{global}[{}] + 1;\n",
                    var(*idx),
                    var(*idx)
                ));
            }
            GenStmt::ActionCall { which } => {
                body.push_str(&format!("    {}\n", actions[*which % actions.len()]));
            }
        }
    }
    format!(
        r#"
pipeline[GEN]{{generated}};
algorithm generated {{
    extern dict<bit[32] k, bit[32] v>[256] t0;
    extern dict<bit[32] k, bit[32] v>[256] t1;
    global bit[32][64] g0;
    global bit[32][64] g1;
{body}
}}
"#
    )
}

fn single(asic: &str) -> Topology {
    let mut t = Topology::new();
    t.add_switch("S1", Layer::ToR, asic);
    t
}

#[test]
fn random_programs_compile_and_validate() {
    let mut rng = Rng::new(0x5eed_2001);
    for case in 0..48 {
        let stmts: Vec<GenStmt> = (0..rng.range(1, 11)).map(|_| gen_stmt(&mut rng)).collect();
        let program = render(&stmts);
        for asic in ["tofino-32q", "trident4", "silicon-one"] {
            let result = Compiler::new().compile(&CompileRequest::new(
                &program,
                "generated: [ S1 | PER-SW | - ]",
                single(asic),
            ));
            match result {
                Ok(out) => {
                    // Generated code must pass structural validation.
                    let v = out.validate_all();
                    assert!(
                        v.is_ok(),
                        "case {case}: invalid code on {asic}: {:?}\nprogram:\n{program}\ncode:\n{}",
                        v.err().map(|e| e.to_string()),
                        out.artifacts[0].code
                    );
                    // Placement covers the single switch.
                    assert!(out.placement.used_switches() <= 1, "case {case}");
                }
                Err(e) => {
                    // Clean failures are acceptable (resource limits), panics
                    // are not — and every failure must carry a structured
                    // diagnostic.
                    assert!(
                        !e.diagnostics().is_empty(),
                        "case {case}: error without diagnostics on {asic}:\n{program}"
                    );
                }
            }
        }
    }
}

#[test]
fn compilation_is_deterministic() {
    let mut rng = Rng::new(0x5eed_2002);
    for case in 0..24 {
        let stmts: Vec<GenStmt> = (0..rng.range(1, 7)).map(|_| gen_stmt(&mut rng)).collect();
        let program = render(&stmts);
        let req = CompileRequest::new(
            &program,
            "generated: [ S1 | PER-SW | - ]",
            single("tofino-32q"),
        );
        let compile = || Compiler::new().compile(&req);
        match (compile(), compile()) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.artifacts.len(), b.artifacts.len(), "case {case}");
                for (x, y) in a.artifacts.iter().zip(&b.artifacts) {
                    assert_eq!(x.code, y.code, "case {case}: nondeterministic codegen");
                }
                assert_eq!(
                    a.solver.decisions, b.solver.decisions,
                    "case {case}: nondeterministic search"
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "case {case}: nondeterministic error"
                )
            }
            (a, b) => panic!(
                "case {case}: feasibility flapped: {:?} vs {:?}",
                a.map(|_| "ok"),
                b.map(|_| "ok")
            ),
        }
    }
}
