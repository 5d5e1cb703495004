//! IR invariant checker.
//!
//! Asserts the structural properties every front-end pass is supposed to
//! establish, so a broken pass fails loudly at its own boundary instead of
//! surfacing later as a codegen divergence:
//!
//! * **SSA single definition** — every value is defined by at most one
//!   instruction, and its `def` back-pointer names exactly that
//!   instruction;
//! * **def-before-use** — every operand and predicate read refers to a
//!   live-in value or to a value defined by an *earlier* instruction;
//! * **shared storage** — all versions of a base live in one slot, so a
//!   read names the latest version written before it, and a `%t`
//!   temporary is never live-in;
//! * **width consistency** — after inference, all SSA versions of a base
//!   agree on one width and no destination is left at width 0;
//! * **predication exclusivity** — every `neg_of` link points at a
//!   distinct, existing value (and, after inference, both sides are
//!   1-bit), so the mutually-exclusive predicate blocks of §5.2 are sound;
//! * **dependency acyclicity** — the instruction dependency graph only has
//!   edges from later instructions to earlier ones.
//!
//! Debug builds run the checker between front-end passes (`lower_program`
//! → [`Stage::PostLower`], `infer_widths` → [`Stage::PostWidths`]);
//! violations panic with an `LYR0604`-style message. Release builds skip
//! it.

use std::collections::BTreeMap;

use crate::instr::*;

/// Which front-end pass boundary is being checked. Width rules only apply
/// once inference has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// After lowering to SSA, before width inference.
    PostLower,
    /// After width inference (the front-end's final state).
    PostWidths,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::PostLower => "post-lower",
            Stage::PostWidths => "post-widths",
        }
    }
}

/// Check one algorithm. Returns every violation found (empty = sound).
pub fn verify_algorithm(alg: &IrAlgorithm, stage: Stage) -> Vec<String> {
    let mut errs = Vec::new();
    let ctx = |msg: String| format!("[{}] {}: {msg}", stage.name(), alg.name);

    // Map value -> defining instruction, from the instruction side.
    let mut def_of: BTreeMap<ValueId, InstrId> = BTreeMap::new();
    for id in alg.instr_ids() {
        if let Some(d) = alg.instr(id).dst {
            if d.index() >= alg.values.len() {
                errs.push(ctx(format!("instr {} defines unknown value {:?}", id.0, d)));
                continue;
            }
            if let Some(prev) = def_of.insert(d, id) {
                errs.push(ctx(format!(
                    "value {} defined twice (instrs {} and {})",
                    alg.value(d).name(),
                    prev.0,
                    id.0
                )));
            }
        }
    }
    // ... and agree with the value-side back-pointers.
    for (vi, info) in alg.values.iter().enumerate() {
        let v = ValueId(vi as u32);
        match (info.def, def_of.get(&v)) {
            (Some(d), Some(&actual)) if d != actual => errs.push(ctx(format!(
                "value {} says def={} but instr {} defines it",
                info.name(),
                d.0,
                actual.0
            ))),
            (Some(d), None) => {
                if d.index() >= alg.instrs.len() {
                    errs.push(ctx(format!(
                        "value {} names out-of-range def instr {}",
                        info.name(),
                        d.0
                    )));
                } else {
                    errs.push(ctx(format!(
                        "value {} names def instr {} which does not define it",
                        info.name(),
                        d.0
                    )));
                }
            }
            (None, Some(&actual)) => errs.push(ctx(format!(
                "live-in value {} is defined by instr {}",
                info.name(),
                actual.0
            ))),
            (None, None) if info.base.starts_with('%') => errs.push(ctx(format!(
                "temporary {} is live-in (read before any write)",
                info.name()
            ))),
            _ => {}
        }
    }

    // Def-before-use, and shared storage: a read names the latest version
    // of its base written before it.
    let mut latest: BTreeMap<&str, ValueId> = BTreeMap::new();
    for id in alg.instr_ids() {
        let instr = alg.instr(id);
        let reads = instr.op.reads().into_iter().filter_map(|o| match o {
            Operand::Value(v) => Some(("reads", v)),
            Operand::Const(_) => None,
        });
        for (what, v) in reads.chain(instr.pred.map(|p| ("is predicated on", p))) {
            if v.index() >= alg.values.len() {
                errs.push(ctx(format!("instr {} {what} unknown value {:?}", id.0, v)));
                continue;
            }
            let info = alg.value(v);
            if let Some(d) = info.def.filter(|d| d.index() >= id.index()) {
                errs.push(ctx(format!(
                    "instr {} {what} {} before its definition at instr {}",
                    id.0,
                    info.name(),
                    d.0
                )));
            } else if let Some(&l) = latest.get(info.base.as_str()).filter(|&&l| l != v) {
                errs.push(ctx(format!(
                    "instr {} {what} {} after {} overwrote its storage",
                    id.0,
                    info.name(),
                    alg.value(l).name()
                )));
            }
        }
        if let Some(d) = instr.dst.filter(|d| d.index() < alg.values.len()) {
            latest.insert(&alg.value(d).base, d);
        }
    }

    // Predication exclusivity: neg_of links are well-formed.
    for (vi, info) in alg.values.iter().enumerate() {
        if let Some(n) = info.neg_of {
            if n.index() >= alg.values.len() {
                errs.push(ctx(format!(
                    "value {} negates unknown value {:?}",
                    info.name(),
                    n
                )));
                continue;
            }
            if n.index() == vi {
                errs.push(ctx(format!("value {} negates itself", info.name())));
            }
            if stage == Stage::PostWidths && info.width != 1 {
                errs.push(ctx(format!(
                    "negation value {} has width {} (want 1)",
                    info.name(),
                    info.width
                )));
            }
        }
    }

    // Width consistency after inference.
    if stage == Stage::PostWidths {
        let mut base_width: BTreeMap<&str, (u32, &ValueInfo)> = BTreeMap::new();
        for info in &alg.values {
            match base_width.get(info.base.as_str()) {
                None => {
                    base_width.insert(&info.base, (info.width, info));
                }
                Some(&(w, first)) if w != info.width => errs.push(ctx(format!(
                    "base `{}` has inconsistent widths: {} is {w}, {} is {}",
                    info.base,
                    first.name(),
                    info.name(),
                    info.width
                ))),
                _ => {}
            }
        }
        for id in alg.instr_ids() {
            if let Some(d) = alg.instr(id).dst {
                if alg.value(d).width == 0 {
                    errs.push(ctx(format!(
                        "instr {} destination {} left at width 0 after inference",
                        id.0,
                        alg.value(d).name()
                    )));
                }
            }
        }
    }

    // Dependency acyclicity: every dependency edge points strictly backwards
    // in program order (straight-line SSA code cannot legally depend
    // forward).
    let deps = crate::deps::dependency_graph(alg);
    for id in alg.instr_ids() {
        for &d in deps.pred_list(id) {
            if d.index() >= id.index() {
                errs.push(ctx(format!(
                    "instr {} depends on instr {} which is not earlier",
                    id.0, d.0
                )));
            }
        }
    }
    errs
}

/// Check every algorithm of a program.
pub fn verify_program(ir: &IrProgram, stage: Stage) -> Vec<String> {
    ir.algorithms
        .iter()
        .flat_map(|a| verify_algorithm(a, stage))
        .collect()
}

/// Debug-build assertion used at pass boundaries: panics with an
/// `LYR0604`-style message listing every violated invariant. A no-op in
/// release builds.
pub fn debug_verify(ir: &IrProgram, stage: Stage) {
    if cfg!(debug_assertions) {
        let errs = verify_program(ir, stage);
        assert!(
            errs.is_empty(),
            "[LYR0604] IR invariants violated at {}:\n  {}",
            stage.name(),
            errs.join("\n  ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    #[test]
    fn corpus_passes_both_stages() {
        for src in [
            "pipeline[P]{a}; algorithm a { x = 1; y = x + 2; }",
            "pipeline[P]{a}; algorithm a { if (c == 1) { x = 10; } else { x = 20; } }",
            r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[16] t;
                global bit[32][8] g;
                h = key in t;
                if (h) { out = t[key]; }
                g[0] = g[0] + 1;
            }
            "#,
        ] {
            let ir = frontend(src).unwrap();
            assert!(verify_program(&ir, Stage::PostLower).is_empty(), "{src}");
            assert!(verify_program(&ir, Stage::PostWidths).is_empty(), "{src}");
        }
    }

    #[test]
    fn double_definition_detected() {
        let mut ir = frontend("pipeline[P]{a}; algorithm a { x = 1; y = 2; }").unwrap();
        let alg = &mut ir.algorithms[0];
        let d0 = alg.instrs[0].dst.unwrap();
        alg.instrs[1].dst = Some(d0);
        let errs = verify_program(&ir, Stage::PostLower);
        assert!(errs.iter().any(|e| e.contains("defined twice")), "{errs:?}");
    }

    #[test]
    fn use_before_def_detected() {
        let mut ir = frontend("pipeline[P]{a}; algorithm a { x = 1; y = x; }").unwrap();
        let alg = &mut ir.algorithms[0];
        // Swap the two instructions so `y = x` reads x before `x = 1`.
        alg.instrs.swap(0, 1);
        // Fix up def back-pointers to the swapped positions so only the
        // ordering violation remains.
        for (i, instr) in alg.instrs.iter().enumerate() {
            if let Some(d) = instr.dst {
                alg.values[d.index()].def = Some(InstrId(i as u32));
            }
        }
        let errs = verify_program(&ir, Stage::PostLower);
        assert!(
            errs.iter().any(|e| e.contains("before its definition")),
            "{errs:?}"
        );
    }

    #[test]
    fn stale_version_read_detected() {
        let mut ir = frontend("pipeline[P]{a}; algorithm a { x = 1; x = 2; y = x; }").unwrap();
        let alg = &mut ir.algorithms[0];
        // Make `y = x` read x#1, defined before it but overwritten in the
        // shared slot by `x = 2`.
        let x1 = alg.instrs[0].dst.unwrap();
        alg.instrs[2].op = IrOp::Assign(Operand::Value(x1));
        let errs = verify_program(&ir, Stage::PostLower);
        assert!(
            errs.iter()
                .any(|e| e.contains("reads x#1 after x#2 overwrote")),
            "{errs:?}"
        );
    }

    #[test]
    fn live_in_temporary_detected() {
        let mut ir = frontend("pipeline[P]{a}; algorithm a { y = (a + b) * c; }").unwrap();
        let alg = &mut ir.algorithms[0];
        // Drop the write of `%t1` so `y = %t1 * c` reads it live-in.
        let t = alg.instrs[0].dst.take().unwrap();
        alg.values[t.index()].def = None;
        let errs = verify_program(&ir, Stage::PostLower);
        assert!(
            errs.iter()
                .any(|e| e.contains("temporary %t1#1 is live-in")),
            "{errs:?}"
        );
    }

    #[test]
    fn width_mismatch_detected() {
        let mut ir =
            frontend("pipeline[P]{a}; algorithm a { bit[8] x; x = 1; x = x + 1; }").unwrap();
        let alg = &mut ir.algorithms[0];
        let vi = alg.values.iter().position(|v| v.base == "x").unwrap();
        alg.values[vi].width = 16; // disagree with the other version of x
        let errs = verify_program(&ir, Stage::PostWidths);
        assert!(
            errs.iter().any(|e| e.contains("inconsistent widths")),
            "{errs:?}"
        );
    }

    #[test]
    fn self_negation_detected() {
        let mut ir =
            frontend("pipeline[P]{a}; algorithm a { if (c) { x = 1; } else { x = 2; } }").unwrap();
        let alg = &mut ir.algorithms[0];
        let vi = alg.values.iter().position(|v| v.neg_of.is_some()).unwrap();
        alg.values[vi].neg_of = Some(ValueId(vi as u32));
        let errs = verify_program(&ir, Stage::PostLower);
        assert!(
            errs.iter().any(|e| e.contains("negates itself")),
            "{errs:?}"
        );
    }
}
