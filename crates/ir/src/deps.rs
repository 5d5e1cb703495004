//! Instruction dependency analysis (§4.3). Because the IR is straight-line
//! SSA, read-after-write edges are direct def-use lookups; the graph also
//! serializes side-effecting instructions that touch the same resource (the
//! same extern table, the same global register array, or the same builtin
//! action target), which the paper treats implicitly via program order.

use std::collections::BTreeMap;

use crate::instr::*;

/// The instruction dependency graph of one algorithm: `a → b` means `b`
/// must execute after `a` (b reads a value a writes, or both touch the same
/// stateful resource).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepGraph {
    /// Successor lists per instruction.
    pub succs: Vec<Vec<InstrId>>,
    /// Predecessor lists per instruction.
    pub preds: Vec<Vec<InstrId>>,
}

impl DepGraph {
    /// Does `b` depend directly on `a`?
    pub fn depends(&self, b: InstrId, a: InstrId) -> bool {
        self.preds[b.index()].contains(&a)
    }

    /// Does `b` depend on `a` transitively?
    pub fn depends_transitively(&self, b: InstrId, a: InstrId) -> bool {
        let mut stack = vec![b];
        let mut seen = vec![false; self.preds.len()];
        while let Some(cur) = stack.pop() {
            if cur == a {
                return true;
            }
            for &p in &self.preds[cur.index()] {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        false
    }

    /// Longest path length (in edges) through the dependency graph — a lower
    /// bound on pipeline stages needed.
    #[cfg(test)]
    pub(crate) fn critical_path_len(&self) -> usize {
        let n = self.succs.len();
        let mut depth = vec![0usize; n];
        // Instructions are in program order, and all edges go forward.
        for i in 0..n {
            for &s in &self.succs[i] {
                depth[s.index()] = depth[s.index()].max(depth[i] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// All direct predecessors of `i`.
    pub fn pred_list(&self, i: InstrId) -> &[InstrId] {
        &self.preds[i.index()]
    }
}

/// Build the dependency graph for an algorithm.
pub fn dependency_graph(alg: &IrAlgorithm) -> DepGraph {
    let n = alg.instrs.len();
    let mut succs = vec![Vec::new(); n];
    let mut preds = vec![Vec::new(); n];
    let add_edge =
        |succs: &mut Vec<Vec<InstrId>>, preds: &mut Vec<Vec<InstrId>>, a: InstrId, b: InstrId| {
            if a != b && !succs[a.index()].contains(&b) {
                succs[a.index()].push(b);
                preds[b.index()].push(a);
            }
        };

    // Def-use edges via SSA values (including predicate reads).
    for (bi, instr) in alg.instrs.iter().enumerate() {
        let b = InstrId(bi as u32);
        let mut reads: Vec<Operand> = instr.op.reads();
        if let Some(p) = instr.pred {
            reads.push(Operand::Value(p));
        }
        for r in reads {
            if let Operand::Value(v) = r {
                if let Some(def) = alg.value(v).def {
                    add_edge(&mut succs, &mut preds, def, b);
                }
            }
        }
    }

    // Storage hazards: SSA removes write-after-read and write-after-write
    // dependencies, but every version of a base shares physical storage
    // (one PHV field / metadata slot), so a later write must still execute
    // after earlier reads and writes of the same base — otherwise placing
    // the writer on an upstream switch would corrupt the reader's value.
    let mut last_write: BTreeMap<String, InstrId> = BTreeMap::new();
    let mut reads_since_write: BTreeMap<String, Vec<InstrId>> = BTreeMap::new();
    for (bi, instr) in alg.instrs.iter().enumerate() {
        let b = InstrId(bi as u32);
        let mut read_bases: Vec<String> = Vec::new();
        for o in instr.op.reads() {
            if let Operand::Value(v) = o {
                read_bases.push(alg.value(v).base.clone());
            }
        }
        if let Some(p) = instr.pred {
            read_bases.push(alg.value(p).base.clone());
        }
        for base in read_bases {
            reads_since_write.entry(base).or_default().push(b);
        }
        if let Some(d) = instr.dst {
            let base = alg.value(d).base.clone();
            // Instructions in mutually-exclusive branches never both
            // execute, so no storage hazard exists between them (this keeps
            // if/else stores to the same field mergeable into one table).
            let exclusive = |other: InstrId| -> bool {
                match (alg.instr(other).pred, instr.pred) {
                    (Some(p), Some(q)) => crate::blocks::preds_mutually_exclusive(alg, p, q),
                    _ => false,
                }
            };
            // WAW: after the previous write.
            if let Some(&w) = last_write.get(&base) {
                if !exclusive(w) {
                    add_edge(&mut succs, &mut preds, w, b);
                }
            }
            // WAR: after every read of the previous version.
            if let Some(readers) = reads_since_write.remove(&base) {
                for r in readers {
                    if !exclusive(r) {
                        add_edge(&mut succs, &mut preds, r, b);
                    }
                }
            }
            last_write.insert(base, b);
        }
    }

    // Resource serialization: program order between instructions touching
    // the same stateful resource.
    let mut last_touch: BTreeMap<String, InstrId> = BTreeMap::new();
    for (bi, instr) in alg.instrs.iter().enumerate() {
        let b = InstrId(bi as u32);
        let key = match &instr.op {
            IrOp::TableLookup { table, .. } | IrOp::TableMember { table, .. } => {
                Some(format!("table:{table}"))
            }
            IrOp::GlobalRead { global, .. } | IrOp::GlobalWrite { global, .. } => {
                Some(format!("global:{global}"))
            }
            IrOp::Action { name, args } => {
                let target = args.first().map(|a| match a {
                    Operand::Value(v) => alg.value(*v).base.clone(),
                    Operand::Const(c) => c.to_string(),
                });
                Some(format!("action:{name}:{}", target.unwrap_or_default()))
            }
            _ => None,
        };
        if let Some(key) = key {
            if let Some(&prev) = last_touch.get(&key) {
                add_edge(&mut succs, &mut preds, prev, b);
            }
            last_touch.insert(key, b);
        }
    }

    DepGraph { succs, preds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    #[test]
    fn figure8_dependencies() {
        // Figure 8(c): three dependencies — v1→int_info1, int_info1→int_info2,
        // v2→int_info2 (modulo the extra dead store `info = 0`).
        let ir = frontend(
            r#"
            pipeline[P]{a};
            algorithm a {
                if (int_enable) {
                    v1 = ig_ts - eg_ts;
                    info1 = v1 & 0x0fffffff;
                    v2 = sw_id << 28;
                    info2 = info1 & v2;
                }
            }
            "#,
        )
        .unwrap();
        let alg = &ir.algorithms[0];
        let g = dependency_graph(alg);
        // Find instructions by destination base.
        let by_dst = |base: &str| -> InstrId {
            InstrId(
                alg.instrs
                    .iter()
                    .position(|i| i.dst.map(|d| alg.value(d).base == base).unwrap_or(false))
                    .unwrap_or_else(|| panic!("no {base}")) as u32,
            )
        };
        let (v1, i1, v2, i2) = (by_dst("v1"), by_dst("info1"), by_dst("v2"), by_dst("info2"));
        assert!(g.depends(i1, v1));
        assert!(g.depends(i2, i1));
        assert!(g.depends(i2, v2));
        assert!(!g.depends(v2, v1));
        assert!(g.depends_transitively(i2, v1));
    }

    #[test]
    fn independent_instructions_have_no_edges() {
        let ir = frontend("pipeline[P]{a}; algorithm a { x = 1; y = 2; }").unwrap();
        let g = dependency_graph(&ir.algorithms[0]);
        assert!(g.succs.iter().all(|s| s.is_empty()));
        assert_eq!(g.critical_path_len(), 0);
    }

    #[test]
    fn global_accesses_serialize() {
        let ir = frontend(
            "pipeline[P]{a}; algorithm a { global bit[32][8] g; x = g[0]; g[0] = 1; y = g[0]; }",
        )
        .unwrap();
        let g = dependency_graph(&ir.algorithms[0]);
        // read → write → read chain on the same global.
        assert!(g.critical_path_len() >= 2);
    }

    #[test]
    fn predicate_creates_dependency() {
        let ir = frontend("pipeline[P]{a}; algorithm a { c = x == 1; if (c) { y = 2; } }").unwrap();
        let alg = &ir.algorithms[0];
        let g = dependency_graph(alg);
        let cmp = InstrId(0);
        let assign = InstrId((alg.instrs.len() - 1) as u32);
        assert!(g.depends_transitively(assign, cmp));
    }

    #[test]
    fn critical_path_chain() {
        let ir = frontend(
            "pipeline[P]{a}; algorithm a { a1 = x + 1; a2 = a1 + 1; a3 = a2 + 1; a4 = a3 + 1; }",
        )
        .unwrap();
        let g = dependency_graph(&ir.algorithms[0]);
        assert_eq!(g.critical_path_len(), 3);
    }
}
