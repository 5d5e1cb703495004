//! Predicate blocks (§5.2): groups of IR instructions that (1) carry the
//! same predicate and (2) have no dependencies among them. Predicate blocks
//! are the unit that conditional P4 synthesis turns into match-action
//! tables.
//!
//! Grouping is greedy in program order, which reproduces the paper's
//! Figure 8(c) example exactly: lines {3}, {4, 5}, {6} form three blocks.
//!
//! The module also classifies the three block relationships the paper
//! defines: *dependency*, *mutually exclusive* (different branches of the
//! same `if`/`else`), and *no correlation*.

use crate::deps::DepGraph;
use crate::instr::*;

/// A predicate block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredBlock {
    /// The common predicate of every member (None = unconditional).
    pub pred: Option<ValueId>,
    /// Member instructions, in program order.
    pub instrs: Vec<InstrId>,
}

/// Relationship between two predicate blocks (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRelation {
    /// One block's predicate is written inside the other; they become two
    /// chained tables.
    Dependency,
    /// The blocks sit in different branches of an if/else; they can fold
    /// into one table.
    MutuallyExclusive,
    /// Nothing relates them.
    NoCorrelation,
}

/// Compute predicate blocks over all instructions of `alg`.
pub fn predicate_blocks(alg: &IrAlgorithm, deps: &DepGraph) -> Vec<PredBlock> {
    let ids: Vec<InstrId> = alg.instr_ids().collect();
    predicate_blocks_of(alg, deps, &ids)
}

/// Compute predicate blocks over a subset of instructions (the per-switch
/// `R_s` of §5.2). The subset must be in program order.
pub fn predicate_blocks_of(
    alg: &IrAlgorithm,
    deps: &DepGraph,
    subset: &[InstrId],
) -> Vec<PredBlock> {
    let mut blocks: Vec<PredBlock> = Vec::new();
    for &id in subset {
        let instr = alg.instr(id);
        let fits = match blocks.last() {
            Some(b) => b.pred == instr.pred && !b.instrs.iter().any(|&m| deps.depends(id, m)),
            None => false,
        };
        if fits {
            blocks.last_mut().unwrap().instrs.push(id);
        } else {
            blocks.push(PredBlock {
                pred: instr.pred,
                instrs: vec![id],
            });
        }
    }
    blocks
}

/// Are two predicates mutually exclusive (one is the negation of the other,
/// possibly under a shared conjunction — `p ∧ c` vs `p ∧ ¬c`)?
pub fn preds_mutually_exclusive(alg: &IrAlgorithm, a: ValueId, b: ValueId) -> bool {
    if is_negation_of(alg, a, b) || is_negation_of(alg, b, a) {
        return true;
    }
    // p ∧ c vs p ∧ ¬c: both defined by LAnd with equal left legs and
    // mutually-exclusive right legs (recursively).
    if let (Some(da), Some(db)) = (alg.value(a).def, alg.value(b).def) {
        if let (
            IrOp::Binary {
                op: lyra_lang::BinOp::LAnd,
                a: la,
                b: ra,
            },
            IrOp::Binary {
                op: lyra_lang::BinOp::LAnd,
                a: lb,
                b: rb,
            },
        ) = (&alg.instr(da).op, &alg.instr(db).op)
        {
            if let (
                Operand::Value(la),
                Operand::Value(ra),
                Operand::Value(lb),
                Operand::Value(rb),
            ) = (la, ra, lb, rb)
            {
                if same_storage(alg, *la, *lb) {
                    return preds_mutually_exclusive(alg, *ra, *rb);
                }
            }
        }
    }
    false
}

fn is_negation_of(alg: &IrAlgorithm, a: ValueId, b: ValueId) -> bool {
    match alg.value(a).neg_of {
        Some(src) => same_storage(alg, src, b),
        None => false,
    }
}

/// Two values denote the same SSA value (same base and version).
fn same_storage(alg: &IrAlgorithm, a: ValueId, b: ValueId) -> bool {
    a == b || {
        let (va, vb) = (alg.value(a), alg.value(b));
        va.base == vb.base && va.version == vb.version
    }
}

/// Classify the relationship between two predicate blocks.
#[cfg(test)]
pub(crate) fn block_relation(
    alg: &IrAlgorithm,
    deps: &DepGraph,
    a: &PredBlock,
    b: &PredBlock,
) -> BlockRelation {
    // Dependency: some instruction of one block writes the other's
    // predicate, or any member-to-member dependency exists.
    let writes_pred = |blk: &PredBlock, pred: Option<ValueId>| -> bool {
        match pred {
            None => false,
            Some(p) => blk.instrs.iter().any(|&i| alg.instr(i).dst == Some(p)),
        }
    };
    if writes_pred(a, b.pred) || writes_pred(b, a.pred) {
        return BlockRelation::Dependency;
    }
    let dep_between = a.instrs.iter().any(|&x| {
        b.instrs
            .iter()
            .any(|&y| deps.depends_transitively(y, x) || deps.depends_transitively(x, y))
    });
    if dep_between {
        return BlockRelation::Dependency;
    }
    if let (Some(pa), Some(pb)) = (a.pred, b.pred) {
        if preds_mutually_exclusive(alg, pa, pb) {
            return BlockRelation::MutuallyExclusive;
        }
    }
    BlockRelation::NoCorrelation
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::dependency_graph;
    use crate::frontend;

    #[test]
    fn figure8_blocks() {
        // The IR mirror of Figure 8(c). Blocks must be {v1}, {info1, v2},
        // {info2}: info1 depends on v1 so it starts a new block, v2 shares
        // the predicate and has no dependency on info1, info2 depends on
        // both.
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
        let deps = dependency_graph(alg);
        let blocks = predicate_blocks(alg, &deps);
        // All four predicated instructions, grouped 1-2-1.
        let sizes: Vec<usize> = blocks
            .iter()
            .filter(|b| b.pred.is_some())
            .map(|b| b.instrs.len())
            .collect();
        assert_eq!(
            sizes,
            vec![1, 2, 1],
            "blocks: {blocks:?}\n{}",
            alg.to_text()
        );
    }

    #[test]
    fn unconditional_instrs_group_together() {
        let ir = frontend("pipeline[P]{a}; algorithm a { x = 1; y = 2; z = 3; }").unwrap();
        let alg = &ir.algorithms[0];
        let deps = dependency_graph(alg);
        let blocks = predicate_blocks(alg, &deps);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].instrs.len(), 3);
        assert_eq!(blocks[0].pred, None);
    }

    #[test]
    fn if_else_blocks_are_mutually_exclusive() {
        let ir =
            frontend("pipeline[P]{a}; algorithm a { if (c) { x = 1; } else { x = 2; } }").unwrap();
        let alg = &ir.algorithms[0];
        let deps = dependency_graph(alg);
        let blocks = predicate_blocks(alg, &deps);
        let conditional: Vec<&PredBlock> = blocks.iter().filter(|b| b.pred.is_some()).collect();
        assert_eq!(conditional.len(), 2);
        assert_eq!(
            block_relation(alg, &deps, conditional[0], conditional[1]),
            BlockRelation::MutuallyExclusive
        );
    }

    #[test]
    fn nested_if_else_mutual_exclusion() {
        // p ∧ c vs p ∧ ¬c
        let ir = frontend(
            "pipeline[P]{a}; algorithm a { if (p) { if (c) { x = 1; } else { x = 2; } } }",
        )
        .unwrap();
        let alg = &ir.algorithms[0];
        let deps = dependency_graph(alg);
        let blocks = predicate_blocks(alg, &deps);
        let with_writes: Vec<&PredBlock> = blocks
            .iter()
            .filter(|b| {
                b.instrs.iter().any(|&i| {
                    alg.instr(i)
                        .dst
                        .map(|d| alg.value(d).base == "x")
                        .unwrap_or(false)
                })
            })
            .collect();
        assert_eq!(with_writes.len(), 2);
        assert_eq!(
            block_relation(alg, &deps, with_writes[0], with_writes[1]),
            BlockRelation::MutuallyExclusive
        );
    }

    #[test]
    fn dependent_blocks_classified() {
        let ir = frontend("pipeline[P]{a}; algorithm a { c = x == 1; if (c) { y = 2; } }").unwrap();
        let alg = &ir.algorithms[0];
        let deps = dependency_graph(alg);
        let blocks = predicate_blocks(alg, &deps);
        assert!(blocks.len() >= 2);
        assert_eq!(
            block_relation(alg, &deps, &blocks[0], &blocks[1]),
            BlockRelation::Dependency
        );
    }

    #[test]
    fn subset_blocks() {
        let ir = frontend("pipeline[P]{a}; algorithm a { x = 1; y = x + 1; z = 5; }").unwrap();
        let alg = &ir.algorithms[0];
        let deps = dependency_graph(alg);
        // Subset skipping the middle instruction: x and z group together.
        let subset = vec![InstrId(0), InstrId(2)];
        let blocks = predicate_blocks_of(alg, &deps, &subset);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].instrs.len(), 2);
    }

    #[test]
    fn unrelated_conditional_blocks_no_correlation() {
        let ir = frontend("pipeline[P]{a}; algorithm a { if (c1) { x = 1; } if (c2) { y = 2; } }")
            .unwrap();
        let alg = &ir.algorithms[0];
        let deps = dependency_graph(alg);
        let blocks = predicate_blocks(alg, &deps);
        let conditional: Vec<&PredBlock> = blocks.iter().filter(|b| b.pred.is_some()).collect();
        assert_eq!(conditional.len(), 2);
        assert_eq!(
            block_relation(alg, &deps, conditional[0], conditional[1]),
            BlockRelation::NoCorrelation
        );
    }
}
