#![warn(missing_docs)]
//! # lyra-ir — Lyra's context-aware intermediate representation
//!
//! Implements the compiler front-end of the Lyra paper (§4):
//!
//! 1. **Preprocessor** (§4.2, [`lower`] + [`types`]), one walk from the
//!    checked AST to SSA IR and then width inference:
//!    * *function inlining* — every user-function call is replaced by its
//!      body with by-reference parameter substitution (Figure 8(a)→(b));
//!    * *branch removal* — `if`/`else` become predicates applied to each
//!      instruction in the condition body, leaving straight-line code
//!      (Figure 8(b)→(c));
//!    * *single-operator tuning* — expressions are flattened so each IR
//!      instruction has at most one operator;
//!    * *SSA conversion* — every versioned value is assigned once, leaving
//!      only read-after-write dependencies; all versions of a base share
//!      one storage slot, so an `if` tests its condition once;
//!    * *variable type inference* — widths propagate from declarations,
//!      library-call signatures, and table column types.
//! 2. **Code analyzer** (§4.3, [`deps`] + [`blocks`]): the instruction
//!    dependency graph and the *predicate blocks* that later drive
//!    conditional P4 table synthesis (§5.2).
//!
//! The result, [`IrProgram`], is the paper's "context-aware IR".

pub mod blocks;
pub mod compiled;
pub mod deps;
pub mod instr;
pub mod interp;
pub mod lower;
pub mod table;
pub mod types;
pub mod verify;

pub use blocks::{predicate_blocks, predicate_blocks_of, PredBlock};
pub use compiled::{
    CompiledAlgorithm, GlobalAccess, GlobalOverlay, Machine, ProgramLayout, TableSnapshot, LANES,
};
pub use deps::{dependency_graph, DepGraph};
pub use instr::*;
pub use interp::{
    builtin_call, execute, execute_all, global_read, global_write, reference_hash, DataPlaneState,
    Effect, PacketState,
};
pub use lower::{lower_program, LowerError};
pub use table::{ExternTable, PAGE_CAP};
pub use types::infer_widths;
pub use verify::{debug_verify, verify_algorithm, verify_program, Stage};

use lyra_lang::check::CheckInfo;
use lyra_lang::{check_program, parse_program, CheckError, ParseError, Program};

/// Front-end driver error.
#[derive(Debug)]
pub enum FrontendError {
    /// Parsing failed.
    Parse(ParseError),
    /// Semantic check failed.
    Check(CheckError),
    /// Lowering failed.
    Lower(LowerError),
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::Parse(e) => write!(f, "{e}"),
            FrontendError::Check(e) => write!(f, "{e}"),
            FrontendError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrontendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrontendError::Parse(e) => Some(e),
            FrontendError::Check(e) => Some(e),
            FrontendError::Lower(e) => Some(e),
        }
    }
}

impl FrontendError {
    /// Flatten to structured diagnostics. Parse and check errors carry
    /// spans; lowering errors (`LYR0112`) are span-less because the IR has
    /// already left the source text behind.
    pub fn to_diagnostics(&self) -> Vec<lyra_diag::Diagnostic> {
        use lyra_diag::{codes, Diagnostic};
        match self {
            FrontendError::Parse(e) => vec![e.to_diagnostic()],
            FrontendError::Check(e) => e.errors.clone(),
            FrontendError::Lower(e) => {
                vec![Diagnostic::error(codes::LOWER, e.message.clone())]
            }
        }
    }
}

/// Run the complete front-end on Lyra source text: parse, check, lower to
/// SSA, infer widths. This is the paper's Figure 3 front half.
pub fn frontend(src: &str) -> Result<IrProgram, FrontendError> {
    let prog = parse_program(src).map_err(FrontendError::Parse)?;
    frontend_ast(&prog)
}

/// [`frontend`] starting from an already-parsed program.
pub fn frontend_ast(prog: &Program) -> Result<IrProgram, FrontendError> {
    let info = check_program(prog).map_err(FrontendError::Check)?;
    lower_checked(prog, &info).map_err(FrontendError::Lower)
}

/// The front-end after checking: lower to SSA, infer widths, for a program
/// [`check_program`] has already accepted with `info`.
pub fn lower_checked(prog: &Program, info: &CheckInfo) -> Result<IrProgram, LowerError> {
    let mut ir = lower_program(prog, info)?;
    infer_widths(&mut ir);
    // Pass-boundary invariant check (debug builds only): width inference
    // must leave the SSA structure intact and every width consistent.
    verify::debug_verify(&ir, verify::Stage::PostWidths);
    Ok(ir)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 8 program, end to end through the front-end.
    #[test]
    fn figure8_end_to_end() {
        let src = r#"
            pipeline[P]{int_in};
            algorithm int_in {
                if (int_enable) {
                    bit[32] int_info;
                    int_info_fn(int_info);
                }
            }
            func int_info_fn(bit[32] info) {
                info = 0;
                info = (ig_ts - eg_ts) & 0x0fffffff;
                info = info & (sw_id << 28);
            }
        "#;
        let ir = frontend(src).unwrap();
        let alg = &ir.algorithms[0];
        // Straight-line code: no instruction remains un-flattened and every
        // instruction inside the branch carries the predicate.
        assert!(alg.instrs.len() >= 5);
        let predicated = alg.instrs.iter().filter(|i| i.pred.is_some()).count();
        assert!(predicated >= 4, "body instructions must be predicated");
        // SSA: every value defined at most once.
        let mut defs = std::collections::HashSet::new();
        for (idx, i) in alg.instrs.iter().enumerate() {
            if let Some(d) = i.dst {
                assert!(defs.insert(d), "value defined twice at instr {idx}");
            }
        }
        // `info` must have at least 3 versions.
        let info_versions = alg
            .values
            .iter()
            .filter(|v| v.base.ends_with("info") && !v.base.contains('.'))
            .count();
        assert!(
            info_versions >= 3,
            "expected SSA versions of info, got {info_versions}"
        );
    }
}
