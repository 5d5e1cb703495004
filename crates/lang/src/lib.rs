#![warn(missing_docs)]
//! # lyra-lang — the Lyra data-plane language
//!
//! This crate implements the front half of the Lyra language from
//! *Lyra: A Cross-Platform Language and Compiler for Data Plane Programming
//! on Heterogeneous ASICs* (SIGCOMM 2020): the lexer, the recursive-descent
//! parser producing a typed AST (the grammar of Figure 6 plus every construct
//! used by the paper's examples in Figures 4, 5 and 8), the semantic checker
//! (§4.1), a pretty-printer, and the *algorithm scope* specification language
//! of §3.3 (`name: [ region | deploy | direct ]`).
//!
//! A Lyra program has three parts (§3.2):
//!
//! * **header definitions** — `header_type`, `packet`, and `parser_node`
//!   declarations;
//! * **pipeline & algorithm definitions** — `pipeline[INT]{a -> b -> c};`
//!   declares a *one-big-pipeline* (OBP) over named `algorithm` blocks;
//! * **functions** — C-like `func` bodies with by-reference parameters,
//!   `extern` table variables, `global` register arrays, and `if`/assignment
//!   statements over bit-typed expressions.
//!
//! ```
//! use lyra_lang::parse_program;
//!
//! let src = r#"
//!     >PIPELINES:
//!     pipeline[DEMO]{ filter };
//!     algorithm filter {
//!         extern list<bit[32] ip>[1024] known_ip;
//!         if (ipv4.src_ip in known_ip) {
//!             drop();
//!         }
//!     }
//! "#;
//! let prog = parse_program(src).expect("parses");
//! assert_eq!(prog.pipelines.len(), 1);
//! assert_eq!(prog.algorithms[0].name, "filter");
//! ```

pub mod ast;
pub mod check;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod scope;

pub use ast::*;
pub use check::{check_program, CheckError};
pub use parser::{parse_program, ParseError};
pub use scope::{parse_scopes, DeployMode, Direction, ScopeError, ScopeSpec};

// The span type is shared across the whole workspace via `lyra-diag` so a
// single `SourceMap` can render snippets for diagnostics from any phase.
pub use lyra_diag::Span;

/// Count total non-empty, non-comment lines (the paper's "LoC" column).
pub fn count_loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|t| !t.is_empty() && !t.starts_with("//"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_line_col() {
        let src = "ab\ncd\nef";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(3, 4).line_col(src), (2, 1));
        assert_eq!(Span::new(7, 8).line_col(src), (3, 2));
    }

    #[test]
    fn loc_counting_ignores_comments() {
        let src = "// comment\n\nfoo();\nbar();\n";
        assert_eq!(count_loc(src), 2);
    }
}
