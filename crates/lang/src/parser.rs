//! Recursive-descent parser for the Lyra language.
//!
//! Operator precedence follows C (the paper positions Lyra as "the C of data
//! planes"), with the membership test `key in table` sitting at the
//! relational level.

use crate::ast::*;
use crate::lexer::{lex, LexError, Punct, SpannedTok, Tok};
use crate::Span;

/// Errors produced by parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Lexing failed.
    Lex(LexError),
    /// Unexpected token.
    Unexpected {
        /// What was found.
        found: String,
        /// What was expected.
        expected: String,
        /// Where.
        span: Span,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                found,
                expected,
                span,
            } => write!(
                f,
                "parse error at byte {}: expected {expected}, found {found}",
                span.lo
            ),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

impl ParseError {
    /// The span of the offending source region.
    pub fn span(&self) -> Span {
        match self {
            ParseError::Lex(e) => e.span,
            ParseError::Unexpected { span, .. } => *span,
        }
    }

    /// Convert to a structured diagnostic (`LYR0001` for lex errors,
    /// `LYR0002` for parse errors). The span's source id is attached by
    /// the driver.
    pub fn to_diagnostic(&self) -> lyra_diag::Diagnostic {
        use lyra_diag::{codes, Diagnostic};
        match self {
            ParseError::Lex(e) => {
                Diagnostic::error(codes::LEX, e.message.clone()).with_anonymous_span(e.span)
            }
            ParseError::Unexpected {
                found,
                expected,
                span,
            } => Diagnostic::error(codes::PARSE, format!("expected {expected}, found {found}"))
                .with_anonymous_span(*span),
        }
    }
}

/// Parse a complete Lyra program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { src, toks, pos: 0 };
    p.program()
}

struct Parser<'s> {
    /// The source text: a binary operator is looked up by its spelling.
    src: &'s str,
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, expected: &str) -> Result<T, ParseError> {
        Err(ParseError::Unexpected {
            found: format!("{:?}", self.peek()),
            expected: expected.to_string(),
            span: self.span(),
        })
    }

    fn eat_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.peek() == &Tok::Punct(p) {
            self.bump();
            Ok(())
        } else {
            self.err(&format!("{p:?}"))
        }
    }

    fn at_punct(&self, p: Punct) -> bool {
        self.peek() == &Tok::Punct(p)
    }

    fn eat_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => self.err("identifier"),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            _ => self.err(&format!("keyword `{kw}`")),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_num(&mut self) -> Result<u64, ParseError> {
        match self.peek().clone() {
            Tok::Num(n) => {
                self.bump();
                Ok(n)
            }
            _ => self.err("number"),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Section(_) => {
                    self.bump();
                }
                Tok::Ident(kw) => match kw.as_str() {
                    "header_type" => prog.headers.push(self.header_type()?),
                    "packet" => prog.packets.push(self.packet_decl()?),
                    "parser_node" => prog.parser_nodes.push(self.parser_node()?),
                    "pipeline" => prog.pipelines.push(self.pipeline()?),
                    "algorithm" => prog.algorithms.push(self.algorithm()?),
                    "func" => prog.functions.push(self.function()?),
                    _ => return self.err("declaration keyword"),
                },
                _ => return self.err("declaration"),
            }
        }
        Ok(prog)
    }

    fn bit_ty(&mut self) -> Result<BitTy, ParseError> {
        self.eat_kw("bit")?;
        self.eat_punct(Punct::LBracket)?;
        let width = self.eat_num()? as u32;
        self.eat_punct(Punct::RBracket)?;
        Ok(BitTy { width })
    }

    fn typed_field(&mut self) -> Result<TypedField, ParseError> {
        let ty = self.bit_ty()?;
        let name = self.eat_ident()?;
        Ok(TypedField { ty, name })
    }

    /// `{ fields { f* } }` or `{ f* }` — both accepted.
    fn field_block(&mut self) -> Result<Vec<TypedField>, ParseError> {
        self.eat_punct(Punct::LBrace)?;
        let mut fields = Vec::new();
        if self.at_kw("fields") {
            self.bump();
            self.eat_punct(Punct::LBrace)?;
            while !self.at_punct(Punct::RBrace) {
                let f = self.typed_field()?;
                self.eat_punct(Punct::Semi)?;
                fields.push(f);
            }
            self.eat_punct(Punct::RBrace)?;
        } else {
            while !self.at_punct(Punct::RBrace) {
                let f = self.typed_field()?;
                self.eat_punct(Punct::Semi)?;
                fields.push(f);
            }
        }
        self.eat_punct(Punct::RBrace)?;
        Ok(fields)
    }

    fn header_type(&mut self) -> Result<HeaderType, ParseError> {
        let lo = self.span().lo;
        self.eat_kw("header_type")?;
        let name = self.eat_ident()?;
        let fields = self.field_block()?;
        let hi = self.toks[self.pos.saturating_sub(1)].span.hi;
        Ok(HeaderType {
            name,
            fields,
            span: Span::new(lo, hi),
        })
    }

    fn packet_decl(&mut self) -> Result<PacketDecl, ParseError> {
        let lo = self.span().lo;
        self.eat_kw("packet")?;
        let name = self.eat_ident()?;
        let fields = self.field_block()?;
        let hi = self.toks[self.pos.saturating_sub(1)].span.hi;
        Ok(PacketDecl {
            name,
            fields,
            span: Span::new(lo, hi),
        })
    }

    fn parser_node(&mut self) -> Result<ParserNode, ParseError> {
        let lo = self.span().lo;
        self.eat_kw("parser_node")?;
        let name = self.eat_ident()?;
        self.eat_punct(Punct::LBrace)?;
        let mut node = ParserNode {
            name,
            extracts: Vec::new(),
            select: None,
            transitions: Vec::new(),
            default: None,
            sets: Vec::new(),
            span: Span::default(),
        };
        while !self.at_punct(Punct::RBrace) {
            if self.at_kw("extract") {
                self.bump();
                self.eat_punct(Punct::LParen)?;
                node.extracts.push(self.eat_ident()?);
                self.eat_punct(Punct::RParen)?;
                self.eat_punct(Punct::Semi)?;
            } else if self.at_kw("set_metadata") {
                self.bump();
                self.eat_punct(Punct::LParen)?;
                let dst = self.path()?;
                self.eat_punct(Punct::Comma)?;
                let src = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                self.eat_punct(Punct::Semi)?;
                node.sets.push((dst, src));
            } else if self.at_kw("select") {
                self.bump();
                self.eat_punct(Punct::LParen)?;
                node.select = Some(self.path()?);
                self.eat_punct(Punct::RParen)?;
                self.eat_punct(Punct::LBrace)?;
                while !self.at_punct(Punct::RBrace) {
                    if self.at_kw("default") {
                        self.bump();
                        self.eat_punct(Punct::Colon)?;
                        node.default = Some(self.eat_ident()?);
                        self.eat_punct(Punct::Semi)?;
                    } else {
                        let v = self.eat_num()?;
                        self.eat_punct(Punct::Colon)?;
                        let next = self.eat_ident()?;
                        self.eat_punct(Punct::Semi)?;
                        node.transitions.push((v, next));
                    }
                }
                self.eat_punct(Punct::RBrace)?;
            } else {
                return self.err("extract, select, or set_metadata");
            }
        }
        self.eat_punct(Punct::RBrace)?;
        let hi = self.toks[self.pos.saturating_sub(1)].span.hi;
        node.span = Span::new(lo, hi);
        Ok(node)
    }

    fn pipeline(&mut self) -> Result<Pipeline, ParseError> {
        let lo = self.span().lo;
        self.eat_kw("pipeline")?;
        self.eat_punct(Punct::LBracket)?;
        let name = self.eat_ident()?;
        self.eat_punct(Punct::RBracket)?;
        self.eat_punct(Punct::LBrace)?;
        let mut algorithms = vec![self.eat_ident()?];
        while self.at_punct(Punct::Arrow) {
            self.bump();
            algorithms.push(self.eat_ident()?);
        }
        self.eat_punct(Punct::RBrace)?;
        self.eat_punct(Punct::Semi)?;
        let hi = self.toks[self.pos.saturating_sub(1)].span.hi;
        Ok(Pipeline {
            name,
            algorithms,
            span: Span::new(lo, hi),
        })
    }

    fn algorithm(&mut self) -> Result<Algorithm, ParseError> {
        let lo = self.span().lo;
        self.eat_kw("algorithm")?;
        let name = self.eat_ident()?;
        let body = self.block()?;
        let hi = self.toks[self.pos.saturating_sub(1)].span.hi;
        Ok(Algorithm {
            name,
            body,
            span: Span::new(lo, hi),
        })
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        let lo = self.span().lo;
        self.eat_kw("func")?;
        let name = self.eat_ident()?;
        self.eat_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.at_punct(Punct::RParen) {
            params.push(self.typed_field()?);
            while self.at_punct(Punct::Comma) {
                self.bump();
                params.push(self.typed_field()?);
            }
        }
        self.eat_punct(Punct::RParen)?;
        let body = self.block()?;
        let hi = self.toks[self.pos.saturating_sub(1)].span.hi;
        Ok(Function {
            name,
            params,
            body,
            span: Span::new(lo, hi),
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.eat_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            stmts.push(self.stmt()?);
        }
        self.eat_punct(Punct::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.span().lo;
        if self.at_kw("bit") {
            let ty = self.bit_ty()?;
            let name = self.eat_ident()?;
            let init = if self.at_punct(Punct::Assign) {
                self.bump();
                Some(self.expr()?)
            } else {
                None
            };
            self.eat_punct(Punct::Semi)?;
            let hi = self.toks[self.pos - 1].span.hi;
            return Ok(Stmt::VarDecl {
                ty,
                name,
                init,
                span: Span::new(lo, hi),
            });
        }
        if self.at_kw("global") {
            self.bump();
            let ty = self.bit_ty()?;
            let len = if self.at_punct(Punct::LBracket) {
                self.bump();
                let n = self.eat_num()?;
                self.eat_punct(Punct::RBracket)?;
                n
            } else {
                1
            };
            let name = self.eat_ident()?;
            self.eat_punct(Punct::Semi)?;
            let hi = self.toks[self.pos - 1].span.hi;
            return Ok(Stmt::GlobalDecl {
                ty,
                len,
                name,
                span: Span::new(lo, hi),
            });
        }
        if self.at_kw("extern") {
            let var = self.extern_decl()?;
            let hi = self.toks[self.pos - 1].span.hi;
            return Ok(Stmt::ExternDecl {
                var,
                span: Span::new(lo, hi),
            });
        }
        if self.at_kw("if") {
            return self.if_stmt();
        }
        if self.at_kw("switch") {
            return self.switch_stmt();
        }
        // Call statement or assignment.
        let first = self.eat_ident()?;
        if self.at_punct(Punct::LParen) {
            // call statement
            self.bump();
            let mut args = Vec::new();
            if !self.at_punct(Punct::RParen) {
                args.push(self.expr()?);
                while self.at_punct(Punct::Comma) {
                    self.bump();
                    args.push(self.expr()?);
                }
            }
            self.eat_punct(Punct::RParen)?;
            self.eat_punct(Punct::Semi)?;
            let hi = self.toks[self.pos - 1].span.hi;
            return Ok(Stmt::Call {
                name: first,
                args,
                span: Span::new(lo, hi),
            });
        }
        // lvalue: path or index
        let lhs = if self.at_punct(Punct::LBracket) {
            self.bump();
            let index = self.expr()?;
            self.eat_punct(Punct::RBracket)?;
            LValue::Index {
                base: first,
                index: Box::new(index),
            }
        } else {
            let mut path = vec![first];
            while self.at_punct(Punct::Dot) {
                self.bump();
                path.push(self.eat_ident()?);
            }
            LValue::Path(path)
        };
        self.eat_punct(Punct::Assign)?;
        let rhs = self.expr()?;
        self.eat_punct(Punct::Semi)?;
        let hi = self.toks[self.pos - 1].span.hi;
        Ok(Stmt::Assign {
            lhs,
            rhs,
            span: Span::new(lo, hi),
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.span().lo;
        self.eat_kw("if")?;
        self.eat_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.eat_punct(Punct::RParen)?;
        let then_body = self.block()?;
        let else_body = if self.at_kw("else") {
            self.bump();
            if self.at_kw("if") {
                Some(vec![self.if_stmt()?])
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        let hi = self.toks[self.pos - 1].span.hi;
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
            span: Span::new(lo, hi),
        })
    }

    /// `switch (e) { case N: { ... } ... default: { ... } }` — syntax sugar
    /// that desugars into an if/else-if chain (§5.2 mentions "different
    /// cases in the switch statement" as a source of mutually exclusive
    /// predicate blocks, which is exactly what the chain lowers to).
    fn switch_stmt(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.span().lo;
        self.eat_kw("switch")?;
        self.eat_punct(Punct::LParen)?;
        let scrutinee = self.expr()?;
        self.eat_punct(Punct::RParen)?;
        self.eat_punct(Punct::LBrace)?;
        let mut cases: Vec<(u64, Vec<Stmt>)> = Vec::new();
        let mut default: Option<Vec<Stmt>> = None;
        while !self.at_punct(Punct::RBrace) {
            if self.at_kw("case") {
                self.bump();
                let v = self.eat_num()?;
                self.eat_punct(Punct::Colon)?;
                let body = self.block()?;
                cases.push((v, body));
            } else if self.at_kw("default") {
                self.bump();
                self.eat_punct(Punct::Colon)?;
                default = Some(self.block()?);
            } else {
                return self.err("`case N:` or `default:`");
            }
        }
        self.eat_punct(Punct::RBrace)?;
        let hi = self.toks[self.pos - 1].span.hi;
        let span = Span::new(lo, hi);
        // Desugar from the last case backwards into nested if/else.
        let mut tail: Option<Vec<Stmt>> = default;
        for (v, body) in cases.into_iter().rev() {
            let cond = Expr::Bin {
                op: BinOp::Eq,
                lhs: Box::new(scrutinee.clone()),
                rhs: Box::new(Expr::Num(v)),
            };
            let stmt = Stmt::If {
                cond,
                then_body: body,
                else_body: tail,
                span,
            };
            tail = Some(vec![stmt]);
        }
        match tail {
            Some(mut stmts) if stmts.len() == 1 => Ok(stmts.pop().unwrap()),
            _ => self.err("switch with at least one case"),
        }
    }

    fn extern_decl(&mut self) -> Result<ExternVar, ParseError> {
        self.eat_kw("extern")?;
        // Optional match kind: `extern lpm<...>` / `ternary<...>` /
        // `range<...>` behave like dicts with TCAM-resident keys.
        let match_kind = if self.at_kw("lpm") {
            MatchKind::Lpm
        } else if self.at_kw("ternary") {
            MatchKind::Ternary
        } else if self.at_kw("range") {
            MatchKind::Range
        } else {
            MatchKind::Exact
        };
        let tcam_dict = match_kind != MatchKind::Exact;
        let kind = if self.at_kw("list") {
            self.bump();
            self.eat_punct(Punct::Lt)?;
            let elem = self.typed_field()?;
            self.eat_punct(Punct::Gt)?;
            ExternKind::List { elem }
        } else if self.at_kw("dict") || tcam_dict {
            self.bump();
            self.split_shl();
            self.eat_punct(Punct::Lt)?;
            self.split_shl();
            let keys = self.tuple_or_single()?;
            self.eat_punct(Punct::Comma)?;
            let values = self.tuple_or_single()?;
            self.eat_punct(Punct::Gt)?;
            ExternKind::Dict { keys, values }
        } else {
            return self.err("`list` or `dict`");
        };
        self.eat_punct(Punct::LBracket)?;
        let size = self.eat_num()?;
        self.eat_punct(Punct::RBracket)?;
        let name = self.eat_ident()?;
        self.eat_punct(Punct::Semi)?;
        Ok(ExternVar {
            name,
            kind,
            match_kind,
            size,
        })
    }

    /// If the next token is `<<`, split it into two `<` tokens. Needed for
    /// tuple keys: `dict<<bit[32] a, bit[32] b>, ...>` lexes the leading
    /// `<<` as a shift operator.
    fn split_shl(&mut self) {
        if self.peek() == &Tok::Punct(Punct::Shl) {
            let span = self.toks[self.pos].span;
            let lo = Span::new(span.lo, span.lo + 1);
            let hi = Span::new(span.lo + 1, span.hi);
            self.toks[self.pos] = SpannedTok {
                tok: Tok::Punct(Punct::Lt),
                span: lo,
            };
            self.toks.insert(
                self.pos + 1,
                SpannedTok {
                    tok: Tok::Punct(Punct::Lt),
                    span: hi,
                },
            );
        }
    }

    /// Either a single `bit[w] name` or a tuple `<bit[w] a, bit[w] b>`.
    fn tuple_or_single(&mut self) -> Result<Vec<TypedField>, ParseError> {
        if self.at_punct(Punct::Lt) {
            self.bump();
            let mut fields = vec![self.typed_field()?];
            while self.at_punct(Punct::Comma) {
                self.bump();
                fields.push(self.typed_field()?);
            }
            self.eat_punct(Punct::Gt)?;
            Ok(fields)
        } else {
            Ok(vec![self.typed_field()?])
        }
    }

    fn path(&mut self) -> Result<Vec<String>, ParseError> {
        let mut p = vec![self.eat_ident()?];
        while self.at_punct(Punct::Dot) {
            self.bump();
            p.push(self.eat_ident()?);
        }
        Ok(p)
    }

    // ---- expressions (precedence climbing on `BinOp::binding_power`) ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.binary(1)
    }

    /// The binary operator at the cursor, if it binds at least `min_bp`.
    fn binop_at(&self, min_bp: u8) -> Option<BinOp> {
        let Tok::Punct(_) = self.peek() else {
            return None;
        };
        let span = self.span();
        let op = BinOp::from_symbol(&self.src[span.lo as usize..span.hi as usize])?;
        (op.binding_power() >= min_bp).then_some(op)
    }

    fn binary(&mut self, min_bp: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            // `k in t` binds like the relational operators.
            if self.at_kw("in") && BinOp::Lt.binding_power() >= min_bp {
                self.bump();
                let table = self.eat_ident()?;
                lhs = Expr::InTable {
                    key: Box::new(lhs),
                    table,
                };
            } else if let Some(op) = self.binop_at(min_bp) {
                self.bump();
                let rhs = self.binary(op.binding_power() + 1)?;
                lhs = Expr::Bin {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                };
            } else {
                return Ok(lhs);
            }
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let op = if self.at_punct(Punct::Bang) {
            Some(UnOp::Not)
        } else if self.at_punct(Punct::Tilde) {
            Some(UnOp::BitNot)
        } else if self.at_punct(Punct::Minus) {
            Some(UnOp::Neg)
        } else {
            None
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.unary()?;
            return Ok(Expr::Un {
                op,
                expr: Box::new(expr),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Num(n) => {
                self.bump();
                Ok(Expr::Num(n))
            }
            Tok::Punct(Punct::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.eat_punct(Punct::RParen)?;
                Ok(e)
            }
            Tok::Ident(_) => {
                let first = self.eat_ident()?;
                // Call?
                if self.at_punct(Punct::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        args.push(self.expr()?);
                        while self.at_punct(Punct::Comma) {
                            self.bump();
                            args.push(self.expr()?);
                        }
                    }
                    self.eat_punct(Punct::RParen)?;
                    return Ok(Expr::Call { name: first, args });
                }
                // Dotted path.
                let mut path = vec![first];
                while self.at_punct(Punct::Dot) {
                    self.bump();
                    path.push(self.eat_ident()?);
                }
                // Index or slice?
                if self.at_punct(Punct::LBracket) {
                    // Slice if `[num:num]`, else index.
                    if let (Tok::Num(hi), Tok::Punct(Punct::Colon)) = (
                        self.peek2().clone(),
                        self.toks[(self.pos + 2).min(self.toks.len() - 1)]
                            .tok
                            .clone(),
                    ) {
                        self.bump(); // [
                        self.bump(); // hi
                        self.bump(); // :
                        let lo = self.eat_num()? as u32;
                        self.eat_punct(Punct::RBracket)?;
                        return Ok(Expr::Slice {
                            base: path,
                            hi: hi as u32,
                            lo,
                        });
                    }
                    if path.len() == 1 {
                        self.bump();
                        let index = self.expr()?;
                        self.eat_punct(Punct::RBracket)?;
                        return Ok(Expr::Index {
                            base: path.pop().unwrap(),
                            index: Box::new(index),
                        });
                    }
                }
                Ok(Expr::Path(path))
            }
            _ => self.err("expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_motivating_example_subset() {
        let src = r#"
            >HEADER:
            header_type int_probe_hdr_t {
                bit[8] hop_count;
                bit[8] msg_type;
            }
            packet in_pkt { fields { bit[9] ingress_port; } }

            >PIPELINES:
            pipeline[INT]{int_in -> int_transit -> int_out};
            pipeline[LB]{loadbalancer};

            algorithm loadbalancer {
                load_balancing();
            }
            algorithm int_in {
                global bit[32][1024] packet_counter;
                int_filtering();
                if (int_enable) {
                    add_int_probe_header();
                }
            }
            algorithm int_transit { transit(); }
            algorithm int_out { egress(); }

            >FUNCTIONS:
            func load_balancing() {
                extern dict<bit[32] hash, bit[32] ip>[1024] conn_table;
                extern dict<bit[32] vip, bit[8] group>[1024] vip_table;
                bit[32] hash;
                hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr, ipv4.protocol, tcp.srcPort, tcp.dstPort);
                if (hash in conn_table) {
                    ipv4.dstAddr = conn_table[hash];
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.headers.len(), 1);
        assert_eq!(p.packets.len(), 1);
        assert_eq!(p.pipelines.len(), 2);
        assert_eq!(
            p.pipelines[0].algorithms,
            vec!["int_in", "int_transit", "int_out"]
        );
        assert_eq!(p.algorithms.len(), 4);
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        // extern decls + var decl + assign + if
        assert_eq!(f.body.len(), 5);
    }

    #[test]
    fn parses_tuple_dict() {
        let src = r#"
            func f() {
                extern dict<<bit[32] src, bit[32] dst>, bit[8] p>[1024] route;
            }
        "#;
        let p = parse_program(src).unwrap();
        match &p.functions[0].body[0] {
            Stmt::ExternDecl { var, .. } => {
                assert_eq!(var.key_width(), 64);
                assert_eq!(var.value_width(), 8);
            }
            other => panic!("expected extern, got {other:?}"),
        }
    }

    #[test]
    fn parses_figure5_bitops() {
        let src = r#"
            algorithm a {
                extern list<bit[32] ip>[10] get_v16_1;
                if (src_ip in get_v16_1) {
                    v16 = (v8_a << 8 | v8_b);
                }
                if (smac == dmac) {
                    x = 1;
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.algorithms[0].body.len(), 3);
        // `<<` binds tighter than `|`
        if let Stmt::If { then_body, .. } = &p.algorithms[0].body[1] {
            if let Stmt::Assign { rhs, .. } = &then_body[0] {
                assert_eq!(rhs.to_src(), "((v8_a << 8) | v8_b)");
            } else {
                panic!("expected assign");
            }
        } else {
            panic!("expected if");
        }
    }

    #[test]
    fn parses_else_if_chains() {
        let src = r#"
            algorithm a {
                if (x == 1) { y = 1; }
                else if (x == 2) { y = 2; }
                else { y = 3; }
            }
        "#;
        let p = parse_program(src).unwrap();
        if let Stmt::If {
            else_body: Some(eb),
            ..
        } = &p.algorithms[0].body[0]
        {
            assert!(matches!(
                &eb[0],
                Stmt::If {
                    else_body: Some(_),
                    ..
                }
            ));
        } else {
            panic!("bad structure");
        }
    }

    #[test]
    fn parses_parser_nodes() {
        let src = r#"
            parser_node start {
                extract(ethernet);
                select(ethernet.ether_type) {
                    0x0800: parse_ipv4;
                    default: ingress;
                }
            }
            parser_node parse_ipv4 {
                extract(ipv4);
                set_metadata(md.is_ip, 1);
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.parser_nodes.len(), 2);
        assert_eq!(
            p.parser_nodes[0].transitions,
            vec![(0x0800, "parse_ipv4".to_string())]
        );
        assert_eq!(p.parser_nodes[0].default.as_deref(), Some("ingress"));
        assert_eq!(p.parser_nodes[1].sets.len(), 1);
    }

    #[test]
    fn parses_slices_and_indexing() {
        let src = r#"
            algorithm a {
                if (smac[47:32] == dmac[47:32]) { t = 1; }
                counter[idx] = counter[idx] + 1;
            }
        "#;
        let p = parse_program(src).unwrap();
        if let Stmt::If { cond, .. } = &p.algorithms[0].body[0] {
            assert!(matches!(cond, Expr::Bin { op: BinOp::Eq, .. }));
        }
        assert!(matches!(
            &p.algorithms[0].body[1],
            Stmt::Assign {
                lhs: LValue::Index { .. },
                ..
            }
        ));
    }

    #[test]
    fn error_reports_position() {
        let src = "algorithm a { if (x == ) { } }";
        let err = parse_program(src).unwrap_err();
        match err {
            ParseError::Unexpected { expected, .. } => assert_eq!(expected, "expression"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_declarations() {
        assert!(parse_program("banana x {}").is_err());
    }
}

#[cfg(test)]
mod switch_tests {
    use super::*;

    #[test]
    fn switch_desugars_to_if_chain() {
        let src = r#"
            pipeline[P]{a};
            algorithm a {
                switch (op) {
                    case 1: { x = 10; }
                    case 2: { x = 20; }
                    default: { x = 0; }
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        // Outer if: op == 1.
        let Stmt::If {
            cond, else_body, ..
        } = &p.algorithms[0].body[0]
        else {
            panic!("expected if");
        };
        assert_eq!(cond.to_src(), "(op == 1)");
        // else contains the op == 2 case, which has the default as else.
        let inner = else_body.as_ref().unwrap();
        let Stmt::If {
            cond: c2,
            else_body: e2,
            ..
        } = &inner[0]
        else {
            panic!("expected nested if");
        };
        assert_eq!(c2.to_src(), "(op == 2)");
        assert!(e2.is_some());
    }

    #[test]
    fn switch_without_default() {
        let src = "pipeline[P]{a}; algorithm a { switch (k) { case 5: { y = 1; } } }";
        let p = parse_program(src).unwrap();
        let Stmt::If { else_body, .. } = &p.algorithms[0].body[0] else {
            panic!("expected if");
        };
        assert!(else_body.is_none());
    }

    #[test]
    fn empty_switch_rejected() {
        assert!(parse_program("pipeline[P]{a}; algorithm a { switch (k) { } }").is_err());
    }
}
