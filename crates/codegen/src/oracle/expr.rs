//! Expression parser shared by the three artifact parsers.
//!
//! The three backends render conditions and right-hand sides in close but
//! not identical surface syntaxes (P4₁₄ primitive arguments, P4₁₆ infix
//! expressions with `(bit<N>)` casts and `?:`, NPL infix with `[hi:lo]`
//! slices and `reg.value[i]` indexing). This module tokenizes and parses
//! all of them into one [`Expr`] tree over the language's own operators;
//! [`super::lift`] flattens it into IR, so an expression means exactly
//! what `lyra_ir::execute` makes of it.

use lyra_lang::{BinOp, UnOp};

/// A parsed expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Num(u64),
    /// Named read (dotted names stay whole: `md.x`, `hdr.ipv4.ttl`).
    Var(String),
    /// `(bit<N>)e` / `(bit[N])e` cast: truncate to N bits.
    Cast(u32, Box<Expr>),
    /// `e[hi:lo]` bit slice (constant bounds, as emitted).
    Slice(Box<Expr>, u32, u32),
    /// `name[idx]` register-array indexing.
    Index(String, Box<Expr>),
    /// Prefix `!e`, `~e` or `-e`.
    Un(UnOp, Box<Expr>),
    /// Infix binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `c ? t : f`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `name(args)`.
    Call(String, Vec<Expr>),
}

/// Lexer token; an identifier borrows the source text.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'s> {
    Num(u64),
    Ident(&'s str),
    Op(&'static str),
}

/// Tokenize an emitted expression/statement fragment. Identifiers keep
/// embedded dots (`md.x`, `std_meta.deq_qdepth`) so a name reaches the
/// lifter whole.
fn tokenize(src: &str) -> Result<Vec<Tok<'_>>, String> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            if c == '0' && i + 1 < b.len() && (b[i + 1] == b'x' || b[i + 1] == b'X') {
                i += 2;
                while i < b.len() && (b[i] as char).is_ascii_hexdigit() {
                    i += 1;
                }
                let n = u64::from_str_radix(&src[start + 2..i], 16)
                    .map_err(|e| format!("bad hex literal `{}`: {e}", &src[start..i]))?;
                out.push(Tok::Num(n));
            } else {
                while i < b.len() && (b[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let n: u64 = src[start..i]
                    .parse()
                    .map_err(|e| format!("bad literal `{}`: {e}", &src[start..i]))?;
                out.push(Tok::Num(n));
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() {
                let ch = b[i] as char;
                if ch.is_ascii_alphanumeric() || ch == '_' {
                    i += 1;
                } else if ch == '.'
                    && i + 1 < b.len()
                    && ((b[i + 1] as char).is_ascii_alphanumeric() || b[i + 1] == b'_')
                {
                    i += 1; // dotted name continues
                } else {
                    break;
                }
            }
            out.push(Tok::Ident(&src[start..i]));
            continue;
        }
        // Two-character operators (all binary) first.
        let two = BinOp::ALL.map(BinOp::symbol);
        if let Some(op) = two
            .into_iter()
            .find(|o| o.len() == 2 && src[i..].starts_with(o))
        {
            out.push(Tok::Op(op));
            i += 2;
            continue;
        }
        const ONE: &str = "+-*/%&|^~!<>()[]{},?:;=";
        let Some(k) = ONE.find(c) else {
            return Err(format!("unexpected character `{c}` in `{src}`"));
        };
        out.push(Tok::Op(&ONE[k..k + 1]));
        i += 1;
    }
    Ok(out)
}

/// Recursive-descent parser over a token slice.
struct Parser<'s> {
    toks: Vec<Tok<'s>>,
    pos: usize,
}

impl<'s> Parser<'s> {
    /// The current token, if any.
    fn peek(&self) -> Option<Tok<'s>> {
        self.toks.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<Tok<'s>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Op(o)) if o == op) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Require `op` as the next token.
    fn expect_op(&mut self, op: &str) -> Result<(), String> {
        if self.eat_op(op) {
            Ok(())
        } else {
            Err(format!("expected `{op}`, found {:?}", self.peek()))
        }
    }

    /// True when every token has been consumed.
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Parse a full expression (ternary is the lowest precedence tier).
    fn expr(&mut self) -> Result<Expr, String> {
        let cond = self.binary(1)?;
        if self.eat_op("?") {
            let t = self.expr()?;
            self.expect_op(":")?;
            let f = self.expr()?;
            return Ok(Expr::Ternary(Box::new(cond), Box::new(t), Box::new(f)));
        }
        Ok(cond)
    }

    fn binop_at(&self, min_bp: u8) -> Option<(BinOp, u8)> {
        let Some(Tok::Op(sym)) = self.peek() else {
            return None;
        };
        let op = BinOp::from_symbol(sym)?;
        let bp = op.binding_power();
        (bp >= min_bp).then_some((op, bp))
    }

    fn binary(&mut self, min_bp: u8) -> Result<Expr, String> {
        let mut lhs = self.unary()?;
        while let Some((op, bp)) = self.binop_at(min_bp) {
            self.pos += 1;
            let rhs = self.binary(bp + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, String> {
        for (sym, op) in [("!", UnOp::Not), ("~", UnOp::BitNot), ("-", UnOp::Neg)] {
            if self.eat_op(sym) {
                return Ok(Expr::Un(op, Box::new(self.unary()?)));
            }
        }
        self.postfix()
    }

    /// Try to parse `(bit<N>)` / `(bit[N])` starting at an already-eaten
    /// `(`. Returns the width if this really was a cast.
    fn cast_width(&mut self) -> Option<u32> {
        let save = self.pos;
        if let Some(Tok::Ident(id)) = self.peek() {
            if id == "bit" {
                self.pos += 1;
                let open_angle = self.eat_op("<");
                let open_square = !open_angle && self.eat_op("[");
                if open_angle || open_square {
                    if let Some(Tok::Num(w)) = self.peek() {
                        self.pos += 1;
                        let close = if open_angle { ">" } else { "]" };
                        if self.eat_op(close) && self.eat_op(")") {
                            return Some(w as u32);
                        }
                    }
                }
            }
        }
        self.pos = save;
        None
    }

    fn postfix(&mut self) -> Result<Expr, String> {
        let mut e = self.primary()?;
        loop {
            if self.eat_op("[") {
                // `x[hi:lo]` slice or `reg.value[i]` index.
                let first = self.expr()?;
                if self.eat_op(":") {
                    let lo = match self.expr()? {
                        Expr::Num(n) => n as u32,
                        other => return Err(format!("non-constant slice low bound {other:?}")),
                    };
                    let hi = match first {
                        Expr::Num(n) => n as u32,
                        other => return Err(format!("non-constant slice high bound {other:?}")),
                    };
                    self.expect_op("]")?;
                    if hi < lo {
                        return Err(format!("inverted slice bounds [{hi}:{lo}]"));
                    }
                    e = Expr::Slice(Box::new(e), hi, lo);
                } else {
                    self.expect_op("]")?;
                    let name = match e {
                        Expr::Var(v) => v,
                        other => return Err(format!("indexing non-name {other:?}")),
                    };
                    e = Expr::Index(name, Box::new(first));
                }
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, String> {
        match self.bump() {
            Some(Tok::Num(n)) => Ok(Expr::Num(n)),
            Some(Tok::Ident(id)) => {
                if self.eat_op("(") {
                    let mut args = Vec::new();
                    if !self.eat_op(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_op(")") {
                                break;
                            }
                            self.expect_op(",")?;
                        }
                    }
                    Ok(Expr::Call(id.to_string(), args))
                } else {
                    Ok(Expr::Var(id.to_string()))
                }
            }
            Some(Tok::Op("(")) => {
                if let Some(w) = self.cast_width() {
                    let e = self.unary()?;
                    return Ok(Expr::Cast(w, Box::new(e)));
                }
                let e = self.expr()?;
                self.expect_op(")")?;
                Ok(e)
            }
            other => Err(format!("unexpected token {other:?}")),
        }
    }
}

/// Parse a complete expression string; every token must be consumed.
pub fn parse_expr(src: &str) -> Result<Expr, String> {
    let mut p = Parser {
        toks: tokenize(src)?,
        pos: 0,
    };
    let e = p.expr().map_err(|e| format!("{e} in `{src}`"))?;
    if !p.at_end() {
        return Err(format!("trailing tokens after expression in `{src}`"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::lift::run_stmts;
    use crate::oracle::OStmt;
    use lyra_ir::DataPlaneState;

    /// Evaluate `src` the way an artifact does: lifted into IR and run on
    /// the IR interpreter, with register `pkt_count` = [0, 0, 0, 7].
    fn ev(src: &str, vars: &[(&str, u64)]) -> u64 {
        let stmt = OStmt::Assign {
            dst: "out".into(),
            rhs: parse_expr(src).unwrap(),
        };
        let mut dp = DataPlaneState::new();
        dp.globals
            .insert("pkt_count".into(), vec![0, 0, 0, 7].into());
        run_stmts(vec![stmt], vars, &mut dp).get("out")
    }

    #[test]
    fn precedence_matches_c() {
        assert_eq!(ev("1 + 2 * 3", &[]), 7);
        assert_eq!(ev("(1 + 2) * 3", &[]), 9);
        assert_eq!(ev("1 << 2 + 1", &[]), 8); // shifts bind looser than +
        assert_eq!(ev("6 & 3 == 3", &[]), 6 & 1); // == binds tighter than &
    }

    #[test]
    fn comparisons_and_logicals() {
        assert_eq!(ev("3 < 4 && 4 <= 4", &[]), 1);
        assert_eq!(ev("3 == 4 || 1", &[]), 1);
        assert_eq!(ev("!5", &[]), 0);
        assert_eq!(ev("!0", &[]), 1);
    }

    #[test]
    fn casts_and_slices() {
        assert_eq!(ev("(bit<8>)300", &[]), 44);
        assert_eq!(ev("(bit[8])300", &[]), 44);
        assert_eq!(ev("md.x[7:4]", &[("md.x", 0xab)]), 0xa);
    }

    #[test]
    fn full_width_and_out_of_word_slices_and_wide_shifts() {
        let x = [("md.x", u64::MAX)];
        assert_eq!(ev("md.x[63:0]", &x), u64::MAX);
        assert_eq!(ev("md.x[71:64]", &x), 0);
        assert_eq!(ev("md.x[70:60]", &x), 0xf);
        let s = [("md.s", (1u64 << 32) + 1)];
        assert_eq!(ev("3 << md.s", &s), 0);
        assert_eq!(ev("3 >> md.s", &s), 0);
    }

    #[test]
    fn ternary_and_dotted_names() {
        assert_eq!(ev("md.x == 1 ? 10 : 20", &[("md.x", 1)]), 10);
        assert_eq!(ev("hdr.ipv4.ttl - 1", &[("hdr.ipv4.ttl", 64)]), 63);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(ev("5 / 0", &[]), 0);
        assert_eq!(ev("5 % 0", &[]), 0);
        assert_eq!(ev("1 << 200", &[]), 0);
    }

    #[test]
    fn wrapping_matches_interp() {
        assert_eq!(ev("0 - 1", &[]), u64::MAX);
        assert_eq!(ev("-1", &[]), u64::MAX);
    }

    #[test]
    fn calls_and_indexing() {
        assert_eq!(ev("min(4, 9)", &[]), 4);
        assert_eq!(ev("pkt_count.value[3]", &[]), 7);
    }

    #[test]
    fn hex_literals() {
        assert_eq!(ev("0x0fffffff & 0xff", &[]), 0xff);
    }
}
