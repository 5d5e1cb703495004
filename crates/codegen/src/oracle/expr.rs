//! Expression engine shared by the emitted-artifact interpreters.
//!
//! The three backends render conditions and right-hand sides in close but
//! not identical surface syntaxes (P4₁₄ primitive arguments, P4₁₆ infix
//! expressions with `(bit<N>)` casts and `?:`, NPL infix with `[hi:lo]`
//! slices and `reg.value[i]` indexing). This module tokenizes and parses
//! all of them into one [`Expr`] AST and evaluates it with *exactly* the
//! IR interpreter's semantics: wrapping 64-bit arithmetic, division and
//! remainder by 0 collapsing to 0, the interpreter's own shift and slice
//! helpers, comparisons producing 0/1, and truncation applied only at
//! named-destination writes.

use std::fmt;

use lyra_ir::interp::{mask, shl, shr, slice};

/// Evaluation environment: variable reads, calls, and register indexing
/// are delegated so each backend model can canonicalize names its own way.
pub trait Env {
    /// Read a variable by its emitted name (e.g. `md.lb_hash`,
    /// `hdr.ipv4.src_ip`, `lyra_bus.a_x`, `_LOOKUP0`).
    fn read(&mut self, name: &str) -> u64;
    /// Evaluate a value-producing call with already-evaluated arguments.
    fn call(&mut self, name: &str, args: &[u64]) -> u64;
    /// Read `name[idx]` where `name` is a register array reference
    /// (NPL `reg.value[i]`).
    fn index(&mut self, name: &str, idx: u64) -> u64;
}

/// Binary operators (IR-interpreter semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // operator names are self-describing
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LAnd,
    LOr,
}

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
    /// `!e` — logical not (1 iff e == 0).
    Not(Box<Expr>),
    /// `~e` — bitwise not.
    BitNot(Box<Expr>),
    /// `-e` — wrapping negation.
    Neg(Box<Expr>),
    /// Infix binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `c ? t : f`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `name(args)`.
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Evaluate with IR-interpreter semantics.
    pub fn eval(&self, env: &mut dyn Env) -> u64 {
        match self {
            Expr::Num(n) => *n,
            Expr::Var(v) => env.read(v),
            Expr::Cast(w, e) => mask(e.eval(env), *w),
            Expr::Slice(e, hi, lo) => slice(e.eval(env), *hi, *lo),
            Expr::Index(name, idx) => {
                let i = idx.eval(env);
                env.index(name, i)
            }
            Expr::Not(e) => (e.eval(env) == 0) as u64,
            Expr::BitNot(e) => !e.eval(env),
            Expr::Neg(e) => e.eval(env).wrapping_neg(),
            Expr::Bin(op, a, b) => {
                let (x, y) = (a.eval(env), b.eval(env));
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => x.checked_div(y).unwrap_or(0),
                    BinOp::Mod => x.checked_rem(y).unwrap_or(0),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Shl => shl(x, y),
                    BinOp::Shr => shr(x, y),
                    BinOp::Eq => (x == y) as u64,
                    BinOp::Ne => (x != y) as u64,
                    BinOp::Lt => (x < y) as u64,
                    BinOp::Le => (x <= y) as u64,
                    BinOp::Gt => (x > y) as u64,
                    BinOp::Ge => (x >= y) as u64,
                    BinOp::LAnd => ((x != 0) && (y != 0)) as u64,
                    BinOp::LOr => ((x != 0) || (y != 0)) as u64,
                }
            }
            Expr::Ternary(c, t, f) => {
                if c.eval(env) != 0 {
                    t.eval(env)
                } else {
                    f.eval(env)
                }
            }
            Expr::Call(name, args) => {
                let vals: Vec<u64> = args.iter().map(|a| a.eval(env)).collect();
                env.call(name, &vals)
            }
        }
    }
}

/// Lexer token.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // token payloads are self-describing
pub enum Tok {
    Num(u64),
    Ident(String),
    Op(&'static str),
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Num(n) => write!(f, "{n}"),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Op(o) => write!(f, "{o}"),
        }
    }
}

/// Tokenize an emitted expression/statement fragment. Identifiers keep
/// embedded dots (`md.x`, `std_meta.deq_qdepth`) so name canonicalization
/// happens in one place, the backend's [`Env`].
pub fn tokenize(src: &str) -> Result<Vec<Tok>, String> {
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
            out.push(Tok::Ident(src[start..i].to_string()));
            continue;
        }
        // Multi-char operators first.
        let two: &[(&str, &str)] = &[
            ("<<", "<<"),
            (">>", ">>"),
            ("==", "=="),
            ("!=", "!="),
            ("<=", "<="),
            (">=", ">="),
            ("&&", "&&"),
            ("||", "||"),
        ];
        if i + 1 < b.len() {
            let pair = &src[i..i + 2];
            if let Some((_, op)) = two.iter().find(|(p, _)| *p == pair) {
                out.push(Tok::Op(op));
                i += 2;
                continue;
            }
        }
        let one = match c {
            '+' => "+",
            '-' => "-",
            '*' => "*",
            '/' => "/",
            '%' => "%",
            '&' => "&",
            '|' => "|",
            '^' => "^",
            '~' => "~",
            '!' => "!",
            '<' => "<",
            '>' => ">",
            '(' => "(",
            ')' => ")",
            '[' => "[",
            ']' => "]",
            '{' => "{",
            '}' => "}",
            ',' => ",",
            '?' => "?",
            ':' => ":",
            ';' => ";",
            '=' => "=",
            _ => return Err(format!("unexpected character `{c}` in `{src}`")),
        };
        out.push(Tok::Op(one));
        i += 1;
    }
    Ok(out)
}

/// Recursive-descent parser over a token slice.
pub struct Parser<'t> {
    toks: &'t [Tok],
    pos: usize,
}

impl<'t> Parser<'t> {
    /// Start parsing at the beginning of `toks`.
    pub fn new(toks: &'t [Tok]) -> Self {
        Parser { toks, pos: 0 }
    }

    /// The current token, if any.
    pub fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<&Tok> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Op(o)) if *o == op) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Require `op` as the next token.
    pub fn expect_op(&mut self, op: &str) -> Result<(), String> {
        if self.eat_op(op) {
            Ok(())
        } else {
            Err(format!("expected `{op}`, found {:?}", self.peek()))
        }
    }

    /// True when every token has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Parse a full expression (ternary is the lowest precedence tier).
    pub fn expr(&mut self) -> Result<Expr, String> {
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
        let op = match self.peek() {
            Some(Tok::Op(o)) => *o,
            _ => return None,
        };
        let (b, bp) = match op {
            "||" => (BinOp::LOr, 1),
            "&&" => (BinOp::LAnd, 2),
            "|" => (BinOp::Or, 3),
            "^" => (BinOp::Xor, 4),
            "&" => (BinOp::And, 5),
            "==" => (BinOp::Eq, 6),
            "!=" => (BinOp::Ne, 6),
            "<" => (BinOp::Lt, 7),
            "<=" => (BinOp::Le, 7),
            ">" => (BinOp::Gt, 7),
            ">=" => (BinOp::Ge, 7),
            "<<" => (BinOp::Shl, 8),
            ">>" => (BinOp::Shr, 8),
            "+" => (BinOp::Add, 9),
            "-" => (BinOp::Sub, 9),
            "*" => (BinOp::Mul, 10),
            "/" => (BinOp::Div, 10),
            "%" => (BinOp::Mod, 10),
            _ => return None,
        };
        (bp >= min_bp).then_some((b, bp))
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
        if self.eat_op("!") {
            return Ok(Expr::Not(Box::new(self.unary()?)));
        }
        if self.eat_op("~") {
            return Ok(Expr::BitNot(Box::new(self.unary()?)));
        }
        if self.eat_op("-") {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
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
                    if let Some(Tok::Num(w)) = self.peek().cloned() {
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
        match self.bump().cloned() {
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
                    Ok(Expr::Call(id, args))
                } else {
                    Ok(Expr::Var(id))
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
    let toks = tokenize(src)?;
    let mut p = Parser::new(&toks);
    let e = p.expr().map_err(|e| format!("{e} in `{src}`"))?;
    if !p.at_end() {
        return Err(format!("trailing tokens after expression in `{src}`"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    struct MapEnv(BTreeMap<String, u64>);
    impl Env for MapEnv {
        fn read(&mut self, name: &str) -> u64 {
            self.0.get(name).copied().unwrap_or(0)
        }
        fn call(&mut self, name: &str, args: &[u64]) -> u64 {
            match name {
                "min" => args.iter().copied().min().unwrap_or(0),
                _ => 0,
            }
        }
        fn index(&mut self, _name: &str, _idx: u64) -> u64 {
            7
        }
    }

    fn ev(src: &str, vars: &[(&str, u64)]) -> u64 {
        let mut env = MapEnv(vars.iter().map(|(k, v)| (k.to_string(), *v)).collect());
        parse_expr(src).unwrap().eval(&mut env)
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
