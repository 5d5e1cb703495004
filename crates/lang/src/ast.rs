//! Abstract syntax tree for Lyra programs (grammar of Figure 6, extended
//! with every construct the paper's examples use).

use crate::Span;

/// A complete Lyra program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// `header_type` declarations.
    pub headers: Vec<HeaderType>,
    /// `packet` declarations.
    pub packets: Vec<PacketDecl>,
    /// `parser_node` declarations.
    pub parser_nodes: Vec<ParserNode>,
    /// `pipeline[NAME]{a -> b};` one-big-pipeline declarations.
    pub pipelines: Vec<Pipeline>,
    /// `algorithm` declarations.
    pub algorithms: Vec<Algorithm>,
    /// `func` declarations.
    pub functions: Vec<Function>,
}

impl Program {
    /// Find an algorithm by name.
    pub fn algorithm(&self, name: &str) -> Option<&Algorithm> {
        self.algorithms.iter().find(|a| a.name == name)
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a header type by name.
    pub fn header(&self, name: &str) -> Option<&HeaderType> {
        self.headers.iter().find(|h| h.name == name)
    }
}

/// A bit-vector type `bit[w]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitTy {
    /// Width in bits.
    pub width: u32,
}

/// A named, typed field (header field, function parameter, table column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypedField {
    /// The field's bit type.
    pub ty: BitTy,
    /// Field name.
    pub name: String,
}

/// A `header_type name { fields { ... } }` declaration.
///
/// The `fields { ... }` wrapper is optional in our parser since Figure 4
/// writes fields directly inside the braces.
#[derive(Debug, Clone, PartialEq)]
pub struct HeaderType {
    /// Header type name (e.g. `int_probe_hdr_t`).
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<TypedField>,
    /// Source span of the whole declaration.
    pub span: Span,
}

impl HeaderType {
    /// Total width of the header in bits.
    #[cfg(test)]
    pub(crate) fn width_bits(&self) -> u32 {
        self.fields.iter().map(|f| f.ty.width).sum()
    }
}

/// A `packet name { fields { ... } }` declaration — the metadata bundle that
/// travels with a packet through the one-big-pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketDecl {
    /// Packet name.
    pub name: String,
    /// Metadata fields.
    pub fields: Vec<TypedField>,
    /// Source span.
    pub span: Span,
}

/// A parser state: extract a header, then select the next state on a field.
#[derive(Debug, Clone, PartialEq)]
pub struct ParserNode {
    /// State name (e.g. `parse_ipv4`).
    pub name: String,
    /// Header instance extracted in this state, if any.
    pub extracts: Vec<String>,
    /// Field the transition selects on, if any (dotted path).
    pub select: Option<Vec<String>>,
    /// `(value, next-state)` transitions.
    pub transitions: Vec<(u64, String)>,
    /// Fallback state (`default: name;`).
    pub default: Option<String>,
    /// `set_metadata(dst, src)` operations performed while parsing (used by
    /// the §6 optimization that hoists metadata writes into the parser).
    pub sets: Vec<(Vec<String>, Expr)>,
    /// Source span.
    pub span: Span,
}

/// A one-big-pipeline: an ordered chain of algorithm names.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Pipeline name (e.g. `INT`).
    pub name: String,
    /// Algorithm names in chain order.
    pub algorithms: Vec<String>,
    /// Source span.
    pub span: Span,
}

/// An `algorithm name { ... }` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Algorithm {
    /// Algorithm name.
    pub name: String,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source span.
    pub span: Span,
}

/// A `func name(params) { ... }` declaration. Parameters are by-reference:
/// assignments to a parameter are visible to the caller after inlining
/// (Figure 8 relies on this).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<TypedField>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source span.
    pub span: Span,
}

/// The kind of an `extern` table variable (§3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExternKind {
    /// `extern list<bit[32] ip>[1024] name;` — membership set.
    List {
        /// The single element column.
        elem: TypedField,
    },
    /// `extern dict<keys..., values...>[N] name;` — exact-match table from a
    /// (possibly tuple) key to a (possibly tuple) value.
    Dict {
        /// Key columns.
        keys: Vec<TypedField>,
        /// Value columns.
        values: Vec<TypedField>,
    },
}

/// How an extern table matches its key (Appendix D: different ASICs offer
/// different match capabilities, and Lyra converts between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchKind {
    /// Exact match (hash/SRAM-resident).
    #[default]
    Exact,
    /// Longest-prefix match (TCAM-resident).
    Lpm,
    /// Ternary (mask) match (TCAM-resident).
    Ternary,
    /// Range match (TCAM-resident; expanded to ternary rules on chips
    /// without native range support).
    Range,
}

impl MatchKind {
    /// True for match kinds stored in TCAM rather than SRAM.
    pub fn uses_tcam(self) -> bool {
        !matches!(self, MatchKind::Exact)
    }

    /// Source / P4 keyword for this match kind.
    pub fn keyword(self) -> &'static str {
        match self {
            MatchKind::Exact => "exact",
            MatchKind::Lpm => "lpm",
            MatchKind::Ternary => "ternary",
            MatchKind::Range => "range",
        }
    }
}

/// An `extern` declaration: a control-plane-managed table (§3.4, §5.8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternVar {
    /// Table name.
    pub name: String,
    /// List or dict shape.
    pub kind: ExternKind,
    /// Match kind of the key columns.
    pub match_kind: MatchKind,
    /// Number of entries.
    pub size: u64,
}

impl ExternVar {
    /// Total match key width in bits.
    pub fn key_width(&self) -> u32 {
        match &self.kind {
            ExternKind::List { elem } => elem.ty.width,
            ExternKind::Dict { keys, .. } => keys.iter().map(|k| k.ty.width).sum(),
        }
    }

    /// Total value width in bits (0 for lists).
    pub fn value_width(&self) -> u32 {
        match &self.kind {
            ExternKind::List { .. } => 0,
            ExternKind::Dict { values, .. } => values.iter().map(|v| v.ty.width).sum(),
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `bit[8] x;` or `bit[8] x = e;`
    VarDecl {
        /// Declared type.
        ty: BitTy,
        /// Variable name.
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
        /// Source span.
        span: Span,
    },
    /// `global bit[32][1024] counter;` — a stateful register array (§3.4).
    GlobalDecl {
        /// Element type.
        ty: BitTy,
        /// Number of elements (1 for scalars).
        len: u64,
        /// Variable name.
        name: String,
        /// Source span.
        span: Span,
    },
    /// `extern dict<...>[N] t;` — control-plane table (§3.4).
    ExternDecl {
        /// The declaration.
        var: ExternVar,
        /// Source span.
        span: Span,
    },
    /// `lhs = e;`
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// Right-hand side.
        rhs: Expr,
        /// Source span.
        span: Span,
    },
    /// `if (c) { ... } else { ... }`
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_body: Vec<Stmt>,
        /// Optional else-branch.
        else_body: Option<Vec<Stmt>>,
        /// Source span.
        span: Span,
    },
    /// A bare call statement `f(a, b);` — user function or builtin.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
}

impl Stmt {
    /// The statement's source span.
    pub fn span(&self) -> Span {
        match self {
            Stmt::VarDecl { span, .. }
            | Stmt::GlobalDecl { span, .. }
            | Stmt::ExternDecl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Call { span, .. } => *span,
        }
    }
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LValue {
    /// A (possibly dotted) path: `x` or `ipv4.dstAddr`.
    Path(Vec<String>),
    /// An indexed global: `counter[idx]`.
    Index {
        /// Array name.
        base: String,
        /// Index expression.
        index: Box<Expr>,
    },
}

impl LValue {
    /// Render as source text.
    pub fn to_src(&self) -> String {
        match self {
            LValue::Path(p) => p.join("."),
            LValue::Index { base, index } => format!("{base}[{}]", index.to_src()),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    LAnd,
    /// `||`
    LOr,
}

impl BinOp {
    /// Every binary operator.
    pub const ALL: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::LAnd,
        BinOp::LOr,
    ];

    /// The operator spelled `sym`, if any.
    pub fn from_symbol(sym: &str) -> Option<BinOp> {
        BinOp::ALL.into_iter().find(|op| op.symbol() == sym)
    }

    /// Precedence (C's): higher binds tighter; every level is
    /// left-associative. `k in t` binds like the relational operators.
    pub fn binding_power(self) -> u8 {
        match self {
            BinOp::LOr => 1,
            BinOp::LAnd => 2,
            BinOp::Or => 3,
            BinOp::Xor => 4,
            BinOp::And => 5,
            BinOp::Eq | BinOp::Ne => 6,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 7,
            BinOp::Shl | BinOp::Shr => 8,
            BinOp::Add | BinOp::Sub => 9,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 10,
        }
    }

    /// True for comparison operators producing 1-bit results.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for boolean connectives.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LAnd | BinOp::LOr)
    }

    /// Source text of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::LAnd => "&&",
            BinOp::LOr => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical not `!`.
    Not,
    /// Bitwise complement `~`.
    BitNot,
    /// Arithmetic negation `-`.
    Neg,
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Num(u64),
    /// A (possibly dotted) path: `x` or `ipv4.src_ip`.
    Path(Vec<String>),
    /// Table/global indexing: `conn_table[hash]`.
    Index {
        /// Table or global array name.
        base: String,
        /// Index / key expression.
        index: Box<Expr>,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Function / builtin call used as a value: `crc32_hash(a, b)`.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Membership test: `key in table` (§3, Figure 4 line 40).
    InTable {
        /// Key expression.
        key: Box<Expr>,
        /// Extern table name.
        table: String,
    },
    /// Bit slice `x[hi:lo]` (usable on paths).
    Slice {
        /// Sliced path.
        base: Vec<String>,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
    },
}

impl Expr {
    /// Render as source text (round-trips through the parser).
    pub fn to_src(&self) -> String {
        match self {
            Expr::Num(n) => {
                if *n > 255 {
                    format!("0x{n:x}")
                } else {
                    n.to_string()
                }
            }
            Expr::Path(p) => p.join("."),
            Expr::Index { base, index } => format!("{base}[{}]", index.to_src()),
            Expr::Bin { op, lhs, rhs } => {
                format!("({} {} {})", lhs.to_src(), op.symbol(), rhs.to_src())
            }
            Expr::Un { op, expr } => {
                let s = match op {
                    UnOp::Not => "!",
                    UnOp::BitNot => "~",
                    UnOp::Neg => "-",
                };
                format!("{s}({})", expr.to_src())
            }
            Expr::Call { name, args } => {
                let args: Vec<String> = args.iter().map(|a| a.to_src()).collect();
                format!("{name}({})", args.join(", "))
            }
            Expr::InTable { key, table } => format!("({} in {table})", key.to_src()),
            Expr::Slice { base, hi, lo } => format!("{}[{hi}:{lo}]", base.join(".")),
        }
    }

    /// Collect every path referenced by this expression (reads).
    pub fn referenced_paths(&self, out: &mut Vec<Vec<String>>) {
        match self {
            Expr::Num(_) => {}
            Expr::Path(p) => out.push(p.clone()),
            Expr::Index { base, index } => {
                out.push(vec![base.clone()]);
                index.referenced_paths(out);
            }
            Expr::Bin { lhs, rhs, .. } => {
                lhs.referenced_paths(out);
                rhs.referenced_paths(out);
            }
            Expr::Un { expr, .. } => expr.referenced_paths(out),
            Expr::Call { args, .. } => {
                for a in args {
                    a.referenced_paths(out);
                }
            }
            Expr::InTable { key, table } => {
                out.push(vec![table.clone()]);
                key.referenced_paths(out);
            }
            Expr::Slice { base, .. } => out.push(base.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_width() {
        let h = HeaderType {
            name: "h".into(),
            fields: vec![
                TypedField {
                    ty: BitTy { width: 8 },
                    name: "a".into(),
                },
                TypedField {
                    ty: BitTy { width: 24 },
                    name: "b".into(),
                },
            ],
            span: Span::default(),
        };
        assert_eq!(h.width_bits(), 32);
    }

    #[test]
    fn extern_widths() {
        let e = ExternVar {
            name: "route".into(),
            match_kind: MatchKind::Exact,
            kind: ExternKind::Dict {
                keys: vec![
                    TypedField {
                        ty: BitTy { width: 32 },
                        name: "src".into(),
                    },
                    TypedField {
                        ty: BitTy { width: 32 },
                        name: "dst".into(),
                    },
                ],
                values: vec![TypedField {
                    ty: BitTy { width: 8 },
                    name: "p".into(),
                }],
            },
            size: 1024,
        };
        assert_eq!(e.key_width(), 64);
        assert_eq!(e.value_width(), 8);
    }

    #[test]
    fn expr_to_src() {
        let e = Expr::Bin {
            op: BinOp::Shl,
            lhs: Box::new(Expr::Path(vec!["v8_a".into()])),
            rhs: Box::new(Expr::Num(8)),
        };
        assert_eq!(e.to_src(), "(v8_a << 8)");
    }

    #[test]
    fn referenced_paths_collects() {
        let e = Expr::Bin {
            op: BinOp::And,
            lhs: Box::new(Expr::Path(vec!["ipv4".into(), "src".into()])),
            rhs: Box::new(Expr::InTable {
                key: Box::new(Expr::Path(vec!["h".into()])),
                table: "t".into(),
            }),
        };
        let mut out = Vec::new();
        e.referenced_paths(&mut out);
        assert_eq!(out.len(), 3);
    }
}
