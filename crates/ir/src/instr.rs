//! IR data types: programs, algorithms, instructions, and SSA values.

use std::collections::BTreeMap;

use lyra_lang::{BinOp, ExternVar, HeaderType, PacketDecl, ParserNode, Pipeline, UnOp};

/// Identifier of an SSA value within one [`IrAlgorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub u32);

/// Identifier of an instruction within one [`IrAlgorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstrId(pub u32);

impl ValueId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl InstrId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where an SSA value's storage lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageClass {
    /// A local/metadata variable (PHV-resident).
    Local,
    /// A packet header field (`ipv4.src_ip`).
    HeaderField,
    /// A predicate temporary produced by branch removal.
    Predicate,
}

/// Metadata about one SSA value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueInfo {
    /// Storage base name (`ipv4.src_ip`, `int_info`, `%t3`). All versions of
    /// a base share the same physical storage after code generation.
    pub base: String,
    /// SSA version (0 = value on entry).
    pub version: u32,
    /// Bit width; 0 until inference fills it in.
    pub width: u32,
    /// Instruction defining this value, if any (`None` = live-in).
    pub def: Option<InstrId>,
    /// If this value is the boolean negation of another (used to detect the
    /// mutually-exclusive predicate blocks of §5.2).
    pub neg_of: Option<ValueId>,
    /// Storage class.
    pub class: StorageClass,
}

impl ValueInfo {
    /// Display name `base#version`.
    pub fn name(&self) -> String {
        if self.version == 0 {
            self.base.clone()
        } else {
            format!("{}#{}", self.base, self.version)
        }
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Immediate constant.
    Const(u64),
    /// SSA value.
    Value(ValueId),
}

/// Instruction operations. Each carries at most one operator (§4.2 step 3).
/// Lowering builds them over unbound operands and binds each one to its
/// SSA version with [`IrOp::map`] when it emits the instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrOp<O = Operand> {
    /// `dst = a`.
    Assign(O),
    /// `dst = a ⊕ b`.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: O,
        /// Right operand.
        b: O,
    },
    /// `dst = ⊖a`.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        a: O,
    },
    /// `dst = builtin(args)` for value-producing library calls.
    Call {
        /// Builtin name.
        name: String,
        /// Arguments.
        args: Vec<O>,
    },
    /// `builtin(args)` for void library calls (`add_header`, `drop`, …).
    Action {
        /// Builtin name.
        name: String,
        /// Arguments.
        args: Vec<O>,
    },
    /// `dst = table[key]` — read the value column of an extern dict.
    TableLookup {
        /// Extern table name.
        table: String,
        /// Key operand.
        key: O,
    },
    /// `dst = (key in table)` — membership test, 1-bit result.
    TableMember {
        /// Extern table name.
        table: String,
        /// Key operand.
        key: O,
    },
    /// `dst = global[index]`.
    GlobalRead {
        /// Global array name.
        global: String,
        /// Index operand.
        index: O,
    },
    /// `global[index] = value`.
    GlobalWrite {
        /// Global array name.
        global: String,
        /// Index operand.
        index: O,
        /// Stored operand.
        value: O,
    },
    /// `dst = base[hi:lo]` bit slice.
    Slice {
        /// Sliced operand.
        a: O,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
    },
}

impl<O> IrOp<O> {
    /// Apply `f` to every operand, in the order the instruction reads them.
    pub fn map<P>(self, mut f: impl FnMut(O) -> P) -> IrOp<P> {
        match self {
            IrOp::Assign(a) => IrOp::Assign(f(a)),
            IrOp::Binary { op, a, b } => IrOp::Binary {
                op,
                a: f(a),
                b: f(b),
            },
            IrOp::Unary { op, a } => IrOp::Unary { op, a: f(a) },
            IrOp::Call { name, args } => IrOp::Call {
                name,
                args: args.into_iter().map(f).collect(),
            },
            IrOp::Action { name, args } => IrOp::Action {
                name,
                args: args.into_iter().map(f).collect(),
            },
            IrOp::TableLookup { table, key } => IrOp::TableLookup { table, key: f(key) },
            IrOp::TableMember { table, key } => IrOp::TableMember { table, key: f(key) },
            IrOp::GlobalRead { global, index } => IrOp::GlobalRead {
                global,
                index: f(index),
            },
            IrOp::GlobalWrite {
                global,
                index,
                value,
            } => IrOp::GlobalWrite {
                global,
                index: f(index),
                value: f(value),
            },
            IrOp::Slice { a, hi, lo } => IrOp::Slice { a: f(a), hi, lo },
        }
    }
}

impl IrOp {
    /// All operands read by this op (not including the predicate).
    pub fn reads(&self) -> Vec<Operand> {
        match self {
            IrOp::Assign(a) | IrOp::Unary { a, .. } | IrOp::Slice { a, .. } => vec![*a],
            IrOp::Binary { a, b, .. } => vec![*a, *b],
            IrOp::Call { args, .. } | IrOp::Action { args, .. } => args.clone(),
            IrOp::TableLookup { key, .. } | IrOp::TableMember { key, .. } => vec![*key],
            IrOp::GlobalRead { index, .. } => vec![*index],
            IrOp::GlobalWrite { index, value, .. } => vec![*index, *value],
        }
    }

    /// Name of the extern table this op touches, if any.
    pub fn table(&self) -> Option<&str> {
        match self {
            IrOp::TableLookup { table, .. } | IrOp::TableMember { table, .. } => Some(table),
            _ => None,
        }
    }

    /// Name of the global register array this op touches, if any.
    pub fn global(&self) -> Option<&str> {
        match self {
            IrOp::GlobalRead { global, .. } | IrOp::GlobalWrite { global, .. } => Some(global),
            _ => None,
        }
    }

    /// True for ops with externally visible effects (must not be
    /// dead-code-eliminated and must keep their relative order per resource).
    pub fn has_side_effect(&self) -> bool {
        matches!(self, IrOp::Action { .. } | IrOp::GlobalWrite { .. })
    }
}

/// One IR instruction: an optional predicate guard, the operation, and an
/// optional destination value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instr {
    /// Predicate guard: the instruction only takes effect when this 1-bit
    /// value is true (§4.2 step 2 "branch removal").
    pub pred: Option<ValueId>,
    /// The operation.
    pub op: IrOp,
    /// Defined value, if the op produces one.
    pub dst: Option<ValueId>,
}

/// An algorithm lowered to predicated straight-line SSA code.
#[derive(Debug, Clone, PartialEq)]
pub struct IrAlgorithm {
    /// Algorithm name.
    pub name: String,
    /// Instructions in program order.
    pub instrs: Vec<Instr>,
    /// SSA value table.
    pub values: Vec<ValueInfo>,
}

impl IrAlgorithm {
    /// Value metadata.
    pub fn value(&self, id: ValueId) -> &ValueInfo {
        &self.values[id.index()]
    }

    /// Instruction by id.
    pub fn instr(&self, id: InstrId) -> &Instr {
        &self.instrs[id.index()]
    }

    /// Ids of all instructions.
    pub fn instr_ids(&self) -> impl Iterator<Item = InstrId> {
        (0..self.instrs.len() as u32).map(InstrId)
    }

    /// Render the algorithm as readable text (for tests and debugging).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, ins) in self.instrs.iter().enumerate() {
            let pred = match ins.pred {
                Some(p) => format!("{} ? ", self.value(p).name()),
                None => String::new(),
            };
            let dst = match ins.dst {
                Some(d) => format!("{} = ", self.value(d).name()),
                None => String::new(),
            };
            let opnd = |o: &Operand| match o {
                Operand::Const(c) => format!("{c}"),
                Operand::Value(v) => self.value(*v).name(),
            };
            let body = match &ins.op {
                IrOp::Assign(a) => opnd(a),
                IrOp::Binary { op, a, b } => format!("{} {} {}", opnd(a), op.symbol(), opnd(b)),
                IrOp::Unary { op, a } => format!("{op:?} {}", opnd(a)),
                IrOp::Call { name, args } | IrOp::Action { name, args } => {
                    let args: Vec<String> = args.iter().map(opnd).collect();
                    format!("{name}({})", args.join(", "))
                }
                IrOp::TableLookup { table, key } => format!("{table}[{}]", opnd(key)),
                IrOp::TableMember { table, key } => format!("{} in {table}", opnd(key)),
                IrOp::GlobalRead { global, index } => format!("{global}[{}]", opnd(index)),
                IrOp::GlobalWrite {
                    global,
                    index,
                    value,
                } => {
                    format!("{global}[{}] <- {}", opnd(index), opnd(value))
                }
                IrOp::Slice { a, hi, lo } => format!("{}[{hi}:{lo}]", opnd(a)),
            };
            out.push_str(&format!("{i:3}: {pred}{dst}{body}\n"));
        }
        out
    }
}

/// The whole program in context-aware IR form.
#[derive(Debug, Clone, PartialEq)]
pub struct IrProgram {
    /// Lowered algorithms.
    pub algorithms: Vec<IrAlgorithm>,
    /// One-big-pipeline declarations (chains of algorithm names).
    pub pipelines: Vec<Pipeline>,
    /// Extern tables by name.
    pub externs: BTreeMap<String, ExternVar>,
    /// Global register arrays by name → (element width, length).
    pub globals: BTreeMap<String, (u32, u64)>,
    /// Header types (for parser TCAM / PHV accounting).
    pub headers: Vec<HeaderType>,
    /// Packet metadata declarations.
    pub packets: Vec<PacketDecl>,
    /// Parser states.
    pub parser_nodes: Vec<ParserNode>,
}

impl IrProgram {
    /// Find a lowered algorithm by name.
    pub fn algorithm(&self, name: &str) -> Option<&IrAlgorithm> {
        self.algorithms.iter().find(|a| a.name == name)
    }

    /// Total instruction count across all algorithms.
    pub fn total_instrs(&self) -> usize {
        self.algorithms.iter().map(|a| a.instrs.len()).sum()
    }
}
