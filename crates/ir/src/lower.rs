//! Lowering (§4.2 steps 1–4): function inlining, branch removal,
//! single-operator flattening and SSA conversion, in one walk from the
//! checked AST to predicated straight-line [`IrAlgorithm`]s — the shape of
//! Figure 8(c). Width inference ([`crate::types`]) runs next.
//!
//! SSA here is *analysis* SSA: every value is assigned once, so only
//! read-after-write dependencies remain, but all versions of a base name
//! share one storage slot (PHV field / metadata slot) in code generation —
//! exactly how the paper treats `int_info1`/`int_info2` in Figure 8(c). So
//! every read names the latest version written before it, and an `if`
//! tests its condition once: before a branch first writes the variable its
//! `if` tests, the tested value is copied into a predicate temporary, which
//! guards the rest of the branch and is what the else branch negates.

use std::collections::BTreeMap;

use lyra_lang::check::{builtins, CheckInfo};
use lyra_lang::{BinOp, Expr, LValue, Program, Stmt, UnOp};

use crate::instr::*;

/// Errors during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lowering error: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

/// An operand not yet bound to an SSA version. A name is bound when the
/// instruction that reads it is emitted, so values are numbered in
/// instruction order (in `x = c * (a + b)`, `a` and `b` before `c`).
#[derive(Debug, Clone)]
enum Src {
    Const(u64),
    Name(String),
    Value(ValueId),
}

/// The guard of a branch being lowered.
struct Guard {
    /// The conjunction of the enclosing guard with `cond`; `None` when
    /// `cond` alone guards the branch.
    pred: Option<ValueId>,
    /// The tested value: bound by the first instruction that reads it, and
    /// replaced by a copy before the branch first writes its variable.
    cond: Src,
}

/// Inline substitution: function parameter or local → caller's name.
type Subst = BTreeMap<String, String>;

/// Maximum inlining depth before we assume recursion.
const MAX_INLINE_DEPTH: usize = 64;

/// Lower a checked program to SSA IR (§4.2 steps 1–4); widths stay 0
/// except where a declaration gives them.
pub fn lower_program(prog: &Program, info: &CheckInfo) -> Result<IrProgram, LowerError> {
    let mut algorithms = Vec::new();
    for a in &prog.algorithms {
        let mut cx = Lowerer {
            prog,
            info,
            instrs: Vec::new(),
            values: Vec::new(),
            current: BTreeMap::new(),
            declared: BTreeMap::new(),
            guards: Vec::new(),
            tmp: 0,
            inline_depth: 0,
            inline_sites: 0,
        };
        cx.body(&a.body, &Subst::new())?;
        let Lowerer {
            instrs,
            mut values,
            declared,
            ..
        } = cx;
        for v in &mut values {
            v.width = declared.get(&v.base).copied().unwrap_or(0);
        }
        algorithms.push(IrAlgorithm {
            name: a.name.clone(),
            instrs,
            values,
        });
    }
    let ir = IrProgram {
        algorithms,
        pipelines: prog.pipelines.clone(),
        externs: info
            .externs
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        globals: info.globals.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        headers: prog.headers.clone(),
        packets: prog.packets.clone(),
        parser_nodes: prog.parser_nodes.clone(),
    };
    // Pass-boundary invariant check (debug builds only): single
    // definitions, def-before-use, shared-storage reads and sound negation
    // links before width inference runs.
    crate::verify::debug_verify(&ir, crate::verify::Stage::PostLower);
    Ok(ir)
}

struct Lowerer<'p> {
    prog: &'p Program,
    info: &'p CheckInfo,
    instrs: Vec<Instr>,
    values: Vec<ValueInfo>,
    /// Base name → its latest version.
    current: BTreeMap<String, ValueId>,
    /// Declared widths of named locals (base name → width).
    declared: BTreeMap<String, u32>,
    /// Guards of the enclosing branches, innermost last.
    guards: Vec<Guard>,
    tmp: u32,
    inline_depth: usize,
    inline_sites: u32,
}

impl<'p> Lowerer<'p> {
    fn fresh(&mut self) -> String {
        self.tmp += 1;
        format!("%t{}", self.tmp)
    }

    /// The latest version of `name`, creating its live-in version 0 on the
    /// first read.
    fn read(&mut self, name: &str) -> ValueId {
        match self.current.get(name) {
            Some(&v) => v,
            None => self.define(name, 0, None),
        }
    }

    /// A new version of `name`, written by instruction `def`.
    fn write(&mut self, name: &str, def: InstrId) -> ValueId {
        let version = self
            .current
            .get(name)
            .map_or(1, |v| self.values[v.index()].version + 1);
        self.define(name, version, Some(def))
    }

    fn define(&mut self, name: &str, version: u32, def: Option<InstrId>) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        let class = if name.contains('.') {
            StorageClass::HeaderField
        } else {
            StorageClass::Local
        };
        self.values.push(ValueInfo {
            base: name.to_string(),
            version,
            width: 0,
            def,
            neg_of: None,
            class,
        });
        self.current.insert(name.to_string(), id);
        id
    }

    fn bind(&mut self, s: Src) -> Operand {
        match s {
            Src::Const(c) => Operand::Const(c),
            Src::Name(n) => Operand::Value(self.read(&n)),
            Src::Value(v) => Operand::Value(v),
        }
    }

    /// Guard `g`'s tested value, bound on first use.
    fn cond(&mut self, g: usize) -> ValueId {
        match self.bind(self.guards[g].cond.clone()) {
            Operand::Value(v) => {
                self.guards[g].cond = Src::Value(v);
                v
            }
            Operand::Const(_) => unreachable!("constant conditions are materialized"),
        }
    }

    /// The innermost guard's predicate.
    fn pred(&mut self) -> Option<ValueId> {
        let g = self.guards.len().checked_sub(1)?;
        Some(match self.guards[g].pred {
            Some(p) => p,
            None => self.cond(g),
        })
    }

    /// Before the first write to a variable that an enclosing `if` tests,
    /// copy the tested value into a predicate temporary that stands in for
    /// it from then on.
    fn copy_tested(&mut self, dst: &str) {
        for g in 0..self.guards.len() {
            let c = self.cond(g);
            if self.values[c.index()].base == dst {
                let copy = self.temp(IrOp::Assign(Src::Value(c)));
                self.guards[g].cond = Src::Value(copy);
            }
        }
    }

    /// `%tN = op`, unguarded: the predicate plumbing of branch removal.
    fn temp(&mut self, op: IrOp<Src>) -> ValueId {
        let t = self.fresh();
        self.push(None, op, Some(&t))
            .expect("a destination gets a version")
    }

    /// Append `op` under the innermost guard.
    fn emit(&mut self, op: IrOp<Src>, dst: Option<&str>) -> Option<ValueId> {
        if let Some(d) = dst {
            self.copy_tested(d);
        }
        let pred = self.pred();
        self.push(pred, op, dst)
    }

    /// Append `op` guarded by `pred`: bind its operands, then version `dst`.
    fn push(&mut self, pred: Option<ValueId>, op: IrOp<Src>, dst: Option<&str>) -> Option<ValueId> {
        let id = InstrId(self.instrs.len() as u32);
        if let Some(p) = pred {
            let p = &mut self.values[p.index()];
            if p.base.starts_with('%') {
                p.class = StorageClass::Predicate;
            }
        }
        let op = op.map(|s| self.bind(s));
        let dst = dst.map(|d| self.write(d, id));
        // Negation structure, for the mutually exclusive blocks of §5.2.
        if let (
            Some(d),
            IrOp::Unary {
                op: UnOp::Not,
                a: Operand::Value(src),
            },
        ) = (dst, &op)
        {
            self.values[d.index()].neg_of = Some(*src);
        }
        self.instrs.push(Instr { pred, op, dst });
        dst
    }

    /// Rename a (possibly dotted) path through the inline substitution map.
    fn rename(&self, path: &[String], subst: &Subst) -> String {
        if path.len() == 1 {
            if let Some(r) = subst.get(&path[0]) {
                return r.clone();
            }
        }
        path.join(".")
    }

    fn body(&mut self, stmts: &[Stmt], subst: &Subst) -> Result<(), LowerError> {
        stmts.iter().try_for_each(|s| self.stmt(s, subst))
    }

    fn stmt(&mut self, s: &Stmt, subst: &Subst) -> Result<(), LowerError> {
        match s {
            Stmt::VarDecl { ty, name, init, .. } => {
                let name = self.rename(std::slice::from_ref(name), subst);
                self.declared.insert(name.clone(), ty.width);
                if let Some(e) = init {
                    self.value(e, Some(name), subst)?;
                }
            }
            // Program-level tables were collected by the checker.
            Stmt::GlobalDecl { .. } | Stmt::ExternDecl { .. } => {}
            Stmt::Assign {
                lhs: LValue::Path(p),
                rhs,
                ..
            } => {
                let dst = self.rename(p, subst);
                self.value(rhs, Some(dst), subst)?;
            }
            Stmt::Assign {
                lhs: LValue::Index { base, index },
                rhs,
                ..
            } => {
                let value = self.value(rhs, None, subst)?;
                let index = self.value(index, None, subst)?;
                if self.info.globals.contains_key(base) {
                    let global = base.clone();
                    self.emit(
                        IrOp::GlobalWrite {
                            global,
                            index,
                            value,
                        },
                        None,
                    );
                } else if self.info.externs.contains_key(base) {
                    return Err(LowerError {
                        message: format!(
                            "extern table `{base}` is control-plane managed; the data \
                                 plane cannot write it (§5.8)"
                        ),
                    });
                } else {
                    return Err(LowerError {
                        message: format!("unknown indexed target `{base}`"),
                    });
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => self.branch(cond, then_body, else_body.as_deref(), subst)?,
            Stmt::Call { name, args, .. } if builtins().contains_key(name.as_str()) => {
                let args = args
                    .iter()
                    .map(|a| self.value(a, None, subst))
                    .collect::<Result<_, _>>()?;
                let name = name.clone();
                self.emit(IrOp::Action { name, args }, None);
            }
            Stmt::Call { name, args, .. } => self.inline_call(name, args, subst)?,
        }
        Ok(())
    }

    /// Branch removal (§4.2 step 2): each branch becomes straight-line code
    /// under a 1-bit predicate, and the condition is tested once, before
    /// the then branch runs.
    fn branch(
        &mut self,
        cond: &Expr,
        then_body: &[Stmt],
        else_body: Option<&[Stmt]>,
        subst: &Subst,
    ) -> Result<(), LowerError> {
        let cond = match self.value(cond, None, subst)? {
            // Materialize a constant condition as a named 1-bit value.
            Src::Const(c) => {
                let t = self.fresh();
                self.value(&Expr::Num(c), Some(t), subst)?
            }
            c => c,
        };
        let outer = self.pred();
        self.guards.push(Guard { pred: None, cond });
        let g = self.guards.len() - 1;
        if let Some(outer) = outer {
            let c = self.cond(g);
            self.guards[g].pred = Some(self.and(outer, c));
        }
        self.body(then_body, subst)?;
        let tested = self.guards.pop().map(|g| g.cond);
        if let (Some(else_body), Some(tested)) = (else_body, tested) {
            let neg = self.temp(IrOp::Unary {
                op: UnOp::Not,
                a: tested,
            });
            let pred = match self.pred() {
                None => neg,
                Some(outer) => self.and(outer, neg),
            };
            self.guards.push(Guard {
                pred: None,
                cond: Src::Value(pred),
            });
            self.body(else_body, subst)?;
            self.guards.pop();
        }
        Ok(())
    }

    fn and(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.temp(IrOp::Binary {
            op: BinOp::LAnd,
            a: Src::Value(a),
            b: Src::Value(b),
        })
    }

    /// Function inlining (§4.2 step 1). Parameters are by-reference: a bare
    /// name argument aliases the caller's variable; any other expression is
    /// evaluated into a fresh temporary first.
    fn inline_call(&mut self, name: &str, args: &[Expr], subst: &Subst) -> Result<(), LowerError> {
        let f = self.prog.function(name).ok_or_else(|| LowerError {
            message: format!("unknown function `{name}`"),
        })?;
        if self.inline_depth >= MAX_INLINE_DEPTH {
            return Err(LowerError {
                message: format!("inlining depth exceeded at `{name}` — recursive functions are not supported on switching ASICs"),
            });
        }
        if f.params.len() != args.len() {
            return Err(LowerError {
                message: format!("arity mismatch calling `{name}`"),
            });
        }
        let mut inner = Subst::new();
        for (p, a) in f.params.iter().zip(args) {
            match a {
                Expr::Path(path) if path.len() == 1 => {
                    let target = self.rename(path, subst);
                    self.declared.entry(target.clone()).or_insert(p.ty.width);
                    inner.insert(p.name.clone(), target);
                }
                other => {
                    let v = self.value(other, None, subst)?;
                    let t = self.fresh();
                    self.declared.insert(t.clone(), p.ty.width);
                    self.emit(IrOp::Assign(v), Some(&t));
                    inner.insert(p.name.clone(), t);
                }
            }
        }
        // Rename function locals to unique names so repeated inlining of the
        // same function cannot collide.
        self.inline_depth += 1;
        self.inline_sites += 1;
        let marker = self.inline_sites;
        for l in collect_locals(&f.body) {
            let renamed = format!("{name}${marker}${l}");
            inner.entry(l).or_insert(renamed);
        }
        let result = self.body(&f.body, &inner);
        self.inline_depth -= 1;
        result
    }

    /// Single-operator flattening (§4.2 step 3). A constant or a variable
    /// comes back unbound; anything else is computed by one instruction
    /// into `dst`, or into a fresh temporary allocated after its operands.
    /// Given `dst`, a constant or a variable is copied into it.
    fn value(&mut self, e: &Expr, dst: Option<String>, subst: &Subst) -> Result<Src, LowerError> {
        let op = match e {
            Expr::Num(n) => IrOp::Assign(Src::Const(*n)),
            Expr::Path(p) => IrOp::Assign(Src::Name(self.rename(p, subst))),
            Expr::Bin { op, lhs, rhs } => IrOp::Binary {
                op: *op,
                a: self.value(lhs, None, subst)?,
                b: self.value(rhs, None, subst)?,
            },
            Expr::Un { op, expr } => IrOp::Unary {
                op: *op,
                a: self.value(expr, None, subst)?,
            },
            Expr::Call { name, args } => {
                let sig = builtins().get(name.as_str()).ok_or_else(|| LowerError {
                    message: format!(
                        "user function `{name}` cannot be used as a value; only predefined \
                         library calls return values"
                    ),
                })?;
                if sig.result_width.is_none() {
                    return Err(LowerError {
                        message: format!("builtin `{name}` returns no value"),
                    });
                }
                IrOp::Call {
                    name: name.clone(),
                    args: args
                        .iter()
                        .map(|a| self.value(a, None, subst))
                        .collect::<Result<_, _>>()?,
                }
            }
            Expr::InTable { key, table } => IrOp::TableMember {
                table: table.clone(),
                key: self.value(key, None, subst)?,
            },
            Expr::Index { base, index } => {
                let key = self.value(index, None, subst)?;
                if self.info.externs.contains_key(base) {
                    IrOp::TableLookup {
                        table: base.clone(),
                        key,
                    }
                } else if self.info.globals.contains_key(base) {
                    IrOp::GlobalRead {
                        global: base.clone(),
                        index: key,
                    }
                } else {
                    return Err(LowerError {
                        message: format!("indexing unknown table/global `{base}`"),
                    });
                }
            }
            Expr::Slice { base, hi, lo } => IrOp::Slice {
                a: Src::Name(self.rename(base, subst)),
                hi: *hi,
                lo: *lo,
            },
        };
        let (dst, op) = match (dst, op) {
            (None, IrOp::Assign(leaf)) => return Ok(leaf),
            (dst, op) => (dst.unwrap_or_else(|| self.fresh()), op),
        };
        let v = self.emit(op, Some(&dst));
        Ok(Src::Value(v.expect("a destination gets a version")))
    }
}

/// All local names declared or written (as bare names) inside a function
/// body — these must be renamed per inline site.
fn collect_locals(body: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    fn rec(body: &[Stmt], out: &mut Vec<String>) {
        for s in body {
            match s {
                Stmt::VarDecl { name, .. } => out.push(name.clone()),
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    rec(then_body, out);
                    if let Some(eb) = else_body {
                        rec(eb, out);
                    }
                }
                _ => {}
            }
        }
    }
    rec(body, &mut out);
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_lang::{check_program, parse_program};

    fn lower(src: &str) -> IrAlgorithm {
        let prog = parse_program(src).unwrap();
        let info = check_program(&prog).unwrap();
        lower_program(&prog, &info).unwrap().algorithms.remove(0)
    }

    /// The base name `i`'s destination writes, if it has one.
    fn dst_base(alg: &IrAlgorithm, i: &Instr) -> Option<String> {
        i.dst.map(|d| alg.value(d).base.clone())
    }

    #[test]
    fn flattens_multi_operator_expressions() {
        let alg = lower("pipeline[P]{a}; algorithm a { x = (ig_ts - eg_ts) & 0x0fffffff; }");
        let instrs = &alg.instrs;
        // sub into temp, then and into x — exactly two single-operator ops.
        assert_eq!(instrs.len(), 2);
        assert!(matches!(instrs[0].op, IrOp::Binary { op: BinOp::Sub, .. }));
        assert!(matches!(instrs[1].op, IrOp::Binary { op: BinOp::And, .. }));
        assert_eq!(dst_base(&alg, &instrs[1]).as_deref(), Some("x"));
    }

    #[test]
    fn branch_removal_applies_predicates() {
        let alg =
            lower("pipeline[P]{a}; algorithm a { if (en) { x = 1; y = 2; } else { x = 3; } }");
        let instrs = &alg.instrs;
        // then-branch: two instrs predicated on `en`; a Not; else predicated
        // on the negation.
        let then_instrs: Vec<_> = instrs
            .iter()
            .filter(|i| i.pred.is_some_and(|p| alg.value(p).base == "en"))
            .collect();
        assert_eq!(then_instrs.len(), 2);
        let not_instr = instrs
            .iter()
            .find(|i| matches!(i.op, IrOp::Unary { op: UnOp::Not, .. }))
            .expect("negation emitted");
        assert!(instrs.iter().any(|i| i.pred == not_instr.dst));
    }

    #[test]
    fn nested_branches_conjoin_predicates() {
        let alg = lower("pipeline[P]{a}; algorithm a { if (p) { if (q) { x = 1; } } }");
        // The innermost assignment's predicate must be an And of p and q.
        let assign = alg
            .instrs
            .iter()
            .find(|i| dst_base(&alg, i).as_deref() == Some("x"))
            .unwrap();
        let pred_def = alg.value(assign.pred.unwrap()).def.unwrap();
        assert!(matches!(
            alg.instr(pred_def).op,
            IrOp::Binary {
                op: BinOp::LAnd,
                ..
            }
        ));
    }

    #[test]
    fn inlining_substitutes_by_reference_params() {
        let alg = lower(
            r#"
            pipeline[P]{a};
            algorithm a { bit[32] v; setit(v); out = v; }
            func setit(bit[32] x) { x = 7; }
            "#,
        );
        // The inlined body writes the caller's `v` directly.
        assert!(alg
            .instrs
            .iter()
            .any(|i| dst_base(&alg, i).as_deref() == Some("v")
                && matches!(i.op, IrOp::Assign(Operand::Const(7)))));
    }

    #[test]
    fn inlining_renames_function_locals() {
        let alg = lower(
            r#"
            pipeline[P]{a};
            algorithm a { f(u); f(w); }
            func f(bit[8] x) { bit[8] scratch; scratch = x; x = scratch; }
            "#,
        );
        // Two inline sites must produce two distinct scratch names.
        let scratch_names: std::collections::HashSet<_> = alg
            .instrs
            .iter()
            .filter_map(|i| dst_base(&alg, i))
            .filter(|d| d.contains("scratch"))
            .collect();
        assert_eq!(
            scratch_names.len(),
            2,
            "locals must be renamed per inline site"
        );
    }

    #[test]
    fn recursion_is_rejected() {
        let prog =
            parse_program("pipeline[P]{a}; algorithm a { f(x); } func f(bit[8] v) { f(v); }")
                .unwrap();
        let info = check_program(&prog).unwrap();
        let err = lower_program(&prog, &info).unwrap_err();
        assert!(err.message.contains("recursive"));
    }

    #[test]
    fn extern_write_is_rejected() {
        let prog = parse_program(
            r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[16] t;
                t[k] = 1;
            }
            "#,
        )
        .unwrap();
        let info = check_program(&prog).unwrap();
        let err = lower_program(&prog, &info).unwrap_err();
        assert!(err.message.contains("control-plane managed"));
    }

    #[test]
    fn global_read_write_lowering() {
        let alg = lower(
            r#"
            pipeline[P]{a};
            algorithm a {
                global bit[32][1024] counter;
                counter[idx] = counter[idx] + 1;
            }
            "#,
        );
        let instrs = &alg.instrs;
        assert!(matches!(instrs[0].op, IrOp::GlobalRead { .. }));
        assert!(matches!(instrs[1].op, IrOp::Binary { op: BinOp::Add, .. }));
        assert!(matches!(instrs[2].op, IrOp::GlobalWrite { .. }));
    }

    #[test]
    fn table_ops_lowering() {
        let alg = lower(
            r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] h, bit[32] ip>[64] conn;
                if (h in conn) { ipv4.dst = conn[h]; }
            }
            "#,
        );
        let instrs = &alg.instrs;
        assert!(matches!(instrs[0].op, IrOp::TableMember { .. }));
        let lookup = instrs
            .iter()
            .find(|i| matches!(i.op, IrOp::TableLookup { .. }))
            .unwrap();
        assert!(lookup.dst.is_some());
        // the lookup is predicated on the membership result
        assert!(lookup.pred.is_some());
    }

    #[test]
    fn single_assignment_property() {
        let alg = lower("pipeline[P]{a}; algorithm a { x = 1; x = x + 1; x = x + 2; y = x; }");
        let mut seen = std::collections::HashSet::new();
        for i in &alg.instrs {
            if let Some(d) = i.dst {
                assert!(seen.insert(d), "double definition");
            }
        }
        // x has versions 1, 2, 3 (no live-in version — never read first).
        let x_versions: Vec<u32> = alg
            .values
            .iter()
            .filter(|v| v.base == "x")
            .map(|v| v.version)
            .collect();
        assert_eq!(x_versions, vec![1, 2, 3]);
    }

    #[test]
    fn reads_see_latest_version() {
        let alg = lower("pipeline[P]{a}; algorithm a { x = 1; y = x; x = 2; z = x; }");
        // y = x must read x#1; z = x must read x#2.
        let get_read = |dst: &str| -> String {
            let i = alg
                .instrs
                .iter()
                .find(|i| dst_base(&alg, i).as_deref() == Some(dst))
                .unwrap();
            match &i.op {
                IrOp::Assign(Operand::Value(v)) => alg.value(*v).name(),
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(get_read("y"), "x#1");
        assert_eq!(get_read("z"), "x#2");
    }

    #[test]
    fn live_in_values_have_version_zero() {
        let alg = lower("pipeline[P]{a}; algorithm a { y = ipv4.src_ip; }");
        let live_in = alg.values.iter().find(|v| v.base == "ipv4.src_ip").unwrap();
        assert_eq!(live_in.version, 0);
        assert!(live_in.def.is_none());
        assert_eq!(live_in.class, StorageClass::HeaderField);
    }

    #[test]
    fn negation_tracked() {
        let alg = lower("pipeline[P]{a}; algorithm a { if (c) { x = 1; } else { x = 2; } }");
        let neg = alg
            .values
            .iter()
            .find(|v| v.neg_of.is_some())
            .expect("negation value");
        let pos = alg.value(neg.neg_of.unwrap());
        assert_eq!(pos.base, "c");
    }

    #[test]
    fn declared_widths_flow_into_values() {
        let alg = lower("pipeline[P]{a}; algorithm a { bit[16] v; v = 3; w = v; }");
        let v = alg.values.iter().find(|x| x.base == "v").unwrap();
        assert_eq!(v.width, 16);
    }

    #[test]
    fn writing_the_tested_variable_copies_it_first() {
        let alg = lower("pipeline[P]{a}; algorithm a { if (x) { x = 0; y = 5; } else { y = 1; } }");
        // The rest of the branch and the negation test the copy `%t1#1`, not
        // the slot `x = 0` overwrote.
        assert_eq!(
            alg.to_text(),
            "  0: %t1#1 = x\n  1: %t1#1 ? x#1 = 0\n  2: %t1#1 ? y#1 = 5\n  \
             3: %t2#1 = Not %t1#1\n  4: %t2#1 ? y#2 = 1\n"
        );
        assert_eq!(alg.value(ValueId(1)).class, StorageClass::Predicate);
    }
}
