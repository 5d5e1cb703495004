//! Lifting a parsed artifact back into IR.
//!
//! [`lift`] turns an [`ArtifactModel`] plus the control stub's
//! `LYRA_TABLE_RULES` into one predicated, straight-line [`IrAlgorithm`],
//! so an emitted artifact runs on the same `lyra_ir::execute` as the
//! program it was compiled from and no second evaluator exists to drift.
//!
//! * Every canonical field is one value whose base is the field's name and
//!   whose width is the declared one, so `execute`'s by-base storage and
//!   width masking model the artifact's fields.
//! * A gateway becomes a predicate; a keyed table (or an NPL
//!   `t.lookup(pass)`) becomes a `TableMember` + `TableLookup` pair on the
//!   emitted table name, into fresh temps.
//! * Each rule is emitted in rule order: its predicate (gate ∧
//!   hit / miss / always ∧ condition) is computed right before its action
//!   body, which is predicated on it. Action parameters read the lookup
//!   temp.
//! * Expressions are flattened to one operator per instruction: a ternary
//!   becomes two predicated assigns, a cast a mask, an index a
//!   `GlobalRead`, an intrinsic field read a `Call`.

use std::collections::BTreeMap;

use lyra_ir::interp::mask;
use lyra_ir::Operand::{Const, Value};
use lyra_ir::{Instr, IrAlgorithm, IrOp, Operand, StorageClass, ValueId, ValueInfo};
use lyra_lang::{BinOp, UnOp};

use super::expr::{parse_expr, Expr};
use super::rules::{TableRule, When};
use super::{intrinsic_builtin, ArtifactModel, OStmt, Step};

/// Lift `model`, driven by `rules`, into IR. Fails on a malformed artifact:
/// an unknown table, action or function, a table without rules, an
/// unparsable rule condition or a hash unit wider than 32 bits.
pub fn lift(model: &ArtifactModel, rules: &[TableRule]) -> Result<IrAlgorithm, String> {
    let alg = IrAlgorithm {
        name: "artifact".into(),
        instrs: Vec::new(),
        values: Vec::new(),
    };
    let mut l = Lifter {
        alg,
        widths: &model.widths,
        fields: BTreeMap::new(),
        bindings: BTreeMap::new(),
    };
    for (dst, c) in &model.parser_inits {
        l.write(None, IrOp::Assign(Const(*c)), dst);
    }
    for step in &model.steps {
        match step {
            Step::Recirculate => {}
            Step::Func { name } => {
                let body = model.functions.get(name);
                let body = body.ok_or_else(|| format!("apply calls unknown function `{name}`"))?;
                l.body(None, body)?;
            }
            Step::Apply { table, gate } => {
                let t = model.tables.get(table);
                let t = t.ok_or_else(|| format!("apply names unknown table `{table}`"))?;
                let gate = gate.as_ref().map(|g| l.truth(g));
                let lookup = t.keys.first().map(|k| l.lookup(gate, table, k));
                let mut any = false;
                for rule in rules.iter().filter(|r| &r.table == table) {
                    any = true;
                    let action = model.actions.get(&rule.action).ok_or_else(|| {
                        format!("rule names unknown action `{}` of `{table}`", rule.action)
                    })?;
                    // A keyless table neither hits nor misses.
                    let mut pred = match (rule.when, lookup) {
                        (When::Always, _) => gate,
                        (When::Hit, Some((hit, _))) => Some(l.and(gate, hit)),
                        (When::Miss, Some((hit, _))) => {
                            let miss = l.keep(unary(UnOp::Not, Value(hit)));
                            Some(l.and(gate, miss))
                        }
                        (_, None) => continue,
                    };
                    if let Some(c) = &rule.cond {
                        let e = parse_expr(c).map_err(|e| format!("rule cond: {e}"))?;
                        let c = l.truth(&e);
                        pred = Some(l.and(pred, c));
                    }
                    if let Some((_, value)) = lookup {
                        for p in &action.params {
                            l.bindings.insert(p.clone(), Value(value));
                        }
                    }
                    l.body(pred, &action.body)?;
                    l.bindings.clear();
                }
                if !any {
                    return Err(format!("no control-plane rules for table `{table}`"));
                }
            }
            Step::NplLookup { table, pass } => {
                let t = model.tables.get(table);
                let t = t.ok_or_else(|| format!("lookup names unknown table `{table}`"))?;
                let (hit, value) = match t.key_by_pass.get(pass) {
                    Some(k) => {
                        let (hit, value) = l.lookup(None, table, k);
                        (Value(hit), Value(value))
                    }
                    None => (Const(0), Const(0)),
                };
                for li in 0..t.lookups.max(*pass + 1) {
                    let this = li == *pass;
                    let hit = if this { hit } else { Const(0) };
                    l.bindings
                        .insert(format!("_LOOKUP{li}"), Const(this as u64));
                    l.bindings.insert(format!("_HIT{li}"), hit);
                }
                l.bindings.insert(format!("{table}_value"), value);
                l.body(None, &t.fields_assign)?;
                l.bindings.clear();
            }
        }
    }
    Ok(l.alg)
}

struct Lifter<'m> {
    alg: IrAlgorithm,
    widths: &'m BTreeMap<String, u32>,
    /// Canonical field name → its one value.
    fields: BTreeMap<String, ValueId>,
    /// Names an action parameter or an NPL pass flag stands for.
    bindings: BTreeMap<String, Operand>,
}

impl Lifter<'_> {
    fn value(&mut self, base: String, width: u32) -> ValueId {
        let id = ValueId(self.alg.values.len() as u32);
        self.alg.values.push(ValueInfo {
            base,
            version: 0,
            width,
            def: None,
            neg_of: None,
            class: StorageClass::Local,
        });
        id
    }

    fn emit(&mut self, pred: Option<ValueId>, op: IrOp, dst: Option<ValueId>) {
        self.alg.instrs.push(Instr { pred, op, dst });
    }

    /// The value of canonical field `name`, masked to its declared width.
    fn field(&mut self, name: &str) -> ValueId {
        if let Some(&v) = self.fields.get(name) {
            return v;
        }
        let w = self.widths.get(name).copied().unwrap_or(0);
        let v = self.value(name.to_string(), w);
        self.fields.insert(name.to_string(), v);
        v
    }

    fn write(&mut self, pred: Option<ValueId>, op: IrOp, name: &str) {
        let dst = self.field(name);
        self.emit(pred, op, Some(dst));
    }

    /// A new temp; starts at 0 on every run.
    fn fresh(&mut self) -> ValueId {
        self.value(format!("%p{}", self.alg.values.len()), 0)
    }

    /// `op` into a fresh temp.
    fn keep(&mut self, op: IrOp) -> ValueId {
        let v = self.fresh();
        self.emit(None, op, Some(v));
        v
    }

    /// Expression `e` as a predicate value of its own.
    fn truth(&mut self, e: &Expr) -> ValueId {
        let o = self.expr(e);
        self.keep(IrOp::Assign(o))
    }

    /// `pred ∧ c` as a predicate value.
    fn and(&mut self, pred: Option<ValueId>, c: ValueId) -> ValueId {
        match pred {
            Some(p) => self.keep(binary(BinOp::LAnd, Value(p), Value(c))),
            None => c,
        }
    }

    /// Look `key` up in emitted table `table` under `gate`: (hit, value).
    /// The value temp keeps its 0 on a miss.
    fn lookup(&mut self, gate: Option<ValueId>, table: &str, key: &Expr) -> (ValueId, ValueId) {
        let key = self.expr(key);
        let (hit, value, table) = (self.fresh(), self.fresh(), table.to_string());
        let member = IrOp::TableMember {
            table: table.clone(),
            key,
        };
        self.emit(gate, member, Some(hit));
        self.emit(gate, IrOp::TableLookup { table, key }, Some(value));
        (hit, value)
    }

    fn read(&mut self, name: &str) -> Operand {
        if let Some(&o) = self.bindings.get(name) {
            return o;
        }
        match intrinsic_builtin(name) {
            Some(b) => Value(self.keep(call(b, Vec::new()))),
            None => Value(self.field(name)),
        }
    }

    fn exprs(&mut self, es: &[Expr]) -> Vec<Operand> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    /// Flatten `e` into temps; returns the operand holding it.
    fn expr(&mut self, e: &Expr) -> Operand {
        let op = match e {
            Expr::Num(n) => return Const(*n),
            Expr::Var(name) => return self.read(name),
            Expr::Cast(w, e) => {
                let a = self.expr(e);
                match mask(u64::MAX, *w) {
                    u64::MAX => return a,
                    m => binary(BinOp::And, a, Const(m)),
                }
            }
            Expr::Slice(e, hi, lo) => {
                let (a, hi, lo) = (self.expr(e), *hi, *lo);
                IrOp::Slice { a, hi, lo }
            }
            Expr::Index(name, idx) => global_read(name, self.expr(idx)),
            Expr::Un(op, e) => unary(*op, self.expr(e)),
            Expr::Bin(op, a, b) => binary(*op, self.expr(a), self.expr(b)),
            Expr::Ternary(c, t, f) => {
                let (c, t, f) = (self.expr(c), self.expr(t), self.expr(f));
                let Value(c) = c else {
                    return if c == Const(0) { f } else { t };
                };
                let not_c = self.keep(unary(UnOp::Not, Value(c)));
                let r = self.fresh();
                self.emit(Some(c), IrOp::Assign(t), Some(r));
                self.emit(Some(not_c), IrOp::Assign(f), Some(r));
                return Value(r);
            }
            Expr::Call(name, args) => call(name, self.exprs(args)),
        };
        Value(self.keep(op))
    }

    /// Lift a statement list, every statement predicated on `pred`.
    fn body(&mut self, pred: Option<ValueId>, body: &[OStmt]) -> Result<(), String> {
        for s in body {
            match s {
                OStmt::Assign { dst, rhs } => {
                    let v = self.expr(rhs);
                    self.write(pred, IrOp::Assign(v), dst);
                }
                OStmt::Hash { dst, args, bits } => {
                    if !(1..=32).contains(bits) {
                        return Err(format!("hash unit of {bits} bits has no IR builtin"));
                    }
                    let args = self.exprs(args);
                    let h = Value(self.keep(call("crc32_hash", args)));
                    let m = Const(mask(u64::MAX, *bits));
                    self.write(pred, binary(BinOp::And, h, m), dst);
                }
                OStmt::RegRead { dst, reg, idx } => {
                    let op = global_read(reg, self.expr(idx));
                    self.write(pred, op, dst);
                }
                OStmt::RegWrite { reg, idx, val } => {
                    let (index, value) = (self.expr(idx), self.expr(val));
                    let global = reg.clone();
                    let op = IrOp::GlobalWrite {
                        global,
                        index,
                        value,
                    };
                    self.emit(pred, op, None);
                }
                OStmt::Effect { name, args } => {
                    let (name, args) = (name.clone(), self.exprs(args));
                    self.emit(pred, IrOp::Action { name, args }, None);
                }
                OStmt::Guarded { cond, body } => {
                    let c = self.truth(cond);
                    let p = self.and(pred, c);
                    self.body(Some(p), body)?;
                }
            }
        }
        Ok(())
    }
}

fn binary(op: BinOp, a: Operand, b: Operand) -> IrOp {
    IrOp::Binary { op, a, b }
}

fn unary(op: UnOp, a: Operand) -> IrOp {
    IrOp::Unary { op, a }
}

fn call(name: &str, args: Vec<Operand>) -> IrOp {
    let name = name.to_string();
    IrOp::Call { name, args }
}

/// `reg[index]`; NPL spells the array `reg.value`.
fn global_read(reg: &str, index: Operand) -> IrOp {
    let global = reg.strip_suffix(".value").unwrap_or(reg).to_string();
    IrOp::GlobalRead { global, index }
}

/// Lift `body` as the one function of an artifact and run it from `init`.
#[cfg(test)]
pub(crate) fn run_stmts(
    body: Vec<OStmt>,
    init: &[(&str, u64)],
    dp: &mut lyra_ir::DataPlaneState,
) -> lyra_ir::PacketState {
    let model = ArtifactModel {
        functions: [("f".to_string(), body)].into(),
        steps: vec![Step::Func { name: "f".into() }],
        ..Default::default()
    };
    let alg = lift(&model, &[]).unwrap();
    let mut pkt = lyra_ir::PacketState::new();
    for (k, v) in init {
        pkt.set(*k, *v);
    }
    lyra_ir::execute_all(&alg, &mut pkt, dp);
    pkt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{npl, p416};
    use lyra_ir::{execute_all, DataPlaneState, PacketState};

    /// Two tables: `a_t0` keyed and gated, with a hit action and its miss
    /// twin; keyless `a_t1` behind a rule condition that reads what
    /// `a_t0`'s actions wrote.
    const P416: &str = r#"
struct metadata_t {
    bit<8> a_x;
    bit<32> a_v;
}
control LyraIngress(inout headers_t hdr, inout metadata_t md) {
    action a_act0(bit<32> val) {
        md.a_v = val;
        md.a_x = md.a_x + 1;
    }
    action a_act0_miss() {
        md.a_x = 300;
    }
    action a_act1() {
        md.a_x = md.a_x + 10;
    }
    table a_t0 {
        key = {
            md.a_k : exact;
        }
        actions = {
            a_act0;
            a_act0_miss;
        }
    }
    table a_t1 {
        actions = {
            a_act1;
        }
    }
    apply {
        if (md.a_g != 0) {
            a_t0.apply();
        }
        a_t1.apply();
    }
}
"#;

    fn rule(table: &str, action: &str, when: When, cond: Option<&str>) -> TableRule {
        TableRule {
            table: table.into(),
            action: action.into(),
            when,
            cond: cond.map(Into::into),
        }
    }

    fn p416_rules() -> Vec<TableRule> {
        vec![
            rule("a_t0", "a_act0", When::Hit, None),
            rule("a_t0", "a_act0_miss", When::Miss, None),
            rule("a_t1", "a_act1", When::Always, Some("md.a_x == 1")),
        ]
    }

    fn run(alg: &IrAlgorithm, init: &[(&str, u64)], entries: &[(&str, u64, u64)]) -> PacketState {
        let mut dp = DataPlaneState::new();
        for &(t, k, v) in entries {
            dp.install(t, k, v);
        }
        let mut pkt = PacketState::new();
        for &(k, v) in init {
            pkt.set(k, v);
        }
        execute_all(alg, &mut pkt, &mut dp);
        pkt
    }

    #[test]
    fn rules_gate_on_hit_miss_and_their_condition_in_rule_order() {
        let alg = lift(&p416::parse(P416).unwrap(), &p416_rules()).unwrap();
        let entry = [("a_t0", 5, 77)];
        // Hit: the parameter reads the entry's value; `a_t1`'s condition
        // sees the `md.a_x` the hit action just wrote.
        let hit = run(&alg, &[("md.a_g", 1), ("md.a_k", 5)], &entry);
        assert_eq!((hit.get("md.a_v"), hit.get("md.a_x")), (77, 11));
        // Miss: the twin runs, its write masked to the declared 8 bits.
        let miss = run(&alg, &[("md.a_g", 1), ("md.a_k", 6)], &entry);
        assert_eq!((miss.get("md.a_v"), miss.get("md.a_x")), (0, 300 & 0xff));
        // Gateway closed: `a_t0` neither hits nor misses.
        let gated = run(&alg, &[("md.a_x", 1), ("md.a_k", 5)], &entry);
        assert_eq!((gated.get("md.a_v"), gated.get("md.a_x")), (0, 11));
    }

    #[test]
    fn npl_passes_fold_to_constants_and_hit_flags() {
        let code = r#"
bus lyra_bus {
    bit[1] a_hit;
    bit[32] a_v;
}
logical_table a_t0 {
    key_construct() {
        if (_LOOKUP0) {
            key = lyra_bus.a_k;
        }
        if (_LOOKUP1) {
            key = lyra_bus.a_j;
        }
    }
    fields_assign() {
        if (_HIT1) {
            lyra_bus.a_hit = 1;
            lyra_bus.a_v = a_t0_value;
        }
        if (_LOOKUP0) {
            lyra_bus.a_n = lyra_bus.a_n + 1;
        }
    }
}
program lyra_main {
    a_t0.lookup(0);
    a_t0.lookup(1);
}
"#;
        let alg = lift(&npl::parse(code).unwrap(), &[]).unwrap();
        // Pass 0 hits but only pass 1's hit assigns; pass 0 counts once.
        let entries = [("a_t0", 3, 40), ("a_t0", 4, 50)];
        let both = run(&alg, &[("md.a_k", 3), ("md.a_j", 4)], &entries);
        assert_eq!(
            (both.get("md.a_hit"), both.get("md.a_v"), both.get("md.a_n")),
            (1, 50, 1)
        );
        let first = run(&alg, &[("md.a_k", 3), ("md.a_j", 9)], &entries);
        assert_eq!((first.get("md.a_hit"), first.get("md.a_v")), (0, 0));
    }

    #[test]
    fn malformed_artifacts_do_not_lift() {
        let model = p416::parse(P416).unwrap();
        let no_rules = lift(&model, &p416_rules()[..2]).unwrap_err();
        assert!(
            no_rules.contains("no control-plane rules for table `a_t1`"),
            "{no_rules}"
        );
        let mut rules = p416_rules();
        rules[0].action = "a_gone".into();
        let unknown = lift(&model, &rules).unwrap_err();
        assert!(unknown.contains("unknown action `a_gone`"), "{unknown}");
        let mut rules = p416_rules();
        rules[2].cond = Some("md.a_x ==".into());
        assert!(lift(&model, &rules).unwrap_err().starts_with("rule cond:"));
        let mut model = model;
        model.steps.push(Step::Func {
            name: "missing".into(),
        });
        let func = lift(&model, &p416_rules()).unwrap_err();
        assert!(func.contains("unknown function `missing`"), "{func}");
    }
}
