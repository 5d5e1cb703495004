//! Cross-backend semantic oracle: emitted-artifact interpreters.
//!
//! Each backend parser (`p414`, `p416`, `npl`) reads the code our own
//! emitter produced back into one executable [`ArtifactModel`]: declared
//! field widths, parser-time constant moves, register arrays, actions,
//! tables and the apply pipeline. [`run`] then executes a packet against
//! the model, driving table/action selection from the control stub's
//! `LYRA_TABLE_RULES` (see [`rules`]) and extern entries installed by the
//! test harness — exactly what the control-plane driver would install on
//! hardware.
//!
//! The executor mirrors the IR interpreter's semantics bit for bit
//! (wrapping 64-bit arithmetic, checked shifts/divides collapsing to 0,
//! the shared [`reference_hash`] standing in for the chip CRC units), so
//! any state difference between an IR run and an emitted-artifact run is a
//! translation bug, not interpreter noise. Divergences surface as
//! `LYR0601`/`LYR0602`; malformed artifacts as `LYR0603`; control-stub
//! inconsistencies as `LYR0605`.

pub mod expr;
pub mod npl;
pub mod p414;
pub mod p416;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};

use lyra_ir::interp::{global_read, global_write, mask, reference_hash};

use expr::{parse_expr, Env, Expr};
use rules::{TableRule, When};

/// One executable statement of an emitted action / function body.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // variant fields are described on the variants
pub enum OStmt {
    /// `dst = rhs` (dst is a canonical field name; masked to its width).
    Assign { dst: String, rhs: Expr },
    /// Hash-unit invocation: `dst = reference_hash(args) & mask(bits)`.
    Hash {
        dst: String,
        args: Vec<Expr>,
        bits: u32,
    },
    /// Register array read `dst = reg[idx]`.
    RegRead { dst: String, reg: String, idx: Expr },
    /// Register array write `reg[idx] = val`.
    RegWrite { reg: String, idx: Expr, val: Expr },
    /// Externally visible action (canonical name, evaluated args).
    Effect { name: String, args: Vec<Expr> },
    /// `if (cond) { body }` (NPL guards).
    Guarded { cond: Expr, body: Vec<OStmt> },
}

/// A parsed action.
#[derive(Debug, Clone, Default)]
pub struct OAction {
    /// Action-data parameter names (bound from the matched entry's value).
    pub params: Vec<String>,
    /// Body in source order.
    pub body: Vec<OStmt>,
}

/// A parsed table.
#[derive(Debug, Clone, Default)]
pub struct OTable {
    /// P4 match-key field expressions (empty for keyless tables).
    pub keys: Vec<Expr>,
    /// P4 action names in declared order.
    pub actions: Vec<String>,
    /// NPL `key_construct()` branches: pass → key expression.
    pub key_by_pass: BTreeMap<u32, Expr>,
    /// NPL `fields_assign()` body.
    pub fields_assign: Vec<OStmt>,
    /// NPL lookup pass count.
    pub lookups: u32,
}

/// One step of the apply pipeline.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // variant fields are described on the variants
pub enum Step {
    /// Apply a P4 table, optionally behind a gateway condition.
    Apply { table: String, gate: Option<Expr> },
    /// Call an NPL function / parser-init function.
    Func { name: String },
    /// One NPL `table.lookup(pass)` invocation.
    NplLookup { table: String, pass: u32 },
    /// Pipeline recirculation marker (no packet-state semantics here).
    Recirculate,
}

/// Executable model of one emitted artifact.
#[derive(Debug, Clone, Default)]
pub struct ArtifactModel {
    /// Canonical field name → declared width (headers, metadata, bridge).
    pub widths: BTreeMap<String, u32>,
    /// Parser-time constant moves, in order.
    pub parser_inits: Vec<(String, u64)>,
    /// Register arrays: name → (width, length).
    pub registers: BTreeMap<String, (u32, u64)>,
    /// Actions by name.
    pub actions: BTreeMap<String, OAction>,
    /// NPL function bodies by name.
    pub functions: BTreeMap<String, Vec<OStmt>>,
    /// Tables by name.
    pub tables: BTreeMap<String, OTable>,
    /// Apply pipeline in execution order.
    pub steps: Vec<Step>,
}

/// Control stub contents the oracle checks and executes against.
#[derive(Debug, Clone, Default)]
pub struct ControlModel {
    /// Parsed `LYRA_TABLE_RULES`.
    pub rules: Vec<TableRule>,
    /// Extern name → declared capacity.
    pub capacities: BTreeMap<String, u64>,
    /// Placement epoch advertised by the stub.
    pub epoch: u64,
    /// Python functions defined by the stub.
    pub functions: BTreeSet<String>,
    /// Whether any placeholder TODO survived into the stub.
    pub has_todo: bool,
}

/// Packet + environment fed to one oracle run.
#[derive(Debug, Clone, Default)]
pub struct OracleInput {
    /// Initial canonical field values (the packet).
    pub init: BTreeMap<String, u64>,
    /// Entries per *emitted table name*: key → value (lists store 1).
    pub table_entries: BTreeMap<String, BTreeMap<u64, u64>>,
    /// Initial register contents.
    pub globals: BTreeMap<String, Vec<u64>>,
}

/// Result of one oracle run.
#[derive(Debug, Clone, Default)]
pub struct OracleOutcome {
    /// Final canonical field values.
    pub vars: BTreeMap<String, u64>,
    /// Final register contents.
    pub globals: BTreeMap<String, Vec<u64>>,
    /// Canonical effects in firing order.
    pub effects: Vec<(String, Vec<u64>)>,
}

/// Value-producing builtins with the IR interpreter's exact semantics —
/// a thin re-export of the one shared dispatch in `lyra_ir::interp`, so
/// the artifact oracle and the IR interpreter can never drift.
pub fn builtin_call(name: &str, args: &[u64]) -> u64 {
    lyra_ir::interp::builtin_call(name, args)
}

/// Map backend intrinsic field spellings to the IR builtin they realize,
/// so reading `eg_intr_md.deq_qdepth` and calling `get_queue_len()` agree.
pub fn intrinsic_builtin(name: &str) -> Option<&'static str> {
    match name {
        "eg_intr_md.deq_qdepth" | "std_meta.deq_qdepth" => Some("get_queue_len"),
        "ig_intr_md.ingress_global_tstamp" | "std_meta.ingress_global_timestamp" => {
            Some("get_ingress_timestamp")
        }
        "eg_intr_md.egress_global_tstamp" | "std_meta.egress_global_timestamp" => {
            Some("get_egress_timestamp")
        }
        "md.lyra_switch_id" => Some("get_switch_id"),
        "ig_intr_md.ingress_port" => Some("get_ingress_port"),
        "eg_intr_md.egress_port" => Some("get_egress_port"),
        _ => None,
    }
}

/// Canonicalize an effect so the IR run and every backend agree on the
/// name/argument shape. Returns `None` for non-effects (`no_op`).
pub fn canonical_effect(name: &str, args: Vec<u64>) -> Option<(String, Vec<u64>)> {
    let name = name.strip_prefix("lyra_").unwrap_or(name);
    match name {
        "drop" | "mark_to_drop" => Some(("drop".into(), Vec::new())),
        "forward" | "set_egress_port" => Some(("set_egress_port".into(), args)),
        "recirculate" => Some(("recirculate".into(), Vec::new())),
        "resubmit" => Some(("resubmit".into(), Vec::new())),
        "count" => Some(("count".into(), Vec::new())),
        // Header validity args are name references, not data — compare by
        // effect identity only.
        "add_header" | "remove_header" => Some((name.into(), Vec::new())),
        "no_op" | "NoAction" => None,
        other => Some((other.into(), args)),
    }
}

struct ExecEnv<'a> {
    model: &'a ArtifactModel,
    vars: BTreeMap<String, u64>,
    globals: BTreeMap<String, Vec<u64>>,
    effects: Vec<(String, Vec<u64>)>,
    bindings: BTreeMap<String, u64>,
}

impl Env for ExecEnv<'_> {
    fn read(&mut self, name: &str) -> u64 {
        if let Some(v) = self.bindings.get(name) {
            return *v;
        }
        if let Some(b) = intrinsic_builtin(name) {
            return builtin_call(b, &[]);
        }
        self.vars.get(name).copied().unwrap_or(0)
    }

    fn call(&mut self, name: &str, args: &[u64]) -> u64 {
        builtin_call(name, args)
    }

    fn index(&mut self, name: &str, idx: u64) -> u64 {
        let g = name.strip_suffix(".value").unwrap_or(name);
        self.globals
            .get(g)
            .map(|a| global_read(a, idx))
            .unwrap_or(0)
    }
}

impl ExecEnv<'_> {
    fn write(&mut self, name: &str, v: u64) {
        let w = self.model.widths.get(name).copied().unwrap_or(0);
        self.vars.insert(name.to_string(), mask(v, w));
    }

    fn run_body(&mut self, body: &[OStmt]) -> Result<(), String> {
        for s in body {
            match s {
                OStmt::Assign { dst, rhs } => {
                    let v = rhs.eval(self);
                    self.write(dst, v);
                }
                OStmt::Hash { dst, args, bits } => {
                    let vals: Vec<u64> = args.iter().map(|a| a.eval(self)).collect();
                    let v = reference_hash(&vals) & mask(u64::MAX, *bits);
                    self.write(dst, v);
                }
                OStmt::RegRead { dst, reg, idx } => {
                    let i = idx.eval(self);
                    let v = self.index(reg, i);
                    self.write(dst, v);
                }
                OStmt::RegWrite { reg, idx, val } => {
                    let i = idx.eval(self);
                    let v = val.eval(self);
                    let arr = self.globals.entry(reg.clone()).or_default();
                    global_write(arr, i, v);
                }
                OStmt::Effect { name, args } => {
                    let vals: Vec<u64> = args.iter().map(|a| a.eval(self)).collect();
                    if let Some(e) = canonical_effect(name, vals) {
                        self.effects.push(e);
                    }
                }
                OStmt::Guarded { cond, body } => {
                    if cond.eval(self) != 0 {
                        self.run_body(body)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Execute `input` against `model`, selecting table actions per `rules`.
pub fn run(
    model: &ArtifactModel,
    rules: &[TableRule],
    input: &OracleInput,
) -> Result<OracleOutcome, String> {
    let mut env = ExecEnv {
        model,
        vars: input.init.clone(),
        globals: input.globals.clone(),
        effects: Vec::new(),
        bindings: BTreeMap::new(),
    };
    for (g, &(_, len)) in &model.registers {
        env.globals
            .entry(g.clone())
            .or_insert_with(|| vec![0; len as usize]);
    }
    for (dst, c) in &model.parser_inits {
        env.write(dst, *c);
    }
    let steps = model.steps.clone();
    for step in &steps {
        match step {
            Step::Recirculate => {}
            Step::Func { name } => {
                let body = model
                    .functions
                    .get(name)
                    .ok_or_else(|| format!("apply calls unknown function `{name}`"))?
                    .clone();
                env.run_body(&body)?;
            }
            Step::Apply { table, gate } => {
                if let Some(g) = gate {
                    if g.eval(&mut env) == 0 {
                        continue;
                    }
                }
                let t = model
                    .tables
                    .get(table)
                    .ok_or_else(|| format!("apply names unknown table `{table}`"))?
                    .clone();
                let (hit, value) = if t.keys.is_empty() {
                    (false, None)
                } else {
                    let k = t.keys[0].eval(&mut env);
                    match input.table_entries.get(table).and_then(|m| m.get(&k)) {
                        Some(v) => (true, Some(*v)),
                        None => (false, None),
                    }
                };
                let trules: Vec<&TableRule> = rules.iter().filter(|r| &r.table == table).collect();
                if trules.is_empty() {
                    return Err(format!("no control-plane rules for table `{table}`"));
                }
                for rule in trules {
                    let fires = match rule.when {
                        When::Always => true,
                        When::Hit => hit,
                        When::Miss => !hit && !t.keys.is_empty(),
                    };
                    if !fires {
                        continue;
                    }
                    if let Some(c) = &rule.cond {
                        let e = parse_expr(c).map_err(|e| format!("rule cond: {e}"))?;
                        if e.eval(&mut env) == 0 {
                            continue;
                        }
                    }
                    let action = model
                        .actions
                        .get(&rule.action)
                        .ok_or_else(|| {
                            format!("rule names unknown action `{}` of `{table}`", rule.action)
                        })?
                        .clone();
                    if let Some(v) = value {
                        for p in &action.params {
                            env.bindings.insert(p.clone(), v);
                        }
                    }
                    let r = env.run_body(&action.body);
                    env.bindings.clear();
                    r?;
                }
            }
            Step::NplLookup { table, pass } => {
                let t = model
                    .tables
                    .get(table)
                    .ok_or_else(|| format!("lookup names unknown table `{table}`"))?
                    .clone();
                let (hit, value) = match t.key_by_pass.get(pass) {
                    Some(kx) => {
                        let k = kx.eval(&mut env);
                        match input.table_entries.get(table).and_then(|m| m.get(&k)) {
                            Some(v) => (true, Some(*v)),
                            None => (false, None),
                        }
                    }
                    None => (false, None),
                };
                for li in 0..t.lookups.max(*pass + 1) {
                    env.bindings.insert(format!("_LOOKUP{li}"), 0);
                    env.bindings.insert(format!("_HIT{li}"), 0);
                }
                env.bindings.insert(format!("_LOOKUP{pass}"), 1);
                env.bindings.insert(format!("_HIT{pass}"), hit as u64);
                env.bindings
                    .insert(format!("{table}_value"), value.unwrap_or(0));
                let r = env.run_body(&t.fields_assign);
                env.bindings.clear();
                r?;
            }
        }
    }
    Ok(OracleOutcome {
        vars: env.vars,
        globals: env.globals,
        effects: env.effects,
    })
}

/// Parse the Python control stub into a [`ControlModel`].
pub fn parse_control(stub: &str) -> Result<ControlModel, String> {
    let mut cm = ControlModel {
        has_todo: stub.contains("TODO"),
        ..Default::default()
    };
    let mut in_rules = false;
    for line in stub.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("def ") {
            if let Some(name) = rest.split('(').next() {
                cm.functions.insert(name.trim().to_string());
            }
        }
        if let Some(rest) = t.strip_suffix("_CAPACITY") {
            let _ = rest; // handled below on the assignment form
        }
        if let Some((lhs, rhs)) = t.split_once(" = ") {
            if let Some(name) = lhs.strip_suffix("_CAPACITY") {
                if let Ok(n) = rhs.trim().parse::<u64>() {
                    cm.capacities.insert(name.to_string(), n);
                }
            }
            if lhs == "PLACEMENT_EPOCH" {
                if let Ok(n) = rhs.trim().parse::<u64>() {
                    cm.epoch = n;
                }
            }
        }
        if t.starts_with("LYRA_TABLE_RULES") && t.ends_with('[') {
            in_rules = true;
            continue;
        }
        if in_rules {
            if t.starts_with(']') {
                in_rules = false;
                continue;
            }
            cm.rules.push(parse_rule_tuple(t)?);
        }
    }
    Ok(cm)
}

/// Parse one `("table", "action", "when", None | "cond"),` stub line.
fn parse_rule_tuple(line: &str) -> Result<TableRule, String> {
    let t = line
        .trim()
        .trim_start_matches('(')
        .trim_end_matches(',')
        .trim_end_matches(')');
    // Split on quote boundaries: fields are quoted strings or None.
    let mut fields: Vec<Option<String>> = Vec::new();
    let mut rest = t;
    for _ in 0..4 {
        let r = rest.trim_start().trim_start_matches(',').trim_start();
        if let Some(after) = r.strip_prefix("None") {
            fields.push(None);
            rest = after;
        } else if let Some(body) = r.strip_prefix('"') {
            let end = body
                .find('"')
                .ok_or_else(|| format!("unterminated string in rule `{line}`"))?;
            fields.push(Some(body[..end].to_string()));
            rest = &body[end + 1..];
        } else {
            return Err(format!("malformed rule tuple `{line}`"));
        }
    }
    let get = |i: usize| -> Result<String, String> {
        fields[i]
            .clone()
            .ok_or_else(|| format!("rule field {i} must not be None in `{line}`"))
    };
    Ok(TableRule {
        table: get(0)?,
        action: get(1)?,
        when: When::parse(&get(2)?).ok_or_else(|| format!("bad rule `when` in `{line}`"))?,
        cond: fields[3].clone(),
    })
}

/// Serialize rules for the control stub (one tuple per line).
pub fn rule_lines(rules: &[TableRule]) -> Vec<String> {
    rules
        .iter()
        .map(|r| {
            let cond = match &r.cond {
                Some(c) => format!("\"{c}\""),
                None => "None".to_string(),
            };
            format!(
                "    (\"{}\", \"{}\", \"{}\", {cond}),",
                r.table,
                r.action,
                r.when.as_str()
            )
        })
        .collect()
}

/// Strip `/* … */` comments and trailing `//` comments from one line.
pub(crate) fn strip_comments(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    loop {
        match rest.find("/*") {
            Some(i) => {
                out.push_str(&rest[..i]);
                match rest[i..].find("*/") {
                    Some(j) => rest = &rest[i + j + 2..],
                    None => break,
                }
            }
            None => {
                out.push_str(rest);
                break;
            }
        }
    }
    if let Some(i) = out.find("//") {
        out.truncate(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_lines_roundtrip() {
        let rules = vec![
            TableRule {
                table: "a_t0".into(),
                action: "a_x_act0".into(),
                when: When::Hit,
                cond: None,
            },
            TableRule {
                table: "a_t1".into(),
                action: "a_t1_act1".into(),
                when: When::Always,
                cond: Some("md.a_h != 0".into()),
            },
        ];
        let stub = format!(
            "PLACEMENT_EPOCH = 3\nvip_table_CAPACITY = 512\nLYRA_TABLE_RULES = [\n{}\n]\ndef lyra_init(driver):\n    pass\n",
            rule_lines(&rules).join("\n")
        );
        let cm = parse_control(&stub).unwrap();
        assert_eq!(cm.epoch, 3);
        assert_eq!(cm.capacities.get("vip_table"), Some(&512));
        assert!(cm.functions.contains("lyra_init"));
        assert_eq!(cm.rules.len(), 2);
        assert_eq!(cm.rules[0].when, When::Hit);
        assert_eq!(cm.rules[0].cond, None);
        assert_eq!(cm.rules[1].cond.as_deref(), Some("md.a_h != 0"));
    }

    #[test]
    fn builtin_parity_with_interp() {
        // Same constants as lyra_ir::interp.
        assert_eq!(
            builtin_call("crc32_hash", &[42]),
            reference_hash(&[42]) & 0xffff_ffff
        );
        assert_eq!(
            builtin_call("crc16_hash", &[42]),
            reference_hash(&[42]) & 0xffff
        );
        assert_eq!(builtin_call("min", &[9, 4, 7]), 4);
        assert_eq!(
            builtin_call("lyra_get_switch_id", &[]),
            reference_hash(&["get_switch_id".len() as u64]) & 0xffff_ffff
        );
    }

    #[test]
    fn comment_stripping() {
        assert_eq!(
            strip_comments("    modify_field(x, 1); /* table hit */"),
            "    modify_field(x, 1); "
        );
        assert_eq!(strip_comments("a = 0; // miss default"), "a = 0; ");
    }
}
