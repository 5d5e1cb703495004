//! Cross-backend semantic oracle: emitted artifacts lifted back into IR.
//!
//! Each backend parser (`p414`, `p416`, `npl`) reads the code our own
//! emitter produced back into one [`ArtifactModel`]: declared field
//! widths, parser-time constant moves, register arrays, actions, tables and
//! the apply pipeline. [`lift`] then turns the model plus the control
//! stub's `LYRA_TABLE_RULES` (see [`rules`]) into predicated IR, which runs
//! on `lyra_ir::execute` against extern entries installed by the test
//! harness — exactly what the control-plane driver would install on
//! hardware. The emitted side and the IR reference therefore share one
//! executor, so any state difference between them is a translation bug.
//! [`parse`] dispatches on the artifact's language; it is the only reader
//! of emitted code, so `validate` checks the same model the oracle runs.
//! Divergences surface as `LYR0601`; artifacts that cannot be parsed or
//! lifted as `LYR0603`; control-stub inconsistencies as `LYR0605`.

pub mod expr;
mod lift;
mod npl;
mod p414;
mod p416;
pub mod rules;

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use expr::Expr;
pub use lift::lift;
use lyra_chips::TargetLang;
use rules::{TableRule, When};

use crate::emit::Artifact;

/// One statement of an emitted action / function body.
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

/// Parsed model of one emitted artifact.
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

/// Parse an emitted artifact with its language's parser. This is the one
/// reader of emitted code: [`crate::validate()`] checks the model it returns
/// and [`lift`] runs it.
pub fn parse(artifact: &Artifact) -> Result<ArtifactModel, String> {
    match artifact.lang {
        TargetLang::P414 => p414::parse(&artifact.code),
        TargetLang::P416 => p416::parse(&artifact.code),
        TargetLang::Npl => npl::parse(&artifact.code),
    }
}

/// Control stub contents the oracle checks and lifts against.
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

/// Strip `/* … */` comments and trailing `//` comments from one line;
/// only a line with a block comment is copied.
pub(crate) fn strip_comments(line: &str) -> Cow<'_, str> {
    if !line.contains('/') {
        return Cow::Borrowed(line);
    }
    if !line.contains("/*") {
        return Cow::Borrowed(line.split("//").next().unwrap_or(line));
    }
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
    Cow::Owned(out)
}

/// An action signature `name(p1, bit<W> p2)` → (name, parameter names);
/// a parameter is the last word of its declaration.
pub(crate) fn parse_signature(sig: &str) -> Result<(String, Vec<String>), String> {
    let (name, params) = sig
        .split_once('(')
        .ok_or_else(|| format!("malformed action signature `{sig}`"))?;
    let params = params.trim_end_matches(')').split(',');
    let params = params.filter_map(|p| p.split_whitespace().last());
    Ok((
        name.trim().to_string(),
        params.map(str::to_string).collect(),
    ))
}

/// Net brace depth change of one line.
pub(crate) fn braces(l: &str) -> i32 {
    l.chars().fold(0, |acc, c| match c {
        '{' => acc + 1,
        '}' => acc - 1,
        _ => acc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_ir::{builtin_call, reference_hash, DataPlaneState};

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
        // Hash units, intrinsic reads and `lyra_`-prefixed calls lift to
        // the interpreter's own builtins: a 16-bit unit is crc16, a 32-bit
        // one crc32, and the prefix is stripped before dispatch.
        let hash = |dst: &str, bits| OStmt::Hash {
            dst: dst.into(),
            args: vec![Expr::Num(42)],
            bits,
        };
        let assign = |dst: &str, src| OStmt::Assign {
            dst: dst.into(),
            rhs: expr::parse_expr(src).unwrap(),
        };
        let body = vec![
            hash("h16", 16),
            hash("h32", 32),
            assign("m", "min(9, 4, 7)"),
            assign("id", "md.lyra_switch_id"),
            assign("sid", "lyra_get_switch_id()"),
        ];
        let pkt = lift::run_stmts(body, &[], &mut DataPlaneState::new());
        assert_eq!(pkt.get("h16"), reference_hash(&[42]) & 0xffff);
        assert_eq!(pkt.get("h32"), reference_hash(&[42]) & 0xffff_ffff);
        assert_eq!(pkt.get("m"), 4);
        let switch_id = reference_hash(&["get_switch_id".len() as u64]) & 0xffff_ffff;
        assert_eq!(pkt.get("id"), switch_id);
        assert_eq!(pkt.get("sid"), switch_id);
        assert_eq!(
            builtin_call("crc16_hash", &[42]),
            reference_hash(&[42]) & 0xffff
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
