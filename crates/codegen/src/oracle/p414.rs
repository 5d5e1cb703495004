//! P4₁₄ artifact parser: reads the emitted Tofino program back into an
//! [`ArtifactModel`].
//!
//! The grammar is exactly what `crate::p414::emit` produces: `header_type`
//! declarations + instances, a metadata bundle, parser `set_metadata`
//! moves, `register` blocks, `field_list`/`field_list_calculation` pairs,
//! primitive-call action bodies, `table` blocks with `reads`/`actions`
//! sections, and `control ingress`/`control egress` apply sequences.

use std::borrow::Cow;
use std::collections::BTreeMap;

use lyra_lang::{BinOp, UnOp};

use super::expr::{parse_expr, Expr};
use super::{braces, parse_signature, strip_comments, ArtifactModel, OAction, OStmt, OTable, Step};

/// Parse an emitted P4₁₄ program.
pub fn parse(code: &str) -> Result<ArtifactModel, String> {
    let lines: Vec<Cow<str>> = code.lines().map(strip_comments).collect();
    let mut m = ArtifactModel::default();
    // header_type name → fields.
    let mut header_fields: BTreeMap<String, Vec<(String, u32)>> = BTreeMap::new();
    // field_list name → arg expressions; calculation name → (list, bits).
    let mut field_lists: BTreeMap<String, Vec<Expr>> = BTreeMap::new();
    let mut calcs: BTreeMap<String, (String, u32)> = BTreeMap::new();

    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].trim();
        if let Some(rest) = t.strip_prefix("header_type ") {
            let name = rest.trim_end_matches('{').trim().to_string();
            let (fields, next) = parse_fields_block(&lines, i + 1)?;
            header_fields.insert(name, fields);
            i = next;
            continue;
        }
        if let Some(rest) = t.strip_prefix("header ") {
            // `header TYPE inst;`
            let mut parts = rest.trim_end_matches(';').split_whitespace();
            if let (Some(ty), Some(inst)) = (parts.next(), parts.next()) {
                register_instance(&mut m, &header_fields, ty, inst);
            }
            i += 1;
            continue;
        }
        if let Some(rest) = t.strip_prefix("metadata ") {
            let mut parts = rest.trim_end_matches(';').split_whitespace();
            if let (Some(ty), Some(inst)) = (parts.next(), parts.next()) {
                register_instance(&mut m, &header_fields, ty, inst);
            }
            i += 1;
            continue;
        }
        if t.starts_with("parser ") && t.ends_with('{') {
            i = parse_parser_block(&lines, i + 1, &mut m)?;
            continue;
        }
        if t.starts_with("register ") && t.ends_with('{') {
            let name = t
                .trim_start_matches("register ")
                .trim_end_matches('{')
                .trim()
                .to_string();
            let (mut w, mut len) = (32u32, 1u64);
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim() != "}" {
                let l = lines[j].trim();
                if let Some(v) = l.strip_prefix("width :") {
                    w = num(v)? as u32;
                }
                if let Some(v) = l.strip_prefix("instance_count :") {
                    len = num(v)?;
                }
                j += 1;
            }
            m.registers.insert(name, (w, len));
            i = j + 1;
            continue;
        }
        if t.starts_with("field_list_calculation ") && t.ends_with('{') {
            let name = t
                .trim_start_matches("field_list_calculation ")
                .trim_end_matches('{')
                .trim()
                .to_string();
            let (mut list, mut bits) = (String::new(), 32u32);
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim() != "}" {
                let l = lines[j].trim();
                if let Some(v) = l.strip_prefix("input {") {
                    list = v.trim_end_matches('}').trim().trim_end_matches(';').into();
                }
                if let Some(v) = l.strip_prefix("output_width :") {
                    bits = num(v)? as u32;
                }
                j += 1;
            }
            calcs.insert(name, (list, bits));
            i = j + 1;
            continue;
        }
        if t.starts_with("field_list ") && t.ends_with('{') {
            let name = t
                .trim_start_matches("field_list ")
                .trim_end_matches('{')
                .trim()
                .to_string();
            let mut args = Vec::new();
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim() != "}" {
                let l = lines[j].trim().trim_end_matches(';');
                if !l.is_empty() {
                    args.push(parse_expr(l)?);
                }
                j += 1;
            }
            field_lists.insert(name, args);
            i = j + 1;
            continue;
        }
        if t.starts_with("action ") && t.ends_with('{') {
            let sig = t.trim_start_matches("action ").trim_end_matches('{').trim();
            let (name, params) = parse_signature(sig)?;
            let mut body = Vec::new();
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim() != "}" {
                let l = lines[j].trim();
                if !l.is_empty() {
                    if let Some(s) = parse_primitive(l, &field_lists, &calcs)? {
                        body.push(s);
                    }
                }
                j += 1;
            }
            m.actions.insert(name, OAction { params, body });
            i = j + 1;
            continue;
        }
        if t.starts_with("table ") && t.ends_with('{') {
            let name = t
                .trim_start_matches("table ")
                .trim_end_matches('{')
                .trim()
                .to_string();
            let mut table = OTable::default();
            let mut j = i + 1;
            let mut section = "";
            let mut depth = 1i32;
            while j < lines.len() {
                let l = lines[j].trim();
                depth += braces(l);
                if depth == 0 {
                    break;
                }
                if l.starts_with("reads {") {
                    section = "reads";
                } else if l.starts_with("actions {") {
                    section = "actions";
                } else if l == "}" {
                    section = "";
                } else if section == "reads" {
                    if let Some((field, _kind)) = l.trim_end_matches(';').split_once(" : ") {
                        table.keys.push(parse_expr(field.trim())?);
                    }
                } else if section == "actions" {
                    let a = l.trim_end_matches(';').trim();
                    if !a.is_empty() {
                        table.actions.push(a.to_string());
                    }
                }
                j += 1;
            }
            m.tables.insert(name, table);
            i = j + 1;
            continue;
        }
        if t.starts_with("control ") && t.ends_with('{') {
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim() != "}" {
                let l = lines[j].trim();
                if let Some(rest) = l.strip_prefix("apply(") {
                    let table = rest.trim_end_matches(';').trim_end_matches(')').to_string();
                    m.steps.push(Step::Apply { table, gate: None });
                } else if l.starts_with("recirculate(") {
                    m.steps.push(Step::Recirculate);
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    Ok(m)
}

/// Register `inst.field → width` for an instantiated header/metadata type.
fn register_instance(
    m: &mut ArtifactModel,
    header_fields: &BTreeMap<String, Vec<(String, u32)>>,
    ty: &str,
    inst: &str,
) {
    if let Some(fields) = header_fields.get(ty) {
        for (f, w) in fields {
            m.widths.insert(format!("{inst}.{f}"), *w);
        }
    }
}

/// Parse `fields { name : w; ... }` inside a header_type, returning the
/// fields and the index just past the header_type's closing brace.
fn parse_fields_block(
    lines: &[Cow<str>],
    start: usize,
) -> Result<(Vec<(String, u32)>, usize), String> {
    let mut fields = Vec::new();
    let mut depth = 1i32;
    let mut j = start;
    while j < lines.len() {
        let l = lines[j].trim();
        depth += braces(l);
        if depth <= 0 {
            return Ok((fields, j + 1));
        }
        if let Some((n, w)) = l.trim_end_matches(';').split_once(" : ") {
            if let Ok(w) = w.trim().parse::<u32>() {
                fields.push((n.trim().to_string(), w));
            }
        }
        j += 1;
    }
    Err("unterminated header_type block".into())
}

/// Consume a parser state block, collecting `set_metadata` constant moves.
fn parse_parser_block(
    lines: &[Cow<str>],
    start: usize,
    m: &mut ArtifactModel,
) -> Result<usize, String> {
    let mut depth = 1i32;
    let mut j = start;
    while j < lines.len() {
        let l = lines[j].trim();
        depth += braces(l);
        if depth <= 0 {
            return Ok(j + 1);
        }
        if let Some(rest) = l.strip_prefix("set_metadata(") {
            let inner = rest.trim_end_matches(';').trim_end_matches(')');
            let (d, v) = inner
                .split_once(',')
                .ok_or_else(|| format!("malformed set_metadata `{l}`"))?;
            match parse_expr(v.trim())? {
                Expr::Num(n) => m.parser_inits.push((d.trim().to_string(), n)),
                other => return Err(format!("non-constant parser set {other:?} in `{l}`")),
            }
        }
        j += 1;
    }
    Err("unterminated parser block".into())
}

/// Parse one primitive-call statement into an [`OStmt`].
fn parse_primitive(
    line: &str,
    field_lists: &BTreeMap<String, Vec<Expr>>,
    calcs: &BTreeMap<String, (String, u32)>,
) -> Result<Option<OStmt>, String> {
    let src = line.trim().trim_end_matches(';');
    if src.is_empty() {
        return Ok(None);
    }
    let e = parse_expr(src)?;
    let Expr::Call(name, args) = e else {
        return Err(format!("P4_14 statement is not a primitive call: `{line}`"));
    };
    let dst = |i: usize| -> Result<String, String> {
        match args.get(i) {
            Some(Expr::Var(v)) => Ok(v.clone()),
            other => Err(format!(
                "expected field name operand, got {other:?} in `{line}`"
            )),
        }
    };
    let bin = |op: BinOp| -> Result<Option<OStmt>, String> {
        Ok(Some(OStmt::Assign {
            dst: dst(0)?,
            rhs: Expr::Bin(op, Box::new(args[1].clone()), Box::new(args[2].clone())),
        }))
    };
    use BinOp as B;
    match name.as_str() {
        "modify_field" => {
            let d = dst(0)?;
            if d == "ig_intr_md_for_tm.ucast_egress_port" {
                return Ok(Some(OStmt::Effect {
                    name: "set_egress_port".into(),
                    args: vec![args[1].clone()],
                }));
            }
            Ok(Some(OStmt::Assign {
                dst: d,
                rhs: args[1].clone(),
            }))
        }
        "add" => bin(B::Add),
        "subtract" => bin(B::Sub),
        "bit_and" => bin(B::And),
        "bit_or" => bin(B::Or),
        "bit_xor" => bin(B::Xor),
        "shift_left" => bin(B::Shl),
        "shift_right" => bin(B::Shr),
        "min" | "max" => Ok(Some(OStmt::Assign {
            dst: dst(0)?,
            rhs: Expr::Call(name.clone(), args[1..].to_vec()),
        })),
        "bit_not" => Ok(Some(OStmt::Assign {
            dst: dst(0)?,
            rhs: Expr::Un(UnOp::BitNot, Box::new(args[1].clone())),
        })),
        "modify_field_with_hash_based_offset" => {
            let flc = match &args[2] {
                Expr::Var(v) => v.clone(),
                other => return Err(format!("expected calculation name, got {other:?}")),
            };
            let (list, bits) = calcs
                .get(&flc)
                .ok_or_else(|| format!("unknown field_list_calculation `{flc}`"))?;
            let hash_args = field_lists
                .get(list)
                .ok_or_else(|| format!("unknown field_list `{list}`"))?
                .clone();
            Ok(Some(OStmt::Hash {
                dst: dst(0)?,
                args: hash_args,
                bits: *bits,
            }))
        }
        "register_read" => Ok(Some(OStmt::RegRead {
            dst: dst(0)?,
            reg: match &args[1] {
                Expr::Var(v) => v.clone(),
                other => return Err(format!("expected register name, got {other:?}")),
            },
            idx: args[2].clone(),
        })),
        "register_write" => Ok(Some(OStmt::RegWrite {
            reg: dst(0)?,
            idx: args[1].clone(),
            val: args[2].clone(),
        })),
        "no_op" => Ok(None),
        "drop" | "recirculate" | "resubmit" | "count" | "add_header" | "remove_header" => {
            Ok(Some(OStmt::Effect {
                name: name.clone(),
                args: Vec::new(),
            }))
        }
        "clone_ingress_pkt_to_egress" => Ok(Some(OStmt::Effect {
            name: "copy_to_cpu".into(),
            args: args[1..].to_vec(),
        })),
        "clone_egress_pkt_to_egress" => Ok(Some(OStmt::Effect {
            name: "mirror".into(),
            args: args[1..].to_vec(),
        })),
        other => Err(format!("unknown P4_14 primitive `{other}` in `{line}`")),
    }
}

fn num(s: &str) -> Result<u64, String> {
    s.trim()
        .trim_end_matches(';')
        .parse::<u64>()
        .map_err(|e| format!("bad number `{s}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"/* P4_14 program for S1 (tofino-32q) — generated by Lyra */
header_type ipv4_t {
    fields {
        srcAddr : 32;
        dstAddr : 32;
    }
}
header ipv4_t ipv4;
header_type lyra_metadata_t {
    fields {
        lb_hash : 32;
        lb_hit : 1;
    }
}
metadata lyra_metadata_t md;
parser start {
    set_metadata(md.lb_hash, 0);
    return ingress;
}
register pkt_count {
    width : 32;
    instance_count : 16;
}
field_list lyra_fl_0 {
    ipv4.srcAddr;
    ipv4.dstAddr;
}
field_list_calculation lyra_flc_0 {
    input { lyra_fl_0; }
    algorithm : crc32;
    output_width : 32;
}
action lb_act0(val_ip) {
    modify_field_with_hash_based_offset(md.lb_hash, 0, lyra_flc_0, 4294967296);
    modify_field(ipv4.dstAddr, val_ip);
}
table lb_t0 {
    reads {
        md.lb_hash : exact;
    }
    actions {
        lb_act0;
    }
    size : 1024;
}
control ingress {
    apply(lb_t0);
}
control egress {
}
"#;

    #[test]
    fn parses_sample() {
        let m = parse(SAMPLE).unwrap();
        assert_eq!(m.widths.get("ipv4.srcAddr"), Some(&32));
        assert_eq!(m.widths.get("md.lb_hash"), Some(&32));
        assert_eq!(m.parser_inits, vec![("md.lb_hash".to_string(), 0)]);
        assert_eq!(m.registers.get("pkt_count"), Some(&(32, 16)));
        let a = &m.actions["lb_act0"];
        assert_eq!(a.params, vec!["val_ip"]);
        assert_eq!(a.body.len(), 2);
        assert!(matches!(&a.body[0], OStmt::Hash { bits: 32, .. }));
        let t = &m.tables["lb_t0"];
        assert_eq!(t.keys.len(), 1);
        assert_eq!(t.actions, vec!["lb_act0"]);
        assert_eq!(m.steps.len(), 1);
    }

    #[test]
    fn effect_primitives() {
        let fl = BTreeMap::new();
        let c = BTreeMap::new();
        let s = parse_primitive("clone_ingress_pkt_to_egress(250, md.x);", &fl, &c)
            .unwrap()
            .unwrap();
        match s {
            OStmt::Effect { name, args } => {
                assert_eq!(name, "copy_to_cpu");
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let s = parse_primitive(
            "modify_field(ig_intr_md_for_tm.ucast_egress_port, 7);",
            &fl,
            &c,
        )
        .unwrap()
        .unwrap();
        assert!(matches!(s, OStmt::Effect { ref name, .. } if name == "set_egress_port"));
    }
}
