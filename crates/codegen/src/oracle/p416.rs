//! P4₁₆ artifact parser: reads the emitted Silicon One program back into
//! an [`ArtifactModel`].
//!
//! The grammar is exactly what `crate::p416::emit` produces: `header`
//! declarations, `struct headers_t` / `struct metadata_t`, a parser whose
//! start state may carry hoisted constant assignments, `register`
//! declarations, `action`/`table` blocks inside a single control, and an
//! `apply` block of `t.apply()` calls optionally behind one-level
//! gateway `if`s.

use std::borrow::Cow;
use std::collections::BTreeMap;

use super::expr::{parse_expr, Expr};
use super::{braces, parse_signature, strip_comments, ArtifactModel, OAction, OStmt, OTable, Step};

/// Parse an emitted P4₁₆ program.
pub fn parse(code: &str) -> Result<ArtifactModel, String> {
    let lines: Vec<Cow<str>> = code.lines().map(strip_comments).collect();
    let mut m = ArtifactModel::default();
    let mut header_fields: BTreeMap<String, Vec<(String, u32)>> = BTreeMap::new();

    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].trim();
        if t.starts_with("header ") && t.ends_with('{') {
            let name = t
                .trim_start_matches("header ")
                .trim_end_matches('{')
                .trim()
                .to_string();
            let mut fields = Vec::new();
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim() != "}" {
                if let Some((w, f)) = parse_bit_decl(lines[j].trim()) {
                    fields.push((f, w));
                }
                j += 1;
            }
            header_fields.insert(name, fields);
            i = j + 1;
            continue;
        }
        if t.starts_with("struct headers_t") {
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim() != "}" {
                let l = lines[j].trim().trim_end_matches(';');
                if let Some((ty, inst)) = l.split_once(' ') {
                    if let Some(fields) = header_fields.get(ty.trim()) {
                        for (f, w) in fields {
                            m.widths.insert(format!("{}.{f}", inst.trim()), *w);
                        }
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if t.starts_with("struct metadata_t") {
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim() != "}" {
                if let Some((w, f)) = parse_bit_decl(lines[j].trim()) {
                    m.widths.insert(format!("md.{f}"), w);
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if t.starts_with("parser ") {
            let mut depth = braces(t);
            let mut j = i + 1;
            while j < lines.len() && depth > 0 {
                let l = lines[j].trim();
                depth += braces(l);
                if let Some((lhs, rhs)) = l.trim_end_matches(';').split_once(" = ") {
                    match parse_expr(rhs.trim())? {
                        Expr::Num(n) => m.parser_inits.push((lhs.trim().to_string(), n)),
                        other => return Err(format!("non-constant parser assignment {other:?}")),
                    }
                }
                j += 1;
            }
            i = j;
            continue;
        }
        if t.starts_with("register<") {
            // `register<bit<W>>(LEN) name;`
            let w = t
                .trim_start_matches("register<bit<")
                .split('>')
                .next()
                .and_then(|s| s.parse::<u32>().ok())
                .ok_or_else(|| format!("malformed register decl `{t}`"))?;
            let len = t
                .split('(')
                .nth(1)
                .and_then(|s| s.split(')').next())
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format!("malformed register decl `{t}`"))?;
            let name = t
                .rsplit(' ')
                .next()
                .unwrap_or("")
                .trim_end_matches(';')
                .to_string();
            m.registers.insert(name, (w, len));
            i += 1;
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
                    if let Some(s) = parse_stmt(l)? {
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
            let mut depth = 1i32;
            let mut section = "";
            while j < lines.len() {
                let l = lines[j].trim();
                depth += braces(l);
                if depth == 0 {
                    break;
                }
                if l.starts_with("key = {") {
                    section = "key";
                } else if l.starts_with("actions = {") {
                    section = "actions";
                } else if l == "}" {
                    section = "";
                } else if section == "key" {
                    if let Some((field, _)) = l.trim_end_matches(';').split_once(" : ") {
                        table.keys.push(parse_expr(field.trim())?);
                    }
                } else if section == "actions" {
                    let a = l.trim_end_matches(';').trim();
                    if !a.is_empty() && a != "NoAction" {
                        table.actions.push(a.to_string());
                    }
                }
                j += 1;
            }
            m.tables.insert(name, table);
            i = j + 1;
            continue;
        }
        if t == "apply {" {
            let mut j = i + 1;
            let mut depth = 1i32;
            while j < lines.len() && depth > 0 {
                let l = lines[j].trim();
                depth += braces(l);
                if let Some(cond) = l.strip_prefix("if ").and_then(|r| r.strip_suffix('{')) {
                    // One-level gateway: the next line applies the table.
                    let gate = parse_expr(cond.trim())?;
                    let inner = lines
                        .get(j + 1)
                        .map(|x| x.trim().to_string())
                        .unwrap_or_default();
                    let table = inner
                        .strip_suffix(".apply();")
                        .ok_or_else(|| format!("gateway if without apply: `{inner}`"))?
                        .to_string();
                    m.steps.push(Step::Apply {
                        table,
                        gate: Some(gate),
                    });
                    depth += braces(&inner) - 1; // consume inner line + closing brace
                    j += 3;
                    continue;
                }
                if let Some(table) = l.strip_suffix(".apply();") {
                    m.steps.push(Step::Apply {
                        table: table.to_string(),
                        gate: None,
                    });
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    Ok(m)
}

/// `bit<W> name;` → (W, name).
fn parse_bit_decl(l: &str) -> Option<(u32, String)> {
    let rest = l.strip_prefix("bit<")?;
    let (w, name) = rest.split_once('>')?;
    let w = w.parse::<u32>().ok()?;
    Some((w, name.trim().trim_end_matches(';').to_string()))
}

/// Parse one P4₁₆ statement line into an [`OStmt`].
fn parse_stmt(line: &str) -> Result<Option<OStmt>, String> {
    let src = line.trim().trim_end_matches(';');
    if src.is_empty() {
        return Ok(None);
    }
    if let Some(rest) = src.strip_prefix("hash(") {
        // `hash(d, HashAlgorithm.X, (bit<32>)0, { a, b }, (bit<64>)base)`
        let dst = rest
            .split(',')
            .next()
            .ok_or_else(|| format!("malformed hash `{line}`"))?
            .trim()
            .to_string();
        let bits = if rest.contains("crc16") { 16 } else { 32 };
        let open = rest
            .find('{')
            .ok_or_else(|| format!("hash without field list `{line}`"))?;
        let close = rest
            .rfind('}')
            .ok_or_else(|| format!("hash without field list `{line}`"))?;
        let mut args = Vec::new();
        for a in rest[open + 1..close].split(',') {
            let a = a.trim();
            if !a.is_empty() {
                args.push(parse_expr(a)?);
            }
        }
        return Ok(Some(OStmt::Hash { dst, args, bits }));
    }
    if src == "mark_to_drop()" {
        return Ok(Some(OStmt::Effect {
            name: "drop".into(),
            args: Vec::new(),
        }));
    }
    if src.starts_with("hdr.") && src.ends_with(".setValid()") {
        return Ok(Some(OStmt::Effect {
            name: "add_header".into(),
            args: Vec::new(),
        }));
    }
    if src.starts_with("hdr.") && src.ends_with(".setInvalid()") {
        return Ok(Some(OStmt::Effect {
            name: "remove_header".into(),
            args: Vec::new(),
        }));
    }
    if let Some((lhs, rhs)) = src.split_once(" = ") {
        return Ok(Some(OStmt::Assign {
            dst: lhs.trim().to_string(),
            rhs: parse_expr(rhs.trim())?,
        }));
    }
    // Statement-position call: register access or an effect shim.
    let e = parse_expr(src)?;
    let Expr::Call(name, args) = e else {
        return Err(format!("unrecognized P4_16 statement `{line}`"));
    };
    if let Some(reg) = name.strip_suffix(".read") {
        let dst = match &args[0] {
            Expr::Var(v) => v.clone(),
            other => return Err(format!("expected destination field, got {other:?}")),
        };
        return Ok(Some(OStmt::RegRead {
            dst,
            reg: reg.to_string(),
            idx: args[1].clone(),
        }));
    }
    if let Some(reg) = name.strip_suffix(".write") {
        return Ok(Some(OStmt::RegWrite {
            reg: reg.to_string(),
            idx: args[0].clone(),
            val: args[1].clone(),
        }));
    }
    Ok(Some(OStmt::Effect { name, args }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"/* P4_16 program for S2 (silicon-one) — generated by Lyra */
#include <core.p4>
header ipv4_t {
    bit<32> srcAddr;
    bit<32> dstAddr;
}
struct headers_t {
    ipv4_t ipv4;
}
struct metadata_t {
    bit<32> lb_hash;
    bit<1> lb_c;
}
parser LyraParser(packet_in pkt, out headers_t hdr, inout metadata_t md) {
    state start {
        md.lb_hash = 0;
        transition accept;
    }
}
control LyraIngress(inout headers_t hdr, inout metadata_t md) {
    register<bit<32>>(16) pkt_count;
    action lb_act0(bit<32> val_ip) {
        hash(md.lb_hash, HashAlgorithm.crc32, (bit<32>)0, { ipv4.srcAddr, ipv4.dstAddr }, (bit<64>)4294967296);
        ipv4.dstAddr = val_ip;
    }
    table lb_t0 {
        key = {
            md.lb_hash : exact;
        }
        actions = {
            lb_act0;
            NoAction;
        }
        size = 1024;
        default_action = NoAction();
    }
    apply {
        if (md.lb_c != 0) {
            lb_t0.apply();
        }
    }
}
"#;

    #[test]
    fn parses_sample() {
        let m = parse(SAMPLE).unwrap();
        assert_eq!(m.widths.get("ipv4.dstAddr"), Some(&32));
        assert_eq!(m.widths.get("md.lb_hash"), Some(&32));
        assert_eq!(m.parser_inits, vec![("md.lb_hash".to_string(), 0)]);
        assert_eq!(m.registers.get("pkt_count"), Some(&(32, 16)));
        let a = &m.actions["lb_act0"];
        assert_eq!(a.params, vec!["val_ip"]);
        assert!(matches!(&a.body[0], OStmt::Hash { bits: 32, .. }));
        let t = &m.tables["lb_t0"];
        assert_eq!(t.keys.len(), 1);
        assert_eq!(t.actions, vec!["lb_act0"]);
        assert_eq!(m.steps.len(), 1);
        assert!(matches!(&m.steps[0], Step::Apply { gate: Some(_), .. }));
    }

    #[test]
    fn stmt_forms() {
        assert!(matches!(
            parse_stmt("md.x = md.y + 1;").unwrap().unwrap(),
            OStmt::Assign { .. }
        ));
        assert!(matches!(
            parse_stmt("pkt_count.read(md.x, (bit<32>)md.i);")
                .unwrap()
                .unwrap(),
            OStmt::RegRead { .. }
        ));
        assert!(matches!(
            parse_stmt("pkt_count.write((bit<32>)md.i, md.x);")
                .unwrap()
                .unwrap(),
            OStmt::RegWrite { .. }
        ));
        assert!(matches!(
            parse_stmt("lyra_set_egress_port(md.p);").unwrap().unwrap(),
            OStmt::Effect { .. }
        ));
        assert!(matches!(
            parse_stmt("mark_to_drop();").unwrap().unwrap(),
            OStmt::Effect { ref name, .. } if name == "drop"
        ));
    }
}
