//! NPL artifact parser: reads the emitted Trident-4 program back into an
//! [`ArtifactModel`].
//!
//! The grammar is exactly what `crate::npl::emit` produces: a `bus`
//! struct, `logical_register` blocks, guarded `function` bodies, and
//! `logical_table` blocks whose `key_construct()`/`fields_assign()`
//! branches are keyed on `_LOOKUPn`/`_HITn`, plus a `program` block of
//! `f()` calls and `t.lookup(n)` passes.
//!
//! Bus references are canonicalized to the shared `md.` namespace
//! (`lyra_bus.x` → `md.x`) so outcomes compare directly against the other
//! backends and the IR interpreter.

use std::borrow::Cow;
use std::collections::BTreeMap;

use super::expr::{parse_expr, Expr};
use super::{braces, strip_comments, ArtifactModel, OStmt, OTable, Step};

/// Parse an emitted NPL program.
pub fn parse(code: &str) -> Result<ArtifactModel, String> {
    let lines: Vec<Cow<str>> = code.lines().map(strip_comments).collect();
    let mut m = ArtifactModel::default();

    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].trim();
        if t.starts_with("bus ") && t.ends_with('{') {
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim() != "}" {
                if let Some((w, name)) = parse_bit_decl(lines[j].trim()) {
                    m.widths.insert(format!("md.{name}"), w);
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if t.starts_with("logical_register ") && t.ends_with('{') {
            let name = t
                .trim_start_matches("logical_register ")
                .trim_end_matches('{')
                .trim()
                .to_string();
            let (mut w, mut len) = (32u32, 1u64);
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim() != "}" {
                let l = lines[j].trim();
                if let Some(v) = l.strip_prefix("num_entries :") {
                    len = v
                        .trim()
                        .trim_end_matches(';')
                        .parse()
                        .map_err(|e| format!("bad num_entries `{v}`: {e}"))?;
                }
                if let Some(rest) = l.strip_prefix("fields {") {
                    if let Some((fw, _)) = parse_bit_decl(rest.trim().trim_end_matches('}').trim())
                    {
                        w = fw;
                    }
                }
                j += 1;
            }
            m.registers.insert(name, (w, len));
            i = j + 1;
            continue;
        }
        if t.starts_with("function ") && t.ends_with('{') {
            let name = t
                .trim_start_matches("function ")
                .trim_end_matches('{')
                .trim()
                .trim_end_matches("()")
                .to_string();
            let (body, next) = parse_body(&lines, i + 1)?;
            m.functions.insert(name, body);
            i = next;
            continue;
        }
        if t.starts_with("logical_table ") && t.ends_with('{') {
            let name = t
                .trim_start_matches("logical_table ")
                .trim_end_matches('{')
                .trim()
                .to_string();
            let mut table = OTable::default();
            let mut j = i + 1;
            let mut depth = 1i32;
            while j < lines.len() {
                let l = lines[j].trim();
                if l == "key_construct() {" {
                    let (branches, next) = parse_key_construct(&lines, j + 1)?;
                    table.key_by_pass = branches;
                    j = next;
                    continue;
                }
                if l == "fields_assign() {" {
                    let (body, next) = parse_body(&lines, j + 1)?;
                    table.fields_assign = body;
                    j = next;
                    continue;
                }
                depth += braces(l);
                if depth == 0 {
                    break;
                }
                j += 1;
            }
            table.lookups = table.key_by_pass.keys().max().map(|&p| p + 1).unwrap_or(1);
            m.tables.insert(name, table);
            i = j + 1;
            continue;
        }
        if t.starts_with("program ") && t.ends_with('{') {
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim() != "}" {
                let l = lines[j].trim();
                if let Some((table, pass)) = parse_lookup_call(l) {
                    m.steps.push(Step::NplLookup { table, pass });
                } else if let Some(f) = l.strip_suffix("();") {
                    m.steps.push(Step::Func {
                        name: f.to_string(),
                    });
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

/// `t.lookup(n);` → (t, n).
fn parse_lookup_call(l: &str) -> Option<(String, u32)> {
    let (table, rest) = l.split_once(".lookup(")?;
    let pass = rest
        .trim_end_matches(';')
        .trim_end_matches(')')
        .parse()
        .ok()?;
    Some((table.to_string(), pass))
}

/// `bit[W] name;` → (W, name).
fn parse_bit_decl(l: &str) -> Option<(u32, String)> {
    let rest = l.strip_prefix("bit[")?;
    let (w, name) = rest.split_once(']')?;
    let w = w.parse::<u32>().ok()?;
    Some((w, name.trim().trim_end_matches(';').to_string()))
}

/// Parse a `{ … }` body of statements with optional `if (cond) { … }`
/// guards, returning the statements and the index just past the closing
/// brace.
fn parse_body(lines: &[Cow<str>], start: usize) -> Result<(Vec<OStmt>, usize), String> {
    let mut out = Vec::new();
    let mut j = start;
    while j < lines.len() {
        let l = lines[j].trim();
        if l == "}" {
            return Ok((out, j + 1));
        }
        if let Some(cond) = l.strip_prefix("if ").and_then(|r| r.strip_suffix('{')) {
            let cond = parse_expr(&canon(cond.trim()))?;
            let (body, next) = parse_body(lines, j + 1)?;
            out.push(OStmt::Guarded { cond, body });
            j = next;
            continue;
        }
        if !l.is_empty() {
            if let Some(s) = parse_stmt(l)? {
                out.push(s);
            }
        }
        j += 1;
    }
    Err("unterminated NPL block".into())
}

/// Parse `key_construct()` branches: pass → canonicalized key expression.
fn parse_key_construct(
    lines: &[Cow<str>],
    start: usize,
) -> Result<(BTreeMap<u32, Expr>, usize), String> {
    let mut out = BTreeMap::new();
    let mut j = start;
    while j < lines.len() {
        let l = lines[j].trim();
        if l == "}" {
            return Ok((out, j + 1));
        }
        if let Some(rest) = l.strip_prefix("if (_LOOKUP") {
            let pass: u32 = rest
                .trim_end_matches('{')
                .trim()
                .trim_end_matches(')')
                .parse()
                .map_err(|e| format!("bad key_construct branch `{l}`: {e}"))?;
            let key_line = lines
                .get(j + 1)
                .map(|x| x.trim().to_string())
                .unwrap_or_default();
            let key = key_line
                .strip_prefix("key = ")
                .ok_or_else(|| format!("key_construct branch without key: `{key_line}`"))?
                .trim_end_matches(';');
            out.insert(pass, parse_expr(&canon(key))?);
            j += 3; // branch line, key line, closing brace
            continue;
        }
        j += 1;
    }
    Err("unterminated key_construct".into())
}

/// Parse one NPL statement (already unguarded) into an [`OStmt`].
fn parse_stmt(line: &str) -> Result<Option<OStmt>, String> {
    let src = canon(line.trim().trim_end_matches(';'));
    if src.is_empty() {
        return Ok(None);
    }
    if let Some((lhs, rhs)) = src.split_once(" = ") {
        let lhs = lhs.trim();
        if let Some((reg, idx)) = lhs.split_once(".value[") {
            let idx = idx.trim_end_matches(']');
            return Ok(Some(OStmt::RegWrite {
                reg: reg.to_string(),
                idx: parse_expr(idx)?,
                val: parse_expr(rhs.trim())?,
            }));
        }
        return Ok(Some(OStmt::Assign {
            dst: lhs.to_string(),
            rhs: parse_expr(rhs.trim())?,
        }));
    }
    let e = parse_expr(&src)?;
    let Expr::Call(name, args) = e else {
        return Err(format!("unrecognized NPL statement `{line}`"));
    };
    Ok(Some(OStmt::Effect { name, args }))
}

/// Rewrite `lyra_bus.` name prefixes to the canonical `md.` namespace,
/// touching only whole-token prefixes.
fn canon(s: &str) -> String {
    const BUS: &str = "lyra_bus.";
    let mut out = String::with_capacity(s.len());
    let mut copied = 0;
    for (i, _) in s.match_indices(BUS) {
        let prev = s[..i].bytes().next_back();
        if prev.is_some_and(|p| p.is_ascii_alphanumeric() || p == b'_' || p == b'.') {
            continue;
        }
        out.push_str(&s[copied..i]);
        out.push_str("md.");
        copied = i + BUS.len();
    }
    out.push_str(&s[copied..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"/* NPL program for S3 (trident4) — generated by Lyra */
bus lyra_bus {
    bit[32] lb_hash;
    bit[1] lb_hit;
}
logical_register pkt_count {
    table_type : register;
    num_entries : 16;
    fields { bit[32] value; }
}
function lyra_parser_init() {
    lyra_bus.lb_hash = 0;
}
logical_table lb_t0 {
    table_type : hash;
    min_size : 1024;
    max_size : 1024;
    keys { bit[32] key; }
    key_construct() {
        if (_LOOKUP0) {
            key = lyra_bus.lb_hash;
        }
    }
    fields_assign() {
        if (_HIT0) {
            lyra_bus.lb_hit = 1;
        }
        if (_LOOKUP0) {
            ipv4.dstAddr = lyra_bus.lb_hash + 1;
        }
    }
}
function lb_t1_fn() {
    if (md.lb_hit == 1) {
        drop();
    }
}
program lyra_main {
    lyra_parser_init();
    lb_t0.lookup(0);
    lb_t1_fn();
}
"#;

    #[test]
    fn parses_sample() {
        let m = parse(SAMPLE).unwrap();
        assert_eq!(m.widths.get("md.lb_hash"), Some(&32));
        assert_eq!(m.registers.get("pkt_count"), Some(&(32, 16)));
        assert!(m.functions.contains_key("lyra_parser_init"));
        let t = &m.tables["lb_t0"];
        assert_eq!(t.lookups, 1);
        assert_eq!(t.key_by_pass.len(), 1);
        assert_eq!(t.fields_assign.len(), 2);
        assert!(matches!(&t.fields_assign[0], OStmt::Guarded { .. }));
        assert_eq!(m.steps.len(), 3);
        assert!(matches!(&m.steps[1], Step::NplLookup { pass: 0, .. }));
    }

    #[test]
    fn canonicalizes_bus_names() {
        assert_eq!(canon("lyra_bus.x = lyra_bus.y + 1"), "md.x = md.y + 1");
        assert_eq!(canon("my_lyra_bus.x"), "my_lyra_bus.x");
    }

    #[test]
    fn register_write_stmt() {
        let s = parse_stmt("pkt_count.value[lyra_bus.i] = lyra_bus.x;")
            .unwrap()
            .unwrap();
        assert!(matches!(s, OStmt::RegWrite { .. }));
    }
}
