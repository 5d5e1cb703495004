//! Golden tests for the diagnostics surface: exact human-rendered output,
//! JSON round-tripping, and the `lyrac` CLI's `--diag-format json` and
//! `--emit-stats` contracts.

use lyra::{CompileRequest, Compiler};
use lyra_diag::{json, Diagnostic};
use lyra_topo::figure1_network;

// ---------------------------------------------------------------------------
// Golden human renderings
// ---------------------------------------------------------------------------

#[test]
fn golden_unknown_function_rendering() {
    let program = "pipeline[P]{a}; algorithm a { x = undefined_fn(); }";
    let req = CompileRequest::new(program, "a: [ ToR* | PER-SW | - ]", figure1_network());
    let err = Compiler::new().compile(&req).unwrap_err();
    let rendered = err.render(&req.source_map());
    let expected = "\
error[LYR0103]: call to unknown function `undefined_fn`
  --> <program>:1:31
  |
1 | pipeline[P]{a}; algorithm a { x = undefined_fn(); }
  |                               ^^^^^^^^^^^^^^^^^^^
";
    assert_eq!(rendered, expected);
}

#[test]
fn golden_missing_scope_rendering() {
    let program = "pipeline[P]{a}; algorithm a { x = 1; }";
    let req = CompileRequest::new(program, "other: [ ToR* | PER-SW | - ]", figure1_network());
    let err = Compiler::new().compile(&req).unwrap_err();
    let rendered = err.render(&req.source_map());
    let expected = "\
error[LYR0203]: algorithm `a` (pipeline `P`) has no scope
  note: add a line like `a: [ ToR* | PER-SW | - ]` to the scope specification
";
    assert_eq!(rendered, expected);
}

#[test]
fn golden_unknown_switch_rendering_spans_scope_source() {
    let program = "pipeline[P]{a}; algorithm a { x = 1; }";
    let req = CompileRequest::new(
        program,
        "a: [ NoSuchSwitch | PER-SW | - ]",
        figure1_network(),
    );
    let err = Compiler::new().compile(&req).unwrap_err();
    let rendered = err.render(&req.source_map());
    assert!(rendered.starts_with("error[LYR02"), "rendered: {rendered}");
    assert!(rendered.contains("--> <scopes>:1:"), "rendered: {rendered}");
    assert!(rendered.contains("NoSuchSwitch"), "rendered: {rendered}");
}

// ---------------------------------------------------------------------------
// JSON round-tripping
// ---------------------------------------------------------------------------

#[test]
fn compile_error_json_round_trips() {
    let program = "pipeline[P]{a}; algorithm a { x = undefined_fn(); y = also_missing(); }";
    let req = CompileRequest::new(program, "a: [ ToR* | PER-SW | - ]", figure1_network());
    let err = Compiler::new().compile(&req).unwrap_err();

    let text = err.to_json().to_pretty();
    let parsed = json::parse(&text).expect("error JSON parses back");
    assert_eq!(
        parsed.get("phase").and_then(|p| p.as_str()),
        Some("front-end")
    );
    let diags = parsed
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .expect("diagnostics array");
    assert_eq!(diags.len(), err.diagnostics().len());
    for (v, d) in diags.iter().zip(err.diagnostics()) {
        let round = Diagnostic::from_json(v).expect("diagnostic round-trips");
        assert_eq!(round.code, d.code);
        assert_eq!(round.message, d.message);
        assert_eq!(round.primary_span(), d.primary_span());
    }
}

// ---------------------------------------------------------------------------
// lyrac CLI
// ---------------------------------------------------------------------------

const TOPO: &str = "\
switch ToR1 tor tofino-32q
";

fn write_inputs(dir: &std::path::Path, program: &str, scopes: &str) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("prog.lyra"), program).unwrap();
    std::fs::write(dir.join("scopes.txt"), scopes).unwrap();
    std::fs::write(dir.join("topo.txt"), TOPO).unwrap();
}

fn lyrac(dir: &std::path::Path, extra: &[&str]) -> std::process::Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_lyrac"));
    cmd.arg("--program")
        .arg(dir.join("prog.lyra"))
        .arg("--scopes")
        .arg(dir.join("scopes.txt"))
        .arg("--topology")
        .arg(dir.join("topo.txt"))
        .arg("--out")
        .arg(dir.join("out"));
    cmd.args(extra);
    cmd.output().expect("lyrac runs")
}

#[test]
fn cli_json_diagnostics_parse_with_codes_and_spans() {
    let dir = std::env::temp_dir().join("lyrac-test-json-diag");
    write_inputs(
        &dir,
        "pipeline[P]{a}; algorithm a { x = undefined_fn(); }",
        "a: [ ToR1 | PER-SW | - ]",
    );
    let out = lyrac(&dir, &["--diag-format", "json"]);
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let parsed = json::parse(&stdout).expect("CLI JSON output parses");
    assert_eq!(
        parsed.get("phase").and_then(|p| p.as_str()),
        Some("front-end")
    );
    let diags = parsed
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .unwrap();
    let d = Diagnostic::from_json(&diags[0]).expect("diagnostic decodes");
    assert_eq!(d.code.map(|c| c.to_string()).as_deref(), Some("LYR0103"));
    assert!(d.primary_span().is_some(), "CLI diagnostics carry spans");
}

#[test]
fn cli_human_diagnostics_render_snippets() {
    let dir = std::env::temp_dir().join("lyrac-test-human-diag");
    write_inputs(
        &dir,
        "pipeline[P]{a}; algorithm a { x = undefined_fn(); }",
        "a: [ ToR1 | PER-SW | - ]",
    );
    let out = lyrac(&dir, &[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error[LYR0103]"), "stderr: {stderr}");
    assert!(stderr.contains("--> <program>:1:31"), "stderr: {stderr}");
    assert!(
        stderr.contains("lyrac: front-end failed with 1 error"),
        "stderr: {stderr}"
    );
}

#[test]
fn cli_emit_stats_writes_session_record() {
    let dir = std::env::temp_dir().join("lyrac-test-emit-stats");
    write_inputs(
        &dir,
        "pipeline[P]{a}; algorithm a { x = ipv4.srcAddr + 1; }",
        "a: [ ToR1 | PER-SW | - ]",
    );
    let stats_path = dir.join("stats.json");
    let out = lyrac(&dir, &["--emit-stats", stats_path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&stats_path).expect("stats file written");
    let parsed = json::parse(&text).expect("stats JSON parses");
    let phases = parsed.get("phases_us").expect("phase timings");
    for key in [
        "parse", "check", "lower", "scopes", "solve", "codegen", "release", "total",
    ] {
        assert!(phases.get(key).is_some(), "missing phase `{key}` in {text}");
    }
    let solver = parsed.get("solver").expect("solver stats");
    assert!(
        solver
            .get("decisions")
            .and_then(|v| v.as_number())
            .unwrap_or(0.0)
            > 0.0
    );
    let util = parsed
        .get("utilization")
        .and_then(|u| u.as_array())
        .expect("utilization");
    assert!(!util.is_empty());
    assert_eq!(util[0].get("switch").and_then(|s| s.as_str()), Some("ToR1"));
}
