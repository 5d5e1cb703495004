//! Integration tests for the `lyrac` command line.

use std::process::Command;

fn lyrac() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lyrac"))
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> std::path::PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, content).unwrap();
    p
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("lyrac-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

const PROGRAM: &str = r#"
pipeline[P]{watch};
algorithm watch {
    extern list<bit[32] ip>[64] watch_list;
    if (ipv4.src_ip in watch_list) {
        copy_to_cpu();
    }
}
"#;

const TOPOLOGY: &str = r#"
switch ToR1 tor tofino-32q
switch ToR2 tor trident4
switch Agg1 agg trident4
link ToR1 Agg1
link ToR2 Agg1
"#;

#[test]
fn cli_compiles_and_writes_artifacts() {
    let dir = temp_dir("ok");
    let prog = write(&dir, "prog.lyra", PROGRAM);
    let scopes = write(&dir, "scopes.txt", "watch: [ ToR* | PER-SW | - ]\n");
    let topo = write(&dir, "topo.txt", TOPOLOGY);
    let out_dir = dir.join("out");

    let output = lyrac()
        .args(["--program"])
        .arg(&prog)
        .args(["--scopes"])
        .arg(&scopes)
        .args(["--topology"])
        .arg(&topo)
        .args(["--out"])
        .arg(&out_dir)
        .args(["--backend", "native"])
        .output()
        .expect("lyrac runs");
    assert!(
        output.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    // One P4 program for the Tofino ToR, one NPL program for the Trident
    // ToR, each with a control-plane stub.
    assert!(out_dir.join("ToR1.p4").exists());
    assert!(out_dir.join("ToR2.npl").exists());
    assert!(out_dir.join("ToR1_control.py").exists());
    assert!(out_dir.join("ToR2_control.py").exists());
    let p4 = std::fs::read_to_string(out_dir.join("ToR1.p4")).unwrap();
    assert!(p4.contains("table "));
    let npl = std::fs::read_to_string(out_dir.join("ToR2.npl")).unwrap();
    assert!(npl.contains("logical_table "));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_reports_bad_topology() {
    let dir = temp_dir("badtopo");
    let prog = write(&dir, "prog.lyra", PROGRAM);
    let scopes = write(&dir, "scopes.txt", "watch: [ ToR* | PER-SW | - ]\n");
    let topo = write(&dir, "topo.txt", "switch A spine banana\n");

    let output = lyrac()
        .args(["--program"])
        .arg(&prog)
        .args(["--scopes"])
        .arg(&scopes)
        .args(["--topology"])
        .arg(&topo)
        .output()
        .expect("lyrac runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("topology error"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_reports_parse_errors() {
    let dir = temp_dir("badprog");
    let prog = write(&dir, "prog.lyra", "algorithm { nonsense");
    let scopes = write(&dir, "scopes.txt", "x: [ ToR1 | PER-SW | - ]\n");
    let topo = write(&dir, "topo.txt", "switch ToR1 tor tofino-32q\n");

    let output = lyrac()
        .args(["--program"])
        .arg(&prog)
        .args(["--scopes"])
        .arg(&scopes)
        .args(["--topology"])
        .arg(&topo)
        .output()
        .expect("lyrac runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("front-end"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deadline has one spelling, `--deadline-ms`; `--solve-profile` names
/// a preset and nothing else.
#[test]
fn cli_solve_profile_takes_no_deadline() {
    let dir = temp_dir("profile");
    let prog = write(&dir, "prog.lyra", PROGRAM);
    let scopes = write(&dir, "scopes.txt", "watch: [ ToR* | PER-SW | - ]\n");
    let topo = write(&dir, "topo.txt", TOPOLOGY);
    let run = |profile: &str| {
        lyrac()
            .args(["--program"])
            .arg(&prog)
            .args(["--scopes"])
            .arg(&scopes)
            .args(["--topology"])
            .arg(&topo)
            .args(["--out"])
            .arg(dir.join("out"))
            .args(["--solve-profile", profile])
            .output()
            .expect("lyrac runs")
    };
    let output = run("deadline:50");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(run("thorough").status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_missing_args_usage() {
    let output = lyrac().output().expect("lyrac runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}
