//! `lyrac` — the Lyra compiler command line.
//!
//! ```text
//! lyrac --program prog.lyra --scopes scopes.txt --topology topo.txt \
//!       [--out DIR] [--objective min-switches] [--no-parser-hoisting] \
//!       [--solve-profile thorough] [--deadline-ms N] [--decision-budget N] \
//!       [--diag-format human|json] [--emit-stats FILE] [--oracle N]
//! ```
//!
//! Reads a Lyra program, an algorithm scope specification (§3.3 syntax),
//! and a topology description; writes one chip-specific program plus a
//! Python control-plane stub per target switch under `--out` (default
//! `lyra-out/`), and prints a placement summary.
//!
//! Diagnostics render rustc-style with source snippets by default;
//! `--diag-format json` emits one JSON object on stdout with the failing
//! phase and every diagnostic (code, message, spans, notes) for editor and
//! CI integration. `--emit-stats FILE` writes the compile session record
//! (phase timings, solver search statistics, per-switch resource
//! utilization) as JSON. `--oracle N` runs N seeded packets through every
//! emitted artifact beside the IR reference.
//!
//! Three flags say how the placement is solved, one per [`Compiler`]
//! setting: `--solve-profile thorough` turns the quotient route off (the
//! reference configuration), `--deadline-ms` bounds the solve phase's wall
//! clock and `--decision-budget` its search; a spent limit degrades the
//! placement (`LYR0550`) rather than failing the compile.

use std::path::PathBuf;
use std::process::ExitCode;

use lyra::{CompileError, CompileRequest, Compiler, Objective};
use lyra_chips::TargetLang;
use lyra_diag::json::{Object, Value};
use lyra_topo::parse_topology;

#[derive(Clone, Copy, PartialEq, Eq)]
enum DiagFormat {
    Human,
    Json,
}

struct Args {
    program: PathBuf,
    scopes: PathBuf,
    topology: PathBuf,
    out: PathBuf,
    objective: Objective,
    parser_hoisting: bool,
    thorough: bool,
    diag_format: DiagFormat,
    emit_stats: Option<PathBuf>,
    deadline_ms: Option<u64>,
    decision_budget: Option<u64>,
    oracle: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: lyrac --program FILE --scopes FILE --topology FILE\n\
         \x20            [--out DIR]\n\
         \x20            [--objective feasible|min-switches|max-use=SWITCH]\n\
         \x20            [--no-parser-hoisting]\n\
         \x20            [--solve-profile thorough]\n\
         \x20            [--deadline-ms N] [--decision-budget N]\n\
         \x20            [--diag-format human|json] [--emit-stats FILE]\n\
         \x20            [--oracle N]\n\
         \n\
         \x20 --oracle N re-parses every emitted artifact, lifts it into IR\n\
         \x20 and runs N seeded packets through it beside the IR reference;\n\
         \x20 a divergence prints a minimized counterexample (LYR06xx) and\n\
         \x20 fails the build.\n\
         \n\
         \x20 --solve-profile thorough turns the quotient route off: one\n\
         \x20 monolithic search, the reference configuration. Without it a\n\
         \x20 symmetric MULTI-SW problem is first solved one switch per class\n\
         \x20 and checked against the full model.\n\
         \n\
         \x20 --deadline-ms bounds the solve phase's wall clock, from the\n\
         \x20 start of the compile; --decision-budget bounds each search (a\n\
         \x20 minimization is one). When either is spent, the best model a\n\
         \x20 minimization found or the greedy first-fit rung places the\n\
         \x20 program (checked against the full model) and a LYR0550 warning\n\
         \x20 names the rung, or the compile fails with LYR0410."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut program = None;
    let mut scopes = None;
    let mut topology = None;
    let mut out = PathBuf::from("lyra-out");
    let mut objective = Objective::Feasible;
    let mut parser_hoisting = true;
    let mut thorough = false;
    let mut diag_format = DiagFormat::Human;
    let mut emit_stats = None;
    let mut deadline_ms = None;
    let mut decision_budget = None;
    let mut oracle = None;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| -> String {
            it.next().unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--program" => program = Some(PathBuf::from(value(&mut it))),
            "--scopes" => scopes = Some(PathBuf::from(value(&mut it))),
            "--topology" => topology = Some(PathBuf::from(value(&mut it))),
            "--out" => out = PathBuf::from(value(&mut it)),
            "--objective" => {
                let v = value(&mut it);
                objective = if v == "feasible" {
                    Objective::Feasible
                } else if v == "min-switches" {
                    Objective::MinSwitches
                } else if let Some(sw) = v.strip_prefix("max-use=") {
                    Objective::MaxUseOf(sw.to_string())
                } else {
                    eprintln!("unknown objective `{v}`");
                    usage()
                };
            }
            "--no-parser-hoisting" => parser_hoisting = false,
            "--solve-profile" => {
                let v = value(&mut it);
                if v != "thorough" {
                    eprintln!("unknown solve profile `{v}`");
                    usage()
                }
                thorough = true;
            }
            "--diag-format" => {
                diag_format = match value(&mut it).as_str() {
                    "human" => DiagFormat::Human,
                    "json" => DiagFormat::Json,
                    other => {
                        eprintln!("unknown diagnostic format `{other}`");
                        usage()
                    }
                }
            }
            "--emit-stats" => emit_stats = Some(PathBuf::from(value(&mut it))),
            "--deadline-ms" => {
                let v = value(&mut it);
                deadline_ms = match v.parse::<u64>() {
                    Ok(ms) => Some(ms),
                    Err(_) => {
                        eprintln!("invalid --deadline-ms value `{v}`");
                        usage()
                    }
                }
            }
            "--decision-budget" => {
                let v = value(&mut it);
                decision_budget = match v.parse::<u64>() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        eprintln!("invalid --decision-budget value `{v}`");
                        usage()
                    }
                }
            }
            "--oracle" => {
                let v = value(&mut it);
                oracle = match v.parse::<u64>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => {
                        eprintln!("invalid --oracle value `{v}`");
                        usage()
                    }
                };
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }
    let (Some(program), Some(scopes), Some(topology)) = (program, scopes, topology) else {
        usage()
    };
    Args {
        program,
        scopes,
        topology,
        out,
        objective,
        parser_hoisting,
        thorough,
        diag_format,
        emit_stats,
        deadline_ms,
        decision_budget,
        oracle,
    }
}

/// An I/O or input failure outside the compile pipeline proper.
fn tool_error(args: &Args, message: String) -> ExitCode {
    match args.diag_format {
        DiagFormat::Human => eprintln!("lyrac: {message}"),
        DiagFormat::Json => {
            let mut o = Object::new();
            o.push("phase", Value::String("driver".into()));
            let mut d = Object::new();
            d.push("severity", Value::String("error".into()));
            d.push("message", Value::String(message));
            o.push("diagnostics", Value::Array(vec![Value::Object(d)]));
            println!("{}", Value::Object(o).to_pretty());
        }
    }
    ExitCode::FAILURE
}

fn report_compile_error(args: &Args, req: &CompileRequest, err: &CompileError) -> ExitCode {
    match args.diag_format {
        DiagFormat::Human => {
            eprint!("{}", err.render(&req.source_map()));
            let n = err.diagnostics().len();
            eprintln!(
                "lyrac: {} failed with {n} error{}",
                err.phase_name(),
                if n == 1 { "" } else { "s" }
            );
        }
        DiagFormat::Json => println!("{}", err.to_json().to_pretty()),
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = parse_args();
    let read = |p: &PathBuf| -> Result<String, String> {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let inputs = (|| -> Result<(String, String, lyra_topo::Topology), String> {
        let program = read(&args.program)?;
        let scopes = read(&args.scopes)?;
        let topo_src = read(&args.topology)?;
        let topology = parse_topology(&topo_src).map_err(|e| e.to_string())?;
        Ok((program, scopes, topology))
    })();
    let (program, scopes, topology) = match inputs {
        Ok(t) => t,
        Err(e) => return tool_error(&args, e),
    };

    let req = CompileRequest::new(&program, &scopes, topology);
    let mut compiler = Compiler::new()
        .with_objective(args.objective.clone())
        .with_parser_hoisting(args.parser_hoisting)
        .with_quotient_route(!args.thorough);
    if let Some(ms) = args.deadline_ms {
        compiler = compiler.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = args.decision_budget {
        compiler = compiler.with_decision_budget(n);
    }
    let out = match compiler.compile(&req) {
        Ok(out) => out,
        Err(e) => return report_compile_error(&args, &req, &e),
    };

    let sources = req.source_map();
    for w in &out.warnings {
        match args.diag_format {
            DiagFormat::Human => eprint!("{}", sources.render(w)),
            DiagFormat::Json => println!("{}", w.to_json().to_pretty()),
        }
    }
    if let Some(path) = &args.emit_stats {
        let json = out.to_json().to_pretty();
        if let Err(e) = std::fs::write(path, json) {
            return tool_error(&args, format!("cannot write {}: {e}", path.display()));
        }
    }
    let run = || -> Result<(), String> {
        std::fs::create_dir_all(&args.out)
            .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
        for a in &out.artifacts {
            let ext = match a.lang {
                TargetLang::P414 | TargetLang::P416 => "p4",
                TargetLang::Npl => "npl",
            };
            let code_path = args.out.join(format!("{}.{ext}", a.switch));
            let ctl_path = args.out.join(format!("{}_control.py", a.switch));
            std::fs::write(&code_path, &a.code)
                .map_err(|e| format!("cannot write {}: {e}", code_path.display()))?;
            std::fs::write(&ctl_path, &a.control_plane)
                .map_err(|e| format!("cannot write {}: {e}", ctl_path.display()))?;
        }
        out.validate_all().map_err(|e| e.to_string())?;
        if let Some(cases) = args.oracle {
            let cfg = lyra::OracleConfig {
                cases,
                ..lyra::OracleConfig::default()
            };
            let report = lyra::check_output(&out, &cfg);
            println!(
                "oracle: {} case(s) x {} artifact(s), seed {:#x} — {}",
                report.cases_per_artifact,
                report.artifacts_checked,
                cfg.seed,
                if report.is_clean() {
                    "clean"
                } else {
                    "DIVERGED"
                }
            );
            for d in &report.diagnostics {
                match d.code {
                    Some(c) => println!("  [{c}] {}", d.message),
                    None => println!("  {}", d.message),
                }
                for n in &d.notes {
                    println!("    note: {n}");
                }
            }
            if !report.is_clean() {
                return Err(format!(
                    "oracle found {} divergence(s); artifacts in {} are unsound",
                    report.diagnostics.len(),
                    args.out.display()
                ));
            }
        }
        println!(
            "compiled {} algorithm(s) onto {} switch(es) in {:?}",
            out.ir.algorithms.len(),
            out.placement.used_switches(),
            out.stats.total
        );
        println!(
            "  solver: {} route, {} decisions, {} conflicts, {} linear visit(s) for {} \
             propagation(s) ({} bound update(s), {} creep check(s))",
            out.stats.route_name(),
            out.solver.decisions,
            out.solver.conflicts,
            out.solver.linear_visits,
            out.solver.propagations,
            out.solver.bound_updates,
            out.solver.creep_checks,
        );
        println!(
            "  synth cache: {} hit(s), {} miss(es)",
            out.stats.synth_cache_hits, out.stats.synth_cache_misses
        );
        if let Some(rung) = out.degraded {
            println!("  placement degraded: {rung} rung (LYR0550)");
        }
        for u in &out.utilization {
            println!(
                "  {}: {}/{} tables, {}/{} stages, {}/{} SRAM blocks, {} extern entries",
                u.switch,
                u.tables.0,
                u.tables.1,
                u.stages.0,
                u.stages.1,
                u.sram_blocks.0,
                u.sram_blocks.1,
                u.extern_entries
            );
        }
        println!("artifacts written to {}", args.out.display());
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => tool_error(&args, e),
    }
}
