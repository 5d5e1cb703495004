//! `lyrac` — the Lyra compiler command line.
//!
//! ```text
//! lyrac --program prog.lyra --scopes scopes.txt --topology topo.txt \
//!       [--out DIR] [--objective min-switches] [--no-parser-hoisting] \
//!       [--solve-profile thorough] [--deadline-ms N] [--decision-budget N] \
//!       [--diag-format human|json] [--emit-stats FILE]
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
//! utilization) as JSON.
//!
//! `--rollout-fail ELEMS` drives a transactional rollout end to end:
//! compile, simulate the deployment, fail the named elements
//! (`Agg3,ToR3-Agg4` = switch Agg3 plus the ToR3—Agg4 link), recompile for
//! the survivors, and apply the new placement as a two-phase update over a
//! seeded lossy control channel (`--rollout-drop-p`, `--rollout-seed`).
//! The rollout report (per-switch phase timings, retries, rollbacks)
//! prints to stdout and lands under `"rollout"` in `--emit-stats` JSON.

use std::path::PathBuf;
use std::process::ExitCode;

use lyra::{
    replay_compiled, replay_interpreted, replay_under_recovery, replay_under_rollout, AuditReport,
    Backend, CompileError, CompileRequest, Compiler, CrashPlan, CrashPoint, DriftOp,
    FileIntentStore, IntentStore, LossyChannel, MemIntentStore, Objective, RecoveryReport,
    ReplayConfig, ReplayReport, RolloutConfig, RolloutReport, Runtime, SolveProfile,
};
use lyra::{run_selfheal, ChaosSchedule, HealthConfig, SelfHealConfig, SelfHealOutcome, Target};
use lyra_chips::TargetLang;
use lyra_diag::json::{Object, Value};
use lyra_topo::{parse_topology, FaultSet};

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
    backend: Backend,
    objective: Objective,
    parser_hoisting: bool,
    solve_profile: Option<SolveProfile>,
    diag_format: DiagFormat,
    emit_stats: Option<PathBuf>,
    deadline_ms: Option<u64>,
    decision_budget: Option<u64>,
    rollout_fail: Option<String>,
    rollout_drop_p: f64,
    rollout_seed: u64,
    crash_at: Option<CrashPlan>,
    recover: bool,
    intent_log: Option<PathBuf>,
    audit: bool,
    audit_drift: u64,
    replay: Option<u64>,
    replay_workers: usize,
    replay_seed: u64,
    oracle: bool,
    oracle_cases: u64,
    oracle_seed: u64,
    monitor: bool,
    monitor_ticks: u64,
    monitor_seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: lyrac --program FILE --scopes FILE --topology FILE\n\
         \x20            [--out DIR] [--backend native]\n\
         \x20            [--objective feasible|min-switches|max-use=SWITCH]\n\
         \x20            [--no-parser-hoisting]\n\
         \x20            [--solve-profile thorough]\n\
         \x20            [--deadline-ms N] [--decision-budget N]\n\
         \x20            [--diag-format human|json] [--emit-stats FILE]\n\
         \x20            [--rollout-fail ELEMS] [--rollout-drop-p P]\n\
         \x20            [--rollout-seed N]\n\
         \x20            [--crash-at POINT|sends:N] [--recover]\n\
         \x20            [--intent-log FILE]\n\
         \x20            [--audit] [--audit-drift N]\n\
         \x20            [--replay PACKETS] [--replay-workers N]\n\
         \x20            [--replay-seed N]\n\
         \x20            [--oracle] [--oracle-cases N] [--oracle-seed N]\n\
         \x20            [--monitor] [--monitor-ticks N] [--monitor-seed N]\n\
         \n\
         \x20 --monitor runs the closed self-healing loop against the\n\
         \x20 compiled deployment: a seeded chaos schedule kills (and later\n\
         \x20 revives) a placement switch while the health monitor probes\n\
         \x20 every switch and link on a virtual clock, confirms the\n\
         \x20 failure (consecutive missed probes, LYR0580-LYR0583), and the\n\
         \x20 self-healer recompiles, rolls out, audits, and restores\n\
         \x20 automatically (LYR0584-LYR0587). --monitor-ticks bounds the\n\
         \x20 virtual clock (default 64); --monitor-seed fixes the run.\n\
         \x20 With --replay PACKETS, traffic flows through every\n\
         \x20 remediation rollout and the final serving check.\n\
         \n\
         \x20 --oracle re-parses every emitted artifact and executes seeded\n\
         \x20 packets through it, comparing against the IR reference\n\
         \x20 interpreter; a divergence prints a minimized counterexample\n\
         \x20 (LYR06xx) and fails the build.\n\
         \n\
         \x20 --solve-profile thorough runs one monolithic search with the\n\
         \x20 quotient route off — the reference configuration. Without it\n\
         \x20 the default runs: the same deterministic search with the\n\
         \x20 quotient route on.\n\
         \n\
         \x20 --deadline-ms / --decision-budget bound the solve phase; when\n\
         \x20 either is spent the greedy first-fit rung places the program\n\
         \x20 (checked against the full model) and a LYR0550 warning names\n\
         \x20 it, or the compile fails with LYR0410.\n\
         \n\
         \x20 --rollout-fail simulates failing the named elements (comma-\n\
         \x20 separated; `A-B` is the link A—B), recompiles for the\n\
         \x20 survivors, and applies the new placement as a transactional\n\
         \x20 two-phase rollout over a seeded lossy control channel\n\
         \x20 (message-drop probability --rollout-drop-p, default 0).\n\
         \n\
         \x20 --replay pushes PACKETS seeded packets through the deployment\n\
         \x20 on the compiled batched engine and the reference interpreter\n\
         \x20 and prints both throughputs. Combined with --rollout-fail, the\n\
         \x20 traffic runs *while* the two-phase rollout flips epochs, and\n\
         \x20 the replay reports packet loss and mixed-epoch exposure.\n\
         \n\
         \x20 --crash-at kills the controller mid-rollout (requires\n\
         \x20 --rollout-fail) at a transaction boundary (before-prepare,\n\
         \x20 after-prepare, commit-decision, before-finalize,\n\
         \x20 rollback-decision) or after the Nth journaled message intent\n\
         \x20 (`sends:N`). Every decision and token is journaled write-ahead\n\
         \x20 (--intent-log FILE for a durable log; in-memory otherwise).\n\
         \x20 --recover then restarts the controller: it replays the intent\n\
         \x20 log, queries every switch, and drives the in-flight rollout to\n\
         \x20 all-commit or all-rollback (LYR0571/LYR0572). With --replay,\n\
         \x20 traffic flows through the crashed fleet during recovery.\n\
         \n\
         \x20 --audit runs the anti-entropy reconciliation: switch-held\n\
         \x20 state is diffed against the controller's expected state by\n\
         \x20 per-table content digest, drift is classified\n\
         \x20 (missing/extra/stale/stale-epoch, LYR0575) and repaired\n\
         \x20 minimally (LYR0576). --audit-drift N first corrupts N seeded\n\
         \x20 entries behind the controller's back to prove detection."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut program = None;
    let mut scopes = None;
    let mut topology = None;
    let mut out = PathBuf::from("lyra-out");
    let mut backend = Backend::default();
    let mut objective = Objective::Feasible;
    let mut parser_hoisting = true;
    let mut solve_profile = None;
    let mut diag_format = DiagFormat::Human;
    let mut emit_stats = None;
    let mut deadline_ms = None;
    let mut decision_budget = None;
    let mut rollout_fail = None;
    let mut rollout_drop_p = 0.0;
    let mut rollout_seed = 0xC0FFEE;
    let mut crash_at = None;
    let mut recover = false;
    let mut intent_log = None;
    let mut audit = false;
    let mut audit_drift = 0u64;
    let mut replay = None;
    let mut replay_workers = 0usize;
    let mut replay_seed = ReplayConfig::default().seed;
    let mut oracle = false;
    let mut oracle_cases = lyra::OracleConfig::default().cases;
    let mut oracle_seed = lyra::OracleConfig::default().seed;
    let mut monitor = false;
    let mut monitor_ticks = 64u64;
    let mut monitor_seed = lyra::HealthConfig::default().seed;

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
            "--backend" => {
                backend = match value(&mut it).as_str() {
                    "native" => Backend::Native,
                    other => {
                        eprintln!("unknown backend `{other}`");
                        usage()
                    }
                }
            }
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
                solve_profile = Some(SolveProfile::thorough());
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
            "--rollout-fail" => rollout_fail = Some(value(&mut it)),
            "--rollout-drop-p" => {
                let v = value(&mut it);
                rollout_drop_p = match v.parse::<f64>() {
                    Ok(p) if (0.0..1.0).contains(&p) => p,
                    _ => {
                        eprintln!("invalid --rollout-drop-p value `{v}` (need 0 <= p < 1)");
                        usage()
                    }
                }
            }
            "--rollout-seed" => {
                let v = value(&mut it);
                rollout_seed = match v.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("invalid --rollout-seed value `{v}`");
                        usage()
                    }
                }
            }
            "--crash-at" => {
                let v = value(&mut it);
                crash_at = if let Some(n) = v.strip_prefix("sends:") {
                    match n.parse::<u64>() {
                        Ok(n) if n > 0 => Some(CrashPlan::after_sends(n)),
                        _ => {
                            eprintln!("invalid --crash-at value `{v}` (need sends:N, N >= 1)");
                            usage()
                        }
                    }
                } else {
                    match CrashPoint::parse(&v) {
                        Some(p) => Some(CrashPlan::at(p)),
                        None => {
                            eprintln!(
                                "unknown crash point `{v}` (expected one of: {}, or sends:N)",
                                CrashPoint::ALL
                                    .iter()
                                    .map(|p| p.name())
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            );
                            usage()
                        }
                    }
                }
            }
            "--recover" => recover = true,
            "--intent-log" => intent_log = Some(PathBuf::from(value(&mut it))),
            "--audit" => audit = true,
            "--audit-drift" => {
                let v = value(&mut it);
                audit_drift = match v.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("invalid --audit-drift value `{v}`");
                        usage()
                    }
                };
                audit = true;
            }
            "--replay" => {
                let v = value(&mut it);
                replay = match v.parse::<u64>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => {
                        eprintln!("invalid --replay value `{v}`");
                        usage()
                    }
                }
            }
            "--replay-workers" => {
                let v = value(&mut it);
                replay_workers = match v.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("invalid --replay-workers value `{v}`");
                        usage()
                    }
                }
            }
            "--replay-seed" => {
                let v = value(&mut it);
                replay_seed = match v.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("invalid --replay-seed value `{v}`");
                        usage()
                    }
                }
            }
            "--oracle" => oracle = true,
            "--oracle-cases" => {
                let v = value(&mut it);
                oracle_cases = match v.parse::<u64>() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("invalid --oracle-cases value `{v}`");
                        usage()
                    }
                };
                oracle = true;
            }
            "--oracle-seed" => {
                let v = value(&mut it);
                oracle_seed = match v.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("invalid --oracle-seed value `{v}`");
                        usage()
                    }
                };
                oracle = true;
            }
            "--monitor" => monitor = true,
            "--monitor-ticks" => {
                let v = value(&mut it);
                monitor_ticks = match v.parse::<u64>() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("invalid --monitor-ticks value `{v}` (need N >= 1)");
                        usage()
                    }
                }
            }
            "--monitor-seed" => {
                let v = value(&mut it);
                monitor_seed = match v.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("invalid --monitor-seed value `{v}`");
                        usage()
                    }
                }
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
        backend,
        objective,
        parser_hoisting,
        solve_profile,
        diag_format,
        emit_stats,
        deadline_ms,
        decision_budget,
        rollout_fail,
        rollout_drop_p,
        rollout_seed,
        crash_at,
        recover,
        intent_log,
        audit,
        audit_drift,
        replay,
        replay_workers,
        replay_seed,
        oracle,
        oracle_cases,
        oracle_seed,
        monitor,
        monitor_ticks,
        monitor_seed,
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

/// Simulate failing the elements in `spec` against the compiled
/// deployment, recompile onto the survivors, and apply the new placement
/// as a transactional two-phase rollout over a seeded lossy channel.
fn replay_config(args: &Args) -> ReplayConfig {
    let mut cfg = ReplayConfig::default().with_seed(args.replay_seed);
    if let Some(packets) = args.replay {
        cfg = cfg.with_packets(packets);
    }
    if args.replay_workers > 0 {
        cfg = cfg.with_workers(args.replay_workers);
    }
    cfg
}

/// Print a replay report in the human CLI format.
fn print_replay(label: &str, report: &ReplayReport) {
    println!(
        "replay[{label}]: {} packet(s) on {} worker(s) in {:?} (bring-up {:?}) — {:.0} pps",
        report.delivered, report.workers, report.elapsed, report.bring_up, report.pps
    );
    if report.refused_epoch_mismatch > 0 || report.mixed_epoch_exposure > 0 {
        println!(
            "  loss: {} refused (mixed-epoch path), {} mixed-epoch exposure(s)",
            report.refused_epoch_mismatch, report.mixed_epoch_exposure
        );
    }
    println!("  effects: {}, digest {:#x}", report.effects, report.digest);
}

/// Replay traffic through a quiescent deployment: the compiled batched
/// engine against the reference interpreter, identical seeded packets.
fn drive_replay(args: &Args, out: &lyra::CompileOutput) -> Result<(), String> {
    let mut rt = Runtime::new(out);
    for table in out.ir.externs.keys() {
        for k in 0..4u64 {
            if rt.install(table, k, 0x0a00_0000 + k).is_err() {
                break;
            }
        }
    }
    let cfg = replay_config(args);
    let interp = replay_interpreted(&rt, &cfg);
    let compiled = replay_compiled(&rt, &cfg);
    print_replay("interpreter", &interp);
    print_replay("compiled", &compiled);
    if interp.pps > 0.0 {
        println!("  speedup: {:.1}x", compiled.pps / interp.pps);
    }
    if compiled.mixed_epoch_exposure > 0 {
        return Err(format!(
            "{} packet(s) executed under two epochs on a quiescent plane",
            compiled.mixed_epoch_exposure
        ));
    }
    Ok(())
}

/// Print a recovery report in the human CLI format.
fn print_recovery(report: &RecoveryReport) {
    let outcome = if !report.in_flight {
        "nothing in flight".to_string()
    } else if report.committed {
        format!("epoch {} COMMITTED", report.epoch)
    } else {
        format!(
            "epoch {} rolled back (serving epoch {})",
            report.epoch, report.prior_epoch
        )
    };
    println!("recovery: {outcome} in {:?}", report.elapsed);
    println!(
        "  journal: {} record(s) replayed, {} token(s) reused, {} fresh",
        report.replayed_records, report.reused_tokens, report.fresh_tokens
    );
    println!(
        "  switches: {} queried, {} query failure(s), {} forced rollback(s)",
        report.queried, report.query_failures, report.forced_rollbacks
    );
    for d in &report.diagnostics {
        match d.code {
            Some(c) => println!("  [{c}] {}", d.message),
            None => println!("  {}", d.message),
        }
    }
}

/// Print an anti-entropy audit report in the human CLI format.
fn print_audit(report: &AuditReport) {
    println!(
        "audit: {} switch(es), {} digest(s) compared, {} — {:?}",
        report.switches_audited,
        report.digests_compared,
        if report.clean() {
            "clean".to_string()
        } else {
            format!(
                "{} drifted entr{} repaired ({} repair(s))",
                report.findings.len(),
                if report.findings.len() == 1 {
                    "y"
                } else {
                    "ies"
                },
                report.repaired
            )
        },
        report.elapsed
    );
    for (kind, n) in report.counts() {
        println!("  drift[{kind}]: {n}");
    }
    for d in &report.diagnostics {
        match d.code {
            Some(c) => println!("  [{c}] {}", d.message),
            None => println!("  {}", d.message),
        }
    }
}

/// Corrupt `n` seeded entries behind the controller's back so `--audit`
/// has drift to prove detection on. Deterministic in `seed`.
fn seed_drift(rt: &mut Runtime, out: &lyra::CompileOutput, n: u64, seed: u64) -> u64 {
    let switches: Vec<String> = out
        .placement
        .switches
        .keys()
        .filter(|sw| rt.switch_epoch(sw).is_some())
        .cloned()
        .collect();
    let tables: Vec<String> = out.ir.externs.keys().cloned().collect();
    if switches.is_empty() || tables.is_empty() {
        return 0;
    }
    let mut injected = 0;
    for i in 0..n {
        let sw = &switches[(seed.wrapping_add(i) % switches.len() as u64) as usize];
        let table = &tables[(i % tables.len() as u64) as usize];
        let op = if i % 3 == 2 && rt.epoch() > 0 {
            DriftOp::RegressEpoch
        } else {
            DriftOp::Insert {
                table: table.clone(),
                key: 0x000d_41f7_0000 + seed.wrapping_add(i) % 0xFFFF,
                value: 0xbad0 + i,
            }
        };
        if rt.inject_drift(sw, &op).is_ok() {
            injected += 1;
        }
    }
    injected
}

/// Run the anti-entropy audit (optionally after seeding drift) and fail
/// if a second pass still finds divergence.
fn run_audit(args: &Args, rt: &mut Runtime, out: &lyra::CompileOutput) -> Result<(), String> {
    if args.audit_drift > 0 {
        let injected = seed_drift(rt, out, args.audit_drift, args.rollout_seed);
        println!("audit: injected {injected} seeded drift op(s) behind the controller");
    }
    let report = rt.audit_switches();
    print_audit(&report);
    if args.audit_drift > 0 && report.clean() {
        return Err("audit found no drift despite seeded corruption".to_string());
    }
    let second = rt.audit_switches();
    if !second.clean() {
        return Err(format!(
            "audit repairs did not converge: {} finding(s) on the second pass",
            second.findings.len()
        ));
    }
    Ok(())
}

fn drive_rollout(
    args: &Args,
    compiler: &Compiler,
    req: &CompileRequest,
    out: &lyra::CompileOutput,
    spec: &str,
) -> Result<Option<RolloutReport>, String> {
    let mut faults = FaultSet::new();
    for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match item.split_once('-') {
            Some((a, b)) => faults.add_link(a.trim(), b.trim()),
            None => faults.add_switch(item),
        }
    }
    let r = compiler
        .recompile_for_faults(req, out, &faults)
        .map_err(|e| format!("failover recompilation failed: {e}"))?;
    println!(
        "failover recompile: {} route, {} decisions, {} instruction(s) and {} entry slot(s) moved",
        r.output.stats.route_name(),
        r.output.solver.decisions,
        r.diff.total_churn(),
        r.diff.entry_churn()
    );
    let mut rt = Runtime::new(out);
    // Seed a few synthetic entries per extern table so the rollout has
    // live state to carry across the epoch flip.
    for table in out.ir.externs.keys() {
        for k in 0..4u64 {
            if rt.install(table, k, 0x0a00_0000 + k).is_err() {
                break;
            }
        }
    }
    for sw in faults.failed_switches() {
        rt.fail_switch(sw)
            .map_err(|e| format!("fail_switch({sw}): {e}"))?;
    }
    for (a, b) in faults.failed_links() {
        rt.fail_link(a, b)
            .map_err(|e| format!("fail_link({a},{b}): {e}"))?;
    }
    let mut chan = LossyChannel::new(args.rollout_seed)
        .with_drop_p(args.rollout_drop_p)
        .with_ack_loss_p(args.rollout_drop_p / 2.0);
    let config = RolloutConfig::default()
        .with_seed(args.rollout_seed)
        .with_scope_health(r.scope_health.clone());
    let mut store: Box<dyn IntentStore> = match &args.intent_log {
        Some(path) => Box::new(FileIntentStore::open(path.clone())),
        None => Box::new(MemIntentStore::new()),
    };

    if let Some(plan) = &args.crash_at {
        // Crash injection: journal write-ahead, kill the controller at
        // the requested point, then (with --recover) restart it against
        // the same channel — the network outlives the controller.
        let crash_cfg = config.clone().with_crash(plan.clone());
        let err = match rt.apply_rollout_logged(&r.output, &mut chan, &crash_cfg, store.as_mut()) {
            Ok(report) => {
                // The transaction finished before the crash point was
                // reached (e.g. sends:N past the last message).
                print_rollout(&report);
                return Ok(Some(report));
            }
            Err(e) => e,
        };
        println!(
            "rollout: controller CRASHED mid-flight ([{}] {})",
            err.code.map(|c| c.0).unwrap_or("-"),
            err.message
        );
        if !args.recover {
            return Err(
                "controller crashed mid-rollout and --recover was not given; \
                 the deployment is mid-transaction"
                    .to_string(),
            );
        }
        let recovery = if args.replay.is_some() {
            // Traffic keeps flowing through the crashed fleet while the
            // restarted controller converges it.
            let outcome = replay_under_recovery(
                &mut rt,
                &r.output,
                store.as_mut(),
                &mut chan,
                &config,
                &replay_config(args),
            )
            .map_err(|e| format!("recovery failed: {e}"))?;
            print_replay("under-recovery", &outcome.replay);
            if outcome.replay.mixed_epoch_exposure > 0 {
                return Err(format!(
                    "{} packet(s) executed under two epochs during recovery",
                    outcome.replay.mixed_epoch_exposure
                ));
            }
            outcome.recovery
        } else {
            rt.recover(&r.output, store.as_mut(), &mut chan, &config)
                .map_err(|e| format!("recovery failed: {e}"))?
        };
        print_recovery(&recovery);
        if !rt.epochs_coherent() {
            return Err("recovery left the deployment epoch-incoherent".to_string());
        }
        if args.audit {
            let serving = rt.output();
            run_audit(args, &mut rt, serving)?;
        }
        return Ok(None);
    }

    let report = if args.replay.is_some() {
        // Flip the epochs *under* live traffic: workers replay seeded
        // packets through the compiled plane while the two-phase protocol
        // runs, and the replay reports loss and mixed-epoch exposure.
        let outcome =
            replay_under_rollout(&mut rt, &r.output, &mut chan, &config, &replay_config(args))
                .map_err(|e| format!("rollout could not start: {e}"))?;
        print_replay("under-rollout", &outcome.replay);
        if outcome.replay.mixed_epoch_exposure > 0 {
            return Err(format!(
                "{} packet(s) executed under two epochs during the rollout",
                outcome.replay.mixed_epoch_exposure
            ));
        }
        outcome.rollout
    } else if args.intent_log.is_some() {
        rt.apply_rollout_logged(&r.output, &mut chan, &config, store.as_mut())
            .map_err(|e| format!("rollout could not start: {e}"))?
    } else {
        rt.apply_rollout(&r.output, &mut chan, &config)
            .map_err(|e| format!("rollout could not start: {e}"))?
    };
    if args.audit {
        let serving = rt.output();
        run_audit(args, &mut rt, serving)?;
    }
    Ok(Some(report))
}

/// Print a rollout report in the human CLI format.
fn print_rollout(report: &RolloutReport) {
    let outcome = if report.committed {
        "committed"
    } else if report.rolled_back {
        "ROLLED BACK"
    } else {
        "no-op"
    };
    println!(
        "rollout: epoch {} {outcome} in {:?} (staging {:?}, {} entr{} re-planned)",
        report.epoch,
        report.elapsed,
        report.stage,
        report.entries_planned,
        if report.entries_planned == 1 {
            "y"
        } else {
            "ies"
        },
    );
    println!(
        "  channel: {} attempt(s), {} retr{}, {} dropped, {} ack-lost, {} duplicated, \
         {} late replay(s)",
        report.messages_sent,
        report.retries,
        if report.retries == 1 { "y" } else { "ies" },
        report.dropped,
        report.ack_lost,
        report.duplicates,
        report.late_replays,
    );
    println!(
        "  churn: {} instruction move(s), {} forced rollback(s)",
        report.instr_churn, report.forced_rollbacks
    );
    for s in &report.switches {
        println!(
            "  {}: prepare {:?} (+{}/-{} entries), commit {:?}, {} retr{}",
            s.switch,
            s.prepare,
            s.entries_added,
            s.entries_removed,
            s.commit,
            s.retries,
            if s.retries == 1 { "y" } else { "ies" },
        );
    }
    for d in &report.diagnostics {
        match d.code {
            Some(c) => println!("  [{c}] {}", d.message),
            None => println!("  {}", d.message),
        }
    }
}

/// Drive the closed self-healing loop (`--monitor`) against the compiled
/// deployment: build a seeded chaos schedule that kills one placement
/// switch early and revives it at half time, then let the monitor and
/// healer detect, remediate, and restore on the virtual clock.
fn drive_monitor(
    args: &Args,
    compiler: &Compiler,
    req: &CompileRequest<'_>,
    out: &lyra::CompileOutput,
) -> Result<SelfHealOutcome, String> {
    // Seeded victim choice across the placement (deterministic per seed).
    let switches: Vec<&String> = out.placement.switches.keys().collect();
    if switches.is_empty() {
        return Err("--monitor needs a placement with at least one switch".into());
    }
    let victim = switches[(args.monitor_seed as usize) % switches.len()].clone();
    let kill_at = (args.monitor_ticks / 8).max(2);
    let mut schedule = ChaosSchedule::new().kill(kill_at, Target::switch(victim.clone()));
    if args.monitor_ticks >= 48 {
        // Long enough runs also demo restore-on-recovery: the victim
        // revives at half time and must ride out the probation window.
        schedule = schedule.restore(args.monitor_ticks / 2, Target::switch(victim.clone()));
    }
    let entries: Vec<(String, u64, u64)> = out
        .ir
        .externs
        .keys()
        .flat_map(|table| (0..4u64).map(move |k| (table.clone(), k, 0x0a00_0000 + k)))
        .collect();
    let cfg = SelfHealConfig {
        health: HealthConfig::default().with_seed(args.monitor_seed),
        rollout: RolloutConfig::default(),
        ticks: args.monitor_ticks,
        traffic_packets: args.replay.unwrap_or(0),
        workers: if args.replay_workers == 0 {
            2
        } else {
            args.replay_workers
        },
    };
    println!(
        "self-heal monitor: {} tick(s), seed {:#x}, chaos victim `{victim}` (kill@{kill_at})",
        args.monitor_ticks, args.monitor_seed
    );
    run_selfheal(compiler, req, &entries, &schedule, &cfg).map_err(|e| e.to_string())
}

/// Print a human summary of a self-heal run.
fn print_selfheal(outcome: &SelfHealOutcome) {
    let h = &outcome.health;
    println!(
        "  probes: {} sent ({} ok, {} degraded, {} lost), {} transition(s)",
        h.probes_sent, h.probes_ok, h.probes_degraded, h.probes_lost, h.transitions
    );
    for r in &outcome.remediations {
        let mttr = match r.mttr_ticks() {
            Some(t) => format!("mttr {t} tick(s)"),
            None => "no mttr".to_string(),
        };
        println!(
            "  round {}: failed [{}] restored [{}] — {} ({mttr}, audit {}, churn {})",
            r.round,
            r.failed.join(", "),
            r.restored.join(", "),
            if r.committed {
                "committed"
            } else if r.rolled_back {
                "rolled back"
            } else {
                "failed"
            },
            if r.audit_clean { "clean" } else { "DIRTY" },
            r.instr_churn,
        );
    }
    for t in &h.targets {
        if t.state != lyra::HealthState::Healthy {
            println!(
                "  verdict: {} is {} ({} missed in a row, flap penalty {:.2})",
                t.target.wire(),
                t.state.name(),
                t.consecutive_lost,
                t.flap_penalty
            );
        }
    }
    if outcome.traffic_delivered > 0 || outcome.mixed_epoch_exposure > 0 {
        println!(
            "  traffic: {} delivered, {} refused, {} mixed-epoch, {} worker panic(s)",
            outcome.traffic_delivered,
            outcome.traffic_refused,
            outcome.mixed_epoch_exposure,
            outcome.worker_panics
        );
    }
    println!(
        "  converged: {} (final audit {}, {} recompile(s), {} restore(s), {} deferral(s))",
        outcome.converged,
        if outcome.final_audit_clean {
            "clean"
        } else {
            "DIRTY"
        },
        outcome.recompiles,
        outcome.restores,
        outcome.rate_limited_deferrals,
    );
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

    // Start from the chosen preset (the default when none), then add the
    // limits.
    let mut profile = args.solve_profile.clone().unwrap_or_default();
    if let Some(ms) = args.deadline_ms {
        profile = profile.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = args.decision_budget {
        profile = profile.with_decision_budget(n);
    }
    let req = CompileRequest::new(&program, &scopes, topology).with_solve_profile(profile);
    let compiler = Compiler::new()
        .with_backend(args.backend.clone())
        .with_objective(args.objective.clone())
        .with_parser_hoisting(args.parser_hoisting);
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
    let rollout_report = match &args.rollout_fail {
        Some(spec) => match drive_rollout(&args, &compiler, &req, &out, spec) {
            // A crash+recover run converges without a rollout report to
            // print (the recovery report was printed instead).
            Ok(report) => {
                if let Some(report) = &report {
                    print_rollout(report);
                }
                report
            }
            Err(e) => return tool_error(&args, e),
        },
        None => None,
    };
    if args.replay.is_some() && args.rollout_fail.is_none() && !args.monitor {
        if let Err(e) = drive_replay(&args, &out) {
            return tool_error(&args, e);
        }
    }
    let selfheal_outcome = if args.monitor {
        match drive_monitor(&args, &compiler, &req, &out) {
            Ok(outcome) => {
                print_selfheal(&outcome);
                if !outcome.converged || outcome.mixed_epoch_exposure > 0 {
                    return tool_error(
                        &args,
                        format!(
                            "self-heal loop did not converge cleanly \
                             (converged: {}, mixed-epoch: {})",
                            outcome.converged, outcome.mixed_epoch_exposure
                        ),
                    );
                }
                Some(outcome)
            }
            Err(e) => return tool_error(&args, e),
        }
    } else {
        None
    };
    if args.audit && args.rollout_fail.is_none() {
        // Standalone anti-entropy audit of the fresh deployment (with
        // --audit-drift, seeded corruption proves detection first).
        let mut rt = Runtime::new(&out);
        for table in out.ir.externs.keys() {
            for k in 0..4u64 {
                if rt.install(table, k, 0x0a00_0000 + k).is_err() {
                    break;
                }
            }
        }
        if let Err(e) = run_audit(&args, &mut rt, &out) {
            return tool_error(&args, e);
        }
    }
    if let Some(path) = &args.emit_stats {
        let mut session = out.session();
        if let Some(report) = rollout_report {
            session = session.with_rollout(report);
        }
        if let Some(outcome) = selfheal_outcome {
            session = session.with_selfheal(outcome);
        }
        let json = session.to_json().to_pretty();
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
        if args.oracle {
            let cfg = lyra::OracleConfig {
                cases: args.oracle_cases,
                seed: args.oracle_seed,
            };
            let report = lyra::check_output(&out, &cfg);
            println!(
                "oracle: {} case(s) x {} artifact(s), seed {:#x} — {}",
                report.cases_per_artifact,
                report.artifacts_checked,
                args.oracle_seed,
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
