//! The Lyra-rs benchmark: workloads over the compiler, the control
//! plane and the data plane, each measured end to end (`--trace 0`) and
//! layer by layer (`--trace 1`). See `README.md` beside this crate.

mod api;
mod expected;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;

use workloads::{all_names, Ctx};

const USAGE: &str = "usage: lyra-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--check] [--bless]
  --workload  one of: compile_corpus compile_pod compile_tight failover_1m
              replay_netcache replay_lb_1m replay_rollout (default: all, one process each)
  --seed      seeds table entries, traffic and instance order (default 1)
  --seconds   length of the measured loop (default 14)
  --trace     1 records spans and prints the per-layer metrics; 0 (default)
              prints the end-to-end metrics
  --check     reduced sizes, one sample, every output check
  --bless     rewrite expected/<workload>.json from this run";

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    bless: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 14.0,
        trace: false,
        check: false,
        bless: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = all_names().find(|n| *n == name);
                args.workload = Some(known.ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("bad --seconds `{v}` (0 < S <= 60)"))?;
            }
            "--trace" => {
                // `--trace` alone means 1; the driver passes `--trace 0|1`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check" => args.check = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Run one workload in this process; true when every op was correct.
fn run_one(workload: &'static str, args: &Args) -> bool {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        check: args.check,
        bless: args.bless,
        sizes: inputs::Sizes::new(args.check),
        workers,
        tracer: Arc::default(),
        report: report::Report::default(),
    };
    report::print_provenance(workload, args.seed, args.seconds, workers, args.check);
    workloads::run(&mut ctx);
    // Printed, not declared: a maximum over the run that one rare op can
    // lift by a quarter (58 or 73 MB on `compile_tight`, about even odds).
    ctx.report.set("peak_rss_mb", "MB", report::peak_rss_mb());
    if args.trace {
        let spans = ctx.tracer.spans();
        println!("  spans by name: count, total ms, self ms");
        for (name, (count, total, own)) in trace::by_name(&spans) {
            println!(
                "    {name:<28} {count:>7} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = format!("{}/out/trace-{workload}.jsonl", env!("CARGO_MANIFEST_DIR"));
        match trace::write_jsonl(&spans, std::path::Path::new(&path)) {
            Ok(()) => println!("  wrote {} spans to {path}", spans.len()),
            Err(e) => eprintln!("lyra-benchmark: cannot write {path}: {e}"),
        }
    }
    ctx.report.print();
    println!("{}", ctx.report.result_line(args.trace));
    ctx.report.failed == 0
}

/// Run every workload, each in its own process so `peak_rss_mb` is the
/// workload's own: untraced, then (outside `--check`) traced.
fn run_all(argv: &[String], args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let passes: &[&str] = if args.check || args.trace {
        &[""]
    } else {
        &["0", "1"]
    };
    let mut ok = true;
    for workload in all_names() {
        for pass in passes {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(argv).args(["--workload", workload]);
            if !pass.is_empty() {
                cmd.args(["--trace", pass]);
            }
            match cmd.status() {
                Ok(status) => ok &= status.success(),
                Err(e) => {
                    eprintln!("lyra-benchmark: cannot run {workload}: {e}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "lyra-benchmark: all workloads {}",
        if ok { "correct" } else { "FAILED" }
    );
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lyra-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&argv, &args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
