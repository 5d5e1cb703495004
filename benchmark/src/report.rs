//! What a run reports: the metric catalogue `BENCHMARK.json` declares,
//! the values one run measured, the ops it attempted, and provenance.

use std::collections::BTreeMap;
use std::process::Command;

use crate::stats::Summary;

/// End-to-end metrics: `(name, unit)`, printed by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("primary_ms", "ms"),
    ("secondary_ms", "ms"),
    ("tables_total", "count"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`, printed by every `--trace 1` run.
/// A layer the workload does not enter reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_us", "us"),
    ("lang.parse_mb_s", "MB/s"),
    ("lang.check_us", "us"),
    ("lang.scopes_us", "us"),
    ("ir.lower_us", "us"),
    ("ir.instrs", "count"),
    ("topo.resolve_us", "us"),
    ("topo.paths", "count"),
    ("topo.symmetry_us", "us"),
    ("topo.degrade_us", "us"),
    ("core.phase.parse_us", "us"),
    ("core.phase.check_us", "us"),
    ("core.phase.lower_us", "us"),
    ("core.phase.scopes_us", "us"),
    ("core.phase.solve_ms", "ms"),
    ("core.phase.codegen_ms", "ms"),
    ("core.driver_self_ms", "ms"),
    ("core.phase_coverage", "ratio"),
    ("synth.encode_ms", "ms"),
    ("synth.model_bools", "count"),
    ("synth.model_ints", "count"),
    ("synth.model_constraints", "count"),
    ("synth.units", "count"),
    ("solver.flatten_ms", "ms"),
    ("solver.flat_clauses", "count"),
    ("solver.flat_atoms", "count"),
    ("solver.sat_vars", "count"),
    ("solver.solve_ms", "ms"),
    ("solver.decisions", "count"),
    ("solver.conflicts", "count"),
    ("solver.propagations", "count"),
    ("solver.learned", "count"),
    ("solver.restarts", "count"),
    ("solver.reductions", "count"),
    ("solver.workers_spawned", "count"),
    ("solver.cancel_share", "ratio"),
    ("solver.props_per_ms", "1/ms"),
    ("codegen.generate_ms", "ms"),
    ("codegen.validate_ms", "ms"),
    ("codegen.artifact_bytes", "B"),
    ("cache.warm_compile_ms", "ms"),
    ("cache.hit_share", "ratio"),
    ("fault.recompile_ms", "ms"),
    ("fault.diff_us", "us"),
    ("fault.entry_churn", "count"),
    ("fault.total_churn", "count"),
    ("runtime.new_ms", "ms"),
    ("runtime.install_many_ms", "ms"),
    ("runtime.install_ns", "ns"),
    ("runtime.logical_entries_ms", "ms"),
    ("runtime.fail_switch_ms", "ms"),
    ("rollout.wall_ms", "ms"),
    ("rollout.stage_ms", "ms"),
    ("rollout.prepare_ms", "ms"),
    ("rollout.commit_ms", "ms"),
    ("rollout.stage_share", "ratio"),
    ("rollout.reported_ms", "ms"),
    ("rollout.messages", "count"),
    ("rollout.delta_prepares", "count"),
    ("rollout.snapshot_prepares", "count"),
    ("rollout.entries_moved", "count"),
    ("rollout.prepare_bytes", "B"),
    ("rollout.snapshot_ms", "ms"),
    ("rollout.snapshot_bytes", "B"),
    ("recovery.audit_clean_ms", "ms"),
    ("recovery.recover_us", "us"),
    ("recovery.journal_records", "count"),
    ("health.selfheal_round_ms", "ms"),
    ("health.selfheal_round_q1_ms", "ms"),
    ("health.selfheal_round_q3_ms", "ms"),
    ("health.mttr_ticks", "count"),
    ("dataplane.deploy_ms", "ms"),
    ("dataplane.ops", "count"),
    ("dataplane.plane_build_ms", "ms"),
    ("dataplane.ns_per_pkt", "ns"),
    ("dataplane.hops_per_pkt", "count"),
    ("dataplane.par_efficiency", "ratio"),
    ("dataplane.effects_per_pkt", "ratio"),
    ("dataplane.interp_mpps", "Mpps"),
    ("dataplane.refused_share", "ratio"),
    ("dataplane.mixed_epoch", "count"),
    ("ir.machine_run_ns", "ns"),
    ("ir.digest_ns", "ns"),
    ("ir.table_get_hit_ns", "ns"),
    ("ir.table_get_miss_ns", "ns"),
    ("ir.table_insert_ns", "ns"),
    ("ir.table_from_sorted_ms", "ms"),
    ("ir.table_delta_us", "us"),
    ("ir.table_delta_rebuilt_ms", "ms"),
    ("ir.snapshot_build_ms", "ms"),
    ("trace.primary_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.spans", "count"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Value {
    pub unit: &'static str,
    pub value: f64,
    /// Sample count and quartiles, for numbers that are medians.
    pub summary: Option<Summary>,
    pub note: String,
}

/// Values by name, operation counts and failure messages of one run.
#[derive(Default)]
pub struct Report {
    pub values: BTreeMap<String, Value>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        self.put(name, unit, value, None, "");
    }

    /// Record the median of `samples` with its quartiles.
    pub fn set_median(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let s = crate::stats::summary(samples);
        self.put(name, unit, s.median, Some(s), "");
    }

    /// Record the fastest of `samples` that is not a fluke (times, lower is
    /// better; see [`crate::stats::fastest`]), with the median and
    /// quartiles beside it. The host's memory system adds one-sided noise
    /// that comes and goes over tens of seconds: medians of a fixed op
    /// drift by ±10 % between runs, minima by ±4 %.
    pub fn set_fastest(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let s = crate::stats::summary(samples);
        let note = format!("fastest sample; median {:.4}", s.median);
        self.put(name, unit, crate::stats::fastest(samples), Some(s), &note);
    }

    pub fn put(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        summary: Option<Summary>,
        note: &str,
    ) {
        self.values.insert(
            name.to_string(),
            Value {
                unit,
                value,
                summary,
                note: note.to_string(),
            },
        );
    }

    /// Count one operation; `problem` is why it failed, if it did.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(p);
            }
        }
    }

    /// Count one operation that must satisfy `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op((!ok).then(what));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.value)
    }

    /// Every value by name with unit, quartiles and sample count.
    pub fn print(&self) {
        for (name, v) in &self.values {
            let spread = v.summary.map_or(String::new(), |s| {
                format!("  [q1 {:.4}  q3 {:.4}  n={}]", s.q1, s.q3, s.n)
            });
            let note = if v.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", v.note)
            };
            println!("  {name:<34} {:>16.4} {:<6}{spread}{note}", v.value, v.unit);
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<34} {share:>16.4} ratio   [{} failed / {} attempted]",
            "fail_share", self.failed, self.attempted
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    /// The result line of the driver contract: exactly the declared
    /// metrics of this mode, nothing else.
    pub fn result_line(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.get(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where and on what the numbers were measured.
pub fn print_provenance(workload: &str, seed: u64, seconds: f64, workers: usize, check: bool) {
    let unknown = || "unknown".to_string();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("workload {workload}  seed {seed}  seconds {seconds}  check {check}");
    println!(
        "  commit {}  {}  nproc {nproc}  replay workers W={workers}  cpu {cpu}",
        command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
        command_line("rustc", &["-V"]).unwrap_or_else(unknown),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut r = Report::default();
        r.set("primary_ms", "ms", 1.25);
        r.set("not_declared", "ms", 9.0);
        r.check(true, String::new);
        r.check(false, || "boom".to_string());
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(line.contains("\"primary_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!line.contains("not_declared"));
        for (name, _) in PER_LAYER {
            assert!(r.result_line(true).contains(&format!("\"{name}\"")));
        }
    }

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` at the repository root must declare exactly this
    /// catalogue (skipped where the root file is not present).
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = crate::api::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, expected, "{key} differs from the catalogue");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
