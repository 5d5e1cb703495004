//! Fault-injection property harness.
//!
//! Random *survivable* fault scenarios (switch and link failures that
//! leave the load-balancer scope with at least one working flow path) are
//! injected into a compiled deployment two ways, and both must preserve
//! packet semantics against the IR reference interpreter:
//!
//! * **failover recompilation** — `Compiler::recompile_for_faults`
//!   produces a new placement on the survivors; every surviving flow path
//!   must forward exactly like the unsplit reference algorithm running
//!   against the full logical table. Under the `Feasible` objective the
//!   recompile must also take the carried-over route: no solver decisions,
//!   nothing added anywhere, changes on dead switches only — and the
//!   negatives (an objective, a program edit, a greedy-style prior the
//!   model rejects) must not carry over and must still compile;
//! * **runtime failure** — `Runtime::fail_switch` / `fail_link` re-sync
//!   entries onto surviving shards; surviving paths must keep hitting.
//!
//! Randomness comes from a seeded xorshift generator (the workspace builds
//! offline with no external crates), so every run explores the identical
//! scenario set and failures reproduce from the printed scenario index.
//!
//! The file also carries the solver-watchdog acceptance test: a 1 ms
//! deadline on the k = 16 LB MULTI-SW case (the hardest Figure 10 pod)
//! must return promptly with a `LYR0550` degraded-result warning instead
//! of hanging or failing.

mod common;

use common::Rng;
use std::time::{Duration, Instant};

use lyra::{
    replay_under_recovery, run_selfheal, ChaosEvent, ChaosSchedule, CompileRequest, Compiler,
    CrashPlan, CrashPoint, DegradeRung, DriftOp, HealthState, IntentStore, LossyChannel,
    MemIntentStore, Objective, ReliableChannel, ReplayConfig, RolloutConfig, Runtime,
    SelfHealConfig, SolveRoute, Target,
};
use lyra_ir::{execute_all, DataPlaneState, Effect, PacketState};
use lyra_lang::parse_scopes;
use lyra_topo::{fat_tree_pod, figure1_network, resolve_scope, scope_health, FaultSet};

const LB: &str = r#"
    pipeline[LB]{loadbalancer};
    algorithm loadbalancer {
        extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
        if (flow_h in conn_table) {
            ipv4.dstAddr = conn_table[flow_h];
        } else {
            copy_to_cpu();
        }
    }
"#;
const LB_SCOPES: &str = "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";

/// Scope switches and links a scenario may fail.
const SWITCH_POOL: [&str; 4] = ["Agg3", "Agg4", "ToR3", "ToR4"];
const LINK_POOL: [(&str, &str); 4] = [
    ("Agg3", "ToR3"),
    ("Agg3", "ToR4"),
    ("Agg4", "ToR3"),
    ("Agg4", "ToR4"),
];

/// Draw a random fault set over the LB scope, retrying until the scope
/// survives it (at least one Agg→ToR path fully alive).
fn survivable_faults(rng: &mut Rng) -> FaultSet {
    let topo = figure1_network();
    let spec = &parse_scopes(LB_SCOPES).unwrap()[0];
    let resolved = resolve_scope(&topo, spec).unwrap();
    loop {
        let mut faults = FaultSet::new();
        for sw in SWITCH_POOL {
            if rng.below(4) == 0 {
                faults.add_switch(sw);
            }
        }
        for (a, b) in LINK_POOL {
            if rng.below(4) == 0 {
                faults.add_link(a, b);
            }
        }
        if scope_health(&topo, &resolved, &faults).survivable() {
            return faults;
        }
    }
}

/// Reference semantics: the unsplit algorithm against the full table.
fn reference(ir: &lyra_ir::IrProgram, entries: &[(u64, u64)], flow_h: u64) -> (u64, Vec<Effect>) {
    let alg = ir.algorithm("loadbalancer").unwrap();
    let mut dp = DataPlaneState::new();
    for &(k, v) in entries {
        dp.install("conn_table", k, v);
    }
    let mut pkt = PacketState::new();
    pkt.set("flow_h", flow_h);
    pkt.set("ipv4.dstAddr", 0xdead);
    let effects = execute_all(alg, &mut pkt, &mut dp);
    (pkt.get("ipv4.dstAddr"), effects)
}

/// Check every surviving flow path of `rt` against the reference for the
/// given packets. Paths with no surviving shard of the table are skipped —
/// install() never covers them, exactly like a real control plane.
fn check_paths(
    rt: &mut Runtime,
    out: &lyra::CompileOutput,
    faults: &FaultSet,
    entries: &[(u64, u64)],
    probes: &[u64],
    scenario: usize,
) {
    let (flow_paths, placement, ir) = (&out.flow_paths, &out.placement, &out.ir);
    let holders: Vec<&String> = placement
        .switches
        .iter()
        .filter(|(n, p)| p.extern_entries.contains_key("conn_table") && !faults.switch_failed(n))
        .map(|(n, _)| n)
        .collect();
    for path in flow_paths.values().flatten() {
        if !faults.path_survives(path) {
            continue;
        }
        if !path.iter().any(|sw| holders.contains(&sw)) {
            continue;
        }
        let hops: Vec<&str> = path.iter().map(|s| s.as_str()).collect();
        for &flow_h in probes {
            let (want_dst, want_effects) = reference(ir, entries, flow_h);
            let mut pkt = PacketState::new();
            pkt.set("flow_h", flow_h);
            pkt.set("ipv4.dstAddr", 0xdead);
            let (end, effects) = rt
                .inject(&hops, pkt)
                .unwrap_or_else(|e| panic!("scenario {scenario}: inject on {path:?}: {e}"));
            assert_eq!(
                end.get("ipv4.dstAddr"),
                want_dst,
                "scenario {scenario}: path {path:?} flow_h={flow_h} diverged from reference"
            );
            assert_eq!(
                effects.len(),
                want_effects.len(),
                "scenario {scenario}: path {path:?} flow_h={flow_h} effects diverged: \
                 {effects:?} vs {want_effects:?}"
            );
        }
    }
}

/// ≥200 random survivable fault scenarios, each differentially checked:
/// recompile onto the survivors, install random entries, and compare every
/// surviving flow path against the reference interpreter.
#[test]
fn failover_recompilation_preserves_semantics_across_200_scenarios() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let prior = compiler.compile(&req).expect("healthy compile");
    let mut rng = Rng::new(0xfau64 * 0x1_0001);

    let mut checked = 0usize;
    for scenario in 0..200 {
        let faults = survivable_faults(&mut rng);
        let r = compiler
            .recompile_for_faults(&req, &prior, &faults)
            .unwrap_or_else(|e| panic!("scenario {scenario}: survivable faults {faults:?}: {e}"));
        // The new placement never touches a dead switch.
        for dead in faults.failed_switches() {
            assert!(
                !r.output.placement.switches.contains_key(dead),
                "scenario {scenario}: placement uses failed switch {dead}"
            );
        }
        // Under `Feasible` the prior placement is carried onto the
        // survivors unsearched, so survivors stay put: nothing is added,
        // and code and shards change on dead switches only.
        assert_eq!(
            r.output.stats.solve_route,
            Some(SolveRoute::CarriedOver),
            "scenario {scenario}: {faults:?}"
        );
        assert_eq!(r.output.solver.decisions, 0, "scenario {scenario}");
        assert!(r.diff.added.is_empty(), "scenario {scenario}: {:?}", r.diff);
        let changed =
            (r.diff.removed.keys()).chain(r.diff.resharded.values().flatten().map(|c| &c.switch));
        for sw in changed {
            assert!(
                faults.switch_failed(sw),
                "scenario {scenario}: survivor {sw} changed: {:?}",
                r.diff
            );
        }
        // Install random entries through the runtime and probe random keys
        // (some hit, some miss) on every surviving path.
        let mut rt = Runtime::new(&r.output);
        let n = 1 + rng.below(8);
        let entries: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.below(64), 1 + rng.below(1 << 24)))
            .collect();
        let mut installed: Vec<(u64, u64)> = Vec::new();
        for &(k, v) in &entries {
            if installed.iter().any(|&(ik, _)| ik == k) {
                continue; // duplicate key: the first value wins, as in a real table
            }
            rt.install("conn_table", k, v)
                .unwrap_or_else(|e| panic!("scenario {scenario}: install: {e}"));
            installed.push((k, v));
        }
        let probes: Vec<u64> = (0..4).map(|_| rng.below(80)).collect();
        check_paths(&mut rt, &r.output, &faults, &installed, &probes, scenario);
        checked += 1;
    }
    assert!(checked >= 200, "ran only {checked} scenarios");
}

/// Recompiles that must *not* take the carried-over route, and must still
/// compile: an optimizing objective (the survivors may admit a smaller
/// optimum), an edited algorithm through `compile_incremental` (the prior
/// no longer places the program), and a prior shaped like greedy first-fit
/// output that the model rejects (greedy checks coarse capacity only, and
/// the greedy rung itself now refuses such a placement, so it is built by
/// hand).
#[test]
fn objective_edit_and_greedy_prior_do_not_carry_over() {
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let faults = FaultSet::new().with_switch("Agg3");

    let compiler = Compiler::new().with_objective(Objective::MinSwitches);
    let prior = compiler.compile(&req).expect("healthy compile");
    let r = compiler
        .recompile_for_faults(&req, &prior, &faults)
        .expect("recompile under an objective");
    assert_eq!(r.output.stats.solve_route, Some(SolveRoute::Monolithic));
    assert!(!r.output.placement.switches.contains_key("Agg3"));

    let compiler = Compiler::new();
    let prior = compiler.compile(&req).expect("healthy compile");
    let edited = LB.replace("copy_to_cpu();", "copy_to_cpu(); ipv4.ttl = 64;");
    assert_ne!(edited, LB, "the edit must apply");
    let edited_req = CompileRequest::new(&edited, LB_SCOPES, figure1_network());
    let out = compiler
        .compile_incremental(&edited_req, &prior.placement)
        .expect("incremental compile of the edit");
    assert_eq!(out.stats.solve_route, Some(SolveRoute::Monolithic));
    out.validate_all().expect("edited program validates");

    // A dependency chain deeper than one Tofino-64Q's twelve stages: the
    // solver splits it across the two hops; hosting it whole on each Agg,
    // as greedy first-fit would, takes 18 stages and the model rejects it.
    let decls: String = (0..=16).map(|i| format!("bit[32] x{i};\n")).collect();
    let chain: String = (1..=16)
        .map(|i| format!("x{i} = x{} + {i};\n", i - 1))
        .collect();
    let deep = format!(
        "pipeline[P]{{deep}};\nalgorithm deep {{\n{decls}x0 = ipv4.srcAddr;\n{chain}\
         ipv4.dstAddr = x16;\n}}"
    );
    let topo = fat_tree_pod(4, "tofino-64q", "tofino-64q");
    let scopes = "deep: [ ToR*,Agg* | MULTI-SW | (Agg1,Agg2->ToR1,ToR2) ]";
    let ir = lyra_ir::frontend(&deep).expect("deep chain lowers");
    let instrs = (0..ir.algorithm("deep").unwrap().instrs.len() as u32).map(lyra_ir::InstrId);
    let whole = lyra_synth::SwitchPlan {
        instrs: [("deep".to_string(), instrs.collect())].into(),
        ..Default::default()
    };
    let greedy = lyra_synth::Placement {
        switches: ["Agg1", "Agg2"]
            .map(|s| (s.to_string(), whole.clone()))
            .into(),
    };
    let deep_req = CompileRequest::new(&deep, scopes, topo);
    let out = Compiler::new()
        .compile_incremental(&deep_req, &greedy)
        .expect("search replaces the greedy prior");
    assert_eq!(out.stats.solve_route, Some(SolveRoute::Monolithic));
    assert_eq!(out.degraded, None);
    assert_ne!(out.placement, greedy);
    assert!(out
        .placement
        .switches
        .values()
        .all(|p| p.usage.stages <= 12));
}

/// The same scenarios injected at runtime (shards die live, entries
/// re-sync onto survivors) instead of through recompilation.
#[test]
fn runtime_fault_injection_resyncs_and_preserves_semantics() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let out = compiler.compile(&req).expect("healthy compile");
    let mut rng = Rng::new(0xc0ffee);

    for scenario in 0..100 {
        let faults = survivable_faults(&mut rng);
        let mut rt = Runtime::new(&out);
        let n = 1 + rng.below(8);
        let mut installed: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n {
            let (k, v) = (rng.below(64), 1 + rng.below(1 << 24));
            if installed.iter().any(|&(ik, _)| ik == k) {
                continue;
            }
            rt.install("conn_table", k, v)
                .unwrap_or_else(|e| panic!("scenario {scenario}: install: {e}"));
            installed.push((k, v));
        }
        // Fail the scenario's elements live; re-sync must succeed because
        // the scope survives and capacity (1024 per shard) is ample.
        for sw in faults.failed_switches() {
            rt.fail_switch(sw)
                .unwrap_or_else(|e| panic!("scenario {scenario}: fail_switch({sw}): {e}"));
        }
        for (a, b) in faults.failed_links() {
            rt.fail_link(a, b)
                .unwrap_or_else(|e| panic!("scenario {scenario}: fail_link({a},{b}): {e}"));
        }
        // Dead paths refuse traffic.
        for path in out.flow_paths.values().flatten() {
            if faults.path_survives(path) {
                continue;
            }
            let hops: Vec<&str> = path.iter().map(|s| s.as_str()).collect();
            let mut pkt = PacketState::new();
            pkt.set("flow_h", 1);
            assert!(
                rt.inject(&hops, pkt).is_err(),
                "scenario {scenario}: dead path {path:?} accepted a packet"
            );
        }
        let probes: Vec<u64> = (0..4).map(|_| rng.below(80)).collect();
        check_paths(&mut rt, &out, &faults, &installed, &probes, scenario);
    }
}

/// Chaos acceptance for the transactional rollout engine (§ tentpole):
/// ≥200 seeded scenarios drive `Runtime::apply_rollout` over a lossy
/// control channel — drop probability 0.3, ack loss, duplicates, late
/// replays, and (every fourth scenario) a switch whose control session
/// dies mid-rollout. Every scenario must leave the deployment serving
/// either the full old placement or the full new placement — never a
/// mix — and the post-rollout data plane must match the reference
/// interpreter for whichever epoch won.
#[test]
fn rollout_chaos_commits_fully_or_rolls_back_fully_across_200_scenarios() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let healthy = compiler.compile(&req).expect("healthy compile");
    let mut rng = Rng::new(0x0_5eed_fa11);

    let (mut committed_n, mut rolled_back_n, mut mixed_epoch_n) = (0usize, 0usize, 0usize);
    for scenario in 0..200 {
        let faults = survivable_faults(&mut rng);
        let r = compiler
            .recompile_for_faults(&req, &healthy, &faults)
            .unwrap_or_else(|e| panic!("scenario {scenario}: recompile: {e}"));

        // Bring up the old placement, install entries, and apply the
        // faults live (reliable re-sync) so the rollout starts from a
        // coherent degraded deployment.
        let mut rt = Runtime::new(&healthy);
        let mut installed: Vec<(u64, u64)> = Vec::new();
        for _ in 0..(1 + rng.below(8)) {
            let (k, v) = (rng.below(64), 1 + rng.below(1 << 24));
            if installed.iter().any(|&(ik, _)| ik == k) {
                continue;
            }
            rt.install("conn_table", k, v)
                .unwrap_or_else(|e| panic!("scenario {scenario}: install: {e}"));
            installed.push((k, v));
        }
        for sw in faults.failed_switches() {
            rt.fail_switch(sw)
                .unwrap_or_else(|e| panic!("scenario {scenario}: fail_switch({sw}): {e}"));
        }
        for (a, b) in faults.failed_links() {
            rt.fail_link(a, b)
                .unwrap_or_else(|e| panic!("scenario {scenario}: fail_link({a},{b}): {e}"));
        }

        // The chaos channel: heavy loss, plus a mid-rollout control-session
        // death on one of the new placement's switches every 4th scenario.
        let mut chan = LossyChannel::new(1 + rng.next())
            .with_drop_p(0.3)
            .with_ack_loss_p(0.15)
            .with_dup_p(0.15)
            .with_late_p(0.1);
        if scenario % 4 == 0 {
            if let Some(victim) = r.output.placement.switches.keys().next() {
                chan = chan.with_switch_death(victim.clone(), 1 + rng.below(4));
            }
        }
        let config = RolloutConfig {
            max_attempts: 4,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(10),
            seed: rng.next(),
            scope_health: r.scope_health.clone(),
            crash: None,
            force_snapshot: false,
        };

        let old_epoch = rt.epoch();
        let report = rt
            .apply_rollout(&r.output, &mut chan, &config)
            .unwrap_or_else(|e| panic!("scenario {scenario}: apply_rollout: {e}"));

        // All-or-nothing: exactly one outcome, and no switch may be left
        // serving a stale epoch or carrying staged/prior side state.
        assert!(
            report.committed ^ report.rolled_back,
            "scenario {scenario}: rollout neither committed nor rolled back cleanly"
        );
        if !rt.epochs_coherent() {
            mixed_epoch_n += 1;
        }
        if report.committed {
            committed_n += 1;
            assert!(
                rt.epoch() > old_epoch,
                "scenario {scenario}: commit did not advance the epoch"
            );
            let probes: Vec<u64> = (0..4).map(|_| rng.below(80)).collect();
            check_paths(&mut rt, &r.output, &faults, &installed, &probes, scenario);
        } else {
            rolled_back_n += 1;
            assert_eq!(
                rt.epoch(),
                old_epoch,
                "scenario {scenario}: rollback did not restore the old epoch"
            );
            let probes: Vec<u64> = (0..4).map(|_| rng.below(80)).collect();
            check_paths(&mut rt, &healthy, &faults, &installed, &probes, scenario);
        }
    }
    assert_eq!(
        mixed_epoch_n, 0,
        "{mixed_epoch_n} scenarios observed mixed-epoch state"
    );
    assert!(
        committed_n > 0 && rolled_back_n > 0,
        "chaos must exercise both outcomes: {committed_n} commits, {rolled_back_n} rollbacks"
    );
}

/// Runtime switch failure over a *lossy* control channel: the re-sync
/// transaction either commits (entries live on survivors, semantics match
/// the reference) or rolls back (old epoch restored everywhere) — and the
/// epoch invariant holds either way.
#[test]
fn lossy_fail_switch_resync_commits_or_rolls_back_cleanly() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let out = compiler.compile(&req).expect("healthy compile");
    let mut rng = Rng::new(0xdead_10cc);

    let (mut committed_n, mut rolled_back_n) = (0usize, 0usize);
    for scenario in 0..40 {
        let mut rt = Runtime::new(&out);
        let mut installed: Vec<(u64, u64)> = Vec::new();
        for _ in 0..4 {
            let (k, v) = (rng.below(64), 1 + rng.below(1 << 24));
            if installed.iter().any(|&(ik, _)| ik == k) {
                continue;
            }
            rt.install("conn_table", k, v).unwrap();
            installed.push((k, v));
        }
        let victim = SWITCH_POOL[rng.below(2) as usize]; // Agg3 or Agg4: always survivable
        let mut chan = LossyChannel::new(1 + rng.next())
            .with_drop_p(0.35)
            .with_ack_loss_p(0.2)
            .with_dup_p(0.2);
        let config = RolloutConfig {
            max_attempts: 3,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(10),
            ..RolloutConfig::default()
        };
        let old_epoch = rt.epoch();
        let report = rt
            .fail_switch_with_channel(victim, &mut chan, &config)
            .unwrap_or_else(|e| panic!("scenario {scenario}: fail_switch({victim}): {e}"));

        assert!(
            rt.epochs_coherent(),
            "scenario {scenario}: lossy re-sync left mixed-epoch state"
        );
        // The failed switch refuses traffic regardless of outcome.
        let mut pkt = PacketState::new();
        pkt.set("flow_h", 1);
        assert!(rt.inject(&[victim], pkt).is_err());
        if report.committed {
            committed_n += 1;
            let mut faults = FaultSet::new();
            faults.add_switch(victim);
            let probes: Vec<u64> = (0..4).map(|_| rng.below(80)).collect();
            check_paths(&mut rt, &out, &faults, &installed, &probes, scenario);
        } else {
            rolled_back_n += 1;
            assert_eq!(rt.epoch(), old_epoch);
        }
    }
    assert!(
        committed_n > 0,
        "no lossy re-sync ever committed ({rolled_back_n} rollbacks)"
    );
}

/// The rollout engine is fully deterministic for a fixed seed: replaying
/// the same scenario (same channel seed, same config seed, same mid-
/// rollout death) reproduces the exact channel counters and outcome.
#[test]
fn rollout_outcome_is_deterministic_for_a_fixed_seed() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let healthy = compiler.compile(&req).expect("healthy compile");
    let mut faults = FaultSet::new();
    faults.add_switch("ToR3");
    let r = compiler
        .recompile_for_faults(&req, &healthy, &faults)
        .expect("recompile");

    let run = || {
        let mut rt = Runtime::new(&healthy);
        rt.install("conn_table", 7, 0x0a00_0007).unwrap();
        rt.fail_switch("ToR3").unwrap();
        let victim = r.output.placement.switches.keys().next().unwrap().clone();
        let mut chan = LossyChannel::new(0xabad_cafe)
            .with_drop_p(0.3)
            .with_ack_loss_p(0.15)
            .with_switch_death(victim, 2);
        let config = RolloutConfig {
            max_attempts: 3,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(10),
            seed: 99,
            scope_health: r.scope_health.clone(),
            crash: None,
            force_snapshot: false,
        };
        rt.apply_rollout(&r.output, &mut chan, &config).unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.rolled_back, b.rolled_back);
    assert_eq!(a.forced_rollbacks, b.forced_rollbacks);
    assert_eq!(a.messages_sent, b.messages_sent);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.ack_lost, b.ack_lost);
    assert_eq!(a.duplicates, b.duplicates);
}

fn pod(k: usize) -> lyra_topo::Topology {
    fat_tree_pod(k, "tofino-32q", "trident4")
}

/// The load balancer MULTI-SW over a whole pod, traffic entering at the
/// Aggs.
fn pod_lb_scopes(k: usize) -> String {
    let names = |p: &str| {
        (1..=k / 2)
            .map(|i| format!("{p}{i}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "loadbalancer: [ ToR*,Agg* | MULTI-SW | ({}->{}) ]",
        names("Agg"),
        names("ToR")
    )
}

/// Watchdog acceptance: a 1 ms deadline on the hardest Figure 10 pod
/// (k = 16, LB MULTI-SW) must come back promptly via the degradation
/// ladder — `LYR0550` names the rung — rather than hang for the full
/// solve or fail.
#[test]
fn one_ms_deadline_on_k16_lb_returns_promptly_and_degraded() {
    let scopes = pod_lb_scopes(16);
    let req = CompileRequest::new(LB, &scopes, pod(16));

    let t = Instant::now();
    let out = Compiler::new()
        .with_deadline(Duration::from_millis(1))
        .compile(&req)
        .expect("ladder must not fail");
    let elapsed = t.elapsed();

    // The quotient route occasionally beats even a 1 ms deadline outright;
    // that is a success, not a watchdog miss. When it does degrade, the
    // rung must be reported.
    if let Some(rung) = out.degraded {
        let warning = out
            .warnings
            .iter()
            .find(|w| w.code == Some(lyra_diag::codes::DEGRADED))
            .expect("degraded output must carry the LYR0550 warning");
        assert!(
            warning.message.contains(&rung.to_string()),
            "warning must name the rung: {warning:?}"
        );
    }
    // Release builds come back in tens of milliseconds (encode, greedy,
    // codegen); allow debug-build slack but still catch a hang or a full
    // solve.
    assert!(
        elapsed < Duration::from_secs(10),
        "watchdog did not bound the compile: {elapsed:?}"
    );
}

/// A spent decision budget under an objective degrades, it does not
/// refute: three decisions on NetCache over a k = 8 pod under
/// `MinSwitches` used to come back as an `LYR040x` infeasibility
/// explanation for a satisfiable problem (the branch-and-bound loop
/// reported the truncated first round as "no model"). The ladder must take
/// over, as it does for the same budget without an objective — and for an
/// already-expired deadline. A spent limit ends in one search: no second
/// one runs past it, and the greedy placement satisfies the model.
#[test]
fn decision_budget_under_an_objective_degrades_instead_of_refuting() {
    let k = 8;
    let names = |p: &str| {
        (1..=k / 2)
            .map(|i| format!("{p}{i}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let scopes = format!(
        "netcache: [ ToR*,Agg* | MULTI-SW | ({}->{}) ]",
        names("Agg"),
        names("ToR")
    );
    let program = lyra_apps::programs::netcache();
    let topo = fat_tree_pod(k, "tofino-32q", "trident4");
    let resolved: Vec<_> = parse_scopes(&scopes)
        .unwrap()
        .iter()
        .map(|s| resolve_scope(&topo, s).unwrap())
        .collect();
    // Monolithic, so the limit meets the search the objective runs (the
    // quotient route has its own, smaller one). The decision bound is the
    // budget plus the one decision the search takes before it checks.
    let monolithic = Compiler::new().with_quotient_route(false);
    let limits = [
        (
            "a budget of 3",
            monolithic.clone().with_decision_budget(3),
            3 + 1,
        ),
        (
            "a spent deadline",
            monolithic.with_deadline(Duration::ZERO),
            1,
        ),
    ];
    for objective in [Objective::Feasible, Objective::MinSwitches] {
        for (limit, compiler, max_decisions) in &limits {
            let case = format!("{objective:?} under {limit}");
            let req = CompileRequest::new(&program, &scopes, topo.clone());
            let out = compiler
                .clone()
                .with_objective(objective.clone())
                .compile(&req)
                .unwrap_or_else(|e| {
                    panic!(
                        "{case}: a spent limit is not a refutation: {:?}",
                        e.diagnostics()
                    )
                });
            assert_eq!(out.degraded, Some(DegradeRung::GreedyFirstFit), "{case}");
            assert!(
                out.warnings
                    .iter()
                    .any(|w| w.code == Some(lyra_diag::codes::DEGRADED)),
                "{case}: degraded output must carry LYR0550"
            );
            assert!(
                out.solver.decisions <= *max_decisions,
                "{case}: {} decisions",
                out.solver.decisions
            );
            let opts = lyra_synth::EncodeOptions {
                objective: objective.clone(),
                ..Default::default()
            };
            let enc = lyra_synth::encode(&out.ir, &topo, &resolved, &opts).unwrap();
            assert!(
                lyra_synth::place::lift_placement(&enc, &topo, &out.placement)
                    .satisfies(&enc.model),
                "{case}: the greedy placement must satisfy the model"
            );
            out.validate_all().expect("degraded placement validates");
        }
    }
}

/// A minimization its budget stops after it found a model is served as
/// that model, degraded, and never cached. LB 5.5 M under `MinSwitches` on
/// a k = 4 pod finds its first model within 168 decisions and needs three
/// more to prove it optimal, so a budget of 168 falls between the two. The
/// synthesis cache's key ignores limits, so a cached unproved optimum
/// would be served to a later unlimited compile with no search at all.
#[test]
fn minimization_cut_short_is_best_so_far_and_stays_out_of_the_cache() {
    let program = lyra_apps::programs::load_balancer(5_500_000);
    let scopes = pod_lb_scopes(4);
    let cache = std::sync::Arc::new(lyra::SynthCache::new());
    let compiler = Compiler::new()
        .with_objective(Objective::MinSwitches)
        .with_synth_cache(cache.clone());
    let request = || CompileRequest::new(&program, &scopes, pod(4));
    let budget = 168;
    let cut = compiler
        .clone()
        .with_decision_budget(budget)
        .compile(&request())
        .expect("the budget leaves a model");
    assert_eq!(cut.degraded, Some(DegradeRung::BestSoFar));
    assert_eq!(cut.stats.solve_route, Some(SolveRoute::Monolithic));
    assert!(cut.solver.decisions > budget, "{:?}", cut.solver);
    let warning = cut
        .warnings
        .iter()
        .find(|w| w.code == Some(lyra_diag::codes::DEGRADED))
        .expect("degraded output must carry LYR0550");
    assert!(
        warning.message.contains("best-so-far") && warning.message.contains("optimal"),
        "{}",
        warning.message
    );
    assert_eq!(cache.len(), 0, "an unproved optimum entered the cache");

    // The unlimited compile of the same problem searches, proves its
    // optimum, and is the one the cache keeps.
    let full = compiler.compile(&request()).unwrap();
    assert_eq!(full.degraded, None);
    assert_eq!(full.stats.synth_cache_misses, 1);
    assert!(full.solver.decisions > budget, "{:?}", full.solver);
    assert_eq!(cache.len(), 1);
    assert!(full.placement.used_switches() <= cut.placement.used_switches());
    let hit = compiler.compile(&request()).unwrap();
    assert_eq!(hit.stats.synth_cache_hits, 1);
    assert_eq!(hit.placement, full.placement);
}

/// One request, one placement: eight fresh compilers each compile and then
/// recompile around a dead switch, and all eight agree on the placement,
/// on every artifact byte and on the recompile. Golden files, carry-over
/// equality and reproducible bug reports rest on this. (Racing diversified
/// searches, the LB k = 16 recompile came out with 21 tables or with 24
/// from one run to the next.)
#[test]
fn compile_and_failover_recompile_are_deterministic() {
    let program = lyra_apps::programs::load_balancer(1_000_000);
    for (scopes, topo, failed) in [
        (pod_lb_scopes(16), pod(16), "Agg1"),
        (LB_SCOPES.to_string(), figure1_network(), "Agg3"),
    ] {
        let faults = FaultSet::new().with_switch(failed);
        let run = || {
            let compiler = Compiler::new();
            let req = CompileRequest::new(&program, &scopes, topo.clone());
            let out = compiler.compile(&req).expect("compiles");
            let recompile = compiler
                .recompile_for_faults(&req, &out, &faults)
                .expect("recompiles around the fault")
                .output;
            let bytes = |o: &lyra::CompileOutput| -> Vec<(String, String)> {
                o.artifacts
                    .iter()
                    .map(|a| (a.code.clone(), a.control_plane.clone()))
                    .collect()
            };
            (
                bytes(&out),
                bytes(&recompile),
                recompile.total_tables(),
                out.placement,
                recompile.placement,
            )
        };
        let first = run();
        for attempt in 1..8 {
            assert!(
                run() == first,
                "{failed} failover, compiler {attempt}: a fresh compiler disagrees with the first"
            );
        }
    }
}

/// Controller crash-and-restart chaos: ≥150 seeded scenarios crash the
/// controller at every rollout phase boundary (and after the Nth journaled
/// intent) under a heavily lossy channel, then restart it over the SAME
/// channel — the network outlives the controller. Recovery must drive every
/// in-flight rollout to a coherent all-commit or all-rollback, with the
/// winning placement differentially checked against the IR interpreter and
/// zero scenarios left in mixed-epoch state.
#[test]
fn controller_crash_recovery_converges_across_150_scenarios() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let healthy = compiler.compile(&req).expect("healthy compile");
    let mut rng = Rng::new(0xc7a5_4ed0_c0de);

    // Crash-point coverage: the five phase boundaries plus send-count
    // crashes (`after_sends`), which land between a journaled intent and
    // its wire transmit.
    let mut crashed_by_pick = [0usize; 6];
    let (mut committed_n, mut rolled_back_n, mut mixed_epoch_n) = (0usize, 0usize, 0usize);
    let mut crashed_n = 0usize;
    let mut scenario = 0usize;
    while crashed_n < 156 && scenario < 400 {
        scenario += 1;
        let faults = survivable_faults(&mut rng);
        let r = compiler
            .recompile_for_faults(&req, &healthy, &faults)
            .unwrap_or_else(|e| panic!("scenario {scenario}: recompile: {e}"));

        let mut rt = Runtime::new(&healthy);
        let mut installed: Vec<(u64, u64)> = Vec::new();
        for _ in 0..(1 + rng.below(8)) {
            let (k, v) = (rng.below(64), 1 + rng.below(1 << 24));
            if installed.iter().any(|&(ik, _)| ik == k) {
                continue;
            }
            rt.install("conn_table", k, v)
                .unwrap_or_else(|e| panic!("scenario {scenario}: install: {e}"));
            installed.push((k, v));
        }
        for sw in faults.failed_switches() {
            rt.fail_switch(sw)
                .unwrap_or_else(|e| panic!("scenario {scenario}: fail_switch({sw}): {e}"));
        }
        for (a, b) in faults.failed_links() {
            rt.fail_link(a, b)
                .unwrap_or_else(|e| panic!("scenario {scenario}: fail_link({a},{b}): {e}"));
        }

        // Not every boundary is reached on every run (rollback-decision
        // only fires on the failure path, before-finalize only on the
        // commit path), so the sweep oversamples until ≥156 real crashes.
        let pick = scenario % 6;
        let plan = if pick < 5 {
            CrashPlan::at(CrashPoint::ALL[pick])
        } else {
            CrashPlan::after_sends(1 + rng.below(2))
        };
        let mut chan = LossyChannel::new(1 + rng.next())
            .with_drop_p(0.3)
            .with_ack_loss_p(0.15)
            .with_dup_p(0.15)
            .with_late_p(0.1);
        if scenario.is_multiple_of(4) {
            if let Some(victim) = r.output.placement.switches.keys().next() {
                chan = chan.with_switch_death(victim.clone(), 1 + rng.below(4));
            }
        }
        let config = RolloutConfig {
            max_attempts: 4,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(10),
            seed: rng.next(),
            scope_health: r.scope_health.clone(),
            crash: None,
            force_snapshot: false,
        }
        .with_crash(plan);

        let old_epoch = rt.epoch();
        let mut store = MemIntentStore::new();
        match rt.apply_rollout_logged(&r.output, &mut chan, &config, &mut store) {
            Ok(report) => {
                // The crash point was never reached; the rollout must have
                // behaved exactly like the uninstrumented engine.
                assert!(
                    report.committed ^ report.rolled_back,
                    "scenario {scenario}: uncrashed rollout was not all-or-nothing"
                );
                assert!(
                    rt.epochs_coherent(),
                    "scenario {scenario}: uncrashed mixed state"
                );
            }
            Err(err) => {
                assert_eq!(
                    err.code,
                    Some(lyra_diag::codes::CONTROLLER_CRASHED),
                    "scenario {scenario}: unexpected rollout error: {err:?}"
                );
                crashed_n += 1;
                crashed_by_pick[pick] += 1;

                // Restart: a fresh controller process replays the journal
                // over the same (still lossy) network.
                let recover_cfg = RolloutConfig {
                    max_attempts: 4,
                    base_backoff: Duration::from_micros(1),
                    max_backoff: Duration::from_micros(10),
                    seed: rng.next(),
                    scope_health: r.scope_health.clone(),
                    crash: None,
                    force_snapshot: false,
                };
                let rep = rt
                    .recover(&r.output, &mut store, &mut chan, &recover_cfg)
                    .unwrap_or_else(|e| panic!("scenario {scenario}: recover: {e}"));
                assert!(
                    rep.in_flight,
                    "scenario {scenario}: crash left a journal but recovery saw nothing in flight"
                );
                assert!(
                    rep.committed ^ rep.rolled_back,
                    "scenario {scenario}: recovery was not all-or-nothing: {rep:?}"
                );
                if !rt.epochs_coherent() {
                    mixed_epoch_n += 1;
                }
                let probes: Vec<u64> = (0..4).map(|_| rng.below(80)).collect();
                if rep.committed {
                    committed_n += 1;
                    assert!(
                        rt.epoch() > old_epoch,
                        "scenario {scenario}: recovered commit did not advance the epoch"
                    );
                    assert!(
                        std::ptr::eq(rt.output(), &r.output),
                        "scenario {scenario}: recovered commit must serve the new output"
                    );
                    check_paths(&mut rt, &r.output, &faults, &installed, &probes, scenario);
                } else {
                    rolled_back_n += 1;
                    assert_eq!(
                        rt.epoch(),
                        old_epoch,
                        "scenario {scenario}: recovered rollback did not restore the old epoch"
                    );
                    assert!(
                        std::ptr::eq(rt.output(), &healthy),
                        "scenario {scenario}: recovered rollback must keep the prior output"
                    );
                    check_paths(&mut rt, &healthy, &faults, &installed, &probes, scenario);
                }
            }
        }
    }

    assert!(
        crashed_n >= 156,
        "only {crashed_n} of {scenario} scenarios actually crashed"
    );
    assert_eq!(
        mixed_epoch_n, 0,
        "{mixed_epoch_n} recoveries left mixed-epoch state"
    );
    assert!(
        committed_n > 0 && rolled_back_n > 0,
        "recovery chaos must exercise both outcomes: \
         {committed_n} commits, {rolled_back_n} rollbacks"
    );
    // Every phase boundary and the send-count crash must have fired.
    for (pick, n) in crashed_by_pick.iter().enumerate() {
        assert!(
            *n > 0,
            "crash pick {pick} never fired across {scenario} scenarios: {crashed_by_pick:?}"
        );
    }
}

/// Restart recovery under live traffic: worker threads replay packets
/// through the mid-flight state a crashed controller left behind while
/// `recover` drives the fleet to an outcome. Epoch pinning must hold the
/// whole way through — zero packets may execute under two epochs.
#[test]
fn recovery_under_live_replay_sees_no_mixed_epochs() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let healthy = compiler.compile(&req).expect("healthy compile");
    let faults = FaultSet::new().with_switch("Agg3");
    let r = compiler
        .recompile_for_faults(&req, &healthy, &faults)
        .expect("failover recompile");
    let mut rng = Rng::new(0x11fe_7afc);

    let mut fired = 0usize;
    for scenario in 0..12 {
        let mut rt = Runtime::new(&healthy);
        for i in 0..6u64 {
            rt.install("conn_table", i * 7, 0x0a00 + i).unwrap();
        }
        rt.fail_switch("Agg3").unwrap();

        let pick = scenario % 6;
        let plan = if pick < 5 {
            CrashPlan::at(CrashPoint::ALL[pick])
        } else {
            CrashPlan::after_sends(1 + rng.below(2))
        };
        let mut chan = LossyChannel::new(1 + rng.next())
            .with_drop_p(0.15)
            .with_ack_loss_p(0.1);
        let config = RolloutConfig {
            max_attempts: 4,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(10),
            seed: rng.next(),
            scope_health: r.scope_health.clone(),
            crash: None,
            force_snapshot: false,
        }
        .with_crash(plan);

        let mut store = MemIntentStore::new();
        let crashed = rt
            .apply_rollout_logged(&r.output, &mut chan, &config, &mut store)
            .is_err();
        if !crashed {
            continue; // the boundary was not on this run's path
        }
        fired += 1;

        let recover_cfg = RolloutConfig {
            max_attempts: 4,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(10),
            seed: rng.next(),
            scope_health: r.scope_health.clone(),
            crash: None,
            force_snapshot: false,
        };
        let replay_cfg = ReplayConfig::default()
            .with_packets(20_000)
            .with_workers(2)
            .with_seed(rng.next());
        let outcome = replay_under_recovery(
            &mut rt,
            &r.output,
            &mut store,
            &mut chan,
            &recover_cfg,
            &replay_cfg,
        )
        .unwrap_or_else(|e| panic!("scenario {scenario}: replay_under_recovery: {e}"));

        assert_eq!(
            outcome.replay.mixed_epoch_exposure, 0,
            "scenario {scenario}: traffic executed under two epochs during recovery"
        );
        assert!(
            outcome.replay.delivered > 0,
            "scenario {scenario}: no packet survived the recovery window"
        );
        assert!(
            outcome.recovery.committed ^ outcome.recovery.rolled_back,
            "scenario {scenario}: recovery was not all-or-nothing: {:?}",
            outcome.recovery
        );
        assert!(
            rt.epochs_coherent(),
            "scenario {scenario}: recovery under traffic left mixed-epoch state"
        );
    }
    assert!(
        fired >= 8,
        "only {fired}/12 replay scenarios actually crashed"
    );
}

/// Anti-entropy chaos: seed every drift class behind the controller's back
/// (lost entries, foreign entries, stale values, regressed epoch tags),
/// then audit. Every injected op must surface as exactly one finding, every
/// finding must be repaired, a second audit must come back clean, and the
/// repaired deployment must again match the reference interpreter.
#[test]
fn audit_detects_and_repairs_seeded_drift_across_40_scenarios() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let healthy = compiler.compile(&req).expect("healthy compile");
    let faults = FaultSet::new().with_switch("Agg3");
    let r = compiler
        .recompile_for_faults(&req, &healthy, &faults)
        .expect("failover recompile");
    let mut rng = Rng::new(0x00d2_1f75_eed1);

    for scenario in 0..40 {
        let mut rt = Runtime::new(&healthy);
        let mut installed: Vec<(u64, u64)> = Vec::new();
        for _ in 0..(2 + rng.below(6)) {
            let (k, v) = (rng.below(64), 1 + rng.below(1 << 24));
            if installed.iter().any(|&(ik, _)| ik == k) {
                continue;
            }
            rt.install("conn_table", k, v).unwrap();
            installed.push((k, v));
        }
        rt.fail_switch("Agg3").unwrap();
        // Advance past epoch 0 so a regressed tag is representable.
        let report = rt
            .apply_rollout(
                &r.output,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap_or_else(|e| panic!("scenario {scenario}: rollout: {e}"));
        assert!(report.committed);

        // Drift targets: live switches of the serving placement.
        let alive: Vec<String> = r
            .output
            .placement
            .switches
            .keys()
            .filter(|sw| rt.switch_epoch(sw).is_some())
            .cloned()
            .collect();
        assert!(!alive.is_empty());

        // Seed 1..6 drift ops, deduplicated per (switch, key) so each
        // successful injection maps to exactly one audit finding.
        let mut injected = 0usize;
        let mut touched: Vec<(String, u64)> = Vec::new();
        let mut regressed: Vec<String> = Vec::new();
        let mut foreign_key = 0xd41f_7000u64 + rng.below(1 << 10);
        for _ in 0..(1 + rng.below(5)) {
            let sw = alive[rng.below(alive.len() as u64) as usize].clone();
            let op = match rng.below(4) {
                0 if !installed.is_empty() => {
                    let (k, _) = installed[rng.below(installed.len() as u64) as usize];
                    DriftOp::Remove {
                        table: "conn_table".into(),
                        key: k,
                    }
                }
                1 if !installed.is_empty() => {
                    let (k, v) = installed[rng.below(installed.len() as u64) as usize];
                    DriftOp::Corrupt {
                        table: "conn_table".into(),
                        key: k,
                        value: v ^ 0xffff,
                    }
                }
                2 => {
                    foreign_key += 1;
                    DriftOp::Insert {
                        table: "conn_table".into(),
                        key: foreign_key,
                        value: 0xbad,
                    }
                }
                _ => DriftOp::RegressEpoch,
            };
            match &op {
                DriftOp::RegressEpoch => {
                    if regressed.contains(&sw) {
                        continue;
                    }
                    if rt.inject_drift(&sw, &op).is_ok() {
                        regressed.push(sw);
                        injected += 1;
                    }
                }
                DriftOp::Remove { key, .. }
                | DriftOp::Corrupt { key, .. }
                | DriftOp::Insert { key, .. } => {
                    if touched.iter().any(|(s, k)| *s == sw && k == key) {
                        continue;
                    }
                    // Remove/Corrupt miss when this switch's shard does not
                    // hold the key — that is not drift, just a bad draw.
                    if rt.inject_drift(&sw, &op).is_ok() {
                        touched.push((sw, *key));
                        injected += 1;
                    }
                }
            }
        }
        if injected == 0 {
            continue;
        }

        let audit = rt.audit_switches();
        assert_eq!(
            audit.findings.len(),
            injected,
            "scenario {scenario}: audit found {} of {injected} seeded drifts: {:?}",
            audit.findings.len(),
            audit.counts()
        );
        assert_eq!(
            audit.repaired as usize,
            audit.findings.len(),
            "scenario {scenario}: audit left findings unrepaired"
        );
        let second = rt.audit_switches();
        assert!(
            second.clean(),
            "scenario {scenario}: second audit still drifted: {:?}",
            second.counts()
        );
        assert!(
            rt.epochs_coherent(),
            "scenario {scenario}: audit broke coherence"
        );
        // Repaired semantics match the reference again.
        let probes: Vec<u64> = (0..4).map(|_| rng.below(80)).collect();
        check_paths(&mut rt, &r.output, &faults, &installed, &probes, scenario);
    }
}

/// A failing intent store halts the rollout exactly like a crash
/// (`LYR0577`), and whatever prefix of the journal survived still recovers
/// the fleet to a coherent outcome: no journaled decision can only mean
/// rollback, a journaled commit decision drives the commit home.
#[test]
fn failing_intent_store_halts_and_partial_journal_recovers() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let healthy = compiler.compile(&req).expect("healthy compile");
    let faults = FaultSet::new().with_switch("Agg3");
    let r = compiler
        .recompile_for_faults(&req, &healthy, &faults)
        .expect("failover recompile");

    let (mut committed_n, mut rolled_back_n, mut survived_n) = (0usize, 0usize, 0usize);
    for budget in 1..=8u64 {
        let mut rt = Runtime::new(&healthy);
        rt.install("conn_table", 3, 0x0c0ffee).unwrap();
        rt.fail_switch("Agg3").unwrap();
        let epoch_before = rt.epoch();

        let mut store = MemIntentStore::failing_after(budget);
        match rt.apply_rollout_logged(
            &r.output,
            &mut ReliableChannel::new(),
            &RolloutConfig::default(),
            &mut store,
        ) {
            Ok(report) => {
                // The journal fit the budget — a plain committed rollout.
                assert!(report.committed, "budget {budget}: {report:?}");
                survived_n += 1;
                continue;
            }
            Err(err) => {
                assert_eq!(
                    err.code,
                    Some(lyra_diag::codes::INTENT_STORE_IO),
                    "budget {budget}: {err:?}"
                );
            }
        }

        // The surviving journal prefix is what a restarted controller
        // finds on disk; recovery reads it from a healthy store.
        let mut readable = MemIntentStore::new();
        for rec in store.load().unwrap() {
            readable.append(&rec).unwrap();
        }
        let rep = rt
            .recover(
                &r.output,
                &mut readable,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap_or_else(|e| panic!("budget {budget}: recover: {e}"));
        assert!(
            rep.committed ^ rep.rolled_back,
            "budget {budget}: recovery was not all-or-nothing: {rep:?}"
        );
        assert!(rt.epochs_coherent(), "budget {budget}: mixed state");
        if rep.committed {
            committed_n += 1;
            assert!(rt.epoch() > epoch_before);
        } else {
            rolled_back_n += 1;
            assert_eq!(rt.epoch(), epoch_before);
        }
    }
    // The sweep must see both recovery outcomes (short prefixes can only
    // roll back; a journaled decision drives the commit) and at least one
    // budget large enough for the whole journal.
    assert!(
        committed_n > 0 && rolled_back_n > 0 && survived_n > 0,
        "sweep degenerate: {committed_n} commits, {rolled_back_n} rollbacks, \
         {survived_n} survived"
    );
}

// ---------------------------------------------------------------------------
// Closed-loop self-healing under seeded chaos (lyra::health)
// ---------------------------------------------------------------------------

/// Draw a random chaos schedule over the LB scope whose *worst case* —
/// every scheduled target faulted at once — still leaves the scope
/// survivable, so `recompile_for_faults` always has a placement to heal
/// onto. Events quiesce early enough that the healer can restore whatever
/// comes back (including quarantined flappers waiting out penalty decay)
/// inside the tick budget.
fn survivable_chaos(rng: &mut Rng) -> (ChaosSchedule, bool) {
    let topo = figure1_network();
    let spec = &parse_scopes(LB_SCOPES).unwrap()[0];
    let resolved = resolve_scope(&topo, spec).unwrap();
    loop {
        let n = 1 + rng.below(3);
        let mut targets: Vec<Target> = Vec::new();
        let mut faults = FaultSet::new();
        while targets.len() < n as usize {
            let t = if rng.below(2) == 0 {
                Target::switch(SWITCH_POOL[rng.below(4) as usize])
            } else {
                let (a, b) = LINK_POOL[rng.below(4) as usize];
                Target::link(a, b)
            };
            if targets.contains(&t) {
                continue;
            }
            match &t {
                Target::Switch(s) => faults.add_switch(s),
                Target::Link(a, b) => faults.add_link(a, b),
            }
            targets.push(t);
        }
        if !scope_health(&topo, &resolved, &faults).survivable() {
            continue;
        }
        let mut schedule = ChaosSchedule::new();
        let mut has_kill = false;
        for t in targets {
            match rng.below(5) {
                0 => {
                    has_kill = true;
                    schedule = schedule.kill(4 + rng.below(12), t);
                }
                1 => {
                    has_kill = true;
                    let at = 4 + rng.below(8);
                    let back = at + 8 + rng.below(10);
                    schedule = schedule.kill(at, t.clone()).restore(back, t);
                }
                2 => {
                    schedule =
                        schedule.flap(4 + rng.below(8), t, 2 + rng.below(3), 3 + rng.below(4));
                }
                3 => {
                    let at = 4 + rng.below(8);
                    schedule = schedule.slow(at, at + 8 + rng.below(16), t);
                }
                _ => {
                    let at = 4 + rng.below(8);
                    let p = 0.55 + 0.1 * rng.below(3) as f64;
                    schedule = schedule.lossy(at, at + 8 + rng.below(16), t, p);
                }
            }
        }
        return (schedule, has_kill);
    }
}

/// ≥200 random chaos schedules — kills, kill+restore cycles, flaps, slow
/// and lossy windows over the LB scope — each driven through the full
/// closed loop. Every scenario must end converged (desired == active,
/// epochs coherent), pass the final anti-entropy audit, and never expose
/// mixed-epoch state; every committed remediation must audit clean.
#[test]
fn selfheal_chaos_converges_across_200_scenarios() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let entries: Vec<(String, u64, u64)> = (0..4u64)
        .map(|k| ("conn_table".to_string(), k, 0x0a00_0100 + k))
        .collect();
    let mut rng = Rng::new(0x5e1f_4ea1);

    let (mut remediated_total, mut restored_total, mut quarantined_total) = (0u64, 0u64, 0usize);
    let (mut recompiles_total, mut rolled_back_total, mut mttr_total) = (0u64, 0u64, 0u64);
    for scenario in 0..200usize {
        let (schedule, has_kill) = survivable_chaos(&mut rng);
        let mut cfg = SelfHealConfig {
            seed: 0x9_0000 + scenario as u64,
            ticks: 240,
            ..SelfHealConfig::default()
        };
        if scenario % 20 == 0 {
            cfg.traffic_packets = 1500;
            cfg.workers = 2;
        }
        let outcome = run_selfheal(&compiler, &req, &entries, &schedule, &cfg)
            .unwrap_or_else(|e| panic!("scenario {scenario}: selfheal: {e}"));
        assert!(
            outcome.converged,
            "scenario {scenario}: did not converge: {} remediations, health {:?}",
            outcome.remediations.len(),
            outcome
                .health
                .targets
                .iter()
                .filter(|t| t.state != HealthState::Healthy)
                .collect::<Vec<_>>()
        );
        assert!(
            outcome.final_audit_clean,
            "scenario {scenario}: final audit found drift"
        );
        assert_eq!(
            outcome.mixed_epoch_exposure, 0,
            "scenario {scenario}: mixed-epoch packets escaped"
        );
        assert_eq!(
            outcome.worker_panics, 0,
            "scenario {scenario}: replay worker panicked"
        );
        for (i, r) in outcome.remediations.iter().enumerate() {
            if r.committed {
                assert!(
                    r.audit_clean,
                    "scenario {scenario}: remediation {i} committed but audited dirty"
                );
            }
        }
        if has_kill {
            assert!(
                outcome.recompiles >= 1,
                "scenario {scenario}: a kill was scheduled but nothing was remediated"
            );
        }
        // Ground truth. The fault set the committed rounds leave behind…
        let mut fault_set: Vec<&String> = Vec::new();
        for r in outcome.remediations.iter().filter(|r| r.committed) {
            fault_set.retain(|t| !r.restored.contains(t));
            fault_set.extend(&r.failed);
        }
        // …and what the schedule does to a target: itself, or for a link
        // either endpoint.
        let with_endpoints = |t: &Target| match t {
            Target::Link(a, b) => vec![t.clone(), Target::switch(a), Target::switch(b)],
            Target::Switch(_) => vec![t.clone()],
        };
        let touched = |t: &Target| {
            schedule.events.iter().any(|ev| {
                let (ChaosEvent::Kill { target, .. }
                | ChaosEvent::Restore { target, .. }
                | ChaosEvent::Flap { target, .. }
                | ChaosEvent::Slow { target, .. }
                | ChaosEvent::Lossy { target, .. }) = ev;
                with_endpoints(t).contains(target)
            })
        };
        for t in &outcome.health.targets {
            let held = fault_set.contains(&&t.target.wire());
            // Whatever is down at the last tick is faulted in the
            // monitor's view and failed in the deployment…
            let down = with_endpoints(&t.target)
                .iter()
                .any(|x| schedule.down_at(x, cfg.ticks));
            assert!(
                !down || (t.state.is_faulted() && held),
                "scenario {scenario}: {} is down at tick {} but {} and {}in the fault set",
                t.target,
                cfg.ticks,
                t.state.name(),
                if held { "" } else { "not " }
            );
            // …and the monitor holds nothing faulted that the healer
            // never failed (or restored since).
            assert!(
                !t.state.is_faulted() || held,
                "scenario {scenario}: the monitor holds {} {} but no committed round \
                 failed it",
                t.target,
                t.state.name()
            );
        }
        // No round fails a target the schedule never touches.
        for r in &outcome.remediations {
            for f in &r.failed {
                let t = Target::from_wire(f);
                assert!(
                    touched(&t),
                    "scenario {scenario}: round {} failed {t}, which the schedule never touches",
                    r.round
                );
            }
        }
        remediated_total += outcome.rollouts_committed;
        restored_total += outcome.restores;
        recompiles_total += outcome.recompiles;
        rolled_back_total += outcome.rollouts_rolled_back;
        mttr_total += outcome
            .remediations
            .iter()
            .filter_map(|r| r.mttr_ticks())
            .sum::<u64>();
        // Quarantines are often served and *exited* (penalty decays, the
        // target is restored) before the run ends, so count the verdicts
        // the monitor raised rather than the final states.
        quarantined_total += outcome
            .health
            .diagnostics
            .iter()
            .filter(|d| d.code == Some(lyra_diag::codes::HEALTH_QUARANTINED))
            .count();
    }
    // The sweep must actually exercise the loop: remediations commit,
    // restores bring targets back, and at least one flapper is quarantined.
    assert!(
        remediated_total > 0 && restored_total > 0 && quarantined_total > 0,
        "sweep degenerate: {remediated_total} commits, {restored_total} restores, \
         {quarantined_total} quarantines"
    );
    // The totals the detector's constants are documented against
    // (EXPERIMENTS.md "Detector diet"): a change to any of them, or to how
    // a round runs, moves these.
    assert_eq!(
        (recompiles_total, rolled_back_total, mttr_total),
        (537, 11, 162),
        "suite totals (recompiles, rolled-back rounds, Σ MTTR ticks) moved"
    );
}

/// The healer's backoff, end to end: with both Aggs of the LB scope dead,
/// no flow path survives, so every recompile fails (`LYR0587`) and each
/// failure doubles the cooldown, 4 → 8 → 16 → 32 → 64, where the ceiling
/// holds it. Without backoff the healer would retry every four ticks.
#[test]
fn failing_remediation_backs_off_to_the_cooldown_ceiling() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let schedule = ChaosSchedule::new()
        .kill(4, Target::switch("Agg3"))
        .kill(4, Target::switch("Agg4"));
    let cfg = SelfHealConfig {
        ticks: 240,
        ..SelfHealConfig::default()
    };
    let outcome = run_selfheal(&compiler, &req, &[], &schedule, &cfg).expect("selfheal");

    let starts: Vec<u64> = outcome
        .remediations
        .iter()
        .map(|r| r.tick_started)
        .collect();
    assert_eq!(
        starts,
        [6, 14, 30, 62, 126, 190],
        "rounds must start one backed-off cooldown apart (8, 16, 32, 64, 64)"
    );
    let failures = outcome
        .diagnostics
        .iter()
        .filter(|d| d.code == Some(lyra_diag::codes::HEAL_FAILED))
        .filter(|d| d.message.contains("recompile under fault set failed"))
        .count();
    assert_eq!(
        failures,
        starts.len(),
        "every round's recompile fails (LYR0587)"
    );
}

/// The flap-damping acceptance test: a link flapping 8 times inside the
/// damping window triggers exactly ONE recompile+rollout — the penalty
/// quarantines the target instead of chasing every edge — and the final
/// health report carries the quarantine verdict.
#[test]
fn flapping_link_is_damped_to_one_recompile_and_quarantined() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let victim = Target::link("Agg3", "ToR3");
    let schedule = ChaosSchedule::new().flap(5, victim.clone(), 3, 8);
    let cfg = SelfHealConfig {
        ticks: 80,
        ..SelfHealConfig::default()
    };
    let outcome = run_selfheal(&compiler, &req, &[], &schedule, &cfg).expect("selfheal");

    assert_eq!(
        outcome.recompiles, 1,
        "flap storm caused {} recompiles; damping must hold it to one",
        outcome.recompiles
    );
    assert_eq!(outcome.rollouts_committed, 1);
    let status = outcome
        .health
        .targets
        .iter()
        .find(|t| t.target == victim)
        .expect("victim watched");
    assert_eq!(
        status.state,
        HealthState::Quarantined,
        "flapper ended {:?}, expected quarantine",
        status.state
    );
    assert!(
        outcome
            .health
            .diagnostics
            .iter()
            .any(|d| d.code == Some(lyra_diag::codes::HEALTH_QUARANTINED)),
        "no LYR0583 quarantine diagnostic was raised"
    );
    assert_eq!(outcome.mixed_epoch_exposure, 0);
}

/// A slow flapper (long up phases that clear probation) is allowed to be
/// restored and re-remediated — but the cycle count stays bounded well
/// below one rollout per edge, and the loop still converges.
#[test]
fn slow_flap_restore_refail_cycles_stay_bounded() {
    let compiler = Compiler::new();
    let req = CompileRequest::new(LB, LB_SCOPES, figure1_network());
    let victim = Target::switch("Agg4");
    // Down [5,25) up [25,45) down [45,65) up [65,85): 3 down edges.
    let schedule = ChaosSchedule::new().flap(5, victim, 20, 3);
    let cfg = SelfHealConfig {
        ticks: 160,
        ..SelfHealConfig::default()
    };
    let outcome = run_selfheal(&compiler, &req, &[], &schedule, &cfg).expect("selfheal");

    assert!(
        outcome.converged,
        "slow flap did not converge: {:?}",
        outcome.health.targets
    );
    // Each down edge may cost a fail round and each recovery a restore
    // round, but damping/backoff must keep the total bounded.
    assert!(
        (2..=6).contains(&outcome.recompiles),
        "slow flap drove {} recompiles (expected a handful, not a storm)",
        outcome.recompiles
    );
    assert_eq!(outcome.mixed_epoch_exposure, 0);
    assert!(outcome.final_audit_clean);
}
