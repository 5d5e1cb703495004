//! Scale suites for the rollout engine: delta-based prepares must make the
//! control-plane wire cost proportional to what changed, not to how many
//! entries the fleet holds, and the two-phase epoch guarantee must survive
//! chaos at entry counts the small property harnesses never reach.
//!
//! Three tiers:
//!
//! * non-ignored tests at 10³–10⁴ entries run in every `cargo test`;
//! * `#[ignore]`d tests at 10⁵–10⁶ entries run in the `rollout-scale` CI
//!   job (release build, `-- --ignored`) — a million-entry control plane
//!   in a debug build is deliberately out of the default suite;
//! * a 200-scenario lossy-channel chaos sweep asserting the all-or-nothing
//!   epoch invariant and zero entry loss under drops, duplicates and
//!   switch death.
//!
//! Reproducibility: every random choice comes from the seeded xorshift in
//! `tests/common`; failures reproduce from the printed scenario index.

mod common;

use common::{lb_program, scaled_entries, Rng, LB_SCOPES};
use lyra::{
    replay_under_rollout, CompileRequest, Compiler, LossyChannel, ReliableChannel, ReplayConfig,
    RolloutConfig, RolloutReport, Runtime,
};
use lyra_topo::{figure1_network, FaultSet};

/// Compile the scaled LB onto pod 2 of the Figure 1 network.
fn compile_lb(program: &str) -> lyra::CompileOutput {
    let compiler = Compiler::new();
    let req = CompileRequest::new(program, LB_SCOPES, figure1_network());
    compiler.compile(&req).expect("scaled LB compiles")
}

/// The `fail_switch` re-sync of one Agg3 failover: its report, and how many
/// entries the dead switch's shard held.
struct Resync {
    report: RolloutReport,
    lost: u64,
}

/// Drive an Agg3 failover at `n` entries twice — once with delta prepares,
/// once with snapshots forced — and return both rollout reports, the entry
/// churn the failover placement actually required, and the re-sync that
/// preceded the delta rollout.
fn failover_delta_vs_snapshot(
    n: usize,
    table_size: u64,
) -> (RolloutReport, RolloutReport, u64, Resync) {
    let program = lb_program(table_size);
    let compiler = Compiler::new();
    let req = CompileRequest::new(&program, LB_SCOPES, figure1_network());
    let healthy = compiler.compile(&req).expect("healthy compile");
    let mut faults = FaultSet::new();
    faults.add_switch("Agg3");
    let failover = compiler
        .recompile_for_faults(&req, &healthy, &faults)
        .expect("Agg3 failover recompile");
    let entries = scaled_entries(n, 0x5ca1e + n as u64);

    let run = |force_snapshot: bool| -> (RolloutReport, Resync) {
        let mut rt = Runtime::new(&healthy);
        let placed = rt
            .install_many("conn_table", &entries)
            .expect("bulk install");
        assert!(placed >= n as u64, "bulk install placed {placed} < {n}");
        assert_eq!(rt.logical_entries().len(), n);
        let lost = rt.installed_on("Agg3", "conn_table");
        let resync = rt
            .fail_switch_with_channel(
                "Agg3",
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .expect("live failover");
        assert!(resync.committed, "reliable re-sync must commit");
        let config = RolloutConfig::default()
            .with_scope_health(failover.scope_health.clone())
            .with_force_snapshot(force_snapshot);
        let report = rt
            .apply_rollout(&failover.output, &mut ReliableChannel::new(), &config)
            .expect("failover rollout starts");
        assert!(report.committed, "reliable failover rollout must commit");
        // Zero mixed-epoch exposure after commit: every surviving switch
        // serves the new epoch.
        assert!(rt.epochs_coherent(), "mixed epochs after commit");
        // No entry lost its last replica.
        assert_eq!(
            rt.logical_entries().len(),
            n,
            "failover lost logical entries"
        );
        (
            report,
            Resync {
                report: resync,
                lost,
            },
        )
    };

    let (delta, resync) = run(false);
    let (snapshot, _) = run(true);
    (delta, snapshot, failover.diff.entry_churn(), resync)
}

/// Staging is O(moved entries), stated as counts rather than with a
/// stopwatch: Agg4 replicates everything Agg3 held, so the re-sync hands
/// the planner at most the dead shard and the failover rollout — every
/// surviving shard kept where it is — hands it nothing.
fn assert_staging_is_o_delta(delta: &RolloutReport, resync: &Resync) {
    assert!(
        resync.report.entries_planned <= resync.lost,
        "re-sync planned {} entries, the dead shard held {}",
        resync.report.entries_planned,
        resync.lost
    );
    assert_eq!(
        delta.entries_planned, 0,
        "the failover rollout re-planned entries no path had lost"
    );
}

/// The heart of the O(delta) claim, at a size every `cargo test` runs:
/// prepare bytes for a failover scale with the entries the new placement
/// actually moved, while forced snapshots pay for the whole fleet.
#[test]
fn failover_delta_prepares_beat_snapshots_at_10k_entries() {
    let (delta, snapshot, churn, resync) = failover_delta_vs_snapshot(10_000, 16_384);
    assert_staging_is_o_delta(&delta, &resync);
    assert_eq!(delta.snapshot_prepares, 0, "unexpected snapshot fallback");
    assert!(delta.delta_prepares > 0, "no delta prepares recorded");
    assert!(
        snapshot.prepare_bytes >= 10 * delta.prepare_bytes.max(1),
        "snapshot {}B vs delta {}B: expected >= 10x",
        snapshot.prepare_bytes,
        delta.prepare_bytes
    );
    // The wire delta is bounded by the placement churn (each moved entry
    // is at most one remove plus one add, ~25 wire bytes each), plus the
    // per-switch batch-0 framing.
    let moved: u64 = delta
        .switches
        .iter()
        .map(|s| s.entries_added + s.entries_removed + s.entries_modified)
        .sum();
    assert!(
        moved <= 2 * churn + 2,
        "delta moved {moved} entries but the placement churn was only {churn}"
    );
}

/// A replicated table is stored once: after a bulk install Agg3's and
/// Agg4's shards share every page, so when Agg3 dies staging finds one
/// replica group on every surviving path and walks no key — the count form
/// of "re-syncing a replicated table costs O(pages), not O(entries)".
#[test]
fn replicated_resync_walks_no_key_at_10k_entries() {
    let out = compile_lb(&lb_program(16_384));
    let mut rt = Runtime::new(&out);
    rt.install_many("conn_table", &scaled_entries(10_000, 0x5ca1e))
        .expect("bulk install");
    let (agg3, agg4) = (
        rt.shard("Agg3", "conn_table")
            .expect("Agg3 holds a replica"),
        rt.shard("Agg4", "conn_table")
            .expect("Agg4 holds a replica"),
    );
    assert_eq!(agg3.len(), 10_000);
    assert!(agg3.same_pages(agg4), "the two replicas are stored twice");
    let resync = rt
        .fail_switch_with_channel(
            "Agg3",
            &mut ReliableChannel::new(),
            &RolloutConfig::default(),
        )
        .expect("live failover");
    assert!(resync.committed, "reliable re-sync must commit");
    assert_eq!(
        (resync.keys_walked, resync.entries_planned),
        (0, 0),
        "the re-sync of a replicated table walked keys"
    );
    assert_eq!(rt.logical_entries().len(), 10_000);
}

#[test]
fn failover_delta_prepares_beat_snapshots_at_1k_entries() {
    let (delta, snapshot, _, _) = failover_delta_vs_snapshot(1_000, 4_096);
    assert_eq!(delta.snapshot_prepares, 0);
    assert!(
        snapshot.prepare_bytes >= 10 * delta.prepare_bytes.max(1),
        "snapshot {}B vs delta {}B",
        snapshot.prepare_bytes,
        delta.prepare_bytes
    );
}

/// 10⁵ entries — first `#[ignore]`d tier, run by the `rollout-scale` CI
/// job in release mode.
#[test]
#[ignore = "scale tier: run with --release -- --ignored (rollout-scale CI job)"]
fn failover_delta_prepares_beat_snapshots_at_100k_entries() {
    let (delta, snapshot, _, _) = failover_delta_vs_snapshot(100_000, 262_144);
    assert_eq!(delta.snapshot_prepares, 0);
    assert!(
        snapshot.prepare_bytes >= 10 * delta.prepare_bytes.max(1),
        "snapshot {}B vs delta {}B",
        snapshot.prepare_bytes,
        delta.prepare_bytes
    );
}

/// The million-entry control plane (ROADMAP item 8 / §8 of the paper at
/// datacenter scale): a failover rollout over 10⁶ installed entries must
/// put only the moved entries on the wire, and stage only the moved
/// entries on the controller. With compact page storage, shard-level
/// staging and the churn-aware placement hints this runs in seconds; with
/// per-entry snapshots it would ship ~25 MB per switch per attempt.
#[test]
#[ignore = "scale tier: run with --release -- --ignored (rollout-scale CI job)"]
fn million_entry_failover_is_o_delta() {
    let n = 1_000_000;
    let (delta, snapshot, churn, resync) = failover_delta_vs_snapshot(n, 1 << 21);
    // The wall-clock guard on this tier is the CI job's hard `timeout`;
    // what is asserted is the work staging did.
    assert_staging_is_o_delta(&delta, &resync);
    assert_eq!(delta.snapshot_prepares, 0, "unexpected snapshot fallback");
    assert!(
        snapshot.prepare_bytes >= 10 * delta.prepare_bytes.max(1),
        "snapshot {}B vs delta {}B: the O(delta) floor regressed",
        snapshot.prepare_bytes,
        delta.prepare_bytes
    );
    let moved: u64 = delta
        .switches
        .iter()
        .map(|s| s.entries_added + s.entries_removed + s.entries_modified)
        .sum();
    assert!(
        moved <= 2 * churn + 2,
        "delta moved {moved} entries but the placement churn was only {churn}"
    );
    // The delta wire cost must be a rounding error against a million
    // entries: <= 1% of what the snapshot path ships.
    assert!(
        delta.prepare_bytes <= snapshot.prepare_bytes / 100,
        "delta {}B is more than 1% of snapshot {}B",
        delta.prepare_bytes,
        snapshot.prepare_bytes
    );
}

/// Live traffic replayed while a delta rollout flips a million-entry
/// deployment: not one packet may observe a mixed old/new table set.
#[test]
#[ignore = "scale tier: run with --release -- --ignored (rollout-scale CI job)"]
fn million_entry_rollout_under_traffic_has_zero_mixed_epoch_exposure() {
    let program = lb_program(1 << 21);
    let out = compile_lb(&program);
    let entries = scaled_entries(1_000_000, 0x1_000_000);
    let mut rt = Runtime::new(&out);
    rt.install_many("conn_table", &entries)
        .expect("bulk install");
    let mut chan = LossyChannel::new(0xd1ce).with_drop_p(0.1).with_dup_p(0.05);
    let config = RolloutConfig::default();
    let replay_cfg = ReplayConfig::default().with_packets(20_000).with_workers(2);
    let outcome = replay_under_rollout(&mut rt, &out, &mut chan, &config, &replay_cfg)
        .expect("rollout starts");
    assert_eq!(
        outcome.replay.mixed_epoch_exposure, 0,
        "mixed-epoch packets observed at scale"
    );
    assert!(
        outcome.rollout.committed || outcome.rollout.rolled_back,
        "rollout neither committed nor rolled back"
    );
}

/// Zero mixed-epoch exposure under live traffic at a size every
/// `cargo test` runs, across a handful of seeded lossy channels.
#[test]
fn lossy_delta_rollouts_under_traffic_never_expose_mixed_epochs() {
    let program = lb_program(4_096);
    let out = compile_lb(&program);
    let entries = scaled_entries(1_000, 0xbeef);
    for seed in [3u64, 17, 0x5eed] {
        let mut rt = Runtime::new(&out);
        rt.install_many("conn_table", &entries)
            .expect("bulk install");
        let mut chan = LossyChannel::new(seed)
            .with_drop_p(0.15)
            .with_ack_loss_p(0.1)
            .with_dup_p(0.1);
        let config = RolloutConfig::default();
        let replay_cfg = ReplayConfig::default().with_packets(4_000).with_workers(2);
        let outcome = replay_under_rollout(&mut rt, &out, &mut chan, &config, &replay_cfg)
            .expect("rollout starts");
        assert_eq!(
            outcome.replay.mixed_epoch_exposure, 0,
            "seed {seed}: mixed-epoch packets observed"
        );
    }
}

/// 200 seeded chaos scenarios: random lossy channels, random fault kind
/// (switch death, link cut, or a plain re-rollout with snapshots forced
/// at random), at 10³ entries. Invariants per scenario, commit or not:
///
/// * the epoch set stays coherent — all-or-nothing, zero mixed-epoch
///   exposure;
/// * no logical entry loses its last replica;
/// * a rolled-back attempt leaves the serving epoch untouched.
#[test]
fn chaos_200_scenarios_epochs_stay_coherent_and_no_entry_is_lost() {
    let program = lb_program(4_096);
    let out = compile_lb(&program);
    let entries = scaled_entries(1_000, 0xc4a05);
    let victims = ["Agg3", "Agg4", "ToR3", "ToR4"];
    let links = [
        ("Agg3", "ToR3"),
        ("Agg3", "ToR4"),
        ("Agg4", "ToR3"),
        ("Agg4", "ToR4"),
    ];
    let mut rng = Rng::new(0x5ca1ab1e);
    let mut committed = 0usize;
    let mut rolled_back = 0usize;
    for scenario in 0..200 {
        let mut rt = Runtime::new(&out);
        rt.install_many("conn_table", &entries)
            .unwrap_or_else(|e| panic!("scenario {scenario}: bulk install: {e}"));
        let before = rt.logical_entries().len();
        let epoch_before = rt.epoch();
        let mut chan = LossyChannel::new(1 + rng.next())
            .with_drop_p(0.05 * rng.below(7) as f64)
            .with_ack_loss_p(0.05 * rng.below(4) as f64)
            .with_dup_p(0.05 * rng.below(3) as f64);
        if scenario % 5 == 0 {
            chan = chan
                .with_switch_death(victims[rng.below(4) as usize].to_string(), 1 + rng.below(3));
        }
        // An unused draw: it keeps every later draw of the scenario stream,
        // and so every scenario, where it is.
        rng.next();
        let config = RolloutConfig::default().with_force_snapshot(rng.below(4) == 0);
        let report = match rng.below(3) {
            0 => rt
                .fail_switch_with_channel(victims[rng.below(4) as usize], &mut chan, &config)
                .unwrap_or_else(|e| panic!("scenario {scenario}: fail_switch: {e}")),
            1 => {
                let (a, b) = links[rng.below(4) as usize];
                rt.fail_link_with_channel(a, b, &mut chan, &config)
                    .unwrap_or_else(|e| panic!("scenario {scenario}: fail_link: {e}"))
            }
            _ => rt
                .apply_rollout(&out, &mut chan, &config)
                .unwrap_or_else(|e| panic!("scenario {scenario}: rollout: {e}")),
        };
        // All-or-nothing: whatever happened on the wire, the surviving
        // fleet serves exactly one epoch.
        assert!(
            rt.epochs_coherent(),
            "scenario {scenario}: mixed epochs after {report:?}"
        );
        if report.committed {
            committed += 1;
        } else if report.rolled_back {
            rolled_back += 1;
            assert_eq!(
                rt.epoch(),
                epoch_before,
                "scenario {scenario}: rollback moved the serving epoch"
            );
        }
        // No logical entry may lose its last replica: single-element
        // failures in this scope always leave one holder of each pair.
        assert_eq!(
            rt.logical_entries().len(),
            before,
            "scenario {scenario}: logical entries lost"
        );
    }
    // The sweep must actually exercise both outcomes.
    assert!(committed >= 50, "only {committed}/200 scenarios committed");
    assert!(
        rolled_back >= 5,
        "only {rolled_back}/200 scenarios rolled back — chaos too gentle"
    );
}
