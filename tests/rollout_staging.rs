//! Differential suite for shard-level rollout staging.
//!
//! `apply_rollout`, `fail_switch` and `fail_link` stage the next epoch from
//! the shards the switches already serve: a shard the new placement can
//! still hold is kept as it is, and only entries some surviving flow path
//! lost sight of go back through the first-fit planner. The reference is
//! the planner staging used to be — `common::replan_from_scratch`, every
//! logical entry placed one at a time into an empty deployment. The two
//! may lay entries out differently; they must agree on everything the
//! control plane promises:
//!
//! * every logical entry is on a holder of every surviving flow path;
//! * no shard exceeds its capacity, no switch holds a table the placement
//!   does not host there;
//! * the logical view is what it was before the operation — committed or
//!   rolled back — and equals the reference's;
//! * a switch whose rollout delta is empty still shares every page with
//!   the state it served before (staging did not rebuild it).
//!
//! 252 seeded cases over the Figure 1 pod and a k=4 fat-tree pod. Shard
//! capacities are set by editing compiled placements, so that splits,
//! shrinks and moves happen at tens of entries, not millions; the failover
//! cases use the compiler's own failover placements untouched.
//!
//! Reproducibility: every choice comes from the seeded xorshift in
//! `tests/common`; a failure names its pod, kind and seed.

mod common;

use std::collections::BTreeMap;

use common::{
    assert_layout_sound, lb_program, replan_from_scratch, scaled_entries, Rng, LB_SCOPES,
};
use lyra::{
    CompileOutput, CompileRequest, Compiler, DriftOp, FaultRecompile, LossyChannel, PlacementDiff,
    ReliableChannel, RolloutConfig, RolloutReport, Runtime, RuntimeError,
};
use lyra_diag::codes;
use lyra_ir::ExternTable;
use lyra_topo::{fat_tree_pod, figure1_network, FaultSet, Topology};

const TABLE: &str = "conn_table";
/// Declared `conn_table` size of every compile; shapes then re-deal the
/// per-switch capacities.
const DECLARED: u64 = 64;

/// One two-layer pod: every upper switch links to every lower one, and the
/// flow paths are all `[upper, lower]` pairs.
struct Pod {
    name: &'static str,
    uppers: [&'static str; 2],
    lowers: [&'static str; 2],
    scopes: &'static str,
    topology: fn() -> Topology,
}

impl Pod {
    fn switches(&self) -> Vec<&'static str> {
        self.uppers.iter().chain(&self.lowers).copied().collect()
    }
}

const PODS: [Pod; 2] = [
    Pod {
        name: "figure1",
        uppers: ["Agg3", "Agg4"],
        lowers: ["ToR3", "ToR4"],
        scopes: "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
        topology: figure1_network,
    },
    Pod {
        name: "pod-k4",
        uppers: ["Agg1", "Agg2"],
        lowers: ["ToR1", "ToR2"],
        scopes: "loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg1,Agg2->ToR1,ToR2) ]",
        topology: || fat_tree_pod(4, "tofino-32q", "trident4"),
    },
];

/// Per-layer shard capacities `(upper, lower)`; `None` = the layer hosts no
/// shard of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Shape {
    /// Every switch can hold the whole table.
    Wide,
    /// The table only fits split along a path.
    Split,
    /// Uppers shrunk below what `Wide` and `Split` layouts put on them.
    Tight,
    UpperOnly,
    LowerOnly,
    /// A path holds 8 entries in all.
    TooSmall,
}

impl Shape {
    const ALL: [Shape; 6] = [
        Shape::Wide,
        Shape::Split,
        Shape::Tight,
        Shape::UpperOnly,
        Shape::LowerOnly,
        Shape::TooSmall,
    ];

    fn capacities(self) -> (Option<u64>, Option<u64>) {
        match self {
            Shape::Wide => (Some(64), Some(64)),
            Shape::Split => (Some(24), Some(24)),
            Shape::Tight => (Some(8), Some(48)),
            Shape::UpperOnly => (Some(64), None),
            Shape::LowerOnly => (None, Some(64)),
            Shape::TooSmall => (Some(4), Some(4)),
        }
    }
}

fn request<'p>(pod: &Pod, program: &'p str) -> CompileRequest<'p> {
    CompileRequest::new(program, pod.scopes, (pod.topology)())
}

/// The pod's compiled LB placement with its shard capacities re-dealt.
fn shaped(pod: &Pod, program: &str, shape: Shape) -> CompileOutput {
    let mut out = Compiler::new()
        .compile(&request(pod, program))
        .expect("LB compiles");
    let (upper, lower) = shape.capacities();
    for (layer, capacity) in [(pod.uppers, upper), (pod.lowers, lower)] {
        for sw in layer {
            match capacity {
                Some(c) => {
                    let plan = out.placement.switches.entry(sw.to_string()).or_default();
                    plan.extern_entries.insert(TABLE.to_string(), c);
                }
                None => {
                    if let Some(plan) = out.placement.switches.get_mut(sw) {
                        plan.extern_entries.remove(TABLE);
                    }
                }
            }
        }
    }
    out
}

/// Everything compiled once per pod: the shaped placements, and the
/// compiler's own healthy placement with its failover per victim.
struct Fixtures {
    shapes: BTreeMap<Shape, CompileOutput>,
    healthy: CompileOutput,
    failovers: BTreeMap<&'static str, FaultRecompile>,
}

fn fixtures(pod: &Pod) -> Fixtures {
    let program = lb_program(DECLARED);
    let compiler = Compiler::new();
    let req = request(pod, &program);
    let healthy = compiler.compile(&req).expect("LB compiles");
    let failovers = pod
        .switches()
        .into_iter()
        .filter_map(|victim| {
            let faults = FaultSet::new().with_switch(victim);
            let r = compiler
                .recompile_for_faults(&req, &healthy, &faults)
                .ok()?;
            Some((victim, r))
        })
        .collect();
    Fixtures {
        shapes: Shape::ALL
            .iter()
            .map(|&s| (s, shaped(pod, &program, s)))
            .collect(),
        healthy,
        failovers,
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Replicated,
    CapacitySplit,
    ValueDivergent,
    Shrink,
    Moved,
    SwitchFailure,
    LinkFailure,
    AllPathsGone,
    CompiledFailover,
}

const KINDS: [Kind; 9] = [
    Kind::Replicated,
    Kind::CapacitySplit,
    Kind::ValueDivergent,
    Kind::Shrink,
    Kind::Moved,
    Kind::SwitchFailure,
    Kind::LinkFailure,
    Kind::AllPathsGone,
    Kind::CompiledFailover,
];
const SEEDS_PER_KIND: u64 = 14;

fn pick<T: Copy>(rng: &mut Rng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

/// A switch's shard of the table, cloned (the clone shares its pages).
fn shards(rt: &Runtime<'_>, switches: &[&'static str]) -> BTreeMap<&'static str, ExternTable> {
    switches
        .iter()
        .map(|&sw| (sw, rt.shard(sw, TABLE).cloned().unwrap_or_default()))
        .collect()
}

fn moved(report: &RolloutReport) -> u64 {
    report
        .switches
        .iter()
        .map(|s| s.entries_added + s.entries_removed + s.entries_modified)
        .sum()
}

/// What one case did to its deployment, for the checks that follow.
struct Outcome<'a> {
    /// The placement the deployment should serve if the operation commits.
    to: &'a CompileOutput,
    result: Result<RolloutReport, RuntimeError>,
    /// Entries the operation may legitimately move beyond the placement's
    /// own churn: what died with a switch, what drifted.
    disturbed: u64,
    /// The layout was clean and the operation took no coverage away: the
    /// planner must see no entry and no switch may change.
    expect_untouched: bool,
}

fn reliable<'a>(
    rt: &mut Runtime<'a>,
    to: &'a CompileOutput,
) -> Result<RolloutReport, RuntimeError> {
    rt.apply_rollout(to, &mut ReliableChannel::new(), &RolloutConfig::default())
}

/// How one case ended, for the sweep's own coverage floors.
enum Ended {
    /// Staging and the reference both refused (`LYR0560`).
    Refused,
    RolledBack,
    Committed {
        planned: u64,
        moved: u64,
    },
}

fn run_case(pod: &Pod, fx: &Fixtures, kind: Kind, seed: u64) -> Ended {
    let what = format!("{} {kind:?} seed {seed}", pod.name);
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9) ^ 0x5746);
    let switches = pod.switches();
    let shape = |s: Shape| &fx.shapes[&s];
    let links: Vec<(&str, &str)> = pod
        .uppers
        .iter()
        .flat_map(|&u| pod.lowers.iter().map(move |&l| (u, l)))
        .collect();

    // The serving placement and how many entries it starts with.
    let (from, n): (&CompileOutput, u64) = match kind {
        Kind::Replicated => (
            shape(pick(&mut rng, &[Shape::Wide, Shape::UpperOnly])),
            8 + rng.below(33),
        ),
        Kind::CapacitySplit => (shape(Shape::Split), 25 + rng.below(16)),
        Kind::ValueDivergent => (shape(Shape::Wide), 8 + rng.below(25)),
        Kind::Shrink => (shape(Shape::Wide), 10 + rng.below(31)),
        Kind::Moved => (
            shape(pick(&mut rng, &[Shape::UpperOnly, Shape::LowerOnly])),
            8 + rng.below(33),
        ),
        Kind::SwitchFailure | Kind::LinkFailure | Kind::AllPathsGone => (
            shape(pick(
                &mut rng,
                &[Shape::Wide, Shape::Split, Shape::UpperOnly],
            )),
            8 + rng.below(33),
        ),
        Kind::CompiledFailover => (&fx.healthy, 8 + rng.below(33)),
    };
    let mut rt = Runtime::new(from);
    rt.install_many(TABLE, &scaled_entries(n as usize, seed + 1))
        .unwrap_or_else(|e| panic!("{what}: seeding: {e}"));
    assert_layout_sound(&rt, &switches, &format!("{what} (seeded)"));

    // A replica of some key, picked among what the switches hold now.
    let replica = |rt: &Runtime<'_>, rng: &mut Rng, among: &[&'static str]| {
        let held: Vec<(&'static str, u64)> = among
            .iter()
            .flat_map(|&sw| {
                let keys = rt.shard(sw, TABLE).map(|t| t.keys().collect::<Vec<_>>());
                keys.unwrap_or_default().into_iter().map(move |k| (sw, k))
            })
            .collect();
        (!held.is_empty()).then(|| pick(rng, &held))
    };

    let logical_before;
    let shards_before;
    let snapshot = |rt: &Runtime<'_>| (rt.logical_entries(), shards(rt, &switches));
    let outcome: Outcome<'_> = match kind {
        Kind::Replicated | Kind::CapacitySplit => {
            let to = match kind {
                Kind::CapacitySplit if rng.below(2) == 0 => shape(Shape::Wide),
                _ => from,
            };
            (logical_before, shards_before) = snapshot(&rt);
            // One case in four dies mid-commit and must roll back.
            let result = if rng.below(4) == 0 {
                let victim = pick(&mut rng, &switches);
                let mut chan = LossyChannel::new(seed + 3).with_switch_death(victim, 1);
                let config = RolloutConfig {
                    max_attempts: 3,
                    ..Default::default()
                };
                rt.apply_rollout(to, &mut chan, &config)
            } else {
                reliable(&mut rt, to)
            };
            Outcome {
                to,
                result,
                disturbed: 0,
                expect_untouched: true,
            }
        }
        Kind::ValueDivergent => {
            let corrupted = 1 + rng.below(4);
            for i in 0..corrupted {
                let (sw, key) = replica(&rt, &mut rng, &switches).expect("entries are installed");
                let op = DriftOp::Corrupt {
                    table: TABLE.into(),
                    key,
                    value: 0xdead_0000 + i,
                };
                rt.inject_drift(sw, &op).expect("corrupt a held replica");
            }
            (logical_before, shards_before) = snapshot(&rt);
            let result = reliable(&mut rt, from);
            Outcome {
                to: from,
                result,
                disturbed: corrupted * switches.len() as u64,
                expect_untouched: false,
            }
        }
        Kind::Shrink => {
            let to = shape(if rng.below(3) == 0 {
                Shape::TooSmall
            } else {
                Shape::Tight
            });
            (logical_before, shards_before) = snapshot(&rt);
            let result = reliable(&mut rt, to);
            Outcome {
                to,
                result,
                disturbed: 0,
                expect_untouched: false,
            }
        }
        Kind::Moved => {
            let to = if std::ptr::eq(from, shape(Shape::UpperOnly)) {
                shape(Shape::LowerOnly)
            } else {
                shape(Shape::UpperOnly)
            };
            (logical_before, shards_before) = snapshot(&rt);
            let result = reliable(&mut rt, to);
            Outcome {
                to,
                result,
                disturbed: 0,
                expect_untouched: false,
            }
        }
        Kind::SwitchFailure => {
            let victim = pick(&mut rng, &switches);
            // Drift some replicas away first, so that the victim's shard is
            // the last copy of some entries on some path.
            let mut drifted = 0;
            for _ in 0..rng.below(5) {
                let others: Vec<&'static str> =
                    switches.iter().copied().filter(|&s| s != victim).collect();
                let Some((sw, key)) = replica(&rt, &mut rng, &others) else {
                    break;
                };
                let twin_holds =
                    |s: &&str| *s != sw && rt.shard(s, TABLE).is_some_and(|t| t.contains_key(key));
                if switches.iter().any(twin_holds) {
                    let op = DriftOp::Remove {
                        table: TABLE.into(),
                        key,
                    };
                    rt.inject_drift(sw, &op).expect("remove a held replica");
                    drifted += 1;
                }
            }
            (logical_before, shards_before) = snapshot(&rt);
            let lost = rt.installed_on(victim, TABLE);
            let result = rt.fail_switch_with_channel(
                victim,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            );
            if let Ok(report) = &result {
                assert!(
                    report.entries_planned <= lost + drifted,
                    "{what}: planned {} entries, `{victim}` held {lost} (+{drifted} drifted)",
                    report.entries_planned
                );
            }
            Outcome {
                to: from,
                result,
                disturbed: lost + drifted,
                expect_untouched: false,
            }
        }
        Kind::LinkFailure => {
            let (a, b) = pick(&mut rng, &links);
            (logical_before, shards_before) = snapshot(&rt);
            let result = rt.fail_link_with_channel(
                a,
                b,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            );
            Outcome {
                to: from,
                result,
                disturbed: 0,
                expect_untouched: true,
            }
        }
        Kind::AllPathsGone => {
            (logical_before, shards_before) = snapshot(&rt);
            let mut order = links.clone();
            let mut result = Ok(RolloutReport::default());
            let mut planned = 0;
            while !order.is_empty() && result.is_ok() {
                let (a, b) = order.swap_remove(rng.below(order.len() as u64) as usize);
                result = rt.fail_link_with_channel(
                    a,
                    b,
                    &mut ReliableChannel::new(),
                    &RolloutConfig::default(),
                );
                planned += result.as_ref().map_or(0, |r| r.entries_planned);
            }
            // With no path left every holder is its own path and must hold
            // every entry: whatever was not replicated everywhere moves.
            Outcome {
                to: from,
                result,
                disturbed: planned * switches.len() as u64,
                expect_untouched: false,
            }
        }
        Kind::CompiledFailover => {
            let victims: Vec<&'static str> = fx.failovers.keys().copied().collect();
            let victim = pick(&mut rng, &victims);
            let fo = &fx.failovers[victim];
            rt.fail_switch(victim)
                .unwrap_or_else(|e| panic!("{what}: fail_switch({victim}): {e}"));
            (logical_before, shards_before) = snapshot(&rt);
            let config = RolloutConfig::default().with_scope_health(fo.scope_health.clone());
            let result = rt.apply_rollout(&fo.output, &mut ReliableChannel::new(), &config);
            if let Ok(report) = &result {
                // The bound the 10k and million-entry failovers hold.
                let churn = fo.diff.entry_churn();
                assert!(
                    moved(report) <= 2 * churn + 2,
                    "{what}: moved {} entries, placement churn {churn}",
                    moved(report)
                );
            }
            Outcome {
                to: &fo.output,
                result,
                disturbed: 0,
                expect_untouched: false,
            }
        }
    };

    // The reference: the same entries planned from nothing onto the same
    // placement under the same faults.
    let reference = replan_from_scratch(outcome.to, rt.faults(), &logical_before);
    let report = match (&outcome.result, &reference) {
        (Ok(report), Ok(_)) => report,
        (Err(e), Err(_)) => {
            assert_eq!(
                e.code,
                Some(codes::ROLLOUT_PREPARE_FAILED),
                "{what}: staging refused with {e}"
            );
            assert!(rt.epochs_coherent(), "{what}: refused staging moved epochs");
            return Ended::Refused;
        }
        (staged, planned) => panic!(
            "{what}: staging {:?} but planning from scratch {:?}",
            staged.as_ref().map(|r| r.committed).map_err(|e| &e.message),
            planned.as_ref().map(|_| "fits").map_err(|e| &e.message),
        ),
    };
    let reference = reference.expect("matched Ok above");
    assert!(
        rt.epochs_coherent(),
        "{what}: mixed epochs after {report:?}"
    );
    assert!(
        report.committed != report.rolled_back,
        "{what}: neither committed nor rolled back: {report:?}"
    );
    assert_eq!(
        rt.logical_entries(),
        logical_before,
        "{what}: the logical view changed"
    );
    let shards_after = shards(&rt, &switches);
    if report.rolled_back {
        // Nothing happened: same placement, same pages everywhere.
        assert!(!std::ptr::eq(rt.output(), outcome.to) || std::ptr::eq(from, outcome.to));
        for sw in &switches {
            assert!(
                shards_after[sw].same_pages(&shards_before[sw]),
                "{what}: rollback left `{sw}` with different pages"
            );
        }
        return Ended::RolledBack;
    }
    assert!(
        std::ptr::eq(rt.output(), outcome.to),
        "{what}: output did not flip"
    );
    assert_layout_sound(&rt, &switches, &what);
    assert_layout_sound(&reference, &switches, &format!("{what} (reference)"));
    assert_eq!(
        rt.logical_entries(),
        reference.logical_entries(),
        "{what}: staged and from-scratch logical views differ"
    );
    // A switch whose delta is empty must not have been rebuilt.
    for s in &report.switches {
        let sw = s.switch.as_str();
        if s.entries_added + s.entries_removed + s.entries_modified == 0 {
            assert!(
                shards_after[sw].same_pages(&shards_before[sw]),
                "{what}: `{sw}` has an empty delta but no longer shares its pages"
            );
        }
    }
    let churn = PlacementDiff::between(&from.placement, &outcome.to.placement).entry_churn();
    assert!(
        moved(report) <= 2 * (churn + outcome.disturbed) + 2,
        "{what}: moved {} entries; placement churn {churn}, disturbed {}",
        moved(report),
        outcome.disturbed
    );
    if outcome.expect_untouched {
        assert_eq!(
            (report.entries_planned, moved(report)),
            (0, 0),
            "{what}: a clean layout was re-planned: {report:?}"
        );
    }
    Ended::Committed {
        planned: report.entries_planned,
        moved: moved(report),
    }
}

#[test]
fn staging_agrees_with_planning_from_scratch_on_252_seeded_layouts() {
    let (mut cases, mut refused, mut rolled_back, mut replanned, mut untouched) = (0, 0, 0, 0, 0);
    for pod in &PODS {
        let fx = fixtures(pod);
        assert!(
            !fx.failovers.is_empty(),
            "{}: no single-switch failover recompiles",
            pod.name
        );
        for kind in KINDS {
            for seed in 0..SEEDS_PER_KIND {
                match run_case(pod, &fx, kind, seed) {
                    Ended::Refused => refused += 1,
                    Ended::RolledBack => rolled_back += 1,
                    Ended::Committed {
                        planned: 0,
                        moved: 0,
                    } => untouched += 1,
                    Ended::Committed { planned, .. } => replanned += (planned > 0) as u32,
                }
                cases += 1;
            }
        }
    }
    assert!(cases >= 200, "only {cases} differential cases ran");
    // The sweep must reach every way a staging pass can end.
    println!(
        "{cases} cases: {untouched} untouched, {replanned} re-planned, \
         {rolled_back} rolled back, {refused} refused"
    );
    assert!(
        untouched >= 40,
        "only {untouched} cases left every shard alone"
    );
    assert!(
        replanned >= 40,
        "only {replanned} cases re-planned an entry"
    );
    assert!(rolled_back >= 3, "only {rolled_back} cases rolled back");
    assert!(
        refused >= 5,
        "only {refused} cases were refused for capacity"
    );
}

/// Three replicas of one table: a k = 6 pod whose three Aggs host the
/// whole table and whose ToRs host none, so every entry lands on all three.
fn three_replicas(lower_capacity: Option<u64>, agg2_capacity: u64) -> CompileOutput {
    let program = lb_program(DECLARED);
    let scopes = "loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg1,Agg2,Agg3->ToR1,ToR2,ToR3) ]";
    let topology = fat_tree_pod(6, "tofino-32q", "trident4");
    let mut out = Compiler::new()
        .compile(&CompileRequest::new(&program, scopes, topology))
        .expect("LB compiles on a k = 6 pod");
    for (sw, capacity) in [
        ("Agg1", Some(DECLARED)),
        ("Agg2", Some(agg2_capacity)),
        ("Agg3", Some(DECLARED)),
        ("ToR1", lower_capacity),
        ("ToR2", lower_capacity),
        ("ToR3", lower_capacity),
    ] {
        let plan = out.placement.switches.entry(sw.to_string()).or_default();
        match capacity {
            Some(c) => plan.extern_entries.insert(TABLE.to_string(), c),
            None => plan.extern_entries.remove(TABLE),
        };
    }
    out
}

const K6: [&str; 6] = ["Agg1", "Agg2", "Agg3", "ToR1", "ToR2", "ToR3"];

/// Replicas are one stored thing, and a drifted replica is its own group
/// even when it sits between two members of another in switch order: the
/// group `{Agg1, Agg3}` ranks at Agg1, so its value wins over Agg2's, and
/// when Agg3 dies the survivors converge on it.
#[test]
fn a_drifted_replica_between_two_group_members_loses_to_the_group() {
    let out = three_replicas(None, DECLARED);
    let mut rt = Runtime::new(&out);
    rt.install_many(TABLE, &scaled_entries(40, 0x3e91))
        .expect("seeding");
    let shard = |rt: &Runtime<'_>, sw| rt.shard(sw, TABLE).cloned().unwrap_or_default();
    assert!(shard(&rt, "Agg1").same_pages(&shard(&rt, "Agg2")));
    assert!(shard(&rt, "Agg1").same_pages(&shard(&rt, "Agg3")));
    assert_eq!(shard(&rt, "Agg1").len(), 40, "every Agg holds every entry");

    let (key, value) = shard(&rt, "Agg1")
        .iter()
        .nth(17)
        .expect("entries installed");
    let op = DriftOp::Corrupt {
        table: TABLE.into(),
        key,
        value: 0xdead,
    };
    rt.inject_drift("Agg2", &op)
        .expect("corrupt Agg2's replica");
    let logical = rt.logical_entries();
    assert!(
        logical.contains(&(TABLE.to_string(), key, value)),
        "the logical view must read the first switch's value"
    );

    let resync = rt
        .fail_switch_with_channel(
            "Agg3",
            &mut ReliableChannel::new(),
            &RolloutConfig::default(),
        )
        .expect("re-sync starts");
    assert!(resync.committed, "{resync:?}");
    assert_eq!(
        resync.entries_planned, 0,
        "both survivors still see every key"
    );
    assert_eq!(
        resync.keys_walked, 40,
        "the diverged replica is read key by key"
    );
    for sw in ["Agg1", "Agg2"] {
        assert_eq!(
            shard(&rt, sw).get(key),
            Some(value),
            "`{sw}` did not converge"
        );
    }
    assert_eq!(rt.logical_entries(), logical, "the logical view changed");
    assert_layout_sound(&rt, &K6, "three replicas, Agg3 failed");
}

/// A group member that is not kept (its new capacity is below what it
/// holds) shows no path anything: its paths lose sight of the group, and
/// the entries they need are planned again rather than skipped because a
/// replica of them was once there.
#[test]
fn a_replica_the_new_placement_shrinks_does_not_cover_its_paths() {
    let from = three_replicas(None, DECLARED);
    let to = three_replicas(Some(DECLARED), 4);
    let mut rt = Runtime::new(&from);
    rt.install_many(TABLE, &scaled_entries(30, 0x5412))
        .expect("seeding");
    let logical = rt.logical_entries();
    let report = rt
        .apply_rollout(&to, &mut ReliableChannel::new(), &RolloutConfig::default())
        .expect("rollout starts");
    assert!(report.committed, "{report:?}");
    assert_eq!(
        report.entries_planned, 30,
        "Agg2's paths lost sight of every entry"
    );
    assert_eq!(rt.logical_entries(), logical, "the logical view changed");
    assert_layout_sound(&rt, &K6, "three replicas, Agg2 shrunk");
}

/// Replicas that diverged on one page are two groups: a re-sync reads them
/// key by key and re-homes exactly the key the survivor lost.
#[test]
fn a_replica_diverged_on_one_page_takes_the_per_key_path() {
    let program = lb_program(4_096);
    let out = Compiler::new()
        .compile(&CompileRequest::new(&program, LB_SCOPES, figure1_network()))
        .expect("LB compiles");
    let mut rt = Runtime::new(&out);
    let entries = scaled_entries(2_000, 0xd1f);
    rt.install_many(TABLE, &entries).expect("seeding");
    let (key, value) = entries[1_234];
    let op = DriftOp::Remove {
        table: TABLE.into(),
        key,
    };
    rt.inject_drift("Agg4", &op)
        .expect("drop Agg4's replica of one key");
    let (agg3, agg4) = (
        rt.shard("Agg3", TABLE).expect("Agg3 holds a shard"),
        rt.shard("Agg4", TABLE).expect("Agg4 holds a shard"),
    );
    assert!(agg3.page_count() > 1 && !agg3.same_pages(agg4));
    assert_eq!(
        agg3.shared_pages(agg4),
        agg3.page_count() - 1,
        "one page diverged"
    );
    let logical = rt.logical_entries();

    let resync = rt
        .fail_switch_with_channel(
            "Agg3",
            &mut ReliableChannel::new(),
            &RolloutConfig::default(),
        )
        .expect("re-sync starts");
    assert!(resync.committed, "{resync:?}");
    assert_eq!(
        (resync.entries_planned, resync.keys_walked),
        (1, 2_000),
        "the re-sync must find the one lost key by walking both replicas"
    );
    assert_eq!(
        rt.shard("Agg4", TABLE).and_then(|t| t.get(key)),
        Some(value)
    );
    assert_eq!(rt.logical_entries(), logical, "the logical view changed");
}
