//! The solver's search path on the benchmark's `compile_tight` encodings,
//! pinned; and what a spent decision budget means under an objective.
//!
//! `lyra-solver`'s own differential suite compares event-driven linear
//! propagation with a full-sweep reference that exists only under its
//! `cfg(test)`, so it cannot be pointed at encodings this crate builds.
//! These six are checked against recorded counts. The three `Feasible`
//! rows are the counts the full-sweep solver produced on them, recorded at
//! the commit before the schedule changed. The three `MinSwitches` rows
//! were re-recorded when a minimization became one search that tightens
//! its bound in place (the differential suite covers that search too). The
//! search is deterministic, so any difference is a changed search path:
//! decisions, propagations, conflicts and learned clauses all have to
//! agree. A change that *means* to alter the search re-records the table.
//!
//! Nothing here is timed; propagation cost is asserted as a visit count.

use lyra_apps::programs;
use lyra_solver::{Outcome, SearchStats};
use lyra_synth::backend::{solve_with_limits, SolveLimits};
use lyra_synth::{encode, Backend, EncodeOptions, Encoded, Objective};
use lyra_topo::{fat_tree_pod, figure1_network, resolve_scope, Topology};

const FIG1_SCOPES: &str =
    "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";

/// MULTI-SW over a whole pod, traffic entering at the Aggs.
fn pod_scopes(alg: &str, k: usize) -> String {
    let names = |p: &str| {
        (1..=k / 2)
            .map(|i| format!("{p}{i}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{alg}: [ ToR*,Agg* | MULTI-SW | ({}->{}) ]",
        names("Agg"),
        names("ToR")
    )
}

fn pod(k: usize) -> Topology {
    fat_tree_pod(k, "tofino-32q", "trident4")
}

fn encoded(program: &str, scopes: &str, topo: &Topology, objective: Objective) -> Encoded {
    let ast = lyra_lang::parse_program(program).expect("program parses");
    let ir = lyra_ir::frontend_ast(&ast).expect("program lowers");
    let scopes: Vec<_> = lyra_lang::parse_scopes(scopes)
        .expect("scopes parse")
        .iter()
        .map(|s| resolve_scope(topo, s).expect("scope resolves"))
        .collect();
    let opts = EncodeOptions {
        objective,
        ..EncodeOptions::default()
    };
    encode(&ir, topo, &scopes, &opts).expect("instance encodes")
}

fn solve(enc: &Encoded, limits: &SolveLimits) -> (Outcome, SearchStats) {
    solve_with_limits(
        &enc.model,
        enc.objective.as_ref(),
        &Backend::Native,
        &[],
        Default::default(),
        limits,
    )
}

fn netcache_k8(objective: Objective) -> Encoded {
    encoded(
        &programs::netcache(),
        &pod_scopes("netcache", 8),
        &pod(8),
        objective,
    )
}

/// One `compile_tight` instance and its recorded counts, as `[decisions,
/// propagations, conflicts, learned]`.
struct Pinned {
    name: &'static str,
    program: String,
    scopes: String,
    topo: Topology,
    objective: Objective,
    sat: bool,
    counts: [u64; 4],
}

fn lb_pod(
    name: &'static str,
    entries: u64,
    k: usize,
    objective: Objective,
    sat: bool,
    counts: [u64; 4],
) -> Pinned {
    Pinned {
        name,
        program: programs::load_balancer(entries),
        scopes: pod_scopes("loadbalancer", k),
        topo: pod(k),
        objective,
        sat,
        counts,
    }
}

fn compile_tight() -> Vec<Pinned> {
    use Objective::{Feasible, MinSwitches};
    vec![
        Pinned {
            name: "LB[4000000] MULTI-SW fig1",
            program: programs::load_balancer(4_000_000),
            scopes: FIG1_SCOPES.to_string(),
            topo: figure1_network(),
            objective: Feasible,
            sat: true,
            counts: [179, 1309, 74, 74],
        },
        lb_pod(
            "LB[5500000] MULTI-SW k=8",
            5_500_000,
            8,
            Feasible,
            true,
            [358, 2928, 146, 146],
        ),
        lb_pod(
            "LB[6000000] MULTI-SW k=8",
            6_000_000,
            8,
            Feasible,
            false,
            [30, 2326, 31, 30],
        ),
        lb_pod(
            "LB[3000000] MULTI-SW k=6 min-switches",
            3_000_000,
            6,
            MinSwitches,
            true,
            [213, 2798, 136, 135],
        ),
        lb_pod(
            "LB[5500000] MULTI-SW k=4 min-switches",
            5_500_000,
            4,
            MinSwitches,
            true,
            [171, 1223, 78, 77],
        ),
        Pinned {
            name: "NetCache MULTI-SW k=8 min-switches",
            program: programs::netcache(),
            scopes: pod_scopes("netcache", 8),
            topo: pod(8),
            objective: MinSwitches,
            sat: true,
            counts: [1341, 22248, 16, 15],
        },
    ]
}

#[test]
fn compile_tight_search_paths_match_the_full_sweep_solver() {
    for inst in compile_tight() {
        let enc = encoded(
            &inst.program,
            &inst.scopes,
            &inst.topo,
            inst.objective.clone(),
        );
        let (outcome, stats) = solve(&enc, &SolveLimits::default());
        let what = inst.name;
        match &outcome {
            Outcome::Sat(sol) => {
                assert!(inst.sat, "{what}: expected a refutation");
                assert!(sol.satisfies(&enc.model), "{what}: non-model");
            }
            Outcome::Unsat => assert!(!inst.sat, "{what}: expected a model"),
            Outcome::Unknown => panic!("{what}: no verdict"),
        }
        assert_eq!(
            [
                stats.decisions,
                stats.propagations,
                stats.conflicts,
                stats.learned
            ],
            inst.counts,
            "{what}: search path moved ({stats:?})"
        );
        // Creep is gone by count. The full sweep made 60 M constraint
        // visits on LB 5.5M k=4 and 114 per propagation on NetCache.
        assert!(
            stats.linear_visits <= 50_000,
            "{what}: {} linear visits",
            stats.linear_visits
        );
        if inst.name.starts_with("NetCache") {
            assert!(
                stats.linear_visits <= 2 * stats.propagations,
                "{what}: {} visits for {} propagations",
                stats.linear_visits,
                stats.propagations
            );
        }
    }
}

/// Three decisions prove nothing about NetCache on a k=8 pod, with or
/// without an objective. (The branch-and-bound loop used to report its
/// first round's `Unknown` as "no model", which the backend read as a
/// refutation unless a wall-clock deadline had also expired.)
#[test]
fn spent_decision_budget_is_unknown_with_or_without_an_objective() {
    let limits = SolveLimits {
        max_decisions: Some(3),
        ..SolveLimits::default()
    };
    for objective in [Objective::Feasible, Objective::MinSwitches] {
        let enc = netcache_k8(objective.clone());
        let (outcome, stats) = solve(&enc, &limits);
        assert_eq!(outcome, Outcome::Unknown, "{objective:?}: {stats:?}");
        // With room to search, the same encoding has a model.
        let (outcome, _) = solve(&enc, &SolveLimits::default());
        assert!(outcome.is_sat(), "{objective:?}");
    }
}
