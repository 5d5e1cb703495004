//! Property tests for the placement lift (`lyra_synth::place::lift`) and
//! the carry-over route of `lyra_synth::synthesize` built on it.
//!
//! 1. **Round trip** — over the Figure 9 corpus × {Figure 1, pod k=4, pod
//!    k=8} × {P4, NPL targets}, every placement the solver finds (by the
//!    quotient route everywhere, by the full search on the four-switch
//!    pods) lifts to an assignment that satisfies the model it was solved
//!    on, and extracting the lifted assignment gives the placement back.
//! 2. **Faults** — over ≥ 200 seeded fault sets (a switch, a link, several
//!    elements, a direction endpoint of a narrowed scope) the prior
//!    placement restricted to the survivors satisfies the survivor
//!    encoding, and `synthesize` returns it by the carried-over
//!    route with no search.
//! 3. **Mutations** — a prior with one instruction dropped, one entry
//!    added to a shard, or one instruction on two hops of a path fails
//!    verification and still ends in a valid placement through the search.
//! 4. **The check itself** — `Solution::satisfies`, which both routes rest
//!    on, rejects an assignment that breaks one constraint family, for each
//!    node kind the encoder builds, and names exactly the constraints the
//!    break was aimed at.
//!
//! Nothing here is timed. Randomness comes from a seeded xorshift
//! generator (the workspace builds offline with no external crates), so
//! every run explores the identical case set and failures reproduce from
//! the printed case.

use lyra_apps::{figure9_corpus, programs};
use lyra_ir::{InstrId, IrProgram};
use lyra_lang::{parse_scopes, DeployMode};
use lyra_solver::{Model, SearchStats, Solution};
use lyra_synth::place::{extract, lift, lift_placement};
use lyra_synth::{encode, EncodeOptions, Placement, SolveLimits, SolveRoute, SynthResult};
use lyra_topo::{
    fat_tree_pod, figure1_network, resolve_scope, resolve_scope_degraded, scope_health, FaultSet,
    ResolvedScope, Topology,
};

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A network plus the region and direction its MULTI-SW scopes use.
struct Net {
    name: &'static str,
    topo: Topology,
    region: &'static str,
    direction: &'static str,
}

/// Figure 1's two pods (P4₁₄ and P4₁₆ ToRs under NPL Aggs) and pods of
/// one language each.
fn networks() -> Vec<Net> {
    let pod = |name, k, asic, direction| Net {
        name,
        topo: fat_tree_pod(k, asic, asic),
        region: "ToR*,Agg*",
        direction,
    };
    vec![
        Net {
            name: "fig1 pod 1",
            topo: figure1_network(),
            region: "ToR1,ToR2,Agg1,Agg2",
            direction: "Agg1,Agg2->ToR1,ToR2",
        },
        Net {
            name: "fig1 pod 2",
            topo: figure1_network(),
            region: "ToR3,ToR4,Agg3,Agg4",
            direction: "Agg3,Agg4->ToR3,ToR4",
        },
        pod("k=4 P4", 4, "tofino-32q", "Agg1,Agg2->ToR1,ToR2"),
        pod("k=4 NPL", 4, "trident4", "Agg1,Agg2->ToR1,ToR2"),
        pod(
            "k=8 P4",
            8,
            "tofino-32q",
            "Agg1,Agg2,Agg3,Agg4->ToR1,ToR2,ToR3,ToR4",
        ),
        pod(
            "k=8 NPL",
            8,
            "trident4",
            "Agg1,Agg2,Agg3,Agg4->ToR1,ToR2,ToR3,ToR4",
        ),
    ]
}

/// One MULTI-SW scope line per algorithm the corpus entry scopes.
fn multi_scopes(entry_scopes: &str, net: &Net) -> String {
    parse_scopes(entry_scopes)
        .expect("corpus scopes parse")
        .iter()
        .map(|s| {
            format!(
                "{}: [ {} | MULTI-SW | ({}) ]\n",
                s.algorithm, net.region, net.direction
            )
        })
        .collect()
}

/// Resolve `scopes` on `topo`, leniently (dead direction endpoints are
/// dropped) as the failover driver does.
fn resolve(topo: &Topology, scopes: &str) -> Vec<ResolvedScope> {
    parse_scopes(scopes)
        .unwrap()
        .iter()
        .map(|s| resolve_scope_degraded(topo, s).unwrap())
        .collect()
}

/// `lyra_synth::synthesize` with no limits; `quotient` opens the quotient
/// route to cold compiles.
fn synthesize(
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    previous: Option<&Placement>,
    quotient: bool,
) -> (SynthResult, SolveRoute) {
    let opts = EncodeOptions {
        monolithic: !quotient,
        ..EncodeOptions::default()
    };
    lyra_synth::synthesize(ir, topo, scopes, &opts, previous, &SolveLimits::default())
        .unwrap_or_else(|e| panic!("placement must be feasible: {e}"))
}

/// The lifted placement satisfies the model it belongs to, and extracts
/// back to itself.
fn assert_round_trip(res: &SynthResult, ir: &IrProgram, topo: &Topology, case: &str) {
    let lifted = lift_placement(&res.encoded, topo, &res.placement);
    assert!(
        lifted.satisfies(&res.encoded.model),
        "{case}: lift(extract(sol)) violates the model"
    );
    assert_eq!(
        extract(&res.encoded, ir, topo, &lifted),
        res.placement,
        "{case}: extract(lift(p)) != p"
    );
}

/// Compile the corpus cold on every network with at most `max_switches`
/// in scope and check the round trip on each placement found.
fn corpus_round_trips(quotient: bool, expect: SolveRoute, max_switches: usize) {
    for entry in figure9_corpus() {
        let ir = lyra_ir::frontend(&entry.source).unwrap();
        for net in networks() {
            let scopes = resolve(&net.topo, &multi_scopes(&entry.scopes, &net));
            if scopes.iter().any(|s| s.switches.len() > max_switches) {
                continue;
            }
            let case = format!("{} on {}, {expect} route", entry.name, net.name);
            let (res, route) = synthesize(&ir, &net.topo, &scopes, None, quotient);
            assert_eq!(route, expect, "{case}");
            assert!(res.placement.used_switches() > 0, "{case}: empty placement");
            assert_round_trip(&res, &ir, &net.topo, &case);
        }
    }
}

/// The representatives' solution, replicated through the lift: every one
/// of these pods has interchangeable switches.
#[test]
fn quotient_placements_lift_and_extract_back() {
    corpus_round_trips(true, SolveRoute::Quotient, 8);
}

/// The full search's own solution, on the four-switch pods.
#[test]
fn searched_placements_lift_and_extract_back() {
    corpus_round_trips(false, SolveRoute::Monolithic, 4);
}

/// What a fault scenario kills.
#[derive(Debug, Clone, Copy)]
enum FaultKind {
    Switch,
    Link,
    Several,
    /// A switch the scope's direction names, where not every switch is
    /// an endpoint.
    Endpoint,
}

/// A healthy compile the fault scenarios degrade.
struct Prior {
    case: String,
    ir: IrProgram,
    topo: Topology,
    scopes: String,
    endpoints: Vec<&'static str>,
    placement: Placement,
}

/// The first `n` of the six healthy compiles the fault and mutation
/// scenarios start from.
fn priors(n: usize) -> Vec<Prior> {
    let corpus = figure9_corpus();
    let program = |name: &str| {
        corpus
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("corpus has no {name}"))
    };
    let nets = networks();
    let net = |name: &str| nets.iter().find(|n| n.name == name).unwrap();
    // Pod k=8 with three of four Aggs and ToRs as direction endpoints:
    // paths also run through the fourth of each.
    let narrowed = Net {
        name: "k=8 mixed, narrowed direction",
        topo: fat_tree_pod(8, "tofino-32q", "trident4"),
        region: "ToR*,Agg*",
        direction: "Agg1,Agg2,Agg3->ToR1,ToR2,ToR3",
    };
    let mixed = Net {
        name: "k=4 mixed",
        topo: fat_tree_pod(4, "tofino-32q", "trident4"),
        region: "ToR*,Agg*",
        direction: "Agg1,Agg2->ToR1,ToR2",
    };
    [
        ("NetCache", net("fig1 pod 2")),
        ("NetChain", &mixed),
        ("simple_router", &narrowed),
        ("NetCache", &narrowed),
        ("flowlet_switching", net("k=8 P4")),
        ("Ingress INT", net("k=8 NPL")),
    ]
    .into_iter()
    .take(n)
    .map(|(name, net)| {
        let entry = program(name);
        let ir = lyra_ir::frontend(&entry.source).unwrap();
        let scopes = multi_scopes(&entry.scopes, net);
        let resolved = resolve(&net.topo, &scopes);
        let (res, _) = synthesize(&ir, &net.topo, &resolved, None, true);
        let (from, to) = net.direction.split_once("->").unwrap();
        Prior {
            case: format!("{name} on {}", net.name),
            ir,
            topo: net.topo.clone(),
            scopes,
            endpoints: from.split(',').chain(to.split(',')).collect(),
            placement: res.placement,
        }
    })
    .collect()
}

/// Draw a fault set of `kind` over the scope region of `prior`, retrying
/// until every scope survives it.
fn survivable_faults(rng: &mut Rng, prior: &Prior, kind: FaultKind) -> FaultSet {
    let specs = parse_scopes(&prior.scopes).unwrap();
    let healthy: Vec<ResolvedScope> = specs
        .iter()
        .map(|s| resolve_scope(&prior.topo, s).unwrap())
        .collect();
    let region: Vec<String> = healthy[0]
        .switches
        .iter()
        .map(|&s| prior.topo.switch(s).name.clone())
        .collect();
    let links: Vec<(String, String)> = healthy[0]
        .paths
        .iter()
        .flat_map(|p| p.windows(2))
        .map(|w| {
            (
                prior.topo.switch(w[0]).name.clone(),
                prior.topo.switch(w[1]).name.clone(),
            )
        })
        .collect();
    let switch = |rng: &mut Rng| &region[rng.below(region.len())];
    let link = |rng: &mut Rng| &links[rng.below(links.len())];
    loop {
        let mut faults = FaultSet::new();
        match kind {
            FaultKind::Switch => faults.add_switch(switch(rng)),
            FaultKind::Endpoint => {
                faults.add_switch(prior.endpoints[rng.below(prior.endpoints.len())])
            }
            FaultKind::Link => {
                let (a, b) = link(rng);
                faults.add_link(a, b);
            }
            FaultKind::Several => {
                for _ in 0..2 + rng.below(3) {
                    if rng.below(2) == 0 {
                        faults.add_switch(switch(rng));
                    } else {
                        let (a, b) = link(rng);
                        faults.add_link(a, b);
                    }
                }
            }
        }
        if healthy
            .iter()
            .all(|s| scope_health(&prior.topo, s, &faults).survivable())
        {
            return faults;
        }
    }
}

#[test]
fn restricted_prior_verifies_on_survivors_across_240_fault_sets() {
    let priors = priors(6);
    let kinds = [
        FaultKind::Switch,
        FaultKind::Link,
        FaultKind::Several,
        FaultKind::Endpoint,
    ];
    let mut rng = Rng::new(0xca22_1e0f);
    let mut lost_code = 0usize;
    for scenario in 0..240 {
        let prior = &priors[scenario % priors.len()];
        let kind = kinds[(scenario / priors.len()) % kinds.len()];
        let faults = survivable_faults(&mut rng, prior, kind);
        let case = format!("scenario {scenario}: {} under {faults:?}", prior.case);
        let survivors = prior.topo.degrade(&faults).topology;
        let scopes = resolve(&survivors, &prior.scopes);

        // The restricted prior satisfies the survivor encoding …
        let enc = encode(&prior.ir, &survivors, &scopes, &EncodeOptions::default()).unwrap();
        let lifted = lift_placement(&enc, &survivors, &prior.placement);
        assert!(
            lifted.satisfies(&enc.model),
            "{case}: restricted prior fails"
        );

        // … so the recompile returns it unsearched.
        let (res, route) = synthesize(&prior.ir, &survivors, &scopes, Some(&prior.placement), true);
        assert_eq!(route, SolveRoute::CarriedOver, "{case}");
        assert_eq!(res.stats, SearchStats::default(), "{case}");
        assert_eq!(res.degraded, None, "{case}");
        assert_round_trip(&res, &prior.ir, &survivors, &case);
        for (name, plan) in &res.placement.switches {
            let before = &prior.placement.switches[name];
            assert_eq!(plan.instrs, before.instrs, "{case}: {name} code moved");
            assert_eq!(
                plan.extern_entries, before.extern_entries,
                "{case}: {name} re-sharded"
            );
        }
        for dead in faults.failed_switches() {
            assert!(
                !res.placement.switches.contains_key(dead),
                "{case}: placement uses dead {dead}"
            );
            lost_code += prior.placement.switches.contains_key(dead) as usize;
        }
    }
    assert!(
        lost_code >= 40,
        "only {lost_code} scenarios killed a hosting switch"
    );
}

/// The three ways a prior can stop being a placement of its own model.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    DropInstruction,
    AddEntry,
    DuplicateOnPath,
}

/// Apply `m` to `p`; `scopes` are the resolved MULTI-SW scopes on `topo`.
fn mutate(p: &mut Placement, m: Mutation, topo: &Topology, scopes: &[ResolvedScope]) {
    match m {
        Mutation::DropInstruction => {
            let instrs = p
                .switches
                .values_mut()
                .flat_map(|plan| plan.instrs.values_mut())
                .find(|is| !is.is_empty())
                .expect("some switch hosts code");
            instrs.remove(0);
        }
        Mutation::AddEntry => {
            let count = p
                .switches
                .values_mut()
                .flat_map(|plan| plan.extern_entries.values_mut())
                .next()
                .expect("some switch hosts entries");
            *count += 1;
        }
        Mutation::DuplicateOnPath => {
            // An instruction some hop of a path hosts, copied to another
            // hop of the same path.
            for scope in scopes {
                assert_eq!(scope.deploy, DeployMode::MultiSwitch);
                for path in scope.paths.iter().filter(|path| path.len() >= 2) {
                    let names: Vec<&String> = path.iter().map(|&s| &topo.switch(s).name).collect();
                    for (h, host) in names.iter().enumerate() {
                        let Some(&instr) = p
                            .switches
                            .get(*host)
                            .and_then(|plan| plan.instrs.get(&scope.algorithm))
                            .and_then(|is| is.first())
                        else {
                            continue;
                        };
                        let other = names[(h + 1) % names.len()];
                        let there = p
                            .switches
                            .entry(other.clone())
                            .or_default()
                            .instrs
                            .entry(scope.algorithm.clone())
                            .or_default();
                        assert!(!there.contains(&instr), "exactly-once per path");
                        there.push(instr);
                        return;
                    }
                }
            }
            panic!("no path hosts an instruction");
        }
    }
}

#[test]
fn mutated_priors_fail_verification_and_fall_back_to_search() {
    for prior in &priors(3) {
        let scopes = resolve(&prior.topo, &prior.scopes);
        let enc = encode(&prior.ir, &prior.topo, &scopes, &EncodeOptions::default()).unwrap();
        assert!(lift_placement(&enc, &prior.topo, &prior.placement).satisfies(&enc.model));
        for m in [
            Mutation::DropInstruction,
            Mutation::AddEntry,
            Mutation::DuplicateOnPath,
        ] {
            let case = format!("{} with {m:?}", prior.case);
            let mut mutated = prior.placement.clone();
            mutate(&mut mutated, m, &prior.topo, &scopes);
            assert_ne!(mutated, prior.placement, "{case}: mutation did not apply");
            assert!(
                !lift_placement(&enc, &prior.topo, &mutated).satisfies(&enc.model),
                "{case}: a broken prior verified"
            );
            let (res, route) = synthesize(&prior.ir, &prior.topo, &scopes, Some(&mutated), true);
            assert_eq!(route, SolveRoute::Monolithic, "{case}");
            assert_round_trip(&res, &prior.ir, &prior.topo, &case);
        }
    }
}

/// Positions of the constraints of `m` that `sol` violates.
fn violated(m: &Model, sol: &Solution) -> Vec<usize> {
    let constraints = m.constraints().iter().enumerate();
    constraints
        .filter(|&(_, &c)| !sol.eval_bx(m, c))
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn satisfies_rejects_each_violated_family() {
    let ir = lyra_ir::frontend(&programs::netcache()).unwrap();
    let topo = fat_tree_pod(4, "tofino-32q", "trident4");
    let scopes = resolve(
        &topo,
        "netcache: [ ToR*,Agg* | MULTI-SW | (Agg1,Agg2->ToR1,ToR2) ]",
    );
    let (res, _) = synthesize(&ir, &topo, &scopes, None, false);
    let (enc, m) = (&res.encoded, &res.encoded.model);
    let tor1 = topo.find("ToR1").unwrap();
    let is_tor = |s| topo.switch(s).name.starts_with("ToR");
    // The placement the mutations start from: every instruction on both
    // ToRs, all of `cache_lookup` on each.
    let placed = |alg: &str, s, i| res.placement.deploys(&topo.switch(s).name, alg, i);
    let shard = |e: &str, s| res.placement.shard_size(&topo.switch(s).name, e) as i64;
    assert!(enc
        .instr_vars()
        .all(|(a, s, i, _)| placed(a, s, i) == is_tor(s)));
    let base = lift(enc, placed, shard);
    assert!(base.satisfies(m) && violated(m, &base).is_empty());
    let paths_through = |s| scopes[0].paths.iter().filter(|p| p.contains(&s)).count();

    // A deploy flip (`implies` over `any_of`): one instruction that needs
    // only plain instructions moves to the Aggs — still once per path, but
    // now at hop 0 ahead of everything it reads, one broken dependency per
    // path and predecessor.
    let alg = ir.algorithm("netcache").unwrap();
    let deps = lyra_ir::dependency_graph(alg);
    let plain =
        |i: InstrId| alg.instr(i).op.table().is_none() && alg.instr(i).op.global().is_none();
    let (mover, preds) = alg
        .instr_ids()
        .filter(|&b| plain(b) && deps.pred_list(b).iter().all(|&a| plain(a)))
        .map(|b| (b, deps.pred_list(b).len()))
        .find(|&(_, n)| n > 0)
        .expect("an instruction reading only plain instructions");
    let moved = lift(
        enc,
        |a, s, i| {
            if i == mover {
                !is_tor(s)
            } else {
                placed(a, s, i)
            }
        },
        shard,
    );
    assert!(!moved.satisfies(m));
    assert_eq!(violated(m, &moved).len(), scopes[0].paths.len() * preds);

    // A `used` mismatch (`iff`): exactly its one definition breaks.
    let mut bools: Vec<bool> = m.bool_decls().map(|(b, _)| base.bool(b)).collect();
    bools[enc.switch_used[&tor1].index()] = false;
    let ints = m.int_decls().map(|(x, _)| base.int(x)).collect();
    let unused = Solution::from_parts(bools, ints);
    assert!(!unused.satisfies(m));
    assert_eq!(violated(m, &unused).len(), 1);

    // An entries sum off by one (a linear `=`): every path through ToR1
    // now holds one entry too few, in the sum each lookup of the extern
    // states. The block count is unchanged.
    let short = lift(enc, placed, |e, s| shard(e, s) - (s == tor1) as i64);
    assert!(!short.satisfies(m));
    let short_broken = violated(m, &short);
    let lookups = alg.instrs.iter().filter(|i| i.op.table().is_some()).count();
    assert_eq!(short_broken.len(), paths_through(tor1) * lookups);

    // An over-budget block count (a sum of `ite` over `ceil_div`): entries
    // far past the chip's memory (and past the variable's own range, the
    // only way to outgrow a chip that holds the whole program) break the
    // same path sums and, besides them, exactly ToR1's memory budget.
    let huge = lift(
        enc,
        placed,
        |e, s| if s == tor1 { 1 << 40 } else { shard(e, s) },
    );
    assert!(!huge.satisfies(m));
    let huge_broken = violated(m, &huge);
    assert!(short_broken.iter().all(|c| huge_broken.contains(c)));
    assert_eq!(huge_broken.len(), short_broken.len() + 1);
}
