//! The solver sees the same problem: fingerprints of what `encode` hands
//! the solver, recorded at the commit before the encoder was rebuilt over
//! a dense per-scope index (PR 23) and held through every step of it.
//!
//! A fingerprint is FNV-1a over every bool / int declaration (name and
//! bounds, in creation order), the flattened model (clauses, atoms and
//! integer bounds, in order) and the flattened objective. Tree shape
//! inside a constraint is free to change where `flatten` cannot tell;
//! variable order, names, bounds, constraint order and every clause and
//! atom row are not. A change that *means* to alter the encoding
//! re-records the table (and re-pins `search_path.rs`).

use std::fmt::Write;

use lyra_apps::programs;
use lyra_solver::flatten::flatten_with_objective;
use lyra_synth::{encode, EncodeOptions, Encoded, Objective};
use lyra_topo::{
    fat_tree_pod, figure1_network, resolve_scope, resolve_scope_degraded, FaultSet, Layer, Topology,
};

/// FNV-1a, fed through `fmt::Write` so a model is hashed as it is
/// formatted instead of being rendered into one large string first.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn fingerprint(enc: &Encoded) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (_, d) in enc.model.bool_decls() {
        writeln!(h, "b {}", d.name).unwrap();
    }
    for (_, d) in enc.model.int_decls() {
        writeln!(h, "i {} {} {}", d.name, d.lo, d.hi).unwrap();
    }
    let flat = flatten_with_objective(&enc.model, enc.objective.as_ref());
    writeln!(
        h,
        "{} {} {}",
        flat.num_model_bools, flat.num_model_ints, flat.num_sat_vars
    )
    .unwrap();
    writeln!(h, "{:?}", flat.int_bounds).unwrap();
    writeln!(h, "{:?}", flat.clauses).unwrap();
    writeln!(h, "{:?}", flat.atoms).unwrap();
    writeln!(h, "{:?} {}", flat.objective, flat.objective_constant).unwrap();
    h.0
}

fn pod(k: usize) -> Topology {
    fat_tree_pod(k, "tofino-32q", "trident4")
}

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

fn one_switch(asic: &str) -> Topology {
    let mut topo = Topology::new();
    topo.add_switch("ToR1", Layer::ToR, asic);
    topo
}

fn encoded(program: &str, scopes: &str, topo: &Topology, opts: &EncodeOptions) -> Encoded {
    let ir = lyra_ir::frontend(program).expect("program lowers");
    let scopes: Vec<_> = lyra_lang::parse_scopes(scopes)
        .expect("scopes parse")
        .iter()
        .map(|s| resolve_scope_degraded(topo, s).expect("scope resolves"))
        .collect();
    encode(&ir, topo, &scopes, opts).expect("instance encodes")
}

const FIG1_SCOPES: &str =
    "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";

/// Five algorithms, PER-SW and MULTI-SW mixed, in an order that is not
/// the algorithms' name order; several share a switch.
const CHAIN_SCOPES: &str = "\
    classifier: [ ToR3,ToR4 | PER-SW | - ]\n\
    firewall: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]\n\
    gateway: [ Agg* | PER-SW | - ]\n\
    chain_lb: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (ToR3,ToR4->Agg3,Agg4) ]\n\
    scheduler: [ ToR1 | PER-SW | - ]";

/// Every pinned instance: name, fingerprint at the parent of PR 23.
fn instances() -> Vec<(&'static str, u64, Encoded)> {
    let plain = EncodeOptions::default();
    let min_switches = EncodeOptions {
        objective: Objective::MinSwitches,
        ..EncodeOptions::default()
    };
    let detailed = EncodeOptions {
        allow_recirculation: true,
        stage_detail: true,
        ..EncodeOptions::default()
    };
    let lb = programs::load_balancer(1_000_000);
    let lb_4m = programs::load_balancer(4_000_000);
    let nc = programs::netcache();
    let sw = programs::switch_program();
    let sw_scopes = programs::switch_scopes("ToR1");
    let without_agg3 = figure1_network()
        .degrade(&FaultSet::new().with_switch("Agg3"))
        .topology;
    let chain = programs::service_chain();
    let max_use = EncodeOptions {
        objective: Objective::MaxUseOf("Agg3".to_string()),
        ..EncodeOptions::default()
    };
    let multi = |prog: &str, alg: &str, k: usize, opts: &EncodeOptions| {
        encoded(prog, &pod_scopes(alg, k), &pod(k), opts)
    };
    vec![
        (
            "LB MULTI-SW k=4",
            0x71ab_e416_24bc_02ee,
            multi(&lb, "loadbalancer", 4, &plain),
        ),
        (
            "LB MULTI-SW k=8",
            0x401e_21f3_905c_593e,
            multi(&lb, "loadbalancer", 8, &plain),
        ),
        (
            "NetCache MULTI-SW k=4",
            0x594f_afb3_bc66_b2e6,
            multi(&nc, "netcache", 4, &plain),
        ),
        (
            "NetCache MULTI-SW k=8",
            0xc78f_06a2_1c24_ec1e,
            multi(&nc, "netcache", 8, &plain),
        ),
        (
            "NetCache PER-SW ToR1",
            0xc37f_6677_17ef_12cd,
            encoded(&nc, "netcache: [ ToR1 | PER-SW | - ]", &pod(4), &plain),
        ),
        (
            "NetCache PER-SW Agg1",
            0x36d6_e8b7_144a_2306,
            encoded(&nc, "netcache: [ Agg1 | PER-SW | - ]", &pod(4), &plain),
        ),
        (
            "LB[4M] fig1",
            0x13c2_d792_ecc0_8b84,
            encoded(&lb_4m, FIG1_SCOPES, &figure1_network(), &plain),
        ),
        (
            "LB[4M] fig1 without Agg3",
            0x1cd7_126a_70a5_70d6,
            encoded(&lb_4m, FIG1_SCOPES, &without_agg3, &plain),
        ),
        (
            "NetCache MULTI-SW k=8 min-switches",
            0xe272_fed3_e148_d2bc,
            multi(&nc, "netcache", 8, &min_switches),
        ),
        (
            "switch PER-SW tofino-32q",
            0x43c8_ba56_765e_f3b4,
            encoded(&sw, &sw_scopes, &one_switch("tofino-32q"), &plain),
        ),
        (
            "switch PER-SW trident4",
            0x9404_50b7_8a41_6dfa,
            encoded(&sw, &sw_scopes, &one_switch("trident4"), &plain),
        ),
        (
            "service chain, five mixed scopes on fig1, max-use-of Agg3",
            0x10f0_ab37_33f4_545d,
            encoded(&chain, CHAIN_SCOPES, &figure1_network(), &max_use),
        ),
        (
            "NetCache PER-SW stage-detail + recirculation",
            0x0a66_f661_2aaf_28f7,
            encoded(
                &nc,
                "netcache: [ ToR1 | PER-SW | - ]",
                &one_switch("tofino-32q"),
                &detailed,
            ),
        ),
    ]
}

#[test]
fn the_solver_sees_the_same_problem() {
    let mut moved = Vec::new();
    for (name, want, enc) in instances() {
        let got = fingerprint(&enc);
        if got != want {
            moved.push(format!("{name}: 0x{got:016x} (pinned 0x{want:016x})"));
        }
    }
    assert!(
        moved.is_empty(),
        "encodings changed:\n  {}",
        moved.join("\n  ")
    );
}

#[test]
fn a_strict_scope_resolves_like_a_degraded_one_on_a_healthy_network() {
    // `encoded` resolves leniently so the Agg3-less instance can share it;
    // on a healthy topology that must be the strict resolution.
    let topo = figure1_network();
    for spec in lyra_lang::parse_scopes(FIG1_SCOPES).unwrap() {
        assert_eq!(
            resolve_scope(&topo, &spec).unwrap(),
            resolve_scope_degraded(&topo, &spec).unwrap()
        );
    }
}
