//! Property test for the encoder's index (`lyra_synth::index`): over seeded
//! (corpus program, pod size, optional failed switch) MULTI-SW problems,
//!
//! 1. every model variable is reachable through exactly one accessor
//!    (`instr_vars`, `extern_vars`, `table_vars`, `switch_used`);
//! 2. the accessors iterate in (algorithm, `SwitchId`, `InstrId`) /
//!    (extern, `SwitchId`) ascending order, and the keyed accessors agree
//!    with them;
//! 3. the placement extracted from a solved instance lifts back to an
//!    assignment that satisfies the model, and reading that assignment
//!    through the keyed accessors lifts to the same assignment.
//!
//! Randomness comes from a seeded xorshift generator, so every run explores
//! the identical case set and failures reproduce from the printed case.

use lyra_apps::{figure9_corpus, programs};
use lyra_lang::parse_scopes;
use lyra_synth::place::{lift, lift_placement};
use lyra_synth::{encode, synthesize, Backend, EncodeOptions, Encoded};
use lyra_topo::{
    fat_tree_pod, figure1_network, resolve_scope_degraded, FaultSet, ResolvedScope, Topology,
};

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
    }
}

fn resolve(topo: &Topology, scopes: &str) -> Vec<ResolvedScope> {
    parse_scopes(scopes)
        .unwrap()
        .iter()
        .map(|s| resolve_scope_degraded(topo, s).unwrap())
        .collect()
}

/// Properties 1 and 2 on one encoding.
fn check_accessors(what: &str, enc: &Encoded) {
    let mut bools = vec![0u32; enc.model.num_bools()];
    let mut ints = vec![0u32; enc.model.num_ints()];
    let instr: Vec<_> = enc.instr_vars().collect();
    let ext = enc.extern_vars();
    assert!(
        instr
            .windows(2)
            .all(|w| (w[0].0, w[0].1, w[0].2) < (w[1].0, w[1].1, w[1].2)),
        "{what}: instr_vars out of (algorithm, switch, instr) order"
    );
    assert!(
        ext.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
        "{what}: extern_vars out of (extern, switch) order"
    );
    for &(alg, s, i, v) in &instr {
        bools[v.index()] += 1;
        assert_eq!(enc.instr_var(alg, s, i), Some(v), "{what}: keyed f[{alg}]");
    }
    for &(e, s, v) in &ext {
        ints[v.index()] += 1;
        assert_eq!(enc.extern_var(e, s), Some(v), "{what}: keyed E[{e}]");
    }
    for (u, unit) in enc.units.iter().enumerate() {
        assert_eq!(enc.table_vars(u).len(), unit.group.tables.len());
        for (v, d) in enc.table_vars(u) {
            bools[v.index()] += 1;
            ints[d.index()] += 1;
        }
    }
    for used in enc.switch_used.values() {
        bools[used.index()] += 1;
    }
    assert!(bools.iter().all(|&n| n == 1), "{what}: bool coverage");
    assert!(ints.iter().all(|&n| n == 1), "{what}: int coverage");
}

#[test]
fn every_variable_has_one_accessor_and_placements_round_trip() {
    let corpus = figure9_corpus();
    let mut rng = Rng(0x1d3a_5eed);
    let opts = EncodeOptions::default();
    let mut failed_cases = 0;
    for case in 0..24 {
        // `switch` (the last entry) is PER-SW scale; the rest split well.
        let entry = &corpus[rng.below(corpus.len() - 1)];
        let k = [4, 6, 8][rng.below(3)];
        let names = |p: &str| {
            (1..=k / 2)
                .map(|i| format!("{p}{i}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let healthy = fat_tree_pod(k, "tofino-32q", "trident4");
        let fail = (rng.below(2) == 1).then(|| {
            let layer = ["Agg", "ToR"][rng.below(2)];
            format!("{layer}{}", 1 + rng.below(k / 2))
        });
        let topo = match &fail {
            Some(s) => healthy.degrade(&FaultSet::new().with_switch(s)).topology,
            None => healthy,
        };
        failed_cases += fail.is_some() as u32;
        let scopes: String = parse_scopes(&entry.scopes)
            .unwrap()
            .iter()
            .map(|s| {
                let (aggs, tors) = (names("Agg"), names("ToR"));
                format!(
                    "{}: [ ToR*,Agg* | MULTI-SW | ({aggs}->{tors}) ]\n",
                    s.algorithm
                )
            })
            .collect();
        let what = format!("case {case}: {} k={k} fail={fail:?}", entry.name);
        let ir = lyra_ir::frontend(&entry.source).unwrap();
        let scopes = resolve(&topo, &scopes);

        let res = synthesize(&ir, &topo, &scopes, &opts, &Backend::Native)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let enc = &res.encoded;
        check_accessors(&what, enc);
        let sol = lift_placement(enc, &topo, &res.placement);
        assert!(sol.satisfies(&enc.model), "{what}: lifted placement");
        let keyed = lift(
            enc,
            |alg, s, i| sol.bool(enc.instr_var(alg, s, i).unwrap()),
            |e, s| sol.int(enc.extern_var(e, s).unwrap()),
        );
        assert_eq!(
            keyed, sol,
            "{what}: keyed accessors read another assignment"
        );
    }
    assert!(failed_cases >= 6, "only {failed_cases} degraded pods");
}

#[test]
fn scopes_given_out_of_algorithm_order_are_indexed_in_it() {
    // Five algorithms, PER-SW and MULTI-SW mixed, several per switch.
    let scopes = "\
        classifier: [ ToR3,ToR4 | PER-SW | - ]\n\
        firewall: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]\n\
        gateway: [ Agg* | PER-SW | - ]\n\
        chain_lb: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (ToR3,ToR4->Agg3,Agg4) ]\n\
        scheduler: [ ToR1 | PER-SW | - ]";
    let topo = figure1_network();
    let ir = lyra_ir::frontend(&programs::service_chain()).unwrap();
    let enc = encode(
        &ir,
        &topo,
        &resolve(&topo, scopes),
        &EncodeOptions::default(),
    )
    .unwrap();
    check_accessors("service chain", &enc);
    let first = enc.instr_vars().next().expect("variables").0;
    assert_eq!(first, "chain_lb");
}
