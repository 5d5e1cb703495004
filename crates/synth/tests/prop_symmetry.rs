//! Property test for the premise of the quotient route
//! (`lyra_synth::synthesize_limited`): over seeded random MULTI-SW
//! placement problems on fat-tree pods, transposing two members of an
//! interchangeable-switch class (`lyra_topo::interchangeable_classes`)
//! maps a solution of the encoding to a solution. That closure is why a
//! per-class-uniform assignment lifted from the quotient model is
//! overwhelmingly likely to verify against the full one.
//!
//! Randomness comes from a seeded xorshift generator (the workspace builds
//! offline with no external crates), so every run explores the identical
//! case set and failures reproduce from the printed case index.

use lyra_synth::backend::{solve, Backend};
use lyra_synth::place::lift;
use lyra_synth::{encode, EncodeOptions};
use lyra_topo::{fat_tree_pod, interchangeable_classes, resolve_scope, ResolvedScope, SwitchId};

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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// A load-balancer-shaped program with a tunable extern size.
fn program(entries: u64) -> String {
    format!(
        r#"
        pipeline[LB]{{loadbalancer}};
        algorithm loadbalancer {{
            extern dict<bit[32] h, bit[32] ip>[{entries}] conn_table;
            bit[32] hash;
            hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
            if (hash in conn_table) {{
                ipv4.dstAddr = conn_table[hash];
            }}
        }}
    "#
    )
}

/// One MULTI-SW scope spanning the whole pod, Aggs to ToRs.
fn pod_scopes(topo: &lyra_topo::Topology, k: usize) -> Vec<ResolvedScope> {
    let aggs: Vec<String> = (1..=k / 2).map(|i| format!("Agg{i}")).collect();
    let tors: Vec<String> = (1..=k / 2).map(|i| format!("ToR{i}")).collect();
    let text = format!(
        "loadbalancer: [ ToR*,Agg* | MULTI-SW | ({}->{}) ]",
        aggs.join(","),
        tors.join(",")
    );
    lyra_lang::parse_scopes(&text)
        .unwrap()
        .iter()
        .map(|s| resolve_scope(topo, s).unwrap())
        .collect()
}

#[test]
fn class_transpositions_map_solutions_to_solutions() {
    let mut rng = Rng::new(0x5eed_5117);
    let opts = EncodeOptions::default();
    let mut mapped = 0u32;
    for case in 0..48 {
        let k = if case % 6 == 5 { 8 } else { 4 };
        let entries = rng.range(64, 1024);
        let src = program(entries);
        let ir = lyra_ir::frontend(&src).unwrap();
        let topo = fat_tree_pod(k, "tofino-32q", "trident4");
        let scopes = pod_scopes(&topo, k);
        let enc = encode(&ir, &topo, &scopes, &opts).unwrap();
        let sol = solve(&enc.model, None, &Backend::Native)
            .0
            .solution()
            .unwrap_or_else(|| panic!("case {case} (k={k}, entries={entries}): must place"));

        let classes = interchangeable_classes(&topo, &scopes);
        assert!(
            classes.iter().any(|c| c.len() >= 2),
            "case {case}: pod must have a class"
        );
        for pair in classes.iter().flat_map(|c| c.windows(2)) {
            let (a, b) = (pair[0], pair[1]);
            let swap = |s: SwitchId| {
                if s == a {
                    b
                } else if s == b {
                    a
                } else {
                    s
                }
            };
            // The transposed placement, completed into an assignment the
            // way the quotient route completes a replicated one.
            let permuted = lift(
                &enc,
                |alg, s, i| sol.bool(enc.instr_var(alg, swap(s), i).unwrap()),
                |e, s| sol.int(enc.extern_var(e, swap(s)).unwrap()),
            );
            assert!(
                permuted.satisfies(&enc.model),
                "case {case} (k={k}, entries={entries}): transposing \
                 interchangeable switches {a:?}<->{b:?} broke the encoding"
            );
            mapped += 1;
        }
    }
    assert!(mapped >= 48, "only {mapped} transpositions checked");
}
