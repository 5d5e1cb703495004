//! Incremental-compilation coverage (§8 "Synthesizing incremental
//! changes"): recompiling with `Compiler::compile_incremental` seeds the
//! solver with the previous placement, so unchanged programs come back
//! with zero churn and a one-algorithm edit leaves the untouched
//! algorithms pinned to their switches. `PlacementDiff` (built for the
//! fault-recompilation path) is the churn meter.

use lyra::{CompileRequest, Compiler, PlacementDiff};
use lyra_topo::figure1_network;

const TWO_ALGS: &str = r#"
    pipeline[INT]{int_in};
    pipeline[LB]{loadbalancer};
    algorithm int_in {
        extern list<bit[32] ip>[256] int_watch;
        if (ipv4.src_ip in int_watch) { int_enable = 1; }
    }
    algorithm loadbalancer {
        extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
        bit[32] hash;
        hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
        if (hash in conn_table) {
            ipv4.dstAddr = conn_table[hash];
        }
    }
"#;

const SCOPES: &str = r#"
    int_in: [ Agg3,ToR3 | MULTI-SW | (Agg3->ToR3) ]
    loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]
"#;

fn request(program: &str) -> CompileRequest<'_> {
    CompileRequest::new(program, SCOPES, figure1_network())
}

#[test]
fn unchanged_program_recompiles_with_zero_churn() {
    let compiler = Compiler::new();
    let first = compiler.compile(&request(TWO_ALGS)).unwrap();
    let second = compiler
        .compile_incremental(&request(TWO_ALGS), &first.placement)
        .unwrap();
    let diff = PlacementDiff::between(&first.placement, &second.placement);
    assert!(
        diff.is_empty(),
        "identical input reseeded with its own placement must not move \
         anything, but churned: {diff:?}"
    );
}

#[test]
fn editing_one_algorithm_keeps_the_other_pinned() {
    let compiler = Compiler::new();
    let first = compiler.compile(&request(TWO_ALGS)).unwrap();

    // Edit only the load balancer (an extra assignment); int_in is
    // untouched and must keep its switches.
    let edited = TWO_ALGS.replace(
        "ipv4.dstAddr = conn_table[hash];",
        "ipv4.dstAddr = conn_table[hash]; ipv4.ttl = 64;",
    );
    assert_ne!(edited, TWO_ALGS, "the edit must apply");
    let second = compiler
        .compile_incremental(&request(&edited), &first.placement)
        .unwrap();

    let hosts = |placement: &lyra_synth::Placement, alg: &str| -> Vec<String> {
        placement
            .switches
            .iter()
            .filter(|(_, p)| p.instrs.contains_key(alg))
            .map(|(n, _)| n.clone())
            .collect()
    };
    assert_eq!(
        hosts(&first.placement, "int_in"),
        hosts(&second.placement, "int_in"),
        "untouched algorithm moved switches on an unrelated edit"
    );
    // The untouched algorithm's instruction assignment is identical.
    for sw in hosts(&first.placement, "int_in") {
        assert_eq!(
            first.placement.switches[&sw].instrs["int_in"],
            second.placement.switches[&sw].instrs["int_in"],
            "int_in instructions moved on {sw}"
        );
    }
}

#[test]
fn incremental_recompile_agrees_with_fresh_compile_semantics() {
    // Seeding is an optimization, not a semantic change: the incremental
    // output must satisfy the same coverage invariants as a fresh one.
    let compiler = Compiler::new();
    let first = compiler.compile(&request(TWO_ALGS)).unwrap();
    let second = compiler
        .compile_incremental(&request(TWO_ALGS), &first.placement)
        .unwrap();
    let conn: u64 = second
        .placement
        .switches
        .values()
        .filter_map(|p| p.extern_entries.get("conn_table"))
        .sum();
    assert!(conn >= 1024, "conn_table under-placed: {conn}");
    assert_eq!(first.artifacts.len(), second.artifacts.len());
}
