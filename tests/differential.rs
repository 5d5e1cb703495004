//! Differential semantic-preservation tests.
//!
//! The compiler's core promise is that splitting a one-big-pipeline program
//! across switches does not change what happens to packets. These tests
//! check that promise directly with the IR reference interpreter:
//!
//! * **reference run** — execute the whole algorithm against the full
//!   extern tables;
//! * **placed run** — for each flow path of the solved placement, execute
//!   each switch's instruction subset in path order against that switch's
//!   table shard (values written upstream reach downstream switches
//!   through the shared packet state, which is exactly what the generated
//!   bridge header carries).
//!
//! Final packet state and fired effects must agree.

mod common;

use common::Rng;
use lyra_ir::{execute, execute_all, frontend, DataPlaneState, InstrId, PacketState};
use lyra_lang::parse_scopes;
use lyra_synth::{synthesize, EncodeOptions, SolveLimits};
use lyra_topo::{figure1_network, resolve_scope};

/// Compile `program` under `scopes` on the Figure 1 network and return,
/// per flow path, the ordered per-switch instruction subsets plus the
/// per-switch extern entry counts.
struct Placed {
    alg: lyra_ir::IrAlgorithm,
    /// paths → [(switch name, instr subset)]
    paths: Vec<Vec<(String, Vec<InstrId>)>>,
    /// switch name → (extern → entry count)
    shards: std::collections::BTreeMap<String, std::collections::BTreeMap<String, u64>>,
}

fn place(program: &str, scopes: &str) -> Placed {
    let ir = frontend(program).expect("front-end");
    let topo = figure1_network();
    let specs = parse_scopes(scopes).expect("scopes");
    let resolved: Vec<_> = specs
        .iter()
        .map(|s| resolve_scope(&topo, s).unwrap())
        .collect();
    let (result, _) = synthesize(
        &ir,
        &topo,
        &resolved,
        &EncodeOptions::default(),
        None,
        &SolveLimits::default(),
    )
    .expect("feasible");
    let alg = ir.algorithms[0].clone();
    let alg_name = alg.name.clone();
    let mut paths = Vec::new();
    for scope in &resolved {
        for path in &scope.paths {
            let mut hops = Vec::new();
            for &sw in path {
                let name = topo.switch(sw).name.clone();
                let instrs = result
                    .placement
                    .switches
                    .get(&name)
                    .and_then(|p| p.instrs.get(&alg_name))
                    .cloned()
                    .unwrap_or_default();
                hops.push((name, instrs));
            }
            paths.push(hops);
        }
    }
    let shards = result
        .placement
        .switches
        .iter()
        .map(|(n, p)| (n.clone(), p.extern_entries.clone()))
        .collect();
    Placed { alg, paths, shards }
}

/// Distribute table entries across switch shards according to the solved
/// per-switch counts, walking a path: the first `count` undealt keys go to
/// the first holder, and so on.
fn shard_tables(
    placed: &Placed,
    path: &[(String, Vec<InstrId>)],
    full: &DataPlaneState,
) -> Vec<DataPlaneState> {
    let mut dealt: std::collections::BTreeMap<String, usize> = Default::default();
    path.iter()
        .map(|(sw, _)| {
            let mut dp = DataPlaneState::new();
            if let Some(counts) = placed.shards.get(sw) {
                for (table, &count) in counts {
                    if let Some(entries) = full.externs.get(table) {
                        let start = *dealt.get(table).unwrap_or(&0);
                        let shard: lyra_ir::ExternTable =
                            entries.iter().skip(start).take(count as usize).collect();
                        dealt.insert(table.clone(), start + shard.len());
                        dp.externs.insert(table.clone(), shard);
                    }
                }
            }
            dp
        })
        .collect()
}

/// Run the differential comparison for one packet.
fn check_packet(placed: &Placed, full: &DataPlaneState, pkt0: &PacketState) {
    for path in &placed.paths {
        // Reference.
        let mut ref_pkt = pkt0.clone();
        let mut ref_dp = full.clone();
        let ref_fx = execute_all(&placed.alg, &mut ref_pkt, &mut ref_dp);
        // Placed.
        let mut run_pkt = pkt0.clone();
        let mut shards = shard_tables(placed, path, full);
        let mut run_fx = Vec::new();
        for ((_, instrs), dp) in path.iter().zip(shards.iter_mut()) {
            run_fx.extend(execute(&placed.alg, instrs, &mut run_pkt, dp));
        }
        // Compare observable state: header fields and named metadata (not
        // compiler temporaries, which need not exist downstream).
        for (name, &v) in &ref_pkt.values {
            if name.starts_with('%') {
                continue;
            }
            assert_eq!(
                run_pkt.get(name),
                v,
                "field `{name}` differs on path {:?} for packet {pkt0:?}",
                path.iter().map(|(s, _)| s).collect::<Vec<_>>()
            );
        }
        assert_eq!(ref_fx, run_fx, "effects differ on path for packet {pkt0:?}");
    }
}

#[test]
fn lb_split_preserves_semantics() {
    const LB: &str = r#"
        pipeline[LB]{loadbalancer};
        algorithm loadbalancer {
            extern dict<bit[32] h, bit[32] ip>[64] conn_table;
            extern dict<bit[32] vip, bit[8] grp>[32] vip_table;
            if (flow_h in conn_table) {
                ipv4.dstAddr = conn_table[flow_h];
            } else {
                if (ipv4.dstAddr in vip_table) {
                    vip_grp = vip_table[ipv4.dstAddr];
                    copy_to_cpu();
                }
            }
        }
    "#;
    let placed = place(
        LB,
        "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
    );
    let mut full = DataPlaneState::new();
    for k in 0..64u64 {
        full.install("conn_table", k * 7, 0x0a00_0000 + k);
    }
    for k in 0..32u64 {
        full.install("vip_table", 0x0200_0000 + k, k % 8);
    }
    // Hits, misses, and VIP fallbacks.
    for (h, dst) in [
        (0u64, 1u64),
        (7, 2),
        (14, 0x0200_0003),
        (5, 0x0200_0001),
        (999, 42),
    ] {
        let mut pkt = PacketState::new();
        pkt.set("flow_h", h);
        pkt.set("ipv4.dstAddr", dst);
        check_packet(&placed, &full, &pkt);
    }
}

#[test]
fn computation_chain_preserves_semantics() {
    const PROG: &str = r#"
        pipeline[P]{chain};
        algorithm chain {
            bit[32] a;
            bit[32] b;
            a = ipv4.srcAddr + 100;
            b = a << 2;
            if (b > 1000) {
                ipv4.dstAddr = b & 0xffff;
            } else {
                ipv4.dstAddr = a;
            }
            out_port = b ^ a;
        }
    "#;
    let placed = place(
        PROG,
        "chain: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
    );
    let full = DataPlaneState::new();
    for src in [0u64, 1, 150, 250, 1 << 20, u32::MAX as u64] {
        let mut pkt = PacketState::new();
        pkt.set("ipv4.srcAddr", src);
        check_packet(&placed, &full, &pkt);
    }
}

#[test]
fn random_packets_through_split_lb() {
    const LB: &str = r#"
        pipeline[LB]{loadbalancer};
        algorithm loadbalancer {
            extern dict<bit[32] h, bit[32] ip>[64] conn_table;
            if (flow_h in conn_table) {
                ipv4.dstAddr = conn_table[flow_h];
                conn_hit = 1;
            }
        }
    "#;
    let placed = place(
        LB,
        "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
    );
    let mut rng = Rng::new(0x5eed_3001);
    for _case in 0..32 {
        let flow_h = rng.below(500);
        let dst = rng.below(0x0300_0000);
        let table_keys: std::collections::BTreeSet<u64> =
            (0..1 + rng.below(39)).map(|_| rng.below(500)).collect();
        let mut full = DataPlaneState::new();
        for (i, k) in table_keys.iter().enumerate() {
            full.install("conn_table", *k, 0x0a00_0000 + i as u64);
        }
        let mut pkt = PacketState::new();
        pkt.set("flow_h", flow_h);
        pkt.set("ipv4.dstAddr", dst);
        check_packet(&placed, &full, &pkt);
    }
}

#[test]
fn random_packets_through_split_computation() {
    const PROG: &str = r#"
        pipeline[P]{comp};
        algorithm comp {
            bit[32] t1;
            bit[32] t2;
            t1 = ipv4.srcAddr ^ other;
            t2 = t1 + 13;
            if (t2 > t1) {
                md_class = 1;
            } else {
                md_class = 2;
            }
            ipv4.dstAddr = t2 | md_class;
        }
    "#;
    let placed = place(
        PROG,
        "comp: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
    );
    let full = DataPlaneState::new();
    let mut rng = Rng::new(0x5eed_3002);
    for _case in 0..32 {
        let src = rng.next() as u32;
        let thresh_src = rng.next() as u32;
        let mut pkt = PacketState::new();
        pkt.set("ipv4.srcAddr", src as u64);
        pkt.set("other", thresh_src as u64);
        check_packet(&placed, &full, &pkt);
    }
}
