//! Behavioral tests: the compiled corpus programs must *do the right thing*
//! when packets flow through them. Each test compiles a corpus program,
//! stands up the runtime simulator, installs control-plane entries, and
//! checks algorithm-level semantics — sequence-number rejection in
//! NetChain-style replication, flowlet gap detection, counter persistence,
//! TTL handling in the router. The last test runs the front end's IR
//! directly: an `if` tests its condition once.

use lyra::{CompileRequest, Compiler, Runtime};
use lyra_ir::{execute_all, frontend, DataPlaneState, Effect, PacketState};
use lyra_topo::{Layer, Topology};

fn single(asic: &str) -> Topology {
    let mut t = Topology::new();
    t.add_switch("ToR1", Layer::ToR, asic);
    t
}

fn compile_single(program: &str, algs: &[&str], asic: &str) -> lyra::CompileOutput {
    let scopes: String = algs
        .iter()
        .map(|a| format!("{a}: [ ToR1 | PER-SW | - ]"))
        .collect::<Vec<_>>()
        .join("\n");
    Compiler::new()
        .compile(&CompileRequest::new(program, &scopes, single(asic)))
        .expect("program compiles")
}

#[test]
fn netchain_rejects_stale_sequence_numbers() {
    // A distilled NetChain write path: higher sequence numbers win, stale
    // ones are dropped.
    let program = r#"
        pipeline[P]{chain};
        algorithm chain {
            extern dict<bit[64] key, bit[16] index>[64] kv_index;
            global bit[16][64] seq_store;
            global bit[32][64] val_store;
            bit[16] slot;
            bit[16] cur_seq;
            if (chain_key in kv_index) {
                slot = kv_index[chain_key];
                cur_seq = seq_store[slot];
                if (chain_seq > cur_seq) {
                    seq_store[slot] = chain_seq;
                    val_store[slot] = chain_value;
                } else {
                    drop();
                }
            }
        }
    "#;
    let out = compile_single(program, &["chain"], "tofino-32q");
    let mut rt = Runtime::new(&out);
    rt.install("kv_index", 0xAB, 5).unwrap();

    // Write seq 10 → accepted.
    let mut p1 = PacketState::new();
    p1.set("chain_key", 0xAB)
        .set("chain_seq", 10)
        .set("chain_value", 111);
    let (_, fx1) = rt.inject(&["ToR1"], p1).unwrap();
    assert!(fx1.is_empty(), "fresh write must not drop: {fx1:?}");
    assert_eq!(rt.global("ToR1", "seq_store", 5), Some(10));
    assert_eq!(rt.global("ToR1", "val_store", 5), Some(111));

    // Stale write seq 7 → dropped, state unchanged.
    let mut p2 = PacketState::new();
    p2.set("chain_key", 0xAB)
        .set("chain_seq", 7)
        .set("chain_value", 222);
    let (_, fx2) = rt.inject(&["ToR1"], p2).unwrap();
    assert!(
        fx2.iter()
            .any(|e| matches!(e, Effect::Action { name, .. } if name == "drop")),
        "stale write must drop: {fx2:?}"
    );
    assert_eq!(
        rt.global("ToR1", "val_store", 5),
        Some(111),
        "stale write must not apply"
    );

    // Newer write seq 12 → accepted.
    let mut p3 = PacketState::new();
    p3.set("chain_key", 0xAB)
        .set("chain_seq", 12)
        .set("chain_value", 333);
    rt.inject(&["ToR1"], p3).unwrap();
    assert_eq!(rt.global("ToR1", "val_store", 5), Some(333));
}

#[test]
fn counters_accumulate_across_packets() {
    let program = r#"
        pipeline[P]{ctr};
        algorithm ctr {
            global bit[32][16] hits;
            extern list<bit[32] ip>[16] watched;
            if (ipv4.src_ip in watched) {
                hits[bucket] = hits[bucket] + 1;
            }
        }
    "#;
    let out = compile_single(program, &["ctr"], "trident4");
    let mut rt = Runtime::new(&out);
    rt.install("watched", 0x0a000001, 1).unwrap();
    for _ in 0..5 {
        let mut p = PacketState::new();
        p.set("ipv4.src_ip", 0x0a000001).set("bucket", 3);
        rt.inject(&["ToR1"], p).unwrap();
    }
    // Two unwatched packets do not count.
    for _ in 0..2 {
        let mut p = PacketState::new();
        p.set("ipv4.src_ip", 0x0b000001).set("bucket", 3);
        rt.inject(&["ToR1"], p).unwrap();
    }
    assert_eq!(rt.global("ToR1", "hits", 3), Some(5));
}

#[test]
fn router_drops_on_ttl_expiry() {
    let program = r#"
        pipeline[P]{rt};
        algorithm rt {
            extern dict<bit[32] dst, bit[32] nhop>[64] routes;
            bit[32] nh;
            if (ipv4.dst_ip in routes) {
                nh = routes[ipv4.dst_ip];
                ipv4.ttl = ipv4.ttl - 1;
                if (ipv4.ttl == 0) {
                    drop();
                }
            } else {
                drop();
            }
        }
    "#;
    let out = compile_single(program, &["rt"], "tofino-32q");
    let mut rt = Runtime::new(&out);
    rt.install("routes", 0x0a00_0001, 0x0b00_0001).unwrap();

    // Healthy packet: routed, TTL decremented, not dropped.
    let mut p1 = PacketState::new();
    p1.set("ipv4.dst_ip", 0x0a00_0001).set("ipv4.ttl", 64);
    let (end1, fx1) = rt.inject(&["ToR1"], p1).unwrap();
    assert_eq!(end1.get("ipv4.ttl"), 63);
    assert!(fx1.is_empty());

    // TTL 1 → decrements to 0 → dropped.
    let mut p2 = PacketState::new();
    p2.set("ipv4.dst_ip", 0x0a00_0001).set("ipv4.ttl", 1);
    let (_, fx2) = rt.inject(&["ToR1"], p2).unwrap();
    assert!(fx2
        .iter()
        .any(|e| matches!(e, Effect::Action { name, .. } if name == "drop")));

    // No route → dropped.
    let mut p3 = PacketState::new();
    p3.set("ipv4.dst_ip", 0x0c00_0001).set("ipv4.ttl", 64);
    let (_, fx3) = rt.inject(&["ToR1"], p3).unwrap();
    assert!(fx3
        .iter()
        .any(|e| matches!(e, Effect::Action { name, .. } if name == "drop")));
}

#[test]
fn flowlet_gap_repicks_next_hop() {
    // Distilled flowlet switching: a large inter-packet gap re-picks the
    // hop; a small gap keeps it.
    let program = r#"
        pipeline[P]{fl};
        algorithm fl {
            global bit[32][16] flowlet_ts;
            global bit[16][16] flowlet_hop;
            bit[32] last;
            bit[32] gap;
            bit[16] hop;
            last = flowlet_ts[fid];
            gap = now - last;
            if (gap > 50) {
                hop = crc16_hash(now, fid);
                flowlet_hop[fid] = hop;
            } else {
                hop = flowlet_hop[fid];
            }
            flowlet_ts[fid] = now;
            out_hop = hop;
        }
    "#;
    let out = compile_single(program, &["fl"], "tofino-32q");
    let mut rt = Runtime::new(&out);

    // First packet at t=1000: gap from 0 exceeds 50 → picks a hop.
    let mut p1 = PacketState::new();
    p1.set("fid", 4).set("now", 1000);
    let (e1, _) = rt.inject(&["ToR1"], p1).unwrap();
    let hop1 = e1.get("out_hop");
    assert_eq!(rt.global("ToR1", "flowlet_ts", 4), Some(1000));

    // Second packet 10 ticks later: same flowlet → same hop.
    let mut p2 = PacketState::new();
    p2.set("fid", 4).set("now", 1010);
    let (e2, _) = rt.inject(&["ToR1"], p2).unwrap();
    assert_eq!(e2.get("out_hop"), hop1, "small gap must keep the hop");

    // Third packet after a long pause: new flowlet → hop re-picked from the
    // new timestamp (deterministically different input to the hash).
    let mut p3 = PacketState::new();
    p3.set("fid", 4).set("now", 5000);
    let (e3, _) = rt.inject(&["ToR1"], p3).unwrap();
    // The hash of (5000, 4) differs from hash of (1000, 4) under the
    // reference hash.
    assert_ne!(e3.get("out_hop"), hop1, "long gap must re-pick");
}

#[test]
fn netcache_read_path_counts_misses() {
    let program = r#"
        pipeline[P]{nc};
        algorithm nc {
            extern dict<bit[64] key, bit[16] index>[32] cache_lookup;
            global bit[8][32] cache_valid;
            global bit[32][32] miss_count;
            bit[16] slot;
            bit[8] valid;
            if (nc_key in cache_lookup) {
                slot = cache_lookup[nc_key];
                valid = cache_valid[slot];
                if (valid == 1) {
                    nc_hit = 1;
                } else {
                    miss_count[slot] = miss_count[slot] + 1;
                    copy_to_cpu();
                }
            }
        }
    "#;
    let out = compile_single(program, &["nc"], "tofino-32q");
    let mut rt = Runtime::new(&out);
    rt.install("cache_lookup", 0xFEED, 9).unwrap();

    // Key known but slot invalid → misses counted + punted.
    for _ in 0..3 {
        let mut p = PacketState::new();
        p.set("nc_key", 0xFEED);
        let (end, fx) = rt.inject(&["ToR1"], p).unwrap();
        assert_eq!(end.get("nc_hit"), 0);
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Action { name, .. } if name == "copy_to_cpu")));
    }
    assert_eq!(rt.global("ToR1", "miss_count", 9), Some(3));
}

/// Lower `body` (with `f`, which writes its by-reference parameter) and
/// run it once on the IR interpreter from `inputs`.
fn run_body(body: &str, inputs: &[(&str, u64)]) -> PacketState {
    let src = format!("pipeline[P]{{a}}; algorithm a {{ {body} }} func f(bit[32] v) {{ v = 0; }}");
    let ir = frontend(&src).expect("program lowers");
    let mut pkt = PacketState::new();
    for &(name, value) in inputs {
        pkt.set(name, value);
    }
    execute_all(&ir.algorithms[0], &mut pkt, &mut DataPlaneState::new());
    pkt
}

/// An `if` tests its condition once, before its branch runs: a branch that
/// writes the variable its `if` tests (directly, from a nested branch, or
/// through a by-reference parameter) neither skips the rest of the branch
/// nor falls into the else branch.
#[test]
fn an_if_tests_its_condition_once() {
    let body = "if (x) { x = 0; y = 5; } else { y = 1; }";
    assert_eq!(run_body(body, &[("x", 1)]).get("y"), 5, "{body}");
    let body = "if (p) { if (q) { q = 0; } else { y = 1; } }";
    assert_eq!(run_body(body, &[("p", 1), ("q", 1)]).get("y"), 0, "{body}");
    let body = "if (x) { if (q) { z = 3; } else { x = 0; } w = 2; }";
    assert_eq!(run_body(body, &[("x", 1), ("q", 0)]).get("w"), 2, "{body}");
    let body = "if (x) { f(x); y = 5; } else { y = 1; }";
    assert_eq!(run_body(body, &[("x", 1)]).get("y"), 5, "{body}");
}
