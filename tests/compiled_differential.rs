//! Compiled-bytecode differential suite.
//!
//! The batched data-plane engine (`lyra_ir::compiled`) must agree with
//! the reference IR interpreter on every observable: packet fields,
//! effect streams (drops, CPU punts), and persistent global state. This
//! suite drives that equivalence three ways:
//!
//! * **sequence differential** — fifteen program templates spanning the
//!   surface the compiler lowers (arithmetic/masking, predicate guards,
//!   switch dispatch, table membership + lookup, builtins, persistent
//!   counters, hash-indexed sketches, actions, bit slices, a
//!   NetCache-style mix, and five shapes where a `t[k]` may not reuse
//!   the search of the `k in t` before it, one of them split into two
//!   per-switch streams) each run a seeded packet *sequence* through both
//!   engines in persistent-global mode and compare every packet
//!   (≥ 200 program × packet cases in total);
//! * **worker partitioning** — the same packet set is executed in
//!   isolated (per-packet) mode by 1 thread and by 4 threads claiming
//!   packets from a shared atomic counter; the XOR-folded machine digests
//!   must be identical, because digests fold over *touched* slots in
//!   program order and are therefore partition-invariant;
//! * **lane parity** — the same packets run as one lane batch of 1, 7
//!   (partial) and 64 packets and as one-lane runs; per packet, digests,
//!   effect streams and written fields must be equal, with lanes that
//!   diverge on guards, hit and miss tables, and read their own register
//!   writes within the hop;
//! * **deployment replay** — a compiled MULTI-SW load-balancer
//!   deployment replays live traffic via `lyra::replay_compiled` with
//!   different worker counts (equal digests, effect counts matching the
//!   interpreter replay) and via `lyra::replay_under_rollout` across a
//!   lossy control channel (zero mixed-epoch exposure).
//!
//! Randomness comes from a seeded xorshift generator, so every run
//! explores the identical case set and failures reproduce from the
//! printed template name and packet index.

mod common;

use common::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

use lyra::{
    replay_compiled, replay_interpreted, replay_under_rollout, CompileRequest, Compiler, FaultSet,
    LossyChannel, ReplayConfig, RolloutConfig, Runtime,
};
use lyra_ir::{
    execute_all, frontend, CompiledAlgorithm, DataPlaneState, GlobalAccess, GlobalOverlay, InstrId,
    IrOp, IrProgram, Machine, PacketState, ProgramLayout, TableSnapshot, LANES,
};
use lyra_topo::figure1_network;

/// One differential template: a source program plus the packet fields
/// its seeded traffic randomizes.
struct Template {
    name: &'static str,
    src: &'static str,
    /// Compile the algorithm as two streams cut before its first table
    /// lookup, as two per-switch subsets run one after the other.
    split: bool,
    fields: &'static [&'static str],
}

const TEMPLATES: &[Template] = &[
    Template {
        name: "arithmetic_and_masking",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                bit[8] x;
                x = a + b;
                y = x * 3;
                z = y - a;
                q = z / (b | 1);
                r = z % 7;
                s = a << 2;
                t = b >> 3;
                u = (a ^ b) & 255;
                v = a | b;
            }
        "#,
        split: false,
        fields: &["a", "b"],
    },
    Template {
        name: "predicates_and_logic",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                if (a < b && c != 0) {
                    x = a + c;
                } else {
                    if (a >= b || c == 0) {
                        x = b;
                    } else {
                        x = 99;
                    }
                }
                if (x <= 40) { y = 1; } else { y = 2; }
            }
        "#,
        split: false,
        fields: &["a", "b", "c"],
    },
    Template {
        name: "switch_dispatch",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                switch (op) {
                    case 0: { out = a + b; }
                    case 1: { out = a - b; }
                    case 2: { out = a & b; }
                    default: { out = 0; }
                }
            }
        "#,
        split: false,
        fields: &["op", "a", "b"],
    },
    Template {
        name: "table_membership_and_lookup",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[16] fwd;
                extern dict<bit[32] k, bit[32] v>[16] acl;
                hit = key in fwd;
                if (hit) {
                    out = fwd[key];
                } else {
                    copy_to_cpu();
                }
                if (key in acl) { blocked = acl[key]; }
            }
        "#,
        split: false,
        fields: &["key"],
    },
    Template {
        name: "builtins",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                h = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
                h16 = crc16_hash(ipv4.srcAddr);
                lo = min(h, h16);
                hi = max(h16, ipv4.srcAddr);
                q = get_queue_len();
            }
        "#,
        split: false,
        fields: &["ipv4.srcAddr", "ipv4.dstAddr"],
    },
    Template {
        name: "persistent_counters",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                global bit[32][4] ctr;
                i = key % 4;
                ctr[i] = ctr[i] + 1;
                out = ctr[i];
            }
        "#,
        split: false,
        fields: &["key"],
    },
    Template {
        name: "hash_indexed_sketch",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                global bit[32][8] row0;
                global bit[32][8] row1;
                h0 = crc32_hash(key);
                h1 = crc16_hash(key, 17);
                row0[h0] = row0[h0] + 1;
                row1[h1] = row1[h1] + 1;
                est = min(row0[h0], row1[h1]);
            }
        "#,
        split: false,
        fields: &["key"],
    },
    Template {
        name: "actions_in_branches",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                if (ttl == 0) {
                    drop();
                } else {
                    ttl = ttl - 1;
                    if (ttl < 2) { copy_to_cpu(); }
                }
            }
        "#,
        split: false,
        fields: &["ttl"],
    },
    Template {
        name: "slices",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                h = crc32_hash(a);
                lo = h[7:0];
                mid = h[15:8];
                top = h[31:16];
                out = (top ^ mid) + lo;
            }
        "#,
        split: false,
        fields: &["a"],
    },
    Template {
        name: "netcache_style_mix",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[16] cache;
                global bit[32][8] hot;
                switch (op) {
                    case 0: {
                        if (key in cache) {
                            value = cache[key];
                            h = crc32_hash(key);
                            hot[h] = hot[h] + 1;
                        } else {
                            copy_to_cpu();
                        }
                    }
                    default: { drop(); }
                }
            }
        "#,
        split: false,
        fields: &["op", "key"],
    },
    // A `t[k]` reuses the search of the `k in t` before it; the
    // templates below are the shapes where it must not, or only in part.
    Template {
        name: "key_rewritten_between_in_and_lookup",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[16] t;
                hit = key in t;
                if (key > 7) { key = key - 8; }
                if (hit) { out = t[key]; }
            }
        "#,
        split: false,
        fields: &["key"],
    },
    Template {
        name: "lookup_without_in",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[16] t;
                out = t[key];
                if (key2 in t) { seen = 1; }
                other = t[key];
            }
        "#,
        split: false,
        fields: &["key", "key2"],
    },
    Template {
        name: "in_under_a_narrower_guard",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[16] t;
                if (c > 7) { h = key in t; }
                if (h == 1 || d > 7) { v = t[key]; }
            }
        "#,
        split: false,
        fields: &["c", "d", "key"],
    },
    Template {
        name: "one_key_two_tables",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[16] t;
                extern dict<bit[32] k, bit[32] v>[16] u;
                a = key in t;
                b = key in u;
                if (a) { x = t[key]; }
                if (b) { y = u[key]; }
                if (key2 in t) { z = u[key2]; }
                w = t[key];
            }
        "#,
        split: false,
        fields: &["key", "key2"],
    },
    Template {
        name: "in_and_lookup_in_two_streams",
        src: r#"
            pipeline[P]{a};
            algorithm a {
                extern dict<bit[32] k, bit[32] v>[16] t;
                hit = key in t;
                if (hit) { out = t[key]; } else { copy_to_cpu(); }
            }
        "#,
        split: true,
        fields: &["key"],
    },
];

fn program(src: &str) -> IrProgram {
    frontend(src).unwrap()
}

/// The streams a template's packets run through, in order: the whole
/// algorithm, or for a split template the instructions before its first
/// table lookup and the rest.
fn streams(template: &Template, ir: &IrProgram, layout: &ProgramLayout) -> Vec<CompiledAlgorithm> {
    let alg = &ir.algorithms[0];
    let ids: Vec<InstrId> = alg.instr_ids().collect();
    if !template.split {
        return vec![CompiledAlgorithm::compile(alg, &ids, layout)];
    }
    let cut = ids
        .iter()
        .position(|&id| matches!(alg.instr(id).op, IrOp::TableLookup { .. }))
        .expect("a split template reads a table");
    let (first, second) = ids.split_at(cut);
    vec![
        CompiledAlgorithm::compile(alg, first, layout),
        CompiledAlgorithm::compile(alg, second, layout),
    ]
}

/// Seed a data-plane state for a program: a handful of entries in every
/// extern table (small key space so the traffic hits often) and sized
/// storage for every global array.
fn seeded_dp(ir: &IrProgram, rng: &mut Rng) -> DataPlaneState {
    let mut dp = DataPlaneState::new();
    for table in ir.externs.keys() {
        for _ in 0..6 {
            dp.install(table, rng.below(16), 1 + rng.below(1 << 24));
        }
    }
    for (name, &(_width, len)) in &ir.globals {
        dp.global(name, len as usize);
    }
    dp
}

/// Seeded field value: biased small so table keys hit and switch arms
/// are reachable, with a wide-random tail for masking coverage.
fn field_value(rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 => rng.below(4),
        1 => rng.below(16),
        2 => rng.below(256),
        _ => rng.next(),
    }
}

/// Run one packet through both engines in persistent-global mode and
/// compare fields and effects. The caller owns the evolving state.
#[allow(clippy::too_many_arguments)]
fn check_packet(
    name: &str,
    idx: usize,
    alg: &lyra_ir::IrAlgorithm,
    layout: &ProgramLayout,
    compiled: &[CompiledAlgorithm],
    snap: &TableSnapshot,
    fields: &[(&str, u64)],
    ref_dp: &mut DataPlaneState,
    store: &mut Vec<Vec<u64>>,
    machine: &mut Machine,
) {
    let mut ref_pkt = PacketState::new();
    for &(k, v) in fields {
        ref_pkt.set(k, v);
    }
    let ref_fx = execute_all(alg, &mut ref_pkt, ref_dp);

    machine.reset();
    let mut pkt = PacketState::new();
    for &(k, v) in fields {
        pkt.set(k, v);
    }
    machine.load_packet(layout, &pkt);
    for stream in compiled {
        machine.run(stream, snap, &mut GlobalAccess::Persistent(store));
    }
    machine.store_packet(layout, &mut pkt);

    for (field, &v) in &ref_pkt.values {
        assert_eq!(
            pkt.get(field),
            v,
            "template `{name}` packet {idx}: field `{field}` diverged"
        );
    }
    assert_eq!(
        machine.lane_effects(layout, 0),
        ref_fx,
        "template `{name}` packet {idx}: effects diverged"
    );
}

/// ≥ 200 seeded program × packet cases: every template runs a 30-packet
/// sequence through interpreter and compiled engine with shared evolving
/// global state, comparing fields and effects per packet and globals at
/// the end of the sequence.
#[test]
fn compiled_engine_matches_interpreter_across_200_seeded_cases() {
    const PACKETS_PER_TEMPLATE: usize = 30;
    let mut rng = Rng::new(0xd1ff_5eed);
    let mut cases = 0usize;

    for template in TEMPLATES {
        let ir = program(template.src);
        let layout = ProgramLayout::new(&ir);
        let alg = &ir.algorithms[0];
        let compiled = streams(template, &ir, &layout);

        let dp = seeded_dp(&ir, &mut rng);
        let snap = TableSnapshot::build(&layout, &dp);
        let mut ref_dp = dp.clone();
        let mut store = layout.globals_from(&dp);
        let mut machine = Machine::new(&layout);

        for idx in 0..PACKETS_PER_TEMPLATE {
            let fields: Vec<(&str, u64)> = template
                .fields
                .iter()
                .map(|&f| (f, field_value(&mut rng)))
                .collect();
            check_packet(
                template.name,
                idx,
                alg,
                &layout,
                &compiled,
                &snap,
                &fields,
                &mut ref_dp,
                &mut store,
                &mut machine,
            );
            cases += 1;
        }

        // After the whole sequence the persistent global state must be
        // bit-identical between the engines.
        let mut out_dp = dp.clone();
        layout.globals_into(&store, &mut out_dp);
        for (global, arr) in &ref_dp.globals {
            assert_eq!(
                out_dp.globals.get(global),
                Some(arr),
                "template `{}`: global `{global}` diverged after {PACKETS_PER_TEMPLATE} packets",
                template.name
            );
        }
    }

    assert!(
        cases >= 200,
        "suite shrank below the 200-case floor: {cases}"
    );
}

/// Deterministic per-packet field material: a pure function of
/// (seed, packet index), so any worker partitioning sees identical
/// packets.
fn packet_fields(template: &Template, seed: u64, idx: u64) -> Vec<(&'static str, u64)> {
    let mut rng = Rng::new(seed ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    template
        .fields
        .iter()
        .map(|&f| (f, field_value(&mut rng)))
        .collect()
}

/// Execute packets `[0, packets)` in isolated mode across `workers`
/// threads claiming indices from a shared counter, and XOR-fold the
/// per-packet machine digests.
fn isolated_digest(
    layout: &ProgramLayout,
    compiled: &[CompiledAlgorithm],
    snap: &TableSnapshot,
    template: &Template,
    seed: u64,
    packets: u64,
    workers: usize,
) -> u64 {
    let next = AtomicU64::new(0);
    let outs: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut machine = Machine::new(layout);
                    let mut overlay = GlobalOverlay::new();
                    let mut acc = 0u64;
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= packets {
                            return acc;
                        }
                        machine.reset();
                        overlay.clear();
                        let mut pkt = PacketState::new();
                        for (k, v) in packet_fields(template, seed, idx) {
                            pkt.set(k, v);
                        }
                        machine.load_packet(layout, &pkt);
                        let mut globals = GlobalAccess::Isolated {
                            baseline: &snap.globals,
                            overlay: &mut overlay,
                        };
                        for stream in compiled {
                            machine.run(stream, snap, &mut globals);
                        }
                        acc ^= machine.digest().wrapping_mul(idx | 1);
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    outs.into_iter().fold(0, |a, b| a ^ b)
}

/// Worker partitioning must not change what the data plane computes:
/// the XOR-folded digest of 64 isolated packets is identical whether one
/// thread or four threads execute them.
#[test]
fn worker_partitioning_is_digest_invariant() {
    const PACKETS: u64 = 64;
    for template in TEMPLATES {
        let ir = program(template.src);
        let layout = ProgramLayout::new(&ir);
        let compiled = streams(template, &ir, &layout);
        let mut rng = Rng::new(0xba7c_4ed0 ^ template.name.len() as u64);
        let dp = seeded_dp(&ir, &mut rng);
        let snap = TableSnapshot::build(&layout, &dp);

        let one = isolated_digest(&layout, &compiled, &snap, template, 0x5eed, PACKETS, 1);
        let four = isolated_digest(&layout, &compiled, &snap, template, 0x5eed, PACKETS, 4);
        assert_eq!(
            one, four,
            "template `{}`: digest changed with worker count",
            template.name
        );
    }
}

/// Lane parity: for every template, a batch of 1, 7 (partial) or 64
/// packets computes, lane for lane, what one-lane runs of the same packets
/// compute — digest, effect stream and every field the packet holds — and
/// what the interpreter computes for each packet on its own copy of the
/// state (the isolated semantics). One machine serves every batch size in
/// turn, so clearing a wider batch before a narrower one is exercised too.
#[test]
fn lane_batches_match_one_lane_runs() {
    let mut mixed_effects = 0;
    let mut diverged = 0;
    for template in TEMPLATES {
        let ir = program(template.src);
        let layout = ProgramLayout::new(&ir);
        let compiled = streams(template, &ir, &layout);
        let mut rng = Rng::new(0x1a4e ^ template.name.len() as u64);
        let dp = seeded_dp(&ir, &mut rng);
        let snap = TableSnapshot::build(&layout, &dp);
        let slots: Vec<u32> = template
            .fields
            .iter()
            .map(|f| layout.slot(f).expect("a template field is read"))
            .collect();
        let mut overlay = GlobalOverlay::new();
        let mut run = |machine: &mut Machine| {
            overlay.clear();
            let mut globals = GlobalAccess::Isolated {
                baseline: &snap.globals,
                overlay: &mut overlay,
            };
            for stream in &compiled {
                machine.run(stream, &snap, &mut globals);
            }
        };
        let (mut batch, mut single) = (Machine::new(&layout), Machine::new(&layout));
        let mut idx = 0u64;
        for lanes in [1, 7, LANES, 7, 1] {
            let packets: Vec<Vec<(&str, u64)>> = (idx..idx + lanes as u64)
                .map(|i| packet_fields(template, 0x1a4e, i))
                .collect();
            idx += lanes as u64;
            batch.begin(lanes);
            for (f, &slot) in slots.iter().enumerate() {
                let column: Vec<u64> = packets.iter().map(|p| p[f].1).collect();
                batch.set_column(slot, &column);
            }
            run(&mut batch);
            let mut digests = vec![0; lanes];
            batch.digests(&mut digests);

            let mut effects = Vec::new();
            for (lane, fields) in packets.iter().enumerate() {
                let at = format!("template `{}`, lane {lane} of {lanes}", template.name);
                single.reset();
                for (&slot, &(_, v)) in slots.iter().zip(fields) {
                    single.set_slot(slot, v);
                }
                run(&mut single);
                assert_eq!(digests[lane], single.digest(), "{at}: digest");
                assert_eq!(
                    batch.lane_effects(&layout, lane),
                    single.lane_effects(&layout, 0),
                    "{at}: effects"
                );
                let mut pkt = PacketState::new();
                single.store_packet(&layout, &mut pkt);
                let mut reference = PacketState::new();
                for &(k, v) in fields {
                    reference.set(k, v);
                }
                let fx = execute_all(&ir.algorithms[0], &mut reference, &mut dp.clone());
                assert_eq!(pkt, reference, "{at}: one-lane fields vs interpreter");
                assert_eq!(
                    batch.lane_effects(&layout, lane),
                    fx,
                    "{at}: interpreter effects"
                );
                for (field, &v) in &pkt.values {
                    let slot = layout.slot(field).unwrap();
                    assert_eq!(batch.lane_slot(slot, lane), v, "{at}: field `{field}`");
                }
                effects.push(single.effect_count());
            }
            assert_eq!(batch.effect_count(), effects.iter().sum::<usize>());
            if effects.contains(&0) && effects.iter().any(|&e| e > 0) {
                mixed_effects += 1;
            }
            if digests.iter().any(|&d| d != digests[0]) {
                diverged += 1;
            }
        }
    }
    // Lanes of one batch took different arms and fired different effects.
    assert!(
        diverged >= 2 * TEMPLATES.len(),
        "{diverged} diverged batches"
    );
    assert!(
        mixed_effects >= 3,
        "{mixed_effects} batches with mixed effects"
    );

    // A digest folds each touched slot once per packet, however often it
    // is written: rewriting `x` with the value it holds, for some lanes or
    // all, leaves every lane's digest as it was.
    let once = program("pipeline[P]{a}; algorithm a { x = a + 1; if (a > 8) { y = x; } y = x; }");
    let again = program(
        "pipeline[P]{a}; algorithm a { x = a + 1; if (a > 8) { y = x; x = a + 1; } y = x; x = y; }",
    );
    let layout = ProgramLayout::unioned(&[&once, &again]);
    let snap = TableSnapshot::build(&layout, &DataPlaneState::new());
    let digests = |ir: &IrProgram| {
        let alg = &ir.algorithms[0];
        let ids: Vec<InstrId> = alg.instr_ids().collect();
        let compiled = CompiledAlgorithm::compile(alg, &ids, &layout);
        let mut machine = Machine::new(&layout);
        machine.begin(LANES);
        let column: Vec<u64> = (0..LANES as u64).collect();
        machine.set_column(layout.slot("a").unwrap(), &column);
        let mut overlay = GlobalOverlay::new();
        let mut globals = GlobalAccess::Isolated {
            baseline: &snap.globals,
            overlay: &mut overlay,
        };
        machine.run(&compiled, &snap, &mut globals);
        let mut d = vec![0; LANES];
        machine.digests(&mut d);
        d
    };
    assert_eq!(
        digests(&once),
        digests(&again),
        "a rewrite was folded twice"
    );
}

const LB: &str = r#"
    pipeline[LB]{loadbalancer};
    algorithm loadbalancer {
        extern dict<bit[32] h, bit[32] ip>[64] conn_table;
        if (flow_h in conn_table) {
            ipv4.dstAddr = conn_table[flow_h];
        } else {
            copy_to_cpu();
        }
    }
"#;
const LB_SCOPES: &str = "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";

fn lb_request() -> CompileRequest<'static> {
    CompileRequest::new(LB, LB_SCOPES, figure1_network())
}

/// Deployment-level differential: replaying the compiled MULTI-SW
/// deployment is worker-count-deterministic and effect-equivalent to the
/// interpreter replay on the same seeded traffic.
#[test]
fn deployment_replay_matches_interpreter_and_is_worker_invariant() {
    let out = Compiler::new().compile(&lb_request()).unwrap();
    let mut rt = Runtime::new(&out);
    rt.install("conn_table", 3, 0xc0de).unwrap();
    rt.install("conn_table", 11, 0xfeed).unwrap();

    let base = ReplayConfig::default().with_packets(3_000).with_seed(0x1ab);
    let one = replay_compiled(&rt, &base.clone().with_workers(1));
    let four = replay_compiled(&rt, &base.clone().with_workers(4));
    let interp = replay_interpreted(&rt, &base);

    assert_eq!(one.digest, four.digest);
    assert_eq!(one.effects, four.effects);
    assert_eq!(one.delivered, 3_000);
    // LB is stateless outside its tables, so persistent interpreter
    // replay and isolated compiled replay fire identical effect counts.
    assert_eq!(one.effects, interp.effects);
    assert_eq!(one.mixed_epoch_exposure, 0);
}

/// Deployment-level rollout differential: live traffic replayed across a
/// lossy-channel rollout observes zero mixed-epoch packets — every
/// packet runs entirely in the old epoch or entirely in the new one.
#[test]
fn lossy_rollout_replay_has_zero_mixed_epoch_exposure() {
    let compiler = Compiler::new();
    let req = lb_request();
    let prior = compiler.compile(&req).unwrap();
    let faults = FaultSet::new().with_switch("Agg3");
    let r = compiler
        .recompile_for_faults(&req, &prior, &faults)
        .unwrap();

    let mut rt = Runtime::new(&prior);
    rt.install("conn_table", 42, 0xabcd).unwrap();
    rt.fail_switch("Agg3").unwrap();

    let mut chan = LossyChannel::new(0xc4a5)
        .with_drop_p(0.2)
        .with_ack_loss_p(0.1)
        .with_dup_p(0.05);
    let config = RolloutConfig {
        max_attempts: 4,
        scope_health: r.scope_health.clone(),
        crash: None,
        force_snapshot: false,
    };
    let outcome = replay_under_rollout(
        &mut rt,
        &r.output,
        &mut chan,
        &config,
        &ReplayConfig::default().with_packets(20_000).with_workers(2),
    )
    .unwrap();

    assert_eq!(outcome.replay.mixed_epoch_exposure, 0);
    assert_eq!(
        outcome.replay.delivered + outcome.replay.refused_epoch_mismatch,
        20_000
    );
    assert!(rt.epochs_coherent());
}
