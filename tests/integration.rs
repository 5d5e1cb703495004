//! Cross-crate integration tests: the full compiler pipeline on the paper's
//! workloads and topologies, exercising both solver backends, code
//! generation, validation, and the placement invariants the paper's
//! correctness argument rests on.

use lyra::{CompileRequest, Compiler, Objective};
use lyra_apps::{figure9_corpus, paper_baselines, programs, CorpusEntry};
use lyra_diag::codes;
use lyra_topo::{evaluation_testbed, fat_tree_pod, figure1_network, Layer, Topology};

/// A single-switch topology with the given ASIC.
fn single(asic: &str) -> Topology {
    let mut t = Topology::new();
    t.add_switch("ToR1", Layer::ToR, asic);
    t
}

/// Single-switch PER-SW scopes for every algorithm of a corpus entry.
fn single_scopes(entry_scopes: &str) -> String {
    entry_scopes
        .lines()
        .filter_map(|l| l.split(':').next())
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|a| format!("{a}: [ ToR1 | PER-SW | - ]"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn corpus_compiles_to_every_programmable_asic() {
    for entry in figure9_corpus() {
        for asic in ["tofino-32q", "tofino-64q", "trident4", "silicon-one", "rmt"] {
            let out = Compiler::new()
                .compile(&CompileRequest::new(
                    &entry.source,
                    &single_scopes(&entry.scopes),
                    single(asic),
                ))
                .unwrap_or_else(|e| panic!("{} on {asic}: {e}", entry.name));
            assert_eq!(out.artifacts.len(), 1, "{} on {asic}", entry.name);
            let summaries = out
                .validate_all()
                .unwrap_or_else(|e| panic!("{} on {asic} invalid: {e}", entry.name));
            let s0 = &summaries[0].1;
            assert!(
                s0.tables + s0.registers + s0.actions >= 1,
                "{} on {asic}: empty program",
                entry.name
            );
        }
    }
}

#[test]
fn corpus_validation_totals_per_asic() {
    // Figure 9's resource columns summed over the corpus, one PER-SW ToR
    // per ASIC: [artifacts, tables, actions, registers, lookups, loc].
    let expected = [
        ("tofino-32q", [10, 99, 233, 56, 0, 2998]),
        ("silicon-one", [10, 99, 233, 56, 0, 2918]),
        ("trident4", [10, 63, 65, 56, 121, 2833]),
    ];
    for (asic, want) in expected {
        let mut got = [0u64; 6];
        for entry in figure9_corpus() {
            let scopes = single_scopes(&entry.scopes);
            let req = CompileRequest::new(&entry.source, &scopes, single(asic));
            let out = Compiler::new().compile(&req).unwrap();
            for (_, s) in out.validate_all().unwrap() {
                let counts = [1, s.tables, s.actions, s.registers, s.lookups, s.loc];
                for (g, n) in got.iter_mut().zip(counts) {
                    *g += n;
                }
            }
        }
        assert_eq!(got, want, "{asic}");
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn emitted_text_is_pinned() {
    // Every byte the three emitters and the control-stub writer produce for
    // the corpus on one ToR of each programmable ASIC, then NetCache PER-SW
    // on a k = 4 pod, whose replicated members are renamed copies of their
    // group's representative, then two MULTI-SW placements. A change to any
    // emitted byte moves the hash.
    let mut h = 0xcbf2_9ce4_8422_2325;
    for asic in ["tofino-32q", "silicon-one", "trident4"] {
        for entry in figure9_corpus() {
            let scopes = single_scopes(&entry.scopes);
            let req = CompileRequest::new(&entry.source, &scopes, single(asic));
            for a in Compiler::new().compile(&req).unwrap().artifacts {
                h = fnv1a(fnv1a(h, a.code.as_bytes()), a.control_plane.as_bytes());
            }
        }
    }
    assert_eq!(h, 0x07f9_5323_6da9_da09, "corpus: {h:#018x}");
    let out = Compiler::new()
        .compile(&CompileRequest::new(
            &programs::netcache(),
            "netcache: [ ToR*,Agg* | PER-SW | - ]",
            fat_tree_pod(4, "tofino-32q", "trident4"),
        ))
        .unwrap();
    assert_eq!(out.artifacts.len(), 4);
    for a in &out.artifacts {
        h = fnv1a(fnv1a(h, a.code.as_bytes()), a.control_plane.as_bytes());
    }
    assert_eq!(
        h, 0x9e7a_e6ce_5056_d4e3,
        "corpus + NetCache PER-SW k = 4: {h:#018x}"
    );
    // Two MULTI-SW placements: NetCache on a k = 8 pod, whose four ToRs
    // share one plan, and the LB split over Figure 1's second pod, whose
    // Aggs carry values to its ToRs.
    let k8_scopes =
        "netcache: [ ToR*,Agg* | MULTI-SW | (Agg1,Agg2,Agg3,Agg4->ToR1,ToR2,ToR3,ToR4) ]";
    let multi = [
        (
            programs::netcache(),
            k8_scopes,
            fat_tree_pod(8, "tofino-32q", "trident4"),
        ),
        (
            programs::load_balancer(4_000_000),
            "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
            figure1_network(),
        ),
    ];
    for (src, scopes, topo) in multi {
        let out = Compiler::new()
            .compile(&CompileRequest::new(&src, scopes, topo))
            .unwrap();
        assert_eq!(out.artifacts.len(), 4);
        for a in &out.artifacts {
            h = fnv1a(fnv1a(h, a.code.as_bytes()), a.control_plane.as_bytes());
        }
    }
    assert_eq!(
        h, 0x0e2d_ab05_af23_3257,
        "+ NetCache MULTI-SW k = 8 + LB[4000000] MULTI-SW fig1: {h:#018x}"
    );
}

#[test]
fn p414_refuses_multiply_divide_and_modulo() {
    // RMT has no multiply or divide ALU: the Tofino compile fails with
    // LYR0501 naming the operator and the switch, while the P4_16 and NPL
    // targets compile the same program.
    for op in ["*", "/", "%"] {
        let src = format!(
            "pipeline[P]{{a}};\nalgorithm a {{\n    x = ipv4.srcAddr {op} ipv4.dstAddr;\n}}\n"
        );
        let scopes = "a: [ ToR1 | PER-SW | - ]";
        let req = CompileRequest::new(&src, scopes, single("tofino-32q"));
        let err = Compiler::new().compile(&req).unwrap_err();
        let [d] = err.diagnostics() else {
            panic!("one diagnostic expected: {err}");
        };
        assert_eq!(d.code, Some(codes::CODEGEN), "{d}");
        assert!(d.message.contains(&format!("`{op}`")), "{d}");
        assert!(d.message.contains("ToR1"), "{d}");
        for asic in ["silicon-one", "trident4"] {
            let req = CompileRequest::new(&src, scopes, single(asic));
            let out = Compiler::new().compile(&req).unwrap();
            out.validate_all().unwrap();
        }
    }
}

#[test]
fn corpus_is_feasible_and_reports_solver_stats() {
    // Every corpus program fits a Tofino, and every compile reports the
    // solver effort it took to prove so.
    for entry in figure9_corpus() {
        let scopes = single_scopes(&entry.scopes);
        let native = Compiler::new().compile(&CompileRequest::new(
            &entry.source,
            &scopes,
            single("tofino-32q"),
        ));
        assert!(
            native.is_ok(),
            "{} infeasible for native backend: {:?}",
            entry.name,
            native.err().map(|e| e.to_string())
        );
        let out = native.unwrap();
        assert!(
            out.solver.decisions > 0,
            "{}: no solver decisions recorded",
            entry.name
        );
        assert!(
            !out.utilization.is_empty(),
            "{}: no utilization recorded",
            entry.name
        );
    }
}

#[test]
fn per_sw_placement_replicates_everything() {
    let out = Compiler::new()
        .compile(&CompileRequest::new(
            &programs::netcache(),
            "netcache: [ ToR* | PER-SW | - ]",
            evaluation_testbed(),
        ))
        .unwrap();
    assert_eq!(out.placement.used_switches(), 4);
    // Every copy is identical in shape.
    let usages: Vec<_> = out
        .placement
        .switches
        .values()
        .map(|p| (p.usage.tables, p.usage.registers, p.extern_entries.clone()))
        .collect();
    for u in &usages[1..] {
        assert_eq!(u, &usages[0], "PER-SW copies must be identical");
    }
}

#[test]
fn multi_sw_lb_respects_flow_paths() {
    let out = Compiler::new()
        .compile(&CompileRequest::new(
            &programs::load_balancer(1_000_000),
            "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
            figure1_network(),
        ))
        .unwrap();
    // Invariant (eq. 16): along each of the four Agg→ToR paths, conn_table
    // shards sum to the full size.
    let topo = figure1_network();
    let entries = |sw: &str| -> u64 {
        out.placement
            .switches
            .get(sw)
            .and_then(|p| p.extern_entries.get("conn_table"))
            .copied()
            .unwrap_or(0)
    };
    let _ = topo;
    for agg in ["Agg3", "Agg4"] {
        for tor in ["ToR3", "ToR4"] {
            let total = entries(agg) + entries(tor);
            assert!(
                total >= 1_000_000,
                "path {agg}->{tor} covers only {total} conn_table entries"
            );
        }
    }
}

#[test]
fn oversized_table_splits_when_one_switch_cannot_hold_it() {
    // 4M entries exceed a single ASIC's ~3M capacity (§7.2), so the table
    // must split across layers.
    let out = Compiler::new()
        .compile(&CompileRequest::new(
            &programs::load_balancer(4_000_000),
            "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
            figure1_network(),
        ))
        .expect("4M-entry LB must still be placeable by splitting");
    let holders: Vec<&String> = out
        .placement
        .switches
        .iter()
        .filter(|(_, p)| p.extern_entries.contains_key("conn_table"))
        .map(|(n, _)| n)
        .collect();
    assert!(
        holders.len() >= 2,
        "a 4M-entry table cannot fit one switch; holders: {holders:?}"
    );
    // The split produces bridge traffic: some switch forwards hit/miss info.
    let any_bridge = out
        .placement
        .switches
        .values()
        .any(|p| !p.carried_out.is_empty() || !p.carried_in.is_empty());
    assert!(
        any_bridge,
        "split tables require carried hit/miss information"
    );
}

#[test]
fn composition_single_switch_holds_five_algorithms() {
    let program = programs::service_chain();
    let algs = ["classifier", "firewall", "gateway", "chain_lb", "scheduler"];
    let scopes: String = algs
        .iter()
        .map(|a| format!("{a}: [ ToR1 | PER-SW | - ]"))
        .collect::<Vec<_>>()
        .join("\n");
    let out = Compiler::new()
        .compile(&CompileRequest::new(
            &program,
            &scopes,
            single("tofino-32q"),
        ))
        .expect("five algorithms fit one Tofino");
    let plan = out.placement.switches.get("ToR1").unwrap();
    assert_eq!(plan.instrs.len(), 5, "all five algorithms co-resident");
    // Prefix isolation (§7.3).
    for t in &plan.tables {
        assert!(algs.iter().any(|a| t.name.starts_with(a)), "{}", t.name);
    }
}

#[test]
fn generated_code_differs_per_language() {
    // The same program on Tofino vs Trident-4 produces different languages
    // with the NPL multi-lookup merge visible.
    let program = r#"
        pipeline[P]{f};
        algorithm f {
            extern list<bit[32] ip>[1024] check_ip;
            if (ipv4.src_ip in check_ip) { int_enable = 1; }
            if (ipv4.dst_ip in check_ip) { int_enable = 1; }
        }
    "#;
    let p4 = Compiler::new()
        .compile(&CompileRequest::new(
            program,
            "f: [ ToR1 | PER-SW | - ]",
            single("tofino-32q"),
        ))
        .unwrap();
    let npl = Compiler::new()
        .compile(&CompileRequest::new(
            program,
            "f: [ ToR1 | PER-SW | - ]",
            single("trident4"),
        ))
        .unwrap();
    let p4_code = &p4.artifacts[0].code;
    let npl_code = &npl.artifacts[0].code;
    assert!(p4_code.contains("table "), "P4 output: {p4_code}");
    assert!(
        npl_code.contains("logical_table "),
        "NPL output: {npl_code}"
    );
    // Figure 2's point: NPL uses one logical table with two lookups.
    assert!(npl_code.contains("_LOOKUP0"), "{npl_code}");
    assert!(npl_code.contains("_LOOKUP1"), "{npl_code}");
    let npl_summary = lyra_codegen::validate(&npl.artifacts[0]).unwrap();
    assert_eq!(npl_summary.lookups, 2);
    let p4_summary = lyra_codegen::validate(&p4.artifacts[0]).unwrap();
    assert!(npl_summary.tables < p4_summary.tables);
}

#[test]
fn control_plane_stubs_cover_every_extern() {
    let out = Compiler::new()
        .compile(&CompileRequest::new(
            &programs::load_balancer(1024),
            "loadbalancer: [ ToR1 | PER-SW | - ]",
            single("tofino-32q"),
        ))
        .unwrap();
    let stub = &out.artifacts[0].control_plane;
    for table in ["conn_table", "vip_table"] {
        assert!(stub.contains(&format!("{table}_entry_set")), "{stub}");
        assert!(stub.contains(&format!("{table}_entry_get")), "{stub}");
        assert!(stub.contains(&format!("{table}_entry_delete")), "{stub}");
    }
}

#[test]
fn infeasible_networks_fail_cleanly() {
    // All programmable capacity removed → clean error, not a panic.
    let mut topo = Topology::new();
    topo.add_switch("Core1", Layer::Core, "tomahawk");
    let err = Compiler::new()
        .compile(&CompileRequest::new(
            "pipeline[P]{a}; algorithm a { x = 1; }",
            "a: [ Core* | PER-SW | - ]",
            topo,
        ))
        .unwrap_err();
    assert!(err.to_string().contains("programmable"));
}

#[test]
fn figure5a_wide_compare_splits_on_p416() {
    // `if (smac == dmac)` on 48-bit MACs must split on chips whose ALUs
    // compare at most 44/48 bits (Figure 5(a)).
    let program = r#"
        header_type ethernet_t {
            fields {
                bit[48] src_mac;
                bit[48] dst_mac;
            }
        }
        parser_node start { extract(ethernet); }
        pipeline[P]{cmp};
        algorithm cmp {
            if (ethernet.src_mac == ethernet.dst_mac) {
                drop();
            }
        }
    "#;
    let out = Compiler::new()
        .compile(&CompileRequest::new(
            program,
            "cmp: [ ToR1 | PER-SW | - ]",
            single("silicon-one"),
        ))
        .unwrap();
    let code = &out.artifacts[0].code;
    assert!(
        code.contains("&&"),
        "48-bit comparison must split into slice comparisons:\n{code}"
    );
}

#[test]
fn recirculation_packs_long_chains() {
    // A dependency chain longer than the 12-stage Tofino 64Q pipeline:
    // infeasible in one pass, feasible with one recirculation (§8).
    let mut body = String::from("    v0 = ipv4.src_ip;\n");
    for i in 1..=14 {
        body.push_str(&format!("    c{i} = v{} == {i};\n", i - 1));
        body.push_str(&format!(
            "    if (c{i}) {{\n        v{i} = v{} + {i};\n    }}\n",
            i - 1
        ));
    }
    let program = format!("pipeline[P]{{deep}};\nalgorithm deep {{\n{body}}}\n");
    let req = |topology| CompileRequest::new(&program, "deep: [ ToR1 | PER-SW | - ]", topology);

    let without = Compiler::new().compile(&req(single("tofino-64q")));
    assert!(
        without.is_err(),
        "a 15-table chain cannot fit 12 stages in one pass"
    );

    let with = Compiler::new()
        .with_recirculation(true)
        .compile(&req(single("tofino-64q")))
        .expect("recirculation doubles the usable depth");
    let code = &with.artifacts[0].code;
    assert!(
        code.contains("recirculate"),
        "second pass must be requested:\n{code}"
    );
}

#[test]
fn stage_detail_mode_places_tables_in_stages() {
    // The eqs. 13–15 encoding: dependent tables occupy strictly later
    // stages; everything still fits a Tofino for a moderate program.
    let program = r#"
        pipeline[P]{staged};
        algorithm staged {
            extern dict<bit[32] k1, bit[32] v1>[2048] first;
            extern dict<bit[32] k2, bit[32] v2>[2048] second;
            if (x in first) {
                y = first[x];
                if (y in second) {
                    z = second[y];
                }
            }
        }
    "#;
    let out = Compiler::new()
        .with_stage_detail(true)
        .compile(&CompileRequest::new(
            program,
            "staged: [ ToR1 | PER-SW | - ]",
            single("tofino-32q"),
        ))
        .expect("stage-detail placement feasible");
    assert!(out.placement.switches["ToR1"].tables.len() >= 2);

    // And an over-deep chain still fails under stage detail on a shallow
    // chip (12 stages on Tofino 64Q).
    let mut body = String::from("    v0 = ipv4.src_ip;\n");
    for i in 1..=14 {
        body.push_str(&format!("    c{i} = v{} == {i};\n", i - 1));
        body.push_str(&format!(
            "    if (c{i}) {{\n        v{i} = v{} + {i};\n    }}\n",
            i - 1
        ));
    }
    let deep = format!("pipeline[P]{{deep}};\nalgorithm deep {{\n{body}}}\n");
    let err = Compiler::new()
        .with_stage_detail(true)
        .compile(&CompileRequest::new(
            &deep,
            "deep: [ ToR1 | PER-SW | - ]",
            single("tofino-64q"),
        ));
    assert!(err.is_err(), "15-deep chain cannot fit 12 stages");
}

#[test]
fn incremental_recompile_keeps_placement_stable() {
    // §8 "Synthesizing incremental changes": seeding the solver with the
    // previous placement keeps unchanged instructions where they were.
    let base = r#"
        pipeline[P]{inc};
        algorithm inc {
            extern dict<bit[32] k, bit[32] v>[512] table_a;
            bit[32] h;
            h = crc32_hash(ipv4.srcAddr);
            if (h in table_a) {
                ipv4.dstAddr = table_a[h];
            }
        }
    "#;
    // The change: one extra metadata assignment at the end.
    let changed = base.replace(
        "            if (h in table_a) {",
        "            md_extra = h + 1;\n            if (h in table_a) {",
    );
    let scopes = "inc: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";
    let first = Compiler::new()
        .compile(&CompileRequest::new(base, scopes, figure1_network()))
        .unwrap();
    let second = Compiler::new()
        .compile_incremental(
            &CompileRequest::new(&changed, scopes, figure1_network()),
            &first.placement,
        )
        .unwrap();
    // Every switch used before is still used, and extern shards stay put.
    for (sw, plan) in &first.placement.switches {
        if plan.instrs.is_empty() {
            continue;
        }
        let new_plan = second
            .placement
            .switches
            .get(sw)
            .unwrap_or_else(|| panic!("switch {sw} lost its program"));
        assert_eq!(
            plan.extern_entries, new_plan.extern_entries,
            "extern shards moved on {sw}"
        );
    }
}

// The shape claims of the paper's evaluation (§7, App. C) that do not
// depend on the clock. EXPERIMENTS.md records the measured numbers.

/// Tables the generated code of a corpus program uses on one `asic` switch.
fn generated_tables(entry: &CorpusEntry, asic: &str) -> u64 {
    let out = Compiler::new()
        .compile(&CompileRequest::new(
            &entry.source,
            &single_scopes(&entry.scopes),
            single(asic),
        ))
        .unwrap_or_else(|e| panic!("{} on {asic}: {e}", entry.name));
    let summaries = out
        .validate_all()
        .unwrap_or_else(|e| panic!("{} on {asic} invalid: {e}", entry.name));
    summaries[0].1.tables
}

/// Tables of the paper's manual P4₁₄ version of a corpus program.
fn manual_tables(program: &str) -> u64 {
    let rows = paper_baselines();
    let row = rows.iter().find(|r| r.program == program);
    row.unwrap_or_else(|| panic!("no Figure 9 baseline for {program}"))
        .manual_tables
}

#[test]
fn figure9_generated_p4_uses_no_more_tables_than_manual_p4() {
    for entry in figure9_corpus() {
        let ours = generated_tables(&entry, "tofino-32q");
        let manual = manual_tables(entry.name);
        assert!(
            ours <= manual,
            "{}: generated P4 uses {ours} tables, the manual P4_14 program {manual}",
            entry.name
        );
    }
}

#[test]
fn figure9_netcache_shows_the_largest_table_reduction() {
    // The paper: 96 manual tables → 12 generated (87.5 %).
    let reductions: Vec<(&str, f64)> = figure9_corpus()
        .iter()
        .map(|entry| {
            let ours = generated_tables(entry, "tofino-32q") as f64;
            (entry.name, 1.0 - ours / manual_tables(entry.name) as f64)
        })
        .collect();
    let netcache = reductions.iter().find(|r| r.0 == "NetCache").unwrap().1;
    assert!(netcache >= 0.5, "NetCache reduces tables by {netcache:.3}");
    for (program, reduction) in &reductions {
        assert!(
            *reduction <= netcache,
            "{program} reduces tables by {reduction:.3}, more than NetCache's {netcache:.3}"
        );
    }
}

#[test]
fn figure9_npl_needs_no_more_tables_than_p4() {
    // Figure 2's multi-lookup merge, over the whole corpus.
    for entry in figure9_corpus() {
        let p4 = generated_tables(&entry, "tofino-32q");
        let npl = generated_tables(&entry, "trident4");
        assert!(
            npl <= p4,
            "{}: {npl} NPL logical tables, {p4} P4 tables",
            entry.name
        );
    }
}

#[test]
fn figure10_per_sw_search_does_not_grow_with_the_pod() {
    // Figure 10's flat PER-SW curve, on counts instead of the clock: every
    // switch of one (ASIC, algorithm set) group shares one synthesis, so a
    // bigger pod makes no more search.
    let program = programs::netcache();
    let counts: Vec<(usize, u64, u64)> = [4, 8, 16, 32]
        .into_iter()
        .map(|k| {
            let out = Compiler::new()
                .compile(&CompileRequest::new(
                    &program,
                    "netcache: [ ToR*,Agg* | PER-SW | - ]",
                    fat_tree_pod(k, "tofino-32q", "trident4"),
                ))
                .unwrap_or_else(|e| panic!("NetCache PER-SW at k = {k}: {e}"));
            (k, out.solver.decisions, out.solver.conflicts)
        })
        .collect();
    for &(k, decisions, conflicts) in &counts[1..] {
        assert_eq!(
            (decisions, conflicts),
            (counts[0].1, counts[0].2),
            "(k, decisions, conflicts): {counts:?}, k = {k} differs from k = 4"
        );
    }
}

#[test]
fn parser_hoisting_strictly_reduces_tables() {
    // App. C.1: constant metadata stores move into the parser as
    // `set_metadata`, which the paper credits with halving its P4 INT
    // program's tables.
    let program = r#"
        pipeline[P]{int_like};
        algorithm int_like {
            int_version = 2;
            int_domain = 7;
            md_sum = int_version + ipv4.srcAddr;
            out = md_sum + int_domain;
        }
    "#;
    let tables = |hoisting: bool| {
        let out = Compiler::new()
            .with_parser_hoisting(hoisting)
            .compile(&CompileRequest::new(
                program,
                "int_like: [ ToR1 | PER-SW | - ]",
                single("tofino-32q"),
            ))
            .unwrap();
        out.validate_all().unwrap()[0].1.tables
    };
    let (with, without) = (tables(true), tables(false));
    assert!(
        with < without,
        "{with} tables with parser hoisting, {without} without"
    );
}

#[test]
fn min_switches_uses_no_more_switches_than_feasible() {
    // App. C.2: the objective programs fewer switches than plain
    // feasibility; this two-instruction program fits the path-entry pair.
    let program = r#"
        pipeline[P]{small};
        algorithm small {
            bit[32] x;
            x = ipv4.srcAddr + 1;
            ipv4.dstAddr = x;
        }
    "#;
    let switches = |objective| {
        let out = Compiler::new()
            .with_objective(objective)
            .compile(&CompileRequest::new(
                program,
                "small: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
                figure1_network(),
            ))
            .unwrap();
        out.placement.used_switches()
    };
    let feasible = switches(Objective::Feasible);
    let minimized = switches(Objective::MinSwitches);
    assert!(
        minimized <= feasible && minimized <= 2,
        "MinSwitches programs {minimized} switches, Feasible {feasible}"
    );
}
