//! Golden-shape tests for the code emitters: for known inputs, the emitted
//! P4₁₄ / P4₁₆ / NPL must contain the exact structural elements the paper's
//! examples show (Figure 2's one-logical-table-two-lookups NPL, the
//! conn_table P4 shape, hash field lists, register primitives, bridge
//! headers).

use lyra::{CompileRequest, Compiler};
use lyra_topo::{Layer, Topology};

fn single(asic: &str) -> Topology {
    let mut t = Topology::new();
    t.add_switch("ToR1", Layer::ToR, asic);
    t
}

fn compile_on(program: &str, alg: &str, asic: &str) -> String {
    let out = Compiler::new()
        .compile(&CompileRequest::new(
            program,
            &format!("{alg}: [ ToR1 | PER-SW | - ]"),
            single(asic),
        ))
        .unwrap_or_else(|e| panic!("{alg} on {asic}: {e}"));
    out.artifacts[0].code.clone()
}

const LB: &str = r#"
    header_type ipv4_t { fields { bit[32] srcAddr; bit[32] dstAddr; } }
    parser_node start { extract(ipv4); }
    pipeline[LB]{lb};
    algorithm lb {
        extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
        bit[32] hash;
        hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
        if (hash in conn_table) {
            ipv4.dstAddr = conn_table[hash];
        }
    }
"#;

#[test]
fn p414_lb_shape() {
    let code = compile_on(LB, "lb", "tofino-32q");
    for needle in [
        "header_type ipv4_t {",
        "metadata lyra_metadata_t md;",
        "field_list lyra_fl_0 {",
        "field_list_calculation lyra_flc_0 {",
        "algorithm : crc32;",
        "modify_field_with_hash_based_offset(md.lb_hash, 0, lyra_flc_0,",
        "size : 1024;",
        "control ingress {",
    ] {
        assert!(code.contains(needle), "P4_14 missing `{needle}`:\n{code}");
    }
    // The conn_table table matches the computed hash and carries the
    // looked-up value as action data.
    assert!(code.contains("md.lb_hash : exact;"), "{code}");
    assert!(code.contains("val_ip"), "{code}");
}

#[test]
fn p416_lb_shape() {
    let code = compile_on(LB, "lb", "silicon-one");
    for needle in [
        "#include <core.p4>",
        "header ipv4_t {",
        "struct metadata_t {",
        "parser LyraParser",
        "control LyraIngress",
        "hash(md.lb_hash, HashAlgorithm.crc32,",
        "default_action = NoAction();",
        "apply {",
    ] {
        assert!(code.contains(needle), "P4_16 missing `{needle}`:\n{code}");
    }
}

#[test]
fn npl_lb_shape() {
    let code = compile_on(LB, "lb", "trident4");
    for needle in [
        "bus lyra_bus {",
        "logical_table lb_conn_table {",
        "table_type : hash;",
        "min_size : 1024;",
        "key_construct() {",
        "if (_LOOKUP0) {",
        "fields_assign() {",
        "program lyra_main {",
        "lb_conn_table.lookup(0);",
    ] {
        assert!(code.contains(needle), "NPL missing `{needle}`:\n{code}");
    }
}

#[test]
fn figure2_npl_two_lookups() {
    // Figure 2: P4 needs two tables; NPL uses one logical table with two
    // lookups on the same key space.
    let program = r#"
        header_type ipv4_t { fields { bit[32] src_ip; bit[32] dst_ip; } }
        parser_node start { extract(ipv4); }
        pipeline[P]{int_filter};
        algorithm int_filter {
            extern list<bit[32] ip>[1024] check_ip;
            if (ipv4.src_ip in check_ip) { int_enable = 1; }
            if (ipv4.dst_ip in check_ip) { int_enable = 1; }
        }
    "#;
    let npl = compile_on(program, "int_filter", "trident4");
    assert!(npl.contains("if (_LOOKUP0) {"), "{npl}");
    assert!(npl.contains("if (_LOOKUP1) {"), "{npl}");
    assert!(npl.matches("logical_table").count() == 1, "{npl}");
    assert!(npl.contains(".lookup(0);"), "{npl}");
    assert!(npl.contains(".lookup(1);"), "{npl}");

    let p4 = compile_on(program, "int_filter", "tofino-32q");
    assert!(
        p4.matches("\ntable ").count() >= 2,
        "P4 needs two tables:\n{p4}"
    );
}

#[test]
fn registers_emit_stateful_primitives() {
    let program = r#"
        pipeline[P]{ctr};
        algorithm ctr {
            global bit[32][256] pkt_count;
            bit[32] idx;
            idx = crc32_hash(flow_id);
            pkt_count[idx] = pkt_count[idx] + 1;
        }
    "#;
    let p414 = compile_on(program, "ctr", "tofino-32q");
    assert!(p414.contains("register pkt_count {"), "{p414}");
    assert!(p414.contains("width : 32;"), "{p414}");
    assert!(p414.contains("instance_count : 256;"), "{p414}");
    assert!(p414.contains("register_read("), "{p414}");
    assert!(p414.contains("register_write(pkt_count,"), "{p414}");

    let p416 = compile_on(program, "ctr", "silicon-one");
    assert!(p416.contains("register<bit<32>>(256) pkt_count;"), "{p416}");
    assert!(p416.contains("pkt_count.read("), "{p416}");
    assert!(p416.contains("pkt_count.write("), "{p416}");

    let npl = compile_on(program, "ctr", "trident4");
    assert!(npl.contains("logical_register pkt_count {"), "{npl}");
    assert!(npl.contains("num_entries : 256;"), "{npl}");
}

#[test]
fn bridge_header_emitted_for_split_placement() {
    use lyra_apps::programs;
    use lyra_topo::figure1_network;
    // Force a split: 4M entries exceed one ASIC.
    let out = Compiler::new()
        .compile(&CompileRequest::new(
            &programs::load_balancer(4_000_000),
            "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
            figure1_network(),
        ))
        .unwrap();
    // At least one artifact declares the bridge header carrying the
    // hit/miss bit between cooperating switches.
    let bridged = out
        .artifacts
        .iter()
        .any(|a| a.code.contains("lyra_bridge") || a.code.contains("bridge_"));
    assert!(bridged, "no artifact declares the bridge header");
}

#[test]
fn parser_hoisting_emits_set_metadata() {
    let program = r#"
        pipeline[P]{a};
        algorithm a {
            int_version = 2;
            out = int_version + ipv4.srcAddr;
        }
    "#;
    let code = compile_on(program, "a", "tofino-32q");
    assert!(
        code.contains("set_metadata(md.a_int_version, 2);"),
        "hoisted store must appear in the parser:\n{code}"
    );
}

#[test]
fn egress_only_builtins_land_in_egress_control() {
    // §8 multi-pipeline support: queueing information can only be gathered
    // in the egress pipeline, so the INT metadata table must be applied
    // there, not in ingress.
    let program = r#"
        pipeline[P]{qlen};
        algorithm qlen {
            if (probe == 1) {
                md_q = get_queue_len();
            }
            pre = flow + 1;
        }
    "#;
    let code = compile_on(program, "qlen", "tofino-32q");
    // Extract the two control bodies.
    let ingress = code
        .split("control ingress {")
        .nth(1)
        .unwrap()
        .split('}')
        .next()
        .unwrap();
    let egress = code
        .split("control egress {")
        .nth(1)
        .unwrap()
        .split('}')
        .next()
        .unwrap();
    assert!(
        !ingress.contains("apply(qlen_t0)") || !ingress.is_empty(),
        "sanity: ingress body parsed"
    );
    // The queue-length table is applied in egress; the plain computation in
    // ingress.
    let q_table_in_egress = egress.lines().any(|l| l.trim().starts_with("apply("));
    assert!(
        q_table_in_egress,
        "egress control must apply the queue-length table:\n{code}"
    );
    assert!(
        ingress.lines().any(|l| l.trim().starts_with("apply(")),
        "ingress still applies the rest:\n{code}"
    );
}

#[test]
fn match_kinds_flow_into_generated_code() {
    // Appendix D: LPM and range tables land in TCAM; a range table on a
    // chip without native range support still emits (the control plane
    // expands rules), and the solver accounts the expansion.
    let program = r#"
        header_type ipv4_t { fields { bit[32] dst_ip; bit[16] sport; } }
        parser_node start { extract(ipv4); }
        pipeline[P]{router};
        algorithm router {
            extern lpm<bit[32] dst, bit[32] nhop>[8192] route;
            extern range<bit[16] port, bit[8] class>[128] port_class;
            if (ipv4.dst_ip in route) {
                nh = route[ipv4.dst_ip];
            }
            if (ipv4.sport in port_class) {
                cls = port_class[ipv4.sport];
            }
        }
    "#;
    let p414 = compile_on(program, "router", "tofino-32q");
    assert!(p414.contains(": lpm;"), "{p414}");
    assert!(p414.contains(": range;"), "{p414}");

    let p416 = compile_on(program, "router", "silicon-one");
    assert!(p416.contains(": lpm;"), "{p416}");

    let npl = compile_on(program, "router", "trident4");
    assert!(npl.contains("table_type : tcam;"), "{npl}");
}

#[test]
fn oversized_tcam_table_rejected() {
    // A ternary table far beyond the chip's TCAM budget must be infeasible
    // on one switch.
    let program = r#"
        pipeline[P]{acl};
        algorithm acl {
            extern ternary<bit[32] src, bit[8] verdict>[10000000] big_acl;
            if (k in big_acl) { v = big_acl[k]; }
        }
    "#;
    let err = Compiler::new()
        .compile(&CompileRequest::new(
            program,
            "acl: [ ToR1 | PER-SW | - ]",
            single("tofino-32q"),
        ))
        .unwrap_err();
    assert!(err.to_string().contains("fit"), "{err}");
}

#[test]
fn npl_interleaved_statement_runs_in_previous_pass() {
    // Regression: `v4 = v4 | v3` sits between two lookups of the same
    // extern, so the merged logical table carries it in fields_assign.
    // Pass k's key is constructed before its fields_assign runs, so the
    // statement must be guarded by the *previous* pass (`_LOOKUP1`), not
    // the pass whose key it feeds — the oracle caught lookup 2 reading a
    // stale v4 under the old `_LOOKUP2` guard.
    let program = r#"
        pipeline[P]{a};
        algorithm a {
            extern dict<bit[32] k, bit[32] v>[64] t;
            if (v0 in t) { v4 = t[v0]; }
            v4 = v4 | v3;
            if (v4 in t) { v4 = t[v4]; }
        }
    "#;
    let code = compile_on(program, "a", "trident4");
    let stmt = code
        .find("lyra_bus.a_v4 = lyra_bus.a_v4 | lyra_bus.a_v3;")
        .unwrap_or_else(|| panic!("or-statement missing:\n{code}"));
    let guard = code[..stmt]
        .rfind("if (_LOOKUP")
        .map(|g| &code[g..g + "if (_LOOKUPn".len()])
        .expect("guarded statement");
    assert_eq!(guard, "if (_LOOKUP1", "wrong pass guard:\n{code}");
    // Pass 2 still reads the post-or v4 as its key.
    assert!(code.contains("if (_LOOKUP2)"), "{code}");
}
