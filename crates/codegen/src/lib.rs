#![warn(missing_docs)]
//! # lyra-codegen — the translator (§5.7–§5.8)
//!
//! Turns a solved [`Placement`](lyra_synth::Placement) into runnable
//! chip-specific code: P4₁₄ for Tofino/RMT switches, P4₁₆ for Silicon One,
//! and NPL for Trident-4. Also generates the "empty" Python control-plane
//! stubs of §5.8 (one entry set/get pair per extern table) and structural
//! validators that stand in for the vendor compilers. The oracle's
//! artifact parsers ([`oracle::parse`]) are the one reader of emitted
//! code: the validators check declaration/reference consistency on the
//! model they return and count the tables/actions/registers reported in
//! Figure 9 from it.

pub mod control;
pub mod emit;
pub mod npl;
pub mod oracle;
pub mod p414;
pub mod p416;
pub mod validate;

pub use control::control_plane_stub;
pub use emit::{generate, Artifact, CodegenError};
pub use validate::{validate, CodeSummary, ValidateError};

#[cfg(test)]
mod tests {
    use crate::emit::generate;
    use lyra_ir::frontend;
    use lyra_lang::parse_scopes;
    use lyra_synth::{synthesize, Backend, EncodeOptions};
    use lyra_topo::{figure1_network, resolve_scope};

    #[test]
    fn end_to_end_generates_p4_and_npl() {
        let ir = frontend(
            r#"
            pipeline[LB]{loadbalancer};
            algorithm loadbalancer {
                extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
                bit[32] hash;
                hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
                if (hash in conn_table) {
                    ipv4.dstAddr = conn_table[hash];
                }
            }
            "#,
        )
        .unwrap();
        let topo = figure1_network();
        let scopes = parse_scopes(
            "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
        )
        .unwrap();
        let resolved: Vec<_> = scopes
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        let res = synthesize(
            &ir,
            &topo,
            &resolved,
            &EncodeOptions::default(),
            &Backend::Native,
        )
        .unwrap();
        let artifacts = generate(&ir, &topo, &res).unwrap();
        assert!(!artifacts.is_empty());
        for a in &artifacts {
            let summary = crate::validate::validate(a).unwrap_or_else(|e| {
                panic!(
                    "artifact for {} failed validation: {e}\n{}",
                    a.switch, a.code
                )
            });
            assert!(
                summary.tables >= 1,
                "{} has no tables\n{}",
                a.switch,
                a.code
            );
            assert!(!a.control_plane.is_empty());
        }
    }
}
