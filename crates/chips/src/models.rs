//! Predefined ASIC models.
//!
//! Numbers follow the paper where it gives them (RMT reference from
//! Bosshart et al. and Jose et al.: 32 stages, 106 SRAM blocks of 1K×80b,
//! 16 TCAM blocks of 2K×40b, PHV 64×8b + 96×16b + 64×32b, 256 parser TCAM
//! entries, 8 tables/stage; "Tofino-064Q and Tofino-032Q have 12 and 24
//! match-action units"; "Both Tofino and Trident-4 ASICs can hold about
//! three million entries at most"; "the Tofino 64Q model has 4 pipelines").
//! Where vendors publish no numbers, values are chosen to sit in the same
//! regime — placement *behavior*, not absolute capacity, is what the
//! compiler exercises.

use crate::{ChipModel, MemBlock, PhvClass, TargetLang};

/// The published RMT reference architecture (the running example of §5.4
/// and Appendix A).
pub fn rmt_reference() -> ChipModel {
    ChipModel {
        name: "rmt".into(),
        lang: TargetLang::P414,
        programmable: true,
        stages: 32,
        max_tables_per_stage: 8,
        sram: MemBlock {
            blocks: 106,
            entries: 1024,
            width: 80,
        },
        tcam: MemBlock {
            blocks: 16,
            entries: 2048,
            width: 40,
        },
        phv: vec![
            PhvClass {
                width: 8,
                count: 64,
            },
            PhvClass {
                width: 16,
                count: 96,
            },
            PhvClass {
                width: 32,
                count: 64,
            },
        ],
        parser_tcam_entries: 256,
        atoms_per_stage: 4,
        max_actions_per_stage: 32,
        max_compare_width: 44,
        supports_multi_lookup: false,
        word_packing: true,
        pipeline_count: 1,
        supports_range_match: false,
        range_expansion: 4,
    }
}

/// Barefoot Tofino, 32Q model: 24 match-action units.
pub fn tofino_32q() -> ChipModel {
    ChipModel {
        name: "tofino-32q".into(),
        lang: TargetLang::P414,
        programmable: true,
        stages: 24,
        max_tables_per_stage: 8,
        sram: MemBlock {
            blocks: 106,
            entries: 1024,
            width: 80,
        },
        tcam: MemBlock {
            blocks: 24,
            entries: 2048,
            width: 44,
        },
        phv: vec![
            PhvClass {
                width: 8,
                count: 64,
            },
            PhvClass {
                width: 16,
                count: 96,
            },
            PhvClass {
                width: 32,
                count: 64,
            },
        ],
        parser_tcam_entries: 256,
        atoms_per_stage: 4,
        max_actions_per_stage: 32,
        max_compare_width: 44,
        supports_multi_lookup: false,
        word_packing: true,
        pipeline_count: 2,
        supports_range_match: true,
        range_expansion: 1,
    }
}

/// Barefoot Tofino, 64Q model: 12 match-action units, 4 pipelines.
pub fn tofino_64q() -> ChipModel {
    ChipModel {
        name: "tofino-64q".into(),
        stages: 12,
        pipeline_count: 4,
        ..tofino_32q()
    }
}

/// Broadcom Trident-4 (NPL): logical tables with multi-lookup support, no
/// word-packing, a flatter memory layout.
pub fn trident4() -> ChipModel {
    ChipModel {
        name: "trident4".into(),
        lang: TargetLang::Npl,
        programmable: true,
        stages: 16,
        max_tables_per_stage: 12,
        sram: MemBlock {
            blocks: 96,
            entries: 2048,
            width: 128,
        },
        tcam: MemBlock {
            blocks: 16,
            entries: 1024,
            width: 80,
        },
        phv: vec![
            PhvClass {
                width: 16,
                count: 128,
            },
            PhvClass {
                width: 32,
                count: 96,
            },
        ],
        parser_tcam_entries: 192,
        atoms_per_stage: 8,
        max_actions_per_stage: 48,
        max_compare_width: 64,
        supports_multi_lookup: true,
        word_packing: false,
        pipeline_count: 1,
        supports_range_match: false,
        range_expansion: 4,
    }
}

/// Cisco Silicon One (P4_16).
pub fn silicon_one() -> ChipModel {
    ChipModel {
        name: "silicon-one".into(),
        lang: TargetLang::P416,
        programmable: true,
        stages: 20,
        max_tables_per_stage: 8,
        sram: MemBlock {
            blocks: 88,
            entries: 1024,
            width: 96,
        },
        tcam: MemBlock {
            blocks: 20,
            entries: 2048,
            width: 48,
        },
        phv: vec![
            PhvClass {
                width: 8,
                count: 48,
            },
            PhvClass {
                width: 16,
                count: 96,
            },
            PhvClass {
                width: 32,
                count: 72,
            },
        ],
        parser_tcam_entries: 224,
        atoms_per_stage: 4,
        max_actions_per_stage: 32,
        // The paper's "ASIC-X" cannot compare longer-than-44-bit variables
        // (Figure 5(a)); we give Silicon One that constraint so the
        // comparison-splitting path is exercised on a P4_16 target.
        max_compare_width: 44,
        supports_multi_lookup: false,
        word_packing: true,
        pipeline_count: 2,
        supports_range_match: false,
        range_expansion: 4,
    }
}

/// Broadcom Tomahawk: high-throughput, fixed-function — Lyra cannot place
/// code on it (it appears in topologies as a transit-only core switch).
pub fn tomahawk() -> ChipModel {
    ChipModel {
        name: "tomahawk".into(),
        lang: TargetLang::Npl,
        programmable: false,
        stages: 0,
        max_tables_per_stage: 0,
        sram: MemBlock {
            blocks: 0,
            entries: 0,
            width: 1,
        },
        tcam: MemBlock {
            blocks: 0,
            entries: 0,
            width: 1,
        },
        phv: Vec::new(),
        parser_tcam_entries: 0,
        atoms_per_stage: 0,
        max_actions_per_stage: 0,
        max_compare_width: 0,
        supports_multi_lookup: false,
        word_packing: false,
        pipeline_count: 1,
        supports_range_match: false,
        range_expansion: 1,
    }
}

/// Look up a model by the name used in `lyra-topo` switch descriptions.
pub fn by_name(name: &str) -> Option<ChipModel> {
    match name {
        "rmt" => Some(rmt_reference()),
        "tofino-32q" => Some(tofino_32q()),
        "tofino-64q" => Some(tofino_64q()),
        "trident4" => Some(trident4()),
        "silicon-one" => Some(silicon_one()),
        "tomahawk" => Some(tomahawk()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("tofino-32q").unwrap().stages, 24);
        assert_eq!(by_name("tofino-64q").unwrap().stages, 12);
        assert!(by_name("banana").is_none());
    }

    #[test]
    fn paper_model_facts() {
        // "Tofino-064Q and Tofino-032Q have 12 and 24 match-action units".
        assert_eq!(tofino_64q().stages, 12);
        assert_eq!(tofino_32q().stages, 24);
        // "the Tofino 64Q model has 4 pipelines".
        assert_eq!(tofino_64q().pipeline_count, 4);
        // RMT reference (Appendix A): stages, blocks, PHV, parser TCAM.
        let rmt = rmt_reference();
        assert_eq!(rmt.stages, 32);
        assert_eq!(rmt.sram.blocks, 106);
        assert_eq!(rmt.tcam.blocks, 16);
        assert_eq!(rmt.parser_tcam_entries, 256);
        assert_eq!(rmt.max_tables_per_stage, 8);
        let phv_bits: u32 = rmt.phv.iter().map(|c| c.width * c.count).sum();
        assert_eq!(phv_bits, 4096); // "In total, the width of the PHV is 4Kb"
    }

    #[test]
    fn npl_differences() {
        let t4 = trident4();
        assert_eq!(t4.lang, TargetLang::Npl);
        assert!(t4.supports_multi_lookup);
        assert!(!tofino_32q().supports_multi_lookup);
    }

    #[test]
    fn tomahawk_not_programmable() {
        assert!(!tomahawk().programmable);
        assert!(tofino_32q().programmable);
    }
}
