#![warn(missing_docs)]
//! # lyra-chips — programmable switching ASIC resource models
//!
//! Describes the heterogeneous ASICs Lyra compiles to (§5.4, Appendix A):
//! the reference RMT architecture, Intel/Barefoot Tofino variants (32Q/64Q),
//! Broadcom Trident-4 (NPL), Cisco Silicon One, and the fixed-function
//! Tomahawk. Each [`ChipModel`] captures the resources the paper's SMT
//! encoding constrains:
//!
//! * match-action **stages** and the per-stage table budget;
//! * **SRAM/TCAM memory blocks** with word-packing math (eqs. 11–12);
//! * **PHV** word classes and the dynamic-programming packing strategies of
//!   Appendix A.3 (eqs. 9–10);
//! * **parser TCAM** entries (eqs. 7–8);
//! * **stateful atoms** (Domino-style `Pairs` units, Appendix A.5);
//! * language/architecture quirks: NPL multi-lookup tables, the maximum
//!   comparison width ("ASIC-X cannot support the comparison of
//!   longer-than-44-bit variables", Figure 5), ingress/egress pipeline
//!   split.

pub mod models;
pub mod phv;

pub use models::*;
pub use phv::{packing_strategies, PackingStrategy};

/// The chip-specific language a model is programmed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetLang {
    /// P4_14.
    P414,
    /// P4_16.
    P416,
    /// Broadcom NPL.
    Npl,
}

impl TargetLang {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TargetLang::P414 => "P4_14",
            TargetLang::P416 => "P4_16",
            TargetLang::Npl => "NPL",
        }
    }
}

/// A class of memory blocks within a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBlock {
    /// Number of blocks per stage.
    pub blocks: u64,
    /// Entries per block (`h` in eq. 11).
    pub entries: u64,
    /// Bit width per entry (`w` in eq. 11).
    pub width: u64,
}

impl MemBlock {
    /// Minimum blocks needed to hold `entries` rows of `width` bits, *with*
    /// the RMT word-packing trick (eq. 11): pack blocks horizontally so rows
    /// share block words.
    pub fn blocks_needed_packed(&self, entries: u64, width: u64) -> u64 {
        if entries == 0 || width == 0 {
            return 0;
        }
        let rows = entries.div_ceil(self.entries);
        (rows * width).div_ceil(self.width)
    }

    /// Minimum blocks without word-packing (eq. 12).
    pub fn blocks_needed_unpacked(&self, entries: u64, width: u64) -> u64 {
        if entries == 0 || width == 0 {
            return 0;
        }
        entries.div_ceil(self.entries) * width.div_ceil(self.width)
    }
}

/// One PHV word class: `count` words of `width` bits (Appendix A.3 — RMT has
/// 64×8b, 96×16b, 64×32b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhvClass {
    /// Word width in bits.
    pub width: u32,
    /// Number of words available.
    pub count: u32,
}

/// A programmable switching ASIC resource model.
///
/// The fields mirror the constraints of §5.4 and Appendix A. Models are
/// plain data — the SMT encoding in `lyra-synth` reads them; nothing here is
/// behavioral.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipModel {
    /// Model name (`tofino-32q`, `trident4`, …).
    pub name: String,
    /// Language the chip is programmed in.
    pub lang: TargetLang,
    /// False for fixed-function chips (Tomahawk): no Lyra code can deploy.
    pub programmable: bool,
    /// Match-action stages per pipeline (ingress and egress each get this
    /// many in the RMT model).
    pub stages: u32,
    /// Maximum tables per stage (RMT: 8, per Jose et al.).
    pub max_tables_per_stage: u32,
    /// SRAM block description.
    pub sram: MemBlock,
    /// TCAM block description.
    pub tcam: MemBlock,
    /// PHV word classes.
    pub phv: Vec<PhvClass>,
    /// Parser TCAM entries (RMT: 256).
    pub parser_tcam_entries: u32,
    /// Stateful atoms per stage (Appendix A.5).
    pub atoms_per_stage: u32,
    /// Maximum actions per stage.
    pub max_actions_per_stage: u32,
    /// Widest single comparison the ALUs support (Figure 5(a): some ASICs
    /// cap this below header-field widths, forcing comparison splitting).
    pub max_compare_width: u32,
    /// NPL-style multiple lookups into one logical table (§5.3, Figure 2).
    pub supports_multi_lookup: bool,
    /// Word-packing supported by the memory subsystem (Appendix A.4).
    pub word_packing: bool,
    /// Identical forwarding pipelines on the chip (§8: Tofino 64Q has 4).
    pub pipeline_count: u32,
    /// Native range-match support in the TCAM (Appendix D: chips without it
    /// get range rules expanded into multiple ternary rules).
    pub supports_range_match: bool,
    /// Expansion factor applied when a range rule must be converted to
    /// ternary rules.
    pub range_expansion: u64,
}

impl ChipModel {
    /// Total SRAM blocks across all stages.
    pub fn total_sram_blocks(&self) -> u64 {
        self.sram.blocks * self.stages as u64
    }

    /// Minimum memory blocks for a table of `entries`×`width` on this chip,
    /// honoring its word-packing capability.
    pub fn table_blocks(&self, entries: u64, width: u64) -> u64 {
        if self.word_packing {
            self.sram.blocks_needed_packed(entries, width)
        } else {
            self.sram.blocks_needed_unpacked(entries, width)
        }
    }

    /// Minimum TCAM blocks for a non-exact table of `entries`×`width`,
    /// after range expansion when the chip lacks native range matching.
    pub fn tcam_blocks(&self, entries: u64, width: u64, is_range: bool) -> u64 {
        let entries = if is_range && !self.supports_range_match {
            entries.saturating_mul(self.range_expansion.max(1))
        } else {
            entries
        };
        // TCAMs do not word-pack across rows.
        self.tcam.blocks_needed_unpacked(entries, width)
    }

    /// Total TCAM blocks across all stages.
    pub fn total_tcam_blocks(&self) -> u64 {
        self.tcam.blocks * self.stages as u64
    }

    /// Rough upper bound on exact-match entries of `width` bits the whole
    /// chip can hold (used for capacity sanity checks like the paper's
    /// "Both Tofino and Trident-4 ASICs can hold about three million entries
    /// at most").
    pub fn max_entries(&self, width: u64) -> u64 {
        if width == 0 {
            return 0;
        }
        let per_block_rows = self.sram.entries;
        let words_per_row = width.div_ceil(self.sram.width);
        self.total_sram_blocks() / words_per_row.max(1) * per_block_rows
    }

    /// Does a comparison of `width` bits need splitting on this chip
    /// (Figure 5(a))?
    #[cfg(test)]
    pub(crate) fn compare_needs_split(&self, width: u32) -> bool {
        width > self.max_compare_width
    }
}

/// Resource usage summary of a synthesized per-switch program — what
/// Figure 9 reports per program (tables, actions, registers) plus memory
/// accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Number of match-action (or logical) tables.
    pub tables: u64,
    /// Number of actions.
    pub actions: u64,
    /// Number of stateful registers.
    pub registers: u64,
    /// SRAM blocks consumed.
    pub sram_blocks: u64,
    /// Stages used.
    pub stages: u64,
    /// Parser TCAM entries used.
    pub parser_entries: u64,
    /// Longest table-dependency chain (NPL's "longest code path").
    pub longest_code_path: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::rmt_reference;

    #[test]
    fn word_packing_math_matches_paper_example() {
        // Appendix A.4: a 48-bit MAC in 80-bit-wide 1K blocks — one entry per
        // row unpacked; packing two blocks (160b) fits three per row.
        let blk = MemBlock {
            blocks: 106,
            entries: 1024,
            width: 80,
        };
        // 1024 entries × 48b: packed = ceil(1024/1024)*48/80 → ceil(48/80)=1.
        assert_eq!(blk.blocks_needed_packed(1024, 48), 1);
        // 3072 entries × 48b packed: rows=3, 3*48=144 → ceil(144/80)=2 blocks.
        assert_eq!(blk.blocks_needed_packed(3072, 48), 2);
        // Unpacked: 3 row-groups × 1 word = 3 blocks.
        assert_eq!(blk.blocks_needed_unpacked(3072, 48), 3);
    }

    #[test]
    fn zero_sized_tables_take_no_blocks() {
        let blk = MemBlock {
            blocks: 10,
            entries: 1024,
            width: 80,
        };
        assert_eq!(blk.blocks_needed_packed(0, 48), 0);
        assert_eq!(blk.blocks_needed_unpacked(1024, 0), 0);
    }

    #[test]
    fn compare_split_threshold() {
        let rmt = rmt_reference();
        assert!(!rmt.compare_needs_split(32));
        assert!(rmt.compare_needs_split(48)); // the Figure 5 MAC example
    }

    #[test]
    fn capacity_is_millions_of_entries() {
        // §7.2: "Both Tofino and Trident-4 ASICs can hold about three
        // million entries at most" — our models must be in that regime for
        // 64-bit-wide entries.
        for chip in [crate::models::tofino_32q(), crate::models::trident4()] {
            let cap = chip.max_entries(64);
            assert!(
                (2_000_000..=6_000_000).contains(&cap),
                "{} capacity {cap} outside the paper's regime",
                chip.name
            );
        }
    }
}
