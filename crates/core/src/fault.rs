//! Failover recompilation: recompile a previously-working deployment onto
//! the surviving network after switch or link failures.
//!
//! The entry point is [`Compiler::recompile_for_faults`]: given the
//! original [`CompileRequest`], its successful [`CompileOutput`], and a
//! [`FaultSet`], it degrades the topology, checks each algorithm scope's
//! survivability ([`scope_health`]), and recompiles against the survivors
//! from the prior placement. Under [`crate::Objective::Feasible`] the prior
//! placement restricted to the survivors is verified against the survivor
//! model and returned unsearched ([`crate::SolveRoute::CarriedOver`]), so
//! instructions and shards on healthy switches stay put: the
//! [`PlacementDiff`] the result carries has nothing `added`, and `removed`
//! and `resharded` name dead switches only. Under an optimizing objective
//! the survivors are searched cold.

use std::collections::BTreeMap;

use lyra_diag::{codes, Diagnostic};
use lyra_ir::InstrId;
use lyra_synth::Placement;
use lyra_topo::{scope_health, DegradeReport, FaultSet, ScopeHealth};

use crate::{CompileError, CompileOutput, CompileRequest, Compiler, SCOPES_SOURCE};

/// How one switch-held table entry (or epoch tag) diverged from the
/// controller-expected state — the drift classes the anti-entropy audit
/// ([`crate::Runtime::audit_switches`]) detects and repairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// The controller expects the entry; the switch lost it (bit rot,
    /// reboot from stale flash, an operator delete behind the
    /// controller's back).
    Missing,
    /// The switch holds an entry the controller never installed.
    Extra,
    /// The entry exists on both sides with different values (a stale
    /// value from an earlier epoch that never got overwritten).
    Stale,
    /// The switch's epoch tag regressed from the deployment epoch (a
    /// reboot into an old image); its whole shard is suspect.
    StaleEpoch,
}

impl DriftKind {
    /// Stable name for reports and logs.
    pub fn name(&self) -> &'static str {
        match self {
            DriftKind::Missing => "missing",
            DriftKind::Extra => "extra",
            DriftKind::Stale => "stale",
            DriftKind::StaleEpoch => "stale-epoch",
        }
    }
}

/// One drifted entry (or epoch tag) found by the anti-entropy audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftFinding {
    /// The switch whose held state diverged.
    pub switch: String,
    /// The extern table the entry belongs to (empty for
    /// [`DriftKind::StaleEpoch`], which is per-switch).
    pub table: String,
    /// The drifted key (0 for [`DriftKind::StaleEpoch`]).
    pub key: u64,
    /// How it diverged.
    pub kind: DriftKind,
    /// The value the controller expects (`None` for
    /// [`DriftKind::Extra`]).
    pub expected: Option<u64>,
    /// The value the switch holds (`None` for [`DriftKind::Missing`]).
    pub found: Option<u64>,
}

/// A deliberate switch-state corruption, for seeding drift in audit
/// tests. Applied behind the
/// controller's back with [`crate::Runtime::inject_drift`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriftOp {
    /// Silently delete an entry the controller installed.
    Remove {
        /// Table to corrupt.
        table: String,
        /// Key to delete.
        key: u64,
    },
    /// Overwrite an installed entry's value.
    Corrupt {
        /// Table to corrupt.
        table: String,
        /// Key whose value to overwrite.
        key: u64,
        /// The wrong value.
        value: u64,
    },
    /// Insert an entry the controller never installed.
    Insert {
        /// Table to pollute.
        table: String,
        /// The foreign key.
        key: u64,
        /// Its value.
        value: u64,
    },
    /// Regress the switch's epoch tag (simulates a reboot into an old
    /// image).
    RegressEpoch,
}

/// One extern whose shard layout changed between two placements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternShardChange {
    /// Switch whose hosted entry count changed.
    pub switch: String,
    /// Entries hosted before the fault (0 = not hosted).
    pub before: u64,
    /// Entries hosted after failover recompilation (0 = evicted).
    pub after: u64,
}

/// The churn between a prior placement and its failover recompilation:
/// which instructions each switch gained or lost, and which extern tables
/// were re-sharded. This is what a control plane must push to converge the
/// network onto the new placement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementDiff {
    /// Switch → algorithm → instructions newly deployed there.
    pub added: BTreeMap<String, BTreeMap<String, Vec<InstrId>>>,
    /// Switch → algorithm → instructions no longer deployed there (includes
    /// everything that was on a failed switch).
    pub removed: BTreeMap<String, BTreeMap<String, Vec<InstrId>>>,
    /// Extern name → per-switch entry-count changes.
    pub resharded: BTreeMap<String, Vec<ExternShardChange>>,
}

impl PlacementDiff {
    /// Diff two placements (instruction deployment and extern sharding).
    pub fn between(prior: &Placement, new: &Placement) -> Self {
        let mut diff = PlacementDiff::default();
        let switches: std::collections::BTreeSet<&String> =
            prior.switches.keys().chain(new.switches.keys()).collect();
        for &sw in &switches {
            let old_plan = prior.switches.get(sw);
            let new_plan = new.switches.get(sw);
            let algs: std::collections::BTreeSet<&String> = old_plan
                .iter()
                .flat_map(|p| p.instrs.keys())
                .chain(new_plan.iter().flat_map(|p| p.instrs.keys()))
                .collect();
            for &alg in &algs {
                let olds: std::collections::BTreeSet<InstrId> = old_plan
                    .and_then(|p| p.instrs.get(alg))
                    .map(|is| is.iter().copied().collect())
                    .unwrap_or_default();
                let news: std::collections::BTreeSet<InstrId> = new_plan
                    .and_then(|p| p.instrs.get(alg))
                    .map(|is| is.iter().copied().collect())
                    .unwrap_or_default();
                let added: Vec<InstrId> = news.difference(&olds).copied().collect();
                let removed: Vec<InstrId> = olds.difference(&news).copied().collect();
                if !added.is_empty() {
                    diff.added
                        .entry(sw.clone())
                        .or_default()
                        .insert(alg.clone(), added);
                }
                if !removed.is_empty() {
                    diff.removed
                        .entry(sw.clone())
                        .or_default()
                        .insert(alg.clone(), removed);
                }
            }
            // Extern sharding changes on this switch.
            let externs: std::collections::BTreeSet<&String> = old_plan
                .iter()
                .flat_map(|p| p.extern_entries.keys())
                .chain(new_plan.iter().flat_map(|p| p.extern_entries.keys()))
                .collect();
            for &e in &externs {
                let before = old_plan
                    .and_then(|p| p.extern_entries.get(e))
                    .copied()
                    .unwrap_or(0);
                let after = new_plan
                    .and_then(|p| p.extern_entries.get(e))
                    .copied()
                    .unwrap_or(0);
                if before != after {
                    diff.resharded
                        .entry(e.clone())
                        .or_default()
                        .push(ExternShardChange {
                            switch: sw.clone(),
                            before,
                            after,
                        });
                }
            }
        }
        diff
    }

    /// True when the new placement is identical to the prior one.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.resharded.is_empty()
    }

    /// Total instructions that changed host (added plus removed across all
    /// switches) — the headline churn number.
    pub fn total_churn(&self) -> usize {
        self.added
            .values()
            .chain(self.removed.values())
            .flat_map(|per_alg| per_alg.values())
            .map(|is| is.len())
            .sum()
    }

    /// Total table entries the re-shard moves: the sum of per-switch entry
    /// count deltas across every re-sharded extern. This is the number a
    /// delta rollout's wire traffic scales with, so a failover recompile
    /// keeps it proportional to what the fault destroyed — not the fleet's
    /// total entry count.
    pub fn entry_churn(&self) -> u64 {
        self.resharded
            .values()
            .flatten()
            .map(|c| c.before.abs_diff(c.after))
            .sum()
    }
}

/// A successful failover recompilation.
#[derive(Debug)]
pub struct FaultRecompile {
    /// The new compilation, against the surviving topology. Its
    /// [`CompileOutput::degraded`] field reports any watchdog fallback, as
    /// for a normal compile.
    pub output: CompileOutput,
    /// Churn between the prior placement and the new one.
    pub diff: PlacementDiff,
    /// What the fault set did to the topology (survivor network, removed
    /// elements, connected components).
    pub report: DegradeReport,
    /// Per-algorithm scope survivability under the fault set (every entry
    /// is survivable, or the recompile would have failed).
    pub scope_health: BTreeMap<String, ScopeHealth>,
}

impl Compiler {
    /// Recompile `req` (which previously produced `prior`) onto the network
    /// surviving `faults`, from the prior placement: healthy switches keep
    /// their code and shards (always under `Feasible`, wherever the
    /// constraints still allow under an optimizing objective).
    ///
    /// Fails with [`CompileError::Scope`] when the fault set names unknown
    /// elements (`LYR0205`), leaves some algorithm's scope with no
    /// surviving switch (`LYR0551`), or leaves its region partitioned with
    /// no surviving flow path (`LYR0552`). Scopes that merely *shrank*
    /// recompile onto the survivors; MULTI-SW direction endpoints that died
    /// are dropped rather than rejected (see
    /// [`lyra_topo::resolve_scope_degraded`]).
    pub fn recompile_for_faults(
        &self,
        req: &CompileRequest,
        prior: &CompileOutput,
        faults: &FaultSet,
    ) -> Result<FaultRecompile, CompileError> {
        // A fault set naming elements outside the topology is a caller bug,
        // not a degraded network — reject it before touching anything.
        let unknown = faults.unknown_elements(&req.topology);
        if !unknown.is_empty() {
            return Err(CompileError::Scope(
                unknown
                    .into_iter()
                    .map(|n| {
                        Diagnostic::error(
                            codes::SCOPE_UNKNOWN_SWITCH,
                            format!("fault set names unknown switch `{n}`"),
                        )
                    })
                    .collect(),
            ));
        }

        let report = req.topology.degrade(faults);

        // Classify every scope's survivability against the *original*
        // topology (scope health needs the pre-fault paths to know what was
        // lost) and refuse outright-dead scopes with fault-model codes.
        let specs = lyra_lang::parse_scopes(req.scopes).map_err(|e| {
            CompileError::Scope(vec![e.to_diagnostic().attach_source(SCOPES_SOURCE)])
        })?;
        let mut health = BTreeMap::new();
        let mut dead: Vec<Diagnostic> = Vec::new();
        for spec in &specs {
            let resolved = lyra_topo::resolve_scope(&req.topology, spec).map_err(|e| {
                CompileError::Scope(vec![e.to_diagnostic().attach_source(SCOPES_SOURCE)])
            })?;
            let h = scope_health(&req.topology, &resolved, faults);
            match &h {
                ScopeHealth::Unreachable => dead.push(
                    Diagnostic::error(
                        codes::FAULT_UNREACHABLE,
                        format!(
                            "every switch in the scope of `{}` failed; the algorithm cannot \
                             be deployed anywhere",
                            spec.algorithm
                        ),
                    )
                    .with_anonymous_span(spec.span)
                    .attach_source(SCOPES_SOURCE),
                ),
                ScopeHealth::Partitioned => dead.push(
                    Diagnostic::error(
                        codes::FAULT_PARTITIONED,
                        format!(
                            "the scope of `{}` survives but no flow path through it does; \
                             traffic cannot traverse the algorithm",
                            spec.algorithm
                        ),
                    )
                    .with_anonymous_span(spec.span)
                    .attach_source(SCOPES_SOURCE),
                ),
                ScopeHealth::Intact | ScopeHealth::Degraded { .. } => {}
            }
            health.insert(spec.algorithm.clone(), h);
        }
        if !dead.is_empty() {
            return Err(CompileError::Scope(dead));
        }

        // Recompile against the survivors, seeded with the prior placement
        // (lenient scope resolution tolerates dead direction endpoints).
        let degraded_req = CompileRequest {
            program: req.program,
            scopes: req.scopes,
            topology: report.topology.clone(),
        };
        let output = self.compile_inner(&degraded_req, Some(&prior.placement), true)?;
        let diff = PlacementDiff::between(&prior.placement, &output.placement);
        Ok(FaultRecompile {
            output,
            diff,
            report,
            scope_health: health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_topo::figure1_network;

    const LB: &str = r#"
        pipeline[LB]{loadbalancer};
        algorithm loadbalancer {
            extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
            bit[32] hash;
            hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
            if (hash in conn_table) {
                ipv4.dstAddr = conn_table[hash];
            }
        }
    "#;
    const LB_SCOPES: &str =
        "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";

    fn lb_request() -> CompileRequest<'static> {
        CompileRequest::new(LB, LB_SCOPES, figure1_network())
    }

    #[test]
    fn empty_fault_set_recompiles_with_zero_instruction_churn() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let r = compiler
            .recompile_for_faults(&req, &prior, &FaultSet::new())
            .unwrap();
        // Same topology, seeded with the same placement: nothing moves.
        assert!(r.diff.is_empty(), "expected zero churn, got {:?}", r.diff);
        assert_eq!(r.report.removed_switches.len(), 0);
        assert!(r.scope_health["loadbalancer"].survivable());
    }

    #[test]
    fn failover_replan_moves_only_the_dead_switchs_entries() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let shard = |placement: &lyra_synth::Placement, sw: &str| -> u64 {
            placement
                .switches
                .get(sw)
                .and_then(|p| p.extern_entries.get("conn_table"))
                .copied()
                .unwrap_or(0)
        };
        let lost = shard(&prior.placement, "Agg3");
        assert!(lost > 0, "Agg3 must hold a shard for this test to bite");
        let faults = FaultSet::new().with_switch("Agg3");
        let r = compiler
            .recompile_for_faults(&req, &prior, &faults)
            .unwrap();
        // The carried-over placement keeps every surviving shard where it
        // was: churn counts the dead switch's entries leaving — at most
        // 2x the lost shard if they also had to land on survivors — and
        // nothing else. A from-scratch solve is free to re-deal all 1024
        // entries.
        let churn = r.diff.entry_churn();
        assert!(
            churn <= 2 * lost,
            "re-plan moved {churn} entry-slots but Agg3 only held {lost}: {:?}",
            r.diff.resharded
        );
        // Survivors that are not absorbing the lost shard keep their exact
        // counts — specifically, no surviving switch shrinks.
        for change in r.diff.resharded.values().flatten() {
            if change.switch != "Agg3" {
                assert!(
                    change.after >= change.before,
                    "survivor `{}` shed entries ({} -> {}) during failover",
                    change.switch,
                    change.before,
                    change.after
                );
            }
        }
    }

    #[test]
    fn agg3_failure_moves_code_off_the_dead_switch() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let faults = FaultSet::new().with_switch("Agg3");
        let r = compiler
            .recompile_for_faults(&req, &prior, &faults)
            .unwrap();
        assert_eq!(r.report.removed_switches, vec!["Agg3".to_string()]);
        // The new placement never uses the dead switch…
        assert!(!r.output.placement.switches.contains_key("Agg3"));
        // …and the surviving deployment still hosts the full conn_table on
        // every remaining flow path.
        let total: u64 = r
            .output
            .placement
            .switches
            .values()
            .filter_map(|p| p.extern_entries.get("conn_table"))
            .sum();
        assert!(total >= 1024, "conn_table entries after failover: {total}");
        // Anything that was on Agg3 shows up as removed churn.
        if prior.placement.switches.contains_key("Agg3") {
            assert!(r.diff.removed.contains_key("Agg3") || r.diff.total_churn() == 0);
        }
        assert!(matches!(
            r.scope_health["loadbalancer"],
            ScopeHealth::Degraded { .. }
        ));
    }

    #[test]
    fn unreachable_scope_fails_with_fault_code() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let faults = FaultSet::new()
            .with_switch("Agg3")
            .with_switch("Agg4")
            .with_switch("ToR3")
            .with_switch("ToR4");
        let err = compiler
            .recompile_for_faults(&req, &prior, &faults)
            .unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| d.code == Some(codes::FAULT_UNREACHABLE)));
    }

    #[test]
    fn partitioned_scope_fails_with_fault_code() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        // Both Aggs die: the ToRs survive but no Agg→ToR path exists.
        let faults = FaultSet::new().with_switch("Agg3").with_switch("Agg4");
        let err = compiler
            .recompile_for_faults(&req, &prior, &faults)
            .unwrap_err();
        assert!(
            err.diagnostics()
                .iter()
                .any(|d| d.code == Some(codes::FAULT_PARTITIONED)),
            "got {:?}",
            err.diagnostics()
        );
    }

    #[test]
    fn unknown_fault_element_is_rejected() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let err = compiler
            .recompile_for_faults(&req, &prior, &FaultSet::new().with_switch("Banana"))
            .unwrap_err();
        assert_eq!(err.diagnostics()[0].code, Some(codes::SCOPE_UNKNOWN_SWITCH));
    }

    #[test]
    fn placement_diff_reports_moves_and_resharding() {
        use lyra_synth::{Placement, SwitchPlan};
        let mut prior = Placement::default();
        let mut a = SwitchPlan::default();
        a.instrs.insert("lb".into(), vec![InstrId(0), InstrId(1)]);
        a.extern_entries.insert("t".into(), 1024);
        prior.switches.insert("Agg3".into(), a);

        let mut new = Placement::default();
        let mut b = SwitchPlan::default();
        b.instrs.insert("lb".into(), vec![InstrId(0), InstrId(1)]);
        b.extern_entries.insert("t".into(), 1024);
        new.switches.insert("Agg4".into(), b);

        let diff = PlacementDiff::between(&prior, &new);
        assert!(!diff.is_empty());
        assert_eq!(diff.total_churn(), 4); // 2 removed + 2 added
        assert_eq!(diff.removed["Agg3"]["lb"].len(), 2);
        assert_eq!(diff.added["Agg4"]["lb"].len(), 2);
        let shards = &diff.resharded["t"];
        assert!(shards.iter().any(|c| c.switch == "Agg3" && c.after == 0));
        assert!(shards.iter().any(|c| c.switch == "Agg4" && c.before == 0));
    }
}
