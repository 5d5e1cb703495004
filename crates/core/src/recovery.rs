//! Controller restart recovery and switch-state anti-entropy.
//!
//! The rollout engine ([`crate::rollout`]) keeps switches epoch-coherent
//! while the controller stays alive. This module makes the control plane
//! survive its *own* failures:
//!
//! * **Restart recovery** ([`Runtime::recover`]): after a controller
//!   crash mid-rollout (injected by a
//!   [`CrashPlan`](crate::rollout::CrashPlan), `LYR0570`), the restarted
//!   controller replays the write-ahead intent log (`Txn::recovery`)
//!   and runs the rollout's own transaction machine from its state queries
//!   ([`ControlOp`](crate::ControlOp)`::Query`): the same commit round,
//!   rollback round and conclusion, through the same driver. Commit is
//!   driven only when the log proves it completable — a journaled commit
//!   decision *and* every switch answering with the staged (or already
//!   serving) epoch; anything less rolls back, reusing the journaled
//!   idempotency tokens so re-driven messages are duplicate-safe across
//!   the restart.
//! * **Anti-entropy** ([`Runtime::audit_switches`]): diffs
//!   controller-expected [`DataPlaneState`](lyra_ir::DataPlaneState)
//!   against switch-held state using per-table content digests,
//!   classifies drift ([`DriftKind`]: missing / extra / stale /
//!   stale-epoch), and issues minimal repair installs.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use lyra_diag::{codes, Diagnostic};
use lyra_ir::ExternTable;

use crate::agent::settle;
use crate::channel::{ControlChannel, Rng};
use crate::fault::{DriftFinding, DriftKind, DriftOp};
use crate::rollout::{Driver, IntentRecord, IntentStore, RolloutConfig, RolloutReport, Txn};
use crate::runtime::{Runtime, RuntimeError};
use crate::CompileOutput;

/// The outcome of one [`Runtime::audit_switches`] anti-entropy pass.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Per-table content digests compared (the cheap pass; only tables
    /// whose digests disagree are diffed key by key).
    pub digests_compared: u64,
    /// Every drifted entry / epoch tag found, in switch order.
    pub findings: Vec<DriftFinding>,
    /// Repairs issued (installs, removals, epoch-tag resets).
    pub repaired: u64,
    /// Switches that held at least one drifted entry.
    pub drifted_switches: Vec<String>,
    /// Structured diagnostics (`LYR0575` / `LYR0576`).
    pub diagnostics: Vec<Diagnostic>,
    /// End-to-end wall clock.
    pub elapsed: Duration,
}

impl AuditReport {
    /// True when switch-held state matched the controller's expectation
    /// everywhere.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Finding counts per drift class.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut c: BTreeMap<&'static str, usize> = BTreeMap::new();
        for f in &self.findings {
            *c.entry(f.kind.name()).or_default() += 1;
        }
        c
    }
}

impl<'a> Runtime<'a> {
    /// Restart recovery: replay the write-ahead intent log, query every
    /// switch's epoch state over `channel`, and drive any in-flight
    /// rollout to a deterministic all-commit or all-rollback outcome.
    ///
    /// The decision rule is conservative and deterministic:
    ///
    /// * **Commit** only when the journal holds a commit decision for the
    ///   in-flight epoch *and* every target switch answered the state
    ///   query with that epoch staged or already serving. Re-driven
    ///   commits reuse the journaled tokens, so switches that applied
    ///   them before the crash acknowledge without re-applying.
    /// * **Rollback** otherwise — including when the only evidence of the
    ///   in-flight rollout is switch-held staged state (an empty or
    ///   missing journal never drives a commit). Rollback messages get
    ///   the engine's 4x budget with out-of-band revert as the last
    ///   resort, exactly like a live rollout.
    ///
    /// The epoch allocator is restored past every journaled epoch, so burned
    /// epochs stay burned across the restart. Calling `recover` when nothing
    /// is in flight (or twice in a row) is a safe no-op. `new_output` is the
    /// compilation the crashed rollout was applying; a commit serves it.
    pub fn recover(
        &mut self,
        new_output: &'a CompileOutput,
        store: &mut dyn IntentStore,
        channel: &mut dyn ControlChannel,
        config: &RolloutConfig,
    ) -> Result<RolloutReport, RuntimeError> {
        let t0 = Instant::now();
        let records = store.load()?;

        // Burned epochs stay burned: restore the allocator past every
        // journaled epoch before anything else.
        let max_logged = records.iter().map(|r| r.epoch()).max().unwrap_or(0);
        self.epoch_counter = self.epoch_counter.max(max_logged);

        // No journal evidence? The switches themselves may still hold an
        // in-flight rollout (a crash with no intent store attached): any
        // staged or off-epoch state names the epoch to roll back, as a
        // `Begin` record would. Commit is never driven without a journaled
        // decision.
        let stray = || {
            let held = self.states.values().flat_map(|st| {
                let staged = st.staged().map(|(e, _)| e);
                [
                    Some(st.epoch()).filter(|e| *e != self.epoch),
                    staged.filter(|e| *e > self.epoch),
                ]
            });
            Some(IntentRecord::Begin {
                epoch: held.flatten().max()?,
                prior_epoch: self.epoch,
                targets: self.states.keys().cloned().collect(),
            })
        };
        let attempts = config.max_attempts;
        let tx = Txn::recovery(&records, attempts).or_else(|| Txn::recovery(&[stray()?], attempts));
        let Some(tx) = tx else {
            // Nothing in flight anywhere: drop any leftover tokens and
            // report the no-op.
            settle(&mut self.states, self.plane.as_deref(), None);
            return Ok(RolloutReport {
                replayed_records: records.len(),
                elapsed: t0.elapsed(),
                ..Default::default()
            });
        };
        self.epoch_counter = self.epoch_counter.max(tx.epoch);

        // From here on a recovery is the same transaction as a rollout,
        // started at its state queries. Journaling stays write-ahead — a
        // second crash must find the re-driven tokens too — and takes no
        // crash plan.
        let io = Driver {
            channel,
            store: Some(store),
            crash: None,
            config,
            rng: Rng::new(config.seed ^ tx.epoch.rotate_left(23) ^ 0x5eed_c0de),
            clock: t0,
        };
        let mut report = self.drive(tx, io, new_output)?;
        report.replayed_records = records.len();
        report.elapsed = t0.elapsed();
        Ok(report)
    }

    /// Anti-entropy reconciliation: diff controller-expected state
    /// against switch-held state and repair the drift in place.
    ///
    /// Per live switch, per extern table, a content digest of the
    /// expected and held shards is compared; only tables whose digests
    /// disagree are diffed key by key. Every divergence is classified
    /// ([`DriftKind`]) and repaired minimally — missing entries
    /// re-installed, foreign entries removed, stale values overwritten,
    /// regressed epoch tags reset. Globals are traffic-mutable and out
    /// of scope; extern tables are control-plane-owned ground truth.
    ///
    /// The repairs touch only runtime switch state; a
    /// [`crate::LiveTrafficPlane`] built afterwards serves them.
    pub fn audit_switches(&mut self) -> AuditReport {
        let t0 = Instant::now();
        let mut report = AuditReport::default();
        let deployment_epoch = self.epoch;
        let empty = ExternTable::new();
        for (sw, st) in self.states.iter_mut() {
            let before = report.findings.len();
            // Epoch-tag drift first: a regressed switch is reset to the
            // deployment epoch (its entries are repaired below anyway).
            if st.epoch() != deployment_epoch {
                report.findings.push(DriftFinding {
                    switch: sw.clone(),
                    table: String::new(),
                    key: 0,
                    kind: DriftKind::StaleEpoch,
                    expected: Some(deployment_epoch),
                    found: Some(st.epoch()),
                });
                st.reset_epoch(deployment_epoch);
                report.repaired += 1;
            }
            let expected = self.expected.get(sw);
            let exp_tables = expected.map(|dp| &dp.externs);
            let table_names: BTreeSet<String> = exp_tables
                .into_iter()
                .flat_map(|t| t.keys().cloned())
                .chain(st.dp.externs.keys().cloned())
                .collect();
            for table in &table_names {
                let exp = exp_tables.and_then(|t| t.get(table)).unwrap_or(&empty);
                let held = st.dp.externs.get(table).unwrap_or(&empty);
                report.digests_compared += 1;
                // FNV-1a over (key, value) in key order; the generated
                // control stubs' `<t>_state_digest()` mirrors the fold.
                if exp.digest() == held.digest() {
                    continue;
                }
                // Digest mismatch: structural diff of the shard —
                // O(pages + drifted entries) when expected and held state
                // still share pages, never worse than one sorted merge —
                // and collect the minimal repair set.
                let mut repairs: Vec<(u64, Option<u64>)> = Vec::new();
                exp.for_each_delta(held, |k, expect, found| {
                    let kind = match (expect, found) {
                        (Some(_), None) => DriftKind::Missing,
                        (None, Some(_)) => DriftKind::Extra,
                        (Some(_), Some(_)) => DriftKind::Stale,
                        (None, None) => return,
                    };
                    report.findings.push(DriftFinding {
                        switch: sw.clone(),
                        table: table.clone(),
                        key: k,
                        kind,
                        expected: expect,
                        found,
                    });
                    repairs.push((k, expect));
                });
                let shard = st.dp.externs.entry(table.clone()).or_default();
                for (k, v) in repairs {
                    match v {
                        Some(v) => shard.insert(k, v),
                        None => shard.remove(k),
                    };
                    report.repaired += 1;
                }
            }
            if report.findings.len() > before {
                report.drifted_switches.push(sw.clone());
            }
        }
        if !report.findings.is_empty() {
            let counts = report
                .counts()
                .into_iter()
                .map(|(k, v)| format!("{v} {k}"))
                .collect::<Vec<_>>()
                .join(", ");
            report.diagnostics.push(Diagnostic::warning(
                codes::DRIFT_DETECTED,
                format!(
                    "anti-entropy audit found {} drifted entries across {} switches ({counts})",
                    report.findings.len(),
                    report.drifted_switches.len()
                ),
            ));
            report.diagnostics.push(Diagnostic::warning(
                codes::DRIFT_REPAIRED,
                format!(
                    "issued {} minimal repairs; switch-held state matches the \
                     controller-expected state again",
                    report.repaired
                ),
            ));
        }
        report.elapsed = t0.elapsed();
        report
    }

    /// Corrupt switch-held state behind the controller's back — the
    /// seeded drift the anti-entropy audit exists to catch. Test-facing:
    /// a real deployment drifts on its own.
    pub fn inject_drift(&mut self, switch: &str, op: &DriftOp) -> Result<(), RuntimeError> {
        let st = self
            .states
            .get_mut(switch)
            .ok_or_else(|| RuntimeError::new(format!("unknown or failed switch `{switch}`")))?;
        match op {
            DriftOp::Remove { table, key } | DriftOp::Corrupt { table, key, .. } => {
                let what = if let DriftOp::Remove { .. } = op {
                    "remove"
                } else {
                    "corrupt"
                };
                let shard = st
                    .dp
                    .externs
                    .get_mut(table)
                    .filter(|t| t.contains_key(*key));
                let shard = shard.ok_or_else(|| {
                    RuntimeError::new(format!(
                        "switch `{switch}` holds no `{table}[{key}]` to {what}"
                    ))
                })?;
                match op {
                    DriftOp::Corrupt { value, .. } => shard.insert(*key, *value),
                    _ => shard.remove(*key),
                };
            }
            DriftOp::Insert { table, key, value } => {
                st.dp.install(table, *key, *value);
            }
            DriftOp::RegressEpoch => st.regress_epoch(),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{LossyChannel, ReliableChannel};
    use crate::rollout::{mint_token, CrashPlan, CrashPoint, FileIntentStore, MemIntentStore};
    use crate::{CompileRequest, Compiler};
    use lyra_ir::PacketState;
    use lyra_topo::{figure1_network, FaultSet};

    const LB: &str = r#"
        pipeline[LB]{loadbalancer};
        algorithm loadbalancer {
            extern dict<bit[32] h, bit[32] ip>[1024] conn_table;
            if (flow_h in conn_table) {
                ipv4.dstAddr = conn_table[flow_h];
            } else {
                copy_to_cpu();
            }
        }
    "#;
    const LB_SCOPES: &str =
        "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";

    fn lb_request() -> CompileRequest<'static> {
        CompileRequest::new(LB, LB_SCOPES, figure1_network())
    }

    fn crashed_rollout<'a>(
        rt: &mut Runtime<'a>,
        new_output: &'a CompileOutput,
        store: &mut dyn IntentStore,
        plan: CrashPlan,
    ) -> RuntimeError {
        let config = RolloutConfig::default().with_crash(plan);
        rt.apply_rollout_logged(new_output, &mut ReliableChannel::new(), &config, store)
            .unwrap_err()
    }

    #[test]
    fn crash_after_commit_decision_recovers_to_commit() {
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
        let mut store = MemIntentStore::new();
        let err = crashed_rollout(
            &mut rt,
            &r.output,
            &mut store,
            CrashPlan::at(CrashPoint::AfterCommitDecision),
        );
        assert_eq!(err.code, Some(codes::CONTROLLER_CRASHED));
        assert!(!rt.epochs_coherent(), "crash must leave mid-flight state");

        let rep = rt
            .recover(
                &r.output,
                &mut store,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap();
        assert!(
            rep.in_flight && rep.committed && !rep.rolled_back,
            "{rep:?}"
        );
        assert!(rt.epochs_coherent());
        assert_eq!(rt.epoch(), rep.epoch);
        assert!(std::ptr::eq(rt.output(), &r.output), "output must flip");
        // The logical entry survived the recovered commit.
        let mut pkt = PacketState::new();
        pkt.set("flow_h", 42);
        let (end, _) = rt.inject(&["Agg4", "ToR3"], pkt).unwrap();
        assert_eq!(end.get("ipv4.dstAddr"), 0xabcd);
        // Recovery is idempotent: a second pass is a no-op.
        let rep2 = rt
            .recover(
                &r.output,
                &mut store,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap();
        assert!(!rep2.in_flight && !rep2.committed && !rep2.rolled_back);
    }

    /// A fresh path for a file-backed intent log.
    fn log_path(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("lyra-intent-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn file_intent_log_round_trips_every_record_losslessly() {
        // Tokens are `(epoch << 32) | seq`: from epoch 2²¹ on they exceed
        // 2⁵³, past which an f64 rounds neighbouring tokens together.
        let epoch = 1u64 << 21;
        let records = vec![
            IntentRecord::Begin {
                epoch,
                prior_epoch: epoch - 1,
                targets: vec!["Agg4".into(), "ToR3".into()],
            },
            IntentRecord::Sent {
                epoch,
                switch: "Agg4".into(),
                token: mint_token(epoch, 1).unwrap(),
                op: "prepare".into(),
            },
            IntentRecord::Sent {
                epoch,
                switch: "ToR3".into(),
                token: mint_token(epoch, 3).unwrap(),
                op: "commit".into(),
            },
            IntentRecord::Decision {
                epoch,
                commit: true,
            },
            IntentRecord::End {
                epoch,
                committed: true,
            },
        ];
        let path = log_path("roundtrip");
        let mut store = FileIntentStore::open(&path);
        for record in &records {
            store.append(record).unwrap();
        }
        let loaded = FileIntentStore::open(&path).load();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.unwrap(), records);
    }

    #[test]
    fn file_intent_log_appends_after_a_torn_tail() {
        let begin = IntentRecord::Begin {
            epoch: 4,
            prior_epoch: 3,
            targets: vec!["Agg4".into()],
        };
        let decision = IntentRecord::Decision {
            epoch: 4,
            commit: true,
        };
        let end = IntentRecord::End {
            epoch: 4,
            committed: true,
        };
        // The crash cut a record short, or cut only its newline.
        let whole = begin.to_json().to_pretty().replace('\n', "");
        for (name, tail, survives) in [
            ("torn", "{\"t\":\"sent\",\"ep", false),
            ("unterminated", whole.as_str(), true),
        ] {
            let path = log_path(name);
            let mut store = FileIntentStore::open(&path);
            store.append(&begin).unwrap();
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            std::io::Write::write_all(&mut f, tail.as_bytes()).unwrap();
            drop(f);
            store.append(&decision).unwrap();
            store.append(&end).unwrap();
            let loaded = FileIntentStore::open(&path).load();
            let _ = std::fs::remove_file(&path);
            let mut expected = vec![begin.clone()];
            if survives {
                expected.push(begin.clone());
            }
            expected.extend([decision.clone(), end.clone()]);
            assert_eq!(loaded.unwrap(), expected, "{name} tail");
        }
    }

    #[test]
    fn crash_with_a_file_log_recovers_from_the_reopened_log() {
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
        let path = log_path("crash");
        let err = crashed_rollout(
            &mut rt,
            &r.output,
            &mut FileIntentStore::open(&path),
            CrashPlan::at(CrashPoint::AfterCommitDecision),
        );
        assert_eq!(err.code, Some(codes::CONTROLLER_CRASHED));

        // The restarted controller knows only what the file holds.
        let mut store = FileIntentStore::open(&path);
        let journal = store.load().unwrap();
        let epoch = journal[0].epoch();
        assert!(
            journal.contains(&IntentRecord::Decision {
                epoch,
                commit: true
            }),
            "{journal:?}"
        );
        let rep = rt.recover(
            &r.output,
            &mut store,
            &mut ReliableChannel::new(),
            &RolloutConfig::default(),
        );
        let tail = store.load();
        let _ = std::fs::remove_file(&path);
        let rep = rep.unwrap();
        assert!(
            rep.in_flight && rep.committed && rep.epoch == epoch,
            "{rep:?}"
        );
        assert_eq!(rep.replayed_records, journal.len());
        assert!(rt.epochs_coherent());
        assert!(std::ptr::eq(rt.output(), &r.output), "output must flip");
        let mut pkt = PacketState::new();
        pkt.set("flow_h", 42);
        let (end, _) = rt.inject(&["Agg4", "ToR3"], pkt).unwrap();
        assert_eq!(end.get("ipv4.dstAddr"), 0xabcd);
        // Recovery finalized the transaction in the same file.
        assert_eq!(
            tail.unwrap().last(),
            Some(&IntentRecord::End {
                epoch,
                committed: true
            })
        );
    }

    #[test]
    fn crash_before_commit_decision_recovers_to_rollback() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let faults = FaultSet::new().with_switch("Agg3");
        let r = compiler
            .recompile_for_faults(&req, &prior, &faults)
            .unwrap();

        let mut rt = Runtime::new(&prior);
        rt.install("conn_table", 7, 0x0a00).unwrap();
        rt.fail_switch("Agg3").unwrap();
        let epoch_before = rt.epoch();
        let entries_before = rt.logical_entries();
        let mut store = MemIntentStore::new();
        // Crash after every prepare is staged but before the commit
        // decision is journaled: the log cannot prove a commit.
        let err = crashed_rollout(
            &mut rt,
            &r.output,
            &mut store,
            CrashPlan::at(CrashPoint::AfterPrepare),
        );
        assert_eq!(err.code, Some(codes::CONTROLLER_CRASHED));

        let rep = rt
            .recover(
                &r.output,
                &mut store,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap();
        assert!(
            rep.in_flight && rep.rolled_back && !rep.committed,
            "{rep:?}"
        );
        assert_eq!(rt.epoch(), epoch_before);
        assert!(rt.epochs_coherent());
        assert_eq!(rt.logical_entries(), entries_before);
        assert!(
            std::ptr::eq(rt.output(), &prior),
            "rollback keeps the old output"
        );
        // The burned epoch is never reused after recovery.
        let report = rt
            .apply_rollout(
                &r.output,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap();
        assert!(report.committed);
        assert!(report.epoch > rep.epoch, "recovered epoch must stay burned");
    }

    #[test]
    fn commit_decision_with_unreachable_switch_rolls_back() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let faults = FaultSet::new().with_switch("Agg3");
        let r = compiler
            .recompile_for_faults(&req, &prior, &faults)
            .unwrap();

        let mut rt = Runtime::new(&prior);
        rt.install("conn_table", 9, 0x0b00).unwrap();
        rt.fail_switch("Agg3").unwrap();
        let epoch_before = rt.epoch();
        let mut store = MemIntentStore::new();
        let err = crashed_rollout(
            &mut rt,
            &r.output,
            &mut store,
            CrashPlan::at(CrashPoint::AfterCommitDecision),
        );
        assert_eq!(err.code, Some(codes::CONTROLLER_CRASHED));

        // The first target dies before recovery can query it: the
        // journaled commit decision cannot be proven, so rollback wins.
        let mut chan = LossyChannel::new(11).with_switch_death("Agg4", 0);
        let rep = rt
            .recover(&r.output, &mut store, &mut chan, &RolloutConfig::default())
            .unwrap();
        assert!(rep.rolled_back && !rep.committed, "{rep:?}");
        assert!(rep.query_failures >= 1);
        assert!(
            rep.forced_rollbacks >= 1 || rep.rolled_back,
            "the dead switch reverts out-of-band: {rep:?}"
        );
        assert_eq!(rt.epoch(), epoch_before);
        assert!(rt.epochs_coherent());
        assert!(rep
            .diagnostics
            .iter()
            .any(|d| d.code == Some(codes::RECOVERY_QUERY_FAILED)));
    }

    #[test]
    fn recovery_without_a_journal_rolls_back_from_switch_state() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let faults = FaultSet::new().with_switch("Agg3");
        let r = compiler
            .recompile_for_faults(&req, &prior, &faults)
            .unwrap();

        let mut rt = Runtime::new(&prior);
        rt.install("conn_table", 3, 0x0c00).unwrap();
        rt.fail_switch("Agg3").unwrap();
        let epoch_before = rt.epoch();
        // Crash with NO intent store attached: only the switches remember.
        let config = RolloutConfig::default().with_crash(CrashPlan::at(CrashPoint::BeforeFinalize));
        let err = rt
            .apply_rollout(&r.output, &mut ReliableChannel::new(), &config)
            .unwrap_err();
        assert_eq!(err.code, Some(codes::CONTROLLER_CRASHED));

        // An empty journal never drives a commit, even though every
        // switch already flipped — conservative all-rollback.
        let mut empty = MemIntentStore::new();
        let rep = rt
            .recover(
                &r.output,
                &mut empty,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap();
        assert!(rep.in_flight && rep.rolled_back, "{rep:?}");
        assert_eq!(rt.epoch(), epoch_before);
        assert!(rt.epochs_coherent());
    }

    #[test]
    fn failing_intent_store_halts_the_rollout_like_a_crash() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let faults = FaultSet::new().with_switch("Agg3");
        let r = compiler
            .recompile_for_faults(&req, &prior, &faults)
            .unwrap();

        let mut rt = Runtime::new(&prior);
        rt.install("conn_table", 5, 0x0d00).unwrap();
        rt.fail_switch("Agg3").unwrap();
        let epoch_before = rt.epoch();
        // The third append (the commit decision) fails: the journal ends
        // with a staged prepare and no decision, so recovery rolls back.
        let mut store = MemIntentStore::failing_after(2);
        let err = rt
            .apply_rollout_logged(
                &r.output,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
                &mut store,
            )
            .unwrap_err();
        assert_eq!(err.code, Some(codes::INTENT_STORE_IO));

        // The partial journal still recovers the deployment.
        let mut readable = MemIntentStore::new();
        for rec in store.load().unwrap() {
            readable.append(&rec).unwrap();
        }
        let rep = rt
            .recover(
                &r.output,
                &mut readable,
                &mut ReliableChannel::new(),
                &RolloutConfig::default(),
            )
            .unwrap();
        assert!(rep.rolled_back, "{rep:?}");
        assert_eq!(rt.epoch(), epoch_before);
        assert!(rt.epochs_coherent());
    }

    #[test]
    fn audit_detects_and_repairs_every_drift_class() {
        let compiler = Compiler::new();
        let req = lb_request();
        let out = compiler.compile(&req).unwrap();
        let mut rt = Runtime::new(&out);
        let on = rt.install("conn_table", 1, 100).unwrap();
        rt.install("conn_table", 2, 200).unwrap();
        let victim = on[0].clone();

        rt.inject_drift(
            &victim,
            &DriftOp::Remove {
                table: "conn_table".into(),
                key: 1,
            },
        )
        .unwrap();
        rt.inject_drift(
            &victim,
            &DriftOp::Insert {
                table: "conn_table".into(),
                key: 999,
                value: 7,
            },
        )
        .unwrap();
        // Corrupt key 2 wherever it lives.
        let holder = rt
            .states
            .iter()
            .find(|(_, st)| {
                st.dp
                    .externs
                    .get("conn_table")
                    .is_some_and(|t| t.contains_key(2))
            })
            .map(|(sw, _)| sw.clone())
            .unwrap();
        rt.inject_drift(
            &holder,
            &DriftOp::Corrupt {
                table: "conn_table".into(),
                key: 2,
                value: 555,
            },
        )
        .unwrap();

        let report = rt.audit_switches();
        let counts = report.counts();
        assert_eq!(counts.get("missing"), Some(&1), "{report:?}");
        assert_eq!(counts.get("extra"), Some(&1), "{report:?}");
        assert_eq!(counts.get("stale"), Some(&1), "{report:?}");
        assert!(report.repaired >= 3);
        assert!(!report.drifted_switches.is_empty());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Some(codes::DRIFT_DETECTED)));

        // Repaired: a second audit is clean and the semantics are back.
        let again = rt.audit_switches();
        assert!(again.clean(), "{again:?}");
        let mut pkt = PacketState::new();
        pkt.set("flow_h", 1);
        let (end, _) = rt.inject(&["Agg3", "ToR3"], pkt).unwrap();
        assert_eq!(end.get("ipv4.dstAddr"), 100);
        let mut pkt = PacketState::new();
        pkt.set("flow_h", 999);
        let (_, effects) = rt.inject(&["Agg3", "ToR3"], pkt).unwrap();
        assert!(
            effects.iter().any(
                |e| matches!(e, lyra_ir::Effect::Action { name, .. } if name == "copy_to_cpu")
            ),
            "the foreign entry must be gone: {effects:?}"
        );
    }

    #[test]
    fn audit_resets_a_regressed_epoch_tag() {
        let compiler = Compiler::new();
        let req = lb_request();
        let prior = compiler.compile(&req).unwrap();
        let mut rt = Runtime::new(&prior);
        rt.install("conn_table", 4, 44).unwrap();
        rt.fail_switch("Agg3").unwrap(); // bumps the epoch past zero
        assert!(rt.epoch() > 0);
        rt.inject_drift("Agg4", &DriftOp::RegressEpoch).unwrap();
        assert!(!rt.epochs_coherent());

        let report = rt.audit_switches();
        assert_eq!(report.counts().get("stale-epoch"), Some(&1), "{report:?}");
        assert!(rt.epochs_coherent(), "audit must restore coherence");
    }

    #[test]
    fn clean_deployment_audits_clean() {
        let compiler = Compiler::new();
        let req = lb_request();
        let out = compiler.compile(&req).unwrap();
        let mut rt = Runtime::new(&out);
        for k in 0..32 {
            rt.install("conn_table", k, k * 10).unwrap();
        }
        let report = rt.audit_switches();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.repaired, 0);
        assert!(report.diagnostics.is_empty());
        assert!(report.digests_compared > 0);
    }
}
