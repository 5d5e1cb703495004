//! A control-plane/data-plane runtime simulator for compiled placements.
//!
//! §5.8 leaves control-plane logic to the operator: Lyra generates table
//! *interfaces* (the `<t>_entry_set/get` stubs) and the operator fills
//! entries without knowing how tables were split across switches. This
//! module is the executable version of that contract: a [`Runtime`] wraps a
//! [`CompileOutput`], accepts logical `install` calls against extern tables
//! — routing each entry to a switch shard with free capacity — and injects
//! packets along switch paths, executing each hop's placed instructions
//! with the IR reference interpreter.
//!
//! Every switch carries an *epoch tag*: the version of the placement it
//! serves. Placement changes (failover re-sync, or a full
//! [`Runtime::apply_rollout`] onto a recompiled placement) go through the
//! two-phase rollout engine in [`crate::rollout`], which guarantees that
//! after any control-plane operation returns, all switches share one
//! epoch — [`Runtime::inject`] refuses to execute a path whose hops
//! disagree, so a packet can never observe a mixed old/new table set.
//!
//! It exists for tests and examples; it is not a performance simulator.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use lyra_diag::Code;
use lyra_ir::{execute, DataPlaneState, Effect, ExternTable, InstrId, PacketState};
use lyra_topo::FaultSet;

use crate::agent::SwitchState;
use crate::dataplane::LiveTrafficPlane;
use crate::CompileOutput;

/// Errors from runtime operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    /// Problem description.
    pub message: String,
    /// Stable diagnostic code classifying the failure, when one applies
    /// (rollout failures carry `LYR056x` codes).
    pub code: Option<Code>,
}

impl RuntimeError {
    /// An error with a message and no code.
    pub fn new(message: impl Into<String>) -> Self {
        RuntimeError {
            message: message.into(),
            code: None,
        }
    }

    /// Attach a stable diagnostic code.
    pub fn with_code(mut self, code: Code) -> Self {
        self.code = Some(code);
        self
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.code {
            Some(c) => write!(f, "runtime error [{c}]: {}", self.message),
            None => write!(f, "runtime error: {}", self.message),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A simulated deployment: per-switch data-plane state plus the logical
/// view the control plane uses.
pub struct Runtime<'a> {
    pub(crate) output: &'a CompileOutput,
    /// Per-switch state (table shards + globals + epoch bookkeeping).
    pub(crate) states: BTreeMap<String, SwitchState>,
    /// Elements failed at runtime ([`Runtime::fail_switch`] /
    /// [`Runtime::fail_link`]). Failed switches hold no state; paths
    /// through failed elements reject traffic and receive no installs.
    pub(crate) faults: FaultSet,
    /// The epoch every switch currently serves (all switches agree
    /// whenever control is outside the rollout engine).
    pub(crate) epoch: u64,
    /// Monotonic epoch allocator. Rolled-back epochs are burned, never
    /// reused, so a late message from an abandoned rollout can never be
    /// mistaken for one from a newer attempt.
    pub(crate) epoch_counter: u64,
    /// The controller's shadow of what each switch *should* hold: a copy
    /// of every switch's data-plane state, refreshed whenever a
    /// control-plane operation finalizes. [`Runtime::audit_switches`]
    /// diffs switch-held state against this to detect drift. Globals are
    /// traffic-mutable and outside the audit's scope; only extern tables
    /// (control-plane-owned) are compared.
    pub(crate) expected: BTreeMap<String, DataPlaneState>,
    /// The traffic plane serving this runtime's switches, attached by the
    /// replay-under-a-transaction harness for the duration of one call so
    /// the switch agents can publish their epoch flips to it.
    pub(crate) plane: Option<Arc<LiveTrafficPlane>>,
}

/// The per-table placement context of the §5.8 entry-placement decision,
/// shared between live [`Runtime::install`] and the rollout engine's
/// staging ([`stage_layout`]) so both place entries identically: the
/// surviving holders, the surviving flow paths that can reach the table,
/// and each holder's shard capacity depend only on the placement and the
/// fault set — never on the key — so bulk operations build this once per
/// table. Switches are named once, here; a decision is made and answered
/// in indices into [`EntryPlanner::switches`].
pub(crate) struct EntryPlanner {
    table: String,
    /// Every switch a decision reads: the surviving holders of the table
    /// first, in switch order, then every other switch on a surviving path
    /// (it receives no entry, but an entry it holds covers its paths).
    switches: Vec<String>,
    /// Shard capacity per holder: the first `capacity.len()` switches are
    /// the holders.
    capacity: Vec<u64>,
    /// The surviving flow paths that reach the table, hop by hop as
    /// indices into `switches`, each path once.
    paths: Vec<Vec<usize>>,
}

impl EntryPlanner {
    pub(crate) fn new(
        output: &CompileOutput,
        faults: &FaultSet,
        table: &str,
    ) -> Result<Self, RuntimeError> {
        let (mut switches, capacity): (Vec<String>, Vec<u64>) = output
            .placement
            .switches
            .iter()
            .filter(|(sw, _)| !faults.switch_failed(sw))
            .filter_map(|(sw, plan)| Some((sw.clone(), *plan.extern_entries.get(table)?)))
            .unzip();
        let holders = capacity.len();
        if holders == 0 {
            return Err(RuntimeError::new(format!(
                "no surviving switch hosts extern table `{table}`"
            )));
        }
        // Surviving paths that can reach this table (host at least one
        // shard); paths through failed elements carry no traffic and need
        // no entry. A path listed twice decides nothing the second time.
        let mut paths: Vec<Vec<usize>> = Vec::new();
        for path in output.flow_paths.values().flatten() {
            if !faults.path_survives(path)
                || !path.iter().any(|sw| switches[..holders].contains(sw))
            {
                continue;
            }
            let hops = path
                .iter()
                .map(|sw| match switches.iter().position(|s| s == sw) {
                    Some(i) => i,
                    None => {
                        switches.push(sw.clone());
                        switches.len() - 1
                    }
                })
                .collect();
            if !paths.contains(&hops) {
                paths.push(hops);
            }
        }
        if paths.is_empty() {
            // Degenerate single-switch deployments.
            paths = (0..holders).map(|h| vec![h]).collect();
        }
        Ok(EntryPlanner {
            table: table.to_string(),
            switches,
            capacity,
            paths,
        })
    }

    /// The holders one logical entry must land on so every surviving flow
    /// path sees it, written to `targets` (cleared first) as indices into
    /// [`EntryPlanner::switches`]. `holds(s)` reports whether switch `s`
    /// already holds the key; `used(s)` how many keys holder `s`'s shard
    /// holds. The key itself does not influence shard choice.
    pub(crate) fn targets(
        &self,
        holds: impl Fn(usize) -> bool,
        used: impl Fn(usize) -> u64,
        targets: &mut Vec<usize>,
    ) -> Result<(), RuntimeError> {
        targets.clear();
        for path in &self.paths {
            // Already covered (an existing shard, or one chosen for an
            // earlier path of this same entry)?
            if path.iter().any(|&s| holds(s) || targets.contains(&s)) {
                continue;
            }
            let slot = path
                .iter()
                .find(|&&s| self.capacity.get(s).is_some_and(|&cap| used(s) < cap));
            let Some(&s) = slot else {
                let hops: Vec<&String> = path.iter().map(|&s| &self.switches[s]).collect();
                return Err(RuntimeError::new(format!(
                    "table `{}` is full along path {hops:?}",
                    self.table
                )));
            };
            targets.push(s);
        }
        Ok(())
    }

    /// The holders of the table (a prefix of [`EntryPlanner::switches`]).
    fn holders(&self) -> &[String] {
        &self.switches[..self.capacity.len()]
    }
}

/// Move `table` out of `dp` for a batch of placements (an empty table when
/// it holds none); [`put_table`] moves it back.
fn take_table(dp: Option<&mut DataPlaneState>, table: &str) -> ExternTable {
    dp.and_then(|dp| dp.externs.get_mut(table))
        .map(std::mem::take)
        .unwrap_or_default()
}

/// Return a table [`take_table`] moved out. A table `dp` never held comes
/// back only if the batch gave it entries.
fn put_table(dp: &mut DataPlaneState, table: &str, entries: ExternTable) {
    match dp.externs.get_mut(table) {
        Some(slot) => *slot = entries,
        None if !entries.is_empty() => {
            dp.externs.insert(table.to_string(), entries);
        }
        None => {}
    }
}

/// Partition `tables` into replica groups — tables that share every page
/// ([`ExternTable::same_pages`]), so they hold identical entries — as
/// member indices, groups in order of their first member. A group is read
/// through any one member; where groups disagree on a value, the first
/// group wins, which is the first table in order.
fn replica_groups(tables: &[&ExternTable]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, table) in tables.iter().enumerate() {
        match groups.iter_mut().find(|g| tables[g[0]].same_pages(table)) {
            Some(group) => group.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// One switch's shard of one extern table as staging found it.
struct Shard<'s> {
    switch: &'s str,
    entries: &'s ExternTable,
    /// The next epoch keeps serving this shard from this switch (its staged
    /// state starts as a page-sharing clone). A shard that is not kept —
    /// the switch died, the placement no longer hosts the table there, or
    /// shrank it below what the shard holds — only contributes entries.
    kept: bool,
}

/// The next-epoch layout one staging pass produced.
pub(crate) struct StagedLayout {
    /// Next-epoch data-plane state per switch: every live switch plus
    /// every unfailed switch of the placement.
    pub(crate) states: BTreeMap<String, DataPlaneState>,
    /// Logical entries handed to the first-fit planner: those some
    /// surviving flow path had lost sight of.
    pub(crate) entries_planned: u64,
    /// Keys the per-table merges visited.
    pub(crate) keys_walked: u64,
}

/// Stage the next epoch's per-switch state under `output`'s placement and
/// the given fault set, shard by shard rather than entry by entry.
///
/// Every live switch's next-epoch state starts as an O(1) clone of the
/// shards it already serves. A shard is *kept* iff the placement still
/// hosts its table on that switch with capacity for what the shard holds;
/// any other shard — and every shard of `lost`, switches that just died —
/// is dropped and only contributes its entries.
///
/// Shards of a table that share every page are one *replica group*: they
/// hold identical entries, so one k-way merge per table walks one
/// representative per group, and a group holds a key iff its
/// representative does. The merge finds the entries some surviving flow
/// path no longer sees (no group with a kept member on the path holds
/// them), and only those go through the first-fit [`EntryPlanner`], in key
/// order. Entries covered on every path are no-ops for the planner anyway,
/// so skipping them changes no decision; what it changes is that an
/// untouched switch keeps sharing every page with its serving state, so
/// its rollout delta costs O(pages). A table with one group on every
/// surviving path — a replicated table whose dead replica shared its pages
/// with a survivor — is not walked at all. Replicas that diverged (drift,
/// or deltas applied per switch) are separate groups: the merge reads them
/// key by key, as it reads unrelated shards.
///
/// Replicas that disagree on a key's value converge on the first group's,
/// a group ranking at its earliest member in switch order — the value
/// [`Runtime::logical_entries`] reports.
///
/// `reset_globals` restarts global registers at zero, sized from `output`
/// (a re-flashed device); otherwise live switches carry theirs over.
pub(crate) fn stage_layout(
    output: &CompileOutput,
    faults: &FaultSet,
    serving: &BTreeMap<String, SwitchState>,
    lost: &[(String, DataPlaneState)],
    reset_globals: bool,
) -> Result<StagedLayout, RuntimeError> {
    let fresh = SwitchState::fresh(output, 0).dp;
    let mut states: BTreeMap<String, DataPlaneState> = output
        .placement
        .switches
        .keys()
        .filter(|sw| !faults.switch_failed(sw))
        .map(|sw| (sw.clone(), fresh.clone()))
        .collect();
    for (sw, st) in serving {
        // Live switches the placement dropped stage an empty state: a flush.
        let dp = states.entry(sw.clone()).or_default();
        if !reset_globals {
            dp.globals = st.dp.globals.clone();
        }
    }

    // Every shard of every table, in switch order (the merged view's value
    // rule). A switch is `touched` once its staged extern state is no
    // longer a plain clone of what it serves.
    let mut sources: BTreeMap<&str, &DataPlaneState> = serving
        .iter()
        .map(|(sw, st)| (sw.as_str(), &st.dp))
        .collect();
    sources.extend(lost.iter().map(|(sw, dp)| (sw.as_str(), dp)));
    let mut shards: BTreeMap<&str, Vec<Shard<'_>>> = BTreeMap::new();
    let mut touched: BTreeSet<String> = BTreeSet::new();
    for (&switch, &dp) in &sources {
        let hosted = output
            .placement
            .switches
            .get(switch)
            .filter(|_| serving.contains_key(switch) && !faults.switch_failed(switch));
        for (table, entries) in &dp.externs {
            let kept = hosted
                .and_then(|plan| plan.extern_entries.get(table))
                .is_some_and(|&capacity| entries.len() as u64 <= capacity);
            if kept {
                // O(1): the clone shares the shard's page directory.
                states
                    .entry(switch.to_string())
                    .or_default()
                    .externs
                    .insert(table.clone(), entries.clone());
            } else {
                touched.insert(switch.to_string());
            }
            shards.entry(table).or_default().push(Shard {
                switch,
                entries,
                kept,
            });
        }
    }

    let (mut entries_planned, mut keys_walked) = (0u64, 0u64);
    for (&table, shards) in &shards {
        let shards: Vec<&Shard<'_>> = shards.iter().filter(|s| !s.entries.is_empty()).collect();
        if shards.is_empty() {
            continue;
        }
        let planner = EntryPlanner::new(output, faults, table)?;
        // A kept shard's switch is a holder: its index in the planner.
        let at: Vec<Option<usize>> = shards
            .iter()
            .map(|s| {
                s.kept
                    .then(|| planner.holders().iter().position(|h| h == s.switch))
                    .flatten()
            })
            .collect();
        let groups = replica_groups(&shards.iter().map(|s| s.entries).collect::<Vec<_>>());
        // What each surviving path can see: the groups with a kept member
        // on it. Paths with the same view are one case.
        let on_path = |i: usize, path: &[usize]| at[i].is_some_and(|s| path.contains(&s));
        let mut views: Vec<Vec<usize>> = planner
            .paths
            .iter()
            .map(|path| {
                (0..groups.len())
                    .filter(|&g| groups[g].iter().any(|&i| on_path(i, path)))
                    .collect()
            })
            .collect();
        views.sort();
        views.dedup();
        // Every group on every path: nothing can be out of sight. One group
        // cannot disagree with itself, so nothing moves; replicas that
        // disagree are skipped only when every shard is on every path.
        let every_group_seen = views.iter().all(|view| view.len() == groups.len());
        let every_shard_seen =
            || (0..shards.len()).all(|i| planner.paths.iter().all(|p| on_path(i, p)));
        if every_group_seen && (groups.len() == 1 || every_shard_seen()) {
            continue;
        }
        // The walk edits the staged shards of this table, moved out of
        // their switches' states for its duration.
        let mut staged: Vec<ExternTable> = planner
            .switches
            .iter()
            .map(|sw| take_table(states.get_mut(sw), table))
            .collect();
        let mut placed = vec![false; planner.switches.len()];
        let (mut targets, mut fix) = (Vec::new(), Vec::new());
        let representatives: Vec<&ExternTable> =
            groups.iter().map(|g| shards[g[0]].entries).collect();
        let mut failure: Option<RuntimeError> = None;
        ExternTable::merge_walk(&representatives, |key, held| {
            keys_walked += 1;
            let Some(value) = held.iter().flatten().next().copied() else {
                return;
            };
            if failure.is_some() {
                return; // the walk cannot stop early; the rest is skipped
            }
            // Replicas that disagree converge on the first group's value:
            // every kept member of a group holding another value is
            // rewritten, once for the whole group.
            for (group, _) in groups
                .iter()
                .zip(held)
                .filter(|(_, v)| v.is_some_and(|v| v != value))
            {
                fix.clear();
                fix.extend(group.iter().filter_map(|&i| at[i]));
                ExternTable::insert_replicated(&mut staged, &fix, key, value);
                fix.iter().for_each(|&s| placed[s] = true);
            }
            if views
                .iter()
                .all(|view| view.iter().any(|&g| held[g].is_some()))
            {
                return;
            }
            entries_planned += 1;
            let holds = |s: usize| staged[s].contains_key(key);
            match planner.targets(holds, |s| staged[s].len() as u64, &mut targets) {
                Ok(()) => {
                    ExternTable::insert_replicated(&mut staged, &targets, key, value);
                    targets.iter().for_each(|&s| placed[s] = true);
                }
                Err(e) => failure = Some(e),
            }
        });
        for ((sw, entries), placed) in planner.switches.iter().zip(staged).zip(placed) {
            if states.contains_key(sw) || !entries.is_empty() {
                put_table(states.entry(sw.clone()).or_default(), table, entries);
            }
            if placed {
                touched.insert(sw.clone());
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
    }
    // Switches staging did not touch must still share every page with
    // their serving state, so their rollout delta is found in O(pages).
    debug_assert!(
        states.iter().all(|(sw, dp)| {
            touched.contains(sw)
                || serving.get(sw).is_none_or(|st| {
                    dp.externs.len() == st.dp.externs.len()
                        && dp
                            .externs
                            .iter()
                            .zip(&st.dp.externs)
                            .all(|((an, at), (bn, bt))| an == bn && at.same_pages(bt))
                })
        }),
        "staging rebuilt extern state for a switch it did not touch"
    );
    Ok(StagedLayout {
        states,
        entries_planned,
        keys_walked,
    })
}

impl<'a> Runtime<'a> {
    /// Build a runtime over a compilation result. Globals are sized from
    /// the program's declarations on every hosting switch.
    pub fn new(output: &'a CompileOutput) -> Self {
        let fresh = SwitchState::fresh(output, 0);
        let states: BTreeMap<String, SwitchState> = output
            .placement
            .switches
            .keys()
            .map(|switch| (switch.clone(), fresh.clone()))
            .collect();
        let expected = states
            .iter()
            .map(|(sw, st)| (sw.clone(), st.dp.clone()))
            .collect();
        Runtime {
            output,
            states,
            faults: FaultSet::new(),
            epoch: 0,
            epoch_counter: 0,
            expected,
            plane: None,
        }
    }

    /// Rebuild the controller-expected shadow from the (just-finalized)
    /// switch states. Called whenever a control-plane transaction
    /// converges — the switches are ground truth at that instant.
    pub(crate) fn refresh_expected(&mut self) {
        self.expected = self
            .states
            .iter()
            .map(|(sw, st)| (sw.clone(), st.dp.clone()))
            .collect();
    }

    /// The controller declares `faults` the deployment's fault set. A
    /// failed switch holds no state, so a rollout neither messages it nor
    /// counts it toward epoch coherence. Returns what each newly failed
    /// switch held: its shards survive only as entries for the next
    /// rollout to re-home.
    pub(crate) fn declare_faults(&mut self, faults: FaultSet) -> Vec<(String, DataPlaneState)> {
        let dead: Vec<String> = self
            .states
            .keys()
            .filter(|sw| faults.switch_failed(sw))
            .cloned()
            .collect();
        self.faults = faults;
        dead.into_iter()
            .filter_map(|sw| self.states.remove(&sw).map(|st| (sw, st.dp)))
            .collect()
    }

    /// The compilation this runtime currently serves (flips to the new
    /// output when a rollout commits).
    pub fn output(&self) -> &'a CompileOutput {
        self.output
    }

    /// The elements failed so far.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The placement epoch every switch currently serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch one switch serves (`None` for unknown/failed switches).
    pub fn switch_epoch(&self, switch: &str) -> Option<u64> {
        self.states.get(switch).map(SwitchState::epoch)
    }

    /// True when every switch serves the runtime's epoch with no staged or
    /// retained side state — the invariant the rollout engine restores
    /// before returning, asserted by the chaos tests.
    pub fn epochs_coherent(&self) -> bool {
        self.states
            .values()
            .all(|st| st.epoch() == self.epoch && st.staged().is_none() && st.prior().is_none())
    }

    /// All logical entries currently installed, as `(table, key, value)`
    /// triples in `(table, key)` order (the union over every shard — the
    /// control plane's view): per table, one k-way merge over one shard per
    /// replica group (shards sharing every page hold the same entries).
    /// Where replicas disagree on a value, the first shard in switch order
    /// wins. An inspection view for tests, examples and health snapshots;
    /// the rollout engine stages from the shards themselves.
    pub fn logical_entries(&self) -> Vec<(String, u64, u64)> {
        let mut shards: BTreeMap<&String, Vec<&ExternTable>> = BTreeMap::new();
        for st in self.states.values() {
            for (table, entries) in &st.dp.externs {
                shards.entry(table).or_default().push(entries);
            }
        }
        let mut merged = Vec::new();
        for (table, shards) in shards {
            let representatives: Vec<&ExternTable> = replica_groups(&shards)
                .iter()
                .map(|group| shards[group[0]])
                .collect();
            ExternTable::merge_walk(&representatives, |key, held| {
                if let Some(&value) = held.iter().flatten().next() {
                    merged.push((table.clone(), key, value));
                }
            });
        }
        merged
    }

    /// Install a logical entry into `table`. The control plane does not
    /// name a switch — for every flow path the runtime places the entry on
    /// one hosting switch with free capacity (re-using a switch shared
    /// between paths when possible), exactly the abstraction §5.8 promises
    /// ("programmers only need to fill in the control plane tables, but do
    /// not need to know exactly how each table is mapped to target
    /// devices").
    ///
    /// Returns the switches that received the entry. An already-covered
    /// key is an idempotent no-op, not an error — the control plane may
    /// replay installs (e.g. after a failover re-sync) without tracking
    /// which entries survived.
    pub fn install(
        &mut self,
        table: &str,
        key: u64,
        value: u64,
    ) -> Result<Vec<String>, RuntimeError> {
        let planner = EntryPlanner::new(self.output, &self.faults, table)?;
        let mut targets = Vec::new();
        self.install_planned(&planner, &[(key, value)], |placed| {
            targets = placed
                .iter()
                .map(|&s| planner.switches[s].clone())
                .collect();
        })?;
        Ok(targets)
    }

    /// Bulk [`Runtime::install`]: place every `(key, value)` entry of
    /// `table`, reusing one placement context for the whole batch. Same
    /// semantics as calling `install` per entry — already-covered keys are
    /// idempotent no-ops — but the holders and flow paths are resolved once
    /// for the whole batch, which is what makes seeding a million-entry
    /// control plane practical. Returns the number of (entry, switch)
    /// placements performed.
    pub fn install_many(
        &mut self,
        table: &str,
        entries: &[(u64, u64)],
    ) -> Result<u64, RuntimeError> {
        let planner = EntryPlanner::new(self.output, &self.faults, table)?;
        let mut placed = 0u64;
        self.install_planned(&planner, entries, |targets| placed += targets.len() as u64)?;
        Ok(placed)
    }

    /// Place each entry of `planner`'s table, in order, on the holders it
    /// chooses — `placed` hears each entry's targets — and stop at the
    /// first that does not fit. An entry goes into every target's shard
    /// and into the controller's expected shadow of it (what the
    /// anti-entropy audit compares against) through one
    /// [`ExternTable::insert_replicated`], so replicas and shadows that
    /// share their pages keep sharing them: a replicated table is stored
    /// once.
    fn install_planned(
        &mut self,
        planner: &EntryPlanner,
        entries: &[(u64, u64)],
        mut placed: impl FnMut(&[usize]),
    ) -> Result<(), RuntimeError> {
        // A holder always has live state: the planner only proposes
        // unfailed placement switches, which `new` seeded and only
        // `fail_switch` removes.
        if let Some(sw) = planner
            .holders()
            .iter()
            .find(|sw| !self.states.contains_key(*sw))
        {
            return Err(RuntimeError::new(format!(
                "internal: placement switch `{sw}` has no state"
            )));
        }
        // The batch's tables, moved out of their maps: every planner
        // switch's shard, then every holder's shadow.
        let table = planner.table.as_str();
        let shadows = planner.switches.len();
        let mut tables: Vec<ExternTable> = planner
            .switches
            .iter()
            .map(|sw| take_table(self.states.get_mut(sw).map(|st| &mut st.dp), table))
            .chain(
                planner
                    .holders()
                    .iter()
                    .map(|sw| take_table(self.expected.get_mut(sw), table)),
            )
            .collect();
        let (mut targets, mut copies) = (Vec::new(), Vec::new());
        let mut result = Ok(());
        for &(key, value) in entries {
            let holds = |s: usize| tables[s].contains_key(key);
            if let Err(e) = planner.targets(holds, |s| tables[s].len() as u64, &mut targets) {
                result = Err(e);
                break;
            }
            copies.clear();
            copies.extend(targets.iter().flat_map(|&s| [s, shadows + s]));
            ExternTable::insert_replicated(&mut tables, &copies, key, value);
            placed(&targets);
        }
        let mut tables = tables.into_iter();
        for (sw, entries) in planner.switches.iter().zip(tables.by_ref()) {
            if let Some(st) = self.states.get_mut(sw) {
                put_table(&mut st.dp, table, entries);
            }
        }
        for (sw, entries) in planner.holders().iter().zip(tables) {
            if self.expected.contains_key(sw) || !entries.is_empty() {
                put_table(self.expected.entry(sw.clone()).or_default(), table, entries);
            }
        }
        result
    }

    /// The shard of `table` that `switch` serves (`None` when it holds
    /// none). Clones of it share its pages, so holding one across a
    /// rollout shows, via [`ExternTable::same_pages`], whether the rollout
    /// left the shard alone.
    pub fn shard(&self, switch: &str, table: &str) -> Option<&ExternTable> {
        self.states.get(switch)?.dp.externs.get(table)
    }

    /// Entries currently installed in `table` on `switch`.
    pub fn installed_on(&self, switch: &str, table: &str) -> u64 {
        self.shard(switch, table).map_or(0, |t| t.len() as u64)
    }

    /// Inject a packet along `path` (switch names in traversal order).
    /// Executes each hop's placed instructions for every algorithm, in
    /// program order, sharing the packet state across hops (the bridge
    /// header). Returns the final packet state and all fired effects.
    ///
    /// Refuses paths through failed elements, and paths whose hops serve
    /// different placement epochs — the per-switch consistency guarantee
    /// of the rollout engine, enforced at the data plane.
    pub fn inject(
        &mut self,
        path: &[&str],
        mut pkt: PacketState,
    ) -> Result<(PacketState, Vec<Effect>), RuntimeError> {
        if let Some(dead) = path.iter().find(|s| self.faults.switch_failed(s)) {
            return Err(RuntimeError::new(format!(
                "path traverses failed switch `{dead}`"
            )));
        }
        if let Some(w) = path
            .windows(2)
            .find(|w| self.faults.link_failed(w[0], w[1]))
        {
            return Err(RuntimeError::new(format!(
                "path traverses failed link `{}` — `{}`",
                w[0], w[1]
            )));
        }
        if let Some((sw, e)) = path
            .iter()
            .filter_map(|sw| self.states.get(*sw).map(|st| (*sw, st.epoch())))
            .find(|&(_, e)| e != self.epoch)
        {
            return Err(RuntimeError::new(format!(
                "switch `{sw}` serves epoch {e} but the deployment is at epoch {}; \
                 refusing a mixed-epoch path",
                self.epoch
            )));
        }
        let mut effects = Vec::new();
        for &switch in path {
            let Some(plan) = self.output.placement.switches.get(switch) else {
                // A hop with no code (e.g. a fixed-function core) is
                // transit-only.
                continue;
            };
            let Some(st) = self.states.get_mut(switch) else {
                // A placement switch with no live state would mean traffic
                // through a dead element — already refused above.
                return Err(RuntimeError::new(format!(
                    "placement switch `{switch}` has no live state"
                )));
            };
            for (alg_name, instrs) in &plan.instrs {
                let alg = self.output.ir.algorithm(alg_name).ok_or_else(|| {
                    RuntimeError::new(format!("placement names unknown algorithm `{alg_name}`"))
                })?;
                let mut ordered: Vec<InstrId> = instrs.clone();
                ordered.sort();
                effects.extend(execute(alg, &ordered, &mut pkt, &mut st.dp));
            }
        }
        Ok((pkt, effects))
    }

    /// Read a global register on a switch (for assertions in tests).
    pub fn global(&self, switch: &str, name: &str, index: usize) -> Option<u64> {
        self.states
            .get(switch)
            .and_then(|st| st.dp.globals.get(name))
            .and_then(|arr| arr.get(index))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileRequest, Compiler};
    use lyra_topo::figure1_network;

    fn lb_output() -> CompileOutput {
        Compiler::new()
            .compile(&CompileRequest::new(
                r#"
                    pipeline[LB]{loadbalancer};
                    algorithm loadbalancer {
                        extern dict<bit[32] h, bit[32] ip>[64] conn_table;
                        if (flow_h in conn_table) {
                            ipv4.dstAddr = conn_table[flow_h];
                        } else {
                            copy_to_cpu();
                        }
                    }
                "#,
                "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
                figure1_network(),
            ))
            .unwrap()
    }

    #[test]
    fn install_then_hit() {
        let out = lb_output();
        let mut rt = Runtime::new(&out);
        let switches = rt.install("conn_table", 42, 0x0a000001).unwrap();
        assert!(switches
            .iter()
            .all(|sw| rt.installed_on(sw, "conn_table") >= 1));

        // A packet with the installed hash gets rewritten on its path.
        let mut pkt = PacketState::new();
        pkt.set("flow_h", 42);
        pkt.set("ipv4.dstAddr", 0x02000001);
        let (end, effects) = rt.inject(&["Agg3", "ToR3"], pkt).unwrap();
        assert_eq!(end.get("ipv4.dstAddr"), 0x0a000001);
        assert!(
            effects.is_empty(),
            "hit path must not punt to CPU: {effects:?}"
        );
    }

    #[test]
    fn miss_punts_to_cpu() {
        let out = lb_output();
        let mut rt = Runtime::new(&out);
        let mut pkt = PacketState::new();
        pkt.set("flow_h", 7);
        let (_, effects) = rt.inject(&["Agg3", "ToR3"], pkt).unwrap();
        assert!(
            effects
                .iter()
                .any(|e| matches!(e, Effect::Action { name, .. } if name == "copy_to_cpu")),
            "miss must reach the controller: {effects:?}"
        );
    }

    #[test]
    fn capacity_is_enforced() {
        let out = lb_output();
        let mut rt = Runtime::new(&out);
        // Each logical entry occupies one slot per covering path group;
        // the logical table holds exactly its declared 64 entries.
        let mut total = 0u64;
        while rt.install("conn_table", total, total).is_ok() {
            total += 1;
            assert!(total < 10_000, "capacity accounting is broken");
        }
        assert_eq!(total, 64, "logical capacity must equal the declared size");
    }

    #[test]
    fn unknown_table_rejected() {
        let out = lb_output();
        let mut rt = Runtime::new(&out);
        assert!(rt.install("no_such_table", 1, 1).is_err());
    }

    #[test]
    fn duplicate_install_is_idempotent() {
        let out = lb_output();
        let mut rt = Runtime::new(&out);
        let first = rt.install("conn_table", 42, 7).unwrap();
        assert!(!first.is_empty());
        // Replaying the same key is a no-op, not an error, and consumes no
        // extra capacity.
        let again = rt.install("conn_table", 42, 7).unwrap();
        assert!(again.is_empty(), "replay placed entries: {again:?}");
        let used: u64 = first
            .iter()
            .map(|sw| rt.installed_on(sw, "conn_table"))
            .sum();
        assert_eq!(used as usize, first.len());
    }

    #[test]
    fn logical_entries_merge_all_shards() {
        let out = lb_output();
        let mut rt = Runtime::new(&out);
        rt.install("conn_table", 1, 10).unwrap();
        rt.install("conn_table", 2, 20).unwrap();
        let mut entries = rt.logical_entries();
        entries.sort();
        assert_eq!(
            entries,
            vec![
                ("conn_table".to_string(), 1, 10),
                ("conn_table".to_string(), 2, 20)
            ]
        );
    }

    #[test]
    fn logical_entries_are_key_ordered_and_the_first_shard_wins() {
        let out = lb_output();
        let mut rt = Runtime::new(&out);
        for key in [9, 2, 5] {
            rt.install("conn_table", key, key * 10).unwrap();
        }
        // Agg3 and Agg4 replicate every key; corrupt one on each.
        let corrupt = |key, value| crate::DriftOp::Corrupt {
            table: "conn_table".into(),
            key,
            value,
        };
        rt.inject_drift("Agg3", &corrupt(2, 0xaaa)).unwrap();
        rt.inject_drift("Agg4", &corrupt(5, 0xbbb)).unwrap();
        assert_eq!(
            rt.logical_entries(),
            vec![
                ("conn_table".to_string(), 2, 0xaaa),
                ("conn_table".to_string(), 5, 50),
                ("conn_table".to_string(), 9, 90),
            ]
        );
    }

    #[test]
    fn fail_switch_resyncs_entries_and_refuses_traffic() {
        let out = lb_output();
        let mut rt = Runtime::new(&out);
        rt.install("conn_table", 42, 0x0a000001).unwrap();
        rt.fail_switch("Agg3").unwrap();

        // The dead switch no longer accepts traffic…
        let mut pkt = PacketState::new();
        pkt.set("flow_h", 42);
        pkt.set("ipv4.dstAddr", 0x02000001);
        let err = rt.inject(&["Agg3", "ToR3"], pkt.clone()).unwrap_err();
        assert!(err.message.contains("failed switch"), "{err}");

        // …and the entry still hits on every surviving flow path that
        // reaches a conn_table shard.
        let surviving: Vec<Vec<String>> = out
            .flow_paths
            .values()
            .flatten()
            .filter(|p| rt.faults().path_survives(p))
            .cloned()
            .collect();
        for path in &surviving {
            let holders_on_path = path.iter().any(|sw| {
                out.placement.switches.get(sw).is_some_and(|p| {
                    p.extern_entries.contains_key("conn_table") && !rt.faults().switch_failed(sw)
                })
            });
            if !holders_on_path {
                continue;
            }
            let hops: Vec<&str> = path.iter().map(|s| s.as_str()).collect();
            let (end, _) = rt.inject(&hops, pkt.clone()).unwrap();
            assert_eq!(
                end.get("ipv4.dstAddr"),
                0x0a000001,
                "entry lost on surviving path {path:?}"
            );
        }

        // The re-sync went through the rollout engine: the epoch advanced
        // and every survivor agrees on it.
        assert!(rt.epoch() > 0, "re-sync must bump the epoch");
        assert!(rt.epochs_coherent());

        // Failing the same switch again is a no-op.
        assert_eq!(rt.fail_switch("Agg3").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn fail_link_refuses_the_path() {
        let out = lb_output();
        let mut rt = Runtime::new(&out);
        rt.install("conn_table", 42, 0x0a000001).unwrap();
        rt.fail_link("Agg3", "ToR3").unwrap();
        let mut pkt = PacketState::new();
        pkt.set("flow_h", 42);
        let err = rt.inject(&["Agg3", "ToR3"], pkt.clone()).unwrap_err();
        assert!(err.message.contains("failed link"), "{err}");
        // The sibling path through the same Agg still works.
        let (end, _) = rt.inject(&["Agg3", "ToR4"], pkt).unwrap();
        assert_eq!(end.get("ipv4.dstAddr"), 0x0a000001);
    }

    #[test]
    fn unknown_switch_failure_is_rejected() {
        let out = lb_output();
        let mut rt = Runtime::new(&out);
        assert!(rt.fail_switch("Banana").is_err());
    }
}
