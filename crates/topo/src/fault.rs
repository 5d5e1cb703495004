//! The topology fault model (§8 "handling network changes").
//!
//! Lyra's operational pitch is that one big-pipeline program survives
//! network change: when a link or switch dies, operators re-run the
//! compiler against the degraded network instead of rewriting chip code.
//! This module supplies the vocabulary for that workflow:
//!
//! * [`FaultSet`] — a set of failed switches and failed links, by name;
//! * [`Topology::degrade`] — the surviving topology (failed switches and
//!   links removed, plus every link stranded by a switch failure), together
//!   with the connected components of what remains;
//! * [`scope_health`] — per-scope triage: did a resolved scope stay intact,
//!   merely shrink, become *partitioned* (switches survive but no flow path
//!   does), or become entirely *unreachable*?
//!
//! The compile driver builds on these to recompile a deployment for a
//! fault set and to report exactly which algorithm scopes a fault killed.

use std::collections::{BTreeSet, VecDeque};

use crate::{ResolvedScope, SwitchId, Topology};

/// A set of failed network elements, identified by switch name. Links are
/// undirected: failing `(a, b)` also fails `(b, a)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    switches: BTreeSet<String>,
    links: BTreeSet<(String, String)>,
}

/// Order a link's endpoint names so `(a, b)` and `(b, a)` collide.
fn link_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

impl FaultSet {
    /// An empty fault set (nothing failed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark a switch as failed. Builder-style; see also
    /// [`FaultSet::add_switch`].
    pub fn with_switch(mut self, name: impl Into<String>) -> Self {
        self.add_switch(name);
        self
    }

    /// Mark a link as failed. Builder-style; see also [`FaultSet::add_link`].
    #[cfg(test)]
    pub(crate) fn with_link(mut self, a: impl AsRef<str>, b: impl AsRef<str>) -> Self {
        self.add_link(a, b);
        self
    }

    /// Mark a switch as failed.
    pub fn add_switch(&mut self, name: impl Into<String>) {
        self.switches.insert(name.into());
    }

    /// Mark an undirected link as failed.
    pub fn add_link(&mut self, a: impl AsRef<str>, b: impl AsRef<str>) {
        self.links.insert(link_key(a.as_ref(), b.as_ref()));
    }

    /// True when nothing is failed.
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty() && self.links.is_empty()
    }

    /// Is this switch failed?
    pub fn switch_failed(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// Is this link failed — either explicitly, or because an endpoint
    /// switch is down?
    pub fn link_failed(&self, a: &str, b: &str) -> bool {
        self.switches.contains(a)
            || self.switches.contains(b)
            || self.links.contains(&link_key(a, b))
    }

    /// Failed switch names, sorted.
    pub fn failed_switches(&self) -> impl Iterator<Item = &str> {
        self.switches.iter().map(|s| s.as_str())
    }

    /// Explicitly failed links, sorted.
    pub fn failed_links(&self) -> impl Iterator<Item = (&str, &str)> {
        self.links.iter().map(|(a, b)| (a.as_str(), b.as_str()))
    }

    /// A path of switch names survives when every hop is alive and every
    /// consecutive hop pair's link is alive.
    pub fn path_survives<S: AsRef<str>>(&self, path: &[S]) -> bool {
        if path.iter().any(|s| self.switch_failed(s.as_ref())) {
            return false;
        }
        path.windows(2)
            .all(|w| !self.link_failed(w[0].as_ref(), w[1].as_ref()))
    }

    /// Fault elements that name switches absent from `topo` (typos, or a
    /// fault set built against a different network). Link endpoints are
    /// checked too.
    pub fn unknown_elements(&self, topo: &Topology) -> Vec<String> {
        let mut unknown: Vec<String> = Vec::new();
        for s in &self.switches {
            if topo.find(s).is_none() {
                unknown.push(s.clone());
            }
        }
        for (a, b) in &self.links {
            for end in [a, b] {
                if topo.find(end).is_none() && !unknown.contains(end) {
                    unknown.push(end.clone());
                }
            }
        }
        unknown
    }
}

/// The result of applying a [`FaultSet`] to a [`Topology`].
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeReport {
    /// The surviving topology: failed switches removed (switch ids are
    /// re-assigned), failed links and links stranded by switch failures
    /// removed.
    pub topology: Topology,
    /// Names of switches removed by the fault set.
    pub removed_switches: Vec<String>,
    /// Links physically removed — explicitly failed links plus links that
    /// lost an endpoint.
    pub removed_links: Vec<(String, String)>,
    /// Connected components of the surviving topology (switch names). More
    /// than one component means the surviving network is partitioned.
    pub components: Vec<Vec<String>>,
}

impl Topology {
    /// Apply a fault set: drop failed switches and links and report what
    /// remains. Fault entries naming unknown switches are ignored here;
    /// use [`FaultSet::unknown_elements`] to validate a fault set first.
    pub fn degrade(&self, faults: &FaultSet) -> DegradeReport {
        let mut survivor = Topology::new();
        let mut removed_switches = Vec::new();
        for sw in &self.switches {
            if faults.switch_failed(&sw.name) {
                removed_switches.push(sw.name.clone());
            } else {
                survivor.add_switch(sw.name.clone(), sw.layer, sw.asic.clone());
            }
        }
        let mut removed_links = Vec::new();
        for l in &self.links {
            let (a, b) = (&self.switch(l.a).name, &self.switch(l.b).name);
            if faults.link_failed(a, b) {
                removed_links.push(link_key(a, b));
            } else {
                let (sa, sb) = (
                    survivor.find(a).expect("survivor"),
                    survivor.find(b).expect("survivor"),
                );
                survivor.add_link(sa, sb);
            }
        }
        removed_links.sort();
        removed_links.dedup();
        let components = components_of(&survivor);
        DegradeReport {
            topology: survivor,
            removed_switches,
            removed_links,
            components,
        }
    }
}

/// Connected components of a topology, as sorted switch-name groups.
fn components_of(topo: &Topology) -> Vec<Vec<String>> {
    let mut seen = vec![false; topo.len()];
    let mut components = Vec::new();
    for start in 0..topo.len() {
        if seen[start] {
            continue;
        }
        let mut group = Vec::new();
        let mut queue = VecDeque::from([SwitchId(start as u32)]);
        seen[start] = true;
        while let Some(cur) = queue.pop_front() {
            group.push(topo.switch(cur).name.clone());
            for n in topo.neighbors(cur) {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    queue.push_back(n);
                }
            }
        }
        group.sort();
        components.push(group);
    }
    components
}

/// How a resolved scope fares under a fault set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScopeHealth {
    /// Every scope switch and every flow path survives.
    Intact,
    /// Some switches or paths were lost, but at least one flow path
    /// survives — the scope can be recompiled onto the survivors.
    Degraded {
        /// Scope switches that failed.
        lost_switches: Vec<String>,
        /// Flow paths that no longer exist.
        lost_paths: usize,
    },
    /// Scope switches survive, but no flow path does: traffic can no
    /// longer traverse the scope (the scope's region is partitioned).
    Partitioned,
    /// Every switch of the scope failed.
    Unreachable,
}

impl ScopeHealth {
    /// True when the scope can still host its algorithm (intact or merely
    /// degraded).
    pub fn survivable(&self) -> bool {
        matches!(self, ScopeHealth::Intact | ScopeHealth::Degraded { .. })
    }
}

/// Classify a resolved scope against a fault set (see [`ScopeHealth`]).
pub fn scope_health(topo: &Topology, scope: &ResolvedScope, faults: &FaultSet) -> ScopeHealth {
    let lost_switches: Vec<String> = scope
        .switches
        .iter()
        .map(|&s| topo.switch(s).name.clone())
        .filter(|n| faults.switch_failed(n))
        .collect();
    if lost_switches.len() == scope.switches.len() {
        return ScopeHealth::Unreachable;
    }
    let surviving_paths = scope
        .paths
        .iter()
        .filter(|p| {
            let names: Vec<&str> = p.iter().map(|&s| topo.switch(s).name.as_str()).collect();
            faults.path_survives(&names)
        })
        .count();
    if surviving_paths == 0 {
        return ScopeHealth::Partitioned;
    }
    let lost_paths = scope.paths.len() - surviving_paths;
    if lost_switches.is_empty() && lost_paths == 0 {
        ScopeHealth::Intact
    } else {
        ScopeHealth::Degraded {
            lost_switches,
            lost_paths,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::figure1_network;
    use crate::resolve_scope;
    use lyra_lang::parse_scopes;

    fn lb_scope(topo: &Topology) -> ResolvedScope {
        let specs = parse_scopes(
            "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
        )
        .unwrap();
        resolve_scope(topo, &specs[0]).unwrap()
    }

    #[test]
    fn degrade_removes_switch_and_stranded_links() {
        let topo = figure1_network();
        let faults = FaultSet::new().with_switch("Agg3");
        let report = topo.degrade(&faults);
        assert_eq!(report.topology.len(), topo.len() - 1);
        assert!(report.topology.find("Agg3").is_none());
        assert_eq!(report.removed_switches, vec!["Agg3".to_string()]);
        // Agg3 had 4 links (2 ToRs + 2 cores); all are stranded.
        assert_eq!(report.removed_links.len(), 4);
        // The survivor network stays connected.
        assert_eq!(report.components.len(), 1);
    }

    #[test]
    fn degrade_reports_partition() {
        let mut topo = Topology::new();
        let a = topo.add_switch("A", crate::Layer::ToR, "tofino-32q");
        let b = topo.add_switch("B", crate::Layer::Agg, "trident4");
        let c = topo.add_switch("C", crate::Layer::ToR, "tofino-32q");
        topo.add_link(a, b);
        topo.add_link(b, c);
        let report = topo.degrade(&FaultSet::new().with_switch("B"));
        assert_eq!(report.components.len(), 2);
    }

    #[test]
    fn link_failure_is_undirected() {
        let faults = FaultSet::new().with_link("ToR3", "Agg3");
        assert!(faults.link_failed("Agg3", "ToR3"));
        assert!(faults.link_failed("ToR3", "Agg3"));
        assert!(!faults.link_failed("ToR4", "Agg3"));
    }

    #[test]
    fn scope_health_classification() {
        let topo = figure1_network();
        let scope = lb_scope(&topo);

        assert_eq!(
            scope_health(&topo, &scope, &FaultSet::new()),
            ScopeHealth::Intact
        );
        // One Agg down: two of four paths die, scope survives.
        let h = scope_health(&topo, &scope, &FaultSet::new().with_switch("Agg3"));
        match h {
            ScopeHealth::Degraded {
                lost_switches,
                lost_paths,
            } => {
                assert_eq!(lost_switches, vec!["Agg3".to_string()]);
                assert_eq!(lost_paths, 2);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        // Both Aggs down: ToRs survive but no path enters the scope.
        let h = scope_health(
            &topo,
            &scope,
            &FaultSet::new().with_switch("Agg3").with_switch("Agg4"),
        );
        assert_eq!(h, ScopeHealth::Partitioned);
        // Everything down.
        let mut all = FaultSet::new();
        for n in ["ToR3", "ToR4", "Agg3", "Agg4"] {
            all.add_switch(n);
        }
        assert_eq!(scope_health(&topo, &scope, &all), ScopeHealth::Unreachable);
    }

    #[test]
    fn scope_health_sees_link_failures() {
        let topo = figure1_network();
        let scope = lb_scope(&topo);
        // Cutting one Agg→ToR link kills exactly one path.
        let h = scope_health(&topo, &scope, &FaultSet::new().with_link("Agg3", "ToR3"));
        assert_eq!(
            h,
            ScopeHealth::Degraded {
                lost_switches: vec![],
                lost_paths: 1
            }
        );
    }

    #[test]
    fn unknown_elements_are_reported() {
        let topo = figure1_network();
        let faults = FaultSet::new()
            .with_switch("NoSuchSwitch")
            .with_link("ToR3", "Agg3");
        assert_eq!(faults.unknown_elements(&topo), vec!["NoSuchSwitch"]);
    }

    #[test]
    fn path_survives_checks_hops_and_links() {
        let faults = FaultSet::new().with_link("Agg3", "ToR3");
        assert!(!faults.path_survives(&["Agg3", "ToR3"]));
        assert!(faults.path_survives(&["Agg3", "ToR4"]));
        let faults = FaultSet::new().with_switch("Agg3");
        assert!(!faults.path_survives(&["Agg3", "ToR4"]));
    }
}
