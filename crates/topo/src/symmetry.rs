//! Topology automorphism detection for symmetry-aware solving.
//!
//! Fat-tree pods are massively symmetric: every aggregation switch within a
//! pod (same ASIC, same layer, same links, same scope membership) is
//! interchangeable with every other, and likewise for the ToRs. Any
//! placement found on one representative therefore transfers to the others
//! by relabeling. [`interchangeable_classes`] detects these classes so the
//! synthesis layer can (a) emit lexicographic tie-breaking constraints that
//! keep the CDCL solver from branching over equivalent placements, and
//! (b) solve a quotient problem over class representatives and replicate
//! the solution.
//!
//! Detection is deliberately conservative: two switches are grouped only
//! when the *transposition* swapping them (and fixing everything else) is
//! verified to be an automorphism of both the topology's link relation and
//! every scope's switch set and path multiset. A transposition that passes
//! this check maps any constraint of the encoding to another constraint of
//! the encoding, so symmetry conclusions drawn from the classes are sound
//! by construction rather than by pattern-matching on switch names.

use std::collections::BTreeMap;

use crate::scope::ResolvedScope;
use crate::{SwitchId, Topology};

/// Union-find with path halving.
struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n).collect())
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Apply the transposition `(a b)` to a switch id.
fn swap_id(s: SwitchId, a: SwitchId, b: SwitchId) -> SwitchId {
    if s == a {
        b
    } else if s == b {
        a
    } else {
        s
    }
}

/// A link as a normalized pair.
fn canon(x: SwitchId, y: SwitchId) -> (u32, u32) {
    (x.0.min(y.0), x.0.max(y.0))
}

/// How often `item` occurs in the sorted list `sorted`.
fn count<T: Ord + ?Sized>(sorted: &[&T], item: &T) -> usize {
    sorted.partition_point(|q| *q <= item) - sorted.partition_point(|q| *q < item)
}

/// Is the transposition `(a b)` an automorphism of the link relation,
/// given the links as sorted normalized pairs? A transposition is its own
/// inverse, so a multiset is invariant under it exactly when every member
/// occurs as often as its image — and only members touching `a` or `b`
/// have an image other than themselves.
fn links_invariant(links: &[&(u32, u32)], a: SwitchId, b: SwitchId) -> bool {
    let touched = |l: &&&(u32, u32)| [l.0, l.1].iter().any(|&x| x == a.0 || x == b.0);
    links.iter().filter(touched).all(|l| {
        let image = canon(swap_id(SwitchId(l.0), a, b), swap_id(SwitchId(l.1), a, b));
        count(links, *l) == count(links, &image)
    })
}

/// Is the transposition `(a b)` an automorphism of every scope — same
/// switch set and same path multiset after the swap? `sorted[k]` is
/// `scopes[k].paths`, sorted.
fn scopes_invariant(
    scopes: &[ResolvedScope],
    sorted: &[Vec<&Vec<SwitchId>>],
    a: SwitchId,
    b: SwitchId,
) -> bool {
    scopes.iter().zip(sorted).all(|(scope, paths)| {
        // Membership: both in or both out.
        if scope.switches.contains(&a) != scope.switches.contains(&b) {
            return false;
        }
        // Path multiset invariant under the swap (see `links_invariant`).
        let touched = |p: &&&Vec<SwitchId>| p.contains(&a) || p.contains(&b);
        paths.iter().filter(touched).all(|p| {
            let image: Vec<SwitchId> = p.iter().map(|&s| swap_id(s, a, b)).collect();
            count(paths, *p) == count(paths, &image)
        })
    })
}

/// Detect classes of interchangeable switches: groups whose pairwise
/// transpositions are verified automorphisms of the topology *and* of every
/// resolved scope. Returns classes of size ≥ 2, each sorted by [`SwitchId`],
/// ordered by their smallest member.
///
/// Only switches with identical `(asic, layer)` are ever candidates —
/// differing chips have differing resource constraints, so swapping them
/// changes the encoding even when the wiring matches.
pub fn interchangeable_classes(topo: &Topology, scopes: &[ResolvedScope]) -> Vec<Vec<SwitchId>> {
    // Candidate buckets by (asic, layer).
    let mut buckets: BTreeMap<(String, u8), Vec<SwitchId>> = BTreeMap::new();
    for (i, sw) in topo.switches.iter().enumerate() {
        let layer = match sw.layer {
            crate::Layer::ToR => 0u8,
            crate::Layer::Agg => 1,
            crate::Layer::Core => 2,
        };
        buckets
            .entry((sw.asic.clone(), layer))
            .or_default()
            .push(SwitchId(i as u32));
    }
    if buckets.values().all(|ids| ids.len() < 2) {
        return Vec::new(); // nothing to pair up
    }
    // Sorted once per call; every candidate pair is checked against these.
    let canon_links: Vec<(u32, u32)> = topo.links.iter().map(|l| canon(l.a, l.b)).collect();
    let mut links: Vec<&(u32, u32)> = canon_links.iter().collect();
    links.sort_unstable();
    let mut paths: Vec<Vec<&Vec<SwitchId>>> =
        scopes.iter().map(|s| s.paths.iter().collect()).collect();
    paths.iter_mut().for_each(|p| p.sort_unstable());
    let mut uf = UnionFind::new(topo.len());
    for ids in buckets.values() {
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                if uf.find(a.index()) == uf.find(b.index()) {
                    continue; // already known interchangeable (transitively)
                }
                if links_invariant(&links, a, b) && scopes_invariant(scopes, &paths, a, b) {
                    uf.union(a.index(), b.index());
                }
            }
        }
    }
    // Note: union-find closure is sound here. If (a b) and (b c) are both
    // automorphisms then (a c) = (a b)(b c)(a b) is too, so transitive
    // grouping never over-approximates.
    let mut classes: BTreeMap<usize, Vec<SwitchId>> = BTreeMap::new();
    for i in 0..topo.len() {
        classes
            .entry(uf.find(i))
            .or_default()
            .push(SwitchId(i as u32));
    }
    classes.into_values().filter(|c| c.len() >= 2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{fat_tree_pod, figure1_network};
    use crate::resolve_scope;
    use lyra_lang::parse_scopes;

    fn resolved(topo: &Topology, text: &str) -> Vec<ResolvedScope> {
        parse_scopes(text)
            .unwrap()
            .iter()
            .map(|s| resolve_scope(topo, s).unwrap())
            .collect()
    }

    #[test]
    fn fat_tree_pod_has_two_full_classes() {
        let topo = fat_tree_pod(8, "tofino-32q", "trident4");
        let scopes = resolved(
            &topo,
            "lb: [ ToR*,Agg* | MULTI-SW | (Agg1,Agg2,Agg3,Agg4->ToR1,ToR2,ToR3,ToR4) ]",
        );
        let classes = interchangeable_classes(&topo, &scopes);
        assert_eq!(classes.len(), 2, "aggs and tors: {classes:?}");
        let sizes: Vec<usize> = classes.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![4, 4]);
        // Each class is layer-pure.
        for class in &classes {
            let layers: Vec<_> = class.iter().map(|&s| topo.switch(s).layer).collect();
            assert!(layers.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn figure1_tors_split_by_asic() {
        let topo = figure1_network();
        // ToR1 is tofino-32q, ToR2 tofino-64q, ToR3/ToR4 silicon-one: only
        // the silicon-one pair can be interchangeable, and only within a
        // scope that treats them symmetrically.
        let scopes = resolved(
            &topo,
            "lb: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
        );
        let classes = interchangeable_classes(&topo, &scopes);
        let tor3 = topo.find("ToR3").unwrap();
        let tor4 = topo.find("ToR4").unwrap();
        assert!(
            classes
                .iter()
                .any(|c| c.contains(&tor3) && c.contains(&tor4)),
            "silicon-one ToRs should pair: {classes:?}"
        );
        let tor1 = topo.find("ToR1").unwrap();
        assert!(
            classes.iter().all(|c| !c.contains(&tor1)),
            "ToR1 (unique ASIC) must stay alone: {classes:?}"
        );
    }

    #[test]
    fn asymmetric_scope_breaks_class() {
        let topo = fat_tree_pod(4, "tofino-32q", "trident4");
        // A scope naming only ToR1 distinguishes ToR1 from ToR2.
        let scopes = resolved(&topo, "a: [ ToR1 | PER-SW | - ]");
        let classes = interchangeable_classes(&topo, &scopes);
        let tor1 = topo.find("ToR1").unwrap();
        assert!(classes.iter().all(|c| !c.contains(&tor1)));
    }

    #[test]
    fn no_scopes_pure_topology_symmetry() {
        let topo = fat_tree_pod(4, "tofino-32q", "trident4");
        let classes = interchangeable_classes(&topo, &[]);
        // k=4 pod: 2 aggs + 2 tors, fully bipartite — two classes of two.
        assert_eq!(classes.len(), 2);
        assert!(classes.iter().all(|c| c.len() == 2));
    }
}
