//! Topology generators: the paper's Figure 1 network, the §7 evaluation
//! testbed, and fat-tree pods for the Figure 10 scalability study.

use crate::{Layer, SwitchId, Topology};

/// The Figure 1 motivating-example network: two pods behind a core layer.
///
/// * Pod 1: `ToR1` (Tofino-032Q), `ToR2` (Tofino-064Q), `Agg1`/`Agg2`
///   (Trident-4);
/// * Pod 2: `ToR3`/`ToR4` (Silicon One), `Agg3`/`Agg4` (Trident-4);
/// * Core: `Core1`/`Core2` (Tomahawk, fixed-function).
pub fn figure1_network() -> Topology {
    let mut t = Topology::new();
    let tor1 = t.add_switch("ToR1", Layer::ToR, "tofino-32q");
    let tor2 = t.add_switch("ToR2", Layer::ToR, "tofino-64q");
    let tor3 = t.add_switch("ToR3", Layer::ToR, "silicon-one");
    let tor4 = t.add_switch("ToR4", Layer::ToR, "silicon-one");
    let agg1 = t.add_switch("Agg1", Layer::Agg, "trident4");
    let agg2 = t.add_switch("Agg2", Layer::Agg, "trident4");
    let agg3 = t.add_switch("Agg3", Layer::Agg, "trident4");
    let agg4 = t.add_switch("Agg4", Layer::Agg, "trident4");
    let core1 = t.add_switch("Core1", Layer::Core, "tomahawk");
    let core2 = t.add_switch("Core2", Layer::Core, "tomahawk");
    // Pod 1 full bipartite ToR×Agg.
    for tor in [tor1, tor2] {
        for agg in [agg1, agg2] {
            t.add_link(tor, agg);
        }
    }
    // Pod 2.
    for tor in [tor3, tor4] {
        for agg in [agg3, agg4] {
            t.add_link(tor, agg);
        }
    }
    // Aggs to cores.
    for agg in [agg1, agg2, agg3, agg4] {
        for core in [core1, core2] {
            t.add_link(agg, core);
        }
    }
    t
}

/// The §7 evaluation testbed: "a fat-tree data-center testbed consisting of
/// eight servers and ten programmable switches: four ToR switches (Tofino),
/// four Agg switches (Trident-4), and two Core switches (Tofino)".
pub fn evaluation_testbed() -> Topology {
    let mut t = Topology::new();
    let tors: Vec<SwitchId> = (1..=4)
        .map(|i| t.add_switch(format!("ToR{i}"), Layer::ToR, "tofino-32q"))
        .collect();
    let aggs: Vec<SwitchId> = (1..=4)
        .map(|i| t.add_switch(format!("Agg{i}"), Layer::Agg, "trident4"))
        .collect();
    let cores: Vec<SwitchId> = (1..=2)
        .map(|i| t.add_switch(format!("Core{i}"), Layer::Core, "tofino-32q"))
        .collect();
    // Two pods of 2 ToR × 2 Agg.
    for pod in 0..2 {
        for &tor in &tors[pod * 2..pod * 2 + 2] {
            for &agg in &aggs[pod * 2..pod * 2 + 2] {
                t.add_link(tor, agg);
            }
        }
    }
    for &agg in &aggs {
        for &core in &cores {
            t.add_link(agg, core);
        }
    }
    t
}

/// One pod of a k-ary fat tree with a configurable ASIC assignment, as used
/// in the Figure 10 scalability study: `k/2` aggregation switches and `k/2`
/// ToR switches, fully bipartite. The paper varies k from 4 to 32, "where k
/// is the number of ports per switch and also equals the total number of
/// switches deployed".
pub fn fat_tree_pod(k: usize, tor_asic: &str, agg_asic: &str) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree pod requires even k >= 2, got {k}"
    );
    let mut t = Topology::new();
    let aggs: Vec<SwitchId> = (1..=k / 2)
        .map(|i| t.add_switch(format!("Agg{i}"), Layer::Agg, agg_asic))
        .collect();
    let tors: Vec<SwitchId> = (1..=k / 2)
        .map(|i| t.add_switch(format!("ToR{i}"), Layer::ToR, tor_asic))
        .collect();
    for &agg in &aggs {
        for &tor in &tors {
            t.add_link(agg, tor);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape() {
        let t = figure1_network();
        assert_eq!(t.len(), 10);
        assert_eq!(t.links.len(), 4 + 4 + 8);
        assert_eq!(t.switch(t.find("ToR1").unwrap()).asic, "tofino-32q");
        assert_eq!(t.switch(t.find("ToR3").unwrap()).asic, "silicon-one");
        assert_eq!(t.switch(t.find("Agg3").unwrap()).asic, "trident4");
        assert_eq!(t.switch(t.find("Core1").unwrap()).asic, "tomahawk");
    }

    #[test]
    fn testbed_shape() {
        let t = evaluation_testbed();
        assert_eq!(t.len(), 10);
        let tofinos = t.switches.iter().filter(|s| s.asic == "tofino-32q").count();
        assert_eq!(tofinos, 6); // 4 ToR + 2 Core
    }

    #[test]
    fn pod_shape() {
        for k in [4usize, 8, 16, 32] {
            let t = fat_tree_pod(k, "tofino-32q", "trident4");
            assert_eq!(t.len(), k);
            assert_eq!(t.links.len(), (k / 2) * (k / 2));
        }
    }

    #[test]
    #[should_panic]
    fn odd_k_rejected() {
        fat_tree_pod(5, "a", "b");
    }
}
