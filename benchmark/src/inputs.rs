//! Everything a workload feeds the system: programs, scopes, topologies,
//! table entries and the seeded generator behind them. The programs under
//! test never see the seed, only what it generated.

use crate::api::{
    fat_tree_pod, figure1_network, figure9_corpus, programs, Layer, Objective, Topology,
};

/// xorshift64*, the generator the repository's own test suites use.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // Spread small consecutive seeds over the state space first.
        Rng((seed ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// `n` table entries with ascending unique keys about four apart, so the
/// small header values replayed traffic carries hit about a quarter of
/// the time and wide ones always miss.
pub fn entries(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed);
    let mut key = 0u64;
    (0..n)
        .map(|_| {
            key += 1 + rng.next() % 7;
            (key, rng.next())
        })
        .collect()
}

/// Entries `replay_netcache` installs into `cache_lookup`.
pub const NETCACHE_ENTRIES: usize = 64;

/// `n` cache entries on fixed keys five apart with seeded values: with so
/// few entries, seeded keys would change how often traffic hits — the work
/// per packet — from seed to seed.
pub fn netcache_entries(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed);
    (0..n as u64).map(|i| (i * 5, rng.next() % 97)).collect()
}

/// Input sizes of the deployment workloads: full, or `--check`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Entries in the million-entry deployments.
    pub entries_1m: usize,
    /// Entries in the `replay_rollout` deployment.
    pub entries_100k: usize,
    /// Packets per steady one-worker replay.
    pub packets: u64,
    /// Packets of a replay that has to last: a W-worker one, so that the
    /// workers' first touch of a fresh plane's memory does not weigh, and
    /// one a rollout commits under, so that the traffic outlasts it.
    pub long_packets: u64,
    /// Packets of the prefix replayed through the reference interpreter.
    pub interp_packets: u64,
    /// Samples after which a `--check` run stops (`None`: run the clock).
    pub max_samples: Option<usize>,
}

impl Sizes {
    pub fn new(check: bool) -> Self {
        if check {
            Sizes {
                entries_1m: 10_000,
                entries_100k: 10_000,
                packets: 100_000,
                long_packets: 100_000,
                interp_packets: 20_000,
                max_samples: Some(1),
            }
        } else {
            Sizes {
                entries_1m: 1_000_000,
                entries_100k: 100_000,
                packets: 200_000,
                long_packets: 1_000_000,
                interp_packets: 100_000,
                max_samples: None,
            }
        }
    }
}

/// The golden replay every run repeats: fixed seed and size, whatever
/// `--seed` says, so its effects and digest can sit in an expected file.
pub const GOLDEN_SEED: u64 = 1;
pub const GOLDEN_ENTRIES: usize = 10_000;
pub const GOLDEN_PACKETS: u64 = 100_000;

/// One thing to compile: program × scopes × topology × objective, and
/// optionally the switch whose failure the compiler must then absorb.
pub struct Instance {
    pub name: String,
    pub program: String,
    pub scopes: String,
    pub topo: Topology,
    pub objective: Objective,
    pub fail: Option<&'static str>,
    /// Also compiled through a warm `SynthCache` (the second timing).
    pub warm: bool,
    /// Counted in the secondary timing of its workload.
    pub secondary: bool,
}

impl Instance {
    fn new(name: impl Into<String>, program: String, scopes: String, topo: Topology) -> Self {
        Instance {
            name: name.into(),
            program,
            scopes,
            topo,
            objective: Objective::Feasible,
            fail: None,
            warm: false,
            secondary: false,
        }
    }

    fn min_switches(mut self) -> Self {
        self.name.push_str(" min-switches");
        self.objective = Objective::MinSwitches;
        self.secondary = true;
        self
    }

    fn failing(mut self, switch: &'static str) -> Self {
        self.fail = Some(switch);
        self.secondary = true;
        self
    }
}

pub fn pod(k: usize) -> Topology {
    fat_tree_pod(k, "tofino-32q", "trident4")
}

/// MULTI-SW over a whole pod, traffic entering at the Aggs.
pub fn multi_scopes(alg: &str, k: usize) -> String {
    let names = |p: &str| {
        (1..=k / 2)
            .map(|i| format!("{p}{i}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{alg}: [ ToR*,Agg* | MULTI-SW | ({}->{}) ]",
        names("Agg"),
        names("ToR")
    )
}

/// The load balancer of `tests/rollout_scale.rs`: one `conn_table` of
/// `size` entries keyed by a header field, so table state dominates.
pub fn lb_scaled(size: u64) -> String {
    format!(
        r#"
        pipeline[LB]{{loadbalancer}};
        algorithm loadbalancer {{
            extern dict<bit[32] h, bit[32] ip>[{size}] conn_table;
            if (flow_h in conn_table) {{
                ipv4.dstAddr = conn_table[flow_h];
            }} else {{
                copy_to_cpu();
            }}
        }}
    "#
    )
}

pub const FIG1_LB_SCOPES: &str =
    "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";

/// LB on the second pod of the Figure 1 network with a `size`-entry table.
pub fn fig1_lb(size: u64) -> Instance {
    Instance::new(
        format!("LB[{size}] MULTI-SW fig1"),
        lb_scaled(size),
        FIG1_LB_SCOPES.to_string(),
        figure1_network(),
    )
    .failing("Agg3")
}

pub fn netcache_pod8() -> Instance {
    Instance::new(
        "NetCache MULTI-SW k=8",
        programs::netcache(),
        multi_scopes("netcache", 8),
        pod(8),
    )
}

/// Figure 9: ten programs, PER-SW on one Tofino ToR and again on one
/// Trident-4 ToR. The solver sees no conflicts; front end, Algorithm-1 /
/// NPL synthesis, codegen and fixed per-compile costs do the work.
pub fn corpus_instances() -> Vec<Instance> {
    let mut out = Vec::new();
    for asic in ["tofino-32q", "trident4"] {
        for entry in figure9_corpus() {
            let mut topo = Topology::new();
            topo.add_switch("ToR1", Layer::ToR, asic);
            let scopes = entry
                .scopes
                .lines()
                .filter_map(|l| l.split(':').next())
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(|a| format!("{a}: [ ToR1 | PER-SW | - ]"))
                .collect::<Vec<_>>()
                .join("\n");
            let mut inst = Instance::new(
                format!("{} @{asic}", entry.name),
                entry.source,
                scopes,
                topo,
            );
            (inst.warm, inst.secondary) = (true, true);
            out.push(inst);
        }
    }
    out
}

/// Figure 10: pod-scale placements compiled cold, and two of them
/// recompiled after Agg1 fails.
pub fn pod_instances() -> Vec<Instance> {
    let lb_at = |k| {
        Instance::new(
            format!("LB(MULTI-SW) k={k}"),
            programs::load_balancer(1_000_000),
            multi_scopes("loadbalancer", k),
            pod(k),
        )
    };
    let nc_at = |k| {
        Instance::new(
            format!("NetCache(MULTI-SW) k={k}"),
            programs::netcache(),
            multi_scopes("netcache", k),
            pod(k),
        )
    };
    let after_agg1_fails = |mut inst: Instance| {
        inst.name.push_str(" Agg1 fails");
        inst.failing("Agg1")
    };
    vec![
        lb_at(32),
        Instance::new(
            "NetCache(PER-SW) k=32",
            programs::netcache(),
            "netcache: [ ToR*,Agg* | PER-SW | - ]".to_string(),
            pod(32),
        ),
        nc_at(16),
        nc_at(32),
        after_agg1_fails(lb_at(16)),
        after_agg1_fails(nc_at(16)),
    ]
}

/// Near-capacity placements that make the solver search: conflicts,
/// integer propagation and minimisation do the work.
pub fn tight_instances() -> Vec<Instance> {
    let lb_pod = |entries: u64, k: usize| {
        Instance::new(
            format!("LB[{entries}] MULTI-SW k={k}"),
            programs::load_balancer(entries),
            multi_scopes("loadbalancer", k),
            pod(k),
        )
    };
    vec![
        Instance::new(
            "LB[4000000] MULTI-SW fig1",
            programs::load_balancer(4_000_000),
            FIG1_LB_SCOPES.to_string(),
            figure1_network(),
        ),
        lb_pod(5_500_000, 8),
        lb_pod(6_000_000, 8),
        lb_pod(3_000_000, 6).min_switches(),
        lb_pod(5_500_000, 4).min_switches(),
        netcache_pod8().min_switches(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_ascending_unique_and_seeded() {
        let a = entries(1000, 7);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(a, entries(1000, 7));
        assert_ne!(a, entries(1000, 8));
    }

    #[test]
    fn shuffle_keeps_every_item() {
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
