//! Shared helpers for the scale suites: a deterministic PRNG, a
//! parameterized load-balancer program, and a seeded large-entry-set
//! generator. The workspace builds offline with no external crates, so
//! randomness is the same xorshift64* the other property harnesses use —
//! every run explores the identical scenario set and failures reproduce
//! from the printed seed/scenario index.

#![allow(dead_code)] // each test binary uses a different subset

/// Deterministic xorshift64* PRNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The Figure-1 load balancer with a parameterized `conn_table` size —
/// the scale suites grow it from 10³ to 2²¹ so a million logical entries
/// fit under the per-path capacity constraint (each flow path's shard
/// sizes must sum to the declared size).
pub fn lb_program(table_size: u64) -> String {
    format!(
        r#"
        pipeline[LB]{{loadbalancer}};
        algorithm loadbalancer {{
            extern dict<bit[32] h, bit[32] ip>[{table_size}] conn_table;
            if (flow_h in conn_table) {{
                ipv4.dstAddr = conn_table[flow_h];
            }} else {{
                copy_to_cpu();
            }}
        }}
    "#
    )
}

/// The LB deployment scope over pod 2 of the Figure 1 network.
pub const LB_SCOPES: &str =
    "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]";

/// Seeded entry-set generator: `n` unique keys in ascending order (gaps
/// drawn from the PRNG) with pseudo-random values. Ascending keys keep
/// bulk installs append-mostly in the page store, which is what makes
/// seeding 10⁶ entries practical even in debug builds.
pub fn scaled_entries(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed);
    let mut entries = Vec::with_capacity(n);
    let mut key = 0u64;
    for _ in 0..n {
        key += 1 + rng.below(7);
        entries.push((key, rng.next()));
    }
    entries
}

/// The from-scratch planner, kept as the differential reference for the
/// rollout engine's shard-level staging: a fresh deployment of `output`
/// with the same faults applied while it is still empty, then every
/// logical entry placed one at a time by the first-fit `install` planner —
/// what staging did for every rollout before it learned to keep shards.
/// `Err` is the planner's own (a table that does not fit).
pub fn replan_from_scratch<'a>(
    output: &'a lyra::CompileOutput,
    faults: &lyra_topo::FaultSet,
    entries: &[(String, u64, u64)],
) -> Result<lyra::Runtime<'a>, lyra::RuntimeError> {
    // A failover placement no longer names the elements it was compiled
    // around; there is nothing of theirs to fail.
    let unless_unknown = |failed: Result<Vec<String>, lyra::RuntimeError>| match failed {
        Err(e) if e.code != Some(lyra_diag::codes::SCOPE_UNKNOWN_SWITCH) => Err(e),
        _ => Ok(()),
    };
    let mut rt = lyra::Runtime::new(output);
    for switch in faults.failed_switches() {
        unless_unknown(rt.fail_switch(switch))?;
    }
    for (a, b) in faults.failed_links() {
        unless_unknown(rt.fail_link(a, b))?;
    }
    for (table, key, value) in entries {
        rt.install(table, *key, *value)?;
    }
    Ok(rt)
}

/// Assert the layout invariants every control-plane operation must leave
/// behind, over `switches` (every switch that could hold a shard):
///
/// * every logical entry is present, with its logical value, on at least
///   one holder of every surviving flow path that reaches its table (with
///   no path left, every holder is its own path);
/// * no shard exceeds the capacity the placement gives it;
/// * a switch the placement hosts no shard of a table on holds none of it.
pub fn assert_layout_sound(rt: &lyra::Runtime<'_>, switches: &[&str], what: &str) {
    let (out, faults) = (rt.output(), rt.faults());
    let capacity = |sw: &str, table: &str| {
        out.placement
            .switches
            .get(sw)
            .filter(|_| !faults.switch_failed(sw))
            .and_then(|plan| plan.extern_entries.get(table))
            .copied()
    };
    let logical = rt.logical_entries();
    let mut tables: Vec<&str> = out
        .placement
        .switches
        .values()
        .flat_map(|plan| plan.extern_entries.keys())
        .chain(logical.iter().map(|(table, _, _)| table))
        .map(String::as_str)
        .collect();
    tables.sort_unstable();
    tables.dedup();
    for table in tables {
        for &sw in switches {
            let held = rt.installed_on(sw, table);
            match capacity(sw, table) {
                Some(cap) => assert!(
                    held <= cap,
                    "{what}: `{sw}` holds {held} entries of `{table}`, capacity {cap}"
                ),
                None => assert_eq!(
                    held, 0,
                    "{what}: `{sw}` hosts no shard of `{table}` but holds {held} entries"
                ),
            }
        }
        let holders: Vec<&str> = switches
            .iter()
            .copied()
            .filter(|sw| capacity(sw, table).is_some())
            .collect();
        let mut paths: Vec<Vec<&str>> = out
            .flow_paths
            .values()
            .flatten()
            .filter(|p| faults.path_survives(p))
            .map(|p| p.iter().map(String::as_str).collect::<Vec<_>>())
            .filter(|p| p.iter().any(|sw| holders.contains(sw)))
            .collect();
        if paths.is_empty() {
            paths = holders.iter().map(|&h| vec![h]).collect();
        }
        for (_, key, value) in logical.iter().filter(|(t, _, _)| t == table) {
            for path in &paths {
                let seen = path.iter().any(|sw| {
                    holders.contains(sw)
                        && rt.shard(sw, table).and_then(|s| s.get(*key)) == Some(*value)
                });
                assert!(
                    seen,
                    "{what}: `{table}[{key}]` = {value:#x} is out of sight of path {path:?}"
                );
            }
        }
    }
}
