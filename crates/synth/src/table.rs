//! Synthesized table representation shared by the P4 and NPL back-ends.
//!
//! A [`SynthTable`] is the *conditional implementation* unit of §5.2–5.3:
//! it exists in the final program only if at least one of the IR
//! instructions it implements is placed on its switch (the table validity
//! constraint `V_t = ⋁ f_s(i)`).

use lyra_ir::{InstrId, ValueId};
use lyra_lang::MatchKind;

/// How a synthesized table matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableKind {
    /// Exact-match on an extern table's key columns.
    ExternMatch {
        /// Backing extern name.
        extern_name: String,
    },
    /// Match on a predicate's source fields (gateway-style table).
    PredicateGate,
    /// No match — a default-action table carrying computation.
    DirectAction,
    /// NPL logical table with `lookups` key constructions folded into one
    /// table (Figure 2's `check_ip` with `_LOOKUP0`/`_LOOKUP1`).
    NplLogical {
        /// Number of lookups merged into this logical table.
        lookups: u32,
        /// Backing extern name, if table-backed.
        extern_name: Option<String>,
    },
    /// A stateful register table (NPL logical register / P4 register+atom).
    Register {
        /// Backing global name.
        global: String,
    },
}

/// One action of a synthesized table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthAction {
    /// Action name (unique within the program, prefixed by algorithm —
    /// §7.3: "all the generated variables and tables for algorithm firewall
    /// are assigned the same prefix-name firewall").
    pub name: String,
    /// IR instructions this action executes.
    pub instrs: Vec<InstrId>,
}

/// A conditionally synthesized table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthTable {
    /// Table name (algorithm-prefixed).
    pub name: String,
    /// Owning algorithm.
    pub algorithm: String,
    /// Match behavior.
    pub kind: TableKind,
    /// Total match key width in bits (`M_t`).
    pub match_width: u64,
    /// Number of entries (`E_t`) — for extern-backed tables this is the
    /// *full* extern size; the solver may split it across switches.
    pub entries: u64,
    /// Actions.
    pub actions: Vec<SynthAction>,
    /// Predicate block this table came from (its guarding predicate value).
    pub pred: Option<ValueId>,
    /// Match kind of the key columns (drives SRAM-vs-TCAM residency).
    pub match_kind: MatchKind,
    /// Every IR instruction whose deployment makes this table valid.
    pub instrs: Vec<InstrId>,
    /// Indices (into the same table group) of tables this one must follow.
    pub depends_on: Vec<usize>,
    /// True if this table reads or writes a stateful register.
    pub stateful: bool,
}

impl SynthTable {
    /// Total number of actions.
    pub fn action_count(&self) -> u64 {
        self.actions.len() as u64
    }

    /// The extern backing this table, if any.
    pub fn extern_name(&self) -> Option<&str> {
        match &self.kind {
            TableKind::ExternMatch { extern_name } => Some(extern_name),
            TableKind::NplLogical {
                extern_name: Some(e),
                ..
            } => Some(e),
            _ => None,
        }
    }
}

/// A per-switch *conditional implementation*: the potential table group
/// `L_s` plus the instruction set `R_s` it was derived from (§5.2's
/// Algorithm 1 outputs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableGroup {
    /// Tables, in dependency order.
    pub tables: Vec<SynthTable>,
    /// Number of stateful register arrays referenced.
    pub registers: u64,
    /// Longest dependency chain through `tables` (stage lower bound; NPL's
    /// "longest code path").
    pub critical_path: u64,
}

impl TableGroup {
    /// Fuse strongly-connected components of the table dependency graph
    /// into single tables. Mutually-dependent logic cannot occupy distinct
    /// pipeline stages, so it must co-reside in one match-action unit —
    /// the table-level analogue of the paper's stateful atoms (App. A.5).
    pub fn fuse_cycles(&mut self) {
        let n = self.tables.len();
        if n == 0 {
            return;
        }
        // Iterative Tarjan SCC.
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut comp = vec![usize::MAX; n];
        let mut next_index = 0usize;
        let mut next_comp = 0usize;
        // DFS frame: (node, neighbor position).
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&mut (v, ref mut ni)) = frames.last_mut() {
                if *ni == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                let deps = &self.tables[v].depends_on;
                if *ni < deps.len() {
                    let w = deps[*ni];
                    *ni += 1;
                    if w < n {
                        if index[w] == usize::MAX {
                            frames.push((w, 0));
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                } else {
                    if low[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w] = false;
                            comp[w] = next_comp;
                            if w == v {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                    let done = v;
                    frames.pop();
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        low[parent] = low[parent].min(low[done]);
                    }
                }
            }
        }
        if next_comp == n {
            return; // every component is a singleton — no cycles
        }
        // Merge each component into a representative table.
        let mut rep_of_comp: Vec<Option<usize>> = vec![None; next_comp];
        let mut new_index = vec![usize::MAX; n];
        let mut merged: Vec<SynthTable> = Vec::new();
        for (i, t) in self.tables.iter().enumerate() {
            match rep_of_comp[comp[i]] {
                None => {
                    let ni = merged.len();
                    rep_of_comp[comp[i]] = Some(ni);
                    new_index[i] = ni;
                    merged.push(t.clone());
                }
                Some(ni) => {
                    new_index[i] = ni;
                    let rep = &mut merged[ni];
                    rep.actions.extend(t.actions.iter().cloned());
                    rep.instrs.extend(t.instrs.iter().copied());
                    rep.depends_on.extend(t.depends_on.iter().copied());
                    rep.stateful |= t.stateful;
                    rep.entries = rep.entries.max(t.entries);
                    rep.match_width = rep.match_width.max(t.match_width);
                }
            }
        }
        for (ti, t) in merged.iter_mut().enumerate() {
            let mut deps: Vec<usize> = t
                .depends_on
                .iter()
                .map(|&d| new_index[d])
                .filter(|&d| d != ti)
                .collect();
            deps.sort_unstable();
            deps.dedup();
            t.depends_on = deps;
        }
        self.tables = merged;
        self.compute_critical_path();
    }

    /// Reorder `tables` so every table appears after all the tables it
    /// depends on, keeping the current relative order among unordered
    /// tables (stable Kahn). The emitters execute tables in `tables`
    /// order — a consumer placed before its producer (e.g. an NPL lookup
    /// whose key a later function computes) silently reads stale state.
    /// Call after `fuse_cycles`: any residual cycle's members are left in
    /// their current order at the tail.
    pub fn sort_topological(&mut self) {
        let n = self.tables.len();
        if n <= 1 {
            return;
        }
        let mut indeg: Vec<usize> = vec![0; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (ti, t) in self.tables.iter().enumerate() {
            for &d in &t.depends_on {
                if d < n && d != ti {
                    indeg[ti] += 1;
                    dependents[d].push(ti);
                }
            }
        }
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        // Smallest ready index first keeps the sort stable.
        while let Some(next) = (0..n).find(|&i| !placed[i] && indeg[i] == 0) {
            placed[next] = true;
            order.push(next);
            for &w in &dependents[next] {
                indeg[w] -= 1;
            }
        }
        // Residual cycle (callers fuse first, so normally empty).
        order.extend((0..n).filter(|&i| !placed[i]));
        if order.iter().enumerate().all(|(pos, &i)| pos == i) {
            return;
        }
        let mut new_index = vec![usize::MAX; n];
        for (pos, &old) in order.iter().enumerate() {
            new_index[old] = pos;
        }
        let mut reordered: Vec<SynthTable> =
            order.iter().map(|&old| self.tables[old].clone()).collect();
        for t in &mut reordered {
            for d in &mut t.depends_on {
                if *d < n {
                    *d = new_index[*d];
                }
            }
        }
        self.tables = reordered;
    }

    /// Longest dependency chain ending at each table, counting only the
    /// tables `valid` marks as deployed: `1 + max` over a valid table's
    /// valid `depends_on`, and 0 for a table that is not deployed. This is
    /// the least assignment of the encoder's `depth[s][t]` variables, and
    /// the one computation behind the critical path, the lifted solver
    /// assignment ([`crate::place::lift`]) and the stage usage reported by
    /// [`crate::place::extract`]. Edges may point in either index direction
    /// as long as the graph is acyclic (run [`TableGroup::fuse_cycles`]
    /// first); a residual cycle is cut at an arbitrary edge.
    pub fn chain_depths(&self, valid: &[bool]) -> Vec<u64> {
        fn dfs(
            tables: &[SynthTable],
            valid: &[bool],
            depth: &mut [u64],
            v: usize,
            guard: usize,
        ) -> u64 {
            if depth[v] != 0 {
                return depth[v];
            }
            if guard == 0 {
                return 1; // cycle fallback — callers fuse cycles first
            }
            let mut best = 1u64;
            for &d in &tables[v].depends_on {
                if d < tables.len() && d != v && valid[d] {
                    best = best.max(1 + dfs(tables, valid, depth, d, guard - 1));
                }
            }
            depth[v] = best;
            best
        }
        let n = self.tables.len();
        let mut depth = vec![0u64; n];
        for v in (0..n).filter(|&v| valid[v]) {
            dfs(&self.tables, valid, &mut depth, v, n);
        }
        depth
    }

    /// Recompute the dependency critical path (in tables): the longest
    /// chain with every table deployed.
    pub fn compute_critical_path(&mut self) {
        let all = vec![true; self.tables.len()];
        self.critical_path = self.chain_depths(&all).into_iter().max().unwrap_or(0);
    }

    /// Total table count.
    #[cfg(test)]
    pub(crate) fn table_count(&self) -> u64 {
        self.tables.len() as u64
    }

    /// Total action count.
    pub fn action_count(&self) -> u64 {
        self.tables.iter().map(|t| t.action_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_table(name: &str, deps: Vec<usize>) -> SynthTable {
        SynthTable {
            name: name.into(),
            algorithm: "a".into(),
            kind: TableKind::DirectAction,
            match_width: 0,
            entries: 1,
            actions: vec![SynthAction {
                name: format!("{name}_act"),
                instrs: vec![],
            }],
            pred: None,
            match_kind: MatchKind::Exact,
            instrs: vec![],
            depends_on: deps,
            stateful: false,
        }
    }

    #[test]
    fn critical_path_computation() {
        let mut g = TableGroup {
            tables: vec![
                mk_table("a", vec![]),
                mk_table("b", vec![0]),
                mk_table("c", vec![1]),
            ],
            registers: 0,
            critical_path: 0,
        };
        g.compute_critical_path();
        assert_eq!(g.critical_path, 3);
        assert_eq!(g.table_count(), 3);
        assert_eq!(g.action_count(), 3);
    }

    #[test]
    fn chain_depths_skip_undeployed_tables() {
        // a <- b <- c, and d depending on both a and c.
        let g = TableGroup {
            tables: vec![
                mk_table("a", vec![]),
                mk_table("b", vec![0]),
                mk_table("c", vec![1]),
                mk_table("d", vec![0, 2]),
            ],
            registers: 0,
            critical_path: 0,
        };
        assert_eq!(g.chain_depths(&[true; 4]), vec![1, 2, 3, 4]);
        // Without b the chain through it is cut: c starts over, and an
        // undeployed table has no depth.
        assert_eq!(g.chain_depths(&[true, false, true, true]), vec![1, 0, 1, 2]);
        assert_eq!(g.chain_depths(&[false; 4]), vec![0; 4]);
    }

    #[test]
    fn topological_sort_moves_producer_first() {
        // `a` depends on `c` (listed later): after sorting, `c` precedes
        // `a` and the dependency indices are remapped.
        let mut g = TableGroup {
            tables: vec![
                mk_table("a", vec![2]),
                mk_table("b", vec![0]),
                mk_table("c", vec![]),
            ],
            registers: 0,
            critical_path: 0,
        };
        g.sort_topological();
        let names: Vec<&str> = g.tables.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["c", "a", "b"]);
        assert_eq!(g.tables[1].depends_on, vec![0]); // a -> c
        assert_eq!(g.tables[2].depends_on, vec![1]); // b -> a
        g.compute_critical_path();
        assert_eq!(g.critical_path, 3);
    }

    #[test]
    fn topological_sort_is_stable_when_ordered() {
        let mut g = TableGroup {
            tables: vec![
                mk_table("a", vec![]),
                mk_table("b", vec![]),
                mk_table("c", vec![0, 1]),
            ],
            registers: 0,
            critical_path: 0,
        };
        g.sort_topological();
        let names: Vec<&str> = g.tables.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn independent_tables_path_one() {
        let mut g = TableGroup {
            tables: vec![mk_table("a", vec![]), mk_table("b", vec![])],
            registers: 0,
            critical_path: 0,
        };
        g.compute_critical_path();
        assert_eq!(g.critical_path, 1);
    }
}
