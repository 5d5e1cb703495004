//! Compact, structurally-shared extern-table storage.
//!
//! A million-entry control plane cannot afford per-entry `BTreeMap`s that
//! are cloned wholesale every time an epoch is staged: the clone alone is
//! O(state), and diffing two epochs walks every entry even when nothing
//! changed. [`ExternTable`] stores entries as a vector of sorted,
//! immutable *pages* behind `Arc`s:
//!
//! * **Clones are O(1)** — the page directory sits behind one more `Arc`,
//!   so a clone shares it whole; the first mutation of a shared directory
//!   copies it (page pointers and fences, not entries). Staging an epoch,
//!   retaining a prior one or snapshotting a serving plane is cheap no
//!   matter how big the table is, and dropping an untouched clone touches
//!   no page.
//! * **Mutation is copy-on-write per page** — an insert or remove clones
//!   only the ~[`PAGE_CAP`]-entry page it lands in; every other page stays
//!   shared with all other clones.
//! * **Replicas share pages too, not only clones** — a logical table stored
//!   on several switches (and in the controller's shadow of each) is filled
//!   through [`ExternTable::insert_replicated`], which inserts once per
//!   group of tables landing on the same page and hands every member the
//!   one resulting page. A replicated table is therefore stored once, and
//!   "do these replicas agree?" is answered by [`ExternTable::same_pages`]
//!   in O(pages) instead of by a merge over every key.
//! * **Equality and diffing skip shared pages** — two tables that share a
//!   page (by pointer) provably agree on that page's entries, so comparing
//!   a staged epoch against its base costs O(pages + changed entries), not
//!   O(entries). This is what makes delta-based rollout prepare
//!   ([`lyra` `rollout`]) O(delta).
//!
//! Lookup binary-searches the page directory, then the page. The
//! directory is a contiguous array of *fence keys* — the last key of each
//! page, kept beside the page pointers — so finding the page is one
//! `partition_point` over a few KiB (16 KiB at 10⁶ entries) that stays
//! cache-resident and dereferences no page; only the one page that can
//! hold the key is then touched. That is what lets the data plane serve
//! lookups from these pages in place instead of flattening a private
//! sorted array per snapshot.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Entries per page before a split. Large enough that the page directory
/// stays tiny (a 10⁶-entry table is ~2048 pages), small enough that
/// copy-on-write touches only a few KiB per mutation.
pub const PAGE_CAP: usize = 512;

type Page = Arc<Vec<(u64, u64)>>;

/// Tables one [`ExternTable::insert_replicated`] pass groups at a time: its
/// scratch lives on the stack. Tables in different passes still end right,
/// they just do not share the page.
const GROUP_SPAN: usize = 64;

/// Where an insert lands in one table: the page index (`None` when the
/// table is empty) and that page's address (null when empty), which names
/// the replica group.
type Landing = (Option<usize>, *const Vec<(u64, u64)>);

/// A page no table serves: what a replica's slot holds for the instant its
/// own reference is set aside, so that the group's reference count says
/// whether anything outside the group still holds the page.
fn vacant() -> Page {
    static VACANT: OnceLock<Page> = OnceLock::new();
    VACANT.get_or_init(|| Arc::new(Vec::new())).clone()
}

/// The same for a replica that shares the whole directory: what it holds
/// while the lead edits the directory.
fn vacant_dir() -> Arc<Directory> {
    static VACANT: OnceLock<Arc<Directory>> = OnceLock::new();
    VACANT.get_or_init(Arc::default).clone()
}

/// A sorted, paged `u64 → u64` map with structural sharing between
/// clones. The storage behind every extern table in
/// [`crate::DataPlaneState`].
#[derive(Debug, Clone, Default)]
pub struct ExternTable {
    /// Shared by clones until one mutates: every mutator goes through
    /// `Arc::make_mut`, which copies a shared directory first.
    dir: Arc<Directory>,
    /// Total entries (maintained incrementally).
    len: usize,
}

/// The pages of one table and their fences.
#[derive(Debug, Clone, Default)]
struct Directory {
    /// Non-empty pages, each sorted by key, covering strictly ascending
    /// disjoint key ranges.
    pages: Vec<Page>,
    /// `fences[i]` is the last key of `pages[i]`. Every mutation that
    /// changes a page's last key, splits a page or drops one keeps it in
    /// step.
    fences: Vec<u64>,
}

impl ExternTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the first page whose last key is `>= key` (the only page
    /// that could contain `key`), or `pages.len()` when every page ends
    /// below it.
    fn page_for(&self, key: u64) -> usize {
        self.dir.fences.partition_point(|&fence| fence < key)
    }

    /// Look up `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        let pi = self.page_for(key);
        let page = self.dir.pages.get(pi)?;
        page.binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| page[i].1)
    }

    /// True when `key` has an entry.
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// The index of the page an insert of `key` edits (`None` for an empty
    /// table). Clamped to the last page, so appends extend it instead of
    /// growing a fresh page per key.
    fn landing(&self, key: u64) -> Option<usize> {
        let last = self.dir.pages.len().checked_sub(1)?;
        Some(self.page_for(key).min(last))
    }

    /// Insert or overwrite `key`, returning the previous value if any.
    /// Copy-on-write: only the page containing `key` is cloned.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let Some(pi) = self.landing(key) else {
            let dir = Arc::make_mut(&mut self.dir);
            dir.pages.push(Arc::new(vec![(key, value)]));
            dir.fences.push(key);
            self.len = 1;
            return None;
        };
        match self.dir.pages[pi].binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => {
                let old = self.dir.pages[pi][i].1;
                // A redundant overwrite keeps the page (and the directory)
                // shared, so structural diffs stay O(entries that actually
                // changed) even when a planner re-installs identical
                // entries.
                if old != value {
                    Arc::make_mut(&mut Arc::make_mut(&mut self.dir).pages[pi])[i].1 = value;
                }
                Some(old)
            }
            Err(i) => {
                let dir = Arc::make_mut(&mut self.dir);
                let page = Arc::make_mut(&mut dir.pages[pi]);
                page.insert(i, (key, value));
                self.len += 1;
                // Only an append past the last fence moves a page's last
                // key; a split gives the upper half the old fence.
                let last = dir.fences[pi].max(key);
                if page.len() > PAGE_CAP {
                    let upper = page.split_off(page.len() / 2);
                    dir.fences[pi] = page[page.len() - 1].0;
                    dir.pages.insert(pi + 1, Arc::new(upper));
                    dir.fences.insert(pi + 1, last);
                } else {
                    dir.fences[pi] = last;
                }
                None
            }
        }
    }

    /// Insert `key → value` into each table of `tables` that `members`
    /// names (indices, none twice), storing the result once per *replica
    /// group*: the members whose landing page is the same `Arc` (empty
    /// tables count as one group). One member of a group performs the
    /// insert; every other member takes the resulting page — and, on a
    /// split, the upper half — by pointer, or the whole directory when it
    /// shared the lead's (replicas filled together do). Each table ends
    /// exactly as a plain [`ExternTable::insert`] would leave it: same
    /// entries, fences, `len` and split points.
    ///
    /// The page (and a shared directory) is edited in place when the group
    /// holds every reference to it, and copied only when something outside
    /// the group also holds it (a retained prior epoch, a staged state, a
    /// serving snapshot): `Arc::make_mut`'s rule, applied to the group
    /// instead of to one table.
    pub fn insert_replicated(tables: &mut [ExternTable], members: &[usize], key: u64, value: u64) {
        debug_assert!(
            members
                .iter()
                .enumerate()
                .all(|(i, m)| !members[..i].contains(m)),
            "insert_replicated names a table twice"
        );
        for span in members.chunks(GROUP_SPAN) {
            // Each member's landing, taken before any member changes.
            let mut landing: [Landing; GROUP_SPAN] = [(None, std::ptr::null()); GROUP_SPAN];
            for (slot, &m) in landing.iter_mut().zip(span) {
                let pi = tables[m].landing(key);
                *slot = (
                    pi,
                    pi.map_or(std::ptr::null(), |pi| Arc::as_ptr(&tables[m].dir.pages[pi])),
                );
            }
            let landing = &landing[..span.len()];
            for (lead, &(_, page)) in landing.iter().enumerate() {
                // The first member landing on a page leads its group.
                if landing[..lead].iter().all(|&(_, p)| p != page) {
                    Self::insert_group(tables, span, landing, lead, key, value);
                }
            }
        }
    }

    /// [`ExternTable::insert_replicated`] for the group `lead` leads: the
    /// members of `span` from `lead` on that land on its page (or are
    /// empty, as it is).
    fn insert_group(
        tables: &mut [ExternTable],
        span: &[usize],
        landing: &[Landing],
        lead: usize,
        key: u64,
        value: u64,
    ) {
        let page = landing[lead].1;
        let members = (lead..span.len()).filter(|&i| landing[i].1 == page);
        let followers = members.clone().skip(1);
        // Followers that share the lead's whole directory (replicas filled
        // together, empty tables) take it back whole; the rest take the
        // page by pointer.
        let dir = Arc::as_ptr(&tables[span[lead]].dir);
        let whole = followers
            .clone()
            .filter(|&i| landing[i].0.is_none() || Arc::as_ptr(&tables[span[i]].dir) == dir)
            .fold(0u64, |m, i| m | 1 << i);
        if let Some(pi) = landing[lead].0 {
            let page = &tables[span[lead]].dir.pages[pi];
            if let Ok(at) = page.binary_search_by_key(&key, |&(k, _)| k) {
                if page[at].1 == value {
                    return; // a redundant overwrite changes no member
                }
            }
        }
        // Set the followers' references aside: what is left is the lead's
        // and whatever holds the directory or the page outside the group.
        for i in followers.clone() {
            let t = &mut tables[span[i]];
            match landing[i].0 {
                Some(pf) if whole >> i & 1 == 0 => Arc::make_mut(&mut t.dir).pages[pf] = vacant(),
                _ => t.dir = vacant_dir(),
            }
        }
        let t = &mut tables[span[lead]];
        let (was, pages) = (t.len, t.dir.pages.len());
        t.insert(key, value);
        let (len, added, dir) = (t.len, t.len - was, Arc::clone(&t.dir));
        for i in followers {
            let t = &mut tables[span[i]];
            match (landing[lead].0, landing[i].0) {
                (Some(pi), Some(pf)) if whole >> i & 1 == 0 => {
                    let d = Arc::make_mut(&mut t.dir);
                    d.pages[pf] = Arc::clone(&dir.pages[pi]);
                    d.fences[pf] = dir.fences[pi];
                    if dir.pages.len() > pages {
                        d.pages.insert(pf + 1, Arc::clone(&dir.pages[pi + 1]));
                        d.fences.insert(pf + 1, dir.fences[pi + 1]);
                    }
                    t.len += added;
                }
                _ => (t.dir, t.len) = (Arc::clone(&dir), len),
            }
        }
    }

    /// Remove `key`, returning its value if it was present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let pi = self.page_for(key);
        let hit = self
            .dir
            .pages
            .get(pi)?
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()?;
        let dir = Arc::make_mut(&mut self.dir);
        let page = Arc::make_mut(&mut dir.pages[pi]);
        let (_, old) = page.remove(hit);
        self.len -= 1;
        match page.last() {
            Some(&(last, _)) => dir.fences[pi] = last,
            None => {
                dir.pages.remove(pi);
                dir.fences.remove(pi);
            }
        }
        Some(old)
    }

    /// Iterate entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.dir.pages.iter().flat_map(|p| p.iter().copied())
    }

    /// Iterate keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Build from entries already sorted by strictly ascending key —
    /// O(n) bulk load straight into full pages. Panics (debug) on
    /// unsorted input.
    pub fn from_sorted(entries: Vec<(u64, u64)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted requires strictly ascending keys"
        );
        let len = entries.len();
        let fences = entries
            .chunks(PAGE_CAP)
            .map(|page| page[page.len() - 1].0)
            .collect();
        let mut pages = Vec::with_capacity(len.div_ceil(PAGE_CAP));
        let mut it = entries.into_iter().peekable();
        while it.peek().is_some() {
            pages.push(Arc::new(it.by_ref().take(PAGE_CAP).collect::<Vec<_>>()));
        }
        ExternTable {
            dir: Arc::new(Directory { pages, fences }),
            len,
        }
    }

    /// FNV-1a digest over `(key, value)` little-endian words in key
    /// order — the anti-entropy audit's cheap comparison, and the fold
    /// the generated control stub's `<t>_state_digest()` mirrors.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, v) in self.iter() {
            for w in [k, v] {
                for b in w.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Walk the delta from `self` (the base) to `target`: `f(key, old,
    /// new)` fires for every key present in exactly one table or mapped
    /// to different values. Pages shared by pointer between the two
    /// tables are skipped wholesale, so the cost is O(pages + differing
    /// entries) when the tables share structure (one was cloned from the
    /// other), never worse than a full sorted merge.
    pub fn for_each_delta(&self, target: &Self, mut f: impl FnMut(u64, Option<u64>, Option<u64>)) {
        let (a, b) = (&self.dir.pages, &target.dir.pages);
        let (mut ia, mut ja) = (0usize, 0usize);
        let (mut ib, mut jb) = (0usize, 0usize);
        loop {
            if ja == 0 && jb == 0 {
                while ia < a.len() && ib < b.len() && Arc::ptr_eq(&a[ia], &b[ib]) {
                    ia += 1;
                    ib += 1;
                }
            }
            let av = a.get(ia).map(|p| p[ja]);
            let bv = b.get(ib).map(|p| p[jb]);
            let mut step_a = || {
                ja += 1;
                if ja == a[ia].len() {
                    ia += 1;
                    ja = 0;
                }
            };
            match (av, bv) {
                (None, None) => break,
                (Some((k, v)), None) => {
                    f(k, Some(v), None);
                    step_a();
                }
                (None, Some((k, v))) => {
                    f(k, None, Some(v));
                    jb += 1;
                    if jb == b[ib].len() {
                        ib += 1;
                        jb = 0;
                    }
                }
                (Some((ka, va)), Some((kb, vb))) => {
                    if ka <= kb {
                        if ka < kb {
                            f(ka, Some(va), None);
                        } else {
                            if va != vb {
                                f(ka, Some(va), Some(vb));
                            }
                            jb += 1;
                            if jb == b[ib].len() {
                                ib += 1;
                                jb = 0;
                            }
                        }
                        step_a();
                    } else {
                        f(kb, None, Some(vb));
                        jb += 1;
                        if jb == b[ib].len() {
                            ib += 1;
                            jb = 0;
                        }
                    }
                }
            }
        }
    }

    /// K-way merge of sorted tables: `f(key, held)` fires once per distinct
    /// key of the union, in ascending key order, with `held[i]` the value
    /// `tables[i]` maps the key to (`None` where it has no entry). One
    /// linear pass over every page, O(entries × tables); nothing is
    /// allocated per key. This is how the control plane reads several
    /// shards of one logical table as one table — which shards hold a key,
    /// and whether the replicas agree on its value — without flattening
    /// them into a map first.
    pub fn merge_walk(tables: &[&Self], mut f: impl FnMut(u64, &[Option<u64>])) {
        // Per table: the unread tail of its current page (empty once the
        // table is exhausted — pages themselves never are) and the pages
        // after it.
        let mut later: Vec<_> = tables.iter().map(|t| t.dir.pages.iter()).collect();
        let mut next_page =
            move |i: usize| -> &[(u64, u64)] { later[i].next().map_or(&[], |page| page) };
        let mut heads: Vec<&[(u64, u64)]> = (0..tables.len()).map(&mut next_page).collect();
        let mut held = vec![None; tables.len()];
        while let Some(key) = heads
            .iter()
            .filter_map(|head| head.first().map(|&(k, _)| k))
            .min()
        {
            for (i, slot) in held.iter_mut().enumerate() {
                *slot = match heads[i].split_first() {
                    Some((&(k, value), tail)) if k == key => {
                        heads[i] = if tail.is_empty() { next_page(i) } else { tail };
                        Some(value)
                    }
                    _ => None,
                };
            }
            f(key, &held);
        }
    }

    /// True when the two tables share every page by pointer — a cheap
    /// sufficient (not necessary) condition for equality, used to skip
    /// work on untouched switches.
    pub fn same_pages(&self, other: &Self) -> bool {
        let (a, b) = (&self.dir.pages, &other.dir.pages);
        Arc::ptr_eq(&self.dir, &other.dir)
            || (a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y)))
    }

    /// Number of pages (each holds at most [`PAGE_CAP`] entries).
    pub fn page_count(&self) -> usize {
        self.dir.pages.len()
    }

    /// How many of this table's pages `other` also holds, by pointer —
    /// sharing stated as a count: a clone shares all of them, and each
    /// copy-on-write mutation of either side un-shares one.
    pub fn shared_pages(&self, other: &Self) -> usize {
        let theirs: BTreeSet<_> = other.dir.pages.iter().map(Arc::as_ptr).collect();
        self.dir
            .pages
            .iter()
            .filter(|page| theirs.contains(&Arc::as_ptr(page)))
            .count()
    }
}

impl PartialEq for ExternTable {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        if self.same_pages(other) {
            return true;
        }
        self.iter().eq(other.iter())
    }
}

impl Eq for ExternTable {}

impl FromIterator<(u64, u64)> for ExternTable {
    /// Collect arbitrary (possibly unsorted, possibly duplicated)
    /// entries; later duplicates win, as with `BTreeMap::insert`.
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(iter: T) -> Self {
        let sorted: BTreeMap<u64, u64> = iter.into_iter().collect();
        Self::from_sorted(sorted.into_iter().collect())
    }
}

impl From<BTreeMap<u64, u64>> for ExternTable {
    fn from(m: BTreeMap<u64, u64>) -> Self {
        Self::from_sorted(m.into_iter().collect())
    }
}

impl Extend<(u64, u64)> for ExternTable {
    fn extend<T: IntoIterator<Item = (u64, u64)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<'a> IntoIterator for &'a ExternTable {
    type Item = (u64, u64);
    type IntoIter = Box<dyn Iterator<Item = (u64, u64)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_of(entries: impl IntoIterator<Item = (u64, u64)>) -> ExternTable {
        entries.into_iter().collect()
    }

    impl ExternTable {
        /// The structural invariants every operation must preserve: one
        /// fence per page equal to that page's last key, no empty page,
        /// keys strictly ascending across the whole table, `len` exact.
        fn check_invariants(&self) {
            assert_eq!(
                self.dir.fences.len(),
                self.dir.pages.len(),
                "one fence per page"
            );
            for (page, &fence) in self.dir.pages.iter().zip(&self.dir.fences) {
                assert_eq!(page.last().map(|e| e.0), Some(fence), "stale fence");
            }
            let (mut prev, mut count) = (None, 0);
            for key in self.keys() {
                assert!(prev < Some(key), "keys not ascending at {key}");
                prev = Some(key);
                count += 1;
            }
            assert_eq!(self.len, count, "len drifted");
        }

        /// `get` agrees with `model` on every key of the model and on the
        /// keys either side of every fence (where a wrong directory step
        /// would send the search to the neighbouring page).
        fn check_against(&self, model: &BTreeMap<u64, u64>) {
            self.check_invariants();
            assert!(self.iter().eq(model.iter().map(|(&k, &v)| (k, v))));
            let around_fences = self
                .dir
                .fences
                .iter()
                .flat_map(|&f| [f.wrapping_sub(1), f, f.wrapping_add(1)]);
            for k in model.keys().copied().chain(around_fences) {
                assert_eq!(self.get(k), model.get(&k).copied(), "key {k}");
            }
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = ExternTable::new();
        assert!(t.is_empty());
        for k in 0..2000u64 {
            assert_eq!(t.insert(k * 3, k), None);
        }
        assert_eq!(t.len(), 2000);
        assert_eq!(t.get(3), Some(1));
        assert_eq!(t.get(4), None);
        assert_eq!(t.insert(3, 99), Some(1));
        assert_eq!(t.len(), 2000, "overwrite must not change len");
        assert_eq!(t.remove(3), Some(99));
        assert_eq!(t.remove(3), None);
        assert_eq!(t.len(), 1999);
        let keys: Vec<u64> = t.keys().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn matches_btreemap_under_random_ops() {
        // Seeded xorshift mirror of the map semantics.
        let mut x: u64 = 0x1234_5678;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut t = ExternTable::new();
        let mut m = BTreeMap::new();
        for _ in 0..20_000 {
            let k = next() % 4096;
            let v = next();
            if v % 5 == 0 {
                assert_eq!(t.remove(k), m.remove(&k));
            } else {
                assert_eq!(t.insert(k, v), m.insert(k, v));
            }
            assert_eq!(t.len(), m.len());
            t.check_invariants();
        }
        t.check_against(&m);
        for k in 0..4096 {
            assert_eq!(t.get(k), m.get(&k).copied());
        }
    }

    #[test]
    fn fences_follow_splits_drops_and_appends() {
        // Sparse keys, so `fence ± 1` is always a miss next to a hit.
        let mut m: BTreeMap<u64, u64> = (0..3 * PAGE_CAP as u64).map(|k| (k * 10, k)).collect();
        let mut t = ExternTable::from_sorted(m.iter().map(|(&k, &v)| (k, v)).collect());
        assert_eq!(t.dir.pages.len(), 3);
        t.check_against(&m);

        // A split: the lower half gets a new fence, the upper half keeps
        // the old one, and later pages shift by one.
        let mid = PAGE_CAP as u64 * 10 + 5; // lands in the full middle page
        assert_eq!(t.insert(mid, 1), m.insert(mid, 1));
        assert_eq!(t.dir.pages.len(), 4);
        t.check_against(&m);

        // Removing a page's last key pulls its fence down.
        let fence = t.dir.fences[1];
        assert_eq!(t.remove(fence), m.remove(&fence));
        assert!(t.dir.fences[1] < fence);
        t.check_against(&m);

        // A page emptied from the middle leaves the directory.
        let doomed: Vec<u64> = t.dir.pages[1].iter().map(|e| e.0).collect();
        for k in doomed {
            assert_eq!(t.remove(k), m.remove(&k));
            t.check_invariants();
        }
        assert_eq!(t.dir.pages.len(), 3);
        t.check_against(&m);

        // Appends past the last fence extend the last page (and its
        // fence), splitting it as it fills.
        let top = *m.keys().next_back().unwrap();
        for k in 1..=PAGE_CAP as u64 {
            assert_eq!(t.insert(top + k, k), m.insert(top + k, k));
            t.check_invariants();
        }
        assert_eq!(t.dir.fences.last(), Some(&(top + PAGE_CAP as u64)));
        assert!(
            t.dir.pages.len() > 3,
            "a full last page must split on append"
        );
        t.check_against(&m);

        // Draining everything leaves an empty, reusable table.
        for k in m.keys().copied().collect::<Vec<_>>() {
            t.remove(k);
        }
        t.check_against(&BTreeMap::new());
        assert!(t.dir.pages.is_empty());
        t.insert(7, 7);
        t.check_against(&BTreeMap::from([(7, 7)]));
    }

    #[test]
    fn a_clone_keeps_its_own_directory() {
        // Fences are per table, not per page: mutating a clone must leave
        // the base's directory describing the base's pages.
        let base = table_of((0..2000u64).map(|k| (k * 2, k)));
        let model: BTreeMap<u64, u64> = base.iter().collect();
        let mut next = base.clone();
        next.remove(base.dir.fences[0]);
        next.insert(base.dir.fences[1] + 1, 9);
        next.check_invariants();
        base.check_against(&model);
    }

    #[test]
    fn clones_share_pages_and_cow_isolates_mutation() {
        let t = table_of((0..10_000u64).map(|k| (k, k + 1)));
        let mut u = t.clone();
        assert!(t.same_pages(&u));
        u.insert(7, 8); // redundant overwrite: must not break sharing
        assert!(t.same_pages(&u));
        u.insert(5, 0xdead);
        assert_eq!(t.get(5), Some(6), "base unaffected by clone mutation");
        assert_eq!(u.get(5), Some(0xdead));
        // All pages but the mutated one stay shared.
        assert_eq!(t.shared_pages(&u), t.page_count() - 1);
    }

    #[test]
    fn delta_between_clone_and_base_is_exactly_the_mutations() {
        let base = table_of((0..100_000u64).map(|k| (k, k)));
        let mut next = base.clone();
        next.insert(200_000, 1); // add
        next.remove(17); // remove
        next.insert(40_000, 7); // modify
        let mut delta = Vec::new();
        base.for_each_delta(&next, |k, old, new| delta.push((k, old, new)));
        delta.sort();
        assert_eq!(
            delta,
            vec![
                (17, Some(17), None),
                (40_000, Some(40_000), Some(7)),
                (200_000, None, Some(1)),
            ]
        );
        // And a table diffed against itself is silent.
        let mut none = 0;
        base.for_each_delta(&base, |_, _, _| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn delta_between_unrelated_tables_is_a_full_merge() {
        let a = table_of([(1, 1), (2, 2), (3, 3)]);
        let b = table_of([(2, 2), (3, 9), (4, 4)]);
        let mut delta = Vec::new();
        a.for_each_delta(&b, |k, old, new| delta.push((k, old, new)));
        assert_eq!(
            delta,
            vec![
                (1, Some(1), None),
                (3, Some(3), Some(9)),
                (4, None, Some(4)),
            ]
        );
    }

    #[test]
    fn merge_walk_visits_the_union_once_in_key_order() {
        // Three overlapping shards spanning several pages, one of them
        // empty, with one replica disagreeing on a value.
        let a = table_of((0..3000u64).map(|k| (k * 2, k)));
        let b = table_of((0..3000u64).map(|k| (k * 3, k)));
        let mut c = a.clone();
        c.insert(4, 0xdead);
        let empty = ExternTable::new();
        let mut reference: BTreeMap<u64, Vec<Option<u64>>> = BTreeMap::new();
        let tables = [&a, &empty, &b, &c];
        for (i, t) in tables.iter().enumerate() {
            for (k, v) in t.iter() {
                reference.entry(k).or_insert_with(|| vec![None; 4])[i] = Some(v);
            }
        }
        let mut seen = Vec::new();
        ExternTable::merge_walk(&tables, |k, held| seen.push((k, held.to_vec())));
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "not ascending");
        assert_eq!(seen, reference.into_iter().collect::<Vec<_>>());
        let at4 = &seen.iter().find(|(k, _)| *k == 4).unwrap().1;
        assert_eq!(at4, &vec![Some(2), None, None, Some(0xdead)]);
        // No tables, or only empty ones: silent.
        ExternTable::merge_walk(&[], |_, _| panic!("fired on no tables"));
        ExternTable::merge_walk(&[&empty, &empty], |_, _| panic!("fired on empty tables"));
    }

    #[test]
    fn equality_is_logical_not_structural() {
        let a = table_of((0..3000u64).map(|k| (k, k)));
        // Same contents, different page structure (built by inserts in
        // reverse order).
        let mut b = ExternTable::new();
        for k in (0..3000u64).rev() {
            b.insert(k, k);
        }
        assert_eq!(a, b);
        let mut c = b.clone();
        c.insert(1, 999);
        assert_ne!(a, c);
    }

    #[test]
    fn from_sorted_bulk_load_matches_inserts() {
        let entries: Vec<(u64, u64)> = (0..5000u64).map(|k| (k * 2, k)).collect();
        let bulk = ExternTable::from_sorted(entries.clone());
        let slow: ExternTable = entries.into_iter().collect();
        assert_eq!(bulk, slow);
        assert_eq!(bulk.len(), 5000);
        bulk.check_invariants();
        // Exact multiples of the page size and the empty load are the
        // edges of the chunking.
        for n in [0, 1, PAGE_CAP, 2 * PAGE_CAP, 2 * PAGE_CAP + 1] {
            let t = ExternTable::from_sorted((0..n as u64).map(|k| (k * 3, k)).collect());
            t.check_against(&(0..n as u64).map(|k| (k * 3, k)).collect());
            assert_eq!(t.dir.pages.len(), n.div_ceil(PAGE_CAP));
        }
    }

    impl ExternTable {
        /// A copy that shares no page with `self` but keeps its page
        /// boundaries: a reference table nothing else holds.
        fn deep_copy(&self) -> ExternTable {
            ExternTable {
                dir: Arc::new(Directory {
                    pages: self
                        .dir
                        .pages
                        .iter()
                        .map(|p| Arc::new(p.to_vec()))
                        .collect(),
                    fences: self.dir.fences.clone(),
                }),
                len: self.len,
            }
        }
    }

    #[test]
    fn replicated_inserts_match_plain_inserts_and_keep_replicas_shared() {
        let mut x: u64 = 0x5eed_0028;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut ops = 0;
        // Starts: every table shares one base; every table empty; one
        // table diverged from the others on one page.
        for start in 0..3 {
            for _ in 0..3 {
                let n = 2 + (next() % 3) as usize;
                let base = table_of((0..1500u64).map(|k| (k * 4, k)));
                let mut tables = match start {
                    1 => vec![ExternTable::new(); n],
                    _ => vec![base; n],
                };
                // What each table has been through, as one word: tables with
                // equal words received the same operations from a shared
                // start, so they must still share every page.
                let mut history = vec![0u64; n];
                if start == 2 {
                    tables[n - 1].insert(1001, 1);
                    history[n - 1] = 1;
                }
                let mut models: Vec<ExternTable> = tables.iter().map(|t| t.deep_copy()).collect();
                for op in 0..250u64 {
                    ops += 1;
                    let tag = |h: u64| h.wrapping_mul(0x100_0000_01b3) ^ (op + 2);
                    if next() % 5 == 0 {
                        // A remove hits one table: it diverges from the rest.
                        let t = (next() % n as u64) as usize;
                        let Some(key) = tables[t].keys().nth((next() % 2000) as usize) else {
                            continue;
                        };
                        assert_eq!(tables[t].remove(key), models[t].remove(key));
                        history[t] = tag(history[t]);
                    } else {
                        let mask = 1 + next() % ((1 << n) - 1);
                        let members: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
                        let (key, value) = match next() % 4 {
                            0 => (next() % 8000, next()),
                            // Overwrite, redundantly one time in two.
                            1 => match tables[members[0]].keys().nth((next() % 2000) as usize) {
                                Some(k) => {
                                    let same = tables[members[0]].get(k).unwrap_or(0);
                                    (k, if next() % 2 == 0 { same } else { next() })
                                }
                                None => (next() % 8000, next()),
                            },
                            // Append past every member's last key.
                            _ => {
                                let top = members
                                    .iter()
                                    .filter_map(|&m| tables[m].keys().last())
                                    .max();
                                (top.map_or(0, |k| k + 1 + next() % 5), next())
                            }
                        };
                        ExternTable::insert_replicated(&mut tables, &members, key, value);
                        for &m in &members {
                            models[m].insert(key, value);
                            history[m] = tag(history[m]);
                        }
                    }
                    for (t, model) in tables.iter().zip(&models) {
                        t.check_invariants();
                        assert!(t.iter().eq(model.iter()), "op {op}: content differs");
                        assert_eq!(
                            t.dir.fences, model.dir.fences,
                            "op {op}: split points differ"
                        );
                        assert_eq!(t.len(), model.len());
                    }
                    for i in 0..n {
                        for j in i + 1..n {
                            if history[i] == history[j] {
                                assert!(
                                    tables[i].same_pages(&tables[j]),
                                    "op {op}: {i}, {j} unshared"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(ops >= 2000, "only {ops} operations ran");
    }

    #[test]
    fn a_page_held_outside_the_group_is_copied() {
        let model: BTreeMap<u64, u64> = (0..100u64).map(|k| (k * 2, k)).collect();
        let snapshot = ExternTable::from(model.clone());
        let mut tables = vec![snapshot.clone(); 2];
        ExternTable::insert_replicated(&mut tables, &[0, 1], 7, 7);
        snapshot.check_against(&model);
        assert!(
            !tables[0].same_pages(&snapshot),
            "the snapshot's page was edited"
        );
        assert!(
            tables[0].same_pages(&tables[1]),
            "the replicas no longer share"
        );
        assert_eq!(tables[1].get(7), Some(7));
    }

    #[test]
    fn a_page_held_only_by_the_group_is_mutated_in_place() {
        // Replicas that share one directory edit it, and the page, in
        // place, and go on sharing the directory.
        let mut tables = vec![table_of((0..100u64).map(|k| (k * 2, k))); 3];
        let page = Arc::as_ptr(&tables[0].dir.pages[0]);
        ExternTable::insert_replicated(&mut tables, &[2, 0, 1], 7, 7);
        for t in &tables {
            assert_eq!(Arc::as_ptr(&t.dir.pages[0]), page, "the page was copied");
            assert_eq!(Arc::strong_count(&t.dir), 3);
            assert_eq!(Arc::strong_count(&t.dir.pages[0]), 1);
            assert_eq!((t.get(7), t.len()), (Some(7), 101));
        }
        // Replicas with directories of their own share the page only.
        let base = table_of((0..2000u64).map(|k| (k * 2, k)));
        let mut tables = vec![base.clone(), base.clone(), base];
        for t in &mut tables[1..] {
            t.insert(1 << 40, 0); // copies the directory and the last page
        }
        let page = Arc::as_ptr(&tables[0].dir.pages[0]);
        ExternTable::insert_replicated(&mut tables, &[2, 0, 1], 7, 7);
        for t in &tables {
            assert_eq!(Arc::as_ptr(&t.dir.pages[0]), page, "the page was copied");
            assert_eq!(Arc::strong_count(&t.dir), 1);
            assert_eq!(Arc::strong_count(&t.dir.pages[0]), 3);
            assert_eq!(t.get(7), Some(7));
        }
        // An empty group gets one page between all of its members.
        let mut empty = vec![ExternTable::new(); 2];
        ExternTable::insert_replicated(&mut empty, &[0, 1], 1, 1);
        assert!(empty[0].same_pages(&empty[1]) && empty[0].len() == 1);
    }

    #[test]
    fn digest_tracks_content_only() {
        let a = table_of((0..1000u64).map(|k| (k, k)));
        let mut b = ExternTable::new();
        for k in (0..1000u64).rev() {
            b.insert(k, k);
        }
        assert_eq!(a.digest(), b.digest());
        b.insert(0, 5);
        assert_ne!(a.digest(), b.digest());
    }
}
