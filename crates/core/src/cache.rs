//! Cross-compile synthesis cache.
//!
//! Synthesis (encode + solve + extract) dominates compile time (§7.2), yet
//! repeated compiles in one process — benchmark sweeps, the control-plane
//! [`crate::Runtime`] recompiling after program edits, test suites — often
//! re-solve an identical problem: same IR, same chip models, same scope
//! set. [`SynthCache`] memoizes successful [`lyra_synth::SynthResult`]s
//! behind an FNV-1a content hash of everything the solver sees, so a repeat
//! compile reuses the solved placement (and the encoded model that code
//! generation needs) without spending any solver effort.
//!
//! The cache is keyed on *content*, not identity: the canonical `Debug`
//! rendering of the IR, each resolved scope (algorithm, deploy mode, and
//! the name/ASIC of every candidate switch and path hop), the encoding
//! options, and the backend. Phase hints from incremental compiles are
//! deliberately **not** part of the key — hints steer which solution the
//! search finds first but never change satisfiability, so an incremental
//! recompile of an unchanged program is a legitimate (and common) hit.
//!
//! Share one cache across compiles with [`crate::Compiler::with_synth_cache`];
//! it is `Send + Sync` and cheap to share via [`Arc`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use lyra_ir::IrProgram;
use lyra_synth::{Backend, EncodeOptions, SynthResult};
use lyra_topo::{ResolvedScope, Topology};

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher over byte chunks.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        // Length-prefix-free separator: NUL cannot appear in the text
        // renderings we hash, so adjacent fields can't alias.
        self.write(&[0]);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Content hash of one synthesis problem: everything that determines the
/// encoded model and therefore the validity of a cached result. Two calls
/// with the same key would produce interchangeable [`SynthResult`]s.
pub fn synth_key(
    ir: &IrProgram,
    topo: &Topology,
    scopes: &[ResolvedScope],
    opts: &EncodeOptions,
    backend: &Backend,
) -> u64 {
    let mut h = Fnv::new();
    // The IR's Debug rendering is canonical: all collections are Vec or
    // BTreeMap, so iteration order is deterministic.
    h.write_str(&format!("{ir:?}"));
    h.write_str(&format!("{opts:?}"));
    h.write_str(&format!("{backend:?}"));
    for scope in scopes {
        h.write_str(&scope.algorithm);
        h.write_str(&format!("{:?}", scope.deploy));
        // Switch *ids* appear in the encoded model and the extracted
        // placement, so the key must pin both the ids and what they denote
        // (name + ASIC budgets) for a cached result to be reusable.
        for &s in &scope.switches {
            let sw = topo.switch(s);
            h.write_str(&format!("{}={}:{}", s.0, sw.name, sw.asic));
        }
        for path in &scope.paths {
            for &s in path {
                h.write_str(&format!("{}", s.0));
            }
            h.write_str("|");
        }
    }
    h.finish()
}

/// A concurrency-safe memo table from [`synth_key`] to synthesis results,
/// with hit/miss counters. Results are stored as [`Arc`]s so a hit shares
/// the (potentially large) encoded model instead of cloning it.
///
/// ```
/// use std::sync::Arc;
/// use lyra::{Compiler, CompileRequest, SynthCache};
/// use lyra_topo::figure1_network;
///
/// let cache = Arc::new(SynthCache::new());
/// let compiler = Compiler::new().with_synth_cache(cache.clone());
/// let req = CompileRequest::new(
///     "pipeline[P]{a}; algorithm a { x = 1; }",
///     "a: [ ToR1 | PER-SW | - ]",
///     figure1_network(),
/// );
/// let first = compiler.compile(&req).unwrap();
/// let second = compiler.compile(&req).unwrap();
/// assert_eq!(first.stats.synth_cache_hits, 0);
/// assert_eq!(second.stats.synth_cache_hits, 1);
/// assert_eq!(first.placement, second.placement);
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SynthCache {
    entries: Mutex<HashMap<u64, Arc<SynthResult>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SynthCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memo table, recovered if poisoned. The map holds whole
    /// `Arc<SynthResult>`s, each inserted by one call, so whatever a
    /// panicking thread left behind is consistent and refusing to serve it
    /// is never right — the reasoning `dataplane::read_lock` documents.
    /// Poisoning needs a panic *inside* one of the one-line guarded
    /// sections below, which nothing short of an allocation failure
    /// produces today; the point is that the self-healer reaches this
    /// through `recompile_for_faults` on every remediation round, and one
    /// such panic must not turn every later round into another.
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<SynthResult>>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up a synthesis result by key, counting a hit or a miss.
    pub fn lookup(&self, key: u64) -> Option<Arc<SynthResult>> {
        let found = self.lock().get(&key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store a synthesis result under a key (last writer wins; entries are
    /// interchangeable by construction of [`synth_key`]).
    pub fn insert(&self, key: u64, result: Arc<SynthResult>) {
        self.lock().insert(key, result);
    }

    /// Cached problems currently stored.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Total lookup hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookup misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drop all entries (counters are kept).
    pub fn clear(&self) {
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_ir::frontend;
    use lyra_lang::parse_scopes;
    use lyra_topo::{figure1_network, resolve_scope};

    fn setup(src: &str, scopes: &str) -> (IrProgram, Topology, Vec<ResolvedScope>) {
        let ir = frontend(src).unwrap();
        let topo = figure1_network();
        let resolved = parse_scopes(scopes)
            .unwrap()
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        (ir, topo, resolved)
    }

    #[test]
    fn key_is_stable_and_content_sensitive() {
        let (ir, topo, scopes) = setup(
            "pipeline[P]{a}; algorithm a { x = 1; }",
            "a: [ ToR1 | PER-SW | - ]",
        );
        let opts = EncodeOptions::default();
        let k1 = synth_key(&ir, &topo, &scopes, &opts, &Backend::Native);
        let k2 = synth_key(&ir, &topo, &scopes, &opts, &Backend::Native);
        assert_eq!(k1, k2, "same inputs, same key");

        let (ir2, _, _) = setup(
            "pipeline[P]{a}; algorithm a { x = 2; }",
            "a: [ ToR1 | PER-SW | - ]",
        );
        assert_ne!(
            synth_key(&ir2, &topo, &scopes, &opts, &Backend::Native),
            k1,
            "program change changes key"
        );

        let (_, _, scopes2) = setup(
            "pipeline[P]{a}; algorithm a { x = 1; }",
            "a: [ ToR2 | PER-SW | - ]",
        );
        assert_ne!(
            synth_key(&ir, &topo, &scopes2, &opts, &Backend::Native),
            k1,
            "scope change changes key"
        );

        let opts2 = EncodeOptions {
            allow_recirculation: true,
            ..Default::default()
        };
        assert_ne!(
            synth_key(&ir, &topo, &scopes, &opts2, &Backend::Native),
            k1,
            "encoding options change key"
        );
    }

    #[test]
    fn a_poisoned_cache_still_answers() {
        let (ir, topo, scopes) = setup(
            "pipeline[P]{a}; algorithm a { x = 1; }",
            "a: [ ToR1 | PER-SW | - ]",
        );
        let opts = EncodeOptions::default();
        let result = lyra_synth::synthesize(&ir, &topo, &scopes, &opts, &Backend::Native).unwrap();
        let cache = Arc::new(SynthCache::new());
        cache.insert(1, Arc::new(result));
        // Poison the mutex: a thread panics while holding the guard.
        let held = cache.clone();
        let poisoner = std::thread::spawn(move || {
            let _guard = held.entries.lock().unwrap();
            panic!("poisoning the synth cache on purpose");
        });
        assert!(poisoner.join().is_err());
        assert!(cache.entries.is_poisoned());
        // Every accessor still answers, with the entry intact.
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        let hit = cache.lookup(1).expect("the entry survived the poisoning");
        assert!(cache.lookup(2).is_none());
        cache.insert(2, hit);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn counters_track_lookups() {
        let cache = SynthCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(42).map(|_| ()), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }
}
