//! Allocation tripwire for the encoder. A model is one arena: building it
//! grows a handful of buffers and dropping it frees them, where owned
//! expression trees cost a heap node per operand to build and a `free`
//! per node to release.
//!
//! This file is its own test binary with one test, because the counting
//! allocator sees every thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use lyra_apps::programs;
use lyra_synth::{encode, EncodeOptions, Encoded};
use lyra_topo::{fat_tree_pod, resolve_scope};

/// Counts `alloc` / `realloc` calls as allocations and `dealloc` calls as
/// frees, then defers to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// NetCache MULTI-SW on a k = 32 pod, traffic entering at the Aggs (the
/// largest Figure 10 instance).
#[test]
fn netcache_k32_encodes_into_buffers_not_trees() {
    let ir = lyra_ir::frontend(&programs::netcache()).expect("NetCache lowers");
    let topo = fat_tree_pod(32, "tofino-32q", "trident4");
    let names = |p: &str| (1..=16).map(|i| format!("{p}{i}")).collect::<Vec<_>>();
    let spec = format!(
        "netcache: [ ToR*,Agg* | MULTI-SW | ({}->{}) ]",
        names("Agg").join(","),
        names("ToR").join(",")
    );
    let scopes: Vec<_> = lyra_lang::parse_scopes(&spec)
        .expect("scope parses")
        .iter()
        .map(|s| resolve_scope(&topo, s).expect("scope resolves"))
        .collect();

    let before = ALLOCS.load(Relaxed);
    let enc = encode(&ir, &topo, &scopes, &EncodeOptions::default()).expect("encodes");
    let allocs = ALLOCS.load(Relaxed) - before;
    let constraints = enc.model.num_constraints() as u64;

    let Encoded { model, .. } = enc;
    let before = FREES.load(Relaxed);
    drop(model);
    let frees = FREES.load(Relaxed) - before;

    eprintln!(
        "encode: {allocs} allocation(s) for {constraints} constraint(s) ({:.3} each); \
         dropping the model: {frees} free(s)",
        allocs as f64 / constraints as f64
    );
    assert!(
        constraints > 50_000,
        "the k = 32 pod has {constraints} constraints"
    );
    let mut over = Vec::new();
    if allocs * 4 > constraints {
        over.push(format!(
            "{allocs} allocations for {constraints} constraints: over 0.25 each"
        ));
    }
    if frees > 16 {
        over.push(format!("dropping the model freed {frees} blocks, over 16"));
    }
    assert!(over.is_empty(), "{}", over.join("; "));
}
