//! Threads that decide one after another share one audit lane.
//!
//! A deciding thread holds an audit slot, the lowest free one, until it
//! exits, and writes the engine's lane for that slot. The next thread
//! takes the freed slot, so it writes the same lane and reserves no ring
//! of its own. A counting global allocator counts, per thread, the
//! allocations large enough to be a ring.
//!
//! This is the binary's only test: a test running beside it could take
//! a freed slot between two of its threads.

use polsec::policy::dsl::parse_policy;
use polsec::policy::{AccessRequest, Action, EntityId, EvalContext, PolicyEngine, PolicySet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// A compact engine's ring holds 64 records of at least 32 bytes; no
/// other allocation a decide makes comes near that size.
const RING_BYTES_AT_LEAST: usize = 64 * 32;

thread_local! {
    // const-initialised and without a destructor: touching it never
    // allocates, so the allocator may use it
    static RINGS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// const-initialised thread-local cell with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= RING_BYTES_AT_LEAST {
            let _ = RINGS.try_with(|n| n.set(n.get() + 1));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn threads_that_decide_one_after_another_share_one_lane() {
    const THREADS: u64 = 64;
    const DECIDES: u64 = 10;
    let policy = parse_policy(
        r#"policy "lanes" version 1 {
            default deny;
            allow read on asset:ecu from entry:*;
        }"#,
    )
    .expect("the policy parses");
    let engine = Arc::new(PolicyEngine::compact(PolicySet::from_policy(policy)));
    let request = AccessRequest::new(
        EntityId::new("entry", "sensors"),
        EntityId::new("asset", "ecu"),
        Action::Read,
    );
    let mut rings = 0;
    for t in 0..THREADS {
        let engine = Arc::clone(&engine);
        // `join` returns once the thread has exited, its slot freed.
        rings += std::thread::spawn(move || {
            let ctx = EvalContext::new();
            for i in 0..DECIDES {
                engine.decide_at(&request, &ctx, t * DECIDES + i);
            }
            RINGS.with(Cell::get)
        })
        .join()
        .expect("a deciding thread");
    }
    let stats = engine.stats();
    assert_eq!(stats.decisions, THREADS * DECIDES);
    assert_eq!((stats.allows, stats.cache_hits, stats.cache_misses), (640, 639, 1));
    engine.with_audit(|records| {
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (576..640).collect::<Vec<u64>>());
    });
    assert_eq!(rings, 1, "each thread that took a fresh slot reserved a ring");
}
