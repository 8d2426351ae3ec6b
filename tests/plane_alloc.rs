//! Steady-state routing on the message plane allocates nothing.
//!
//! Every outbox and inbox keeps its buffer for the whole run, so once the
//! buffers have grown, an epoch of stepping and routing allocates nothing
//! at any thread count. A counting global allocator checks this. It counts
//! on the test's own thread and on every thread that steps a shard, since
//! helper threads step shards too; the test harness's own thread, which
//! allocates while a test starts, is left out.

use polsec::sim::plane::{run_epochs, MessagePlane};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    // const-initialised and without a destructor: touching it never
    // allocates, so the allocator may use it
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count_this_thread() {
    COUNTED.with(|c| c.set(true));
}

fn note_allocation() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counters are a
// plain atomic and a const-initialised thread-local cell, neither of which
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made by one run of a 32-shard plane on which every shard
/// broadcasts to every other shard in every epoch.
fn broadcast_run_allocations(threads: usize, epochs: u64) -> u64 {
    const SHARDS: usize = 32;
    let mut plane = MessagePlane::new();
    plane.group(1, 0..SHARDS);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let merged = run_epochs(
        SHARDS,
        threads,
        epochs,
        &plane,
        |shard| shard as u64,
        |state, ctx| {
            count_this_thread();
            for env in ctx.inbox {
                *state = state.wrapping_add(env.msg);
            }
            ctx.outbox.broadcast(1, *state);
        },
        |state, m| m.count("sum", state),
    );
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(merged.counter("plane.sent"), SHARDS as u64 * epochs);
    allocations
}

#[test]
fn routing_allocates_nothing_once_the_buffers_have_grown() {
    count_this_thread();
    for threads in [1, 2, 4] {
        // the first run pays for one-time set-up inside the runtime
        broadcast_run_allocations(threads, 50);
        let short = broadcast_run_allocations(threads, 50);
        let long = broadcast_run_allocations(threads, 250);
        assert_eq!(
            long,
            short,
            "threads={threads}: 200 more epochs made {} more allocations",
            long as i64 - short as i64
        );
    }
}
