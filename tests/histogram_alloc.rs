//! A histogram's memory does not grow with run length.
//!
//! `MetricSet::observe` sits on per-frame paths (`verdict.cycles` is
//! recorded at every gateway crossing), so a histogram must hold bucket
//! counts, not samples. A counting global allocator tracks the bytes live on
//! this thread while one key takes a million observations spread over the
//! whole `u64` range, which touches every bucket.

use polsec::sim::MetricSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialised and without a destructor: touching it never
    // allocates, so the allocator may use it
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn note(delta: isize) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// const-initialised thread-local cell with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn a_million_observations_keep_the_histogram_under_16_kb() {
    const KEY: &str = "verdict.cycles";
    let mut m = MetricSet::new();
    // The first observation creates the key and its map entry; what grows
    // after it is the histogram's own heap.
    m.observe(KEY, 0);
    let before = live_bytes();
    for i in 1..1_000_000u64 {
        m.observe(KEY, i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 64));
    }
    let grown = live_bytes() - before;

    let h = m.histogram(KEY).expect("observed");
    assert_eq!(h.count(), 1_000_000);
    assert!(
        h.max().unwrap() > u64::MAX / 2,
        "the samples span the u64 range"
    );
    assert!(grown < 16 * 1024, "the histogram grew by {grown} bytes");
}
