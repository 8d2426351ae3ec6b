//! The bus's timing path allocates nothing.
//!
//! `CanBus` times every frame with `codec::wire_info`, so it must stay
//! heap-free: the unstuffed region lives in two stack words and the stuff
//! count and CRC run over them in place. A counting global allocator checks
//! this over standard and extended, data and remote frames with DLC 0–8. The
//! allocator counts process-wide, so this file holds exactly one test.

use polsec::can::{codec, CanFrame, CanId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// plain atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn wire_info_and_wire_len_allocate_nothing() {
    let ids = [
        CanId::standard(0x2A5).unwrap(),
        CanId::extended(0x1ABC_D123).unwrap(),
    ];
    let mut frames = Vec::new();
    for id in ids {
        for dlc in 0..=8u8 {
            let payload: Vec<u8> = (0..dlc).map(|i| i.wrapping_mul(0x5D)).collect();
            frames.push(CanFrame::data(id, &payload).unwrap());
            frames.push(CanFrame::remote(id, dlc).unwrap());
        }
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut bits = 0usize;
    for _ in 0..100 {
        for frame in &frames {
            bits += black_box(codec::wire_info(black_box(frame))).wire_bits;
            bits += codec::wire_len(black_box(frame));
        }
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(bits > 0);
    assert_eq!(
        allocations, 0,
        "wire_info/wire_len allocated {allocations} times"
    );
}
