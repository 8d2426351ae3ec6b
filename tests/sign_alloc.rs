//! Hashing and message authentication allocate nothing.
//!
//! Every judged V2X message is authenticated with `PlatoonMsg::verify_with`,
//! and every OTA bundle with HMAC-SHA-256, so both must stay heap-free:
//! `sha256` compresses whole blocks straight from its input and pads the tail
//! in a stack buffer, and an `HmacKey` keeps its ipad/opad states in place. A
//! counting global allocator checks this. It counts per thread: the test
//! harness's own thread allocates while the test runs.

use polsec::car::v2x::{PlatoonMsg, CLAIM_V2X_LEAD, FLEET_V2X_KEY};
use polsec::policy::sign::{sha256, HmacKey};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    // const-initialised and without a destructor: touching it never
    // allocates, so the allocator may use it
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// const-initialised thread-local cell with no allocation of its own.
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

#[test]
fn sha256_hmac_and_platoon_verify_allocate_nothing() {
    let data = vec![0xA5u8; 1024];
    let key = HmacKey::new(FLEET_V2X_KEY);
    let msg = PlatoonMsg::signed_with(&key, 0, 7, 72, false, CLAIM_V2X_LEAD);

    let before = allocations();
    let mut folded = 0u8;
    let mut verified = 0;
    for _ in 0..100 {
        folded ^= black_box(sha256(black_box(&data)))[0];
        folded ^= black_box(key.mac(black_box(&data[..11])))[0];
        verified += usize::from(black_box(&msg).verify_with(black_box(&key)));
    }
    let allocations = allocations() - before;

    black_box(folded);
    assert_eq!(verified, 100);
    assert_eq!(
        allocations, 0,
        "sha256/HmacKey::mac/verify_with allocated {allocations} times"
    );
}
