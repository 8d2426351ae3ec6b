//! A fixed-size, lock-free, generation-tagged decision cache.
//!
//! [`GenCache`] backs the policy engine's decision cache: entries are tagged
//! with the policy **generation** they were computed under, and a reload
//! invalidates by bumping the generation — stale entries can never answer,
//! they are simply overwritten.
//!
//! The table is direct-mapped and every slot is a tiny seqlock built purely
//! from atomics (no `unsafe`): a writer claims a slot by CAS-ing its
//! sequence number from even to odd, stores the key and value, then
//! publishes by storing the next even number. Readers snapshot the sequence
//! before and after reading and discard torn reads. Lookups therefore never
//! block, never allocate, and never contend with each other; concurrent
//! writers to the same slot simply skip the insert (caching is
//! best-effort).
//!
//! Keys are three `u64` words packed by the caller; the third word must be
//! non-zero (callers set [`KEY_VALID`]) so an all-zero slot can never match.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Bit the caller must set in `key[2]` so empty slots never match.
pub const KEY_VALID: u64 = 1 << 63;

struct Slot {
    seq: AtomicU32,
    k0: AtomicU64,
    k1: AtomicU64,
    k2: AtomicU64,
    value: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            seq: AtomicU32::new(0),
            k0: AtomicU64::new(0),
            k1: AtomicU64::new(0),
            k2: AtomicU64::new(0),
            value: AtomicU64::new(0),
        }
    }
}

/// The cache. See the module docs for the concurrency scheme.
pub struct GenCache {
    slots: Box<[Slot]>,
    mask: usize,
}

impl std::fmt::Debug for GenCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenCache").field("slots", &self.slots.len()).finish()
    }
}

fn mix(key: [u64; 3]) -> u64 {
    // splitmix64-style finalisation over the three words
    let mut h = key[0]
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ key[1].rotate_left(23)
        ^ key[2].rotate_left(47);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl GenCache {
    /// Creates a cache with `capacity` slots, rounded up to a power of two
    /// (minimum 64).
    pub fn with_capacity(capacity: usize) -> Self {
        let n = capacity.next_power_of_two().max(64);
        GenCache {
            slots: (0..n).map(|_| Slot::new()).collect(),
            mask: n - 1,
        }
    }

    /// Looks up a packed key; returns the cached value on an exact match.
    ///
    /// `key[2]` must include [`KEY_VALID`] and the current generation, so a
    /// stale-generation entry fails the comparison and reads as a miss.
    #[inline]
    pub fn lookup(&self, key: [u64; 3]) -> Option<u64> {
        let slot = &self.slots[(mix(key) as usize) & self.mask];
        let before = slot.seq.load(Ordering::Acquire);
        if before & 1 != 0 {
            return None; // write in progress
        }
        let k0 = slot.k0.load(Ordering::Acquire);
        let k1 = slot.k1.load(Ordering::Acquire);
        let k2 = slot.k2.load(Ordering::Acquire);
        let value = slot.value.load(Ordering::Acquire);
        if slot.seq.load(Ordering::Acquire) != before {
            return None; // torn read
        }
        if [k0, k1, k2] == key {
            Some(value)
        } else {
            None
        }
    }

    /// Best-effort insert: skipped when another writer holds the slot.
    #[inline]
    pub fn insert(&self, key: [u64; 3], value: u64) {
        debug_assert!(key[2] & KEY_VALID != 0, "cache keys must set KEY_VALID");
        let slot = &self.slots[(mix(key) as usize) & self.mask];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 != 0 {
            return;
        }
        if slot
            .seq
            .compare_exchange(seq, seq.wrapping_add(1), Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        slot.k0.store(key[0], Ordering::Release);
        slot.k1.store(key[1], Ordering::Release);
        slot.k2.store(key[2], Ordering::Release);
        slot.value.store(value, Ordering::Release);
        slot.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Erases every slot (used on reload when the generation tag in the
    /// keys wraps, so a repeated tag can never resurrect an old entry).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Relaxed);
            if seq & 1 != 0 {
                continue;
            }
            if slot
                .seq
                .compare_exchange(seq, seq.wrapping_add(1), Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            slot.k0.store(0, Ordering::Release);
            slot.k1.store(0, Ordering::Release);
            slot.k2.store(0, Ordering::Release);
            slot.value.store(0, Ordering::Release);
            slot.seq.store(seq.wrapping_add(2), Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: u64, b: u64, c: u64) -> [u64; 3] {
        [a, b, c | KEY_VALID]
    }

    #[test]
    fn miss_then_hit() {
        let cache = GenCache::with_capacity(64);
        assert_eq!(cache.lookup(key(1, 2, 3)), None);
        cache.insert(key(1, 2, 3), 42);
        assert_eq!(cache.lookup(key(1, 2, 3)), Some(42));
    }

    #[test]
    fn different_generation_is_a_miss() {
        let cache = GenCache::with_capacity(64);
        cache.insert(key(1, 2, 3), 7);
        assert_eq!(cache.lookup(key(1, 2, 4)), None, "generation in k2 differs");
    }

    #[test]
    fn clear_erases() {
        let cache = GenCache::with_capacity(64);
        cache.insert(key(9, 9, 9), 1);
        cache.clear();
        assert_eq!(cache.lookup(key(9, 9, 9)), None);
    }

    #[test]
    fn colliding_slot_overwrites() {
        let cache = GenCache::with_capacity(64);
        // Insert many keys; whatever collides simply overwrites. Lookups
        // must never return a value for the wrong key.
        for i in 0..1_000u64 {
            cache.insert(key(i, i * 3, 1), i);
        }
        for i in 0..1_000u64 {
            if let Some(v) = cache.lookup(key(i, i * 3, 1)) {
                assert_eq!(v, i);
            }
        }
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(GenCache::with_capacity(1000).slots.len(), 1024);
        assert_eq!(GenCache::with_capacity(1).slots.len(), 64);
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        use std::sync::Arc;
        let cache = Arc::new(GenCache::with_capacity(256));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    let k = key(i % 97, t, 5);
                    c.insert(k, (i % 97) * 1000 + t);
                    if let Some(v) = c.lookup(k) {
                        // Any hit must decode back to its own key's value.
                        assert_eq!(v % 1000, t);
                        assert_eq!(v / 1000, i % 97);
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no panics under concurrency");
        }
    }
}
