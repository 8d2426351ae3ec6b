//! A fixed-size, lock-free, generation-tagged decision cache.
//!
//! [`GenCache`] backs the policy engine's decision cache: entries are tagged
//! with the policy **generation** they were computed under, and a reload
//! moves to the next generation, so an entry it does not carry over can
//! never answer again: it is simply overwritten. A key's slot ignores its
//! tag, so [`GenCache::retag`] carries an entry into the next generation
//! where it lies, under the `&mut` access a reload has. One bit per slot
//! says which slots an insert has filled, so that walk reads those slots
//! alone.
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
//! non-zero (callers set [`KEY_VALID`]) so an all-zero slot can never match,
//! and carries the generation tag where [`tag_bits`] puts it.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Bit the caller must set in `key[2]` so empty slots never match.
pub const KEY_VALID: u64 = 1 << 63;

/// The lowest bit of the generation tag in `key[2]`.
const TAG_SHIFT: u32 = 42;

/// The generation bits a key carries: a tag repeats every 2^20
/// generations.
pub const TAG_MASK: u32 = 0xF_FFFF;

/// The tag's bits in `key[2]`, which a key's slot ignores.
const TAG_BITS: u64 = (TAG_MASK as u64) << TAG_SHIFT;

/// The tag bits of `generation`, in place in `key[2]`.
pub fn tag_bits(generation: u32) -> u64 {
    u64::from(generation & TAG_MASK) << TAG_SHIFT
}

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

/// The cache: a direct-mapped table of seqlocked slots, each holding one
/// generation-tagged key and its value. A key's slot ignores its tag, so
/// the same request lands in the same slot in every generation, and
/// [`GenCache::retag`] moves an entry to a new generation in place. Beside
/// the slots, one bit per slot (1 KB for 8 192 slots) marks the slots an
/// insert filled since the last walk or erase; only `insert`, `retag` and
/// `clear` touch it, never `lookup`. See the module docs for the
/// concurrency scheme.
pub struct GenCache {
    slots: Box<[Slot]>,
    /// Bit `i % 64` of word `i / 64` is set once an insert fills slot `i`.
    filled: Box<[AtomicU64]>,
    mask: usize,
}

impl std::fmt::Debug for GenCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenCache").field("slots", &self.slots.len()).finish()
    }
}

/// The slot hash of a key, its generation tag left out.
fn mix(key: [u64; 3]) -> u64 {
    // splitmix64-style finalisation over the three words
    let mut h = key[0]
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ key[1].rotate_left(23)
        ^ (key[2] & !TAG_BITS).rotate_left(47);
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
            filled: (0..n / 64).map(|_| AtomicU64::new(0)).collect(),
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
    /// Marks the slot filled, with a `fetch_or` only the first time.
    #[inline]
    pub fn insert(&self, key: [u64; 3], value: u64) {
        debug_assert!(key[2] & KEY_VALID != 0, "cache keys must set KEY_VALID");
        let index = (mix(key) as usize) & self.mask;
        let slot = &self.slots[index];
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
        // Relaxed suffices: only `retag` reads the bits, and the `&mut`
        // borrow it runs under orders it after every insert.
        let (word, bit) = (&self.filled[index / 64], 1u64 << (index % 64));
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Carries entries from generation `from` into generation `to` where
    /// they lie: `keep` sees the key and value of each entry tagged
    /// `from` and returns the value it holds under `to`, or `None` to
    /// leave it behind, where no lookup under `to` matches it. `&mut self`
    /// means no lookup or insert runs beside the walk, and that every
    /// insert's bit is visible to it, so it reads and writes each slot
    /// without a CAS, and it allocates nothing.
    ///
    /// The walk reads only the slots whose bit is set, and clears the bit
    /// of every slot whose entry it leaves behind: of another generation,
    /// or refused by `keep`. The next walk reads only what this one
    /// carried and what was inserted since.
    pub fn retag(
        &mut self,
        from: u32,
        to: u32,
        mut keep: impl FnMut([u64; 3], u64) -> Option<u64>,
    ) {
        let outgoing = KEY_VALID | tag_bits(from);
        for (w, word) in self.filled.iter_mut().enumerate() {
            let mut pending = *word.get_mut();
            while pending != 0 {
                let bit = pending & pending.wrapping_neg();
                pending ^= bit;
                let slot = &mut self.slots[w * 64 + bit.trailing_zeros() as usize];
                let k2 = *slot.k2.get_mut();
                let key = [*slot.k0.get_mut(), *slot.k1.get_mut(), k2];
                let carried = if k2 & (KEY_VALID | TAG_BITS) == outgoing {
                    keep(key, *slot.value.get_mut())
                } else {
                    None
                };
                match carried {
                    Some(value) => {
                        *slot.k2.get_mut() = k2 & !TAG_BITS | tag_bits(to);
                        *slot.value.get_mut() = value;
                    }
                    None => *word.get_mut() &= !bit,
                }
            }
        }
    }

    /// Erases every slot (used when the generation tag in the keys wraps,
    /// so a repeated tag can never resurrect an old entry).
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
        for word in self.filled.iter() {
            word.store(0, Ordering::Relaxed);
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

    fn tagged(a: u64, generation: u32) -> [u64; 3] {
        key(a, a, tag_bits(generation) | 2)
    }

    #[test]
    fn a_keys_slot_ignores_its_tag() {
        for generation in [1, 2, TAG_MASK] {
            assert_eq!(mix(tagged(7, generation)), mix(tagged(7, 0)));
        }
        assert_ne!(mix(tagged(7, 0)), mix(tagged(8, 0)));
    }

    #[test]
    fn retag_carries_the_kept_entries_of_one_generation() {
        let mut cache = GenCache::with_capacity(1024);
        for a in 0..4 {
            cache.insert(tagged(a, 5), a);
        }
        cache.insert(tagged(9, 4), 9);
        let mut seen = Vec::new();
        cache.retag(5, 6, |key, value| {
            seen.push(value);
            (key[0] % 2 == 0).then_some(value * 10)
        });
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2, 3], "only generation 5's entries are offered");
        for a in 0..4 {
            assert_eq!(cache.lookup(tagged(a, 6)), (a % 2 == 0).then_some(a * 10));
        }
        assert_eq!(cache.lookup(tagged(1, 5)), Some(1), "a dropped entry stays behind");
        assert_eq!(cache.lookup(tagged(0, 5)), None, "a kept entry moved");
        assert_eq!(cache.lookup(tagged(9, 4)), Some(9));
    }

    /// Every entry of generation `generation` a scan of all slots finds.
    fn scan(cache: &GenCache, generation: u32) -> Vec<([u64; 3], u64)> {
        let tagged = KEY_VALID | tag_bits(generation);
        let mut found: Vec<_> = cache
            .slots
            .iter()
            .map(|slot| {
                let [k0, k1, k2, value] =
                    [&slot.k0, &slot.k1, &slot.k2, &slot.value].map(|w| w.load(Ordering::Relaxed));
                ([k0, k1, k2], value)
            })
            .filter(|(key, _)| key[2] & (KEY_VALID | TAG_BITS) == tagged)
            .collect();
        found.sort_unstable();
        found
    }

    /// Slots whose filled bit is set.
    fn filled(cache: &GenCache) -> u32 {
        cache.filled.iter().map(|w| w.load(Ordering::Relaxed).count_ones()).sum()
    }

    #[test]
    fn retag_offers_each_entry_of_its_generation_once() {
        // splitmix64: keys from a small pool, so inserts collide in slots
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut cache = GenCache::with_capacity(256);
        let mut generation = 1;
        for round in 0..12 {
            // now and then a generation moved to without a walk, as a
            // strategy change does, and a stale insert
            if round % 4 == 3 {
                generation += 1;
            }
            for _ in 0..200 {
                let a = next() % 400;
                cache.insert(tagged(a, generation), next() % 1_000);
            }
            cache.insert(tagged(next() % 400, generation - 1), 7);
            let expected = scan(&cache, generation);
            assert!(expected.len() > 50, "round {round}: {} entries", expected.len());
            let mut offered = Vec::new();
            cache.retag(generation, generation + 1, |key, value| {
                offered.push((key, value));
                (key[0] % 3 != 0).then_some(value + 1)
            });
            offered.sort_unstable();
            assert_eq!(offered, expected, "round {round}: the walk offers what a scan finds");
            generation += 1;
            for (key, value) in expected {
                let carried = (key[0] % 3 != 0).then_some(value + 1);
                assert_eq!(cache.lookup(tagged(key[0], generation)), carried);
            }
        }
    }

    #[test]
    fn an_entry_left_behind_is_not_offered_again() {
        let mut cache = GenCache::with_capacity(1024);
        for a in 0..8 {
            cache.insert(tagged(a, 5), a);
        }
        assert_eq!(scan(&cache, 5).len(), 8, "eight slots");
        cache.retag(5, 6, |key, value| (key[0] < 4).then_some(value));
        assert_eq!(cache.lookup(tagged(6, 5)), Some(6), "a dropped entry stays in its slot");
        // The walk cleared the bits of the four it left behind, so the next
        // one reads only the four slots it carried.
        assert_eq!(filled(&cache), 4);
        let mut offered = Vec::new();
        cache.retag(6, 7, |key, value| {
            offered.push(key[0]);
            Some(value)
        });
        offered.sort_unstable();
        assert_eq!(offered, [0, 1, 2, 3]);
    }

    #[test]
    fn a_walk_after_clear_offers_nothing() {
        let mut cache = GenCache::with_capacity(64);
        for a in 0..8 {
            cache.insert(tagged(a, 5), a);
        }
        cache.clear();
        assert_eq!(filled(&cache), 0);
        cache.retag(5, 6, |key, _| panic!("offered {key:?} after clear"));
        cache.insert(tagged(1, 6), 1);
        let mut offered = Vec::new();
        cache.retag(6, 7, |key, value| {
            offered.push(key[0]);
            Some(value)
        });
        assert_eq!(offered, [1], "an insert after clear is walked again");
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
