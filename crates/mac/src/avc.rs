//! The access vector cache.
//!
//! Real SELinux answers most checks from the AVC rather than walking policy;
//! the E5 bench measures the same effect here. Entries are keyed by the
//! **interned** `(source type, target type, class, perm)` quadruple —
//! four `u32` [`Symbol`] handles, so a lookup allocates nothing — and
//! tagged with the policy generation they were computed under, so a policy
//! reload invalidates stale entries lazily. This is the same
//! generation-tagged idiom as `polsec-core`'s decision cache and the HPE's
//! verdict cache (DESIGN.md §6).

use polsec_core::Symbol;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A cached access vector: the policy's answer plus its audit directives,
/// so a cache hit needs no policy walk at all (real AVCs cache the
/// auditallow/auditdeny vectors alongside the allow vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessVector {
    /// Whether policy allows the access.
    pub allowed: bool,
    /// Whether a grant should emit an `avc: granted` message (auditallow).
    pub audit_grant: bool,
    /// Whether a denial should emit an `avc: denied` message (not
    /// dontaudit-suppressed).
    pub audit_deny: bool,
}

/// A cheap multiply-xor hasher for the 16-byte symbol key — the default
/// SipHash is overkill for four interned `u32`s on the hot path.
#[derive(Debug, Clone, Copy, Default)]
pub struct AvcKeyHasher(u64);

impl Hasher for AvcKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0.rotate_left(21) ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 31;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^ (h >> 29)
    }
}

type AvcBuildHasher = BuildHasherDefault<AvcKeyHasher>;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AvcStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that had to consult policy.
    pub misses: u64,
    /// Entries dropped because their generation went stale.
    pub invalidations: u64,
    /// Whole-cache flushes due to the capacity bound.
    pub evictions: u64,
}

impl AvcStats {
    /// Hit ratio in `[0, 1]` (0 when no lookups yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    source: Symbol,
    target: Symbol,
    class: Symbol,
    perm: Symbol,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    vector: AccessVector,
    generation: u64,
}

/// One live cache entry, as returned by [`Avc::export_entries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvcExportEntry {
    /// Source type symbol.
    pub source: Symbol,
    /// Target type symbol.
    pub target: Symbol,
    /// Object class symbol.
    pub class: Symbol,
    /// Permission symbol.
    pub perm: Symbol,
    /// The cached vector.
    pub vector: AccessVector,
}

/// A generation-tagged access vector cache.
#[derive(Debug, Clone, Default)]
pub struct Avc {
    map: HashMap<Key, Entry, AvcBuildHasher>,
    capacity: usize,
    stats: AvcStats,
}

impl Avc {
    /// Default capacity (entries).
    pub const DEFAULT_CAPACITY: usize = 4_096;

    /// Creates a cache with the default capacity.
    pub fn new() -> Self {
        Avc::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a cache bounded to `capacity` entries (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Avc {
            map: HashMap::default(),
            capacity: capacity.max(1),
            stats: AvcStats::default(),
        }
    }

    /// Looks up a vector computed under `generation`. Stale entries count
    /// as misses and are dropped.
    pub fn lookup(
        &mut self,
        source: &str,
        target: &str,
        class: &str,
        perm: &str,
        generation: u64,
    ) -> Option<bool> {
        self.lookup_symbols(
            Symbol::intern(source),
            Symbol::intern(target),
            Symbol::intern(class),
            Symbol::intern(perm),
            generation,
        )
        .map(|v| v.allowed)
    }

    /// [`Avc::lookup`] over pre-interned symbols, returning the full
    /// cached [`AccessVector`] — the allocation-free hot path used by
    /// [`Enforcer::check`](crate::Enforcer::check).
    pub fn lookup_symbols(
        &mut self,
        source: Symbol,
        target: Symbol,
        class: Symbol,
        perm: Symbol,
        generation: u64,
    ) -> Option<AccessVector> {
        let key = Key { source, target, class, perm };
        match self.map.get(&key) {
            Some(e) if e.generation == generation => {
                self.stats.hits += 1;
                Some(e.vector)
            }
            Some(_) => {
                self.map.remove(&key);
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a computed vector. At capacity the cache is flushed first
    /// (simple and predictable; real AVCs use reclaim lists).
    pub fn insert(
        &mut self,
        source: &str,
        target: &str,
        class: &str,
        perm: &str,
        generation: u64,
        allowed: bool,
    ) {
        self.insert_symbols(
            Symbol::intern(source),
            Symbol::intern(target),
            Symbol::intern(class),
            Symbol::intern(perm),
            generation,
            AccessVector { allowed, ..AccessVector::default() },
        );
    }

    /// [`Avc::insert`] over pre-interned symbols, caching the full vector.
    pub fn insert_symbols(
        &mut self,
        source: Symbol,
        target: Symbol,
        class: Symbol,
        perm: Symbol,
        generation: u64,
        vector: AccessVector,
    ) {
        if self.map.len() >= self.capacity {
            self.map.clear();
            self.stats.evictions += 1;
        }
        self.map.insert(Key { source, target, class, perm }, Entry { vector, generation });
    }

    /// Drops everything (explicit flush, e.g. on policy unload).
    pub fn flush(&mut self) {
        self.map.clear();
    }

    /// Exports every live entry computed under `generation`, sorted by the
    /// `(source, target, class, perm)` strings — a deterministic snapshot
    /// for offline audit tooling (`polsec-analyze` lints exported vectors
    /// against fresh policy answers; a divergent entry means a stale or
    /// corrupted cache). Stale-generation entries are skipped, not dropped.
    pub fn export_entries(&self, generation: u64) -> Vec<AvcExportEntry> {
        let mut out: Vec<AvcExportEntry> = self
            .map
            .iter()
            .filter(|(_, e)| e.generation == generation)
            .map(|(k, e)| AvcExportEntry {
                source: k.source,
                target: k.target,
                class: k.class,
                perm: k.perm,
                vector: e.vector,
            })
            .collect();
        out.sort_by_key(|e| {
            (
                e.source.as_str(),
                e.target.as_str(),
                e.class.as_str(),
                e.perm.as_str(),
            )
        });
        out
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> AvcStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut avc = Avc::new();
        assert_eq!(avc.lookup("a", "b", "c", "p", 1), None);
        avc.insert("a", "b", "c", "p", 1, true);
        assert_eq!(avc.lookup("a", "b", "c", "p", 1), Some(true));
        let s = avc.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stale_generation_invalidates() {
        let mut avc = Avc::new();
        avc.insert("a", "b", "c", "p", 1, true);
        assert_eq!(avc.lookup("a", "b", "c", "p", 2), None, "new generation");
        assert_eq!(avc.stats().invalidations, 1);
        assert!(avc.is_empty(), "stale entry dropped");
    }

    #[test]
    fn distinct_perms_are_distinct_entries() {
        let mut avc = Avc::new();
        avc.insert("a", "b", "c", "read", 1, true);
        avc.insert("a", "b", "c", "write", 1, false);
        assert_eq!(avc.lookup("a", "b", "c", "read", 1), Some(true));
        assert_eq!(avc.lookup("a", "b", "c", "write", 1), Some(false));
        assert_eq!(avc.len(), 2);
    }

    #[test]
    fn capacity_flush() {
        let mut avc = Avc::with_capacity(2);
        avc.insert("a", "b", "c", "1", 1, true);
        avc.insert("a", "b", "c", "2", 1, true);
        avc.insert("a", "b", "c", "3", 1, true); // triggers flush
        assert_eq!(avc.stats().evictions, 1);
        assert_eq!(avc.len(), 1);
        assert_eq!(avc.lookup("a", "b", "c", "1", 1), None);
        assert_eq!(avc.lookup("a", "b", "c", "3", 1), Some(true));
    }

    #[test]
    fn explicit_flush() {
        let mut avc = Avc::new();
        avc.insert("a", "b", "c", "p", 1, true);
        avc.flush();
        assert!(avc.is_empty());
    }

    #[test]
    fn hit_ratio_zero_when_untouched() {
        assert_eq!(Avc::new().stats().hit_ratio(), 0.0);
    }

    #[test]
    fn export_is_sorted_and_generation_filtered() {
        let mut avc = Avc::new();
        avc.insert("zeta", "t", "c", "read", 1, true);
        avc.insert("alpha", "t", "c", "read", 1, false);
        avc.insert("mid", "t", "c", "read", 7, true); // other generation
        let entries = avc.export_entries(1);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].source.as_str(), "alpha");
        assert!(!entries[0].vector.allowed);
        assert_eq!(entries[1].source.as_str(), "zeta");
        assert!(entries[1].vector.allowed);
        assert_eq!(avc.len(), 3, "export never mutates the cache");
    }
}
