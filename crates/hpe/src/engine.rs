//! The complete hardware policy engine.
//!
//! [`HardwarePolicyEngine`] wires the approved lists and decision block into
//! `polsec-can`'s [`Interposer`] seam. It is a cheap clone-able handle over
//! shared state: one clone is boxed into the [`CanNode`](polsec_can::CanNode)
//! as the in-line filter, while the OEM keeps another clone as the
//! *maintenance port* for telemetry and signed configuration updates.
//! Firmware code has neither — the [`Firmware`](polsec_can::Firmware) trait
//! offers no path to the interposer, and the engine's only mutating entry
//! points are [`apply_signed_config`](HardwarePolicyEngine::apply_signed_config)
//! (requires the OEM key) and
//! [`firmware_attempt_reconfigure`](HardwarePolicyEngine::firmware_attempt_reconfigure)
//! (always fails, modelling the tamper-resistance of the hardware block).
//!
//! # The lookup fast path (DESIGN.md §6)
//!
//! The per-frame path is lock-light: telemetry counters are atomics, the
//! engine label is a pre-shared `Arc<str>`, and each handle caches verdicts
//! in plain memory keyed by `(can id, direction)`. A signed configuration
//! update (or a decision-block swap) bumps a generation counter, so stale
//! verdicts can never answer; only a cache miss takes the configuration read
//! lock and runs the decision block. Cycle accounting is preserved on hits:
//! the cached verdict carries the cycle cost the hardware comparator bank
//! spends on every frame.

use crate::config::compile_policy_to_lists;
use crate::decision::DecisionBlock;
use crate::error::HpeError;
use crate::lists::ApprovedLists;
use crate::telemetry::HpeTelemetry;
use polsec_can::node::{InterposeVerdict, Interposer};
use polsec_can::{CanFrame, CanId};
use polsec_core::SignedBundle;
use polsec_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Mutable configuration, touched only by updates and cache misses.
#[derive(Debug)]
struct HpeConfig {
    lists: ApprovedLists,
    block: DecisionBlock,
    oem_key: Option<Vec<u8>>,
}

/// Per-outcome event count and cycle sum packed into one word: count in the
/// low 32 bits, cycles in the high 32 — so the per-frame accounting path is
/// a **single** atomic RMW instead of one for the counter plus one for the
/// cycle total. Lookup costs are ≤ a few dozen cycles per frame, so the
/// 32-bit cycle half saturates only after ~10⁸ frames per engine — far
/// beyond any simulated run; [`TelemetryCounters::snapshot`] would surface a
/// wrap as an impossible mean, caught by the bench sanity checks.
#[inline]
const fn pack_event(cycles: u32) -> u64 {
    ((cycles as u64) << 32) | 1
}

const fn unpack_count(v: u64) -> u64 {
    v & 0xFFFF_FFFF
}

const fn unpack_cycles(v: u64) -> u64 {
    v >> 32
}

/// Slots in the lock-free blocked-id table. Each engine's approved lists
/// cover at most a few dozen identifiers, so collisions are rare and the
/// overflow map is effectively never touched.
const BLOCKED_SLOTS: usize = 128;

/// A fixed open-addressed `(id → count)` table updated with atomics only;
/// the deny path bumps a counter without taking any lock. Ids that fail to
/// claim a slot (table full) fall back to a mutexed overflow map.
struct BlockedIdTable {
    /// `raw id + 1`; 0 marks an empty slot.
    keys: Box<[AtomicU64]>,
    counts: Box<[AtomicU64]>,
    overflow: Mutex<BTreeMap<u32, u64>>,
}

impl std::fmt::Debug for BlockedIdTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockedIdTable").finish_non_exhaustive()
    }
}

impl Default for BlockedIdTable {
    fn default() -> Self {
        BlockedIdTable {
            keys: (0..BLOCKED_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            counts: (0..BLOCKED_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            overflow: Mutex::new(BTreeMap::new()),
        }
    }
}

impl BlockedIdTable {
    fn bump(&self, id: u32) {
        let key = u64::from(id) + 1;
        let mut slot = (id as usize).wrapping_mul(0x9E37_79B9) >> 16 & (BLOCKED_SLOTS - 1);
        for _ in 0..BLOCKED_SLOTS {
            let k = self.keys[slot].load(Ordering::Acquire);
            if k == key {
                self.counts[slot].fetch_add(1, Ordering::Relaxed);
                return;
            }
            if k == 0 {
                match self.keys[slot].compare_exchange(
                    0,
                    key,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.counts[slot].fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(current) if current == key => {
                        self.counts[slot].fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(_) => {} // lost the race to another id; probe on
                }
            }
            slot = (slot + 1) & (BLOCKED_SLOTS - 1);
        }
        *lock(&self.overflow).entry(id).or_insert(0) += 1;
    }

    fn snapshot(&self) -> BTreeMap<u32, u64> {
        let mut out = lock(&self.overflow).clone();
        for (k, c) in self.keys.iter().zip(self.counts.iter()) {
            let key = k.load(Ordering::Acquire);
            if key != 0 {
                // count may still be mid-publication (key claimed, count not
                // yet bumped); skip zero counts rather than report them
                let n = c.load(Ordering::Relaxed);
                if n > 0 {
                    *out.entry((key - 1) as u32).or_insert(0) += n;
                }
            }
        }
        out
    }
}

/// Lock-free telemetry: one packed atomic per `(direction, outcome)` pair,
/// a CAS-claimed per-id block table — no mutex anywhere on the frame path.
#[derive(Debug, Default)]
struct TelemetryCounters {
    read_granted: AtomicU64,
    read_blocked: AtomicU64,
    write_granted: AtomicU64,
    write_blocked: AtomicU64,
    tamper_attempts: AtomicU64,
    blocked_by_id: BlockedIdTable,
}

impl TelemetryCounters {
    fn snapshot(&self) -> HpeTelemetry {
        let rg = self.read_granted.load(Ordering::Relaxed);
        let rb = self.read_blocked.load(Ordering::Relaxed);
        let wg = self.write_granted.load(Ordering::Relaxed);
        let wb = self.write_blocked.load(Ordering::Relaxed);
        HpeTelemetry {
            read_granted: unpack_count(rg),
            read_blocked: unpack_count(rb),
            write_granted: unpack_count(wg),
            write_blocked: unpack_count(wb),
            tamper_attempts: self.tamper_attempts.load(Ordering::Relaxed),
            total_cycles: unpack_cycles(rg)
                + unpack_cycles(rb)
                + unpack_cycles(wg)
                + unpack_cycles(wb),
            blocked_by_id: self.blocked_by_id.snapshot(),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Debug)]
struct Shared {
    label: Arc<str>,
    config: RwLock<HpeConfig>,
    config_version: AtomicU64,
    telemetry: TelemetryCounters,
    generation: AtomicU32,
}

const DIR_READ: u64 = 0;
const DIR_WRITE: u64 = 1;

/// Slots in the per-handle verdict cache (CAN id working sets per node are
/// tiny; 64 direct-mapped slots overshoot them).
const LOCAL_VERDICT_SLOTS: usize = 64;

/// A per-*handle* verdict cache with no atomics at all. The interposer seam
/// hands each node exclusive `&mut` access to its boxed engine handle, so
/// the handle may keep plain memory: one generation check (a single atomic
/// load) validates the whole cache, and a config update wipes it on the
/// next use. Misses fall through to the decision block.
#[derive(Debug, Clone)]
struct LocalVerdicts {
    /// `(packed key + 1, packed verdict)`; key 0 marks an empty slot.
    entries: Box<[(u64, u64)]>,
    generation: u32,
}

impl LocalVerdicts {
    fn new() -> Self {
        LocalVerdicts {
            entries: vec![(0, 0); LOCAL_VERDICT_SLOTS].into_boxed_slice(),
            generation: 0,
        }
    }
}

/// The hardware policy engine of Fig. 4. See the module docs.
#[derive(Debug, Clone)]
pub struct HardwarePolicyEngine {
    shared: Arc<Shared>,
    local: LocalVerdicts,
}

impl HardwarePolicyEngine {
    /// Creates an engine with a static configuration and no update key
    /// (field updates disabled).
    pub fn new(label: impl Into<String>, lists: ApprovedLists) -> Self {
        HardwarePolicyEngine {
            shared: Arc::new(Shared {
                label: Arc::from(label.into()),
                config: RwLock::new(HpeConfig {
                    lists,
                    block: DecisionBlock::default(),
                    oem_key: None,
                }),
                config_version: AtomicU64::new(0),
                telemetry: TelemetryCounters::default(),
                generation: AtomicU32::new(0),
            }),
            local: LocalVerdicts::new(),
        }
    }

    /// Provisions the OEM verification key, enabling signed configuration
    /// updates (builder style; done at manufacture).
    pub fn with_oem_key(self, key: Vec<u8>) -> Self {
        self.write_config().oem_key = Some(key);
        self
    }

    /// Overrides the decision block's cost model (builder style).
    pub fn with_decision_block(self, block: DecisionBlock) -> Self {
        self.write_config().block = block;
        self.invalidate();
        self
    }

    fn read_config(&self) -> std::sync::RwLockReadGuard<'_, HpeConfig> {
        self.shared.config.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_config(&self) -> std::sync::RwLockWriteGuard<'_, HpeConfig> {
        self.shared.config.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Bumps the verdict-cache generation, so every handle drops its cached
    /// verdicts before its next lookup.
    fn invalidate(&self) {
        self.shared.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// The engine's label, pre-shared so reads take no lock and clone no
    /// string.
    pub fn label(&self) -> Arc<str> {
        Arc::clone(&self.shared.label)
    }

    /// Snapshot of the telemetry counters.
    pub fn telemetry(&self) -> HpeTelemetry {
        self.shared.telemetry.snapshot()
    }

    /// The active configuration version (atomic read; no lock).
    pub fn config_version(&self) -> u64 {
        self.shared.config_version.load(Ordering::Acquire)
    }

    /// The verdict-cache generation (bumped by every reconfiguration).
    pub fn cache_generation(&self) -> u32 {
        self.shared.generation.load(Ordering::Acquire)
    }

    /// Snapshot of the approved lists (for inspection/diagnostics).
    pub fn lists(&self) -> ApprovedLists {
        self.read_config().lists.clone()
    }

    /// Looks up the read-path (ingress) verdict for `id` without recording
    /// telemetry: `(granted, cycles)` exactly as the inline engine would
    /// decide, straight from the decision block.
    ///
    /// A maintenance-port diagnostic — the fleet engine samples
    /// deterministic verdict costs with it without perturbing the counters
    /// the experiment is measuring.
    pub fn probe_read(&self, id: CanId) -> (bool, u32) {
        self.filter(DIR_READ, id)
    }

    /// Looks up the write-path (egress) verdict for `id` without recording
    /// telemetry. See [`HardwarePolicyEngine::probe_read`].
    pub fn probe_write(&self, id: CanId) -> (bool, u32) {
        self.filter(DIR_WRITE, id)
    }

    /// The path compromised firmware would have to use: an unauthenticated
    /// reconfiguration request. It **always fails** and is counted.
    ///
    /// # Errors
    /// Always [`HpeError::TamperRejected`].
    pub fn firmware_attempt_reconfigure(&self) -> Result<(), HpeError> {
        self.shared
            .telemetry
            .tamper_attempts
            .fetch_add(1, Ordering::Relaxed);
        Err(HpeError::TamperRejected)
    }

    /// Applies an OEM-signed policy bundle: verifies the signature, requires
    /// the version to advance, compiles the bundle's policies for `mode`
    /// into fresh lists (preserving hardware capacity), then swaps them in
    /// and invalidates the verdict cache.
    ///
    /// # Errors
    /// [`HpeError::ConfigRejected`] for missing key / bad signature / stale
    /// version; [`HpeError::UnsupportedRule`] / [`HpeError::ListFull`] if
    /// the bundle does not fit the hardware.
    pub fn apply_signed_config(
        &self,
        bundle: &SignedBundle,
        mode: Option<&str>,
    ) -> Result<(), HpeError> {
        let mut config = self.write_config();
        let key = config.oem_key.clone().ok_or_else(|| HpeError::ConfigRejected {
            reason: "no oem key provisioned".into(),
        })?;
        let verified = bundle.verify(&key).map_err(|e| HpeError::ConfigRejected {
            reason: e.to_string(),
        })?;
        let current = self.shared.config_version.load(Ordering::Acquire);
        if verified.version <= current {
            return Err(HpeError::ConfigRejected {
                reason: format!(
                    "version {} does not advance current {}",
                    verified.version, current
                ),
            });
        }
        let capacity = config.lists.read().capacity();
        let mut combined = ApprovedLists::with_capacity(capacity);
        for policy in &verified.policies {
            let lists = compile_policy_to_lists(policy, mode, capacity)?;
            for e in lists.read().entries() {
                combined.add_read_entry(*e)?;
            }
            for e in lists.write().entries() {
                combined.add_write_entry(*e)?;
            }
        }
        config.lists = combined;
        self.shared
            .config_version
            .store(verified.version, Ordering::Release);
        drop(config);
        self.invalidate();
        Ok(())
    }

    /// The `&mut` fast path: per-handle plain-memory cache first, the
    /// decision block on a miss. One atomic load (the generation) validates
    /// the local entries; a configuration update bumps the generation, which
    /// wipes the local cache here before any stale verdict can answer.
    fn filter_local(&mut self, direction: u64, id: CanId) -> (bool, u32) {
        let generation = self.shared.generation.load(Ordering::Acquire);
        if self.local.generation != generation {
            self.local.entries.fill((0, 0));
            self.local.generation = generation;
        }
        let packed_id = (u64::from(id.raw()) << 2)
            | (u64::from(id.is_extended()) << 1)
            | direction;
        let key = packed_id + 1; // shift away from the empty-slot sentinel
        let slot = (packed_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
            & (LOCAL_VERDICT_SLOTS - 1);
        let e = self.local.entries[slot];
        if e.0 == key {
            return (e.1 & 1 == 1, (e.1 >> 1) as u32);
        }
        let (granted, cycles) = self.filter(direction, id);
        self.local.entries[slot] = (key, (u64::from(cycles) << 1) | u64::from(granted));
        (granted, cycles)
    }

    /// One uncached lookup: the decision block under the config read lock.
    fn filter(&self, direction: u64, id: CanId) -> (bool, u32) {
        let config = self.read_config();
        let list = match direction {
            DIR_READ => config.lists.read(),
            _ => config.lists.write(),
        };
        let verdict = config.block.decide(list, id);
        (verdict.granted, verdict.cycles)
    }

    fn account(&self, direction: u64, id: CanId, granted: bool, cycles: u32) -> InterposeVerdict {
        let t = &self.shared.telemetry;
        // one packed RMW carries both the event count and the cycle cost
        let delta = pack_event(cycles);
        match (direction, granted) {
            (DIR_READ, true) => t.read_granted.fetch_add(delta, Ordering::Relaxed),
            (DIR_READ, false) => t.read_blocked.fetch_add(delta, Ordering::Relaxed),
            (_, true) => t.write_granted.fetch_add(delta, Ordering::Relaxed),
            (_, false) => t.write_blocked.fetch_add(delta, Ordering::Relaxed),
        };
        if granted {
            InterposeVerdict::Grant
        } else {
            t.blocked_by_id.bump(id.raw());
            InterposeVerdict::Block
        }
    }
}

impl Interposer for HardwarePolicyEngine {
    fn on_ingress(&mut self, _now: SimTime, frame: &CanFrame) -> InterposeVerdict {
        let (granted, cycles) = self.filter_local(DIR_READ, frame.id());
        self.account(DIR_READ, frame.id(), granted, cycles)
    }

    fn on_egress(&mut self, _now: SimTime, frame: &CanFrame) -> InterposeVerdict {
        let (granted, cycles) = self.filter_local(DIR_WRITE, frame.id());
        self.account(DIR_WRITE, frame.id(), granted, cycles)
    }

    fn label(&self) -> &str {
        "hpe"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polsec_core::dsl::parse_policy;
    use polsec_core::PolicyBundle;
    use polsec_can::{CanBus, CanId, CanNode};

    const KEY: &[u8] = b"oem-hpe-key";

    fn sid(v: u32) -> CanId {
        CanId::standard(v).unwrap()
    }

    fn frame(id: u32) -> CanFrame {
        CanFrame::data(sid(id), &[0xEE]).unwrap()
    }

    fn engine_allowing(read: &[u32], write: &[u32]) -> HardwarePolicyEngine {
        let mut lists = ApprovedLists::with_capacity(16);
        for &id in read {
            lists.allow_read(sid(id)).unwrap();
        }
        for &id in write {
            lists.allow_write(sid(id)).unwrap();
        }
        HardwarePolicyEngine::new("test-hpe", lists)
    }

    #[test]
    fn ingress_filtering_and_telemetry() {
        let mut hpe = engine_allowing(&[0x100], &[]);
        assert_eq!(hpe.on_ingress(SimTime::ZERO, &frame(0x100)), InterposeVerdict::Grant);
        assert_eq!(hpe.on_ingress(SimTime::ZERO, &frame(0x200)), InterposeVerdict::Block);
        let t = hpe.telemetry();
        assert_eq!(t.read_granted, 1);
        assert_eq!(t.read_blocked, 1);
        assert!(t.total_cycles > 0);
        assert_eq!(t.top_blocked_id(), Some((0x200, 1)));
    }

    #[test]
    fn egress_filtering_is_separate() {
        let mut hpe = engine_allowing(&[0x100], &[0x300]);
        assert_eq!(hpe.on_egress(SimTime::ZERO, &frame(0x300)), InterposeVerdict::Grant);
        // read-approved but not write-approved
        assert_eq!(hpe.on_egress(SimTime::ZERO, &frame(0x100)), InterposeVerdict::Block);
        let t = hpe.telemetry();
        assert_eq!(t.write_granted, 1);
        assert_eq!(t.write_blocked, 1);
    }

    #[test]
    fn repeated_frames_hit_the_verdict_cache_with_same_accounting() {
        let mut hpe = engine_allowing(&[0x100], &[]);
        hpe.on_ingress(SimTime::ZERO, &frame(0x100));
        let cycles_after_first = hpe.telemetry().total_cycles;
        for _ in 0..3 {
            assert_eq!(hpe.on_ingress(SimTime::ZERO, &frame(0x100)), InterposeVerdict::Grant);
        }
        let t = hpe.telemetry();
        assert_eq!(t.read_granted, 4);
        assert_eq!(
            t.total_cycles,
            cycles_after_first * 4,
            "cache hits keep charging the hardware lookup cost"
        );
    }

    #[test]
    fn probe_matches_inline_verdicts_without_telemetry() {
        let hpe = engine_allowing(&[0x100], &[0x300]);
        assert!(hpe.probe_read(sid(0x100)).0);
        assert!(!hpe.probe_read(sid(0x200)).0);
        assert!(hpe.probe_write(sid(0x300)).0);
        assert!(!hpe.probe_write(sid(0x100)).0);
        assert!(hpe.probe_read(sid(0x100)).1 > 0, "probe reports cycle cost");
        let t = hpe.telemetry();
        assert_eq!(
            (t.read_granted, t.read_blocked, t.write_granted, t.write_blocked, t.total_cycles),
            (0, 0, 0, 0, 0),
            "probing must not perturb telemetry"
        );
        // Probe verdicts agree with the inline path.
        let mut inline = hpe.clone();
        assert_eq!(inline.on_ingress(SimTime::ZERO, &frame(0x100)), InterposeVerdict::Grant);
        assert_eq!(inline.on_ingress(SimTime::ZERO, &frame(0x200)), InterposeVerdict::Block);
    }

    #[test]
    fn label_is_pre_shared() {
        let hpe = engine_allowing(&[], &[]);
        let a = hpe.label();
        let b = hpe.label();
        assert_eq!(&*a, "test-hpe");
        assert!(Arc::ptr_eq(&a, &b), "label reads share one allocation");
    }

    #[test]
    fn firmware_reconfigure_always_rejected_and_counted() {
        let hpe = engine_allowing(&[], &[]);
        for _ in 0..3 {
            assert_eq!(hpe.firmware_attempt_reconfigure().unwrap_err(), HpeError::TamperRejected);
        }
        assert_eq!(hpe.telemetry().tamper_attempts, 3);
    }

    #[test]
    fn clone_shares_state_maintenance_port_pattern() {
        let hpe = engine_allowing(&[0x10], &[]);
        let mut inline = hpe.clone();
        inline.on_ingress(SimTime::ZERO, &frame(0x10));
        // the retained handle sees the inline clone's traffic
        assert_eq!(hpe.telemetry().read_granted, 1);
    }

    #[test]
    fn signed_config_update_happy_path() {
        let hpe = engine_allowing(&[], &[]).with_oem_key(KEY.to_vec());
        let policy = parse_policy(
            r#"policy "hpe-cfg" version 1 {
                allow read on can:0x123 from *:*;
            }"#,
        )
        .unwrap();
        let bundle = PolicyBundle::new(1, "provisioning", vec![policy]).sign(KEY);
        hpe.apply_signed_config(&bundle, None).unwrap();
        assert_eq!(hpe.config_version(), 1);
        let mut inline = hpe.clone();
        assert_eq!(inline.on_ingress(SimTime::ZERO, &frame(0x123)), InterposeVerdict::Grant);
    }

    #[test]
    fn unsigned_engine_rejects_updates() {
        let hpe = engine_allowing(&[], &[]);
        let bundle = PolicyBundle::new(1, "x", vec![]).sign(KEY);
        let err = hpe.apply_signed_config(&bundle, None).unwrap_err();
        assert!(matches!(err, HpeError::ConfigRejected { .. }));
        assert!(err.to_string().contains("no oem key"));
    }

    #[test]
    fn wrong_key_and_stale_version_rejected() {
        let hpe = engine_allowing(&[], &[]).with_oem_key(KEY.to_vec());
        let forged = PolicyBundle::new(1, "x", vec![]).sign(b"attacker");
        assert!(matches!(
            hpe.apply_signed_config(&forged, None),
            Err(HpeError::ConfigRejected { .. })
        ));
        let ok = PolicyBundle::new(1, "x", vec![]).sign(KEY);
        hpe.apply_signed_config(&ok, None).unwrap();
        let stale = PolicyBundle::new(1, "x", vec![]).sign(KEY);
        let err = hpe.apply_signed_config(&stale, None).unwrap_err();
        assert!(err.to_string().contains("does not advance"));
    }

    #[test]
    fn update_replaces_old_entries_and_invalidates_cached_verdicts() {
        let hpe = engine_allowing(&[0x10], &[]).with_oem_key(KEY.to_vec());
        let mut inline = hpe.clone();
        // Warm the verdict cache with a grant for 0x10.
        assert_eq!(inline.on_ingress(SimTime::ZERO, &frame(0x10)), InterposeVerdict::Grant);
        let generation_before = hpe.cache_generation();
        let policy = parse_policy(
            r#"policy "cfg" version 2 {
                allow read on can:0x20 from *:*;
            }"#,
        )
        .unwrap();
        let bundle = PolicyBundle::new(1, "rotate", vec![policy]).sign(KEY);
        hpe.apply_signed_config(&bundle, None).unwrap();
        assert!(hpe.cache_generation() > generation_before);
        // The cached grant for 0x10 must not survive the update.
        assert_eq!(inline.on_ingress(SimTime::ZERO, &frame(0x10)), InterposeVerdict::Block);
        assert_eq!(inline.on_ingress(SimTime::ZERO, &frame(0x20)), InterposeVerdict::Grant);
    }

    #[test]
    fn end_to_end_on_a_bus() {
        let mut bus = CanBus::new(500_000);
        let victim = bus.attach(CanNode::new("victim"));
        let attacker = bus.attach(CanNode::new("attacker"));
        let hpe = engine_allowing(&[0x100], &[]);
        bus.node_mut(victim)
            .unwrap()
            .install_interposer(Box::new(hpe.clone()));
        // legitimate frame passes, spoofed id is blocked at the victim
        bus.send_from(attacker, frame(0x100)).unwrap();
        bus.send_from(attacker, frame(0x666 & 0x7FF)).unwrap();
        bus.run_until_idle();
        let v = bus.node_mut(victim).unwrap();
        assert_eq!(v.receive().unwrap().id(), sid(0x100));
        assert!(v.receive().is_none());
        assert_eq!(hpe.telemetry().read_blocked, 1);
        assert_eq!(bus.stats().frames_blocked_ingress, 1);
    }

    #[test]
    fn mode_scoped_config() {
        let hpe = engine_allowing(&[], &[]).with_oem_key(KEY.to_vec());
        let policy = parse_policy(
            r#"policy "modal" version 1 {
                allow write on can:0x50 from *:* when mode == fail-safe;
            }"#,
        )
        .unwrap();
        let bundle = PolicyBundle::new(1, "modal", vec![policy]).sign(KEY);
        hpe.apply_signed_config(&bundle, Some("fail-safe")).unwrap();
        let mut inline = hpe.clone();
        assert_eq!(inline.on_egress(SimTime::ZERO, &frame(0x50)), InterposeVerdict::Grant);
    }
}
