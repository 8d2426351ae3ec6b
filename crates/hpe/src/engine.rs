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
//! The per-frame path is single-writer. The interposer seam hands each node
//! `&mut` access to its own handle, so on its first lookup a handle takes
//! its own verdict cache, keyed by `(can id, direction)`, and its own
//! telemetry *lane*, which no other handle writes. A lookup then runs no
//! locked read-modify-write and takes no lock: counters advance by a
//! Relaxed load and store, and one atomic load of the shared generation
//! validates the whole verdict cache. A signed configuration update (or a
//! decision-block swap) bumps that generation, so stale verdicts can never
//! answer; only a cache miss takes the configuration read lock and runs the
//! decision block. Cycle accounting is preserved on hits: the cached verdict
//! carries the cycle cost the hardware comparator bank spends on every
//! frame. [`HardwarePolicyEngine::telemetry`] sums the live lanes and the
//! totals of dropped handles, per-id block table included;
//! [`HardwarePolicyEngine::totals`] sums only their scalar counts.

use crate::config::compile_policy_to_lists;
use crate::decision::DecisionBlock;
use crate::error::HpeError;
use crate::lists::ApprovedLists;
use crate::telemetry::{HpeTelemetry, HpeTotals};
use polsec_can::node::{InterposeVerdict, Interposer};
use polsec_can::{CanFrame, CanId};
use polsec_core::SignedBundle;
use polsec_sim::SimTime;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Mutable configuration, touched only by updates and cache misses.
#[derive(Debug)]
struct HpeConfig {
    lists: ApprovedLists,
    block: DecisionBlock,
    oem_key: Option<Vec<u8>>,
}

/// Adds `delta` to a counter that only one handle writes: a Relaxed load
/// and store, which compile to plain moves, not a locked read-modify-write.
#[inline]
fn add(counter: &AtomicU64, delta: u64) {
    counter.store(counter.load(Ordering::Relaxed).wrapping_add(delta), Ordering::Relaxed);
}

/// Slots in a lane's blocked-id table. Each engine's approved lists cover
/// at most a few dozen identifiers, so a fleet HPE blocks far fewer
/// distinct ids than this.
const BLOCKED_SLOTS: usize = 128;

/// A fixed open-addressed `(id → count)` table with one writer. The writer
/// stores a new slot's count before it publishes the key (Release), and
/// readers load the key with Acquire, so a published key always has its
/// count. Once every slot holds an id, blocks of any further id add to
/// `other` alone: a sender spraying the 2^29 extended ids cannot grow the
/// table, and the lookup path takes no lock.
struct BlockedIdTable {
    /// `(raw id + 1, count)`; key 0 marks an empty slot. A slot's key and
    /// count share a cache line.
    slots: Box<[(AtomicU64, AtomicU64)]>,
    /// Blocks of ids that found no slot.
    other: AtomicU64,
}

impl std::fmt::Debug for BlockedIdTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockedIdTable").finish_non_exhaustive()
    }
}

impl Default for BlockedIdTable {
    fn default() -> Self {
        BlockedIdTable {
            slots: (0..BLOCKED_SLOTS)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
            other: AtomicU64::new(0),
        }
    }
}

impl BlockedIdTable {
    /// Counts `n` blocks of `id`; one writer at a time calls this.
    fn bump(&self, id: u32, n: u64) {
        let key = u64::from(id) + 1;
        let mut slot = (id as usize).wrapping_mul(0x9E37_79B9) >> 16 & (BLOCKED_SLOTS - 1);
        for _ in 0..BLOCKED_SLOTS {
            let (k, count) = &self.slots[slot];
            let current = k.load(Ordering::Relaxed);
            if current == key {
                add(count, n);
                return;
            }
            if current == 0 {
                count.store(n, Ordering::Relaxed);
                k.store(key, Ordering::Release);
                return;
            }
            slot = (slot + 1) & (BLOCKED_SLOTS - 1);
        }
        add(&self.other, n);
    }

    /// Calls `f(id, count)` for every id the table has a slot for.
    fn for_each(&self, mut f: impl FnMut(u32, u64)) {
        for (k, count) in self.slots.iter() {
            let key = k.load(Ordering::Acquire);
            if key != 0 {
                f((key - 1) as u32, count.load(Ordering::Relaxed));
            }
        }
    }
}

/// One inline handle's telemetry. Only its handle writes it; any handle's
/// [`HardwarePolicyEngine::telemetry`] reads it.
#[derive(Debug, Default)]
struct Lane {
    /// Frames per `(direction, outcome)`, indexed by `direction << 1 | granted`.
    frames: [AtomicU64; 4],
    cycles: AtomicU64,
    blocked_by_id: BlockedIdTable,
}

impl Lane {
    #[inline]
    fn account(&self, direction: u64, id: CanId, granted: bool, cycles: u32) -> InterposeVerdict {
        add(&self.frames[(direction as usize) << 1 | usize::from(granted)], 1);
        add(&self.cycles, u64::from(cycles));
        if granted {
            InterposeVerdict::Grant
        } else {
            self.blocked_by_id.bump(id.raw(), 1);
            InterposeVerdict::Block
        }
    }

    /// Adds a dropped handle's lane to this one.
    fn absorb(&self, other: &Lane) {
        for (mine, theirs) in self.frames.iter().zip(other.frames.iter()) {
            add(mine, theirs.load(Ordering::Relaxed));
        }
        add(&self.cycles, other.cycles.load(Ordering::Relaxed));
        other.blocked_by_id.for_each(|id, n| self.blocked_by_id.bump(id, n));
        add(&self.blocked_by_id.other, other.blocked_by_id.other.load(Ordering::Relaxed));
    }

    /// Adds this lane's frames per `(direction, outcome)` and its cycles.
    fn add_totals(&self, t: &mut HpeTotals) {
        let frames = |i: usize| self.frames[i].load(Ordering::Relaxed);
        t.read_blocked += frames(0);
        t.read_granted += frames(1);
        t.write_blocked += frames(2);
        t.write_granted += frames(3);
        t.total_cycles += self.cycles.load(Ordering::Relaxed);
    }

    /// Adds this lane's per-id block counts.
    fn add_blocked_ids(&self, t: &mut HpeTelemetry) {
        self.blocked_by_id
            .for_each(|id, n| *t.blocked_by_id.entry(id).or_insert(0) += n);
        t.blocked_other += self.blocked_by_id.other.load(Ordering::Relaxed);
    }
}

/// The lanes of the live inline handles, plus the folded totals of the
/// handles already dropped. Only lane registration, `Drop` and
/// `telemetry()` lock it; a lookup never does, and the mutex makes `Drop`
/// the retired lane's one writer.
#[derive(Debug, Default)]
struct Lanes {
    live: Vec<Arc<Lane>>,
    /// The first dropped lane, with every later one folded into it.
    retired: Option<Lane>,
}

impl Lanes {
    /// The retired totals and every live lane.
    fn iter(&self) -> impl Iterator<Item = &Lane> {
        self.retired.iter().chain(self.live.iter().map(|l| &**l))
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
    generation: AtomicU32,
    tamper_attempts: AtomicU64,
    lanes: Mutex<Lanes>,
}

const DIR_READ: u64 = 0;
const DIR_WRITE: u64 = 1;

/// Slots in the per-handle verdict cache (CAN id working sets per node are
/// tiny; 64 direct-mapped slots overshoot them).
const LOCAL_VERDICT_SLOTS: usize = 64;

/// A per-*handle* verdict cache with no atomics at all: one generation
/// check (a single atomic load) validates the whole cache, and a config
/// update wipes it on the next use. Misses fall through to the decision
/// block.
#[derive(Debug)]
struct LocalVerdicts {
    /// `(packed key + 1, packed verdict)`; key 0 marks an empty slot.
    entries: Box<[(u64, u64)]>,
    generation: u32,
}

/// What a handle owns once it runs inline: its verdict cache and its
/// telemetry lane.
#[derive(Debug)]
struct Inline {
    verdicts: LocalVerdicts,
    lane: Arc<Lane>,
}

/// The hardware policy engine of Fig. 4. See the module docs.
#[derive(Debug)]
pub struct HardwarePolicyEngine {
    shared: Arc<Shared>,
    /// Set on the handle's first `on_ingress`/`on_egress`.
    inline: Option<Inline>,
}

impl Clone for HardwarePolicyEngine {
    /// A clone shares the engine's configuration and telemetry but is a new
    /// writer: it starts with no verdict cache and no lane of its own.
    fn clone(&self) -> Self {
        HardwarePolicyEngine {
            shared: Arc::clone(&self.shared),
            inline: None,
        }
    }
}

impl Drop for HardwarePolicyEngine {
    /// Folds this handle's lane into the retired totals and unregisters
    /// it, so the live list stays bounded by the live inline handles.
    fn drop(&mut self) {
        if let Some(Inline { lane, .. }) = self.inline.take() {
            let mut lanes = lock(&self.shared.lanes);
            lanes.live.retain(|l| !Arc::ptr_eq(l, &lane));
            // The list held the only other reference to the lane.
            if let Some(lane) = Arc::into_inner(lane) {
                match &lanes.retired {
                    Some(total) => total.absorb(&lane),
                    None => lanes.retired = Some(lane),
                }
            }
        }
    }
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
                generation: AtomicU32::new(0),
                tamper_attempts: AtomicU64::new(0),
                lanes: Mutex::new(Lanes::default()),
            }),
            inline: None,
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

    /// Snapshot of the telemetry counters: the totals of dropped handles
    /// plus every live handle's lane, per-id block table included.
    pub fn telemetry(&self) -> HpeTelemetry {
        let lanes = lock(&self.shared.lanes);
        let mut t = HpeTelemetry::from(self.shared.totals(&lanes));
        for lane in lanes.iter() {
            lane.add_blocked_ids(&mut t);
        }
        t
    }

    /// The scalar counters of [`HardwarePolicyEngine::telemetry`] without
    /// its per-id block table: one lock and five sums per lane, where the
    /// full snapshot also walks each lane's 128-slot table into a map.
    pub fn totals(&self) -> HpeTotals {
        self.shared.totals(&lock(&self.shared.lanes))
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
        self.shared.read_config().lists.clone()
    }

    /// Looks up the read-path (ingress) verdict for `id` without recording
    /// telemetry: `(granted, cycles)` exactly as the inline engine would
    /// decide, straight from the decision block.
    ///
    /// A maintenance-port diagnostic — the fleet engine samples
    /// deterministic verdict costs with it without perturbing the counters
    /// the experiment is measuring.
    pub fn probe_read(&self, id: CanId) -> (bool, u32) {
        self.shared.filter(DIR_READ, id)
    }

    /// Looks up the write-path (egress) verdict for `id` without recording
    /// telemetry. See [`HardwarePolicyEngine::probe_read`].
    pub fn probe_write(&self, id: CanId) -> (bool, u32) {
        self.shared.filter(DIR_WRITE, id)
    }

    /// The path compromised firmware would have to use: an unauthenticated
    /// reconfiguration request. It **always fails** and is counted.
    ///
    /// # Errors
    /// Always [`HpeError::TamperRejected`].
    pub fn firmware_attempt_reconfigure(&self) -> Result<(), HpeError> {
        self.shared.tamper_attempts.fetch_add(1, Ordering::Relaxed);
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

    /// The inline path: this handle's verdict cache first, the decision
    /// block on a miss, then this handle's lane. One atomic load (the
    /// generation) validates the cached verdicts; a configuration update
    /// bumps the generation, which wipes them here before any stale verdict
    /// can answer.
    fn lookup(&mut self, direction: u64, id: CanId) -> InterposeVerdict {
        let shared = &self.shared;
        let Inline { verdicts, lane } = self.inline.get_or_insert_with(|| shared.start_inline());
        let generation = shared.generation.load(Ordering::Acquire);
        if verdicts.generation != generation {
            verdicts.entries.fill((0, 0));
            verdicts.generation = generation;
        }
        let packed_id = (u64::from(id.raw()) << 2)
            | (u64::from(id.is_extended()) << 1)
            | direction;
        let key = packed_id + 1; // shift away from the empty-slot sentinel
        let slot = (packed_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
            & (LOCAL_VERDICT_SLOTS - 1);
        let e = verdicts.entries[slot];
        let (granted, cycles) = if e.0 == key {
            (e.1 & 1 == 1, (e.1 >> 1) as u32)
        } else {
            let (granted, cycles) = shared.filter(direction, id);
            verdicts.entries[slot] = (key, (u64::from(cycles) << 1) | u64::from(granted));
            (granted, cycles)
        };
        lane.account(direction, id, granted, cycles)
    }
}

impl Shared {
    /// Starts a new writer: a fresh verdict cache and a lane registered
    /// with the live list.
    fn start_inline(&self) -> Inline {
        let lane = Arc::new(Lane::default());
        lock(&self.lanes).live.push(Arc::clone(&lane));
        Inline {
            verdicts: LocalVerdicts {
                entries: vec![(0, 0); LOCAL_VERDICT_SLOTS].into_boxed_slice(),
                generation: self.generation.load(Ordering::Acquire),
            },
            lane,
        }
    }

    /// Sums the scalar counters of `lanes`, which the caller holds locked.
    fn totals(&self, lanes: &Lanes) -> HpeTotals {
        let mut t = HpeTotals {
            tamper_attempts: self.tamper_attempts.load(Ordering::Relaxed),
            ..HpeTotals::default()
        };
        for lane in lanes.iter() {
            lane.add_totals(&mut t);
        }
        t
    }

    fn read_config(&self) -> std::sync::RwLockReadGuard<'_, HpeConfig> {
        self.config.read().unwrap_or_else(|e| e.into_inner())
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
}

impl Interposer for HardwarePolicyEngine {
    fn on_ingress(&mut self, _now: SimTime, frame: &CanFrame) -> InterposeVerdict {
        self.lookup(DIR_READ, frame.id())
    }

    fn on_egress(&mut self, _now: SimTime, frame: &CanFrame) -> InterposeVerdict {
        self.lookup(DIR_WRITE, frame.id())
    }

    fn label(&self) -> &str {
        "hpe"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use polsec_core::dsl::parse_policy;
    use polsec_core::PolicyBundle;
    use polsec_can::{CanBus, CanId, CanNode};
    use std::collections::BTreeMap;

    const KEY: &[u8] = b"oem-hpe-key";

    fn sid(v: u32) -> CanId {
        CanId::standard(v).unwrap()
    }

    fn frame(id: u32) -> CanFrame {
        CanFrame::data(sid(id), &[0xEE]).unwrap()
    }

    /// The scalar part of a telemetry snapshot.
    fn scalars(t: &HpeTelemetry) -> HpeTotals {
        HpeTotals {
            read_granted: t.read_granted,
            read_blocked: t.read_blocked,
            write_granted: t.write_granted,
            write_blocked: t.write_blocked,
            tamper_attempts: t.tamper_attempts,
            total_cycles: t.total_cycles,
        }
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

    #[test]
    fn total_cycles_do_not_wrap_at_32_bits() {
        let mut hpe = engine_allowing(&[0x100], &[])
            .with_decision_block(DecisionBlock::new(CostModel::Parallel { cycles: u32::MAX }));
        for _ in 0..2 {
            assert_eq!(hpe.on_ingress(SimTime::ZERO, &frame(0x100)), InterposeVerdict::Grant);
        }
        let t = hpe.telemetry();
        assert_eq!(t.read_granted, 2);
        assert_eq!(t.total_cycles, 2 * u64::from(u32::MAX));
    }

    #[test]
    fn concurrent_inline_handles_sum_exactly() {
        const FRAMES: u32 = 20_000;
        // Two approved ids on each path; the rest are blocked.
        let hpe = engine_allowing(&[0x100, 0x101], &[0x300, 0x301]);
        let ids = [0x100, 0x101, 0x200, 0x201, 0x202, 0x300, 0x301];
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let workers: Vec<_> = (0..2u32)
            .map(|t| {
                let mut inline = hpe.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..FRAMES {
                        let f = frame(ids[((i + t) % ids.len() as u32) as usize]);
                        if i % 3 == 0 {
                            inline.on_egress(SimTime::ZERO, &f);
                        } else {
                            inline.on_ingress(SimTime::ZERO, &f);
                        }
                    }
                    inline
                })
            })
            .collect();
        // Keep both handles alive so the sum comes from two live lanes.
        let _handles: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        hpe.firmware_attempt_reconfigure().unwrap_err();

        let mut expected = HpeTelemetry::new();
        for t in 0..2u32 {
            for i in 0..FRAMES {
                let id = ids[((i + t) % ids.len() as u32) as usize];
                let write = i % 3 == 0;
                let (granted, cycles) = if write {
                    hpe.probe_write(sid(id))
                } else {
                    hpe.probe_read(sid(id))
                };
                match (write, granted) {
                    (false, true) => expected.read_granted += 1,
                    (false, false) => expected.read_blocked += 1,
                    (true, true) => expected.write_granted += 1,
                    (true, false) => expected.write_blocked += 1,
                }
                if !granted {
                    expected.note_block(id);
                }
                expected.total_cycles += u64::from(cycles);
            }
        }
        expected.tamper_attempts = 1;
        assert_eq!(hpe.totals(), scalars(&expected));
        assert_eq!(hpe.telemetry(), expected);
    }

    #[test]
    fn short_lived_inline_handles_retire_exactly() {
        const HANDLES: u64 = 10_000;
        let hpe = engine_allowing(&[0x100], &[]);
        let (_, grant_cycles) = hpe.probe_read(sid(0x100));
        let (_, block_cycles) = hpe.probe_read(sid(0x200));
        for i in 0..HANDLES {
            let mut inline = hpe.clone();
            let id = if i % 2 == 0 { 0x100 } else { 0x200 };
            inline.on_ingress(SimTime::ZERO, &frame(id));
        }
        let t = hpe.telemetry();
        assert_eq!((t.read_granted, t.read_blocked), (HANDLES / 2, HANDLES / 2));
        assert_eq!(
            t.total_cycles,
            HANDLES / 2 * u64::from(grant_cycles + block_cycles)
        );
        assert_eq!(t.blocked_by_id, BTreeMap::from([(0x200, HANDLES / 2)]));
        assert_eq!(hpe.totals(), scalars(&t), "retired lanes total alike");
        assert!(lock(&hpe.shared.lanes).live.is_empty(), "dropped handles unregister");
    }

    #[test]
    fn an_id_spray_keeps_the_block_table_bounded_and_exact() {
        const IDS: u32 = 10_000;
        let hpe = engine_allowing(&[], &[]);
        let mut inline = hpe.clone();
        for i in 0..IDS {
            let id = CanId::extended(0x100_0000 + i * 7).unwrap();
            inline.on_ingress(SimTime::ZERO, &CanFrame::data(id, &[0xEE]).unwrap());
        }
        let check = |t: HpeTelemetry| {
            assert_eq!(t.read_blocked, u64::from(IDS));
            assert!(t.blocked_by_id.len() <= BLOCKED_SLOTS);
            assert!(t.blocked_by_id.values().all(|&n| n == 1));
            assert_eq!(
                t.blocked_by_id.values().sum::<u64>() + t.blocked_other,
                t.read_blocked + t.write_blocked
            );
        };
        check(hpe.telemetry());
        // A dropped handle's lane folds into the retired totals as exactly.
        drop(inline);
        check(hpe.telemetry());
    }
}
