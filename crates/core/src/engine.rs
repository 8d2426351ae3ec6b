//! The policy evaluation engine.
//!
//! [`PolicyEngine`] evaluates [`AccessRequest`]s against a [`PolicySet`]
//! under a configurable [`CombiningStrategy`]:
//!
//! * **deny-overrides** (default): any applying deny rule denies; otherwise
//!   any applying allow rule allows; otherwise the set's default effect.
//!   This is the least-privilege composition the paper's approach implies.
//! * **first-match**: rules are consulted in declaration order; the first
//!   applying rule wins (firewall-style).
//! * **priority-order**: the applying rule with the highest priority wins;
//!   priority ties resolve to deny.
//!
//! # The decision fast path (DESIGN.md §6)
//!
//! `decide` takes `&self`, and on a cache hit performs **zero heap
//! allocations and takes zero contended locks**:
//!
//! * entity names, rule ids and modes are interned [`Symbol`]s, so no
//!   per-request strings exist and an entity's index key is its two
//!   symbol ids;
//! * a decide examines only the rules that can match its request. A rule
//!   is indexed under its exact subject when it has one, else under its
//!   exact object, else it is unindexed; a decide merges the request's
//!   subject bucket, its object bucket and the unindexed rules in rule
//!   order without allocating. Both indexes hash their keys with one
//!   multiply: only the signed policy inserts keys, so flooding
//!   resistance would buy nothing;
//! * rate windows are per-key atomic bucket rings in one table, one set
//!   per rate scope (the unscoped windows are one more scope), read only
//!   when the walk evaluates a [`crate::Condition::RateAtMost`]. Only the
//!   keys the loaded policies declare have windows, and a reload carries
//!   every scope's windows over by key;
//! * the audit trail is one lane per deciding thread. A thread takes a
//!   slot no other live thread holds on its first decide and gives it
//!   back when it exits; the engine's lane for that slot holds a ring of
//!   five-word records and the seven statistics, and only the slot's
//!   thread writes it, with Relaxed loads and stores. A decide's one
//!   locked operation is the `seq` fetch-add that orders records across
//!   lanes. A lane reserves its whole ring on its first record, so
//!   records never reallocate and a lane no thread decides on owns no
//!   ring. [`PolicyEngine::with_audit`] merges the lanes without a lock,
//!   dropping any record the writer began to overwrite while it was read,
//!   and [`PolicyEngine::stats`] sums them;
//! * decisions themselves are cached in a generation-tagged lock-free
//!   `GenCache` keyed by `(subject, object, action, mode)`;
//!   [`PolicyEngine::reload`] moves to the next generation and carries
//!   into it every entry that no rule of a changed policy matches, so an
//!   entry the update could change never answers again, and erases the
//!   cache when the key's generation tag wraps. A decide probes the cache
//!   first and walks rules only on a miss. Cacheability is decided per
//!   request, during the walk: the decision is cached unless a rule whose
//!   actions, subject and object all match the request has a condition
//!   that reads state or rates. That is exact: when the walk meets no
//!   such rule, every rule it examined either misses the key or reads the
//!   mode alone, so any context with the same key walks the same way,
//!   exits early at the same rule, and never reaches the rules after it.
//!
//! [`Decision`]s are `Copy` and build their human-readable reason string
//! lazily, on demand.

use crate::action::Action;
use crate::audit::{AuditRecord, DEFAULT_CAPACITY};
use crate::bundle::SignedBundle;
use crate::cache::{tag_bits, GenCache, KEY_VALID, TAG_MASK as GENERATION_TAG_MASK};
use crate::condition::RateSource;
use crate::entity::EntityId;
use crate::error::PolicyError;
use crate::intern::Symbol;
use crate::policy::{Effect, PolicySet, Rule};
use crate::request::{AccessRequest, EvalContext};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// How applying rules combine into one decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CombiningStrategy {
    /// Deny if any applying rule denies (least privilege). The default.
    #[default]
    DenyOverrides,
    /// First applying rule in declaration order wins.
    FirstMatch,
    /// Highest-priority applying rule wins; ties resolve to deny.
    PriorityOrder,
}

impl fmt::Display for CombiningStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CombiningStrategy::DenyOverrides => "deny-overrides",
            CombiningStrategy::FirstMatch => "first-match",
            CombiningStrategy::PriorityOrder => "priority-order",
        };
        f.write_str(s)
    }
}

/// Why a decision came out the way it did (reason text is derived lazily).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReasonKind {
    Default,
    FirstMatch,
    DenyOverrides,
    AllowNoDeny,
    Priority(i32),
}

/// The engine's answer for one request.
///
/// Decisions are `Copy`: the determining rule is referenced by its interned
/// `policy.rule` name and the explanation string is built on demand by
/// [`Decision::reason`], not allocated per decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    effect: Effect,
    rule: Option<RuleTag>,
    kind: ReasonKind,
}

/// The determining rule: its interned `policy.rule` name and rule id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RuleTag {
    qualified: Symbol,
    id: Symbol,
}

impl Decision {
    /// The decided effect.
    pub fn effect(&self) -> Effect {
        self.effect
    }

    /// Whether access was allowed.
    pub fn is_allow(&self) -> bool {
        self.effect == Effect::Allow
    }

    /// The determining rule as `policy.rule`, or `None` for a default
    /// decision.
    pub fn rule(&self) -> Option<&'static str> {
        self.rule.map(|t| t.qualified.as_str())
    }

    /// Human-readable explanation, built on demand.
    pub fn reason(&self) -> String {
        match (self.kind, self.rule) {
            (ReasonKind::Default, _) => {
                format!("no rule applies; default {}", self.effect)
            }
            (ReasonKind::FirstMatch, Some(t)) => format!("first matching rule {}", t.id),
            (ReasonKind::DenyOverrides, Some(t)) => {
                format!("deny-overrides: rule {} denies", t.id)
            }
            (ReasonKind::AllowNoDeny, Some(t)) => {
                format!("allowed by rule {}, no deny applies", t.id)
            }
            (ReasonKind::Priority(p), Some(t)) => format!("priority {p} rule {}", t.qualified),
            // A rule-kind without a tag cannot be constructed by the engine.
            (_, None) => format!("{}", self.effect),
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.effect, self.reason())
    }
}

/// Window length for rate conditions, in microseconds.
const RATE_WINDOW_US: u64 = 1_000_000;
/// Ring granularity: 16 buckets of 62.5 ms cover the 1-second window.
const RATE_BUCKETS: usize = 16;
const RATE_BUCKET_US: u64 = RATE_WINDOW_US / RATE_BUCKETS as u64;

/// A lock-free sliding-window counter: a ring of `(epoch, count)` pairs
/// packed into `AtomicU64`s. `observe` and `count` are wait-free apart
/// from a CAS retry under contention on the same bucket.
#[derive(Debug, Default)]
struct AtomicWindow {
    buckets: [AtomicU64; RATE_BUCKETS],
}

impl AtomicWindow {
    fn observe(&self, now_us: u64) {
        let epoch = (now_us / RATE_BUCKET_US) as u32;
        let slot = &self.buckets[epoch as usize % RATE_BUCKETS];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let slot_epoch = (cur >> 32) as u32;
            let next = if slot_epoch == epoch {
                cur + 1 // same epoch: bump the count half
            } else if slot_epoch < epoch {
                (u64::from(epoch) << 32) | 1 // stale bucket: restart it
            } else {
                // A late event, a whole ring older than the slot's counts:
                // it has left every window those counts are read in.
                return;
            };
            match slot.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn count(&self, now_us: u64) -> u64 {
        let epoch = (now_us / RATE_BUCKET_US) as u32;
        let oldest = epoch.saturating_sub(RATE_BUCKETS as u32 - 1);
        self.buckets
            .iter()
            .map(|b| {
                let v = b.load(Ordering::Acquire);
                let e = (v >> 32) as u32;
                if (oldest..=epoch).contains(&e) {
                    v & 0xFFFF_FFFF
                } else {
                    0
                }
            })
            .sum()
    }
}

/// The rate windows behind `rate(...)` conditions: for each scope, one
/// window per key the loaded policies declare. Scope `None` holds the
/// unscoped windows; `Some(id)` is one tenant of a shared engine (a
/// vehicle of a fleet run), so tenants never couple through a window. A
/// scope gets its windows on its first observation.
#[derive(Debug, Default)]
struct RateTable {
    declared: HashMap<Symbol, usize>,
    scopes: RwLock<HashMap<Option<u64>, Box<[AtomicWindow]>>>,
}

impl RateTable {
    /// The window slot of a declared key. `try_get`, never intern: an
    /// undeclared key must not leak an interner entry.
    fn slot(&self, key: &str) -> Option<usize> {
        Symbol::try_get(key).and_then(|s| self.declared.get(&s).copied())
    }

    /// Counts one event. An undeclared key is dropped: no loaded rule
    /// reads it.
    fn observe(&self, scope: Option<u64>, key: &str, now_us: u64) {
        let Some(i) = self.slot(key) else { return };
        if let Some(windows) = read(&self.scopes).get(&scope) {
            windows[i].observe(now_us);
            return;
        }
        let mut scopes = write(&self.scopes);
        let windows = scopes
            .entry(scope)
            .or_insert_with(|| empty_windows(self.declared.len()));
        windows[i].observe(now_us);
    }

    /// The events in `key`'s window of `scope`; 0 for a scope that has
    /// observed nothing.
    fn rate(&self, scope: Option<u64>, key: &str, now_us: u64) -> f64 {
        let Some(i) = self.slot(key) else { return 0.0 };
        read(&self.scopes)
            .get(&scope)
            .map_or(0.0, |windows| windows[i].count(now_us) as f64)
    }

    /// Declares `keys`. Every scope keeps the window of each key that
    /// stays declared; a newly declared key starts from zero.
    fn rebuild(&mut self, keys: impl Iterator<Item = Symbol>) {
        let old = std::mem::replace(&mut self.declared, keys.zip(0..).collect());
        let scopes = self.scopes.get_mut().unwrap_or_else(|e| e.into_inner());
        for windows in scopes.values_mut() {
            let mut kept = empty_windows(self.declared.len());
            for (sym, &i) in &self.declared {
                if let Some(&was) = old.get(sym) {
                    kept[i] = std::mem::take(&mut windows[was]);
                }
            }
            *windows = kept;
        }
    }
}

fn empty_windows(n: usize) -> Box<[AtomicWindow]> {
    (0..n).map(|_| AtomicWindow::default()).collect()
}

/// The live rates one decide reads: its context's scope of the table.
/// `rebuild` declares every key a loaded rule names, so no lookup misses.
struct LiveRates<'a> {
    table: &'a RateTable,
    scope: Option<u64>,
    now_us: u64,
}

impl RateSource for LiveRates<'_> {
    fn rate_per_sec(&self, key: &str) -> f64 {
        self.table.rate(self.scope, key, self.now_us)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Evaluation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total decisions taken.
    pub decisions: u64,
    /// Of which allows.
    pub allows: u64,
    /// Of which denies.
    pub denies: u64,
    /// Decisions that fell through to the default effect.
    pub defaults: u64,
    /// Rules examined across all decisions (index effectiveness metric).
    pub rules_examined: u64,
    /// Decisions answered from the decision cache.
    pub cache_hits: u64,
    /// Cacheable decisions that had to evaluate rules.
    pub cache_misses: u64,
}

/// How one decision used the decision cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheUse {
    Hit,
    Miss,
    /// Not cacheable (or caching off): counts as neither hit nor miss.
    Bypass,
}

impl EngineStats {
    /// The counters as `(name, value)` pairs, for uniform export into
    /// metric sets and reports.
    pub fn as_pairs(&self) -> [(&'static str, u64); 7] {
        [
            ("decisions", self.decisions),
            ("allows", self.allows),
            ("denies", self.denies),
            ("defaults", self.defaults),
            ("rules_examined", self.rules_examined),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
        ]
    }
}

/// Adds `delta` to a counter that only one thread writes: a Relaxed load
/// and store, which compile to plain moves, not a locked read-modify-write.
#[inline]
fn add(counter: &AtomicU64, delta: u64) {
    counter.store(counter.load(Ordering::Relaxed).wrapping_add(delta), Ordering::Relaxed);
}

/// The audit slots of live deciding threads. A thread takes the lowest
/// free slot on its first decide, on any engine, and its [`SLOT`] guard
/// gives it back when the thread exits, so no two live threads hold one
/// slot and slots stay below the peak count of live deciding threads.
struct SlotRegistry {
    next: usize,
    free: BinaryHeap<Reverse<usize>>,
}

static SLOTS: Mutex<SlotRegistry> = Mutex::new(SlotRegistry { next: 0, free: BinaryHeap::new() });

/// A held audit slot; dropping it frees the slot.
struct SlotGuard(usize);

impl SlotGuard {
    fn take() -> SlotGuard {
        let mut slots = lock(&SLOTS);
        let slot = match slots.free.pop() {
            Some(Reverse(slot)) => slot,
            None => {
                slots.next += 1;
                slots.next - 1
            }
        };
        SlotGuard(slot)
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        lock(&SLOTS).free.push(Reverse(self.0));
    }
}

thread_local! {
    /// This thread's audit slot, taken on its first decide.
    static SLOT: SlotGuard = SlotGuard::take();
}

/// Words per audit record: seq, time, subject key, object key and the
/// packed verdict (see [`pack_verdict`]).
const RECORD_WORDS: usize = 5;

/// Lanes built with every engine. Bucket `b` of the lane table holds
/// `FIRST_LANES << b` lanes, so bucket 0 serves the first eight slots.
const FIRST_LANES: usize = 8;

/// Lane-table buckets: room for 8 × (2^20 − 1), about 8.4 million, live
/// deciding threads, twice the 2^22 tasks a Linux system can run at once.
const LANE_BUCKETS: usize = 20;

/// The lane-table bucket and index of `slot`.
fn locate_lane(slot: usize) -> (usize, usize) {
    let adjusted = slot + FIRST_LANES;
    let bucket = (adjusted.ilog2() - FIRST_LANES.ilog2()) as usize;
    (bucket, adjusted - (FIRST_LANES << bucket))
}

/// One slot's audit lane: its ring of records and the statistics of the
/// decisions it recorded. Only the thread holding the slot writes it, with
/// Relaxed stores (a counter as `store(load + x)`), so a decide runs no
/// locked operation here; `with_audit` and `stats()` read it without a
/// lock. Aligned so that two threads' lanes never share a cache line.
#[derive(Default)]
#[repr(align(128))]
struct Lane {
    /// `RECORD_WORDS` words per record, reserved on the lane's first record.
    ring: OnceLock<Box<[AtomicU64]>>,
    /// Records the writer has begun. Stored before a record's words, it
    /// tells a reader which records it read while their slot was being
    /// overwritten.
    started: AtomicU64,
    /// Decisions recorded, which is also the count of finished records:
    /// stored last, with Release, it publishes the record just written.
    decisions: AtomicU64,
    allows: AtomicU64,
    denies: AtomicU64,
    defaults: AtomicU64,
    rules_examined: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl Lane {
    /// Writes one record and counts its decision; only the slot's holder
    /// calls this.
    #[inline]
    fn record(
        &self,
        capacity: usize,
        words: [u64; RECORD_WORDS],
        decision: &Decision,
        examined: u64,
        cache: CacheUse,
    ) {
        // One zeroed allocation: fresh pages from the system are written
        // only as records land on them (recycled memory is cleared first).
        let ring = self.ring.get_or_init(|| {
            vec![0u64; capacity * RECORD_WORDS].into_iter().map(AtomicU64::new).collect()
        });
        let n = self.decisions.load(Ordering::Relaxed);
        self.started.store(n + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let at = (n as usize & (capacity - 1)) * RECORD_WORDS;
        for (word, value) in ring[at..at + RECORD_WORDS].iter().zip(words) {
            word.store(value, Ordering::Relaxed);
        }
        match decision.effect {
            Effect::Allow => add(&self.allows, 1),
            Effect::Deny => add(&self.denies, 1),
        }
        add(&self.defaults, u64::from(decision.rule.is_none()));
        add(&self.rules_examined, examined);
        add(&self.cache_hits, u64::from(cache == CacheUse::Hit));
        add(&self.cache_misses, u64::from(cache == CacheUse::Miss));
        self.decisions.store(n + 1, Ordering::Release);
    }

    /// Appends the lane's newest records, at most `capacity`, to `out`,
    /// less any whose slot the writer began to overwrite while it was read.
    fn read_into(&self, capacity: usize, out: &mut Vec<AuditRecord>) {
        let Some(ring) = self.ring.get() else { return };
        let written = self.decisions.load(Ordering::Acquire);
        let first = written.saturating_sub(capacity as u64);
        let start = out.len();
        // Each word is atomic, so even a record read mid-overwrite unpacks
        // to valid handles; the check below drops it.
        out.extend((first..written).map(|i| {
            let at = (i as usize & (capacity - 1)) * RECORD_WORDS;
            unpack_record(std::array::from_fn(|w| ring[at + w].load(Ordering::Relaxed)))
        }));
        // Pairs with the writer's Release fence: a word of a later record
        // read above implies that record's `started` store is seen here.
        fence(Ordering::Acquire);
        let intact_from = self.started.load(Ordering::Relaxed).saturating_sub(capacity as u64);
        let overwritten = intact_from.saturating_sub(first).min(written - first);
        out.drain(start..start + overwritten as usize);
    }

    fn add_to(&self, total: &mut EngineStats) {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        total.decisions += get(&self.decisions);
        total.allows += get(&self.allows);
        total.denies += get(&self.denies);
        total.defaults += get(&self.defaults);
        total.rules_examined += get(&self.rules_examined);
        total.cache_hits += get(&self.cache_hits);
        total.cache_misses += get(&self.cache_misses);
    }
}

/// The fifth record word: the rule's `policy.rule` symbol in the high
/// half, then whether there is one, the effect and the action.
fn pack_verdict(action: Action, decision: &Decision) -> u64 {
    let rule = decision.rule.map_or(0, |t| u64::from(t.qualified.as_u32()) << 32 | 1 << 9);
    rule | u64::from(decision.effect == Effect::Deny) << 8 | action as u64
}

fn unpack_record([seq, time_us, subject, object, verdict]: [u64; RECORD_WORDS]) -> AuditRecord {
    AuditRecord {
        seq,
        time_us,
        request: AccessRequest::new(
            entity_of_key(subject),
            entity_of_key(object),
            Action::ALL[(verdict & 0xFF) as usize],
        ),
        effect: if verdict >> 8 & 1 == 1 { Effect::Deny } else { Effect::Allow },
        rule: (verdict >> 9 & 1 == 1).then(|| Symbol::from_u32((verdict >> 32) as u32).as_str()),
    }
}

/// The audit trail: one lane per slot, so a decide records without a
/// lock, and the one `seq` that orders records across lanes. Each lane
/// keeps the newest `capacity` records, so a one-thread engine, which
/// writes one lane, still keeps `capacity`. The first eight lanes are
/// built with the engine and later buckets on a first decide from a slot
/// they hold. A lane reserves its ring on its first record, so later
/// records never allocate and an engine that never decides (a
/// validator's, or one about to be replaced) owns no ring at all.
struct AuditSink {
    lanes: [OnceLock<Box<[Lane]>>; LANE_BUCKETS],
    /// A power of two, so a record's ring position is a mask.
    capacity: usize,
    /// Orders records across lanes.
    seq: SeqCounter,
}

/// The `seq` counter on a cache line of its own: every decide's fetch-add
/// takes the line from the other deciding threads, which must not lose
/// the fields they only read along with it.
#[derive(Default)]
#[repr(align(128))]
struct SeqCounter(AtomicU64);

impl AuditSink {
    fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "audit capacity {capacity}");
        let sink = AuditSink {
            lanes: [const { OnceLock::new() }; LANE_BUCKETS],
            capacity,
            seq: SeqCounter::default(),
        };
        sink.lane(0);
        sink
    }

    /// The lane of `slot`, building its bucket on first use.
    #[inline]
    fn lane(&self, slot: usize) -> &Lane {
        let (bucket, i) = locate_lane(slot);
        &self.lanes[bucket]
            .get_or_init(|| (0..FIRST_LANES << bucket).map(|_| Lane::default()).collect())[i]
    }

    fn built_lanes(&self) -> impl Iterator<Item = &Lane> {
        self.lanes.iter().filter_map(OnceLock::get).flat_map(|bucket| bucket.iter())
    }

    /// Records one decision in this thread's lane. The `seq` fetch-add is
    /// the record's one locked operation.
    #[inline]
    fn record(
        &self,
        time_us: u64,
        request: AccessRequest,
        decision: Decision,
        examined: u64,
        cache: CacheUse,
    ) {
        let seq = self.seq.0.fetch_add(1, Ordering::Relaxed);
        let (s, o) = (request.subject(), request.object());
        let words = [
            seq,
            time_us,
            entity_key(s.namespace_symbol(), s.name_symbol()),
            entity_key(o.namespace_symbol(), o.name_symbol()),
            pack_verdict(request.action(), &decision),
        ];
        let write = |slot: usize| {
            self.lane(slot).record(self.capacity, words, &decision, examined, cache);
        };
        if SLOT.try_with(|held| write(held.0)).is_err() {
            // A decide from a thread-local destructor that runs after this
            // thread's guard: hold a free slot for this one record.
            write(SlotGuard::take().0);
        }
    }

    fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for lane in self.built_lanes() {
            lane.add_to(&mut total);
        }
        total
    }

    /// The newest `capacity` records of all lanes, oldest first.
    fn merged(&self) -> Vec<AuditRecord> {
        let mut all = Vec::new();
        for lane in self.built_lanes() {
            lane.read_into(self.capacity, &mut all);
        }
        all.sort_unstable_by_key(|r| r.seq);
        all.drain(..all.len().saturating_sub(self.capacity));
        all
    }
}

/// A rule compiled for evaluation: the rule plus its pre-interned
/// `policy.rule` name and condition analysis.
#[derive(Debug)]
struct CompiledRule {
    rule: Rule,
    tag: RuleTag,
    cache_safe: bool,
}

/// One rule's verdict from the engine's load-time cacheability analysis,
/// as exposed by [`PolicyEngine::rule_cacheability`]. External analyses
/// (e.g. `polsec-analyze`) recompute cacheability independently and treat
/// any disagreement with this report as a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleCacheability {
    /// The interned `policy.rule` qualified name.
    pub qualified: &'static str,
    /// The rule's own id within its policy.
    pub rule_id: &'static str,
    /// Whether decisions gated by this rule's condition may be served from
    /// the `(subject, object, action, mode)` decision cache.
    pub cache_safe: bool,
}

/// What a decide's rule walk saw besides its outcome.
struct Walk {
    examined: u64,
    /// Whether no state or rate can change the outcome: see
    /// [`Walk::applies`].
    cacheable: bool,
}

impl Walk {
    /// Examines one rule: whether it applies to `req`. A rule whose
    /// actions, subject and object all match `req` but whose condition
    /// reads state or rates makes the decision uncacheable, whatever the
    /// condition evaluates to now: another context with the same cache key
    /// may evaluate it the other way.
    #[inline]
    fn applies(
        &mut self,
        compiled: &CompiledRule,
        req: &AccessRequest,
        ctx: &EvalContext,
        rates: &dyn RateSource,
    ) -> bool {
        self.examined += 1;
        if !compiled.rule.matches(req) {
            return false;
        }
        self.cacheable &= compiled.cache_safe;
        compiled.rule.condition().eval(ctx, rates)
    }
}

/// Hashes a rule-index key, an entity's two symbol ids packed by
/// [`entity_key`], with one multiply and a rotate that brings the mixed
/// high bits down to where the table takes its slot. Only the signed
/// policy inserts keys and a request only probes, so SipHash's flooding
/// resistance would buy nothing here.
#[derive(Default)]
struct EntityKeyHasher(u64);

impl Hasher for EntityKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Rule indices in rule order, keyed by one exact side of the rule.
type RuleIndex = HashMap<u64, Vec<u32>, BuildHasherDefault<EntityKeyHasher>>;

/// An entity's index and cache key: its namespace and name symbols.
#[inline]
fn entity_key(namespace: Symbol, name: Symbol) -> u64 {
    (u64::from(namespace.as_u32()) << 32) | u64::from(name.as_u32())
}

/// The entity of an [`entity_key`].
fn entity_of_key(key: u64) -> EntityId {
    EntityId::from_symbols(Symbol::from_u32((key >> 32) as u32), Symbol::from_u32(key as u32))
}

/// The rules indexed under `key`, or none.
#[inline]
fn bucket(index: &RuleIndex, key: u64) -> &[u32] {
    index.get(&key).map_or(&[], Vec::as_slice)
}

/// How [`PolicyEngine::load_bundle`] treats the incoming policy set.
pub enum LoadMode<'a> {
    /// Verify the signature and apply.
    Permissive,
    /// Additionally run a static validator over the verified policy set;
    /// an `Err` vetoes the load. The validator receives the would-be
    /// policy set and returns its findings rendered as text.
    Strict(&'a dyn Fn(&PolicySet) -> Result<(), String>),
}

impl fmt::Debug for LoadMode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadMode::Permissive => f.write_str("Permissive"),
            LoadMode::Strict(_) => f.write_str("Strict(..)"),
        }
    }
}

/// Default decision-cache capacity (slots).
const DECISION_CACHE_SLOTS: usize = 8_192;

/// Audit capacity for [`PolicyEngine::compact`] engines: enough for the
/// per-device decision tails the V2X scenarios inspect.
const COMPACT_AUDIT_CAPACITY: usize = 64;

/// Decision-cache slots for [`PolicyEngine::compact`] engines (the cache
/// floors this at its 64-slot minimum).
const COMPACT_CACHE_SLOTS: usize = 256;

/// The most changed rules a reload carries cached decisions across. Its
/// walk tests each cached entry against every changed rule, so this bounds
/// the walk at 64 tests an entry; a larger update retires the whole cache.
const MAX_CHANGED_RULES: usize = 64;

/// The outcome of combining, before rendering into a `Decision`.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Default,
    FirstMatch(u32),
    DenyOverrides(u32),
    AllowNoDeny(u32),
    Priority(u32),
}

const KIND_DEFAULT: u64 = 0;
const KIND_FIRST_MATCH: u64 = 1;
const KIND_DENY_OVERRIDES: u64 = 2;
const KIND_ALLOW_NO_DENY: u64 = 3;
const KIND_PRIORITY: u64 = 4;

/// The policy evaluation engine. See the module docs for semantics and for
/// the fast-path design.
///
/// # Quickstart
///
/// ```
/// use polsec_core::{AccessRequest, Action, Effect, EntityId, EvalContext, PolicyEngine};
/// use polsec_core::dsl::parse_policy;
///
/// let policy = parse_policy(r#"
///     policy "doors" version 1 {
///         default deny;
///         allow write on asset:door-locks from entry:manual;
///         deny write on asset:door-locks from entry:telematics when mode == normal;
///     }
/// "#)?;
/// let engine = PolicyEngine::from_policy(policy);
///
/// let ctx = EvalContext::new().with_mode("normal");
/// let manual = AccessRequest::new(
///     EntityId::new("entry", "manual"),
///     EntityId::new("asset", "door-locks"),
///     Action::Write,
/// );
/// assert_eq!(engine.decide(&manual, &ctx).effect(), Effect::Allow);
///
/// let remote = AccessRequest::new(
///     EntityId::new("entry", "telematics"),
///     EntityId::new("asset", "door-locks"),
///     Action::Write,
/// );
/// let verdict = engine.decide(&remote, &ctx);
/// assert_eq!(verdict.effect(), Effect::Deny);
/// println!("{}", verdict.reason()); // names the rule that fired
/// # Ok::<(), polsec_core::PolicyError>(())
/// ```
pub struct PolicyEngine {
    rules: Vec<CompiledRule>,
    default_effect: Effect,
    strategy: CombiningStrategy,
    indexing: bool,
    caching: bool,
    // rules with an exact subject, keyed by it
    subject_index: RuleIndex,
    // rules with an exact object but no exact subject, keyed by the object
    object_index: RuleIndex,
    // rules with neither: candidates for every request
    unindexed: Vec<u32>,
    rates: RateTable,
    audit: AuditSink,
    cache: GenCache,
    generation: u32,
    set: PolicySet,
}

impl fmt::Debug for PolicyEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyEngine")
            .field("rules", &self.rules.len())
            .field("strategy", &self.strategy)
            .field("default_effect", &self.default_effect)
            .field("indexing", &self.indexing)
            .field("caching", &self.caching)
            .field("generation", &self.generation)
            .finish()
    }
}

impl PolicyEngine {
    /// Creates an engine over a policy set with the default strategy
    /// (deny-overrides), indexing and decision caching enabled, sized for a
    /// shared, service-scale deployment ([`DEFAULT_CAPACITY`] audit records
    /// per lane, `DECISION_CACHE_SLOTS` (8192) cache slots). The cache
    /// (~320 KB) is initialised here; an audit lane reserves its ring
    /// (~655 KB) on its first record, so only the lanes of deciding
    /// threads cost memory.
    ///
    /// [`DEFAULT_CAPACITY`]: crate::audit::DEFAULT_CAPACITY
    pub fn new(set: PolicySet) -> Self {
        PolicyEngine::with_footprint(set, DEFAULT_CAPACITY, DECISION_CACHE_SLOTS)
    }

    /// The shared base of [`PolicyEngine::new`] and
    /// [`PolicyEngine::compact`]. `cache_slots` is rounded up to a power of
    /// two with a floor of 64 by the cache itself.
    fn with_footprint(set: PolicySet, audit_capacity: usize, cache_slots: usize) -> Self {
        let mut engine = PolicyEngine {
            rules: Vec::new(),
            default_effect: set.default_effect(),
            strategy: CombiningStrategy::default(),
            indexing: true,
            caching: true,
            subject_index: RuleIndex::default(),
            object_index: RuleIndex::default(),
            unindexed: Vec::new(),
            rates: RateTable::default(),
            audit: AuditSink::new(audit_capacity),
            cache: GenCache::with_capacity(cache_slots),
            generation: 0,
            set,
        };
        engine.rebuild();
        engine
    }

    /// Creates a per-device engine: identical decisions and rule table to
    /// [`PolicyEngine::new`], but a 256-slot cache (~10 KB) and 64-record
    /// audit rings. Use for simulations that construct an engine per
    /// vehicle (and rebuild on OTA policy swaps), and for engines built
    /// only to read their load-time analysis (the strict-load validator's
    /// cacheability cross-check).
    pub fn compact(set: PolicySet) -> Self {
        PolicyEngine::with_footprint(set, COMPACT_AUDIT_CAPACITY, COMPACT_CACHE_SLOTS)
    }

    /// Creates an engine from a single policy.
    pub fn from_policy(p: crate::policy::Policy) -> Self {
        PolicyEngine::new(PolicySet::from_policy(p))
    }

    /// Sets the combining strategy (builder style). A new strategy retires
    /// every cached decision: it may combine the same rules into another
    /// outcome.
    pub fn with_strategy(mut self, s: CombiningStrategy) -> Self {
        if s != self.strategy {
            self.strategy = s;
            self.next_generation();
        }
        self
    }

    /// Enables or disables the subject and object indexes (for the E4
    /// ablation). Without them a decide walks every rule, and caches
    /// exactly the decisions the indexed walk caches.
    pub fn with_indexing(mut self, enabled: bool) -> Self {
        self.indexing = enabled;
        self
    }

    /// Enables or disables the decision cache (for equivalence testing and
    /// ablation; enabled by default).
    pub fn with_caching(mut self, enabled: bool) -> Self {
        self.caching = enabled;
        self
    }

    /// The active combining strategy.
    pub fn strategy(&self) -> CombiningStrategy {
        self.strategy
    }

    /// The policy set the engine evaluates.
    pub fn policy_set(&self) -> &PolicySet {
        &self.set
    }

    /// The decision-cache generation, raised by one by every
    /// [`PolicyEngine::reload`] and by a strategy change. Only the cached
    /// decisions a reload carries over answer in the new generation; an
    /// entry cached under an earlier policy that the update could change
    /// never answers again.
    pub fn cache_generation(&self) -> u32 {
        self.generation
    }

    /// Replaces the policy set (a policy update taking effect), rebuilds
    /// indexes and moves the decision cache to the next generation.
    /// Audit history and statistics are preserved, and so are the rate
    /// windows of every scope, by key: a key the new set still declares
    /// keeps its counts, and a key it drops is forgotten, so it starts
    /// from zero if a later set declares it again.
    ///
    /// The new generation keeps every cached decision the update cannot
    /// change. The outgoing and incoming policies are aligned in order: a
    /// policy is unchanged when an equal one (name, version, default and
    /// rules) follows the unchanged policies before it, and every rule of
    /// any other policy, outgoing or incoming, is a changed rule. One walk
    /// of the cache retags in place each entry whose request no changed
    /// rule matches, pointing it at its rule's place in the new set. Such
    /// an entry is sound: the rules that match its request are the same
    /// rules in the same order, and the mode, the strategy and the default
    /// effect are the same, so a walk would reach the same outcome.
    /// Conditions are not read: a changed rule that matches sends the
    /// request back to be decided, whatever its condition. The new
    /// generation starts empty instead when the combined default effect
    /// changes, when more than 64 rules changed, or when the generation
    /// tag wraps (every 2^20 generations, which erases the slots).
    pub fn reload(&mut self, set: PolicySet) {
        let outgoing = std::mem::replace(&mut self.set, set);
        let default_before =
            std::mem::replace(&mut self.default_effect, self.set.default_effect());
        self.rebuild();
        let Some(from) = self.next_generation() else { return };
        if self.default_effect != default_before {
            return;
        }
        if let Some(changes) = Changes::between(&outgoing, &self.set) {
            self.cache
                .retag(from, self.generation, |key, packed| changes.carry(key, packed));
        }
    }

    /// Moves the cache to the next generation, under whose tag nothing is
    /// cached, and returns the outgoing generation. Returns `None` when
    /// the new tag wrapped to 0: it was last used 2^20 generations ago,
    /// so the slots are erased before an old entry could match again.
    fn next_generation(&mut self) -> Option<u32> {
        let outgoing = self.generation;
        self.generation = self.generation.wrapping_add(1);
        if self.generation & GENERATION_TAG_MASK == 0 {
            self.cache.clear();
            return None;
        }
        Some(outgoing)
    }

    /// Verifies a signed bundle against `key` and, on success, reloads the
    /// engine with the bundle's policies (see [`PolicyEngine::reload`]).
    /// Returns the applied bundle version.
    ///
    /// With [`LoadMode::Strict`] the supplied validator — typically
    /// `polsec-analyze`'s Layer-1 linter — runs over the incoming policy
    /// set *before* the swap; a validator error aborts the load with
    /// [`PolicyError::AnalysisRejected`] and the engine keeps its current
    /// policies, indexes and cache generation untouched.
    ///
    /// # Errors
    /// [`PolicyError::BadSignature`] / [`PolicyError::MalformedBundle`] on
    /// verification failure, [`PolicyError::AnalysisRejected`] on a strict
    /// validator veto.
    pub fn load_bundle(
        &mut self,
        bundle: &SignedBundle,
        key: &[u8],
        mode: LoadMode<'_>,
    ) -> Result<u64, PolicyError> {
        let bundle = bundle.verify(key)?;
        let set: PolicySet = bundle.policies.into_iter().collect();
        if let LoadMode::Strict(validator) = mode {
            if let Err(detail) = validator(&set) {
                return Err(PolicyError::AnalysisRejected { detail });
            }
        }
        self.reload(set);
        Ok(bundle.version)
    }

    /// The engine's load-time cacheability analysis, per rule, in policy
    /// set order. See [`RuleCacheability`].
    pub fn rule_cacheability(&self) -> Vec<RuleCacheability> {
        self.rules
            .iter()
            .map(|r| RuleCacheability {
                qualified: r.tag.qualified.as_str(),
                rule_id: r.tag.id.as_str(),
                cache_safe: r.cache_safe,
            })
            .collect()
    }

    fn rebuild(&mut self) {
        self.rules.clear();
        self.rules.reserve(self.set.rule_count());
        self.subject_index.clear();
        self.object_index.clear();
        self.unindexed.clear();
        let mut qualified = String::new();
        for (owner, rule) in self.set.rules() {
            let idx = self.rules.len() as u32;
            if let Some((ns, name)) = rule.subject().exact_key_symbols() {
                self.subject_index.entry(entity_key(ns, name)).or_default().push(idx);
            } else if let Some((ns, name)) = rule.object().exact_key_symbols() {
                self.object_index.entry(entity_key(ns, name)).or_default().push(idx);
            } else {
                self.unindexed.push(idx);
            }
            qualified.clear();
            qualified.push_str(owner);
            qualified.push('.');
            qualified.push_str(rule.id());
            self.rules.push(CompiledRule {
                tag: RuleTag { qualified: Symbol::intern(&qualified), id: rule.id_symbol() },
                rule: rule.clone(),
                cache_safe: rule.condition().is_cache_safe(),
            });
        }
        self.rates
            .rebuild(self.set.rate_keys().iter().map(|k| Symbol::intern(k)));
    }

    /// Total number of rules loaded.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Notes an event for a rate key at `now_us` (drives `RateAtMost`
    /// conditions). Call once per observed event (e.g. per frame).
    ///
    /// `scope` picks an independent set of per-key windows, so tenants of
    /// one shared engine (e.g. the vehicles of a fleet simulation) get
    /// fully independent rate tracking: a decide under an [`EvalContext`]
    /// carrying the same scope ([`EvalContext::with_rate_scope`]) reads
    /// them, and `None` names the unscoped windows that a context without
    /// a scope reads. [`PolicyEngine::reload`] carries every scope's
    /// windows over.
    ///
    /// An event for a key the loaded policies do not declare is dropped: no
    /// decision reads it, and it allocates nothing. An event more than a
    /// window older than the newest one counted in its bucket is dropped
    /// too, so a late event cannot erase newer counts.
    pub fn observe_rate_event(&self, scope: Option<u64>, key: &str, now_us: u64) {
        self.rates.observe(scope, key, now_us);
    }

    /// Decides a request at time 0.
    pub fn decide(&self, req: &AccessRequest, ctx: &EvalContext) -> Decision {
        self.decide_at(req, ctx, 0)
    }

    /// Decides a request at an explicit time (microseconds), which both
    /// timestamps the audit record and positions the rate windows.
    pub fn decide_at(&self, req: &AccessRequest, ctx: &EvalContext, now_us: u64) -> Decision {
        // Entries are inserted only for decisions no state or rate can
        // change, under the generation in their key, so a hit needs no
        // cacheability check.
        let key = self.cache_key(req, ctx);
        if self.caching {
            if let Some(packed) = self.cache.lookup(key) {
                let decision = self.unpack(packed);
                self.audit.record(now_us, *req, decision, 0, CacheUse::Hit);
                return decision;
            }
        }

        let mut walk = Walk { examined: 0, cacheable: self.caching };
        let rates = LiveRates { table: &self.rates, scope: ctx.rate_scope(), now_us };
        let outcome = if self.indexing {
            let candidates = Candidates::new(
                bucket(&self.subject_index, key[0]),
                bucket(&self.object_index, key[1]),
                &self.unindexed,
            );
            self.combine(req, ctx, &rates, candidates, &mut walk)
        } else {
            self.combine(req, ctx, &rates, 0..self.rules.len() as u32, &mut walk)
        };
        let decision = self.render(outcome);
        let cache = if walk.cacheable {
            self.cache.insert(key, pack_outcome(outcome));
            CacheUse::Miss
        } else {
            CacheUse::Bypass
        };
        self.audit.record(now_us, *req, decision, walk.examined, cache);
        decision
    }

    #[inline]
    fn cache_key(&self, req: &AccessRequest, ctx: &EvalContext) -> [u64; 3] {
        let s = req.subject();
        let o = req.object();
        let k0 = entity_key(s.namespace_symbol(), s.name_symbol());
        let k1 = entity_key(o.namespace_symbol(), o.name_symbol());
        let (mode_present, mode) = match ctx.mode_symbol() {
            Some(m) => (1u64, u64::from(m.as_u32())),
            None => (0, 0),
        };
        let k2 = KEY_VALID
            | tag_bits(self.generation)
            | (mode_present << 41)
            | (mode << 9)
            | ((req.action() as u64) << 1);
        [k0, k1, k2]
    }

    fn unpack(&self, packed: u64) -> Decision {
        let idx = (packed >> 3) as u32;
        match packed & 0b111 {
            KIND_DEFAULT => self.render(Outcome::Default),
            KIND_FIRST_MATCH => self.render(Outcome::FirstMatch(idx)),
            KIND_DENY_OVERRIDES => self.render(Outcome::DenyOverrides(idx)),
            KIND_ALLOW_NO_DENY => self.render(Outcome::AllowNoDeny(idx)),
            _ => self.render(Outcome::Priority(idx)),
        }
    }

    fn render(&self, outcome: Outcome) -> Decision {
        let tag = |idx: u32| self.rules[idx as usize].tag;
        match outcome {
            Outcome::Default => Decision {
                effect: self.default_effect,
                rule: None,
                kind: ReasonKind::Default,
            },
            Outcome::FirstMatch(i) => Decision {
                effect: self.rules[i as usize].rule.effect(),
                rule: Some(tag(i)),
                kind: ReasonKind::FirstMatch,
            },
            Outcome::DenyOverrides(i) => Decision {
                effect: Effect::Deny,
                rule: Some(tag(i)),
                kind: ReasonKind::DenyOverrides,
            },
            Outcome::AllowNoDeny(i) => Decision {
                effect: Effect::Allow,
                rule: Some(tag(i)),
                kind: ReasonKind::AllowNoDeny,
            },
            Outcome::Priority(i) => Decision {
                effect: self.rules[i as usize].rule.effect(),
                rule: Some(tag(i)),
                kind: ReasonKind::Priority(self.rules[i as usize].rule.priority()),
            },
        }
    }

    fn combine<I: Iterator<Item = u32>>(
        &self,
        req: &AccessRequest,
        ctx: &EvalContext,
        rates: &dyn RateSource,
        candidates: I,
        walk: &mut Walk,
    ) -> Outcome {
        match self.strategy {
            CombiningStrategy::FirstMatch => {
                for i in candidates {
                    if walk.applies(&self.rules[i as usize], req, ctx, rates) {
                        return Outcome::FirstMatch(i);
                    }
                }
                Outcome::Default
            }
            CombiningStrategy::DenyOverrides => {
                let mut allow: Option<u32> = None;
                for i in candidates {
                    let compiled = &self.rules[i as usize];
                    if walk.applies(compiled, req, ctx, rates) {
                        if compiled.rule.effect() == Effect::Deny {
                            return Outcome::DenyOverrides(i);
                        }
                        if allow.is_none() {
                            allow = Some(i);
                        }
                    }
                }
                match allow {
                    Some(i) => Outcome::AllowNoDeny(i),
                    None => Outcome::Default,
                }
            }
            CombiningStrategy::PriorityOrder => {
                let mut best: Option<(i32, Effect, u32)> = None;
                for i in candidates {
                    let compiled = &self.rules[i as usize];
                    if walk.applies(compiled, req, ctx, rates) {
                        let rule = &compiled.rule;
                        let candidate = (rule.priority(), rule.effect(), i);
                        best = Some(match best.take() {
                            None => candidate,
                            Some(cur) => {
                                let wins = candidate.0 > cur.0
                                    // priority tie: deny wins over allow
                                    || (candidate.0 == cur.0
                                        && candidate.1 == Effect::Deny
                                        && cur.1 == Effect::Allow);
                                if wins { candidate } else { cur }
                            }
                        });
                    }
                }
                match best {
                    Some((_, _, i)) => Outcome::Priority(i),
                    None => Outcome::Default,
                }
            }
        }
    }

    /// Snapshot of evaluation statistics, summed over the audit lanes.
    pub fn stats(&self) -> EngineStats {
        self.audit.stats()
    }

    /// Runs a closure over the audit trail: the newest records of every
    /// thread's lane merged, at most the engine's audit capacity of them
    /// ([`DEFAULT_CAPACITY`] for [`PolicyEngine::new`], 64 for
    /// [`PolicyEngine::compact`]), oldest first by `seq`. Counts of every
    /// decision, evicted ones included, are [`PolicyEngine::stats`].
    ///
    /// [`DEFAULT_CAPACITY`]: crate::audit::DEFAULT_CAPACITY
    pub fn with_audit<R>(&self, f: impl FnOnce(&[AuditRecord]) -> R) -> R {
        f(&self.audit.merged())
    }
}

/// What a reload changed, as far as a cached decision can tell: the rules
/// of every policy it does not keep, outgoing and incoming, and where each
/// kept rule moved.
struct Changes<'a> {
    rules: Vec<&'a Rule>,
    /// Each outgoing rule's index in the incoming set, or `u32::MAX` when
    /// its policy was not kept.
    moved: Vec<u32>,
}

impl<'a> Changes<'a> {
    /// Aligns the two sets' policies in order: each outgoing policy is kept
    /// when an equal policy follows the last kept one in `incoming`, and
    /// the incoming policies passed over to reach it are not. `None` when
    /// more than [`MAX_CHANGED_RULES`] rules changed.
    fn between(outgoing: &'a PolicySet, incoming: &'a PolicySet) -> Option<Changes<'a>> {
        let mut changes =
            Changes { rules: Vec::new(), moved: Vec::with_capacity(outgoing.rule_count()) };
        // the first incoming policy not yet passed, and its first rule's index
        let (mut next, mut next_start) = (0, 0u32);
        for policy in outgoing.policies() {
            let rest = &incoming.policies()[next..];
            let rules = policy.len() as u32;
            match rest.iter().position(|p| p == policy) {
                Some(passed) => {
                    for p in &rest[..passed] {
                        changes.rules.extend(p.rules());
                        next_start += p.len() as u32;
                    }
                    changes.moved.extend(next_start..next_start + rules);
                    next += passed + 1;
                    next_start += rules;
                }
                None => {
                    changes.rules.extend(policy.rules());
                    changes.moved.extend(std::iter::repeat_n(u32::MAX, rules as usize));
                }
            }
        }
        for p in &incoming.policies()[next..] {
            changes.rules.extend(p.rules());
        }
        (changes.rules.len() <= MAX_CHANGED_RULES).then_some(changes)
    }

    /// The packed outcome a cached entry holds in the new generation, or
    /// `None` when a changed rule matches its request. The request is
    /// rebuilt from the key that `PolicyEngine::cache_key` packed.
    fn carry(&self, [subject, object, mode_action]: [u64; 3], packed: u64) -> Option<u64> {
        let action = Action::ALL[(mode_action >> 1 & 0xFF) as usize];
        let request = AccessRequest::new(entity_of_key(subject), entity_of_key(object), action);
        if self.rules.iter().any(|rule| rule.matches(&request)) {
            return None;
        }
        let kind = packed & 0b111;
        if kind == KIND_DEFAULT {
            return Some(packed);
        }
        // The deciding rule matches the request, so its policy was kept.
        let moved = *self.moved.get((packed >> 3) as usize)?;
        (moved != u32::MAX).then(|| (u64::from(moved) << 3) | kind)
    }
}

fn pack_outcome(outcome: Outcome) -> u64 {
    let (kind, idx) = match outcome {
        Outcome::Default => (KIND_DEFAULT, 0),
        Outcome::FirstMatch(i) => (KIND_FIRST_MATCH, i),
        Outcome::DenyOverrides(i) => (KIND_DENY_OVERRIDES, i),
        Outcome::AllowNoDeny(i) => (KIND_ALLOW_NO_DENY, i),
        Outcome::Priority(i) => (KIND_PRIORITY, i),
    };
    (u64::from(idx) << 3) | kind
}

/// Merges two ascending index slices without allocating.
struct MergeSorted<'a> {
    a: &'a [u32],
    b: &'a [u32],
    i: usize,
    j: usize,
}

impl<'a> MergeSorted<'a> {
    fn new(a: &'a [u32], b: &'a [u32]) -> Self {
        MergeSorted { a, b, i: 0, j: 0 }
    }
}

impl Iterator for MergeSorted<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match (self.a.get(self.i), self.b.get(self.j)) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    self.i += 1;
                    Some(x)
                } else {
                    self.j += 1;
                    Some(y)
                }
            }
            (Some(&x), None) => {
                self.i += 1;
                Some(x)
            }
            (None, Some(&y)) => {
                self.j += 1;
                Some(y)
            }
            (None, None) => None,
        }
    }
}

/// A decide's candidate rules in rule order, without allocating: the
/// subject and object buckets merged, and that stream merged with the
/// unindexed rules. Two two-way merges cost a fraction of one three-way
/// merge that compares three heads per rule (DESIGN.md §5.1).
struct Candidates<'a> {
    buckets: MergeSorted<'a>,
    next_bucketed: Option<u32>,
    unindexed: &'a [u32],
    k: usize,
}

impl<'a> Candidates<'a> {
    fn new(subject: &'a [u32], object: &'a [u32], unindexed: &'a [u32]) -> Self {
        let mut buckets = MergeSorted::new(subject, object);
        let next_bucketed = buckets.next();
        Candidates { buckets, next_bucketed, unindexed, k: 0 }
    }
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match (self.next_bucketed, self.unindexed.get(self.k)) {
            (Some(x), Some(&y)) if y < x => {
                self.k += 1;
                Some(y)
            }
            (Some(x), _) => {
                self.next_bucketed = self.buckets.next();
                Some(x)
            }
            (None, Some(&y)) => {
                self.k += 1;
                Some(y)
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ActionSet};
    use crate::condition::Condition;
    use crate::entity::{EntityId, EntityMatcher, Pattern};
    use crate::policy::Policy;

    fn allow_read(id: &str, asset: &str) -> Rule {
        Rule::new(
            id,
            Effect::Allow,
            ActionSet::only(Action::Read),
            EntityMatcher::new("entry", Pattern::Any),
            EntityMatcher::new("asset", Pattern::Exact(asset.into())),
        )
    }

    fn deny_write(id: &str, asset: &str) -> Rule {
        Rule::new(
            id,
            Effect::Deny,
            ActionSet::only(Action::Write),
            EntityMatcher::new("entry", Pattern::Any),
            EntityMatcher::new("asset", Pattern::Exact(asset.into())),
        )
    }

    fn req(subject: &str, object: &str, action: Action) -> AccessRequest {
        AccessRequest::new(
            EntityId::parse(subject).unwrap(),
            EntityId::parse(object).unwrap(),
            action,
        )
    }

    fn demo_engine(strategy: CombiningStrategy) -> PolicyEngine {
        let p = Policy::new("demo", 1)
            .add_rule(allow_read("r-read", "ecu"))
            .unwrap()
            .add_rule(deny_write("r-nowrite", "ecu"))
            .unwrap();
        PolicyEngine::from_policy(p).with_strategy(strategy)
    }

    /// An engine whose one rule allows any write while `rate(key)` is at
    /// most `max_per_sec`.
    fn rate_limited(key: &str, max_per_sec: u32) -> PolicyEngine {
        PolicyEngine::from_policy(rate_limited_policy(key, max_per_sec))
    }

    fn rate_limited_policy(key: &str, max_per_sec: u32) -> Policy {
        Policy::new("p", 1)
            .add_rule(
                Rule::new(
                    "rate-limited",
                    Effect::Allow,
                    ActionSet::only(Action::Write),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .when(Condition::RateAtMost { key: key.into(), max_per_sec }),
            )
            .unwrap()
    }

    #[test]
    fn default_deny_when_no_rule_applies() {
        let e = demo_engine(CombiningStrategy::DenyOverrides);
        let d = e.decide(&req("entry:x", "asset:unknown", Action::Read), &EvalContext::new());
        assert_eq!(d.effect(), Effect::Deny);
        assert_eq!(d.rule(), None);
        assert!(d.reason().contains("default"));
    }

    #[test]
    fn allow_and_deny_paths() {
        let e = demo_engine(CombiningStrategy::DenyOverrides);
        let ctx = EvalContext::new();
        assert!(e.decide(&req("entry:s", "asset:ecu", Action::Read), &ctx).is_allow());
        let d = e.decide(&req("entry:s", "asset:ecu", Action::Write), &ctx);
        assert_eq!(d.effect(), Effect::Deny);
        assert_eq!(d.rule(), Some("demo.r-nowrite"));
    }

    #[test]
    fn deny_overrides_beats_allow() {
        let p = Policy::new("p", 1)
            .add_rule(
                Rule::new(
                    "allow-all",
                    Effect::Allow,
                    ActionSet::all(),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                ),
            )
            .unwrap()
            .add_rule(
                Rule::new(
                    "deny-ecu-write",
                    Effect::Deny,
                    ActionSet::only(Action::Write),
                    EntityMatcher::anything(),
                    EntityMatcher::new("asset", Pattern::Exact("ecu".into())),
                ),
            )
            .unwrap();
        let e = PolicyEngine::from_policy(p);
        let ctx = EvalContext::new();
        assert!(e.decide(&req("entry:x", "asset:ecu", Action::Read), &ctx).is_allow());
        assert!(!e.decide(&req("entry:x", "asset:ecu", Action::Write), &ctx).is_allow());
    }

    #[test]
    fn first_match_order_matters() {
        let p = Policy::new("p", 1)
            .add_rule(
                Rule::new(
                    "allow-first",
                    Effect::Allow,
                    ActionSet::only(Action::Write),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                ),
            )
            .unwrap()
            .add_rule(deny_write("deny-later", "ecu"))
            .unwrap();
        let e = PolicyEngine::from_policy(p).with_strategy(CombiningStrategy::FirstMatch);
        // first-match sees the allow first
        let d = e.decide(&req("entry:x", "asset:ecu", Action::Write), &EvalContext::new());
        assert!(d.is_allow());
        assert_eq!(d.rule(), Some("p.allow-first"));
    }

    #[test]
    fn priority_order_highest_wins_ties_deny() {
        let p = Policy::new("p", 1)
            .add_rule(
                Rule::new(
                    "low-allow",
                    Effect::Allow,
                    ActionSet::only(Action::Read),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .with_priority(1),
            )
            .unwrap()
            .add_rule(
                Rule::new(
                    "high-deny",
                    Effect::Deny,
                    ActionSet::only(Action::Read),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .with_priority(10),
            )
            .unwrap()
            .add_rule(
                Rule::new(
                    "tie-allow",
                    Effect::Allow,
                    ActionSet::only(Action::Read),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .with_priority(10),
            )
            .unwrap();
        let e = PolicyEngine::from_policy(p).with_strategy(CombiningStrategy::PriorityOrder);
        let d = e.decide(&req("entry:x", "asset:y", Action::Read), &EvalContext::new());
        assert_eq!(d.effect(), Effect::Deny, "tie at priority 10 resolves to deny");
        assert_eq!(d.rule(), Some("p.high-deny"));
        assert!(d.reason().contains("priority 10"));
    }

    #[test]
    fn mode_conditions_gate_rules() {
        let p = Policy::new("p", 1)
            .add_rule(
                Rule::new(
                    "diag-write",
                    Effect::Allow,
                    ActionSet::only(Action::Write),
                    EntityMatcher::new("entry", Pattern::Exact("obd".into())),
                    EntityMatcher::new("asset", Pattern::Exact("ecu".into())),
                )
                .when(Condition::InMode("remote diagnostic".into())),
            )
            .unwrap();
        let e = PolicyEngine::from_policy(p);
        let r = req("entry:obd", "asset:ecu", Action::Write);
        assert!(!e.decide(&r, &EvalContext::new().with_mode("normal")).is_allow());
        assert!(e
            .decide(&r, &EvalContext::new().with_mode("remote diagnostic"))
            .is_allow());
    }

    #[test]
    fn rate_condition_with_tracker() {
        let e = rate_limited("w", 2);
        let r = req("entry:x", "asset:y", Action::Write);
        let ctx = EvalContext::new();
        // two events within the window: still allowed
        e.observe_rate_event(None, "w", 1_000);
        e.observe_rate_event(None, "w", 2_000);
        assert!(e.decide_at(&r, &ctx, 3_000).is_allow());
        // third event pushes over the limit
        e.observe_rate_event(None, "w", 3_000);
        assert!(!e.decide_at(&r, &ctx, 4_000).is_allow());
        // a second later the window has drained
        assert!(e.decide_at(&r, &ctx, 1_200_000).is_allow());
    }

    #[test]
    fn a_late_rate_event_does_not_erase_newer_counts() {
        let e = rate_limited("k", 2);
        let r = req("entry:x", "asset:y", Action::Write);
        let ctx = EvalContext::new();
        let bucket = |b: u64| b * RATE_BUCKET_US;
        for _ in 0..5 {
            e.observe_rate_event(None, "k", bucket(19));
        }
        assert!(!e.decide_at(&r, &ctx, bucket(19)).is_allow());
        // Bucket 3 shares bucket 19's slot, a whole ring earlier.
        e.observe_rate_event(None, "k", bucket(3));
        assert!(
            !e.decide_at(&r, &ctx, bucket(19)).is_allow(),
            "the flood was forgotten"
        );
    }

    #[test]
    fn scoped_rate_windows_are_independent() {
        let e = rate_limited("cmd", 2);
        let r = req("entry:x", "asset:y", Action::Write);
        let scope_a = EvalContext::new().with_rate_scope(0);
        let scope_b = EvalContext::new().with_rate_scope(1);
        // flood scope 0 only
        for t in 0..5 {
            e.observe_rate_event(Some(0), "cmd", 1_000 + t);
        }
        assert!(!e.decide_at(&r, &scope_a, 2_000).is_allow(), "scope 0 over limit");
        assert!(e.decide_at(&r, &scope_b, 2_000).is_allow(), "scope 1 untouched");
        // the global (unscoped) window is untouched by scoped observations
        assert!(e.decide_at(&r, &EvalContext::new(), 2_000).is_allow());
        // and global observations do not bleed into scopes
        for t in 0..5 {
            e.observe_rate_event(None, "cmd", 10_000 + t);
        }
        assert!(e.decide_at(&r, &scope_b, 11_000).is_allow());
        assert!(!e.decide_at(&r, &EvalContext::new(), 11_000).is_allow());
    }

    #[test]
    fn reload_keeps_every_scopes_windows() {
        let mut e = rate_limited("k", 1);
        let r = req("entry:x", "asset:y", Action::Write);
        let contexts = [EvalContext::new(), EvalContext::new().with_rate_scope(7)];
        let over_limit = |e: &PolicyEngine| {
            contexts
                .each_ref()
                .map(|ctx| !e.decide_at(&r, ctx, 2_000).is_allow())
        };
        for t in [1_000, 1_001] {
            e.observe_rate_event(None, "k", t);
            e.observe_rate_event(Some(7), "k", t);
        }
        assert_eq!(over_limit(&e), [true, true]);
        e.reload(PolicySet::from_policy(rate_limited_policy("k", 1)));
        assert_eq!(
            over_limit(&e),
            [true, true],
            "a reload that still declares k keeps its counts"
        );
        // A set that drops k forgets its windows.
        e.reload(PolicySet::from_policy(rate_limited_policy("other", 1)));
        e.reload(PolicySet::from_policy(rate_limited_policy("k", 1)));
        assert_eq!(
            over_limit(&e),
            [false, false],
            "a redeclared key starts from zero"
        );
    }

    #[test]
    fn index_and_linear_agree() {
        // same decisions with indexing on and off
        let mut p = Policy::new("p", 1);
        for i in 0..50 {
            p = p
                .add_rule(
                    Rule::new(
                        format!("r{i}"),
                        if i % 3 == 0 { Effect::Deny } else { Effect::Allow },
                        ActionSet::only(Action::Read),
                        EntityMatcher::new("entry", Pattern::Exact(format!("s{i}"))),
                        EntityMatcher::anything(),
                    ),
                )
                .unwrap();
        }
        let set = PolicySet::from_policy(p);
        let indexed = PolicyEngine::new(set.clone());
        let linear = PolicyEngine::new(set).with_indexing(false);
        let ctx = EvalContext::new();
        for i in 0..50 {
            let r = req(&format!("entry:s{i}"), "asset:x", Action::Read);
            assert_eq!(
                indexed.decide(&r, &ctx).effect(),
                linear.decide(&r, &ctx).effect(),
                "rule {i}"
            );
        }
        // index examines far fewer rules
        assert!(indexed.stats().rules_examined < linear.stats().rules_examined / 10);
    }

    #[test]
    fn stats_and_audit_populate() {
        let e = demo_engine(CombiningStrategy::DenyOverrides);
        let ctx = EvalContext::new();
        e.decide(&req("entry:a", "asset:ecu", Action::Read), &ctx);
        e.decide(&req("entry:a", "asset:ecu", Action::Write), &ctx);
        let s = e.stats();
        assert_eq!(s.decisions, 2);
        assert_eq!(s.allows, 1);
        assert_eq!(s.denies, 1);
        e.with_audit(|records| {
            assert_eq!(records.len(), 2);
            assert_eq!(records[1].effect, Effect::Deny);
            assert_eq!(records[1].rule, Some("demo.r-nowrite"));
        });
    }

    #[test]
    fn reload_swaps_policies() {
        let mut e = demo_engine(CombiningStrategy::DenyOverrides);
        let r = req("entry:a", "asset:ecu", Action::Write);
        assert!(!e.decide(&r, &EvalContext::new()).is_allow());
        // new policy version allows writes
        let p2 = Policy::new("demo", 2)
            .add_rule(
                Rule::new(
                    "r-write",
                    Effect::Allow,
                    ActionSet::only(Action::Write),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                ),
            )
            .unwrap();
        e.reload(PolicySet::from_policy(p2));
        assert!(e.decide(&r, &EvalContext::new()).is_allow());
        // audit survives the reload
        e.with_audit(|records| assert_eq!(records.len(), 2));
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let e = demo_engine(CombiningStrategy::DenyOverrides);
        let ctx = EvalContext::new();
        let r = req("entry:a", "asset:ecu", Action::Read);
        let first = e.decide(&r, &ctx);
        let stats = e.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
        let second = e.decide(&r, &ctx);
        let stats = e.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(first, second);
        // a different request is its own miss
        e.decide(&req("entry:b", "asset:ecu", Action::Read), &ctx);
        assert_eq!(e.stats().cache_misses, 2);
    }

    #[test]
    fn cached_decisions_still_audit_and_count() {
        let e = demo_engine(CombiningStrategy::DenyOverrides);
        let ctx = EvalContext::new();
        let r = req("entry:a", "asset:ecu", Action::Write);
        for _ in 0..5 {
            e.decide(&r, &ctx);
        }
        let s = e.stats();
        assert_eq!(s.decisions, 5);
        assert_eq!(s.denies, 5);
        assert_eq!(s.cache_hits, 4);
        e.with_audit(|records| {
            assert_eq!(records.len(), 5);
            assert!(records.iter().all(|r| r.effect == Effect::Deny));
        });
    }

    #[test]
    fn reload_invalidates_cached_decisions() {
        let mut e = demo_engine(CombiningStrategy::DenyOverrides);
        let r = req("entry:a", "asset:ecu", Action::Write);
        let ctx = EvalContext::new();
        // Warm the cache with a deny...
        assert!(!e.decide(&r, &ctx).is_allow());
        assert!(!e.decide(&r, &ctx).is_allow());
        assert_eq!(e.stats().cache_hits, 1);
        let generation_before = e.cache_generation();
        // ...then reload with a policy that allows the same request.
        let p2 = Policy::new("demo", 2)
            .add_rule(
                Rule::new(
                    "r-write",
                    Effect::Allow,
                    ActionSet::all(),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                ),
            )
            .unwrap();
        e.reload(PolicySet::from_policy(p2));
        assert_eq!(e.cache_generation(), generation_before + 1);
        // The stale cached deny must not answer.
        let hits_before = e.stats().cache_hits;
        assert!(e.decide(&r, &ctx).is_allow(), "stale generation entry answered");
        assert_eq!(e.stats().cache_hits, hits_before, "reload must force a miss");
    }

    #[test]
    fn no_stale_decision_across_a_generation_tag_wrap() {
        let mut e = demo_engine(CombiningStrategy::DenyOverrides);
        let r = req("entry:a", "asset:ecu", Action::Write);
        let ctx = EvalContext::new();
        // P1 denies the write; the verdict is cached under tag 0.
        assert!(!e.decide(&r, &ctx).is_allow());
        assert_eq!(e.stats().cache_misses, 1);
        // 2^20 - 1 reloads on, the next one wraps the tag back to 0.
        e.generation = 0xF_FFFF;
        // P2 has two rules, like P1, so a stale entry would decode to a
        // verdict rather than an out-of-range rule.
        let p2 = Policy::new("demo", 2)
            .add_rule(allow_read("r-read", "ecu"))
            .unwrap()
            .add_rule(Rule::new(
                "r-write",
                Effect::Allow,
                ActionSet::only(Action::Write),
                EntityMatcher::anything(),
                EntityMatcher::anything(),
            ))
            .unwrap();
        e.reload(PolicySet::from_policy(p2));
        assert_eq!(e.cache_generation() & GENERATION_TAG_MASK, 0);
        let hits_before = e.stats().cache_hits;
        assert!(e.decide(&r, &ctx).is_allow(), "P1's entry answered after the wrap");
        assert_eq!(e.stats().cache_hits, hits_before);
    }

    #[test]
    fn a_strategy_change_retires_cached_decisions() {
        let exact = |ns: &str, name: &str| EntityMatcher::new(ns, Pattern::Exact(name.into()));
        let door_write = |id: &str, effect| {
            let write = ActionSet::only(Action::Write);
            Rule::new(id, effect, write, exact("entry", "x"), exact("asset", "door"))
        };
        let p = Policy::new("p", 1)
            .add_rule(door_write("first-allow", Effect::Allow))
            .unwrap()
            .add_rule(door_write("later-deny", Effect::Deny))
            .unwrap();
        let r = req("entry:x", "asset:door", Action::Write);
        let ctx = EvalContext::new();
        let e = PolicyEngine::from_policy(p.clone());
        for _ in 0..2 {
            assert_eq!(e.decide(&r, &ctx).rule(), Some("p.later-deny"));
        }
        let generation = e.cache_generation();
        let e = e.with_strategy(CombiningStrategy::FirstMatch);
        assert_eq!(e.cache_generation(), generation + 1);
        let hits = e.stats().cache_hits;
        let d = e.decide(&r, &ctx);
        assert_eq!((d.effect(), d.rule()), (Effect::Allow, Some("p.first-allow")));
        assert_eq!(e.stats().cache_hits, hits, "a deny-overrides decision answered");
        let fresh = PolicyEngine::from_policy(p).with_strategy(CombiningStrategy::FirstMatch);
        assert_eq!(fresh.decide(&r, &ctx), d);
    }

    #[test]
    fn a_reload_to_an_equal_set_keeps_every_cached_decision() {
        let mut e = demo_engine(CombiningStrategy::DenyOverrides);
        let ctx = EvalContext::new().with_mode("normal");
        let requests = [
            req("entry:a", "asset:ecu", Action::Read),
            req("entry:a", "asset:ecu", Action::Write),
            req("entry:a", "asset:door", Action::Read),
        ];
        let decide_all = |e: &PolicyEngine| requests.map(|r| e.decide(&r, &ctx));
        let before = decide_all(&e);
        let generation = e.cache_generation();
        e.reload(e.policy_set().clone());
        assert_eq!(e.cache_generation(), generation + 1);
        let hits = e.stats().cache_hits;
        assert_eq!(decide_all(&e), before);
        assert_eq!(e.stats().cache_hits, hits + 3, "every entry answers after the reload");
    }

    #[test]
    fn a_kept_policys_decisions_follow_its_rules_to_their_new_place() {
        let ecu = Policy::new("ecu", 1).add_rule(allow_read("r-read", "ecu")).unwrap();
        let door = Policy::new("door", 1).add_rule(deny_write("r-door", "door")).unwrap();
        let mut e = PolicyEngine::new(PolicySet::from_policy(ecu.clone()));
        let r = req("entry:a", "asset:ecu", Action::Read);
        let ctx = EvalContext::new();
        assert_eq!(e.decide(&r, &ctx).rule(), Some("ecu.r-read"));
        // `door` goes in front, so `ecu`'s rule moves from index 0 to 1.
        e.reload([door, ecu].into_iter().collect());
        let hits = e.stats().cache_hits;
        assert_eq!(e.decide(&r, &ctx).rule(), Some("ecu.r-read"));
        assert_eq!(e.stats().cache_hits, hits + 1);
    }

    #[test]
    fn a_swap_under_first_match_answers_with_the_new_winner() {
        let allow = Policy::new("allow", 1)
            .add_rule(Rule::new(
                "w",
                Effect::Allow,
                ActionSet::only(Action::Write),
                EntityMatcher::anything(),
                EntityMatcher::anything(),
            ))
            .unwrap();
        let deny = Policy::new("deny", 1).add_rule(deny_write("w", "ecu")).unwrap();
        let set = |policies: [&Policy; 2]| policies.into_iter().cloned().collect::<PolicySet>();
        let mut e =
            PolicyEngine::new(set([&allow, &deny])).with_strategy(CombiningStrategy::FirstMatch);
        let write = req("entry:x", "asset:ecu", Action::Write);
        let read = req("entry:x", "asset:ecu", Action::Read);
        let ctx = EvalContext::new();
        for _ in 0..2 {
            assert_eq!(e.decide(&write, &ctx).rule(), Some("allow.w"));
            assert_eq!(e.decide(&read, &ctx).rule(), None);
        }
        e.reload(set([&deny, &allow]));
        let d = e.decide(&write, &ctx);
        assert_eq!((d.effect(), d.rule()), (Effect::Deny, Some("deny.w")));
        // Neither policy's rule matches the read, so its entry answers.
        let hits = e.stats().cache_hits;
        assert_eq!(e.decide(&read, &ctx).rule(), None);
        assert_eq!(e.stats().cache_hits, hits + 1);
    }

    #[test]
    fn a_default_effect_change_decides_default_outcomes_again() {
        let mut e = demo_engine(CombiningStrategy::DenyOverrides);
        let r = req("entry:a", "asset:door", Action::Read);
        let ctx = EvalContext::new();
        for _ in 0..2 {
            assert_eq!(e.decide(&r, &ctx).effect(), Effect::Deny);
        }
        // The same rules, no rule matching the request, default allow.
        let open = e.policy_set().policies()[0].clone().with_default(Effect::Allow);
        e.reload(PolicySet::from_policy(open));
        let hits = e.stats().cache_hits;
        let d = e.decide(&r, &ctx);
        assert_eq!((d.effect(), d.rule()), (Effect::Allow, None));
        assert_eq!(e.stats().cache_hits, hits, "the default-deny entry answered");
    }

    #[test]
    fn a_policy_that_gains_a_rule_decides_its_requests_again() {
        let mut e = demo_engine(CombiningStrategy::DenyOverrides);
        let ctx = EvalContext::new();
        let read = req("entry:a", "asset:ecu", Action::Read);
        let door = req("entry:a", "asset:door", Action::Write);
        for _ in 0..2 {
            assert_eq!(e.decide(&read, &ctx).rule(), Some("demo.r-read"));
            assert_eq!(e.decide(&door, &ctx).rule(), None);
        }
        let gained = e.policy_set().policies()[0]
            .clone()
            .add_rule(Rule::new(
                "door-write",
                Effect::Allow,
                ActionSet::only(Action::Write),
                EntityMatcher::anything(),
                EntityMatcher::new("asset", Pattern::Exact("door".into())),
            ))
            .unwrap();
        e.reload(PolicySet::from_policy(gained));
        let hits = e.stats().cache_hits;
        assert_eq!(e.decide(&door, &ctx).rule(), Some("demo.door-write"));
        // The policy changed, so every rule of it counts as changed.
        assert_eq!(e.decide(&read, &ctx).rule(), Some("demo.r-read"));
        assert_eq!(e.stats().cache_hits, hits, "an entry of the edited policy answered");
    }

    #[test]
    fn mode_is_part_of_the_cache_key() {
        let p = Policy::new("p", 1)
            .add_rule(
                Rule::new(
                    "diag",
                    Effect::Allow,
                    ActionSet::only(Action::Write),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .when(Condition::InMode("diag".into())),
            )
            .unwrap();
        let e = PolicyEngine::from_policy(p);
        let r = req("entry:x", "asset:y", Action::Write);
        // Same request, different modes: both answers must be fresh and
        // correct, then each repeat hits its own entry.
        assert!(e.decide(&r, &EvalContext::new().with_mode("diag")).is_allow());
        assert!(!e.decide(&r, &EvalContext::new().with_mode("normal")).is_allow());
        assert!(e.decide(&r, &EvalContext::new().with_mode("diag")).is_allow());
        assert!(!e.decide(&r, &EvalContext::new().with_mode("normal")).is_allow());
        assert_eq!(e.stats().cache_hits, 2);
    }

    #[test]
    fn state_conditions_bypass_the_cache() {
        let p = Policy::new("p", 1)
            .add_rule(
                Rule::new(
                    "while-parked",
                    Effect::Allow,
                    ActionSet::only(Action::Write),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .when(Condition::StateEquals { key: "parked".into(), value: "yes".into() }),
            )
            .unwrap();
        let e = PolicyEngine::from_policy(p);
        let r = req("entry:x", "asset:y", Action::Write);
        let parked = EvalContext::new().with_state("parked", "yes");
        let moving = EvalContext::new().with_state("parked", "no");
        assert!(e.decide(&r, &parked).is_allow());
        assert!(!e.decide(&r, &moving).is_allow(), "state change must be seen");
        assert!(e.decide(&r, &parked).is_allow());
        let s = e.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (0, 0), "never cached");
    }

    #[test]
    fn rules_after_an_early_exit_do_not_block_caching() {
        let p = Policy::new("p", 1)
            .add_rule(deny_write("no-ecu-write", "ecu"))
            .unwrap()
            .add_rule(
                Rule::new(
                    "while-parked",
                    Effect::Allow,
                    ActionSet::only(Action::Write),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .when(Condition::StateEquals { key: "parked".into(), value: "yes".into() }),
            )
            .unwrap();
        let e = PolicyEngine::from_policy(p);
        let parked = EvalContext::new().with_state("parked", "yes");
        let cache = |e: &PolicyEngine| (e.stats().cache_hits, e.stats().cache_misses);
        // Deny-overrides stops at the deny, before the state-gated rule,
        // so no state can change this outcome: it is cached.
        let ecu = req("entry:x", "asset:ecu", Action::Write);
        for _ in 0..2 {
            assert_eq!(e.decide(&ecu, &parked).rule(), Some("p.no-ecu-write"));
        }
        assert_eq!(cache(&e), (1, 1));
        // A write the deny does not cover reaches the gated rule.
        let door = req("entry:x", "asset:door", Action::Write);
        for _ in 0..2 {
            assert!(e.decide(&door, &parked).is_allow());
        }
        assert_eq!(cache(&e), (1, 1));
    }

    #[test]
    fn rate_conditions_bypass_the_cache() {
        let e = rate_limited("f", 1);
        let r = req("entry:x", "asset:y", Action::Write);
        let ctx = EvalContext::new();
        assert!(e.decide_at(&r, &ctx, 1_000).is_allow());
        e.observe_rate_event(None, "f", 2_000);
        e.observe_rate_event(None, "f", 3_000);
        assert!(!e.decide_at(&r, &ctx, 4_000).is_allow(), "rate change must be seen");
        assert_eq!(e.stats().cache_hits, 0);
    }

    #[test]
    fn caching_disabled_still_correct() {
        let e = demo_engine(CombiningStrategy::DenyOverrides).with_caching(false);
        let ctx = EvalContext::new();
        let r = req("entry:a", "asset:ecu", Action::Read);
        assert!(e.decide(&r, &ctx).is_allow());
        assert!(e.decide(&r, &ctx).is_allow());
        let s = e.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (0, 0));

        // A cache warmed while caching was on must not answer once it is off.
        let warm = demo_engine(CombiningStrategy::DenyOverrides);
        assert!(warm.decide(&r, &ctx).is_allow());
        assert!(warm.decide(&r, &ctx).is_allow());
        let warm = warm.with_caching(false);
        let hits = warm.stats().cache_hits;
        assert_eq!(hits, 1);
        assert!(warm.decide(&r, &ctx).is_allow());
        assert_eq!(warm.stats().cache_hits, hits, "a disabled cache is never probed");
    }

    #[test]
    fn concurrent_decides_keep_exact_statistics() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 10_000;
        let p = Policy::new("p", 1)
            .add_rule(allow_read("r-read", "ecu"))
            .unwrap()
            .add_rule(
                Rule::new(
                    "while-parked",
                    Effect::Allow,
                    ActionSet::only(Action::Write),
                    EntityMatcher::new("entry", Pattern::Exact("service".into())),
                    EntityMatcher::new("asset", Pattern::Exact("ecu".into())),
                )
                .when(Condition::StateEquals { key: "parked".into(), value: "yes".into() }),
            )
            .unwrap();
        let engine = PolicyEngine::from_policy(p);
        let parked = EvalContext::new().with_state("parked", "yes");
        // (request, context, cacheable)
        let mix = [
            (req("entry:a", "asset:ecu", Action::Read), EvalContext::new(), true),
            (req("entry:b", "asset:ecu", Action::Read), EvalContext::new(), true),
            // only the request the state-conditioned rule covers is
            // uncacheable
            (req("entry:service", "asset:ecu", Action::Write), parked, false),
            // no rule applies: the default deny
            (req("entry:a", "asset:unknown", Action::Write), EvalContext::new(), true),
        ];
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (engine, mix, barrier) = (&engine, &mix, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        let (r, ctx, _) = &mix[((i + t) % mix.len() as u64) as usize];
                        engine.decide(r, ctx);
                    }
                });
            }
        });
        let n = mix.len() as u64;
        let cacheable = (0..THREADS)
            .flat_map(|t| (0..PER_THREAD).map(move |i| ((i + t) % n) as usize))
            .filter(|&m| mix[m].2)
            .count() as u64;
        let s = engine.stats();
        assert_eq!(s.decisions, THREADS * PER_THREAD);
        assert_eq!(s.allows + s.denies, s.decisions);
        assert_eq!(s.defaults, THREADS * PER_THREAD / n);
        assert_eq!(s.cache_hits + s.cache_misses, cacheable);
        // The merged trail is the newest records of every shard, trimmed
        // to the capacity, in `seq` order.
        engine.with_audit(|records| {
            assert_eq!(records.len(), DEFAULT_CAPACITY);
            assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
            assert_eq!(records.last().map(|r| r.seq), Some(s.decisions - 1));
        });
    }

    #[test]
    fn audit_keeps_the_newest_records_of_every_thread() {
        let e = PolicyEngine::compact(demo_engine(CombiningStrategy::DenyOverrides).set);
        let r = req("entry:a", "asset:ecu", Action::Read);
        let decide_100 = || {
            for _ in 0..100 {
                e.decide(&r, &EvalContext::new());
            }
        };
        decide_100();
        std::thread::scope(|s| {
            s.spawn(decide_100);
        });
        e.with_audit(|records| {
            let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
            let newest = 200 - COMPACT_AUDIT_CAPACITY as u64..200;
            assert_eq!(seqs, newest.collect::<Vec<_>>());
        });
    }

    #[test]
    fn audit_reads_beside_a_writer_return_no_torn_record() {
        use std::sync::atomic::AtomicBool;
        let e = PolicyEngine::compact(demo_engine(CombiningStrategy::DenyOverrides).set);
        // Request k is requests[k % 28]: records k and k + 64, which share a
        // ring slot, differ in subject, time and seq, so a record put
        // together from both matches neither.
        let requests: Vec<AccessRequest> = (0..28)
            .map(|k| {
                let subject = format!("entry:s{}", k % 7);
                req(&subject, "asset:ecu", Action::ALL[k % 4])
            })
            .collect();
        let check = |records: &[AuditRecord]| -> Result<(), String> {
            for r in records {
                if r.seq != r.time_us || r.request != requests[(r.time_us % 28) as usize] {
                    return Err(format!("torn record {r}"));
                }
            }
            match records.windows(2).find(|w| w[0].seq >= w[1].seq) {
                Some(w) => Err(format!("seq {} then {}", w[0].seq, w[1].seq)),
                None => Ok(()),
            }
        };
        /// Stops the writer when the reader ends, failed or not.
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        // The writer laps the ring thousands of times while the reader
        // reads it thousands of times.
        let (reads, stop, done) = (AtomicU64::new(0), AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let ctx = EvalContext::new();
                let mut k = 0;
                while !stop.load(Ordering::Relaxed)
                    && (k < 200_000 || reads.load(Ordering::Relaxed) < 5_000)
                {
                    e.decide_at(&requests[(k % 28) as usize], &ctx, k);
                    k += 1;
                }
                done.store(true, Ordering::Release);
            });
            let _stop = Stop(&stop);
            while !done.load(Ordering::Acquire) {
                e.with_audit(check).unwrap();
                reads.fetch_add(1, Ordering::Relaxed);
            }
        });
        e.with_audit(|records| {
            assert_eq!(records.len(), COMPACT_AUDIT_CAPACITY);
            check(records).unwrap();
        });
    }

    #[test]
    fn a_decide_after_the_slot_guard_still_records() {
        use std::cell::RefCell;
        use std::sync::{mpsc, Arc};
        /// Decides once when this thread's thread-locals are destroyed.
        struct DecideOnExit(Option<(Arc<PolicyEngine>, mpsc::Sender<bool>)>);
        impl Drop for DecideOnExit {
            fn drop(&mut self) {
                if let Some((e, done)) = self.0.take() {
                    let guard_gone = SLOT.try_with(|_| ()).is_err();
                    e.decide_at(&req("entry:late", "asset:ecu", Action::Read), &EvalContext::new(), 3);
                    done.send(guard_gone).unwrap();
                }
            }
        }
        thread_local! {
            static ON_EXIT: RefCell<DecideOnExit> = const { RefCell::new(DecideOnExit(None)) };
        }
        let e = Arc::new(PolicyEngine::compact(demo_engine(CombiningStrategy::DenyOverrides).set));
        let ctx = EvalContext::new();
        e.decide_at(&req("entry:main", "asset:ecu", Action::Read), &ctx, 1);
        let (done, guard_gone) = mpsc::channel();
        let worker = Arc::clone(&e);
        std::thread::spawn(move || {
            // Registered before the slot guard, so destroyed after it.
            ON_EXIT.with(|d| d.borrow_mut().0 = Some((Arc::clone(&worker), done)));
            worker.decide_at(&req("entry:worker", "asset:ecu", Action::Read), &ctx, 2);
        })
        .join()
        .unwrap();
        assert!(guard_gone.recv().unwrap(), "the decide ran before the guard's destructor");
        assert_eq!(e.stats().decisions, 3);
        e.with_audit(|records| {
            let times: Vec<u64> = records.iter().map(|r| r.time_us).collect();
            assert_eq!(times, [1, 2, 3]);
        });
        // The late record took a free slot, not the one this live thread holds.
        let mine = e.audit.lane(SLOT.with(|s| s.0));
        assert_eq!(mine.decisions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn lane_buckets_double() {
        assert_eq!(locate_lane(0), (0, 0));
        assert_eq!(locate_lane(7), (0, 7));
        assert_eq!(locate_lane(8), (1, 0));
        assert_eq!(locate_lane(23), (1, 15));
        assert_eq!(locate_lane(24), (2, 0));
    }

    #[test]
    fn merge_sorted_interleaves() {
        let collect = |a: &[u32], b: &[u32]| MergeSorted::new(a, b).collect::<Vec<u32>>();
        assert_eq!(collect(&[1, 4, 6], &[2, 3, 5]), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(collect(&[], &[1]), vec![1]);
        assert_eq!(collect(&[1], &[]), vec![1]);
        assert_eq!(collect(&[], &[]), Vec::<u32>::new());
    }

    #[test]
    fn candidates_merge_three_lists_in_rule_order() {
        let collect =
            |a: &[u32], b: &[u32], c: &[u32]| Candidates::new(a, b, c).collect::<Vec<u32>>();
        assert_eq!(collect(&[2, 7], &[0, 5], &[1, 3, 4, 6]), (0..8).collect::<Vec<u32>>());
        assert_eq!(collect(&[1, 4, 6], &[2, 3, 5], &[]), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(collect(&[], &[], &[0, 9]), vec![0, 9]);
        assert_eq!(collect(&[3], &[], &[]), vec![3]);
        assert_eq!(collect(&[], &[], &[]), Vec::<u32>::new());
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PolicyEngine>();
    }

    #[test]
    fn strategy_display() {
        assert_eq!(CombiningStrategy::DenyOverrides.to_string(), "deny-overrides");
        assert_eq!(CombiningStrategy::FirstMatch.to_string(), "first-match");
        assert_eq!(CombiningStrategy::PriorityOrder.to_string(), "priority-order");
    }

    #[test]
    fn stats_pairs_mirror_fields() {
        let stats = EngineStats {
            decisions: 7,
            allows: 4,
            denies: 2,
            defaults: 1,
            rules_examined: 30,
            cache_hits: 5,
            cache_misses: 2,
        };
        let pairs = stats.as_pairs();
        assert_eq!(pairs.len(), 7);
        let get = |name: &str| pairs.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("decisions"), 7);
        assert_eq!(get("allows"), 4);
        assert_eq!(get("cache_misses"), 2);
        // every name is distinct
        let mut names: Vec<&str> = pairs.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }
}
