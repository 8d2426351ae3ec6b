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
//! * entity names, rule ids and modes are interned [`Symbol`]s, so the
//!   subject index is keyed by two `u32`s and no per-request strings exist;
//! * statistics are plain atomic counters;
//! * rate windows are per-key atomic bucket rings, consulted only when a
//!   candidate rule actually references [`crate::Condition::RateAtMost`]
//!   (a rate-dependency map computed at load time);
//! * the audit trail is a set of sharded, pre-allocated rings picked by
//!   thread, merged only when read;
//! * decisions themselves are cached in a generation-tagged lock-free
//!   `GenCache` keyed by
//!   `(subject, object, action, mode)`; [`PolicyEngine::reload`] bumps the
//!   generation so stale entries can never answer. Rules whose conditions
//!   read state or rates are excluded from caching by construction.
//!
//! [`Decision`]s are `Copy` and build their human-readable reason string
//! lazily, on demand.

use crate::audit::{AuditLog, AuditRecord};
use crate::bundle::SignedBundle;
use crate::cache::{GenCache, KEY_VALID};
use crate::condition::RateSource;
use crate::error::PolicyError;
use crate::intern::Symbol;
use crate::policy::{Effect, PolicySet, Rule};
use crate::request::{AccessRequest, EvalContext};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

/// How applying rules combine into one decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decision {
    effect: Effect,
    rule: Option<RuleTag>,
    kind: ReasonKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct RuleTag {
    qualified: &'static str,
    id: &'static str,
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
        self.rule.map(|t| t.qualified)
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
            let next = if (cur >> 32) as u32 == epoch {
                cur + 1 // same epoch: bump the count half
            } else {
                (u64::from(epoch) << 32) | 1 // stale bucket: restart it
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

    fn snapshot_into(&self, other: &AtomicWindow) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            b.store(a.load(Ordering::Acquire), Ordering::Release);
        }
    }
}

/// Bound on dynamically-tracked (undeclared) rate keys.
const MAX_DYNAMIC_RATE_KEYS: usize = 1_024;

/// Exact timestamp tracking for keys the loaded policies do *not* declare.
/// These never influence decisions directly (only declared keys do) but are
/// retained — bounded and pruned — so observations made shortly before a
/// policy reload that declares the key are not lost. Keys are owned
/// strings, **not** interned: interning leaks one allocation per distinct
/// string for the process lifetime, which would defeat the bound for
/// callers feeding per-session keys.
#[derive(Debug, Default)]
struct DynamicRates {
    windows: HashMap<String, VecDeque<u64>>,
}

impl DynamicRates {
    fn observe(&mut self, key: &str, now_us: u64) {
        if let Some(w) = self.windows.get_mut(key) {
            w.push_back(now_us);
            Self::prune(w, now_us);
            return;
        }
        if self.windows.len() >= MAX_DYNAMIC_RATE_KEYS {
            self.sweep(now_us);
            if self.windows.len() >= MAX_DYNAMIC_RATE_KEYS {
                // Still full of live keys: evict the one idle the longest.
                if let Some(stalest) = self
                    .windows
                    .iter()
                    .min_by_key(|(_, w)| w.back().copied().unwrap_or(0))
                    .map(|(k, _)| k.clone())
                {
                    self.windows.remove(&stalest);
                }
            }
        }
        self.windows
            .insert(key.to_string(), VecDeque::from([now_us]));
    }

    /// Prunes every window and drops the empty ones.
    fn sweep(&mut self, now_us: u64) {
        self.windows.retain(|_, w| {
            Self::prune(w, now_us);
            !w.is_empty()
        });
    }

    fn prune(w: &mut VecDeque<u64>, now_us: u64) {
        let cutoff = now_us.saturating_sub(RATE_WINDOW_US);
        while w.front().is_some_and(|&t| t < cutoff) {
            w.pop_front();
        }
    }

    fn take(&mut self, key: &str) -> Option<VecDeque<u64>> {
        self.windows.remove(key)
    }

    fn len(&self) -> usize {
        self.windows.len()
    }
}

/// Declared-key atomic windows plus the bounded dynamic overflow, and a
/// lazily-populated per-*scope* replica of the declared windows (one scope
/// per tenant of a shared engine — e.g. per vehicle in a fleet run), so
/// scoped rate observations never couple through a global window.
#[derive(Debug, Default)]
struct RateTable {
    declared: HashMap<Symbol, usize>,
    windows: Vec<AtomicWindow>,
    /// Scope id → one window per declared key. Read-locked on the hot
    /// path; write-locked only the first time a scope is touched.
    scoped: RwLock<HashMap<u64, Vec<AtomicWindow>>>,
    dynamic: Mutex<DynamicRates>,
}

impl RateTable {
    fn observe(&self, key: &str, now_us: u64) {
        // try_get, never intern: undeclared keys must not leak interner
        // entries (declared keys were interned once at rebuild).
        if let Some(&i) = Symbol::try_get(key).and_then(|s| self.declared.get(&s)) {
            self.windows[i].observe(now_us);
        } else {
            lock(&self.dynamic).observe(key, now_us);
        }
    }

    fn observe_scoped(&self, scope: u64, key: &str, now_us: u64) {
        if let Some(&i) = Symbol::try_get(key).and_then(|s| self.declared.get(&s)) {
            {
                let scopes = read(&self.scoped);
                if let Some(windows) = scopes.get(&scope) {
                    windows[i].observe(now_us);
                    return;
                }
            }
            let mut scopes = write(&self.scoped);
            let windows = scopes
                .entry(scope)
                .or_insert_with(|| (0..self.windows.len()).map(|_| AtomicWindow::default()).collect());
            windows[i].observe(now_us);
        }
        // Undeclared scoped keys are dropped: no decision path reads them
        // (the overlay falls back to the *context's* rates, never to the
        // dynamic table, for scoped lookups), and parking them in the
        // bounded dynamic table could only evict unscoped keys whose
        // pre-declaration history is actually replayed on reload.
    }

    fn declared_rate(&self, key: &str, now_us: u64) -> Option<f64> {
        let sym = Symbol::try_get(key)?;
        let &i = self.declared.get(&sym)?;
        Some(self.windows[i].count(now_us) as f64)
    }

    /// Like [`RateTable::declared_rate`] but reading the scope's windows.
    /// A declared key with an untouched scope reads as rate 0 (the scope
    /// simply has not observed any events yet).
    fn declared_rate_scoped(&self, scope: u64, key: &str, now_us: u64) -> Option<f64> {
        let sym = Symbol::try_get(key)?;
        let &i = self.declared.get(&sym)?;
        let scopes = read(&self.scoped);
        Some(
            scopes
                .get(&scope)
                .map(|windows| windows[i].count(now_us) as f64)
                .unwrap_or(0.0),
        )
    }

    /// Rebuilds the declared set, carrying over windows for keys that stay
    /// declared and replaying recent dynamic observations for keys that
    /// become declared. Scoped windows are indexed by declared-key slot,
    /// so they are reset wholesale (a reload starts every scope's windows
    /// empty — documented on `observe_rate_event_scoped`).
    fn rebuild(&mut self, keys: impl Iterator<Item = Symbol>) {
        let old_declared = std::mem::take(&mut self.declared);
        let old_windows = std::mem::take(&mut self.windows);
        write(&self.scoped).clear();
        let mut dynamic = lock(&self.dynamic);
        for sym in keys {
            let idx = self.windows.len();
            let window = AtomicWindow::default();
            if let Some(&old) = old_declared.get(&sym) {
                old_windows[old].snapshot_into(&window);
            } else if let Some(times) = dynamic.take(sym.as_str()) {
                for t in times {
                    window.observe(t);
                }
            }
            self.windows.push(window);
            self.declared.insert(sym, idx);
        }
    }

    fn dynamic_key_count(&self) -> usize {
        lock(&self.dynamic).len()
    }
}

/// The engine's live rates layered over the caller's context rates.
struct RateOverlay<'a> {
    table: &'a RateTable,
    ctx: &'a EvalContext,
    now_us: u64,
}

impl RateSource for RateOverlay<'_> {
    fn rate_per_sec(&self, key: &str) -> f64 {
        let declared = match self.ctx.rate_scope() {
            Some(scope) => self.table.declared_rate_scoped(scope, key, self.now_us),
            None => self.table.declared_rate(key, self.now_us),
        };
        declared.unwrap_or_else(|| self.ctx.rate_per_sec(key))
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

#[derive(Debug, Default)]
struct EngineCounters {
    decisions: AtomicU64,
    allows: AtomicU64,
    denies: AtomicU64,
    defaults: AtomicU64,
    rules_examined: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// Number of audit shards (power of two). With at least as many shards as
/// deciding threads, audit appends effectively never contend.
const AUDIT_SHARDS: usize = 8;

#[derive(Debug, Clone, Copy)]
struct CompactAudit {
    seq: u64,
    time_us: u64,
    request: AccessRequest,
    effect: Effect,
    rule: Option<&'static str>,
}

/// Sharded, pre-allocated audit rings: `decide` never blocks `decide` on
/// the audit trail, and appends never allocate.
struct AuditSink {
    shards: Box<[Mutex<VecDeque<CompactAudit>>]>,
    per_shard: usize,
    capacity: usize,
    seq: AtomicU64,
}

fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SHARD.with(|s| *s)
}

impl AuditSink {
    fn new(capacity: usize) -> Self {
        // Each shard retains the full capacity: a single-threaded engine
        // writes one shard only and must still keep `capacity` records
        // (the merged snapshot truncates to the newest `capacity`).
        let per_shard = capacity.max(1);
        AuditSink {
            shards: (0..AUDIT_SHARDS)
                .map(|_| Mutex::new(VecDeque::with_capacity(per_shard)))
                .collect(),
            per_shard,
            capacity,
            seq: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, time_us: u64, request: AccessRequest, effect: Effect, rule: Option<&'static str>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut shard = lock(&self.shards[shard_index() % AUDIT_SHARDS]);
        if shard.len() >= self.per_shard {
            shard.pop_front();
        }
        shard.push_back(CompactAudit { seq, time_us, request, effect, rule });
    }

    fn snapshot(&self, counters: &EngineCounters) -> AuditLog {
        let mut all: Vec<CompactAudit> = Vec::new();
        for shard in self.shards.iter() {
            all.extend(lock(shard).iter().copied());
        }
        all.sort_unstable_by_key(|r| r.seq);
        if all.len() > self.capacity {
            let cut = all.len() - self.capacity;
            all.drain(..cut);
        }
        let mut log = AuditLog::with_capacity(self.capacity);
        for r in all {
            log.push_materialised(AuditRecord {
                seq: r.seq,
                time_us: r.time_us,
                request: r.request,
                effect: r.effect,
                rule: r.rule.map(str::to_string),
            });
        }
        log.set_aggregates(
            self.seq.load(Ordering::Relaxed),
            counters.allows.load(Ordering::Relaxed),
            counters.denies.load(Ordering::Relaxed),
            counters.defaults.load(Ordering::Relaxed),
        );
        log
    }
}

/// A rule compiled for evaluation: the rule plus its pre-interned
/// `policy.rule` name and condition analysis.
#[derive(Debug)]
struct CompiledRule {
    rule: Rule,
    qualified: &'static str,
    id: &'static str,
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

#[derive(Debug, Default)]
struct Bucket {
    rules: Vec<u32>,
    cache_safe: bool,
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
    // exact-subject index: (namespace, name) symbols → candidate rules
    subject_index: HashMap<(Symbol, Symbol), Bucket>,
    // rules whose subject matcher is not an exact key
    unindexed: Vec<u32>,
    unindexed_cache_safe: bool,
    all_cache_safe: bool,
    rates: RateTable,
    audit: AuditSink,
    counters: EngineCounters,
    cache: GenCache,
    generation: AtomicU32,
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
            .field("generation", &self.generation.load(Ordering::Relaxed))
            .finish()
    }
}

impl PolicyEngine {
    /// Creates an engine over a policy set with the default strategy
    /// (deny-overrides), indexing and decision caching enabled, sized for a
    /// shared, service-scale deployment ([`AuditLog::DEFAULT_CAPACITY`]
    /// audit records per shard, `DECISION_CACHE_SLOTS` (8192) cache slots).
    pub fn new(set: PolicySet) -> Self {
        PolicyEngine::with_footprint(set, AuditLog::DEFAULT_CAPACITY, DECISION_CACHE_SLOTS)
    }

    /// Creates an engine with explicit audit and decision-cache sizing.
    ///
    /// [`PolicyEngine::new`] pre-allocates for a fleet-shared engine serving
    /// millions of decisions: `AUDIT_SHARDS` rings of 16k records plus an
    /// eagerly initialised 8k-slot cache — several MB touched per engine.
    /// Workloads that build one engine *per simulated device* (the V2X
    /// ingest path spins up hundreds per run, and rebuilds on every OTA
    /// apply) want [`PolicyEngine::compact`] instead; this constructor is
    /// the shared base. `cache_slots` is rounded up to a power of two with
    /// a floor of 64 by the cache itself.
    pub fn with_footprint(set: PolicySet, audit_capacity: usize, cache_slots: usize) -> Self {
        let mut engine = PolicyEngine {
            rules: Vec::new(),
            default_effect: set.default_effect(),
            strategy: CombiningStrategy::default(),
            indexing: true,
            caching: true,
            subject_index: HashMap::new(),
            unindexed: Vec::new(),
            unindexed_cache_safe: true,
            all_cache_safe: true,
            rates: RateTable::default(),
            audit: AuditSink::new(audit_capacity),
            counters: EngineCounters::default(),
            cache: GenCache::with_capacity(cache_slots),
            generation: AtomicU32::new(0),
            set,
        };
        engine.rebuild();
        engine
    }

    /// Audit capacity for [`PolicyEngine::compact`] engines: enough for the
    /// per-device decision tails the V2X scenarios inspect.
    pub const COMPACT_AUDIT_CAPACITY: usize = 64;

    /// Decision-cache slots for [`PolicyEngine::compact`] engines (the
    /// cache floors this at its 64-slot minimum).
    pub const COMPACT_CACHE_SLOTS: usize = 256;

    /// Creates a per-device engine: identical decisions to
    /// [`PolicyEngine::new`], but with a footprint in the tens of KB rather
    /// than MB. Use for simulations that construct an engine per vehicle
    /// (and rebuild on OTA policy swaps) — the full-size pre-allocation
    /// dominated the v2x bench's allocator time before this existed.
    pub fn compact(set: PolicySet) -> Self {
        PolicyEngine::with_footprint(
            set,
            PolicyEngine::COMPACT_AUDIT_CAPACITY,
            PolicyEngine::COMPACT_CACHE_SLOTS,
        )
    }

    /// Creates an engine from a single policy.
    pub fn from_policy(p: crate::policy::Policy) -> Self {
        PolicyEngine::new(PolicySet::from_policy(p))
    }

    /// [`PolicyEngine::compact`] over a single policy.
    pub fn compact_from_policy(p: crate::policy::Policy) -> Self {
        PolicyEngine::compact(PolicySet::from_policy(p))
    }

    /// Sets the combining strategy (builder style).
    pub fn with_strategy(mut self, s: CombiningStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Enables or disables the subject index (for the E4 ablation).
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

    /// The decision-cache generation: bumped by every [`PolicyEngine::reload`],
    /// so entries cached under an earlier policy can never answer.
    pub fn cache_generation(&self) -> u32 {
        self.generation.load(Ordering::Acquire)
    }

    /// Number of dynamically-tracked (undeclared) rate keys currently held.
    pub fn dynamic_rate_keys(&self) -> usize {
        self.rates.dynamic_key_count()
    }

    /// Replaces the policy set (a policy update taking effect), rebuilds
    /// indexes and invalidates the decision cache by bumping its
    /// generation. Audit history and rate windows are preserved.
    pub fn reload(&mut self, set: PolicySet) {
        self.default_effect = set.default_effect();
        self.set = set;
        self.rebuild();
        self.generation.fetch_add(1, Ordering::AcqRel);
        // Erasing the slots as well means even a wrapped generation counter
        // can never resurrect a stale entry.
        self.cache.clear();
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
        let set: PolicySet = bundle.policies.iter().cloned().collect();
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
                qualified: r.qualified,
                rule_id: r.id,
                cache_safe: r.cache_safe,
            })
            .collect()
    }

    /// Whether every loaded rule is cache-safe (the whole-table aggregate
    /// of the load-time cacheability analysis).
    pub fn all_cache_safe(&self) -> bool {
        self.all_cache_safe
    }

    fn rebuild(&mut self) {
        self.rules.clear();
        self.subject_index.clear();
        self.unindexed.clear();
        self.unindexed_cache_safe = true;
        self.all_cache_safe = true;
        for (owner, rule) in self.set.rules() {
            let idx = self.rules.len() as u32;
            let cache_safe = rule.condition().is_cache_safe();
            self.all_cache_safe &= cache_safe;
            match rule.subject().exact_key_symbols() {
                Some(key) => {
                    let bucket = self.subject_index.entry(key).or_insert(Bucket {
                        rules: Vec::new(),
                        cache_safe: true,
                    });
                    bucket.rules.push(idx);
                    bucket.cache_safe &= cache_safe;
                }
                None => {
                    self.unindexed.push(idx);
                    self.unindexed_cache_safe &= cache_safe;
                }
            }
            let qualified = Symbol::intern(&format!("{owner}.{}", rule.id())).as_str();
            self.rules.push(CompiledRule {
                qualified,
                id: rule.id(),
                rule: rule.clone(),
                cache_safe,
            });
        }
        // A decision is cacheable only if every rule that could apply is;
        // unindexed rules are candidates for every request.
        for bucket in self.subject_index.values_mut() {
            bucket.cache_safe &= self.unindexed_cache_safe;
        }
        self.rates
            .rebuild(self.set.rate_keys().iter().map(|k| Symbol::intern(k)));
    }

    /// Total number of rules loaded.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Notes an event for a rate key at `now_us` (drives `RateAtMost`
    /// conditions). Call once per observed event (e.g. per frame). Keys
    /// declared by the loaded policies update lock-free atomic windows;
    /// undeclared keys fall into a bounded, pruned side table.
    pub fn observe_rate_event(&self, key: &str, now_us: u64) {
        self.rates.observe(key, now_us);
    }

    /// Notes an event for a rate key inside a *scope*: an independent set
    /// of per-key windows identified by `scope`. A decision evaluated
    /// under an [`EvalContext`] carrying the same scope
    /// ([`EvalContext::with_rate_scope`]) reads these windows instead of
    /// the global ones, so tenants of one shared engine (e.g. the
    /// vehicles of a fleet simulation) get fully independent rate
    /// tracking. Scoped windows are reset by [`PolicyEngine::reload`],
    /// and — unlike the unscoped path — events for keys the loaded
    /// policies do not declare are dropped rather than parked, since no
    /// decision path ever reads them.
    pub fn observe_rate_event_scoped(&self, scope: u64, key: &str, now_us: u64) {
        self.rates.observe_scoped(scope, key, now_us);
    }

    /// Decides a request at time 0.
    pub fn decide(&self, req: &AccessRequest, ctx: &EvalContext) -> Decision {
        self.decide_at(req, ctx, 0)
    }

    /// Decides a request at an explicit time (microseconds), which both
    /// timestamps the audit record and positions the rate windows.
    pub fn decide_at(&self, req: &AccessRequest, ctx: &EvalContext, now_us: u64) -> Decision {
        let subject_key = (
            req.subject().namespace_symbol(),
            req.subject().name_symbol(),
        );
        let bucket = if self.indexing {
            self.subject_index.get(&subject_key)
        } else {
            None
        };
        let cacheable = self.caching
            && if self.indexing {
                bucket.map_or(self.unindexed_cache_safe, |b| b.cache_safe)
            } else {
                self.all_cache_safe
            };

        let key = self.cache_key(req, ctx);
        if cacheable {
            if let Some(packed) = self.cache.lookup(key) {
                let decision = self.unpack(packed);
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.finish(req, decision, 0, now_us);
                return decision;
            }
        }

        let mut examined = 0u64;
        let overlay = RateOverlay { table: &self.rates, ctx, now_us };
        let outcome = if self.indexing {
            let indexed: &[u32] = bucket.map(|b| b.rules.as_slice()).unwrap_or(&[]);
            self.combine(
                req,
                ctx,
                &overlay,
                MergeSorted::new(indexed, &self.unindexed),
                &mut examined,
            )
        } else {
            self.combine(req, ctx, &overlay, 0..self.rules.len() as u32, &mut examined)
        };
        let decision = self.render(outcome);
        if cacheable {
            self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
            self.cache.insert(key, pack_outcome(outcome));
        }
        self.finish(req, decision, examined, now_us);
        decision
    }

    #[inline]
    fn cache_key(&self, req: &AccessRequest, ctx: &EvalContext) -> [u64; 3] {
        let s = req.subject();
        let o = req.object();
        let k0 = (u64::from(s.namespace_symbol().as_u32()) << 32)
            | u64::from(s.name_symbol().as_u32());
        let k1 = (u64::from(o.namespace_symbol().as_u32()) << 32)
            | u64::from(o.name_symbol().as_u32());
        let generation = u64::from(self.generation.load(Ordering::Acquire)) & 0xF_FFFF;
        let (mode_present, mode) = match ctx.mode_symbol() {
            Some(m) => (1u64, u64::from(m.as_u32())),
            None => (0, 0),
        };
        let k2 = KEY_VALID
            | (generation << 42)
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
        let tag = |idx: u32| {
            let r = &self.rules[idx as usize];
            RuleTag { qualified: r.qualified, id: r.id }
        };
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

    #[inline]
    fn finish(&self, req: &AccessRequest, decision: Decision, examined: u64, now_us: u64) {
        let c = &self.counters;
        c.decisions.fetch_add(1, Ordering::Relaxed);
        c.rules_examined.fetch_add(examined, Ordering::Relaxed);
        match decision.effect {
            Effect::Allow => c.allows.fetch_add(1, Ordering::Relaxed),
            Effect::Deny => c.denies.fetch_add(1, Ordering::Relaxed),
        };
        if decision.rule.is_none() {
            c.defaults.fetch_add(1, Ordering::Relaxed);
        }
        self.audit
            .record(now_us, *req, decision.effect, decision.rule.map(|t| t.qualified));
    }

    fn combine<I: Iterator<Item = u32>>(
        &self,
        req: &AccessRequest,
        ctx: &EvalContext,
        rates: &dyn RateSource,
        candidates: I,
        examined: &mut u64,
    ) -> Outcome {
        match self.strategy {
            CombiningStrategy::FirstMatch => {
                for i in candidates {
                    *examined += 1;
                    if self.rules[i as usize].rule.applies_with(req, ctx, rates) {
                        return Outcome::FirstMatch(i);
                    }
                }
                Outcome::Default
            }
            CombiningStrategy::DenyOverrides => {
                let mut allow: Option<u32> = None;
                for i in candidates {
                    *examined += 1;
                    let rule = &self.rules[i as usize].rule;
                    if rule.applies_with(req, ctx, rates) {
                        if rule.effect() == Effect::Deny {
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
                    *examined += 1;
                    let rule = &self.rules[i as usize].rule;
                    if rule.applies_with(req, ctx, rates) {
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

    /// Snapshot of evaluation statistics.
    pub fn stats(&self) -> EngineStats {
        let c = &self.counters;
        EngineStats {
            decisions: c.decisions.load(Ordering::Relaxed),
            allows: c.allows.load(Ordering::Relaxed),
            denies: c.denies.load(Ordering::Relaxed),
            defaults: c.defaults.load(Ordering::Relaxed),
            rules_examined: c.rules_examined.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Runs a closure over a merged snapshot of the audit log.
    pub fn with_audit<R>(&self, f: impl FnOnce(&AuditLog) -> R) -> R {
        f(&self.audit.snapshot(&self.counters))
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
        let p = Policy::new("p", 1)
            .add_rule(
                Rule::new(
                    "rate-limited",
                    Effect::Allow,
                    ActionSet::only(Action::Write),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .when(Condition::RateAtMost { key: "w".into(), max_per_sec: 2 }),
            )
            .unwrap();
        let e = PolicyEngine::from_policy(p);
        let r = req("entry:x", "asset:y", Action::Write);
        let ctx = EvalContext::new();
        // two events within the window: still allowed
        e.observe_rate_event("w", 1_000);
        e.observe_rate_event("w", 2_000);
        assert!(e.decide_at(&r, &ctx, 3_000).is_allow());
        // third event pushes over the limit
        e.observe_rate_event("w", 3_000);
        assert!(!e.decide_at(&r, &ctx, 4_000).is_allow());
        // a second later the window has drained
        assert!(e.decide_at(&r, &ctx, 1_200_000).is_allow());
    }

    #[test]
    fn scoped_rate_windows_are_independent() {
        let p = Policy::new("p", 1)
            .add_rule(
                Rule::new(
                    "rate-limited",
                    Effect::Allow,
                    ActionSet::only(Action::Write),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .when(Condition::RateAtMost { key: "cmd".into(), max_per_sec: 2 }),
            )
            .unwrap();
        let e = PolicyEngine::from_policy(p);
        let r = req("entry:x", "asset:y", Action::Write);
        let scope_a = EvalContext::new().with_rate_scope(0);
        let scope_b = EvalContext::new().with_rate_scope(1);
        // flood scope 0 only
        for t in 0..5 {
            e.observe_rate_event_scoped(0, "cmd", 1_000 + t);
        }
        assert!(!e.decide_at(&r, &scope_a, 2_000).is_allow(), "scope 0 over limit");
        assert!(e.decide_at(&r, &scope_b, 2_000).is_allow(), "scope 1 untouched");
        // the global (unscoped) window is untouched by scoped observations
        assert!(e.decide_at(&r, &EvalContext::new(), 2_000).is_allow());
        // and global observations do not bleed into scopes
        for t in 0..5 {
            e.observe_rate_event("cmd", 10_000 + t);
        }
        assert!(e.decide_at(&r, &scope_b, 11_000).is_allow());
        assert!(!e.decide_at(&r, &EvalContext::new(), 11_000).is_allow());
    }

    #[test]
    fn scoped_undeclared_keys_are_dropped_not_parked() {
        // No decision path reads scoped undeclared keys, so they must not
        // occupy (or evict from) the bounded dynamic table.
        let e = PolicyEngine::from_policy(Policy::new("empty", 1));
        e.observe_rate_event_scoped(3, "burst", 1_000);
        e.observe_rate_event_scoped(4, "burst", 1_000);
        assert_eq!(e.dynamic_rate_keys(), 0);
        // unscoped undeclared keys still get their replay-on-declare slot
        e.observe_rate_event("burst", 1_000);
        assert_eq!(e.dynamic_rate_keys(), 1);
    }

    #[test]
    fn reload_resets_scoped_windows() {
        let rate_rule = |key: &str| {
            Policy::new("p", 1)
                .add_rule(
                    Rule::new(
                        "rl",
                        Effect::Allow,
                        ActionSet::only(Action::Write),
                        EntityMatcher::anything(),
                        EntityMatcher::anything(),
                    )
                    .when(Condition::RateAtMost { key: key.into(), max_per_sec: 1 }),
                )
                .unwrap()
        };
        let mut e = PolicyEngine::from_policy(rate_rule("k"));
        let scoped = EvalContext::new().with_rate_scope(7);
        e.observe_rate_event_scoped(7, "k", 1_000);
        e.observe_rate_event_scoped(7, "k", 1_001);
        let r = req("entry:x", "asset:y", Action::Write);
        assert!(!e.decide_at(&r, &scoped, 2_000).is_allow());
        e.reload(PolicySet::from_policy(rate_rule("k")));
        assert!(
            e.decide_at(&r, &scoped, 2_000).is_allow(),
            "a reload starts every scope's windows empty"
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
        e.with_audit(|log| {
            assert_eq!(log.len(), 2);
            assert_eq!(log.denies(), 1);
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
        e.with_audit(|log| assert_eq!(log.len(), 2));
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
        e.with_audit(|log| {
            assert_eq!(log.len(), 5);
            assert_eq!(log.denies(), 5);
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
    fn rate_conditions_bypass_the_cache() {
        let p = Policy::new("p", 1)
            .add_rule(
                Rule::new(
                    "flood-gate",
                    Effect::Allow,
                    ActionSet::only(Action::Write),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .when(Condition::RateAtMost { key: "f".into(), max_per_sec: 1 }),
            )
            .unwrap();
        let e = PolicyEngine::from_policy(p);
        let r = req("entry:x", "asset:y", Action::Write);
        let ctx = EvalContext::new();
        assert!(e.decide_at(&r, &ctx, 1_000).is_allow());
        e.observe_rate_event("f", 2_000);
        e.observe_rate_event("f", 3_000);
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
    }

    #[test]
    fn dynamic_rate_keys_are_bounded_and_pruned(){
        let e = demo_engine(CombiningStrategy::DenyOverrides);
        // Undeclared keys go to the bounded side table...
        for i in 0..2_000 {
            e.observe_rate_event(&format!("burst-key-{i}"), 1_000 + i);
        }
        assert!(e.dynamic_rate_keys() <= 1_024, "dynamic keys must stay bounded");
        // ...and a sweep far in the future prunes idle windows entirely.
        e.observe_rate_event("late-key", 10_000_000_000);
        for i in 0..1_100 {
            e.observe_rate_event(&format!("late-{i}"), 10_000_000_000 + i);
        }
        assert!(e.dynamic_rate_keys() <= 1_024);
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
