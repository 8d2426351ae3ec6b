//! Deterministic cross-shard message plane with epoch barriers.
//!
//! [`run_sharded`](crate::shard::run_sharded) runs shards that never talk to
//! each other. Inter-shard workloads (V2X platooning broadcasts, fleet-wide
//! OTA rollout) need shards to exchange messages *without* giving up the
//! determinism contract: merged metrics — and every shard's view of its
//! mail — must be byte-identical at any thread count.
//!
//! [`run_epochs`] achieves this with an epoch barrier. Shards run one epoch
//! of work concurrently, each writing outgoing mail into its own
//! [`Outbox`]; the router collects every outbox **in shard-index order**,
//! routes each [`Envelope`] by deterministic rules (unicast addresses,
//! registered broadcast groups), and builds the next epoch's inboxes.
//! Because outboxes are drained in shard order and a shard assigns its
//! envelopes strictly increasing sequence numbers, every inbox is sorted by
//! `(sender_shard, seq)` — a pure function of the per-shard work, never of
//! thread scheduling. After the last epoch each shard's final state is
//! handed to `finish` on the calling thread, in shard-index order, with the
//! run's one [`MetricSet`]; no per-shard result table is kept. Because
//! `finish` is an `FnMut`, a caller may instead fold each state into a
//! typed tally of its own and render that into the set once.
//!
//! # The barrier
//!
//! One loop runs every epoch at every thread count. The calling thread
//! opens the epoch; it and `threads - 1` helper threads (spawned once per
//! run) claim shards from one guided cursor and step them. Once every
//! shard has stepped, the caller routes all outboxes in shard-index order
//! and swaps the double-buffered inboxes. Outboxes and inboxes keep their
//! buffers for the whole run, so steady-state routing allocates nothing.
//! Mail sent in epoch N is readable in epoch N+1. See DESIGN.md §12.
//!
//! # Fault injection
//!
//! [`run_epochs_faulted`] accepts an optional [`FaultPlan`] that perturbs
//! deliveries *at the barrier*: per-delivery drop, duplication,
//! delay-by-k-epochs and inbox reordering, each decided by a generator
//! derived purely from `(plan seed, epoch, sender, seq, receiver)` via
//! [`DetRng::stream_keys`]. Every decision happens on the single routing
//! thread and keys off routing-visible identifiers only, so a faulted run
//! is exactly as thread-count-invariant as a clean one — chaos experiments
//! replay byte-for-byte.
//!
//! # Example
//! ```
//! use polsec_sim::plane::{run_epochs, Address, MessagePlane};
//!
//! let mut plane = MessagePlane::new();
//! plane.group(1, 0..4); // broadcast group 1 = every shard
//! let merged = run_epochs(
//!     4,
//!     2,
//!     3,
//!     &plane,
//!     |shard| shard as u64, // state: just my index
//!     |state, ctx| {
//!         // everyone heard everyone else's previous-epoch broadcast
//!         for env in ctx.inbox {
//!             assert_ne!(env.from, ctx.shard);
//!             *state += env.msg;
//!         }
//!         ctx.outbox.broadcast(1, 1u64);
//!     },
//!     |state, metrics| metrics.count("sum", state),
//! );
//! // each shard heard 3 others for 2 epochs (final-epoch mail is never
//! // consumed), plus its own index
//! assert_eq!(merged.counter("sum"), (0 + 1 + 2 + 3) + 4 * 3 * 2);
//! ```

use crate::metrics::MetricSet;
use crate::rng::DetRng;
use crate::shard::{claim_chunk, resolve_threads};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};

/// Identifier of a broadcast group registered on a [`MessagePlane`].
pub type GroupId = u32;

/// Where an envelope is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Address {
    /// One specific shard (delivery to self is allowed and arrives next
    /// epoch, like any other mail).
    Unicast(usize),
    /// Every member of a registered broadcast group **except the sender**.
    Broadcast(GroupId),
}

/// One routed message: sender shard, per-sender sequence number, address
/// and payload. Inboxes are sorted by `(from, seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The sending shard.
    pub from: usize,
    /// The sender-assigned sequence number (strictly increasing per shard
    /// per run, across epochs).
    pub seq: u32,
    /// The address the sender used.
    pub to: Address,
    /// The payload.
    pub msg: M,
}

/// A shard's outgoing mail for the current epoch.
#[derive(Debug)]
pub struct Outbox<M> {
    from: usize,
    next_seq: u32,
    mail: Vec<Envelope<M>>,
}

impl<M> Outbox<M> {
    /// Queues a message to an explicit address.
    pub fn send(&mut self, to: Address, msg: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.mail.push(Envelope {
            from: self.from,
            seq,
            to,
            msg,
        });
    }

    /// Queues a message to one shard.
    pub fn unicast(&mut self, to: usize, msg: M) {
        self.send(Address::Unicast(to), msg);
    }

    /// Queues a message to a broadcast group.
    pub fn broadcast(&mut self, group: GroupId, msg: M) {
        self.send(Address::Broadcast(group), msg);
    }
}

/// Deterministic routing rules: which shards belong to which broadcast
/// group, and how large a per-epoch inbox may grow. Routing itself happens
/// inside [`run_epochs`] at each barrier.
#[derive(Debug, Clone, Default)]
pub struct MessagePlane {
    groups: BTreeMap<GroupId, Vec<usize>>,
    inbox_capacity: Option<usize>,
}

impl MessagePlane {
    /// Creates a plane with no groups (only unicast routes) and unbounded
    /// inboxes.
    pub fn new() -> Self {
        MessagePlane::default()
    }

    /// Registers (or replaces) a broadcast group. Members are sorted and
    /// deduplicated, so registration order can never influence delivery
    /// order.
    pub fn group(&mut self, id: GroupId, members: impl IntoIterator<Item = usize>) -> &mut Self {
        let mut m: Vec<usize> = members.into_iter().collect();
        m.sort_unstable();
        m.dedup();
        self.groups.insert(id, m);
        self
    }

    /// The members of a group (empty for unknown groups).
    pub fn members(&self, id: GroupId) -> &[usize] {
        self.groups.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Bounds every shard's per-epoch inbox to `capacity` envelopes
    /// (minimum 1). Overflowing deliveries are dropped newest-first — the
    /// same keep-first semantics as [`Trace`](crate::Trace) — and counted
    /// under `plane.inbox_overflow`.
    pub fn bound_inboxes(&mut self, capacity: usize) -> &mut Self {
        self.inbox_capacity = Some(capacity.max(1));
        self
    }

    /// The configured inbox bound, if any.
    pub fn inbox_capacity(&self) -> Option<usize> {
        self.inbox_capacity
    }
}

/// A deterministic fault-injection plan for the message plane.
///
/// Each delivery (one `(envelope, destination)` pair) gets its own decision
/// stream derived from `(seed, epoch, sender, seq, receiver)`; the plan can
/// drop the delivery, duplicate it, and delay each surviving copy by
/// `1..=max_delay_epochs` epochs. Independently, assembled inboxes are
/// perturbed by adjacent-pair swaps with probability `reorder` per pair.
/// All decisions are made on the routing thread, so a faulted run stays
/// byte-identical at any thread count.
///
/// # Example
/// ```
/// use polsec_sim::FaultPlan;
/// let mut plan = FaultPlan::new(42);
/// plan.drop = 0.3;
/// plan.delay = 0.2;
/// plan.max_delay_epochs = 2;
/// assert!(plan.is_active());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Master seed for the per-delivery decision streams.
    pub seed: u64,
    /// Probability that a delivery is dropped entirely.
    pub drop: f64,
    /// Probability that a surviving delivery is duplicated (two copies).
    pub duplicate: f64,
    /// Probability that each surviving copy is delayed.
    pub delay: f64,
    /// Upper bound on the delay, in epochs (a delayed copy arrives
    /// uniformly `1..=max_delay_epochs` epochs late). `0` disables delays.
    pub max_delay_epochs: u32,
    /// Probability of swapping each adjacent envelope pair in an assembled
    /// inbox.
    pub reorder: f64,
}

impl FaultPlan {
    /// Salt separating the per-inbox reorder streams from the per-delivery
    /// decision streams.
    const REORDER_SALT: u64 = 0xD15C_04D3_5EED_0001;

    /// A plan with the given seed and every fault probability zero.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay_epochs: 0,
            reorder: 0.0,
        }
    }

    /// Whether the plan can ever perturb a delivery.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || (self.delay > 0.0 && self.max_delay_epochs > 0)
            || self.reorder > 0.0
    }
}

/// Counters the router accumulates while routing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PlaneStats {
    sent: u64,
    delivered: u64,
    unroutable: u64,
    fault_dropped: u64,
    duplicated: u64,
    delayed: u64,
    reordered: u64,
    inbox_overflow: u64,
    inbox_peak: u64,
}

/// Mail scheduled by the fault plan for a future epoch, keyed by delivery
/// epoch. Within one epoch, entries keep router insertion order.
type PendingMail<M> = BTreeMap<u64, Vec<(usize, Envelope<M>)>>;

/// The single-threaded router: owns the fault plan's parked mail and the
/// plane counters, and builds epoch N+1's inboxes from epoch N's outboxes.
/// Every method runs on the calling thread once every shard of the epoch
/// has stepped — that, not a lock, is what keeps fault decisions and
/// delivery order independent of thread scheduling.
struct Router<'p, M> {
    plane: &'p MessagePlane,
    shards: usize,
    faults: Option<&'p FaultPlan>,
    cap: usize,
    pending: PendingMail<M>,
    stats: PlaneStats,
}

impl<'p, M: Clone> Router<'p, M> {
    fn new(plane: &'p MessagePlane, shards: usize, faults: Option<&'p FaultPlan>) -> Self {
        Router {
            plane,
            shards,
            faults,
            cap: plane.inbox_capacity.unwrap_or(usize::MAX),
            pending: PendingMail::new(),
            stats: PlaneStats::default(),
        }
    }

    /// Opens the barrier work for `epoch`: clears the target inboxes
    /// (retaining their allocations) and delivers parked mail due now,
    /// ahead of any fresh mail — late arrivals jumping the queue is the
    /// observable effect of a delay fault.
    fn begin_epoch(&mut self, epoch: u64, inboxes: &mut [Vec<Envelope<M>>]) {
        for inbox in inboxes.iter_mut() {
            inbox.clear();
        }
        if let Some(due) = self.pending.remove(&(epoch + 1)) {
            for (dst, env) in due {
                self.deliver(inboxes, dst, env);
            }
        }
    }

    /// Routes (and drains) one shard's outbox. Callers must feed outboxes
    /// in shard-index order — that, plus per-shard strictly increasing
    /// sequence numbers, is what keeps fault-free inboxes sorted by
    /// `(from, seq)`.
    fn route_outbox(
        &mut self,
        epoch: u64,
        outbox: &mut Outbox<M>,
        inboxes: &mut [Vec<Envelope<M>>],
    ) {
        let plane = self.plane;
        for env in outbox.mail.drain(..) {
            self.stats.sent += 1;
            match env.to {
                Address::Unicast(dst) if dst < self.shards => {
                    self.deliver_faulted(epoch, inboxes, dst, env);
                }
                Address::Unicast(_) => self.stats.unroutable += 1,
                Address::Broadcast(group) => {
                    let mut hit = false;
                    for &dst in plane.members(group) {
                        if dst == env.from || dst >= self.shards {
                            continue;
                        }
                        hit = true;
                        self.deliver_faulted(epoch, inboxes, dst, env.clone());
                    }
                    if !hit {
                        self.stats.unroutable += 1;
                    }
                }
            }
        }
    }

    /// Applies the fault plan to one delivery: drop, duplicate, then delay
    /// each surviving copy. Immediate copies land in `inboxes`; delayed
    /// copies are parked under their target epoch.
    fn deliver_faulted(
        &mut self,
        epoch: u64,
        inboxes: &mut [Vec<Envelope<M>>],
        dst: usize,
        env: Envelope<M>,
    ) {
        let Some(plan) = self.faults else {
            self.deliver(inboxes, dst, env);
            return;
        };
        let mut rng = DetRng::stream_keys(
            plan.seed,
            &[epoch, env.from as u64, u64::from(env.seq), dst as u64],
        );
        if rng.chance(plan.drop) {
            self.stats.fault_dropped += 1;
            return;
        }
        let copies = if rng.chance(plan.duplicate) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let delayed_by = if plan.max_delay_epochs > 0 && rng.chance(plan.delay) {
                rng.range_inclusive(1, u64::from(plan.max_delay_epochs))
            } else {
                0
            };
            if delayed_by == 0 {
                self.deliver(inboxes, dst, env.clone());
            } else {
                self.stats.delayed += 1;
                // This barrier builds the inboxes for epoch+1; a copy delayed
                // by k lands k epochs after that.
                self.pending
                    .entry(epoch + 1 + delayed_by)
                    .or_default()
                    .push((dst, env.clone()));
            }
        }
    }

    /// Appends `env` to `dst`'s inbox, honouring the inbox bound
    /// (keep-first/drop-newest).
    fn deliver(&mut self, inboxes: &mut [Vec<Envelope<M>>], dst: usize, env: Envelope<M>) {
        let inbox = &mut inboxes[dst];
        if inbox.len() >= self.cap {
            self.stats.inbox_overflow += 1;
        } else {
            self.stats.delivered += 1;
            inbox.push(env);
        }
    }

    /// Closes the barrier for `epoch`: the explicit reorder-fault pass (one
    /// deterministic adjacent-swap sweep per inbox, keyed by
    /// `(seed, epoch, receiver)` so it is independent of traffic) and the
    /// inbox high-water mark.
    fn end_epoch(&mut self, epoch: u64, inboxes: &mut [Vec<Envelope<M>>]) {
        if let Some(plan) = self.faults {
            if plan.reorder > 0.0 {
                for (dst, inbox) in inboxes.iter_mut().enumerate() {
                    if inbox.len() < 2 {
                        continue;
                    }
                    let mut rng = DetRng::stream_keys(
                        plan.seed ^ FaultPlan::REORDER_SALT,
                        &[epoch, dst as u64],
                    );
                    for i in 1..inbox.len() {
                        if rng.chance(plan.reorder) {
                            inbox.swap(i - 1, i);
                            self.stats.reordered += 1;
                        }
                    }
                }
            }
        }
        for inbox in inboxes.iter() {
            self.stats.inbox_peak = self.stats.inbox_peak.max(inbox.len() as u64);
        }
        debug_assert!(
            self.faults.is_some()
                || inboxes.iter().all(|inbox| inbox
                    .windows(2)
                    .all(|w| (w[0].from, w[0].seq) < (w[1].from, w[1].seq)))
        );
    }

    /// Delayed copies still parked for epochs past the end of the run.
    fn parked(&self) -> u64 {
        self.pending.values().map(|v| v.len() as u64).sum()
    }
}

/// What one shard sees during one epoch.
#[derive(Debug)]
pub struct EpochCtx<'a, M> {
    /// This shard's index.
    pub shard: usize,
    /// The current epoch (0-based).
    pub epoch: u64,
    /// Total epochs in the run.
    pub epochs: u64,
    /// Mail routed to this shard at the previous barrier, sorted by
    /// `(sender_shard, seq)`. Empty in epoch 0.
    pub inbox: &'a [Envelope<M>],
    /// Outgoing mail; delivered at the next barrier.
    pub outbox: &'a mut Outbox<M>,
}

/// Runs `shards` stateful shard tasks for `epochs` epochs with a message
/// barrier between epochs, on up to `threads` workers (0 = available
/// parallelism), and returns the run's metric set.
///
/// * `init(shard)` builds shard state before epoch 0;
/// * `step(state, ctx)` runs one epoch — it reads `ctx.inbox` and writes
///   `ctx.outbox`;
/// * `finish(state, metrics)` adds the final state to the run's metric set
///   (or to anything else it holds mutably) after the last epoch, on the
///   calling thread, one shard after another in index order.
///
/// Mail sent during the final epoch has no consuming epoch; it is still
/// routed (so `plane.delivered` counts it) but recorded under
/// `plane.undelivered`.
///
/// The merged result additionally carries `plane.sent`, `plane.delivered`,
/// `plane.unroutable` (unroutable addresses / empty broadcast audiences)
/// and `plane.epochs` — all deterministic. This is the fault-free
/// convenience wrapper over [`run_epochs_faulted`].
///
/// # Determinism
/// As with [`run_sharded`](crate::shard::run_sharded), the merged metrics
/// are a pure function of `(shards, epochs, plane, init, step, finish)` —
/// the thread count can only change wall-clock time. Additionally every
/// shard's inbox content and order is thread-count-invariant.
///
/// # Panics
/// A panic inside any closure is propagated once every helper thread has
/// stopped, at any thread count.
pub fn run_epochs<S, M, Init, Step, Fin>(
    shards: usize,
    threads: usize,
    epochs: u64,
    plane: &MessagePlane,
    init: Init,
    step: Step,
    finish: Fin,
) -> MetricSet
where
    S: Send,
    M: Clone + Send + Sync,
    Init: Fn(usize) -> S + Sync,
    Step: Fn(&mut S, &mut EpochCtx<'_, M>) + Sync,
    Fin: FnMut(S, &mut MetricSet),
{
    run_epochs_faulted(shards, threads, epochs, plane, None, init, step, finish)
}

/// [`run_epochs`] with an optional deterministic [`FaultPlan`] applied at
/// every barrier.
///
/// On top of the fault-free counters, the merged result carries the fault
/// accounting — `plane.dropped` (fault drops), `plane.duplicated`,
/// `plane.delayed`, `plane.reordered` — plus `plane.inbox_overflow` and the
/// `plane.inbox_peak` high-water gauge for bounded inboxes. Undelivered
/// mail is pinned down exactly: `plane.undelivered_inbox` counts
/// final-epoch mail (routed into inboxes no epoch will read) and
/// `plane.undelivered_parked` counts delay-fault copies still parked past
/// the end of the run; `plane.undelivered` is their sum, always.
///
/// Fault decisions key off `(plan seed, epoch, sender, seq, receiver)` and
/// run on the single routing thread, so the determinism contract of
/// [`run_epochs`] — byte-identical merged metrics and inboxes at any
/// thread count — holds under any plan.
///
/// Shards step on the calling thread and `threads - 1` helper threads,
/// spawned once per run; with `threads <= 1` nothing is spawned. Routing
/// always runs on the calling thread once every shard of the epoch has
/// stepped, as described in the module docs, so every thread count
/// produces identical bytes.
#[allow(clippy::too_many_arguments)] // one optional plan over the stable run_epochs shape
pub fn run_epochs_faulted<S, M, Init, Step, Fin>(
    shards: usize,
    threads: usize,
    epochs: u64,
    plane: &MessagePlane,
    faults: Option<&FaultPlan>,
    init: Init,
    step: Step,
    mut finish: Fin,
) -> MetricSet
where
    S: Send,
    M: Clone + Send + Sync,
    Init: Fn(usize) -> S + Sync,
    Step: Fn(&mut S, &mut EpochCtx<'_, M>) + Sync,
    Fin: FnMut(S, &mut MetricSet),
{
    let threads = resolve_threads(threads).min(shards.max(1));
    let mut router = Router::new(plane, shards, faults);

    let (states, final_inboxes) = drive(&mut router, shards, threads, epochs, &init, &step);

    let undelivered_inbox: u64 = final_inboxes.iter().map(|inbox| inbox.len() as u64).sum();
    let parked = router.parked();
    let stats = router.stats;

    let mut merged = MetricSet::new();
    for (i, state) in states.into_iter().enumerate() {
        if let Some(state) = state {
            finish(state, &mut merged);
        } else {
            debug_assert!(epochs == 0, "shard {i} never ran");
        }
    }
    merged.count("plane.sent", stats.sent);
    merged.count("plane.delivered", stats.delivered);
    merged.count("plane.unroutable", stats.unroutable);
    merged.count("plane.dropped", stats.fault_dropped);
    merged.count("plane.duplicated", stats.duplicated);
    merged.count("plane.delayed", stats.delayed);
    merged.count("plane.reordered", stats.reordered);
    merged.count("plane.inbox_overflow", stats.inbox_overflow);
    merged.count("plane.undelivered", undelivered_inbox + parked);
    merged.count("plane.undelivered_inbox", undelivered_inbox);
    merged.count("plane.undelivered_parked", parked);
    merged.count("plane.epochs", epochs);
    merged.set_max("plane.inbox_peak", stats.inbox_peak);
    merged
}

/// One shard's state and its outbox. The outbox lives for the whole run:
/// it keeps the shard's sequence cursor and its buffer across epochs, and
/// routing drains it in place.
struct Slot<S, M> {
    state: Option<S>,
    outbox: Outbox<M>,
}

/// What the calling thread and its helpers agree on, under one mutex.
struct Gate {
    /// Epochs opened so far.
    opened: u64,
    /// Shards stepped in the open epoch.
    stepped: usize,
    /// Set when any thread leaves the run, normally or by a panic.
    stop: bool,
}

/// Sets `stop` and wakes every waiter when dropped. It does so on a normal
/// return and on an unwind alike, so a panicking thread never strands the
/// others mid-wait (the scope's join would deadlock instead of
/// propagating the panic).
struct Stop<'a> {
    gate: &'a Mutex<Gate>,
    wake: &'a Condvar,
}

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        lock(self.gate).stop = true;
        self.wake.notify_all();
    }
}

/// Runs every epoch: the calling thread opens it, steps shards claimed from
/// a guided cursor alongside `threads - 1` helper threads, then routes all
/// outboxes in shard-index order into its private `next` and swaps that
/// with `cur`, which the stepping threads read. Returns every shard's
/// state and the final epoch's inboxes.
fn drive<S, M, Init, Step>(
    router: &mut Router<'_, M>,
    shards: usize,
    threads: usize,
    epochs: u64,
    init: &Init,
    step: &Step,
) -> (Vec<Option<S>>, Vec<Vec<Envelope<M>>>)
where
    S: Send,
    M: Clone + Send + Sync,
    Init: Fn(usize) -> S + Sync,
    Step: Fn(&mut S, &mut EpochCtx<'_, M>) + Sync,
{
    let slots: Vec<Mutex<Slot<S, M>>> = (0..shards)
        .map(|from| {
            Mutex::new(Slot {
                state: None,
                outbox: Outbox {
                    from,
                    next_seq: 0,
                    mail: Vec::new(),
                },
            })
        })
        .collect();
    let cur: RwLock<Vec<Vec<Envelope<M>>>> = RwLock::new((0..shards).map(|_| Vec::new()).collect());
    let mut next: Vec<Vec<Envelope<M>>> = (0..shards).map(|_| Vec::new()).collect();
    let gate = Mutex::new(Gate {
        opened: 0,
        stepped: 0,
        stop: false,
    });
    let wake = Condvar::new();
    // One monotonic work cursor for the whole run: epoch e owns indices
    // [e*shards, (e+1)*shards), and claim_chunk never crosses the epoch
    // boundary, so a helper that wakes late claims nothing stale.
    let cursor = AtomicU64::new(0);
    let shards_u64 = shards as u64;

    // Steps every shard this thread claims in `epoch`; returns how many.
    let step_claimed = |epoch: u64| -> usize {
        let inboxes = cur.read().unwrap_or_else(PoisonError::into_inner);
        let base = epoch * shards_u64;
        let mut stepped = 0;
        while let Some((start, end)) = claim_chunk(&cursor, base + shards_u64, threads) {
            for i in (start - base) as usize..(end - base) as usize {
                let mut slot = lock(&slots[i]);
                let Slot { state, outbox } = &mut *slot;
                let state = state.get_or_insert_with(|| init(i));
                let mut ctx = EpochCtx {
                    shard: i,
                    epoch,
                    epochs,
                    inbox: &inboxes[i],
                    outbox,
                };
                step(state, &mut ctx);
            }
            stepped += (end - start) as usize;
        }
        stepped
    };

    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                let _stop = Stop {
                    gate: &gate,
                    wake: &wake,
                };
                let mut seen = 0;
                loop {
                    let g = lock(&gate);
                    let g = wake
                        .wait_while(g, |g| !g.stop && g.opened == seen)
                        .unwrap_or_else(PoisonError::into_inner);
                    if g.stop {
                        return;
                    }
                    seen = g.opened;
                    drop(g);
                    let stepped = step_claimed(seen - 1);
                    let mut g = lock(&gate);
                    g.stepped += stepped;
                    if g.stepped == shards {
                        drop(g);
                        wake.notify_all();
                    }
                }
            });
        }

        let _stop = Stop {
            gate: &gate,
            wake: &wake,
        };
        for epoch in 0..epochs {
            {
                let mut g = lock(&gate);
                g.opened = epoch + 1;
                g.stepped = 0;
            }
            // notify_all enters the kernel even with nobody waiting
            if threads > 1 {
                wake.notify_all();
            }
            let stepped = step_claimed(epoch);
            let mut g = lock(&gate);
            g.stepped += stepped;
            let g = wake
                .wait_while(g, |g| !g.stop && g.stepped < shards)
                .unwrap_or_else(PoisonError::into_inner);
            if g.stop {
                // A helper panicked; the scope's join propagates it.
                return;
            }
            drop(g);
            router.begin_epoch(epoch, &mut next);
            for slot in &slots {
                router.route_outbox(epoch, &mut lock(slot).outbox, &mut next);
            }
            router.end_epoch(epoch, &mut next);
            std::mem::swap(
                &mut *cur.write().unwrap_or_else(PoisonError::into_inner),
                &mut next,
            );
        }
    });

    let states = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner).state)
        .collect();
    let final_inboxes = cur.into_inner().unwrap_or_else(PoisonError::into_inner);
    (states, final_inboxes)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every shard logs its inbox as (from, seq) pairs into a histogram
    /// digest and broadcasts one message per epoch.
    fn digest_run(
        shards: usize,
        threads: usize,
        epochs: u64,
        faults: Option<&FaultPlan>,
    ) -> String {
        let mut plane = MessagePlane::new();
        plane.group(7, 0..shards);
        let merged = run_epochs_faulted(
            shards,
            threads,
            epochs,
            &plane,
            faults,
            |shard| (shard, 0u64),
            |state, ctx| {
                for env in ctx.inbox {
                    // fold inbox order into a deterministic digest
                    state.1 = state
                        .1
                        .wrapping_mul(0x100000001B3)
                        .wrapping_add((env.from as u64) << 32 | u64::from(env.seq))
                        .wrapping_add(u64::from(env.msg));
                }
                ctx.outbox.broadcast(7, ctx.shard as u32);
                if ctx.shard + 1 < ctx.epochs as usize {
                    ctx.outbox.unicast(ctx.shard + 1, 999);
                }
            },
            |state, m| {
                // 32 bits pin the inbox order just as well and keep the
                // histogram within the buckets below 2^32
                m.observe("digest", state.1 & 0xFFFF_FFFF);
                m.count("shards", 1);
            },
        );
        merged.to_json()
    }

    #[test]
    fn merged_metrics_and_inboxes_are_thread_count_invariant() {
        let reference = digest_run(9, 1, 5, None);
        for threads in [2, 4, 16] {
            assert_eq!(digest_run(9, threads, 5, None), reference, "threads={threads}");
        }
    }

    #[test]
    fn finish_folds_into_the_callers_own_tally_in_shard_order() {
        let plane = MessagePlane::new();
        let mut order = Vec::new();
        let merged = run_epochs(
            5,
            2,
            2,
            &plane,
            |shard| shard,
            |_, _: &mut EpochCtx<'_, u8>| {},
            |shard, _| order.push(shard),
        );
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(merged.counter("plane.epochs"), 2);
    }

    #[test]
    fn broadcast_excludes_sender_and_respects_membership() {
        let mut plane = MessagePlane::new();
        plane.group(1, [0, 2]);
        let merged = run_epochs(
            3,
            2,
            2,
            &plane,
            |shard| (shard, 0u64),
            |state, ctx| {
                state.1 += ctx.inbox.len() as u64;
                for env in ctx.inbox {
                    assert_ne!(env.from, ctx.shard, "no self-delivery on broadcast");
                }
                ctx.outbox.broadcast(1, 1u8);
            },
            |state, m| m.count(&format!("recv.{}", state.0), state.1),
        );
        // epoch 1 delivers epoch 0's broadcasts: shard 0 hears 1 and 2's
        // (members {0,2} minus sender → 0 hears from 1 and 2), shard 2
        // hears from 0 and 1, shard 1 is not a member and hears nothing.
        assert_eq!(merged.counter("recv.0"), 2);
        assert_eq!(merged.counter("recv.1"), 0);
        assert_eq!(merged.counter("recv.2"), 2);
    }

    #[test]
    fn inbox_is_sorted_by_sender_then_seq() {
        let mut plane = MessagePlane::new();
        plane.group(1, 0..6);
        run_epochs(
            6,
            3,
            4,
            &plane,
            |shard| shard,
            |_, ctx| {
                let keys: Vec<(usize, u32)> = ctx.inbox.iter().map(|e| (e.from, e.seq)).collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                assert_eq!(keys, sorted, "inbox must arrive in (from, seq) order");
                // several messages per epoch so sequences interleave
                ctx.outbox.broadcast(1, 0u8);
                ctx.outbox.broadcast(1, 1u8);
            },
            |_, _| {},
        );
    }

    #[test]
    fn seq_numbers_increase_across_epochs() {
        let plane = MessagePlane::new();
        let merged = run_epochs(
            2,
            1,
            3,
            &plane,
            |_| Vec::new(),
            |seen: &mut Vec<u32>, ctx| {
                for env in ctx.inbox {
                    seen.push(env.seq);
                }
                ctx.outbox.unicast(1 - ctx.shard, 0u8);
                ctx.outbox.unicast(1 - ctx.shard, 0u8);
            },
            |seen, m| {
                assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
                m.count("ok", 1);
            },
        );
        assert_eq!(merged.counter("ok"), 2);
        // 2 shards x 3 epochs x 2 messages
        assert_eq!(merged.counter("plane.sent"), 12);
        // final epoch's mail is routed but never consumed
        assert_eq!(merged.counter("plane.undelivered"), 4);
    }

    #[test]
    fn unroutable_mail_is_counted() {
        let plane = MessagePlane::new(); // no groups registered
        let merged = run_epochs(
            2,
            2,
            2,
            &plane,
            |_| (),
            |_, ctx| {
                ctx.outbox.unicast(99, 0u8); // out of range
                ctx.outbox.broadcast(42, 0u8); // unknown group
            },
            |_, _| {},
        );
        assert_eq!(merged.counter("plane.sent"), 8);
        assert_eq!(merged.counter("plane.unroutable"), 8);
        assert_eq!(merged.counter("plane.delivered"), 0);
        assert_eq!(merged.counter("plane.dropped"), 0, "no fault plan, no fault drops");
    }

    #[test]
    fn unicast_to_self_arrives_next_epoch() {
        let plane = MessagePlane::new();
        let merged = run_epochs(
            1,
            1,
            3,
            &plane,
            |_| 0u64,
            |heard, ctx| {
                *heard += ctx.inbox.len() as u64;
                ctx.outbox.unicast(0, 1u8);
            },
            |heard, m| m.count("self_heard", heard),
        );
        assert_eq!(merged.counter("self_heard"), 2);
    }

    #[test]
    fn zero_epochs_and_zero_shards_are_inert() {
        let plane = MessagePlane::new();
        let a = run_epochs::<(), u8, _, _, _>(4, 2, 0, &plane, |_| (), |_, _| {}, |_, _| {});
        assert_eq!(a.counter("plane.sent"), 0);
        let b = run_epochs::<(), u8, _, _, _>(0, 2, 3, &plane, |_| (), |_, _| {}, |_, _| {});
        assert_eq!(b.counter("plane.epochs"), 3);
    }

    /// A chaotic fault plan: ≥30% drop, duplication, 2-epoch delays and
    /// reordering all at once.
    fn chaotic_plan() -> FaultPlan {
        let mut plan = FaultPlan::new(0xFA_117);
        plan.drop = 0.35;
        plan.duplicate = 0.25;
        plan.delay = 0.30;
        plan.max_delay_epochs = 2;
        plan.reorder = 0.20;
        plan
    }

    #[test]
    fn faulted_runs_are_thread_count_invariant() {
        let plan = chaotic_plan();
        let reference = digest_run(9, 1, 6, Some(&plan));
        for threads in [2, 4, 16] {
            assert_eq!(digest_run(9, threads, 6, Some(&plan)), reference, "threads={threads}");
        }
    }

    #[test]
    fn faulted_run_actually_faults_and_accounts_for_every_delivery() {
        let json = digest_run(9, 2, 6, Some(&chaotic_plan()));
        // Re-run to a MetricSet for counter access (same pure function).
        let mut plane = MessagePlane::new();
        plane.group(7, 0..9);
        let merged = run_epochs_faulted(
            9,
            2,
            6,
            &plane,
            Some(&chaotic_plan()),
            |shard| shard,
            |_, ctx| {
                ctx.outbox.broadcast(7, 0u32);
                ctx.outbox.unicast((ctx.shard + 1) % 9, 777);
            },
            |_, _| {},
        );
        assert!(!json.is_empty());
        for key in ["plane.dropped", "plane.duplicated", "plane.delayed", "plane.reordered"] {
            assert!(merged.counter(key) > 0, "{key} never fired under a 30%+ plan");
        }
        // Conservation: every routed delivery attempt is delivered now or
        // dropped; delayed copies still parked at the end sit inside
        // plane.undelivered, delivered ones were counted on arrival.
        let attempts = merged.counter("plane.delivered") + merged.counter("plane.dropped");
        assert!(attempts > 0);
    }

    #[test]
    fn inactive_fault_plan_matches_fault_free_run() {
        let inert = FaultPlan::new(123);
        assert!(!inert.is_active());
        assert_eq!(
            digest_run(6, 2, 4, Some(&inert)),
            digest_run(6, 2, 4, None),
            "a zero-probability plan must be a no-op"
        );
    }

    #[test]
    fn delayed_mail_arrives_exactly_k_epochs_late() {
        let plane = MessagePlane::new();
        let mut plan = FaultPlan::new(1);
        plan.delay = 1.0;
        plan.max_delay_epochs = 1; // every delivery delayed by exactly 1 epoch
        let merged = run_epochs_faulted(
            2,
            1,
            4,
            &plane,
            Some(&plan),
            |_| Vec::new(),
            |arrivals: &mut Vec<(u64, u32)>, ctx| {
                for env in ctx.inbox {
                    arrivals.push((ctx.epoch, env.seq));
                }
                if ctx.epoch == 0 {
                    ctx.outbox.unicast(1 - ctx.shard, 0u8);
                }
            },
            |arrivals, m| {
                for (epoch, _) in &arrivals {
                    // sent in epoch 0, normal arrival would be epoch 1;
                    // a 1-epoch delay makes it epoch 2.
                    assert_eq!(*epoch, 2, "delayed delivery landed in epoch {epoch}");
                }
                m.count("arrived", arrivals.len() as u64);
            },
        );
        assert_eq!(merged.counter("arrived"), 2);
        assert_eq!(merged.counter("plane.delayed"), 2);
        assert_eq!(merged.counter("plane.dropped"), 0);
    }

    #[test]
    fn duplicated_mail_is_delivered_twice_and_counted() {
        let plane = MessagePlane::new();
        let mut plan = FaultPlan::new(2);
        plan.duplicate = 1.0;
        let merged = run_epochs_faulted(
            2,
            1,
            2,
            &plane,
            Some(&plan),
            |_| 0u64,
            |heard, ctx| {
                *heard += ctx.inbox.len() as u64;
                if ctx.epoch == 0 {
                    ctx.outbox.unicast(1 - ctx.shard, 0u8);
                }
            },
            |heard, m| m.count("heard", heard),
        );
        assert_eq!(merged.counter("heard"), 4, "each unicast arrives twice");
        assert_eq!(merged.counter("plane.duplicated"), 2);
        assert_eq!(merged.counter("plane.delivered"), 4);
        assert_eq!(merged.counter("plane.sent"), 2);
    }

    #[test]
    fn reorder_permutes_but_preserves_the_inbox_multiset() {
        let mut plane = MessagePlane::new();
        plane.group(1, 0..5);
        let mut plan = FaultPlan::new(3);
        plan.reorder = 1.0; // every adjacent pair swaps: a full bubble pass
        let merged = run_epochs_faulted(
            5,
            2,
            3,
            &plane,
            Some(&plan),
            |_| (0u64, 0u64),
            |(seen, out_of_order), ctx| {
                let keys: Vec<(usize, u32)> = ctx.inbox.iter().map(|e| (e.from, e.seq)).collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), keys.len(), "reorder must not lose or clone mail");
                if keys.windows(2).any(|w| w[0] > w[1]) {
                    *out_of_order += 1;
                }
                *seen += keys.len() as u64;
                ctx.outbox.broadcast(1, ctx.shard as u32);
            },
            |(seen, out_of_order), m| {
                m.count("seen", seen);
                m.count("out_of_order_epochs", out_of_order);
            },
        );
        // 5 shards broadcasting to 4 others for 2 consumable epochs.
        assert_eq!(merged.counter("seen"), 5 * 4 * 2);
        assert!(merged.counter("out_of_order_epochs") > 0, "full swap pass must disorder");
        assert!(merged.counter("plane.reordered") > 0);
    }

    #[test]
    fn bounded_inboxes_keep_first_and_count_overflow() {
        let mut plane = MessagePlane::new();
        plane.group(1, 0..4).bound_inboxes(2);
        assert_eq!(plane.inbox_capacity(), Some(2));
        let merged = run_epochs(
            4,
            2,
            3,
            &plane,
            |_| 0u64,
            |heard, ctx| {
                assert!(ctx.inbox.len() <= 2, "inbox exceeded its bound");
                if !ctx.inbox.is_empty() {
                    // keep-first: the two lowest-(from, seq) broadcasts —
                    // the first two other shards — survive; the last
                    // sender's mail is the one dropped.
                    let kept: Vec<usize> = ctx.inbox.iter().map(|e| e.from).collect();
                    let expect: Vec<usize> =
                        (0..4).filter(|&f| f != ctx.shard).take(2).collect();
                    assert_eq!(kept, expect, "drop-newest kept the wrong envelopes");
                }
                *heard += ctx.inbox.len() as u64;
                ctx.outbox.broadcast(1, 0u8);
            },
            |heard, m| m.count("heard", heard),
        );
        // Each of 4 shards hears 3 broadcasts per epoch unbounded; bound 2
        // keeps 2, drops 1, for 2 consumable epochs.
        assert_eq!(merged.counter("heard"), 4 * 2 * 2);
        assert_eq!(merged.counter("plane.inbox_overflow"), 4 * 3);
        assert_eq!(merged.counter("plane.inbox_peak"), 2);
    }

    #[test]
    fn undelivered_splits_exactly_into_final_inbox_and_parked() {
        // Fault-free: everything undelivered is final-epoch inbox mail.
        let plane = MessagePlane::new();
        let merged = run_epochs(
            2,
            1,
            3,
            &plane,
            |_| (),
            |_, ctx| {
                ctx.outbox.unicast(1 - ctx.shard, 0u8);
            },
            |_, _| {},
        );
        assert_eq!(merged.counter("plane.undelivered_inbox"), 2);
        assert_eq!(merged.counter("plane.undelivered_parked"), 0);
        assert_eq!(
            merged.counter("plane.undelivered"),
            merged.counter("plane.undelivered_inbox")
        );

        // All-delayed: mail sent in the last epoch parks past the run end.
        let mut plan = FaultPlan::new(9);
        plan.delay = 1.0;
        plan.max_delay_epochs = 3;
        let merged = run_epochs_faulted(
            2,
            1,
            2,
            &plane,
            Some(&plan),
            |_| (),
            |_, ctx| {
                if ctx.epoch == 1 {
                    ctx.outbox.unicast(1 - ctx.shard, 0u8);
                }
            },
            |_, _| {},
        );
        assert_eq!(merged.counter("plane.undelivered_inbox"), 0);
        assert_eq!(merged.counter("plane.undelivered_parked"), 2);
        assert_eq!(merged.counter("plane.undelivered"), 2);

        // The identity holds under a chaotic plan at several thread counts.
        for threads in [1, 2, 4] {
            let mut chaos_plane = MessagePlane::new();
            chaos_plane.group(7, 0..6);
            let merged = run_epochs_faulted(
                6,
                threads,
                5,
                &chaos_plane,
                Some(&chaotic_plan()),
                |shard| shard,
                |_, ctx| {
                    ctx.outbox.broadcast(7, ctx.shard as u32);
                },
                |_, _| {},
            );
            assert_eq!(
                merged.counter("plane.undelivered"),
                merged.counter("plane.undelivered_inbox")
                    + merged.counter("plane.undelivered_parked"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn fault_decisions_are_pinned() {
        // Known-answer: the exact drop/duplicate/delay pattern of a pinned
        // plan over a pinned workload. If DetRng::stream_keys or the
        // decision order changes, replayed chaos experiments silently
        // diverge — this test makes that loud.
        let mut plane = MessagePlane::new();
        plane.group(7, 0..4);
        let merged = run_epochs_faulted(
            4,
            1,
            5,
            &plane,
            Some(&chaotic_plan()),
            |shard| shard,
            |_, ctx| {
                ctx.outbox.broadcast(7, ctx.shard as u32);
            },
            |_, _| {},
        );
        let snapshot: Vec<(String, u64)> = merged
            .counters()
            .filter(|(k, _)| k.starts_with("plane."))
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let got = format!("{snapshot:?}");
        assert_eq!(
            got,
            "[(\"plane.delayed\", 16), (\"plane.delivered\", 44), (\"plane.dropped\", 15), \
             (\"plane.duplicated\", 6), (\"plane.epochs\", 5), (\"plane.inbox_overflow\", 0), \
             (\"plane.inbox_peak\", 4), (\"plane.reordered\", 2), (\"plane.sent\", 20), \
             (\"plane.undelivered\", 15), (\"plane.undelivered_inbox\", 8), \
             (\"plane.undelivered_parked\", 7), (\"plane.unroutable\", 0)]",
            "pinned fault plan decisions moved"
        );
    }

    #[test]
    fn a_panic_fails_the_run_at_any_thread_count() {
        // The (shard, epoch) whose step panics: the first shard in the
        // first epoch, a middle shard in a later one, the last shard in
        // the last one. `None` panics in `init` instead.
        let cases = [Some((0, 0)), Some((4, 2)), Some((8, 3)), None];
        for threads in [1, 2, 4] {
            for case in cases {
                // The run gets a thread of its own, so a run that hangs
                // fails the test instead of blocking it.
                let (done, result) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let mut plane = MessagePlane::new();
                    plane.group(1, 0..9);
                    // No step runs until every stepping thread has taken a
                    // shard in the epoch, so the panic lands on helper
                    // threads as well as on the calling one.
                    let arrived = (Mutex::new(Vec::new()), Condvar::new());
                    let run = std::panic::catch_unwind(|| {
                        run_epochs(
                            9,
                            threads,
                            4,
                            &plane,
                            |shard| {
                                assert!(case.is_some() || shard != 5, "init panics");
                            },
                            |_, ctx| {
                                let me = (ctx.epoch, std::thread::current().id());
                                let mut seen = arrived.0.lock().unwrap();
                                if !seen.contains(&me) {
                                    seen.push(me);
                                    arrived.1.notify_all();
                                }
                                let in_epoch = |s: &mut Vec<(u64, _)>| {
                                    s.iter().filter(|(e, _)| *e == ctx.epoch).count()
                                };
                                drop(arrived.1.wait_while(seen, |s| in_epoch(s) < threads));
                                assert_ne!(case, Some((ctx.shard, ctx.epoch)), "step panics");
                                ctx.outbox.broadcast(1, 0u8);
                            },
                            |_, _| {},
                        )
                    });
                    let _ = done.send(run.is_err());
                });
                let failed = result
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .unwrap_or_else(|e| panic!("threads={threads} {case:?}: no result ({e})"));
                assert!(
                    failed,
                    "threads={threads} {case:?}: the panic was swallowed"
                );
            }
        }
    }

    #[test]
    fn group_membership_is_order_insensitive_and_deduped() {
        let mut plane = MessagePlane::new();
        plane.group(1, [3, 1, 2, 1]);
        assert_eq!(plane.members(1), &[1, 2, 3]);
        assert_eq!(plane.members(9), &[] as &[usize]);
    }
}
