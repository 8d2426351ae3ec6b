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
//! added straight into the run's one [`MetricSet`]; no per-shard result
//! table is kept.
//!
//! # The overlapped barrier
//!
//! The barrier is *pipelined*, not serial: a persistent worker pool claims
//! shards from a guided chunked work queue (stragglers never idle whole
//! workers behind a static partition), and the routing thread consumes
//! finished outboxes in shard-index order **while later shards of the same
//! epoch are still running** — the serial section shrinks to the tail
//! shard plus one buffer swap. Inboxes are double-buffered (workers read
//! epoch N's buffer while the router fills epoch N+1's) and every envelope
//! `Vec` is recycled through a buffer pool at the barrier, so steady-state
//! routing performs no allocation. Delivery latency is unchanged: mail
//! sent in epoch N is readable in epoch N+1, which is what keeps every
//! latency-sensitive invariant (ack round-trips, delay-fault arithmetic)
//! identical to the historical serial barrier. See DESIGN.md §12.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, RwLock};

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
    /// Wraps a (cleared) recycled buffer — the per-epoch arena: outbox
    /// vectors cycle worker → router → pool → worker, so steady-state
    /// sending allocates only when a shard outgrows every pooled buffer.
    fn with_buffer(from: usize, next_seq: u32, mail: Vec<Envelope<M>>) -> Self {
        debug_assert!(mail.is_empty());
        Outbox {
            from,
            next_seq,
            mail,
        }
    }

    /// Reclaims the (drained) buffer for the pool.
    fn into_buffer(mut self) -> Vec<Envelope<M>> {
        self.mail.clear();
        self.mail
    }

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

    /// Messages queued so far this epoch.
    pub fn len(&self) -> usize {
        self.mail.len()
    }

    /// Whether nothing has been queued this epoch.
    pub fn is_empty(&self) -> bool {
        self.mail.is_empty()
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

/// Appends `env` to `dst`'s inbox, honouring the inbox bound
/// (keep-first/drop-newest).
fn deliver<M>(
    inboxes: &mut [Vec<Envelope<M>>],
    dst: usize,
    env: Envelope<M>,
    cap: usize,
    stats: &mut PlaneStats,
) {
    let inbox = &mut inboxes[dst];
    if inbox.len() >= cap {
        stats.inbox_overflow += 1;
    } else {
        stats.delivered += 1;
        inbox.push(env);
    }
}

/// Applies the fault plan to one delivery: drop, duplicate, then delay each
/// surviving copy. Immediate copies land in `inboxes`; delayed copies are
/// parked in `pending` under their target epoch.
#[allow(clippy::too_many_arguments)] // router plumbing: all state is threaded explicitly
fn fault_deliver<M: Clone>(
    faults: Option<&FaultPlan>,
    epoch: u64,
    cap: usize,
    inboxes: &mut [Vec<Envelope<M>>],
    pending: &mut PendingMail<M>,
    stats: &mut PlaneStats,
    dst: usize,
    env: Envelope<M>,
) {
    let Some(plan) = faults else {
        deliver(inboxes, dst, env, cap, stats);
        return;
    };
    let mut rng = DetRng::stream_keys(
        plan.seed,
        &[epoch, env.from as u64, u64::from(env.seq), dst as u64],
    );
    if rng.chance(plan.drop) {
        stats.fault_dropped += 1;
        return;
    }
    let copies = if rng.chance(plan.duplicate) {
        stats.duplicated += 1;
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
            deliver(inboxes, dst, env.clone(), cap, stats);
        } else {
            stats.delayed += 1;
            // This barrier builds the inboxes for epoch+1; a copy delayed
            // by k lands k epochs after that.
            pending
                .entry(epoch + 1 + delayed_by)
                .or_default()
                .push((dst, env.clone()));
        }
    }
}

/// The single-threaded router: owns the fault plan's parked mail and the
/// plane counters, and builds epoch N+1's inboxes from epoch N's outboxes.
/// Every method runs on the orchestrating thread — that, not a lock, is
/// what keeps fault decisions and delivery order independent of worker
/// scheduling.
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
                deliver(inboxes, dst, env, self.cap, &mut self.stats);
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
        let (cap, shards, faults, plane) = (self.cap, self.shards, self.faults, self.plane);
        let pending = &mut self.pending;
        let stats = &mut self.stats;
        for env in outbox.mail.drain(..) {
            stats.sent += 1;
            match env.to {
                Address::Unicast(dst) if dst < shards => {
                    fault_deliver(faults, epoch, cap, inboxes, pending, stats, dst, env);
                }
                Address::Unicast(_) => stats.unroutable += 1,
                Address::Broadcast(group) => {
                    let members = plane.members(group);
                    let mut hit = false;
                    for &dst in members {
                        if dst == env.from || dst >= shards {
                            continue;
                        }
                        hit = true;
                        fault_deliver(
                            faults,
                            epoch,
                            cap,
                            inboxes,
                            pending,
                            stats,
                            dst,
                            env.clone(),
                        );
                    }
                    if !hit {
                        stats.unroutable += 1;
                    }
                }
            }
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
///   after the last epoch, on the calling thread, one shard after another
///   in index order.
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
/// A panic inside any closure is propagated once the worker pool has
/// stopped.
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
    Fin: Fn(S, &mut MetricSet) + Sync,
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
/// With `threads <= 1` the run executes inline with zero synchronisation
/// (routing streams behind each shard's step); with more threads a
/// persistent worker pool overlaps shard execution with routing as
/// described in the module docs. Both paths produce identical bytes.
#[allow(clippy::too_many_arguments)] // one optional plan over the stable run_epochs shape
pub fn run_epochs_faulted<S, M, Init, Step, Fin>(
    shards: usize,
    threads: usize,
    epochs: u64,
    plane: &MessagePlane,
    faults: Option<&FaultPlan>,
    init: Init,
    step: Step,
    finish: Fin,
) -> MetricSet
where
    S: Send,
    M: Clone + Send + Sync,
    Init: Fn(usize) -> S + Sync,
    Step: Fn(&mut S, &mut EpochCtx<'_, M>) + Sync,
    Fin: Fn(S, &mut MetricSet) + Sync,
{
    let threads = resolve_threads(threads).min(shards.max(1));
    let mut router = Router::new(plane, shards, faults);

    let (states, final_inboxes) = if threads <= 1 {
        drive_serial(&mut router, shards, epochs, &init, &step)
    } else {
        drive_overlapped(&mut router, shards, threads, epochs, &init, &step)
    };

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

/// The inline path: one thread, no synchronisation. Routing streams — each
/// outbox is routed the moment its shard's step returns, which is the
/// degenerate (and byte-identical) form of the overlapped barrier.
fn drive_serial<S, M, Init, Step>(
    router: &mut Router<'_, M>,
    shards: usize,
    epochs: u64,
    init: &Init,
    step: &Step,
) -> (Vec<Option<S>>, Vec<Vec<Envelope<M>>>)
where
    M: Clone,
    Init: Fn(usize) -> S,
    Step: Fn(&mut S, &mut EpochCtx<'_, M>),
{
    let mut states: Vec<Option<S>> = (0..shards).map(|_| None).collect();
    let mut next_seqs: Vec<u32> = vec![0; shards];
    let mut cur: Vec<Vec<Envelope<M>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut next: Vec<Vec<Envelope<M>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut pool: Vec<Vec<Envelope<M>>> = Vec::new();

    for epoch in 0..epochs {
        router.begin_epoch(epoch, &mut next);
        for i in 0..shards {
            let state = states[i].get_or_insert_with(|| init(i));
            let mut outbox = Outbox::with_buffer(i, next_seqs[i], pool.pop().unwrap_or_default());
            let mut ctx = EpochCtx {
                shard: i,
                epoch,
                epochs,
                inbox: &cur[i],
                outbox: &mut outbox,
            };
            step(state, &mut ctx);
            next_seqs[i] = outbox.next_seq;
            router.route_outbox(epoch, &mut outbox, &mut next);
            pool.push(outbox.into_buffer());
        }
        router.end_epoch(epoch, &mut next);
        std::mem::swap(&mut cur, &mut next);
    }
    (states, cur)
}

/// Worker-visible per-shard state: the task state plus the sequence-number
/// cursor that must survive between epochs.
struct ShardSlot<S> {
    state: Option<S>,
    next_seq: u32,
}

/// Gate value that tells workers to exit.
const STOP: u64 = u64::MAX;

/// Releases every condvar waiter on drop. Armed guards cover unwinds (a
/// panicking worker or router must not strand the others mid-wait — the
/// scope join would deadlock instead of propagating the panic); the router
/// disarms after its explicit clean shutdown.
struct Release<'a> {
    armed: bool,
    panicked: &'a AtomicBool,
    gate: &'a Mutex<u64>,
    gate_cv: &'a Condvar,
    finished_cv: &'a Condvar,
}

impl Drop for Release<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.panicked.store(true, Ordering::Relaxed);
        *lock(self.gate) = STOP;
        self.gate_cv.notify_all();
        self.finished_cv.notify_all();
    }
}

/// The overlapped path: a persistent worker pool (spawned once per run, not
/// per epoch) steps shards claimed from a guided chunked queue, while the
/// orchestrating thread routes finished outboxes in shard-index order —
/// concurrently with still-running higher-index shards of the same epoch.
/// Inboxes are double-buffered: workers read `cur` under a read lock while
/// the router fills its private `next`, and the swap at the barrier is the
/// only writer-side critical section.
fn drive_overlapped<S, M, Init, Step>(
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
    let slots: Vec<Mutex<ShardSlot<S>>> = (0..shards)
        .map(|_| {
            Mutex::new(ShardSlot {
                state: None,
                next_seq: 0,
            })
        })
        .collect();
    let cur: RwLock<Vec<Vec<Envelope<M>>>> = RwLock::new((0..shards).map(|_| Vec::new()).collect());
    let mut next: Vec<Vec<Envelope<M>>> = (0..shards).map(|_| Vec::new()).collect();
    let finished: Mutex<Vec<Option<Outbox<M>>>> = Mutex::new((0..shards).map(|_| None).collect());
    let finished_cv = Condvar::new();
    let pool: Mutex<Vec<Vec<Envelope<M>>>> = Mutex::new(Vec::new());
    // Number of epochs opened to workers; STOP ends the pool.
    let gate: Mutex<u64> = Mutex::new(0);
    let gate_cv = Condvar::new();
    // One monotonic work cursor for the whole run: epoch e owns indices
    // [e*shards, (e+1)*shards), and claim_chunk never crosses the epoch
    // boundary, so no racy per-epoch reset exists to get wrong.
    let cursor = AtomicU64::new(0);
    let panicked = AtomicBool::new(false);
    let shards_u64 = shards as u64;

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut guard = Release {
                    armed: true,
                    panicked: &panicked,
                    gate: &gate,
                    gate_cv: &gate_cv,
                    finished_cv: &finished_cv,
                };
                let mut epoch: u64 = 0;
                loop {
                    {
                        let mut opened = lock(&gate);
                        loop {
                            if *opened == STOP {
                                guard.armed = false;
                                return;
                            }
                            if *opened > epoch {
                                break;
                            }
                            opened = gate_cv.wait(opened).unwrap_or_else(|e| e.into_inner());
                        }
                    }
                    let inboxes = cur.read().unwrap_or_else(|e| e.into_inner());
                    let base = epoch * shards_u64;
                    while let Some((start, end)) =
                        claim_chunk(&cursor, base + shards_u64, threads)
                    {
                        for g in start..end {
                            let i = (g - base) as usize;
                            let mut slot = lock(&slots[i]);
                            let next_seq = slot.next_seq;
                            let state = slot.state.get_or_insert_with(|| init(i));
                            let buf = lock(&pool).pop().unwrap_or_default();
                            let mut outbox = Outbox::with_buffer(i, next_seq, buf);
                            let mut ctx = EpochCtx {
                                shard: i,
                                epoch,
                                epochs,
                                inbox: &inboxes[i],
                                outbox: &mut outbox,
                            };
                            step(state, &mut ctx);
                            slot.next_seq = outbox.next_seq;
                            drop(slot);
                            *lock(&finished)
                                .get_mut(i)
                                .expect("finished slot per shard") = Some(outbox);
                            finished_cv.notify_all();
                        }
                    }
                    drop(inboxes);
                    epoch += 1;
                }
            });
        }

        // The router runs on the orchestrating thread.
        let mut guard = Release {
            armed: true,
            panicked: &panicked,
            gate: &gate,
            gate_cv: &gate_cv,
            finished_cv: &finished_cv,
        };
        'run: for epoch in 0..epochs {
            router.begin_epoch(epoch, &mut next);
            *lock(&gate) = epoch + 1;
            gate_cv.notify_all();
            for i in 0..shards {
                // Consume outboxes in shard-index order as they finish —
                // routing shard i overlaps with shards > i still stepping.
                let mut outbox = {
                    let mut f = lock(&finished);
                    loop {
                        if panicked.load(Ordering::Relaxed) {
                            break 'run;
                        }
                        if let Some(outbox) = f[i].take() {
                            break outbox;
                        }
                        f = finished_cv.wait(f).unwrap_or_else(|e| e.into_inner());
                    }
                };
                router.route_outbox(epoch, &mut outbox, &mut next);
                lock(&pool).push(outbox.into_buffer());
            }
            router.end_epoch(epoch, &mut next);
            // Barrier: waits for the epoch's readers to drop, then swaps
            // the double buffer — the next epoch reads what was routed.
            let mut cur_write = cur.write().unwrap_or_else(|e| e.into_inner());
            std::mem::swap(&mut *cur_write, &mut next);
        }
        *lock(&gate) = STOP;
        gate_cv.notify_all();
        guard.armed = false;
    });

    let states: Vec<Option<S>> = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()).state)
        .collect();
    let final_inboxes = cur.into_inner().unwrap_or_else(|e| e.into_inner());
    (states, final_inboxes)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
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
    fn group_membership_is_order_insensitive_and_deduped() {
        let mut plane = MessagePlane::new();
        plane.group(1, [3, 1, 2, 1]);
        assert_eq!(plane.members(1), &[1, 2, 3]);
        assert_eq!(plane.members(9), &[] as &[usize]);
    }
}
