//! # polsec-sim — discrete-event simulation substrate
//!
//! The enforcement experiments in this workspace (CAN traffic, attack
//! scenarios, policy-update turnaround) run on a deterministic discrete-event
//! simulator. This crate provides the shared pieces:
//!
//! * [`SimTime`] / [`SimDuration`] — integer microsecond simulated time,
//! * [`EventQueue`] and [`Scheduler`] — a deterministic event loop with
//!   stable tie-breaking,
//! * [`DetRng`] — a seedable, dependency-free xorshift RNG so every
//!   experiment is reproducible from a single `u64` seed,
//! * [`metrics`] — counters and bounded, order-free histograms used by
//!   benches and reports,
//! * [`shard`] — a deterministic sharded runner that fans independent
//!   simulations over a thread pool and merges their [`MetricSet`]s,
//! * [`plane`] — an epoch-barriered variant of the sharded runner with a
//!   deterministic cross-shard message plane (broadcast groups, unicast
//!   mail, `(sender, seq)`-ordered inboxes),
//! * [`trace`] — a bounded in-memory trace of simulation records with
//!   lazily-built details and deterministic 1-in-N sampling.
//!
//! # Example
//!
//! ```
//! use polsec_sim::{Scheduler, SimDuration, SimTime};
//!
//! let mut sched = Scheduler::new();
//! let mut fired = Vec::new();
//! sched.schedule_in(SimDuration::micros(5), 1);
//! sched.schedule_in(SimDuration::micros(2), 2);
//! while let Some((time, payload)) = sched.pop() {
//!     fired.push((time, payload));
//! }
//! assert_eq!(fired[0], (SimTime::from_micros(2), 2));
//! assert_eq!(fired[1], (SimTime::from_micros(5), 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod plane;
pub mod rng;
pub mod shard;
pub mod time;
pub mod trace;

pub use event::{EventQueue, Scheduler};
pub use metrics::{json_quote, Histogram, MetricSet};
pub use plane::{
    run_epochs, run_epochs_faulted, Address, Envelope, EpochCtx, FaultPlan, MessagePlane, Outbox,
};
pub use rng::DetRng;
pub use shard::{resolve_threads, run_sharded};
pub use time::{SimDuration, SimTime};
pub use trace::{sampled, Trace, TraceRecord};
