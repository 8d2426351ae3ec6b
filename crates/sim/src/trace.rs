//! Bounded, lazily-formatted simulation traces.
//!
//! Scenario runs record what happened (frames sent, decisions taken, attacks
//! fired) as [`TraceRecord`]s. Two properties keep tracing off the hot path:
//!
//! * **Lazy details** — [`Trace::record_with`] takes the human-readable
//!   detail as a closure, which only runs for records the trace actually
//!   retains. A full or sampled-out trace never pays for `format!`.
//! * **Deterministic sampling** — [`Trace::set_sampling`] keeps one in `N`
//!   records, decided purely by `(seed, record sequence number)`, so the
//!   retained set is a pure function of the seed and is identical on every
//!   replay regardless of thread count. The fleet engine seeds each bus
//!   trace from the run seed, making the sampling decision part of the
//!   determinism contract.
//!
//! The trace is bounded so a runaway experiment cannot exhaust memory. When
//! full, **new** records are dropped (the trace keeps the earliest events) and
//! a dropped-count is kept so reports can say so — keep-first is what makes a
//! full trace free: the eviction decision is known *before* the detail
//! closure would run.

use crate::rng::splitmix64_mix;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// The deterministic 1-in-`every` sampling rule: whether item `seq` of the
/// stream seeded `seed` is kept, `splitmix64(seed ^ seq) % every == 0`.
/// A pure function of its arguments, so the kept subset is identical on
/// every replay and at any thread count; `every <= 1` keeps everything.
/// [`Trace`] samples its records with it, and the fleet engine its timed
/// decides.
pub fn sampled(seed: u64, seq: u64, every: u64) -> bool {
    every <= 1 || splitmix64_mix(seed ^ seq).is_multiple_of(every)
}

/// One record in a simulation trace: a timestamp, a category tag and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the event happened in simulated time.
    pub time: SimTime,
    /// A short machine-matchable category, e.g. `"hpe.block"`.
    pub tag: String,
    /// Free-form detail for humans.
    pub detail: String,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.time, self.tag, self.detail)
    }
}

/// A bounded FIFO of [`TraceRecord`]s with optional deterministic sampling.
///
/// # Example
/// ```
/// use polsec_sim::{SimTime, Trace};
/// let mut tr = Trace::with_capacity(2);
/// tr.record(SimTime::ZERO, "a", "first");
/// tr.record(SimTime::ZERO, "b", "second");
/// tr.record(SimTime::ZERO, "c", "third"); // full: "c" is dropped
/// assert_eq!(tr.len(), 2);
/// assert_eq!(tr.dropped(), 1);
/// assert!(tr.find("a").is_some());
/// assert!(tr.find("c").is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
    sample_every: u64,
    sample_seed: u64,
    sampled_out: u64,
    seq: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl Trace {
    /// Default bound on retained records.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates a trace retaining at most `capacity` records (minimum 1),
    /// with sampling off (every record offered is considered).
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            sample_every: 1,
            sample_seed: 0,
            sampled_out: 0,
            seq: 0,
        }
    }

    /// Keeps one in `every` offered records, decided deterministically from
    /// `(seed, sequence number)` — the same seed always keeps the same
    /// subset, independent of threads or replay count. `every <= 1` turns
    /// sampling off.
    pub fn set_sampling(&mut self, every: u64, seed: u64) {
        self.sample_every = every.max(1);
        self.sample_seed = seed;
    }

    /// The configured sampling period (1 = keep everything offered).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Whether the record with sequence number `seq` survives the sampler.
    fn keeps(&self, seq: u64) -> bool {
        sampled(self.sample_seed, seq, self.sample_every)
    }

    /// Offers a record with a lazily-built detail string. The closure runs
    /// only when the record survives the sampler **and** the trace is not
    /// full — a full trace costs one branch, no formatting, no allocation.
    pub fn record_with<T, F>(&mut self, time: SimTime, tag: T, detail: F)
    where
        T: Into<String>,
        F: FnOnce() -> String,
    {
        let seq = self.seq;
        self.seq += 1;
        if !self.keeps(seq) {
            self.sampled_out += 1;
            return;
        }
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.records.push_back(TraceRecord {
            time,
            tag: tag.into(),
            detail: detail(),
        });
    }

    /// Appends a record with an eager detail (convenience wrapper over
    /// [`Trace::record_with`] for cold paths and tests).
    pub fn record(&mut self, time: SimTime, tag: impl Into<String>, detail: impl Into<String>) {
        self.record_with(time, tag, || detail.into());
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many records were dropped because the trace was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// How many records the sampler discarded.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Total records offered (retained + dropped + sampled out).
    pub fn offered(&self) -> u64 {
        self.seq
    }

    /// Iterates retained records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// First record whose tag equals `tag`.
    pub fn find(&self, tag: &str) -> Option<&TraceRecord> {
        self.records.iter().find(|r| r.tag == tag)
    }

    /// All records whose tag starts with `prefix` (e.g. `"hpe."`).
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a TraceRecord> {
        self.records.iter().filter(move |r| r.tag.starts_with(prefix))
    }

    /// Counts records with exactly this tag.
    pub fn count(&self, tag: &str) -> usize {
        self.records.iter().filter(|r| r.tag == tag).count()
    }

    /// Clears all records (the dropped/sampled counters and the sampling
    /// sequence are reset too; the sampling configuration is kept).
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
        self.sampled_out = 0;
        self.seq = 0;
    }

    /// Renders the whole trace as text, one record per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn records_in_order() {
        let mut tr = Trace::default();
        tr.record(t(1), "x", "one");
        tr.record(t(2), "y", "two");
        let tags: Vec<&str> = tr.iter().map(|r| r.tag.as_str()).collect();
        assert_eq!(tags, vec!["x", "y"]);
        assert!(!tr.is_empty());
    }

    #[test]
    fn capacity_keeps_first_drops_newest() {
        let mut tr = Trace::with_capacity(3);
        for i in 0..5 {
            tr.record(t(i), format!("tag{i}"), "");
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 2);
        assert!(tr.find("tag0").is_some(), "earliest records are kept");
        assert!(tr.find("tag4").is_none(), "overflow records are dropped");
        assert_eq!(tr.offered(), 5);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut tr = Trace::with_capacity(0);
        tr.record(t(0), "a", "");
        tr.record(t(1), "b", "");
        assert_eq!(tr.len(), 1);
        assert!(tr.find("a").is_some());
        assert!(tr.find("b").is_none());
    }

    #[test]
    fn full_trace_never_calls_the_detail_closure() {
        // Satellite regression: the bus used to format! details
        // unconditionally; a full trace must not even run the closure.
        let mut tr = Trace::with_capacity(1);
        tr.record_with(t(0), "keep", || "cheap".into());
        assert_eq!(tr.len(), 1);
        tr.record_with(t(1), "overflow", || {
            panic!("detail closure must not run when the trace is full")
        });
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.dropped(), 1);
    }

    #[test]
    fn sampled_out_records_never_call_the_detail_closure() {
        let mut tr = Trace::default();
        // every = u64::MAX with a seed chosen so record 0 is discarded:
        // splitmix64_mix(seed ^ 0) % MAX == 0 only for the mix's zero
        // preimage, so any seed with a non-zero mix works.
        tr.set_sampling(u64::MAX, 7);
        let mut calls = 0;
        for i in 0..100 {
            tr.record_with(t(i), "x", || {
                calls += 1;
                String::new()
            });
        }
        assert_eq!(calls as usize, tr.len(), "closure runs only for retained records");
        assert_eq!(tr.sampled_out() + tr.len() as u64, 100);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut tr = Trace::default();
            tr.set_sampling(8, seed);
            for i in 0..1000 {
                tr.record(t(i), format!("r{i}"), "");
            }
            tr.iter().map(|r| r.tag.clone()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42), "same seed keeps the same subset");
        assert_ne!(run(42), run(43), "different seeds keep different subsets");
        // roughly 1 in 8 survives
        let kept = run(42).len();
        assert!((60..=190).contains(&kept), "kept {kept} of 1000 at 1-in-8");
    }

    #[test]
    fn sampling_off_keeps_everything() {
        let mut tr = Trace::default();
        tr.set_sampling(0, 99); // clamps to 1 = off
        assert_eq!(tr.sample_every(), 1);
        for i in 0..10 {
            tr.record(t(i), "x", "");
        }
        assert_eq!(tr.len(), 10);
        assert_eq!(tr.sampled_out(), 0);
    }

    #[test]
    fn prefix_and_count_queries() {
        let mut tr = Trace::default();
        tr.record(t(0), "hpe.block", "spoof");
        tr.record(t(1), "hpe.grant", "ok");
        tr.record(t(2), "hpe.block", "again");
        tr.record(t(3), "bus.tx", "frame");
        assert_eq!(tr.with_prefix("hpe.").count(), 3);
        assert_eq!(tr.count("hpe.block"), 2);
        assert_eq!(tr.count("nope"), 0);
    }

    #[test]
    fn render_and_display() {
        let mut tr = Trace::default();
        tr.record(t(7), "tag", "detail text");
        let s = tr.render();
        assert!(s.contains("7us"));
        assert!(s.contains("tag"));
        assert!(s.contains("detail text"));
    }

    #[test]
    fn clear_resets() {
        let mut tr = Trace::with_capacity(1);
        tr.record(t(0), "a", "");
        tr.record(t(1), "b", "");
        assert_eq!(tr.dropped(), 1);
        tr.set_sampling(4, 1);
        tr.clear();
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 0);
        assert_eq!(tr.sampled_out(), 0);
        assert_eq!(tr.offered(), 0);
        assert_eq!(tr.sample_every(), 4, "sampling config survives clear");
    }
}
