//! Deterministic event queue and scheduler.
//!
//! Events are ordered by time; ties are broken by insertion sequence number so
//! that two events scheduled for the same instant always fire in the order in
//! which they were scheduled, regardless of heap internals. Determinism is a
//! hard requirement here: the attack-matrix experiment compares runs that
//! differ only in enforcement configuration, so event ordering must not be a
//! confounder.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the queue: payload `T` scheduled at a time, with a sequence
/// number for stable ordering.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time (then lowest seq)
        // pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered queue of events carrying payloads of type `T`.
///
/// # Example
/// ```
/// use polsec_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(10), "late");
/// q.push(SimTime::from_micros(1), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_micros(1), "early")));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// An event loop that owns a queue and a clock.
///
/// The scheduler advances its clock to each event's timestamp as the event is
/// popped, so handlers always observe `now()` equal to their own fire time.
///
/// # Example
/// ```
/// use polsec_sim::{Scheduler, SimDuration, SimTime};
/// let mut s: Scheduler<&str> = Scheduler::new();
/// s.schedule_in(SimDuration::micros(4), "tick");
/// let (t, ev) = s.pop().unwrap();
/// assert_eq!(ev, "tick");
/// assert_eq!(s.now(), SimTime::from_micros(4));
/// assert_eq!(t, s.now());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Scheduler<T> {
    queue: EventQueue<T>,
    now: SimTime,
    processed: u64,
}

impl<T> Scheduler<T> {
    /// Creates a scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules `payload` at an absolute time.
    ///
    /// Events scheduled in the past fire "now": their timestamp is clamped to
    /// the current clock so time never moves backwards.
    pub fn schedule_at(&mut self, time: SimTime, payload: T) {
        let t = if time < self.now { self.now } else { time };
        self.queue.push(t, payload);
    }

    /// Schedules `payload` after a delay relative to the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: T) {
        self.queue.push(self.now + delay, payload);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let (t, p) = self.queue.pop()?;
        debug_assert!(t >= self.now, "scheduler time must be monotonic");
        self.now = t;
        self.processed += 1;
        Some((t, p))
    }

    /// The time of the next pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Runs events until the queue empties or `limit` events have fired,
    /// applying `handler` to each. The handler may schedule further events.
    ///
    /// Returns the number of events processed by this call.
    pub fn run_with<F>(&mut self, limit: u64, mut handler: F) -> u64
    where
        F: FnMut(&mut Scheduler<T>, SimTime, T),
    {
        let mut n = 0;
        while n < limit {
            match self.pop() {
                Some((t, p)) => {
                    handler(self, t, p);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Runs events with `handler` until the clock passes `deadline` or the
    /// queue empties. Events at exactly `deadline` still fire.
    pub fn run_until<F>(&mut self, deadline: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut Scheduler<T>, SimTime, T),
    {
        let mut n = 0;
        while let Some(t) = self.peek_time() {
            if t > deadline {
                break;
            }
            // Unwrap is fine: peek just confirmed an event exists.
            let (t, p) = self.pop().expect("event disappeared between peek and pop");
            handler(self, t, p);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().map(|(_, v)| v), Some(1));
        assert_eq!(q.pop().map(|(_, v)| v), Some(2));
        assert_eq!(q.pop().map(|(_, v)| v), Some(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().map(|(_, v)| v), Some(i));
        }
    }

    #[test]
    fn scheduler_advances_clock() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_in(SimDuration::micros(7), 1);
        s.schedule_in(SimDuration::micros(3), 2);
        let (t1, v1) = s.pop().unwrap();
        assert_eq!((t1.as_micros(), v1), (3, 2));
        assert_eq!(s.now().as_micros(), 3);
        let (t2, v2) = s.pop().unwrap();
        assert_eq!((t2.as_micros(), v2), (7, 1));
        assert_eq!(s.processed(), 2);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_in(SimDuration::micros(10), 1);
        s.pop().unwrap();
        s.schedule_at(SimTime::from_micros(2), 9); // in the past
        let (t, v) = s.pop().unwrap();
        assert_eq!(v, 9);
        assert_eq!(t, SimTime::from_micros(10)); // clamped
    }

    #[test]
    fn run_with_respects_limit_and_cascading() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_in(SimDuration::micros(1), 0);
        // Each event schedules the next; run only 5.
        let n = s.run_with(5, |s, _, v| {
            if v < 100 {
                s.schedule_in(SimDuration::micros(1), v + 1);
            }
        });
        assert_eq!(n, 5);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn run_until_stops_at_deadline_inclusive() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 1..=10 {
            s.schedule_at(SimTime::from_micros(i), i as u32);
        }
        let mut seen = Vec::new();
        let n = s.run_until(SimTime::from_micros(4), |_, _, v| seen.push(v));
        assert_eq!(n, 4);
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(s.pending(), 6);
    }
}
