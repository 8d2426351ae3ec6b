//! Simulated time.
//!
//! Time is represented as an integer number of microseconds since simulation
//! start. Integer time keeps the event loop deterministic (no floating-point
//! accumulation error) and is fine-grained enough for CAN bit times: at
//! 500 kbit/s one bit is 2 µs.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, in microseconds since simulation start.
///
/// `SimTime` is ordered, copyable and cheap; it is the timestamp used by the
/// scheduler, the CAN bus, audit records and metrics.
///
/// # Example
/// ```
/// use polsec_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from a raw microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from a millisecond count.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from a second count.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Saturates to zero if `earlier` is later than `self` rather than
    /// panicking; a monitor asking "how long since X" with a future X gets 0.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from seconds.
    pub const fn secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// The duration as raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Checked division of two durations, yielding a ratio.
    ///
    /// Returns `None` when `other` is zero.
    pub fn ratio(self, other: SimDuration) -> Option<f64> {
        if other.0 == 0 {
            None
        } else {
            Some(self.0 as f64 / other.0 as f64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{}s", self.0 / 1_000_000)
        } else if self.0 >= 1_000 && self.0.is_multiple_of(1_000) {
            write!(f, "{}ms", self.0 / 1_000)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimDuration::secs(2).as_micros(), 2_000_000);
    }

    #[test]
    fn add_and_subtract() {
        let a = SimTime::from_micros(10);
        let b = a + SimDuration::micros(5);
        assert_eq!(b.as_micros(), 15);
        assert_eq!(b - a, SimDuration::micros(5));
        // subtraction saturates rather than underflowing
        assert_eq!(a - b, SimDuration::ZERO);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_micros(5);
        let late = SimTime::from_micros(9);
        assert_eq!(late.since(early).as_micros(), 4);
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(SimDuration::micros(5).ratio(SimDuration::ZERO), None);
        let r = SimDuration::micros(5).ratio(SimDuration::micros(10)).unwrap();
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimDuration::micros(7).to_string(), "7us");
        assert_eq!(SimDuration::millis(3).to_string(), "3ms");
        assert_eq!(SimDuration::secs(4).to_string(), "4s");
        assert_eq!(SimTime::from_micros(12).to_string(), "12us");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [SimTime::from_micros(3),
            SimTime::ZERO,
            SimTime::from_micros(7)];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_micros(7));
    }

    #[test]
    fn saturating_ops() {
        let big = SimDuration::micros(u64::MAX);
        assert_eq!(big.saturating_mul(2).as_micros(), u64::MAX);
        assert_eq!(
            SimTime::from_micros(u64::MAX).saturating_add(SimDuration::micros(1)),
            SimTime::from_micros(u64::MAX)
        );
    }
}
