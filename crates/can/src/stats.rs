//! Bus statistics.

use polsec_sim::{SimDuration, SimTime};
use std::fmt;

/// Aggregate statistics for a [`crate::CanBus`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BusStats {
    /// Frames that completed transmission on the wire.
    pub frames_transmitted: u64,
    /// Frame deliveries into node RX queues (one frame × N receivers counts N).
    pub frames_delivered: u64,
    /// Frames rejected by receivers' acceptance filters or RX overruns.
    pub frames_rejected: u64,
    /// Frames dropped at the transmitter's egress interposer, counted as
    /// each block happens while the bus gathers offers; always the sum of
    /// the nodes' [`crate::CanNode::egress_blocked`].
    pub frames_blocked_egress: u64,
    /// Frame deliveries blocked at a receiver's ingress interposer.
    pub frames_blocked_ingress: u64,
    /// Frames corrupted on the wire by the error model.
    pub frames_corrupted: u64,
    /// Transmissions abandoned after exceeding the retry limit.
    pub frames_abandoned: u64,
    /// Bus-off nodes that completed the ISO 11898-1 re-integration sequence
    /// (128 × 11 recessive bits) and rejoined the bus.
    pub bus_off_recoveries: u64,
    /// Total bits on the wire, including stuff bits.
    pub bits_on_wire: u64,
    /// Of which, stuff bits.
    pub stuff_bits: u64,
    /// Total time the bus was busy transmitting.
    pub busy_time: SimDuration,
    /// Arbitration rounds in which more than one node contended.
    pub arbitration_contended: u64,
    /// Total arbitration rounds.
    pub arbitration_rounds: u64,
}

impl BusStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bus utilisation over `[0, now]`: busy time / wall time.
    ///
    /// Returns 0 when `now` is zero.
    pub fn utilisation(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            0.0
        } else {
            self.busy_time.as_secs_f64() / now.as_secs_f64()
        }
    }

    /// Fraction of wire bits that are stuffing overhead.
    pub fn stuffing_overhead(&self) -> f64 {
        if self.bits_on_wire == 0 {
            0.0
        } else {
            self.stuff_bits as f64 / self.bits_on_wire as f64
        }
    }

    /// Fraction of arbitration rounds that were contended.
    pub fn contention_rate(&self) -> f64 {
        if self.arbitration_rounds == 0 {
            0.0
        } else {
            self.arbitration_contended as f64 / self.arbitration_rounds as f64
        }
    }
}

impl fmt::Display for BusStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tx={} delivered={} rejected={} blocked(in/out)={}/{} corrupted={} bits={} (stuff {})",
            self.frames_transmitted,
            self.frames_delivered,
            self.frames_rejected,
            self.frames_blocked_ingress,
            self.frames_blocked_egress,
            self.frames_corrupted,
            self.bits_on_wire,
            self.stuff_bits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilisation_handles_zero_time() {
        let s = BusStats::new();
        assert_eq!(s.utilisation(SimTime::ZERO), 0.0);
    }

    #[test]
    fn utilisation_ratio() {
        let s = BusStats {
            busy_time: SimDuration::micros(250),
            ..BusStats::default()
        };
        let u = s.utilisation(SimTime::from_micros(1000));
        assert!((u - 0.25).abs() < 1e-9);
    }

    #[test]
    fn stuffing_overhead_ratio() {
        let s = BusStats {
            bits_on_wire: 200,
            stuff_bits: 20,
            ..BusStats::default()
        };
        assert!((s.stuffing_overhead() - 0.1).abs() < 1e-9);
        assert_eq!(BusStats::new().stuffing_overhead(), 0.0);
    }

    #[test]
    fn contention_rate() {
        let s = BusStats {
            arbitration_rounds: 10,
            arbitration_contended: 4,
            ..BusStats::default()
        };
        assert!((s.contention_rate() - 0.4).abs() < 1e-9);
        assert_eq!(BusStats::new().contention_rate(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let s = BusStats {
            frames_transmitted: 3,
            ..BusStats::default()
        };
        assert!(s.to_string().contains("tx=3"));
    }
}
