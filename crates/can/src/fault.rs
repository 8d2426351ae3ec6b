//! Fault confinement (ISO 11898-1 §12).
//!
//! Every CAN node maintains a transmit error counter (TEC) and a receive
//! error counter (REC). Errors increase them (TX errors by 8, RX errors by
//! 1), successful traffic decreases them, and thresholds move the node
//! through three states:
//!
//! * **error-active** — normal operation, sends active (dominant) error flags,
//! * **error-passive** (TEC or REC > 127) — may still communicate but sends
//!   passive error flags and waits extra suspend time,
//! * **bus-off** (TEC > 255) — disconnected; may not transmit at all.
//!
//! Fault confinement matters to the threat model: a malicious node can
//! *bus-off* a victim by repeatedly corrupting its frames (an availability
//! attack the E1 experiment exercises), and a compromised node flooding
//! garbage will eventually silence itself.

use std::fmt;

/// Fault-confinement state of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ErrorState {
    /// Normal participation.
    #[default]
    ErrorActive,
    /// Degraded: passive error flags, extra suspend transmission.
    ErrorPassive,
    /// Disconnected from the bus.
    BusOff,
}

impl fmt::Display for ErrorState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorState::ErrorActive => "error-active",
            ErrorState::ErrorPassive => "error-passive",
            ErrorState::BusOff => "bus-off",
        };
        f.write_str(s)
    }
}

/// TEC/REC counters with the ISO 11898 update rules.
///
/// # Example
/// ```
/// use polsec_can::{ErrorCounters, ErrorState};
/// let mut c = ErrorCounters::new();
/// for _ in 0..16 {
///     c.record_tx_error();
/// }
/// assert_eq!(c.state(), ErrorState::ErrorPassive);
/// for _ in 0..16 {
///     c.record_tx_error();
/// }
/// assert_eq!(c.state(), ErrorState::BusOff);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorCounters {
    tec: u16,
    rec: u16,
    bus_off_latched: bool,
    recovery_progress: u16,
}

/// TEC increment per transmit error.
pub const TX_ERROR_STEP: u16 = 8;
/// REC increment per receive error.
pub const RX_ERROR_STEP: u16 = 1;
/// Threshold above which a node becomes error-passive.
pub const PASSIVE_THRESHOLD: u16 = 127;
/// TEC threshold above which a node goes bus-off.
pub const BUS_OFF_THRESHOLD: u16 = 255;
/// Occurrences of 11 consecutive recessive bits a bus-off node must observe
/// before it may re-integrate (ISO 11898-1 §12.1.4.2).
pub const BUS_OFF_RECOVERY_SEQUENCES: u16 = 128;

impl ErrorCounters {
    /// Fresh counters in the error-active state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current transmit error counter.
    pub fn tec(&self) -> u16 {
        self.tec
    }

    /// Current receive error counter.
    pub fn rec(&self) -> u16 {
        self.rec
    }

    /// The fault-confinement state implied by the counters.
    pub fn state(&self) -> ErrorState {
        if self.bus_off_latched {
            ErrorState::BusOff
        } else if self.tec > PASSIVE_THRESHOLD || self.rec > PASSIVE_THRESHOLD {
            ErrorState::ErrorPassive
        } else {
            ErrorState::ErrorActive
        }
    }

    /// Records a transmit error (+8 TEC). Returns the new state.
    pub fn record_tx_error(&mut self) -> ErrorState {
        self.tec = self.tec.saturating_add(TX_ERROR_STEP);
        if self.tec > BUS_OFF_THRESHOLD {
            self.bus_off_latched = true;
        }
        self.state()
    }

    /// Records a receive error (+1 REC). Returns the new state.
    pub fn record_rx_error(&mut self) -> ErrorState {
        self.rec = self.rec.saturating_add(RX_ERROR_STEP);
        self.state()
    }

    /// Records a successful transmission (−1 TEC, floor 0).
    pub fn record_tx_success(&mut self) -> ErrorState {
        self.tec = self.tec.saturating_sub(1);
        self.state()
    }

    /// Records a successful reception.
    ///
    /// ISO rule: REC decrements by 1 when ≤ 127, and snaps into the
    /// 119..=127 band when above 127 (we use 127).
    pub fn record_rx_success(&mut self) -> ErrorState {
        if self.rec > PASSIVE_THRESHOLD {
            self.rec = PASSIVE_THRESHOLD;
        } else {
            self.rec = self.rec.saturating_sub(1);
        }
        self.state()
    }

    /// Resets after the bus-off recovery sequence (128 × 11 recessive bits);
    /// the node returns error-active with zeroed counters.
    pub fn recover_from_bus_off(&mut self) {
        self.tec = 0;
        self.rec = 0;
        self.bus_off_latched = false;
        self.recovery_progress = 0;
    }

    /// While bus-off, notes one observed occurrence of 11 consecutive
    /// recessive bits (end-of-frame + intermission of someone else's
    /// successful frame, or sustained bus idle). At the
    /// [`BUS_OFF_RECOVERY_SEQUENCES`]-th occurrence the node re-integrates:
    /// counters zero, state back to error-active. Returns `true` exactly
    /// when this observation completed the recovery.
    ///
    /// Calls while not bus-off are no-ops, so buses can notify every node
    /// unconditionally. Error frames contain dominant bits and must *not*
    /// be reported here — which is exactly why a storm-ridden bus delays a
    /// victim's re-integration.
    pub fn note_recessive_sequence(&mut self) -> bool {
        if !self.bus_off_latched {
            return false;
        }
        self.recovery_progress += 1;
        if self.recovery_progress >= BUS_OFF_RECOVERY_SEQUENCES {
            self.recover_from_bus_off();
            true
        } else {
            false
        }
    }

    /// How many of the required recessive-bit sequences a bus-off node has
    /// observed so far (0 when not bus-off).
    pub fn recovery_progress(&self) -> u16 {
        self.recovery_progress
    }

    /// Whether the node may currently transmit.
    pub fn can_transmit(&self) -> bool {
        self.state() != ErrorState::BusOff
    }
}

impl fmt::Display for ErrorCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tec={} rec={} ({})", self.tec, self.rec, self.state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_counters_are_active() {
        let c = ErrorCounters::new();
        assert_eq!(c.state(), ErrorState::ErrorActive);
        assert_eq!((c.tec(), c.rec()), (0, 0));
        assert!(c.can_transmit());
    }

    #[test]
    fn tec_crosses_passive_at_128() {
        let mut c = ErrorCounters::new();
        for _ in 0..15 {
            c.record_tx_error(); // 15*8 = 120
        }
        assert_eq!(c.state(), ErrorState::ErrorActive);
        c.record_tx_error(); // 128 > 127
        assert_eq!(c.state(), ErrorState::ErrorPassive);
    }

    #[test]
    fn tec_crosses_bus_off_at_256() {
        let mut c = ErrorCounters::new();
        for _ in 0..32 {
            c.record_tx_error(); // 256 > 255
        }
        assert_eq!(c.state(), ErrorState::BusOff);
        assert!(!c.can_transmit());
    }

    #[test]
    fn rec_only_reaches_passive_never_bus_off() {
        let mut c = ErrorCounters::new();
        for _ in 0..1000 {
            c.record_rx_error();
        }
        assert_eq!(c.state(), ErrorState::ErrorPassive);
        assert!(c.can_transmit());
    }

    #[test]
    fn success_decrements_and_recovers_state() {
        let mut c = ErrorCounters::new();
        for _ in 0..16 {
            c.record_tx_error(); // TEC 128 → passive
        }
        assert_eq!(c.state(), ErrorState::ErrorPassive);
        // 1 decrement per good TX; passive→active at 127
        c.record_tx_success();
        assert_eq!(c.state(), ErrorState::ErrorActive);
        assert_eq!(c.tec(), 127);
    }

    #[test]
    fn rx_success_snaps_rec_to_127() {
        let mut c = ErrorCounters::new();
        for _ in 0..200 {
            c.record_rx_error();
        }
        assert!(c.rec() > 127);
        c.record_rx_success();
        assert_eq!(c.rec(), PASSIVE_THRESHOLD);
        c.record_rx_success();
        assert_eq!(c.rec(), PASSIVE_THRESHOLD - 1);
        assert_eq!(c.state(), ErrorState::ErrorActive);
    }

    #[test]
    fn bus_off_is_latched_until_recovery() {
        let mut c = ErrorCounters::new();
        for _ in 0..32 {
            c.record_tx_error();
        }
        assert_eq!(c.state(), ErrorState::BusOff);
        // successes do not clear bus-off
        for _ in 0..300 {
            c.record_tx_success();
        }
        assert_eq!(c.state(), ErrorState::BusOff);
        c.recover_from_bus_off();
        assert_eq!(c.state(), ErrorState::ErrorActive);
        assert_eq!((c.tec(), c.rec()), (0, 0));
    }

    #[test]
    fn bus_off_recovery_takes_exactly_128_recessive_sequences() {
        // Known answer straight from ISO 11898-1: re-integration happens at
        // the 128th occurrence of 11 consecutive recessive bits, not before.
        let mut c = ErrorCounters::new();
        for _ in 0..32 {
            c.record_tx_error();
        }
        assert_eq!(c.state(), ErrorState::BusOff);
        for i in 0..(BUS_OFF_RECOVERY_SEQUENCES - 1) {
            assert!(!c.note_recessive_sequence(), "recovered early at {i}");
            assert_eq!(c.state(), ErrorState::BusOff);
            assert_eq!(c.recovery_progress(), i + 1);
        }
        assert!(c.note_recessive_sequence(), "128th sequence must recover");
        assert_eq!(c.state(), ErrorState::ErrorActive);
        assert_eq!((c.tec(), c.rec(), c.recovery_progress()), (0, 0, 0));
        assert!(c.can_transmit());
    }

    #[test]
    fn recessive_sequences_are_ignored_while_not_bus_off() {
        let mut c = ErrorCounters::new();
        for _ in 0..200 {
            assert!(!c.note_recessive_sequence());
        }
        assert_eq!(c.recovery_progress(), 0);
        // progress also restarts from zero if the node goes bus-off again
        for _ in 0..32 {
            c.record_tx_error();
        }
        c.note_recessive_sequence();
        assert_eq!(c.recovery_progress(), 1);
        c.recover_from_bus_off();
        assert_eq!(c.recovery_progress(), 0);
    }

    #[test]
    fn counters_saturate() {
        let mut c = ErrorCounters::new();
        for _ in 0..20_000 {
            c.record_tx_error();
        }
        assert!(c.tec() >= BUS_OFF_THRESHOLD);
        // floors at zero
        let mut d = ErrorCounters::new();
        d.record_tx_success();
        assert_eq!(d.tec(), 0);
        d.record_rx_success();
        assert_eq!(d.rec(), 0);
    }

    #[test]
    fn display_shows_state() {
        let mut c = ErrorCounters::new();
        c.record_tx_error();
        assert_eq!(c.to_string(), "tec=8 rec=0 (error-active)");
        assert_eq!(ErrorState::BusOff.to_string(), "bus-off");
    }
}
