//! Car operating modes.
//!
//! "The connected car features three operating modes … under which the
//! vehicle's core functionalities will be adjusted" (paper §V):
//! Normal, Remote Diagnostic and Fail-safe.

use polsec_model::OperatingMode;
use std::fmt;

/// One of the paper's three car modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CarMode {
    /// Standard vehicle functionality (driving, parked).
    #[default]
    Normal,
    /// Maintenance by manufacturer or authorised engineer.
    RemoteDiagnostic,
    /// Reserved for emergency situations.
    FailSafe,
}

impl CarMode {
    /// All three modes.
    pub const ALL: [CarMode; 3] = [CarMode::Normal, CarMode::RemoteDiagnostic, CarMode::FailSafe];

    /// The canonical mode name used in policies and threat models.
    pub fn name(self) -> &'static str {
        match self {
            CarMode::Normal => "normal",
            CarMode::RemoteDiagnostic => "remote diagnostic",
            CarMode::FailSafe => "fail-safe",
        }
    }

    /// The threat-model [`OperatingMode`] for this car mode.
    pub fn operating_mode(self) -> OperatingMode {
        OperatingMode::new(self.name())
    }

    /// The wire code broadcast in `MODE_CHANGE` frames.
    pub fn code(self) -> u8 {
        match self {
            CarMode::Normal => 0x01,
            CarMode::RemoteDiagnostic => 0x02,
            CarMode::FailSafe => 0x03,
        }
    }

    /// Decodes a wire mode code.
    pub fn from_code(code: u8) -> Option<CarMode> {
        match code {
            0x01 => Some(CarMode::Normal),
            0x02 => Some(CarMode::RemoteDiagnostic),
            0x03 => Some(CarMode::FailSafe),
            _ => None,
        }
    }

    /// Whether a transition from `self` to `to` is legitimate.
    ///
    /// Normal ↔ Remote Diagnostic requires an authorised session; any mode
    /// may escalate to Fail-safe (emergencies pre-empt); Fail-safe only
    /// de-escalates to Normal after recovery.
    pub fn can_transition_to(self, to: CarMode) -> bool {
        match (self, to) {
            (a, b) if a == b => true,
            (_, CarMode::FailSafe) => true,
            (CarMode::Normal, CarMode::RemoteDiagnostic) => true,
            (CarMode::RemoteDiagnostic, CarMode::Normal) => true,
            (CarMode::FailSafe, CarMode::Normal) => true,
            (CarMode::FailSafe, CarMode::RemoteDiagnostic) => false,
            _ => false,
        }
    }
}

impl fmt::Display for CarMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A limp-home transition reported by [`PlatoonHealth::on_epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimpTransition {
    /// The follower missed `miss_threshold` consecutive heartbeats and
    /// enters degraded (limp-home) following.
    Enter,
    /// The follower heard `clean_threshold` consecutive heartbeats while
    /// degraded and resumes normal following.
    Exit,
}

/// Heartbeat-driven limp-home state machine for a platoon follower
/// (DESIGN.md §10).
///
/// The follower samples once per plane epoch whether a fully authenticated
/// lead heartbeat arrived. `miss_threshold` consecutive silent epochs enter
/// the degraded mode; `clean_threshold` consecutive heartbeats exit it —
/// asymmetric thresholds give the machine hysteresis, so a single
/// delayed-then-delivered heartbeat cannot make the platoon flap. The
/// machine is driven only by ladder-accepted heartbeats, never by message
/// *content* — a spoofed "resume" burst that dies at the auth rung leaves
/// it untouched.
///
/// Epoch sampling keeps the machine deterministic under the fault plane:
/// its entire trajectory is a pure function of the heard/missed bit
/// sequence, which the barrier makes identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatoonHealth {
    miss_threshold: u32,
    clean_threshold: u32,
    consecutive_misses: u32,
    consecutive_cleans: u32,
    degraded: bool,
    joined: bool,
}

impl PlatoonHealth {
    /// A healthy, not-yet-joined machine. Thresholds are clamped to at
    /// least 1.
    pub fn new(miss_threshold: u32, clean_threshold: u32) -> Self {
        PlatoonHealth {
            miss_threshold: miss_threshold.max(1),
            clean_threshold: clean_threshold.max(1),
            consecutive_misses: 0,
            consecutive_cleans: 0,
            degraded: false,
            joined: false,
        }
    }

    /// Whether the follower has heard at least one heartbeat (before that,
    /// silence is "not platooning yet", not an outage).
    pub fn joined(&self) -> bool {
        self.joined
    }

    /// Whether the follower is currently in limp-home.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Consecutive heartbeat misses observed so far.
    pub fn misses(&self) -> u32 {
        self.consecutive_misses
    }

    /// Advances one epoch. `heard` is whether a ladder-accepted lead
    /// heartbeat arrived this epoch; returns the transition this epoch
    /// caused, if any.
    pub fn on_epoch(&mut self, heard: bool) -> Option<LimpTransition> {
        if heard {
            self.consecutive_misses = 0;
            if !self.joined {
                self.joined = true;
                return None;
            }
            if self.degraded {
                self.consecutive_cleans += 1;
                if self.consecutive_cleans >= self.clean_threshold {
                    self.degraded = false;
                    self.consecutive_cleans = 0;
                    return Some(LimpTransition::Exit);
                }
            }
            return None;
        }
        self.consecutive_cleans = 0;
        if !self.joined {
            return None;
        }
        self.consecutive_misses += 1;
        if !self.degraded && self.consecutive_misses >= self.miss_threshold {
            self.degraded = true;
            return Some(LimpTransition::Enter);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for m in CarMode::ALL {
            assert_eq!(CarMode::from_code(m.code()), Some(m));
        }
        assert_eq!(CarMode::from_code(0), None);
        assert_eq!(CarMode::from_code(9), None);
    }

    #[test]
    fn names_match_threat_model_modes() {
        assert_eq!(CarMode::Normal.operating_mode(), OperatingMode::new("normal"));
        assert_eq!(
            CarMode::RemoteDiagnostic.operating_mode(),
            OperatingMode::new("Remote Diagnostic")
        );
        assert_eq!(CarMode::FailSafe.operating_mode(), OperatingMode::new("FAIL-SAFE"));
    }

    #[test]
    fn transition_rules() {
        use CarMode::*;
        assert!(Normal.can_transition_to(RemoteDiagnostic));
        assert!(RemoteDiagnostic.can_transition_to(Normal));
        assert!(Normal.can_transition_to(FailSafe), "emergency pre-empts");
        assert!(RemoteDiagnostic.can_transition_to(FailSafe));
        assert!(FailSafe.can_transition_to(Normal), "recovery");
        assert!(!FailSafe.can_transition_to(RemoteDiagnostic));
        for m in CarMode::ALL {
            assert!(m.can_transition_to(m), "self-transition is identity");
        }
    }

    #[test]
    fn limp_home_enters_after_misses_and_exits_with_hysteresis() {
        let mut h = PlatoonHealth::new(3, 2);
        // silence before the first heartbeat is not an outage
        for _ in 0..10 {
            assert_eq!(h.on_epoch(false), None);
            assert!(!h.joined());
        }
        assert_eq!(h.on_epoch(true), None);
        assert!(h.joined() && !h.degraded());
        // two misses: still healthy; the third enters limp-home
        assert_eq!(h.on_epoch(false), None);
        assert_eq!(h.on_epoch(false), None);
        assert_eq!(h.on_epoch(false), Some(LimpTransition::Enter));
        assert!(h.degraded());
        // further silence causes no repeated transitions
        assert_eq!(h.on_epoch(false), None);
        // one clean heartbeat is not enough to exit (hysteresis) …
        assert_eq!(h.on_epoch(true), None);
        assert!(h.degraded());
        // … and a miss resets the clean streak
        assert_eq!(h.on_epoch(false), None);
        assert_eq!(h.on_epoch(true), None);
        assert_eq!(h.on_epoch(true), Some(LimpTransition::Exit));
        assert!(!h.degraded());
        // re-entry takes a fresh run of misses
        assert_eq!(h.on_epoch(false), None);
        assert_eq!(h.on_epoch(false), None);
        assert_eq!(h.on_epoch(false), Some(LimpTransition::Enter));
    }

    #[test]
    fn limp_home_thresholds_are_clamped_to_one() {
        let mut h = PlatoonHealth::new(0, 0);
        assert_eq!(h.on_epoch(true), None); // joins
        assert_eq!(h.on_epoch(false), Some(LimpTransition::Enter));
        assert_eq!(h.on_epoch(true), Some(LimpTransition::Exit));
    }

    #[test]
    fn default_is_normal() {
        assert_eq!(CarMode::default(), CarMode::Normal);
        assert_eq!(CarMode::Normal.to_string(), "normal");
    }
}
