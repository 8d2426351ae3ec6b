//! Behavioural / payload anomaly layer — the plausibility rung.
//!
//! Every other rung in the enforcement ladder (gateway whitelist, segment
//! and node HPEs, the application policy check) judges *who* is talking:
//! identifiers, communication matrices, claimed entry points. Table I
//! row 2 — a crash-report value spoof sent by the *legitimate* sensor
//! node — defeats all of them, because the frame is exactly what the
//! matrix allows. This module closes that gap by judging *whether the
//! values are plausible*:
//!
//! * **range bounds** — a platoon lead advertising 240 km/h is rejected
//!   outright ([`AnomalyVerdict::OutOfRange`]),
//! * **rate-of-change bounds** — wheel speed cannot jump 80 km/h in one
//!   tick ([`AnomalyVerdict::RateJump`]),
//! * **stuck-value detection** — a sensor repeating one byte-identical
//!   value past a window is flagged ([`AnomalyVerdict::Stuck`]),
//! * **cross-signal consistency** — a crash report with no preceding
//!   deceleration and no proximity warning, or acceleration under
//!   braking, is physically inconsistent
//!   ([`AnomalyVerdict::Inconsistent`]).
//!
//! The models are compiled at construction into fixed-size per-signal
//! state machines ([`SignalMonitor`]): no allocation on the observe
//! path, no wall-clock reads, no RNG draws. Detection is a pure function
//! of the frame stream each vehicle sees, so merged fleet metrics stay
//! byte-identical at any thread count and across replays — the same
//! determinism contract every other rung honours (DESIGN.md §13).
//!
//! A flagged sample is **not committed** to the monitor's state: the
//! baseline only ever advances on plausible values, so an attacker
//! cannot walk the reference point toward an implausible region by
//! feeding it intermediate garbage.

/// Outcome of judging one observation against a behavioural model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyVerdict {
    /// The observation is plausible; the monitor state advanced.
    Ok,
    /// The value moved faster than the signal's rate-of-change bound.
    RateJump,
    /// The value lies outside the signal's absolute range.
    OutOfRange,
    /// The value has repeated byte-identically past the stuck window.
    Stuck,
    /// The value contradicts another signal (cross-signal consistency).
    Inconsistent,
}

impl AnomalyVerdict {
    /// True when the observation was flagged as implausible.
    pub fn flagged(self) -> bool {
        self != AnomalyVerdict::Ok
    }

    /// The per-kind metric key this verdict increments, or `None` for
    /// a plausible observation.
    pub fn metric(self) -> Option<&'static str> {
        match self {
            AnomalyVerdict::Ok => None,
            AnomalyVerdict::RateJump => Some("anomaly.rate_jump"),
            AnomalyVerdict::OutOfRange => Some("anomaly.out_of_range"),
            AnomalyVerdict::Stuck => Some("anomaly.stuck"),
            AnomalyVerdict::Inconsistent => Some("anomaly.inconsistent"),
        }
    }
}

/// Compile-time description of one signal's behavioural envelope.
///
/// A spec is data, not code: the fleet ships a small table of these and
/// [`SignalMonitor::new`] "compiles" each into its runtime state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalSpec {
    /// Human-readable signal name (diagnostics only).
    pub name: &'static str,
    /// Inclusive lower bound of the plausible range.
    pub min: u8,
    /// Inclusive upper bound of the plausible range.
    pub max: u8,
    /// Largest plausible change between consecutive samples; `0`
    /// disables the rate check.
    pub max_delta: u8,
    /// Number of byte-identical repeats (beyond the first sample) after
    /// which the signal counts as stuck; `0` disables the check.
    pub stuck_window: u16,
}

impl SignalSpec {
    /// Build a spec; `max_delta == 0` or `stuck_window == 0` disable the
    /// respective check.
    pub const fn new(
        name: &'static str,
        min: u8,
        max: u8,
        max_delta: u8,
        stuck_window: u16,
    ) -> Self {
        SignalSpec { name, min, max, max_delta, stuck_window }
    }
}

/// Highest speed a platoon lead may plausibly advertise (km/h).
pub const PLATOON_MAX_SPEED_KMH: u8 = 120;
/// Largest plausible epoch-to-epoch change in advertised platoon speed.
pub const PLATOON_MAX_DELTA_KMH: u8 = 25;
/// Byte-identical repeats after which a platoon speed counts as stuck.
pub const PLATOON_STUCK_WINDOW: u16 = 6;
/// Largest plausible tick-to-tick change in measured wheel speed.
pub const WHEEL_MAX_DELTA_KMH: u8 = 30;
/// Minimum deceleration expected before a crash report is credible.
pub const CRASH_DECEL_KMH: u8 = 15;
/// Acceleration tolerated while braking before the pair is inconsistent.
///
/// Must be at least the legitimate lead's largest speed swing (20 km/h):
/// its speed and brake draws are independent, so a tighter bound would
/// flag honest traffic.
pub const BRAKE_ACCEL_TOLERANCE_KMH: u8 = 20;
/// The speed the value-spoof attacker advertises — far outside
/// [`PLATOON_MAX_SPEED_KMH`], so detection is stateless and immune to
/// message loss.
pub const IMPLAUSIBLE_SPEED_KMH: u8 = 240;

/// Behavioural envelope of the platoon-lead speed broadcast.
pub const PLATOON_SPEED_SPEC: SignalSpec = SignalSpec::new(
    "platoon-speed",
    0,
    PLATOON_MAX_SPEED_KMH,
    PLATOON_MAX_DELTA_KMH,
    PLATOON_STUCK_WINDOW,
);

/// Behavioural envelope of the in-vehicle wheel-speed sensor.
///
/// The stuck window is disabled: the sensor node legitimately broadcasts
/// a constant reading per drive cycle in this model.
pub const WHEEL_SPEED_SPEC: SignalSpec =
    SignalSpec::new("wheel-speed", 0, PLATOON_MAX_SPEED_KMH, WHEEL_MAX_DELTA_KMH, 0);

/// Zero-alloc per-signal state machine compiled from a [`SignalSpec`].
///
/// Fixed-size, `Copy`-cheap state: the last *plausible* sample and a
/// repeat counter. Flagged samples never advance the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalMonitor {
    spec: SignalSpec,
    last: Option<u8>,
    repeats: u16,
}

impl SignalMonitor {
    /// Compile `spec` into a fresh monitor with no history.
    pub const fn new(spec: SignalSpec) -> Self {
        SignalMonitor { spec, last: None, repeats: 0 }
    }

    /// The last plausible sample, if any has been seen.
    pub fn last(&self) -> Option<u8> {
        self.last
    }

    /// Judge one sample. Plausible samples are committed as the new
    /// baseline; flagged samples leave the monitor untouched.
    pub fn observe(&mut self, value: u8) -> AnomalyVerdict {
        if value < self.spec.min || value > self.spec.max {
            return AnomalyVerdict::OutOfRange;
        }
        if let Some(last) = self.last {
            if self.spec.max_delta > 0 && value.abs_diff(last) > self.spec.max_delta {
                return AnomalyVerdict::RateJump;
            }
            if value == last {
                self.repeats = self.repeats.saturating_add(1);
                if self.spec.stuck_window > 0 && self.repeats >= self.spec.stuck_window {
                    return AnomalyVerdict::Stuck;
                }
                return AnomalyVerdict::Ok;
            }
        }
        self.repeats = 0;
        self.last = Some(value);
        AnomalyVerdict::Ok
    }
}

/// One row of kinematic state for the cross-signal consistency check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KinematicSample {
    /// Current wheel speed (km/h).
    pub wheel_speed_kmh: u8,
    /// Wheel speed one sample earlier (km/h).
    pub prev_wheel_speed_kmh: u8,
    /// Whether the powertrain is currently producing torque.
    pub engine_running: bool,
    /// Whether the brake is currently applied.
    pub braking: bool,
    /// Whether the proximity sensor reports an obstacle.
    pub proximity_warning: bool,
    /// Whether a crash report accompanies this sample.
    pub crash_reported: bool,
}

/// The cross-signal consistency table: pure function of one sample.
///
/// Rules, in priority order:
/// 1. a crash report with neither a proximity warning nor at least
///    [`CRASH_DECEL_KMH`] of deceleration is uncorroborated,
/// 2. speed cannot increase with the engine off,
/// 3. speed cannot increase past [`BRAKE_ACCEL_TOLERANCE_KMH`] while
///    braking.
pub fn cross_signal_verdict(sample: &KinematicSample) -> AnomalyVerdict {
    let decel = sample.prev_wheel_speed_kmh.saturating_sub(sample.wheel_speed_kmh);
    if sample.crash_reported && !sample.proximity_warning && decel < CRASH_DECEL_KMH {
        return AnomalyVerdict::Inconsistent;
    }
    let accel = sample.wheel_speed_kmh.saturating_sub(sample.prev_wheel_speed_kmh);
    if !sample.engine_running && accel > 0 {
        return AnomalyVerdict::Inconsistent;
    }
    if sample.braking && accel > BRAKE_ACCEL_TOLERANCE_KMH {
        return AnomalyVerdict::Inconsistent;
    }
    AnomalyVerdict::Ok
}

/// Running tally of anomaly-rung activity, folded into the fleet
/// metrics by the owning vehicle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnomalyCounters {
    /// Observations judged.
    pub checked: u32,
    /// Observations flagged (any kind).
    pub flagged: u32,
    /// [`AnomalyVerdict::RateJump`] count.
    pub rate_jump: u32,
    /// [`AnomalyVerdict::OutOfRange`] count.
    pub out_of_range: u32,
    /// [`AnomalyVerdict::Stuck`] count.
    pub stuck: u32,
    /// [`AnomalyVerdict::Inconsistent`] count.
    pub inconsistent: u32,
}

impl AnomalyCounters {
    /// Record one verdict.
    pub fn tally(&mut self, verdict: AnomalyVerdict) {
        self.checked += 1;
        match verdict {
            AnomalyVerdict::Ok => {}
            AnomalyVerdict::RateJump => self.rate_jump += 1,
            AnomalyVerdict::OutOfRange => self.out_of_range += 1,
            AnomalyVerdict::Stuck => self.stuck += 1,
            AnomalyVerdict::Inconsistent => self.inconsistent += 1,
        }
        if verdict.flagged() {
            self.flagged += 1;
        }
    }
}

/// In-vehicle behavioural monitor attached to the EV-ECU.
///
/// Watches the sensor broadcasts the ECU already legitimately reads
/// (wheel speed, proximity) and corroborates crash reports against
/// them: a crash frame arriving with zero wheel-speed history, or
/// without the deceleration / proximity evidence a real crash leaves,
/// is judged [`AnomalyVerdict::Inconsistent`] and the hardwired
/// propulsion cut-off is suppressed. This is the rung that closes
/// Table I row 2 (value spoof from the legitimate sensor node).
#[derive(Debug, Clone, Copy)]
pub struct EcuMonitor {
    wheel: SignalMonitor,
    prev_wheel: Option<u8>,
    proximity_warning: bool,
    /// Tally of every judgement this monitor made.
    pub counters: AnomalyCounters,
}

impl Default for EcuMonitor {
    fn default() -> Self {
        EcuMonitor {
            wheel: SignalMonitor::new(WHEEL_SPEED_SPEC),
            prev_wheel: None,
            proximity_warning: false,
            counters: AnomalyCounters::default(),
        }
    }
}

impl EcuMonitor {
    /// Feed one wheel-speed sample from the sensor broadcast.
    pub fn observe_wheel(&mut self, kmh: u8) -> AnomalyVerdict {
        let before = self.wheel.last();
        let verdict = self.wheel.observe(kmh);
        if !verdict.flagged() {
            self.prev_wheel = before;
        }
        self.counters.tally(verdict);
        verdict
    }

    /// Feed the proximity sensor's current warning state.
    pub fn observe_proximity(&mut self, warning: bool) {
        self.proximity_warning = warning;
    }

    /// Judge an incoming crash report against the kinematic evidence.
    ///
    /// With no wheel-speed history at all the report is uncorroborated
    /// and therefore inconsistent — a frame cannot claim a crash before
    /// the vehicle has demonstrably moved.
    pub fn judge_crash(&mut self) -> AnomalyVerdict {
        let verdict = match self.wheel.last() {
            None => AnomalyVerdict::Inconsistent,
            Some(current) => cross_signal_verdict(&KinematicSample {
                wheel_speed_kmh: current,
                prev_wheel_speed_kmh: self.prev_wheel.unwrap_or(current),
                engine_running: true,
                braking: false,
                proximity_warning: self.proximity_warning,
                crash_reported: true,
            }),
        };
        self.counters.tally(verdict);
        verdict
    }
}

/// Behavioural monitor for the authenticated platoon-lead stream.
///
/// Applied as the final rung of the V2X ingest ladder, after
/// authentication, replay filtering and the policy check: the message
/// is from who it claims, fresh, and allowed — this rung asks whether
/// its *payload* is physically plausible.
#[derive(Debug, Clone, Copy)]
pub struct PlatoonMonitor {
    speed: SignalMonitor,
}

impl Default for PlatoonMonitor {
    fn default() -> Self {
        PlatoonMonitor { speed: SignalMonitor::new(PLATOON_SPEED_SPEC) }
    }
}

impl PlatoonMonitor {
    /// Judge one accepted platoon message's payload.
    pub fn judge(&mut self, speed_kmh: u8, braking: bool) -> AnomalyVerdict {
        if let Some(prev) = self.speed.last() {
            let sample = KinematicSample {
                wheel_speed_kmh: speed_kmh,
                prev_wheel_speed_kmh: prev,
                engine_running: true,
                braking,
                proximity_warning: false,
                crash_reported: false,
            };
            let cross = cross_signal_verdict(&sample);
            if cross.flagged() {
                return cross;
            }
        }
        self.speed.observe(speed_kmh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_bound_flags_without_committing() {
        let mut m = SignalMonitor::new(PLATOON_SPEED_SPEC);
        assert_eq!(m.observe(60), AnomalyVerdict::Ok);
        assert_eq!(m.observe(IMPLAUSIBLE_SPEED_KMH), AnomalyVerdict::OutOfRange);
        // Baseline unchanged: a legal follow-up near 60 is still fine.
        assert_eq!(m.last(), Some(60));
        assert_eq!(m.observe(70), AnomalyVerdict::Ok);
    }

    #[test]
    fn rate_bound_flags_large_jumps_and_keeps_the_baseline() {
        let mut m = SignalMonitor::new(WHEEL_SPEED_SPEC);
        assert_eq!(m.observe(20), AnomalyVerdict::Ok);
        // 80 km/h in one tick: the issue's canonical implausible jump.
        assert_eq!(m.observe(100), AnomalyVerdict::RateJump);
        assert_eq!(m.last(), Some(20));
        assert_eq!(m.observe(45), AnomalyVerdict::Ok);
    }

    #[test]
    fn stuck_value_flags_after_the_window() {
        let mut m = SignalMonitor::new(PLATOON_SPEED_SPEC);
        assert_eq!(m.observe(80), AnomalyVerdict::Ok);
        for _ in 0..PLATOON_STUCK_WINDOW - 1 {
            assert_eq!(m.observe(80), AnomalyVerdict::Ok);
        }
        assert_eq!(m.observe(80), AnomalyVerdict::Stuck);
        // Any movement resets the window.
        assert_eq!(m.observe(81), AnomalyVerdict::Ok);
        assert_eq!(m.observe(81), AnomalyVerdict::Ok);
    }

    #[test]
    fn disabled_checks_never_fire() {
        // Wheel spec has no stuck window: a constant sensor is legal.
        let mut m = SignalMonitor::new(WHEEL_SPEED_SPEC);
        for _ in 0..100 {
            assert_eq!(m.observe(60), AnomalyVerdict::Ok);
        }
    }

    /// KAT for the cross-signal wheel-speed / engine / brake / crash
    /// consistency table — one row per (inputs, expected verdict).
    #[test]
    fn cross_signal_consistency_table() {
        use AnomalyVerdict::{Inconsistent, Ok};
        // (wheel, prev, engine, brake, proximity, crash) -> verdict
        let table: &[(u8, u8, bool, bool, bool, bool, AnomalyVerdict)] = &[
            // Steady cruise, nothing reported.
            (60, 60, true, false, false, false, Ok),
            // Gentle braking.
            (55, 60, true, true, false, false, Ok),
            // Crash with hard deceleration: credible.
            (10, 60, true, true, false, true, Ok),
            // Crash with proximity warning but little deceleration: credible.
            (58, 60, true, false, true, true, Ok),
            // Crash with no deceleration and no proximity evidence: spoof.
            (60, 60, true, false, false, true, Inconsistent),
            // Crash while *accelerating*: spoof.
            (80, 60, true, false, false, true, Inconsistent),
            // Deceleration just under the threshold is not enough.
            (50, 60, true, false, false, true, Inconsistent),
            // Deceleration exactly at the threshold is.
            (45, 60, true, false, false, true, Ok),
            // Accelerating with the engine off.
            (30, 20, false, false, false, false, Inconsistent),
            // Coasting down with the engine off is fine.
            (15, 20, false, false, false, false, Ok),
            // Accelerating past the tolerance while braking.
            (85, 60, true, true, false, false, Inconsistent),
            // Accelerating at the tolerance while braking is allowed —
            // the legitimate lead's draws are independent.
            (80, 60, true, true, false, false, Ok),
        ];
        for &(wheel, prev, engine, brake, proximity, crash, expected) in table {
            let sample = KinematicSample {
                wheel_speed_kmh: wheel,
                prev_wheel_speed_kmh: prev,
                engine_running: engine,
                braking: brake,
                proximity_warning: proximity,
                crash_reported: crash,
            };
            assert_eq!(
                cross_signal_verdict(&sample),
                expected,
                "row {sample:?}"
            );
        }
    }

    #[test]
    fn ecu_monitor_rejects_uncorroborated_crash_reports() {
        // No wheel history at all: the Table I row-2 scenario, where the
        // sensor node is compromised before the first broadcast.
        let mut m = EcuMonitor::default();
        assert_eq!(m.judge_crash(), AnomalyVerdict::Inconsistent);

        // Steady speed, then a crash frame with no deceleration.
        let mut m = EcuMonitor::default();
        m.observe_wheel(60);
        m.observe_wheel(60);
        assert_eq!(m.judge_crash(), AnomalyVerdict::Inconsistent);

        // A real crash: proximity warning plus hard deceleration (within
        // the per-sample rate bound — a faster drop would itself be a
        // rate anomaly and must not commit as baseline).
        let mut m = EcuMonitor::default();
        m.observe_wheel(60);
        m.observe_wheel(35);
        m.observe_proximity(true);
        assert_eq!(m.judge_crash(), AnomalyVerdict::Ok);
        assert_eq!(m.counters.checked, 3);
        assert_eq!(m.counters.flagged, 0);
    }

    #[test]
    fn ecu_monitor_counts_every_judgement() {
        let mut m = EcuMonitor::default();
        m.observe_wheel(60);
        m.observe_wheel(200); // out of range
        m.observe_wheel(10); // rate jump vs 60
        assert_eq!(m.judge_crash(), AnomalyVerdict::Inconsistent);
        assert_eq!(m.counters.checked, 4);
        assert_eq!(m.counters.flagged, 3);
        assert_eq!(m.counters.out_of_range, 1);
        assert_eq!(m.counters.rate_jump, 1);
        assert_eq!(m.counters.inconsistent, 1);
    }

    #[test]
    fn platoon_monitor_accepts_the_legitimate_lead_profile() {
        // The lead draws speeds in 60..=80 and brakes independently:
        // no combination may be flagged.
        let mut m = PlatoonMonitor::default();
        for (speed, brake) in
            [(60, false), (80, true), (60, true), (72, false), (72, true), (61, false)]
        {
            assert_eq!(m.judge(speed, brake), AnomalyVerdict::Ok, "speed {speed} brake {brake}");
        }
    }

    #[test]
    fn platoon_monitor_flags_the_value_spoof_statelessly() {
        // First message ever seen is already implausible: detection must
        // not depend on having a baseline (messages may be lost).
        let mut m = PlatoonMonitor::default();
        assert_eq!(m.judge(IMPLAUSIBLE_SPEED_KMH, false), AnomalyVerdict::OutOfRange);
        // And after a legitimate baseline it is still rejected.
        assert_eq!(m.judge(65, false), AnomalyVerdict::Ok);
        assert_eq!(m.judge(IMPLAUSIBLE_SPEED_KMH, false), AnomalyVerdict::OutOfRange);
        assert_eq!(m.judge(66, false), AnomalyVerdict::Ok);
    }

    #[test]
    fn platoon_monitor_flags_braking_acceleration_inconsistency() {
        let mut m = PlatoonMonitor::default();
        assert_eq!(m.judge(60, false), AnomalyVerdict::Ok);
        // +25 while braking exceeds the 20 km/h tolerance (but not the
        // rate bound, which is also 25): cross-signal catches it first.
        assert_eq!(m.judge(85, true), AnomalyVerdict::Inconsistent);
        // The flagged sample did not advance the baseline.
        assert_eq!(m.judge(62, false), AnomalyVerdict::Ok);
    }
}
