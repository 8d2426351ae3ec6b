//! The EV-ECU (accelerator, brake, transmission control).
//!
//! The paper's most critical asset. Propulsion can be disabled by a
//! legitimate `ECU_COMMAND` (policy-checked) or by a crash report from the
//! crash sensor (hardwired reaction). Table I row 1's threat is exactly the
//! abuse of these paths with spoofed frames.

use super::{lock, policy_permits, shared, AppPolicy, Shared};
use crate::anomaly::EcuMonitor;
use crate::messages::{self, parse_command, Asset};
use polsec_can::{ActionVec, CanFrame, Firmware, FirmwareAction};
use polsec_core::Action;
use polsec_sim::SimTime;

/// Maximum platoon speed while in limp-home (km/h).
pub const LIMP_HOME_SPEED_KMH: u8 = 30;
/// Following gap during normal platooning (metres).
pub const NORMAL_GAP_M: u8 = 20;
/// Widened following gap while in limp-home (metres).
pub const LIMP_HOME_GAP_M: u8 = 40;

/// Observable EV-ECU state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcuState {
    /// Whether propulsion is currently enabled.
    pub propulsion_enabled: bool,
    /// Disable events honoured (from commands or crash reports).
    pub disable_events: u32,
    /// Commands rejected by the application policy.
    pub rejected_commands: u32,
    /// Crash reports acted on.
    pub crash_reactions: u32,
    /// Platoon target speed from the last accepted V2X lead relay
    /// (0 = not platooning).
    pub platoon_speed: u8,
    /// Whether the platoon lead currently reports braking.
    pub platoon_braking: bool,
    /// V2X lead relays consumed.
    pub platoon_msgs: u32,
    /// Whether the ECU is in limp-home (degraded platoon following): the
    /// speed target is clamped to [`LIMP_HOME_SPEED_KMH`] and the gap
    /// widened to [`LIMP_HOME_GAP_M`].
    pub degraded: bool,
    /// Current following gap in metres.
    pub platoon_gap_m: u8,
    /// Limp-home entries honoured (from `V2X_HEALTH` relays).
    pub degraded_events: u32,
    /// Limp-home exits honoured.
    pub resumed_events: u32,
    /// Crash reports suppressed by the behavioural monitor as
    /// implausible (Table I row 2 value spoofs).
    pub implausible_crashes: u32,
}

impl Default for EcuState {
    fn default() -> Self {
        EcuState {
            propulsion_enabled: true,
            disable_events: 0,
            rejected_commands: 0,
            crash_reactions: 0,
            platoon_speed: 0,
            platoon_braking: false,
            platoon_msgs: 0,
            degraded: false,
            platoon_gap_m: NORMAL_GAP_M,
            degraded_events: 0,
            resumed_events: 0,
            implausible_crashes: 0,
        }
    }
}

struct EcuFirmware {
    state: Shared<EcuState>,
    policy: Option<AppPolicy>,
    monitor: Option<Shared<EcuMonitor>>,
}

/// Creates the EV-ECU firmware and its state handle.
pub fn ecu_firmware(policy: Option<AppPolicy>) -> (Box<dyn Firmware>, Shared<EcuState>) {
    ecu_firmware_monitored(policy, None)
}

/// Creates the EV-ECU firmware with an optional behavioural monitor (the
/// anomaly rung): when present, crash reports are corroborated against
/// the wheel-speed and proximity broadcasts before the hardwired
/// propulsion cut-off fires, and the monitor's verdict is published to
/// the policy layer as `state.implausible`.
pub fn ecu_firmware_monitored(
    policy: Option<AppPolicy>,
    monitor: Option<Shared<EcuMonitor>>,
) -> (Box<dyn Firmware>, Shared<EcuState>) {
    let state = shared(EcuState::default());
    (
        Box::new(EcuFirmware {
            state: state.clone(),
            policy,
            monitor,
        }),
        state,
    )
}

impl Firmware for EcuFirmware {
    fn on_frame(&mut self, now: SimTime, frame: &CanFrame) -> ActionVec {
        let id = frame.id().raw() as u16;
        match id {
            messages::ECU_COMMAND => {
                let Some((cmd, origin)) = parse_command(frame) else {
                    return ActionVec::new();
                };
                let allowed =
                    policy_permits(&self.policy, origin, Asset::EvEcu, Action::Write, now);
                let mut s = lock(&self.state);
                if !allowed {
                    s.rejected_commands += 1;
                    return ActionVec::new();
                }
                match cmd {
                    0x01 => s.propulsion_enabled = true,
                    0x02 => {
                        s.propulsion_enabled = false;
                        s.disable_events += 1;
                    }
                    _ => {}
                }
                ActionVec::new()
            }
            messages::SENSOR_CRASH => {
                // Hardwired safety reaction: a crash report stops propulsion.
                if frame.payload().first().copied().unwrap_or(0) > 0 {
                    // Anomaly rung (Table I row 2): corroborate the report
                    // against the kinematic evidence before actuating. A
                    // value spoof from the legitimate sensor node passes
                    // every ID-based rung; only the behavioural monitor can
                    // tell that nothing in the wheel-speed or proximity
                    // stream supports a crash.
                    if let Some(monitor) = &self.monitor {
                        let verdict = lock(monitor).judge_crash();
                        if verdict.flagged() {
                            let mut s = lock(&self.state);
                            s.implausible_crashes += 1;
                            if let Some(policy) = &self.policy {
                                policy.set_state("implausible", "true");
                            }
                            return ActionVec::new();
                        }
                    }
                    let mut s = lock(&self.state);
                    s.propulsion_enabled = false;
                    s.disable_events += 1;
                    s.crash_reactions += 1;
                }
                ActionVec::new()
            }
            messages::SENSOR_WHEEL_SPEED => {
                // Feed the behavioural monitor; the ECU has no other use
                // for the broadcast.
                if let (Some(monitor), Some(&kmh)) =
                    (&self.monitor, frame.payload().first())
                {
                    lock(monitor).observe_wheel(kmh);
                }
                ActionVec::new()
            }
            messages::SENSOR_PROXIMITY => {
                if let (Some(monitor), Some(&warn)) =
                    (&self.monitor, frame.payload().first())
                {
                    lock(monitor).observe_proximity(warn > 0);
                }
                ActionVec::new()
            }
            messages::V2X_LEAD => {
                // Authenticated platoon relay from the telematics unit: the
                // V2X layer already verified it (auth tag, replay window,
                // per-vehicle policy) before it was allowed onto the bus.
                let p = frame.payload();
                if p.len() >= 2 {
                    let mut s = lock(&self.state);
                    // In limp-home the lead's target is clamped: the
                    // follower keeps tracking but refuses to go faster than
                    // the degraded ceiling until the health relay clears.
                    s.platoon_speed = if s.degraded {
                        p[0].min(LIMP_HOME_SPEED_KMH)
                    } else {
                        p[0]
                    };
                    s.platoon_braking = p[1] != 0;
                    s.platoon_msgs += 1;
                }
                ActionVec::new()
            }
            messages::V2X_HEALTH => {
                // Heartbeat-monitor verdict relayed by the telematics unit;
                // the V2X ladder (and its hysteresis machine) already
                // decided, the ECU merely actuates the degraded envelope.
                let Some(&flag) = frame.payload().first() else {
                    return ActionVec::new();
                };
                let mut s = lock(&self.state);
                if flag != 0 && !s.degraded {
                    s.degraded = true;
                    s.degraded_events += 1;
                    s.platoon_gap_m = LIMP_HOME_GAP_M;
                    s.platoon_speed = s.platoon_speed.min(LIMP_HOME_SPEED_KMH);
                } else if flag == 0 && s.degraded {
                    s.degraded = false;
                    s.resumed_events += 1;
                    s.platoon_gap_m = NORMAL_GAP_M;
                }
                ActionVec::new()
            }
            _ => ActionVec::new(),
        }
    }

    fn on_tick(&mut self, _now: SimTime) -> ActionVec {
        let enabled = lock(&self.state).propulsion_enabled;
        match CanFrame::data(
            polsec_can::CanId::Standard(messages::ECU_STATUS),
            &[u8::from(enabled)],
        ) {
            Ok(f) => ActionVec::one(FirmwareAction::Send(f)),
            Err(_) => ActionVec::new(),
        }
    }

    fn name(&self) -> &str {
        "ev-ecu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{command_frame, Origin};
    use polsec_core::dsl::parse_policy;
    use polsec_core::{EvalContext, PolicyEngine};
    use std::sync::Arc;

    fn policy_point() -> AppPolicy {
        let policy = parse_policy(
            r#"policy "ecu" version 1 {
                allow write on asset:ev-ecu from entry:safety-critical when state.crash == true;
                allow write on asset:ev-ecu from entry:diagnostics when mode == "remote diagnostic";
            }"#,
        )
        .unwrap();
        AppPolicy::new(
            Arc::new(PolicyEngine::from_policy(policy)),
            shared(EvalContext::new().with_mode("normal")),
        )
    }

    fn disable_cmd(origin: Origin) -> CanFrame {
        command_frame(messages::ECU_COMMAND, 0x02, origin, &[]).unwrap()
    }

    #[test]
    fn unprotected_ecu_honours_any_command() {
        let (mut fw, state) = ecu_firmware(None);
        fw.on_frame(SimTime::ZERO, &disable_cmd(Origin::Telematics));
        assert!(!lock(&state).propulsion_enabled);
        assert_eq!(lock(&state).disable_events, 1);
    }

    #[test]
    fn policy_rejects_unauthorised_disable() {
        let (mut fw, state) = ecu_firmware(Some(policy_point()));
        fw.on_frame(SimTime::ZERO, &disable_cmd(Origin::SafetyCritical));
        let s = lock(&state);
        assert!(s.propulsion_enabled, "no crash: safety-critical may not stop");
        assert_eq!(s.rejected_commands, 1);
    }

    #[test]
    fn crash_state_authorises_safety_stop() {
        let app = policy_point();
        app.set_state("crash", "true");
        let (mut fw, state) = ecu_firmware(Some(app));
        fw.on_frame(SimTime::ZERO, &disable_cmd(Origin::SafetyCritical));
        assert!(!lock(&state).propulsion_enabled);
    }

    #[test]
    fn crash_sensor_reaction_is_hardwired() {
        let (mut fw, state) = ecu_firmware(Some(policy_point()));
        let crash = CanFrame::data(
            polsec_can::CanId::Standard(messages::SENSOR_CRASH),
            &[1],
        )
        .unwrap();
        fw.on_frame(SimTime::ZERO, &crash);
        let s = lock(&state);
        assert!(!s.propulsion_enabled);
        assert_eq!(s.crash_reactions, 1);
    }

    #[test]
    fn zero_crash_value_is_ignored() {
        let (mut fw, state) = ecu_firmware(None);
        let quiet = CanFrame::data(
            polsec_can::CanId::Standard(messages::SENSOR_CRASH),
            &[0],
        )
        .unwrap();
        fw.on_frame(SimTime::ZERO, &quiet);
        assert!(lock(&state).propulsion_enabled);
    }

    #[test]
    fn re_enable_via_command() {
        let (mut fw, state) = ecu_firmware(None);
        fw.on_frame(SimTime::ZERO, &disable_cmd(Origin::Diagnostics));
        assert!(!lock(&state).propulsion_enabled);
        let enable = command_frame(messages::ECU_COMMAND, 0x01, Origin::Diagnostics, &[]).unwrap();
        fw.on_frame(SimTime::ZERO, &enable);
        assert!(lock(&state).propulsion_enabled);
    }

    #[test]
    fn tick_broadcasts_status() {
        let (mut fw, _state) = ecu_firmware(None);
        let actions = fw.on_tick(SimTime::ZERO);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            FirmwareAction::Send(f) => {
                assert_eq!(f.id().raw() as u16, messages::ECU_STATUS);
                assert_eq!(f.payload(), &[1]);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn v2x_lead_relay_updates_platoon_state() {
        let (mut fw, state) = ecu_firmware(None);
        let f = CanFrame::data(polsec_can::CanId::Standard(messages::V2X_LEAD), &[72, 1, 3, 0])
            .unwrap();
        fw.on_frame(SimTime::ZERO, &f);
        let s = lock(&state);
        assert_eq!(s.platoon_speed, 72);
        assert!(s.platoon_braking);
        assert_eq!(s.platoon_msgs, 1);
        drop(s);
        // a short frame is ignored
        let stub = CanFrame::data(polsec_can::CanId::Standard(messages::V2X_LEAD), &[9]).unwrap();
        fw.on_frame(SimTime::ZERO, &stub);
        assert_eq!(lock(&state).platoon_msgs, 1);
    }

    fn health_frame(flag: u8) -> CanFrame {
        CanFrame::data(polsec_can::CanId::Standard(messages::V2X_HEALTH), &[flag]).unwrap()
    }

    fn lead_frame(speed: u8) -> CanFrame {
        CanFrame::data(
            polsec_can::CanId::Standard(messages::V2X_LEAD),
            &[speed, 0, 1, 0],
        )
        .unwrap()
    }

    #[test]
    fn limp_home_clamps_platoon_speed_and_widens_gap() {
        let (mut fw, state) = ecu_firmware(None);
        fw.on_frame(SimTime::ZERO, &lead_frame(72));
        assert_eq!(lock(&state).platoon_speed, 72);
        assert_eq!(lock(&state).platoon_gap_m, NORMAL_GAP_M);

        fw.on_frame(SimTime::ZERO, &health_frame(1));
        {
            let s = lock(&state);
            assert!(s.degraded);
            assert_eq!(s.degraded_events, 1);
            assert_eq!(s.platoon_gap_m, LIMP_HOME_GAP_M);
            assert_eq!(s.platoon_speed, LIMP_HOME_SPEED_KMH, "clamped on entry");
        }
        // lead targets above the ceiling are clamped while degraded
        fw.on_frame(SimTime::ZERO, &lead_frame(80));
        assert_eq!(lock(&state).platoon_speed, LIMP_HOME_SPEED_KMH);
        // slower-than-ceiling targets pass through (braking still works)
        fw.on_frame(SimTime::ZERO, &lead_frame(10));
        assert_eq!(lock(&state).platoon_speed, 10);

        fw.on_frame(SimTime::ZERO, &health_frame(0));
        {
            let s = lock(&state);
            assert!(!s.degraded);
            assert_eq!(s.resumed_events, 1);
            assert_eq!(s.platoon_gap_m, NORMAL_GAP_M);
        }
        fw.on_frame(SimTime::ZERO, &lead_frame(80));
        assert_eq!(lock(&state).platoon_speed, 80, "clamp lifts on resume");
    }

    #[test]
    fn health_transitions_are_idempotent_and_reject_empty_frames() {
        let (mut fw, state) = ecu_firmware(None);
        for _ in 0..3 {
            fw.on_frame(SimTime::ZERO, &health_frame(1));
        }
        assert_eq!(lock(&state).degraded_events, 1, "re-entry is a no-op");
        for _ in 0..3 {
            fw.on_frame(SimTime::ZERO, &health_frame(0));
        }
        assert_eq!(lock(&state).resumed_events, 1, "re-exit is a no-op");
        let empty =
            CanFrame::data(polsec_can::CanId::Standard(messages::V2X_HEALTH), &[]).unwrap();
        fw.on_frame(SimTime::ZERO, &empty);
        assert!(!lock(&state).degraded);
    }

    fn crash_frame() -> CanFrame {
        CanFrame::data(polsec_can::CanId::Standard(messages::SENSOR_CRASH), &[1]).unwrap()
    }

    fn wheel_frame(kmh: u8) -> CanFrame {
        CanFrame::data(
            polsec_can::CanId::Standard(messages::SENSOR_WHEEL_SPEED),
            &[kmh, 0],
        )
        .unwrap()
    }

    #[test]
    fn monitored_ecu_suppresses_uncorroborated_crash_reports() {
        // Table I row 2: the compromised sensor node injects a crash
        // report before the vehicle has any wheel-speed history.
        let monitor = shared(EcuMonitor::default());
        let (mut fw, state) = ecu_firmware_monitored(None, Some(monitor.clone()));
        fw.on_frame(SimTime::ZERO, &crash_frame());
        let s = lock(&state);
        assert!(s.propulsion_enabled, "implausible crash must not stop the car");
        assert_eq!(s.crash_reactions, 0);
        assert_eq!(s.implausible_crashes, 1);
        drop(s);
        assert_eq!(lock(&monitor).counters.inconsistent, 1);
    }

    #[test]
    fn monitored_ecu_honours_corroborated_crash_reports() {
        let monitor = shared(EcuMonitor::default());
        let (mut fw, state) = ecu_firmware_monitored(None, Some(monitor));
        fw.on_frame(SimTime::ZERO, &wheel_frame(60));
        fw.on_frame(SimTime::ZERO, &wheel_frame(20)); // hard deceleration
        let prox = CanFrame::data(
            polsec_can::CanId::Standard(messages::SENSOR_PROXIMITY),
            &[1],
        )
        .unwrap();
        fw.on_frame(SimTime::ZERO, &prox);
        fw.on_frame(SimTime::ZERO, &crash_frame());
        let s = lock(&state);
        assert!(!s.propulsion_enabled, "a corroborated crash still stops the car");
        assert_eq!(s.crash_reactions, 1);
        assert_eq!(s.implausible_crashes, 0);
    }

    #[test]
    fn implausible_crash_is_published_as_policy_state() {
        let app = policy_point();
        let monitor = shared(EcuMonitor::default());
        let (mut fw, _state) =
            ecu_firmware_monitored(Some(app.clone()), Some(monitor));
        fw.on_frame(SimTime::ZERO, &crash_frame());
        assert_eq!(app.state("implausible").as_deref(), Some("true"));
    }

    #[test]
    fn malformed_commands_are_ignored() {
        let (mut fw, state) = ecu_firmware(None);
        let junk = CanFrame::data(
            polsec_can::CanId::Standard(messages::ECU_COMMAND),
            &[0x02],
        )
        .unwrap(); // missing origin byte
        fw.on_frame(SimTime::ZERO, &junk);
        assert!(lock(&state).propulsion_enabled);
    }
}
