//! The safety-critical system (crash handling, alarm, fail-safe).
//!
//! Table I rows 15–16: false fail-safe triggering to unlock the vehicle,
//! and alarm disablement to allow theft. Crash handling: broadcast the
//! safety event, raise the fail-safe trigger and record the crash in the
//! situational context.

use super::{lock, policy_permits, shared, AppPolicy, Shared};
use crate::messages::{self, parse_command, Asset};
use polsec_can::{ActionVec, CanFrame, CanId, Firmware, FirmwareAction};
use polsec_core::Action;
use polsec_sim::SimTime;

/// Observable safety-system state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyState {
    /// Whether the alarm/immobiliser is armed.
    pub alarm_armed: bool,
    /// Whether a crash has been detected.
    pub crash_detected: bool,
    /// Fail-safe triggers raised.
    pub failsafe_triggers: u32,
    /// Crash reactions suppressed by the plausibility policy.
    pub suppressed_reactions: u32,
    /// Alarm-control commands rejected by policy.
    pub rejected_commands: u32,
}

impl Default for SafetyState {
    fn default() -> Self {
        SafetyState {
            alarm_armed: true,
            crash_detected: false,
            failsafe_triggers: 0,
            suppressed_reactions: 0,
            rejected_commands: 0,
        }
    }
}

struct SafetyFirmware {
    state: Shared<SafetyState>,
    policy: Option<AppPolicy>,
}

/// Creates the safety-system firmware and its state handle.
pub fn safety_firmware(policy: Option<AppPolicy>) -> (Box<dyn Firmware>, Shared<SafetyState>) {
    let state = shared(SafetyState::default());
    (
        Box::new(SafetyFirmware {
            state: state.clone(),
            policy,
        }),
        state,
    )
}

impl Firmware for SafetyFirmware {
    fn on_frame(&mut self, now: SimTime, frame: &CanFrame) -> ActionVec {
        match frame.id().raw() as u16 {
            messages::SENSOR_CRASH => {
                if frame.payload().first().copied().unwrap_or(0) == 0 {
                    return ActionVec::new();
                }
                // Behavioural plausibility: with the app policy on, a crash
                // while the vehicle is stationary and parked (row 15's false
                // trigger to unlock a parked car) is treated as implausible.
                if let Some(p) = &self.policy {
                    let moving = p.state("vehicle.moving").as_deref() == Some("true");
                    if !moving {
                        lock(&self.state).suppressed_reactions += 1;
                        return ActionVec::new();
                    }
                    p.set_state("crash", "true");
                }
                let mut s = lock(&self.state);
                s.crash_detected = true;
                s.failsafe_triggers += 1;
                drop(s);
                let mut out = ActionVec::new();
                if let Ok(f) = CanFrame::data(CanId::Standard(messages::SAFETY_EVENT), &[1]) {
                    out.push(FirmwareAction::Send(f));
                }
                if let Ok(f) = CanFrame::data(CanId::Standard(messages::FAILSAFE_TRIGGER), &[1]) {
                    out.push(FirmwareAction::Send(f));
                }
                out
            }
            messages::ALARM_CONTROL => {
                let Some((cmd, origin)) = parse_command(frame) else {
                    return ActionVec::new();
                };
                if !policy_permits(&self.policy, origin, Asset::SafetyCritical, Action::Write, now) {
                    lock(&self.state).rejected_commands += 1;
                    return ActionVec::new();
                }
                let mut s = lock(&self.state);
                s.alarm_armed = cmd != 0x00;
                ActionVec::new()
            }
            _ => ActionVec::new(),
        }
    }

    fn name(&self) -> &str {
        "safety-critical"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{command_frame, Origin};
    use polsec_core::dsl::parse_policy;
    use polsec_core::{EvalContext, PolicyEngine};
    use std::sync::Arc;

    fn app(moving: bool) -> AppPolicy {
        let p = parse_policy(
            r#"policy "safety" version 1 {
                allow write on asset:safety-critical from entry:manual;
            }"#,
        )
        .unwrap();
        let ctx = EvalContext::new()
            .with_mode("normal")
            .with_state("vehicle.moving", if moving { "true" } else { "false" })
            .with_state("crash", "false");
        AppPolicy::new(Arc::new(PolicyEngine::from_policy(p)), shared(ctx))
    }

    fn crash_frame() -> CanFrame {
        CanFrame::data(CanId::Standard(messages::SENSOR_CRASH), &[1]).unwrap()
    }

    #[test]
    fn crash_while_moving_raises_failsafe() {
        let app = app(true);
        let (mut fw, state) = safety_firmware(Some(app.clone()));
        let actions = fw.on_frame(SimTime::ZERO, &crash_frame());
        let ids: Vec<u16> = actions
            .iter()
            .filter_map(|a| match a {
                FirmwareAction::Send(f) => Some(f.id().raw() as u16),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![messages::SAFETY_EVENT, messages::FAILSAFE_TRIGGER]);
        assert!(lock(&state).crash_detected);
        assert_eq!(app.state("crash").as_deref(), Some("true"));
    }

    #[test]
    fn stationary_crash_report_is_suppressed() {
        let (mut fw, state) = safety_firmware(Some(app(false)));
        let actions = fw.on_frame(SimTime::ZERO, &crash_frame());
        assert!(actions.is_empty(), "no safety event or fail-safe trigger is sent");
        let s = lock(&state);
        assert!(!s.crash_detected, "row 15 false trigger suppressed");
        assert_eq!(s.suppressed_reactions, 1);
    }

    #[test]
    fn unprotected_safety_reacts_to_any_crash_report() {
        let (mut fw, state) = safety_firmware(None);
        fw.on_frame(SimTime::ZERO, &crash_frame());
        assert!(lock(&state).crash_detected);
    }

    #[test]
    fn alarm_disarm_restricted_to_manual() {
        let (mut fw, state) = safety_firmware(Some(app(false)));
        let remote = command_frame(messages::ALARM_CONTROL, 0x00, Origin::Infotainment, &[]).unwrap();
        fw.on_frame(SimTime::ZERO, &remote);
        assert!(lock(&state).alarm_armed, "row 16 theft attempt denied");
        assert_eq!(lock(&state).rejected_commands, 1);
        let key = command_frame(messages::ALARM_CONTROL, 0x00, Origin::Manual, &[]).unwrap();
        fw.on_frame(SimTime::ZERO, &key);
        assert!(!lock(&state).alarm_armed);
    }

    #[test]
    fn zero_crash_value_ignored() {
        let (mut fw, state) = safety_firmware(None);
        let quiet = CanFrame::data(CanId::Standard(messages::SENSOR_CRASH), &[0]).unwrap();
        assert!(fw.on_frame(SimTime::ZERO, &quiet).is_empty());
        assert!(!lock(&state).crash_detected);
    }
}
