//! The telematics unit (3G/4G/WiFi).
//!
//! Carries the remote-facing threats of Table I rows 3, 4, 7–10: tracking
//! after theft, fail-safe override, modem disablement (which kills
//! emergency calls) and the privacy exfiltration path.

use super::{lock, policy_permits, shared, AppPolicy, Shared};
use crate::messages::{self, command_frame, parse_command, Asset, Origin};
use polsec_can::{ActionVec, CanFrame, CanId, Firmware, FirmwareAction};
use polsec_core::Action;
use polsec_sim::SimTime;

/// Observable telematics state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelematicsState {
    /// Whether the modem is powered.
    pub modem_enabled: bool,
    /// Whether theft tracking is active.
    pub tracking_enabled: bool,
    /// Tracking reports uplinked.
    pub track_reports: u32,
    /// Emergency calls placed.
    pub ecalls: u32,
    /// Fail-safe override commands relayed to the ECU.
    pub failsafe_overrides: u32,
    /// Commands rejected by policy.
    pub rejected_commands: u32,
}

impl Default for TelematicsState {
    fn default() -> Self {
        TelematicsState {
            modem_enabled: true,
            tracking_enabled: true,
            track_reports: 0,
            ecalls: 0,
            failsafe_overrides: 0,
            rejected_commands: 0,
        }
    }
}

struct TelematicsFirmware {
    state: Shared<TelematicsState>,
    policy: Option<AppPolicy>,
}

/// Creates the telematics firmware and its state handle.
pub fn telematics_firmware(
    policy: Option<AppPolicy>,
) -> (Box<dyn Firmware>, Shared<TelematicsState>) {
    let state = shared(TelematicsState::default());
    (
        Box::new(TelematicsFirmware {
            state: state.clone(),
            policy,
        }),
        state,
    )
}

impl Firmware for TelematicsFirmware {
    fn on_frame(&mut self, now: SimTime, frame: &CanFrame) -> ActionVec {
        match frame.id().raw() as u16 {
            messages::MODEM_CONTROL => {
                let Some((cmd, origin)) = parse_command(frame) else {
                    return ActionVec::new();
                };
                if !policy_permits(&self.policy, origin, Asset::Modem, Action::Configure, now) {
                    lock(&self.state).rejected_commands += 1;
                    return ActionVec::new();
                }
                let mut s = lock(&self.state);
                s.modem_enabled = cmd != 0x00;
                ActionVec::new()
            }
            messages::TELEMATICS_CMD => {
                let Some((cmd, origin)) = parse_command(frame) else {
                    return ActionVec::new();
                };
                match cmd {
                    // remote tracking request
                    0x01 => {
                        let s = lock(&self.state);
                        if s.modem_enabled && s.tracking_enabled {
                            drop(s);
                            lock(&self.state).track_reports += 1;
                            return send_one(messages::TELEMATICS_TRACK, &[0x01]);
                        }
                        ActionVec::new()
                    }
                    // disable tracking (the theft scenario)
                    0x02 => {
                        if !policy_permits(&self.policy, origin, Asset::Modem, Action::Write, now) {
                            lock(&self.state).rejected_commands += 1;
                            return ActionVec::new();
                        }
                        lock(&self.state).tracking_enabled = false;
                        ActionVec::new()
                    }
                    // fail-safe override: re-enable the vehicle remotely
                    0x03 => {
                        if !policy_permits(&self.policy, origin, Asset::EvEcu, Action::Write, now) {
                            lock(&self.state).rejected_commands += 1;
                            return ActionVec::new();
                        }
                        lock(&self.state).failsafe_overrides += 1;
                        match command_frame(messages::ECU_COMMAND, 0x01, Origin::Telematics, &[]) {
                            Ok(f) => ActionVec::one(FirmwareAction::Send(f)),
                            Err(_) => ActionVec::new(),
                        }
                    }
                    _ => ActionVec::new(),
                }
            }
            messages::SAFETY_EVENT => {
                let mut s = lock(&self.state);
                if s.modem_enabled {
                    s.ecalls += 1;
                    drop(s);
                    return send_one(messages::ECALL, &[0x01]);
                }
                ActionVec::new()
            }
            _ => ActionVec::new(),
        }
    }

    fn on_tick(&mut self, _now: SimTime) -> ActionVec {
        let mut s = lock(&self.state);
        if s.modem_enabled && s.tracking_enabled {
            s.track_reports += 1;
            drop(s);
            return send_one(messages::TELEMATICS_TRACK, &[0x00]);
        }
        ActionVec::new()
    }

    fn name(&self) -> &str {
        "telematics"
    }
}

fn send_one(id: u16, payload: &[u8]) -> ActionVec {
    match CanFrame::data(CanId::Standard(id), payload) {
        Ok(f) => ActionVec::one(FirmwareAction::Send(f)),
        Err(_) => ActionVec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polsec_core::dsl::parse_policy;
    use polsec_core::{EvalContext, PolicyEngine};
    use std::sync::Arc;

    fn app(mode: &str, stolen: bool) -> AppPolicy {
        let p = parse_policy(
            r#"policy "telematics" version 1 {
                allow configure on asset:3g-4g-wifi from entry:manual;
                allow write on asset:3g-4g-wifi from entry:telematics when state.stolen == false;
            }"#,
        )
        .unwrap();
        let ctx = EvalContext::new()
            .with_mode(mode)
            .with_state("stolen", if stolen { "true" } else { "false" });
        AppPolicy::new(Arc::new(PolicyEngine::from_policy(p)), shared(ctx))
    }

    #[test]
    fn modem_disable_without_policy() {
        let (mut fw, state) = telematics_firmware(None);
        let f = command_frame(messages::MODEM_CONTROL, 0x00, Origin::Telematics, &[]).unwrap();
        fw.on_frame(SimTime::ZERO, &f);
        assert!(!lock(&state).modem_enabled);
    }

    #[test]
    fn policy_restricts_modem_control_to_manual() {
        let (mut fw, state) = telematics_firmware(Some(app("normal", false)));
        let remote = command_frame(messages::MODEM_CONTROL, 0x00, Origin::Telematics, &[]).unwrap();
        fw.on_frame(SimTime::ZERO, &remote);
        assert!(lock(&state).modem_enabled);
        assert_eq!(lock(&state).rejected_commands, 1);
        let manual = command_frame(messages::MODEM_CONTROL, 0x00, Origin::Manual, &[]).unwrap();
        fw.on_frame(SimTime::ZERO, &manual);
        assert!(!lock(&state).modem_enabled);
    }

    #[test]
    fn tracking_disable_blocked_after_theft() {
        let (mut fw, state) = telematics_firmware(Some(app("normal", true)));
        let f = command_frame(messages::TELEMATICS_CMD, 0x02, Origin::Telematics, &[]).unwrap();
        fw.on_frame(SimTime::ZERO, &f);
        assert!(lock(&state).tracking_enabled, "stolen car keeps tracking");
        // before theft the same command is legitimate (policy RW in Table I)
        let (mut fw2, state2) = telematics_firmware(Some(app("normal", false)));
        fw2.on_frame(SimTime::ZERO, &f);
        assert!(!lock(&state2).tracking_enabled);
    }

    #[test]
    fn failsafe_override_denied_by_default_policy() {
        let (mut fw, state) = telematics_firmware(Some(app("fail-safe", false)));
        let f = command_frame(messages::TELEMATICS_CMD, 0x03, Origin::Telematics, &[]).unwrap();
        let actions = fw.on_frame(SimTime::ZERO, &f);
        assert_eq!(lock(&state).failsafe_overrides, 0);
        assert_eq!(lock(&state).rejected_commands, 1);
        assert!(actions.is_empty(), "no enable command is relayed to the ECU");
        // unprotected: the override relays an enable command to the ECU
        let (mut fw2, state2) = telematics_firmware(None);
        let actions = fw2.on_frame(SimTime::ZERO, &f);
        assert_eq!(lock(&state2).failsafe_overrides, 1);
        assert!(
            matches!(&actions[0], FirmwareAction::Send(f) if f.id().raw() as u16 == messages::ECU_COMMAND)
        );
    }

    #[test]
    fn crash_places_ecall_when_modem_up() {
        let (mut fw, state) = telematics_firmware(None);
        let crash = CanFrame::data(CanId::Standard(messages::SAFETY_EVENT), &[1]).unwrap();
        let actions = fw.on_frame(SimTime::ZERO, &crash);
        assert_eq!(lock(&state).ecalls, 1);
        assert!(
            matches!(&actions[0], FirmwareAction::Send(f) if f.id().raw() as u16 == messages::ECALL)
        );
        // with the modem down, no ecall — the row 9/10 attack objective
        lock(&state).modem_enabled = false;
        let actions = fw.on_frame(SimTime::ZERO, &crash);
        assert!(actions.is_empty());
        assert_eq!(lock(&state).ecalls, 1);
    }

    #[test]
    fn tick_uplinks_tracking() {
        let (mut fw, state) = telematics_firmware(None);
        fw.on_tick(SimTime::ZERO);
        assert_eq!(lock(&state).track_reports, 1);
        lock(&state).tracking_enabled = false;
        fw.on_tick(SimTime::ZERO);
        assert_eq!(lock(&state).track_reports, 1);
    }
}
