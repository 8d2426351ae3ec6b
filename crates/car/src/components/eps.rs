//! Electronic power steering (EPS).
//!
//! Table I row 5: "EPS deactivation through compromised CAN node" — any
//! node can attempt an `EPS_COMMAND`; only diagnostics in remote-diagnostic
//! mode is a legitimate writer.

use super::{lock, policy_permits, shared, AppPolicy, Shared};
use crate::messages::{self, parse_command, Asset};
use polsec_can::{ActionVec, CanFrame, CanId, Firmware, FirmwareAction};
use polsec_core::Action;
use polsec_sim::SimTime;

/// Observable EPS state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpsState {
    /// Whether steering assist is active.
    pub assist_enabled: bool,
    /// Commands rejected by policy.
    pub rejected_commands: u32,
}

impl Default for EpsState {
    fn default() -> Self {
        EpsState {
            assist_enabled: true,
            rejected_commands: 0,
        }
    }
}

struct EpsFirmware {
    state: Shared<EpsState>,
    policy: Option<AppPolicy>,
}

/// Creates the EPS firmware and its state handle.
pub fn eps_firmware(policy: Option<AppPolicy>) -> (Box<dyn Firmware>, Shared<EpsState>) {
    let state = shared(EpsState::default());
    (
        Box::new(EpsFirmware {
            state: state.clone(),
            policy,
        }),
        state,
    )
}

impl Firmware for EpsFirmware {
    fn on_frame(&mut self, now: SimTime, frame: &CanFrame) -> ActionVec {
        if frame.id().raw() as u16 != messages::EPS_COMMAND {
            return ActionVec::new();
        }
        let Some((cmd, origin)) = parse_command(frame) else {
            return ActionVec::new();
        };
        if !policy_permits(&self.policy, origin, Asset::Eps, Action::Write, now) {
            lock(&self.state).rejected_commands += 1;
            return ActionVec::new();
        }
        let mut s = lock(&self.state);
        match cmd {
            0x01 => s.assist_enabled = true,
            0x02 => s.assist_enabled = false,
            _ => {}
        }
        ActionVec::new()
    }

    fn on_tick(&mut self, _now: SimTime) -> ActionVec {
        let enabled = lock(&self.state).assist_enabled;
        match CanFrame::data(CanId::Standard(messages::EPS_STATUS), &[u8::from(enabled)]) {
            Ok(f) => ActionVec::one(FirmwareAction::Send(f)),
            Err(_) => ActionVec::new(),
        }
    }

    fn name(&self) -> &str {
        "eps"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{command_frame, Origin};
    use polsec_core::dsl::parse_policy;
    use polsec_core::{EvalContext, PolicyEngine};
    use std::sync::Arc;

    fn diag_only_policy(mode: &str) -> AppPolicy {
        let p = parse_policy(
            r#"policy "eps" version 1 {
                allow write on asset:eps from entry:diagnostics when mode == "remote diagnostic";
            }"#,
        )
        .unwrap();
        AppPolicy::new(
            Arc::new(PolicyEngine::from_policy(p)),
            shared(EvalContext::new().with_mode(mode)),
        )
    }

    #[test]
    fn deactivation_without_policy_succeeds() {
        let (mut fw, state) = eps_firmware(None);
        let f = command_frame(messages::EPS_COMMAND, 0x02, Origin::Infotainment, &[]).unwrap();
        fw.on_frame(SimTime::ZERO, &f);
        assert!(!lock(&state).assist_enabled);
    }

    #[test]
    fn policy_blocks_deactivation_in_normal_mode() {
        let (mut fw, state) = eps_firmware(Some(diag_only_policy("normal")));
        let f = command_frame(messages::EPS_COMMAND, 0x02, Origin::Diagnostics, &[]).unwrap();
        fw.on_frame(SimTime::ZERO, &f);
        let s = lock(&state);
        assert!(s.assist_enabled);
        assert_eq!(s.rejected_commands, 1);
    }

    #[test]
    fn diagnostics_mode_permits_service_commands() {
        let (mut fw, state) = eps_firmware(Some(diag_only_policy("remote diagnostic")));
        let f = command_frame(messages::EPS_COMMAND, 0x02, Origin::Diagnostics, &[]).unwrap();
        fw.on_frame(SimTime::ZERO, &f);
        assert!(!lock(&state).assist_enabled);
    }

    #[test]
    fn other_frames_ignored() {
        let (mut fw, state) = eps_firmware(None);
        let f = CanFrame::data(CanId::Standard(messages::SENSOR_WHEEL_SPEED), &[60]).unwrap();
        fw.on_frame(SimTime::ZERO, &f);
        assert_eq!(*lock(&state), EpsState::default());
    }

    #[test]
    fn tick_reports_status() {
        let (mut fw, _s) = eps_firmware(None);
        let a = fw.on_tick(SimTime::ZERO);
        assert!(matches!(&a[0], FirmwareAction::Send(f) if f.id().raw() as u16 == messages::EPS_STATUS));
    }
}
