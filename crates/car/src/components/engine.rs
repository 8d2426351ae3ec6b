//! Engine controller.
//!
//! Table I row 6: "Deactivation through compromised sensor". The engine
//! shuts down on sustained overheat readings. With the application policy
//! on, a **behavioural plausibility check** guards the reaction: a reading
//! that jumps implausibly from the last one is ignored (the paper's
//! "behavioural or situational based policies").

use super::{lock, policy_permits, shared, AppPolicy, Shared};
use crate::messages::{self, parse_command, Asset};
use polsec_can::{ActionVec, CanFrame, CanId, Firmware, FirmwareAction};
use polsec_core::Action;
use polsec_sim::SimTime;

/// Temperature at or above which the engine protects itself by shutting
/// down.
pub const OVERHEAT_LIMIT: u8 = 120;

/// Maximum plausible change between consecutive temperature readings.
pub const MAX_PLAUSIBLE_DELTA: u8 = 15;

/// Observable engine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineState {
    /// Whether the engine is running.
    pub running: bool,
    /// Overheat shutdowns performed.
    pub overheat_shutdowns: u32,
    /// Readings discarded as implausible by the behavioural check.
    pub implausible_readings: u32,
    /// Commands rejected by policy.
    pub rejected_commands: u32,
    /// Last accepted temperature reading.
    pub last_temp: u8,
}

impl Default for EngineState {
    fn default() -> Self {
        EngineState {
            running: true,
            overheat_shutdowns: 0,
            implausible_readings: 0,
            rejected_commands: 0,
            last_temp: 80,
        }
    }
}

struct EngineFirmware {
    state: Shared<EngineState>,
    policy: Option<AppPolicy>,
}

/// Creates the engine firmware and its state handle.
pub fn engine_firmware(policy: Option<AppPolicy>) -> (Box<dyn Firmware>, Shared<EngineState>) {
    let state = shared(EngineState::default());
    (
        Box::new(EngineFirmware {
            state: state.clone(),
            policy,
        }),
        state,
    )
}

impl Firmware for EngineFirmware {
    fn on_frame(&mut self, now: SimTime, frame: &CanFrame) -> ActionVec {
        match frame.id().raw() as u16 {
            messages::SENSOR_TEMP => {
                let Some(&temp) = frame.payload().first() else {
                    return ActionVec::new();
                };
                let mut s = lock(&self.state);
                // Behavioural policy: only with the app policy installed is
                // the plausibility window enforced.
                if self.policy.is_some() && temp.abs_diff(s.last_temp) > MAX_PLAUSIBLE_DELTA {
                    s.implausible_readings += 1;
                    return ActionVec::new();
                }
                s.last_temp = temp;
                if temp >= OVERHEAT_LIMIT && s.running {
                    s.running = false;
                    s.overheat_shutdowns += 1;
                }
                ActionVec::new()
            }
            messages::ENGINE_COMMAND => {
                let Some((cmd, origin)) = parse_command(frame) else {
                    return ActionVec::new();
                };
                if !policy_permits(&self.policy, origin, Asset::Engine, Action::Write, now) {
                    lock(&self.state).rejected_commands += 1;
                    return ActionVec::new();
                }
                let mut s = lock(&self.state);
                match cmd {
                    0x01 => s.running = true,
                    0x02 => s.running = false,
                    _ => {}
                }
                ActionVec::new()
            }
            _ => ActionVec::new(),
        }
    }

    fn on_tick(&mut self, _now: SimTime) -> ActionVec {
        let running = lock(&self.state).running;
        match CanFrame::data(CanId::Standard(messages::ENGINE_STATUS), &[u8::from(running)]) {
            Ok(f) => ActionVec::one(FirmwareAction::Send(f)),
            Err(_) => ActionVec::new(),
        }
    }

    fn name(&self) -> &str {
        "engine"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polsec_core::{EvalContext, PolicyEngine, Policy};
    use std::sync::Arc;

    fn temp_frame(v: u8) -> CanFrame {
        CanFrame::data(CanId::Standard(messages::SENSOR_TEMP), &[v]).unwrap()
    }

    fn empty_policy() -> AppPolicy {
        AppPolicy::new(
            Arc::new(PolicyEngine::from_policy(Policy::new("none", 1))),
            shared(EvalContext::new().with_mode("normal")),
        )
    }

    #[test]
    fn instant_overheat_spoof_succeeds_without_policy() {
        let (mut fw, state) = engine_firmware(None);
        fw.on_frame(SimTime::ZERO, &temp_frame(200));
        let s = lock(&state);
        assert!(!s.running, "value spoof defeats id filtering");
        assert_eq!(s.overheat_shutdowns, 1);
    }

    #[test]
    fn behavioural_check_rejects_implausible_jump() {
        let (mut fw, state) = engine_firmware(Some(empty_policy()));
        fw.on_frame(SimTime::ZERO, &temp_frame(200));
        let s = lock(&state);
        assert!(s.running, "plausibility window holds");
        assert_eq!(s.implausible_readings, 1);
    }

    #[test]
    fn gradual_real_overheat_still_shuts_down() {
        // the behavioural check must not break the legitimate safety path
        let (mut fw, state) = engine_firmware(Some(empty_policy()));
        let mut t = 80u8;
        while t < 130 {
            t += 10;
            fw.on_frame(SimTime::ZERO, &temp_frame(t));
        }
        assert!(!lock(&state).running);
    }

    #[test]
    fn engine_commands_respect_policy() {
        use crate::messages::{command_frame, Origin};
        let (mut fw, state) = engine_firmware(Some(empty_policy()));
        let f = command_frame(messages::ENGINE_COMMAND, 0x02, Origin::Telematics, &[]).unwrap();
        fw.on_frame(SimTime::ZERO, &f);
        assert!(lock(&state).running, "deny-by-default policy rejects");
        assert_eq!(lock(&state).rejected_commands, 1);
        let (mut fw2, state2) = engine_firmware(None);
        fw2.on_frame(SimTime::ZERO, &f);
        assert!(!lock(&state2).running);
    }

    #[test]
    fn tick_reports_status() {
        let (mut fw, _s) = engine_firmware(None);
        let a = fw.on_tick(SimTime::ZERO);
        assert!(
            matches!(&a[0], FirmwareAction::Send(f) if f.id().raw() as u16 == messages::ENGINE_STATUS)
        );
    }
}
