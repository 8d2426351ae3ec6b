//! Door locks.
//!
//! Table I rows 13–14: remote unlock while in motion, and lock commands
//! during an accident. The situational rules live in the car policy
//! (`state.vehicle.moving`, `state.crash`); the crash-unlock reaction is
//! hardwired, as in real vehicles.

use super::{lock, shared, AppPolicy, Shared};
use crate::messages::{self, parse_command, Asset};
use polsec_can::{ActionVec, CanFrame, CanId, Firmware, FirmwareAction};
use polsec_core::Action;
use polsec_sim::SimTime;

/// Observable door-lock state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoorLockState {
    /// Whether the doors are locked.
    pub locked: bool,
    /// Unlock commands honoured.
    pub unlock_events: u32,
    /// Lock commands honoured.
    pub lock_events: u32,
    /// Commands rejected by policy.
    pub rejected_commands: u32,
    /// Hardwired crash unlocks performed.
    pub crash_unlocks: u32,
}

impl Default for DoorLockState {
    fn default() -> Self {
        DoorLockState {
            locked: true,
            unlock_events: 0,
            lock_events: 0,
            rejected_commands: 0,
            crash_unlocks: 0,
        }
    }
}

struct DoorLockFirmware {
    state: Shared<DoorLockState>,
    policy: Option<AppPolicy>,
}

/// Creates the door-lock firmware and its state handle.
pub fn door_locks_firmware(
    policy: Option<AppPolicy>,
) -> (Box<dyn Firmware>, Shared<DoorLockState>) {
    let state = shared(DoorLockState::default());
    (
        Box::new(DoorLockFirmware {
            state: state.clone(),
            policy,
        }),
        state,
    )
}

impl Firmware for DoorLockFirmware {
    fn on_frame(&mut self, now: SimTime, frame: &CanFrame) -> ActionVec {
        match frame.id().raw() as u16 {
            messages::DOOR_LOCK_COMMAND => {
                let Some((cmd, origin)) = parse_command(frame) else {
                    return ActionVec::new();
                };
                if let Some(p) = &self.policy {
                    p.observe_rate("door-lock-cmd", now);
                    if !p.permits(origin, Asset::DoorLocks, Action::Write, now) {
                        lock(&self.state).rejected_commands += 1;
                        return ActionVec::new();
                    }
                }
                let mut s = lock(&self.state);
                match cmd {
                    0x01 => {
                        s.locked = true;
                        s.lock_events += 1;
                    }
                    0x02 => {
                        s.locked = false;
                        s.unlock_events += 1;
                    }
                    _ => {}
                }
                ActionVec::new()
            }
            messages::SAFETY_EVENT => {
                // Hardwired: a crash unlocks the doors for rescue.
                let mut s = lock(&self.state);
                if s.locked {
                    s.locked = false;
                    s.crash_unlocks += 1;
                }
                ActionVec::new()
            }
            _ => ActionVec::new(),
        }
    }

    fn on_tick(&mut self, _now: SimTime) -> ActionVec {
        let locked = lock(&self.state).locked;
        match CanFrame::data(CanId::Standard(messages::DOOR_LOCK_STATUS), &[u8::from(locked)]) {
            Ok(f) => ActionVec::one(FirmwareAction::Send(f)),
            Err(_) => ActionVec::new(),
        }
    }

    fn name(&self) -> &str {
        "door-locks"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{command_frame, Origin};
    use polsec_core::dsl::parse_policy;
    use polsec_core::{EvalContext, PolicyEngine};
    use std::sync::Arc;

    fn app(moving: bool, crash: bool) -> AppPolicy {
        let p = parse_policy(
            r#"policy "locks" version 1 {
                allow write on asset:door-locks from entry:manual;
                allow write on asset:door-locks from entry:telematics
                    when state.vehicle.moving == false && state.crash == false;
            }"#,
        )
        .unwrap();
        let ctx = EvalContext::new()
            .with_mode("normal")
            .with_state("vehicle.moving", if moving { "true" } else { "false" })
            .with_state("crash", if crash { "true" } else { "false" });
        AppPolicy::new(Arc::new(PolicyEngine::from_policy(p)), shared(ctx))
    }

    fn unlock(origin: Origin) -> CanFrame {
        command_frame(messages::DOOR_LOCK_COMMAND, 0x02, origin, &[]).unwrap()
    }
    fn lock_cmd(origin: Origin) -> CanFrame {
        command_frame(messages::DOOR_LOCK_COMMAND, 0x01, origin, &[]).unwrap()
    }

    #[test]
    fn remote_unlock_while_parked_is_legitimate() {
        let (mut fw, state) = door_locks_firmware(Some(app(false, false)));
        fw.on_frame(SimTime::ZERO, &unlock(Origin::Telematics));
        assert!(!lock(&state).locked);
        assert_eq!(lock(&state).unlock_events, 1);
    }

    #[test]
    fn remote_unlock_in_motion_is_blocked() {
        let (mut fw, state) = door_locks_firmware(Some(app(true, false)));
        fw.on_frame(SimTime::ZERO, &unlock(Origin::Telematics));
        let s = lock(&state);
        assert!(s.locked, "row 13: unlock attempt while in motion denied");
        assert_eq!(s.rejected_commands, 1);
    }

    #[test]
    fn lock_during_accident_is_blocked() {
        let (mut fw, state) = door_locks_firmware(Some(app(false, true)));
        lock(&state).locked = false; // crash already unlocked them
        fw.on_frame(SimTime::ZERO, &lock_cmd(Origin::Telematics));
        let s = lock(&state);
        assert!(!s.locked, "row 14: lock during accident denied");
        assert_eq!(s.rejected_commands, 1);
    }

    #[test]
    fn manual_control_always_works() {
        let (mut fw, state) = door_locks_firmware(Some(app(true, false)));
        fw.on_frame(SimTime::ZERO, &unlock(Origin::Manual));
        assert!(!lock(&state).locked, "physical handle is exempt");
    }

    #[test]
    fn unprotected_locks_obey_anything() {
        let (mut fw, state) = door_locks_firmware(None);
        fw.on_frame(SimTime::ZERO, &unlock(Origin::Telematics));
        assert!(!lock(&state).locked);
    }

    #[test]
    fn crash_event_unlocks_hardwired() {
        let (mut fw, state) = door_locks_firmware(Some(app(false, true)));
        let crash = CanFrame::data(CanId::Standard(messages::SAFETY_EVENT), &[1]).unwrap();
        fw.on_frame(SimTime::ZERO, &crash);
        let s = lock(&state);
        assert!(!s.locked);
        assert_eq!(s.crash_unlocks, 1);
    }

    #[test]
    fn tick_reports_status() {
        let (mut fw, _s) = door_locks_firmware(None);
        let a = fw.on_tick(SimTime::ZERO);
        assert!(
            matches!(&a[0], FirmwareAction::Send(f) if f.id().raw() as u16 == messages::DOOR_LOCK_STATUS)
        );
    }
}
