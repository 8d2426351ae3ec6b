//! The infotainment head unit.
//!
//! Table I rows 11–12: a media-browser exploit escalating towards vehicle
//! control, and spoofed status values corrupting what the driver sees. The
//! head unit runs *applications* under the MAC enforcer (`polsec-mac`) —
//! the paper's "enforce access of permitted commands using software-based
//! policy method, eg SELinux".

use super::{lock, shared, AppPolicy, Shared};
use crate::messages;
use polsec_can::{ActionVec, CanFrame, CanId, Firmware, FirmwareAction};
use polsec_mac::{Enforcer, SecurityContext};
use polsec_sim::SimTime;
use std::sync::{Arc, Mutex};

/// Maximum plausible speed change between consecutive readings shown to the
/// driver.
pub const MAX_SPEED_DELTA: u8 = 20;

/// Observable infotainment state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfotainmentState {
    /// The speed currently displayed to the driver.
    pub displayed_speed: u8,
    /// Readings discarded by the plausibility check.
    pub implausible_readings: u32,
    /// Whether the last propulsion status shown was "enabled".
    pub shows_propulsion_enabled: bool,
    /// MAC denials observed for applications on this unit.
    pub mac_denials: u32,
}

impl Default for InfotainmentState {
    fn default() -> Self {
        InfotainmentState {
            displayed_speed: 0,
            implausible_readings: 0,
            shows_propulsion_enabled: true,
            mac_denials: 0,
        }
    }
}

/// The MAC enforcement handle infotainment applications run under.
pub type SharedEnforcer = Arc<Mutex<Enforcer>>;

struct InfotainmentFirmware {
    state: Shared<InfotainmentState>,
    policy: Option<AppPolicy>,
    mac: Option<SharedEnforcer>,
}

/// Creates the infotainment firmware and its state handle.
///
/// `mac` is the SELinux-style enforcer the unit's applications are checked
/// against; attacks that run code "as an app" must pass it before the bus is
/// even reachable.
pub fn infotainment_firmware(
    policy: Option<AppPolicy>,
    mac: Option<SharedEnforcer>,
) -> (Box<dyn Firmware>, Shared<InfotainmentState>) {
    let state = shared(InfotainmentState::default());
    (
        Box::new(InfotainmentFirmware {
            state: state.clone(),
            policy,
            mac,
        }),
        state,
    )
}

/// Checks whether an application labelled `app_type` may send on the CAN
/// socket, consulting the unit's MAC enforcer. Absent MAC ⇒ permitted.
pub fn mac_permits_can_send(mac: &Option<SharedEnforcer>, app_type: &str) -> bool {
    match mac {
        None => true,
        Some(e) => {
            let mut enforcer = e.lock().unwrap_or_else(|p| p.into_inner());
            let scon = SecurityContext::new("system", "system_r", app_type);
            let tcon = SecurityContext::object("canbus_t");
            enforcer.check(&scon, &tcon, "can_socket", "write").permitted()
        }
    }
}

impl Firmware for InfotainmentFirmware {
    fn on_frame(&mut self, _now: SimTime, frame: &CanFrame) -> ActionVec {
        match frame.id().raw() as u16 {
            messages::SENSOR_WHEEL_SPEED => {
                let Some(&speed) = frame.payload().first() else {
                    return ActionVec::new();
                };
                let mut s = lock(&self.state);
                if self.policy.is_some()
                    && speed.abs_diff(s.displayed_speed) > MAX_SPEED_DELTA
                    && s.displayed_speed != 0
                {
                    s.implausible_readings += 1;
                    return ActionVec::new();
                }
                s.displayed_speed = speed;
                ActionVec::new()
            }
            messages::ECU_STATUS => {
                if let Some(&v) = frame.payload().first() {
                    lock(&self.state).shows_propulsion_enabled = v != 0;
                }
                ActionVec::new()
            }
            messages::INFOTAINMENT_CMD => {
                // app launch request from the head-unit UI: the MAC gate
                // decides whether the app's domain may touch the bus at all
                if !mac_permits_can_send(&self.mac, "mediaplayer_t") {
                    lock(&self.state).mac_denials += 1;
                    return ActionVec::new();
                }
                ActionVec::new()
            }
            _ => ActionVec::new(),
        }
    }

    fn on_tick(&mut self, _now: SimTime) -> ActionVec {
        let speed = lock(&self.state).displayed_speed;
        match CanFrame::data(CanId::Standard(messages::INFOTAINMENT_STATUS), &[speed]) {
            Ok(f) => ActionVec::one(FirmwareAction::Send(f)),
            Err(_) => ActionVec::new(),
        }
    }

    fn name(&self) -> &str {
        "infotainment"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polsec_core::{EvalContext, Policy, PolicyEngine};
    use polsec_mac::{MacPolicy, PolicyModule, TeRule};

    fn speed_frame(v: u8) -> CanFrame {
        CanFrame::data(CanId::Standard(messages::SENSOR_WHEEL_SPEED), &[v]).unwrap()
    }

    fn plain_app() -> AppPolicy {
        AppPolicy::new(
            Arc::new(PolicyEngine::from_policy(Policy::new("none", 1))),
            shared(EvalContext::new().with_mode("normal")),
        )
    }

    fn media_mac() -> SharedEnforcer {
        let mut m = PolicyModule::new("head-unit", 1);
        m.declare_type("mediaplayer_t");
        m.declare_type("navigator_t");
        m.declare_type("canbus_t");
        // only the navigator may read the bus; nothing may write it
        m.add_allow(TeRule::allow("navigator_t", "canbus_t", "can_socket", &["read"]));
        let mut p = MacPolicy::new();
        p.load_module(m).unwrap();
        Arc::new(Mutex::new(Enforcer::new(p)))
    }

    #[test]
    fn displays_speed_updates() {
        let (mut fw, state) = infotainment_firmware(None, None);
        fw.on_frame(SimTime::ZERO, &speed_frame(63));
        assert_eq!(lock(&state).displayed_speed, 63);
    }

    #[test]
    fn plausibility_check_rejects_spoofed_jump() {
        let (mut fw, state) = infotainment_firmware(Some(plain_app()), None);
        fw.on_frame(SimTime::ZERO, &speed_frame(60));
        fw.on_frame(SimTime::ZERO, &speed_frame(250));
        let s = lock(&state);
        assert_eq!(s.displayed_speed, 60, "row 12 spoof ignored");
        assert_eq!(s.implausible_readings, 1);
    }

    #[test]
    fn gradual_changes_pass_the_check() {
        let (mut fw, state) = infotainment_firmware(Some(plain_app()), None);
        for v in [10, 25, 40, 58] {
            fw.on_frame(SimTime::ZERO, &speed_frame(v));
        }
        assert_eq!(lock(&state).displayed_speed, 58);
    }

    #[test]
    fn mac_blocks_media_app_bus_writes() {
        let mac = Some(media_mac());
        assert!(!mac_permits_can_send(&mac, "mediaplayer_t"), "row 11 exploit contained");
        assert!(!mac_permits_can_send(&mac, "navigator_t"), "read-only domain");
        assert!(mac_permits_can_send(&None, "mediaplayer_t"), "no MAC: anything goes");
    }

    #[test]
    fn propulsion_status_reflected() {
        let (mut fw, state) = infotainment_firmware(None, None);
        let off = CanFrame::data(CanId::Standard(messages::ECU_STATUS), &[0]).unwrap();
        fw.on_frame(SimTime::ZERO, &off);
        assert!(!lock(&state).shows_propulsion_enabled);
    }

    #[test]
    fn tick_sends_display_status() {
        let (mut fw, _s) = infotainment_firmware(None, None);
        let a = fw.on_tick(SimTime::ZERO);
        assert!(
            matches!(&a[0], FirmwareAction::Send(f) if f.id().raw() as u16 == messages::INFOTAINMENT_STATUS)
        );
    }
}
