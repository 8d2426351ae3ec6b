//! The car's CAN identifier map and communication matrix.
//!
//! Identifiers follow automotive practice: safety-critical traffic gets the
//! lowest (highest-priority) identifiers. The *communication matrix* —
//! which identifiers each node legitimately receives and transmits — is the
//! ground truth from which both the software acceptance filters and the HPE
//! approved lists are configured.
//!
//! Command frames carry a *claimed origin* in `payload[1]` (see [`Origin`]);
//! application-level policy checks key on it. The origin is attacker-
//! spoofable — exactly why the paper layers hardware ID filtering
//! underneath.
//!
//! It also holds the policy vocabulary every car policy point shares: the
//! [`Asset`]s, the interned entities, the [`crossing_entry`] mapping and
//! the attacks the fleet injects.

use polsec_can::{CanError, CanFrame, CanId};
use polsec_core::{Action, EntityId};
use std::sync::OnceLock;

/// Safety-critical event broadcast (crash detected, airbags fired).
pub const SAFETY_EVENT: u16 = 0x010;
/// Fail-safe mode trigger broadcast.
pub const FAILSAFE_TRIGGER: u16 = 0x020;
/// Car mode change broadcast.
pub const MODE_CHANGE: u16 = 0x030;
/// Alarm/immobiliser control.
pub const ALARM_CONTROL: u16 = 0x040;
/// EV-ECU command (enable/disable propulsion).
pub const ECU_COMMAND: u16 = 0x050;
/// EV-ECU status broadcast.
pub const ECU_STATUS: u16 = 0x060;
/// EPS command (steering assist control).
pub const EPS_COMMAND: u16 = 0x070;
/// EPS status broadcast.
pub const EPS_STATUS: u16 = 0x080;
/// Engine command.
pub const ENGINE_COMMAND: u16 = 0x090;
/// Engine status broadcast.
pub const ENGINE_STATUS: u16 = 0x0A0;
/// Wheel-speed sensor broadcast.
pub const SENSOR_WHEEL_SPEED: u16 = 0x100;
/// Proximity sensor broadcast (parking).
pub const SENSOR_PROXIMITY: u16 = 0x110;
/// Crash sensor broadcast.
pub const SENSOR_CRASH: u16 = 0x120;
/// Temperature sensor broadcast.
pub const SENSOR_TEMP: u16 = 0x130;
/// Door lock command (lock/unlock).
pub const DOOR_LOCK_COMMAND: u16 = 0x200;
/// Door lock status broadcast.
pub const DOOR_LOCK_STATUS: u16 = 0x210;
/// Telematics tracking report uplink.
pub const TELEMATICS_TRACK: u16 = 0x300;
/// Remote command downlink (via 3G/4G/WiFi).
pub const TELEMATICS_CMD: u16 = 0x310;
/// Modem power control.
pub const MODEM_CONTROL: u16 = 0x320;
/// Emergency-call uplink.
pub const ECALL: u16 = 0x330;
/// Infotainment display status (speed, GPS shown to the user).
pub const INFOTAINMENT_STATUS: u16 = 0x400;
/// Infotainment command (app install, settings).
pub const INFOTAINMENT_CMD: u16 = 0x410;
/// Diagnostic request (remote diagnostic mode).
pub const DIAG_REQUEST: u16 = 0x500;
/// Diagnostic response.
pub const DIAG_RESPONSE: u16 = 0x510;
/// V2X platoon-lead status relay: the telematics unit re-broadcasts an
/// authenticated inter-vehicle platoon message (lead speed / brake state)
/// onto the in-vehicle network; the EV-ECU consumes it for speed matching.
/// Payload: `[speed_kmh, brake_flag, seq_lo, seq_hi]`.
pub const V2X_LEAD: u16 = 0x140;
/// V2X platoon-health relay: the telematics unit broadcasts the follower's
/// limp-home state onto the in-vehicle network when the heartbeat monitor
/// detects (or clears) a lead outage; the EV-ECU consumes it to clamp the
/// platoon speed and widen the following gap. Payload: `[degraded_flag]`.
pub const V2X_HEALTH: u16 = 0x150;

/// Every identifier in the car's CAN map, sorted ascending — the frame
/// class universe `polsec-analyze`'s Layer-2 coverage matrix enumerates.
pub const ALL_IDS: [u16; 26] = [
    SAFETY_EVENT,
    FAILSAFE_TRIGGER,
    MODE_CHANGE,
    ALARM_CONTROL,
    ECU_COMMAND,
    ECU_STATUS,
    EPS_COMMAND,
    EPS_STATUS,
    ENGINE_COMMAND,
    ENGINE_STATUS,
    SENSOR_WHEEL_SPEED,
    SENSOR_PROXIMITY,
    SENSOR_CRASH,
    SENSOR_TEMP,
    V2X_LEAD,
    V2X_HEALTH,
    DOOR_LOCK_COMMAND,
    DOOR_LOCK_STATUS,
    TELEMATICS_TRACK,
    TELEMATICS_CMD,
    MODEM_CONTROL,
    ECALL,
    INFOTAINMENT_STATUS,
    INFOTAINMENT_CMD,
    DIAG_REQUEST,
    DIAG_RESPONSE,
];

/// The claimed origin of a command frame (`payload[1]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// A physical control (key, handle, button).
    Manual,
    /// The telematics unit (remote, via 3G/4G/WiFi).
    Telematics,
    /// The safety-critical system.
    SafetyCritical,
    /// The infotainment head unit.
    Infotainment,
    /// A sensor.
    Sensors,
    /// The diagnostic interface.
    Diagnostics,
}

impl Origin {
    /// Every origin, in declaration order (so `ALL[o as usize] == o`).
    pub const ALL: [Origin; 6] = [
        Origin::Manual,
        Origin::Telematics,
        Origin::SafetyCritical,
        Origin::Infotainment,
        Origin::Sensors,
        Origin::Diagnostics,
    ];

    /// Wire encoding.
    pub fn code(self) -> u8 {
        match self {
            Origin::Manual => 0x01,
            Origin::Telematics => 0x02,
            Origin::SafetyCritical => 0x03,
            Origin::Infotainment => 0x04,
            Origin::Sensors => 0x05,
            Origin::Diagnostics => 0x06,
        }
    }

    /// Decodes a wire origin byte.
    pub fn from_code(code: u8) -> Option<Origin> {
        match code {
            0x01 => Some(Origin::Manual),
            0x02 => Some(Origin::Telematics),
            0x03 => Some(Origin::SafetyCritical),
            0x04 => Some(Origin::Infotainment),
            0x05 => Some(Origin::Sensors),
            0x06 => Some(Origin::Diagnostics),
            _ => None,
        }
    }

    /// The entry-point identifier this origin maps to in the threat model.
    pub fn entry_point_id(self) -> &'static str {
        match self {
            Origin::Manual => "manual",
            Origin::Telematics => "telematics",
            Origin::SafetyCritical => "safety-critical",
            Origin::Infotainment => "infotainment-ui",
            Origin::Sensors => "sensors",
            Origin::Diagnostics => "diagnostics",
        }
    }

    /// `entry:` this origin's entry point, interned once per process.
    pub fn entity(self) -> EntityId {
        vocabulary().origins[self as usize]
    }
}


/// A policy asset the car's frames concern: the object of every request
/// the application policy, the gateway crossing check and the V2X policy
/// rung make.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Asset {
    /// The EV-ECU.
    EvEcu,
    /// Electronic power steering.
    Eps,
    /// The engine controller.
    Engine,
    /// The door locks.
    DoorLocks,
    /// The telematics unit's 3G/4G/WiFi modem.
    Modem,
    /// The safety-critical system: alarm, fail-safe, crash events and
    /// mode changes.
    SafetyCritical,
    /// The V2X platoon relay.
    V2xPlatoon,
}

impl Asset {
    /// Every asset, in declaration order (so `ALL[a as usize] == a`).
    pub const ALL: [Asset; 7] = [
        Asset::EvEcu,
        Asset::Eps,
        Asset::Engine,
        Asset::DoorLocks,
        Asset::Modem,
        Asset::SafetyCritical,
        Asset::V2xPlatoon,
    ];

    /// The asset's name in policies (`asset:<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Asset::EvEcu => "ev-ecu",
            Asset::Eps => "eps",
            Asset::Engine => "engine",
            Asset::DoorLocks => "door-locks",
            Asset::Modem => "3g-4g-wifi",
            Asset::SafetyCritical => "safety-critical",
            Asset::V2xPlatoon => "v2x-platoon",
        }
    }

    /// The asset a frame with this standard identifier concerns, if the
    /// identifier maps onto one the car policy knows about.
    pub fn for_id(id: u16) -> Option<Asset> {
        match id {
            ECU_COMMAND | ECU_STATUS => Some(Asset::EvEcu),
            EPS_COMMAND | EPS_STATUS => Some(Asset::Eps),
            ENGINE_COMMAND | ENGINE_STATUS => Some(Asset::Engine),
            DOOR_LOCK_COMMAND | DOOR_LOCK_STATUS => Some(Asset::DoorLocks),
            MODEM_CONTROL => Some(Asset::Modem),
            ALARM_CONTROL | SAFETY_EVENT | FAILSAFE_TRIGGER | MODE_CHANGE => {
                Some(Asset::SafetyCritical)
            }
            V2X_LEAD | V2X_HEALTH => Some(Asset::V2xPlatoon),
            _ => None,
        }
    }

    /// `asset:` this asset, interned once per process.
    pub fn entity(self) -> EntityId {
        vocabulary().assets[self as usize]
    }
}

/// The car's policy entities, interned once per process so that no policy
/// check takes the interner's lock.
struct Vocabulary {
    /// `entry:` per origin, indexed like [`Origin::ALL`].
    origins: [EntityId; Origin::ALL.len()],
    unknown: EntityId,
    v2x_lead: EntityId,
    /// `asset:` per asset, indexed like [`Asset::ALL`].
    assets: [EntityId; Asset::ALL.len()],
}

fn vocabulary() -> &'static Vocabulary {
    static TABLE: OnceLock<Vocabulary> = OnceLock::new();
    TABLE.get_or_init(|| Vocabulary {
        origins: Origin::ALL.map(|o| EntityId::new("entry", o.entry_point_id())),
        unknown: EntityId::new("entry", "unknown"),
        v2x_lead: EntityId::new("entry", "v2x-lead"),
        assets: Asset::ALL.map(|a| EntityId::new("asset", a.name())),
    })
}

/// `entry:unknown`: the entry a request names when its frame or message
/// claims no origin the policy knows, which the default-deny policy flags.
pub fn unknown_entry() -> EntityId {
    vocabulary().unknown
}

/// `entry:v2x-lead`: the entry a platoon message claiming the platoon lead
/// names.
pub fn v2x_lead_entry() -> EntityId {
    vocabulary().v2x_lead
}

/// Whether the identifier is a command (checked as a `Write` from its
/// claimed origin) rather than a status broadcast (checked as a boundary
/// `Read`).
pub fn is_command_id(id: u16) -> bool {
    matches!(
        id,
        ECU_COMMAND
            | EPS_COMMAND
            | ENGINE_COMMAND
            | DOOR_LOCK_COMMAND
            | MODEM_CONTROL
            | ALARM_CONTROL
            | TELEMATICS_CMD
    )
}

/// The crossing mapping: a command is a `Write` from its claimed origin
/// (`entry:unknown` when it claims none), a status a `Read` by the boundary
/// of the segment it enters — the telematics unit into the powertrain, the
/// head unit out of it. The request's object is [`Asset::for_id`].
pub fn crossing_entry(id: u16, claimed: Option<Origin>, into_powertrain: bool) -> (EntityId, Action) {
    if is_command_id(id) {
        (claimed.map_or_else(unknown_entry, Origin::entity), Action::Write)
    } else if into_powertrain {
        (Origin::Telematics.entity(), Action::Read)
    } else {
        (Origin::Infotainment.entity(), Action::Read)
    }
}

/// An attack the fleet injects: a spoofed command and the node it targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attack {
    /// The command identifier.
    pub id: u16,
    /// The command byte (`payload[0]`).
    pub command: u8,
    /// The origin the frame claims (`payload[1]`).
    pub claimed: Origin,
    /// The node the command targets.
    pub victim: &'static str,
}

impl Attack {
    /// The attack frame, `extra` following the origin byte.
    pub fn frame(&self, extra: &[u8]) -> CanFrame {
        command_frame(self.id, self.command, self.claimed, extra)
            .expect("attack frames are well-formed")
    }
}

/// The outside attacks a fleet vehicle's OBD dongle injects, one drawn per
/// vehicle: propulsion disable (Table I row 1 class), steering-assist
/// deactivation (row 5), modem power-off cutting fail-safe comms (rows
/// 9/10) and alarm disablement to allow theft (row 16). No node
/// legitimately transmits their identifiers, so any frame carrying one is
/// attack traffic.
pub const OUTSIDE_ATTACKS: [Attack; 4] = [
    Attack { id: ECU_COMMAND, command: 0x02, claimed: Origin::Telematics, victim: "ev-ecu" },
    Attack { id: EPS_COMMAND, command: 0x02, claimed: Origin::Diagnostics, victim: "eps" },
    Attack { id: MODEM_CONTROL, command: 0x00, claimed: Origin::Telematics, victim: "telematics" },
    Attack { id: ALARM_CONTROL, command: 0x00, claimed: Origin::Infotainment, victim: "safety-critical" },
];

/// The node an inside implant compromises.
pub const IMPLANT_NODE: &str = "door-locks";

/// The inside implant's attack: firmware on [`IMPLANT_NODE`] spoofing a
/// propulsion-disable command with a forged safety-critical origin, once
/// per tick on its own (powertrain) segment.
pub const INSIDE_IMPLANT: Attack =
    Attack { id: ECU_COMMAND, command: 0x02, claimed: Origin::SafetyCritical, victim: "ev-ecu" };

/// Builds a command frame: `payload[0]` = command byte, `payload[1]` =
/// origin code, remaining bytes as given.
///
/// # Errors
/// [`CanError`] if the id is out of range or the payload too long.
pub fn command_frame(id: u16, command: u8, origin: Origin, extra: &[u8]) -> Result<CanFrame, CanError> {
    let mut payload = Vec::with_capacity(2 + extra.len());
    payload.push(command);
    payload.push(origin.code());
    payload.extend_from_slice(extra);
    CanFrame::data(CanId::standard(id as u32)?, &payload)
}

/// Extracts `(command, origin)` from a command frame, if well-formed.
pub fn parse_command(frame: &CanFrame) -> Option<(u8, Origin)> {
    let p = frame.payload();
    if p.len() < 2 {
        return None;
    }
    Origin::from_code(p[1]).map(|o| (p[0], o))
}

/// The car's node names, as attached to the bus.
pub const NODE_NAMES: [&str; 8] = [
    "ev-ecu",
    "eps",
    "engine",
    "telematics",
    "infotainment",
    "door-locks",
    "safety-critical",
    "sensors",
];

/// Identifiers a node legitimately **receives** (its read set).
pub fn legitimate_reads(node: &str) -> Vec<u16> {
    match node {
        "ev-ecu" => vec![
            ECU_COMMAND,
            SENSOR_CRASH,
            SENSOR_PROXIMITY,
            SENSOR_WHEEL_SPEED,
            SAFETY_EVENT,
            MODE_CHANGE,
            DIAG_REQUEST,
            V2X_LEAD,
            V2X_HEALTH,
        ],
        "eps" => vec![EPS_COMMAND, SENSOR_WHEEL_SPEED, MODE_CHANGE],
        "engine" => vec![ENGINE_COMMAND, SENSOR_TEMP, MODE_CHANGE],
        // Note: MODEM_CONTROL is deliberately absent — the modem power
        // switch is a hardwired physical control, so no bus node may
        // legitimately command it (rows 7, 9, 10 of Table I).
        "telematics" => vec![
            TELEMATICS_CMD,
            SAFETY_EVENT,
            MODE_CHANGE,
            ECU_STATUS,
            DOOR_LOCK_STATUS,
        ],
        "infotainment" => vec![
            INFOTAINMENT_CMD,
            SENSOR_WHEEL_SPEED,
            ECU_STATUS,
            MODE_CHANGE,
        ],
        "door-locks" => vec![DOOR_LOCK_COMMAND, SAFETY_EVENT, MODE_CHANGE],
        // ALARM_CONTROL is likewise absent: arming/disarming is a physical
        // key action, not a bus command (row 16).
        "safety-critical" => vec![SENSOR_CRASH, MODE_CHANGE, FAILSAFE_TRIGGER],
        "sensors" => vec![MODE_CHANGE],
        _ => Vec::new(),
    }
}

/// Identifiers a node legitimately **transmits** (its write set).
pub fn legitimate_writes(node: &str) -> Vec<u16> {
    match node {
        "ev-ecu" => vec![ECU_STATUS],
        "eps" => vec![EPS_STATUS],
        "engine" => vec![ENGINE_STATUS],
        "telematics" => vec![
            TELEMATICS_TRACK,
            ECALL,
            TELEMATICS_CMD,
            DIAG_REQUEST,
            V2X_LEAD,
            V2X_HEALTH,
        ],
        "infotainment" => vec![INFOTAINMENT_STATUS],
        "door-locks" => vec![DOOR_LOCK_STATUS],
        "safety-critical" => vec![SAFETY_EVENT, FAILSAFE_TRIGGER, DOOR_LOCK_COMMAND, MODE_CHANGE],
        "sensors" => vec![
            SENSOR_WHEEL_SPEED,
            SENSOR_PROXIMITY,
            SENSOR_CRASH,
            SENSOR_TEMP,
        ],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_codes_round_trip() {
        for o in [
            Origin::Manual,
            Origin::Telematics,
            Origin::SafetyCritical,
            Origin::Infotainment,
            Origin::Sensors,
            Origin::Diagnostics,
        ] {
            assert_eq!(Origin::from_code(o.code()), Some(o));
        }
        assert_eq!(Origin::from_code(0xFF), None);
        assert_eq!(Origin::from_code(0x00), None);
    }

    #[test]
    fn command_frames_round_trip() {
        let f = command_frame(DOOR_LOCK_COMMAND, 0x02, Origin::Telematics, &[9]).unwrap();
        assert_eq!(f.id().raw(), DOOR_LOCK_COMMAND as u32);
        let (cmd, origin) = parse_command(&f).unwrap();
        assert_eq!(cmd, 0x02);
        assert_eq!(origin, Origin::Telematics);
        assert_eq!(f.payload()[2], 9);
    }

    #[test]
    fn parse_command_rejects_short_frames() {
        let f = CanFrame::data(CanId::standard(1).unwrap(), &[1]).unwrap();
        assert_eq!(parse_command(&f), None);
        let g = command_frame(1, 1, Origin::Manual, &[]).unwrap();
        let bad = CanFrame::data(g.id(), &[1, 0xEE]).unwrap();
        assert_eq!(parse_command(&bad), None, "unknown origin byte");
    }

    #[test]
    fn every_node_has_a_matrix() {
        for n in NODE_NAMES {
            assert!(!legitimate_writes(n).is_empty(), "{n} writes");
            assert!(!legitimate_reads(n).is_empty(), "{n} reads");
        }
        assert!(legitimate_reads("ghost").is_empty());
    }

    #[test]
    fn safety_traffic_has_highest_priority() {
        // safety event must out-arbitrate every other id in the map
        for id in [
            ECU_COMMAND,
            DOOR_LOCK_COMMAND,
            TELEMATICS_CMD,
            INFOTAINMENT_STATUS,
            DIAG_REQUEST,
        ] {
            assert!(SAFETY_EVENT < id);
        }
    }

    #[test]
    fn nodes_do_not_write_ids_they_read_only() {
        // the ECU never transmits commands to itself
        assert!(!legitimate_writes("ev-ecu").contains(&ECU_COMMAND));
        // sensors only broadcast; they read nothing but mode changes
        assert_eq!(legitimate_reads("sensors"), vec![MODE_CHANGE]);
    }

    #[test]
    fn origin_entry_points_are_distinct() {
        let mut names: Vec<&str> = Origin::ALL.iter().map(|o| o.entry_point_id()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
        for (i, o) in Origin::ALL.into_iter().enumerate() {
            assert_eq!(o as usize, i, "ALL is in declaration order");
        }
    }
}
