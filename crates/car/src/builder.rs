//! Assembling the car (Fig. 2) under an enforcement configuration.

use crate::anomaly::EcuMonitor;
use crate::components::{
    door_locks_firmware, ecu_firmware_monitored, engine_firmware, eps_firmware,
    infotainment_firmware, lock, safety_firmware, sensors_firmware, shared,
    telematics_firmware, AppPolicy, DoorLockState, EcuState, EngineState, EpsState,
    InfotainmentState, SafetyState, SensorState, Shared, TelematicsState,
};
use crate::components::infotainment::SharedEnforcer;
use crate::messages::{legitimate_reads, legitimate_writes, NODE_NAMES};
use crate::modes::CarMode;
use crate::security_model::car_policy;
use polsec_can::{
    AcceptanceFilter, BusEvent, CanBus, CanFrame, CanId, CanNode, Firmware, NodeHandle,
};
use polsec_core::{EvalContext, PolicyEngine};
use polsec_hpe::{ApprovedLists, HardwarePolicyEngine};
use polsec_mac::{Enforcer, MacPolicy, PolicyModule, TeRule};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The OEM signing key provisioned into every HPE at manufacture.
pub const OEM_KEY: &[u8] = b"polsec-oem-signing-key";

/// Which enforcement layers are active in a built car.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnforcementConfig {
    /// Software-configurable controller acceptance filters (bypassable by
    /// firmware compromise — the paper's premise).
    pub software_filters: bool,
    /// Application-level policy checks against the `polsec-core` engine.
    pub app_policy: bool,
    /// SELinux-style MAC on the infotainment head unit.
    pub mac: bool,
    /// Hardware policy engines interposed on every node.
    pub hpe: bool,
    /// Behavioural anomaly monitor on the EV-ECU (the plausibility rung
    /// closing Table I row 2).
    pub anomaly: bool,
}

impl EnforcementConfig {
    /// No enforcement at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Software acceptance filters only.
    pub fn software_only() -> Self {
        EnforcementConfig { software_filters: true, ..Self::default() }
    }

    /// Application policy checks only.
    pub fn app_only() -> Self {
        EnforcementConfig { app_policy: true, ..Self::default() }
    }

    /// MAC on the head unit only.
    pub fn mac_only() -> Self {
        EnforcementConfig { mac: true, ..Self::default() }
    }

    /// Hardware policy engines only.
    pub fn hpe_only() -> Self {
        EnforcementConfig { hpe: true, ..Self::default() }
    }

    /// Everything the paper evaluates (defence in depth). Deliberately
    /// excludes the anomaly rung: the paper's ladder has a documented
    /// gap at Table I row 2, and the attack-matrix experiments pin it.
    pub fn full() -> Self {
        EnforcementConfig {
            software_filters: true,
            app_policy: true,
            mac: true,
            hpe: true,
            anomaly: false,
        }
    }

    /// Defence in depth plus the behavioural anomaly rung — the
    /// configuration that also closes Table I row 2.
    pub fn full_with_anomaly() -> Self {
        EnforcementConfig { anomaly: true, ..Self::full() }
    }

    /// A short label for reports.
    pub fn label(&self) -> String {
        if *self == Self::full() {
            return "full".into();
        }
        if *self == Self::full_with_anomaly() {
            return "full+anomaly".into();
        }
        let mut parts = Vec::new();
        if self.software_filters {
            parts.push("sw-filter");
        }
        if self.app_policy {
            parts.push("app-policy");
        }
        if self.mac {
            parts.push("mac");
        }
        if self.hpe {
            parts.push("hpe");
        }
        if self.anomaly {
            parts.push("anomaly");
        }
        if parts.is_empty() {
            "none".into()
        } else {
            parts.join("+")
        }
    }
}

/// State handles for every component.
#[derive(Debug, Clone)]
pub struct CarStates {
    /// EV-ECU state.
    pub ecu: Shared<EcuState>,
    /// EPS state.
    pub eps: Shared<EpsState>,
    /// Engine state.
    pub engine: Shared<EngineState>,
    /// Telematics state.
    pub telematics: Shared<TelematicsState>,
    /// Infotainment state.
    pub infotainment: Shared<InfotainmentState>,
    /// Door-lock state.
    pub door_locks: Shared<DoorLockState>,
    /// Safety-system state.
    pub safety: Shared<SafetyState>,
    /// Sensor-cluster state.
    pub sensors: Shared<SensorState>,
}

impl CarStates {
    /// Commands the application policy rejected, over every component that
    /// checks one.
    pub fn rejected_commands(&self) -> u64 {
        u64::from(lock(&self.ecu).rejected_commands)
            + u64::from(lock(&self.eps).rejected_commands)
            + u64::from(lock(&self.engine).rejected_commands)
            + u64::from(lock(&self.telematics).rejected_commands)
            + u64::from(lock(&self.door_locks).rejected_commands)
            + u64::from(lock(&self.safety).rejected_commands)
    }

    /// Sensor readings the application policy's plausibility checks
    /// discarded (engine temperature, displayed speed).
    pub fn implausible_readings(&self) -> u64 {
        u64::from(lock(&self.engine).implausible_readings)
            + u64::from(lock(&self.infotainment).implausible_readings)
    }
}

/// The eight Fig. 2 component firmwares in [`NODE_NAMES`] order, with
/// their state handles: the one assembly both [`CarBuilder::build`] and the
/// fleet's `Vehicle::build` wire onto their buses. Every component shares
/// the application policy point `app`; the head unit gets the MAC enforcer
/// and the EV-ECU the anomaly monitor.
pub(crate) fn components(
    app: Option<&AppPolicy>,
    mac: Option<SharedEnforcer>,
    monitor: Option<Shared<EcuMonitor>>,
) -> ([Box<dyn Firmware>; 8], CarStates) {
    let (ecu_fw, ecu) = ecu_firmware_monitored(app.cloned(), monitor);
    let (eps_fw, eps) = eps_firmware(app.cloned());
    let (engine_fw, engine) = engine_firmware(app.cloned());
    let (tel_fw, telematics) = telematics_firmware(app.cloned());
    let (info_fw, infotainment) = infotainment_firmware(app.cloned(), mac);
    let (locks_fw, door_locks) = door_locks_firmware(app.cloned());
    let (safety_fw, safety) = safety_firmware(app.cloned());
    let (sensors_fw, sensors) = sensors_firmware();
    let firmwares = [
        ecu_fw, eps_fw, engine_fw, tel_fw, info_fw, locks_fw, safety_fw, sensors_fw,
    ];
    let states = CarStates {
        ecu,
        eps,
        engine,
        telematics,
        infotainment,
        door_locks,
        safety,
        sensors,
    };
    (firmwares, states)
}

/// A node's hardware policy engine lists: its read and write sets from the
/// communication matrix, nothing else.
pub(crate) fn hpe_lists_for(node: &str) -> ApprovedLists {
    let mut lists = ApprovedLists::with_capacity(16);
    for id in legitimate_reads(node) {
        lists
            .allow_read(CanId::Standard(id))
            .expect("communication matrix fits hpe capacity");
    }
    for id in legitimate_writes(node) {
        lists
            .allow_write(CanId::Standard(id))
            .expect("communication matrix fits hpe capacity");
    }
    lists
}

/// The assembled connected car.
pub struct Car {
    bus: CanBus,
    /// The bus's events of the last round, drained so the bus holds none
    /// across rounds; no caller reads them.
    events: Vec<BusEvent>,
    mode: CarMode,
    ctx: Shared<EvalContext>,
    app: Option<AppPolicy>,
    mac: Option<SharedEnforcer>,
    monitor: Option<Shared<EcuMonitor>>,
    hpes: BTreeMap<String, HardwarePolicyEngine>,
    nodes: BTreeMap<String, NodeHandle>,
    states: CarStates,
    config: EnforcementConfig,
}

impl std::fmt::Debug for Car {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Car")
            .field("mode", &self.mode)
            .field("config", &self.config.label())
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

/// Builder for [`Car`].
#[derive(Debug, Clone)]
pub struct CarBuilder {
    config: EnforcementConfig,
    bitrate: u32,
}

impl Default for CarBuilder {
    fn default() -> Self {
        CarBuilder {
            config: EnforcementConfig::none(),
            bitrate: 500_000,
        }
    }
}

impl CarBuilder {
    /// Starts a builder with no enforcement and a 500 kbit/s bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the enforcement configuration.
    pub fn enforcement(mut self, config: EnforcementConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the bus bit rate.
    pub fn bitrate(mut self, bitrate: u32) -> Self {
        self.bitrate = bitrate;
        self
    }

    /// Assembles the car.
    pub fn build(self) -> Car {
        let config = self.config;
        let mut bus = CanBus::new(self.bitrate);

        let ctx = shared(
            EvalContext::new()
                .with_mode(CarMode::Normal.name())
                .with_state("vehicle.moving", "false")
                .with_state("crash", "false")
                .with_state("stolen", "false"),
        );
        let app = config.app_policy.then(|| {
            AppPolicy::new(
                Arc::new(PolicyEngine::from_policy(car_policy())),
                ctx.clone(),
            )
        });
        let mac = config.mac.then(head_unit_mac);
        let monitor = config.anomaly.then(|| shared(EcuMonitor::default()));

        let (firmwares, states) = components(app.as_ref(), mac.clone(), monitor.clone());

        let mut nodes = BTreeMap::new();
        let mut hpes = BTreeMap::new();
        for (name, fw) in NODE_NAMES.into_iter().zip(firmwares) {
            let mut node = CanNode::with_firmware(name, fw);
            if config.software_filters {
                let bank = node.controller_mut().filters_mut();
                for id in legitimate_reads(name) {
                    bank.add(AcceptanceFilter::standard(id as u32, 0x7FF));
                }
            }
            if config.hpe {
                let hpe = HardwarePolicyEngine::new(format!("{name}-hpe"), hpe_lists_for(name))
                    .with_oem_key(OEM_KEY.to_vec());
                node.install_interposer(Box::new(hpe.clone()));
                hpes.insert(name.to_string(), hpe);
            }
            let handle = bus.attach(node);
            nodes.insert(name.to_string(), handle);
        }

        Car {
            bus,
            events: Vec::new(),
            mode: CarMode::Normal,
            ctx,
            app,
            mac,
            monitor,
            hpes,
            nodes,
            states,
            config,
        }
    }
}

/// The head unit's MAC policy: the navigator may read the CAN socket,
/// nothing on the unit may write it, and a `neverallow` pins that down.
fn head_unit_mac() -> SharedEnforcer {
    let mut m = PolicyModule::new("head-unit", 1);
    m.declare_type("mediaplayer_t");
    m.declare_type("browser_t");
    m.declare_type("navigator_t");
    m.declare_type("canbus_t");
    m.add_allow(TeRule::allow("navigator_t", "canbus_t", "can_socket", &["read"]));
    m.add_rule(TeRule::neverallow("mediaplayer_t", "canbus_t", "can_socket", &["write"]));
    m.add_rule(TeRule::neverallow("browser_t", "canbus_t", "can_socket", &["write"]));
    let mut p = MacPolicy::new();
    p.load_module(m).expect("head-unit module is self-consistent");
    Arc::new(Mutex::new(Enforcer::new(p)))
}

impl Car {
    /// The active enforcement configuration.
    pub fn config(&self) -> EnforcementConfig {
        self.config
    }

    /// The bus (read access).
    pub fn bus(&self) -> &CanBus {
        &self.bus
    }

    /// Component state handles.
    pub fn states(&self) -> &CarStates {
        &self.states
    }

    /// The application policy point, when configured.
    pub fn app(&self) -> Option<&AppPolicy> {
        self.app.as_ref()
    }

    /// The head-unit MAC enforcer, when configured.
    pub fn mac(&self) -> Option<&SharedEnforcer> {
        self.mac.as_ref()
    }

    /// The ECU's behavioural anomaly monitor, when configured.
    pub fn monitor(&self) -> Option<&Shared<EcuMonitor>> {
        self.monitor.as_ref()
    }

    /// A node's HPE maintenance handle, when configured.
    pub fn hpe(&self, node: &str) -> Option<&HardwarePolicyEngine> {
        self.hpes.get(node)
    }

    /// The bus handle of a named node.
    ///
    /// # Panics
    /// Panics on unknown names — car nodes are fixed at build time, so a
    /// bad name is a programming error.
    pub fn node(&self, name: &str) -> NodeHandle {
        *self
            .nodes
            .get(name)
            .unwrap_or_else(|| panic!("no car node named '{name}'"))
    }

    /// The current car mode.
    pub fn mode(&self) -> CarMode {
        self.mode
    }

    /// Switches car mode (updating the policy context).
    pub fn set_mode(&mut self, mode: CarMode) {
        self.mode = mode;
        lock(&self.ctx).set_mode(mode.name());
    }

    /// Sets whether the vehicle is moving.
    pub fn set_moving(&mut self, moving: bool) {
        lock(&self.ctx).set_state("vehicle.moving", if moving { "true" } else { "false" });
    }

    /// Flags the vehicle as stolen (alarm triggered).
    pub fn set_stolen(&mut self, stolen: bool) {
        lock(&self.ctx).set_state("stolen", if stolen { "true" } else { "false" });
    }

    /// Records a crash in the situational context.
    pub fn set_crash(&mut self, crash: bool) {
        lock(&self.ctx).set_state("crash", if crash { "true" } else { "false" });
    }

    /// Runs `n` simulation rounds: every node ticks, then the bus drains.
    pub fn step(&mut self, n: u32) {
        for _ in 0..n {
            self.bus.tick_all();
            self.bus.run_until_idle();
            self.bus.drain_events_into(&mut self.events);
        }
    }

    /// Replaces a node's firmware — a **firmware compromise**. The
    /// compromise also wipes the node's software acceptance filters and
    /// attempts (and fails) to reconfigure its HPE, both recorded.
    pub fn compromise(&mut self, name: &str, firmware: Box<dyn Firmware>) {
        let handle = self.node(name);
        if let Some(node) = self.bus.node_mut(handle) {
            node.replace_firmware(firmware);
            node.controller_mut().filters_mut().clear();
        }
        if let Some(hpe) = self.hpes.get(name) {
            // the malware tries; the hardware refuses
            let _ = hpe.firmware_attempt_reconfigure();
        }
    }

    /// Models a software-layer attack that wipes a victim node's acceptance
    /// filters without replacing its firmware.
    pub fn wipe_software_filters(&mut self, name: &str) {
        let handle = self.node(name);
        if let Some(node) = self.bus.node_mut(handle) {
            node.controller_mut().filters_mut().clear();
        }
        if let Some(hpe) = self.hpes.get(name) {
            let _ = hpe.firmware_attempt_reconfigure();
        }
    }

    /// Attaches an external malicious node (the "outside attack" of the
    /// paper: a node introduced into the system). It has no filters and no
    /// HPE — attacker hardware.
    pub fn attach_attacker(&mut self, name: &str) -> NodeHandle {
        let handle = self.bus.attach(CanNode::new(name));
        self.nodes.insert(name.to_string(), handle);
        handle
    }

    /// Queues a frame from a named node.
    pub fn send_as(&mut self, name: &str, frame: CanFrame) {
        let handle = self.node(name);
        // Unknown handles cannot occur: node() already panicked.
        let _ = self.bus.send_from(handle, frame);
    }

    /// Total frames blocked by all HPEs (both directions).
    pub fn hpe_blocked_total(&self) -> u64 {
        self.hpes.values().map(|h| h.telemetry().total_blocked()).sum()
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages;

    #[test]
    fn builds_all_eight_nodes() {
        let car = CarBuilder::new().build();
        assert_eq!(car.bus().node_count(), 8);
        for name in NODE_NAMES {
            let h = car.node(name);
            assert_eq!(car.bus().node(h).unwrap().name(), name);
        }
    }

    #[test]
    fn normal_operation_flows_traffic() {
        let mut car = CarBuilder::new().build();
        car.step(5);
        let stats = car.bus().stats();
        assert!(stats.frames_transmitted > 20, "{stats}");
        // sensor data reaches the infotainment display
        assert_eq!(lock(&car.states().infotainment).displayed_speed, 60);
        // telematics uplinks tracking
        assert!(lock(&car.states().telematics).track_reports >= 5);
    }

    #[test]
    fn stepping_keeps_at_most_one_rounds_bus_events() {
        let mut car = CarBuilder::new().build();
        car.step(1);
        let one_round = car.events.len();
        assert!(one_round > 0);
        car.step(1_000);
        assert!(car.bus.drain_events().is_empty(), "every round drains the bus");
        assert!(car.events.len() <= one_round);
    }

    #[test]
    fn config_labels() {
        assert_eq!(EnforcementConfig::none().label(), "none");
        assert_eq!(EnforcementConfig::software_only().label(), "sw-filter");
        assert_eq!(EnforcementConfig::full().label(), "full");
        assert_eq!(EnforcementConfig::hpe_only().label(), "hpe");
        let combo = EnforcementConfig { app_policy: true, hpe: true, ..Default::default() };
        assert_eq!(combo.label(), "app-policy+hpe");
        assert_eq!(EnforcementConfig::full_with_anomaly().label(), "full+anomaly");
        let anomaly_only = EnforcementConfig { anomaly: true, ..Default::default() };
        assert_eq!(anomaly_only.label(), "anomaly");
    }

    #[test]
    fn hpe_config_installs_interposers_everywhere() {
        let car = CarBuilder::new().enforcement(EnforcementConfig::hpe_only()).build();
        for name in NODE_NAMES {
            let h = car.node(name);
            assert!(car.bus().node(h).unwrap().is_interposed(), "{name}");
            assert!(car.hpe(name).is_some(), "{name}");
        }
    }

    #[test]
    fn hpe_car_still_operates_normally() {
        // approved lists must not break legitimate traffic
        let mut car = CarBuilder::new().enforcement(EnforcementConfig::full()).build();
        car.set_moving(true);
        car.step(5);
        assert_eq!(lock(&car.states().infotainment).displayed_speed, 60);
        assert!(lock(&car.states().telematics).track_reports >= 5);
        assert!(lock(&car.states().ecu).propulsion_enabled);
    }

    #[test]
    fn mode_changes_update_context() {
        let mut car = CarBuilder::new().enforcement(EnforcementConfig::app_only()).build();
        car.set_mode(CarMode::FailSafe);
        assert_eq!(car.mode(), CarMode::FailSafe);
        let app = car.app().unwrap().clone();
        // the context now carries the new mode: fail-safe-scoped rule check
        assert_eq!(app.state("crash").as_deref(), Some("false"));
    }

    #[test]
    fn compromise_swaps_firmware_and_wipes_filters() {
        let mut car = CarBuilder::new()
            .enforcement(EnforcementConfig { software_filters: true, hpe: true, ..Default::default() })
            .build();
        let handle = car.node("door-locks");
        assert!(!car.bus().node(handle).unwrap().controller().filters().is_empty());
        car.compromise("door-locks", Box::new(polsec_can::node::NullFirmware));
        let node = car.bus().node(handle).unwrap();
        assert_eq!(node.firmware_name(), "null");
        assert!(node.controller().filters().is_empty());
        assert_eq!(car.hpe("door-locks").unwrap().telemetry().tamper_attempts, 1);
    }

    #[test]
    fn attacker_node_can_inject_arbitrary_ids() {
        let mut car = CarBuilder::new().build();
        car.attach_attacker("dongle");
        let spoof = messages::command_frame(
            messages::ECU_COMMAND,
            0x02,
            messages::Origin::Telematics,
            &[],
        )
        .unwrap();
        car.send_as("dongle", spoof);
        car.step(1);
        assert!(!lock(&car.states().ecu).propulsion_enabled, "unprotected car falls");
    }
}
