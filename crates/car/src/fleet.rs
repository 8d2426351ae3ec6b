//! Fleet-scale scenario engine (DESIGN.md §7).
//!
//! The single-car attack matrix measures *outcomes*; this module measures the
//! *system* under load: N vehicles, each a segmented CAN topology — a
//! powertrain segment and a comfort/telematics segment bridged by a
//! whitelist [`Gateway`] — with a hardware policy engine on every node, a
//! segment-level HPE on each gateway endpoint, and one `polsec-core`
//! [`PolicyEngine`] **shared by the whole fleet** auditing every frame that
//! crosses a gateway.
//!
//! Each vehicle is driven by its own `polsec-sim` [`Scheduler`]: component
//! ticks fire at a jittered period, attack injections arrive as separate
//! events, and all jitter comes from a [`DetRng`] stream derived from
//! `(master seed, vehicle index)` — so a vehicle's entire run is a pure
//! function of the seed, its index, and the configuration. Vehicles run in
//! parallel on [`run_sharded`]. Each counts into a typed tally of plain
//! fields and histograms; a finished vehicle adds its final bus, gateway,
//! HPE and component state to it, and the run adds the tallies up field by
//! field, in any order, and renders its [`MetricSet`] once (the `tally`
//! module). The metrics of a fleet run are therefore byte-reproducible at
//! any thread count. Wall-clock measurements (the latency of one
//! shared-engine decide in 32, picked by the deterministic
//! [`polsec_sim::sampled`] rule) are rendered under the `wall.` prefix and
//! split out of the deterministic section by [`run_fleet`]. The crossing
//! check builds its request from the car's policy vocabulary in
//! [`messages`], interned once per process.
//!
//! # Determinism contract
//!
//! `FleetReport::metrics` depends only on `(FleetConfig, seed)`. Three
//! things are deliberately excluded from it: wall-clock latencies (`wall.*`),
//! shared-engine cache statistics (hit/miss counts depend on thread
//! interleaving), and per-component application policy (its rate trackers
//! would be shared across concurrently running vehicles). Everything else —
//! frame counts, gateway counters, HPE telemetry, verdict-cycle quantiles,
//! attack accounting — must replay identically, and `polsec-bench`'s `fleet`
//! binary asserts that it does.

use crate::anomaly::{AnomalyCounters, EcuMonitor};
use crate::attacks::SpoofFirmware;
use crate::builder::{components, hpe_lists_for, CarStates};
use crate::components::{lock, shared, AppPolicy, Shared};
use crate::messages::{
    self, crossing_entry, parse_command, Asset, IMPLANT_NODE, INSIDE_IMPLANT, NODE_NAMES,
    OUTSIDE_ATTACKS,
};
use crate::security_model::car_policy;
use crate::tally::{self, Counter, Shown};
use polsec_can::gateway::Segment;
use polsec_can::{
    AcceptanceFilter, BusEvent, CanBus, CanFrame, CanId, CanNode, ForwardRule, Gateway, NodeHandle,
};
use polsec_core::{AccessRequest, EvalContext, PolicyEngine};
use polsec_hpe::{ApprovedLists, HardwarePolicyEngine};
use polsec_sim::{
    run_sharded, sampled, DetRng, Fold, Histogram, MetricSet, Scheduler, SimDuration,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Powertrain-segment nodes (segment A).
const POWERTRAIN_NODES: [&str; 6] = [
    "ev-ecu",
    "eps",
    "engine",
    "sensors",
    "safety-critical",
    "door-locks",
];

/// Comfort/telematics-segment nodes (segment B).
const COMFORT_NODES: [&str; 2] = ["telematics", "infotainment"];

/// Identifiers legitimately crossing powertrain → comfort (status and
/// sensor broadcasts the head unit and telematics consume).
const CROSS_A_TO_B: [u16; 5] = [
    messages::SENSOR_WHEEL_SPEED,
    messages::ECU_STATUS,
    messages::DOOR_LOCK_STATUS,
    messages::SAFETY_EVENT,
    messages::MODE_CHANGE,
];

/// Identifiers legitimately crossing comfort → powertrain (remote
/// diagnostics, plus the authenticated V2X platoon relay and the platoon
/// health/limp-home relay the telematics unit re-broadcasts for the ECU).
const CROSS_B_TO_A: [u16; 3] = [
    messages::DIAG_REQUEST,
    messages::V2X_LEAD,
    messages::V2X_HEALTH,
];

/// Fleet bus traces keep one record in this many (DESIGN.md §8): enough to
/// spot-check a run, cheap enough to vanish from the per-frame profile. The
/// sampler is seeded from `(seed, vehicle, segment)` *arithmetically* — no
/// draw from the vehicle's RNG stream — so enabling or tuning sampling can
/// never perturb jitter, attack profiles or any deterministic metric.
const TRACE_SAMPLE_EVERY: u64 = 256;

/// One shared-engine decide in this many is timed into `wall.decide_ns`;
/// the others read no clock. The selector is the trace sampler's rule over
/// the vehicle's decide count, seeded like the traces, so it too draws
/// nothing from the vehicle's RNG stream.
const DECIDE_SAMPLE_EVERY: u64 = 32;

/// Which enforcement layers a fleet run activates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEnforcement {
    /// Whitelist forwarding rules on every vehicle gateway (deny-by-default
    /// segmentation). Off = the gateway forwards everything.
    pub gateway_whitelist: bool,
    /// A hardware policy engine interposed on every component node.
    pub node_hpe: bool,
    /// A hardware policy engine on each gateway endpoint, gating what may
    /// enter or leave a segment regardless of the rule table.
    pub segment_hpe: bool,
    /// The software layer: per-component [`AppPolicy`] checks against the
    /// fleet-shared engine, with a **per-vehicle rate scope** so the
    /// engine's rate trackers cannot couple concurrently-running vehicles.
    pub app_policy: bool,
    /// The behavioural anomaly rung: a per-vehicle [`EcuMonitor`] on the
    /// EV-ECU corroborating crash reports against the wheel-speed and
    /// proximity streams, plus the payload-plausibility check on the V2X
    /// ingest ladder. Closes Table I row 2 (value spoof from the
    /// legitimate sensor node), which every ID-based rung passes.
    pub anomaly: bool,
}

impl FleetEnforcement {
    /// The baseline policy: every hardware/gateway layer on (the software
    /// and behavioural layers are separate ladder rungs — see
    /// [`FleetEnforcement::full_with_app`] and
    /// [`FleetEnforcement::shipped`]).
    pub fn baseline() -> Self {
        FleetEnforcement {
            gateway_whitelist: true,
            node_hpe: true,
            segment_hpe: true,
            app_policy: false,
            anomaly: false,
        }
    }

    /// Every layer on, including the per-component application policy.
    pub fn full_with_app() -> Self {
        FleetEnforcement {
            app_policy: true,
            ..Self::baseline()
        }
    }

    /// The configuration the fleet ships with: the hardware baseline plus
    /// the behavioural anomaly rung — the ladder with no known Table I
    /// coverage hole.
    pub fn shipped() -> Self {
        FleetEnforcement {
            anomaly: true,
            ..Self::baseline()
        }
    }

    /// Everything off (the unprotected fleet).
    pub fn none() -> Self {
        FleetEnforcement {
            gateway_whitelist: false,
            node_hpe: false,
            segment_hpe: false,
            app_policy: false,
            anomaly: false,
        }
    }

    /// A short label for reports.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.gateway_whitelist {
            parts.push("gw");
        }
        if self.node_hpe {
            parts.push("hpe");
        }
        if self.segment_hpe {
            parts.push("seg-hpe");
        }
        if self.app_policy {
            parts.push("app");
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

/// Wire-level error injection on both of a vehicle's CAN segments —
/// enables the E1 bus-off attack class inside the mixed fleet scenario.
///
/// Each vehicle's two buses draw corruption decisions from RNGs seeded by
/// [`error_model_seed`], a pure function of `(master seed, vehicle,
/// segment)` in the [`DetRng::stream`] derivation family — so enabling the
/// model keeps the whole run replay-deterministic and thread-count
/// invariant, and never perturbs the vehicle's own jitter/attack stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetErrorModel {
    /// Probability that a targeted frame is corrupted on the wire.
    pub probability: f64,
    /// Identifiers to target; empty targets every frame.
    pub target_ids: Vec<u16>,
}

/// Salt separating the wire-error seed family from the per-vehicle
/// jitter/attack streams (`DetRng::stream(seed, index)`).
const ERROR_SEED_SALT: u64 = 0x5EE_D0FE_1B05; // "seed of E1 bus-off"

/// Derives the RNG seed for vehicle `index`'s segment (`0` = powertrain,
/// `1` = comfort) wire-error model. Pinned by a known-answer test: replayed
/// experiments depend on this derivation never changing silently.
pub fn error_model_seed(master: u64, index: usize, segment: u64) -> u64 {
    DetRng::stream(master ^ ERROR_SEED_SALT, (index as u64) * 2 + segment).next_u64()
}

/// Configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of vehicles (= shards).
    pub vehicles: usize,
    /// Master seed; vehicle `i` runs on `DetRng::stream(seed, i)`.
    pub seed: u64,
    /// Each vehicle runs until its buses have carried this many frames.
    pub frames_per_vehicle: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Base component tick period.
    pub tick_period: SimDuration,
    /// Maximum jitter applied to each tick (uniform in `±tick_jitter`).
    pub tick_jitter: SimDuration,
    /// Base period between outside attack injections.
    pub inject_period: SimDuration,
    /// Maximum jitter applied to each injection interval (uniform in
    /// `±inject_jitter`).
    pub inject_jitter: SimDuration,
    /// Probability that a vehicle additionally suffers an inside firmware
    /// compromise of its door-lock node.
    pub inside_attack_chance: f64,
    /// Active enforcement layers.
    pub enforcement: FleetEnforcement,
    /// Optional wire-level error injection on every vehicle's segments
    /// (off by default; see [`FleetErrorModel`]).
    pub error_model: Option<FleetErrorModel>,
}

impl FleetConfig {
    /// A baseline-enforcement config with the standard timing parameters.
    pub fn new(vehicles: usize, frames_per_vehicle: u64) -> Self {
        FleetConfig {
            vehicles,
            seed: 0xF1EE7,
            frames_per_vehicle,
            threads: 0,
            tick_period: SimDuration::millis(10),
            tick_jitter: SimDuration::millis(2),
            inject_period: SimDuration::millis(35),
            inject_jitter: SimDuration::millis(15),
            inside_attack_chance: 0.3,
            enforcement: FleetEnforcement::baseline(),
            error_model: None,
        }
    }
}

/// Per-vehicle scheduler events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VehicleEvent {
    /// One component round: tick all firmware, run both buses, pump the
    /// gateway, account.
    Tick,
    /// Inject one outside attack frame from the OBD dongle.
    Inject,
    /// Replace the door-lock firmware with a spoofing implant.
    Compromise,
}

/// A fleet vehicle's tally, and a run's: plain counts on the frame path
/// and at the vehicle's end, the two histograms the section holds, and
/// nothing keyed by string. A run adds its vehicles' tallies up with
/// [`Fold`] and renders them once with [`FleetTally::render_into`].
#[derive(Debug, Default)]
pub(crate) struct FleetTally {
    vehicles: u64,
    /// Vehicles per drawn outside attack, indexed like
    /// [`OUTSIDE_ATTACKS`].
    outside: [u64; 4],
    inside: u64,
    attack_injected: u64,
    attack_wire: u64,
    attack_victim_wire: u64,
    attack_crossed_gateway: u64,
    attack_leaked: u64,
    attack_leaked_frames: u64,
    attack_compromises: u64,
    gateway_crossed: u64,
    gateway_forwarded: u64,
    gateway_dropped: u64,
    policy_checked: u64,
    policy_denied: u64,
    frames_consumed: u64,
    ticks: u64,
    frames_transmitted: u64,
    frames_delivered: u64,
    frames_rejected: u64,
    frames_abandoned: u64,
    frames_corrupted: u64,
    frames_blocked_ingress: u64,
    frames_blocked_egress: u64,
    bus_time_us: u64,
    bus_off_nodes: u64,
    bus_recoveries: u64,
    hpe_granted: u64,
    hpe_read_blocked: u64,
    hpe_write_blocked: u64,
    hpe_tamper_attempts: u64,
    hpe_cycles: u64,
    app_rejected: u64,
    app_implausible: u64,
    anomaly_checked: u64,
    anomaly_flagged: u64,
    anomaly_rate_jump: u64,
    anomaly_out_of_range: u64,
    anomaly_stuck: u64,
    anomaly_inconsistent: u64,
    anomaly_implausible_crashes: u64,
    sim_time_us: u64,
    /// The receiving segment HPE's verdict cost per gateway crossing.
    verdict_cycles: Histogram,
    /// One shared-engine decide in [`DECIDE_SAMPLE_EVERY`], in wall-clock
    /// nanoseconds (`wall.decide_ns`).
    decide_ns: Histogram,
}

/// Every counter of [`FleetTally`]: the key it renders under, its field,
/// and when the key appears. A key no configuration touches still appears
/// (`Always`), so the counter shape is the same on every ladder; only the
/// drawn attack profiles and the per-tick counters come and go.
const FLEET_COUNTERS: [Counter<FleetTally>; 45] = [
    ("fleet.vehicles", |t| &mut t.vehicles, Shown::Always),
    ("attack.profile.ecu", |t| &mut t.outside[0], Shown::NonZero),
    ("attack.profile.eps", |t| &mut t.outside[1], Shown::NonZero),
    ("attack.profile.modem", |t| &mut t.outside[2], Shown::NonZero),
    ("attack.profile.alarm", |t| &mut t.outside[3], Shown::NonZero),
    ("attack.profile.inside", |t| &mut t.inside, Shown::NonZero),
    ("attack.injected", |t| &mut t.attack_injected, Shown::Always),
    ("attack.wire", |t| &mut t.attack_wire, Shown::Always),
    ("attack.victim_wire", |t| &mut t.attack_victim_wire, Shown::Always),
    ("attack.crossed_gateway", |t| &mut t.attack_crossed_gateway, Shown::Always),
    ("attack.leaked", |t| &mut t.attack_leaked, Shown::Always),
    ("attack.leaked_frames", |t| &mut t.attack_leaked_frames, Shown::Always),
    ("attack.compromises", |t| &mut t.attack_compromises, Shown::Always),
    ("gateway.crossed", |t| &mut t.gateway_crossed, Shown::Always),
    ("gateway.forwarded", |t| &mut t.gateway_forwarded, Shown::Always),
    ("gateway.dropped", |t| &mut t.gateway_dropped, Shown::Always),
    ("policy.checked", |t| &mut t.policy_checked, Shown::Always),
    ("policy.denied", |t| &mut t.policy_denied, Shown::Always),
    ("frames.consumed", |t| &mut t.frames_consumed, Shown::Ticked),
    ("sim.ticks", |t| &mut t.ticks, Shown::Ticked),
    ("frames.transmitted", |t| &mut t.frames_transmitted, Shown::Always),
    ("frames.delivered", |t| &mut t.frames_delivered, Shown::Always),
    ("frames.rejected", |t| &mut t.frames_rejected, Shown::Always),
    ("frames.abandoned", |t| &mut t.frames_abandoned, Shown::Always),
    ("frames.corrupted", |t| &mut t.frames_corrupted, Shown::Always),
    ("frames.blocked_ingress", |t| &mut t.frames_blocked_ingress, Shown::Always),
    ("frames.blocked_egress", |t| &mut t.frames_blocked_egress, Shown::Always),
    ("bus.time_us", |t| &mut t.bus_time_us, Shown::Always),
    ("bus.off_nodes", |t| &mut t.bus_off_nodes, Shown::Always),
    ("bus.recoveries", |t| &mut t.bus_recoveries, Shown::Always),
    ("hpe.granted", |t| &mut t.hpe_granted, Shown::Always),
    ("hpe.read_blocked", |t| &mut t.hpe_read_blocked, Shown::Always),
    ("hpe.write_blocked", |t| &mut t.hpe_write_blocked, Shown::Always),
    ("hpe.tamper_attempts", |t| &mut t.hpe_tamper_attempts, Shown::Always),
    ("hpe.cycles", |t| &mut t.hpe_cycles, Shown::Always),
    ("app.rejected", |t| &mut t.app_rejected, Shown::Always),
    ("app.implausible", |t| &mut t.app_implausible, Shown::Always),
    ("anomaly.checked", |t| &mut t.anomaly_checked, Shown::Always),
    ("anomaly.flagged", |t| &mut t.anomaly_flagged, Shown::Always),
    ("anomaly.rate_jump", |t| &mut t.anomaly_rate_jump, Shown::Always),
    ("anomaly.out_of_range", |t| &mut t.anomaly_out_of_range, Shown::Always),
    ("anomaly.stuck", |t| &mut t.anomaly_stuck, Shown::Always),
    ("anomaly.inconsistent", |t| &mut t.anomaly_inconsistent, Shown::Always),
    (
        "anomaly.implausible_crashes",
        |t| &mut t.anomaly_implausible_crashes,
        Shown::Always,
    ),
    ("sim.time_us", |t| &mut t.sim_time_us, Shown::Always),
];

impl Fold for FleetTally {
    fn fold(&mut self, mut other: Self) {
        tally::add(&FLEET_COUNTERS, self, &mut other);
        self.verdict_cycles.merge(&other.verdict_cycles);
        self.decide_ns.merge(&other.decide_ns);
    }
}

impl FleetTally {
    /// Whether any vehicle is folded in.
    pub(crate) fn folded(&self) -> bool {
        self.vehicles > 0
    }

    /// Adds an anomaly rung's verdict counts to the `anomaly.*` counters:
    /// the ECU monitor's, and on a V2X vehicle the platoon rung's too.
    pub(crate) fn add_anomaly(&mut self, c: &AnomalyCounters) {
        self.anomaly_checked += u64::from(c.checked);
        self.anomaly_flagged += u64::from(c.flagged);
        self.anomaly_rate_jump += u64::from(c.rate_jump);
        self.anomaly_out_of_range += u64::from(c.out_of_range);
        self.anomaly_stuck += u64::from(c.stuck);
        self.anomaly_inconsistent += u64::from(c.inconsistent);
    }

    /// Renders the tally into `m`: every counter [`FLEET_COUNTERS`] shows,
    /// `verdict.cycles` and `wall.decide_ns` where a value was observed.
    pub(crate) fn render_into(mut self, m: &mut MetricSet) {
        let (folded, ticked) = (self.folded(), self.ticks > 0);
        tally::render(&FLEET_COUNTERS, &mut self, folded, ticked, m);
        m.merge_histogram("verdict.cycles", self.verdict_cycles);
        m.merge_histogram("wall.decide_ns", self.decide_ns);
    }
}

/// One vehicle of the fleet: two CAN segments, a gateway, per-node and
/// per-segment HPEs, and a handle on the fleet-shared policy engine.
pub struct Vehicle {
    powertrain: CanBus,
    comfort: CanBus,
    gateway: Gateway,
    seg_hpe_a: Option<HardwarePolicyEngine>,
    seg_hpe_b: Option<HardwarePolicyEngine>,
    node_hpes: BTreeMap<String, HardwarePolicyEngine>,
    nodes_a: Vec<NodeHandle>,
    nodes_b: Vec<NodeHandle>,
    attacker: NodeHandle,
    door_locks: NodeHandle,
    telematics: NodeHandle,
    engine: Arc<PolicyEngine>,
    app: Option<crate::components::AppPolicy>,
    monitor: Option<Shared<EcuMonitor>>,
    ctx: EvalContext,
    rng: DetRng,
    scheduler: Scheduler<VehicleEvent>,
    states: CarStates,
    /// The drawn [`OUTSIDE_ATTACKS`] slot.
    outside: usize,
    inside_attack: bool,
    compromised: bool,
    inject_seq: u32,
    frames_quota: u64,
    tally: FleetTally,
    /// Seeds the [`DECIDE_SAMPLE_EVERY`] selector over `tally.policy_checked`.
    decide_sample_seed: u64,
    /// What a caller counts through [`Vehicle::metrics_mut`], made on its
    /// first call; the fleet and V2X runs never make one.
    extra: Option<MetricSet>,
    /// Reused across ticks by [`Vehicle::observe_bus_events`] so the event
    /// accounting loop allocates nothing once warm.
    event_buf: Vec<BusEvent>,
}

impl std::fmt::Debug for Vehicle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vehicle")
            .field("powertrain_nodes", &self.powertrain.node_count())
            .field("comfort_nodes", &self.comfort.node_count())
            .field("outside", &OUTSIDE_ATTACKS[self.outside])
            .field("inside_attack", &self.inside_attack)
            .finish()
    }
}

fn segment_hpe_lists(ingress: &[u16], egress: &[u16]) -> ApprovedLists {
    let mut lists = ApprovedLists::with_capacity(16);
    for &id in ingress {
        lists
            .allow_read(CanId::Standard(id))
            .expect("crossing matrix fits hpe capacity");
    }
    for &id in egress {
        lists
            .allow_write(CanId::Standard(id))
            .expect("crossing matrix fits hpe capacity");
    }
    lists
}

/// The name of the policy asset a crossing frame concerns, if the
/// identifier maps onto one the fleet policy knows about.
pub fn asset_for_id(id: u16) -> Option<&'static str> {
    Asset::for_id(id).map(Asset::name)
}

fn is_attack_id(id: CanId) -> bool {
    // The command id map is standard-id space; an extended id with the same
    // low bits is a different identifier.
    !id.is_extended() && OUTSIDE_ATTACKS.iter().any(|a| u32::from(a.id) == id.raw())
}

/// A static description of one vehicle's enforcement ladder: every
/// per-layer artifact `polsec-analyze`'s Layer-2 coverage analysis needs.
/// [`Vehicle::build`] programs its node HPEs, gateway whitelist and segment
/// HPEs from this same value, so the analyzer reads exactly what runs.
/// Nothing here is simulated — the description is pure data, so a coverage
/// hole found in it is a property of the configuration, not of any
/// particular run.
#[derive(Debug, Clone)]
pub struct LadderDescription {
    /// The enforcement flags a fleet run would activate.
    pub enforcement: FleetEnforcement,
    /// Powertrain-segment (A) node names.
    pub powertrain_nodes: Vec<&'static str>,
    /// Comfort-segment (B) node names.
    pub comfort_nodes: Vec<&'static str>,
    /// Gateway whitelist: identifiers forwarded powertrain → comfort.
    pub cross_a_to_b: Vec<u16>,
    /// Gateway whitelist: identifiers forwarded comfort → powertrain.
    pub cross_b_to_a: Vec<u16>,
    /// Per-node HPE approved lists, derived from the communication matrix,
    /// powertrain nodes first.
    pub node_lists: Vec<(&'static str, ApprovedLists)>,
    /// Segment HPE lists on gateway endpoint A (powertrain side): reads
    /// gate what leaves the segment, writes gate what enters it.
    pub segment_lists_a: ApprovedLists,
    /// Segment HPE lists on gateway endpoint B (comfort side).
    pub segment_lists_b: ApprovedLists,
    /// Identifiers no node legitimately transmits (attack traffic).
    pub attack_ids: Vec<u16>,
}

/// Extracts the [`LadderDescription`] a fleet configuration implies.
pub fn ladder_description(cfg: &FleetConfig) -> LadderDescription {
    LadderDescription {
        enforcement: cfg.enforcement,
        powertrain_nodes: POWERTRAIN_NODES.to_vec(),
        comfort_nodes: COMFORT_NODES.to_vec(),
        cross_a_to_b: CROSS_A_TO_B.to_vec(),
        cross_b_to_a: CROSS_B_TO_A.to_vec(),
        node_lists: POWERTRAIN_NODES
            .iter()
            .chain(COMFORT_NODES.iter())
            .map(|&n| (n, hpe_lists_for(n)))
            .collect(),
        segment_lists_a: segment_hpe_lists(&CROSS_A_TO_B, &CROSS_B_TO_A),
        segment_lists_b: segment_hpe_lists(&CROSS_B_TO_A, &CROSS_A_TO_B),
        attack_ids: OUTSIDE_ATTACKS.iter().map(|a| a.id).collect(),
    }
}

impl Vehicle {
    /// Builds vehicle `index` of a fleet: topology, enforcement and attack
    /// profile all derive from `cfg` and `DetRng::stream(cfg.seed, index)`.
    pub fn build(cfg: &FleetConfig, index: usize, engine: Arc<PolicyEngine>) -> Self {
        let mut rng = DetRng::stream(cfg.seed, index as u64);
        let mut powertrain = CanBus::new(500_000);
        let mut comfort = CanBus::new(500_000);
        if let Some(em) = &cfg.error_model {
            let model = polsec_can::ErrorModel {
                probability: em.probability,
                target_ids: if em.target_ids.is_empty() {
                    None
                } else {
                    Some(em.target_ids.iter().map(|&id| CanId::Standard(id)).collect())
                },
            };
            // Pinned derivation: the error draws belong to the
            // DetRng::stream contract, separate from the vehicle stream.
            powertrain.set_error_model(Some(model.clone()), error_model_seed(cfg.seed, index, 0));
            comfort.set_error_model(Some(model), error_model_seed(cfg.seed, index, 1));
        }
        // Deterministic 1-in-N trace sampling per segment; the detail
        // strings of surviving records are still built lazily by the bus.
        // The decide-timing sampler takes the next seed, `trace_seed ^ 2`.
        let trace_seed = cfg.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        powertrain
            .trace_mut()
            .set_sampling(TRACE_SAMPLE_EVERY, trace_seed);
        comfort
            .trace_mut()
            .set_sampling(TRACE_SAMPLE_EVERY, trace_seed ^ 1);

        // The situational context of the crossing check. The software
        // layer: per-component policy points share the fleet engine but
        // carry a per-vehicle rate scope and their own copy of the context,
        // so the layer adds no cross-vehicle coupling.
        let ctx = EvalContext::new()
            .with_mode("normal")
            .with_state("vehicle.moving", "true")
            .with_state("crash", "false")
            .with_state("stolen", "false");
        let app = cfg.enforcement.app_policy.then(|| {
            AppPolicy::new(Arc::clone(&engine), shared(ctx.clone())).with_rate_scope(index as u64)
        });

        // The behavioural rung: one monitor per vehicle, fed only from the
        // frames its ECU receives — no RNG draws, no clock reads — so the
        // rung cannot perturb the vehicle's deterministic event stream.
        let monitor = cfg
            .enforcement
            .anomaly
            .then(|| shared(EcuMonitor::default()));

        let (firmwares, states) = components(app.as_ref(), None, monitor.clone());
        let mut firmwares: BTreeMap<_, _> = NODE_NAMES.into_iter().zip(firmwares).collect();

        // Wired from the ladder the analyzer checks: the lists are moved
        // out of the description, not re-derived.
        let LadderDescription {
            powertrain_nodes,
            node_lists,
            cross_a_to_b,
            cross_b_to_a,
            segment_lists_a,
            segment_lists_b,
            ..
        } = ladder_description(cfg);

        let mut node_hpes = BTreeMap::new();
        let (mut nodes_a, mut nodes_b) = (Vec::new(), Vec::new());
        let (mut door_locks, mut telematics_node) = (None, None);
        for (name, lists) in node_lists {
            let fw = firmwares.remove(name).expect("every ladder node has firmware");
            let mut node = CanNode::with_firmware(name, fw);
            if cfg.enforcement.node_hpe {
                let hpe = HardwarePolicyEngine::new(format!("{name}-hpe"), lists);
                node.install_interposer(Box::new(hpe.clone()));
                node_hpes.insert(name.to_string(), hpe);
            }
            let (bus, handles) = if powertrain_nodes.contains(&name) {
                (&mut powertrain, &mut nodes_a)
            } else {
                (&mut comfort, &mut nodes_b)
            };
            let h = bus.attach(node);
            handles.push(h);
            match name {
                IMPLANT_NODE => door_locks = Some(h),
                "telematics" => telematics_node = Some(h),
                _ => {}
            }
        }
        let attacker = comfort.attach(CanNode::new("obd-dongle"));

        let mut gateway = Gateway::bridge(&mut powertrain, &mut comfort, "gw");
        if cfg.enforcement.gateway_whitelist {
            for (from, ids) in [(Segment::A, cross_a_to_b), (Segment::B, cross_b_to_a)] {
                for id in ids {
                    gateway.allow(ForwardRule {
                        from,
                        filter: AcceptanceFilter::standard(u32::from(id), 0x7FF),
                    });
                }
            }
        } else {
            gateway
                .allow(ForwardRule {
                    from: Segment::A,
                    filter: AcceptanceFilter::any_standard(),
                })
                .allow(ForwardRule {
                    from: Segment::B,
                    filter: AcceptanceFilter::any_standard(),
                });
        }

        let (mut seg_hpe_a, mut seg_hpe_b) = (None, None);
        if cfg.enforcement.segment_hpe {
            let a = HardwarePolicyEngine::new("gw-hpe-a", segment_lists_a);
            let b = HardwarePolicyEngine::new("gw-hpe-b", segment_lists_b);
            powertrain
                .node_mut(gateway.endpoint_a())
                .expect("endpoint a is on the powertrain bus")
                .install_interposer(Box::new(a.clone()));
            comfort
                .node_mut(gateway.endpoint_b())
                .expect("endpoint b is on the comfort bus")
                .install_interposer(Box::new(b.clone()));
            seg_hpe_a = Some(a);
            seg_hpe_b = Some(b);
        }

        // Attack profile: one outside kind per vehicle, plus a chance of an
        // inside firmware compromise. All draws come from the vehicle's
        // stream, in a fixed order.
        let outside = rng.next_below(OUTSIDE_ATTACKS.len() as u64) as usize;
        let inside_attack = rng.chance(cfg.inside_attack_chance);

        let mut scheduler = Scheduler::new();
        let first_tick = rng.range_inclusive(0, cfg.tick_period.as_micros());
        scheduler.schedule_in(SimDuration::micros(first_tick), VehicleEvent::Tick);
        let first_inject = rng.range_inclusive(
            cfg.inject_period.as_micros() / 2,
            cfg.inject_period.as_micros() * 2,
        );
        scheduler.schedule_in(SimDuration::micros(first_inject), VehicleEvent::Inject);
        if inside_attack {
            // the implant activates some way into the run
            let at = rng.range_inclusive(
                cfg.tick_period.as_micros() * 5,
                cfg.tick_period.as_micros() * 50,
            );
            scheduler.schedule_in(SimDuration::micros(at), VehicleEvent::Compromise);
        }

        let mut tally = FleetTally {
            vehicles: 1,
            inside: u64::from(inside_attack),
            ..FleetTally::default()
        };
        tally.outside[outside] = 1;

        Vehicle {
            powertrain,
            comfort,
            gateway,
            seg_hpe_a,
            seg_hpe_b,
            node_hpes,
            nodes_a,
            nodes_b,
            attacker,
            door_locks: door_locks.expect("door-locks is a powertrain node"),
            telematics: telematics_node.expect("telematics is a comfort node"),
            engine,
            app,
            monitor,
            ctx,
            rng,
            scheduler,
            states,
            outside,
            inside_attack,
            compromised: false,
            inject_seq: 0,
            frames_quota: cfg.frames_per_vehicle,
            tally,
            decide_sample_seed: trace_seed ^ 2,
            extra: None,
            event_buf: Vec::new(),
        }
    }

    /// Component state handles (for scenario assertions).
    pub fn states(&self) -> &CarStates {
        &self.states
    }

    /// Whether the inside implant is part of this vehicle's profile.
    pub fn has_inside_attack(&self) -> bool {
        self.inside_attack
    }

    fn frames_on_wire(&self) -> u64 {
        self.powertrain.stats().frames_transmitted + self.comfort.stats().frames_transmitted
    }

    fn jittered(&mut self, base: SimDuration, jitter: SimDuration) -> SimDuration {
        let base = base.as_micros().max(1);
        let j = jitter.as_micros().min(base - 1);
        SimDuration::micros(self.rng.range_inclusive(base - j, base + j))
    }

    /// Runs the vehicle to its frame quota and returns its metrics
    /// (including `wall.*` entries the caller is expected to split off).
    pub fn run(mut self, cfg: &FleetConfig) -> MetricSet {
        self.run_until(cfg, self.frames_quota);
        self.finish()
    }

    /// Runs scheduler events until the vehicle's buses have carried at
    /// least `target_frames` in total. Re-entrant: the V2X epoch loop
    /// calls this with an increasing target, interleaving cross-vehicle
    /// message processing between slices without disturbing the event
    /// stream (the scheduler, RNG and buses simply continue).
    pub fn run_until(&mut self, cfg: &FleetConfig, target_frames: u64) {
        // Event bound: ticks dominate and each tick carries several frames,
        // so this only trips if traffic generation stalls entirely.
        let missing = target_frames.saturating_sub(self.frames_on_wire());
        let max_events = missing * 4 + 10_000;
        let mut events = 0;
        while self.frames_on_wire() < target_frames && events < max_events {
            let Some((_, event)) = self.scheduler.pop() else {
                break;
            };
            events += 1;
            match event {
                VehicleEvent::Tick => self.on_tick(cfg),
                VehicleEvent::Inject => self.on_inject(cfg),
                VehicleEvent::Compromise => self.on_compromise(),
            }
        }
    }

    /// Current simulated time of the vehicle's scheduler.
    pub fn now(&self) -> polsec_sim::SimTime {
        self.scheduler.now()
    }

    /// A metric set whose counters [`Vehicle::finish`] returns beside the
    /// vehicle's own, for a caller that layers counters of its own on a
    /// vehicle. [`run_fleet`] and [`run_v2x`](crate::run_v2x) keep theirs
    /// in typed tallies and never touch it.
    pub fn metrics_mut(&mut self) -> &mut MetricSet {
        self.extra.get_or_insert_with(MetricSet::new)
    }

    /// Relays an accepted V2X platoon-lead message onto the in-vehicle
    /// network: the telematics unit broadcasts a [`messages::V2X_LEAD`]
    /// frame on the comfort segment, from where it crosses the gateway
    /// (whitelisted), passes the segment and node HPEs, and reaches the
    /// EV-ECU's platoon logic — the full enforcement path of any other
    /// boundary frame.
    pub fn relay_v2x(&mut self, speed: u8, brake: bool, seq: u16) {
        let payload = [speed, u8::from(brake), seq as u8, (seq >> 8) as u8];
        if let Ok(frame) = CanFrame::data(CanId::Standard(messages::V2X_LEAD), &payload) {
            let _ = self.comfort.send_from(self.telematics, frame);
        }
    }

    /// Relays a platoon-health (limp-home) verdict onto the in-vehicle
    /// network as a [`messages::V2X_HEALTH`] frame from the telematics
    /// unit; it traverses the same gateway/HPE path as the lead relay and
    /// flips the EV-ECU's degraded envelope.
    pub fn relay_v2x_health(&mut self, degraded: bool) {
        let payload = [u8::from(degraded)];
        if let Ok(frame) = CanFrame::data(CanId::Standard(messages::V2X_HEALTH), &payload) {
            let _ = self.comfort.send_from(self.telematics, frame);
        }
    }

    fn on_tick(&mut self, cfg: &FleetConfig) {
        self.powertrain.tick_all();
        self.comfort.tick_all();
        if self.compromised {
            // the implant emits one spoof frame per tick
            self.tally.attack_injected += 1;
        }
        self.powertrain.run_until_idle();
        self.comfort.run_until_idle();
        self.gateway
            .pump(&mut self.powertrain, &mut self.comfort)
            .expect("gateway endpoints are on their own buses");
        self.powertrain.run_until_idle();
        self.comfort.run_until_idle();
        self.observe_bus_events();
        self.drain_rx_queues();
        self.tally.ticks += 1;
        let next = self.jittered(cfg.tick_period, cfg.tick_jitter);
        self.scheduler.schedule_in(next, VehicleEvent::Tick);
    }

    fn on_inject(&mut self, cfg: &FleetConfig) {
        self.inject_seq += 1;
        // A per-vehicle sequence marker, so delivered copies of one
        // injection can be deduplicated into a per-frame leak count.
        let frame = OUTSIDE_ATTACKS[self.outside].frame(&self.inject_seq.to_le_bytes()[..3]);
        let _ = self.comfort.send_from(self.attacker, frame);
        self.tally.attack_injected += 1;
        let next = self.jittered(cfg.inject_period, cfg.inject_jitter);
        self.scheduler.schedule_in(next, VehicleEvent::Inject);
    }

    fn on_compromise(&mut self) {
        let spoof = INSIDE_IMPLANT.frame(&[]);
        if let Some(node) = self.powertrain.node_mut(self.door_locks) {
            node.replace_firmware(Box::new(SpoofFirmware::new(vec![spoof])));
            node.controller_mut().filters_mut().clear();
        }
        if let Some(hpe) = self.node_hpes.get(IMPLANT_NODE) {
            // the implant tries to open its own hardware gate; counted, refused
            let _ = hpe.firmware_attempt_reconfigure();
        }
        self.compromised = true;
        self.tally.attack_compromises += 1;
    }

    /// Accounts bus events since the last tick: wire-level attack frames and
    /// gateway crossings (with the shared-engine policy check per crossing
    /// command frame).
    fn observe_bus_events(&mut self) {
        let ep_a = self.gateway.endpoint_a();
        let ep_b = self.gateway.endpoint_b();
        // One persistent buffer, swapped with each bus in turn: the whole
        // accounting pass is allocation-free once the buffers are warm.
        let mut events = std::mem::take(&mut self.event_buf);
        for (segment, endpoint, victim_segment) in [(0, ep_a, true), (1, ep_b, false)] {
            match segment {
                0 => self.powertrain.drain_events_into(&mut events),
                _ => self.comfort.drain_events_into(&mut events),
            }
            for event in &events {
                let BusEvent::Transmitted { from, frame, .. } = event else {
                    continue;
                };
                let attack = is_attack_id(frame.id());
                if attack {
                    self.tally.attack_wire += 1;
                    if victim_segment {
                        // on the powertrain wire, whether it got there via
                        // the gateway or from an inside implant
                        self.tally.attack_victim_wire += 1;
                    }
                }
                if *from == endpoint {
                    self.tally.gateway_crossed += 1;
                    if attack {
                        self.tally.attack_crossed_gateway += 1;
                    }
                    self.check_crossing(frame, victim_segment);
                }
            }
        }
        self.event_buf = events;
    }

    /// The fleet-level policy check: every command frame crossing a gateway
    /// is judged by the shared engine, and its verdict cost is sampled from
    /// the receiving segment's HPE.
    fn check_crossing(&mut self, frame: &CanFrame, into_powertrain: bool) {
        let seg_hpe = if into_powertrain {
            &self.seg_hpe_a
        } else {
            &self.seg_hpe_b
        };
        if let Some(hpe) = seg_hpe {
            let (_, cycles) = hpe.probe_write(frame.id());
            self.tally.verdict_cycles.record(u64::from(cycles));
        }
        // The asset/command maps cover the standard-id space only; extended
        // ids must not alias onto them through low-bit truncation.
        let CanId::Standard(id) = frame.id() else {
            return;
        };
        let Some(asset) = Asset::for_id(id) else {
            return;
        };
        let claimed = parse_command(frame).map(|(_, origin)| origin);
        let (entry, action) = crossing_entry(id, claimed, into_powertrain);
        let request = AccessRequest::new(entry, asset.entity(), action);
        let timed = sampled(
            self.decide_sample_seed,
            self.tally.policy_checked,
            DECIDE_SAMPLE_EVERY,
        );
        let started = timed.then(Instant::now);
        let decision = self.engine.decide(&request, &self.ctx);
        if let Some(started) = started {
            let elapsed = started.elapsed().as_nanos() as u64;
            self.tally.decide_ns.record(elapsed);
        }
        self.tally.policy_checked += 1;
        if !decision.is_allow() {
            self.tally.policy_denied += 1;
        }
    }

    /// Empties every legitimate node's RX queue, counting delivered attack
    /// frames both per copy (`attack.leaked`) and per distinct frame
    /// (`attack.leaked_frames`) — the latter is in the same units as
    /// `attack.injected`, via each frame's sequence marker.
    fn drain_rx_queues(&mut self) {
        let mut leaked = 0;
        let mut consumed = 0;
        // (id, payload) identifies one injection within a tick: outside
        // frames carry a unique sequence marker and the inside implant
        // emits one spoof per tick.
        let mut leaked_frames: std::collections::BTreeSet<(u32, Vec<u8>)> =
            std::collections::BTreeSet::new();
        let mut drain = |bus: &mut CanBus, handles: &[NodeHandle]| {
            for &h in handles {
                if let Some(node) = bus.node_mut(h) {
                    while let Some(f) = node.receive() {
                        if is_attack_id(f.id()) {
                            leaked += 1;
                            leaked_frames.insert((f.id().raw(), f.payload().to_vec()));
                        } else {
                            consumed += 1;
                        }
                    }
                }
            }
        };
        drain(&mut self.powertrain, &self.nodes_a);
        drain(&mut self.comfort, &self.nodes_b);
        // the attacker's own RX is drained but not counted
        if let Some(node) = self.comfort.node_mut(self.attacker) {
            while node.receive().is_some() {}
        }
        self.tally.attack_leaked += leaked;
        self.tally.attack_leaked_frames += leaked_frames.len() as u64;
        self.tally.frames_consumed += consumed;
    }

    /// Folds the vehicle's final state into its tally, as [`run_fleet`]
    /// does for each vehicle, and renders the tally into one metric set
    /// with the counters added through [`Vehicle::metrics_mut`], `wall.*`
    /// entries included.
    pub fn finish(mut self) -> MetricSet {
        let mut metrics = self.extra.take().unwrap_or_default();
        self.into_tally().render_into(&mut metrics);
        metrics
    }

    /// Adds the vehicle's final bus statistics, gateway counters, HPE
    /// totals and monitor and component state to its per-event tally and
    /// returns it: the one fold of a finished vehicle, which [`run_fleet`]
    /// and [`run_v2x`](crate::run_v2x) add into the run's tally and
    /// [`Vehicle::finish`] renders.
    pub(crate) fn into_tally(mut self) -> FleetTally {
        let mut t = std::mem::take(&mut self.tally);
        if let Some(monitor) = &self.monitor {
            t.add_anomaly(&lock(monitor).counters);
            t.anomaly_implausible_crashes += u64::from(lock(&self.states.ecu).implausible_crashes);
        }
        for bus in [&self.powertrain, &self.comfort] {
            let stats = bus.stats();
            t.frames_transmitted += stats.frames_transmitted;
            t.frames_delivered += stats.frames_delivered;
            t.frames_rejected += stats.frames_rejected;
            t.frames_abandoned += stats.frames_abandoned;
            t.frames_corrupted += stats.frames_corrupted;
            t.frames_blocked_ingress += stats.frames_blocked_ingress;
            t.frames_blocked_egress += stats.frames_blocked_egress;
            t.bus_time_us += bus.now().as_micros();
            t.bus_off_nodes += bus
                .nodes()
                .filter(|(_, n)| {
                    n.controller().counters().state() == polsec_can::ErrorState::BusOff
                })
                .count() as u64;
            t.bus_recoveries += stats.bus_off_recoveries;
        }
        if self.app.is_some() {
            t.app_rejected += self.states.rejected_commands();
            t.app_implausible += self.states.implausible_readings();
        }
        t.gateway_forwarded += self.gateway.forwarded();
        t.gateway_dropped += self.gateway.dropped();
        let seg_hpes = self.seg_hpe_a.iter().chain(self.seg_hpe_b.iter());
        for hpe in self.node_hpes.values().chain(seg_hpes) {
            let h = hpe.totals();
            t.hpe_granted += h.read_granted + h.write_granted;
            t.hpe_read_blocked += h.read_blocked;
            t.hpe_write_blocked += h.write_blocked;
            t.hpe_tamper_attempts += h.tamper_attempts;
            t.hpe_cycles += h.total_cycles;
        }
        t.sim_time_us += self.scheduler.now().as_micros();
        t
    }
}

/// The outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The deterministic metrics: a pure function of `(config, seed)`.
    pub metrics: MetricSet,
    /// Wall-clock measurements and shared-engine statistics — excluded from
    /// the determinism contract.
    pub wall: MetricSet,
    /// Number of vehicles simulated.
    pub vehicles: usize,
    /// Wall-clock duration of the run, in seconds.
    pub elapsed_sec: f64,
}

impl FleetReport {
    /// Total frames the fleet's buses carried.
    pub fn frames(&self) -> u64 {
        self.metrics.counter("frames.transmitted")
    }

    /// Attack frame deliveries that reached a legitimate node's application
    /// layer.
    pub fn leaked(&self) -> u64 {
        self.metrics.counter("attack.leaked")
    }
}

/// Runs a whole fleet: builds the shared policy engine, shards vehicles over
/// the worker pool, adds the finished vehicles' tallies up, renders them
/// once and splits the wall-clock section out of the deterministic one.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    let engine = Arc::new(PolicyEngine::from_policy(car_policy()));
    let started = Instant::now();
    let tally: FleetTally = run_sharded(cfg.vehicles, cfg.threads, |i| {
        let mut vehicle = Vehicle::build(cfg, i, Arc::clone(&engine));
        vehicle.run_until(cfg, cfg.frames_per_vehicle);
        vehicle.into_tally()
    });
    let elapsed_sec = started.elapsed().as_secs_f64();
    let mut metrics = MetricSet::new();
    tally.render_into(&mut metrics);
    let mut wall = metrics.split_off_prefix("wall.");
    for (name, value) in engine.stats().as_pairs() {
        wall.count(&format!("engine.{name}"), value);
    }
    FleetReport {
        metrics,
        wall,
        vehicles: cfg.vehicles,
        elapsed_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::lock;

    fn tiny(enforcement: FleetEnforcement) -> FleetConfig {
        let mut cfg = FleetConfig::new(3, 400);
        cfg.enforcement = enforcement;
        cfg.threads = 2;
        cfg
    }

    #[test]
    fn baseline_fleet_leaks_nothing() {
        let report = run_fleet(&tiny(FleetEnforcement::baseline()));
        assert!(report.frames() >= 3 * 400, "quota must be reached");
        assert_eq!(report.leaked(), 0, "full enforcement must stop every attack");
        assert!(report.metrics.counter("attack.injected") > 0);
        assert!(report.metrics.counter("gateway.crossed") > 0, "legit traffic crosses");
        assert!(report.metrics.counter("policy.checked") > 0);
    }

    #[test]
    fn unprotected_fleet_leaks() {
        let report = run_fleet(&tiny(FleetEnforcement::none()));
        assert!(report.leaked() > 0, "no enforcement must leak attack frames");
    }

    #[test]
    fn fleet_metrics_replay_byte_identically() {
        let cfg = tiny(FleetEnforcement::baseline());
        let a = run_fleet(&cfg);
        let b = run_fleet(&cfg);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        // and across thread counts
        let mut serial = cfg.clone();
        serial.threads = 1;
        let c = run_fleet(&serial);
        assert_eq!(a.metrics.to_json(), c.metrics.to_json());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = tiny(FleetEnforcement::baseline());
        let mut other = cfg.clone();
        other.seed = cfg.seed + 1;
        let a = run_fleet(&cfg);
        let b = run_fleet(&other);
        assert_ne!(
            a.metrics.to_json(),
            b.metrics.to_json(),
            "seed must steer jitter and attack profiles"
        );
    }

    #[test]
    fn single_vehicle_normal_traffic_crosses_the_gateway() {
        let cfg = FleetConfig::new(1, 300);
        let engine = Arc::new(PolicyEngine::from_policy(car_policy()));
        let vehicle = Vehicle::build(&cfg, 0, Arc::clone(&engine));
        let states = vehicle.states().clone();
        let metrics = vehicle.run(&cfg);
        // wheel-speed broadcasts crossed into the comfort segment and
        // reached the head unit's display state
        assert_eq!(lock(&states.infotainment).displayed_speed, 60);
        assert!(metrics.counter("gateway.crossed") > 0);
        assert!(metrics.counter("frames.transmitted") >= 300);
        assert!(metrics.histogram("verdict.cycles").is_some());
    }

    #[test]
    fn built_vehicle_carries_the_analyzers_lists() {
        // Runtime and analyzer agree: every HPE the vehicle programs holds
        // exactly the lists Layer 2 reads from the ladder description.
        let mut cfg = FleetConfig::new(1, 100);
        cfg.enforcement = FleetEnforcement::shipped();
        let ladder = ladder_description(&cfg);
        let engine = Arc::new(PolicyEngine::from_policy(car_policy()));
        let vehicle = Vehicle::build(&cfg, 0, engine);
        assert_eq!(vehicle.node_hpes.len(), ladder.node_lists.len());
        for (name, lists) in &ladder.node_lists {
            assert_eq!(&vehicle.node_hpes[*name].lists(), lists, "{name}");
        }
        let segment = |hpe: &Option<HardwarePolicyEngine>| {
            hpe.as_ref().expect("the shipped ladder has segment hpes").lists()
        };
        assert_eq!(segment(&vehicle.seg_hpe_a), ladder.segment_lists_a);
        assert_eq!(segment(&vehicle.seg_hpe_b), ladder.segment_lists_b);
    }

    #[test]
    fn inside_compromise_is_contained_by_the_node_hpe() {
        // find a seeded vehicle whose profile includes the inside implant
        let mut cfg = FleetConfig::new(1, 600);
        cfg.inside_attack_chance = 1.0;
        let engine = Arc::new(PolicyEngine::from_policy(car_policy()));
        let vehicle = Vehicle::build(&cfg, 0, Arc::clone(&engine));
        assert!(vehicle.has_inside_attack());
        let states = vehicle.states().clone();
        let metrics = vehicle.run(&cfg);
        assert_eq!(metrics.counter("attack.compromises"), 1);
        assert_eq!(metrics.counter("attack.leaked"), 0);
        assert!(
            metrics.counter("hpe.write_blocked") > 0,
            "the implant's spoofs die at its own egress gate"
        );
        assert!(
            lock(&states.ecu).propulsion_enabled,
            "the spoofed disable must never reach the ECU"
        );
        assert!(metrics.counter("hpe.tamper_attempts") >= 1);
    }

    #[test]
    fn error_model_seed_derivation_is_pinned() {
        // Known-answer test: the wire-error RNG seeds are part of the
        // DetRng::stream determinism contract — replayed experiments with
        // an error model depend on this derivation never changing.
        assert_eq!(error_model_seed(42, 0, 0), 0xB952_3A3E_20F6_BF26);
        assert_eq!(error_model_seed(42, 0, 1), 0x983C_035E_E07B_0459);
        assert_eq!(error_model_seed(42, 1, 0), 0x4363_F5F6_1713_8B4C);
        assert_eq!(error_model_seed(42, 7, 1), 0x7F40_54DC_D249_C3A8);
        // distinct from the vehicle's own jitter/attack stream
        let mut vehicle_stream = DetRng::stream(42, 0);
        assert_ne!(error_model_seed(42, 0, 0), vehicle_stream.next_u64());
    }

    #[test]
    fn error_model_runs_replay_byte_identically_and_corrupt_frames() {
        let mut cfg = tiny(FleetEnforcement::baseline());
        cfg.error_model = Some(FleetErrorModel {
            probability: 0.02,
            target_ids: Vec::new(),
        });
        let a = run_fleet(&cfg);
        let b = run_fleet(&cfg);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        let mut serial = cfg.clone();
        serial.threads = 1;
        let c = run_fleet(&serial);
        assert_eq!(a.metrics.to_json(), c.metrics.to_json());
        assert!(a.metrics.counter("frames.corrupted") > 0, "errors must occur");
        // and the model changes the run relative to a clean one
        let mut clean = tiny(FleetEnforcement::baseline());
        clean.error_model = None;
        let d = run_fleet(&clean);
        assert_eq!(d.metrics.counter("frames.corrupted"), 0);
        assert_ne!(a.metrics.to_json(), d.metrics.to_json());
    }

    #[test]
    fn targeted_error_model_drives_a_node_to_bus_off() {
        // E1 class in the mixed scenario: corrupting every wheel-speed
        // broadcast bus-offs the sensor cluster (TEC +8 per corruption).
        let mut cfg = FleetConfig::new(1, 800);
        cfg.error_model = Some(FleetErrorModel {
            probability: 1.0,
            target_ids: vec![messages::SENSOR_WHEEL_SPEED],
        });
        let report = run_fleet(&cfg);
        // With ISO 11898-1 re-integration modelled, the victim may have
        // clocked 128 clean frames from its peers and rejoined by the
        // run-end snapshot — either way it must have gone bus-off at
        // least once.
        let off_now = report.metrics.counter("bus.off_nodes");
        let recovered = report.metrics.counter("bus.recoveries");
        assert!(
            off_now + recovered > 0,
            "sustained targeted corruption must bus-off the transmitter \
             (off_now={off_now}, recovered={recovered})"
        );
        assert!(report.metrics.counter("frames.corrupted") > 0);
    }

    #[test]
    fn app_policy_layer_rejects_attacks_that_reach_components() {
        // Software layer alone: no gateway whitelist, no HPEs — the attack
        // frames reach the victim firmware, where the per-vehicle-scoped
        // AppPolicy (sharing the fleet engine) rejects them.
        let mut cfg = FleetConfig::new(1, 500);
        cfg.enforcement = FleetEnforcement {
            app_policy: true,
            ..FleetEnforcement::none()
        };
        cfg.inside_attack_chance = 0.0;
        let engine = Arc::new(PolicyEngine::from_policy(car_policy()));
        let vehicle = Vehicle::build(&cfg, 0, engine);
        let states = vehicle.states().clone();
        let metrics = vehicle.run(&cfg);
        assert!(metrics.counter("app.rejected") > 0, "software layer fires");
        // whatever outside kind the profile drew, its objective failed
        assert!(lock(&states.ecu).propulsion_enabled);
        assert!(lock(&states.eps).assist_enabled);
        assert!(lock(&states.telematics).modem_enabled);
        assert!(lock(&states.safety).alarm_armed);
    }

    #[test]
    fn app_policy_fleet_runs_replay_byte_identically() {
        // The per-vehicle rate scopes keep the shared engine's rate
        // trackers from coupling vehicles: merged metrics stay a pure
        // function of (config, seed) at any thread count.
        let cfg = tiny(FleetEnforcement::full_with_app());
        let a = run_fleet(&cfg);
        let b = run_fleet(&cfg);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        let mut serial = cfg.clone();
        serial.threads = 1;
        let c = run_fleet(&serial);
        assert_eq!(a.metrics.to_json(), c.metrics.to_json());
        assert_eq!(a.leaked(), 0, "the extra rung must not weaken the ladder");
    }

    #[test]
    fn counter_key_set_is_identical_across_ladder_presets() {
        // The seed-drawn attack profile is the one intended difference.
        let keys = |enforcement: FleetEnforcement| -> Vec<String> {
            let report = run_fleet(&tiny(enforcement));
            report
                .metrics
                .counters()
                .map(|(k, _)| k.to_string())
                .filter(|k| !k.starts_with("attack.profile."))
                .collect()
        };
        let shipped = keys(FleetEnforcement::shipped());
        for enforcement in [
            FleetEnforcement::none(),
            FleetEnforcement::baseline(),
            FleetEnforcement::full_with_app(),
        ] {
            assert_eq!(keys(enforcement), shipped, "{}", enforcement.label());
        }
    }

    #[test]
    fn enforcement_labels() {
        assert_eq!(FleetEnforcement::baseline().label(), "gw+hpe+seg-hpe");
        assert_eq!(FleetEnforcement::none().label(), "none");
        let gw_only = FleetEnforcement {
            gateway_whitelist: true,
            ..FleetEnforcement::none()
        };
        assert_eq!(gw_only.label(), "gw");
        assert_eq!(FleetEnforcement::full_with_app().label(), "gw+hpe+seg-hpe+app");
        assert_eq!(FleetEnforcement::shipped().label(), "gw+hpe+seg-hpe+anomaly");
    }

    #[test]
    fn shipped_fleet_observes_signals_and_leaks_nothing() {
        let report = run_fleet(&tiny(FleetEnforcement::shipped()));
        assert_eq!(report.leaked(), 0, "the extra rung must not weaken the ladder");
        assert!(
            report.metrics.counter("anomaly.checked") > 0,
            "monitors must see the wheel-speed broadcasts"
        );
        assert_eq!(
            report.metrics.counter("anomaly.flagged"),
            0,
            "legitimate sensor traffic must never be flagged"
        );
    }

    #[test]
    fn anomaly_fleet_runs_replay_byte_identically() {
        // The behavioural monitors draw no RNG and read no clock: merged
        // metrics — anomaly.* included — stay a pure function of
        // (config, seed) at 1, 4 and 8 worker threads.
        let cfg = tiny(FleetEnforcement::shipped());
        let mut baseline = None;
        for threads in [1, 4, 8] {
            let mut run_cfg = cfg.clone();
            run_cfg.threads = threads;
            let report = run_fleet(&run_cfg);
            let json = report.metrics.to_json();
            match &baseline {
                None => baseline = Some(json),
                Some(expected) => assert_eq!(expected, &json, "threads={threads}"),
            }
        }
    }
}
