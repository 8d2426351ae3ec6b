//! The `fleet` workload: 100 vehicles under the shipped ladder
//! (gateway whitelist + node HPEs + segment HPEs + anomaly rung) with the
//! standard mixed attack profile, on one worker thread.
//!
//! The untraced run calls [`run_fleet`]. The traced run drives the same
//! vehicles through [`TracedVehicle`], a bench-side assembly of the public
//! parts `Vehicle::build` uses (`CanBus`, `CanNode::with_firmware`,
//! `Gateway`, the `components::*_firmware` constructors and the lists of
//! [`ladder_description`]), with a span around every call into a layer.
//! Its work counters must equal `run_fleet`'s for the same seed.

use crate::drive::{self, ratio, Pass, Scenario};
use crate::ledger::{self, Span};
use crate::report::Outcome;
use polsec_can::gateway::Segment;
use polsec_can::node::{InterposeVerdict, Interposer};
use polsec_can::{
    AcceptanceFilter, ActionVec, BusEvent, CanBus, CanFrame, CanId, CanNode, Firmware, ForwardRule,
    Gateway, NodeHandle,
};
use polsec_car::anomaly::EcuMonitor;
use polsec_car::attacks::SpoofFirmware;
use polsec_car::components::{
    door_locks_firmware, ecu_firmware_monitored, engine_firmware, eps_firmware,
    infotainment_firmware, lock, safety_firmware, sensors_firmware, shared, telematics_firmware,
    AppPolicy, Shared,
};
use polsec_car::messages::{self, command_frame, parse_command, Origin};
use polsec_car::{
    asset_for_id, car_policy, is_command_id, ladder_description, run_fleet, FleetConfig,
    FleetEnforcement, LadderDescription,
};
use polsec_core::{AccessRequest, Action, EntityId, EvalContext, PolicyEngine};
use polsec_hpe::HardwarePolicyEngine;
use polsec_sim::{run_sharded, DetRng, MetricSet, Scheduler, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Vehicles in every fleet-shaped run.
pub const VEHICLES: usize = 100;
/// Frames per vehicle in one measured call: 200k bus frames per call.
pub const FRAMES_PER_VEHICLE: u64 = 2_000;
/// Frames per vehicle in one rung-ablation call.
pub const ABLATION_FRAMES_PER_VEHICLE: u64 = 1_000;
/// Scheduler events timed by the traced pass: one in this many.
pub const TRACE_EVERY: u64 = 8;

/// The work counters the traced replica must reproduce exactly.
pub const WORK_COUNTERS: [&str; 9] = [
    "frames.transmitted",
    "frames.delivered",
    "frames.blocked_ingress",
    "frames.blocked_egress",
    "gateway.crossed",
    "policy.checked",
    "hpe.granted",
    "attack.injected",
    "sim.ticks",
];

/// The workload's configuration for a seed.
pub fn config(seed: u64, frames_per_vehicle: u64) -> FleetConfig {
    let mut cfg = FleetConfig::new(VEHICLES, frames_per_vehicle);
    cfg.seed = seed;
    cfg.threads = crate::THREADS;
    cfg.enforcement = FleetEnforcement::shipped();
    cfg
}

impl Scenario for FleetConfig {
    const NAME: &'static str = "fleet";
    const UNIT_COUNTER: &'static str = "frames.transmitted";
    const WORK_COUNTERS: &'static [&'static str] = &WORK_COUNTERS;
    const WHOLE_SECTION: bool = true;

    fn run(&self) -> MetricSet {
        run_fleet(self).metrics
    }

    /// Leaked attack frames (failed) of injected ones (attempted), and the
    /// frame quota.
    fn judge(&self, m: &MetricSet, out: &mut Outcome) -> Vec<(&'static str, bool, String)> {
        let (leaked, leaked_frames) = (
            m.counter("attack.leaked"),
            m.counter("attack.leaked_frames"),
        );
        out.attempted += m.counter("attack.injected");
        out.failed += leaked_frames;
        let quota = self.frames_per_vehicle * self.vehicles as u64;
        let frames = m.counter("frames.transmitted");
        vec![
            (
                "zero_leaks",
                leaked == 0 && leaked_frames == 0,
                format!("{leaked} attack deliveries, {leaked_frames} distinct frames"),
            ),
            (
                "quota",
                frames >= quota,
                format!("{frames} of {quota} frames"),
            ),
        ]
    }
}

/// The outside attack kinds, in `fleet.rs`'s draw order.
const OUTSIDE: [(u16, u8, Origin, &str); 4] = [
    (
        messages::ECU_COMMAND,
        0x02,
        Origin::Telematics,
        "attack.profile.ecu",
    ),
    (
        messages::EPS_COMMAND,
        0x02,
        Origin::Diagnostics,
        "attack.profile.eps",
    ),
    (
        messages::MODEM_CONTROL,
        0x00,
        Origin::Telematics,
        "attack.profile.modem",
    ),
    (
        messages::ALARM_CONTROL,
        0x00,
        Origin::Infotainment,
        "attack.profile.alarm",
    ),
];

/// Bus trace sampling the vehicle model configures (one record in 256).
const BUS_TRACE_EVERY: u64 = 256;

#[derive(Debug, Clone, Copy)]
enum Event {
    Tick,
    Inject,
    Compromise,
}

/// Times firmware hooks: `car.fw_tick` and `car.fw_frame` (or
/// `car.fw_frame.ecu` for the EV-ECU, which runs the anomaly monitor).
struct TimedFirmware {
    inner: Box<dyn Firmware>,
    frame_span: Span,
}

impl Firmware for TimedFirmware {
    fn on_frame(&mut self, now: SimTime, frame: &CanFrame) -> ActionVec {
        ledger::span(self.frame_span, || self.inner.on_frame(now, frame))
    }
    fn on_tick(&mut self, now: SimTime) -> ActionVec {
        ledger::span(Span::CarFwTick, || self.inner.on_tick(now))
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times an HPE's two gates: `hpe.ingress` and `hpe.egress`.
struct TimedHpe(HardwarePolicyEngine);

impl Interposer for TimedHpe {
    fn on_ingress(&mut self, now: SimTime, frame: &CanFrame) -> InterposeVerdict {
        ledger::span(Span::HpeIngress, || self.0.on_ingress(now, frame))
    }
    fn on_egress(&mut self, now: SimTime, frame: &CanFrame) -> InterposeVerdict {
        ledger::span(Span::HpeEgress, || self.0.on_egress(now, frame))
    }
    fn label(&self) -> &str {
        Interposer::label(&self.0)
    }
}

fn timed(name: &str, fw: Box<dyn Firmware>) -> Box<dyn Firmware> {
    let frame_span = if name == "ev-ecu" {
        Span::CarFwFrameEcu
    } else {
        Span::CarFwFrame
    };
    Box::new(TimedFirmware {
        inner: fw,
        frame_span,
    })
}

fn is_attack_id(id: CanId, attack_ids: &[u16]) -> bool {
    !id.is_extended() && attack_ids.iter().any(|&a| u32::from(a) == id.raw())
}

/// One vehicle, assembled from public parts exactly as `Vehicle::build`
/// assembles it, with spans at every layer boundary.
struct TracedVehicle {
    powertrain: CanBus,
    comfort: CanBus,
    gateway: Gateway,
    seg_hpe_a: Option<HardwarePolicyEngine>,
    seg_hpe_b: Option<HardwarePolicyEngine>,
    node_hpes: BTreeMap<&'static str, HardwarePolicyEngine>,
    nodes_a: Vec<NodeHandle>,
    nodes_b: Vec<NodeHandle>,
    attacker: NodeHandle,
    door_locks: NodeHandle,
    engine: Arc<PolicyEngine>,
    has_app: bool,
    states: polsec_car::builder::CarStates,
    monitor: Option<Shared<EcuMonitor>>,
    ctx: EvalContext,
    rng: DetRng,
    scheduler: Scheduler<Event>,
    outside: usize,
    compromised: bool,
    inject_seq: u32,
    metrics: MetricSet,
    event_buf: Vec<BusEvent>,
    attack_ids: Vec<u16>,
    /// Seed of this vehicle's unit selector.
    unit_seed: u64,
    unit_seq: u64,
    trace_every: u64,
}

impl TracedVehicle {
    fn build(
        cfg: &FleetConfig,
        ladder: &LadderDescription,
        index: usize,
        engine: Arc<PolicyEngine>,
        trace_every: u64,
    ) -> Self {
        let mut rng = DetRng::stream(cfg.seed, index as u64);
        let mut powertrain = CanBus::new(500_000);
        let mut comfort = CanBus::new(500_000);
        let trace_seed = cfg.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        powertrain
            .trace_mut()
            .set_sampling(BUS_TRACE_EVERY, trace_seed);
        comfort
            .trace_mut()
            .set_sampling(BUS_TRACE_EVERY, trace_seed ^ 1);

        let enforcement = cfg.enforcement;
        let app = enforcement.app_policy.then(|| {
            let ctx = shared(
                EvalContext::new()
                    .with_mode("normal")
                    .with_state("vehicle.moving", "true")
                    .with_state("crash", "false")
                    .with_state("stolen", "false"),
            );
            AppPolicy::new(Arc::clone(&engine), ctx).with_rate_scope(index as u64)
        });
        let monitor = enforcement.anomaly.then(|| shared(EcuMonitor::default()));

        let (ecu_fw, ecu) = ecu_firmware_monitored(app.clone(), monitor.clone());
        let (eps_fw, eps) = eps_firmware(app.clone());
        let (engine_fw, engine_state) = engine_firmware(app.clone());
        let (tel_fw, telematics) = telematics_firmware(app.clone());
        let (info_fw, infotainment) = infotainment_firmware(app.clone(), None);
        let (locks_fw, door_locks_state) = door_locks_firmware(app.clone());
        let (safety_fw, safety) = safety_firmware(app.clone());
        let (sensors_fw, sensors) = sensors_firmware();
        let states = polsec_car::builder::CarStates {
            ecu,
            eps,
            engine: engine_state,
            telematics,
            infotainment,
            door_locks: door_locks_state,
            safety,
            sensors,
        };
        let mut firmwares: BTreeMap<&str, Box<dyn Firmware>> = BTreeMap::from([
            ("ev-ecu", ecu_fw),
            ("eps", eps_fw),
            ("engine", engine_fw),
            ("telematics", tel_fw),
            ("infotainment", info_fw),
            ("door-locks", locks_fw),
            ("safety-critical", safety_fw),
            ("sensors", sensors_fw),
        ]);

        let mut node_hpes = BTreeMap::new();
        let mut attach = |bus: &mut CanBus, name: &'static str| {
            let fw = firmwares
                .remove(name)
                .expect("every ladder node has firmware");
            let mut node = CanNode::with_firmware(name, timed(name, fw));
            if enforcement.node_hpe {
                let lists = ladder
                    .node_lists
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, l)| l.clone())
                    .expect("every ladder node has hpe lists");
                let hpe = HardwarePolicyEngine::new(format!("{name}-hpe"), lists);
                node.install_interposer(Box::new(TimedHpe(hpe.clone())));
                node_hpes.insert(name, hpe);
            }
            bus.attach(node)
        };
        let nodes_a: Vec<NodeHandle> = ladder
            .powertrain_nodes
            .iter()
            .map(|&n| attach(&mut powertrain, n))
            .collect();
        let nodes_b: Vec<NodeHandle> = ladder
            .comfort_nodes
            .iter()
            .map(|&n| attach(&mut comfort, n))
            .collect();
        let attacker = comfort.attach(CanNode::new("obd-dongle"));
        let door_locks = nodes_a[ladder
            .powertrain_nodes
            .iter()
            .position(|&n| n == "door-locks")
            .expect("door-locks is a powertrain node")];

        let mut gateway = Gateway::bridge(&mut powertrain, &mut comfort, "gw");
        if enforcement.gateway_whitelist {
            for (from, ids) in [
                (Segment::A, &ladder.cross_a_to_b),
                (Segment::B, &ladder.cross_b_to_a),
            ] {
                for &id in ids {
                    gateway.allow(ForwardRule {
                        from,
                        filter: AcceptanceFilter::standard(u32::from(id), 0x7FF),
                    });
                }
            }
        } else {
            for from in [Segment::A, Segment::B] {
                gateway.allow(ForwardRule {
                    from,
                    filter: AcceptanceFilter::any_standard(),
                });
            }
        }
        let (mut seg_hpe_a, mut seg_hpe_b) = (None, None);
        if enforcement.segment_hpe {
            let a = HardwarePolicyEngine::new("gw-hpe-a", ladder.segment_lists_a.clone());
            let b = HardwarePolicyEngine::new("gw-hpe-b", ladder.segment_lists_b.clone());
            powertrain
                .node_mut(gateway.endpoint_a())
                .expect("endpoint a is on the powertrain bus")
                .install_interposer(Box::new(TimedHpe(a.clone())));
            comfort
                .node_mut(gateway.endpoint_b())
                .expect("endpoint b is on the comfort bus")
                .install_interposer(Box::new(TimedHpe(b.clone())));
            seg_hpe_a = Some(a);
            seg_hpe_b = Some(b);
        }

        let outside = rng.next_below(OUTSIDE.len() as u64) as usize;
        let inside_attack = rng.chance(cfg.inside_attack_chance);
        let mut scheduler = Scheduler::new();
        let first_tick = rng.range_inclusive(0, cfg.tick_period.as_micros());
        scheduler.schedule_in(SimDuration::micros(first_tick), Event::Tick);
        let first_inject = rng.range_inclusive(
            cfg.inject_period.as_micros() / 2,
            cfg.inject_period.as_micros() * 2,
        );
        scheduler.schedule_in(SimDuration::micros(first_inject), Event::Inject);
        if inside_attack {
            let at = rng.range_inclusive(
                cfg.tick_period.as_micros() * 5,
                cfg.tick_period.as_micros() * 50,
            );
            scheduler.schedule_in(SimDuration::micros(at), Event::Compromise);
        }

        let mut metrics = MetricSet::new();
        metrics.count("fleet.vehicles", 1);
        metrics.count(OUTSIDE[outside].3, 1);
        if inside_attack {
            metrics.count("attack.profile.inside", 1);
        }
        TracedVehicle {
            powertrain,
            comfort,
            gateway,
            seg_hpe_a,
            seg_hpe_b,
            node_hpes,
            nodes_a,
            nodes_b,
            attacker,
            door_locks,
            engine,
            has_app: app.is_some(),
            states,
            monitor,
            ctx: EvalContext::new()
                .with_mode("normal")
                .with_state("vehicle.moving", "true")
                .with_state("crash", "false")
                .with_state("stolen", "false"),
            rng,
            scheduler,
            outside,
            compromised: false,
            inject_seq: 0,
            metrics,
            event_buf: Vec::new(),
            attack_ids: ladder.attack_ids.clone(),
            unit_seed: trace_seed,
            unit_seq: 0,
            trace_every,
        }
    }

    fn count(&mut self, key: &str, n: u64) {
        ledger::span(Span::SimMetrics, || self.metrics.count(key, n));
    }

    fn frames_on_wire(&self) -> u64 {
        self.powertrain.stats().frames_transmitted + self.comfort.stats().frames_transmitted
    }

    fn jittered(&mut self, base: SimDuration, jitter: SimDuration) -> SimDuration {
        let base = base.as_micros().max(1);
        let j = jitter.as_micros().min(base - 1);
        SimDuration::micros(self.rng.range_inclusive(base - j, base + j))
    }

    /// `Vehicle::run_until` with one workload unit per scheduler event.
    fn run(&mut self, cfg: &FleetConfig) {
        let target = cfg.frames_per_vehicle;
        let max_events = target.saturating_sub(self.frames_on_wire()) * 4 + 10_000;
        let mut events = 0;
        while self.frames_on_wire() < target && events < max_events {
            ledger::begin_unit(ledger::selected(
                self.unit_seed,
                self.unit_seq,
                self.trace_every,
            ));
            self.unit_seq += 1;
            let Some((_, event)) = ledger::span(Span::SimSched, || self.scheduler.pop()) else {
                break;
            };
            events += 1;
            match event {
                Event::Tick => self.on_tick(cfg),
                Event::Inject => self.on_inject(cfg),
                Event::Compromise => self.on_compromise(),
            }
        }
        ledger::end_units();
    }

    fn schedule(&mut self, base: SimDuration, jitter: SimDuration, event: Event) {
        let next = self.jittered(base, jitter);
        ledger::span(Span::SimSched, || self.scheduler.schedule_in(next, event));
    }

    fn on_tick(&mut self, cfg: &FleetConfig) {
        ledger::span(Span::CanTick, || self.powertrain.tick_all());
        ledger::span(Span::CanTick, || self.comfort.tick_all());
        if self.compromised {
            self.count("attack.injected", 1);
        }
        ledger::span(Span::CanBus, || self.powertrain.run_until_idle());
        ledger::span(Span::CanBus, || self.comfort.run_until_idle());
        ledger::span(Span::CanGateway, || {
            self.gateway
                .pump(&mut self.powertrain, &mut self.comfort)
                .expect("gateway endpoints are on their own buses")
        });
        ledger::span(Span::CanBus, || self.powertrain.run_until_idle());
        ledger::span(Span::CanBus, || self.comfort.run_until_idle());
        self.observe_bus_events();
        self.drain_rx_queues();
        self.count("sim.ticks", 1);
        self.schedule(cfg.tick_period, cfg.tick_jitter, Event::Tick);
    }

    fn on_inject(&mut self, cfg: &FleetConfig) {
        self.inject_seq += 1;
        let (id, cmd, origin, _) = OUTSIDE[self.outside];
        let marker = self.inject_seq.to_le_bytes();
        let frame =
            command_frame(id, cmd, origin, &marker[..3]).expect("attack frames are well-formed");
        let _ = self.comfort.send_from(self.attacker, frame);
        self.count("attack.injected", 1);
        self.schedule(cfg.inject_period, cfg.inject_jitter, Event::Inject);
    }

    fn on_compromise(&mut self) {
        let spoof = command_frame(messages::ECU_COMMAND, 0x02, Origin::SafetyCritical, &[])
            .expect("attack frames are well-formed");
        if let Some(node) = self.powertrain.node_mut(self.door_locks) {
            node.replace_firmware(timed(
                "door-locks",
                Box::new(SpoofFirmware::new(vec![spoof])),
            ));
            node.controller_mut().filters_mut().clear();
        }
        if let Some(hpe) = self.node_hpes.get("door-locks") {
            let _ = hpe.firmware_attempt_reconfigure();
        }
        self.compromised = true;
        self.count("attack.compromises", 1);
    }

    fn observe_bus_events(&mut self) {
        let ep_a = self.gateway.endpoint_a();
        let ep_b = self.gateway.endpoint_b();
        let mut events = std::mem::take(&mut self.event_buf);
        for (endpoint, into_powertrain) in [(ep_a, true), (ep_b, false)] {
            ledger::span(Span::CanEvents, || {
                if into_powertrain {
                    self.powertrain.drain_events_into(&mut events);
                } else {
                    self.comfort.drain_events_into(&mut events);
                }
                for event in &events {
                    let BusEvent::Transmitted { from, frame, .. } = event else {
                        continue;
                    };
                    let attack = is_attack_id(frame.id(), &self.attack_ids);
                    if attack {
                        self.count("attack.wire", 1);
                        if into_powertrain {
                            self.count("attack.victim_wire", 1);
                        }
                    }
                    if *from == endpoint {
                        self.count("gateway.crossed", 1);
                        if attack {
                            self.count("attack.crossed_gateway", 1);
                        }
                        self.check_crossing(frame, into_powertrain);
                    }
                }
            });
        }
        self.event_buf = events;
    }

    fn check_crossing(&mut self, frame: &CanFrame, into_powertrain: bool) {
        let seg_hpe = if into_powertrain {
            &self.seg_hpe_a
        } else {
            &self.seg_hpe_b
        };
        if let Some(hpe) = seg_hpe {
            let (_, cycles) = ledger::span(Span::HpeProbe, || hpe.probe_write(frame.id()));
            ledger::span(Span::SimMetrics, || {
                self.metrics.observe("verdict.cycles", u64::from(cycles))
            });
        }
        let CanId::Standard(id) = frame.id() else {
            return;
        };
        let Some(asset) = asset_for_id(id) else {
            return;
        };
        let (entry, action) = if is_command_id(id) {
            match parse_command(frame) {
                Some((_, origin)) => (origin.entry_point_id(), Action::Write),
                None => ("unknown", Action::Write),
            }
        } else if into_powertrain {
            ("telematics", Action::Read)
        } else {
            ("infotainment-ui", Action::Read)
        };
        let request = ledger::span(Span::CoreRequest, || {
            AccessRequest::new(
                EntityId::new("entry", entry),
                EntityId::new("asset", asset),
                action,
            )
        });
        // The vehicle model times every decide for its `wall.` section;
        // the pair of clock reads is part of the cost being attributed.
        let started = Instant::now();
        let decision = ledger::span(Span::CoreDecide, || self.engine.decide(&request, &self.ctx));
        let elapsed = started.elapsed().as_nanos() as u64;
        self.metrics_observe("wall.decide_ns", elapsed);
        self.count("policy.checked", 1);
        if !decision.is_allow() {
            self.count("policy.denied", 1);
        }
    }

    fn metrics_observe(&mut self, key: &str, v: u64) {
        ledger::span(Span::SimMetrics, || self.metrics.observe(key, v));
    }

    fn drain_rx_queues(&mut self) {
        let mut leaked = 0;
        let mut consumed = 0;
        let mut leaked_frames: BTreeSet<(u32, Vec<u8>)> = BTreeSet::new();
        let attack_ids = &self.attack_ids;
        let mut drain = |bus: &mut CanBus, handles: &[NodeHandle]| {
            for &h in handles {
                if let Some(node) = bus.node_mut(h) {
                    while let Some(f) = node.receive() {
                        if is_attack_id(f.id(), attack_ids) {
                            leaked += 1;
                            leaked_frames.insert((f.id().raw(), f.payload().to_vec()));
                        } else {
                            consumed += 1;
                        }
                    }
                }
            }
        };
        ledger::span(Span::CanRx, || {
            drain(&mut self.powertrain, &self.nodes_a);
            drain(&mut self.comfort, &self.nodes_b);
            if let Some(node) = self.comfort.node_mut(self.attacker) {
                while node.receive().is_some() {}
            }
        });
        self.count("attack.leaked", leaked);
        self.count("attack.leaked_frames", leaked_frames.len() as u64);
        self.count("frames.consumed", consumed);
    }

    /// `Vehicle::finish`: folds bus, gateway and HPE state into the metrics.
    fn finish(mut self) -> MetricSet {
        for key in [
            "attack.injected",
            "attack.wire",
            "attack.victim_wire",
            "attack.crossed_gateway",
            "attack.leaked",
            "attack.leaked_frames",
            "attack.compromises",
            "gateway.crossed",
            "policy.checked",
            "policy.denied",
            "hpe.granted",
            "hpe.read_blocked",
            "hpe.write_blocked",
            "hpe.tamper_attempts",
            "hpe.cycles",
            "frames.corrupted",
            "bus.off_nodes",
            "bus.recoveries",
            "app.rejected",
            "app.implausible",
            "anomaly.checked",
            "anomaly.flagged",
            "anomaly.rate_jump",
            "anomaly.out_of_range",
            "anomaly.stuck",
            "anomaly.inconsistent",
            "anomaly.implausible_crashes",
        ] {
            self.metrics.count(key, 0);
        }
        let m = &mut self.metrics;
        if let Some(monitor) = &self.monitor {
            let c = lock(monitor).counters;
            m.count("anomaly.checked", u64::from(c.checked));
            m.count("anomaly.flagged", u64::from(c.flagged));
            m.count("anomaly.rate_jump", u64::from(c.rate_jump));
            m.count("anomaly.out_of_range", u64::from(c.out_of_range));
            m.count("anomaly.stuck", u64::from(c.stuck));
            m.count("anomaly.inconsistent", u64::from(c.inconsistent));
            m.count(
                "anomaly.implausible_crashes",
                u64::from(lock(&self.states.ecu).implausible_crashes),
            );
        }
        for bus in [&self.powertrain, &self.comfort] {
            let stats = bus.stats();
            m.count("frames.transmitted", stats.frames_transmitted);
            m.count("frames.delivered", stats.frames_delivered);
            m.count("frames.rejected", stats.frames_rejected);
            m.count("frames.abandoned", stats.frames_abandoned);
            m.count("frames.corrupted", stats.frames_corrupted);
            m.count("frames.blocked_ingress", stats.frames_blocked_ingress);
            m.count("frames.blocked_egress", stats.frames_blocked_egress);
            m.count("bus.time_us", bus.now().as_micros());
            let bus_off = bus
                .nodes()
                .filter(|(_, n)| {
                    n.controller().counters().state() == polsec_can::ErrorState::BusOff
                })
                .count() as u64;
            m.count("bus.off_nodes", bus_off);
            m.count("bus.recoveries", stats.bus_off_recoveries);
            // Not part of the vehicle model's metrics: the contention
            // ratio's inputs, removed again before the counter comparison.
            m.count("bench.arbitration_rounds", stats.arbitration_rounds);
            m.count("bench.arbitration_contended", stats.arbitration_contended);
        }
        if self.has_app {
            let s = &self.states;
            let rejected = u64::from(lock(&s.ecu).rejected_commands)
                + u64::from(lock(&s.eps).rejected_commands)
                + u64::from(lock(&s.door_locks).rejected_commands)
                + u64::from(lock(&s.telematics).rejected_commands)
                + u64::from(lock(&s.safety).rejected_commands);
            let implausible = u64::from(lock(&s.engine).implausible_readings)
                + u64::from(lock(&s.infotainment).implausible_readings);
            m.count("app.rejected", rejected);
            m.count("app.implausible", implausible);
        }
        m.count("gateway.forwarded", self.gateway.forwarded());
        m.count("gateway.dropped", self.gateway.dropped());
        for hpe in self
            .node_hpes
            .values()
            .chain(self.seg_hpe_a.iter())
            .chain(self.seg_hpe_b.iter())
        {
            let t = hpe.telemetry();
            m.count("hpe.granted", t.read_granted + t.write_granted);
            m.count("hpe.read_blocked", t.read_blocked);
            m.count("hpe.write_blocked", t.write_blocked);
            m.count("hpe.tamper_attempts", t.tamper_attempts);
            m.count("hpe.cycles", t.total_cycles);
        }
        m.count("sim.time_us", self.scheduler.now().as_micros());
        self.metrics
    }
}

/// What the fleet ledger needs beyond the deterministic section.
pub struct PassExtra {
    /// Bus counters the vehicle model does not export.
    pub bench: MetricSet,
    pub engine: polsec_core::engine::EngineStats,
}

/// Runs the fleet through [`TracedVehicle`]s on `run_sharded` with one
/// thread, timing one scheduler event in `trace_every` (0 = count only).
pub fn traced_pass(cfg: &FleetConfig, trace_every: u64) -> Pass<PassExtra> {
    let ladder = ladder_description(cfg);
    let engine = Arc::new(PolicyEngine::from_policy(car_policy()));
    // A statistic only: no other data is published through it.
    let tasks_ns = AtomicU64::new(0);
    let started = Instant::now();
    let mut merged = run_sharded(cfg.vehicles, crate::THREADS, |i| {
        let t0 = Instant::now();
        let mut vehicle = ledger::span_fixed(Span::CarBuild, || {
            TracedVehicle::build(cfg, &ladder, i, Arc::clone(&engine), trace_every)
        });
        vehicle.run(cfg);
        let metrics = ledger::span_fixed(Span::SimMetrics, || vehicle.finish());
        tasks_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        metrics
    });
    let wall = started.elapsed();
    // Merge time: the sharded call minus its vehicle tasks.
    let merge_ns = (wall.as_nanos() as u64).saturating_sub(tasks_ns.into_inner());
    ledger::record(Span::SimMerge, true, Some((merge_ns, 0)));
    let _ = merged.split_off_prefix("wall.");
    let bench = merged.split_off_prefix("bench.");
    Pass {
        metrics: merged,
        wall_s: wall.as_secs_f64(),
        extra: PassExtra {
            bench,
            engine: engine.stats(),
        },
    }
}

/// Each shipped rung, and the configuration with it removed.
pub fn rung_ablations(base: &FleetConfig) -> Vec<(&'static str, FleetConfig)> {
    let e = base.enforcement;
    let with = |enforcement: FleetEnforcement| {
        let mut cfg = base.clone();
        cfg.enforcement = enforcement;
        cfg
    };
    vec![
        (
            "gateway_whitelist",
            with(FleetEnforcement {
                gateway_whitelist: false,
                ..e
            }),
        ),
        (
            "node_hpe",
            with(FleetEnforcement {
                node_hpe: false,
                ..e
            }),
        ),
        (
            "segment_hpe",
            with(FleetEnforcement {
                segment_hpe: false,
                ..e
            }),
        ),
        (
            "anomaly",
            with(FleetEnforcement {
                anomaly: false,
                ..e
            }),
        ),
    ]
}

/// The untraced run: `run_fleet` calls for `budget`; set-up is the same
/// call with a one-frame quota (vehicle, HPE, engine and store
/// construction).
pub fn measure(seed: u64, budget: Duration, out: &mut Outcome) {
    drive::measure(
        &config(seed, FRAMES_PER_VEHICLE),
        &config(seed, 1),
        budget,
        out,
    );
}

/// The traced run: the replica's ledger beside untraced `run_fleet` calls,
/// its ratio rows, then the rung ablation.
pub fn trace(seed: u64, budget: Duration, out: &mut Outcome) {
    let cfg = config(seed, FRAMES_PER_VEHICLE);
    let pass = drive::trace(&cfg, budget, out, TRACE_EVERY, &SPANS, |every| {
        traced_pass(&cfg, every)
    });
    let m = &pass.metrics;
    let blocked = m.counter("hpe.read_blocked") + m.counter("hpe.write_blocked");
    out.metric(
        "hpe.block_ratio",
        ratio(blocked, blocked + m.counter("hpe.granted")),
        "ratio",
    );
    let (fwd, dropped) = (m.counter("gateway.forwarded"), m.counter("gateway.dropped"));
    out.metric(
        "can.gateway.forward_ratio",
        ratio(fwd, fwd + dropped),
        "ratio",
    );
    let bench = &pass.extra.bench;
    out.metric(
        "can.bus.contended_ratio",
        ratio(
            bench.counter("arbitration_contended"),
            bench.counter("arbitration_rounds"),
        ),
        "ratio",
    );
    let e = pass.extra.engine;
    out.metric(
        "core.cache_hit_ratio",
        ratio(e.cache_hits, e.cache_hits + e.cache_misses),
        "ratio",
    );
    let base = config(seed, ABLATION_FRAMES_PER_VEHICLE);
    drive::ablate(&base, rung_ablations(&base), out);
}

/// The spans the fleet ledger must show.
const SPANS: [Span; 17] = [
    Span::SimSched,
    Span::CanTick,
    Span::CarFwTick,
    Span::CanBus,
    Span::HpeEgress,
    Span::HpeIngress,
    Span::CarFwFrame,
    Span::CarFwFrameEcu,
    Span::CanGateway,
    Span::CanEvents,
    Span::HpeProbe,
    Span::CoreRequest,
    Span::CoreDecide,
    Span::CanRx,
    Span::SimMetrics,
    Span::SimMerge,
    Span::CarBuild,
];
