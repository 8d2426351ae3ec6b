//! The `v2x_platoon` workload: 25 vehicles platooning behind a lead over
//! the message plane, with the full V2X defence ladder, the attacker's
//! five-variant rotation and the OTA rollout — shaped as many short epochs
//! with few in-vehicle frames each, so the plane barrier, the message
//! ladder and OTA apply carry the bulk of the work instead of the CAN stack.
//!
//! The untraced run calls [`run_v2x`]. The traced run drives the same
//! scenario through [`ReplicaVehicle`], a bench-side epoch handler built on
//! `run_epochs_faulted`, `Vehicle::run_until`, `PlatoonMsg::verify`,
//! `PlatoonMonitor::judge`, `DevicePolicyStore::apply` and
//! `PolicyEngine::compact`, with a span around each. The plan is fault
//! free, so the model's envelope dedup windows and OTA retransmits never
//! fire; the replica leaves both out.

use crate::drive::{self, ratio, Pass, Scenario};
use crate::ledger::{self, Span};
use crate::report::Outcome;
use polsec_car::anomaly::IMPLAUSIBLE_SPEED_KMH;
use polsec_car::v2x::{
    claimed_entry, rollout_bundle, v2x_shared_policy_set, PlatoonMsg, V2xMsg, CLAIM_V2X_LEAD,
    FLEET_V2X_KEY, OEM_KEY, PLATOON_GROUP,
};
use polsec_car::{
    car_policy, run_v2x, FleetEnforcement, LimpTransition, PlatoonHealth, PlatoonMonitor,
    V2xConfig, V2xDefenses, Vehicle,
};
use polsec_core::{
    AccessRequest, Action, DevicePolicyStore, EntityId, EvalContext, PolicyEngine, PolicyError,
    PolicySet, SignedBundle,
};
use polsec_sim::plane::EpochCtx;
use polsec_sim::{run_epochs_faulted, DetRng, MessagePlane, MetricSet};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Vehicles in every V2X-shaped run. Every epoch touches every vehicle,
/// so the live state is the working set: at 100 vehicles (~100 MB) it
/// spills into the host's shared last-level cache and the rate follows
/// the neighbours (±30% between runs); 25 vehicles (~30 MB) hold within
/// 9–16% while the host is calm.
pub const VEHICLES: usize = 25;
/// Epochs in one measured call.
pub const EPOCHS: u64 = 250;
/// In-vehicle frames each vehicle carries per epoch.
pub const FRAMES_PER_EPOCH: u64 = 5;
/// Epochs in one traced pass: longer than a measured call, so the heavy
/// calls timed on every occurrence (builds, OTA applies) stay a small share
/// of the ledger.
pub const TRACED_EPOCHS: u64 = 1000;
/// Epochs in one rung-ablation call.
pub const ABLATION_EPOCHS: u64 = 100;
/// Epochs timed by the traced pass: one in this many.
pub const TRACE_EVERY: u64 = 4;

/// The V2X model's salt for the lead's speed-profile stream; the replica
/// must draw the same profile to judge the same messages.
const V2X_STREAM_SALT: u64 = 0x0E1_C0DE_2B2B_5A17;

/// Counters the traced replica must reproduce exactly.
pub const WORK_COUNTERS: [&str; 8] = [
    "plane.delivered",
    "v2x.received",
    "v2x.accepted",
    "v2x.rejected_auth",
    "v2x.rejected_replay",
    "v2x.rejected_policy",
    "v2x.rejected_anomaly",
    "ota.applied",
];

/// The ladder rungs and their reject counters.
pub const RUNGS: [(&str, &str); 4] = [
    ("auth", "v2x.rejected_auth"),
    ("replay", "v2x.rejected_replay"),
    ("policy", "v2x.rejected_policy"),
    ("anomaly", "v2x.rejected_anomaly"),
];

/// The workload's configuration for a seed.
pub fn config(seed: u64, epochs: u64, frames_per_epoch: u64) -> V2xConfig {
    let mut cfg = V2xConfig::new(VEHICLES, epochs, frames_per_epoch);
    cfg.fleet.seed = seed;
    cfg.fleet.threads = crate::THREADS;
    cfg.fleet.enforcement = FleetEnforcement::shipped();
    cfg
}

/// The smallest run the model accepts: every epoch the rollout and the
/// attack tail need, one in-vehicle frame per epoch.
pub fn setup_config(seed: u64) -> V2xConfig {
    let probe = config(seed, 0, 1);
    config(seed, probe.ota_waves + 5, 1)
}

impl Scenario for V2xConfig {
    const NAME: &'static str = "v2x";
    const UNIT_COUNTER: &'static str = "v2x.received";
    const WORK_COUNTERS: &'static [&'static str] = &WORK_COUNTERS;
    /// The replica leaves out the dedup windows and OTA retransmits, which
    /// a fault-free plan never fires, and their counters.
    const WHOLE_SECTION: bool = false;
    const NOTE_RATE: Option<(&'static str, &'static str)> =
        Some(("frames.transmitted", "frames_per_s"));

    fn run(&self) -> MetricSet {
        run_v2x(self).metrics
    }

    /// No V2X or in-vehicle leak, and the rollout applied exactly once on
    /// every vehicle with the tampered and stale replays rejected
    /// fleet-wide. Failed: leaks and vehicles without the rollout, of
    /// attacker messages, injected frames and vehicles.
    fn judge(&self, m: &MetricSet, out: &mut Outcome) -> Vec<(&'static str, bool, String)> {
        let vehicles = self.fleet.vehicles as u64;
        let attacker_msgs = m.counter("v2x.blocked_attacks") + m.counter("v2x.leaked");
        let missing_rollout = vehicles.saturating_sub(m.counter("ota.applied"));
        out.attempted += attacker_msgs + m.counter("attack.injected") + vehicles;
        out.failed += m.counter("v2x.leaked") + m.counter("attack.leaked_frames") + missing_rollout;
        let (v2x_leaked, leaked) = (m.counter("v2x.leaked"), m.counter("attack.leaked"));
        let rollout: Vec<String> = [
            "ota.applied",
            "ota.version_sum",
            "ota.rejected_signature",
            "ota.rejected_stale",
        ]
        .iter()
        .filter(|k| m.counter(k) != vehicles)
        .map(|k| format!("{k} = {} (want {vehicles})", m.counter(k)))
        .collect();
        vec![
            (
                "zero_leaks",
                v2x_leaked == 0 && leaked == 0,
                format!("{v2x_leaked} attacker messages accepted, {leaked} attack deliveries"),
            ),
            ("rollout", rollout.is_empty(), rollout.join("; ")),
        ]
    }
}

/// One vehicle's V2X state, as the model keeps it.
struct ReplicaVehicle {
    shard: usize,
    is_attacker: bool,
    car: Vehicle,
    store: DevicePolicyStore,
    ingest: PolicyEngine,
    ctx: EvalContext,
    lead_windows: BTreeMap<u32, u32>,
    platoon: PlatoonMonitor,
    value_spoof_seq: u32,
    lead_seq: u32,
    captured_platoon: Option<PlatoonMsg>,
    captured_ota: Option<(Vec<u8>, String)>,
    rng: DetRng,
    frames_target: u64,
    health: PlatoonHealth,
    heard_heartbeat: bool,
    /// Lead: whether each vehicle's rollout delivery was acknowledged.
    ota_acked: BTreeMap<usize, bool>,
}

impl ReplicaVehicle {
    fn build(cfg: &V2xConfig, shard: usize, engine: Arc<PolicyEngine>) -> Self {
        let car = Vehicle::build(&cfg.fleet, shard, engine);
        let store = DevicePolicyStore::new(PolicySet::from_policy(car_policy()), OEM_KEY.to_vec());
        let ingest = PolicyEngine::compact(store.active().clone());
        ReplicaVehicle {
            shard,
            is_attacker: Some(shard) == cfg.attacker(),
            car,
            store,
            ingest,
            ctx: EvalContext::new().with_mode("normal"),
            lead_windows: BTreeMap::new(),
            platoon: PlatoonMonitor::default(),
            value_spoof_seq: 0,
            lead_seq: 0,
            captured_platoon: None,
            captured_ota: None,
            rng: DetRng::stream(cfg.fleet.seed ^ V2X_STREAM_SALT, shard as u64),
            frames_target: 0,
            health: PlatoonHealth::new(cfg.heartbeat_miss_limit, cfg.heartbeat_clean_limit),
            heard_heartbeat: false,
            ota_acked: BTreeMap::new(),
        }
    }

    fn count(&mut self, key: &str, n: u64) {
        ledger::span(Span::SimMetrics, || self.car.metrics_mut().count(key, n));
    }

    fn epoch(&mut self, cfg: &V2xConfig, rollout: &SignedBundle, ctx: &mut EpochCtx<'_, V2xMsg>) {
        self.heard_heartbeat = false;
        let inbox = ctx.inbox;
        for env in inbox {
            match &env.msg {
                V2xMsg::Platoon(p) => self.on_platoon(cfg, env.from, p),
                V2xMsg::Ota {
                    payload,
                    signature_hex,
                    ..
                } => self.on_ota(env.from, payload, signature_hex, ctx),
                V2xMsg::OtaAck { version } => self.on_ota_ack(cfg, env.from, *version),
            }
        }
        if self.shard == cfg.lead() {
            self.emit_lead(cfg, rollout, ctx);
        } else {
            self.track_heartbeat();
        }
        if self.is_attacker {
            self.emit_attacks(cfg, ctx);
        }
        self.frames_target += cfg.frames_per_epoch;
        let target = self.frames_target;
        ledger::span(Span::CarSlice, || self.car.run_until(&cfg.fleet, target));
    }

    fn lead_window(&self, lead: u32) -> u32 {
        self.lead_windows.get(&lead).copied().unwrap_or(0)
    }

    fn reject(&mut self, key: &str, is_attack: bool) {
        self.count(key, 1);
        if is_attack {
            self.count("v2x.blocked_attacks", 1);
        }
    }

    fn on_platoon(&mut self, cfg: &V2xConfig, from: usize, msg: &PlatoonMsg) {
        let is_attack = Some(from) == cfg.attacker() && from != self.shard;
        if self.is_attacker && !is_attack {
            self.captured_platoon = Some(*msg);
        }
        if self.shard == cfg.lead() {
            self.count("v2x.lead_ignored", 1);
            return;
        }
        self.count("v2x.received", 1);
        let authentic = ledger::span(Span::CarV2xAuth, || msg.verify(FLEET_V2X_KEY));
        if cfg.defenses.auth && !authentic {
            return self.reject("v2x.rejected_auth", is_attack);
        }
        if cfg.defenses.replay_window {
            if msg.seq <= self.lead_window(msg.lead) {
                return self.reject("v2x.rejected_replay", is_attack);
            }
            if authentic {
                self.lead_windows.insert(msg.lead, msg.seq);
            }
        }
        if cfg.defenses.policy_check {
            let request = ledger::span(Span::CoreRequest, || {
                AccessRequest::new(
                    EntityId::new("entry", claimed_entry(msg.claimed)),
                    EntityId::new("asset", "v2x-platoon"),
                    Action::Write,
                )
            });
            let now_us = self.car.now().as_micros();
            let allowed = ledger::span(Span::CoreDecide, || {
                self.ingest
                    .decide_at(&request, &self.ctx, now_us)
                    .is_allow()
            });
            if !allowed {
                return self.reject("v2x.rejected_policy", is_attack);
            }
        }
        if cfg.defenses.anomaly {
            self.count("anomaly.checked", 1);
            let verdict = ledger::span(Span::CarAnomaly, || {
                self.platoon.judge(msg.speed, msg.brake)
            });
            if verdict.flagged() {
                self.count("anomaly.flagged", 1);
                if let Some(metric) = verdict.metric() {
                    self.count(metric, 1);
                }
                return self.reject("v2x.rejected_anomaly", is_attack);
            }
        }
        self.count("v2x.accepted", 1);
        if is_attack {
            self.count("v2x.leaked", 1);
        }
        if from == cfg.lead() {
            self.heard_heartbeat = true;
        }
        ledger::span(Span::CarRelay, || {
            self.car.relay_v2x(msg.speed, msg.brake, msg.seq as u16)
        });
    }

    fn track_heartbeat(&mut self) {
        let heard = self.heard_heartbeat;
        if self.health.joined() && !heard {
            self.count("v2x.heartbeat_misses", 1);
        }
        match self.health.on_epoch(heard) {
            Some(LimpTransition::Enter) => {
                self.count("v2x.degraded_entries", 1);
                ledger::span(Span::CarRelay, || self.car.relay_v2x_health(true));
            }
            Some(LimpTransition::Exit) => {
                self.count("v2x.degraded_exits", 1);
                ledger::span(Span::CarRelay, || self.car.relay_v2x_health(false));
            }
            None => {}
        }
        if self.health.degraded() {
            self.count("v2x.degraded_epochs", 1);
        }
    }

    fn on_ota(
        &mut self,
        from: usize,
        payload: &[u8],
        signature_hex: &str,
        ctx: &mut EpochCtx<'_, V2xMsg>,
    ) {
        let signed = SignedBundle::from_parts(payload.to_vec(), signature_hex.to_string());
        match ledger::span_fixed(Span::CoreOtaApply, || self.store.apply(&signed)) {
            Ok(()) => {
                if self.is_attacker && self.captured_ota.is_none() {
                    self.captured_ota = Some((payload.to_vec(), signature_hex.to_string()));
                }
                let active = self.store.active().clone();
                self.ingest =
                    ledger::span_fixed(Span::CoreEngineBuild, || PolicyEngine::compact(active));
                self.count("ota.applied", 1);
                ctx.outbox.unicast(
                    from,
                    V2xMsg::OtaAck {
                        version: self.store.version(),
                    },
                );
                self.count("ota.acks_sent", 1);
            }
            Err(PolicyError::BadSignature) => self.count("ota.rejected_signature", 1),
            Err(PolicyError::StaleVersion { .. }) => {
                self.count("ota.rejected_stale", 1);
                ctx.outbox.unicast(
                    from,
                    V2xMsg::OtaAck {
                        version: self.store.version(),
                    },
                );
                self.count("ota.acks_sent", 1);
            }
            Err(_) => self.count("ota.rejected_malformed", 1),
        }
    }

    fn on_ota_ack(&mut self, cfg: &V2xConfig, from: usize, version: u64) {
        if self.shard != cfg.lead() || version == 0 {
            return self.count("ota.ack_ignored", 1);
        }
        match self.ota_acked.get_mut(&from) {
            Some(acked) if !*acked => {
                *acked = true;
                self.count("ota.acks", 1);
            }
            Some(_) => self.count("ota.ack_redundant", 1),
            None => self.count("ota.ack_ignored", 1),
        }
    }

    fn emit_lead(
        &mut self,
        cfg: &V2xConfig,
        rollout: &SignedBundle,
        ctx: &mut EpochCtx<'_, V2xMsg>,
    ) {
        self.lead_seq += 1;
        let speed = 60 + self.rng.next_below(21) as u8;
        let brake = self.rng.chance(0.2);
        let msg = PlatoonMsg::signed(
            FLEET_V2X_KEY,
            self.shard as u32,
            self.lead_seq,
            speed,
            brake,
            CLAIM_V2X_LEAD,
        );
        ctx.outbox.broadcast(PLATOON_GROUP, V2xMsg::Platoon(msg));
        self.count("v2x.lead_broadcasts", 1);
        if ctx.epoch < cfg.ota_waves {
            for v in 0..cfg.fleet.vehicles {
                if cfg.wave_of(v) == ctx.epoch {
                    ctx.outbox.unicast(
                        v,
                        V2xMsg::Ota {
                            payload: rollout.payload().to_vec(),
                            signature_hex: rollout.signature_hex().to_string(),
                            wave: ctx.epoch,
                        },
                    );
                    self.count("ota.staged", 1);
                    self.ota_acked.insert(v, false);
                }
            }
        }
    }

    fn emit_attacks(&mut self, cfg: &V2xConfig, ctx: &mut EpochCtx<'_, V2xMsg>) {
        let lead = cfg.lead() as u32;
        match ctx.epoch % 5 {
            0 => {
                let seq = self.lead_window(lead) + 100 + ctx.epoch as u32;
                let forged = PlatoonMsg {
                    lead,
                    seq,
                    speed: 0,
                    brake: true,
                    claimed: CLAIM_V2X_LEAD,
                    tag: 0xDEAD_BEEF_0BAD_F00D ^ u64::from(seq),
                };
                ctx.outbox.broadcast(PLATOON_GROUP, V2xMsg::Platoon(forged));
            }
            1 => {
                if let Some(captured) = self.captured_platoon {
                    ctx.outbox
                        .broadcast(PLATOON_GROUP, V2xMsg::Platoon(captured));
                }
            }
            2 => {
                if let Some(mut tampered) = self.captured_platoon {
                    tampered.speed = 0;
                    tampered.brake = true;
                    ctx.outbox
                        .broadcast(PLATOON_GROUP, V2xMsg::Platoon(tampered));
                }
            }
            3 => {
                let base = self.lead_window(lead) + 500 + ctx.epoch as u32;
                for seq in base..base + 3 {
                    let forged = PlatoonMsg {
                        lead,
                        seq,
                        speed: 80,
                        brake: false,
                        claimed: CLAIM_V2X_LEAD,
                        tag: 0x0BAD_5EED_FACE_0FF5 ^ u64::from(seq),
                    };
                    ctx.outbox.broadcast(PLATOON_GROUP, V2xMsg::Platoon(forged));
                }
            }
            _ => {
                self.value_spoof_seq += 1;
                let msg = PlatoonMsg::signed(
                    FLEET_V2X_KEY,
                    self.shard as u32,
                    self.value_spoof_seq,
                    IMPLAUSIBLE_SPEED_KMH,
                    false,
                    CLAIM_V2X_LEAD,
                );
                ctx.outbox.broadcast(PLATOON_GROUP, V2xMsg::Platoon(msg));
            }
        }
        let tamper = ctx.epoch == cfg.ota_waves + 1;
        let stale = ctx.epoch == cfg.ota_waves + 2;
        if let (true, Some((payload, sig))) = (tamper || stale, self.captured_ota.clone()) {
            let mut payload = payload;
            if tamper {
                if let Some(b) = payload.last_mut() {
                    *b ^= 0x01;
                }
            }
            for v in 0..cfg.fleet.vehicles {
                ctx.outbox.unicast(
                    v,
                    V2xMsg::Ota {
                        payload: payload.clone(),
                        signature_hex: sig.clone(),
                        wave: u64::MAX,
                    },
                );
            }
        }
    }

    fn finish(self) -> MetricSet {
        let version = self.store.version();
        let mut car = self.car;
        car.metrics_mut().count("ota.version_sum", version);
        car.finish()
    }
}

/// Wall-clock bookkeeping of the traced pass: epoch boundaries fall where
/// shard 0's step begins (the one-thread plane path steps shards in order), and
/// the run's tail where the first finish begins.
struct PlaneClock {
    seed: u64,
    every: u64,
    /// The open epoch: its start and whether it is timed.
    open: Option<(Instant, bool)>,
    finish_start: Option<Instant>,
}

impl PlaneClock {
    /// Closes the open epoch: plane time is its wall minus the top-level
    /// spans (step closures, vehicle builds) timed inside it.
    fn close(&mut self, now: Instant) {
        if let Some((start, timed)) = self.open.take() {
            let measured = timed.then(|| {
                let (top_ns, top) = ledger::unit_top();
                let wall = now.duration_since(start).as_nanos() as u64;
                (wall.saturating_sub(top_ns), top)
            });
            ledger::record(Span::SimPlane, false, measured);
        }
    }

    fn begin_epoch(&mut self, epoch: u64) {
        let now = Instant::now();
        self.close(now);
        let timed = ledger::selected(self.seed, epoch, self.every);
        ledger::begin_unit(timed);
        self.open = Some((now, timed));
    }
}

/// Runs the scenario through [`ReplicaVehicle`]s on one thread, timing one
/// epoch in `trace_every` (0 = count only).
pub fn traced_pass(cfg: &V2xConfig, trace_every: u64) -> Pass<()> {
    let started = Instant::now();
    let engine = Arc::new(PolicyEngine::new(v2x_shared_policy_set()));
    let rollout = rollout_bundle().sign(OEM_KEY);
    let mut plane = MessagePlane::new();
    plane.group(PLATOON_GROUP, 0..cfg.fleet.vehicles);
    let clock = Mutex::new(PlaneClock {
        seed: cfg.fleet.seed,
        every: trace_every,
        open: None,
        finish_start: None,
    });
    let lock = || clock.lock().expect("the plane clock is never poisoned");
    let mut merged = run_epochs_faulted(
        cfg.fleet.vehicles,
        1,
        cfg.epochs,
        &plane,
        None,
        |shard| {
            ledger::span_fixed(Span::CarBuild, || {
                ReplicaVehicle::build(cfg, shard, Arc::clone(&engine))
            })
        },
        |vehicle, ctx| {
            if ctx.shard == 0 {
                lock().begin_epoch(ctx.epoch);
            }
            ledger::span(Span::CarV2xEpoch, || vehicle.epoch(cfg, &rollout, ctx));
        },
        |vehicle, metrics| {
            {
                let mut clock = lock();
                if clock.finish_start.is_none() {
                    let now = Instant::now();
                    clock.close(now);
                    ledger::end_units();
                    clock.finish_start = Some(Instant::now());
                }
            }
            ledger::span_fixed(Span::SimMetrics, || metrics.merge(&vehicle.finish()));
        },
    );
    let now = Instant::now();
    if let Some(start) = lock().finish_start {
        // after the last epoch: finishes, the shard-order merge and the
        // plane's counters; the finish spans are subtracted
        let (top_ns, top) = ledger::unit_top();
        let tail = now.duration_since(start).as_nanos() as u64;
        ledger::record(
            Span::SimMerge,
            true,
            Some((tail.saturating_sub(top_ns), top)),
        );
    }
    let _ = merged.split_off_prefix("wall.");
    Pass {
        metrics: merged,
        wall_s: started.elapsed().as_secs_f64(),
        extra: (),
    }
}

/// Each defence rung, and the configuration with it removed.
pub fn rung_ablations(base: &V2xConfig) -> Vec<(&'static str, V2xConfig)> {
    let d = base.defenses;
    let with = |defenses: V2xDefenses| {
        let mut cfg = base.clone();
        cfg.defenses = defenses;
        cfg
    };
    vec![
        ("auth", with(V2xDefenses { auth: false, ..d })),
        (
            "replay_window",
            with(V2xDefenses {
                replay_window: false,
                ..d
            }),
        ),
        (
            "policy_check",
            with(V2xDefenses {
                policy_check: false,
                ..d
            }),
        ),
        (
            "anomaly",
            with(V2xDefenses {
                anomaly: false,
                ..d
            }),
        ),
    ]
}

/// The untraced run: `run_v2x` calls for `budget`; set-up is the
/// smallest run the model accepts.
pub fn measure(seed: u64, budget: Duration, out: &mut Outcome) {
    drive::measure(
        &config(seed, EPOCHS, FRAMES_PER_EPOCH),
        &setup_config(seed),
        budget,
        out,
    );
}

/// The spans the V2X ledger must show.
const SPANS: [Span; 13] = [
    Span::SimPlane,
    Span::CarV2xEpoch,
    Span::CarSlice,
    Span::CarV2xAuth,
    Span::CoreRequest,
    Span::CoreDecide,
    Span::CarAnomaly,
    Span::CarRelay,
    Span::CoreOtaApply,
    Span::CoreEngineBuild,
    Span::SimMetrics,
    Span::SimMerge,
    Span::CarBuild,
];

/// The traced run: the replica's ledger beside untraced `run_v2x` calls,
/// the per-rung reject ratios, then the rung ablation.
pub fn trace(seed: u64, budget: Duration, out: &mut Outcome) {
    let cfg = config(seed, TRACED_EPOCHS, FRAMES_PER_EPOCH);
    let pass = drive::trace(&cfg, budget, out, TRACE_EVERY, &SPANS, |every| {
        traced_pass(&cfg, every)
    });
    let m = &pass.metrics;
    let received = m.counter("v2x.received");
    for (rung, key) in RUNGS {
        out.metric(
            &format!("car.v2x.reject_ratio.{rung}"),
            ratio(m.counter(key), received),
            "ratio",
        );
    }
    let base = config(seed, ABLATION_EPOCHS, FRAMES_PER_EPOCH);
    drive::ablate(&base, rung_ablations(&base), out);
}
