//! V2X scenarios on the deterministic cross-shard message plane
//! (DESIGN.md §9).
//!
//! The fleet engine (`fleet.rs`) runs vehicles as fully independent shards;
//! this module adds the **inter-vehicle** workloads on top of
//! [`polsec_sim::plane::run_epochs`]: vehicles run one epoch of in-vehicle
//! traffic at a time, and between epochs the message plane routes their V2X
//! mail in deterministic `(sender, seq)` order — so merged metrics *and
//! every vehicle's inbox* are byte-identical at any thread count.
//!
//! Two scenarios run simultaneously, scored against the same leak metrics
//! as the fleet engine:
//!
//! 1. **Platooning** — the lead vehicle broadcasts authenticated
//!    speed/brake messages to the platoon group. A follower accepts a
//!    broadcast only after a four-rung ladder:
//!    * **auth** — an HMAC tag under the fleet V2X key (defeats the
//!      spoofed-lead and tampered-payload attack variants),
//!    * **replay window** — the claimed lead's sequence number must
//!      advance (defeats the replayed-broadcast variant),
//!    * **policy** — the claimed remote origin is judged as a boundary
//!      *Write* on the `v2x-platoon` asset against the vehicle's **own
//!      policy store** — which only allows it after the OTA rollout below
//!      has delivered the `v2x-platoon` policy,
//!    * **anomaly** — the payload must be behaviourally plausible
//!      ([`crate::anomaly::PlatoonMonitor`]): range, rate-of-change and
//!      stuck-value bounds on the advertised speed plus brake/speed
//!      cross-consistency. This is the only rung that stops the
//!      **value-spoof** variant — a key-holding member broadcasting
//!      implausible values under a perfectly valid identity (Table I
//!      row 2 lifted onto the V2X plane).
//!
//!    An accepted message is then relayed onto the in-vehicle network
//!    ([`Vehicle::relay_v2x`]): telematics → gateway whitelist → segment
//!    and node HPEs → shared engine boundary audit → EV-ECU platoon logic.
//! 2. **Fleet-wide OTA policy rollout** — the lead stages a
//!    [`SignedBundle`] through the plane in scheduled waves; every vehicle
//!    verifies the HMAC signature and version monotonicity in its
//!    [`DevicePolicyStore`] before swapping its ingestion policy. The
//!    compromised member later replays a **tampered** copy (flipped
//!    payload byte, original signature) and a **stale** copy (valid
//!    signature, already-applied version) to the whole fleet — both must
//!    be rejected by every vehicle while the legitimate waves complete.
//!
//! The compromised member (the highest shard index, when attacks are on)
//! also rotates through the five platoon attack variants, one per epoch.
//! Ground truth for leak accounting is the envelope's sender shard: an
//! accepted platoon message from the attacker counts as `v2x.leaked`.
//!
//! # Chaos: faults, heartbeats, retransmits, limp-home (DESIGN.md §10)
//!
//! The run can be driven through a deterministic [`FaultPlan`]: the plane
//! drops, duplicates, delays and reorders deliveries at the barrier, so the
//! whole degraded run stays byte-identical at any thread count. On top of
//! the fault substrate this module adds the robustness machinery:
//!
//! * **Envelope dedup** — a per-sender replay window over the plane
//!   sequence numbers (gated on the `replay_window` rung) makes duplicated
//!   and reordered deliveries idempotent before any handler runs.
//! * **Heartbeats + limp-home** — the lead's per-epoch broadcast doubles
//!   as a heartbeat. A follower missing `heartbeat_miss_limit` consecutive
//!   epochs enters limp-home ([`crate::modes::PlatoonHealth`]): the
//!   telematics unit relays a `V2X_HEALTH` frame through the gateway/HPE
//!   path and the EV-ECU clamps the platoon speed and widens the gap. Only
//!   `heartbeat_clean_limit` consecutive *ladder-accepted* heartbeats exit
//!   — a spoofed "resume" blast dies at the auth rung and cannot
//!   short-circuit the hysteresis.
//! * **OTA ack/retransmit** — every vehicle acks an applied (or
//!   already-applied) rollout bundle; the lead retransmits unacked
//!   deliveries with bounded retries and deterministic exponential backoff
//!   (jitter from a dedicated pinned RNG stream), so the rollout completes
//!   under heavy loss while version monotonicity keeps re-deliveries from
//!   double-applying.

use crate::anomaly::{AnomalyCounters, PlatoonMonitor, IMPLAUSIBLE_SPEED_KMH};
use crate::fleet::{FleetConfig, FleetTally, Vehicle};
use crate::messages::{self, Asset, Origin};
use crate::modes::{LimpTransition, PlatoonHealth};
use crate::security_model::car_policy;
use crate::tally::{self, Counter, Shown};
use polsec_core::dsl::parse_policy;
use polsec_core::sign::HmacKey;
use polsec_core::{
    AccessRequest, Action, DevicePolicyStore, EntityId, EvalContext, Policy, PolicyBundle,
    PolicyEngine, PolicyError, PolicySet, SignedBundle,
};
use polsec_sim::plane::{Envelope, EpochCtx, GroupId, Outbox};
use polsec_sim::{
    run_epochs_faulted, DetRng, FaultPlan, Fold, Histogram, MessagePlane, MetricSet,
};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The broadcast group every vehicle of the run belongs to.
pub const PLATOON_GROUP: GroupId = 1;

/// The fleet-shared V2X authentication key (simulation stand-in for the
/// platoon's group key).
pub const FLEET_V2X_KEY: &[u8] = b"fleet-v2x-platoon-key";

/// The OEM's OTA signing key (verifies [`SignedBundle`]s on-device).
pub const OEM_KEY: &[u8] = b"oem-ota-signing-key";

/// Salt separating the V2X-layer RNG streams (lead speed profile, brake
/// events) from the fleet vehicle streams.
const V2X_STREAM_SALT: u64 = 0x0E1_C0DE_2B2B_5A17;

/// Salt for the lead's OTA retransmit backoff-jitter stream; dedicated so
/// enabling retransmits can never perturb the lead's speed/brake draws.
const V2X_BACKOFF_SALT: u64 = 0xBAC0_FF5A_17D3_77E1;

/// Epochs one plane round-trip takes (send at epoch `e` → delivered `e+1`
/// → ack emitted `e+1` → ack delivered `e+2`): the earliest epoch a
/// retransmit may fire. Fault-free rollouts therefore never retransmit.
pub const OTA_ACK_RTT_EPOCHS: u64 = 2;

/// Cap on the exponential backoff between retransmits, in extra epochs
/// beyond the ack RTT.
pub const OTA_BACKOFF_CAP_EPOCHS: u64 = 4;

/// Claimed origin codes carried by platoon messages (the V2X analogue of
/// the in-vehicle command origin byte — attacker-choosable, which is why
/// the policy rung exists).
pub const CLAIM_V2X_LEAD: u8 = 0;
/// Claimed origin: the telematics unit.
pub const CLAIM_TELEMATICS: u8 = 1;
/// Claimed origin: the infotainment head unit.
pub const CLAIM_INFOTAINMENT: u8 = 2;

/// Maps a claimed origin code onto the policy entry point it asserts.
pub fn claimed_entry(code: u8) -> &'static str {
    claimed_entity(code).name()
}

/// `entry:` the policy entry point a claimed origin code asserts, from the
/// car's policy vocabulary.
fn claimed_entity(code: u8) -> EntityId {
    match code {
        CLAIM_V2X_LEAD => messages::v2x_lead_entry(),
        CLAIM_TELEMATICS => Origin::Telematics.entity(),
        CLAIM_INFOTAINMENT => Origin::Infotainment.entity(),
        _ => messages::unknown_entry(),
    }
}

/// One platoon lead broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatoonMsg {
    /// The claimed lead vehicle index.
    pub lead: u32,
    /// The claimed (monotonically increasing) broadcast number.
    pub seq: u32,
    /// Lead speed in km/h.
    pub speed: u8,
    /// Whether the lead is braking.
    pub brake: bool,
    /// Claimed origin code (see [`claimed_entry`]).
    pub claimed: u8,
    /// Truncated HMAC-SHA-256 tag under [`FLEET_V2X_KEY`].
    pub tag: u64,
}

/// Computes the authentication tag of a platoon message: the first eight
/// bytes of HMAC-SHA-256 over the canonical field encoding.
pub fn platoon_tag(key: &HmacKey, lead: u32, seq: u32, speed: u8, brake: bool, claimed: u8) -> u64 {
    let mut buf = [0u8; 11];
    buf[..4].copy_from_slice(&lead.to_le_bytes());
    buf[4..8].copy_from_slice(&seq.to_le_bytes());
    buf[8] = speed;
    buf[9] = u8::from(brake);
    buf[10] = claimed;
    let digest = key.mac(&buf);
    u64::from_le_bytes(digest[..8].try_into().expect("digest is 32 bytes"))
}

impl PlatoonMsg {
    /// Builds an authentic message under `key`.
    pub fn signed(key: &[u8], lead: u32, seq: u32, speed: u8, brake: bool, claimed: u8) -> Self {
        Self::signed_with(&HmacKey::new(key), lead, seq, speed, brake, claimed)
    }

    /// Builds an authentic message under a precomputed key schedule.
    pub fn signed_with(
        key: &HmacKey,
        lead: u32,
        seq: u32,
        speed: u8,
        brake: bool,
        claimed: u8,
    ) -> Self {
        PlatoonMsg {
            lead,
            seq,
            speed,
            brake,
            claimed,
            tag: platoon_tag(key, lead, seq, speed, brake, claimed),
        }
    }

    /// Whether the tag verifies under `key`.
    pub fn verify(&self, key: &[u8]) -> bool {
        self.verify_with(&HmacKey::new(key))
    }

    /// Whether the tag verifies under a precomputed key schedule.
    pub fn verify_with(&self, key: &HmacKey) -> bool {
        self.tag == platoon_tag(key, self.lead, self.seq, self.speed, self.brake, self.claimed)
    }
}

/// A message on the V2X plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum V2xMsg {
    /// A platoon lead broadcast.
    Platoon(PlatoonMsg),
    /// An OTA policy bundle leg: the wire parts of a [`SignedBundle`] plus
    /// the rollout wave it belongs to.
    Ota {
        /// Canonical bundle payload bytes.
        payload: Vec<u8>,
        /// The HMAC signature in hex.
        signature_hex: String,
        /// The rollout wave this delivery belongs to.
        wave: u64,
    },
    /// A unicast acknowledgement of an OTA delivery, carrying the
    /// receiver's resulting store version. Sent after a successful apply
    /// *and* after a stale-version rejection (the store already holds the
    /// content, so the sender should stop retransmitting) — never after a
    /// signature failure.
    OtaAck {
        /// The receiver's policy-store version after processing.
        version: u64,
    },
}

/// Which V2X defence rungs are active (the scenario's enforcement ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V2xDefenses {
    /// Verify the HMAC tag of platoon messages.
    pub auth: bool,
    /// Require the lead sequence number to advance.
    pub replay_window: bool,
    /// Judge the claimed origin against the vehicle's own policy store
    /// (which only permits platoon writes after the OTA rollout).
    pub policy_check: bool,
    /// Judge the payload against the behavioural models (range, rate,
    /// stuck-value, brake/speed consistency) — the only rung that stops a
    /// key-holding member broadcasting implausible values.
    pub anomaly: bool,
}

impl V2xDefenses {
    /// Every rung on.
    pub fn full() -> Self {
        V2xDefenses {
            auth: true,
            replay_window: true,
            policy_check: true,
            anomaly: true,
        }
    }

    /// Every rung off (the unprotected V2X plane).
    pub fn none() -> Self {
        V2xDefenses {
            auth: false,
            replay_window: false,
            policy_check: false,
            anomaly: false,
        }
    }

    /// A short label for reports.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.auth {
            parts.push("auth");
        }
        if self.replay_window {
            parts.push("replay");
        }
        if self.policy_check {
            parts.push("policy");
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

/// Configuration of a platooning + OTA-rollout run.
#[derive(Debug, Clone)]
pub struct V2xConfig {
    /// The underlying fleet configuration (vehicle count, seed, threads,
    /// in-vehicle enforcement, timing, optional wire error model).
    pub fleet: FleetConfig,
    /// Number of epochs (message-plane barriers).
    pub epochs: u64,
    /// In-vehicle frames each vehicle carries per epoch.
    pub frames_per_epoch: u64,
    /// Active V2X defence rungs.
    pub defenses: V2xDefenses,
    /// Whether the compromised member mounts the platoon and OTA attacks.
    pub attacks: bool,
    /// Number of OTA rollout waves (wave `w` is staged during epoch `w`).
    pub ota_waves: u64,
    /// Optional deterministic fault plan applied at the plane barrier
    /// (drop / duplicate / delay / reorder). `None` = fault-free.
    pub faults: Option<FaultPlan>,
    /// Optional per-epoch inbox bound (keep-first / drop-newest overflow,
    /// counted under `plane.inbox_overflow`). `None` = unbounded.
    pub inbox_capacity: Option<usize>,
    /// Consecutive missed lead heartbeats before a follower enters
    /// limp-home.
    pub heartbeat_miss_limit: u32,
    /// Consecutive accepted heartbeats a degraded follower needs before it
    /// resumes normal platooning (the hysteresis side).
    pub heartbeat_clean_limit: u32,
    /// Maximum OTA retransmits per vehicle before the lead gives up on the
    /// delivery (`ota.gave_up`).
    pub ota_retry_limit: u32,
    /// Optional `[from, until)` epoch window in which the lead is silent
    /// (no heartbeat broadcast) — drives the limp-home scenario.
    pub lead_outage: Option<(u64, u64)>,
}

impl V2xConfig {
    /// A full-defence, attacks-on configuration. `epochs` must leave room
    /// for the rollout plus the attack tail (`ota_waves + 5`).
    pub fn new(vehicles: usize, epochs: u64, frames_per_epoch: u64) -> Self {
        V2xConfig {
            fleet: FleetConfig::new(vehicles, epochs * frames_per_epoch),
            epochs,
            frames_per_epoch,
            defenses: V2xDefenses::full(),
            attacks: true,
            ota_waves: 3,
            faults: None,
            inbox_capacity: None,
            heartbeat_miss_limit: 3,
            heartbeat_clean_limit: 2,
            ota_retry_limit: 6,
            lead_outage: None,
        }
    }

    /// The platoon lead's shard index.
    pub fn lead(&self) -> usize {
        0
    }

    /// The compromised member's shard index, when attacks are on (needs at
    /// least three vehicles: a lead, a clean follower and the attacker).
    pub fn attacker(&self) -> Option<usize> {
        (self.attacks && self.fleet.vehicles >= 3).then(|| self.fleet.vehicles - 1)
    }

    /// The rollout wave vehicle `index` belongs to.
    pub fn wave_of(&self, index: usize) -> u64 {
        (index as u64) % self.ota_waves.max(1)
    }

    /// The epoch in which the attacker replays a tampered copy of the
    /// rollout bundle to the whole fleet.
    fn tamper_epoch(&self) -> u64 {
        self.ota_waves + 1
    }

    /// The epoch in which the attacker replays the original (now stale)
    /// bundle to the whole fleet.
    fn stale_epoch(&self) -> u64 {
        self.ota_waves + 2
    }
}

/// The policy the shared engine judges V2X boundary crossings against:
/// the car baseline plus a read-allow for the relayed platoon status (the
/// gateway-crossing audit treats `V2X_LEAD` as a boundary Read from the
/// consuming segment's boundary entry — `telematics` into the powertrain).
///
/// Trust model: the V2X ladder (auth tag, replay window, per-vehicle
/// policy store) authenticates platoon messages **at plane ingestion**.
/// Once relayed, the `V2X_LEAD` frame is ordinary in-vehicle traffic:
/// the gateway whitelist and HPEs gate it by identifier, like every other
/// frame — so a compromised *in-vehicle* node spoofing `0x140` under a
/// weakened in-vehicle ladder is the same honest ID-filtering limitation
/// as Table I row 2 (value spoofing from a legitimate sender), not a
/// V2X-plane leak.
///
/// Both policies are parsed once per process; the set shares their rules.
pub fn v2x_shared_policy_set() -> PolicySet {
    static BOUNDARY: OnceLock<Policy> = OnceLock::new();
    let boundary = BOUNDARY.get_or_init(|| {
        parse_policy(
            r#"policy "v2x-boundary" version 1 {
                allow read on asset:v2x-platoon from entry:telematics as v2x-relay-read;
            }"#,
        )
        .expect("embedded v2x boundary policy parses")
    });
    [car_policy(), boundary.clone()].into_iter().collect()
}

/// The policy the OTA rollout ships: platoon following becomes permitted
/// for the authenticated lead origin, in normal mode only. Parsed on the
/// first call in the process; every call returns a clone that shares the
/// parsed rules.
pub fn v2x_platoon_policy() -> Policy {
    static POLICY: OnceLock<Policy> = OnceLock::new();
    POLICY
        .get_or_init(|| {
            parse_policy(
                r#"policy "v2x-platoon" version 1 {
                    allow write on asset:v2x-platoon from entry:v2x-lead when mode == "normal"
                        as platoon-follow;
                }"#,
            )
            .expect("embedded v2x platoon policy parses")
        })
        .clone()
}

/// Builds the rollout bundle (version 1 against the factory store's
/// version 0): the full car baseline plus the platoon enablement policy.
pub fn rollout_bundle() -> PolicyBundle {
    PolicyBundle::new(
        1,
        "fleet V2X rollout: enable authenticated platoon following",
        vec![car_policy(), v2x_platoon_policy()],
    )
}

/// FNV-1a fold over bytes, used by the inbox digests.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Folds one envelope into an inbox digest; the per-epoch digests land in
/// the deterministic metric section, so the replay checks pin every
/// vehicle's inbox content *and order*, not just the aggregate counters.
fn envelope_digest(mut h: u64, env: &Envelope<V2xMsg>) -> u64 {
    h = fnv(h, &(env.from as u64).to_le_bytes());
    h = fnv(h, &env.seq.to_le_bytes());
    match &env.msg {
        V2xMsg::Platoon(p) => {
            h = fnv(h, &[1, p.speed, u8::from(p.brake), p.claimed]);
            h = fnv(h, &p.lead.to_le_bytes());
            h = fnv(h, &p.seq.to_le_bytes());
            h = fnv(h, &p.tag.to_le_bytes());
        }
        V2xMsg::Ota { payload, signature_hex, wave } => {
            h = fnv(h, &[2]);
            h = fnv(h, payload);
            h = fnv(h, signature_hex.as_bytes());
            h = fnv(h, &wave.to_le_bytes());
        }
        V2xMsg::OtaAck { version } => {
            h = fnv(h, &[3]);
            h = fnv(h, &version.to_le_bytes());
        }
    }
    h
}

/// Verdict of an [`EnvelopeWindow`] check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeqVerdict {
    /// First sighting of this sequence number.
    Fresh,
    /// Already seen — a duplicated (or re-sent) delivery.
    Duplicate,
    /// Older than the window tracks; treated as replayable and dropped.
    Stale,
}

/// A per-sender replay window over plane sequence numbers: the highest
/// sequence seen plus a 64-bit sighting mask below it. Duplicated and
/// reordered deliveries of *legitimate* mail become idempotent here, before
/// any handler runs — so a duplicated OTA bundle cannot double-apply and a
/// duplicated heartbeat cannot double-feed the limp-home machine.
#[derive(Debug, Clone, Copy, Default)]
struct EnvelopeWindow {
    hi: u32,
    mask: u64,
}

impl EnvelopeWindow {
    fn check(&mut self, seq: u32) -> SeqVerdict {
        if self.mask == 0 {
            // nothing recorded yet
            self.hi = seq;
            self.mask = 1;
            return SeqVerdict::Fresh;
        }
        if seq > self.hi {
            let shift = u64::from(seq - self.hi);
            self.mask = if shift >= 64 { 0 } else { self.mask << shift };
            self.mask |= 1;
            self.hi = seq;
            return SeqVerdict::Fresh;
        }
        let back = u64::from(self.hi - seq);
        if back >= 64 {
            return SeqVerdict::Stale;
        }
        if self.mask & (1 << back) != 0 {
            return SeqVerdict::Duplicate;
        }
        self.mask |= 1 << back;
        SeqVerdict::Fresh
    }
}

/// A V2X vehicle's tally, and a run's: its car's [`FleetTally`], the
/// ladder, heartbeat and rollout counts, and the three V2X histograms. A
/// vehicle counts into everything but `car` while it runs; its finish
/// seals the car into `car`, and the run adds the tallies up with [`Fold`]
/// and renders them once.
#[derive(Debug, Default)]
struct V2xTally {
    car: FleetTally,
    /// Platoon messages that reached the lead itself (not judged).
    lead_ignored: u64,
    received: u64,
    accepted: u64,
    leaked: u64,
    rejected_auth: u64,
    rejected_replay: u64,
    rejected_policy: u64,
    rejected_anomaly: u64,
    blocked_attacks: u64,
    dedup_dropped: u64,
    dedup_stale: u64,
    heartbeat_misses: u64,
    degraded_entries: u64,
    degraded_exits: u64,
    degraded_epochs: u64,
    lead_outage_epochs: u64,
    lead_broadcasts: u64,
    attack_spoof: u64,
    attack_replay: u64,
    attack_tamper: u64,
    attack_spoof_resume: u64,
    attack_value_spoof: u64,
    ecu_platoon_msgs: u64,
    ecu_degraded_events: u64,
    ecu_resumed_events: u64,
    ecu_still_degraded: u64,
    ota_staged: u64,
    ota_applied: u64,
    ota_acks_sent: u64,
    ota_acks: u64,
    ota_ack_ignored: u64,
    ota_ack_redundant: u64,
    ota_retransmits: u64,
    ota_gave_up: u64,
    ota_rejected_signature: u64,
    ota_rejected_stale: u64,
    ota_rejected_malformed: u64,
    ota_attack_tampered: u64,
    ota_attack_stale: u64,
    ota_version_sum: u64,
    /// Each vehicle's inbox digest per epoch, masked to 32 bits.
    inbox_digest: Histogram,
    ota_applied_wave: Histogram,
    ota_final_version: Histogram,
}

/// Every V2X counter of [`V2xTally`]: key, field, and when the key
/// appears. The ladder's, the heartbeat machine's, the acknowledgement
/// loop's and the ECU's counters appear in every run, whatever the
/// defences, faults and outage windows; the attack and rollout event
/// counts only where the event happened (`v2x.lead_ignored` only in runs
/// with an attacker, whose broadcasts are the only ones that reach the
/// lead).
const V2X_COUNTERS: [Counter<V2xTally>; 40] = [
    ("v2x.lead_ignored", |t| &mut t.lead_ignored, Shown::NonZero),
    ("v2x.received", |t| &mut t.received, Shown::Always),
    ("v2x.accepted", |t| &mut t.accepted, Shown::Always),
    ("v2x.leaked", |t| &mut t.leaked, Shown::Always),
    ("v2x.rejected_auth", |t| &mut t.rejected_auth, Shown::Always),
    ("v2x.rejected_replay", |t| &mut t.rejected_replay, Shown::Always),
    ("v2x.rejected_policy", |t| &mut t.rejected_policy, Shown::Always),
    ("v2x.rejected_anomaly", |t| &mut t.rejected_anomaly, Shown::Always),
    ("v2x.blocked_attacks", |t| &mut t.blocked_attacks, Shown::Always),
    ("v2x.dedup_dropped", |t| &mut t.dedup_dropped, Shown::Always),
    ("v2x.dedup_stale", |t| &mut t.dedup_stale, Shown::Always),
    ("v2x.heartbeat_misses", |t| &mut t.heartbeat_misses, Shown::Always),
    ("v2x.degraded_entries", |t| &mut t.degraded_entries, Shown::Always),
    ("v2x.degraded_exits", |t| &mut t.degraded_exits, Shown::Always),
    ("v2x.degraded_epochs", |t| &mut t.degraded_epochs, Shown::Always),
    ("v2x.lead_outage_epochs", |t| &mut t.lead_outage_epochs, Shown::Always),
    ("v2x.lead_broadcasts", |t| &mut t.lead_broadcasts, Shown::NonZero),
    ("v2x.attack.spoof", |t| &mut t.attack_spoof, Shown::NonZero),
    ("v2x.attack.replay", |t| &mut t.attack_replay, Shown::NonZero),
    ("v2x.attack.tamper", |t| &mut t.attack_tamper, Shown::NonZero),
    ("v2x.attack.spoof_resume", |t| &mut t.attack_spoof_resume, Shown::Always),
    ("v2x.attack.value_spoof", |t| &mut t.attack_value_spoof, Shown::Always),
    ("v2x.ecu_platoon_msgs", |t| &mut t.ecu_platoon_msgs, Shown::Always),
    ("v2x.ecu_degraded_events", |t| &mut t.ecu_degraded_events, Shown::Always),
    ("v2x.ecu_resumed_events", |t| &mut t.ecu_resumed_events, Shown::Always),
    ("v2x.ecu_still_degraded", |t| &mut t.ecu_still_degraded, Shown::Always),
    ("ota.staged", |t| &mut t.ota_staged, Shown::NonZero),
    ("ota.applied", |t| &mut t.ota_applied, Shown::NonZero),
    ("ota.acks_sent", |t| &mut t.ota_acks_sent, Shown::Always),
    ("ota.acks", |t| &mut t.ota_acks, Shown::Always),
    ("ota.ack_ignored", |t| &mut t.ota_ack_ignored, Shown::Always),
    ("ota.ack_redundant", |t| &mut t.ota_ack_redundant, Shown::Always),
    ("ota.retransmits", |t| &mut t.ota_retransmits, Shown::Always),
    ("ota.gave_up", |t| &mut t.ota_gave_up, Shown::Always),
    ("ota.rejected_signature", |t| &mut t.ota_rejected_signature, Shown::NonZero),
    ("ota.rejected_stale", |t| &mut t.ota_rejected_stale, Shown::NonZero),
    ("ota.rejected_malformed", |t| &mut t.ota_rejected_malformed, Shown::NonZero),
    ("ota.attack.tampered", |t| &mut t.ota_attack_tampered, Shown::NonZero),
    ("ota.attack.stale", |t| &mut t.ota_attack_stale, Shown::NonZero),
    ("ota.version_sum", |t| &mut t.ota_version_sum, Shown::Always),
];

impl Fold for V2xTally {
    fn fold(&mut self, mut other: Self) {
        self.car.fold(std::mem::take(&mut other.car));
        tally::add(&V2X_COUNTERS, self, &mut other);
        self.inbox_digest.merge(&other.inbox_digest);
        self.ota_applied_wave.merge(&other.ota_applied_wave);
        self.ota_final_version.merge(&other.ota_final_version);
    }
}

impl V2xTally {
    /// Renders the tally into `m`: the car's section, every counter
    /// [`V2X_COUNTERS`] shows, and the histograms where a value was
    /// observed.
    fn render_into(mut self, m: &mut MetricSet) {
        // No V2X counter is per tick.
        let folded = self.car.folded();
        tally::render(&V2X_COUNTERS, &mut self, folded, false, m);
        m.merge_histogram("v2x.inbox_digest", self.inbox_digest);
        m.merge_histogram("ota.applied_wave", self.ota_applied_wave);
        m.merge_histogram("ota.final_version", self.ota_final_version);
        self.car.render_into(m);
    }
}

/// One vehicle of the V2X run: the fleet vehicle plus the V2X state —
/// policy store, ingestion engine, replay window, and (on the compromised
/// member) captured attack material.
struct V2xVehicle {
    shard: usize,
    /// Whether this shard is the compromised member.
    is_attacker: bool,
    car: Vehicle,
    /// [`FLEET_V2X_KEY`]'s schedule: verifies every judged message and
    /// signs the lead's and the attacker's own broadcasts.
    v2x_key: HmacKey,
    tally: V2xTally,
    /// The anomaly rung's verdicts; `finish` adds them to the car's
    /// `anomaly.*` counters.
    anomaly: AnomalyCounters,
    store: DevicePolicyStore,
    /// Judges platoon ingestion against the store's *active* set; rebuilt
    /// after every applied update.
    ingest: PolicyEngine,
    ctx: EvalContext,
    /// Highest authenticated sequence number accepted per *claimed* lead
    /// index. Keying the replay window on the claimed identity means an
    /// authentic stream under one identity can never poison the window of
    /// another (a key-holding insider broadcasting under its own index
    /// must not lock out the real lead's heartbeats).
    lead_windows: BTreeMap<u32, u32>,
    /// Behavioural models over the accepted platoon payload stream (the
    /// anomaly rung's state).
    platoon: PlatoonMonitor,
    /// Attacker: own outgoing sequence counter for the value-spoof stream.
    value_spoof_seq: u32,
    /// The lead's own outgoing sequence counter.
    lead_seq: u32,
    /// Attacker: last authentic platoon broadcast seen (replay/tamper
    /// material).
    captured_platoon: Option<PlatoonMsg>,
    /// Attacker: wire parts of the legitimately received rollout bundle.
    captured_ota: Option<(Vec<u8>, String)>,
    /// V2X-layer RNG stream (lead speed profile), independent of the
    /// vehicle's in-vehicle stream.
    rng: DetRng,
    /// Cumulative in-vehicle frame target, advanced once per epoch.
    frames_target: u64,
    /// Per-sender plane-sequence replay windows (envelope dedup).
    windows: BTreeMap<usize, EnvelopeWindow>,
    /// Heartbeat-driven limp-home machine (followers only).
    health: PlatoonHealth,
    /// Whether a ladder-accepted lead heartbeat arrived this epoch.
    heard_heartbeat: bool,
    /// Lead: per-vehicle OTA delivery tracking for ack/retransmit.
    ota_pending: BTreeMap<usize, OtaDelivery>,
    /// Lead: backoff-jitter stream, separate from the speed-profile rng.
    backoff_rng: DetRng,
}

/// The lead's bookkeeping for one vehicle's OTA delivery.
#[derive(Debug, Clone, Copy)]
struct OtaDelivery {
    /// The rollout wave the delivery belongs to (kept on retransmits).
    wave: u64,
    /// Sends so far (1 = the initial wave unicast).
    attempts: u32,
    /// Earliest epoch the next retransmit may fire.
    next_attempt: u64,
    /// Whether a valid ack arrived.
    acked: bool,
    /// Whether the retry budget ran out.
    gave_up: bool,
}

impl V2xVehicle {
    fn build(cfg: &V2xConfig, shard: usize, engine: Arc<PolicyEngine>) -> Self {
        let car = Vehicle::build(&cfg.fleet, shard, engine);
        let store = DevicePolicyStore::new(PolicySet::from_policy(car_policy()), OEM_KEY.to_vec());
        // One ingest engine per simulated vehicle: the compact footprint
        // (a 256-slot cache and 64-record audit rings, vs PolicyEngine::new's
        // 8k-slot cache and 16k-record rings) keeps a hundred-vehicle run out
        // of allocator churn.
        let ingest = PolicyEngine::compact(store.active().clone());
        V2xVehicle {
            shard,
            is_attacker: Some(shard) == cfg.attacker(),
            car,
            v2x_key: HmacKey::new(FLEET_V2X_KEY),
            tally: V2xTally::default(),
            anomaly: AnomalyCounters::default(),
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
            windows: BTreeMap::new(),
            health: PlatoonHealth::new(cfg.heartbeat_miss_limit, cfg.heartbeat_clean_limit),
            heard_heartbeat: false,
            ota_pending: BTreeMap::new(),
            backoff_rng: DetRng::stream(cfg.fleet.seed ^ V2X_BACKOFF_SALT, shard as u64),
        }
    }

    /// One epoch: consume the inbox, emit this epoch's mail, then run the
    /// in-vehicle traffic slice (so relayed frames traverse the gateway
    /// and reach the ECU within the same epoch).
    fn epoch(&mut self, cfg: &V2xConfig, rollout: &SignedBundle, ctx: &mut EpochCtx<'_, V2xMsg>) {
        let mut digest = 0xCBF2_9CE4_8422_2325u64; // FNV offset basis
        for env in ctx.inbox {
            digest = envelope_digest(digest, env);
        }
        self.heard_heartbeat = false;
        let inbox = ctx.inbox;
        for env in inbox {
            // Envelope dedup rung: duplicated or long-stale deliveries of
            // any message kind are dropped before a handler can act twice.
            if cfg.defenses.replay_window {
                match self.windows.entry(env.from).or_default().check(env.seq) {
                    SeqVerdict::Duplicate => {
                        self.tally.dedup_dropped += 1;
                        continue;
                    }
                    SeqVerdict::Stale => {
                        self.tally.dedup_stale += 1;
                        continue;
                    }
                    SeqVerdict::Fresh => {}
                }
            }
            match &env.msg {
                V2xMsg::Platoon(p) => self.on_platoon(cfg, env.from, p),
                V2xMsg::Ota { payload, signature_hex, wave } => {
                    self.on_ota(env.from, payload, signature_hex, *wave, ctx.outbox)
                }
                V2xMsg::OtaAck { version } => self.on_ota_ack(cfg, env.from, *version),
            }
        }
        // Pin this vehicle's inbox (content and order) into the
        // deterministic metrics; masked to 32 bits, which bounds the digest
        // histogram's bucket array to the buckets below 2^32.
        self.tally.inbox_digest.record(digest & 0xFFFF_FFFF);

        if self.shard == cfg.lead() {
            self.emit_lead(cfg, rollout, ctx);
        } else {
            self.track_heartbeat();
        }
        if Some(self.shard) == cfg.attacker() {
            self.emit_attacks(cfg, ctx);
        }

        self.frames_target += cfg.frames_per_epoch;
        let target = self.frames_target;
        self.car.run_until(&cfg.fleet, target);
    }

    /// The replay window for a claimed lead index (0 when none accepted).
    fn lead_window(&self, lead: u32) -> u32 {
        self.lead_windows.get(&lead).copied().unwrap_or(0)
    }

    /// The follower's four-rung acceptance ladder.
    fn on_platoon(&mut self, cfg: &V2xConfig, from: usize, msg: &PlatoonMsg) {
        let is_attack = Some(from) == cfg.attacker() && from != self.shard;
        if self.is_attacker && !is_attack {
            // the compromised member records authentic traffic as future
            // replay/tamper material
            self.captured_platoon = Some(*msg);
        }
        if self.shard == cfg.lead() {
            self.tally.lead_ignored += 1;
            return;
        }
        let attack = u64::from(is_attack);
        self.tally.received += 1;

        let authentic = msg.verify_with(&self.v2x_key);
        if cfg.defenses.auth && !authentic {
            self.tally.rejected_auth += 1;
            self.tally.blocked_attacks += attack;
            return;
        }
        if cfg.defenses.replay_window {
            if msg.seq <= self.lead_window(msg.lead) {
                self.tally.rejected_replay += 1;
                self.tally.blocked_attacks += attack;
                return;
            }
            // The window tracks the *authenticated* stream only: advance on
            // any tag-valid message (even one the policy rung later denies —
            // a denied message must not stay replayable), but never on a
            // forged one. With the auth rung disabled a forged fresh-looking
            // sequence number is still accepted below (that rung's leak),
            // yet it cannot poison the window and lock out the legitimate
            // lead — window bookkeeping keyed on attacker-controlled values
            // would be no window at all.
            if authentic {
                self.lead_windows.insert(msg.lead, msg.seq);
            }
        }
        if cfg.defenses.policy_check {
            let request = AccessRequest::new(
                claimed_entity(msg.claimed),
                Asset::V2xPlatoon.entity(),
                Action::Write,
            );
            let now_us = self.car.now().as_micros();
            if !self.ingest.decide_at(&request, &self.ctx, now_us).is_allow() {
                self.tally.rejected_policy += 1;
                self.tally.blocked_attacks += attack;
                return;
            }
        }
        if cfg.defenses.anomaly {
            // Behavioural rung: judge the advertised kinematics against the
            // per-signal models (range, rate-of-change, stuck-value,
            // brake/speed consistency). Flagged samples never advance the
            // monitor baseline, so an attacker cannot walk the reference
            // point toward an implausible value.
            let verdict = self.platoon.judge(msg.speed, msg.brake);
            self.anomaly.tally(verdict);
            if verdict.flagged() {
                self.tally.rejected_anomaly += 1;
                self.tally.blocked_attacks += attack;
                return;
            }
        }
        self.tally.accepted += 1;
        // ground truth: an attacker-originated message made it through
        self.tally.leaked += attack;
        // Heartbeat liveness is keyed on the *transport* sender shard, not
        // message content: only the real lead's accepted broadcasts feed
        // the limp-home machine, so an accepted attacker message under a
        // weakened ladder can neither silence nor fake the heartbeat.
        if from == cfg.lead() {
            self.heard_heartbeat = true;
        }
        self.car.relay_v2x(msg.speed, msg.brake, msg.seq as u16);
    }

    /// Follower-side heartbeat sampling: advances the limp-home hysteresis
    /// machine once per epoch and relays transitions onto the in-vehicle
    /// network (telematics → gateway → EV-ECU degraded envelope).
    fn track_heartbeat(&mut self) {
        let heard = self.heard_heartbeat;
        if self.health.joined() && !heard {
            self.tally.heartbeat_misses += 1;
        }
        match self.health.on_epoch(heard) {
            Some(LimpTransition::Enter) => {
                self.tally.degraded_entries += 1;
                self.car.relay_v2x_health(true);
            }
            Some(LimpTransition::Exit) => {
                self.tally.degraded_exits += 1;
                self.car.relay_v2x_health(false);
            }
            None => {}
        }
        if self.health.degraded() {
            self.tally.degraded_epochs += 1;
        }
    }

    /// The device-side OTA path: verify, version-check, swap the
    /// ingestion policy, and acknowledge deliveries whose content the
    /// store now holds (applied or already-newer) back to the sender.
    fn on_ota(
        &mut self,
        from: usize,
        payload: &[u8],
        signature_hex: &str,
        wave: u64,
        outbox: &mut Outbox<V2xMsg>,
    ) {
        let signed = SignedBundle::from_parts(payload.to_vec(), signature_hex.to_string());
        match self.store.apply(&signed) {
            Ok(()) => {
                if self.is_attacker && self.captured_ota.is_none() {
                    self.captured_ota = Some((payload.to_vec(), signature_hex.to_string()));
                }
                self.ingest = PolicyEngine::compact(self.store.active().clone());
                self.tally.ota_applied += 1;
                self.tally.ota_applied_wave.record(wave);
                outbox.unicast(from, V2xMsg::OtaAck { version: self.store.version() });
                self.tally.ota_acks_sent += 1;
            }
            Err(PolicyError::BadSignature) => self.tally.ota_rejected_signature += 1,
            Err(PolicyError::StaleVersion { .. }) => {
                self.tally.ota_rejected_stale += 1;
                // Idempotent re-delivery (a retransmit that crossed the
                // first ack in flight, or a duplicated envelope under a
                // weakened dedup rung): the store already holds this or a
                // newer version, so the delivery goal is met — ack so the
                // sender stops retransmitting. Unverifiable bundles are
                // never acknowledged.
                outbox.unicast(from, V2xMsg::OtaAck { version: self.store.version() });
                self.tally.ota_acks_sent += 1;
            }
            Err(_) => self.tally.ota_rejected_malformed += 1,
        }
    }

    /// Lead-side ack bookkeeping; non-lead vehicles (e.g. the attacker
    /// collecting acks for its fleet-wide stale replay) ignore them.
    fn on_ota_ack(&mut self, cfg: &V2xConfig, from: usize, version: u64) {
        if self.shard != cfg.lead() || version == 0 {
            self.tally.ota_ack_ignored += 1;
            return;
        }
        match self.ota_pending.get_mut(&from) {
            Some(d) if !d.acked => {
                d.acked = true;
                self.tally.ota_acks += 1;
            }
            Some(_) => self.tally.ota_ack_redundant += 1,
            None => self.tally.ota_ack_ignored += 1,
        }
    }

    /// The lead's per-epoch output: one authenticated platoon broadcast
    /// (its heartbeat), this epoch's OTA rollout wave, and any due
    /// retransmits of unacknowledged deliveries.
    fn emit_lead(&mut self, cfg: &V2xConfig, rollout: &SignedBundle, ctx: &mut EpochCtx<'_, V2xMsg>) {
        let outage = cfg
            .lead_outage
            .is_some_and(|(from, until)| ctx.epoch >= from && ctx.epoch < until);
        if outage {
            // The lead is silent (tunnel, crash, jamming): followers see
            // missed heartbeats and the limp-home hysteresis takes over.
            // The profile draws still happen, so runs differing only in
            // the outage window stay stream-aligned.
            let _ = self.rng.next_below(21);
            let _ = self.rng.chance(0.2);
            self.tally.lead_outage_epochs += 1;
        } else {
            self.lead_seq += 1;
            let speed = 60 + self.rng.next_below(21) as u8; // 60..=80 km/h
            let brake = self.rng.chance(0.2);
            let msg = PlatoonMsg::signed_with(
                &self.v2x_key,
                self.shard as u32,
                self.lead_seq,
                speed,
                brake,
                CLAIM_V2X_LEAD,
            );
            ctx.outbox.broadcast(PLATOON_GROUP, V2xMsg::Platoon(msg));
            self.tally.lead_broadcasts += 1;
        }

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
                    self.tally.ota_staged += 1;
                    self.ota_pending.insert(
                        v,
                        OtaDelivery {
                            wave: ctx.epoch,
                            attempts: 1,
                            next_attempt: ctx.epoch + OTA_ACK_RTT_EPOCHS,
                            acked: false,
                            gave_up: false,
                        },
                    );
                }
            }
        }
        self.retransmit_ota(cfg, rollout, ctx);
    }

    /// Retransmits unacknowledged OTA deliveries whose backoff expired,
    /// with bounded retries. The k-th retransmit waits the ack RTT plus
    /// `min(2^(k-1), cap) - 1` extra epochs plus one pinned 0/1 jitter
    /// epoch — deterministic exponential backoff that desynchronises
    /// retries without a wall clock.
    fn retransmit_ota(
        &mut self,
        cfg: &V2xConfig,
        rollout: &SignedBundle,
        ctx: &mut EpochCtx<'_, V2xMsg>,
    ) {
        for (&v, d) in self.ota_pending.iter_mut() {
            if d.acked || d.gave_up || ctx.epoch < d.next_attempt {
                continue;
            }
            if d.attempts > cfg.ota_retry_limit {
                d.gave_up = true;
                self.tally.ota_gave_up += 1;
                continue;
            }
            ctx.outbox.unicast(
                v,
                V2xMsg::Ota {
                    payload: rollout.payload().to_vec(),
                    signature_hex: rollout.signature_hex().to_string(),
                    wave: d.wave,
                },
            );
            let k = d.attempts; // 1-based retransmit number
            let extra = (1u64 << u64::from((k - 1).min(31))).min(OTA_BACKOFF_CAP_EPOCHS) - 1;
            let jitter = self.backoff_rng.next_below(2);
            d.next_attempt = ctx.epoch + OTA_ACK_RTT_EPOCHS + extra + jitter;
            d.attempts += 1;
            self.tally.ota_retransmits += 1;
        }
    }

    /// The compromised member's output: rotating platoon attack variants,
    /// plus the tampered and stale OTA replays at fixed epochs.
    fn emit_attacks(&mut self, cfg: &V2xConfig, ctx: &mut EpochCtx<'_, V2xMsg>) {
        match ctx.epoch % 5 {
            0 => {
                // Spoofed lead: a fresh-looking emergency-brake order with
                // a forged tag (the attacker does not hold the fleet key).
                let seq = self.lead_window(cfg.lead() as u32) + 100 + ctx.epoch as u32;
                let forged = PlatoonMsg {
                    lead: cfg.lead() as u32,
                    seq,
                    speed: 0,
                    brake: true,
                    claimed: CLAIM_V2X_LEAD,
                    tag: 0xDEAD_BEEF_0BAD_F00D ^ u64::from(seq),
                };
                ctx.outbox.broadcast(PLATOON_GROUP, V2xMsg::Platoon(forged));
                self.tally.attack_spoof += 1;
            }
            1 => {
                // Replayed broadcast: an authentic captured message, sent
                // again verbatim (valid tag, stale sequence number).
                if let Some(captured) = self.captured_platoon {
                    ctx.outbox.broadcast(PLATOON_GROUP, V2xMsg::Platoon(captured));
                    self.tally.attack_replay += 1;
                }
            }
            2 => {
                // Tampered payload: a captured message with the speed field
                // rewritten but the original tag kept.
                if let Some(mut tampered) = self.captured_platoon {
                    tampered.speed = 0;
                    tampered.brake = true;
                    ctx.outbox.broadcast(PLATOON_GROUP, V2xMsg::Platoon(tampered));
                    self.tally.attack_tamper += 1;
                }
            }
            3 => {
                // Spoofed "resume" blast: a burst of forged fresh-looking
                // heartbeats trying to short-circuit a degraded follower's
                // M-clean-heartbeat recovery (or to mask a real outage).
                // The forged tags die at the auth rung, and the limp-home
                // machine only samples transport-authenticated lead
                // traffic — so the hysteresis is unaffected.
                let base = self.lead_window(cfg.lead() as u32) + 500 + ctx.epoch as u32;
                for i in 0..3 {
                    let seq = base + i;
                    let forged = PlatoonMsg {
                        lead: cfg.lead() as u32,
                        seq,
                        speed: 80,
                        brake: false,
                        claimed: CLAIM_V2X_LEAD,
                        tag: 0x0BAD_5EED_FACE_0FF5 ^ u64::from(seq),
                    };
                    ctx.outbox.broadcast(PLATOON_GROUP, V2xMsg::Platoon(forged));
                }
                self.tally.attack_spoof_resume += 1;
            }
            _ => {
                // Value spoof: the compromised member broadcasts under its
                // *own* identity with the real fleet key — a valid tag, a
                // fresh per-identity sequence stream, and a claim the
                // post-rollout policy allows. Every identity-centred rung
                // passes; only the behavioural rung can tell 240 km/h is
                // not a plausible platoon speed (Table I row 2 lifted onto
                // the V2X plane).
                self.value_spoof_seq += 1;
                let msg = PlatoonMsg::signed_with(
                    &self.v2x_key,
                    self.shard as u32,
                    self.value_spoof_seq,
                    IMPLAUSIBLE_SPEED_KMH,
                    false,
                    CLAIM_V2X_LEAD,
                );
                ctx.outbox.broadcast(PLATOON_GROUP, V2xMsg::Platoon(msg));
                self.tally.attack_value_spoof += 1;
            }
        }

        if ctx.epoch == cfg.tamper_epoch() {
            if let Some((payload, sig)) = self.captured_ota.clone() {
                let mut tampered = payload;
                if let Some(b) = tampered.last_mut() {
                    *b ^= 0x01;
                }
                for v in 0..cfg.fleet.vehicles {
                    ctx.outbox.unicast(
                        v,
                        V2xMsg::Ota {
                            payload: tampered.clone(),
                            signature_hex: sig.clone(),
                            wave: u64::MAX,
                        },
                    );
                    self.tally.ota_attack_tampered += 1;
                }
            }
        }
        if ctx.epoch == cfg.stale_epoch() {
            if let Some((payload, sig)) = self.captured_ota.clone() {
                for v in 0..cfg.fleet.vehicles {
                    ctx.outbox.unicast(
                        v,
                        V2xMsg::Ota {
                            payload: payload.clone(),
                            signature_hex: sig.clone(),
                            wave: u64::MAX,
                        },
                    );
                    self.tally.ota_attack_stale += 1;
                }
            }
        }
    }

    /// Seals the vehicle: its store version (so the replay checks also pin
    /// the rollout outcome per vehicle) and the ECU's platoon state land in
    /// its tally, its car is folded into the tally's `car`, and the anomaly
    /// rung's verdicts are added to the car's `anomaly.*` counters.
    fn finish(self) -> V2xTally {
        let mut t = self.tally;
        let version = self.store.version();
        t.ota_version_sum += version;
        t.ota_final_version.record(version);
        // how many relayed platoon frames survived the in-vehicle path
        // (gateway whitelist, segment + node HPEs) and reached the ECU
        {
            let ecu = crate::components::lock(&self.car.states().ecu);
            t.ecu_platoon_msgs += u64::from(ecu.platoon_msgs);
            t.ecu_degraded_events += u64::from(ecu.degraded_events);
            t.ecu_resumed_events += u64::from(ecu.resumed_events);
            t.ecu_still_degraded += u64::from(ecu.degraded);
        }
        t.car = self.car.into_tally();
        t.car.add_anomaly(&self.anomaly);
        t
    }
}

/// The outcome of a V2X run.
#[derive(Debug, Clone)]
pub struct V2xReport {
    /// The deterministic metrics: a pure function of the configuration.
    pub metrics: MetricSet,
    /// Wall-clock measurements and shared-engine statistics.
    pub wall: MetricSet,
    /// Number of vehicles.
    pub vehicles: usize,
    /// Number of epochs.
    pub epochs: u64,
    /// Wall-clock duration in seconds.
    pub elapsed_sec: f64,
}

impl V2xReport {
    /// Total frames the fleet's in-vehicle buses carried.
    pub fn frames(&self) -> u64 {
        self.metrics.counter("frames.transmitted")
    }

    /// Attacker-originated platoon messages accepted by a follower.
    pub fn v2x_leaked(&self) -> u64 {
        self.metrics.counter("v2x.leaked")
    }

    /// In-vehicle attack frames that reached an application (the fleet
    /// engine's leak metric, unchanged).
    pub fn leaked(&self) -> u64 {
        self.metrics.counter("attack.leaked")
    }
}

/// Runs the platooning + OTA-rollout scenario.
///
/// # Panics
/// Panics when `epochs` leaves no room for the rollout (and, with attacks
/// on, the tamper/stale tail plus one full attack rotation):
/// `epochs >= ota_waves + 5` with attacks, `>= ota_waves + 1` without.
pub fn run_v2x(cfg: &V2xConfig) -> V2xReport {
    let needed = cfg.ota_waves + if cfg.attacks { 5 } else { 1 };
    assert!(
        cfg.epochs >= needed,
        "epochs {} too short for {} rollout waves (need >= {needed})",
        cfg.epochs,
        cfg.ota_waves
    );
    let engine = Arc::new(PolicyEngine::new(v2x_shared_policy_set()));
    let rollout = rollout_bundle().sign(OEM_KEY);
    let mut plane = MessagePlane::new();
    plane.group(PLATOON_GROUP, 0..cfg.fleet.vehicles);
    if let Some(capacity) = cfg.inbox_capacity {
        plane.bound_inboxes(capacity);
    }

    let started = Instant::now();
    let mut tally = V2xTally::default();
    let mut metrics = run_epochs_faulted(
        cfg.fleet.vehicles,
        cfg.fleet.threads,
        cfg.epochs,
        &plane,
        cfg.faults.as_ref(),
        |shard| V2xVehicle::build(cfg, shard, Arc::clone(&engine)),
        |vehicle, ctx| vehicle.epoch(cfg, &rollout, ctx),
        |vehicle, _| tally.fold(vehicle.finish()),
    );
    let elapsed_sec = started.elapsed().as_secs_f64();
    tally.render_into(&mut metrics);
    let mut wall = metrics.split_off_prefix("wall.");
    for (name, value) in engine.stats().as_pairs() {
        wall.count(&format!("engine.{name}"), value);
    }
    V2xReport {
        metrics,
        wall,
        vehicles: cfg.fleet.vehicles,
        epochs: cfg.epochs,
        elapsed_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(vehicles: usize) -> V2xConfig {
        let mut cfg = V2xConfig::new(vehicles, 8, 120);
        cfg.fleet.threads = 2;
        cfg
    }

    #[test]
    fn platoon_tag_is_key_and_field_sensitive() {
        let m = PlatoonMsg::signed(FLEET_V2X_KEY, 0, 1, 60, false, CLAIM_V2X_LEAD);
        assert!(m.verify(FLEET_V2X_KEY));
        assert!(!m.verify(b"other-key"));
        let mut tampered = m;
        tampered.speed = 0;
        assert!(!tampered.verify(FLEET_V2X_KEY), "field change breaks the tag");
        let mut reclaimed = m;
        reclaimed.claimed = CLAIM_INFOTAINMENT;
        assert!(!reclaimed.verify(FLEET_V2X_KEY), "claimed origin is covered");
    }

    #[test]
    fn rollout_bundle_round_trips_and_tampering_is_detected() {
        let signed = rollout_bundle().sign(OEM_KEY);
        let back = signed.verify(OEM_KEY).unwrap();
        assert_eq!(back.version, 1);
        assert!(back.policies.iter().any(|p| p.name() == "v2x-platoon"));
        assert!(signed.tampered().verify(OEM_KEY).is_err());
    }

    #[test]
    fn full_defences_block_every_v2x_attack_and_rollout_completes() {
        let cfg = tiny(5);
        let report = run_v2x(&cfg);
        let m = &report.metrics;
        assert_eq!(report.v2x_leaked(), 0, "no attacker message may be accepted");
        assert!(m.counter("v2x.accepted") > 0, "legit platooning works post-rollout");
        assert!(
            m.counter("v2x.ecu_platoon_msgs") > 0,
            "relayed broadcasts must cross the gateway + HPEs into the ECU"
        );
        assert!(m.counter("v2x.rejected_auth") > 0, "spoof/tamper die at auth");
        assert!(m.counter("v2x.rejected_replay") > 0, "replay dies at the window");
        assert!(
            m.counter("v2x.rejected_policy") > 0,
            "pre-rollout messages die at the policy rung"
        );
        assert!(m.counter("v2x.attack.value_spoof") > 0, "the value spoof fired");
        assert!(
            m.counter("v2x.rejected_anomaly") > 0,
            "the key-holding value spoof dies at the behavioural rung"
        );
        // every vehicle applied exactly the one legitimate rollout bundle
        assert_eq!(m.counter("ota.applied"), 5);
        assert_eq!(m.counter("ota.version_sum"), 5);
        // the tampered and stale replays were rejected fleet-wide
        assert_eq!(m.counter("ota.attack.tampered"), 5);
        assert_eq!(m.counter("ota.rejected_signature"), 5);
        assert_eq!(m.counter("ota.attack.stale"), 5);
        assert_eq!(m.counter("ota.rejected_stale"), 5);
        // and the in-vehicle fleet ladder still holds
        assert_eq!(report.leaked(), 0);
    }

    #[test]
    fn undefended_plane_leaks_attacker_messages() {
        let mut cfg = tiny(5);
        cfg.defenses = V2xDefenses::none();
        let report = run_v2x(&cfg);
        assert!(report.v2x_leaked() > 0, "no defences must leak");
        // the rollout still completes: the OTA path's signature check is
        // the update mechanism itself, not a configurable rung
        assert_eq!(report.metrics.counter("ota.applied"), 5);
    }

    #[test]
    fn auth_alone_stops_spoof_and_tamper_but_not_replay() {
        let mut cfg = tiny(5);
        cfg.defenses = V2xDefenses {
            auth: true,
            replay_window: false,
            policy_check: false,
            anomaly: false,
        };
        let report = run_v2x(&cfg);
        // replayed authentic broadcasts get through; forged ones do not
        assert!(report.v2x_leaked() > 0);
        assert!(report.metrics.counter("v2x.rejected_auth") > 0);
    }

    #[test]
    fn replay_is_thread_count_invariant() {
        let cfg = tiny(6);
        let a = run_v2x(&cfg);
        for threads in [1, 4] {
            let mut variant = cfg.clone();
            variant.fleet.threads = threads;
            let b = run_v2x(&variant);
            assert_eq!(
                a.metrics.to_json(),
                b.metrics.to_json(),
                "threads={threads} changed the deterministic section"
            );
        }
    }

    /// ≥30% drop plus duplication, 2-epoch delays and reordering — the
    /// chaos-bench plan, scaled down.
    fn chaos_plan(seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        plan.drop = 0.3;
        plan.duplicate = 0.2;
        plan.delay = 0.25;
        plan.max_delay_epochs = 2;
        plan.reorder = 0.2;
        plan
    }

    #[test]
    fn envelope_window_dedups_and_tracks_reordering() {
        let mut w = EnvelopeWindow::default();
        assert_eq!(w.check(0), SeqVerdict::Fresh);
        assert_eq!(w.check(0), SeqVerdict::Duplicate);
        assert_eq!(w.check(2), SeqVerdict::Fresh);
        assert_eq!(w.check(1), SeqVerdict::Fresh, "reordered gap arrival");
        assert_eq!(w.check(1), SeqVerdict::Duplicate);
        assert_eq!(w.check(2), SeqVerdict::Duplicate);
        assert_eq!(w.check(100), SeqVerdict::Fresh);
        assert_eq!(w.check(36), SeqVerdict::Stale, "fell off the 64-wide window");
        assert_eq!(w.check(37), SeqVerdict::Fresh, "still inside the window");
    }

    #[test]
    fn faulted_rollout_completes_without_double_apply_and_is_thread_invariant() {
        // Attacks off: this test isolates fault tolerance (the adversarial
        // ladder is exercised separately; under ≥30% loss an attacker
        // replaying an authentic broadcast its victim never saw is
        // indistinguishable from the network re-delivering it — see
        // DESIGN.md §10 on the replay-window/loss interaction).
        let mut cfg = V2xConfig::new(6, 20, 100);
        cfg.fleet.threads = 2;
        cfg.attacks = false;
        cfg.ota_retry_limit = 10;
        cfg.inbox_capacity = Some(64);
        cfg.faults = Some(chaos_plan(0xC405));
        let a = run_v2x(&cfg);
        let m = &a.metrics;
        assert!(m.counter("plane.dropped") > 0, "the plan must actually drop");
        assert!(m.counter("plane.duplicated") > 0);
        assert!(m.counter("plane.delayed") > 0);
        assert!(
            m.counter("ota.retransmits") > 0,
            "lost deliveries must be retransmitted"
        );
        assert_eq!(m.counter("ota.gave_up"), 0, "retry budget suffices");
        assert_eq!(m.counter("ota.applied"), 6, "rollout completes under loss");
        assert_eq!(m.counter("ota.version_sum"), 6, "…exactly once per vehicle");
        assert_eq!(m.counter("ota.acks"), 6);
        assert_eq!(a.v2x_leaked(), 0);
        assert_eq!(m.counter("plane.inbox_overflow"), 0, "bound is generous");
        assert!(m.counter("plane.inbox_peak") <= 64);
        for threads in [1, 4] {
            let mut variant = cfg.clone();
            variant.fleet.threads = threads;
            let b = run_v2x(&variant);
            assert_eq!(
                a.metrics.to_json(),
                b.metrics.to_json(),
                "threads={threads} changed the faulted deterministic section"
            );
        }
    }

    #[test]
    fn duplicated_envelopes_are_idempotent_and_leak_nothing() {
        // Duplicate + reorder only (no loss): every delivery arrives, so
        // the full adversarial rotation can run while the dedup rung keeps
        // handlers idempotent — no OTA double-apply, no platoon flapping,
        // and the replay window still rejects the attacker verbatim.
        let mut cfg = tiny(5);
        cfg.epochs = 10;
        let mut plan = FaultPlan::new(0xD0_D0);
        plan.duplicate = 1.0;
        plan.reorder = 0.5;
        cfg.faults = Some(plan);
        let report = run_v2x(&cfg);
        let m = &report.metrics;
        assert!(m.counter("plane.duplicated") > 0);
        assert!(m.counter("v2x.dedup_dropped") > 0, "duplicates die at dedup");
        assert_eq!(report.v2x_leaked(), 0);
        assert_eq!(m.counter("ota.applied"), 5, "no double-apply");
        assert_eq!(m.counter("ota.version_sum"), 5);
        assert_eq!(m.counter("v2x.degraded_entries"), 0, "no flapping without outage");
        assert!(m.counter("v2x.attack.spoof_resume") > 0);
    }

    #[test]
    fn lead_outage_drives_limp_home_with_hysteresis_and_spoofed_resume_fails() {
        let mut cfg = V2xConfig::new(6, 16, 100);
        cfg.fleet.threads = 2;
        cfg.lead_outage = Some((4, 8));
        let report = run_v2x(&cfg);
        let m = &report.metrics;
        let followers = 5; // everyone but the lead, attacker included
        assert_eq!(m.counter("v2x.lead_outage_epochs"), 4);
        // heartbeats heard at epochs 1..=4, missed at 5..=8 (sends 4..=7
        // suppressed), heard again from 9: with miss_limit 3 every follower
        // enters limp-home at epoch 7, and with clean_limit 2 exits at 10.
        assert_eq!(m.counter("v2x.heartbeat_misses"), 4 * followers);
        assert_eq!(m.counter("v2x.degraded_entries"), followers);
        assert_eq!(m.counter("v2x.degraded_exits"), followers);
        assert_eq!(m.counter("v2x.degraded_epochs"), 3 * followers);
        // the degraded envelope reached every follower's EV-ECU through
        // the gateway + HPE path, and was lifted again
        assert_eq!(m.counter("v2x.ecu_degraded_events"), followers);
        assert_eq!(m.counter("v2x.ecu_resumed_events"), followers);
        assert_eq!(m.counter("v2x.ecu_still_degraded"), 0);
        // the spoofed resume blast fired during the outage and died at the
        // auth rung without touching the hysteresis
        assert!(m.counter("v2x.attack.spoof_resume") > 0);
        assert_eq!(report.v2x_leaked(), 0);
        assert_eq!(m.counter("ota.applied"), 6, "rollout unaffected by outage");
    }

    #[test]
    fn fault_free_runs_never_retransmit() {
        let cfg = tiny(5);
        let report = run_v2x(&cfg);
        let m = &report.metrics;
        assert_eq!(m.counter("ota.retransmits"), 0);
        assert_eq!(m.counter("ota.gave_up"), 0);
        assert_eq!(m.counter("ota.acks"), 5, "every delivery acked first try");
        assert_eq!(m.counter("plane.dropped"), 0);
        assert_eq!(m.counter("v2x.degraded_entries"), 0);
    }

    #[test]
    fn counter_key_set_is_identical_across_every_defence_subset() {
        // The seed-drawn attack profile is the one intended difference.
        let keys = |defenses: V2xDefenses| -> Vec<String> {
            let mut cfg = V2xConfig::new(6, 10, 100);
            cfg.fleet.threads = 2;
            cfg.defenses = defenses;
            let report = run_v2x(&cfg);
            report
                .metrics
                .counters()
                .map(|(k, _)| k.to_string())
                .filter(|k| !k.starts_with("attack.profile."))
                .collect()
        };
        let full = keys(V2xDefenses::full());
        for bits in 0..16u8 {
            let defenses = V2xDefenses {
                auth: bits & 1 != 0,
                replay_window: bits & 2 != 0,
                policy_check: bits & 4 != 0,
                anomaly: bits & 8 != 0,
            };
            assert_eq!(keys(defenses), full, "{}", defenses.label());
        }
    }

    #[test]
    fn defence_labels() {
        assert_eq!(V2xDefenses::full().label(), "auth+replay+policy+anomaly");
        assert_eq!(V2xDefenses::none().label(), "none");
    }

    #[test]
    fn value_spoof_dies_at_the_anomaly_rung_and_leaks_without_it() {
        // Rung-removal experiment (Table I row 2 on the V2X plane): the
        // value spoof carries a valid fleet-key tag, a fresh per-identity
        // sequence stream and a policy-allowed claim, so auth, replay and
        // policy all pass it — only the behavioural rung stops it.
        let report = run_v2x(&tiny(5));
        assert_eq!(report.v2x_leaked(), 0);
        assert!(report.metrics.counter("v2x.rejected_anomaly") > 0);
        assert!(report.metrics.counter("anomaly.out_of_range") > 0);

        let mut removed = tiny(5);
        removed.defenses.anomaly = false;
        let report = run_v2x(&removed);
        assert!(
            report.v2x_leaked() > 0,
            "without the behavioural rung the implausible broadcast is accepted"
        );
        assert_eq!(report.metrics.counter("v2x.rejected_anomaly"), 0);
    }

    #[test]
    fn value_spoof_cannot_poison_the_real_leads_replay_window() {
        // The attacker's authentic value-spoof stream runs under its own
        // claimed lead index; per-identity replay windows keep the real
        // lead's heartbeat stream unaffected, so no follower ever enters
        // limp-home in a fault-free full-defence run.
        let mut cfg = tiny(5);
        cfg.defenses.anomaly = false; // spoof stream is *accepted*…
        let report = run_v2x(&cfg);
        let m = &report.metrics;
        assert!(report.v2x_leaked() > 0);
        assert_eq!(
            m.counter("v2x.degraded_entries"),
            0,
            "…yet the lead's heartbeats keep flowing"
        );
        assert_eq!(m.counter("v2x.heartbeat_misses"), 0);
    }

    #[test]
    fn epoch_guard_panics_on_short_runs() {
        let result = std::panic::catch_unwind(|| {
            let mut cfg = V2xConfig::new(3, 2, 50);
            cfg.ota_waves = 3;
            run_v2x(&cfg)
        });
        assert!(result.is_err());
    }
}
