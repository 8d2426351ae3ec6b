//! Every rung subset keeps its counter shape and its bytes.
//!
//! A small fleet runs under each of the 32 `FleetEnforcement` subsets, the
//! baseline with the wire error model and a run whose vehicles never tick;
//! a small V2X run, attacks on, runs under each of the 16 `V2xDefenses`
//! subsets. Every run's deterministic section is pinned by the FNV-32
//! digest of its `to_json()` (the digest stackbench prints), recorded
//! before the run's metrics were folded from typed tallies, and every
//! ticking run of a family has the same counter keys apart from the drawn
//! attack profiles. Between them the runs exercise each presence rule of
//! the rendered sections: counters rendered always, only when non-zero
//! (`ota.*`, `v2x.attack.*`, `v2x.lead_ignored`, `attack.profile.*`) or
//! only when a vehicle ticked (`frames.consumed`, `sim.ticks`), histograms
//! only where a value was observed, and `anomaly.*` summed from the ECU
//! monitor and the V2X anomaly rung. A digest may only change for an
//! intended behaviour change, with its reason in CHANGES.md.

use polsec::car::fleet::{run_fleet, FleetConfig, FleetEnforcement, FleetErrorModel};
use polsec::car::v2x::{run_v2x, V2xConfig, V2xDefenses};
use polsec::sim::MetricSet;

/// FNV-1a over the bytes, folded to 32 bits: stackbench's
/// `deterministic_digest`.
fn fnv32(json: &str) -> u32 {
    let h = json.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    });
    (h ^ (h >> 32)) as u32
}

/// The counter keys of a run, less the seed-drawn attack profiles.
fn shape(m: &MetricSet) -> Vec<String> {
    m.counters()
        .map(|(k, _)| k.to_string())
        .filter(|k| !k.starts_with("attack.profile."))
        .collect()
}

/// Frames each vehicle of a fleet run carries: enough for every vehicle to
/// tick, and for inside implants to activate.
const FRAMES: u64 = 400;

fn fleet_subset(bits: u8) -> FleetEnforcement {
    FleetEnforcement {
        gateway_whitelist: bits & 1 != 0,
        node_hpe: bits & 2 != 0,
        segment_hpe: bits & 4 != 0,
        app_policy: bits & 8 != 0,
        anomaly: bits & 16 != 0,
    }
}

fn fleet(
    enforcement: FleetEnforcement,
    frames: u64,
    error_model: Option<FleetErrorModel>,
) -> MetricSet {
    let mut cfg = FleetConfig::new(5, frames);
    cfg.seed = 0x5B5E7;
    cfg.threads = 2;
    cfg.inside_attack_chance = 0.5;
    cfg.enforcement = enforcement;
    cfg.error_model = error_model;
    run_fleet(&cfg).metrics
}

fn v2x(defenses: V2xDefenses) -> MetricSet {
    let mut cfg = V2xConfig::new(5, 9, 60);
    cfg.fleet.seed = 0x5B5E7;
    cfg.fleet.threads = 2;
    cfg.defenses = defenses;
    run_v2x(&cfg).metrics
}

/// Counter keys of a ticking fleet run besides its `attack.profile.*`
/// keys, one per drawn outside kind plus `inside` when an implant was
/// drawn.
const FLEET_KEYS: usize = 40;
/// The same for a V2X run: the fleet's keys, the plane's and the ladder's
/// and rollout's.
const V2X_KEYS: usize = 92;

/// Digests of the 32 fleet subsets, indexed by [`fleet_subset`]'s bits.
const FLEET_DIGESTS: [u32; 32] = [
    68914201, 2614643059, 778799257, 2934354687, 2526012822, 2526012822, 196515699, 196515699,
    3136251636, 232267464, 353057750, 2934354687, 2737516422, 2737516422, 196515699, 196515699,
    2206141942, 3961301004, 3644296763, 117474317, 1548620083, 1548620083, 3342479400, 3342479400,
    3200162069, 4106812172, 2022217200, 117474317, 3253360664, 3253360664, 3342479400, 3342479400,
];
/// The baseline with a 2% wire error model.
const FLEET_ERRORS_DIGEST: u32 = 1285403429;
/// The shipped ladder with a zero frame quota: no vehicle ticks.
const FLEET_IDLE_DIGEST: u32 = 3640169310;
/// Digests of the 16 V2X defence subsets: auth, replay window, policy
/// check and anomaly from the low bit up.
const V2X_DIGESTS: [u32; 16] = [
    1853816976, 3199201866, 2409597475, 3640804308, 2016455634, 1493446042, 861535585, 1327855534,
    3973398104, 4108631500, 822502227, 247749350, 4035498464, 3959591158, 294582694, 2585270958,
];

#[test]
fn every_fleet_rung_subset_keeps_its_counter_shape_and_bytes() {
    let reference = shape(&fleet(FleetEnforcement::shipped(), FRAMES, None));
    assert_eq!(reference.len(), FLEET_KEYS, "{reference:?}");
    let mut digests = Vec::new();
    for bits in 0..32u8 {
        let enforcement = fleet_subset(bits);
        let m = fleet(enforcement, FRAMES, None);
        assert_eq!(shape(&m), reference, "{}", enforcement.label());
        digests.push(fnv32(&m.to_json()));
    }
    let errors = fleet(
        FleetEnforcement::baseline(),
        FRAMES,
        Some(FleetErrorModel {
            probability: 0.02,
            target_ids: Vec::new(),
        }),
    );
    assert_eq!(shape(&errors), reference, "baseline with errors");
    let idle = fleet(FleetEnforcement::shipped(), 0, None);
    let ticking_only = ["frames.consumed", "sim.ticks"];
    let idle_shape: Vec<String> = reference
        .iter()
        .filter(|k| !ticking_only.contains(&k.as_str()))
        .cloned()
        .collect();
    assert_eq!(shape(&idle), idle_shape, "a run whose vehicles never tick");
    assert_eq!(digests, FLEET_DIGESTS);
    assert_eq!(fnv32(&errors.to_json()), FLEET_ERRORS_DIGEST);
    assert_eq!(fnv32(&idle.to_json()), FLEET_IDLE_DIGEST);
}

#[test]
fn every_v2x_defence_subset_keeps_its_counter_shape_and_bytes() {
    let reference = shape(&v2x(V2xDefenses::full()));
    assert_eq!(reference.len(), V2X_KEYS, "{reference:?}");
    let mut digests = Vec::new();
    for bits in 0..16u8 {
        let defenses = V2xDefenses {
            auth: bits & 1 != 0,
            replay_window: bits & 2 != 0,
            policy_check: bits & 4 != 0,
            anomaly: bits & 8 != 0,
        };
        let m = v2x(defenses);
        assert_eq!(shape(&m), reference, "{}", defenses.label());
        digests.push(fnv32(&m.to_json()));
    }
    assert_eq!(digests, V2X_DIGESTS);
}
