//! Integration: the fleet-scale scenario engine end to end.
//!
//! Exercises the full stack — `polsec-car` vehicles (two CAN segments +
//! gateway from `polsec-can`, HPEs from `polsec-hpe`, the shared
//! `polsec-core` engine) sharded over `polsec-sim`'s deterministic runner —
//! and pins the determinism contract and the enforcement outcomes the
//! `fleet` bench binary relies on.

use polsec::car::fleet::{run_fleet, FleetConfig, FleetEnforcement};
use polsec::car::{car_policy, Vehicle};
use polsec::policy::PolicyEngine;
use std::sync::Arc;

fn small(enforcement: FleetEnforcement) -> FleetConfig {
    let mut cfg = FleetConfig::new(6, 600);
    cfg.enforcement = enforcement;
    cfg.threads = 3;
    cfg
}

#[test]
fn baseline_fleet_reaches_quota_and_blocks_every_attack() {
    let report = run_fleet(&small(FleetEnforcement::baseline()));
    assert!(report.frames() >= 6 * 600);
    assert_eq!(report.metrics.counter("fleet.vehicles"), 6);
    assert!(report.metrics.counter("attack.injected") > 0);
    assert_eq!(report.leaked(), 0, "baseline policy must leak nothing");
    // normal traffic still flows across the segment boundary
    assert!(report.metrics.counter("gateway.crossed") > 0);
    assert!(report.metrics.counter("frames.consumed") > 0);
    // every crossing with a policy mapping was judged by the shared engine
    assert!(report.metrics.counter("policy.checked") > 0);
    // verdict-cost quantiles are populated and deterministic
    let hist = report
        .metrics
        .histogram("verdict.cycles")
        .expect("segment HPEs sample verdict cycles");
    assert!(hist.count() > 0);
}

#[test]
fn replay_is_byte_identical_and_thread_count_invariant() {
    let cfg = small(FleetEnforcement::baseline());
    let a = run_fleet(&cfg);
    let b = run_fleet(&cfg);
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    for threads in [1, 8] {
        let mut variant = cfg.clone();
        variant.threads = threads;
        let c = run_fleet(&variant);
        assert_eq!(
            a.metrics.to_json(),
            c.metrics.to_json(),
            "thread count {threads} must not change the metrics"
        );
    }
}

#[test]
fn enforcement_ladder_monotonically_reduces_leaks() {
    let none = run_fleet(&small(FleetEnforcement::none()));
    let gw_only = run_fleet(&small(FleetEnforcement {
        gateway_whitelist: true,
        ..FleetEnforcement::none()
    }));
    let full = run_fleet(&small(FleetEnforcement::baseline()));
    assert!(none.leaked() > 0, "unprotected fleet must leak");
    assert!(
        gw_only.leaked() < none.leaked(),
        "segmentation alone must already cut leaks ({} vs {})",
        gw_only.leaked(),
        none.leaked()
    );
    assert_eq!(full.leaked(), 0);
}

#[test]
fn gateway_whitelist_blocks_crossing_attacks_but_not_status_traffic() {
    let report = run_fleet(&small(FleetEnforcement {
        gateway_whitelist: true,
        ..FleetEnforcement::none()
    }));
    assert_eq!(
        report.metrics.counter("attack.crossed_gateway"),
        0,
        "no attack frame may cross a whitelisted gateway"
    );
    assert!(report.metrics.counter("gateway.crossed") > 0);
    assert!(report.metrics.counter("gateway.dropped") > 0, "attack ids are dropped");
}

#[test]
fn single_vehicle_is_a_pure_function_of_seed_and_index() {
    let cfg = FleetConfig::new(4, 400);
    let engine = Arc::new(PolicyEngine::from_policy(car_policy()));
    let run_one = |index: usize| {
        let mut metrics = Vehicle::build(&cfg, index, Arc::clone(&engine)).run(&cfg);
        // wall-clock samples are outside the determinism contract
        metrics.split_off_prefix("wall.");
        metrics.to_json()
    };
    assert_eq!(run_one(2), run_one(2), "same index replays identically");
    assert_ne!(run_one(0), run_one(1), "distinct vehicles get distinct streams");
}

#[test]
fn shared_engine_serves_the_whole_fleet() {
    let cfg = small(FleetEnforcement::baseline());
    let report = run_fleet(&cfg);
    let decisions = report.wall.counter("engine.decisions");
    let checked = report.metrics.counter("policy.checked");
    assert_eq!(
        decisions, checked,
        "every fleet-level check goes through the one shared engine"
    );
    // the interned-entity cache works across vehicles: far fewer misses
    // than decisions
    let misses = report.wall.counter("engine.cache_misses");
    assert!(
        misses * 10 < decisions,
        "cross-vehicle cache hits expected (misses={misses}, decisions={decisions})"
    );
}
