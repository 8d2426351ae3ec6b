//! Golden deterministic sections.
//!
//! Four small runs whose `MetricSet::to_json()` output is pinned byte for
//! byte in `tests/golden/*.json`. Between them they cover the HPE telemetry
//! and verdict cycles, the bus time that every frame's stuffed wire length
//! adds up to, wire corruption, the gateway and per-rung counters, and the
//! V2X plane, ladder and OTA counters, so a refactor that claims "no
//! behaviour change" is checked against recorded output rather than
//! against itself.
//!
//! A fixture may only be regenerated for an intended behaviour change, and
//! the reason goes into CHANGES.md. The new content is the `left` side of a
//! failing assertion, written as one line plus a trailing newline.

use polsec::car::fleet::{run_fleet, FleetConfig, FleetEnforcement, FleetErrorModel};
use polsec::car::v2x::{run_v2x, V2xConfig};
use polsec::sim::FaultPlan;

fn fleet(enforcement: FleetEnforcement, error_model: Option<FleetErrorModel>) -> String {
    let mut cfg = FleetConfig::new(4, 500);
    cfg.enforcement = enforcement;
    cfg.error_model = error_model;
    cfg.threads = 2;
    run_fleet(&cfg).metrics.to_json()
}

fn fleet_shipped() -> String {
    fleet(FleetEnforcement::shipped(), None)
}

fn fleet_baseline_errors() -> String {
    let errors = FleetErrorModel {
        probability: 0.02,
        target_ids: Vec::new(),
    };
    fleet(FleetEnforcement::baseline(), Some(errors))
}

fn v2x_full() -> String {
    let mut cfg = V2xConfig::new(6, 10, 100);
    cfg.fleet.threads = 2;
    run_v2x(&cfg).metrics.to_json()
}

/// The chaos-bench fault plan (30% drop, duplication, two-epoch delays,
/// reordering) with attacks off, as the chaos harness runs it.
fn v2x_chaos() -> String {
    let mut plan = FaultPlan::new(0xC405);
    plan.drop = 0.30;
    plan.duplicate = 0.20;
    plan.delay = 0.25;
    plan.max_delay_epochs = 2;
    plan.reorder = 0.20;
    let mut cfg = V2xConfig::new(6, 20, 100);
    cfg.fleet.threads = 2;
    cfg.attacks = false;
    cfg.ota_retry_limit = 10;
    cfg.inbox_capacity = Some(64);
    cfg.faults = Some(plan);
    run_v2x(&cfg).metrics.to_json()
}

fn assert_golden(name: &str, actual: String) {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        actual,
        expected.trim_end(),
        "{name}: deterministic section drifted from {path}"
    );
}

#[test]
fn deterministic_sections_match_the_golden_fixtures() {
    assert_golden("fleet_shipped", fleet_shipped());
    assert_golden("fleet_baseline_errors", fleet_baseline_errors());
    assert_golden("v2x_full", v2x_full());
    assert_golden("v2x_chaos", v2x_chaos());
}
