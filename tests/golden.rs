//! Golden deterministic sections.
//!
//! Four small runs whose `MetricSet::to_json()` output is pinned byte for
//! byte in `tests/golden/*.json`. Between them they cover the HPE telemetry
//! and verdict cycles, the bus time that every frame's stuffed wire length
//! adds up to, wire corruption, the gateway and per-rung counters, and the
//! V2X plane, ladder and OTA counters, so a refactor that claims "no
//! behaviour change" is checked against recorded output rather than
//! against itself. `tests/golden/e1_matrix.txt` pins the single-bus car's
//! E1 attack matrix the same way: every cell's outcome and enforcement
//! evidence, not only whether the attack was blocked.
//! `tests/golden/ladder_matrix.txt` pins the analyzer's Layer-2 coverage
//! matrix and findings under every fleet rung subset.
//!
//! A fixture may only be regenerated for an intended behaviour change, and
//! the reason goes into CHANGES.md. The new content is the `left` side of a
//! failing assertion plus a trailing newline: one line for a JSON section,
//! one line per cell for the E1 matrix.

use polsec::analyze::{analyze_ladder, LadderSpec};
use polsec::car::fleet::{run_fleet, FleetConfig, FleetEnforcement, FleetErrorModel};
use polsec::car::v2x::{run_v2x, V2xConfig};
use polsec::car::{AttackId, EnforcementConfig, ScenarioRunner};
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

/// Every Table I attack in its natural mode under the six standard
/// configurations plus `full+anomaly`, one cell per line.
fn e1_matrix() -> String {
    let runner = ScenarioRunner::new(42);
    let mut configs = ScenarioRunner::standard_configs().to_vec();
    configs.push(EnforcementConfig::full_with_anomaly());
    let mut out = String::new();
    for attack in AttackId::ALL {
        for &config in &configs {
            let r = runner.run(attack, attack.natural_mode(), config);
            out.push_str(&format!(
                "{} {} {} {} hpe_blocked={} policy_rejections={} tamper_attempts={}\n",
                r.threat_id,
                r.mode,
                r.config,
                r.outcome,
                r.hpe_blocked,
                r.policy_rejections,
                r.tamper_attempts
            ));
        }
    }
    out
}

/// Layer 2's coverage matrix and findings under each of the 32
/// `FleetEnforcement` subsets, one header line per subset.
fn ladder_matrix() -> String {
    let mut out = String::new();
    for bits in 0..32u8 {
        let enforcement = FleetEnforcement {
            gateway_whitelist: bits & 1 != 0,
            node_hpe: bits & 2 != 0,
            segment_hpe: bits & 4 != 0,
            app_policy: bits & 8 != 0,
            anomaly: bits & 16 != 0,
        };
        let result = analyze_ladder(&LadderSpec::with_enforcement(enforcement));
        out.push_str(&format!("== {}\n", enforcement.label()));
        out.push_str(&result.matrix_text());
        out.push_str(&result.report.to_text());
    }
    out
}

fn assert_golden(file: &str, actual: String) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "{file}: deterministic section drifted from {path}"
    );
}

#[test]
fn deterministic_sections_match_the_golden_fixtures() {
    assert_golden("fleet_shipped.json", fleet_shipped());
    assert_golden("fleet_baseline_errors.json", fleet_baseline_errors());
    assert_golden("v2x_full.json", v2x_full());
    assert_golden("v2x_chaos.json", v2x_chaos());
}

#[test]
fn e1_attack_matrix_matches_the_golden_fixture() {
    assert_golden("e1_matrix.txt", e1_matrix());
}

#[test]
fn ladder_coverage_matrix_matches_the_golden_fixture() {
    assert_golden("ladder_matrix.txt", ladder_matrix());
}
