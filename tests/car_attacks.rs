//! Integration: the E1 attack matrix invariants that realise the paper's
//! claims, across all crates at once.

use polsec::car::{AttackId, AttackOutcome, CarMode, EnforcementConfig, ScenarioRunner};

#[test]
fn unprotected_car_loses_everything() {
    let runner = ScenarioRunner::new(11);
    for attack in AttackId::ALL {
        let r = runner.run(attack, attack.natural_mode(), EnforcementConfig::none());
        assert_eq!(r.outcome, AttackOutcome::Succeeded, "{attack}");
    }
}

#[test]
fn software_filters_alone_do_not_survive_firmware_compromise() {
    // the paper's §V.B.2 premise, measured
    let runner = ScenarioRunner::new(11);
    for attack in AttackId::ALL {
        let r = runner.run(attack, attack.natural_mode(), EnforcementConfig::software_only());
        assert_eq!(r.outcome, AttackOutcome::Succeeded, "{attack}");
    }
}

#[test]
fn hpe_blocks_every_unauthorized_identifier_attack_with_evidence() {
    let runner = ScenarioRunner::new(11);
    let hpe_covered = [
        AttackId::SpoofEcuDisable,
        AttackId::FailsafeOverride,
        AttackId::EpsDeactivate,
        AttackId::ModemModification,
        AttackId::ModemDisableOutside,
        AttackId::ModemDisableInside,
        AttackId::InfotainmentEscalation,
        AttackId::AlarmDisable,
    ];
    for attack in hpe_covered {
        let r = runner.run(attack, attack.natural_mode(), EnforcementConfig::hpe_only());
        assert_eq!(r.outcome, AttackOutcome::Blocked, "{attack}");
        assert!(r.hpe_blocked > 0, "{attack}: block must leave hpe telemetry");
    }
}

#[test]
fn compromises_always_leave_tamper_evidence_on_hpe() {
    let runner = ScenarioRunner::new(11);
    // every inside attack replaces firmware, which attempts reconfiguration
    for attack in [AttackId::SpoofEcuDisable, AttackId::EngineSensorSpoof, AttackId::RadioPrivacyExfil]
    {
        let r = runner.run(attack, attack.natural_mode(), EnforcementConfig::hpe_only());
        assert!(r.tamper_attempts > 0, "{attack}");
    }
}

#[test]
fn full_defence_mitigates_all_but_the_documented_gap() {
    let runner = ScenarioRunner::new(11);
    let mut unmitigated = Vec::new();
    for attack in AttackId::ALL {
        let r = runner.run(attack, attack.natural_mode(), EnforcementConfig::full());
        if r.outcome == AttackOutcome::Succeeded {
            unmitigated.push(attack.threat_id());
        }
    }
    assert_eq!(unmitigated, vec!["t2"], "only the value-spoof gap remains");
}

#[test]
fn defence_layers_compose_monotonically() {
    // full enforcement is never *worse* than any single layer
    let runner = ScenarioRunner::new(11);
    for attack in AttackId::ALL {
        let full = runner.run(attack, attack.natural_mode(), EnforcementConfig::full());
        for config in [
            EnforcementConfig::app_only(),
            EnforcementConfig::hpe_only(),
            EnforcementConfig::mac_only(),
        ] {
            let single = runner.run(attack, attack.natural_mode(), config);
            if !single.outcome.is_success() {
                assert!(
                    !full.outcome.is_success(),
                    "{attack}: {} mitigates but full does not",
                    config.label()
                );
            }
        }
    }
}

#[test]
fn mode_scoping_turns_attacks_into_service_actions() {
    // the same EPS write is blocked in normal mode but legitimate during
    // remote diagnostics — policies are mode-scoped, not blanket
    let runner = ScenarioRunner::new(11);
    let blocked = runner.run(AttackId::EpsDeactivate, CarMode::Normal, EnforcementConfig::app_only());
    assert_eq!(blocked.outcome, AttackOutcome::Blocked);
    let allowed = runner.run(
        AttackId::EpsDeactivate,
        CarMode::RemoteDiagnostic,
        EnforcementConfig::app_only(),
    );
    assert_eq!(allowed.outcome, AttackOutcome::Succeeded, "service writes are permitted in diag mode");
}

#[test]
fn legitimate_operation_unharmed_under_full_enforcement() {
    use polsec::car::components::lock;
    use polsec::car::CarBuilder;
    let mut car = CarBuilder::new().enforcement(EnforcementConfig::full()).build();
    car.set_moving(true);
    car.step(10);
    let states = car.states();
    assert!(lock(&states.ecu).propulsion_enabled);
    assert!(lock(&states.eps).assist_enabled);
    assert!(lock(&states.engine).running);
    assert!(lock(&states.telematics).modem_enabled);
    assert!(lock(&states.telematics).track_reports >= 10);
    assert_eq!(lock(&states.infotainment).displayed_speed, 60);
    // no false positives: nothing rejected during clean runs
    assert_eq!(car.states().rejected_commands(), 0);
}
