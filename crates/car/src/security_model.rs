//! The car's threat model and derived policy.
//!
//! [`car_use_case`] assembles the paper's §V use case (assets, entry
//! points, modes, the sixteen Table I threats); [`car_security_model`] runs
//! it through the Fig. 1 pipeline; [`car_policy`] is the enforceable policy
//! the car ships with — authored in the DSL, covering the Table I
//! read/write columns **plus** the situational and behavioural rules the
//! paper sketches (mode guards, vehicle state, rate limits).

use crate::threats::table1_threats;
use polsec_core::dsl::parse_policy;
use polsec_core::{compile_security_model, Policy};
use polsec_model::{
    Asset, Criticality, EntryPoint, InterfaceKind, SecurityModel, ThreatModelPipeline, UseCase,
};
use std::sync::OnceLock;

/// Builds the connected-car use case of the paper's §V.
///
/// # Panics
/// Never: the embedded model is validated by this crate's tests.
pub fn car_use_case() -> UseCase {
    let mut builder = UseCase::builder("connected car")
        .description(
            "A connected car with interconnected systems of differing criticality: \
             vehicle controls, sensor-based critical safety, infotainment, telematics \
             and cellular network access (paper §V).",
        )
        .asset(
            Asset::new("ev-ecu", "EV-ECU", Criticality::SafetyCritical)
                .with_description("accel, brake, transmission"),
        )
        .asset(
            Asset::new("eps", "EPS (Steering)", Criticality::SafetyCritical)
                .with_description("electronic power steering"),
        )
        .asset(Asset::new("engine", "Engine", Criticality::High))
        .asset(
            Asset::new("3g-4g-wifi", "3G/4G/WiFi", Criticality::High)
                .with_description("telematics, remote tracking, emergency comms"),
        )
        .asset(Asset::new("infotainment", "Infotainment System", Criticality::Medium))
        .asset(Asset::new("door-locks", "Door locks", Criticality::High))
        .asset(Asset::new("safety-critical", "Safety Critical", Criticality::SafetyCritical))
        .entry_point(EntryPoint::new("door-locks", "Door locks", InterfaceKind::Bus))
        .entry_point(EntryPoint::new(
            "safety-critical",
            "Safety critical",
            InterfaceKind::Bus,
        ))
        .entry_point(EntryPoint::new("sensors", "Sensors", InterfaceKind::Sensor))
        .entry_point(EntryPoint::new("telematics", "3G/4G/WiFi", InterfaceKind::Network))
        .entry_point(EntryPoint::new("any-node", "Any node", InterfaceKind::Bus))
        .entry_point(EntryPoint::new("ev-ecu", "EV-ECU", InterfaceKind::Bus))
        .entry_point(EntryPoint::new(
            "infotainment",
            "Infotainment system",
            InterfaceKind::UserInterface,
        ))
        .entry_point(EntryPoint::new("emergency", "Emergency", InterfaceKind::Bus))
        .entry_point(EntryPoint::new("air-bags", "Air bags", InterfaceKind::Bus))
        .entry_point(EntryPoint::new(
            "media-browser",
            "Media player browser",
            InterfaceKind::UserInterface,
        ))
        .entry_point(EntryPoint::new("manual", "Manual open", InterfaceKind::Physical))
        .mode("normal")
        .mode("remote diagnostic")
        .mode("fail-safe");
    for t in table1_threats() {
        builder = builder.threat(t);
    }
    builder.build().expect("the embedded car model is internally consistent")
}

/// Runs the Fig. 1 pipeline over the car use case.
pub fn car_security_model() -> SecurityModel {
    ThreatModelPipeline::new().run(&car_use_case())
}

/// The policy compiled mechanically from the Table I permission column.
///
/// # Panics
/// Never for the embedded model.
pub fn car_table_policy() -> Policy {
    compile_security_model(&car_security_model(), "car-table1", 1)
        .expect("table-derived specs compile")
}

/// The text of the car's shipped policy (DSL).
pub const CAR_POLICY_DSL: &str = r#"
policy "car-baseline" version 1 {
    default deny;

    // --- EV-ECU (Table I rows 1-4): read-only for everyone; writes only
    //     from diagnostics during service, or from the safety system once a
    //     crash is established. Telematics may never write (fail-safe
    //     override, row 4).
    allow read on asset:ev-ecu from entry:* as ecu-read;
    allow write on asset:ev-ecu from entry:diagnostics
        when mode == "remote diagnostic" as ecu-service;
    allow write on asset:ev-ecu from entry:safety-critical
        when state.crash == true as ecu-crash-stop;
    deny write on asset:ev-ecu from entry:telematics priority 10 as ecu-no-remote;

    // --- EPS (row 5): read-only; service writes only in diagnostics mode.
    allow read on asset:eps from entry:* as eps-read;
    allow write on asset:eps from entry:diagnostics
        when mode == "remote diagnostic" as eps-service;

    // --- Engine (row 6): same shape as EPS.
    allow read on asset:engine from entry:* as engine-read;
    allow write on asset:engine from entry:diagnostics
        when mode == "remote diagnostic" as engine-service;

    // --- Telematics / modem (rows 3, 7-10): modem reconfiguration only from
    //     the physical switch; tracking control from the network only while
    //     the car is not flagged stolen.
    allow read on asset:3g-4g-wifi from entry:* as modem-read;
    allow configure on asset:3g-4g-wifi from entry:manual as modem-switch;
    allow configure on asset:3g-4g-wifi from entry:diagnostics
        when mode == "remote diagnostic" as modem-service;
    allow write on asset:3g-4g-wifi from entry:telematics
        when state.stolen == false as tracking-control;

    // --- Infotainment (rows 11-12): the user interface may operate its own
    //     unit; it gets no write path to anything else (default deny).
    allow read on asset:infotainment from entry:* as info-read;
    allow write, execute on asset:infotainment from entry:infotainment-ui
        as info-ui;

    // --- Door locks (rows 13-14): manual always; remote only while
    //     stationary, never during a crash, and rate-limited against
    //     unlock flooding.
    allow read on asset:door-locks from entry:* as locks-read;
    allow write on asset:door-locks from entry:manual as locks-manual;
    allow write on asset:door-locks from entry:telematics
        when state.vehicle.moving == false && state.crash == false
             && rate(door-lock-cmd) <= 5 as locks-remote;
    allow write on asset:door-locks from entry:safety-critical
        when state.crash == true as locks-crash-release;

    // --- Safety-critical system (rows 15-16): alarm control is physical-key
    //     only.
    allow read on asset:safety-critical from entry:* as safety-read;
    allow write on asset:safety-critical from entry:manual as alarm-key;
}
"#;

/// The shipped car policy, parsed on the first call in the process; every
/// call returns a clone that shares the parsed rules.
///
/// # Panics
/// Never: the embedded DSL is parsed in tests.
pub fn car_policy() -> Policy {
    static POLICY: OnceLock<Policy> = OnceLock::new();
    POLICY
        .get_or_init(|| parse_policy(CAR_POLICY_DSL).expect("embedded car policy parses"))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polsec_core::{AccessRequest, Action, EntityId, EvalContext, PolicyEngine};
    use polsec_model::report::render_threat_table;

    fn req(entry: &str, asset: &str, action: Action) -> AccessRequest {
        AccessRequest::new(
            EntityId::new("entry", entry),
            EntityId::new("asset", asset),
            action,
        )
    }

    #[test]
    fn use_case_builds_and_has_table1() {
        let uc = car_use_case();
        assert_eq!(uc.assets().len(), 7);
        assert_eq!(uc.threats().len(), 16);
        assert_eq!(uc.modes().len(), 3);
        assert_eq!(uc.entry_points().len(), 11);
    }

    #[test]
    fn security_model_produces_policy_specs_for_all_threats() {
        let model = car_security_model();
        assert_eq!(model.policy_specs().len(), 16);
        assert_eq!(model.guidelines().len(), 16);
        assert_eq!(model.stages().len(), 6);
    }

    #[test]
    fn threat_table_renders_paper_values() {
        let table = render_threat_table(&car_use_case());
        assert!(table.contains("8,5,4,6,4 (5.4)"));
        assert!(table.contains("8,6,7,8,5 (6.8)"));
        assert!(table.contains("STIDE"));
        assert!(table.contains("| RW |"));
        assert_eq!(table.lines().count(), 2 + 16, "header + separator + 16 rows");
    }

    #[test]
    fn shipped_policy_parses_and_compiled_policy_builds() {
        let p = car_policy();
        assert!(p.len() >= 18);
        let compiled = car_table_policy();
        assert!(compiled.len() >= 16);
    }

    #[test]
    fn ecu_is_read_only_in_normal_mode() {
        let e = PolicyEngine::from_policy(car_policy());
        let ctx = EvalContext::new().with_mode("normal");
        assert!(e.decide(&req("sensors", "ev-ecu", Action::Read), &ctx).is_allow());
        assert!(!e.decide(&req("sensors", "ev-ecu", Action::Write), &ctx).is_allow());
        assert!(!e
            .decide(&req("telematics", "ev-ecu", Action::Write), &ctx)
            .is_allow());
    }

    #[test]
    fn diagnostics_mode_opens_service_writes() {
        let e = PolicyEngine::from_policy(car_policy());
        let diag = EvalContext::new().with_mode("remote diagnostic");
        let normal = EvalContext::new().with_mode("normal");
        for asset in ["ev-ecu", "eps", "engine"] {
            assert!(e.decide(&req("diagnostics", asset, Action::Write), &diag).is_allow());
            assert!(!e.decide(&req("diagnostics", asset, Action::Write), &normal).is_allow());
        }
    }

    #[test]
    fn crash_state_gates_safety_stop_and_lock_release() {
        let e = PolicyEngine::from_policy(car_policy());
        let quiet = EvalContext::new().with_mode("normal").with_state("crash", "false");
        let crash = EvalContext::new().with_mode("fail-safe").with_state("crash", "true");
        assert!(!e
            .decide(&req("safety-critical", "ev-ecu", Action::Write), &quiet)
            .is_allow());
        assert!(e
            .decide(&req("safety-critical", "ev-ecu", Action::Write), &crash)
            .is_allow());
        assert!(e
            .decide(&req("safety-critical", "door-locks", Action::Write), &crash)
            .is_allow());
    }

    #[test]
    fn remote_unlock_conditions_match_rows_13_14() {
        let e = PolicyEngine::from_policy(car_policy());
        let parked = EvalContext::new()
            .with_mode("normal")
            .with_state("vehicle.moving", "false")
            .with_state("crash", "false");
        let moving = EvalContext::new()
            .with_mode("normal")
            .with_state("vehicle.moving", "true")
            .with_state("crash", "false");
        let r = req("telematics", "door-locks", Action::Write);
        assert!(e.decide(&r, &parked).is_allow());
        assert!(!e.decide(&r, &moving).is_allow());
        assert!(e.decide(&req("manual", "door-locks", Action::Write), &moving).is_allow());
    }

    #[test]
    fn telematics_never_writes_ecu_even_in_failsafe() {
        // row 4: fail-safe override must stay denied in every mode
        let e = PolicyEngine::from_policy(car_policy());
        for mode in ["normal", "remote diagnostic", "fail-safe"] {
            let ctx = EvalContext::new().with_mode(mode).with_state("crash", "true");
            assert!(
                !e.decide(&req("telematics", "ev-ecu", Action::Write), &ctx).is_allow(),
                "{mode}"
            );
        }
    }

    #[test]
    fn decides_walk_only_matching_rules_and_cache_what_state_cannot_change() {
        let e = PolicyEngine::from_policy(car_policy());
        let ctx = EvalContext::new()
            .with_mode("normal")
            .with_state("vehicle.moving", "false")
            .with_state("crash", "false");
        let cache = |e: &PolicyEngine| (e.stats().cache_hits, e.stats().cache_misses);

        // Telematics' own rules read state, but none covers a read of the
        // EV-ECU, so the decision is cached.
        let read = req("telematics", "ev-ecu", Action::Read);
        assert!(e.decide(&read, &ctx).is_allow());
        assert_eq!(cache(&e), (0, 1));
        assert!(e.decide(&read, &ctx).is_allow());
        assert_eq!(cache(&e), (1, 1));

        // locks-remote covers this write and reads state and a rate: every
        // decide walks the rules again.
        let unlock = req("telematics", "door-locks", Action::Write);
        for _ in 0..2 {
            assert_eq!(e.decide(&unlock, &ctx).rule(), Some("car-baseline.locks-remote"));
        }
        assert_eq!(cache(&e), (1, 1));

        // No rule names the sensors, so a read of the EV-ECU examines the
        // EV-ECU's one `entry:*` rule and none of the other assets'.
        let before = e.stats().rules_examined;
        let d = e.decide(&req("sensors", "ev-ecu", Action::Read), &ctx);
        assert_eq!(d.rule(), Some("car-baseline.ecu-read"));
        assert_eq!(e.stats().rules_examined - before, 1);
    }

    #[test]
    fn dsl_and_compiled_policies_agree_on_read_vectors() {
        // The hand-authored policy must be at least as strict as the
        // mechanically compiled Table I policy on the read-only assets.
        let dsl = PolicyEngine::from_policy(car_policy());
        let compiled = PolicyEngine::from_policy(car_table_policy());
        let ctx = EvalContext::new().with_mode("normal");
        for (entry, asset) in [
            ("sensors", "ev-ecu"),
            ("door-locks", "ev-ecu"),
            ("any-node", "eps"),
            ("sensors", "engine"),
        ] {
            let r = req(entry, asset, Action::Read);
            assert_eq!(
                dsl.decide(&r, &ctx).is_allow(),
                compiled.decide(&r, &ctx).is_allow(),
                "{entry}->{asset}"
            );
        }
    }
}
