//! Layer-1 integration tests: fixture KATs, shipped-bundle regressions,
//! strict OTA load gating, a solver soundness property, and bounded search
//! time on conditions built to make the searches exponential.

use polsec_analyze::{
    analyze_set, analyze_with_engine, satisfiable, strict_validator, AnalysisOptions,
    FindingKind, Severity,
};
use polsec_car::security_model::car_table_policy;
use polsec_car::v2x::{rollout_bundle, v2x_shared_policy_set};
use polsec_car::car_policy;
use polsec_core::dsl::parse_policies;
use polsec_core::{
    Condition, EvalContext, LoadMode, PolicyBundle, PolicyEngine, PolicyError, PolicySet,
    RateSource,
};
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn analyze_fixture(src: &str) -> polsec_analyze::Report {
    let set: PolicySet = parse_policies(src)
        .expect("fixture parses")
        .into_iter()
        .collect();
    analyze_with_engine(&set, &AnalysisOptions::default())
}

// --- Fixture KATs: each seeded defect is detected, exactly. ---

#[test]
fn kat_shadowed_deny() {
    let report = analyze_fixture(include_str!("../fixtures/shadowed_deny.polsec"));
    let shadows = report.of_kind(FindingKind::ShadowedRule);
    assert_eq!(shadows.len(), 1, "{}", report.to_text());
    assert_eq!(shadows[0].rule_ids, vec!["p.service", "p.no-writes"]);
    assert_eq!(report.max_severity(), Some(Severity::Warning));
    assert!(report.gates(true) && !report.gates(false));
}

#[test]
fn kat_contradiction() {
    let report = analyze_fixture(include_str!("../fixtures/contradiction.polsec"));
    let contradictions = report.of_kind(FindingKind::Contradiction);
    assert_eq!(contradictions.len(), 1, "{}", report.to_text());
    assert_eq!(
        contradictions[0].rule_ids,
        vec!["p.remote-open", "p.no-remote-open"]
    );
    assert!(report.of_kind(FindingKind::ShadowedRule).is_empty());
    assert!(report.gates(false), "contradictions always gate");
}

#[test]
fn kat_mode_unreachable() {
    let report = analyze_fixture(include_str!("../fixtures/mode_unreachable.polsec"));
    let unreachable = report.of_kind(FindingKind::UnreachableMode);
    assert_eq!(unreachable.len(), 1, "{}", report.to_text());
    assert_eq!(unreachable[0].rule_ids, vec!["p.factory-flash"]);
    assert!(unreachable[0].explanation.contains("factory"));
}

#[test]
fn kat_dead_rate() {
    let report = analyze_fixture(include_str!("../fixtures/dead_rate.polsec"));
    let unsat = report.of_kind(FindingKind::UnsatisfiableCondition);
    assert_eq!(unsat.len(), 1, "{}", report.to_text());
    assert_eq!(unsat[0].rule_ids, vec!["p.dead-window"]);
    assert!(unsat[0].explanation.contains("rate window is empty"));
}

#[test]
fn kat_clean() {
    let report = analyze_fixture(include_str!("../fixtures/clean.polsec"));
    assert!(report.is_clean(), "{}", report.to_text());
}

// --- Hostile conditions: each search answers in bounded time. ---

/// Analyzes a fixture on its own thread, so a search that runs away fails
/// the test instead of hanging it.
fn analyze_fixture_within(src: &'static str, limit: Duration) -> polsec_analyze::Report {
    let worker = std::thread::spawn(move || analyze_fixture(src));
    let deadline = Instant::now() + limit;
    while !worker.is_finished() {
        assert!(
            Instant::now() < deadline,
            "the analysis took longer than {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    worker
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

#[test]
fn kat_deep_disjunction_folds_conjuncts_before_branching() {
    let report = analyze_fixture_within(
        include_str!("../fixtures/deep_disjunction.polsec"),
        Duration::from_secs(30),
    );
    let unsat = report.of_kind(FindingKind::UnsatisfiableCondition);
    assert_eq!(unsat.len(), 1, "{}", report.to_text());
    assert_eq!(unsat[0].rule_ids, vec!["p.two-modes"]);
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
}

#[test]
fn kat_deep_nesting_stays_clean_within_the_step_budget() {
    let report = analyze_fixture_within(
        include_str!("../fixtures/deep_nesting.polsec"),
        Duration::from_secs(30),
    );
    assert!(report.is_clean(), "{}", report.to_text());
}

// --- Shipped-bundle regressions: what the repo ships stays lint-clean. ---

#[test]
fn shipped_car_policy_is_lint_clean() {
    let set = PolicySet::from_policy(car_policy());
    let report = analyze_with_engine(&set, &AnalysisOptions::default());
    assert!(report.is_clean(), "{}", report.to_text());
}

#[test]
fn shipped_v2x_bundles_are_lint_clean() {
    for (name, set) in [
        ("v2x-shared", v2x_shared_policy_set()),
        (
            "v2x-rollout",
            rollout_bundle().policies.into_iter().collect(),
        ),
    ] {
        let report = analyze_with_engine(&set, &AnalysisOptions::default());
        assert!(report.is_clean(), "{name}: {}", report.to_text());
    }
}

/// The paper's Table I itself contains one conflicting row pair — rows 15
/// (R) and 16 (W) both constrain `safety-critical` from `sensors` in
/// normal mode. The runtime resolves it with deny-overrides
/// (`tests/end_to_end.rs` documents the dynamic behaviour); the analyzer
/// must rediscover the same conflict *statically*, as exactly one
/// contradiction pair per direction and nothing else.
#[test]
fn table1_policy_contradiction_is_detected_statically() {
    let set = PolicySet::from_policy(car_table_policy());
    let report = analyze_with_engine(&set, &AnalysisOptions::default());
    let contradictions = report.of_kind(FindingKind::Contradiction);
    assert_eq!(contradictions.len(), 2, "{}", report.to_text());
    for f in &contradictions {
        assert!(
            f.witness.contains("entry:sensors -> asset:safety-critical"),
            "unexpected contradiction witness: {}",
            f.witness
        );
    }
    assert_eq!(report.count(Severity::Error), 2);
}

// --- Strict OTA loads: a defective bundle is vetoed before the swap. ---

#[test]
fn strict_load_vetoes_a_shadowed_bundle_and_keeps_the_old_policies() {
    let key = b"fleet-ota-key";
    let mut engine = PolicyEngine::new(PolicySet::from_policy(car_policy()));
    let generation = engine.cache_generation();

    let bad = parse_policies(include_str!("../fixtures/shadowed_deny.polsec"))
        .expect("fixture parses");
    let signed = PolicyBundle::new(7, "bad ota", bad).sign(key);

    let validator = strict_validator(AnalysisOptions::default(), true);
    let err = engine
        .load_bundle(&signed, key, LoadMode::Strict(&validator))
        .expect_err("the shadowed bundle must be vetoed");
    match err {
        PolicyError::AnalysisRejected { detail } => {
            assert!(detail.contains("shadowed-rule"), "{detail}");
        }
        other => panic!("expected AnalysisRejected, got {other:?}"),
    }
    // The veto happened before the swap: policies and cache generation kept.
    assert_eq!(engine.cache_generation(), generation);
    assert_eq!(
        engine.policy_set().policies().len(),
        1,
        "engine still holds the original car policy"
    );

    // Without --deny-warnings a warning-only bundle loads fine.
    let lenient = strict_validator(AnalysisOptions::default(), false);
    let version = engine
        .load_bundle(&signed, key, LoadMode::Strict(&lenient))
        .expect("warnings do not veto a permissive strict load");
    assert_eq!(version, 7);
}

#[test]
fn strict_load_accepts_the_shipped_rollout_bundle() {
    let key = b"fleet-ota-key";
    let mut engine = PolicyEngine::new(PolicySet::from_policy(car_policy()));
    let signed = rollout_bundle().sign(key);
    let validator = strict_validator(AnalysisOptions::default(), true);
    engine
        .load_bundle(&signed, key, LoadMode::Strict(&validator))
        .expect("the shipped rollout bundle passes the strict gate");
}

// --- Solver soundness: a condition some real context satisfies can never
// --- be reported unsatisfiable.

struct FixedRates(f64);

impl RateSource for FixedRates {
    fn rate_per_sec(&self, _key: &str) -> f64 {
        self.0
    }
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,8}"
}

fn arb_condition() -> impl Strategy<Value = Condition> {
    let leaf = prop_oneof![
        Just(Condition::Always),
        arb_name().prop_map(Condition::InMode),
        (arb_name(), arb_name()).prop_map(|(key, value)| Condition::StateEquals { key, value }),
        (arb_name(), 0u32..100)
            .prop_map(|(key, max_per_sec)| Condition::RateAtMost { key, max_per_sec }),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Condition::All),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Condition::AnyOf),
            inner.prop_map(|c| Condition::Not(Box::new(c))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn satisfied_conditions_are_never_reported_unsat(
        cond in arb_condition(),
        mode in arb_name(),
        state in prop::collection::vec((arb_name(), arb_name()), 0..4),
        rate in 0u32..120,
    ) {
        let mut ctx = EvalContext::new().with_mode(&mode);
        for (k, v) in &state {
            ctx = ctx.with_state(k.clone(), v.clone());
        }
        let rates = FixedRates(rate as f64);
        if cond.eval(&ctx, &rates) {
            prop_assert!(
                satisfiable(&cond, None),
                "context-satisfied condition reported unsat: {cond:?}"
            );
        }
    }

    #[test]
    fn unsat_rules_are_always_flagged(
        key in arb_name(),
        lo in 0u32..50,
        gap in 1u32..50,
    ) {
        // rate <= lo && rate > lo+gap is empty for every gap >= 1.
        let cond = Condition::All(vec![
            Condition::RateAtMost { key: key.clone(), max_per_sec: lo },
            Condition::Not(Box::new(Condition::RateAtMost {
                key,
                max_per_sec: lo + gap,
            })),
        ]);
        prop_assert!(!satisfiable(&cond, None));
    }
}

// analyze_set (without an engine) agrees with analyze_with_engine on the
// non-cacheability findings for the shipped policy.
#[test]
fn analyze_set_alone_matches_the_engine_run_on_shipped_policy() {
    let set = PolicySet::from_policy(car_policy());
    let plain = analyze_set(&set, &AnalysisOptions::default());
    assert!(plain.is_clean(), "{}", plain.to_text());
}
