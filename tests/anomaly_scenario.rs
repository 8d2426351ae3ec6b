//! Integration: the behavioural anomaly layer's determinism contract.
//!
//! The per-signal detectors are pure state machines over the observed
//! sample stream — no RNG draws, no wall clock — so their verdicts must be
//! replay-invariant, and the `anomaly.*` metrics of a full fleet or V2X
//! run must be byte-identical at any thread count (DESIGN.md §13).

use polsec::car::anomaly::{
    cross_signal_verdict, AnomalyVerdict, KinematicSample, SignalMonitor, SignalSpec,
};
use polsec::car::fleet::{run_fleet, FleetConfig, FleetEnforcement};
use polsec::car::v2x::{run_v2x, V2xConfig};
use proptest::prelude::*;

/// The six merged anomaly counters every run must agree on.
const ANOMALY_KEYS: [&str; 6] = [
    "anomaly.checked",
    "anomaly.flagged",
    "anomaly.rate_jump",
    "anomaly.out_of_range",
    "anomaly.stuck",
    "anomaly.inconsistent",
];

#[test]
fn fleet_anomaly_counters_are_thread_count_and_replay_invariant() {
    let mut cfg = FleetConfig::new(6, 600);
    cfg.enforcement = FleetEnforcement::shipped();
    cfg.threads = 4;
    let reference = run_fleet(&cfg);
    let reference_json = reference.metrics.to_json();
    assert!(
        reference.metrics.counter("anomaly.checked") > 0,
        "the shipped fleet must exercise the monitors"
    );
    for threads in [1, 8] {
        let mut variant = cfg.clone();
        variant.threads = threads;
        let report = run_fleet(&variant);
        assert_eq!(
            report.metrics.to_json(),
            reference_json,
            "{threads} threads changed the merged metrics"
        );
        for key in ANOMALY_KEYS {
            assert_eq!(
                report.metrics.counter(key),
                reference.metrics.counter(key),
                "{key} diverged at {threads} threads"
            );
        }
    }
    // plain same-config replay
    let again = run_fleet(&cfg);
    assert_eq!(again.metrics.to_json(), reference_json);
}

#[test]
fn v2x_anomaly_counters_are_thread_count_and_replay_invariant() {
    let mut cfg = V2xConfig::new(6, 8, 120);
    cfg.fleet.threads = 4;
    let reference = run_v2x(&cfg);
    let reference_json = reference.metrics.to_json();
    // the value-spoof variant is rejected at the anomaly rung, so the
    // counters are live, not just zero-initialised
    assert!(reference.metrics.counter("anomaly.flagged") > 0);
    assert!(reference.metrics.counter("anomaly.out_of_range") > 0);
    for threads in [1, 8] {
        let mut variant = cfg.clone();
        variant.fleet.threads = threads;
        let report = run_v2x(&variant);
        assert_eq!(
            report.metrics.to_json(),
            reference_json,
            "{threads} threads changed the merged metrics"
        );
    }
    let again = run_v2x(&cfg);
    assert_eq!(again.metrics.to_json(), reference_json);
}

/// Known-answer test for the cross-signal consistency table (DESIGN.md
/// §13): each rule pinned by one corroborated and one inconsistent row.
#[test]
fn cross_signal_consistency_known_answers() {
    let base = KinematicSample {
        wheel_speed_kmh: 60,
        prev_wheel_speed_kmh: 60,
        engine_running: true,
        braking: false,
        proximity_warning: false,
        crash_reported: false,
    };
    let cases = [
        // plain cruising
        (base, AnomalyVerdict::Ok),
        // rule 1: crash without proximity or deceleration evidence
        (
            KinematicSample { crash_reported: true, ..base },
            AnomalyVerdict::Inconsistent,
        ),
        // …corroborated by a proximity warning
        (
            KinematicSample { crash_reported: true, proximity_warning: true, ..base },
            AnomalyVerdict::Ok,
        ),
        // …corroborated by hard deceleration
        (
            KinematicSample { crash_reported: true, wheel_speed_kmh: 40, ..base },
            AnomalyVerdict::Ok,
        ),
        // rule 2: accelerating with the engine off
        (
            KinematicSample { engine_running: false, wheel_speed_kmh: 65, ..base },
            AnomalyVerdict::Inconsistent,
        ),
        // …coasting down with the engine off is fine
        (
            KinematicSample { engine_running: false, wheel_speed_kmh: 55, ..base },
            AnomalyVerdict::Ok,
        ),
        // rule 3: accelerating hard while braking
        (
            KinematicSample { braking: true, wheel_speed_kmh: 85, ..base },
            AnomalyVerdict::Inconsistent,
        ),
        // …mild speed changes under braking stay plausible
        (
            KinematicSample { braking: true, wheel_speed_kmh: 70, ..base },
            AnomalyVerdict::Ok,
        ),
    ];
    for (sample, expected) in cases {
        assert_eq!(cross_signal_verdict(&sample), expected, "row {sample:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay invariance: the same sample stream through two fresh
    /// monitors of the same spec yields identical verdict sequences.
    #[test]
    fn signal_monitor_verdicts_are_replay_invariant(
        min in 0u8..=50,
        span in 0u8..=100,
        max_delta in 0u8..=40,
        stuck_window in 0u16..=6,
        samples in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let spec = SignalSpec::new("prop", min, min.saturating_add(span), max_delta, stuck_window);
        let mut a = SignalMonitor::new(spec);
        let mut b = SignalMonitor::new(spec);
        for &s in &samples {
            prop_assert_eq!(a.observe(s), b.observe(s));
        }
    }

    /// The stuck detector fires after exactly `window` repeats of a
    /// committed in-range value, regardless of the value.
    #[test]
    fn stuck_detector_fires_after_the_window(
        value in 10u8..=100,
        window in 1u16..=5,
    ) {
        let spec = SignalSpec::new("stuck", 0, 120, 0, window);
        let mut m = SignalMonitor::new(spec);
        prop_assert_eq!(m.observe(value), AnomalyVerdict::Ok, "first sample commits");
        for i in 1..window {
            prop_assert_eq!(m.observe(value), AnomalyVerdict::Ok, "repeat {} below window", i);
        }
        prop_assert_eq!(m.observe(value), AnomalyVerdict::Stuck);
    }

    /// The rate detector flags any jump past the bound from a committed
    /// baseline — and never commits the flagged sample.
    #[test]
    fn rate_detector_flags_every_over_bound_jump(
        baseline in 0u8..=100,
        max_delta in 1u8..=30,
        excess in 1u8..=100,
    ) {
        let spec = SignalSpec::new("rate", 0, 255, max_delta, 0);
        let mut m = SignalMonitor::new(spec);
        prop_assert_eq!(m.observe(baseline), AnomalyVerdict::Ok);
        let jump = baseline.saturating_add(max_delta).saturating_add(excess);
        prop_assume!(jump > baseline + max_delta); // not saturated away
        prop_assert_eq!(m.observe(jump), AnomalyVerdict::RateJump);
        prop_assert_eq!(m.last(), Some(baseline), "flagged samples never commit");
    }
}
