//! The benchmark's metric registry and its result line.
//!
//! The registry is the single source of `BENCHMARK.json`'s metric lists:
//! `stackbench --manifest` prints the manifest, and a test checks that the
//! committed file matches it.

use crate::ledger::{Snapshot, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, better)`.
pub type MetricDef = (String, &'static str, &'static str);

/// The workloads, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "fleet",
        "100 vehicles, shipped in-vehicle ladder, mixed attacks: the CAN frame path does nearly all the work",
    ),
    (
        "v2x_platoon",
        "25-vehicle platoon, full V2X ladder and attacker, many short epochs: plane, message ladder and OTA dominate",
    ),
    (
        "policy_update",
        "gateway decision point under OTA churn: cached decides beside strict signed reloads; CAN layers idle",
    ),
];

/// End-to-end metrics: `(name, unit, better, bound)`. Every workload
/// reports every one.
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
];

/// Per-layer metrics beyond the two rows every span yields.
const EXTRA_PER_LAYER: [(&str, &str, &str); 29] = [
    ("hpe.block_ratio", "ratio", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("can.gateway.forward_ratio", "ratio", "higher"),
    ("can.bus.contended_ratio", "ratio", "lower"),
    ("car.v2x.reject_ratio.auth", "ratio", "lower"),
    ("car.v2x.reject_ratio.replay", "ratio", "lower"),
    ("car.v2x.reject_ratio.policy", "ratio", "lower"),
    ("car.v2x.reject_ratio.anomaly", "ratio", "lower"),
    ("core.decide.ns_p50", "ns", "lower"),
    ("core.decide.ns_p99", "ns", "lower"),
    ("core.decide.cold_ns", "ns", "lower"),
    ("core.rules_examined", "rules/decision", "lower"),
    ("core.request.ns_per_call", "ns", "lower"),
    ("core.decide.ns_per_call", "ns", "lower"),
    ("ledger.root_ns", "ns/unit", "lower"),
    ("ledger.sum_ns", "ns/unit", "lower"),
    ("ledger.e2e_ns", "ns/unit", "lower"),
    ("ledger.sum_to_root", "ratio", "higher"),
    ("ledger.sim_metrics_share", "%", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("trace.timer_ns", "ns", "lower"),
    ("ablate.fleet.gateway_whitelist", "ns/unit", "lower"),
    ("ablate.fleet.node_hpe", "ns/unit", "lower"),
    ("ablate.fleet.segment_hpe", "ns/unit", "lower"),
    ("ablate.fleet.anomaly", "ns/unit", "lower"),
    ("ablate.v2x.auth", "ns/unit", "lower"),
    ("ablate.v2x.replay_window", "ns/unit", "lower"),
    ("ablate.v2x.policy_check", "ns/unit", "lower"),
    ("ablate.v2x.anomaly", "ns/unit", "lower"),
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs: Vec<MetricDef> = Span::ALL
        .iter()
        .flat_map(|s| {
            [
                (format!("{}.calls", s.name()), "calls/unit", "lower"),
                (format!("{}.self_ns", s.name()), "ns/unit", "lower"),
            ]
        })
        .collect();
    defs.extend(
        EXTRA_PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b)),
    );
    defs
}

/// One check folded into a run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What one workload run measured and verified.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reported metrics by name: `(value, unit)`.
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Named figures printed for reading, not part of the result line.
    pub notes: Vec<(String, f64, String)>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push((name.to_string(), value, unit.to_string()));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Checks the figures of the result line: every one the workload set
    /// is finite, and with `required` every one is set and above zero, so
    /// a missing or broken figure fails the run instead of reading as a
    /// measured zero. (A per-layer row the workload never calls reads 0.)
    pub fn validate(&mut self, names: &[(String, &'static str)], required: bool) {
        let mut bad = Vec::new();
        for (name, _) in names {
            match self.metrics.get(name) {
                None if required => bad.push(format!("{name} not set")),
                Some(&(v, _)) if !v.is_finite() => bad.push(format!("{name} = {v}")),
                Some(&(v, _)) if required && v <= 0.0 => bad.push(format!("{name} = {v}")),
                _ => {}
            }
        }
        self.check("metrics.valid", bad.is_empty(), bad.join("; "));
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every metric of `names` present.
    pub fn result_line(&self, names: &[(String, &'static str)]) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).map_or(0.0, |m| m.0);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with every digit Rust prints for the f64; a
/// non-finite value prints as 0.0 (and [`Outcome::validate`] fails it).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Reports `peak_rss_mb`: this process's peak resident set (`VmHWM`).
/// Workloads call it after their first full call, so the figure covers
/// one call's peak and not how far the allocator drifts over a run whose
/// call count depends on host speed.
pub fn record_peak_rss(out: &mut Outcome) {
    let rss = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        });
    out.check(
        "peak_rss_readable",
        rss.is_some(),
        "/proc/self/status has no VmHWM",
    );
    out.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB");
}

/// Bound on |Σ ledger self time ÷ traced root − 1|. The sum and the root
/// come from different passes, so host noise between them moves the ratio:
/// traced runs of 10 to 30 seconds read 0.97–1.00 (fleet), 0.86–1.14 (V2X) and
/// 1.02–1.07 (`policy_update`).
pub const LEDGER_BOUND: f64 = 0.25;

/// Totals of the traced runs of one workload.
pub struct LedgerRun<'a> {
    /// The spans the workload must exercise.
    pub spans: &'a [Span],
    /// Aggregated ledger of the sampled passes.
    pub snapshot: &'a Snapshot,
    /// Workload units (frames, judged messages, decisions + updates) in
    /// the sampled passes, which equals those of the count-only passes.
    pub units: f64,
    /// Wall seconds of the count-only passes (the traced root).
    pub root_s: f64,
    /// Wall seconds of the sampled passes.
    pub traced_s: f64,
    /// Untraced ns per unit of the same work through the public entry point.
    pub e2e_ns: f64,
}

/// Reports every span row and the ledger's shape, and checks the shape:
/// each listed span has calls, and the rows sum to the root within
/// [`LEDGER_BOUND`].
pub fn ledger_metrics(out: &mut Outcome, run: &LedgerRun<'_>) {
    let snap = run.snapshot;
    for span in Span::ALL {
        let row = snap.row(span);
        out.metric(
            &format!("{}.calls", span.name()),
            row.calls as f64 / run.units,
            "calls/unit",
        );
        out.metric(
            &format!("{}.self_ns", span.name()),
            row.self_ns / run.units,
            "ns/unit",
        );
    }
    let missing: Vec<&str> = run
        .spans
        .iter()
        .filter(|s| snap.row(**s).calls == 0)
        .map(|s| s.name())
        .collect();
    out.check(
        "ledger.spans_present",
        missing.is_empty(),
        format!("spans without calls: {missing:?}"),
    );
    let sum_ns = snap.total_ns() / run.units;
    let root_ns = run.root_s * 1e9 / run.units;
    let ratio = sum_ns / root_ns;
    out.metric("ledger.sum_ns", sum_ns, "ns/unit");
    out.metric("ledger.root_ns", root_ns, "ns/unit");
    out.metric("ledger.e2e_ns", run.e2e_ns, "ns/unit");
    out.metric("ledger.sum_to_root", ratio, "ratio");
    out.check(
        "ledger.sums_to_root",
        (ratio - 1.0).abs() <= LEDGER_BOUND,
        format!("sum {sum_ns:.1} ns/unit vs root {root_ns:.1} ns/unit (bound ±{LEDGER_BOUND})"),
    );
    let metrics_ns = snap.row(Span::SimMetrics).self_ns / run.units;
    out.metric("ledger.sim_metrics_share", 100.0 * metrics_ns / sum_ns, "%");
    out.metric(
        "trace_overhead",
        run.traced_s * 1e9 / run.units / run.e2e_ns - 1.0,
        "ratio",
    );
    out.metric("trace.timer_ns", snap.timer.inner + snap.timer.outer, "ns");
    for (span, name) in [
        (Span::CoreRequest, "core.request.ns_per_call"),
        (Span::CoreDecide, "core.decide.ns_per_call"),
    ] {
        let row = snap.row(span);
        if row.calls > 0 {
            out.metric(name, row.self_ns / row.calls as f64, "ns");
        }
    }
}

/// `BENCHMARK.json`, rendered from the registry.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--offline\", \"--release\", \"--quiet\", \"--manifest-path\", \"stackbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"stackbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{sep}"
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let defs = per_layer();
    for (i, (name, unit, better)) in defs.iter().enumerate() {
        let sep = if i + 1 == defs.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Seconds one run measures, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 30;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The metric-name grammar: a letter or digit first, then at most 63
    /// letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The unit grammar: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn grammar_accepts_and_rejects() {
        assert!(valid_name("core.decide.ns_p50"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("with space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("calls/unit"));
        assert!(!valid_unit("") && !valid_unit("ns per unit") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_registered_name_and_unit_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let e2e = END_TO_END.iter().map(|&(n, u, b, _)| (n.to_string(), u, b));
        for (name, unit, better) in e2e.chain(per_layer()) {
            assert!(valid_name(&name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(better == "higher" || better == "lower", "{name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name.to_string()), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!((1..=128).contains(&per_layer().len()));
        assert!(END_TO_END.iter().all(|e| e.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|e| e == &("setup_s", "s", "lower", 0.25)));
    }

    #[test]
    fn committed_manifest_matches_the_registry() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `stackbench --manifest`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn validate_fails_missing_broken_and_zero_figures() {
        let names: Vec<(String, &'static str)> = ["a", "b", "c"]
            .iter()
            .map(|n| (n.to_string(), "s"))
            .collect();
        let mut o = Outcome::default();
        o.metric("a", 1.0, "s");
        o.metric("b", 2.0, "s");
        o.metric("c", 0.5, "s");
        o.validate(&names, true);
        assert!(o.correct());
        for (value, required) in [(f64::NAN, false), (f64::INFINITY, false), (0.0, true)] {
            let mut o = Outcome::default();
            o.metric("a", 1.0, "s");
            o.metric("b", 2.0, "s");
            o.metric("c", value, "s");
            o.validate(&names, required);
            assert!(!o.correct(), "{value} {required}");
        }
        let mut o = Outcome::default();
        o.metric("a", 1.0, "s");
        o.validate(&names, false);
        assert!(o.correct(), "an unset per-layer row is not an error");
        o.validate(&names, true);
        assert!(!o.correct(), "an unset end-to-end figure is");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.metric("setup_s", 0.8127, "s");
        o.check("ok", true, "");
        let line = o.result_line(&[("setup_s".into(), "s"), ("latency_ms".into(), "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"latency_ms\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
