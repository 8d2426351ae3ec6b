//! Finding and report types shared by both analysis layers.
//!
//! Every analysis produces [`Finding`]s — structured, deterministic,
//! machine-renderable. A [`Report`] sorts them (severity first) and renders
//! them as text or JSON; the CLI's exit code is a pure function of the
//! report via [`Report::gates`].

use polsec_sim::json_quote;
use std::fmt;

/// How serious a finding is. The ordering is ascending: `Info < Warning <
/// Error`, so `max_severity` and severity-descending sorts fall out of
/// `Ord`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only; never gates, even under `--deny-warnings`.
    Info,
    /// Suspicious configuration; gates only under `--deny-warnings`.
    Warning,
    /// A defect; always gates.
    Error,
}

impl Severity {
    /// The lowercase keyword used in text and JSON output.
    pub fn keyword(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// What class of defect a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingKind {
    /// An allow/deny pair over the same request set with equivalent
    /// conditions — the bundle argues with itself.
    Contradiction,
    /// A rule that can never determine any decision because another rule
    /// subsumes it under the active combining strategy.
    ShadowedRule,
    /// A rule guarded by a mode no [`super::ModeGraph`] transition sequence
    /// can ever enter.
    UnreachableMode,
    /// A rule whose condition no request context can satisfy (e.g. an empty
    /// rate window or two different required modes).
    UnsatisfiableCondition,
    /// The analyzer's independent cacheability computation disagrees with
    /// the engine's load-time analysis.
    CacheabilityDisagreement,
    /// A rule (or ladder rung) whose effect is already fully provided by
    /// another — harmless, but worth knowing.
    RedundantRule,
    /// Layer 2: a frame class delivered end-to-end with no enforcing ladder
    /// rung blocking or conditioning it (Table I row-2 shape).
    CoverageHole,
    /// Layer 2: a gateway whitelist entry whose forwarded frames the
    /// downstream policy layer statically always denies.
    DeadWhitelist,
}

impl FindingKind {
    /// The kebab-case key used in text and JSON output.
    pub fn key(self) -> &'static str {
        match self {
            FindingKind::Contradiction => "contradiction",
            FindingKind::ShadowedRule => "shadowed-rule",
            FindingKind::UnreachableMode => "unreachable-mode",
            FindingKind::UnsatisfiableCondition => "unsatisfiable-condition",
            FindingKind::CacheabilityDisagreement => "cacheability-disagreement",
            FindingKind::RedundantRule => "redundant-rule",
            FindingKind::CoverageHole => "coverage-hole",
            FindingKind::DeadWhitelist => "dead-whitelist",
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Defect class.
    pub kind: FindingKind,
    /// How serious it is.
    pub severity: Severity,
    /// The implicated rules (qualified `policy.rule` ids) or ladder rungs.
    pub rule_ids: Vec<String>,
    /// A concrete witness: a request (`entry:x -> asset:y [write]`) or a
    /// frame class (`0x050 B->A external`) exhibiting the defect.
    pub witness: String,
    /// Human-readable explanation of why this is a defect.
    pub explanation: String,
}

impl Finding {
    /// Renders the finding as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let rules: Vec<String> = self.rule_ids.iter().map(|r| json_quote(r)).collect();
        format!(
            "{{\"kind\":{},\"severity\":{},\"rules\":[{}],\"witness\":{},\"explanation\":{}}}",
            json_quote(self.kind.key()),
            json_quote(self.severity.keyword()),
            rules.join(","),
            json_quote(&self.witness),
            json_quote(&self.explanation),
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [{}] witness: {}\n    {}",
            self.severity,
            self.kind,
            self.rule_ids.join(", "),
            self.witness,
            self.explanation
        )
    }
}

/// A sorted collection of findings with deterministic rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// The findings, sorted by [`Report::sort`].
    pub findings: Vec<Finding>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds one finding.
    pub fn push(&mut self, f: Finding) {
        self.findings.push(f);
    }

    /// Folds another report in.
    pub fn extend(&mut self, other: Report) {
        self.findings.extend(other.findings);
    }

    /// Sorts findings: severity descending, then kind, rules, witness —
    /// a total, deterministic order.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.kind.cmp(&b.kind))
                .then_with(|| a.rule_ids.cmp(&b.rule_ids))
                .then_with(|| a.witness.cmp(&b.witness))
        });
    }

    /// Whether the report has no findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The most severe finding, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Number of findings at exactly `s`.
    pub fn count(&self, s: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == s).count()
    }

    /// Findings of a given kind (test convenience).
    pub fn of_kind(&self, kind: FindingKind) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.kind == kind).collect()
    }

    /// Whether the report should fail a CI gate: any `Error`, or any
    /// `Warning` when `deny_warnings` is set. `Info` never gates.
    pub fn gates(&self, deny_warnings: bool) -> bool {
        let floor = if deny_warnings {
            Severity::Warning
        } else {
            Severity::Error
        };
        self.max_severity().is_some_and(|s| s >= floor)
    }

    /// Deterministic text rendering (one finding per paragraph), ending in
    /// a summary line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }

    /// JSON rendering: `{"counts":{...},"findings":[...]}`.
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self.findings.iter().map(Finding::to_json).collect();
        format!(
            "{{\"counts\":{{\"error\":{},\"warning\":{},\"info\":{}}},\"findings\":[{}]}}",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            findings.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(kind: FindingKind, severity: Severity, rule: &str) -> Finding {
        Finding {
            kind,
            severity,
            rule_ids: vec![rule.to_string()],
            witness: "entry:x -> asset:y [write]".into(),
            explanation: "test".into(),
        }
    }

    #[test]
    fn severity_orders_ascending() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut r = Report::new();
        r.push(finding(FindingKind::RedundantRule, Severity::Info, "a"));
        r.push(finding(FindingKind::Contradiction, Severity::Error, "b"));
        r.push(finding(FindingKind::ShadowedRule, Severity::Warning, "c"));
        r.sort();
        assert_eq!(r.findings[0].severity, Severity::Error);
        assert_eq!(r.findings[2].severity, Severity::Info);
    }

    #[test]
    fn gate_thresholds() {
        let mut r = Report::new();
        assert!(!r.gates(true), "empty never gates");
        r.push(finding(FindingKind::RedundantRule, Severity::Info, "a"));
        assert!(!r.gates(true), "info never gates");
        r.push(finding(FindingKind::ShadowedRule, Severity::Warning, "b"));
        assert!(!r.gates(false));
        assert!(r.gates(true));
        r.push(finding(FindingKind::Contradiction, Severity::Error, "c"));
        assert!(r.gates(false));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = Report::new();
        r.push(finding(FindingKind::ShadowedRule, Severity::Warning, "p.r"));
        let json = r.to_json();
        assert!(json.starts_with("{\"counts\":{\"error\":0,\"warning\":1,\"info\":0}"));
        assert!(json.contains("\"kind\":\"shadowed-rule\""));
        assert!(json.contains("\"rules\":[\"p.r\"]"));
    }
}
