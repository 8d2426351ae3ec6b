//! The scenario runner behind the E1 attack matrix.

use crate::attacks::AttackId;
use crate::builder::{CarBuilder, EnforcementConfig};
use crate::modes::CarMode;
use std::fmt;

/// The judged outcome of one attack run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The attack achieved its objective.
    Succeeded,
    /// Enforcement prevented the objective.
    Blocked,
    /// The objective was reached but the monitoring layer flagged it
    /// (privacy/exfiltration class).
    Detected,
}

impl AttackOutcome {
    /// Whether enforcement stopped the attack outright.
    pub fn is_blocked(self) -> bool {
        self == AttackOutcome::Blocked
    }

    /// Whether the attack went entirely unmitigated.
    pub fn is_success(self) -> bool {
        self == AttackOutcome::Succeeded
    }
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttackOutcome::Succeeded => "SUCCEEDED",
            AttackOutcome::Blocked => "blocked",
            AttackOutcome::Detected => "detected",
        };
        f.write_str(s)
    }
}

/// The record of one attack run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackReport {
    /// The Table I threat id.
    pub threat_id: String,
    /// The attack description.
    pub description: String,
    /// The car mode the attack ran in.
    pub mode: String,
    /// The enforcement configuration label.
    pub config: String,
    /// The judged outcome.
    pub outcome: AttackOutcome,
    /// Frames blocked by HPEs during the run.
    pub hpe_blocked: u64,
    /// Commands rejected by application policy during the run.
    pub policy_rejections: u64,
    /// HPE tamper attempts recorded during the run.
    pub tamper_attempts: u64,
}

impl fmt::Display for AttackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<4} [{:<16}] {:<10} {} (hpe_blocked={}, rejections={})",
            self.threat_id, self.config, self.mode, self.outcome, self.hpe_blocked,
            self.policy_rejections
        )
    }
}

/// Builds fresh cars and runs attacks under configurations.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioRunner {
    seed: u64,
}

impl ScenarioRunner {
    /// Creates a runner. The seed is reserved for stochastic extensions;
    /// the base scenarios are fully deterministic.
    pub fn new(seed: u64) -> Self {
        ScenarioRunner { seed }
    }

    /// The runner's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs one attack in one mode under one configuration, on a freshly
    /// built car.
    pub fn run(&self, attack: AttackId, mode: CarMode, config: EnforcementConfig) -> AttackReport {
        let mut car = CarBuilder::new().enforcement(config).build();
        car.set_mode(mode);
        let outcome = attack.execute(&mut car);
        let tamper_attempts = car
            .bus()
            .nodes()
            .map(|(_, n)| n.name().to_string())
            .filter_map(|name| car.hpe(&name).map(|h| h.telemetry().tamper_attempts))
            .sum();
        AttackReport {
            threat_id: attack.threat_id().to_string(),
            description: attack.table1_row().description.to_string(),
            mode: mode.name().to_string(),
            config: config.label(),
            outcome,
            hpe_blocked: car.hpe_blocked_total(),
            policy_rejections: car.states().rejected_commands(),
            tamper_attempts,
        }
    }

    /// The standard configuration ladder of the E1 experiment.
    pub fn standard_configs() -> [EnforcementConfig; 6] {
        [
            EnforcementConfig::none(),
            EnforcementConfig::software_only(),
            EnforcementConfig::app_only(),
            EnforcementConfig::mac_only(),
            EnforcementConfig::hpe_only(),
            EnforcementConfig::full(),
        ]
    }

    /// Runs the full matrix: every Table I attack (in its natural mode)
    /// under every standard configuration.
    pub fn run_matrix(&self) -> Vec<AttackReport> {
        let mut reports = Vec::new();
        for attack in AttackId::ALL {
            for config in Self::standard_configs() {
                reports.push(self.run(attack, attack.natural_mode(), config));
            }
        }
        reports
    }

    /// Renders a matrix as an aligned text table (rows = threats, columns =
    /// configurations).
    pub fn render_matrix(reports: &[AttackReport]) -> String {
        let configs: Vec<String> = Self::standard_configs().iter().map(|c| c.label()).collect();
        let mut out = format!("{:<6}", "threat");
        for c in &configs {
            out.push_str(&format!(" {c:>12}"));
        }
        out.push('\n');
        for attack in AttackId::ALL {
            out.push_str(&format!("{:<6}", attack.threat_id()));
            for c in &configs {
                let cell = reports
                    .iter()
                    .find(|r| r.threat_id == attack.threat_id() && &r.config == c)
                    .map(|r| r.outcome.to_string())
                    .unwrap_or_else(|| "-".into());
                out.push_str(&format!(" {cell:>12}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_carries_enforcement_evidence() {
        let runner = ScenarioRunner::new(1);
        let report = runner.run(
            AttackId::SpoofEcuDisable,
            CarMode::Normal,
            EnforcementConfig::hpe_only(),
        );
        assert_eq!(report.outcome, AttackOutcome::Blocked);
        assert!(report.hpe_blocked > 0, "blocking must leave telemetry");
        assert!(report.tamper_attempts > 0, "the compromise tried to tamper");
        assert_eq!(report.threat_id, "t1");
    }

    #[test]
    fn unprotected_run_reports_no_enforcement_activity() {
        let runner = ScenarioRunner::new(1);
        let report = runner.run(
            AttackId::SpoofEcuDisable,
            CarMode::Normal,
            EnforcementConfig::none(),
        );
        assert_eq!(report.outcome, AttackOutcome::Succeeded);
        assert_eq!(report.hpe_blocked, 0);
        assert_eq!(report.policy_rejections, 0);
    }

    #[test]
    fn app_policy_rejections_surface_in_reports() {
        let runner = ScenarioRunner::new(1);
        let report = runner.run(
            AttackId::UnlockInMotion,
            CarMode::Normal,
            EnforcementConfig::app_only(),
        );
        assert_eq!(report.outcome, AttackOutcome::Blocked);
        assert!(report.policy_rejections > 0);
    }

    #[test]
    fn matrix_covers_all_cells() {
        let runner = ScenarioRunner::new(42);
        let reports = runner.run_matrix();
        assert_eq!(reports.len(), 16 * 6);
        // every threat appears once per config
        for attack in AttackId::ALL {
            let rows: Vec<_> = reports
                .iter()
                .filter(|r| r.threat_id == attack.threat_id())
                .collect();
            assert_eq!(rows.len(), 6, "{attack:?}");
        }
    }

    #[test]
    fn matrix_render_is_complete() {
        let runner = ScenarioRunner::new(42);
        let reports = runner.run_matrix();
        let table = ScenarioRunner::render_matrix(&reports);
        assert_eq!(table.lines().count(), 17, "header + 16 rows");
        assert!(table.contains("t14"));
        assert!(table.contains("blocked"));
        assert!(table.contains("SUCCEEDED"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(AttackOutcome::Succeeded.to_string(), "SUCCEEDED");
        assert!(AttackOutcome::Blocked.is_blocked());
        assert!(!AttackOutcome::Detected.is_success());
        let runner = ScenarioRunner::new(9);
        assert_eq!(runner.seed(), 9);
        let r = runner.run(
            AttackId::AlarmDisable,
            CarMode::Normal,
            EnforcementConfig::none(),
        );
        assert!(r.to_string().contains("t16"));
    }
}
