//! The application threat-modelling pipeline (Fig. 1).
//!
//! The paper's Fig. 1 shows six tasks feeding the device security model:
//! risk assessment → identify assets → entry points → threat identification
//! → threat rating → determine countermeasures. [`ThreatModelPipeline::run`]
//! executes those stages over a validated [`UseCase`], producing a
//! [`SecurityModel`]: the per-stage reports, the guideline countermeasures
//! (the traditional output) **and** the machine-readable [`PolicySpec`]s
//! (the paper's contribution — "the device security model … can be defined
//! as access control policies").

use crate::catalog::ThreatCatalog;
use crate::countermeasure::{Countermeasure, PolicySpec};
use crate::risk::{RiskMatrix, RiskQuadrant};
use crate::threat::ThreatId;
use crate::usecase::UseCase;
use std::fmt;

/// A report from one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// The stage name as in Fig. 1.
    pub stage: String,
    /// One-line summary.
    pub summary: String,
    /// Itemised findings.
    pub items: Vec<String>,
}

impl fmt::Display for StageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.stage)?;
        writeln!(f, "{}", self.summary)?;
        for item in &self.items {
            writeln!(f, "  - {item}")?;
        }
        Ok(())
    }
}

/// The pipeline's output: the device security model.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityModel {
    use_case: UseCase,
    stages: Vec<StageReport>,
    countermeasures: Vec<(ThreatId, Countermeasure)>,
}

impl SecurityModel {
    /// The analysed use case.
    pub fn use_case(&self) -> &UseCase {
        &self.use_case
    }

    /// Per-stage reports, in pipeline order.
    pub fn stages(&self) -> &[StageReport] {
        &self.stages
    }

    /// All countermeasures (both guideline and policy kinds), keyed by the
    /// threat they answer.
    pub fn countermeasures(&self) -> &[(ThreatId, Countermeasure)] {
        &self.countermeasures
    }

    /// Only the machine-readable policy specifications — the input to
    /// `polsec-core`'s policy compiler.
    pub fn policy_specs(&self) -> Vec<&PolicySpec> {
        self.countermeasures
            .iter()
            .filter_map(|(_, c)| match c {
                Countermeasure::Policy { spec } => Some(spec),
                Countermeasure::Guideline { .. } => None,
            })
            .collect()
    }

    /// Only the guideline texts — the traditional security model output.
    pub fn guidelines(&self) -> Vec<&str> {
        self.countermeasures
            .iter()
            .filter_map(|(_, c)| match c {
                Countermeasure::Guideline { text } => Some(text.as_str()),
                Countermeasure::Policy { .. } => None,
            })
            .collect()
    }
}

/// The six-stage pipeline with its threat catalog.
#[derive(Debug, Clone)]
pub struct ThreatModelPipeline {
    catalog: ThreatCatalog,
}

impl Default for ThreatModelPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreatModelPipeline {
    /// Creates a pipeline with the default risk matrix and standard catalog.
    pub fn new() -> Self {
        ThreatModelPipeline {
            catalog: ThreatCatalog::standard(),
        }
    }

    /// Runs all six stages over a use case.
    pub fn run(&self, use_case: &UseCase) -> SecurityModel {
        let mut stages = Vec::with_capacity(6);

        // Stage 1: risk assessment — decompose and understand the use case.
        let remote = use_case
            .entry_points()
            .iter()
            .filter(|e| e.is_remote())
            .count();
        stages.push(StageReport {
            stage: "Risk assessment".into(),
            summary: format!(
                "use case '{}': {} assets, {} entry points ({} remote), {} modes",
                use_case.name(),
                use_case.assets().len(),
                use_case.entry_points().len(),
                remote,
                use_case.modes().len()
            ),
            items: use_case
                .modes()
                .iter()
                .map(|m| format!("operating mode: {m}"))
                .collect(),
        });

        // Stage 2: identify assets.
        let mut assets: Vec<_> = use_case.assets().iter().collect();
        assets.sort_by_key(|a| std::cmp::Reverse(a.criticality()));
        stages.push(StageReport {
            stage: "Identify assets".into(),
            summary: format!("{} assets ordered by criticality", assets.len()),
            items: assets.iter().map(|a| a.to_string()).collect(),
        });

        // Stage 3: entry points.
        stages.push(StageReport {
            stage: "Entry points".into(),
            summary: format!("{} interfaces expose the assets", use_case.entry_points().len()),
            items: use_case
                .entry_points()
                .iter()
                .map(|e| {
                    format!(
                        "{e}{}",
                        if e.is_remote() { " (remote)" } else { "" }
                    )
                })
                .collect(),
        });

        // Stage 4: threat identification (STRIDE).
        stages.push(StageReport {
            stage: "Threat identification".into(),
            summary: format!("{} threats categorised with STRIDE", use_case.threats().len()),
            items: use_case
                .threats()
                .iter()
                .map(|t| format!("[{}] {} — {}", t.stride(), t.id(), t.description()))
                .collect(),
        });

        // Stage 5: threat rating (DREAD + risk matrix).
        let matrix = RiskMatrix::new();
        let prioritised = use_case.threats_by_risk();
        let mut rating_items: Vec<String> = prioritised
            .iter()
            .map(|t| {
                format!(
                    "{} — DREAD {} [{}]",
                    t.id(),
                    t.dread(),
                    matrix.classify(t.dread())
                )
            })
            .collect();
        let priority_count = use_case
            .threats()
            .iter()
            .filter(|t| matrix.classify(t.dread()) == RiskQuadrant::Priority)
            .count();
        rating_items.push(format!("{priority_count} threats in the priority quadrant"));
        stages.push(StageReport {
            stage: "Threat rating".into(),
            summary: "threats prioritised by DREAD average".into(),
            items: rating_items,
        });

        // Stage 6: determine countermeasures — both kinds per threat.
        let mut countermeasures = Vec::new();
        let mut cm_items = Vec::new();
        for t in &prioritised {
            // Guideline: assembled from the catalog's technique families.
            let techniques = self.catalog.techniques_for(t.stride());
            let guideline = format!(
                "{}: apply {}",
                t.asset(),
                if techniques.is_empty() {
                    "best security practices".to_string()
                } else {
                    techniques.join("; ")
                }
            );
            countermeasures.push((
                t.id().clone(),
                Countermeasure::Guideline { text: guideline.clone() },
            ));
            // Policy: the machine-readable spec from the Table I policy column.
            let spec = PolicySpec {
                asset: t.asset().clone(),
                entry_points: t.entry_points().to_vec(),
                permission: t.policy(),
                modes: t.modes().to_vec(),
                rationale: t.description().to_string(),
            };
            cm_items.push(format!("{} ⇒ {}", t.id(), spec));
            countermeasures.push((t.id().clone(), Countermeasure::Policy { spec }));
        }
        stages.push(StageReport {
            stage: "Determine countermeasures".into(),
            summary: format!(
                "{} guideline + {} policy countermeasures derived",
                countermeasures.len() / 2,
                countermeasures.len() / 2
            ),
            items: cm_items,
        });

        SecurityModel {
            use_case: use_case.clone(),
            stages,
            countermeasures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asset::{Asset, Criticality};
    use crate::countermeasure::PermissionHint;
    use crate::dread::DreadScore;
    use crate::entry_point::{EntryPoint, InterfaceKind};
    use crate::threat::Threat;

    fn demo_use_case() -> UseCase {
        UseCase::builder("demo car")
            .asset(Asset::new("ecu", "EV-ECU", Criticality::SafetyCritical))
            .asset(Asset::new("infotainment", "Infotainment", Criticality::Low))
            .entry_point(EntryPoint::new("telematics", "3G/4G/WiFi", InterfaceKind::Network))
            .entry_point(EntryPoint::new("sensors", "Sensors", InterfaceKind::Sensor))
            .mode("normal")
            .mode("fail-safe")
            .threat(
                Threat::builder("spoof-ecu", "Spoofed data disables ECU")
                    .asset("ecu")
                    .entry_point("sensors")
                    .stride("STD".parse().unwrap())
                    .dread(DreadScore::new(8, 5, 4, 6, 4).unwrap())
                    .mode("normal")
                    .policy(PermissionHint::Read)
                    .build(),
            )
            .threat(
                Threat::builder("info-exploit", "Browser exploit escalates control")
                    .asset("infotainment")
                    .entry_point("telematics")
                    .stride("STE".parse().unwrap())
                    .dread(DreadScore::new(7, 5, 6, 8, 6).unwrap())
                    .mode("normal")
                    .policy(PermissionHint::Read)
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn pipeline_produces_six_stages_in_order() {
        let model = ThreatModelPipeline::new().run(&demo_use_case());
        let names: Vec<&str> = model.stages().iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "Risk assessment",
                "Identify assets",
                "Entry points",
                "Threat identification",
                "Threat rating",
                "Determine countermeasures",
            ]
        );
    }

    #[test]
    fn risk_assessment_counts_remote_surface() {
        let model = ThreatModelPipeline::new().run(&demo_use_case());
        assert!(model.stages()[0].summary.contains("(1 remote)"));
    }

    #[test]
    fn assets_ordered_by_criticality() {
        let model = ThreatModelPipeline::new().run(&demo_use_case());
        let items = &model.stages()[1].items;
        assert!(items[0].contains("EV-ECU"), "safety-critical first: {items:?}");
    }

    #[test]
    fn each_threat_gets_guideline_and_policy() {
        let model = ThreatModelPipeline::new().run(&demo_use_case());
        assert_eq!(model.countermeasures().len(), 4);
        assert_eq!(model.policy_specs().len(), 2);
        assert_eq!(model.guidelines().len(), 2);
    }

    #[test]
    fn policy_specs_carry_threat_data() {
        let model = ThreatModelPipeline::new().run(&demo_use_case());
        let specs = model.policy_specs();
        let ecu_spec = specs.iter().find(|s| s.asset.as_str() == "ecu").unwrap();
        assert_eq!(ecu_spec.permission, PermissionHint::Read);
        assert_eq!(ecu_spec.entry_points.len(), 1);
        assert_eq!(ecu_spec.modes.len(), 1);
        assert!(ecu_spec.rationale.contains("Spoofed"));
    }

    #[test]
    fn guidelines_reference_catalog_techniques() {
        let model = ThreatModelPipeline::new().run(&demo_use_case());
        let guidelines = model.guidelines();
        // the STD threat must pull authentication + integrity + availability
        assert!(guidelines
            .iter()
            .any(|g| g.contains("id verification") && g.contains("rate limiting")));
    }

    #[test]
    fn rating_stage_prioritises_by_dread() {
        let model = ThreatModelPipeline::new().run(&demo_use_case());
        let rating = &model.stages()[4];
        // info-exploit (6.4) must come before spoof-ecu (5.4)
        let first = rating.items.iter().position(|i| i.contains("info-exploit"));
        let second = rating.items.iter().position(|i| i.contains("spoof-ecu"));
        assert!(first.unwrap() < second.unwrap());
    }

    #[test]
    fn stage_report_display() {
        let s = StageReport {
            stage: "X".into(),
            summary: "sum".into(),
            items: vec!["a".into()],
        };
        let text = s.to_string();
        assert!(text.contains("== X =="));
        assert!(text.contains("  - a"));
    }
}
