//! Countermeasures: guidelines vs policies, and what each costs to deploy.
//!
//! This module encodes the paper's central contrast (§V.A.1 vs §V.A.2):
//!
//! * a **guideline** countermeasure is prose for developers — changing it
//!   after deployment means redevelopment, possibly a product recall;
//! * a **policy** countermeasure is machine-enforceable — changing it after
//!   deployment is a signed policy update.
//!
//! [`RemediationCost`] is the cost model behind the `update_vs_redesign`
//! experiment (E3): staged engineering effort plus recall/recertification
//! flags.

use crate::asset::AssetId;
use crate::entry_point::EntryPointId;
use crate::mode::OperatingMode;
use std::fmt;

/// The access the derived policy permits at an entry point — the "Policy"
/// column of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PermissionHint {
    /// `R` — reads of the asset are permitted; writes are denied.
    Read,
    /// `W` — writes are permitted; reads are denied.
    Write,
    /// `RW` — both permitted (the threat is mitigated by other conditions).
    ReadWrite,
}

impl PermissionHint {
    /// Parses the paper's column notation (`R`, `W`, `RW`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_uppercase().as_str() {
            "R" => Some(PermissionHint::Read),
            "W" => Some(PermissionHint::Write),
            "RW" | "WR" => Some(PermissionHint::ReadWrite),
            _ => None,
        }
    }

    /// Whether reading is permitted.
    pub fn allows_read(self) -> bool {
        matches!(self, PermissionHint::Read | PermissionHint::ReadWrite)
    }

    /// Whether writing is permitted.
    pub fn allows_write(self) -> bool {
        matches!(self, PermissionHint::Write | PermissionHint::ReadWrite)
    }
}

impl fmt::Display for PermissionHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PermissionHint::Read => "R",
            PermissionHint::Write => "W",
            PermissionHint::ReadWrite => "RW",
        };
        f.write_str(s)
    }
}

/// A machine-readable policy specification derived from a threat — the
/// bridge between the threat model and `polsec-core`'s compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicySpec {
    /// The asset the policy protects.
    pub asset: AssetId,
    /// The entry points the policy constrains.
    pub entry_points: Vec<EntryPointId>,
    /// What access remains permitted.
    pub permission: PermissionHint,
    /// Modes in which the policy applies (empty = all modes).
    pub modes: Vec<OperatingMode>,
    /// Free-text rationale tying the policy back to its threat.
    pub rationale: String,
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let eps: Vec<&str> = self.entry_points.iter().map(|e| e.as_str()).collect();
        write!(
            f,
            "permit {} on {} from [{}]",
            self.permission,
            self.asset,
            eps.join(", ")
        )?;
        if !self.modes.is_empty() {
            let ms: Vec<&str> = self.modes.iter().map(|m| m.name()).collect();
            write!(f, " in modes [{}]", ms.join(", "))?;
        }
        Ok(())
    }
}

/// A countermeasure against a threat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Countermeasure {
    /// A design-time guideline (the traditional approach of §V.A.1).
    Guideline {
        /// The guidance text given to developers.
        text: String,
    },
    /// A run-time enforceable policy (the paper's approach, §V.A.2).
    Policy {
        /// The derived policy specification.
        spec: PolicySpec,
    },
}

impl Countermeasure {
    /// Whether the countermeasure can be deployed after production without
    /// redesign.
    pub fn is_field_updatable(&self) -> bool {
        matches!(self, Countermeasure::Policy { .. })
    }

    /// The remediation cost of deploying this countermeasure *after* the
    /// product has shipped.
    pub fn post_deployment_cost(&self) -> RemediationCost {
        match self {
            Countermeasure::Guideline { .. } => RemediationCost::redesign(),
            Countermeasure::Policy { .. } => RemediationCost::policy_update(),
        }
    }
}

impl fmt::Display for Countermeasure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Countermeasure::Guideline { text } => write!(f, "guideline: {text}"),
            Countermeasure::Policy { spec } => write!(f, "policy: {spec}"),
        }
    }
}

/// Staged cost of deploying a fix, in engineering-days per stage.
///
/// The stages mirror the two swim lanes of Fig. 1: threat analysis feeds a
/// design/implementation phase, then testing/verification, then deployment.
/// Values are deliberately round planning numbers — what matters for the E3
/// experiment is the *ratio* between the two paths, which the paper claims
/// is large ("significantly faster and easier … than a software redesign or
/// product recall").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemediationCost {
    /// Re-running threat/security modelling.
    pub analysis_days: u32,
    /// Design + implementation.
    pub implementation_days: u32,
    /// Testing and verification.
    pub verification_days: u32,
    /// Rollout (OTA campaign or recall logistics).
    pub deployment_days: u32,
    /// Whether units must physically return (product recall).
    pub requires_recall: bool,
    /// Whether regulatory recertification is triggered.
    pub requires_recertification: bool,
}

impl RemediationCost {
    /// Cost profile of a hardware/software redesign (guideline path).
    pub fn redesign() -> Self {
        RemediationCost {
            analysis_days: 10,
            implementation_days: 60,
            verification_days: 30,
            deployment_days: 45,
            requires_recall: true,
            requires_recertification: true,
        }
    }

    /// Cost profile of a signed policy update (policy path).
    pub fn policy_update() -> Self {
        RemediationCost {
            analysis_days: 2,
            implementation_days: 1,
            verification_days: 3,
            deployment_days: 1,
            requires_recall: false,
            requires_recertification: false,
        }
    }

    /// Total calendar effort in days.
    pub fn total_days(&self) -> u32 {
        self.analysis_days + self.implementation_days + self.verification_days + self.deployment_days
    }
}

impl fmt::Display for RemediationCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} days (analysis {}, impl {}, verify {}, deploy {}){}{}",
            self.total_days(),
            self.analysis_days,
            self.implementation_days,
            self.verification_days,
            self.deployment_days,
            if self.requires_recall { ", recall" } else { "" },
            if self.requires_recertification { ", recert" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PolicySpec {
        PolicySpec {
            asset: AssetId::new("ev-ecu"),
            entry_points: vec![EntryPointId::new("sensors")],
            permission: PermissionHint::Read,
            modes: vec![OperatingMode::new("normal")],
            rationale: "spoofed CAN data".into(),
        }
    }

    #[test]
    fn permission_hint_parse() {
        assert_eq!(PermissionHint::parse("R"), Some(PermissionHint::Read));
        assert_eq!(PermissionHint::parse("w"), Some(PermissionHint::Write));
        assert_eq!(PermissionHint::parse("RW"), Some(PermissionHint::ReadWrite));
        assert_eq!(PermissionHint::parse(" rw "), Some(PermissionHint::ReadWrite));
        assert_eq!(PermissionHint::parse("X"), None);
    }

    #[test]
    fn permission_semantics() {
        assert!(PermissionHint::Read.allows_read());
        assert!(!PermissionHint::Read.allows_write());
        assert!(PermissionHint::Write.allows_write());
        assert!(!PermissionHint::Write.allows_read());
        assert!(PermissionHint::ReadWrite.allows_read());
        assert!(PermissionHint::ReadWrite.allows_write());
    }

    #[test]
    fn policy_is_field_updatable_guideline_is_not() {
        let g = Countermeasure::Guideline { text: "patch often".into() };
        let p = Countermeasure::Policy { spec: spec() };
        assert!(!g.is_field_updatable());
        assert!(p.is_field_updatable());
    }

    #[test]
    fn cost_ratio_strongly_favours_policy() {
        let redesign = RemediationCost::redesign();
        let update = RemediationCost::policy_update();
        assert!(redesign.total_days() > 10 * update.total_days());
        assert!(redesign.requires_recall);
        assert!(!update.requires_recall);
        assert!(redesign.requires_recertification);
        assert!(!update.requires_recertification);
    }

    #[test]
    fn post_deployment_cost_maps_by_kind() {
        let g = Countermeasure::Guideline { text: "x".into() };
        let p = Countermeasure::Policy { spec: spec() };
        assert_eq!(g.post_deployment_cost(), RemediationCost::redesign());
        assert_eq!(p.post_deployment_cost(), RemediationCost::policy_update());
    }

    #[test]
    fn displays() {
        let s = spec();
        let text = s.to_string();
        assert!(text.contains("permit R on ev-ecu"));
        assert!(text.contains("in modes [normal]"));
        let c = Countermeasure::Policy { spec: s };
        assert!(c.to_string().starts_with("policy: "));
        assert!(RemediationCost::redesign().to_string().contains("recall"));
        assert_eq!(PermissionHint::ReadWrite.to_string(), "RW");
    }

    #[test]
    fn total_days_adds_stages() {
        let c = RemediationCost {
            analysis_days: 1,
            implementation_days: 2,
            verification_days: 3,
            deployment_days: 4,
            requires_recall: false,
            requires_recertification: false,
        };
        assert_eq!(c.total_days(), 10);
    }
}
