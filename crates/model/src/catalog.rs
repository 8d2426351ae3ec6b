//! STRIDE mitigation catalog.
//!
//! The "Determine countermeasure" pipeline stage needs, for each STRIDE
//! category, the canonical mitigation families (authentication for spoofing,
//! integrity protection for tampering, …). [`ThreatCatalog`] captures that
//! mapping and answers queries threats use to propose countermeasures.

use crate::stride::{StrideCategory, StrideSet};

/// A canonical mitigation suggestion for a STRIDE category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mitigation {
    /// The STRIDE category addressed.
    pub category: StrideCategory,
    /// Mitigation family name.
    pub family: String,
    /// Concrete techniques within the family.
    pub techniques: Vec<String>,
}

/// A queryable catalog of standard mitigations per STRIDE category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreatCatalog {
    mitigations: Vec<Mitigation>,
}

impl Default for ThreatCatalog {
    fn default() -> Self {
        Self::standard()
    }
}

impl ThreatCatalog {
    /// The standard catalog: one mitigation family per STRIDE category, with
    /// the embedded-systems techniques the paper's context calls for.
    pub fn standard() -> Self {
        let m = |category, family: &str, techniques: &[&str]| Mitigation {
            category,
            family: family.to_string(),
            techniques: techniques.iter().map(|s| s.to_string()).collect(),
        };
        ThreatCatalog {
            mitigations: vec![
                m(
                    StrideCategory::Spoofing,
                    "authentication",
                    &[
                        "message authentication codes on bus frames",
                        "sender id verification at the policy engine",
                        "mutual authentication on diagnostic sessions",
                    ],
                ),
                m(
                    StrideCategory::Tampering,
                    "integrity protection",
                    &[
                        "write filtering at entry points",
                        "firmware signature verification",
                        "hardware-enforced approved write lists",
                    ],
                ),
                m(
                    StrideCategory::Repudiation,
                    "audit",
                    &[
                        "tamper-evident event logging",
                        "policy decision audit trail",
                    ],
                ),
                m(
                    StrideCategory::InformationDisclosure,
                    "confidentiality",
                    &[
                        "read filtering at entry points",
                        "encrypting telemetry uplinks",
                        "least-privilege read lists",
                    ],
                ),
                m(
                    StrideCategory::DenialOfService,
                    "availability",
                    &[
                        "rate limiting per message id",
                        "fault confinement (error-passive/bus-off)",
                        "fail-safe operating mode",
                    ],
                ),
                m(
                    StrideCategory::ElevationOfPrivilege,
                    "authorisation",
                    &[
                        "mandatory access control (SELinux-style)",
                        "mode-scoped permissions",
                        "privilege separation between infotainment and control",
                    ],
                ),
            ],
        }
    }

    /// The mitigation entry for a category.
    pub fn for_category(&self, c: StrideCategory) -> Option<&Mitigation> {
        self.mitigations.iter().find(|m| m.category == c)
    }

    /// All mitigation entries relevant to a STRIDE set, in canonical order.
    pub fn for_set(&self, s: StrideSet) -> impl Iterator<Item = &Mitigation> {
        self.mitigations.iter().filter(move |m| s.contains(m.category))
    }

    /// A flat list of technique strings for a STRIDE set (deduplicated,
    /// order-preserving).
    pub fn techniques_for(&self, s: StrideSet) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for m in self.for_set(s) {
            for t in &m.techniques {
                if !out.contains(&t.as_str()) {
                    out.push(t);
                }
            }
        }
        out
    }

    /// Number of catalog entries.
    pub fn len(&self) -> usize {
        self.mitigations.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.mitigations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_covers_all_six_categories() {
        let c = ThreatCatalog::standard();
        assert_eq!(c.len(), 6);
        for cat in StrideCategory::ALL {
            let m = c.for_category(cat).unwrap_or_else(|| panic!("missing {cat}"));
            assert!(!m.techniques.is_empty());
        }
    }

    #[test]
    fn for_set_filters() {
        let c = ThreatCatalog::standard();
        let s: StrideSet = "SD".parse().unwrap();
        let fams: Vec<&str> = c.for_set(s).map(|m| m.family.as_str()).collect();
        assert_eq!(fams, vec!["authentication", "availability"]);
    }

    #[test]
    fn techniques_flatten_and_dedup() {
        let c = ThreatCatalog::standard();
        let all = c.techniques_for(StrideSet::all());
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(all.len(), sorted.len(), "no duplicates");
        assert!(all.len() >= 12);
    }

    #[test]
    fn empty_set_yields_nothing() {
        let c = ThreatCatalog::standard();
        assert!(c.techniques_for(StrideSet::EMPTY).is_empty());
        assert!(!c.is_empty());
    }

    #[test]
    fn spoofing_mitigation_mentions_id_verification() {
        // the paper's HPE enforces "CAN ID verification"; the catalog must
        // point the spoofing category at it
        let c = ThreatCatalog::standard();
        let m = c.for_category(StrideCategory::Spoofing).unwrap();
        assert!(m.techniques.iter().any(|t| t.contains("id verification")));
    }
}
