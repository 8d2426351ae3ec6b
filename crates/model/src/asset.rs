//! Critical assets.
//!
//! "Identify Assets" is the second stage of the Fig. 1 pipeline: items of
//! value an adversary may target. Each asset carries a criticality grade
//! that drives countermeasure prioritisation.

use std::fmt;

/// A stable identifier for an asset (kebab-case by convention).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AssetId(String);

impl AssetId {
    /// Creates an identifier.
    pub fn new(id: impl Into<String>) -> Self {
        AssetId(id.into())
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AssetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AssetId {
    fn from(s: &str) -> Self {
        AssetId::new(s)
    }
}

/// How severe the consequences of compromising an asset are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Criticality {
    /// Inconvenience only (e.g. media playback).
    Low,
    /// Degraded service or privacy exposure.
    Medium,
    /// Loss of a core vehicle function.
    High,
    /// Direct risk to life (braking, steering, airbags).
    SafetyCritical,
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Criticality::Low => "low",
            Criticality::Medium => "medium",
            Criticality::High => "high",
            Criticality::SafetyCritical => "safety-critical",
        };
        f.write_str(s)
    }
}

/// An item of value that must be protected.
///
/// # Example
/// ```
/// use polsec_model::{Asset, Criticality};
/// let a = Asset::new("ev-ecu", "EV-ECU", Criticality::SafetyCritical)
///     .with_description("accel, brake, transmission control");
/// assert_eq!(a.id().as_str(), "ev-ecu");
/// assert_eq!(a.criticality(), Criticality::SafetyCritical);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Asset {
    id: AssetId,
    name: String,
    description: String,
    criticality: Criticality,
}

impl Asset {
    /// Creates an asset.
    pub fn new(id: impl Into<AssetId>, name: impl Into<String>, criticality: Criticality) -> Self {
        Asset {
            id: id.into(),
            name: name.into(),
            description: String::new(),
            criticality,
        }
    }

    /// Adds a human-readable description (builder style).
    pub fn with_description(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }

    /// The asset's identifier.
    pub fn id(&self) -> &AssetId {
        &self.id
    }

    /// The asset's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The asset's description (may be empty).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The asset's criticality grade.
    pub fn criticality(&self) -> Criticality {
        self.criticality
    }
}

impl From<&str> for Asset {
    /// Convenience: an asset with medium criticality, id == name.
    fn from(s: &str) -> Self {
        Asset::new(s, s, Criticality::Medium)
    }
}

impl fmt::Display for Asset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.criticality)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let a = Asset::new("eps", "EPS (Steering)", Criticality::SafetyCritical)
            .with_description("electronic power steering");
        assert_eq!(a.id(), &AssetId::new("eps"));
        assert_eq!(a.name(), "EPS (Steering)");
        assert_eq!(a.description(), "electronic power steering");
        assert_eq!(a.criticality(), Criticality::SafetyCritical);
    }

    #[test]
    fn criticality_is_ordered() {
        assert!(Criticality::Low < Criticality::Medium);
        assert!(Criticality::Medium < Criticality::High);
        assert!(Criticality::High < Criticality::SafetyCritical);
    }

    #[test]
    fn id_conversions_and_display() {
        let id: AssetId = "door-locks".into();
        assert_eq!(id.as_str(), "door-locks");
        assert_eq!(id.to_string(), "door-locks");
    }

    #[test]
    fn from_str_defaults() {
        let a: Asset = "engine".into();
        assert_eq!(a.id().as_str(), "engine");
        assert_eq!(a.criticality(), Criticality::Medium);
    }

    #[test]
    fn display_includes_criticality() {
        let a = Asset::new("x", "Infotainment", Criticality::Low);
        assert_eq!(a.to_string(), "Infotainment (low)");
        assert_eq!(Criticality::SafetyCritical.to_string(), "safety-critical");
    }
}
