//! Entry points.
//!
//! "Entry Points … are interfaces that expose critical assets to the
//! attacker, and can be used to interact with the system or application"
//! (paper §II). Each entry point names the interface class it belongs to so
//! policies can be scoped per interface kind.

use std::fmt;

/// A stable identifier for an entry point.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryPointId(String);

impl EntryPointId {
    /// Creates an identifier.
    pub fn new(id: impl Into<String>) -> Self {
        EntryPointId(id.into())
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for EntryPointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for EntryPointId {
    fn from(s: &str) -> Self {
        EntryPointId::new(s)
    }
}

/// The class of interface an entry point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterfaceKind {
    /// Wide-area network access (3G/4G/WiFi in the case study).
    Network,
    /// An internal field bus (CAN in the case study).
    Bus,
    /// Physically accessible connector or control (OBD port, manual lock).
    Physical,
    /// Short-range wireless (Bluetooth, key fob).
    Wireless,
    /// Human-facing UI (media display, browser).
    UserInterface,
    /// A sensor feeding the system (wheel speed, radar).
    Sensor,
}

impl fmt::Display for InterfaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InterfaceKind::Network => "network",
            InterfaceKind::Bus => "bus",
            InterfaceKind::Physical => "physical",
            InterfaceKind::Wireless => "wireless",
            InterfaceKind::UserInterface => "user-interface",
            InterfaceKind::Sensor => "sensor",
        };
        f.write_str(s)
    }
}

/// An interface through which an attacker can reach assets.
///
/// # Example
/// ```
/// use polsec_model::{EntryPoint, InterfaceKind};
/// let ep = EntryPoint::new("telematics", "3G/4G/WiFi", InterfaceKind::Network);
/// assert_eq!(ep.kind(), InterfaceKind::Network);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryPoint {
    id: EntryPointId,
    name: String,
    kind: InterfaceKind,
    description: String,
}

impl EntryPoint {
    /// Creates an entry point.
    pub fn new(
        id: impl Into<EntryPointId>,
        name: impl Into<String>,
        kind: InterfaceKind,
    ) -> Self {
        EntryPoint {
            id: id.into(),
            name: name.into(),
            kind,
            description: String::new(),
        }
    }

    /// Adds a description (builder style).
    pub fn with_description(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }

    /// The entry point's identifier.
    pub fn id(&self) -> &EntryPointId {
        &self.id
    }

    /// The display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interface class.
    pub fn kind(&self) -> InterfaceKind {
        self.kind
    }

    /// The description (may be empty).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Whether this interface is remotely reachable (network or wireless) —
    /// remote entry points raise a threat's reachable attack surface.
    pub fn is_remote(&self) -> bool {
        matches!(self.kind, InterfaceKind::Network | InterfaceKind::Wireless)
    }
}

impl fmt::Display for EntryPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let ep = EntryPoint::new("can-bus", "CAN bus", InterfaceKind::Bus)
            .with_description("shared broadcast bus");
        assert_eq!(ep.id().as_str(), "can-bus");
        assert_eq!(ep.name(), "CAN bus");
        assert_eq!(ep.kind(), InterfaceKind::Bus);
        assert_eq!(ep.description(), "shared broadcast bus");
    }

    #[test]
    fn remote_classification() {
        assert!(EntryPoint::new("t", "3G", InterfaceKind::Network).is_remote());
        assert!(EntryPoint::new("b", "BT", InterfaceKind::Wireless).is_remote());
        assert!(!EntryPoint::new("c", "CAN", InterfaceKind::Bus).is_remote());
        assert!(!EntryPoint::new("o", "OBD", InterfaceKind::Physical).is_remote());
        assert!(!EntryPoint::new("s", "radar", InterfaceKind::Sensor).is_remote());
        assert!(!EntryPoint::new("u", "display", InterfaceKind::UserInterface).is_remote());
    }

    #[test]
    fn display_formats() {
        let ep = EntryPoint::new("x", "Media browser", InterfaceKind::UserInterface);
        assert_eq!(ep.to_string(), "Media browser [user-interface]");
        assert_eq!(InterfaceKind::Sensor.to_string(), "sensor");
    }

    #[test]
    fn id_from_str() {
        let id: EntryPointId = "sensors".into();
        assert_eq!(id.to_string(), "sensors");
    }
}
