//! Operating modes.
//!
//! The paper's case study defines three *car modes* (Normal, Remote
//! Diagnostic, Fail-safe) "under which the vehicle's core functionalities
//! will be adjusted". Modes are a first-class dimension of both threats
//! (which modes a threat applies in) and policies (mode-conditional rules),
//! so the model keeps them generic: any string-named mode works.

use std::fmt;

/// A named operating mode of the system under analysis.
///
/// # Example
/// ```
/// use polsec_model::OperatingMode;
/// let normal = OperatingMode::new("normal");
/// assert_eq!(normal.name(), "normal");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OperatingMode(String);

impl OperatingMode {
    /// Creates a mode with the given name (trimmed, lower-cased for
    /// comparison stability).
    pub fn new(name: impl AsRef<str>) -> Self {
        OperatingMode(name.as_ref().trim().to_ascii_lowercase())
    }

    /// The normalised mode name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for OperatingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for OperatingMode {
    fn from(s: &str) -> Self {
        OperatingMode::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation() {
        assert_eq!(OperatingMode::new("  Normal "), OperatingMode::new("normal"));
        assert_eq!(OperatingMode::new("FAIL-SAFE").name(), "fail-safe");
    }

    #[test]
    fn distinct_modes_differ() {
        assert_ne!(OperatingMode::new("normal"), OperatingMode::new("fail-safe"));
    }

    #[test]
    fn display_and_from() {
        let m: OperatingMode = "Remote Diagnostic".into();
        assert_eq!(m.to_string(), "remote diagnostic");
    }

    #[test]
    fn usable_in_sorted_collections() {
        let mut v = [OperatingMode::new("normal"),
            OperatingMode::new("fail-safe"),
            OperatingMode::new("remote diagnostic")];
        v.sort();
        assert_eq!(v[0].name(), "fail-safe");
    }
}
