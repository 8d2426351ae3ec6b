//! Error type for the threat-modelling crate.

use std::fmt;

/// Errors produced while building or validating threat models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A DREAD component score exceeded the 0–10 scale.
    ScoreOutOfRange {
        /// Which component ("damage", …).
        component: &'static str,
        /// The offending value.
        value: u8,
    },
    /// A STRIDE string contained an unknown letter.
    UnknownStrideLetter {
        /// The offending character.
        letter: char,
    },
    /// A STRIDE string was empty.
    EmptyStride,
    /// Two elements with the same identifier were added.
    DuplicateId {
        /// What kind of element ("asset", "entry point", "threat").
        kind: &'static str,
        /// The duplicated identifier.
        id: String,
    },
    /// A threat referenced an asset not present in the use case.
    UnknownAsset {
        /// The dangling asset id.
        id: String,
    },
    /// A threat referenced an entry point not present in the use case.
    UnknownEntryPoint {
        /// The dangling entry-point id.
        id: String,
    },
    /// A threat referenced an operating mode not declared in the use case.
    UnknownMode {
        /// The dangling mode name.
        name: String,
    },
    /// A use case was finalised without any assets.
    NoAssets,
    /// A threat listed no entry points.
    NoEntryPoints {
        /// The threat's id.
        threat: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::ScoreOutOfRange { component, value } => {
                write!(f, "{component} score {value} exceeds the 0-10 scale")
            }
            ModelError::UnknownStrideLetter { letter } => {
                write!(f, "unknown stride letter '{letter}' (expected one of STRIDE)")
            }
            ModelError::EmptyStride => write!(f, "stride string was empty"),
            ModelError::DuplicateId { kind, id } => write!(f, "duplicate {kind} id '{id}'"),
            ModelError::UnknownAsset { id } => write!(f, "threat references unknown asset '{id}'"),
            ModelError::UnknownEntryPoint { id } => {
                write!(f, "threat references unknown entry point '{id}'")
            }
            ModelError::UnknownMode { name } => {
                write!(f, "threat references undeclared mode '{name}'")
            }
            ModelError::NoAssets => write!(f, "use case declares no assets"),
            ModelError::NoEntryPoints { threat } => {
                write!(f, "threat '{threat}' lists no entry points")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_specific() {
        assert_eq!(
            ModelError::ScoreOutOfRange { component: "damage", value: 11 }.to_string(),
            "damage score 11 exceeds the 0-10 scale"
        );
        assert_eq!(
            ModelError::UnknownStrideLetter { letter: 'X' }.to_string(),
            "unknown stride letter 'X' (expected one of STRIDE)"
        );
        assert!(ModelError::DuplicateId { kind: "asset", id: "ecu".into() }
            .to_string()
            .contains("asset"));
    }

    #[test]
    fn error_trait() {
        fn takes<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes(ModelError::NoAssets);
    }
}
