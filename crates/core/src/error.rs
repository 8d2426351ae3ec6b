//! Error type for the policy crate.

use std::fmt;

/// Errors produced by policy construction, parsing, compilation and updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// An entity string was not of the form `namespace:name`.
    MalformedEntity {
        /// The offending input.
        input: String,
    },
    /// A numeric id range had `lo > hi` or unparsable bounds.
    MalformedRange {
        /// The offending input.
        input: String,
    },
    /// The DSL lexer met an unexpected character.
    Lex {
        /// Line number (1-based).
        line: u32,
        /// The unexpected character.
        found: char,
    },
    /// The DSL parser met an unexpected token.
    Parse {
        /// Line number (1-based).
        line: u32,
        /// What the parser expected.
        expected: String,
        /// What it found.
        found: String,
    },
    /// A policy declared two rules with the same id.
    DuplicateRule {
        /// The duplicated rule id.
        id: String,
    },
    /// A bundle signature did not verify.
    BadSignature,
    /// A bundle's version did not advance the store's version.
    StaleVersion {
        /// The store's current version.
        current: u64,
        /// The offered bundle's version.
        offered: u64,
    },
    /// Bundle payload failed to deserialise.
    MalformedBundle {
        /// Decoder detail.
        detail: String,
    },
    /// Rollback was requested with no previous version retained.
    NothingToRollBack,
    /// A strict-mode bundle load was vetoed by static analysis
    /// ([`PolicyEngine::load_bundle`](crate::PolicyEngine::load_bundle)
    /// with [`LoadMode::Strict`](crate::LoadMode::Strict)).
    AnalysisRejected {
        /// The validator's findings, rendered as text.
        detail: String,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::MalformedEntity { input } => {
                write!(f, "malformed entity '{input}' (expected namespace:name)")
            }
            PolicyError::MalformedRange { input } => {
                write!(f, "malformed id range '{input}' (expected 0xLO-0xHI with lo <= hi)")
            }
            PolicyError::Lex { line, found } => {
                write!(f, "line {line}: unexpected character '{found}'")
            }
            PolicyError::Parse { line, expected, found } => {
                write!(f, "line {line}: expected {expected}, found {found}")
            }
            PolicyError::DuplicateRule { id } => write!(f, "duplicate rule id '{id}'"),
            PolicyError::BadSignature => write!(f, "bundle signature verification failed"),
            PolicyError::StaleVersion { current, offered } => {
                write!(f, "bundle version {offered} does not advance current version {current}")
            }
            PolicyError::MalformedBundle { detail } => write!(f, "malformed bundle: {detail}"),
            PolicyError::NothingToRollBack => write!(f, "no previous policy version retained"),
            PolicyError::AnalysisRejected { detail } => {
                write!(f, "bundle rejected by static analysis: {detail}")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_detail() {
        let e = PolicyError::Parse {
            line: 3,
            expected: "';'".into(),
            found: "'}'".into(),
        };
        assert_eq!(e.to_string(), "line 3: expected ';', found '}'");
        assert!(PolicyError::StaleVersion { current: 5, offered: 5 }
            .to_string()
            .contains("5"));
    }

    #[test]
    fn is_std_error() {
        fn takes<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes(PolicyError::BadSignature);
    }
}
