//! Error type for the HPE crate.

use std::fmt;

/// Errors produced by HPE configuration and operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HpeError {
    /// An approved list is at hardware capacity.
    ListFull {
        /// The capacity that was exceeded.
        capacity: usize,
    },
    /// A firmware-originated reconfiguration attempt was rejected (the
    /// tamper-resistance property).
    TamperRejected,
    /// A signed configuration bundle failed verification or did not advance
    /// the version.
    ConfigRejected {
        /// Why, in words.
        reason: String,
    },
    /// A policy rule could not be compiled into id/mask filter entries.
    UnsupportedRule {
        /// The rule id.
        rule: String,
        /// What made it uncompilable.
        reason: String,
    },
}

impl fmt::Display for HpeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HpeError::ListFull { capacity } => {
                write!(f, "approved list full (hardware capacity {capacity})")
            }
            HpeError::TamperRejected => {
                write!(f, "unauthenticated reconfiguration rejected by hardware")
            }
            HpeError::ConfigRejected { reason } => write!(f, "configuration rejected: {reason}"),
            HpeError::UnsupportedRule { rule, reason } => {
                write!(f, "rule '{rule}' cannot compile to hardware filters: {reason}")
            }
        }
    }
}

impl std::error::Error for HpeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            HpeError::ListFull { capacity: 16 }.to_string(),
            "approved list full (hardware capacity 16)"
        );
        assert!(HpeError::TamperRejected.to_string().contains("rejected"));
    }

    #[test]
    fn is_std_error() {
        fn takes<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes(HpeError::TamperRejected);
    }
}
