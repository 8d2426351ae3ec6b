//! Error type for the MAC crate.

use std::fmt;

/// Errors produced by MAC policy construction and loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MacError {
    /// A security context string was not `user:role:type`.
    MalformedContext {
        /// The offending input.
        input: String,
    },
    /// A rule referenced a type no module declares.
    UnknownType {
        /// The dangling type name.
        name: String,
    },
    /// Loading a module would violate a `neverallow` assertion.
    NeverallowViolation {
        /// The offending allow rule, rendered.
        rule: String,
        /// The violated assertion, rendered.
        assertion: String,
    },
    /// A module with this name is already loaded.
    ModuleExists {
        /// The module name.
        name: String,
    },
    /// No module with this name is loaded.
    ModuleNotFound {
        /// The module name.
        name: String,
    },
}

impl fmt::Display for MacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacError::MalformedContext { input } => {
                write!(f, "malformed security context '{input}' (expected user:role:type)")
            }
            MacError::UnknownType { name } => write!(f, "undeclared type '{name}'"),
            MacError::NeverallowViolation { rule, assertion } => {
                write!(f, "allow rule '{rule}' violates assertion '{assertion}'")
            }
            MacError::ModuleExists { name } => write!(f, "module '{name}' already loaded"),
            MacError::ModuleNotFound { name } => write!(f, "module '{name}' not loaded"),
        }
    }
}

impl std::error::Error for MacError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(MacError::MalformedContext { input: "x".into() }
            .to_string()
            .contains("user:role:type"));
        assert!(MacError::UnknownType { name: "ghost_t".into() }
            .to_string()
            .contains("ghost_t"));
    }

    #[test]
    fn is_std_error() {
        fn takes<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes(MacError::ModuleNotFound { name: "m".into() });
    }
}
