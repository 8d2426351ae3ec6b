//! Security contexts.

use crate::error::MacError;
use polsec_core::Symbol;
use std::fmt;

/// A `user:role:type` security label, as carried by every subject and
/// object under type enforcement.
///
/// # Example
/// ```
/// use polsec_mac::SecurityContext;
/// let c = SecurityContext::parse("system:system_r:telematics_t")?;
/// assert_eq!(c.user(), "system");
/// assert_eq!(c.role(), "system_r");
/// assert_eq!(c.type_(), "telematics_t");
/// # Ok::<(), polsec_mac::MacError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SecurityContext {
    user: String,
    role: String,
    type_: Symbol,
}

impl SecurityContext {
    /// Creates a context from its parts.
    pub fn new(
        user: impl Into<String>,
        role: impl Into<String>,
        type_: impl AsRef<str>,
    ) -> Self {
        SecurityContext {
            user: user.into(),
            role: role.into(),
            type_: Symbol::intern(type_.as_ref()),
        }
    }

    /// Convenience: an object context `system:object_r:<type>`.
    pub fn object(type_: impl AsRef<str>) -> Self {
        SecurityContext::new("system", "object_r", type_)
    }

    /// Parses `user:role:type`.
    ///
    /// # Errors
    /// [`MacError::MalformedContext`] when not exactly three non-empty
    /// colon-separated parts.
    pub fn parse(s: &str) -> Result<Self, MacError> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 3 || parts.iter().any(|p| p.trim().is_empty()) {
            return Err(MacError::MalformedContext { input: s.to_string() });
        }
        Ok(SecurityContext::new(
            parts[0].trim(),
            parts[1].trim(),
            parts[2].trim(),
        ))
    }

    /// The user part.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The role part.
    pub fn role(&self) -> &str {
        &self.role
    }

    /// The type part — what type enforcement operates on.
    pub fn type_(&self) -> &'static str {
        self.type_.as_str()
    }

    /// A copy with a different type (domain transition result).
    pub fn with_type(&self, type_: impl AsRef<str>) -> Self {
        SecurityContext {
            user: self.user.clone(),
            role: self.role.clone(),
            type_: Symbol::intern(type_.as_ref()),
        }
    }
}

impl fmt::Display for SecurityContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.user, self.role, self.type_.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let c = SecurityContext::parse("u:r:t").unwrap();
        assert_eq!(c.to_string(), "u:r:t");
        assert_eq!(SecurityContext::parse(&c.to_string()).unwrap(), c);
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "a:b", "a:b:c:d", "a::c", ":b:c", "a:b:"] {
            assert!(
                matches!(
                    SecurityContext::parse(bad),
                    Err(MacError::MalformedContext { .. })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn object_helper() {
        let c = SecurityContext::object("canbus_t");
        assert_eq!(c.to_string(), "system:object_r:canbus_t");
    }

    #[test]
    fn with_type_preserves_user_role() {
        let c = SecurityContext::new("u", "r", "old_t");
        let d = c.with_type("new_t");
        assert_eq!(d.user(), "u");
        assert_eq!(d.role(), "r");
        assert_eq!(d.type_(), "new_t");
    }

    #[test]
    fn trims_whitespace() {
        let c = SecurityContext::parse(" u : r : t ").unwrap();
        assert_eq!(c.to_string(), "u:r:t");
    }
}
