//! Entities and entity patterns.
//!
//! Policy subjects and objects are namespaced names — `entry:sensors`,
//! `asset:ev-ecu`, `can:0x1A0`, `proc:media-player` — so one engine can
//! govern CAN identifiers, threat-model assets and MAC processes uniformly.
//! Rules match entities with [`Pattern`]s: exact, wildcard, prefix, or a
//! numeric id range (the form the HPE compiles into id/mask filter entries).
//!
//! Entity names are **interned** (see [`crate::intern`]): an [`EntityId`]
//! is two 4-byte [`Symbol`] handles, so ids are `Copy`, compare in O(1),
//! and constructing one from already-seen strings allocates nothing. This
//! is the foundation of the engine's zero-allocation decision path
//! (DESIGN.md §6).

use crate::error::PolicyError;
use crate::intern::Symbol;
use std::fmt;

/// A concrete namespaced entity name.
///
/// # Example
/// ```
/// use polsec_core::EntityId;
/// let e = EntityId::parse("can:0x1A0")?;
/// assert_eq!(e.namespace(), "can");
/// assert_eq!(e.name(), "0x1A0");
/// assert_eq!(e.numeric_name(), Some(0x1A0));
/// # Ok::<(), polsec_core::PolicyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntityId {
    namespace: Symbol,
    name: Symbol,
}

impl EntityId {
    /// Creates an entity from namespace and name parts, interning both.
    pub fn new(namespace: impl AsRef<str>, name: impl AsRef<str>) -> Self {
        EntityId {
            namespace: Symbol::intern(namespace.as_ref()),
            name: Symbol::intern(name.as_ref()),
        }
    }

    /// The entity of two interned handles.
    pub(crate) fn from_symbols(namespace: Symbol, name: Symbol) -> Self {
        EntityId { namespace, name }
    }

    /// Parses `namespace:name`.
    ///
    /// # Errors
    /// [`PolicyError::MalformedEntity`] when the colon or either part is
    /// missing.
    pub fn parse(s: &str) -> Result<Self, PolicyError> {
        let (ns, name) = s
            .split_once(':')
            .ok_or_else(|| PolicyError::MalformedEntity { input: s.to_string() })?;
        if ns.is_empty() || name.is_empty() {
            return Err(PolicyError::MalformedEntity { input: s.to_string() });
        }
        Ok(EntityId::new(ns.trim(), name.trim()))
    }

    /// The namespace part.
    pub fn namespace(&self) -> &'static str {
        self.namespace.as_str()
    }

    /// The name part.
    pub fn name(&self) -> &'static str {
        self.name.as_str()
    }

    /// The interned namespace handle.
    pub fn namespace_symbol(&self) -> Symbol {
        self.namespace
    }

    /// The interned name handle.
    pub fn name_symbol(&self) -> Symbol {
        self.name
    }

    /// The name parsed as a number, accepting decimal or `0x` hex.
    pub fn numeric_name(&self) -> Option<u32> {
        parse_number(self.name())
    }
}

// Symbol handles order by interning age, not text, so ordering is defined
// explicitly over the resolved strings to keep lexical semantics.
impl PartialOrd for EntityId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EntityId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.namespace(), self.name()).cmp(&(other.namespace(), other.name()))
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.namespace(), self.name())
    }
}

fn parse_number(s: &str) -> Option<u32> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// How a rule matches an entity's name within a namespace.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Matches any name (`*`).
    Any,
    /// Matches exactly this name.
    Exact(String),
    /// Matches names starting with this prefix (`sensor-*`).
    Prefix(String),
    /// Matches names that parse as numbers within `[lo, hi]`
    /// (`0x100-0x1FF`).
    IdRange {
        /// Inclusive lower bound.
        lo: u32,
        /// Inclusive upper bound.
        hi: u32,
    },
}

impl Pattern {
    /// Whether the pattern matches a name.
    pub fn matches(&self, name: &str) -> bool {
        match self {
            Pattern::Any => true,
            Pattern::Exact(e) => e == name,
            Pattern::Prefix(p) => name.starts_with(p.as_str()),
            Pattern::IdRange { lo, hi } => match parse_number(name) {
                Some(v) => (*lo..=*hi).contains(&v),
                None => false,
            },
        }
    }

    /// Parses a pattern string: `*`, `prefix-*`, `0xLO-0xHI`, or an exact
    /// name.
    ///
    /// # Errors
    /// [`PolicyError::MalformedRange`] for a range with `lo > hi` or
    /// unparsable bounds.
    pub fn parse(s: &str) -> Result<Self, PolicyError> {
        let s = s.trim();
        if s == "*" {
            return Ok(Pattern::Any);
        }
        if let Some(prefix) = s.strip_suffix('*') {
            if !prefix.is_empty() {
                return Ok(Pattern::Prefix(prefix.to_string()));
            }
        }
        // A range is two numeric bounds joined by '-' where both sides parse.
        if let Some((lo_s, hi_s)) = s.split_once('-') {
            if let (Some(lo), Some(hi)) = (parse_number(lo_s), parse_number(hi_s)) {
                if lo > hi {
                    return Err(PolicyError::MalformedRange { input: s.to_string() });
                }
                return Ok(Pattern::IdRange { lo, hi });
            }
        }
        Ok(Pattern::Exact(s.to_string()))
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Any => f.write_str("*"),
            Pattern::Exact(e) => f.write_str(e),
            Pattern::Prefix(p) => write!(f, "{p}*"),
            Pattern::IdRange { lo, hi } => write!(f, "0x{lo:X}-0x{hi:X}"),
        }
    }
}

/// A subject/object matcher: a namespace (exact or any) plus a name pattern.
///
/// The namespace constraint and an exact pattern's name are stored
/// interned, so the match path compares integers: an exact matcher never
/// resolves the entity's name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EntityMatcher {
    namespace: Option<Symbol>,
    pattern: Pattern,
    /// The name of a [`Pattern::Exact`], interned when the matcher is built.
    exact_name: Option<Symbol>,
}

impl EntityMatcher {
    fn build(namespace: Option<Symbol>, pattern: Pattern) -> Self {
        let exact_name = match &pattern {
            Pattern::Exact(name) => Some(Symbol::intern(name)),
            _ => None,
        };
        EntityMatcher { namespace, pattern, exact_name }
    }

    /// Matcher for a specific namespace and pattern.
    pub fn new(namespace: impl AsRef<str>, pattern: Pattern) -> Self {
        EntityMatcher::build(Some(Symbol::intern(namespace.as_ref())), pattern)
    }

    /// Matcher crossing all namespaces.
    pub fn any_namespace(pattern: Pattern) -> Self {
        EntityMatcher::build(None, pattern)
    }

    /// Matches everything (`*:*`).
    pub fn anything() -> Self {
        EntityMatcher::build(None, Pattern::Any)
    }

    /// Matcher for exactly one entity.
    pub fn exact(e: &EntityId) -> Self {
        EntityMatcher {
            namespace: Some(e.namespace_symbol()),
            pattern: Pattern::Exact(e.name().to_string()),
            exact_name: Some(e.name_symbol()),
        }
    }

    /// Parses `namespace:pattern` (namespace `*` = any namespace).
    ///
    /// # Errors
    /// [`PolicyError::MalformedEntity`] / [`PolicyError::MalformedRange`].
    pub fn parse(s: &str) -> Result<Self, PolicyError> {
        let (ns, pat) = s
            .split_once(':')
            .ok_or_else(|| PolicyError::MalformedEntity { input: s.to_string() })?;
        let ns = ns.trim();
        if ns.is_empty() || pat.trim().is_empty() {
            return Err(PolicyError::MalformedEntity { input: s.to_string() });
        }
        let pattern = Pattern::parse(pat)?;
        if ns == "*" {
            Ok(EntityMatcher::any_namespace(pattern))
        } else {
            Ok(EntityMatcher::new(ns, pattern))
        }
    }

    /// The namespace constraint (`None` = any).
    pub fn namespace(&self) -> Option<&'static str> {
        self.namespace.map(Symbol::as_str)
    }

    /// The name pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Whether the matcher matches an entity.
    #[inline]
    pub fn matches(&self, e: &EntityId) -> bool {
        if let Some(ns) = self.namespace {
            if ns != e.namespace_symbol() {
                return false;
            }
        }
        match self.exact_name {
            Some(name) => name == e.name_symbol(),
            None => self.pattern.matches(e.name()),
        }
    }

    /// Whether this matcher can only ever match a single exact entity —
    /// used by the engine to index rules.
    pub fn exact_key(&self) -> Option<(String, String)> {
        match (&self.namespace, &self.pattern) {
            (Some(ns), Pattern::Exact(name)) => Some((ns.as_str().to_string(), name.clone())),
            _ => None,
        }
    }

    /// The interned form of [`EntityMatcher::exact_key`], used to build the
    /// engine's rule indexes without owning strings.
    pub fn exact_key_symbols(&self) -> Option<(Symbol, Symbol)> {
        Some((self.namespace?, self.exact_name?))
    }
}

impl fmt::Display for EntityMatcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.namespace {
            Some(ns) => write!(f, "{ns}:{}", self.pattern),
            None => write!(f, "*:{}", self.pattern),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_parse_and_display() {
        let e = EntityId::parse("asset:ev-ecu").unwrap();
        assert_eq!(e.namespace(), "asset");
        assert_eq!(e.name(), "ev-ecu");
        assert_eq!(e.to_string(), "asset:ev-ecu");
        assert_eq!(e.numeric_name(), None);
    }

    #[test]
    fn entity_numeric_names() {
        assert_eq!(EntityId::parse("can:0x1A0").unwrap().numeric_name(), Some(0x1A0));
        assert_eq!(EntityId::parse("can:416").unwrap().numeric_name(), Some(416));
    }

    #[test]
    fn entity_parse_rejects_malformed() {
        for bad in ["no-colon", ":name", "ns:", ""] {
            assert!(
                matches!(EntityId::parse(bad), Err(PolicyError::MalformedEntity { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn entity_ids_are_copy_and_interned() {
        let a = EntityId::new("entry", "sensors");
        let b = a; // Copy
        assert_eq!(a, b);
        let c = EntityId::new("entry", "sensors");
        assert_eq!(a.name_symbol(), c.name_symbol());
        assert_eq!(a.namespace_symbol(), c.namespace_symbol());
    }

    #[test]
    fn entity_ordering_is_lexical() {
        let mut v = [
            EntityId::new("zeta", "a"),
            EntityId::new("alpha", "b"),
            EntityId::new("alpha", "a"),
        ];
        v.sort();
        assert_eq!(v[0], EntityId::new("alpha", "a"));
        assert_eq!(v[1], EntityId::new("alpha", "b"));
        assert_eq!(v[2], EntityId::new("zeta", "a"));
    }

    #[test]
    fn pattern_any_exact_prefix() {
        assert!(Pattern::Any.matches("anything"));
        assert!(Pattern::Exact("abc".into()).matches("abc"));
        assert!(!Pattern::Exact("abc".into()).matches("abcd"));
        assert!(Pattern::Prefix("sensor-".into()).matches("sensor-1"));
        assert!(!Pattern::Prefix("sensor-".into()).matches("actuator-1"));
    }

    #[test]
    fn pattern_id_range() {
        let p = Pattern::IdRange { lo: 0x100, hi: 0x1FF };
        assert!(p.matches("0x100"));
        assert!(p.matches("0x1FF"));
        assert!(p.matches("300")); // decimal 300 = 0x12C, inside
        assert!(!p.matches("0x200"));
        assert!(!p.matches("not-a-number"));
    }

    #[test]
    fn pattern_parse_forms() {
        assert_eq!(Pattern::parse("*").unwrap(), Pattern::Any);
        assert_eq!(Pattern::parse("abc*").unwrap(), Pattern::Prefix("abc".into()));
        assert_eq!(
            Pattern::parse("0x10-0x20").unwrap(),
            Pattern::IdRange { lo: 0x10, hi: 0x20 }
        );
        assert_eq!(Pattern::parse("plain").unwrap(), Pattern::Exact("plain".into()));
        // a lone '*' suffix on empty prefix is Any, handled above; '-' words
        // that don't parse as numbers are exact names:
        assert_eq!(
            Pattern::parse("ev-ecu").unwrap(),
            Pattern::Exact("ev-ecu".into())
        );
    }

    #[test]
    fn pattern_parse_rejects_inverted_range() {
        assert!(matches!(
            Pattern::parse("0x20-0x10"),
            Err(PolicyError::MalformedRange { .. })
        ));
    }

    #[test]
    fn pattern_display_round_trip() {
        for s in ["*", "abc*", "0x10-0x20", "plain"] {
            let p = Pattern::parse(s).unwrap();
            let p2 = Pattern::parse(&p.to_string()).unwrap();
            assert_eq!(p, p2, "{s}");
        }
    }

    #[test]
    fn matcher_namespace_discipline() {
        let m = EntityMatcher::parse("entry:*").unwrap();
        assert!(m.matches(&EntityId::new("entry", "sensors")));
        assert!(!m.matches(&EntityId::new("asset", "sensors")));
        let any = EntityMatcher::parse("*:sensors").unwrap();
        assert!(any.matches(&EntityId::new("entry", "sensors")));
        assert!(any.matches(&EntityId::new("asset", "sensors")));
    }

    #[test]
    fn matcher_exact_and_exact_key() {
        let e = EntityId::new("asset", "eps");
        let m = EntityMatcher::exact(&e);
        assert!(m.matches(&e));
        assert_eq!(m.exact_key(), Some(("asset".into(), "eps".into())));
        assert_eq!(
            m.exact_key_symbols(),
            Some((e.namespace_symbol(), e.name_symbol()))
        );
        assert_eq!(EntityMatcher::anything().exact_key(), None);
        assert_eq!(
            EntityMatcher::parse("can:0x1-0x2").unwrap().exact_key(),
            None
        );
    }

    #[test]
    fn matcher_display() {
        assert_eq!(EntityMatcher::parse("can:0x10-0x1F").unwrap().to_string(), "can:0x10-0x1F");
        assert_eq!(EntityMatcher::anything().to_string(), "*:*");
    }

    #[test]
    fn anything_matches_everything() {
        let m = EntityMatcher::anything();
        assert!(m.matches(&EntityId::new("a", "b")));
        assert!(m.matches(&EntityId::new("x", "0x1")));
    }
}
