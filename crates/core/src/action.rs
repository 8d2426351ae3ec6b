//! Access actions.
//!
//! The paper's Table I derives read/write permissions; the engine also
//! supports execute (for the infotainment privilege-escalation scenarios)
//! and configure (for filter/policy reconfiguration attempts).

use std::fmt;
use std::str::FromStr;

/// One access verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Read data from the object.
    Read,
    /// Write data to the object.
    Write,
    /// Execute/install code on the object.
    Execute,
    /// Reconfigure the object (filters, policies, firmware).
    Configure,
}

impl Action {
    /// All actions in canonical order.
    pub const ALL: [Action; 4] = [Action::Read, Action::Write, Action::Execute, Action::Configure];

    /// The action's lowercase keyword as used in the DSL.
    pub fn keyword(self) -> &'static str {
        match self {
            Action::Read => "read",
            Action::Write => "write",
            Action::Execute => "execute",
            Action::Configure => "configure",
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

impl FromStr for Action {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "read" | "r" => Ok(Action::Read),
            "write" | "w" => Ok(Action::Write),
            "execute" | "x" => Ok(Action::Execute),
            "configure" | "cfg" => Ok(Action::Configure),
            other => Err(format!("unknown action '{other}'")),
        }
    }
}

/// A set of actions (compact bitset).
///
/// # Example
/// ```
/// use polsec_core::{Action, ActionSet};
/// let rw = ActionSet::of(&[Action::Read, Action::Write]);
/// assert!(rw.contains(Action::Read));
/// assert!(!rw.contains(Action::Execute));
/// assert_eq!(rw.to_string(), "read, write");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ActionSet {
    bits: u8,
}

impl ActionSet {
    /// The empty set.
    pub const EMPTY: ActionSet = ActionSet { bits: 0 };

    fn bit(a: Action) -> u8 {
        match a {
            Action::Read => 1 << 0,
            Action::Write => 1 << 1,
            Action::Execute => 1 << 2,
            Action::Configure => 1 << 3,
        }
    }

    /// A set with every action.
    pub fn all() -> Self {
        ActionSet { bits: 0b1111 }
    }

    /// A set with one action.
    pub fn only(a: Action) -> Self {
        ActionSet { bits: Self::bit(a) }
    }

    /// A set from a slice of actions.
    pub fn of(actions: &[Action]) -> Self {
        let mut s = ActionSet::EMPTY;
        for &a in actions {
            s.insert(a);
        }
        s
    }

    /// Adds an action.
    pub fn insert(&mut self, a: Action) {
        self.bits |= Self::bit(a);
    }

    /// Removes an action.
    pub fn remove(&mut self, a: Action) {
        self.bits &= !Self::bit(a);
    }

    /// Whether `a` is in the set.
    pub fn contains(self, a: Action) -> bool {
        self.bits & Self::bit(a) != 0
    }

    /// Number of actions present.
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Set union.
    pub fn union(self, other: ActionSet) -> ActionSet {
        ActionSet { bits: self.bits | other.bits }
    }

    /// Iterates actions in canonical order.
    pub fn iter(self) -> impl Iterator<Item = Action> {
        Action::ALL.into_iter().filter(move |a| self.contains(*a))
    }
}

impl fmt::Display for ActionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        let mut first = true;
        for a in self.iter() {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<Action> for ActionSet {
    fn from_iter<T: IntoIterator<Item = Action>>(iter: T) -> Self {
        let mut s = ActionSet::EMPTY;
        for a in iter {
            s.insert(a);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_all_spellings() {
        assert_eq!("read".parse::<Action>().unwrap(), Action::Read);
        assert_eq!("W".parse::<Action>().unwrap(), Action::Write);
        assert_eq!("x".parse::<Action>().unwrap(), Action::Execute);
        assert_eq!("CFG".parse::<Action>().unwrap(), Action::Configure);
        assert!("fly".parse::<Action>().is_err());
    }

    #[test]
    fn keyword_round_trip() {
        for a in Action::ALL {
            assert_eq!(a.keyword().parse::<Action>().unwrap(), a);
        }
    }

    #[test]
    fn set_operations() {
        let mut s = ActionSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Action::Read);
        s.insert(Action::Read);
        assert_eq!(s.len(), 1);
        s.insert(Action::Configure);
        assert!(s.contains(Action::Configure));
        s.remove(Action::Read);
        assert!(!s.contains(Action::Read));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_and_all() {
        let r = ActionSet::only(Action::Read);
        let w = ActionSet::only(Action::Write);
        assert_eq!(r.union(w), ActionSet::of(&[Action::Read, Action::Write]));
        assert_eq!(ActionSet::all().len(), 4);
    }

    #[test]
    fn display_canonical_order() {
        let s = ActionSet::of(&[Action::Configure, Action::Read]);
        assert_eq!(s.to_string(), "read, configure");
        assert_eq!(ActionSet::EMPTY.to_string(), "none");
    }

    #[test]
    fn from_iterator() {
        let s: ActionSet = [Action::Write, Action::Execute].into_iter().collect();
        assert_eq!(s.len(), 2);
        let back: Vec<Action> = s.iter().collect();
        assert_eq!(back, vec![Action::Write, Action::Execute]);
    }
}
