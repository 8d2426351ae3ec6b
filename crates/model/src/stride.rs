//! STRIDE threat categorisation.
//!
//! STRIDE classifies threats by the security property they violate:
//! **S**poofing (authentication), **T**ampering (integrity),
//! **R**epudiation (non-repudiation), **I**nformation disclosure
//! (confidentiality), **D**enial of service (availability), and
//! **E**levation of privilege (authorisation). The paper's Table I records
//! each threat's categories as a compact letter string such as `"STD"` or
//! `"STIDE"`; [`StrideSet`] parses and prints exactly that notation.

use crate::error::ModelError;
use std::fmt;
use std::str::FromStr;

/// One STRIDE category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StrideCategory {
    /// Illegitimately assuming another identity (violates authentication).
    Spoofing,
    /// Unauthorised modification of data or code (violates integrity).
    Tampering,
    /// Denying having performed an action (violates non-repudiation).
    Repudiation,
    /// Exposure of information (violates confidentiality).
    InformationDisclosure,
    /// Making a service unavailable (violates availability).
    DenialOfService,
    /// Gaining capabilities beyond those granted (violates authorisation).
    ElevationOfPrivilege,
}

impl StrideCategory {
    /// All six categories in canonical S,T,R,I,D,E order.
    pub const ALL: [StrideCategory; 6] = [
        StrideCategory::Spoofing,
        StrideCategory::Tampering,
        StrideCategory::Repudiation,
        StrideCategory::InformationDisclosure,
        StrideCategory::DenialOfService,
        StrideCategory::ElevationOfPrivilege,
    ];

    /// The category's single-letter code.
    pub fn letter(self) -> char {
        match self {
            StrideCategory::Spoofing => 'S',
            StrideCategory::Tampering => 'T',
            StrideCategory::Repudiation => 'R',
            StrideCategory::InformationDisclosure => 'I',
            StrideCategory::DenialOfService => 'D',
            StrideCategory::ElevationOfPrivilege => 'E',
        }
    }

    /// Parses a single letter code.
    ///
    /// # Errors
    /// [`ModelError::UnknownStrideLetter`] on anything outside `STRIDE`
    /// (case-insensitive).
    pub fn from_letter(c: char) -> Result<Self, ModelError> {
        match c.to_ascii_uppercase() {
            'S' => Ok(StrideCategory::Spoofing),
            'T' => Ok(StrideCategory::Tampering),
            'R' => Ok(StrideCategory::Repudiation),
            'I' => Ok(StrideCategory::InformationDisclosure),
            'D' => Ok(StrideCategory::DenialOfService),
            'E' => Ok(StrideCategory::ElevationOfPrivilege),
            other => Err(ModelError::UnknownStrideLetter { letter: other }),
        }
    }

    /// The security property this category violates.
    pub fn violated_property(self) -> &'static str {
        match self {
            StrideCategory::Spoofing => "authentication",
            StrideCategory::Tampering => "integrity",
            StrideCategory::Repudiation => "non-repudiation",
            StrideCategory::InformationDisclosure => "confidentiality",
            StrideCategory::DenialOfService => "availability",
            StrideCategory::ElevationOfPrivilege => "authorisation",
        }
    }
}

impl fmt::Display for StrideCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StrideCategory::Spoofing => "Spoofing",
            StrideCategory::Tampering => "Tampering",
            StrideCategory::Repudiation => "Repudiation",
            StrideCategory::InformationDisclosure => "Information disclosure",
            StrideCategory::DenialOfService => "Denial of service",
            StrideCategory::ElevationOfPrivilege => "Elevation of privilege",
        };
        f.write_str(name)
    }
}

/// A set of STRIDE categories, printed in canonical letter order.
///
/// # Example
/// ```
/// use polsec_model::{StrideCategory, StrideSet};
/// let s: StrideSet = "DTS".parse()?; // order-insensitive input
/// assert_eq!(s.to_string(), "STD"); // canonical output
/// assert_eq!(s.len(), 3);
/// assert!(s.contains(StrideCategory::DenialOfService));
/// # Ok::<(), polsec_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StrideSet {
    bits: u8,
}

impl StrideSet {
    /// The empty set.
    pub const EMPTY: StrideSet = StrideSet { bits: 0 };

    /// A set containing every category.
    pub fn all() -> Self {
        StrideSet { bits: 0b11_1111 }
    }

    /// A set with a single category.
    pub fn only(c: StrideCategory) -> Self {
        StrideSet { bits: Self::bit(c) }
    }

    fn bit(c: StrideCategory) -> u8 {
        match c {
            StrideCategory::Spoofing => 1 << 0,
            StrideCategory::Tampering => 1 << 1,
            StrideCategory::Repudiation => 1 << 2,
            StrideCategory::InformationDisclosure => 1 << 3,
            StrideCategory::DenialOfService => 1 << 4,
            StrideCategory::ElevationOfPrivilege => 1 << 5,
        }
    }

    /// Adds a category (idempotent).
    pub fn insert(&mut self, c: StrideCategory) {
        self.bits |= Self::bit(c);
    }

    /// Removes a category.
    pub fn remove(&mut self, c: StrideCategory) {
        self.bits &= !Self::bit(c);
    }

    /// Whether the set contains `c`.
    pub fn contains(self, c: StrideCategory) -> bool {
        self.bits & Self::bit(c) != 0
    }

    /// Number of categories present.
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Set union.
    pub fn union(self, other: StrideSet) -> StrideSet {
        StrideSet { bits: self.bits | other.bits }
    }

    /// Set intersection.
    pub fn intersection(self, other: StrideSet) -> StrideSet {
        StrideSet { bits: self.bits & other.bits }
    }

    /// Iterates categories in canonical order.
    pub fn iter(self) -> impl Iterator<Item = StrideCategory> {
        StrideCategory::ALL.into_iter().filter(move |c| self.contains(*c))
    }

    /// Whether the set indicates an availability threat (contains D).
    pub fn threatens_availability(self) -> bool {
        self.contains(StrideCategory::DenialOfService)
    }

    /// Whether the set indicates an integrity or authenticity threat
    /// (contains S or T).
    pub fn threatens_integrity(self) -> bool {
        self.contains(StrideCategory::Spoofing) || self.contains(StrideCategory::Tampering)
    }
}

impl FromStr for StrideSet {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        if trimmed.is_empty() {
            return Err(ModelError::EmptyStride);
        }
        let mut set = StrideSet::EMPTY;
        for c in trimmed.chars() {
            set.insert(StrideCategory::from_letter(c)?);
        }
        Ok(set)
    }
}

impl fmt::Display for StrideSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("-");
        }
        for c in self.iter() {
            write!(f, "{}", c.letter())?;
        }
        Ok(())
    }
}

impl FromIterator<StrideCategory> for StrideSet {
    fn from_iter<T: IntoIterator<Item = StrideCategory>>(iter: T) -> Self {
        let mut s = StrideSet::EMPTY;
        for c in iter {
            s.insert(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_strings() {
        // every STRIDE string appearing in Table I of the paper
        for (input, expected_len) in [
            ("STD", 3),
            ("SD", 2),
            ("STE", 3),
            ("STIDE", 5),
            ("TIE", 3),
            ("TDE", 3),
            ("STR", 3),
            ("TE", 2),
        ] {
            let s: StrideSet = input.parse().unwrap_or_else(|e| panic!("{input}: {e}"));
            assert_eq!(s.len(), expected_len, "{input}");
            assert_eq!(s.to_string(), input, "canonical order for {input}");
        }
    }

    #[test]
    fn rejects_unknown_letters_and_empty() {
        assert_eq!(
            "SX".parse::<StrideSet>().unwrap_err(),
            ModelError::UnknownStrideLetter { letter: 'X' }
        );
        assert_eq!("".parse::<StrideSet>().unwrap_err(), ModelError::EmptyStride);
        assert_eq!("  ".parse::<StrideSet>().unwrap_err(), ModelError::EmptyStride);
    }

    #[test]
    fn parse_is_case_insensitive_and_idempotent() {
        let a: StrideSet = "std".parse().unwrap();
        let b: StrideSet = "STD".parse().unwrap();
        let c: StrideSet = "SSTTDD".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = StrideSet::EMPTY;
        assert!(s.is_empty());
        s.insert(StrideCategory::Tampering);
        assert!(s.contains(StrideCategory::Tampering));
        assert!(!s.contains(StrideCategory::Spoofing));
        s.remove(StrideCategory::Tampering);
        assert!(s.is_empty());
    }

    #[test]
    fn union_and_intersection() {
        let a: StrideSet = "ST".parse().unwrap();
        let b: StrideSet = "TD".parse().unwrap();
        assert_eq!(a.union(b).to_string(), "STD");
        assert_eq!(a.intersection(b).to_string(), "T");
    }

    #[test]
    fn all_has_six() {
        assert_eq!(StrideSet::all().len(), 6);
        assert_eq!(StrideSet::all().to_string(), "STRIDE");
    }

    #[test]
    fn empty_displays_dash() {
        assert_eq!(StrideSet::EMPTY.to_string(), "-");
    }

    #[test]
    fn semantic_queries() {
        let s: StrideSet = "STD".parse().unwrap();
        assert!(s.threatens_availability());
        assert!(s.threatens_integrity());
        let t: StrideSet = "IE".parse().unwrap();
        assert!(!t.threatens_availability());
        assert!(!t.threatens_integrity());
    }

    #[test]
    fn category_letters_round_trip() {
        for c in StrideCategory::ALL {
            assert_eq!(StrideCategory::from_letter(c.letter()).unwrap(), c);
        }
    }

    #[test]
    fn properties_are_distinct() {
        let mut props: Vec<&str> = StrideCategory::ALL
            .iter()
            .map(|c| c.violated_property())
            .collect();
        props.sort_unstable();
        props.dedup();
        assert_eq!(props.len(), 6);
    }

    #[test]
    fn from_iterator() {
        let s: StrideSet = [StrideCategory::Spoofing, StrideCategory::ElevationOfPrivilege]
            .into_iter()
            .collect();
        assert_eq!(s.to_string(), "SE");
    }

    #[test]
    fn display_names() {
        assert_eq!(StrideCategory::InformationDisclosure.to_string(), "Information disclosure");
        assert_eq!(StrideCategory::Spoofing.to_string(), "Spoofing");
    }
}
