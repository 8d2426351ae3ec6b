//! Acceptance filters.
//!
//! CAN controllers filter received identifiers in hardware registers that the
//! node's *software* configures: an (id, mask) pair accepts identifier `x`
//! when `x & mask == id & mask`. This is the "programmable software based
//! filter" of the paper (§V.B.2) — flexible, but reprogrammable by
//! compromised firmware, which is exactly the weakness the hardware policy
//! engine addresses.

use crate::id::CanId;
use std::fmt;

/// A single id/mask acceptance filter.
///
/// Mask bit 1 = "this bit must match"; mask bit 0 = "don't care". A filter
/// also constrains the frame format: a standard filter never matches an
/// extended identifier and vice versa.
///
/// # Example
/// ```
/// use polsec_can::{AcceptanceFilter, CanId};
/// // accept 0x100..=0x103 (two low bits don't-care)
/// let f = AcceptanceFilter::standard(0x100, 0x7FC);
/// assert!(f.accepts(CanId::standard(0x101)?));
/// assert!(!f.accepts(CanId::standard(0x104)?));
/// # Ok::<(), polsec_can::CanError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AcceptanceFilter {
    id: u32,
    mask: u32,
    extended: bool,
}

impl AcceptanceFilter {
    /// Creates a standard-format filter. Bits above the 11-bit range are
    /// ignored in both id and mask.
    pub fn standard(id: u32, mask: u32) -> Self {
        AcceptanceFilter {
            id: id & 0x7FF,
            mask: mask & 0x7FF,
            extended: false,
        }
    }

    /// Creates an extended-format filter. Bits above the 29-bit range are
    /// ignored.
    pub fn extended(id: u32, mask: u32) -> Self {
        AcceptanceFilter {
            id: id & 0x1FFF_FFFF,
            mask: mask & 0x1FFF_FFFF,
            extended: true,
        }
    }

    /// A filter matching exactly one identifier.
    pub fn exact(id: CanId) -> Self {
        match id {
            CanId::Standard(v) => AcceptanceFilter::standard(v as u32, 0x7FF),
            CanId::Extended(v) => AcceptanceFilter::extended(v, 0x1FFF_FFFF),
        }
    }

    /// A filter accepting every standard identifier.
    pub fn any_standard() -> Self {
        AcceptanceFilter::standard(0, 0)
    }

    /// A filter accepting every extended identifier.
    pub fn any_extended() -> Self {
        AcceptanceFilter::extended(0, 0)
    }

    /// The filter's base identifier bits.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The filter's mask bits.
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Whether this filter targets extended identifiers.
    pub fn is_extended(&self) -> bool {
        self.extended
    }

    /// Whether the filter accepts `id`.
    pub fn accepts(&self, id: CanId) -> bool {
        if id.is_extended() != self.extended {
            return false;
        }
        (id.raw() & self.mask) == (self.id & self.mask)
    }

    /// Number of identifiers this filter accepts (2^don't-care-bits).
    pub fn coverage(&self) -> u64 {
        let width = if self.extended { 29 } else { 11 };
        let dont_care = width - (self.mask & ((1 << width) - 1)).count_ones();
        1u64 << dont_care
    }
}

impl fmt::Display for AcceptanceFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_tag = if self.extended { "ext" } else { "std" };
        write!(f, "{fmt_tag} id=0x{:X}/mask=0x{:X}", self.id, self.mask)
    }
}

/// An ordered bank of acceptance filters, as found in a CAN controller.
///
/// An empty bank accepts everything (matching common controller semantics
/// where filtering is opt-in).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterBank {
    filters: Vec<AcceptanceFilter>,
}

impl FilterBank {
    /// Creates an empty (accept-all) bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bank from filters.
    pub fn from_filters<I: IntoIterator<Item = AcceptanceFilter>>(filters: I) -> Self {
        FilterBank {
            filters: filters.into_iter().collect(),
        }
    }

    /// Adds a filter.
    pub fn add(&mut self, f: AcceptanceFilter) {
        self.filters.push(f);
    }

    /// Removes all filters (back to accept-all).
    pub fn clear(&mut self) {
        self.filters.clear();
    }

    /// Number of filters configured.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Whether no filters are configured (accept-all behaviour).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Whether the bank accepts `id`: true when empty, otherwise any-match.
    pub fn accepts(&self, id: CanId) -> bool {
        self.is_empty() || self.filters.iter().any(|f| f.accepts(id))
    }

    /// Iterates the configured filters.
    pub fn iter(&self) -> impl Iterator<Item = &AcceptanceFilter> {
        self.filters.iter()
    }
}

impl FromIterator<AcceptanceFilter> for FilterBank {
    fn from_iter<T: IntoIterator<Item = AcceptanceFilter>>(iter: T) -> Self {
        FilterBank::from_filters(iter)
    }
}

impl Extend<AcceptanceFilter> for FilterBank {
    fn extend<T: IntoIterator<Item = AcceptanceFilter>>(&mut self, iter: T) {
        self.filters.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(v: u32) -> CanId {
        CanId::standard(v).unwrap()
    }
    fn eid(v: u32) -> CanId {
        CanId::extended(v).unwrap()
    }

    #[test]
    fn exact_filter_matches_only_its_id() {
        let f = AcceptanceFilter::exact(sid(0x123));
        assert!(f.accepts(sid(0x123)));
        assert!(!f.accepts(sid(0x122)));
        assert!(!f.accepts(eid(0x123)), "format must match");
    }

    #[test]
    fn masked_filter_matches_range() {
        let f = AcceptanceFilter::standard(0x200, 0x700);
        for id in 0x200..0x300u32 {
            assert!(f.accepts(sid(id)), "0x{id:X}");
        }
        assert!(!f.accepts(sid(0x300)));
        assert!(!f.accepts(sid(0x1FF)));
    }

    #[test]
    fn any_filters() {
        assert!(AcceptanceFilter::any_standard().accepts(sid(0x7FF)));
        assert!(!AcceptanceFilter::any_standard().accepts(eid(0x7FF)));
        assert!(AcceptanceFilter::any_extended().accepts(eid(0x1FFF_FFFF)));
    }

    #[test]
    fn out_of_range_bits_are_masked_off() {
        let f = AcceptanceFilter::standard(0xFFFF_FFFF, 0xFFFF_FFFF);
        assert_eq!(f.id(), 0x7FF);
        assert_eq!(f.mask(), 0x7FF);
        assert!(f.accepts(sid(0x7FF)));
    }

    #[test]
    fn coverage_counts_dont_care_bits() {
        assert_eq!(AcceptanceFilter::exact(sid(5)).coverage(), 1);
        assert_eq!(AcceptanceFilter::standard(0, 0).coverage(), 2048);
        assert_eq!(AcceptanceFilter::standard(0x100, 0x7FC).coverage(), 4);
        assert_eq!(AcceptanceFilter::any_extended().coverage(), 1 << 29);
    }

    #[test]
    fn empty_bank_accepts_everything() {
        let bank = FilterBank::new();
        assert!(bank.accepts(sid(0)));
        assert!(bank.accepts(eid(0x1234)));
        assert!(bank.is_empty());
    }

    #[test]
    fn bank_is_any_match() {
        let bank: FilterBank = [
            AcceptanceFilter::exact(sid(0x10)),
            AcceptanceFilter::exact(sid(0x20)),
        ]
        .into_iter()
        .collect();
        assert!(bank.accepts(sid(0x10)));
        assert!(bank.accepts(sid(0x20)));
        assert!(!bank.accepts(sid(0x30)));
        assert_eq!(bank.len(), 2);
    }

    #[test]
    fn bank_clear_returns_to_accept_all() {
        let mut bank = FilterBank::from_filters([AcceptanceFilter::exact(sid(1))]);
        assert!(!bank.accepts(sid(2)));
        bank.clear();
        assert!(bank.accepts(sid(2)));
    }

    #[test]
    fn bank_extend_and_iter() {
        let mut bank = FilterBank::new();
        bank.extend([
            AcceptanceFilter::exact(sid(1)),
            AcceptanceFilter::exact(sid(2)),
        ]);
        assert_eq!(bank.iter().count(), 2);
    }

    #[test]
    fn display() {
        let f = AcceptanceFilter::standard(0x1A, 0x7FF);
        assert_eq!(f.to_string(), "std id=0x1A/mask=0x7FF");
    }
}
