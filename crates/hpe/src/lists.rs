//! Approved reading and writing lists.
//!
//! "It holds a list of approved CAN message IDs that provides necessary
//! information to the node to provide relevant services to the rest of the
//! system without compromising the security" (paper §V.B.2). Real filter
//! banks are small, fixed-size register files, so the lists here are
//! capacity-bounded and additions fail loudly when full.

use crate::error::HpeError;
use polsec_can::{AcceptanceFilter, CanId};
use std::fmt;

/// Default hardware capacity per list (entries).
pub const DEFAULT_CAPACITY: usize = 16;

/// One capacity-bounded bank of id/mask entries.
///
/// Unlike the controller's [`FilterBank`](polsec_can::FilterBank), an empty
/// approved list **blocks everything** — the HPE is deny-by-default, the
/// least-privilege stance of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApprovedList {
    entries: Vec<AcceptanceFilter>,
    capacity: usize,
}

impl ApprovedList {
    /// Creates an empty list with the given hardware capacity (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        ApprovedList {
            entries: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// The hardware capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of programmed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list has no entries (blocks everything).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds an id/mask entry.
    ///
    /// # Errors
    /// [`HpeError::ListFull`] at capacity.
    pub fn add(&mut self, entry: AcceptanceFilter) -> Result<(), HpeError> {
        if self.entries.len() >= self.capacity {
            return Err(HpeError::ListFull { capacity: self.capacity });
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Adds an exact-id entry.
    ///
    /// # Errors
    /// [`HpeError::ListFull`] at capacity.
    pub fn add_exact(&mut self, id: CanId) -> Result<(), HpeError> {
        self.add(AcceptanceFilter::exact(id))
    }

    /// Whether `id` is approved, and by which entry index.
    ///
    /// Returns the index of the **first** matching entry (hardware banks
    /// match in parallel but report a priority index).
    pub fn lookup(&self, id: CanId) -> Option<usize> {
        self.entries.iter().position(|e| e.accepts(id))
    }

    /// Whether `id` is approved.
    pub fn approves(&self, id: CanId) -> bool {
        self.lookup(id).is_some()
    }

    /// Wipes all entries (authorised reconfiguration path only).
    #[allow(dead_code)] // exercised by tests; retained for reconfig paths
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// The programmed entries.
    pub fn entries(&self) -> &[AcceptanceFilter] {
        &self.entries
    }

    /// Every standard identifier the list approves, ascending — the bank
    /// "decompiled" back out of hardware for offline analysis
    /// (`polsec-analyze`'s Layer-2 coverage matrix). Probes the whole
    /// 11-bit space, so id/mask and range entries are expanded exactly
    /// rather than approximated.
    pub fn covered_standard_ids(&self) -> Vec<u16> {
        (0u16..=0x7FF)
            .filter(|&id| self.approves(CanId::Standard(id)))
            .collect()
    }
}

impl fmt::Display for ApprovedList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} entries", self.entries.len(), self.capacity)
    }
}

/// The HPE's pair of approved lists: read side and write side.
///
/// "The HPE consists of a separate hardware-based reading filter and writing
/// filter, which facilitates curtailment of both inside … and outside …
/// attacks."
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApprovedLists {
    read: ApprovedList,
    write: ApprovedList,
}

impl Default for ApprovedLists {
    fn default() -> Self {
        ApprovedLists::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ApprovedLists {
    /// Creates empty read and write lists, each with the given capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        ApprovedLists {
            read: ApprovedList::with_capacity(capacity),
            write: ApprovedList::with_capacity(capacity),
        }
    }

    /// Creates from explicit lists.
    pub fn new(read: ApprovedList, write: ApprovedList) -> Self {
        ApprovedLists { read, write }
    }

    /// The read-side list.
    pub fn read(&self) -> &ApprovedList {
        &self.read
    }

    /// The write-side list.
    pub fn write(&self) -> &ApprovedList {
        &self.write
    }

    /// Approves an id for reception.
    ///
    /// # Errors
    /// [`HpeError::ListFull`].
    pub fn allow_read(&mut self, id: CanId) -> Result<(), HpeError> {
        self.read.add_exact(id)
    }

    /// Approves an id for transmission.
    ///
    /// # Errors
    /// [`HpeError::ListFull`].
    pub fn allow_write(&mut self, id: CanId) -> Result<(), HpeError> {
        self.write.add_exact(id)
    }

    /// Adds a read-side id/mask entry.
    ///
    /// # Errors
    /// [`HpeError::ListFull`].
    pub fn add_read_entry(&mut self, e: AcceptanceFilter) -> Result<(), HpeError> {
        self.read.add(e)
    }

    /// Adds a write-side id/mask entry.
    ///
    /// # Errors
    /// [`HpeError::ListFull`].
    pub fn add_write_entry(&mut self, e: AcceptanceFilter) -> Result<(), HpeError> {
        self.write.add(e)
    }

    /// Wipes both lists (authorised path only).
    #[allow(dead_code)] // exercised by tests; retained for reconfig paths
    pub(crate) fn clear(&mut self) {
        self.read.clear();
        self.write.clear();
    }
}

impl fmt::Display for ApprovedLists {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "read[{}] write[{}]", self.read, self.write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(v: u32) -> CanId {
        CanId::standard(v).unwrap()
    }

    #[test]
    fn empty_list_blocks_everything() {
        let l = ApprovedList::with_capacity(4);
        assert!(!l.approves(sid(0)));
        assert!(!l.approves(sid(0x7FF)));
        assert!(l.is_empty());
    }

    #[test]
    fn exact_entries_approve_only_their_id() {
        let mut l = ApprovedList::with_capacity(4);
        l.add_exact(sid(0x100)).unwrap();
        assert!(l.approves(sid(0x100)));
        assert!(!l.approves(sid(0x101)));
        assert_eq!(l.lookup(sid(0x100)), Some(0));
        assert_eq!(l.lookup(sid(0x101)), None);
    }

    #[test]
    fn capacity_enforced() {
        let mut l = ApprovedList::with_capacity(2);
        l.add_exact(sid(1)).unwrap();
        l.add_exact(sid(2)).unwrap();
        let err = l.add_exact(sid(3)).unwrap_err();
        assert_eq!(err, HpeError::ListFull { capacity: 2 });
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut l = ApprovedList::with_capacity(0);
        assert_eq!(l.capacity(), 1);
        l.add_exact(sid(1)).unwrap();
        assert!(l.add_exact(sid(2)).is_err());
    }

    #[test]
    fn masked_entries_cover_blocks() {
        let mut l = ApprovedList::with_capacity(4);
        l.add(AcceptanceFilter::standard(0x200, 0x7F0)).unwrap();
        for id in 0x200..0x210 {
            assert!(l.approves(sid(id)), "0x{id:X}");
        }
        assert!(!l.approves(sid(0x210)));
    }

    #[test]
    fn lookup_returns_first_match() {
        let mut l = ApprovedList::with_capacity(4);
        l.add(AcceptanceFilter::standard(0, 0)).unwrap(); // matches all
        l.add_exact(sid(5)).unwrap();
        assert_eq!(l.lookup(sid(5)), Some(0));
    }

    #[test]
    fn read_write_sides_are_independent() {
        let mut lists = ApprovedLists::with_capacity(4);
        lists.allow_read(sid(0x10)).unwrap();
        lists.allow_write(sid(0x20)).unwrap();
        assert!(lists.read().approves(sid(0x10)));
        assert!(!lists.read().approves(sid(0x20)));
        assert!(lists.write().approves(sid(0x20)));
        assert!(!lists.write().approves(sid(0x10)));
    }

    #[test]
    fn clear_is_crate_internal_and_total() {
        let mut lists = ApprovedLists::with_capacity(4);
        lists.allow_read(sid(1)).unwrap();
        lists.allow_write(sid(2)).unwrap();
        lists.clear();
        assert!(lists.read().is_empty());
        assert!(lists.write().is_empty());
    }

    #[test]
    fn display_shows_occupancy() {
        let mut lists = ApprovedLists::with_capacity(8);
        lists.allow_read(sid(1)).unwrap();
        assert_eq!(lists.to_string(), "read[1/8 entries] write[0/8 entries]");
    }

    #[test]
    fn covered_standard_ids_expands_masks_exactly() {
        let mut list = ApprovedList::with_capacity(4);
        list.add_exact(sid(0x123)).unwrap();
        // the aligned 4-block 0x200..=0x203
        list.add(AcceptanceFilter::standard(0x200, 0x7FC)).unwrap();
        assert_eq!(
            list.covered_standard_ids(),
            vec![0x123, 0x200, 0x201, 0x202, 0x203]
        );
        assert!(ApprovedList::with_capacity(1).covered_standard_ids().is_empty());
    }
}
