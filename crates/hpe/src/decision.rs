//! The decision block.
//!
//! "The decision block references the approved list of message IDs, compares
//! it against the issued/received message and either grants or blocks the
//! access" (paper §V.B.2, Fig. 4).

use crate::cost::CostModel;
use crate::lists::ApprovedList;
use polsec_can::CanId;
use std::fmt;

/// The outcome of one decision-block comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Whether access was granted.
    pub granted: bool,
    /// Index of the matching entry, when granted.
    pub matched_entry: Option<usize>,
    /// Modelled lookup cost in clock cycles.
    pub cycles: u32,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.granted {
            write!(
                f,
                "grant (entry {}, {} cycles)",
                self.matched_entry.unwrap_or(0),
                self.cycles
            )
        } else {
            write!(f, "block ({} cycles)", self.cycles)
        }
    }
}

/// A decision block bound to a cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionBlock {
    cost: CostModel,
}

impl DecisionBlock {
    /// Creates a decision block with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        DecisionBlock { cost }
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Compares `id` against `list`, producing a grant/block verdict with
    /// its cycle cost.
    pub fn decide(&self, list: &ApprovedList, id: CanId) -> Verdict {
        let matched = list.lookup(id);
        Verdict {
            granted: matched.is_some(),
            matched_entry: matched,
            cycles: self.cost.lookup_cycles(matched, list.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lists::ApprovedList;

    fn sid(v: u32) -> CanId {
        CanId::standard(v).unwrap()
    }

    fn list_with(ids: &[u32]) -> ApprovedList {
        let mut l = ApprovedList::with_capacity(16);
        for &id in ids {
            l.add_exact(sid(id)).unwrap();
        }
        l
    }

    #[test]
    fn grants_approved_ids() {
        let block = DecisionBlock::default();
        let list = list_with(&[0x10, 0x20]);
        let v = block.decide(&list, sid(0x20));
        assert!(v.granted);
        assert_eq!(v.matched_entry, Some(1));
    }

    #[test]
    fn blocks_unapproved_ids() {
        let block = DecisionBlock::default();
        let list = list_with(&[0x10]);
        let v = block.decide(&list, sid(0x99));
        assert!(!v.granted);
        assert_eq!(v.matched_entry, None);
    }

    #[test]
    fn miss_costs_full_scan_under_serial_model() {
        let block = DecisionBlock::new(CostModel::Serial { base: 0, per_entry: 1 });
        let list = list_with(&[1, 2, 3, 4]);
        assert_eq!(block.decide(&list, sid(1)).cycles, 1);
        assert_eq!(block.decide(&list, sid(4)).cycles, 4);
        assert_eq!(block.decide(&list, sid(99)).cycles, 4);
    }

    #[test]
    fn parallel_model_is_flat() {
        let block = DecisionBlock::new(CostModel::Parallel { cycles: 2 });
        let list = list_with(&[1, 2, 3, 4]);
        assert_eq!(block.decide(&list, sid(4)).cycles, 2);
        assert_eq!(block.decide(&list, sid(99)).cycles, 2);
    }

    #[test]
    fn verdict_display() {
        let block = DecisionBlock::default();
        let list = list_with(&[7]);
        assert!(block.decide(&list, sid(7)).to_string().starts_with("grant"));
        assert!(block.decide(&list, sid(8)).to_string().starts_with("block"));
    }
}
