//! Lookup cycle-cost models.
//!
//! The E2 experiment quantifies the latency an HPE adds to each frame. Two
//! hardware realisations are modelled:
//!
//! * **serial** — entries checked one register at a time (small, cheap
//!   silicon): cost grows with the matched entry's position (or the full
//!   bank size on a miss),
//! * **parallel** — all entries compared in one cycle (TCAM-style): constant
//!   cost regardless of bank size.

use std::fmt;

/// A lookup cost model in clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// Serial comparator: `base + per_entry × entries_examined`.
    Serial {
        /// Fixed pipeline cost.
        base: u32,
        /// Cost per entry examined.
        per_entry: u32,
    },
    /// Parallel comparator bank: fixed cost per lookup.
    Parallel {
        /// Cycles per lookup.
        cycles: u32,
    },
}

impl Default for CostModel {
    /// Default: a serial comparator with a 2-cycle base and 1 cycle per
    /// entry — conservative numbers for a small FPGA block.
    fn default() -> Self {
        CostModel::Serial { base: 2, per_entry: 1 }
    }
}

impl CostModel {
    /// Cycles for a lookup that matched at `matched_index` (0-based), or
    /// missed (`None`) after examining `list_len` entries.
    pub fn lookup_cycles(&self, matched_index: Option<usize>, list_len: usize) -> u32 {
        match *self {
            CostModel::Serial { base, per_entry } => {
                let examined = match matched_index {
                    Some(i) => i + 1,
                    None => list_len,
                } as u32;
                base + per_entry * examined
            }
            CostModel::Parallel { cycles } => cycles,
        }
    }

    /// Worst-case lookup cycles for a bank of `list_len` entries.
    pub fn worst_case_cycles(&self, list_len: usize) -> u32 {
        self.lookup_cycles(None, list_len.max(1))
    }

    /// Converts cycles to nanoseconds at a clock frequency in MHz.
    pub fn cycles_to_ns(cycles: u32, clock_mhz: u32) -> f64 {
        if clock_mhz == 0 {
            return f64::INFINITY;
        }
        cycles as f64 * 1_000.0 / clock_mhz as f64
    }
}

impl fmt::Display for CostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostModel::Serial { base, per_entry } => {
                write!(f, "serial({base}+{per_entry}/entry)")
            }
            CostModel::Parallel { cycles } => write!(f, "parallel({cycles})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_costs_grow_with_position() {
        let m = CostModel::Serial { base: 2, per_entry: 1 };
        assert_eq!(m.lookup_cycles(Some(0), 16), 3);
        assert_eq!(m.lookup_cycles(Some(15), 16), 18);
        assert_eq!(m.lookup_cycles(None, 16), 18, "miss scans the whole bank");
    }

    #[test]
    fn parallel_is_constant() {
        let m = CostModel::Parallel { cycles: 2 };
        assert_eq!(m.lookup_cycles(Some(0), 64), 2);
        assert_eq!(m.lookup_cycles(None, 64), 2);
        assert_eq!(m.worst_case_cycles(1024), 2);
    }

    #[test]
    fn worst_case_serial() {
        let m = CostModel::default();
        assert_eq!(m.worst_case_cycles(16), 18);
        assert_eq!(m.worst_case_cycles(0), 3, "empty bank still costs one check");
    }

    #[test]
    fn cycles_to_ns_conversion() {
        // 10 cycles at 100 MHz = 100 ns
        assert!((CostModel::cycles_to_ns(10, 100) - 100.0).abs() < 1e-9);
        assert!(CostModel::cycles_to_ns(1, 0).is_infinite());
    }

    #[test]
    fn display() {
        assert_eq!(CostModel::default().to_string(), "serial(2+1/entry)");
        assert_eq!(CostModel::Parallel { cycles: 1 }.to_string(), "parallel(1)");
    }
}
