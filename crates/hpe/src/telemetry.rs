//! HPE telemetry counters.

use std::collections::BTreeMap;
use std::fmt;

/// Counters the HPE exposes for monitoring and for the experiments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HpeTelemetry {
    /// Frames granted on the read path.
    pub read_granted: u64,
    /// Frames blocked on the read path.
    pub read_blocked: u64,
    /// Frames granted on the write path.
    pub write_granted: u64,
    /// Frames blocked on the write path.
    pub write_blocked: u64,
    /// Unauthenticated reconfiguration attempts rejected.
    pub tamper_attempts: u64,
    /// Total modelled lookup cycles spent.
    pub total_cycles: u64,
    /// Block counts per raw identifier (top offenders view). Each handle
    /// counts at most 128 distinct ids; blocks of the rest count in
    /// `blocked_other`.
    pub blocked_by_id: BTreeMap<u32, u64>,
    /// Blocks of identifiers that found no slot in a handle's fixed per-id
    /// table: Σ `blocked_by_id` + `blocked_other` = `read_blocked` +
    /// `write_blocked`.
    pub blocked_other: u64,
}

impl HpeTelemetry {
    /// Creates zeroed telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total frames seen on either path.
    pub fn total_frames(&self) -> u64 {
        self.read_granted + self.read_blocked + self.write_granted + self.write_blocked
    }

    /// Total frames blocked on either path.
    pub fn total_blocked(&self) -> u64 {
        self.read_blocked + self.write_blocked
    }

    /// Mean lookup cycles per frame (0 when no frames seen).
    pub fn mean_cycles(&self) -> f64 {
        let n = self.total_frames();
        if n == 0 {
            0.0
        } else {
            self.total_cycles as f64 / n as f64
        }
    }

    /// The identifier with the most blocks, if any frames were blocked.
    pub fn top_blocked_id(&self) -> Option<(u32, u64)> {
        self.blocked_by_id
            .iter()
            .max_by_key(|(_, &count)| count)
            .map(|(&id, &count)| (id, count))
    }

    /// Notes one blocked frame for `raw_id` (snapshot assembly helper).
    pub fn note_block(&mut self, raw_id: u32) {
        *self.blocked_by_id.entry(raw_id).or_insert(0) += 1;
    }
}

impl fmt::Display for HpeTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read {}/{} write {}/{} (granted/blocked), tamper attempts {}, mean {:.1} cycles",
            self.read_granted,
            self.read_blocked,
            self.write_granted,
            self.write_blocked,
            self.tamper_attempts,
            self.mean_cycles()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_mean() {
        let mut t = HpeTelemetry::new();
        t.read_granted = 3;
        t.write_blocked = 1;
        t.total_cycles = 8;
        assert_eq!(t.total_frames(), 4);
        assert_eq!(t.total_blocked(), 1);
        assert!((t.mean_cycles() - 2.0).abs() < 1e-12);
        assert_eq!(HpeTelemetry::new().mean_cycles(), 0.0);
    }

    #[test]
    fn top_blocked_id_tracks_max() {
        let mut t = HpeTelemetry::new();
        assert_eq!(t.top_blocked_id(), None);
        t.note_block(0x100);
        t.note_block(0x200);
        t.note_block(0x200);
        assert_eq!(t.top_blocked_id(), Some((0x200, 2)));
    }

    #[test]
    fn display_summarises() {
        let mut t = HpeTelemetry::new();
        t.tamper_attempts = 2;
        assert!(t.to_string().contains("tamper attempts 2"));
    }
}
