//! CAN identifiers.
//!
//! ISO 11898 defines 11-bit (base / CAN 2.0A) and 29-bit (extended / CAN
//! 2.0B) identifiers. The identifier doubles as the bus-arbitration priority:
//! a numerically *lower* identifier wins arbitration because dominant bits
//! (0) beat recessive bits (1) during the arbitration field. Between a
//! standard and an extended frame with the same base bits, the standard frame
//! wins (its SRR/IDE bits are dominant earlier).

use crate::error::CanError;
use std::fmt;

/// Maximum value of an 11-bit standard identifier (`0x7FF`).
pub const MAX_STANDARD: u32 = 0x7FF;
/// Maximum value of a 29-bit extended identifier (`0x1FFF_FFFF`).
pub const MAX_EXTENDED: u32 = 0x1FFF_FFFF;

/// A validated CAN identifier, either standard (11-bit) or extended (29-bit).
///
/// The `Ord` implementation is **arbitration order**: `a < b` means frame `a`
/// wins bus arbitration against frame `b`.
///
/// # Example
/// ```
/// use polsec_can::CanId;
/// let brake = CanId::standard(0x100)?;
/// let radio = CanId::standard(0x400)?;
/// assert!(brake < radio, "lower id wins arbitration");
/// # Ok::<(), polsec_can::CanError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CanId {
    /// 11-bit base-format identifier.
    Standard(u16),
    /// 29-bit extended-format identifier.
    Extended(u32),
}

impl CanId {
    /// Creates a standard (11-bit) identifier.
    ///
    /// # Errors
    /// Returns [`CanError::IdOutOfRange`] if `raw > 0x7FF`.
    pub fn standard(raw: u32) -> Result<Self, CanError> {
        if raw > MAX_STANDARD {
            Err(CanError::IdOutOfRange {
                raw,
                extended: false,
            })
        } else {
            Ok(CanId::Standard(raw as u16))
        }
    }

    /// Creates an extended (29-bit) identifier.
    ///
    /// # Errors
    /// Returns [`CanError::IdOutOfRange`] if `raw > 0x1FFF_FFFF`.
    pub fn extended(raw: u32) -> Result<Self, CanError> {
        if raw > MAX_EXTENDED {
            Err(CanError::IdOutOfRange {
                raw,
                extended: true,
            })
        } else {
            Ok(CanId::Extended(raw))
        }
    }

    /// The raw identifier value.
    pub fn raw(self) -> u32 {
        match self {
            CanId::Standard(v) => v as u32,
            CanId::Extended(v) => v,
        }
    }

    /// Whether this is an extended (29-bit) identifier.
    pub fn is_extended(self) -> bool {
        matches!(self, CanId::Extended(_))
    }

    /// Number of identifier bits (11 or 29).
    pub fn bits(self) -> u32 {
        if self.is_extended() {
            29
        } else {
            11
        }
    }

    /// Arbitration key: lower key wins the bus.
    ///
    /// For identifiers sharing the first 11 bits, a standard frame beats an
    /// extended one (the IDE bit of a standard frame is dominant where the
    /// extended frame's is recessive). We model this by comparing the 11 base
    /// bits first, then the frame format, then the remaining extended bits.
    pub fn arbitration_key(self) -> u64 {
        match self {
            // base-11 bits shifted high; format bit 0 (dominant); no tail
            CanId::Standard(v) => (v as u64) << 19,
            CanId::Extended(v) => {
                let base = (v >> 18) as u64; // top 11 bits
                let tail = (v & 0x3_FFFF) as u64; // bottom 18 bits
                (base << 19) | (1 << 18) | tail
            }
        }
    }
}

impl Ord for CanId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.arbitration_key().cmp(&other.arbitration_key())
    }
}

impl PartialOrd for CanId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanId::Standard(v) => write!(f, "0x{v:03X}"),
            CanId::Extended(v) => write!(f, "0x{v:08X}x"),
        }
    }
}

impl fmt::LowerHex for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.raw(), f)
    }
}

impl fmt::UpperHex for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.raw(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_range_enforced() {
        assert!(CanId::standard(0).is_ok());
        assert!(CanId::standard(0x7FF).is_ok());
        let err = CanId::standard(0x800).unwrap_err();
        assert!(matches!(
            err,
            CanError::IdOutOfRange {
                raw: 0x800,
                extended: false
            }
        ));
    }

    #[test]
    fn extended_range_enforced() {
        assert!(CanId::extended(0).is_ok());
        assert!(CanId::extended(MAX_EXTENDED).is_ok());
        assert!(CanId::extended(MAX_EXTENDED + 1).is_err());
    }

    #[test]
    fn raw_and_bits() {
        let s = CanId::standard(0x123).unwrap();
        let e = CanId::extended(0x1ABCDEF0).unwrap();
        assert_eq!(s.raw(), 0x123);
        assert_eq!(e.raw(), 0x1ABCDEF0);
        assert_eq!(s.bits(), 11);
        assert_eq!(e.bits(), 29);
        assert!(!s.is_extended());
        assert!(e.is_extended());
    }

    #[test]
    fn lower_id_wins_arbitration() {
        let hi = CanId::standard(0x700).unwrap();
        let lo = CanId::standard(0x010).unwrap();
        assert!(lo < hi);
    }

    #[test]
    fn standard_beats_extended_with_same_base() {
        // extended id whose top 11 bits equal 0x123
        let ext = CanId::extended(0x123 << 18).unwrap();
        let std_ = CanId::standard(0x123).unwrap();
        assert!(std_ < ext, "standard frame wins on dominant IDE bit");
    }

    #[test]
    fn extended_with_lower_base_beats_standard() {
        let ext = CanId::extended(0x100 << 18).unwrap();
        let std_ = CanId::standard(0x123).unwrap();
        assert!(ext < std_);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CanId::standard(0x1A).unwrap().to_string(), "0x01A");
        assert_eq!(CanId::extended(0x1ABC).unwrap().to_string(), "0x00001ABCx");
        assert_eq!(format!("{:x}", CanId::standard(0x1A).unwrap()), "1a");
        assert_eq!(format!("{:X}", CanId::standard(0x1A).unwrap()), "1A");
    }

    #[test]
    fn ord_total_on_mixed_ids() {
        let mut ids = [
            CanId::extended(0x1FFF_FFFF).unwrap(),
            CanId::standard(0x7FF).unwrap(),
            CanId::standard(0).unwrap(),
            CanId::extended(0).unwrap(),
        ];
        ids.sort();
        assert_eq!(ids[0], CanId::standard(0).unwrap());
        // extended 0 has base 0 too but recessive IDE ⇒ after standard 0
        assert_eq!(ids[1], CanId::extended(0).unwrap());
        assert_eq!(ids[3], CanId::extended(0x1FFF_FFFF).unwrap());
    }
}
