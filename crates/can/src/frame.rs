//! CAN frames.

use crate::error::CanError;
use crate::id::CanId;
use std::fmt;

/// A CAN data or remote frame.
///
/// Payloads are 0–8 bytes (classic CAN). A *remote* frame carries no data and
/// requests transmission of the matching data frame; its DLC encodes the
/// requested length.
///
/// # Example
/// ```
/// use polsec_can::{CanFrame, CanId};
/// let f = CanFrame::data(CanId::standard(0x2A0)?, &[1, 2, 3])?;
/// assert_eq!(f.dlc(), 3);
/// assert_eq!(f.payload(), &[1, 2, 3]);
/// assert!(!f.is_remote());
/// # Ok::<(), polsec_can::CanError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanFrame {
    id: CanId,
    remote: bool,
    dlc: u8,
    data: [u8; 8],
}

impl CanFrame {
    /// Creates a data frame.
    ///
    /// # Errors
    /// [`CanError::PayloadTooLong`] if `payload.len() > 8`.
    pub fn data(id: CanId, payload: &[u8]) -> Result<Self, CanError> {
        if payload.len() > 8 {
            return Err(CanError::PayloadTooLong { len: payload.len() });
        }
        let mut data = [0u8; 8];
        data[..payload.len()].copy_from_slice(payload);
        Ok(CanFrame {
            id,
            remote: false,
            dlc: payload.len() as u8,
            data,
        })
    }

    /// Creates a remote (RTR) frame requesting `dlc` bytes.
    ///
    /// # Errors
    /// [`CanError::DlcOutOfRange`] if `dlc > 8`.
    pub fn remote(id: CanId, dlc: u8) -> Result<Self, CanError> {
        if dlc > 8 {
            return Err(CanError::DlcOutOfRange { dlc });
        }
        Ok(CanFrame {
            id,
            remote: true,
            dlc,
            data: [0u8; 8],
        })
    }

    /// The frame identifier.
    pub fn id(&self) -> CanId {
        self.id
    }

    /// Whether this is a remote (RTR) frame.
    pub fn is_remote(&self) -> bool {
        self.remote
    }

    /// The data length code.
    pub fn dlc(&self) -> u8 {
        self.dlc
    }

    /// The payload bytes (empty slice for remote frames).
    pub fn payload(&self) -> &[u8] {
        if self.remote {
            &[]
        } else {
            &self.data[..self.dlc as usize]
        }
    }

    /// Returns a copy with a different identifier — used by attack code to
    /// model ID spoofing (CAN itself never prevents this).
    pub fn with_id(&self, id: CanId) -> CanFrame {
        CanFrame { id, ..self.clone() }
    }

    /// A two-word fingerprint that uniquely identifies the frame's wire
    /// content: identifier (with width flag), RTR flag, DLC, and payload.
    /// Two frames have equal keys iff they encode to identical wire bits
    /// (modulo the ACK slot) — the invariant the codec's wire-length cache
    /// relies on. Bytes beyond the DLC are zero by construction, so the raw
    /// data word is canonical.
    pub fn content_key(&self) -> (u64, u64) {
        let w0 = u64::from(self.id.raw())
            | (u64::from(self.id.is_extended()) << 30)
            | (u64::from(self.remote) << 31)
            | (u64::from(self.dlc) << 32);
        (w0, u64::from_le_bytes(self.data))
    }

    /// The nominal (unstuffed) length of this frame on the wire in bits,
    /// including SOF, arbitration, control, data, CRC, ACK, EOF and the
    /// 3-bit interframe space.
    ///
    /// Standard data frame: `1 + 12 + 6 + 8·dlc + 16 + 2 + 7 + 3`.
    /// Extended adds the SRR/IDE re-layout (+20 bits of arbitration).
    pub fn nominal_bits(&self) -> u32 {
        let arbitration = if self.id.is_extended() {
            32 // 11 base + SRR + IDE + 18 ext + RTR
        } else {
            12 // 11 id + RTR
        };
        let data_bits = if self.remote { 0 } else { 8 * self.dlc as u32 };
        // SOF + arbitration + control(6) + data + CRC(15)+delim + ACK(2) +
        // EOF(7) + IFS(3)
        1 + arbitration + 6 + data_bits + 16 + 2 + 7 + 3
    }
}

impl fmt::Display for CanFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.remote {
            write!(f, "{} RTR dlc={}", self.id, self.dlc)
        } else {
            write!(f, "{} [", self.id)?;
            for (i, b) in self.payload().iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{b:02X}")?;
            }
            write!(f, "]")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(v: u32) -> CanId {
        CanId::standard(v).unwrap()
    }

    #[test]
    fn data_frame_basics() {
        let f = CanFrame::data(sid(0x123), &[9, 8, 7, 6]).unwrap();
        assert_eq!(f.id(), sid(0x123));
        assert_eq!(f.dlc(), 4);
        assert_eq!(f.payload(), &[9, 8, 7, 6]);
        assert!(!f.is_remote());
    }

    #[test]
    fn empty_payload_is_valid() {
        let f = CanFrame::data(sid(1), &[]).unwrap();
        assert_eq!(f.dlc(), 0);
        assert_eq!(f.payload(), &[] as &[u8]);
    }

    #[test]
    fn oversize_payload_rejected() {
        let err = CanFrame::data(sid(1), &[0; 9]).unwrap_err();
        assert_eq!(err, CanError::PayloadTooLong { len: 9 });
    }

    #[test]
    fn remote_frame_carries_no_data() {
        let f = CanFrame::remote(sid(0x55), 4).unwrap();
        assert!(f.is_remote());
        assert_eq!(f.dlc(), 4);
        assert_eq!(f.payload(), &[] as &[u8]);
        assert!(CanFrame::remote(sid(0x55), 9).is_err());
    }

    #[test]
    fn with_id_spoofs() {
        let f = CanFrame::data(sid(0x400), &[1]).unwrap();
        let spoofed = f.with_id(sid(0x100));
        assert_eq!(spoofed.id(), sid(0x100));
        assert_eq!(spoofed.payload(), f.payload());
    }

    #[test]
    fn nominal_bits_standard() {
        // 8-byte standard data frame: 1+12+6+64+16+2+7+3 = 111 bits
        let f = CanFrame::data(sid(0x10), &[0; 8]).unwrap();
        assert_eq!(f.nominal_bits(), 111);
        // 0-byte frame: 47 bits
        let f0 = CanFrame::data(sid(0x10), &[]).unwrap();
        assert_eq!(f0.nominal_bits(), 47);
    }

    #[test]
    fn nominal_bits_extended_larger() {
        let e = CanId::extended(0x10).unwrap();
        let fe = CanFrame::data(e, &[0; 8]).unwrap();
        let fs = CanFrame::data(sid(0x10), &[0; 8]).unwrap();
        assert!(fe.nominal_bits() > fs.nominal_bits());
        assert_eq!(fe.nominal_bits(), 131);
    }

    #[test]
    fn remote_frame_has_no_data_bits() {
        let r = CanFrame::remote(sid(0x10), 8).unwrap();
        assert_eq!(r.nominal_bits(), 47);
    }

    #[test]
    fn display_formats() {
        let f = CanFrame::data(sid(0x1A), &[0xAB, 0x01]).unwrap();
        assert_eq!(f.to_string(), "0x01A [AB 01]");
        let r = CanFrame::remote(sid(0x1A), 2).unwrap();
        assert_eq!(r.to_string(), "0x01A RTR dlc=2");
    }
}
