//! Error types for the CAN substrate.

use std::fmt;

/// Errors returned by CAN construction and codec APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanError {
    /// An identifier did not fit its format's bit width.
    IdOutOfRange {
        /// The offending raw value.
        raw: u32,
        /// Whether the extended (29-bit) format was requested.
        extended: bool,
    },
    /// A payload longer than 8 bytes was supplied.
    PayloadTooLong {
        /// The offending length.
        len: usize,
    },
    /// A declared DLC exceeds 8.
    DlcOutOfRange {
        /// The offending DLC.
        dlc: u8,
    },
    /// Decoding failed with a protocol-level violation.
    Protocol(ProtocolViolation),
    /// The referenced node handle is not attached to this bus.
    UnknownNode {
        /// The raw handle index.
        handle: usize,
    },
    /// The controller's transmit queue is full.
    TxQueueFull {
        /// Queue capacity that was exceeded.
        capacity: usize,
    },
    /// The node is bus-off and may not transmit.
    BusOff,
}

/// Bit-level protocol violations detected while decoding a frame.
///
/// These map onto the CAN error types of ISO 11898-1 §10.11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolViolation {
    /// More than five equal consecutive bits where stuffing was required.
    Stuff,
    /// The received CRC sequence did not match the computed one.
    Crc,
    /// A fixed-form field (CRC delimiter, ACK delimiter, EOF) had the wrong
    /// level.
    Form,
    /// No node acknowledged the frame.
    Ack,
    /// A transmitted bit was not observed on the bus (TX/RX mismatch).
    Bit,
    /// The bitstream ended before the frame was complete.
    Truncated,
}

impl fmt::Display for CanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanError::IdOutOfRange { raw, extended } => {
                let max = if *extended { "0x1FFFFFFF" } else { "0x7FF" };
                write!(f, "identifier 0x{raw:X} exceeds {max}")
            }
            CanError::PayloadTooLong { len } => {
                write!(f, "payload of {len} bytes exceeds the 8-byte CAN limit")
            }
            CanError::DlcOutOfRange { dlc } => write!(f, "dlc {dlc} exceeds 8"),
            CanError::Protocol(v) => write!(f, "protocol violation: {v}"),
            CanError::UnknownNode { handle } => write!(f, "no node with handle {handle}"),
            CanError::TxQueueFull { capacity } => {
                write!(f, "transmit queue full (capacity {capacity})")
            }
            CanError::BusOff => write!(f, "node is bus-off"),
        }
    }
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProtocolViolation::Stuff => "stuff error",
            ProtocolViolation::Crc => "crc error",
            ProtocolViolation::Form => "form error",
            ProtocolViolation::Ack => "ack error",
            ProtocolViolation::Bit => "bit error",
            ProtocolViolation::Truncated => "truncated bitstream",
        };
        f.write_str(name)
    }
}

impl std::error::Error for CanError {}
impl std::error::Error for ProtocolViolation {}

impl From<ProtocolViolation> for CanError {
    fn from(v: ProtocolViolation) -> Self {
        CanError::Protocol(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = CanError::IdOutOfRange { raw: 0x800, extended: false };
        assert_eq!(e.to_string(), "identifier 0x800 exceeds 0x7FF");
        let e = CanError::IdOutOfRange { raw: 0x2000_0000, extended: true };
        assert!(e.to_string().contains("0x1FFFFFFF"));
        assert_eq!(
            CanError::PayloadTooLong { len: 9 }.to_string(),
            "payload of 9 bytes exceeds the 8-byte CAN limit"
        );
        assert_eq!(CanError::BusOff.to_string(), "node is bus-off");
    }

    #[test]
    fn protocol_violation_converts() {
        let e: CanError = ProtocolViolation::Crc.into();
        assert_eq!(e, CanError::Protocol(ProtocolViolation::Crc));
        assert_eq!(e.to_string(), "protocol violation: crc error");
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_e: E) {}
        takes_err(CanError::BusOff);
    }
}
