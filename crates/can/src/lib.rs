//! # polsec-can — CAN bus substrate
//!
//! A Controller Area Network simulator implementing the ISO 11898 data-link
//! behaviours that matter to the security experiments of the paper:
//!
//! * [`CanId`] — 11-bit standard and 29-bit extended identifiers with the
//!   bus-arbitration priority order,
//! * [`CanFrame`] — data/remote frames with 0–8 byte payloads,
//! * [`codec`] — bit-level frame encoding: bit stuffing and the CRC-15
//!   sequence, so bus-load and overhead numbers are protocol-accurate. The
//!   bus times frames with a `wire_info` fast path that computes exact
//!   stuffed lengths without materialising bits,
//! * [`fault`] — transmit/receive error counters and the error-active /
//!   error-passive / bus-off fault-confinement state machine,
//! * [`filter`] — id+mask acceptance filters as found in CAN controllers
//!   (the *software-configurable* filter the paper contrasts with the HPE),
//! * [`CanController`] / [`CanNode`] — controller with TX priority queue and
//!   RX path, and a node binding a controller to application firmware,
//! * [`CanBus`] — a broadcast bus with priority arbitration, timing derived
//!   from the encoded bit length, and load statistics,
//! * [`Gateway`] — a two-segment gateway with forwarding rules (the paper's
//!   "limit components with CAN bus access" guideline).
//!
//! CAN is message-based broadcast: *any node can send any identifier*. That
//! property — the root of the paper's spoofing threats — is faithfully
//! preserved: nothing in [`CanBus`] stops a node from transmitting an ID it
//! does not "own". Enforcement is layered on top (software filters here,
//! hardware policy engine in `polsec-hpe`).
//!
//! # Example
//!
//! ```
//! use polsec_can::{CanBus, CanFrame, CanId, CanNode};
//!
//! let mut bus = CanBus::new(500_000); // 500 kbit/s
//! let ecu = bus.attach(CanNode::new("ecu"));
//! let sensor = bus.attach(CanNode::new("sensor"));
//!
//! let frame = CanFrame::data(CanId::standard(0x120)?, &[0xDE, 0xAD])?;
//! bus.node_mut(sensor).unwrap().send(frame);
//! bus.run_until_idle();
//!
//! let received = bus.node_mut(ecu).unwrap().receive();
//! assert_eq!(received.unwrap().id(), CanId::standard(0x120)?);
//! # Ok::<(), polsec_can::CanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod bus;
pub mod codec;
pub mod controller;
pub mod crc;
pub mod error;
pub mod fault;
pub mod filter;
pub mod frame;
pub mod gateway;
pub mod id;
pub mod node;
pub mod stats;

pub use bus::{BusEvent, CanBus, ErrorModel, NodeHandle};
pub use codec::WireInfo;
pub use controller::CanController;
pub use error::{CanError, ProtocolViolation};
pub use fault::{ErrorCounters, ErrorState};
pub use filter::{AcceptanceFilter, FilterBank};
pub use frame::CanFrame;
pub use gateway::{ForwardRule, Gateway};
pub use id::CanId;
pub use node::{ActionVec, CanNode, Firmware, FirmwareAction};
pub use stats::BusStats;
