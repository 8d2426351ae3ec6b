//! # polsec-hpe — the hardware-based policy engine
//!
//! The architecture of the paper's Fig. 4 (after Siddiqui et al., reference 21 of the paper): a
//! hardware block sitting **between the CAN controller and the transceiver**
//! that filters messages by identifier against approved lists, in both
//! directions:
//!
//! * [`ApprovedList`] — capacity-bounded banks of id/mask entries (the
//!   "approved reading and writing list"),
//! * [`DecisionBlock`] — compares a message id against a list and grants or
//!   blocks, with a cycle-cost model ([`CostModel`]) for the overhead
//!   experiments,
//! * [`HardwarePolicyEngine`] — the complete engine, implementing
//!   `polsec-can`'s [`Interposer`](polsec_can::node::Interposer) seam so it
//!   interposes transparently on any [`CanNode`](polsec_can::CanNode),
//! * [`config`] — compiles `polsec-core` policies into filter tables,
//!   including minimal id/mask cover synthesis for id ranges,
//! * tamper model — firmware-facing reconfiguration attempts **always
//!   fail** and are counted; the only write path is an OEM-signed bundle
//!   ([`HardwarePolicyEngine::apply_signed_config`]).
//!
//! The crucial security property, tested here and exercised end-to-end in
//! the workspace integration tests: *compromised firmware can clear the
//! controller's software filters but has no code path that touches the
//! HPE's lists.*
//!
//! # Example
//!
//! ```
//! use polsec_can::{CanFrame, CanId, CanNode};
//! use polsec_hpe::{ApprovedLists, HardwarePolicyEngine};
//!
//! let mut lists = ApprovedLists::with_capacity(8);
//! lists.allow_read(CanId::standard(0x100)?)?;
//! lists.allow_write(CanId::standard(0x200)?)?;
//!
//! let hpe = HardwarePolicyEngine::new("ecu-hpe", lists);
//! let mut node = CanNode::new("ecu");
//! node.install_interposer(Box::new(hpe));
//! assert!(node.is_interposed());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod decision;
pub mod engine;
pub mod error;
pub mod lists;
pub mod telemetry;

pub use config::{compile_policy_to_lists, synthesize_id_mask_cover};
pub use cost::CostModel;
pub use decision::{DecisionBlock, Verdict};
pub use engine::HardwarePolicyEngine;
pub use error::HpeError;
pub use lists::{ApprovedList, ApprovedLists};
pub use telemetry::{HpeTelemetry, HpeTotals};
