//! # polsec-analyze — static policy analysis
//!
//! Lints compiled policy bundles and the layered fleet configuration
//! *without executing a single frame*. Two layers:
//!
//! * **Layer 1** ([`analyze_set`]) works over one compiled
//!   [`polsec_core::PolicySet`]: rule shadowing and contradictions under
//!   the active combining strategy (via the subsumption lattice in
//!   [`lattice`]), dead conditions and mode-unreachable rules (via the
//!   bounded small-formula solver in [`sat`] and the [`ModeGraph`]), and an
//!   independent cacheability computation cross-checked against the
//!   engine's load-time analysis.
//! * **Layer 2** ([`analyze_ladder`]) works over the fleet's enforcement
//!   ladder description: for every CAN identifier × direction × origin
//!   class it computes what the gateway whitelist, segment HPEs, node
//!   HPEs and application policy would each do, and reports coverage
//!   holes (attack classes no enforcing rung stops), dead whitelist
//!   entries, and identifier-level rung redundancy.
//!
//! Findings are structured ([`Finding`]), deterministically ordered
//! ([`Report`]), and rendered as text or JSON; the `polsec-analyze` binary
//! turns `Error` findings (and, under `--deny-warnings`, `Warning`s) into
//! a nonzero exit status for CI gating. [`strict_validator`] plugs the
//! same Layer-1 analyses into [`polsec_core::LoadMode::Strict`] so an
//! engine can refuse to hot-load a defective OTA bundle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod finding;
pub mod lattice;
pub mod layer1;
pub mod layer2;
pub mod modes;
pub mod sat;

pub use finding::{Finding, FindingKind, Report, Severity};
pub use layer1::{
    analyze_set, analyze_with_engine, cacheability_crosscheck, strict_validator, AnalysisOptions,
};
pub use layer2::{
    analyze_ladder, CoverageRow, Direction, LadderReport, LadderSpec, OriginClass, RungOutcome,
    RungOutcomes,
};
pub use modes::ModeGraph;
pub use sat::{mentioned_modes, satisfiable};

/// The most steps either exponential search over a condition may take:
/// branches in [`satisfiable`], pairwise comparisons in
/// [`lattice::condition_implies`]. A search that runs out answers the side
/// that only suppresses a finding, so hostile input costs bounded time and
/// can never produce a false report.
pub const SEARCH_STEPS: u32 = 10_000;
