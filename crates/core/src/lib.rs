//! # polsec-core — the policy-based security model
//!
//! This crate implements the paper's contribution: a security model expressed
//! as **machine-enforceable policies** derived from threat modelling, with a
//! configurable evaluation engine and a signed field-update mechanism.
//!
//! The pieces, in dependency order:
//!
//! * [`Action`] / [`ActionSet`] — the access verbs (read, write, execute,
//!   configure),
//! * [`EntityId`] / [`EntityMatcher`] — namespaced subject/object names and
//!   the patterns rules match them with (exact, prefix, numeric id range),
//! * [`Condition`] — behavioural/situational predicates: operating mode,
//!   system state, rate limits, boolean combinators,
//! * [`Rule`] / [`Policy`] / [`PolicySet`] — the policy language's abstract
//!   syntax,
//! * [`PolicyEngine`] — the evaluation engine with three combining
//!   strategies (deny-overrides, first-match, priority-order), an audit
//!   trail, exact-subject and exact-object rule indexes and a decision
//!   cache,
//! * [`dsl`] — a textual policy language with a lexer, recursive-descent
//!   parser and canonical printer (round-trip tested),
//! * [`compile_security_model`] — the bridge from `polsec-model`'s threat
//!   modelling output to enforceable policies (the Fig. 1 "device security
//!   model … defined as access control policies"),
//! * [`bundle`] / [`update`] — versioned, HMAC-SHA-256-signed policy bundles
//!   and the device-side store with apply/rollback (the OEM "policy
//!   definition update" of §IV),
//! * [`sign`] — a self-contained SHA-256/HMAC implementation (simulation-
//!   grade, test-vector checked; **not** production crypto). Its
//!   compression runs on the x86 SHA extensions when run-time detection
//!   finds them and on portable rounds otherwise; a unit test requires the
//!   two to agree on 10 000 seeded blocks and on the test vectors' blocks.
//!   The call into the hardware rounds is the crate's one `unsafe` block:
//!   the crate denies `unsafe_code` and allows it on that function alone,
//! * [`intern`] — global string interning ([`Symbol`]), the substrate of
//!   the decision fast path; the engine's generation-tagged lock-free
//!   decision cache lives in the crate-private `cache` module (DESIGN.md
//!   §6).
//!
//! # Example
//!
//! ```
//! use polsec_core::{Action, AccessRequest, Decision, Effect, EntityId, EvalContext, PolicyEngine};
//! use polsec_core::dsl::parse_policy;
//!
//! let policy = parse_policy(r#"
//!     policy "ecu-protection" version 1 {
//!         default deny;
//!         allow read on asset:ev-ecu from entry:*;
//!         deny write on asset:ev-ecu from entry:* when mode == normal;
//!     }
//! "#)?;
//!
//! let engine = PolicyEngine::from_policy(policy);
//! let ctx = EvalContext::new().with_mode("normal");
//! let read = AccessRequest::new(
//!     EntityId::parse("entry:sensors")?,
//!     EntityId::parse("asset:ev-ecu")?,
//!     Action::Read,
//! );
//! assert_eq!(engine.decide(&read, &ctx).effect(), Effect::Allow);
//! # Ok::<(), polsec_core::PolicyError>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod audit;
pub mod bundle;
pub(crate) mod cache;
pub mod compiler;
pub mod condition;
pub mod dsl;
pub mod engine;
pub mod entity;
pub mod error;
pub mod intern;
pub mod policy;
pub mod request;
pub mod sign;
pub mod update;

pub use action::{Action, ActionSet};
pub use audit::AuditRecord;
pub use bundle::{PolicyBundle, SignedBundle};
pub use compiler::compile_security_model;
pub use condition::{Condition, RateSource};
pub use engine::{
    load_time_cacheability, CombiningStrategy, Decision, EngineStats, LoadMode, PolicyEngine,
    RuleCacheability,
};
pub use intern::Symbol;
pub use entity::{EntityId, EntityMatcher, Pattern};
pub use error::PolicyError;
pub use policy::{Effect, Policy, PolicySet, Rule};
pub use request::{AccessRequest, EvalContext};
pub use update::{DevicePolicyStore, UpdateOutcome};
