//! # polsec-mac — SELinux-style mandatory access control
//!
//! The paper's software enforcement point (§V.B.1): "Policies are deployed
//! using a modular approach … Policies can be updated to apply new Mandatory
//! Access Controls." This crate is a compact type-enforcement MAC in the
//! SELinux mould:
//!
//! * [`SecurityContext`] — `user:role:type` labels,
//! * [`TeRule`] — `allow source target : class { perms }` type-enforcement
//!   rules (plus `neverallow` assertions and `dontaudit`),
//! * [`PolicyModule`] / [`MacPolicy`] — modular policy with load/unload and
//!   neverallow validation at link time,
//! * [`TypeTransition`] — domain transitions on exec,
//! * [`Enforcer`] — enforcing/permissive check entry point that reads the
//!   linked policy directly (no access-vector cache; its cost is E5) and
//!   keeps the first 1024 `avc:` audit messages,
//! * [`adapter`] — compiles `polsec-core` process-facing policies into a
//!   [`PolicyModule`], so one threat model drives both enforcement points.
//!
//! # Example
//!
//! ```
//! use polsec_mac::{Enforcer, MacPolicy, PolicyModule, SecurityContext, TeRule};
//!
//! let mut module = PolicyModule::new("infotainment", 1);
//! module.declare_type("mediaplayer_t");
//! module.declare_type("canbus_t");
//! module.add_allow(TeRule::allow("mediaplayer_t", "canbus_t", "can_socket", &["read"]));
//!
//! let mut policy = MacPolicy::new();
//! policy.load_module(module)?;
//! let mut enforcer = Enforcer::new(policy);
//!
//! let media = SecurityContext::parse("system:object_r:mediaplayer_t")?;
//! let bus = SecurityContext::parse("system:object_r:canbus_t")?;
//! assert!(enforcer.check(&media, &bus, "can_socket", "read").permitted());
//! assert!(!enforcer.check(&media, &bus, "can_socket", "write").permitted());
//! # Ok::<(), polsec_mac::MacError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod context;
pub mod enforcer;
pub mod error;
pub mod policy;
pub mod te;

pub use adapter::module_from_core_policy;
pub use context::SecurityContext;
pub use enforcer::{CheckResult, Enforcer, EnforcementMode};
pub use error::MacError;
pub use policy::{MacPolicy, PolicyModule};
pub use te::{TeKind, TeRule, TypeTransition};
