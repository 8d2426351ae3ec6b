//! The textual policy language.
//!
//! A small, readable DSL so policies can be written, reviewed and shipped as
//! text — the form an OEM security team would actually author. Grammar:
//!
//! ```text
//! policy   := "policy" STRING "version" NUMBER "{" stmt* "}"
//! stmt     := "default" ("allow" | "deny") ";"
//!           | ("allow" | "deny") actions "on" entity "from" entity
//!             ["when" cond] ["priority" NUMBER] ["as" IDENT] ";"
//! actions  := action ("," action)*          // read, write, execute, configure
//! entity   := (IDENT | "*") ":" pattern     // asset:ev-ecu, can:0x100-0x1FF,
//!                                           // entry:sensor-*, *:*
//! cond     := or ; or := and ("||" and)* ; and := not ("&&" not)*
//! not      := "!" not | "(" cond ")" | atom
//! atom     := "true"
//!           | "mode" ("==" | "!=") value
//!           | "state" "." IDENT ("==" | "!=") value
//!           | "rate" "(" IDENT ")" "<=" NUMBER
//! value    := IDENT | STRING
//! STRING   := '"' (any char but '"' or '\' | '\"' | '\\')* '"'
//! ```
//!
//! Comments run from `#` or `//` to end of line. [`print_policy`] emits the
//! canonical form, and `parse(print(p)) == p` holds for every policy (a
//! property test in the suite).
//!
//! # Example
//!
//! ```
//! use polsec_core::dsl::{parse_policy, print_policy};
//!
//! let text = r#"
//! policy "door-locks" version 2 {
//!     default deny;
//!     // locks may only be written by the safety-critical system during an accident
//!     allow write on asset:door-locks from entry:safety-critical
//!         when mode == fail-safe as unlock-on-crash;
//!     deny write on asset:door-locks from entry:telematics
//!         when state.vehicle.moving == true priority 10 as no-remote-unlock;
//! }
//! "#;
//! let policy = parse_policy(text)?;
//! assert_eq!(policy.name(), "door-locks");
//! assert_eq!(policy.len(), 2);
//! let canonical = print_policy(&policy);
//! assert_eq!(parse_policy(&canonical)?, policy);
//! # Ok::<(), polsec_core::PolicyError>(())
//! ```

mod lexer;
mod parser;
mod printer;

pub use lexer::{tokenize, Token, TokenKind};
pub use parser::{parse_policies, parse_policy};
pub use printer::{print_condition, print_policy, print_rule};
