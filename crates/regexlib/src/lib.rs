//! # occam-regex
//!
//! A self-contained regex/automata engine over the network
//! device-identifier space, standing in for the `greenery` FSM library used
//! by the Occam paper (reference \[34\] there).
//!
//! Network regions in Occam are scoped by regexes over hierarchical device
//! names (`dc01.pod03.rack07.tor2`). The object tree (paper §4) needs a
//! *closed algebra* on those regions — intersection, difference,
//! containment, overlap — whose results are again valid regexes. This crate
//! provides that algebra:
//!
//! - [`parse`] / [`Ast`]: a restricted regex dialect over a 39-symbol
//!   alphabet (`a`–`z`, `0`–`9`, `.`, `-`, `_`).
//! - [`Nfa`] / [`Dfa`]: Thompson construction, subset construction,
//!   minimization, and boolean product operations on complete DFAs.
//! - [`dfa_to_regex`]: GNFA state elimination, so every derived region has a
//!   regex representation.
//! - [`Pattern`]: the high-level symbolic-region type used by the rest of
//!   the system.
//! - [`PatternCache`]: the regex/FSM cache the paper describes in §7.
//!
//! # Examples
//!
//! ```
//! use occam_regex::Pattern;
//!
//! let scope = Pattern::from_glob("dc1.pod[0-4].*").unwrap();
//! let busy = Pattern::from_glob("dc1.pod3.*").unwrap();
//! assert!(scope.contains(&busy));
//!
//! // Split: the part of `scope` not already claimed by `busy`.
//! let rest = scope.subtract(&busy);
//! assert!(!rest.overlaps(&busy));
//! assert!(rest.union(&busy).equivalent(&scope));
//! ```

pub mod alphabet;
pub mod ast;
pub mod cache;
pub mod dfa;
pub mod nfa;
pub mod parser;
pub mod pattern;
pub mod toregex;

pub use alphabet::{SymSet, NSYM};
pub use ast::Ast;
pub use cache::{CacheStats, PatternCache};
pub use dfa::{product_ops, subset_steps, Dfa, Relation};
pub use nfa::Nfa;
pub use parser::{glob_to_regex, parse, ParseError};
pub use pattern::Pattern;
pub use toregex::{dfa_to_ast, dfa_to_regex};
