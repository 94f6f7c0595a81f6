//! # occam-spec
//!
//! The declarative workflow layer (`DESIGN.md` §17): operators declare
//! *desired state* — a scope, target firmware/config, a terminal admin
//! status, tests, audit assertions — and a compiler owns the translation
//! into an executable program whose every abort prefix parses under the
//! Table 1 rollback grammar.
//!
//! The pipeline:
//!
//! ```text
//! template ──instantiate──▶ source ──parse──▶ Spec ──validate──▶ steps
//!                                                        │
//!                                              (semantic rules +
//!                                               abort-prefix parse
//!                                               against Table 1)
//!                                                        │
//!                                                     compile
//!                                                        ▼
//!                                        Program (direct / audit / waves)
//! ```
//!
//! Three realizations share one spec language: **direct** apply under
//! strict 2PL, read-only **audit** through the netdb incremental view
//! cache, and **waves** through the `occam-update` consistent-update
//! coordinator. The gateway catalog declares every standard workflow as
//! a spec template and calls [`template_program`] — this crate is the
//! only `Program` factory in the system.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod compile;
pub mod lower;
pub mod obs;
pub mod parse;
pub mod validate;

pub use ast::{Mode, Spec, SpecError, Strategy, Terminal, TestKind};
pub use compile::{compile, compile_source, template_program, Compiled, Program};
pub use lower::{lower, needs_offline};
pub use obs::SpecObs;
pub use occam_netdb::attrs::CONFIG_VERSION;
pub use parse::{instantiate, parse_spec};
pub use validate::validate;
