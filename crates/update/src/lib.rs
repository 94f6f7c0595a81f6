//! # occam-update
//!
//! Consistent-update synthesis with mid-update invariant verification
//! (DESIGN.md §15).
//!
//! Occam's transactional runtime guarantees that a management task is
//! fully applied or fully rolled back — but it says nothing about the
//! states the network transits *through* while a correct task runs. A
//! hand-written drain/push ordering can blackhole or loop traffic at an
//! intermediate step even when every lock and rollback fires perfectly.
//! Following "Toward Synthesis of Network Updates" (PAPERS.md), this
//! crate synthesizes the ordering instead of trusting the operator:
//!
//! 1. **Diff** ([`diff()`]): two netdb [`StoreSnapshot`]s (current and
//!    target config) are compared into per-device [`UpdateOp`]s.
//! 2. **Invariants** ([`invariant`]): a [`Checker`] model-checks a
//!    network state against the emunet forwarding model — ECMP shortest
//!    paths over the shared [`Topology`] — for loop freedom,
//!    no-blackhole, and regex-scoped waypoint traversal of a set of
//!    [`TrafficClass`]es.
//! 3. **Synthesis** ([`plan`]): a [`Synthesizer`] orders the operations
//!    into maximal parallel [`Wave`]s by counterexample-guided search:
//!    greedily batch, model-check the mid-wave state, and on a violation
//!    insert a drain/undrain barrier or split the wave, falling back to
//!    per-device ordering. Termination is by strict decrease of wave
//!    size (DESIGN.md §15.3).
//! 4. **Execution** ([`exec`]): the plan runs wave-by-wave through the
//!    ordinary [`TaskBuilder`](occam_core::TaskBuilder) machinery — one
//!    strict-2PL task per wave — so a mid-plan failure rolls back to the
//!    nearest wave boundary (a state the checker proved safe), never an
//!    arbitrary prefix.
//!
//! ```
//! use occam_netdb::{attrs, wal::WalRecord, StoreSnapshot};
//! use occam_topology::FatTree;
//! use occam_update::{diff, Synthesizer};
//!
//! let ft = FatTree::build(1, 4).unwrap();
//! let mut records = Vec::new();
//! for (_, d) in ft.topo.devices() {
//!     records.push(WalRecord::InsertDevice {
//!         name: d.name.clone(),
//!         attrs: vec![(attrs::FIRMWARE_VERSION.into(), "fw-1.0.0".into())],
//!     });
//! }
//! let old = StoreSnapshot::replay(&records);
//! for (_, d) in ft.topo.devices() {
//!     records.push(WalRecord::SetDeviceAttr {
//!         name: d.name.clone(),
//!         attr: attrs::FIRMWARE_VERSION.into(),
//!         value: "fw-2.0.0".into(),
//!     });
//! }
//! let new = StoreSnapshot::replay(&records);
//! let ops = diff(&old, &new);
//! assert_eq!(ops.len(), ft.topo.devices().count());
//! // No traffic classes declared: everything fits in one barriered wave.
//! let plan = Synthesizer::new(&ft.topo, &[]).synthesize(&ops).unwrap();
//! assert_eq!(plan.waves.len(), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod exec;
pub mod invariant;
pub mod obs;
pub mod plan;

pub use diff::{diff, UpdateOp};
pub use exec::{execute_plan, lower_wave, ExecOptions, ExecReport, WavePoint};
pub use invariant::{Checker, ModelState, TrafficClass, Violation, ViolationKind};
pub use obs::UpdateObs;
pub use plan::{Plan, PlanError, SynthStats, Synthesizer, Wave};

// Re-exported so callers of the diff/planner APIs need not depend on the
// source crates directly.
pub use occam_netdb::StoreSnapshot;
pub use occam_topology::Topology;
