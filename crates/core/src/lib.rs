//! # occam-core
//!
//! The Occam programming model and runtime (paper §3–§6).
//!
//! An Occam management program is a closure receiving a [`TaskCtx`]. It
//! creates [`Network`] objects by scoping network regions (glob or regex
//! over the device-name space) and performs all stateful operations
//! through them:
//!
//! - `get(attr)` — read logical state from the source-of-truth database,
//! - `set(attr, value)` — write logical state,
//! - `apply(func)` — execute a device function on the physical network.
//!
//! Everything else a program does is stateless local computation. The
//! runtime provides the paper's reliability guardrails automatically:
//!
//! - **Consistency**: regions lock through the multi-granularity object
//!   tree; a task's operations commit or abort as one unit under strict
//!   2PL, so no other task observes intermediate logical or physical
//!   state in its regions.
//! - **Efficiency**: lock grants are arbitrated by the FIFO/LDSF scheduler;
//!   urgent tasks pre-empt.
//! - **Resilience**: every stateful operation is recorded in a typed
//!   execution log; on failure the runtime parses the log against the
//!   Table 1 grammar and suggests a concrete [`RollbackPlan`]
//!   ([`TaskReport::rollback`]), which [`execute_rollback`] can carry out.
//!
//! # Examples
//!
//! The paper's first example — flagging a pod's switches for maintenance —
//! is four lines of management logic:
//!
//! ```
//! use occam_core::Runtime;
//! use occam_emunet::{EmuNet, EmuService};
//! use occam_netdb::{attrs, Database};
//! use occam_topology::FatTree;
//! use std::sync::Arc;
//!
//! // Substrate: an emulated k=4 fabric and a seeded database.
//! let ft = FatTree::build(1, 4).unwrap();
//! let db = Arc::new(Database::new());
//! // The source of truth tracks network devices, not end hosts.
//! for (_, d) in ft.topo.devices().filter(|(_, d)| d.role != occam_topology::Role::Host) {
//!     db.insert_device(&d.name, vec![]).unwrap();
//! }
//! let runtime = Runtime::new(db, Arc::new(EmuService::new(EmuNet::from_fattree(&ft))));
//!
//! let report = runtime.task("device_maintenance").run(|ctx| {
//!     let dc1pod3 = ctx.network("dc01.pod03.*")?;
//!     dc1pod3.set(attrs::DEVICE_STATUS, attrs::STATUS_UNDER_MAINTENANCE.into())?;
//!     dc1pod3.apply("f_drain")?;
//!     dc1pod3.close();
//!     Ok(())
//! });
//! assert_eq!(report.state, occam_core::TaskState::Completed);
//! ```

pub mod builder;
pub mod error;
pub mod network;
pub mod pool;
pub mod recovery;
pub mod retry;
pub mod runtime;
pub mod steps;
pub mod task;

pub use builder::{Isolation, TaskBuilder};
pub use error::{TaskError, TaskResult};
pub use network::Network;
pub use occam_rollback::RollbackPlan;
pub use pool::{Admission, JobState, PoolJob, PoolStats, PooledHandle};
pub use recovery::{execute_rollback, RecoveryError};
pub use retry::RetryPolicy;
pub use runtime::Runtime;
pub use task::{CancelToken, TaskCtx, TaskReport, TaskState, UndoRecord};

#[cfg(test)]
pub(crate) mod test_support {
    use crate::Runtime;
    use occam_emunet::{EmuNet, EmuService};
    use occam_netdb::{attrs, Database};
    use occam_topology::FatTree;
    use std::sync::Arc;

    /// A k=4 Fat-tree runtime with every switch in the database.
    pub fn tiny_runtime() -> Runtime {
        let ft = FatTree::build(1, 4).unwrap();
        let db = Arc::new(Database::new());
        for (_, d) in ft
            .topo
            .devices()
            .filter(|(_, d)| d.role != occam_topology::Role::Host)
        {
            db.insert_device(
                &d.name,
                vec![(attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into())],
            )
            .unwrap();
        }
        let service = Arc::new(EmuService::new(EmuNet::from_fattree(&ft)));
        Runtime::new(db, service)
    }

    /// Reaches the concrete emulator service behind the runtime's trait
    /// object.
    pub fn emu_service(rt: &Runtime) -> &EmuService {
        rt.service()
            .as_any()
            .downcast_ref::<EmuService>()
            .expect("runtime built over EmuService")
    }
}
