//! The unified task-submission API.
//!
//! Historically the runtime grew six overlapping entry points — one per
//! combination of urgency, cancellation, and execution vehicle. Those
//! shims are gone; all submission goes through one fluent builder:
//!
//! ```
//! use occam_core::{RetryPolicy, CancelToken, TaskState};
//! use occam_emunet::{EmuNet, EmuService};
//! use occam_netdb::{attrs, Database};
//! use occam_topology::FatTree;
//! use std::sync::Arc;
//!
//! # let ft = FatTree::build(1, 4).unwrap();
//! # let db = Arc::new(Database::new());
//! # for (_, d) in ft.topo.devices().filter(|(_, d)| d.role != occam_topology::Role::Host) {
//! #     db.insert_device(&d.name, vec![]).unwrap();
//! # }
//! # let rt = occam_core::Runtime::new(db, Arc::new(EmuService::new(EmuNet::from_fattree(&ft))));
//! let token = CancelToken::new();
//! let report = rt
//!     .task("device_maintenance")
//!     .urgent()
//!     .cancel_token(token)
//!     .retry(RetryPolicy::attempts(3))
//!     .run(|ctx| {
//!         let pod = ctx.network("dc01.pod03.*")?;
//!         pod.set(attrs::DEVICE_STATUS, attrs::STATUS_UNDER_MAINTENANCE.into())?;
//!         pod.apply("f_drain")?;
//!         Ok(())
//!     });
//! assert_eq!(report.state, TaskState::Completed);
//! assert_eq!(report.attempts, 1);
//! ```
//!
//! Terminals choose the execution vehicle:
//!
//! - [`TaskBuilder::run`] — synchronous, on the calling thread;
//! - [`TaskBuilder::spawn`] — a dedicated thread (tests, one-shot tools);
//! - [`TaskBuilder::spawn_pooled`] — the bounded worker pool (services).
//!
//! Retry semantics: `run`/`spawn`/`spawn_pooled` take `FnMut` programs so
//! a [`RetryPolicy`] can re-execute them after *transient* aborts
//! ([`crate::TaskError::is_transient`]). Between attempts the runtime
//! mechanically executes the failed attempt's suggested rollback plan, so
//! every attempt starts from the task's initial state; if that rollback
//! itself fails, retrying stops and the aborted report is surfaced for
//! operator recovery.

use crate::pool::{PoolJob, PooledHandle};
use crate::retry::RetryPolicy;
use crate::runtime::Runtime;
use crate::task::{CancelToken, TaskCtx, TaskReport};
use crate::TaskResult;

/// Concurrency-control mode for one task (DESIGN.md §16).
///
/// The mode is a *declaration on the task*, not a property of individual
/// operations: the same management program runs unchanged under either
/// mode, and [`Isolation::Occ`] transparently re-executes under
/// [`Isolation::TwoPl`] when optimism does not pay off — after
/// `max_retries` commit-validation conflicts, or immediately when the
/// program performs an operation that cannot be staged (a device
/// function `apply`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Isolation {
    /// Strict two-phase locking through the multi-granularity object
    /// tree — the paper's default. Locks accumulate during the task and
    /// release together at commit or abort.
    #[default]
    TwoPl,
    /// Optimistic concurrency: the task runs lock-free against a frozen
    /// consistent snapshot, database writes are staged privately, and at
    /// commit the runtime validates that no other commit touched any
    /// shard the task read or wrote (per-shard version counters). A
    /// validation conflict re-runs the task from a fresh snapshot.
    Occ {
        /// Commit-validation conflicts tolerated before the task falls
        /// back to pessimistic (2PL) execution.
        max_retries: u32,
    },
}

/// A fluent, one-stop task submission builder (see the module docs).
///
/// Created by [`Runtime::task`]; defaults: not urgent, a fresh cancel
/// token, no retries, [`Isolation::TwoPl`].
#[must_use = "a TaskBuilder does nothing until a terminal (`run`, `spawn`, `spawn_pooled`) is called"]
pub struct TaskBuilder {
    rt: Runtime,
    name: String,
    urgent: bool,
    cancel: CancelToken,
    retry: RetryPolicy,
    isolation: Isolation,
}

impl Runtime {
    /// Starts building a task named `name` — the single entry point for
    /// all task submission.
    pub fn task(&self, name: impl Into<String>) -> TaskBuilder {
        TaskBuilder {
            rt: self.clone(),
            name: name.into(),
            urgent: false,
            cancel: CancelToken::new(),
            retry: RetryPolicy::none(),
            isolation: Isolation::TwoPl,
        }
    }
}

impl TaskBuilder {
    /// Flags the task urgent: its lock requests pre-empt policy order
    /// (outage recovery, §5) and pooled execution takes the fast lane.
    pub fn urgent(mut self) -> TaskBuilder {
        self.urgent = true;
        self
    }

    /// Sets urgency from a flag (for callers plumbing a boolean through).
    pub fn urgency(mut self, urgent: bool) -> TaskBuilder {
        self.urgent = urgent;
        self
    }

    /// Attaches a cancellation token, observed at task checkpoints (lock
    /// acquisition and stateful operations). Cancellation also stops any
    /// pending retries.
    pub fn cancel_token(mut self, cancel: CancelToken) -> TaskBuilder {
        self.cancel = cancel;
        self
    }

    /// Sets the retry policy for transient aborts (default: no retries).
    pub fn retry(mut self, policy: RetryPolicy) -> TaskBuilder {
        self.retry = policy;
        self
    }

    /// Sets the concurrency-control mode (default: [`Isolation::TwoPl`]).
    /// Under [`Isolation::Occ`] the task runs lock-free against a frozen
    /// snapshot, validating at commit; validation conflicts and
    /// un-stageable operations transparently fall back to 2PL.
    pub fn isolation(mut self, isolation: Isolation) -> TaskBuilder {
        self.isolation = isolation;
        self
    }

    /// Runs the task synchronously on the calling thread and returns its
    /// report (the final attempt's, with [`TaskReport::attempts`] set).
    pub fn run<F>(self, program: F) -> TaskReport
    where
        F: FnMut(&TaskCtx) -> TaskResult<()>,
    {
        self.rt.execute_with_policy(
            &self.name,
            self.urgent,
            self.cancel,
            &self.retry,
            self.isolation,
            program,
        )
    }

    /// Spawns the task on a dedicated OS thread; the handle yields its
    /// report. One thread per task — fine for tests and one-shot tooling;
    /// services should use [`TaskBuilder::spawn_pooled`].
    pub fn spawn<F>(self, program: F) -> std::thread::JoinHandle<TaskReport>
    where
        F: FnMut(&TaskCtx) -> TaskResult<()> + Send + 'static,
    {
        std::thread::spawn(move || {
            self.rt.execute_with_policy(
                &self.name,
                self.urgent,
                self.cancel,
                &self.retry,
                self.isolation,
                program,
            )
        })
    }

    /// Submits the task to the runtime's bounded worker pool (at most
    /// `pool_size` tasks run concurrently, [`Runtime::configure_pool`];
    /// urgent tasks take the fast lane). This is the service-grade
    /// submission path — it never spawns per-task threads.
    pub fn spawn_pooled<F>(self, program: F) -> PooledHandle
    where
        F: FnMut(&TaskCtx) -> TaskResult<()> + Send + 'static,
    {
        let TaskBuilder {
            rt,
            name,
            urgent,
            cancel,
            retry,
            isolation,
        } = self;
        let worker_rt = rt.clone();
        let job = PoolJob {
            urgent,
            cancel: cancel.clone(),
            run: Box::new(move || {
                worker_rt.execute_with_policy(&name, urgent, cancel, &retry, isolation, program)
            }),
        };
        rt.enqueue_pooled(None, vec![job])
            .handles
            .pop()
            .expect("an enqueue without a bound admits every job")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskState;
    use crate::TaskError;
    use occam_netdb::{attrs, FaultPlan};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn run_completes_like_the_old_entry_point() {
        let rt = crate::test_support::tiny_runtime();
        let report = rt.task("noop").run(|ctx| {
            let net = ctx.network("dc01.pod00.*")?;
            let _ = net.get(attrs::DEVICE_STATUS)?;
            Ok(())
        });
        assert_eq!(report.state, TaskState::Completed);
        assert_eq!(report.attempts, 1);
        assert_eq!(rt.active_objects(), 0);
    }

    #[test]
    fn transient_abort_is_retried_and_rolled_back_between_attempts() {
        let rt = crate::test_support::tiny_runtime();
        // Writing one attr over the single-device scope costs a couple of
        // queries; fail one mid-task on the first execution only.
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        let report = rt
            .task("flaky")
            .retry(RetryPolicy::attempts(3))
            .run(move |ctx| {
                let n = c.fetch_add(1, Ordering::SeqCst);
                let net = ctx.network("dc01.pod00.agg00")?;
                net.set(attrs::DEVICE_STATUS, attrs::STATUS_UNDER_MAINTENANCE.into())?;
                if n == 0 {
                    // Transient failure after a stateful write: the retry
                    // loop must roll the write back before re-running.
                    return Err(TaskError::Db(occam_netdb::DbError::ConnectionFailure {
                        query_seq: 0,
                    }));
                }
                Ok(())
            });
        assert_eq!(report.state, TaskState::Completed, "{:?}", report.error);
        assert_eq!(report.attempts, 2);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(rt.obs().counter_value("core.task.retries"), 1);
        // The retried (successful) write is in place.
        let pat = occam_regex::Pattern::from_glob("dc01.pod00.agg00").unwrap();
        let vals = rt.db().get_attr(&pat, attrs::DEVICE_STATUS).unwrap();
        assert_eq!(
            vals["dc01.pod00.agg00"].as_str(),
            Some(attrs::STATUS_UNDER_MAINTENANCE)
        );
    }

    #[test]
    fn permanent_abort_is_never_retried() {
        let rt = crate::test_support::tiny_runtime();
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        let report = rt
            .task("permanent")
            .retry(RetryPolicy::attempts(5))
            .run(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Err(TaskError::Failed("semantic failure".into()))
            });
        assert_eq!(report.state, TaskState::Aborted);
        assert_eq!(report.attempts, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(rt.obs().counter_value("core.task.retries"), 0);
    }

    #[test]
    fn retries_exhaust_and_surface_the_final_report() {
        let rt = crate::test_support::tiny_runtime();
        rt.db().set_fault_plan(FaultPlan::random(1.0, 9));
        let report = rt
            .task("doomed")
            .retry(RetryPolicy::attempts(3))
            .run(|ctx| {
                let net = ctx.network("dc01.pod00.agg00")?;
                net.set(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE.into())?;
                Ok(())
            });
        assert_eq!(report.state, TaskState::Aborted);
        assert_eq!(report.attempts, 3);
        assert!(report.error.as_ref().unwrap().is_transient());
        assert_eq!(rt.obs().counter_value("core.task.retries"), 2);
    }

    #[test]
    fn cancelled_token_stops_retrying() {
        let rt = crate::test_support::tiny_runtime();
        let token = CancelToken::new();
        let t = token.clone();
        let report = rt
            .task("cancel-mid-retry")
            .cancel_token(token)
            .retry(RetryPolicy::attempts(10))
            .run(move |_| {
                t.cancel();
                Err(TaskError::Deadlock) // transient, but token is now set
            });
        assert_eq!(report.state, TaskState::Aborted);
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn spawn_and_spawn_pooled_deliver_reports() {
        let rt = crate::test_support::tiny_runtime();
        assert!(rt.configure_pool(2));
        let h = rt.task("threaded").spawn(|_| Ok(()));
        assert_eq!(h.join().unwrap().state, TaskState::Completed);
        let p = rt.task("pooled").urgent().spawn_pooled(|_| Ok(()));
        assert_eq!(p.wait().state, TaskState::Completed);
        assert_eq!(rt.obs().counter_value("core.tasks.completed"), 2);
    }
}
