//! The Occam runtime: task lifecycle, lock arbitration, and failure
//! reporting.
//!
//! The runtime owns the source-of-truth database handle, the management
//! plane service, and the object tree + scheduler behind one lock table.
//! Tasks run as closures submitted via [`crate::TaskBuilder`]; every stateful
//! operation flows through a [`crate::Network`] object, and the runtime
//! enforces strict 2PL: locks accumulate during the task and release
//! together at commit or abort.

use crate::builder::Isolation;
use crate::error::{TaskError, TaskResult};
use crate::pool::PoolShared;
use crate::retry::RetryPolicy;
use crate::task::{CancelToken, TaskCtx, TaskReport, TaskState};
use occam_cert::Certifier;
use occam_emunet::DeviceService;
use occam_netdb::{Database, OccOutcome, ReadRouter, ReadView};
use occam_objtree::{ObjTree, ObjectId, SplitMode, TaskId};
use occam_obs::{Counter, EventKind, EventRing, Histogram, Registry, Span};
use occam_regex::PatternCache;
use occam_sched::{Policy, SchedStats, Scheduler};
use parking_lot::{Condvar, Mutex};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Observability handles for the runtime, bound to a [`Registry`] under
/// the `core.*` names (DESIGN.md §9).
#[derive(Clone)]
pub(crate) struct CoreObs {
    pub registry: Registry,
    pub tasks_submitted: Counter,
    pub tasks_completed: Counter,
    pub tasks_aborted: Counter,
    pub tasks_cancelled: Counter,
    pub task_panicked: Counter,
    pub task_retries: Counter,
    pub retry_rollback_failed: Counter,
    pub task_wall_ns: Histogram,
    pub lock_acquires: Counter,
    pub lock_wait_ns: Histogram,
    pub deadlocks: Counter,
    pub rollback_plans: Counter,
    pub ops_get: Counter,
    pub ops_set: Counter,
    pub ops_apply: Counter,
    pub occ_commits: Counter,
    pub occ_aborts: Counter,
    pub occ_fallbacks: Counter,
    pub occ_validate_ns: Histogram,
    pub events: EventRing,
}

impl CoreObs {
    fn bound(reg: &Registry) -> CoreObs {
        CoreObs {
            registry: reg.clone(),
            tasks_submitted: reg.counter("core.tasks.submitted"),
            tasks_completed: reg.counter("core.tasks.completed"),
            tasks_aborted: reg.counter("core.tasks.aborted"),
            tasks_cancelled: reg.counter("core.tasks.cancelled"),
            task_panicked: reg.counter("core.task.panicked"),
            task_retries: reg.counter("core.task.retries"),
            retry_rollback_failed: reg.counter("core.task.retry_rollback_failed"),
            task_wall_ns: reg.histogram("core.task_wall_ns"),
            lock_acquires: reg.counter("core.lock.acquires"),
            lock_wait_ns: reg.histogram("core.lock_wait_ns"),
            deadlocks: reg.counter("core.deadlocks"),
            rollback_plans: reg.counter("core.rollback.plans"),
            ops_get: reg.counter("core.ops.get"),
            ops_set: reg.counter("core.ops.set"),
            ops_apply: reg.counter("core.ops.apply"),
            occ_commits: reg.counter("core.occ.commits"),
            occ_aborts: reg.counter("core.occ.aborts"),
            occ_fallbacks: reg.counter("core.occ.fallbacks"),
            occ_validate_ns: reg.histogram("core.occ.validate_ns"),
            events: reg.events(),
        }
    }
}

pub(crate) struct LockState {
    pub tree: ObjTree,
    pub sched: Scheduler,
    /// Tasks marked as deadlock victims; they observe the flag on wake-up
    /// and abort with [`TaskError::Deadlock`].
    pub aborted: HashSet<TaskId>,
}

pub(crate) struct LockTable {
    pub state: Mutex<LockState>,
    /// Shared with every [`PooledHandle`](crate::PooledHandle) so its
    /// `cancel()` can wake a task blocked in `acquire`.
    pub cv: Arc<Condvar>,
}

pub(crate) struct Inner {
    db: Arc<Database>,
    service: Arc<dyn DeviceService>,
    locks: LockTable,
    cache: PatternCache,
    next_task: AtomicU64,
    seq: AtomicU64,
    obs: CoreObs,
    /// Lazily-started bounded worker pool ([`TaskBuilder::spawn_pooled`](crate::TaskBuilder::spawn_pooled)).
    pub(crate) pool: Mutex<Option<Arc<PoolShared>>>,
    /// Optional replica read router: when attached, scoped snapshot reads
    /// ([`crate::Network::view`], gateway `status_audit`) are served from
    /// a caught-up follower instead of the leader (DESIGN.md §14).
    read_router: Mutex<Option<Arc<ReadRouter>>>,
    /// Optional online serializability certifier (DESIGN.md §16): when
    /// attached, every task emits its read/write footprint and the
    /// conflict graph is checked for cycles at each commit.
    certifier: Mutex<Option<Arc<Certifier>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Worker threads hold only the `PoolShared`, never the `Inner`
        // (jobs capture a `Runtime` clone, but a queued job keeps `Inner`
        // alive, so by the time we get here the queue is empty). Tell them
        // to exit.
        if let Some(pool) = self.pool.get_mut().take() {
            pool.shutdown_now();
        }
    }
}

/// The Occam runtime handle. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<Inner>,
}

impl Runtime {
    /// Creates a runtime over a database and a device service, scheduling
    /// locks with LDSF (the paper's default).
    pub fn new(db: Arc<Database>, service: Arc<dyn DeviceService>) -> Runtime {
        Runtime::with_policy(db, service, Policy::Ldsf)
    }

    /// Creates a runtime with an explicit scheduling policy.
    pub fn with_policy(
        db: Arc<Database>,
        service: Arc<dyn DeviceService>,
        policy: Policy,
    ) -> Runtime {
        Runtime::with_obs(db, service, policy, &Registry::new())
    }

    /// Creates a runtime whose `core.*` instruments — and those of its
    /// object tree (`objtree.*`) and scheduler (`sched.*`) — are bound to
    /// `reg` (DESIGN.md §9). Pass the registry the database was built with
    /// ([`Database::with_obs`]) to get the whole stack in one registry.
    pub fn with_obs(
        db: Arc<Database>,
        service: Arc<dyn DeviceService>,
        policy: Policy,
        reg: &Registry,
    ) -> Runtime {
        Runtime {
            inner: Arc::new(Inner {
                db,
                service,
                locks: LockTable {
                    state: Mutex::new(LockState {
                        tree: ObjTree::with_obs(SplitMode::Split, reg),
                        sched: Scheduler::with_obs(policy, reg),
                        aborted: HashSet::new(),
                    }),
                    cv: Arc::new(Condvar::new()),
                },
                cache: PatternCache::default(),
                next_task: AtomicU64::new(1),
                seq: AtomicU64::new(0),
                obs: CoreObs::bound(reg),
                pool: Mutex::new(None),
                read_router: Mutex::new(None),
                certifier: Mutex::new(None),
            }),
        }
    }

    /// Attaches a replica read router: subsequent read-only snapshot
    /// queries ([`crate::Network::view`] and everything built on it, such
    /// as the gateway's `status_audit`) are served from a caught-up
    /// follower within the router's staleness bound, falling back to the
    /// leader. Write paths are unaffected — they always hit the leader.
    pub fn attach_read_router(&self, router: Arc<ReadRouter>) {
        *self.inner.read_router.lock() = Some(router);
    }

    /// Detaches the replica read router; snapshot reads return to the
    /// leader database.
    pub fn detach_read_router(&self) {
        *self.inner.read_router.lock() = None;
    }

    /// Attaches an online serializability certifier: every subsequent
    /// task registers at start and submits its read/write footprint at
    /// commit; the certifier asserts the conflict graph stays acyclic
    /// (`cert.violations`). Detection, not enforcement — a violation is
    /// counted and latched, never turned into a task abort.
    pub fn attach_certifier(&self, cert: Arc<Certifier>) {
        *self.inner.certifier.lock() = Some(cert);
    }

    /// Detaches the certifier; tasks stop emitting footprints.
    pub fn detach_certifier(&self) {
        *self.inner.certifier.lock() = None;
    }

    /// The attached certifier, if any.
    pub fn certifier(&self) -> Option<Arc<Certifier>> {
        self.inner.certifier.lock().clone()
    }

    /// One consistent snapshot read, routed through the attached replica
    /// read router when present, else served by the leader database.
    ///
    /// With a certifier attached the read pins to the leader even when a
    /// router is present: a follower snapshot may trail the task's begin
    /// floor, which would break the certifier's retirement contract
    /// (reads observe commit counts at or above the floor).
    pub(crate) fn routed_view(&self) -> occam_netdb::DbResult<ReadView> {
        let router = self.inner.read_router.lock().clone();
        match router {
            Some(r) if self.inner.certifier.lock().is_none() => r.read_view(),
            _ => self.inner.db.query_read_view(),
        }
    }

    pub(crate) fn lock_waiters(&self) -> Arc<Condvar> {
        Arc::clone(&self.inner.locks.cv)
    }

    pub(crate) fn pool_slot(&self) -> &Mutex<Option<Arc<PoolShared>>> {
        &self.inner.pool
    }

    /// The registry this runtime's instruments are bound to.
    pub fn obs(&self) -> &Registry {
        &self.inner.obs.registry
    }

    pub(crate) fn obs_handles(&self) -> &CoreObs {
        &self.inner.obs
    }

    /// The source-of-truth database.
    pub fn db(&self) -> &Arc<Database> {
        &self.inner.db
    }

    /// The device service.
    pub fn service(&self) -> &Arc<dyn DeviceService> {
        &self.inner.service
    }

    /// The shared pattern cache (paper §7: regex/FSM caching).
    pub fn pattern_cache(&self) -> &PatternCache {
        &self.inner.cache
    }

    /// A snapshot of scheduler statistics.
    pub fn sched_stats(&self) -> SchedStats {
        self.inner.locks.state.lock().sched.stats.clone()
    }

    /// Number of active (non-root) nodes in the object tree.
    pub fn active_objects(&self) -> usize {
        self.inner.locks.state.lock().tree.len() - 1
    }

    pub(crate) fn next_arrival(&self) -> u64 {
        self.inner.seq.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn locks(&self) -> &LockTable {
        &self.inner.locks
    }

    /// Runs one execution attempt of a management program: the primitive
    /// under every `TaskBuilder` terminal.
    ///
    /// The task commits (releasing all locks) when the program returns
    /// `Ok` and aborts with a suggested rollback plan when it returns
    /// `Err`. `cancel` is observed at task checkpoints (lock acquisition
    /// and stateful operations); a token cancelled before the task starts
    /// aborts it without running the program. Panics inside `program` are
    /// contained: the task aborts with [`TaskError::Panicked`] (counter
    /// `core.task.panicked`) instead of unwinding into the calling thread,
    /// so one bad program cannot take down a worker or a joining caller.
    ///
    /// With `occ` set the attempt runs optimistically (DESIGN.md §16): no
    /// locks are taken, reads come from a frozen snapshot, writes buffer
    /// in a [`occam_netdb::StagedStore`], and the attempt ends with
    /// [`Runtime::occ_commit`] — validate-and-publish, or abort with
    /// [`TaskError::OccConflict`] / [`TaskError::OccFallback`] for the
    /// driver in [`Runtime::execute_with_policy`] to handle.
    pub(crate) fn execute_attempt<F>(
        &self,
        name: &str,
        urgent: bool,
        cancel: CancelToken,
        occ: bool,
        program: F,
    ) -> TaskReport
    where
        F: FnOnce(&TaskCtx) -> TaskResult<()>,
    {
        let id = TaskId(self.inner.next_task.fetch_add(1, Ordering::Relaxed));
        let obs = self.obs_handles();
        obs.tasks_submitted.inc();
        obs.events.record(EventKind::TaskSubmitted {
            task: id.0,
            name: name.to_string(),
        });
        let ctx = TaskCtx::new(self.clone(), id, name.to_string(), urgent, cancel);
        // Register with the certifier before the OCC snapshot is taken so
        // the begin floor never exceeds the snapshot's commit count.
        let cert = self.inner.certifier.lock().clone();
        let token = cert.as_ref().map(|c| {
            ctx.set_certified();
            c.begin(name, self.inner.db.commits())
        });
        let result = if ctx.cancel_token().is_cancelled() {
            Err(TaskError::Cancelled)
        } else {
            // The OCC base comes through the routed accessor: a follower
            // snapshot is a true prefix of the leader's history with its
            // shard versions intact, so commit-time validation against
            // the leader stays sound (a stale base just conflicts and
            // retries from a fresher one).
            let setup = if occ {
                self.routed_view()
                    .map(|view| ctx.enable_occ(view.into_snapshot()))
                    .map_err(TaskError::from)
            } else {
                Ok(())
            };
            match setup {
                Err(e) => Err(e),
                Ok(()) => {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| program(&ctx))) {
                        Ok(r) => r.and_then(|()| self.occ_commit(&ctx)),
                        Err(payload) => {
                            obs.task_panicked.inc();
                            Err(TaskError::Panicked(panic_message(payload.as_ref())))
                        }
                    }
                }
            }
        };
        self.teardown(&ctx);
        let footprint = ctx.take_footprint();
        let report = ctx.into_report(match result {
            Ok(()) => (TaskState::Completed, None),
            Err(e) => (TaskState::Aborted, Some(e)),
        });
        obs.task_wall_ns.record_duration(report.wall);
        match report.state {
            TaskState::Completed => {
                obs.tasks_completed.inc();
                obs.events.record(EventKind::TaskCompleted { task: id.0 });
            }
            _ => {
                if matches!(report.error, Some(TaskError::Cancelled)) {
                    obs.tasks_cancelled.inc();
                }
                obs.tasks_aborted.inc();
                obs.events.record(EventKind::TaskAborted { task: id.0 });
            }
        }
        if let (Some(c), Some(t)) = (cert, token) {
            if report.state == TaskState::Completed {
                // A detected cycle is latched by the certifier
                // (`cert.violations`); it never changes the task outcome —
                // the write is already published.
                if c.commit(t, footprint).is_err() {
                    obs.events.record(EventKind::CertViolation {
                        task: name.to_string(),
                    });
                }
            } else {
                c.abandon(t);
            }
        }
        report
    }

    /// Finishes an optimistic attempt: takes exclusive 2PL locks over the
    /// staged write scopes (write-bearing commits only — the mixed-mode
    /// serializability guard), validates the task's read set against the
    /// live store, and publishes its staged writes atomically
    /// (`Database::occ_publish`), recording validation latency in
    /// `core.occ.validate_ns`. No-op for pessimistic attempts; the
    /// commit-time locks are released by the ordinary task teardown.
    ///
    /// On success the buffered write rows are recorded into the certifier
    /// footprint at their true publication count (unknowable until the
    /// WAL sequence is assigned here). A version conflict aborts the
    /// attempt with [`TaskError::OccConflict`] (`core.occ.aborts`) and a
    /// pending fallback request (an `apply()` was attempted) surfaces as
    /// [`TaskError::OccFallback`]; in both cases nothing was published, so
    /// no rollback plan is needed.
    fn occ_commit(&self, ctx: &TaskCtx) -> TaskResult<()> {
        let write_patterns = {
            let mut slot = ctx.occ.lock();
            let Some(st) = slot.as_mut() else {
                return Ok(());
            };
            if let Some(why) = st.needs_fallback.take() {
                return Err(TaskError::OccFallback(why));
            }
            if st.staged.is_empty() {
                Vec::new()
            } else {
                let mut pats = std::mem::take(&mut st.write_patterns);
                pats.sort_by(|a, b| a.source().cmp(b.source()));
                pats.dedup_by(|a, b| a.source() == b.source());
                pats
            }
        };
        // Silo-style commit-time locking: a write-bearing publish briefly
        // takes the exclusive 2PL locks covering its staged scopes, so it
        // can never land inside a pessimistic read-modify-write's critical
        // section (which would let the 2PL task overwrite it from a stale
        // read). Read-only commits skip this entirely and stay lock-free.
        // The ctx.occ guard is dropped first — acquire() can block, and a
        // deadlock/cancel abort must leave the state intact for teardown.
        for pattern in &write_patterns {
            self.acquire(ctx, pattern, occam_objtree::LockMode::Exclusive)?;
        }
        let mut slot = ctx.occ.lock();
        let Some(st) = slot.as_mut() else {
            return Ok(());
        };
        let obs = self.obs_handles();
        let span = Span::start(&obs.occ_validate_ns);
        let outcome = self.inner.db.occ_publish(&st.staged, &st.read_shards);
        span.finish();
        match outcome {
            Ok(OccOutcome::Committed { seq }) => {
                obs.occ_commits.inc();
                if ctx.certified() {
                    for row in st.pending_rows.drain(..) {
                        ctx.record_write(&row, seq + 1);
                    }
                }
                Ok(())
            }
            Ok(OccOutcome::Conflict { shard }) => {
                obs.occ_aborts.inc();
                Err(TaskError::OccConflict { shard })
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Runs `program` under `retry`, re-executing transient aborts after
    /// mechanically rolling back the failed attempt (so every attempt
    /// starts from the task's initial state). The returned report is the
    /// final attempt's, with [`TaskReport::attempts`] set to the total
    /// attempt count across both isolation modes.
    ///
    /// Between attempts the runtime executes the failed attempt's
    /// suggested rollback plan; if that rollback itself fails (counter
    /// `core.task.retry_rollback_failed`), retrying stops immediately and
    /// the aborted report is surfaced for operator recovery — its plan
    /// still describes how to restore the pre-task state, because every
    /// *earlier* attempt was fully rolled back and rollback steps are
    /// idempotent.
    ///
    /// Under [`Isolation::Occ`] the task first runs optimistically:
    /// validation conflicts re-execute from a fresh snapshot up to
    /// `max_retries` times, then the task transparently falls back to
    /// 2PL (`core.occ.fallbacks`) — as it does immediately when the
    /// program calls an operation OCC cannot stage (`apply()`). Transient
    /// errors during an optimistic attempt retry under `retry` *without*
    /// rollback: nothing was published, so there is nothing to undo.
    pub(crate) fn execute_with_policy<F>(
        &self,
        name: &str,
        urgent: bool,
        cancel: CancelToken,
        retry: &RetryPolicy,
        isolation: Isolation,
        mut program: F,
    ) -> TaskReport
    where
        F: FnMut(&TaskCtx) -> TaskResult<()>,
    {
        let obs = self.obs_handles().clone();
        let mut total: u32 = 0;
        if let Isolation::Occ { max_retries } = isolation {
            let mut conflicts: u32 = 0;
            let mut transient_attempts: u32 = 1;
            loop {
                total += 1;
                let mut report =
                    self.execute_attempt(name, urgent, cancel.clone(), true, &mut program);
                report.attempts = total;
                if report.state != TaskState::Aborted {
                    return report;
                }
                match report.error {
                    Some(TaskError::OccConflict { .. }) => {
                        if cancel.is_cancelled() {
                            return report;
                        }
                        if conflicts < max_retries {
                            conflicts += 1;
                            continue;
                        }
                        obs.occ_fallbacks.inc();
                        break;
                    }
                    Some(TaskError::OccFallback(_)) => {
                        obs.occ_fallbacks.inc();
                        break;
                    }
                    Some(ref e) if e.is_transient() => {
                        if transient_attempts >= retry.max_attempts() || cancel.is_cancelled() {
                            return report;
                        }
                        obs.task_retries.inc();
                        let delay = retry.backoff(transient_attempts);
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                        transient_attempts += 1;
                    }
                    _ => return report,
                }
            }
        }
        let mut attempt: u32 = 1;
        loop {
            total += 1;
            let mut report =
                self.execute_attempt(name, urgent, cancel.clone(), false, &mut program);
            report.attempts = total;
            if report.state != TaskState::Aborted {
                return report;
            }
            let transient = report.error.as_ref().is_some_and(TaskError::is_transient);
            if !transient || attempt >= retry.max_attempts() || cancel.is_cancelled() {
                return report;
            }
            if !report.log.is_empty()
                && crate::recovery::execute_rollback(&report, self.db(), self.service().as_ref())
                    .is_err()
            {
                obs.retry_rollback_failed.inc();
                return report;
            }
            obs.task_retries.inc();
            let delay = retry.backoff(attempt);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            attempt += 1;
        }
    }

    /// Wakes every task blocked in lock acquisition so it re-checks its
    /// cancellation token. Call after [`CancelToken::cancel`] when the
    /// cancelled task may be waiting for a lock; otherwise it observes the
    /// flag at its next grant or operation.
    pub fn wake_lock_waiters(&self) {
        self.inner.locks.cv.notify_all();
    }

    /// Acquires locks on every node covering `pattern` for `task`,
    /// blocking until granted. Returns the covering node ids.
    ///
    /// Deadlocks are detected while blocked; the youngest task on a cycle
    /// is aborted (it returns [`TaskError::Deadlock`]) and the survivors
    /// proceed — the paper's §5 handling.
    pub(crate) fn acquire(
        &self,
        ctx: &TaskCtx,
        pattern: &occam_regex::Pattern,
        mode: occam_objtree::LockMode,
    ) -> TaskResult<Vec<ObjectId>> {
        ctx.check_cancelled()?;
        let task = ctx.task_id();
        let obs = self.obs_handles();
        let requested = Instant::now();
        let lt = self.locks();
        let mut st = lt.state.lock();
        let covering = st.tree.insert_region(pattern);
        // Record refs immediately so teardown releases them on any path.
        ctx.record_covering(&covering);
        if covering.is_empty() {
            return Ok(covering);
        }
        obs.events.record(EventKind::LockRequested {
            task: task.0,
            objects: covering.len() as u64,
            exclusive: mode == occam_objtree::LockMode::Exclusive,
        });
        let arrival = self.next_arrival();
        for &obj in &covering {
            st.tree.request_lock(task, obj, mode, arrival, ctx.urgent());
        }
        {
            let state = &mut *st;
            let _ = state.sched.sched(&mut state.tree);
        }
        lt.cv.notify_all();
        loop {
            if st.aborted.remove(&task) {
                // A breaker released our locks already.
                obs.deadlocks.inc();
                return Err(TaskError::Deadlock);
            }
            if ctx.cancel_token().is_cancelled() {
                // Cancellation checkpoint while blocked: bail out; the
                // task teardown releases whatever was requested/held.
                return Err(TaskError::Cancelled);
            }
            let all_held = covering
                .iter()
                .all(|&obj| st.tree.holders_of(obj).iter().any(|&(t, _)| t == task));
            if all_held {
                let wait_ns = u64::try_from(requested.elapsed().as_nanos()).unwrap_or(u64::MAX);
                obs.lock_acquires.inc();
                obs.lock_wait_ns.record(wait_ns);
                obs.events.record(EventKind::LockGranted {
                    task: task.0,
                    objects: covering.len() as u64,
                    wait_ns,
                });
                return Ok(covering);
            }
            if let Some(cycle) = st.tree.find_deadlock_cycle() {
                // Abort the youngest cycle member (largest id).
                let victim = *cycle.iter().max().expect("cycle non-empty");
                {
                    let state = &mut *st;
                    state.tree.release_task(victim);
                    let _ = state.sched.sched(&mut state.tree);
                }
                if victim == task {
                    lt.cv.notify_all();
                    obs.deadlocks.inc();
                    return Err(TaskError::Deadlock);
                }
                st.aborted.insert(victim);
                lt.cv.notify_all();
                continue;
            }
            lt.cv.wait(&mut st);
        }
    }

    /// Releases everything `ctx`'s task holds: its locks (strict 2PL: all
    /// at once) and its object references, then reschedules waiters.
    fn teardown(&self, ctx: &TaskCtx) {
        let lt = self.locks();
        let mut st = lt.state.lock();
        st.tree.release_task(ctx.task_id());
        let covering = ctx.take_covering();
        if !covering.is_empty() {
            self.obs_handles().events.record(EventKind::LockReleased {
                task: ctx.task_id().0,
                objects: covering.len() as u64,
            });
        }
        for obj in covering {
            st.tree.release_ref(obj);
        }
        st.aborted.remove(&ctx.task_id());
        {
            let state = &mut *st;
            let _ = state.sched.sched(&mut state.tree);
        }
        lt.cv.notify_all();
    }
}

/// Renders a `catch_unwind` payload as a one-line message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occam_netdb::attrs;

    fn runtime() -> Runtime {
        crate::test_support::tiny_runtime()
    }

    #[test]
    fn completed_task_releases_everything() {
        let rt = runtime();
        let report = rt.task("noop").run(|ctx| {
            let net = ctx.network("dc01.pod00.*")?;
            let _ = net.get(attrs::DEVICE_STATUS)?;
            Ok(())
        });
        assert_eq!(report.state, TaskState::Completed);
        assert_eq!(rt.active_objects(), 0, "tree drains after commit");
    }

    #[test]
    fn failing_task_reports_abort_with_plan() {
        let rt = runtime();
        let report = rt.task("fails").run(|ctx| {
            let net = ctx.network("dc01.pod00.*")?;
            net.set(attrs::DEVICE_STATUS, attrs::STATUS_UNDER_MAINTENANCE.into())?;
            Err(TaskError::Failed("manual step failed".into()))
        });
        assert_eq!(report.state, TaskState::Aborted);
        assert!(report.error.is_some());
        let plan = report.rollback.as_ref().expect("plan suggested");
        assert_eq!(plan.arrow_notation(), "r(DB_CHANGE)");
        assert_eq!(rt.active_objects(), 0);
    }

    #[test]
    fn conflicting_tasks_serialize() {
        let rt = runtime();
        let marker = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let m1 = Arc::clone(&marker);
        let rt1 = rt.clone();
        let h1 = rt1.task("writer1").spawn(move |ctx| {
            let net = ctx.network("dc01.pod00.*")?;
            net.set("X", 1i64.into())?;
            std::thread::sleep(std::time::Duration::from_millis(120));
            // The other writer must not have run inside our critical
            // section.
            assert_eq!(m1.load(Ordering::SeqCst), 0);
            Ok(())
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let m2 = Arc::clone(&marker);
        let report2 = rt.task("writer2").run(move |ctx| {
            let net = ctx.network("dc01.pod00.*")?;
            net.set("X", 2i64.into())?;
            m2.store(1, Ordering::SeqCst);
            Ok(())
        });
        let report1 = h1.join().unwrap();
        assert_eq!(report1.state, TaskState::Completed);
        assert_eq!(report2.state, TaskState::Completed);
    }

    #[test]
    fn deadlock_victim_aborts_and_survivor_completes() {
        let rt = runtime();
        let rt1 = rt.clone();
        let h1 = rt1.task("t1").spawn(move |ctx| {
            let _a = ctx.network("dc01.pod00.*")?;
            std::thread::sleep(std::time::Duration::from_millis(80));
            let _b = ctx.network("dc01.pod01.*")?;
            Ok(())
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let report2 = rt.task("t2").run(|ctx| {
            let _b = ctx.network("dc01.pod01.*")?;
            std::thread::sleep(std::time::Duration::from_millis(80));
            let _a = ctx.network("dc01.pod00.*")?;
            Ok(())
        });
        let report1 = h1.join().unwrap();
        let states = [report1.state, report2.state];
        assert!(
            states.contains(&TaskState::Completed),
            "one task survives: {states:?}"
        );
        let aborted = [&report1, &report2]
            .iter()
            .filter(|r| r.state == TaskState::Aborted)
            .count();
        assert_eq!(aborted, 1, "exactly one deadlock victim");
        assert_eq!(rt.active_objects(), 0);
    }

    #[test]
    fn urgent_task_preempts_queue() {
        // One long holder; a normal and an urgent task queue behind it.
        let rt = runtime();
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let rt1 = rt.clone();
        let h1 = rt1.task("holder").spawn(move |ctx| {
            let _a = ctx.network("dc01.pod00.*")?;
            std::thread::sleep(std::time::Duration::from_millis(150));
            Ok(())
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let o2 = Arc::clone(&order);
        let rt2 = rt.clone();
        let h2 = rt2.task("normal").spawn(move |ctx| {
            let _a = ctx.network("dc01.pod00.*")?;
            o2.lock().push("normal");
            Ok(())
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let o3 = Arc::clone(&order);
        let rt3 = rt.clone();
        let h3 = rt3.task("urgent").urgent().spawn(move |ctx| {
            let _a = ctx.network("dc01.pod00.*")?;
            o3.lock().push("urgent");
            Ok(())
        });
        h1.join().unwrap();
        h2.join().unwrap();
        h3.join().unwrap();
        let order = order.lock();
        assert_eq!(
            order.first(),
            Some(&"urgent"),
            "urgent task ran first: {order:?}"
        );
    }
}
