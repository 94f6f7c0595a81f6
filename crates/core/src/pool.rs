//! The runtime's one bounded executor: a fixed worker pool, one queue
//! with an urgent fast lane, admission against that queue, and the
//! lifecycle record of every job it accepts.
//!
//! [`TaskBuilder::spawn`](crate::TaskBuilder::spawn) takes one unbounded
//! OS thread per task, which is fine for tests but not for a shared
//! management-plane service where many operators submit long-running
//! workflows concurrently. The pool runs tasks on at most `pool_size`
//! lazily-spawned worker threads; excess submissions wait in a FIFO
//! queue (urgent submissions in a fast lane polled first, matching the
//! scheduler's urgent lock priority).
//!
//! There is one way in, [`Runtime::enqueue_pooled`], with two callers.
//! [`TaskBuilder::spawn_pooled`](crate::TaskBuilder::spawn_pooled)
//! passes no bound and is never refused. A service front end (the
//! `occam-gateway` engine) passes its queue cap: under the pool lock the
//! enqueue admits the longest prefix of the batch that fits against the
//! queue's own length, or nothing once [`Runtime::close_pool`] has been
//! called, and says which in its [`Admission`] — so "full" and "closed"
//! are decided where the queue lives, in the critical section that
//! admits.
//!
//! Every admitted job gets a [`PooledHandle`]: the one record of its
//! lifecycle (`Queued → Running → Done(report)`, advanced by the worker
//! that runs it) and the owner of its [`CancelToken`].
//!
//! Worker threads hold only the shared pool state, never the runtime
//! (each job closure captures its own `Runtime` clone), so dropping the
//! last external `Runtime` handle shuts the workers down.

use crate::runtime::Runtime;
use crate::task::{CancelToken, TaskReport};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// One unit of work for [`Runtime::enqueue_pooled`].
pub struct PoolJob {
    /// Urgent jobs take the fast lane (dequeued before ordinary ones).
    pub urgent: bool,
    /// The token `run` executes its task under; [`PooledHandle::cancel`]
    /// sets it.
    pub cancel: CancelToken,
    /// Runs exactly one task to its final report, on a pool worker.
    pub run: Box<dyn FnOnce() -> TaskReport + Send + 'static>,
}

/// What one [`Runtime::enqueue_pooled`] call admitted.
pub struct Admission {
    /// One handle per admitted job, in submission order: the longest
    /// prefix of the batch that fit. The rest of the batch was dropped
    /// without running.
    pub handles: Vec<PooledHandle>,
    /// Queue length right after the admission.
    pub queued: usize,
    /// The bounded door was closed ([`Runtime::close_pool`]); nothing
    /// was admitted.
    pub closed: bool,
}

struct Queued {
    urgent: bool,
    handle: PooledHandle,
    run: Box<dyn FnOnce() -> TaskReport + Send + 'static>,
}

/// Shared state between a runtime and its pool workers.
pub(crate) struct PoolShared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

struct PoolState {
    size: usize,
    normal: VecDeque<Queued>,
    urgent: VecDeque<Queued>,
    idle: usize,
    spawned: usize,
    active: usize,
    peak_active: usize,
    executed: u64,
    /// Bounded admission refused from now on ([`Runtime::close_pool`]).
    closed: bool,
    shutdown: bool,
}

impl PoolState {
    fn queued(&self) -> usize {
        self.normal.len() + self.urgent.len()
    }
}

impl PoolShared {
    fn with_size(size: usize) -> Arc<PoolShared> {
        Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                size: size.max(1),
                normal: VecDeque::new(),
                urgent: VecDeque::new(),
                idle: 0,
                spawned: 0,
                active: 0,
                peak_active: 0,
                executed: 0,
                closed: false,
                shutdown: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Tells every worker to exit once the queue is empty. Called from
    /// `Inner::drop`, i.e. when no external `Runtime` handle remains.
    pub(crate) fn shutdown_now(&self) {
        self.state.lock().shutdown = true;
        self.cv.notify_all();
    }

    /// Admits a prefix of `jobs` under one lock acquisition (see
    /// [`Runtime::enqueue_pooled`]). The submission hot path (the gateway
    /// reactor decodes every frame a readability event delivers and
    /// admits them together) would otherwise cross the pool mutex once
    /// per task; batching makes the admission cost per event O(1) lock
    /// crossings plus O(batch) pushes.
    fn enqueue(self: &Arc<Self>, bound: Option<usize>, mut jobs: Vec<Queued>) -> Admission {
        let mut st = self.state.lock();
        let (room, closed) = match bound {
            None => (usize::MAX, false),
            Some(_) if st.closed => (0, true),
            Some(cap) => (cap.saturating_sub(st.queued()), false),
        };
        let shed = jobs.split_off(room.min(jobs.len()));
        let mut handles = Vec::with_capacity(jobs.len());
        for job in jobs {
            handles.push(job.handle.clone());
            if job.urgent {
                st.urgent.push_back(job);
            } else {
                st.normal.push_back(job);
            }
        }
        // Spawn enough workers to absorb the backlog the idle ones
        // cannot. Gating on `idle == 0` alone would let a single idle
        // worker mask a whole burst: every enqueue in the burst would
        // see `idle == 1` and notify the same worker, serializing N
        // jobs on one thread despite spare pool capacity.
        let queued = st.queued();
        let spawn = queued
            .saturating_sub(st.idle)
            .min(st.size.saturating_sub(st.spawned));
        st.spawned += spawn;
        drop(st);
        drop(shed);
        for _ in 0..spawn {
            let shared = Arc::clone(self);
            std::thread::Builder::new()
                .name("occam-pool-worker".into())
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
        }
        if !handles.is_empty() {
            self.cv.notify_all();
        }
        Admission {
            handles,
            queued,
            closed,
        }
    }

    fn stats(&self) -> PoolStats {
        let st = self.state.lock();
        PoolStats {
            size: st.size,
            spawned: st.spawned,
            active: st.active,
            peak_active: st.peak_active,
            queued: st.queued(),
            executed: st.executed,
        }
    }

    fn drain(&self) {
        let mut st = self.state.lock();
        while st.active > 0 || st.queued() > 0 {
            self.cv.wait(&mut st);
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let Queued { handle, run, .. } = {
            let mut st = shared.state.lock();
            loop {
                if let Some(j) = st.urgent.pop_front().or_else(|| st.normal.pop_front()) {
                    st.active += 1;
                    st.peak_active = st.peak_active.max(st.active);
                    break j;
                }
                if st.shutdown {
                    return;
                }
                st.idle += 1;
                shared.cv.wait(&mut st);
                st.idle -= 1;
            }
        };
        handle.set(JobState::Running);
        // Panics inside the job would silently kill this worker and wedge
        // `drain`; `execute_attempt` already contains program panics, so
        // this only guards bookkeeping bugs in submission wrappers.
        if let Ok(report) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            handle.set(JobState::Done(Box::new(report)));
        }
        {
            let mut st = shared.state.lock();
            st.active -= 1;
            st.executed += 1;
        }
        // Wake `drain` waiters.
        shared.cv.notify_all();
    }
}

/// A point-in-time snapshot of the worker pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Maximum worker threads the pool will ever spawn.
    pub size: usize,
    /// Worker threads spawned so far (lazily, never exceeds `size`).
    pub spawned: usize,
    /// Jobs currently executing.
    pub active: usize,
    /// High-water mark of concurrently-executing jobs.
    pub peak_active: usize,
    /// Jobs admitted but not yet started.
    pub queued: usize,
    /// Jobs finished (completed, aborted, or cancelled).
    pub executed: u64,
}

/// Where a pooled job is in its life. Only the worker that runs the job
/// advances it, and only forwards.
#[derive(Clone, Debug)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker has taken the job off the queue.
    Running,
    /// The task reached a terminal state; this is its final report.
    Done(Box<TaskReport>),
}

struct HandleShared {
    state: Mutex<JobState>,
    cv: Condvar,
    cancel: CancelToken,
    /// The runtime's lock-table condvar, for waking a cancelled task
    /// that is blocked in lock acquisition.
    lock_waiters: Arc<Condvar>,
}

/// The lifecycle record of one job admitted by
/// [`Runtime::enqueue_pooled`] (and so of every
/// [`TaskBuilder::spawn_pooled`](crate::TaskBuilder::spawn_pooled) task).
///
/// Unlike a `JoinHandle`, waiting never propagates panics — the runtime
/// converts program panics into failed reports.
#[derive(Clone)]
pub struct PooledHandle {
    shared: Arc<HandleShared>,
}

impl PooledHandle {
    fn set(&self, state: JobState) {
        *self.shared.state.lock() = state;
        self.shared.cv.notify_all();
    }

    /// Reads the job's current state in place (a finished job's report
    /// is not cloned).
    pub fn with_state<R>(&self, f: impl FnOnce(&JobState) -> R) -> R {
        f(&self.shared.state.lock())
    }

    /// Blocks until the task reaches a terminal state; returns its report.
    pub fn wait(&self) -> TaskReport {
        let mut g = self.shared.state.lock();
        loop {
            if let JobState::Done(r) = &*g {
                return r.as_ref().clone();
            }
            self.shared.cv.wait(&mut g);
        }
    }

    /// The report, if the task has already finished (non-blocking).
    pub fn try_report(&self) -> Option<TaskReport> {
        self.with_state(|s| match s {
            JobState::Done(r) => Some(r.as_ref().clone()),
            _ => None,
        })
    }

    /// Requests cooperative cancellation: sets the task's token and wakes
    /// blocked lock waiters so a task waiting for a region observes it.
    /// A job still queued never runs its program and ends with a
    /// [`TaskError::Cancelled`](crate::TaskError::Cancelled) report; a
    /// running one aborts at its next checkpoint. Returns `false`, and
    /// does nothing, if the job has already finished.
    pub fn cancel(&self) -> bool {
        if self.with_state(|s| matches!(s, JobState::Done(_))) {
            return false;
        }
        self.shared.cancel.cancel();
        self.shared.lock_waiters.notify_all();
        true
    }
}

impl Runtime {
    fn pool_shared(&self) -> Arc<PoolShared> {
        let mut slot = self.pool_slot().lock();
        slot.get_or_insert_with(|| {
            let size = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4);
            PoolShared::with_size(size)
        })
        .clone()
    }

    /// Sets the worker-pool size before the pool starts. Returns `false`
    /// (and changes nothing) if the pool already exists — size is fixed
    /// for the lifetime of the runtime. Defaults to the machine's
    /// available parallelism when never configured.
    pub fn configure_pool(&self, size: usize) -> bool {
        let mut slot = self.pool_slot().lock();
        if slot.is_some() {
            return false;
        }
        *slot = Some(PoolShared::with_size(size));
        true
    }

    /// The one way onto the worker pool. Crosses the pool lock once for
    /// the whole batch; jobs keep their relative order within each
    /// urgency lane.
    ///
    /// With `bound: None` every job is admitted. With `Some(cap)` the
    /// longest prefix of `jobs` that keeps the queue (both lanes, jobs
    /// already running not counted) at or under `cap` is admitted and the
    /// rest are dropped unrun — or the whole batch is, once
    /// [`Runtime::close_pool`] has been called. The [`Admission`] says
    /// which.
    pub fn enqueue_pooled(&self, bound: Option<usize>, jobs: Vec<PoolJob>) -> Admission {
        let lock_waiters = self.lock_waiters();
        let jobs = jobs
            .into_iter()
            .map(|job| {
                let handle = PooledHandle {
                    shared: Arc::new(HandleShared {
                        state: Mutex::new(JobState::Queued),
                        cv: Condvar::new(),
                        cancel: job.cancel,
                        lock_waiters: Arc::clone(&lock_waiters),
                    }),
                };
                Queued {
                    urgent: job.urgent,
                    handle,
                    run: job.run,
                }
            })
            .collect();
        self.pool_shared().enqueue(bound, jobs)
    }

    /// Closes the bounded door for good: every later
    /// [`Runtime::enqueue_pooled`] with a bound admits nothing and
    /// reports `closed`. Decided under the pool lock, so a batch is
    /// either in the queue before a following [`Runtime::drain_pool`]
    /// looks at it, or refused.
    pub fn close_pool(&self) {
        self.pool_shared().state.lock().closed = true;
    }

    /// A snapshot of the worker pool (all zeros if it never started).
    pub fn pool_stats(&self) -> PoolStats {
        let slot = self.pool_slot().lock();
        slot.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Blocks until the worker pool is quiescent: no queued and no active
    /// jobs, and so every admitted job's handle is `Done`. Used for
    /// graceful drain-then-shutdown. New submissions during the wait
    /// extend it; close the door first.
    pub fn drain_pool(&self) {
        let pool = {
            let slot = self.pool_slot().lock();
            slot.clone()
        };
        if let Some(pool) = pool {
            pool.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{CancelToken, TaskState};
    use crate::TaskError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A latch jobs park on until the test opens it.
    #[derive(Clone, Default)]
    struct Gate(Arc<(Mutex<bool>, Condvar)>);

    impl Gate {
        fn wait(&self) {
            let (l, c) = &*self.0;
            let mut open = l.lock();
            while !*open {
                c.wait(&mut open);
            }
        }

        fn open(&self) {
            let (l, c) = &*self.0;
            *l.lock() = true;
            c.notify_all();
        }
    }

    /// A one-worker runtime whose worker is parked on the returned gate,
    /// so everything enqueued next stays queued until the gate opens.
    fn parked_runtime() -> (Runtime, Gate, PooledHandle) {
        let rt = crate::test_support::tiny_runtime();
        assert!(rt.configure_pool(1));
        let gate = Gate::default();
        let g = gate.clone();
        let blocker = rt.task("blocker").spawn_pooled(move |_| {
            g.wait();
            Ok(())
        });
        while rt.pool_stats().active == 0 {
            std::thread::yield_now();
        }
        (rt, gate, blocker)
    }

    #[test]
    fn pooled_submissions_complete_and_bound_threads() {
        // The satellite regression: many queued submissions must never
        // create more than `pool_size` runner threads.
        let rt = crate::test_support::tiny_runtime();
        assert!(rt.configure_pool(4));
        assert!(!rt.configure_pool(8), "size is fixed once created");
        let ran = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..10_000u32 {
            let ran = Arc::clone(&ran);
            handles.push(rt.task(format!("t{i}")).spawn_pooled(move |_| {
                ran.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }));
        }
        for h in &handles {
            assert_eq!(h.wait().state, TaskState::Completed);
        }
        assert_eq!(ran.load(Ordering::Relaxed), 10_000);
        // `executed` increments after the handle fills; drain first so the
        // bookkeeping for the last job has landed.
        rt.drain_pool();
        let stats = rt.pool_stats();
        assert_eq!(stats.size, 4);
        assert!(stats.spawned <= 4, "spawned {} workers", stats.spawned);
        assert!(stats.peak_active <= 4, "peak {}", stats.peak_active);
        assert_eq!(stats.executed, 10_000);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn burst_after_idle_ramps_to_full_pool() {
        let rt = crate::test_support::tiny_runtime();
        assert!(rt.configure_pool(4));
        // Run one job and let its worker go idle: the regression scenario
        // is a burst arriving while `idle == 1`.
        rt.task("warmup").spawn_pooled(|_| Ok(())).wait();
        rt.drain_pool();
        // Burst of pool-size jobs that rendezvous: each blocks until all
        // four execute concurrently (with a timeout so a regression fails
        // the assertion instead of hanging). Under the old `idle == 0`
        // spawn gate the lone idle worker absorbed the whole burst
        // serially and the rendezvous could never be reached.
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        let mut handles = Vec::new();
        for i in 0..4 {
            let g = Arc::clone(&gate);
            handles.push(rt.task(format!("burst{i}")).spawn_pooled(move |_| {
                let (l, c) = &*g;
                let mut n = l.lock();
                *n += 1;
                c.notify_all();
                while *n < 4 {
                    if c.wait_for(&mut n, std::time::Duration::from_secs(5))
                        .timed_out()
                    {
                        break;
                    }
                }
                Ok(())
            }));
        }
        for h in &handles {
            assert_eq!(h.wait().state, TaskState::Completed);
        }
        let stats = rt.pool_stats();
        assert!(
            stats.peak_active >= 4,
            "burst ran with peak concurrency {} despite pool capacity 4",
            stats.peak_active
        );
        assert!(stats.spawned <= 4, "spawned {} workers", stats.spawned);
    }

    #[test]
    fn urgent_jobs_take_the_fast_lane() {
        // The single worker is occupied, so the next two submissions queue.
        let (rt, gate, blocker) = parked_runtime();
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let o1 = Arc::clone(&order);
        let normal = rt.task("normal").spawn_pooled(move |_| {
            o1.lock().push("normal");
            Ok(())
        });
        let o2 = Arc::clone(&order);
        let urgent = rt.task("urgent").urgent().spawn_pooled(move |_| {
            o2.lock().push("urgent");
            Ok(())
        });
        gate.open();
        blocker.wait();
        normal.wait();
        urgent.wait();
        assert_eq!(*order.lock(), vec!["urgent", "normal"]);
    }

    #[test]
    fn cancelled_before_start_never_runs_program() {
        let rt = crate::test_support::tiny_runtime();
        assert!(rt.configure_pool(2));
        let token = CancelToken::new();
        token.cancel();
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ran);
        let h = rt
            .task("cancelled-early")
            .cancel_token(token)
            .spawn_pooled(move |_| {
                r2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
        let report = h.wait();
        assert_eq!(report.state, TaskState::Aborted);
        assert!(matches!(report.error, Some(TaskError::Cancelled)));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "program must not run");
        assert_eq!(rt.obs().counter_value("core.tasks.cancelled"), 1);
    }

    #[test]
    fn cancel_unblocks_task_waiting_for_lock() {
        let rt = crate::test_support::tiny_runtime();
        assert!(rt.configure_pool(2));
        let gate = Gate::default();
        let g = gate.clone();
        let locked = Arc::new(AtomicUsize::new(0));
        let l2 = Arc::clone(&locked);
        let holder = rt.task("holder").spawn_pooled(move |ctx| {
            let _net = ctx.network("dc01.pod00.*")?;
            l2.store(1, Ordering::SeqCst);
            g.wait();
            Ok(())
        });
        // Wait until the holder actually holds the region before submitting
        // the contender (otherwise the waiter can win the lock race and
        // complete instead of blocking).
        while locked.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // Second task blocks on the same region.
        let token = CancelToken::new();
        let waiter = rt
            .task("waiter")
            .cancel_token(token.clone())
            .spawn_pooled(|ctx| {
                let _net = ctx.network("dc01.pod00.*")?;
                Ok(())
            });
        // Let the waiter actually block, then cancel it through its handle
        // (which owns the builder's token and wakes lock waiters).
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert!(waiter.cancel());
        assert!(token.is_cancelled());
        let report = waiter.wait();
        assert_eq!(report.state, TaskState::Aborted);
        assert!(matches!(report.error, Some(TaskError::Cancelled)));
        // The holder is unaffected.
        gate.open();
        assert_eq!(holder.wait().state, TaskState::Completed);
        assert_eq!(rt.active_objects(), 0, "cancelled task released its refs");
    }

    #[test]
    fn worker_survives_panicking_program() {
        let rt = crate::test_support::tiny_runtime();
        assert!(rt.configure_pool(1));
        let bad = rt.task("bad").spawn_pooled(|_| panic!("boom in program"));
        let report = bad.wait();
        assert_eq!(report.state, TaskState::Aborted);
        match &report.error {
            Some(TaskError::Panicked(msg)) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(rt.obs().counter_value("core.task.panicked"), 1);
        // The same (single) worker runs the next job fine.
        let good = rt.task("good").spawn_pooled(|_| Ok(()));
        assert_eq!(good.wait().state, TaskState::Completed);
        assert!(rt.pool_stats().spawned <= 1);
    }

    /// A job that runs one no-op task and bumps `ran` from inside it.
    fn counting_job(rt: &Runtime, ran: &Arc<AtomicUsize>) -> PoolJob {
        let (rt, ran) = (rt.clone(), Arc::clone(ran));
        let cancel = CancelToken::new();
        PoolJob {
            urgent: false,
            cancel: cancel.clone(),
            run: Box::new(move || {
                rt.task("counted").cancel_token(cancel).run(|_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
            }),
        }
    }

    #[test]
    fn bounded_enqueue_admits_a_prefix_and_reports_the_count() {
        let (rt, gate, blocker) = parked_runtime();
        let ran = Arc::new(AtomicUsize::new(0));
        let batch = |n: usize| (0..n).map(|_| counting_job(&rt, &ran)).collect::<Vec<_>>();
        // The running blocker is not in the queue: a cap of 2 has room
        // for two of four.
        let first = rt.enqueue_pooled(Some(2), batch(4));
        assert_eq!(
            (first.handles.len(), first.queued, first.closed),
            (2, 2, false)
        );
        assert_eq!(rt.pool_stats().queued, 2);
        // Full: the bounded door admits nothing, the unbounded one does.
        let full = rt.enqueue_pooled(Some(2), batch(3));
        assert_eq!(
            (full.handles.len(), full.queued, full.closed),
            (0, 2, false)
        );
        let unbounded = rt.enqueue_pooled(None, batch(1));
        assert_eq!((unbounded.handles.len(), unbounded.queued), (1, 3));
        // Closed: refused even with room to spare; `spawn_pooled` is not.
        rt.close_pool();
        let refused = rt.enqueue_pooled(Some(64), batch(2));
        assert!(refused.closed && refused.handles.is_empty());
        let late = rt.task("late").spawn_pooled(|_| Ok(()));
        gate.open();
        rt.drain_pool();
        assert_eq!(blocker.wait().state, TaskState::Completed);
        assert_eq!(late.wait().state, TaskState::Completed);
        // Exactly the admitted jobs ran; the shed ones were dropped.
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        for h in first.handles.iter().chain(&unbounded.handles) {
            assert!(h.with_state(|s| matches!(s, JobState::Done(_))));
        }
    }

    #[test]
    fn handle_is_queued_then_running_then_done() {
        let (rt, gate, _blocker) = parked_runtime();
        let inner = Gate::default();
        let g = inner.clone();
        let h = rt.task("observed").spawn_pooled(move |_| {
            g.wait();
            Ok(())
        });
        assert!(h.with_state(|s| matches!(s, JobState::Queued)));
        assert!(h.try_report().is_none());
        gate.open();
        // The worker marks the job Running when it pops it; the program
        // then parks on `inner`, so Running is observable, not a blink.
        while h.with_state(|s| matches!(s, JobState::Queued)) {
            std::thread::yield_now();
        }
        assert!(h.with_state(|s| matches!(s, JobState::Running)));
        inner.open();
        assert_eq!(h.wait().state, TaskState::Completed);
        assert!(h.with_state(|s| matches!(s, JobState::Done(_))));
    }

    #[test]
    fn cancel_on_a_queued_handle_never_runs_the_program() {
        let (rt, gate, _blocker) = parked_runtime();
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ran);
        let h = rt.task("cancelled-in-queue").spawn_pooled(move |_| {
            r2.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        assert!(h.cancel(), "a queued job is still live");
        gate.open();
        let report = h.wait();
        assert_eq!(report.state, TaskState::Aborted);
        assert!(matches!(report.error, Some(TaskError::Cancelled)));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "program must not run");
        assert!(!h.cancel(), "a finished job is not cancellable");
    }
}
