//! The runtime's bounded worker pool: the service-grade replacement for
//! spawn-per-task submission.
//!
//! [`TaskBuilder::spawn`](crate::TaskBuilder::spawn) takes one unbounded
//! OS thread per task, which is fine for tests but not for a shared
//! management-plane service where many operators submit long-running
//! workflows concurrently. The pool runs
//! tasks on at most `pool_size` lazily-spawned worker threads; excess
//! submissions wait in a FIFO queue (urgent submissions in a fast lane
//! polled first, matching the scheduler's urgent lock priority).
//!
//! The pool deliberately does **not** reject work — admission control
//! (bounding the queue and answering `Busy`) belongs to the layer in
//! front of the runtime (see the `occam-gateway` crate), which watches
//! [`PoolStats::queued`] and applies its own cap.
//!
//! Worker threads hold only the shared pool state, never the runtime
//! (each job closure captures its own `Runtime` clone), so dropping the
//! last external `Runtime` handle shuts the workers down.

use crate::runtime::Runtime;
use crate::task::TaskReport;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A boxed pool job as accepted by [`Runtime::spawn_pooled_batch`]: the
/// closure receives the runtime exactly like [`Runtime::spawn_pooled`]'s
/// generic parameter, but boxed so heterogeneous batches can share one
/// `Vec`.
pub type PooledJob = Box<dyn FnOnce(&Runtime) + Send + 'static>;

/// Shared state between a runtime and its pool workers.
pub(crate) struct PoolShared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

struct PoolState {
    size: usize,
    normal: VecDeque<Job>,
    urgent: VecDeque<Job>,
    idle: usize,
    spawned: usize,
    active: usize,
    peak_active: usize,
    executed: u64,
    shutdown: bool,
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

    /// Enqueues a batch of jobs under one lock acquisition. The
    /// submission hot path (the gateway reactor decodes every frame a
    /// readability event delivers and admits them together) would
    /// otherwise cross the pool mutex once per task; batching makes the
    /// admission cost per event O(1) lock crossings plus O(batch) pushes.
    fn enqueue_batch(self: &Arc<Self>, jobs: Vec<(bool, Job)>) {
        if jobs.is_empty() {
            return;
        }
        let spawn = {
            let mut st = self.state.lock();
            if st.shutdown {
                // Only reachable if jobs are enqueued while the last
                // runtime handle is dropping; run them inline for
                // correctness rather than losing them.
                drop(st);
                for (_, job) in jobs {
                    job();
                }
                return;
            }
            for (urgent, job) in jobs {
                if urgent {
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
            let backlog = st.normal.len() + st.urgent.len();
            let want = backlog
                .saturating_sub(st.idle)
                .min(st.size.saturating_sub(st.spawned));
            st.spawned += want;
            want
        };
        for _ in 0..spawn {
            let shared = Arc::clone(self);
            std::thread::Builder::new()
                .name("occam-pool-worker".into())
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
        }
        self.cv.notify_all();
    }

    fn stats(&self) -> PoolStats {
        let st = self.state.lock();
        PoolStats {
            size: st.size,
            spawned: st.spawned,
            active: st.active,
            peak_active: st.peak_active,
            queued: st.normal.len() + st.urgent.len(),
            executed: st.executed,
        }
    }

    fn drain(&self) {
        let mut st = self.state.lock();
        while st.active > 0 || !st.normal.is_empty() || !st.urgent.is_empty() {
            self.cv.wait(&mut st);
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
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
        // Panics inside the job would silently kill this worker and wedge
        // `drain`; `execute_attempt` already contains program panics, so
        // this only guards bookkeeping bugs in submission wrappers.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        {
            let mut st = shared.state.lock();
            st.active -= 1;
            st.executed += 1;
        }
        // Wake queued-job pollers and `drain` waiters.
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

#[derive(Default)]
struct HandleShared {
    slot: Mutex<Option<TaskReport>>,
    cv: Condvar,
}

/// A handle to a task submitted through
/// [`TaskBuilder::spawn_pooled`](crate::TaskBuilder::spawn_pooled).
///
/// Unlike a `JoinHandle`, waiting never propagates panics — the runtime
/// converts program panics into failed reports.
#[derive(Clone)]
pub struct PooledHandle {
    shared: Arc<HandleShared>,
}

impl PooledHandle {
    pub(crate) fn new() -> PooledHandle {
        PooledHandle {
            shared: Arc::new(HandleShared::default()),
        }
    }

    pub(crate) fn fill(&self, report: TaskReport) {
        *self.shared.slot.lock() = Some(report);
        self.shared.cv.notify_all();
    }

    /// Blocks until the task reaches a terminal state; returns its report.
    pub fn wait(&self) -> TaskReport {
        let mut g = self.shared.slot.lock();
        loop {
            if let Some(r) = g.as_ref() {
                return r.clone();
            }
            self.shared.cv.wait(&mut g);
        }
    }

    /// The report, if the task has already finished (non-blocking).
    pub fn try_report(&self) -> Option<TaskReport> {
        self.shared.slot.lock().clone()
    }

    /// Whether the task has reached a terminal state.
    pub fn is_done(&self) -> bool {
        self.shared.slot.lock().is_some()
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

    /// Runs `job` on the worker pool. `urgent` jobs take the fast lane
    /// (dequeued before ordinary ones). The job receives the runtime and
    /// is expected to run exactly one task; this is the primitive under
    /// [`TaskBuilder::spawn_pooled`](crate::TaskBuilder::spawn_pooled),
    /// exposed for frontends (the gateway)
    /// that need their own bookkeeping around task execution.
    pub fn spawn_pooled<F>(&self, urgent: bool, job: F)
    where
        F: FnOnce(&Runtime) + Send + 'static,
    {
        let rt = self.clone();
        self.pool_shared()
            .enqueue_batch(vec![(urgent, Box::new(move || job(&rt)))]);
    }

    /// Runs a whole batch of jobs on the worker pool, crossing the pool
    /// lock once for the entire batch instead of once per job. Jobs keep
    /// their relative order within each urgency lane. This is the batch
    /// analogue of [`Runtime::spawn_pooled`], used by frontends that
    /// admit pipelined submissions (the gateway reactor decodes every
    /// complete frame a readiness event delivers and admits them as one
    /// batch).
    pub fn spawn_pooled_batch(&self, jobs: Vec<(bool, PooledJob)>) {
        let batch: Vec<(bool, Job)> = jobs
            .into_iter()
            .map(|(urgent, f)| {
                let rt = self.clone();
                (urgent, Box::new(move || f(&rt)) as Job)
            })
            .collect();
        self.pool_shared().enqueue_batch(batch);
    }

    /// A snapshot of the worker pool (all zeros if it never started).
    pub fn pool_stats(&self) -> PoolStats {
        let slot = self.pool_slot().lock();
        slot.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Blocks until the worker pool is quiescent: no queued and no active
    /// jobs. Used for graceful drain-then-shutdown. New submissions during
    /// the wait extend it; stop submitting first.
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
        let rt = crate::test_support::tiny_runtime();
        assert!(rt.configure_pool(1));
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        // Occupy the single worker so the next two submissions queue.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let blocker = rt.task("blocker").spawn_pooled(move |_| {
            let (l, c) = &*g;
            let mut open = l.lock();
            while !*open {
                c.wait(&mut open);
            }
            Ok(())
        });
        // Wait until the blocker actually occupies the worker.
        while rt.pool_stats().active == 0 {
            std::thread::yield_now();
        }
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
        {
            let (l, c) = &*gate;
            *l.lock() = true;
            c.notify_all();
        }
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
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let locked = Arc::new(AtomicUsize::new(0));
        let l2 = Arc::clone(&locked);
        let holder = rt.task("holder").spawn_pooled(move |ctx| {
            let _net = ctx.network("dc01.pod00.*")?;
            l2.store(1, Ordering::SeqCst);
            let (l, c) = &*g;
            let mut open = l.lock();
            while !*open {
                c.wait(&mut open);
            }
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
        // Let the waiter actually block, then cancel it.
        std::thread::sleep(std::time::Duration::from_millis(60));
        token.cancel();
        rt.wake_lock_waiters();
        let report = waiter.wait();
        assert_eq!(report.state, TaskState::Aborted);
        assert!(matches!(report.error, Some(TaskError::Cancelled)));
        // The holder is unaffected.
        {
            let (l, c) = &*gate;
            *l.lock() = true;
            c.notify_all();
        }
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
}
