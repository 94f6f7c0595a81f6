//! Task context, execution log, and reports.

use crate::error::TaskResult;
use crate::network::Network;
use crate::runtime::Runtime;
use crate::TaskError;
use occam_cert::Footprint;
use occam_netdb::{
    route_prefix, AttrValue, LinkKey, ShardRoute, StagedStore, StoreSnapshot, NUM_SHARDS,
};
use occam_objtree::{LockMode, ObjectId, TaskId};
use occam_regex::Pattern;
use occam_rollback::{parse_log, rollback_plan, LogEntry, RollbackPlan};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cooperative cancellation handle shared between a task and its
/// submitter.
///
/// Cancellation is *checkpoint-based*: setting the flag never interrupts a
/// running operation. The task observes it at its next checkpoint — lock
/// acquisition ([`TaskCtx::network`] and friends, including while blocked
/// waiting for a lock) or any stateful [`crate::Network`] operation — and
/// aborts with [`TaskError::Cancelled`], releasing all locks and producing
/// a normal rollback suggestion for any work already done.
///
/// If the cancelled task may be blocked on a lock, follow the `cancel()`
/// with [`crate::Runtime::wake_lock_waiters`] so it re-checks promptly.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, non-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Lifecycle state of a task (paper §4.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// Enqueued, not yet selected to run.
    Submitted,
    /// Running with some progress made.
    Active,
    /// Successfully finished; all changes committed.
    Completed,
    /// Hit a runtime failure; rollback suggested.
    Aborted,
}

/// Undo payload paired with one execution-log entry.
#[derive(Clone, PartialEq, Debug)]
pub enum UndoRecord {
    /// Old per-device values overwritten by a `set()` (None = attribute was
    /// absent).
    Db {
        /// Attribute written.
        attr: String,
        /// `(device, previous value)` pairs.
        old: Vec<(String, Option<AttrValue>)>,
    },
    /// Old per-link values overwritten by a `set_links()`.
    LinkDb {
        /// Attribute written.
        attr: String,
        /// `(link, previous value)` pairs.
        old: Vec<(LinkKey, Option<AttrValue>)>,
    },
    /// A device row was inserted by the task (undo: delete it).
    Inserted {
        /// Device name.
        name: String,
    },
    /// A device row was deleted by the task (undo: re-insert it with its
    /// attributes and links).
    Removed {
        /// Device name.
        name: String,
        /// The attributes the row had.
        attrs: Vec<(String, AttrValue)>,
        /// The links the device had: `(peer, link attributes)`.
        links: Vec<(String, Vec<(String, AttrValue)>)>,
    },
    /// No database payload (device functions).
    None,
}

/// The result of running one Occam task.
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// Task identifier.
    pub task_id: TaskId,
    /// Task name (for operators).
    pub name: String,
    /// Final lifecycle state.
    pub state: TaskState,
    /// The error that aborted the task, if any.
    pub error: Option<TaskError>,
    /// The typed execution log (rollback grammar input).
    pub log: Vec<LogEntry>,
    /// Undo payloads parallel to `log`.
    pub undo: Vec<UndoRecord>,
    /// Untyped operations outside the rollback grammar (informational).
    pub activity: Vec<String>,
    /// Offset from task start at which each log entry was recorded
    /// (parallel to `log`) — the paper's per-operation progress tracking.
    pub op_offsets: Vec<std::time::Duration>,
    /// Total wall time of the task.
    pub wall: std::time::Duration,
    /// Suggested rollback plan (aborted tasks with a parseable log).
    pub rollback: Option<RollbackPlan>,
    /// Present when the log failed to parse against the grammar.
    pub rollback_error: Option<String>,
    /// How many executions this report covers (1 unless a retry policy
    /// re-executed the task; see `TaskBuilder::retry`). The log, undo,
    /// and rollback fields always describe the *final* attempt.
    pub attempts: u32,
}

impl TaskReport {
    /// Operator-facing rollback step descriptions.
    pub fn rollback_steps(&self) -> Vec<String> {
        self.rollback
            .as_ref()
            .map(|p| p.describe(&self.log))
            .unwrap_or_default()
    }
}

/// Execution state of one optimistic ([`crate::Isolation::Occ`]) task
/// attempt: the staged fork, the shard-granular read set, and the
/// write rows pending certification.
pub(crate) struct OccState {
    pub(crate) staged: StagedStore,
    /// Shards whose contents any read may have depended on; validated
    /// (alongside the staged dirty shards) at [`occam_netdb::Database::occ_publish`].
    pub(crate) read_shards: BTreeSet<usize>,
    /// Commit count of the frozen base snapshot — the count every read
    /// in this attempt observes.
    pub(crate) base_commits: u64,
    /// Device rows written (staged) so far, recorded into the certifier
    /// footprint at the publish sequence once validation passes.
    pub(crate) pending_rows: Vec<String>,
    /// Scopes the staged writes cover. A write-bearing commit briefly
    /// acquires exclusive 2PL locks over these before validating, so an
    /// optimistic publish can never land inside a pessimistic task's
    /// critical section (Silo-style commit-time locking, DESIGN.md §16).
    pub(crate) write_patterns: Vec<Pattern>,
    /// Set when the program performed an operation that cannot be
    /// staged; the attempt must abort and re-execute under 2PL.
    pub(crate) needs_fallback: Option<String>,
}

impl OccState {
    pub(crate) fn new(base: StoreSnapshot) -> OccState {
        OccState {
            base_commits: base.commits(),
            staged: StagedStore::new(base),
            read_shards: BTreeSet::new(),
            pending_rows: Vec::new(),
            write_patterns: Vec::new(),
            needs_fallback: None,
        }
    }

    /// Tracks a scoped read: the shard its literal prefix routes to, or
    /// every shard when the scope cannot be pinned.
    pub(crate) fn track_pattern(&mut self, pattern: &Pattern) {
        match route_prefix(&pattern.literal_prefix()) {
            ShardRoute::One(i) => {
                self.read_shards.insert(i);
            }
            ShardRoute::All => {
                self.read_shards.extend(0..NUM_SHARDS);
            }
        }
    }
}

/// The per-task execution context handed to management programs.
///
/// All stateful interaction with the network goes through
/// [`TaskCtx::network`] / [`TaskCtx::network_read`]; everything else a
/// program does is stateless local computation (paper §3.2).
pub struct TaskCtx {
    runtime: Runtime,
    task_id: TaskId,
    name: String,
    urgent: bool,
    cancel: CancelToken,
    started: std::time::Instant,
    pub(crate) log: Mutex<Vec<LogEntry>>,
    pub(crate) undo: Mutex<Vec<UndoRecord>>,
    pub(crate) activity: Mutex<Vec<String>>,
    op_offsets: Mutex<Vec<std::time::Duration>>,
    covering: Mutex<Vec<ObjectId>>,
    /// Present iff this attempt executes optimistically.
    pub(crate) occ: Mutex<Option<OccState>>,
    /// Read/write footprint emitted to the serializability certifier
    /// when one is attached ([`Runtime::attach_certifier`]).
    footprint: Mutex<Footprint>,
    certified: AtomicBool,
}

impl TaskCtx {
    pub(crate) fn new(
        runtime: Runtime,
        task_id: TaskId,
        name: String,
        urgent: bool,
        cancel: CancelToken,
    ) -> TaskCtx {
        TaskCtx {
            runtime,
            task_id,
            name,
            urgent,
            cancel,
            started: std::time::Instant::now(),
            log: Mutex::new(Vec::new()),
            undo: Mutex::new(Vec::new()),
            activity: Mutex::new(Vec::new()),
            op_offsets: Mutex::new(Vec::new()),
            covering: Mutex::new(Vec::new()),
            occ: Mutex::new(None),
            footprint: Mutex::new(Footprint::new()),
            certified: AtomicBool::new(false),
        }
    }

    /// Switches this attempt to optimistic execution over `base`.
    pub(crate) fn enable_occ(&self, base: StoreSnapshot) {
        *self.occ.lock() = Some(OccState::new(base));
    }

    /// Whether this attempt is executing optimistically.
    pub(crate) fn occ_active(&self) -> bool {
        self.occ.lock().is_some()
    }

    /// Marks the task as certified: stateful operations record their
    /// read/write footprint for the serializability certifier.
    pub(crate) fn set_certified(&self) {
        self.certified.store(true, Ordering::Relaxed);
    }

    pub(crate) fn certified(&self) -> bool {
        self.certified.load(Ordering::Relaxed)
    }

    /// Records one scoped read observed at commit count `at`.
    pub(crate) fn record_read(&self, pattern: &Pattern, at: u64) {
        if self.certified() {
            self.footprint.lock().read(pattern.clone(), at);
        }
    }

    /// Records one device-row write visible at commit count `count`.
    pub(crate) fn record_write(&self, row: &str, count: u64) {
        if self.certified() {
            self.footprint.lock().write(row, count);
        }
    }

    pub(crate) fn take_footprint(&self) -> Footprint {
        std::mem::take(&mut *self.footprint.lock())
    }

    /// This task's id.
    pub fn task_id(&self) -> TaskId {
        self.task_id
    }

    /// This task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the task was submitted urgent.
    pub fn urgent(&self) -> bool {
        self.urgent
    }

    /// The cancellation token this task observes at checkpoints.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Checkpoint: returns [`TaskError::Cancelled`] if cancellation has
    /// been requested. Called automatically on lock acquisition and every
    /// stateful [`crate::Network`] operation; long stateless computations
    /// may call it explicitly.
    pub fn check_cancelled(&self) -> TaskResult<()> {
        if self.cancel.is_cancelled() {
            Err(TaskError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// The runtime this task runs under.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Locks `pattern` in `mode` — or, under optimistic execution, skips
    /// the lock tree entirely: conflicts are caught by commit-time
    /// validation instead of prevented by locks (that is the fast path).
    fn scope_object(&self, pattern: Pattern, mode: LockMode) -> TaskResult<Network<'_>> {
        if self.occ_active() {
            self.check_cancelled()?;
            return Ok(Network::new(self, pattern, mode));
        }
        self.runtime.acquire(self, &pattern, mode)?;
        Ok(Network::new(self, pattern, mode))
    }

    /// Creates a network object over `scope` (glob syntax, e.g.
    /// `dc01.pod03.*`) with write intent: `get`, `set`, and `apply` are all
    /// allowed, and the region is locked exclusively.
    ///
    /// Blocks until the lock is granted; may fail as a deadlock victim.
    /// Under [`crate::Isolation::Occ`] no locks are taken and the object
    /// reads from the attempt's frozen snapshot, staging its writes.
    pub fn network(&self, scope: &str) -> TaskResult<Network<'_>> {
        let pattern = self.runtime.pattern_cache().get_glob(scope)?;
        self.scope_object(pattern, LockMode::Exclusive)
    }

    /// Creates a read-only network object over `scope` (shared lock); only
    /// `get` operations are allowed.
    pub fn network_read(&self, scope: &str) -> TaskResult<Network<'_>> {
        let pattern = self.runtime.pattern_cache().get_glob(scope)?;
        self.scope_object(pattern, LockMode::Shared)
    }

    /// Creates a write-intent network object from a raw regex scope.
    pub fn network_regex(&self, regex: &str) -> TaskResult<Network<'_>> {
        let pattern = self.runtime.pattern_cache().get(regex)?;
        self.scope_object(pattern, LockMode::Exclusive)
    }

    /// Creates a write-intent network object scoped to exactly the given
    /// device names (the paper's `to_regex(dev_names)` helper).
    pub fn network_of_devices<S: AsRef<str>>(&self, names: &[S]) -> TaskResult<Network<'_>> {
        let pattern = occam_regex::Pattern::from_names(names)?;
        self.scope_object(pattern, LockMode::Exclusive)
    }

    pub(crate) fn record_covering(&self, ids: &[ObjectId]) {
        self.covering.lock().extend_from_slice(ids);
    }

    pub(crate) fn take_covering(&self) -> Vec<ObjectId> {
        std::mem::take(&mut *self.covering.lock())
    }

    pub(crate) fn push_log(&self, entry: LogEntry, undo: UndoRecord) {
        self.log.lock().push(entry);
        self.undo.lock().push(undo);
        self.op_offsets.lock().push(self.started.elapsed());
    }

    pub(crate) fn push_activity(&self, line: String) {
        self.activity.lock().push(line);
    }

    pub(crate) fn into_report(self, outcome: (TaskState, Option<TaskError>)) -> TaskReport {
        let (state, error) = outcome;
        let wall = self.started.elapsed();
        let log = self.log.into_inner();
        let undo = self.undo.into_inner();
        let activity = self.activity.into_inner();
        let op_offsets = self.op_offsets.into_inner();
        let (rollback, rollback_error) = if state == TaskState::Aborted {
            match parse_log(&log) {
                Ok(tree) => (Some(rollback_plan(&tree)), None),
                Err(e) => (None, Some(e.to_string())),
            }
        } else {
            (None, None)
        };
        if let Some(plan) = &rollback {
            let obs = self.runtime.obs_handles();
            obs.rollback_plans.inc();
            obs.events.record(occam_obs::EventKind::RollbackPlanned {
                task: self.task_id.0,
                steps: plan.steps.len() as u64,
            });
        }
        TaskReport {
            task_id: self.task_id,
            name: self.name,
            state,
            error,
            log,
            undo,
            activity,
            op_offsets,
            wall,
            rollback,
            rollback_error,
            attempts: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occam_rollback::OpType;

    #[test]
    fn report_generation_for_aborted_task() {
        let rt = crate::test_support::tiny_runtime();
        let ctx = TaskCtx::new(rt, TaskId(1), "t".into(), false, CancelToken::new());
        ctx.push_log(
            LogEntry::ok(OpType::DbChange, "set(X)"),
            UndoRecord::Db {
                attr: "X".into(),
                old: vec![("d".into(), None)],
            },
        );
        let report = ctx.into_report((TaskState::Aborted, Some(TaskError::Failed("x".into()))));
        assert_eq!(report.state, TaskState::Aborted);
        let plan = report.rollback.as_ref().unwrap();
        assert_eq!(plan.arrow_notation(), "r(DB_CHANGE)");
        assert_eq!(report.rollback_steps().len(), 1);
    }

    #[test]
    fn op_offsets_track_progress_monotonically() {
        let rt = crate::test_support::tiny_runtime();
        let report = rt.task("timed").run(|ctx| {
            let net = ctx.network("dc01.pod00.agg00")?;
            net.apply("f_drain")?;
            std::thread::sleep(std::time::Duration::from_millis(10));
            net.apply("f_undrain")?;
            Ok(())
        });
        assert_eq!(report.op_offsets.len(), report.log.len());
        assert!(report.op_offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(report.wall >= *report.op_offsets.last().unwrap());
        assert!(report.op_offsets[1] - report.op_offsets[0] >= std::time::Duration::from_millis(9));
    }

    #[test]
    fn completed_task_has_no_plan() {
        let rt = crate::test_support::tiny_runtime();
        let ctx = TaskCtx::new(rt, TaskId(2), "t".into(), false, CancelToken::new());
        let report = ctx.into_report((TaskState::Completed, None));
        assert!(report.rollback.is_none());
        assert!(report.error.is_none());
    }

    #[test]
    fn malformed_log_reports_grammar_error() {
        let rt = crate::test_support::tiny_runtime();
        let ctx = TaskCtx::new(rt, TaskId(3), "t".into(), false, CancelToken::new());
        // UNDRAIN without DRAIN: outside the grammar.
        ctx.push_log(
            LogEntry::ok(OpType::Undrain, "apply(f_undrain)"),
            UndoRecord::None,
        );
        let report = ctx.into_report((TaskState::Aborted, Some(TaskError::Failed("x".into()))));
        assert!(report.rollback.is_none());
        assert!(report.rollback_error.is_some());
    }
}
