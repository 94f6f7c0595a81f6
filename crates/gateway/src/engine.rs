//! The gateway execution engine: tickets and wire concerns in front of
//! the runtime's one bounded executor (`occam_core::pool`).
//!
//! The engine is the piece that turns the library runtime into a
//! *service*. A submission goes through:
//!
//! ```text
//!            submit
//!              │
//!   unknown ◄──┼──► bad scope          (rejected, typed error)
//!              │
//!      pool: closed ──► ShuttingDown
//!      pool: full   ──► Busy{retry_after_ms}   (backpressure)
//!              │
//!           Queued ──► Running ──► Completed | Aborted | Cancelled
//!                        ▲                (terminal, kept for STATUS)
//!                 cancel ┘ (cooperative, at task checkpoints)
//! ```
//!
//! The split: the engine validates (catalog lookup, scope glob), mints
//! tickets, keeps the ticket → handle tables and maps a final report to
//! its wire phase. The pool owns the job. It decides admission: at most
//! `queue_cap` jobs wait ahead of the `pool_size` workers, executor-wide,
//! and beyond that the client gets `Busy` with a retry hint instead of an
//! unbounded backlog — the management plane prefers shedding load to
//! queueing it invisibly. And the job's [`PooledHandle`] holds its
//! lifecycle and cancel token: STATUS and CANCEL read that handle; the
//! engine keeps no phase of its own.
//!
//! Job records are bounded too: terminal records are retained for STATUS
//! polling only up to `terminal_retain` entries per reactor shard, after
//! which the oldest are evicted (a STATUS on an evicted ticket answers
//! `Unknown`). A long-lived gateway therefore holds at most
//! `queue_cap + pool_size + shards × terminal_retain` records, not one
//! per lifetime submission.

use crate::catalog::{Catalog, WorkflowSpec};
use crate::proto::{ErrorCode, WirePhase};
use occam_core::{
    CancelToken, JobState, PoolJob, PooledHandle, Runtime, TaskError, TaskReport, TaskState,
};
use occam_obs::{Counter, Histogram, Registry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Low bits of a ticket that carry the reactor-shard index.
const SHARD_BITS: u32 = 4;

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker-pool size (concurrent task executions).
    pub pool_size: usize,
    /// Maximum admitted jobs waiting for a worker, across the whole
    /// executor (running jobs not counted).
    pub queue_cap: usize,
    /// Backoff hint returned in `Busy` responses, in milliseconds.
    pub retry_after_ms: u64,
    /// Maximum terminal job records kept for STATUS polling, per
    /// reactor shard. Oldest terminal records beyond this are evicted
    /// and answer `Unknown`; live (queued/running) records are never
    /// evicted. Keeps a long-lived gateway's memory bounded instead of
    /// growing with every submission ever accepted.
    pub terminal_retain: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            pool_size: 8,
            queue_cap: 64,
            retry_after_ms: 25,
            terminal_retain: 16_384,
        }
    }
}

/// One submission as carried by the batch admission path: the wire
/// `SUBMIT` payload, decoded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubmitSpec {
    /// Catalog workflow name.
    pub workflow: String,
    /// Region scope (glob over device names).
    pub scope: String,
    /// Urgent fast lane + scheduler urgent priority.
    pub urgent: bool,
    /// Workflow parameters (`key`, `value`).
    pub params: Vec<(String, String)>,
}

/// Why a submission was not admitted.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SubmitOutcome {
    /// Admitted; poll/cancel with this ticket.
    Accepted(u64),
    /// Admission queue full; retry after the hint (milliseconds).
    Busy(u64),
    /// Typed rejection (unknown workflow, bad scope, shutting down).
    Rejected(ErrorCode, String),
}

struct JobRecord {
    handle: PooledHandle,
    workflow: &'static str,
}

/// Ticket-keyed job records plus the terminal-eviction queue.
#[derive(Default)]
struct JobTable {
    records: BTreeMap<u64, JobRecord>,
    /// Tickets in the order their tasks finished; the front is evicted
    /// first once more than `terminal_retain` are retained.
    terminal_order: VecDeque<u64>,
}

impl JobTable {
    /// Notes that `ticket`'s task has finished and evicts the oldest
    /// finished records beyond `retain`. Live records are never evicted —
    /// only tickets pushed onto `terminal_order` are ever removed.
    fn mark_terminal(&mut self, ticket: u64, retain: usize) {
        self.terminal_order.push_back(ticket);
        while self.terminal_order.len() > retain {
            let old = self
                .terminal_order
                .pop_front()
                .expect("len > retain >= 0 implies non-empty");
            self.records.remove(&old);
        }
    }
}

struct EngineObs {
    accepted: Counter,
    rejected: Counter,
    unknown: Counter,
    completed: Counter,
    aborted: Counter,
    cancelled: Counter,
    cancel_requests: Counter,
    queue_wait_ns: Histogram,
    e2e_ns: Histogram,
    queue_depth: Histogram,
}

impl EngineObs {
    fn bind(reg: &Registry) -> EngineObs {
        EngineObs {
            accepted: reg.counter("gateway.submit.accepted"),
            rejected: reg.counter("gateway.submit.rejected"),
            unknown: reg.counter("gateway.submit.unknown"),
            completed: reg.counter("gateway.tasks.completed"),
            aborted: reg.counter("gateway.tasks.aborted"),
            cancelled: reg.counter("gateway.tasks.cancelled"),
            cancel_requests: reg.counter("gateway.cancel.requests"),
            queue_wait_ns: reg.histogram("gateway.queue_wait_ns"),
            e2e_ns: reg.histogram("gateway.e2e_ns"),
            queue_depth: reg.histogram("gateway.queue_depth"),
        }
    }
}

/// Per-reactor-shard ticket state: its own job table and ticket
/// sequence, so concurrent reactor event loops record work without
/// sharing a table lock. Tickets encode their shard in the low
/// [`SHARD_BITS`] bits, so STATUS/CANCEL from *any* connection route to
/// the owning shard.
struct EngineShard {
    jobs: Mutex<JobTable>,
    next_seq: AtomicU64,
}

struct EngineInner {
    rt: Runtime,
    catalog: Catalog,
    cfg: EngineConfig,
    shards: Vec<EngineShard>,
    obs: EngineObs,
}

/// `(sequence, shard) → ticket`.
fn make_ticket(seq: u64, shard: usize) -> u64 {
    (seq << SHARD_BITS) | shard as u64
}

/// The single report → wire-phase conversion: every STATUS answer for a
/// finished job and every terminal counter goes through here, so error
/// text and counters cannot drift apart.
fn settle(report: &TaskReport) -> (WirePhase, String) {
    match (report.state, &report.error) {
        (TaskState::Completed, _) => (WirePhase::Completed, String::new()),
        (_, Some(TaskError::Cancelled)) => {
            (WirePhase::Cancelled, "cancelled at a checkpoint".into())
        }
        (_, Some(err)) => (WirePhase::Aborted, err.to_string()),
        (_, None) => (WirePhase::Aborted, "aborted without error detail".into()),
    }
}

/// The wire phase (and, once finished, detail) a job's handle shows.
fn phase_of(handle: &PooledHandle) -> (WirePhase, String) {
    handle.with_state(|state| match state {
        JobState::Queued => (WirePhase::Queued, String::new()),
        JobState::Running => (WirePhase::Running, String::new()),
        JobState::Done(report) => settle(report),
    })
}

/// The admission-controlled execution engine. Cheap to clone; all clones
/// share state.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Builds an engine over `rt` with the standard catalog, sizing the
    /// runtime's worker pool to `cfg.pool_size`. The pool size only takes
    /// effect if the runtime's pool has not started yet.
    pub fn new(rt: Runtime, cfg: EngineConfig) -> Engine {
        rt.configure_pool(cfg.pool_size);
        let obs = EngineObs::bind(rt.obs());
        // Touch the connection/frame/reactor instruments so the full
        // gateway metric family exists from boot (DESIGN.md §9 contract).
        for name in [
            "gateway.conn.opened",
            "gateway.conn.closed",
            "gateway.frames.rx",
            "gateway.frames.tx",
            "gateway.proto.errors",
            "gateway.reactor.events",
            "gateway.reactor.wouldblock",
        ] {
            rt.obs().counter(name);
        }
        rt.obs().histogram("gateway.reactor.batch_len");
        // One ticket shard per reactor event loop; four ticket bits
        // would route up to 16.
        let nshards = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(4);
        Engine {
            inner: Arc::new(EngineInner {
                rt,
                catalog: Catalog::standard(),
                cfg,
                shards: (0..nshards)
                    .map(|_| EngineShard {
                        jobs: Mutex::new(JobTable::default()),
                        next_seq: AtomicU64::new(1),
                    })
                    .collect(),
                obs,
            }),
        }
    }

    /// Number of ticket shards (== reactor event loops).
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The underlying runtime (shared observability registry lives here).
    pub fn runtime(&self) -> &Runtime {
        &self.inner.rt
    }

    /// Submits a catalog workflow. Validates the name and scope, applies
    /// admission control, and hands the built program to the worker pool.
    /// Single-item wrapper over [`Engine::submit_batch`] on shard 0.
    pub fn submit(
        &self,
        workflow: &str,
        scope: &str,
        urgent: bool,
        params: &[(String, String)],
    ) -> SubmitOutcome {
        self.submit_batch(
            0,
            vec![SubmitSpec {
                workflow: workflow.to_string(),
                scope: scope.to_string(),
                urgent,
                params: params.to_vec(),
            }],
        )
        .pop()
        .expect("one outcome per spec")
    }

    /// Batch admission from one reactor shard: validates every spec,
    /// offers the valid ones to the worker pool under a single pool lock
    /// — which admits as many as fit under `queue_cap` (earlier specs
    /// win; the rest answer `Busy`) or none once the engine is shutting
    /// down — and records the admitted ones under a single job-table
    /// lock.
    ///
    /// Outcomes are returned in spec order and ticket order equals spec
    /// order among accepted items — the wire contract pipelined clients
    /// rely on. `shard` is taken modulo the shard count, so callers can
    /// pass a reactor event-loop index directly.
    ///
    /// Scope validation goes through the runtime's shared
    /// [`occam_regex::PatternCache`], and this is the one place a task's
    /// scope is compiled: spec validation only parses the glob, and the
    /// worker's `network`/`network_read` hit the entry made here. A miss
    /// costs ~20 µs of a ~100 µs admission (measured on `audit_fleet`,
    /// where nearly every scope is new; it was ~300 of ~480 µs), and a
    /// repeated scope costs a lookup.
    pub fn submit_batch(&self, shard: usize, specs: Vec<SubmitSpec>) -> Vec<SubmitOutcome> {
        let inner = &self.inner;
        let s = shard % inner.shards.len();
        let sh = &inner.shards[s];

        // Validation pass: each spec becomes either a typed rejection or
        // a ticket and a pool job. A ticket is minted per valid spec, so
        // one the pool then sheds leaves a gap in the sequence; order is
        // what the wire contract promises, not density.
        enum Item {
            Rejected(SubmitOutcome),
            Offered(u64, &'static str),
        }
        let mut jobs = Vec::with_capacity(specs.len());
        let items: Vec<Item> = specs
            .into_iter()
            .map(|spec| {
                let Some(entry) = inner.catalog.get(&spec.workflow) else {
                    inner.obs.unknown.inc();
                    return Item::Rejected(SubmitOutcome::Rejected(
                        ErrorCode::UnknownWorkflow,
                        format!(
                            "unknown workflow {:?}; use LIST for the catalog",
                            spec.workflow
                        ),
                    ));
                };
                if let Err(e) = inner.rt.pattern_cache().get_glob(&spec.scope) {
                    inner.obs.rejected.inc();
                    return Item::Rejected(SubmitOutcome::Rejected(
                        ErrorCode::BadScope,
                        format!("bad scope {:?}: {e}", spec.scope),
                    ));
                }
                let ticket = make_ticket(sh.next_seq.fetch_add(1, Ordering::Relaxed), s);
                let (workflow, isolation) = (entry.name, entry.isolation);
                let cancel = CancelToken::new();
                let task_cancel = cancel.clone();
                let engine = self.clone();
                let admitted_at = Instant::now();
                jobs.push(PoolJob {
                    urgent: spec.urgent,
                    cancel,
                    run: Box::new(move || {
                        let inner = &engine.inner;
                        inner
                            .obs
                            .queue_wait_ns
                            .record_duration(admitted_at.elapsed());
                        let program = inner
                            .catalog
                            .build(workflow, WorkflowSpec::new(&spec.scope, &spec.params))
                            .expect("entry existence checked at admission");
                        let report = inner
                            .rt
                            .task(format!("gw.{workflow}.{ticket}"))
                            .urgency(spec.urgent)
                            .cancel_token(task_cancel)
                            .isolation(isolation)
                            .run(|ctx| program(ctx));
                        inner.obs.e2e_ns.record_duration(admitted_at.elapsed());
                        match settle(&report).0 {
                            WirePhase::Completed => inner.obs.completed.inc(),
                            WirePhase::Cancelled => inner.obs.cancelled.inc(),
                            _ => inner.obs.aborted.inc(),
                        }
                        inner.shards[s]
                            .jobs
                            .lock()
                            .mark_terminal(ticket, inner.cfg.terminal_retain);
                        // The handle is retained for `terminal_retain` later
                        // completions and STATUS shows only the phase and
                        // the error: keep the verdict, not the execution
                        // log and undo payloads of every retained ticket.
                        TaskReport {
                            log: Vec::new(),
                            undo: Vec::new(),
                            activity: Vec::new(),
                            op_offsets: Vec::new(),
                            rollback: None,
                            ..report
                        }
                    }),
                });
                Item::Offered(ticket, workflow)
            })
            .collect();

        // Admission, then one record per admitted job. The table lock is
        // held across the enqueue so that a job which finishes at once
        // finds its record when it calls `mark_terminal`.
        let mut table = sh.jobs.lock();
        let admission = inner.rt.enqueue_pooled(Some(inner.cfg.queue_cap), jobs);
        if !admission.handles.is_empty() {
            inner.obs.queue_depth.record(admission.queued as u64);
            inner.obs.accepted.add(admission.handles.len() as u64);
        }
        let mut handles = admission.handles.into_iter();
        items
            .into_iter()
            .map(|item| match item {
                Item::Rejected(outcome) => outcome,
                Item::Offered(ticket, workflow) => match handles.next() {
                    Some(handle) => {
                        table.records.insert(ticket, JobRecord { handle, workflow });
                        SubmitOutcome::Accepted(ticket)
                    }
                    None => {
                        inner.obs.rejected.inc();
                        if admission.closed {
                            SubmitOutcome::Rejected(
                                ErrorCode::ShuttingDown,
                                "gateway is draining; no new work admitted".into(),
                            )
                        } else {
                            SubmitOutcome::Busy(inner.cfg.retry_after_ms)
                        }
                    }
                },
            })
            .collect()
    }

    /// The handle behind a ticket, if its record is still retained.
    fn handle(&self, ticket: u64) -> Option<PooledHandle> {
        let shard = (ticket & ((1 << SHARD_BITS) - 1)) as usize;
        let jobs = self.inner.shards.get(shard)?.jobs.lock();
        jobs.records.get(&ticket).map(|rec| rec.handle.clone())
    }

    /// Looks up the lifecycle phase of a ticket. Terminal records are
    /// retained for `terminal_retain` completions, after which the
    /// ticket answers `Unknown`.
    pub fn status(&self, ticket: u64) -> (WirePhase, String) {
        match self.handle(ticket) {
            Some(handle) => phase_of(&handle),
            None => (WirePhase::Unknown, String::new()),
        }
    }

    /// Requests cooperative cancellation of a ticket. Returns `false` if
    /// the ticket is unknown or already terminal. Cancellation takes
    /// effect at the task's next checkpoint (lock acquisition or stateful
    /// operation); blocked lock waiters are woken to observe it.
    pub fn cancel(&self, ticket: u64) -> bool {
        self.inner.obs.cancel_requests.inc();
        self.handle(ticket).is_some_and(|handle| handle.cancel())
    }

    /// The workflow catalog as `(name, description, read_only)` rows.
    pub fn list(&self) -> Vec<(String, String, bool)> {
        self.inner
            .catalog
            .entries()
            .iter()
            .map(|e| (e.name.to_string(), e.description.to_string(), e.read_only))
            .collect()
    }

    /// The shared observability registry rendered as JSON.
    pub fn metrics_json(&self) -> String {
        self.inner.rt.obs().to_json()
    }

    /// Count of admitted jobs waiting for a worker: the pool's queue
    /// length, the number admission is bounded against.
    pub fn queued(&self) -> usize {
        self.inner.rt.pool_stats().queued
    }

    /// Whether every known job is in a terminal phase. (Evicted records
    /// were terminal by construction, so eviction never flips this.)
    pub fn all_terminal(&self) -> bool {
        self.inner.shards.iter().all(|s| {
            s.jobs
                .lock()
                .records
                .values()
                .all(|r| phase_of(&r.handle).0.is_terminal())
        })
    }

    /// Per-workflow phase counts over the *retained* records — all live
    /// jobs plus the most recent `terminal_retain` terminal ones:
    /// `(workflow, phase) → count`. Lifetime totals live in the
    /// `gateway.tasks.*` counters.
    pub fn terminal_breakdown(&self) -> BTreeMap<(String, &'static str), u64> {
        let mut out: BTreeMap<(String, &'static str), u64> = BTreeMap::new();
        for shard in &self.inner.shards {
            let jobs = shard.jobs.lock();
            for rec in jobs.records.values() {
                let phase = match phase_of(&rec.handle).0 {
                    WirePhase::Completed => "completed",
                    WirePhase::Aborted => "aborted",
                    WirePhase::Cancelled => "cancelled",
                    WirePhase::Queued => "queued",
                    WirePhase::Running => "running",
                    WirePhase::Unknown => "unknown",
                };
                *out.entry((rec.workflow.to_string(), phase)).or_insert(0) += 1;
            }
        }
        out
    }

    /// Graceful drain-then-shutdown: close the pool's bounded door, then
    /// block until the worker pool is quiescent. A batch racing this is
    /// either queued before the drain looks, or answered `ShuttingDown`.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inner.rt.close_pool();
        self.inner.rt.drain_pool();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occam_emunet::{EmuNet, EmuService};
    use occam_netdb::{attrs, Database};
    use occam_regex::Pattern;
    use occam_topology::FatTree;

    fn tiny_engine(cfg: EngineConfig) -> Engine {
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
        Engine::new(Runtime::new(db, service), cfg)
    }

    fn wait_terminal(engine: &Engine, ticket: u64) -> (WirePhase, String) {
        loop {
            let (phase, detail) = engine.status(ticket);
            if phase.is_terminal() || phase == WirePhase::Unknown {
                return (phase, detail);
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn status_audit_served_from_follower_replica() {
        use occam_netdb::{ReplicaConfig, ReplicaSet};
        use std::time::Duration;

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
        let runtime = Runtime::new(Arc::clone(&db), service);
        // Replicate the database and route scoped reads through the set:
        // the audit's `view()` snapshot is then served by a caught-up
        // follower, not the leader.
        let set = ReplicaSet::start(Arc::clone(&db), ReplicaConfig::default());
        assert!(set.wait_converged(Duration::from_secs(10)));
        runtime.attach_read_router(set.router());

        let engine = Engine::new(runtime, EngineConfig::default());
        let out = engine.submit("status_audit", "dc01.pod00.*", false, &[]);
        let SubmitOutcome::Accepted(ticket) = out else {
            panic!("expected acceptance, got {out:?}");
        };
        let (phase, detail) = wait_terminal(&engine, ticket);
        assert_eq!(phase, WirePhase::Completed, "{detail}");
        assert!(
            set.obs().counter_value("netdb.repl.reads.follower") >= 1,
            "audit view was not served from a follower"
        );
        engine.runtime().detach_read_router();
        set.shutdown();
    }

    #[test]
    fn submit_runs_to_completion_and_mutates_state() {
        let engine = tiny_engine(EngineConfig::default());
        let out = engine.submit("drain", "dc01.pod01.*", false, &[]);
        let SubmitOutcome::Accepted(ticket) = out else {
            panic!("expected acceptance, got {out:?}");
        };
        let (phase, detail) = wait_terminal(&engine, ticket);
        assert_eq!(phase, WirePhase::Completed, "{detail}");
        let statuses = engine
            .runtime()
            .db()
            .get_attr(
                &Pattern::from_glob("dc01.pod01.*").unwrap(),
                attrs::DEVICE_STATUS,
            )
            .unwrap();
        assert!(!statuses.is_empty());
        for (dev, v) in &statuses {
            assert_eq!(
                v.as_str(),
                Some(attrs::STATUS_UNDER_MAINTENANCE),
                "device {dev}"
            );
        }
        assert_eq!(
            engine
                .runtime()
                .obs()
                .counter_value("gateway.tasks.completed"),
            1
        );
    }

    #[test]
    fn unknown_workflow_and_bad_scope_rejected() {
        let engine = tiny_engine(EngineConfig::default());
        assert!(matches!(
            engine.submit("nope", "dc01.*", false, &[]),
            SubmitOutcome::Rejected(ErrorCode::UnknownWorkflow, _)
        ));
        assert!(matches!(
            engine.submit("drain", "dc01.[", false, &[]),
            SubmitOutcome::Rejected(ErrorCode::BadScope, _)
        ));
        assert_eq!(
            engine
                .runtime()
                .obs()
                .counter_value("gateway.submit.unknown"),
            1
        );
    }

    #[test]
    fn queue_full_answers_busy() {
        use std::sync::mpsc;

        let engine = tiny_engine(EngineConfig {
            pool_size: 1,
            queue_cap: 1,
            retry_after_ms: 7,
            ..EngineConfig::default()
        });
        // A directly-run task holds the exclusive lock over the whole DC
        // until the test lets go, so a 2PL workflow under it blocks.
        let (locked_tx, locked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let holder = engine.runtime().task("holder").spawn(move |ctx| {
            let _dc = ctx.network("dc01.*")?;
            locked_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            Ok(())
        });
        locked_rx.recv().unwrap();

        let submit = |scope| engine.submit("drain", scope, false, &[]);
        // First: taken by the single worker, parked on the lock.
        let SubmitOutcome::Accepted(running) = submit("dc01.pod00.*") else {
            panic!("expected acceptance");
        };
        while engine.status(running).0 != WirePhase::Running {
            std::thread::yield_now();
        }
        assert_eq!(engine.queued(), 0);
        // Second: fills the one queue slot. Third: shed, with the hint.
        let SubmitOutcome::Accepted(queued) = submit("dc01.pod01.*") else {
            panic!("expected acceptance");
        };
        assert_eq!(engine.status(queued).0, WirePhase::Queued);
        assert_eq!(engine.queued(), 1);
        assert_eq!(submit("dc01.pod02.*"), SubmitOutcome::Busy(7));
        assert_eq!(engine.queued(), 1);
        assert!(!engine.all_terminal());

        release_tx.send(()).unwrap();
        assert_eq!(holder.join().unwrap().state, TaskState::Completed);
        for ticket in [running, queued] {
            let (phase, detail) = wait_terminal(&engine, ticket);
            assert_eq!(phase, WirePhase::Completed, "{detail}");
        }
        // Room again once the queue has drained.
        assert!(matches!(submit("dc01.pod02.*"), SubmitOutcome::Accepted(_)));
        engine.shutdown();
        assert!(engine.all_terminal());
    }

    #[test]
    fn shutdown_racing_a_submitter_leaves_nothing_behind() {
        // A batch that is still validating when `shutdown()` starts must
        // be either queued before the drain or refused: after `shutdown()`
        // has returned and the submitter has been told `ShuttingDown`,
        // nothing it was ever granted may still be waiting or running.
        for round in 0..20 {
            let engine = tiny_engine(EngineConfig::default());
            let (first_tx, first_rx) = std::sync::mpsc::channel();
            let submitter = {
                let engine = engine.clone();
                std::thread::spawn(move || {
                    let mut accepted = Vec::new();
                    for n in 0.. {
                        // Never-seen scope globs: each costs a cold
                        // compile, which is what makes validation long
                        // enough for `shutdown()` to overtake it.
                        let specs = (0..4)
                            .map(|i| SubmitSpec {
                                workflow: "status_audit".into(),
                                scope: format!("dc01.pod0{i}.r{round}n{n}*"),
                                urgent: false,
                                params: Vec::new(),
                            })
                            .collect();
                        for outcome in engine.submit_batch(0, specs) {
                            match outcome {
                                SubmitOutcome::Accepted(t) => accepted.push(t),
                                SubmitOutcome::Busy(_) => {}
                                SubmitOutcome::Rejected(ErrorCode::ShuttingDown, _) => {
                                    return accepted;
                                }
                                other => panic!("unexpected {other:?}"),
                            }
                        }
                        if n == 0 {
                            first_tx.send(()).unwrap();
                        }
                    }
                    unreachable!()
                })
            };
            first_rx.recv().unwrap();
            engine.shutdown();
            let accepted = submitter.join().unwrap();
            assert!(!accepted.is_empty());
            assert_eq!(engine.queued(), 0, "round {round}");
            for t in accepted {
                let phase = engine.status(t).0;
                assert!(
                    phase.is_terminal(),
                    "round {round}: ticket {t} is {phase:?}"
                );
            }
        }
    }

    #[test]
    fn terminal_records_are_evicted_beyond_retention() {
        let engine = tiny_engine(EngineConfig {
            pool_size: 2,
            queue_cap: 8,
            retry_after_ms: 1,
            terminal_retain: 3,
        });
        let mut tickets = Vec::new();
        for _ in 0..6 {
            loop {
                match engine.submit("status_audit", "dc01.*", false, &[]) {
                    SubmitOutcome::Accepted(t) => {
                        tickets.push(t);
                        // Serialize: wait for terminal before the next
                        // submission so eviction order is deterministic.
                        wait_terminal(&engine, t);
                        break;
                    }
                    SubmitOutcome::Busy(_) => std::thread::yield_now(),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        // Only the 3 most recent terminal records survive; older tickets
        // answer Unknown and cancel() on them reports not-live.
        for &old in &tickets[..3] {
            assert_eq!(engine.status(old).0, WirePhase::Unknown, "ticket {old}");
            assert!(!engine.cancel(old));
        }
        for &recent in &tickets[3..] {
            assert_eq!(engine.status(recent).0, WirePhase::Completed);
        }
        assert!(engine.all_terminal());
        let retained: u64 = engine.terminal_breakdown().values().sum();
        assert_eq!(retained, 3);
    }

    #[test]
    fn shutdown_rejects_new_work_and_drains() {
        let engine = tiny_engine(EngineConfig::default());
        let SubmitOutcome::Accepted(t) =
            engine.submit("device_maintenance", "dc01.pod02.*", false, &[])
        else {
            panic!("expected acceptance");
        };
        engine.shutdown();
        assert!(engine.status(t).0.is_terminal());
        assert!(matches!(
            engine.submit("drain", "dc01.*", false, &[]),
            SubmitOutcome::Rejected(ErrorCode::ShuttingDown, _)
        ));
    }

    #[test]
    fn cancel_before_start_yields_cancelled_phase() {
        let engine = tiny_engine(EngineConfig {
            pool_size: 1,
            queue_cap: 8,
            retry_after_ms: 1,
            ..EngineConfig::default()
        });
        // Occupy the single worker with a workflow long enough to let us
        // cancel the queued one behind it.
        let SubmitOutcome::Accepted(_front) = engine.submit(
            "firmware_upgrade",
            "dc01.pod01.*",
            false,
            &[("version".into(), "v9".into())],
        ) else {
            panic!("expected acceptance");
        };
        let SubmitOutcome::Accepted(victim) = engine.submit("drain", "dc01.pod02.*", false, &[])
        else {
            panic!("expected acceptance");
        };
        // Cancel may race the victim starting; both Cancelled (never ran
        // or hit a checkpoint) and Completed (won the race) are legal —
        // but if cancel() returned true before it went terminal, the
        // token is set and a still-queued victim must end Cancelled.
        engine.cancel(victim);
        let (phase, _) = {
            loop {
                let (p, d) = engine.status(victim);
                if p.is_terminal() {
                    break (p, d);
                }
                std::thread::yield_now();
            }
        };
        assert!(
            phase == WirePhase::Cancelled || phase == WirePhase::Completed,
            "unexpected phase {phase:?}"
        );
        engine.shutdown();
    }
}
