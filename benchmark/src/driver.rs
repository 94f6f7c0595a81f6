//! Load generation through the real gateway socket.
//!
//! No more driver threads and connections than the workload names (two,
//! the core count of the box the benchmark was sized on); more
//! outstanding work per connection comes from `submit_batch` pipelining,
//! not more sockets. The STATUS polling policy lives here and nowhere
//! else, so the generator's own load is the same on every commit.

use crate::workload::{LoopKind, Plan, Task};
use occam::gateway::{GatewayClient, SubmitReply, SubmitSpec, WirePhase};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// After the last progress on a connection (a submit or a completion)
/// the poller re-polls back to back, yielding the core between polls…
pub const POLL_SPIN: Duration = Duration::from_micros(200);
/// …then sleeps this long between sweeps.
pub const POLL_SLEEP: Duration = Duration::from_micros(100);
/// A task not terminal this long after submission (open loop: after it
/// was due) counts as failed.
pub const TASK_DEADLINE: Duration = Duration::from_secs(10);

/// How a task ended, as the client saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Completed,
    Aborted,
    Cancelled,
    /// Typed rejection at SUBMIT.
    Rejected,
    /// STATUS answered `Unknown`: the gateway lost the ticket.
    Lost,
    /// Not terminal by [`TASK_DEADLINE`].
    TimedOut,
}

/// Everything the client observed about one task. Times are nanoseconds
/// since [`RunCtl::epoch`].
#[derive(Clone, Debug)]
pub struct TaskRecord {
    pub conn: u32,
    /// Index into the connection's task list.
    pub index: u32,
    pub ticket: Option<u64>,
    /// Latency clock start: SUBMIT sent (closed loop) or due (open loop).
    pub start_ns: u64,
    pub submit_start_ns: u64,
    pub submit_end_ns: u64,
    /// First terminal STATUS reply received (or the moment the task was
    /// given up on).
    pub done_ns: u64,
    pub outcome: Outcome,
    pub detail: String,
    pub polls: u32,
    pub busy: u32,
    /// Open loop: how long after its due time the SUBMIT left.
    pub late_ns: u64,
}

impl TaskRecord {
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.start_ns)
    }
}

/// Shared state of one run.
pub struct RunCtl {
    pub epoch: Instant,
    /// Raised at the end of the measured window: closed-loop connections
    /// stop submitting and drain.
    pub stop: AtomicBool,
    /// Record every STATUS round trip. Flipped on for the traced window
    /// only.
    pub tracing: AtomicBool,
}

impl RunCtl {
    pub fn ns(&self, t: Instant) -> u64 {
        crate::trace::ns_since(self.epoch, t)
    }

    fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }
}

/// What one connection hands back.
#[derive(Default)]
pub struct ConnOutput {
    pub records: Vec<TaskRecord>,
    /// Round trip of every STATUS poll made while tracing, ns.
    pub status_rtts: Vec<u32>,
    /// The connection ran out of generated tasks before the window ended.
    pub exhausted: bool,
}

fn spec_of(t: &Task) -> SubmitSpec {
    SubmitSpec {
        workflow: t.workflow.to_string(),
        scope: t.scope.clone(),
        urgent: t.urgent,
        params: t.params.clone(),
    }
}

fn connect(addr: &str) -> GatewayClient {
    let client = GatewayClient::connect(addr).expect("connect to gateway");
    client
        .set_timeout(Some(TASK_DEADLINE + Duration::from_secs(5)))
        .expect("set read timeout");
    client
}

/// Which reactor event loop serves `client`: admits one single-switch
/// audit on it and reads the shard index the engine encodes in the low
/// four bits of every ticket.
fn serving_shard(client: &mut GatewayClient) -> usize {
    let reply = client
        .submit("status_audit", "dc01.pod00.agg00", false, &[])
        .expect("SUBMIT round trip");
    let SubmitReply::Accepted(ticket) = reply else {
        panic!("placement probe not admitted: {reply:?}");
    };
    while !client
        .status(ticket)
        .expect("STATUS round trip")
        .0
        .is_terminal()
    {
        std::thread::sleep(POLL_SLEEP);
    }
    (ticket & 0xf) as usize
}

/// Opens the `n` driver connections so that connection `c` is served by
/// reactor shard `c % shards`. The gateway's listener wakes whichever
/// event loop is idle, so where two connections opened at the same
/// moment land is a race — and both on one loop measured a quarter
/// slower than one each. Connections are opened in quick bursts (a loop
/// busy accepting one leaves the next to its neighbour), probed, and kept
/// only where they fill a wanted slot. Returns the connections and
/// whether every one could be placed.
pub fn connect_spread(addr: &str, n: usize, shards: usize) -> (Vec<GatewayClient>, bool) {
    let mut slots: Vec<Option<GatewayClient>> = (0..n).map(|_| None).collect();
    for _ in 0..64 {
        if slots.iter().all(Option::is_some) {
            break;
        }
        let burst: Vec<GatewayClient> = (0..shards.max(2)).map(|_| connect(addr)).collect();
        for mut client in burst {
            let shard = serving_shard(&mut client);
            let wanted = (0..n).find(|&c| slots[c].is_none() && c % shards == shard);
            if let Some(c) = wanted {
                slots[c] = Some(client);
            }
        }
    }
    let placed = slots.iter().all(Option::is_some);
    let clients = slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| connect(addr)))
        .collect();
    (clients, placed)
}

/// Outstanding tickets of one connection and the single polling policy.
pub(crate) struct Poller {
    /// Indices into `out.records`.
    pub(crate) outstanding: Vec<usize>,
    last_progress: Instant,
}

impl Poller {
    pub(crate) fn new() -> Poller {
        Poller {
            outstanding: Vec::new(),
            last_progress: Instant::now(),
        }
    }

    /// Polls every outstanding ticket once; returns whether any finished.
    pub(crate) fn sweep(
        &mut self,
        client: &mut GatewayClient,
        ctl: &RunCtl,
        out: &mut ConnOutput,
    ) -> bool {
        let mut progressed = false;
        let tracing = ctl.tracing.load(Ordering::Relaxed);
        let mut i = 0;
        while i < self.outstanding.len() {
            let ri = self.outstanding[i];
            let ticket = out.records[ri]
                .ticket
                .expect("outstanding implies accepted");
            let sent = Instant::now();
            let (phase, detail) = client.status(ticket).expect("STATUS round trip");
            let got = Instant::now();
            if tracing {
                out.status_rtts
                    .push(u32::try_from((got - sent).as_nanos()).unwrap_or(u32::MAX));
            }
            let rec = &mut out.records[ri];
            rec.polls += 1;
            let outcome = match phase {
                WirePhase::Completed => Some(Outcome::Completed),
                WirePhase::Aborted => Some(Outcome::Aborted),
                WirePhase::Cancelled => Some(Outcome::Cancelled),
                WirePhase::Unknown => Some(Outcome::Lost),
                WirePhase::Queued | WirePhase::Running => {
                    let age = ctl.ns(got).saturating_sub(rec.start_ns);
                    (age > TASK_DEADLINE.as_nanos() as u64).then_some(Outcome::TimedOut)
                }
            };
            let Some(outcome) = outcome else {
                i += 1;
                continue;
            };
            rec.done_ns = ctl.ns(got);
            rec.outcome = outcome;
            rec.detail = detail;
            self.outstanding.swap_remove(i);
            progressed = true;
        }
        if progressed {
            self.last_progress = Instant::now();
        }
        progressed
    }

    /// The polling policy: spin-yield for [`POLL_SPIN`] after the last
    /// progress, then [`POLL_SLEEP`] sleeps.
    pub(crate) fn back_off(&self) {
        if self.last_progress.elapsed() < POLL_SPIN {
            std::thread::yield_now();
        } else {
            std::thread::sleep(POLL_SLEEP);
        }
    }
}

pub(crate) fn new_record(
    conn: u32,
    index: usize,
    start_ns: u64,
    submit_start_ns: u64,
) -> TaskRecord {
    TaskRecord {
        conn,
        index: index as u32,
        ticket: None,
        start_ns,
        submit_start_ns,
        submit_end_ns: submit_start_ns,
        done_ns: submit_start_ns,
        outcome: Outcome::Rejected,
        detail: String::new(),
        polls: 0,
        busy: 0,
        late_ns: 0,
    }
}

/// One closed-loop connection: keeps `depth` tasks outstanding until the
/// stop flag rises, then drains.
fn closed_conn(
    mut client: GatewayClient,
    conn: u32,
    tasks: &[Task],
    depth: usize,
    ctl: &RunCtl,
) -> ConnOutput {
    let mut out = ConnOutput::default();
    let mut poller = Poller::new();
    let mut next = 0usize;
    // Busy retries charged to the task at `next`, and when it was first
    // offered: a shed task's latency clock does not restart.
    let mut carried_busy = 0u32;
    let mut first_offer: Option<u64> = None;
    loop {
        let stopping = ctl.stop.load(Ordering::Relaxed) || out.exhausted;
        let free = depth - poller.outstanding.len();
        if !stopping && free > 0 {
            if next + free > tasks.len() {
                out.exhausted = true;
                continue;
            }
            let batch = &tasks[next..next + free];
            let sent = ctl.now_ns();
            let replies = if let [one] = batch {
                vec![client
                    .submit(one.workflow, &one.scope, one.urgent, &one.params)
                    .expect("SUBMIT round trip")]
            } else {
                let specs: Vec<SubmitSpec> = batch.iter().map(spec_of).collect();
                client.submit_batch(&specs).expect("pipelined SUBMIT")
            };
            let answered = ctl.now_ns();
            let mut shed_ms = None;
            for reply in replies {
                let mut rec = new_record(conn, next, first_offer.take().unwrap_or(sent), sent);
                rec.submit_end_ns = answered;
                rec.busy = std::mem::take(&mut carried_busy);
                match reply {
                    SubmitReply::Accepted(ticket) => {
                        rec.ticket = Some(ticket);
                        out.records.push(rec);
                        poller.outstanding.push(out.records.len() - 1);
                        next += 1;
                    }
                    SubmitReply::Busy(ms) => {
                        // Admission sheds a suffix of the batch; retry it
                        // after the hint.
                        carried_busy = rec.busy + 1;
                        first_offer = Some(rec.start_ns);
                        shed_ms = Some(ms);
                        break;
                    }
                    SubmitReply::Rejected(code, msg) => {
                        rec.done_ns = answered;
                        rec.detail = format!("{code:?}: {msg}");
                        out.records.push(rec);
                        next += 1;
                    }
                }
            }
            poller.last_progress = Instant::now();
            if let Some(ms) = shed_ms {
                std::thread::sleep(Duration::from_millis(ms.max(1)));
            }
        }
        if poller.outstanding.is_empty() {
            if stopping {
                break;
            }
            continue;
        }
        if !poller.sweep(&mut client, ctl, &mut out) {
            poller.back_off();
        }
    }
    out
}

/// Waits for `due` by yielding, never by sleeping. An open loop at tens
/// of tasks per second leaves the machine idle between arrivals; a
/// generator that sleeps lets the cores halt, and on a VM the cost of
/// waking a halted core (hundreds of µs, different from run to run)
/// then dominates every latency measured. Yielding keeps the cores
/// awake and hands them over the instant the program has work.
fn yield_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// The open-loop submitter: sends each task when it is due, however far
/// behind the system is, and hands the ticket to the poller.
fn open_submitter(
    mut client: GatewayClient,
    tasks: &[Task],
    run_start: Instant,
    ctl: &RunCtl,
    tx: mpsc::Sender<TaskRecord>,
) {
    for (i, task) in tasks.iter().enumerate() {
        let due = run_start + Duration::from_micros(task.due_us);
        yield_until(due);
        let first_send = Instant::now();
        let mut rec = new_record(0, i, ctl.ns(due), ctl.ns(first_send));
        rec.late_ns = (first_send - due).as_nanos() as u64;
        loop {
            let reply = client
                .submit(task.workflow, &task.scope, task.urgent, &task.params)
                .expect("SUBMIT round trip");
            rec.submit_end_ns = ctl.now_ns();
            match reply {
                SubmitReply::Accepted(ticket) => {
                    rec.ticket = Some(ticket);
                    break;
                }
                SubmitReply::Busy(ms) => {
                    rec.busy += 1;
                    if ctl.now_ns().saturating_sub(rec.start_ns) > TASK_DEADLINE.as_nanos() as u64 {
                        rec.outcome = Outcome::TimedOut;
                        rec.detail = "shed until the deadline".into();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(ms.max(1)));
                }
                SubmitReply::Rejected(code, msg) => {
                    rec.detail = format!("{code:?}: {msg}");
                    break;
                }
            }
        }
        rec.done_ns = rec.submit_end_ns;
        if tx.send(rec).is_err() {
            return;
        }
    }
}

/// The open-loop poller: collects outcomes on its own connection.
fn open_poller(
    mut client: GatewayClient,
    ctl: &RunCtl,
    rx: mpsc::Receiver<TaskRecord>,
) -> ConnOutput {
    let mut out = ConnOutput::default();
    let mut poller = Poller::new();
    let mut open = true;
    while open || !poller.outstanding.is_empty() {
        let admit = |rec: TaskRecord, out: &mut ConnOutput, poller: &mut Poller| {
            let accepted = rec.ticket.is_some();
            out.records.push(rec);
            if accepted {
                poller.outstanding.push(out.records.len() - 1);
                poller.last_progress = Instant::now();
            }
        };
        if poller.outstanding.is_empty() {
            // Nothing to poll: wait for the submitter's next ticket, by
            // yielding for the same reason `yield_until` does.
            match rx.try_recv() {
                Ok(rec) => admit(rec, &mut out, &mut poller),
                Err(mpsc::TryRecvError::Empty) => std::thread::yield_now(),
                Err(mpsc::TryRecvError::Disconnected) => open = false,
            }
            continue;
        }
        loop {
            match rx.try_recv() {
                Ok(rec) => admit(rec, &mut out, &mut poller),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        if !poller.sweep(&mut client, ctl, &mut out) {
            poller.back_off();
        }
    }
    out
}

/// Drives `plan` over `clients` (two connections: one per closed-loop
/// task list, or the open loop's submitter and poller). Returns when
/// every task offered is terminal or past its deadline. The caller raises
/// `ctl.stop` at the end of the measured window (closed loops only look
/// at it; the open loop runs its whole schedule).
pub fn drive(
    clients: Vec<GatewayClient>,
    plan: &Plan,
    run_start: Instant,
    ctl: &RunCtl,
) -> Vec<ConnOutput> {
    let mut clients = clients.into_iter();
    std::thread::scope(|s| match plan.kind {
        LoopKind::Closed { depth } => {
            let handles: Vec<_> = plan
                .conns
                .iter()
                .zip(clients)
                .enumerate()
                .map(|(c, (tasks, client))| {
                    s.spawn(move || closed_conn(client, c as u32, tasks, depth, ctl))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread panicked"))
                .collect()
        }
        LoopKind::Open => {
            let tasks = &plan.conns[0];
            let (submit, poll) = (
                clients.next().expect("two connections"),
                clients.next().expect("two connections"),
            );
            let (tx, rx) = mpsc::channel();
            let submitter = s.spawn(move || open_submitter(submit, tasks, run_start, ctl, tx));
            let poller = s.spawn(move || open_poller(poll, ctl, rx));
            submitter.join().expect("submitter thread panicked");
            vec![poller.join().expect("poller thread panicked")]
        }
    })
}
