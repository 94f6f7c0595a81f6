//! The gateway reactor: sharded epoll event loops serving every
//! connection (DESIGN.md §13).
//!
//! One thread per engine ticket shard, each owning:
//!
//! - an epoll instance with edge-triggered connection registration,
//! - a slab of connection states (resumable [`FrameReader`] + a write
//!   buffer), indexed by the epoll token,
//! - a dup of the shared listener, registered `EPOLLEXCLUSIVE` so
//!   exactly one shard wakes per incoming connection and accepts it
//!   into its own slab.
//!
//! Per readability event a connection decodes *every* complete frame it
//! has buffered; the SUBMITs among them are admitted as one
//! [`Engine::submit_batch`] call on the shard's own ticket table, so
//! pipelined clients pay one jobs-table lock and one pool lock per
//! batch instead of per frame. Responses are appended to a per-
//! connection write buffer in request order (the wire contract);
//! `EPOLLOUT` is armed only while flushing that buffer would block,
//! and a connection whose peer stops reading is paused (its reads are
//! deferred) once the buffer passes the high-water mark — backpressure,
//! not unbounded buffering.
//!
//! A 50 ms epoll timeout doubles as the idle tick that polls the stop
//! flag, replacing the old per-connection `SO_RCVTIMEO` hack. Partial
//! frames survive across readiness events exactly as they survived
//! read-timeout ticks before: the `FrameReader` keeps its own state.
//!
//! EOF handling is *process-then-close*: frames fully received before
//! the peer vanished are still decoded and admitted, so an admitted
//! job always reaches a terminal phase even if nobody is left to read
//! the `Accepted` response (the chaos connection-fault invariant).

mod epoll;

use crate::engine::{SubmitOutcome, SubmitSpec};
use crate::proto::{
    write_frame, ErrorCode, FrameError, FrameReader, RecvError, Request, Response, MAX_METRICS_STR,
};
use crate::server::ServerShared;
use epoll::{
    Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLET, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN, EPOLLOUT,
    EPOLLRDHUP,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Epoll token for the shard's listener dup.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll token for the shard's wake eventfd.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Idle tick: how often a shard loop polls the stop flag (ms).
const TICK_MS: i32 = 50;
/// Events drained per epoll_wait call.
const EVENT_BATCH: usize = 256;
/// Pause reading from a connection whose pending response bytes exceed
/// this (resumed once the peer drains below it). Large enough for a
/// METRICS frame plus headroom.
const OUT_HIGH_WATER: usize = 2 << 20;
/// Interest set every connection keeps for its whole life; `EPOLLOUT`
/// is OR'd in only while a flush is blocked.
const BASE_INTEREST: u32 = EPOLLIN | EPOLLRDHUP | EPOLLET;

/// The running reactor: one event-loop thread per engine ticket shard.
pub(crate) struct Reactor {
    threads: Vec<JoinHandle<()>>,
    wakes: Vec<Arc<WakeFd>>,
}

impl Reactor {
    /// Starts `engine.shards()` event loops over dups of `listener`.
    pub(crate) fn start(
        shared: &Arc<ServerShared>,
        listener: &TcpListener,
    ) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let nshards = shared.engine.shards();
        let mut threads = Vec::with_capacity(nshards);
        let mut wakes = Vec::with_capacity(nshards);
        for idx in 0..nshards {
            // Build the loop on the caller's thread so setup errors
            // (epoll, eventfd, dup) surface from start() rather than
            // panicking a detached thread.
            let shard = ShardLoop::new(idx, Arc::clone(shared), listener.try_clone()?)?;
            wakes.push(Arc::clone(&shard.wake));
            threads.push(
                std::thread::Builder::new()
                    .name(format!("occam-gw-reactor{idx}"))
                    .spawn(move || shard.run())?,
            );
        }
        Ok(Reactor { threads, wakes })
    }

    /// Wakes every shard (they observe the stop flag) and joins them.
    /// The caller sets `shared.stop` first.
    pub(crate) fn shutdown(&mut self) {
        for wake in &self.wakes {
            wake.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// One connection's state between readiness events.
struct Conn {
    stream: TcpStream,
    /// Resumable frame decoder; partial frames live here across events.
    reader: FrameReader,
    /// Encoded-but-unflushed response bytes.
    out: Vec<u8>,
    /// Flushed prefix of `out`.
    out_pos: usize,
    /// Sticky edge-triggered readability: set by events, cleared when a
    /// read hits `WouldBlock`.
    readable: bool,
    /// Sticky edge-triggered writability (fresh sockets start true).
    writable: bool,
    /// Close once `out` is drained (decode error or SHUTDOWN answered).
    hangup: bool,
    /// Whether the current epoll interest set includes `EPOLLOUT`.
    epollout_armed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            out_pos: 0,
            readable: false,
            writable: true,
            hangup: false,
            epollout_armed: false,
        }
    }

    /// Bytes queued but not yet flushed.
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// One shard's event loop state.
struct ShardLoop {
    idx: usize,
    shared: Arc<ServerShared>,
    ep: Epoll,
    wake: Arc<WakeFd>,
    listener: TcpListener,
    /// Connection slab; the epoll token is the slot index.
    conns: Vec<Option<Conn>>,
    /// Reusable empty slots.
    free: Vec<usize>,
    /// Slots freed during the current event batch; merged into `free`
    /// only after the batch, so a still-queued event can never hit a
    /// slot that was reused mid-batch.
    freed_batch: Vec<usize>,
}

impl ShardLoop {
    fn new(
        idx: usize,
        shared: Arc<ServerShared>,
        listener: TcpListener,
    ) -> std::io::Result<ShardLoop> {
        let ep = Epoll::new()?;
        let wake = Arc::new(WakeFd::new()?);
        // Listener: level-triggered + EPOLLEXCLUSIVE so one shard wakes
        // per pending connection; the handler accepts until WouldBlock.
        ep.add(
            listener.as_raw_fd(),
            EPOLLIN | EPOLLEXCLUSIVE,
            LISTENER_TOKEN,
        )?;
        ep.add(wake.as_raw_fd(), EPOLLIN, WAKE_TOKEN)?;
        Ok(ShardLoop {
            idx,
            shared,
            ep,
            wake,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            freed_batch: Vec::new(),
        })
    }

    fn run(mut self) {
        let mut buf = vec![EpollEvent::zeroed(); EVENT_BATCH];
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            // Copy tokens out of the (possibly packed) event structs so
            // the wait buffer is free for the next iteration.
            let batch: Vec<(u32, u64)> = match self.ep.wait(&mut buf, TICK_MS) {
                Ok(events) => events.iter().map(|e| (e.events(), e.token())).collect(),
                Err(_) => continue,
            };
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            if !batch.is_empty() {
                self.shared.obs.reactor_events.add(batch.len() as u64);
            }
            for (bits, token) in batch {
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.wake.drain(),
                    slot => self.dispatch(slot as usize, bits),
                }
            }
            let mut freed = std::mem::take(&mut self.freed_batch);
            self.free.append(&mut freed);
        }
        // Teardown: every connection still open counts a close, keeping
        // conn.opened == conn.closed after shutdown.
        for slot in 0..self.conns.len() {
            if self.conns[slot].take().is_some() {
                self.shared.obs.closed.inc();
            }
        }
    }

    /// Drains the listener's accept backlog into this shard's slab.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.stop.load(Ordering::SeqCst) {
                        continue;
                    }
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.shared.obs.opened.inc();
                    let fd = stream.as_raw_fd();
                    let conn = Conn::new(stream);
                    let slot = match self.free.pop() {
                        Some(s) => {
                            self.conns[s] = Some(conn);
                            s
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.conns.len() - 1
                        }
                    };
                    // ADD fires an edge immediately if data already
                    // arrived, so a connection that raced ahead of its
                    // registration is still served.
                    if self.ep.add(fd, BASE_INTEREST, slot as u64).is_err() {
                        self.conns[slot] = None;
                        self.freed_batch.push(slot);
                        self.shared.obs.closed.inc();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Routes one readiness event to its connection and drives it.
    fn dispatch(&mut self, slot: usize, bits: u32) {
        // take/put-back so `drive` can borrow &mut self alongside the
        // connection. A None slot is a stale event for a connection
        // closed earlier in this batch — ignore.
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
            conn.readable = true;
        }
        if bits & EPOLLOUT != 0 {
            conn.writable = true;
        }
        if self.drive(&mut conn, slot) {
            self.conns[slot] = Some(conn);
        } else {
            drop(conn); // closes the fd, deregistering it from epoll
            self.freed_batch.push(slot);
            self.shared.obs.closed.inc();
        }
    }

    /// Advances one connection as far as readiness allows: flush, then
    /// read-decode-admit-respond until reads would block or the write
    /// buffer passes the high-water mark. Returns whether to keep the
    /// connection.
    fn drive(&mut self, conn: &mut Conn, slot: usize) -> bool {
        if !self.flush(conn, slot) {
            return false;
        }
        loop {
            let mut bodies: Vec<Vec<u8>> = Vec::new();
            let mut peer_gone = false;
            let mut frame_err: Option<FrameError> = None;
            while conn.readable && !conn.hangup && conn.pending_out() < OUT_HIGH_WATER {
                match conn.reader.poll(&mut conn.stream) {
                    Ok(Some(body)) => {
                        self.shared.obs.frames_rx.inc();
                        bodies.push(body);
                    }
                    // WouldBlock: the edge is consumed; any partial
                    // frame stays buffered in the reader.
                    Ok(None) => {
                        conn.readable = false;
                    }
                    Err(RecvError::Closed) | Err(RecvError::Io(_)) => {
                        peer_gone = true;
                        break;
                    }
                    Err(RecvError::Frame(err)) => {
                        frame_err = Some(err);
                        break;
                    }
                }
            }
            // Process-then-close: everything fully received before EOF
            // or the framing error still gets decoded and admitted.
            if !bodies.is_empty() {
                self.process(conn, bodies);
            }
            if let Some(err) = frame_err {
                self.shared.obs.proto_errors.inc();
                queue_response(
                    conn,
                    &self.shared,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        message: err.to_string(),
                    },
                );
                conn.hangup = true;
            }
            if !self.flush(conn, slot) {
                return false;
            }
            if peer_gone {
                // One flush attempt above was the courtesy; don't park
                // a dead peer waiting for EPOLLOUT.
                return false;
            }
            if conn.hangup {
                // Close now if drained, else linger until EPOLLOUT
                // flushes the goodbye.
                return conn.pending_out() > 0;
            }
            if !conn.readable || conn.pending_out() >= OUT_HIGH_WATER {
                return true;
            }
            // Reads were paused by the high-water mark and the flush
            // above made room: resume decoding.
        }
    }

    /// Decodes a batch of frame bodies, admits all SUBMITs in one
    /// engine batch on this shard, and queues responses in request
    /// order.
    fn process(&self, conn: &mut Conn, bodies: Vec<Vec<u8>>) {
        enum Planned {
            /// Takes the next submit outcome, in order.
            Submit,
            Ready(Response, bool),
        }
        let mut specs: Vec<SubmitSpec> = Vec::new();
        let mut plan: Vec<Planned> = Vec::with_capacity(bodies.len());
        for body in &bodies {
            match Request::decode(body) {
                Ok(Request::Submit {
                    workflow,
                    scope,
                    urgent,
                    params,
                }) => {
                    specs.push(SubmitSpec {
                        workflow,
                        scope,
                        urgent,
                        params,
                    });
                    plan.push(Planned::Submit);
                }
                Ok(req) => {
                    let (resp, hangup) = handle_plain(&self.shared, req);
                    let stop = hangup;
                    plan.push(Planned::Ready(resp, hangup));
                    if stop {
                        // Frames pipelined behind a SHUTDOWN are dropped
                        // with the connection, as before.
                        break;
                    }
                }
                Err(err) => {
                    self.shared.obs.proto_errors.inc();
                    plan.push(Planned::Ready(
                        Response::Error {
                            code: ErrorCode::BadRequest,
                            message: err.to_string(),
                        },
                        true,
                    ));
                    break;
                }
            }
        }
        let outcomes = if specs.is_empty() {
            Vec::new()
        } else {
            self.shared.obs.reactor_batch_len.record(specs.len() as u64);
            self.shared.engine.submit_batch(self.idx, specs)
        };
        let mut outcomes = outcomes.into_iter();
        for planned in plan {
            let (resp, hangup) = match planned {
                Planned::Submit => {
                    let resp = match outcomes.next().expect("one outcome per submit") {
                        SubmitOutcome::Accepted(ticket) => Response::Accepted { ticket },
                        SubmitOutcome::Busy(retry_after_ms) => Response::Busy { retry_after_ms },
                        SubmitOutcome::Rejected(code, message) => Response::Error { code, message },
                    };
                    (resp, false)
                }
                Planned::Ready(resp, hangup) => (resp, hangup),
            };
            queue_response(conn, &self.shared, &resp);
            if hangup {
                conn.hangup = true;
                break;
            }
        }
    }

    /// Flushes the connection's write buffer as far as the socket
    /// allows and keeps the `EPOLLOUT` interest in sync with whether
    /// bytes remain. Returns whether the connection is still usable.
    fn flush(&mut self, conn: &mut Conn, slot: usize) -> bool {
        while conn.writable && conn.pending_out() > 0 {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    conn.writable = false;
                    self.shared.obs.reactor_wouldblock.inc();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.pending_out() == 0 {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > (64 << 10) {
            // Keep a slow drain from pinning the flushed prefix.
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        let want_epollout = !conn.writable && conn.pending_out() > 0;
        if want_epollout != conn.epollout_armed {
            let interest = if want_epollout {
                BASE_INTEREST | EPOLLOUT
            } else {
                BASE_INTEREST
            };
            if self
                .ep
                .modify(conn.stream.as_raw_fd(), interest, slot as u64)
                .is_err()
            {
                return false;
            }
            conn.epollout_armed = want_epollout;
        }
        true
    }
}

/// Encodes `resp` onto the connection's write buffer.
fn queue_response(conn: &mut Conn, shared: &ServerShared, resp: &Response) {
    let _ = write_frame(&mut conn.out, &resp.encode());
    shared.obs.frames_tx.inc();
}

/// Maps one decoded non-SUBMIT request to `(response, hang up after
/// sending)`. SUBMITs go through the batch admission path instead.
fn handle_plain(shared: &ServerShared, req: Request) -> (Response, bool) {
    let engine = &shared.engine;
    match req {
        Request::Submit { .. } => unreachable!("SUBMIT is handled by the batch path"),
        Request::Status { ticket } => {
            let (phase, detail) = engine.status(ticket);
            (
                Response::Status {
                    ticket,
                    phase,
                    detail,
                },
                false,
            )
        }
        Request::Cancel { ticket } => {
            let ok = engine.cancel(ticket);
            (Response::Cancelled { ticket, ok }, false)
        }
        Request::List => (
            Response::Catalog {
                entries: engine.list(),
            },
            false,
        ),
        Request::Metrics => {
            let json = engine.metrics_json();
            // The METRICS cap is generous (MAX_FRAME minus headroom) but
            // a pathological registry must get a typed error, not a
            // silently truncated — i.e. syntactically invalid — JSON blob.
            let resp = if json.len() > MAX_METRICS_STR {
                Response::Error {
                    code: ErrorCode::Internal,
                    message: format!(
                        "metrics registry JSON is {} bytes, exceeding the {} byte frame cap",
                        json.len(),
                        MAX_METRICS_STR
                    ),
                }
            } else {
                Response::Metrics { json }
            };
            (resp, false)
        }
        Request::Shutdown => {
            let mut requested = shared.shutdown_requested.lock();
            *requested = true;
            shared.shutdown_cv.notify_all();
            (Response::Bye, true)
        }
    }
}
