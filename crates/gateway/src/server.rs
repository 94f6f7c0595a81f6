//! The TCP frontend: a sharded epoll reactor, frames in, frames out.
//!
//! The server is a thin shell over [`Engine`] and the crate's private
//! `reactor` module: `engine.shards()` event-loop threads share one listener,
//! each accepting into its own connection slab and submitting SUBMIT
//! batches under its own engine ticket shard (DESIGN.md §13). Decode errors are
//! answered with a typed `Error` response and the connection is closed —
//! a malformed peer can cost at most its own connection, never a worker
//! or an admission slot (admission happens after decoding succeeds).
//!
//! Shutdown is cooperative and graceful: the stop flag is raised, every
//! shard loop is woken through its eventfd, open connections are closed,
//! and the engine drains in-flight work before `shutdown()` returns.

use crate::engine::Engine;
use crate::reactor::Reactor;
use occam_obs::{Counter, Histogram};
use parking_lot::{Condvar, Mutex};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Connection/frame/reactor instruments, bound once per server.
pub(crate) struct ConnObs {
    pub(crate) opened: Counter,
    pub(crate) closed: Counter,
    pub(crate) frames_rx: Counter,
    pub(crate) frames_tx: Counter,
    pub(crate) proto_errors: Counter,
    /// Readiness events dispatched across all shard loops.
    pub(crate) reactor_events: Counter,
    /// Write-side `WouldBlock`s (EPOLLOUT re-arms; backpressure signal).
    pub(crate) reactor_wouldblock: Counter,
    /// SUBMITs admitted per batch-admission call.
    pub(crate) reactor_batch_len: Histogram,
}

/// State shared between the server handle and every shard loop.
pub(crate) struct ServerShared {
    pub(crate) engine: Engine,
    pub(crate) stop: AtomicBool,
    pub(crate) shutdown_requested: Mutex<bool>,
    pub(crate) shutdown_cv: Condvar,
    pub(crate) obs: ConnObs,
}

/// A running gateway server. Dropping the handle does not stop the
/// server; call [`GatewayServer::shutdown`].
pub struct GatewayServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    reactor: Option<Reactor>,
}

impl GatewayServer {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral port) and starts
    /// one reactor event loop per engine ticket shard.
    pub fn start(engine: Engine, addr: &str) -> std::io::Result<GatewayServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let reg = engine.runtime().obs().clone();
        let shared = Arc::new(ServerShared {
            engine,
            stop: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            obs: ConnObs {
                opened: reg.counter("gateway.conn.opened"),
                closed: reg.counter("gateway.conn.closed"),
                frames_rx: reg.counter("gateway.frames.rx"),
                frames_tx: reg.counter("gateway.frames.tx"),
                proto_errors: reg.counter("gateway.proto.errors"),
                reactor_events: reg.counter("gateway.reactor.events"),
                reactor_wouldblock: reg.counter("gateway.reactor.wouldblock"),
                reactor_batch_len: reg.histogram("gateway.reactor.batch_len"),
            },
        });
        let reactor = Reactor::start(&shared, &listener)?;
        Ok(GatewayServer {
            shared,
            addr: local,
            reactor: Some(reactor),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind this server.
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Blocks until some client sends a SHUTDOWN frame (used by the
    /// `gateway_serve` binary's main thread).
    pub fn wait_shutdown_requested(&self) {
        let mut requested = self.shared.shutdown_requested.lock();
        while !*requested {
            self.shared.shutdown_cv.wait(&mut requested);
        }
    }

    /// Graceful stop: raise the stop flag, wake and join every shard
    /// loop (closing their connections), and drain the engine.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shared
            .stop
            .store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(mut reactor) = self.reactor.take() {
            reactor.shutdown();
        }
        self.shared.engine.shutdown();
        // Release anyone parked in wait_shutdown_requested().
        let mut requested = self.shared.shutdown_requested.lock();
        *requested = true;
        self.shared.shutdown_cv.notify_all();
    }
}
