//! TCP transport for replication: a passive follower server and the
//! leader-side shipper, speaking the [`super::msg`] frame protocol.
//!
//! The handshake is follower-first: on accept, the follower sends
//! `Hello { follower, have_commits }` so the leader ships only the
//! missing suffix (or a synthesized-snapshot bootstrap when it no longer
//! holds that history). Every leader frame is answered by an
//! `Ack { commits }`, which both confirms durability and drives the next
//! suffix computation — the same ack-driven loop as the in-process
//! shipper, just with the network in the middle.

use super::follower::{Follower, Shipment};
use super::msg::{read_msg, write_msg, ReplMsg};
use crate::db::Database;
use crate::shard::StoreSnapshot;
use crate::wal::WalRecord;
use parking_lot::Mutex;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Synthesizes records that, replayed from empty, rebuild `snap` — the
/// wire form of a snapshot transfer. Deterministic: devices first (name
/// order), then links (key order), so two syntheses of equal snapshots
/// are byte-identical on the wire.
pub fn synthesize_snapshot_records(snap: &StoreSnapshot) -> Vec<WalRecord> {
    let store = snap.materialize();
    let mut out = Vec::with_capacity(store.devices.len() + store.links.len());
    for (name, dev) in &store.devices {
        out.push(WalRecord::InsertDevice {
            name: name.clone(),
            attrs: dev
                .attrs
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        });
    }
    for ((a, z), link) in &store.links {
        out.push(WalRecord::InsertLink {
            a_end: a.clone(),
            z_end: z.clone(),
            attrs: link
                .attrs
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        });
    }
    out
}

/// A TCP server exposing one [`Follower`] to a remote leader.
///
/// Each accepted connection is served on its own thread, so a leader can
/// reconnect (or a new leader can take over after failover) while an old
/// link is still draining. [`FollowerServer::shutdown`] force-closes every
/// live connection, so it never waits on a leader that stopped talking.
#[derive(Debug)]
pub struct FollowerServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    conns: Arc<ConnTable>,
}

/// Live-connection bookkeeping shared between the accept loop and
/// [`FollowerServer::shutdown`]: stream clones (for forced shutdown) and
/// the per-connection handler threads (for joining).
#[derive(Debug, Default)]
struct ConnTable {
    streams: Mutex<Vec<TcpStream>>,
    handlers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl FollowerServer {
    /// Binds `addr` (use port 0 for ephemeral) and serves the follower on
    /// a background thread until [`FollowerServer::shutdown`].
    pub fn start(follower: Arc<Follower>, addr: &str) -> io::Result<FollowerServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(ConnTable::default());
        let handle = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let Ok((stream, _)) = listener.accept() else {
                        break;
                    };
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(clone) = stream.try_clone() {
                        conns.streams.lock().push(clone);
                    }
                    let follower = Arc::clone(&follower);
                    let handler = std::thread::spawn(move || {
                        let _ = serve_conn(&follower, stream);
                    });
                    conns.handlers.lock().push(handler);
                }
            })
        };
        Ok(FollowerServer {
            addr,
            stop,
            handle: Some(handle),
            conns,
        })
    }

    /// The bound address (for the leader to connect to).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop, force-closes every live connection, and
    /// joins every server thread.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Force-close live connections so their handlers unblock even if
        // the leader side never closes its end.
        for stream in self.conns.streams.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        for h in self.conns.handlers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for FollowerServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_inner();
        }
    }
}

/// Serves one leader connection: greet with `Hello`, then apply every
/// shipped frame and answer with the follower's confirmed prefix.
fn serve_conn(follower: &Follower, mut stream: TcpStream) -> io::Result<()> {
    write_msg(
        &mut stream,
        &ReplMsg::Hello {
            follower: follower.id(),
            have_commits: follower.commits(),
        },
    )?;
    while let Some(msg) = read_msg(&mut stream)? {
        let shipped_at = Instant::now();
        let result = match msg {
            ReplMsg::Snapshot {
                base_commits,
                records,
            } => follower.ingest(Shipment::Snapshot {
                snap: StoreSnapshot::replay(&records),
                base_commits,
                shipped_at,
            }),
            ReplMsg::Entries { first_seq, records } => follower.ingest(Shipment::Entries {
                first_seq,
                records,
                shipped_at,
            }),
            ReplMsg::Heartbeat { commits } => follower.ingest(Shipment::Heartbeat { commits }),
            // Hello and Ack are follower-to-leader; ignore if echoed.
            ReplMsg::Hello { .. } | ReplMsg::Ack { .. } => Ok(()),
        };
        if let Err(e) = result {
            return Err(io::Error::new(io::ErrorKind::InvalidData, e));
        }
        write_msg(
            &mut stream,
            &ReplMsg::Ack {
                follower: follower.id(),
                commits: follower.commits(),
            },
        )?;
    }
    Ok(())
}

/// The leader side of one TCP shipping link.
#[derive(Debug)]
pub struct TcpShipper {
    stream: TcpStream,
    /// The follower's id, learned from its `Hello`.
    follower: u32,
    /// The follower's confirmed commit count (from `Hello`, then acks).
    confirmed: u64,
}

impl TcpShipper {
    /// Connects to a [`FollowerServer`] and reads its greeting.
    pub fn connect(addr: &SocketAddr) -> io::Result<TcpShipper> {
        let mut stream = TcpStream::connect(addr)?;
        match read_msg(&mut stream)? {
            Some(ReplMsg::Hello {
                follower,
                have_commits,
            }) => Ok(TcpShipper {
                stream,
                follower,
                confirmed: have_commits,
            }),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Hello, got {other:?}"),
            )),
        }
    }

    /// The remote follower's id.
    pub fn follower(&self) -> u32 {
        self.follower
    }

    /// The follower's last confirmed commit count.
    pub fn confirmed(&self) -> u64 {
        self.confirmed
    }

    /// Ships one round: the WAL suffix past the follower's confirmed
    /// prefix (or a synthesized-snapshot bootstrap, or a heartbeat), then
    /// reads the ack. Returns the follower's new confirmed count.
    pub fn ship_round(&mut self, db: &Database) -> io::Result<u64> {
        let msg = match db.wal_suffix_after_commits(self.confirmed) {
            None => {
                let view = db.read_view();
                ReplMsg::Snapshot {
                    base_commits: view.commits(),
                    records: synthesize_snapshot_records(&view),
                }
            }
            Some((first_seq, records)) if !records.is_empty() => {
                ReplMsg::Entries { first_seq, records }
            }
            Some(_) => ReplMsg::Heartbeat {
                commits: db.commits(),
            },
        };
        write_msg(&mut self.stream, &msg)?;
        match read_msg(&mut self.stream)? {
            Some(ReplMsg::Ack { commits, .. }) => {
                self.confirmed = self.confirmed.max(commits);
                Ok(self.confirmed)
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Ack, got {other:?}"),
            )),
        }
    }

    /// Ships rounds until the follower has confirmed every commit `db`
    /// currently holds; returns the confirmed count.
    pub fn sync_to(&mut self, db: &Database) -> io::Result<u64> {
        loop {
            let target = db.commits();
            let confirmed = self.ship_round(db)?;
            if confirmed >= target {
                return Ok(confirmed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occam_obs::Registry;

    #[test]
    fn tcp_suffix_shipping_converges_byte_identically() {
        let leader = Database::new();
        for i in 0..12 {
            leader
                .insert_device(&format!("dc01.pod00.sw{i:02}"), vec![])
                .unwrap();
        }
        let follower = Arc::new(Follower::new(7, &Registry::new()));
        let server = FollowerServer::start(Arc::clone(&follower), "127.0.0.1:0").unwrap();
        let mut shipper = TcpShipper::connect(&server.local_addr()).unwrap();
        assert_eq!(shipper.follower(), 7);
        assert_eq!(shipper.sync_to(&leader).unwrap(), 12);
        assert_eq!(follower.db().read_view(), leader.read_view());
        assert_eq!(follower.db().dump_wal(), leader.dump_wal());
        // Incremental rounds after more writes ship only the suffix.
        leader.insert_device("dc01.pod00.sw99", vec![]).unwrap();
        assert_eq!(shipper.sync_to(&leader).unwrap(), 13);
        assert_eq!(follower.db().read_view(), leader.read_view());
        server.shutdown();
    }

    #[test]
    fn tcp_snapshot_bootstrap_when_history_missing() {
        // A leader that itself bootstrapped from a snapshot no longer
        // holds the full history, so a fresh follower needs the wire
        // snapshot path.
        let origin = Database::new();
        for i in 0..6 {
            origin
                .insert_device(&format!("dc01.pod01.sw{i:02}"), vec![])
                .unwrap();
        }
        origin
            .insert_link("dc01.pod01.sw00", "dc01.pod01.sw01", vec![])
            .unwrap();
        let origin = origin.read_view();
        let leader = Database::new();
        leader.install_snapshot(&origin, origin.commits());
        leader.insert_device("dc01.pod01.sw90", vec![]).unwrap();

        let follower = Arc::new(Follower::new(1, &Registry::new()));
        let server = FollowerServer::start(Arc::clone(&follower), "127.0.0.1:0").unwrap();
        let mut shipper = TcpShipper::connect(&server.local_addr()).unwrap();
        assert_eq!(shipper.sync_to(&leader).unwrap(), 8);
        assert_eq!(follower.db().read_view(), leader.read_view());
        follower.db().read_view().self_check().unwrap();
        server.shutdown();
    }
}
