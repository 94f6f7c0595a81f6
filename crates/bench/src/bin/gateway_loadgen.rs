//! Connection-scale check for the occam-gateway service frontend,
//! published as `BENCH_gateway.json`.
//!
//! 1,024 concurrent connections submit pipelined batches of read-only
//! workflows to an in-process gateway on an ephemeral port, as fast as
//! admission allows. The four `BENCHMARK.json` workloads drive the same
//! SUBMIT→response path at a handful of connections; this is the one
//! fact none of them has — that the reactor, batch admission and the
//! bounded worker pool hold up under a thousand sockets. Throughput and
//! latency are reported; the gates are the service invariants only: no
//! lost ticket (every accepted one reaches a terminal phase), no
//! connection leak, no protocol error, and workers spawned ≤ the pool
//! size (never one per task or per connection).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p occam-bench --bin gateway_loadgen [-- --smoke]
//! # --smoke: same 1,024 connections, a shorter pipeline per connection
//!
//! cargo run --release -p occam-bench --bin gateway_loadgen shutdown [addr]
//! # sends one SHUTDOWN frame to a running gateway_serve
//! ```

use occam_bench::Bench;
use occam_gateway::{Engine, EngineConfig, GatewayClient, GatewayServer, SubmitReply, SubmitSpec};
use occam_obs::json::{Fixed, Writer};
use occam_obs::HistogramSnapshot;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Hard budget for the run; exceeded only on a service hang.
const RUN_BUDGET: Duration = Duration::from_secs(120);

/// Concurrent connections (the contract under test).
const CONNS: usize = 1024;
/// Pipelined SUBMITs per wire batch.
const BATCH: usize = 32;
/// Worker pool size the spawned-thread bound is checked against.
const POOL_SIZE: usize = 2;
/// Admission queue bound: the smoke run (8,192 tasks) fits; the full run
/// (32,768) oversubscribes it 2x, so `BUSY` shedding is exercised too.
const QUEUE_CAP: usize = 16_384;

/// `q`-quantile of an optional histogram (0 when nothing was recorded).
fn pct(snap: &Option<HistogramSnapshot>, q: f64) -> u64 {
    snap.as_ref().map(|s| s.quantile(q)).unwrap_or(0)
}

/// Runs the load and checks the invariants; returns the writer of the
/// report's fields. A handful of driver threads multiplex the
/// connections (the gateway must cope with 1,024 sockets; the load
/// generator does not need 1,024 threads to saturate it). The clock runs
/// from the post-connect barrier until every admitted task is terminal,
/// so the reported rate is end-to-end serving throughput, not just
/// admission rate.
fn run(bench: &mut Bench) -> impl FnOnce(&mut Writer) {
    let per_conn = if bench.smoke() { 8 } else { 32 };
    let k: u32 = 6;
    let total = CONNS * per_conn;
    let (runtime, _ft) = occam::emulated_deployment(1, k);
    let engine = Engine::new(
        runtime,
        EngineConfig {
            pool_size: POOL_SIZE,
            queue_cap: QUEUE_CAP,
            // Keep every record resident so the lost-ticket audit below
            // can see all of them.
            terminal_retain: total + 1024,
            ..EngineConfig::default()
        },
    );
    let mut server =
        GatewayServer::start(engine, "127.0.0.1:0").expect("bind ephemeral gateway port");
    let addr = server.local_addr().to_string();
    let engine = server.engine().clone();
    let shards = engine.shards();
    println!(
        "gateway on {addr}: {CONNS} conns x {per_conn} tasks, batch={BATCH} \
         (pool={POOL_SIZE}, queue_cap={QUEUE_CAP}, shards={shards})"
    );

    let drivers = 8;
    let per_driver = CONNS / drivers;
    let barrier = Barrier::new(drivers + 1);
    let (tickets, busy_retries, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..drivers)
            .map(|_| {
                let addr = &addr;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut clients: Vec<GatewayClient> = (0..per_driver)
                        .map(|_| GatewayClient::connect(addr).expect("connect to gateway"))
                        .collect();
                    let mut remaining: Vec<usize> = vec![per_conn; per_driver];
                    barrier.wait();
                    let mut tickets: Vec<u64> = Vec::with_capacity(per_driver * per_conn);
                    let mut busy_retries = 0u64;
                    let started = Instant::now();
                    while remaining.iter().any(|&r| r > 0) {
                        assert!(started.elapsed() < RUN_BUDGET, "submission hang");
                        let mut progressed = false;
                        for (ci, client) in clients.iter_mut().enumerate() {
                            if remaining[ci] == 0 {
                                continue;
                            }
                            let n = remaining[ci].min(BATCH);
                            let specs: Vec<SubmitSpec> = (0..n)
                                .map(|j| SubmitSpec {
                                    workflow: "status_audit".into(),
                                    scope: format!("dc01.pod{:02}.*", (ci + j) % k as usize),
                                    urgent: false,
                                    params: vec![],
                                })
                                .collect();
                            for reply in client.submit_batch(&specs).expect("pipelined submit") {
                                match reply {
                                    SubmitReply::Accepted(t) => {
                                        tickets.push(t);
                                        remaining[ci] -= 1;
                                        progressed = true;
                                    }
                                    SubmitReply::Busy(_) => busy_retries += 1,
                                    SubmitReply::Rejected(code, msg) => {
                                        panic!("rejected: {code:?} {msg}")
                                    }
                                }
                            }
                        }
                        if !progressed {
                            // Whole sweep shed: honor the backoff hint.
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                    (tickets, busy_retries)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut tickets: Vec<u64> = Vec::with_capacity(total);
        let mut busy_retries = 0u64;
        for h in handles {
            let (t, b) = h.join().unwrap();
            tickets.extend_from_slice(&t);
            busy_retries += b;
        }
        // All submissions admitted; now wait for the pool to drain them.
        while !(engine.queued() == 0 && engine.all_terminal()) {
            assert!(start.elapsed() < RUN_BUDGET, "drain hang");
            std::thread::sleep(Duration::from_millis(1));
        }
        (tickets, busy_retries, start.elapsed())
    });

    // Lost-ticket audit: every admitted ticket must be terminal now.
    let mut lost = 0u64;
    for &t in &tickets {
        if !engine.status(t).0.is_terminal() {
            lost += 1;
        }
    }
    let accepted = tickets.len() as u64;
    let stats = engine.runtime().pool_stats();
    let reg = engine.runtime().obs().clone();
    server.shutdown();

    let tasks_per_sec = accepted as f64 / wall.as_secs_f64();
    let proto_errors = reg.counter_value("gateway.proto.errors");
    let e2e = reg.histogram_snapshot("gateway.e2e_ns");
    println!(
        "{accepted}/{total} tasks over {CONNS} conns in {:.2}s — {tasks_per_sec:.0} tasks/s \
         ({busy_retries} busy retries, {lost} lost, {proto_errors} proto errors); \
         e2e p99 {:.2} ms",
        wall.as_secs_f64(),
        pct(&e2e, 0.99) as f64 / 1e6
    );

    let (opened, closed) = (
        reg.counter_value("gateway.conn.opened"),
        reg.counter_value("gateway.conn.closed"),
    );
    bench.gate(
        opened == closed,
        format!("no connection leak ({opened} opened, {closed} closed)"),
    );
    bench.gate(
        stats.spawned <= POOL_SIZE,
        format!(
            "worker pool within its bound: spawned {} <= pool size {POOL_SIZE}",
            stats.spawned
        ),
    );
    bench.gate(lost == 0, format!("no lost tasks ({lost} lost)"));
    bench.gate(
        proto_errors == 0,
        format!("no protocol errors ({proto_errors})"),
    );

    move |w: &mut Writer| {
        let batch_len = reg.histogram_snapshot("gateway.reactor.batch_len");
        w.field("bench", "gateway_loadgen")
            .field("conns", CONNS)
            .field("tasks_per_conn", per_conn)
            .field("pipeline_batch", BATCH)
            .field("pool_size", POOL_SIZE)
            .field("queue_cap", QUEUE_CAP)
            .field("shards", shards)
            .field("submitted", total)
            .field("accepted", accepted)
            .field("busy_retries", busy_retries)
            .field("lost", lost)
            .field("proto_errors", proto_errors)
            .field("wall_secs", Fixed(wall.as_secs_f64(), 3))
            .field("tasks_per_sec", Fixed(tasks_per_sec, 1));
        w.key("e2e_ns").object(|w| {
            w.field("p50", pct(&e2e, 0.50))
                .field("p90", pct(&e2e, 0.90))
                .field("p99", pct(&e2e, 0.99))
                .field("count", e2e.as_ref().map_or(0, |s| s.count));
        });
        w.key("reactor").object(|w| {
            w.field("events", reg.counter_value("gateway.reactor.events"))
                .field(
                    "wouldblock",
                    reg.counter_value("gateway.reactor.wouldblock"),
                )
                .field("batch_len_p50", pct(&batch_len, 0.50))
                .field("batch_len_p99", pct(&batch_len, 0.99));
        });
        w.key("pool").object(|w| {
            w.field("size", stats.size)
                .field("spawned", stats.spawned)
                .field("peak_active", stats.peak_active)
                .field("executed", stats.executed);
        });
        w.key("gateway_counters").object(|w| {
            w.field("frames_rx", reg.counter_value("gateway.frames.rx"))
                .field("frames_tx", reg.counter_value("gateway.frames.tx"))
                .field("conn_opened", opened)
                .field("conn_closed", closed);
        });
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("shutdown") {
        let addr = std::env::args()
            .nth(2)
            .unwrap_or_else(|| "127.0.0.1:7421".into());
        let mut client = GatewayClient::connect(&addr).expect("connect to gateway");
        client.shutdown().expect("shutdown roundtrip");
        println!("gateway at {addr} acknowledged shutdown");
        return ExitCode::SUCCESS;
    }
    let mut bench = Bench::from_args("gateway");
    let report = run(&mut bench);
    bench.finish(report)
}
