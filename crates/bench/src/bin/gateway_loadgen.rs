//! Load generator for the occam-gateway service frontend.
//!
//! Runs two phases and publishes both in `BENCH_gateway.json`:
//!
//! 1. **arrival** — `clients` concurrent connections driving a mixed
//!    management workload with Meta-shaped arrivals (the Poisson/
//!    log-normal trace model from `occam-workload`, compressed onto a
//!    wall-clock window). This is the latency-under-realistic-load
//!    phase; throughput is arrival-limited by construction.
//! 2. **burst** — ≥1024 concurrent connections submitting pipelined
//!    batches of read-only workflows as fast as the gateway admits
//!    them. This is the serving-throughput phase: it measures how many
//!    tasks/s the reactor + batch admission + worker pool sustain, and
//!    it is the number the CI gate holds (the seed's thread-per-connection
//!    server, since replaced by the reactor, topped out at ~1.1k tasks/s
//!    here).
//!
//! Both phases run the gateway in-process on an ephemeral port and
//! *gate* the service invariants: zero lost tasks (every accepted
//! ticket reaches a terminal phase), zero protocol errors, and a
//! bounded worker count (threads spawned ≤ configured pool size, never
//! one per task or per connection).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p occam-bench --bin gateway_loadgen \
//!     [clients] [tasks_per_client] [pool_size] [queue_cap] [window_ms]
//! # defaults: 32 8 8 48 1500; window_ms 0 = submit everything at once
//!
//! cargo run --release -p occam-bench --bin gateway_loadgen --smoke
//! # CI mode: smaller burst, hard gate at ≥5x the seed burst throughput
//!
//! cargo run --release -p occam-bench --bin gateway_loadgen shutdown [addr]
//! # sends one SHUTDOWN frame to a running gateway_serve
//! ```

use occam_bench::Bench;
use occam_core::PoolStats;
use occam_gateway::{
    Engine, EngineConfig, GatewayClient, GatewayServer, SubmitReply, SubmitSpec, WirePhase,
};
use occam_obs::json::{Fixed, Writer};
use occam_obs::{HistogramSnapshot, Registry};
use occam_workload::{synthesize, TraceConfig};
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Hard budget for one phase; exceeded only on a service hang.
const RUN_BUDGET: Duration = Duration::from_secs(120);

/// Burst-phase connection count (the acceptance floor is 1024).
const BURST_CONNS: usize = 1024;
/// Pipelined SUBMITs per wire batch in the burst phase.
const BURST_BATCH: usize = 32;
/// Burst throughput of the seed's thread-per-connection server — the CI
/// smoke gate requires ≥5x this.
const SEED_BURST_TASKS_PER_SEC: f64 = 1110.0;

/// One planned submission: `(arrival offset, workflow, scope, urgent,
/// params)`.
type Submission = (Duration, &'static str, String, bool, Vec<(String, String)>);

/// One client's share of the workload.
struct ClientPlan {
    submissions: Vec<Submission>,
}

#[derive(Default)]
struct ClientTally {
    accepted: u64,
    busy_retries: u64,
    rejected: u64,
    completed: u64,
    aborted: u64,
    cancelled: u64,
    lost: u64,
}

fn build_plans(
    clients: usize,
    tasks_per_client: usize,
    k: u32,
    window: Duration,
) -> Vec<ClientPlan> {
    let total = clients * tasks_per_client;
    let trace = synthesize(&TraceConfig {
        num_tasks: total,
        ..TraceConfig::default()
    });
    let last_arrival = trace.last().map(|t| t.arrival).unwrap_or(1.0).max(1e-9);
    let mut plans: Vec<ClientPlan> = (0..clients)
        .map(|_| ClientPlan {
            submissions: Vec::with_capacity(tasks_per_client),
        })
        .collect();
    for spec in &trace {
        // Compress trace hours onto the wall-clock window, preserving the
        // Poisson arrival shape.
        let offset = window.mul_f64(spec.arrival / last_arrival);
        let pod = (spec.id % k as u64) as u32;
        let scope = format!("dc01.pod{pod:02}.*");
        let (workflow, params): (&'static str, Vec<(String, String)>) = if !spec.write {
            ("status_audit", vec![])
        } else {
            match spec.id % 3 {
                0 => (
                    "config_push",
                    vec![("generation".into(), format!("gen-{}", spec.id))],
                ),
                1 => (
                    "firmware_upgrade",
                    vec![("version".into(), format!("fw-2.{}", spec.id))],
                ),
                _ => ("device_maintenance", vec![]),
            }
        };
        plans[(spec.id as usize) % clients].submissions.push((
            offset,
            workflow,
            scope,
            spec.urgent,
            params,
        ));
    }
    plans
}

fn run_client(addr: &str, plan: ClientPlan, start: Instant) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut client = GatewayClient::connect(addr).expect("connect to gateway");
    let mut tickets: Vec<u64> = Vec::with_capacity(plan.submissions.len());
    for (offset, workflow, scope, urgent, params) in plan.submissions {
        if let Some(gap) = offset.checked_sub(start.elapsed()) {
            std::thread::sleep(gap);
        }
        loop {
            match client
                .submit(workflow, &scope, urgent, &params)
                .expect("submit roundtrip")
            {
                SubmitReply::Accepted(t) => {
                    tally.accepted += 1;
                    tickets.push(t);
                    break;
                }
                SubmitReply::Busy(retry_after_ms) => {
                    // The admission contract: shed now, retry after the
                    // hint. The load generator honors it verbatim.
                    tally.busy_retries += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                SubmitReply::Rejected(code, msg) => {
                    eprintln!("rejected {workflow} on {scope}: {code:?} {msg}");
                    tally.rejected += 1;
                    break;
                }
            }
        }
    }
    // Poll every accepted ticket to a terminal phase.
    for ticket in tickets {
        loop {
            if start.elapsed() > RUN_BUDGET {
                tally.lost += 1;
                break;
            }
            let (phase, _detail) = client.status(ticket).expect("status roundtrip");
            match phase {
                WirePhase::Completed => {
                    tally.completed += 1;
                    break;
                }
                WirePhase::Aborted => {
                    tally.aborted += 1;
                    break;
                }
                WirePhase::Cancelled => {
                    tally.cancelled += 1;
                    break;
                }
                WirePhase::Unknown => {
                    tally.lost += 1;
                    break;
                }
                WirePhase::Queued | WirePhase::Running => {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }
    tally
}

/// `q`-quantile of an optional histogram (0 when nothing was recorded).
fn pct(snap: &Option<HistogramSnapshot>, q: f64) -> u64 {
    snap.as_ref().map(|s| s.quantile(q)).unwrap_or(0)
}

/// The `{p50, p90, p99[, count]}` latency object both phases report.
fn write_quantiles(w: &mut Writer, snap: &Option<HistogramSnapshot>, with_count: bool) {
    w.object(|w| {
        w.field("p50", pct(snap, 0.50))
            .field("p90", pct(snap, 0.90))
            .field("p99", pct(snap, 0.99));
        if with_count {
            w.field("count", snap.as_ref().map(|s| s.count).unwrap_or(0));
        }
    });
}

fn write_pool(w: &mut Writer, stats: &PoolStats) {
    w.object(|w| {
        w.field("size", stats.size)
            .field("spawned", stats.spawned)
            .field("peak_active", stats.peak_active)
            .field("executed", stats.executed);
    });
}

/// `{frames_rx, frames_tx, conn_opened, conn_closed[, proto_errors]}`.
fn write_gateway_counters(w: &mut Writer, reg: &Registry, with_proto_errors: bool) {
    w.object(|w| {
        w.field("frames_rx", reg.counter_value("gateway.frames.rx"))
            .field("frames_tx", reg.counter_value("gateway.frames.tx"))
            .field("conn_opened", reg.counter_value("gateway.conn.opened"))
            .field("conn_closed", reg.counter_value("gateway.conn.closed"));
        if with_proto_errors {
            w.field("proto_errors", reg.counter_value("gateway.proto.errors"));
        }
    });
}

/// Runs the arrival phase; returns the writer of its `"arrival"` report
/// object and the one-line summary.
#[allow(clippy::too_many_arguments)]
fn arrival_phase(
    clients: usize,
    tasks_per_client: usize,
    pool_size: usize,
    queue_cap: usize,
    window: Duration,
    k: u32,
    bench: &mut Bench,
) -> (impl FnOnce(&mut Writer), String) {
    let (runtime, _ft) = occam::emulated_deployment(1, k);
    let engine = Engine::new(
        runtime,
        EngineConfig {
            pool_size,
            queue_cap,
            ..EngineConfig::default()
        },
    );
    let mut server =
        GatewayServer::start(engine, "127.0.0.1:0").expect("bind ephemeral gateway port");
    let addr = server.local_addr().to_string();
    println!(
        "[arrival] gateway on {addr}: {clients} clients x {tasks_per_client} tasks \
         (pool={pool_size}, queue_cap={queue_cap})"
    );

    let plans = build_plans(clients, tasks_per_client, k, window);
    let start = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .into_iter()
            .map(|plan| {
                let addr = addr.clone();
                s.spawn(move || run_client(&addr, plan, start))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();

    let mut total = ClientTally::default();
    for t in &tallies {
        total.accepted += t.accepted;
        total.busy_retries += t.busy_retries;
        total.rejected += t.rejected;
        total.completed += t.completed;
        total.aborted += t.aborted;
        total.cancelled += t.cancelled;
        total.lost += t.lost;
    }
    let stats = server.engine().runtime().pool_stats();
    let reg = server.engine().runtime().obs().clone();
    server.shutdown();

    let submitted = (clients * tasks_per_client) as u64;
    let throughput = total.completed as f64 / wall.as_secs_f64();
    let e2e = reg.histogram_snapshot("gateway.e2e_ns");
    let summary = format!(
        "[arrival] completed {}/{} ({} aborted, {} cancelled, {} busy retries) in {:.2}s — \
         {:.1} tasks/s; e2e p50/p90/p99 {:.2}/{:.2}/{:.2} ms",
        total.completed,
        submitted,
        total.aborted,
        total.cancelled,
        total.busy_retries,
        wall.as_secs_f64(),
        throughput,
        pct(&e2e, 0.50) as f64 / 1e6,
        pct(&e2e, 0.90) as f64 / 1e6,
        pct(&e2e, 0.99) as f64 / 1e6
    );
    println!("{summary}");

    // Service invariants (CI smoke relies on a nonzero exit here).
    bench.gate(
        total.lost == 0,
        format!(
            "[arrival] every accepted ticket goes terminal ({} lost)",
            total.lost
        ),
    );
    bench.gate(
        total.rejected == 0,
        format!(
            "[arrival] no typed rejections during steady state ({} rejected)",
            total.rejected
        ),
    );
    bench.gate(
        stats.spawned <= pool_size,
        format!(
            "[arrival] worker pool within its bound: spawned {} <= pool_size {pool_size}",
            stats.spawned
        ),
    );
    bench.gate(total.completed > 0, "[arrival] some task completed");
    let proto_errors = reg.counter_value("gateway.proto.errors");
    bench.gate(
        proto_errors == 0,
        format!("[arrival] no protocol errors ({proto_errors})"),
    );

    let report = move |w: &mut Writer| {
        w.object(|w| {
            w.key("config").object(|w| {
                w.field("clients", clients)
                    .field("tasks_per_client", tasks_per_client)
                    .field("pool_size", pool_size)
                    .field("queue_cap", queue_cap)
                    .field("fat_tree_k", k);
            });
            w.key("totals").object(|w| {
                w.field("submitted", submitted)
                    .field("accepted", total.accepted)
                    .field("busy_retries", total.busy_retries)
                    .field("rejected", total.rejected)
                    .field("completed", total.completed)
                    .field("aborted", total.aborted)
                    .field("cancelled", total.cancelled)
                    .field("lost", total.lost);
            });
            write_pool(w.key("pool"), &stats);
            w.field("wall_secs", Fixed(wall.as_secs_f64(), 3))
                .field("throughput_tasks_per_sec", Fixed(throughput, 1));
            write_quantiles(w.key("e2e_ns"), &e2e, true);
            let queue_wait = reg.histogram_snapshot("gateway.queue_wait_ns");
            write_quantiles(w.key("queue_wait_ns"), &queue_wait, false);
            write_gateway_counters(w.key("gateway_counters"), &reg, true);
        });
    };
    (report, summary)
}

/// Serving-throughput phase: `conns` connections submit `per_conn`
/// read-only workflows each, in pipelined batches of [`BURST_BATCH`],
/// as fast as admission allows. A handful of driver threads multiplex
/// the connections (the gateway must cope with 1024 sockets; the load
/// generator does not need 1024 threads to saturate it). The clock
/// runs from the post-connect barrier until every admitted task is
/// terminal, so the number is end-to-end serving throughput, not just
/// admission rate. Returns the writer of the `"burst"` report object.
fn burst_phase(
    conns: usize,
    per_conn: usize,
    pool_size: usize,
    queue_cap: usize,
    bench: &mut Bench,
) -> impl FnOnce(&mut Writer) {
    let k: u32 = 6;
    let total = conns * per_conn;
    let (runtime, _ft) = occam::emulated_deployment(1, k);
    let engine = Engine::new(
        runtime,
        EngineConfig {
            pool_size,
            queue_cap,
            // Keep every burst record resident so the lost-ticket audit
            // below can see all of them.
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
        "[burst] gateway on {addr}: {conns} conns x {per_conn} tasks, batch={BURST_BATCH} \
         (pool={pool_size}, queue_cap={queue_cap}, shards={shards})"
    );

    let drivers = conns.clamp(1, 8);
    let per_driver = conns.div_ceil(drivers);
    let barrier = Barrier::new(drivers + 1);
    let (tickets, busy_retries, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..drivers)
            .map(|d| {
                let addr = &addr;
                let barrier = &barrier;
                let my_conns = per_driver.min(conns - (d * per_driver).min(conns));
                s.spawn(move || {
                    let mut clients: Vec<GatewayClient> = (0..my_conns)
                        .map(|_| GatewayClient::connect(addr).expect("connect to gateway"))
                        .collect();
                    let mut remaining: Vec<usize> = vec![per_conn; my_conns];
                    barrier.wait();
                    let mut tickets: Vec<u64> = Vec::with_capacity(my_conns * per_conn);
                    let mut busy_retries = 0u64;
                    let started = Instant::now();
                    while remaining.iter().any(|&r| r > 0) {
                        assert!(started.elapsed() < RUN_BUDGET, "[burst] submission hang");
                        let mut progressed = false;
                        for (ci, client) in clients.iter_mut().enumerate() {
                            if remaining[ci] == 0 {
                                continue;
                            }
                            let n = remaining[ci].min(BURST_BATCH);
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
                                        panic!("[burst] rejected: {code:?} {msg}")
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
            assert!(start.elapsed() < RUN_BUDGET, "[burst] drain hang");
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
        "[burst] {accepted}/{total} tasks over {conns} conns in {:.2}s — {tasks_per_sec:.0} tasks/s \
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
        format!("[burst] no connection leak ({opened} opened, {closed} closed)"),
    );
    bench.gate(
        stats.spawned <= pool_size,
        format!(
            "[burst] worker pool within its bound: spawned {} <= pool_size {pool_size}",
            stats.spawned
        ),
    );
    bench.gate(lost == 0, format!("[burst] no lost tasks ({lost} lost)"));
    bench.gate(
        proto_errors == 0,
        format!("[burst] no protocol errors ({proto_errors})"),
    );
    let floor = if bench.smoke() {
        5.0 * SEED_BURST_TASKS_PER_SEC
    } else {
        10_000.0
    };
    bench.gate(
        tasks_per_sec >= floor,
        format!("[burst] throughput {tasks_per_sec:.1} tasks/s >= floor {floor:.1}"),
    );

    move |w: &mut Writer| {
        let batch_len = reg.histogram_snapshot("gateway.reactor.batch_len");
        w.object(|w| {
            w.field("conns", conns)
                .field("tasks_per_conn", per_conn)
                .field("pipeline_batch", BURST_BATCH)
                .field("pool_size", pool_size)
                .field("queue_cap", queue_cap)
                .field("shards", shards)
                .field("submitted", total)
                .field("accepted", accepted)
                .field("busy_retries", busy_retries)
                .field("lost", lost)
                .field("proto_errors", proto_errors)
                .field("wall_secs", Fixed(wall.as_secs_f64(), 3))
                .field("tasks_per_sec", Fixed(tasks_per_sec, 1));
            write_quantiles(w.key("e2e_ns"), &e2e, true);
            w.key("reactor").object(|w| {
                w.field("events", reg.counter_value("gateway.reactor.events"))
                    .field(
                        "wouldblock",
                        reg.counter_value("gateway.reactor.wouldblock"),
                    )
                    .field("batch_len_p50", pct(&batch_len, 0.50))
                    .field("batch_len_p99", pct(&batch_len, 0.99));
            });
            write_pool(w.key("pool"), &stats);
            write_gateway_counters(w.key("gateway_counters"), &reg, false);
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
    let smoke = bench.smoke();

    // Smoke defaults keep the arrival phase CI-sized; the burst phase
    // always runs at full connection count (that is the contract under
    // test) but with a shorter pipeline per connection.
    let (d_clients, d_tasks, d_pool, d_queue, d_window) = if smoke {
        (8, 4, 4, 16, 200)
    } else {
        (32, 8, 8, 48, 1500)
    };
    let clients: usize = bench.arg(0, "clients").unwrap_or(d_clients);
    let tasks_per_client: usize = bench.arg(1, "tasks_per_client").unwrap_or(d_tasks);
    let pool_size: usize = bench.arg(2, "pool_size").unwrap_or(d_pool);
    let queue_cap: usize = bench.arg(3, "queue_cap").unwrap_or(d_queue);
    let window = Duration::from_millis(bench.arg(4, "window_ms").unwrap_or(d_window));

    let (arrival, summary) = arrival_phase(
        clients,
        tasks_per_client,
        pool_size,
        queue_cap,
        window,
        6,
        &mut bench,
    );
    let burst_per_conn = if smoke { 8 } else { 32 };
    let burst = burst_phase(BURST_CONNS, burst_per_conn, 2, 16_384, &mut bench);
    println!("{summary}");

    bench.finish(|w| {
        arrival(w.key("arrival"));
        burst(w.key("burst"));
    })
}
