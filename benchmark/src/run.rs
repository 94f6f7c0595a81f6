//! One run of one workload: set up, warm up, measure, drain, check.

use crate::checks::output_checks;
use crate::driver::{connect_spread, drive, ConnOutput, Outcome, RunCtl, TaskRecord};
use crate::fleet::{Fleet, FleetShape};
use crate::host::HostProbe;
use crate::layers::{self, RegSnapshot, Traced};
use crate::stats::{highest_supported_percentile, percentile};
use crate::trace::Tracer;
use crate::workload::{self, LoopKind, Plan};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Caches fill and the worker pool spawns before the clock starts.
pub const WARMUP: Duration = Duration::from_secs(2);
/// How often a traced run samples replication acknowledgement lag.
const ACK_SAMPLE_PERIOD: Duration = Duration::from_millis(20);

/// Client-side numbers of one `[from, to)` window of a run.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    pub seconds: f64,
    /// Tasks whose `Completed` was observed inside the window.
    pub completed: u64,
    /// Completion rate inside the window: `(completed - 1)` over the time
    /// from the first completion to the last. (Dividing the count by the
    /// window length would read exactly rate × window on the open loop,
    /// by construction of its arrival schedule, whatever the system did
    /// between the first arrival and the last.)
    pub tasks_per_s: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub lat_p50_us: f64,
    pub lat_p90_us: f64,
    /// Informational: too few samples beyond it to gate on.
    pub lat_p99_us: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub supported_percentile: Option<f64>,
}

/// Closed loop: a task belongs to the window its completion fell in.
/// Open loop: latency belongs to the window the task was *due* in, so a
/// stall is charged to every task it delayed; throughput still counts
/// completions.
pub fn window_stats(records: &[&TaskRecord], kind: LoopKind, from: u64, to: u64) -> WindowStats {
    let inside = |t: u64| (from..to).contains(&t);
    let done = |r: &&&TaskRecord| r.outcome == Outcome::Completed;
    let mut done_at: Vec<u64> = records
        .iter()
        .filter(done)
        .map(|r| r.done_ns)
        .filter(|&t| inside(t))
        .collect();
    done_at.sort_unstable();
    let completed = done_at.len() as u64;
    let mut lat: Vec<u64> = records
        .iter()
        .filter(done)
        .filter(|r| match kind {
            LoopKind::Closed { .. } => inside(r.done_ns),
            LoopKind::Open => inside(r.start_ns),
        })
        .map(|r| r.latency_ns())
        .collect();
    lat.sort_unstable();
    let seconds = (to - from) as f64 / 1e9;
    let us = |p| percentile(&lat, p).map_or(0.0, |ns| ns as f64 / 1e3);
    WindowStats {
        seconds,
        completed,
        tasks_per_s: match (done_at.first(), done_at.last()) {
            (Some(first), Some(last)) if last > first => {
                (completed - 1) as f64 / ((last - first) as f64 / 1e9)
            }
            _ => completed as f64 / seconds,
        },
        samples: lat.len(),
        lat_p50_us: us(50.0),
        lat_p90_us: us(90.0),
        lat_p99_us: us(99.0),
        supported_percentile: highest_supported_percentile(lat.len()),
    }
}

/// The outcome of one run, untraced or traced.
pub struct RunResult {
    pub workload: &'static str,
    pub kind: LoopKind,
    pub seed: u64,
    pub input_hash: u64,
    pub input_tasks: usize,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the operator.
    pub failure_samples: Vec<String>,
    pub violations: Vec<String>,
    pub setup_s: f64,
    /// The host's slowdown factor over the set-up and over the measured
    /// window (see `host.rs`).
    pub setup_slowdown: f64,
    pub host_slowdown: f64,
    pub window: WindowStats,
    pub peak_rss_mb: f64,
    pub polls_per_task: f64,
    pub busy_retries: u64,
    /// Whether each driver connection got a reactor event loop of its own.
    pub conns_placed: bool,
    /// Open loop: median and worst generator lateness, µs.
    pub late_p50_us: f64,
    pub late_max_us: f64,
    pub cert_violations: u64,
    /// Of those, how many were latched when the measured window opened.
    pub cert_violations_at_window: u64,
    pub cert_first_violation: Option<String>,
    /// Traced runs only.
    pub traced: Option<Traced>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tasks that did not end `Completed`: aborted, cancelled, rejected, lost
/// by the gateway, or not terminal by their deadline.
pub fn failures<'a>(records: &[&'a TaskRecord]) -> Vec<&'a TaskRecord> {
    records
        .iter()
        .copied()
        .filter(|r| r.outcome != Outcome::Completed)
        .collect()
}

fn all_records(outputs: &[ConnOutput]) -> Vec<&TaskRecord> {
    outputs.iter().flat_map(|o| &o.records).collect()
}

/// Runs `name` once on a fresh fleet. Untraced: warm-up and a `seconds`
/// window. Traced: the shims installed, warm-up, then the same `seconds`
/// split into an untraced reference window (a third) and the traced
/// window (the rest), then the probes.
pub fn run_workload(
    name: &'static str,
    seed: u64,
    seconds: u64,
    traced: bool,
    shape: FleetShape,
    out_dir: Option<&std::path::Path>,
) -> RunResult {
    let reference = if traced {
        Duration::from_secs(seconds) / 3
    } else {
        Duration::ZERO
    };
    let window = Duration::from_secs(seconds) - reference;
    // Inputs first: the program sees only the generated SUBMIT frames.
    let plan: Plan = workload::build(
        name,
        seed,
        &shape,
        (WARMUP + reference).as_secs_f64(),
        window.as_secs_f64(),
    );
    let input_hash = plan.input_hash();

    let tracer = traced.then(Tracer::new);
    let ctl = RunCtl {
        epoch: tracer.as_ref().map_or_else(Instant::now, |t| t.epoch()),
        stop: AtomicBool::new(false),
        tracing: AtomicBool::new(false),
    };
    // Watches the host from before the set-up to after the window.
    let host = HostProbe::start(ctl.epoch);
    let setup_from = ctl.ns(Instant::now());
    let fleet = Fleet::build(shape, tracer.as_ref());
    let setup_to = ctl.ns(Instant::now());
    let bootstrap_s = fleet.bootstrap.as_secs_f64();

    let (clients, conns_placed) = connect_spread(&fleet.addr, 2, fleet.server.engine().shards());
    let run_start = Instant::now();
    let ref_from = ctl.ns(run_start + WARMUP);
    let from = ctl.ns(run_start + WARMUP + reference);
    let to = ctl.ns(run_start + WARMUP + reference + window);

    let mut reg_before: Option<RegSnapshot> = None;
    let mut reg_after: Option<RegSnapshot> = None;
    let mut ack_lag_ns: Vec<u64> = Vec::new();
    let mut cert_violations_at_window = 0;
    let outputs = std::thread::scope(|s| {
        if traced {
            // netdb.repl shim: while the traced window is open, time how
            // long the follower quorum takes to acknowledge what the
            // leader has committed. Its own thread, so no client waits.
            s.spawn(|| {
                let mut seen = fleet.db.read_view().commits();
                while !ctl.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(ACK_SAMPLE_PERIOD);
                    let commits = fleet.db.read_view().commits();
                    if ctl.tracing.load(Ordering::Relaxed) && commits > seen {
                        let started = Instant::now();
                        fleet
                            .set
                            .leader()
                            .wait_acked(commits, Duration::from_secs(5));
                        ack_lag_ns.push(started.elapsed().as_nanos() as u64);
                    }
                    seen = commits;
                }
            });
        }
        // The controller: flips tracing on at the window start, reads the
        // program's instruments at both window edges, raises stop.
        s.spawn(|| {
            std::thread::sleep(
                (run_start + WARMUP + reference).saturating_duration_since(Instant::now()),
            );
            cert_violations_at_window = fleet.cert.violations();
            if let Some(t) = &tracer {
                reg_before = Some(RegSnapshot::take(&fleet));
                t.enable(true);
                ctl.tracing.store(true, Ordering::SeqCst);
            }
            std::thread::sleep(
                (run_start + WARMUP + reference + window).saturating_duration_since(Instant::now()),
            );
            if let Some(t) = &tracer {
                t.enable(false);
                ctl.tracing.store(false, Ordering::SeqCst);
                reg_after = Some(RegSnapshot::take(&fleet));
            }
            ctl.stop.store(true, Ordering::SeqCst);
        });
        drive(clients, &plan, run_start, &ctl)
    });

    let records = all_records(&outputs);
    let stats = window_stats(&records, plan.kind, from, to);
    let attempted = records.len() as u64;
    let failures = failures(&records);
    let failure_samples = failures
        .iter()
        .take(5)
        .map(|r| {
            let t = plan.task(r.conn, r.index);
            format!(
                "{} {} -> {:?}: {}",
                t.workflow, t.scope, r.outcome, r.detail
            )
        })
        .collect();
    let mut violations = output_checks(&fleet, &plan, &outputs);
    // Read before the probes replay anything through the live certifier.
    let (cert_violations, cert_first_violation) =
        (fleet.cert.violations(), fleet.cert.first_violation());
    if !conns_placed {
        // Two connections on one event loop is another, slower regime.
        violations.push("the driver connections could not be given an event loop each".into());
    }
    if outputs.iter().any(|o| o.exhausted) {
        violations.push("a connection ran out of generated tasks inside the run".into());
    }
    let polls: u64 = records.iter().map(|r| u64::from(r.polls)).sum();
    let mut late: Vec<u64> = records.iter().map(|r| r.late_ns).collect();
    late.sort_unstable();

    let traced_result = tracer.as_ref().map(|t| {
        let ref_stats = window_stats(&records, plan.kind, ref_from, from);
        layers::collect(layers::TracedInputs {
            name,
            fleet: &fleet,
            plan: &plan,
            outputs: &outputs,
            tracer: t,
            before: reg_before.as_ref().expect("controller ran"),
            after: reg_after.as_ref().expect("controller ran"),
            window: (from, to),
            reference: &ref_stats,
            traced: &stats,
            bootstrap_s,
            ack_lag_ns: &ack_lag_ns,
            out_dir,
        })
    });

    if let Some(t) = &traced_result {
        violations.extend(t.probe_violations.iter().cloned());
    }
    let result = RunResult {
        workload: name,
        kind: plan.kind,
        seed,
        input_hash,
        input_tasks: plan.num_tasks(),
        attempted,
        failed: failures.len() as u64,
        failure_samples,
        violations,
        setup_s: fleet.setup.as_secs_f64(),
        setup_slowdown: host.slowdown(setup_from, setup_to),
        host_slowdown: host.slowdown(from, to),
        window: stats,
        peak_rss_mb: peak_rss_mb(),
        polls_per_task: polls as f64 / attempted.max(1) as f64,
        busy_retries: records.iter().map(|r| u64::from(r.busy)).sum(),
        conns_placed,
        late_p50_us: percentile(&late, 50.0).unwrap_or(0) as f64 / 1e3,
        late_max_us: late.last().copied().unwrap_or(0) as f64 / 1e3,
        cert_violations,
        cert_violations_at_window,
        cert_first_violation,
        traced: traced_result,
    };
    fleet.shutdown();
    result
}
