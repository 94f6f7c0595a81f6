//! The per-layer metrics of a traced run, assembled from three outside
//! sources: **shim** (harness wrappers in the live path), **probe**
//! (timed replays against public functions) and **reg** (deltas of
//! instruments the program already has, read through its registry).

use crate::driver::{ConnOutput, Outcome, TaskRecord};
use crate::fleet::Fleet;
use crate::probes::{run_probes, ProbeResults};
use crate::run::WindowStats;
use crate::stats::{median_us, ratio};
use crate::trace::{write_span, DeviceSpan, SpanLine, Tracer};
use crate::workload::{Plan, Task};
use occam::obs::HistogramSnapshot;
use occam::regex::Pattern;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Reported for a **reg** metric whose instrument the program no longer
/// has (the contract wants a number where the issue said `null`).
pub const ABSENT: f64 = -1.0;

/// `(name, unit, better)` of every per-layer metric, in print order.
/// `BENCHMARK.json`'s `per_layer` list is this table; a unit test holds
/// the two together.
pub const PER_LAYER: [(&str, &str, &str); 53] = [
    ("gateway.submit_rtt_us", "us", "lower"),
    ("gateway.status_rtt_us", "us", "lower"),
    ("gateway.admit_us", "us", "lower"),
    ("gateway.queue_wait_us", "us", "lower"),
    ("gateway.busy_retries", "count", "lower"),
    ("gateway.polls_per_task", "count", "lower"),
    ("core.direct_run_us", "us", "lower"),
    ("core.lock_wait_us", "us", "lower"),
    ("core.lock_wait_share", "ratio", "lower"),
    ("core.lock_waits_per_task", "count", "lower"),
    ("core.occ_commit_ratio", "ratio", "higher"),
    ("core.occ_fallbacks", "count", "lower"),
    ("core.retries", "count", "lower"),
    ("core.pool_peak_active", "count", "lower"),
    ("spec.compile_us", "us", "lower"),
    ("spec.compiles_per_task", "count", "lower"),
    ("regex.compile_us", "us", "lower"),
    ("regex.relate_us", "us", "lower"),
    ("objtree.insert_us", "us", "lower"),
    ("objtree.release_us", "us", "lower"),
    ("objtree.relate_cache_hit_ratio", "ratio", "higher"),
    ("objtree.splits_per_task", "count", "lower"),
    ("sched.invocation_us", "us", "lower"),
    ("sched.invocations_per_task", "count", "lower"),
    ("netdb.read_view_us", "us", "lower"),
    ("netdb.scoped_read_us", "us", "lower"),
    ("netdb.scoped_read_under_write_us", "us", "lower"),
    ("netdb.commit_us", "us", "lower"),
    ("netdb.view_refresh_us", "us", "lower"),
    ("netdb.commits_per_task", "count", "lower"),
    ("netdb.wal_records_per_task", "count", "lower"),
    ("netdb.view_hit_ratio", "ratio", "higher"),
    ("netdb.repl.bootstrap_s", "s", "lower"),
    ("netdb.repl.ack_lag_us", "us", "lower"),
    ("netdb.repl.follower_read_share", "ratio", "higher"),
    ("netdb.repl.stale_fallbacks", "count", "lower"),
    ("cert.commit_us", "us", "lower"),
    ("cert.check_us", "us", "lower"),
    ("cert.edges_per_commit", "count", "lower"),
    ("cert.violations", "count", "lower"),
    ("emunet.execute_us", "us", "lower"),
    ("emunet.calls_per_task", "count", "lower"),
    ("emunet.devices_per_call", "count", "lower"),
    ("emunet.busy_share", "ratio", "lower"),
    ("emunet.drain_window_us", "us", "lower"),
    ("update.diff_us", "us", "lower"),
    ("update.synth_us", "us", "lower"),
    ("update.verify_us", "us", "lower"),
    ("update.exec_us", "us", "lower"),
    ("update.waves_per_plan", "count", "lower"),
    ("rollback.plan_us", "us", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("obs.attribution_gap_pct", "%", "lower"),
];

/// The program's own instruments at one instant.
pub struct RegSnapshot {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistogramSnapshot>,
    cert_violations: u64,
}

impl RegSnapshot {
    pub fn take(fleet: &Fleet) -> RegSnapshot {
        let reg = fleet.rt.obs();
        RegSnapshot {
            counters: reg.counters().into_iter().collect(),
            hists: reg.histograms().into_iter().collect(),
            cert_violations: fleet.cert.violations(),
        }
    }
}

/// What the instruments recorded between two snapshots.
struct RegDelta<'a> {
    before: &'a RegSnapshot,
    after: &'a RegSnapshot,
}

impl RegDelta<'_> {
    /// Counter increase over the window; `None` if the program has no
    /// such counter.
    fn counter(&self, name: &str) -> Option<f64> {
        let after = *self.after.counters.get(name)?;
        let before = self.before.counters.get(name).copied().unwrap_or(0);
        Some(after.saturating_sub(before) as f64)
    }

    /// The samples a histogram took inside the window.
    fn hist(&self, name: &str) -> Option<HistogramSnapshot> {
        let after = self.after.hists.get(name)?;
        let Some(before) = self.before.hists.get(name) else {
            return Some(after.clone());
        };
        Some(HistogramSnapshot {
            count: after.count - before.count,
            sum: after.sum - before.sum,
            min: after.min,
            max: after.max,
            buckets: after
                .buckets
                .iter()
                .zip(&before.buckets)
                .map(|(a, b)| a - b)
                .collect(),
        })
    }

    fn hist_median_us(&self, name: &str) -> f64 {
        self.hist(name)
            .map_or(ABSENT, |h| h.quantile(0.5) as f64 / 1e3)
    }

    fn per(&self, name: &str, den: f64) -> f64 {
        self.counter(name).map_or(ABSENT, |n| ratio(n, den))
    }

    /// `hits / (hits + misses)`.
    fn share(&self, hits: &str, misses: &str) -> f64 {
        match (self.counter(hits), self.counter(misses)) {
            (Some(h), Some(m)) => ratio(h, h + m),
            _ => ABSENT,
        }
    }
}

/// Everything a traced run adds to a [`crate::run::RunResult`].
pub struct Traced {
    /// One value per [`PER_LAYER`] row, same order.
    pub metrics: Vec<f64>,
    pub reference: WindowStats,
    pub direct_run_by_workflow: BTreeMap<&'static str, (usize, f64)>,
    pub spans_written: usize,
    pub device_spans_attributed: usize,
    pub device_spans: usize,
    pub trace_file: Option<PathBuf>,
    pub probe_violations: Vec<String>,
}

pub struct TracedInputs<'a> {
    pub name: &'static str,
    pub fleet: &'a Fleet,
    pub plan: &'a Plan,
    pub outputs: &'a [ConnOutput],
    pub tracer: &'a Tracer,
    pub before: &'a RegSnapshot,
    pub after: &'a RegSnapshot,
    /// The traced window, ns since the run epoch.
    pub window: (u64, u64),
    pub reference: &'a WindowStats,
    pub traced: &'a WindowStats,
    pub bootstrap_s: f64,
    /// Sampled `Leader::wait_acked` durations inside the window.
    pub ack_lag_ns: &'a [u64],
    pub out_dir: Option<&'a Path>,
}

pub fn collect(inp: TracedInputs<'_>) -> Traced {
    let (from, to) = inp.window;
    let window_s = (to - from) as f64 / 1e9;
    let inside = |t: u64| (from..to).contains(&t);
    let reg = RegDelta {
        before: inp.before,
        after: inp.after,
    };

    // The traced window's tasks, in completion order: what the shims saw
    // and what the probes replay.
    let mut window_recs: Vec<&TaskRecord> = inp
        .outputs
        .iter()
        .flat_map(|o| &o.records)
        .filter(|r| r.outcome == Outcome::Completed && inside(r.done_ns))
        .collect();
    window_recs.sort_by_key(|r| r.done_ns);
    let tasks = window_recs.len() as f64;
    let window_tasks: Vec<&Task> = window_recs
        .iter()
        .map(|r| inp.plan.task(r.conn, r.index))
        .collect();

    // shim: client spans.
    let mut submit_rtt: Vec<u64> = window_recs
        .iter()
        .map(|r| r.submit_end_ns - r.submit_start_ns)
        .collect();
    let mut status_rtt: Vec<u64> = inp
        .outputs
        .iter()
        .flat_map(|o| &o.status_rtts)
        .map(|&rtt| u64::from(rtt))
        .collect();
    let polls: u64 = window_recs.iter().map(|r| u64::from(r.polls)).sum();
    let busy: u64 = window_recs.iter().map(|r| u64::from(r.busy)).sum();
    let mut ack_lag: Vec<u64> = inp.ack_lag_ns.to_vec();

    // shim: device spans.
    let mut device_spans = inp.tracer.take_device_spans();
    device_spans.sort_by_key(|s| s.start_ns);
    let mut execute: Vec<u64> = device_spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    let busy_ns: u64 = execute.iter().sum();
    let devices_called: usize = device_spans.iter().map(|s| s.devices).sum();
    let mut drain_at: HashMap<u64, u64> = HashMap::new();
    let mut drain_window = Vec::new();
    for s in &device_spans {
        match s.func.as_str() {
            "f_drain" => {
                drain_at.insert(s.device_set, s.end_ns);
            }
            "f_undrain" => {
                if let Some(drained) = drain_at.remove(&s.device_set) {
                    drain_window.push(s.end_ns.saturating_sub(drained));
                }
            }
            _ => {}
        }
    }

    let probes: ProbeResults = run_probes(inp.fleet, &window_tasks);

    let lock_wait = reg.hist("core.lock_wait_ns");
    let task_wall = reg.hist("core.task_wall_ns");
    let pool = inp.fleet.rt.pool_stats();
    let traced_p50 = inp.traced.lat_p50_us;
    let trace_overhead = if inp.plan.kind == crate::workload::LoopKind::Open {
        // An open loop's throughput is its arrival rate; overhead shows
        // in latency.
        100.0
            * ratio(
                traced_p50 - inp.reference.lat_p50_us,
                inp.reference.lat_p50_us,
            )
    } else {
        100.0
            * ratio(
                inp.reference.tasks_per_s - inp.traced.tasks_per_s,
                inp.reference.tasks_per_s,
            )
    };
    let gateway_submit = median_us(&mut submit_rtt);
    let gateway_status = median_us(&mut status_rtt);
    let queue_wait = reg.hist_median_us("gateway.queue_wait_ns");
    let lock_wait_us = reg.hist_median_us("core.lock_wait_ns");
    // What one uncontended task is known to cost, layer by layer, against
    // what the client saw. Informational: closing this gap to 10% is the
    // in-program tracing issue's gate, not this one's.
    let explained = gateway_submit
        + queue_wait.max(0.0)
        + lock_wait_us.max(0.0)
        + probes.core_direct_run_us
        + gateway_status;
    let attribution_gap = 100.0 * (1.0 - ratio(explained, traced_p50));

    let values: BTreeMap<&str, f64> = [
        ("gateway.submit_rtt_us", gateway_submit),
        ("gateway.status_rtt_us", gateway_status),
        ("gateway.admit_us", probes.gateway_admit_us),
        ("gateway.queue_wait_us", queue_wait),
        ("gateway.busy_retries", busy as f64),
        ("gateway.polls_per_task", ratio(polls as f64, tasks)),
        ("core.direct_run_us", probes.core_direct_run_us),
        ("core.lock_wait_us", lock_wait_us),
        (
            "core.lock_wait_share",
            match (&lock_wait, &task_wall) {
                (Some(l), Some(w)) => ratio(l.sum as f64, w.sum as f64),
                _ => ABSENT,
            },
        ),
        (
            "core.lock_waits_per_task",
            reg.per("core.lock.acquires", tasks),
        ),
        (
            "core.occ_commit_ratio",
            reg.share("core.occ.commits", "core.occ.aborts"),
        ),
        (
            "core.occ_fallbacks",
            reg.counter("core.occ.fallbacks").unwrap_or(ABSENT),
        ),
        (
            "core.retries",
            reg.counter("core.task.retries").unwrap_or(ABSENT),
        ),
        ("core.pool_peak_active", pool.peak_active as f64),
        ("spec.compile_us", probes.spec_compile_us),
        ("spec.compiles_per_task", reg.per("spec.compiled", tasks)),
        ("regex.compile_us", probes.regex_compile_us),
        ("regex.relate_us", probes.regex_relate_us),
        ("objtree.insert_us", probes.objtree_insert_us),
        ("objtree.release_us", probes.objtree_release_us),
        (
            "objtree.relate_cache_hit_ratio",
            reg.share("objtree.relate_cache.hits", "objtree.relate_cache.misses"),
        ),
        ("objtree.splits_per_task", reg.per("objtree.splits", tasks)),
        ("sched.invocation_us", probes.sched_invocation_us),
        (
            "sched.invocations_per_task",
            reg.per("sched.invocations", tasks),
        ),
        ("netdb.read_view_us", probes.netdb_read_view_us),
        ("netdb.scoped_read_us", probes.netdb_scoped_read_us),
        (
            "netdb.scoped_read_under_write_us",
            probes.netdb_scoped_read_under_write_us,
        ),
        ("netdb.commit_us", probes.netdb_commit_us),
        ("netdb.view_refresh_us", probes.netdb_view_refresh_us),
        (
            "netdb.commits_per_task",
            reg.per("netdb.wal.appends", tasks),
        ),
        (
            "netdb.wal_records_per_task",
            reg.per("netdb.wal.records", tasks),
        ),
        (
            "netdb.view_hit_ratio",
            match (
                reg.counter("netdb.view.hits"),
                reg.counter("netdb.view.dirty_shards"),
            ) {
                (Some(h), Some(d)) => ratio(h, h + d),
                _ => ABSENT,
            },
        ),
        ("netdb.repl.bootstrap_s", inp.bootstrap_s),
        ("netdb.repl.ack_lag_us", median_us(&mut ack_lag)),
        (
            "netdb.repl.follower_read_share",
            reg.share("netdb.repl.reads.follower", "netdb.repl.reads.leader"),
        ),
        (
            "netdb.repl.stale_fallbacks",
            reg.counter("netdb.repl.reads.stale_fallback")
                .unwrap_or(ABSENT),
        ),
        ("cert.commit_us", probes.cert_commit_us),
        ("cert.check_us", reg.hist_median_us("cert.check_ns")),
        (
            "cert.edges_per_commit",
            match (reg.counter("cert.edges"), reg.counter("cert.commits")) {
                (Some(e), Some(c)) => ratio(e, c),
                _ => ABSENT,
            },
        ),
        // Latched since the fleet was built, not inside the window only:
        // one cycle before the window sets the regime the window runs in.
        ("cert.violations", inp.after.cert_violations as f64),
        ("emunet.execute_us", median_us(&mut execute)),
        (
            "emunet.calls_per_task",
            ratio(device_spans.len() as f64, tasks),
        ),
        (
            "emunet.devices_per_call",
            ratio(devices_called as f64, device_spans.len() as f64),
        ),
        ("emunet.busy_share", busy_ns as f64 / 1e9 / window_s),
        ("emunet.drain_window_us", median_us(&mut drain_window)),
        ("update.diff_us", probes.update_diff_us),
        ("update.synth_us", probes.update_synth_us),
        ("update.verify_us", probes.update_verify_us),
        ("update.exec_us", probes.update_exec_us),
        (
            "update.waves_per_plan",
            match (
                reg.counter("update.synth.waves"),
                reg.counter("update.synth.plans"),
            ) {
                (Some(w), Some(p)) => ratio(w, p),
                _ => ABSENT,
            },
        ),
        ("rollback.plan_us", probes.rollback_plan_us),
        ("obs.trace_overhead_pct", trace_overhead),
        ("obs.attribution_gap_pct", attribution_gap),
    ]
    .into_iter()
    .collect();
    let metrics = PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            *values
                .get(name)
                .expect("every per-layer metric is computed")
        })
        .collect();

    let all_recs: Vec<&TaskRecord> = inp.outputs.iter().flat_map(|o| &o.records).collect();
    let (trace_file, spans_written, attributed) = match inp.out_dir {
        Some(dir) => {
            let path = dir.join(format!("trace-{}.jsonl", inp.name));
            let (n, a) = write_trace(&path, inp.plan, &all_recs, &device_spans, inp.window)
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            (Some(path), n, a)
        }
        None => (None, 0, 0),
    };

    Traced {
        metrics,
        reference: inp.reference.clone(),
        direct_run_by_workflow: probes.direct_run_by_workflow,
        spans_written,
        device_spans_attributed: attributed,
        device_spans: device_spans.len(),
        trace_file,
        probe_violations: probes.violations,
    }
}

/// Writes the traced window as JSONL: per task a `client/task` root span
/// with `gateway/submit` and `gateway/poll` children, and per device call
/// an `emunet/<func>` span — parented to a task only where exactly one
/// task in flight at that moment has a scope matching the call's first
/// device. Returns `(spans written, device spans attributed)`.
fn write_trace(
    path: &Path,
    plan: &Plan,
    records: &[&TaskRecord],
    device_spans: &[DeviceSpan],
    (from, to): (u64, u64),
) -> std::io::Result<(usize, usize)> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    let mut next_span = 0u64;
    let mut span_id = || {
        next_span += 1;
        next_span
    };
    let mut written = 0usize;

    // Tasks overlapping the traced window, by start time.
    let mut tasks: Vec<(&TaskRecord, u64)> = records
        .iter()
        .filter(|r| r.ticket.is_some() && r.done_ns >= from && r.submit_start_ns < to)
        .map(|r| (*r, 0))
        .collect();
    tasks.sort_by_key(|(r, _)| r.submit_start_ns);
    for (rec, root) in &mut tasks {
        *root = span_id();
        let task = plan.task(rec.conn, rec.index);
        let name = format!("{} {}", task.workflow, task.scope);
        let mut emit = |span, parent, layer, name: &str, start_ns, end_ns| {
            write_span(
                &mut w,
                &SpanLine {
                    trace: rec.ticket,
                    span,
                    parent,
                    layer,
                    name,
                    start_ns,
                    end_ns,
                },
            )
        };
        emit(*root, None, "client", &name, rec.start_ns, rec.done_ns)?;
        let polls = format!("poll x{}", rec.polls);
        let (submit, poll) = (span_id(), span_id());
        emit(
            submit,
            Some(*root),
            "gateway",
            "submit",
            rec.submit_start_ns,
            rec.submit_end_ns,
        )?;
        emit(
            poll,
            Some(*root),
            "gateway",
            &polls,
            rec.submit_end_ns,
            rec.done_ns,
        )?;
        written += 3;
    }

    let mut patterns: HashMap<&str, Pattern> = HashMap::new();
    let mut attributed = 0usize;
    let mut first_live = 0usize;
    for s in device_spans {
        // Tasks are sorted by start; drop the ones that ended before this
        // call from the front, then scan the few that are in flight.
        while first_live < tasks.len() && tasks[first_live].0.done_ns < s.start_ns {
            first_live += 1;
        }
        let mut owner = None;
        let mut candidates = 0;
        for (rec, root) in &tasks[first_live..] {
            if rec.submit_start_ns > s.start_ns {
                break;
            }
            if rec.done_ns < s.end_ns {
                continue;
            }
            let scope = plan.task(rec.conn, rec.index).scope.as_str();
            let p = patterns
                .entry(scope)
                .or_insert_with(|| Pattern::from_glob(scope).expect("generated scope"));
            if p.matches(&s.first_device) {
                candidates += 1;
                owner = Some((rec.ticket, *root));
            }
        }
        let (trace, parent) = match owner {
            Some((ticket, root)) if candidates == 1 => {
                attributed += 1;
                (ticket, Some(root))
            }
            _ => (None, None),
        };
        let name = format!("{} x{}", s.func, s.devices);
        write_span(
            &mut w,
            &SpanLine {
                trace,
                span: span_id(),
                parent,
                layer: "emunet",
                name: &name,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            },
        )?;
        written += 1;
    }
    w.flush()?;
    Ok((written, attributed))
}
