//! The Occam end-to-end gateway benchmark.
//!
//! ```text
//! occam-e2e-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is one JSON object
//!     {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
//!     with --trace 0, the per-layer metrics with --trace 1
//! occam-e2e-benchmark [--seed <n>] [--seconds <s>]
//!     every workload, untraced then traced; prints every metric by name
//!     and writes out/latest.json and out/trace-<workload>.jsonl
//! ```
//!
//! Exits non-zero when an output check fails. See `README.md`.

mod checks;
mod driver;
mod fleet;
mod host;
mod layers;
mod probes;
mod run;
mod stats;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use fleet::FleetShape;
use layers::PER_LAYER;
use run::{run_workload, RunResult};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use trace::json_str;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Measured window in seconds when none is given; `BENCHMARK.json`'s
/// `run_seconds`.
pub const DEFAULT_SECONDS: u64 = 20;

/// `(name, unit)` of the end-to-end metrics, in print order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = workload::WORKLOADS.iter().copied().find(|w| *w == name);
                args.workload = Some(known.ok_or_else(|| {
                    format!(
                        "unknown workload {name:?}; one of {:?}",
                        workload::WORKLOADS
                    )
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `benchmark/out` under the working directory: `run.sh` runs the binary
/// from the repository root, wherever that was when the binary was built.
fn out_dir() -> PathBuf {
    Path::new("benchmark").join("out")
}

/// The end-to-end metrics as reported: every time divided by the host's
/// slowdown factor over the span it was measured in (`host.rs`), so that
/// a run beside a busy neighbour and a run beside an idle one read the
/// same. A closed loop's rate is the reciprocal of a time and is scaled
/// the other way; the open loop's rate is its schedule's and is not.
fn end_to_end_values(r: &RunResult) -> [f64; 5] {
    let s = r.host_slowdown;
    let rate = match r.kind {
        workload::LoopKind::Closed { .. } => r.window.tasks_per_s * s,
        workload::LoopKind::Open => r.window.tasks_per_s,
    };
    [
        r.setup_s / r.setup_slowdown,
        rate,
        r.window.lat_p50_us / s,
        r.window.lat_p90_us / s,
        r.peak_rss_mb,
    ]
}

fn metrics_json<'a>(rows: impl Iterator<Item = (&'a str, &'a str, f64)>) -> String {
    let body: Vec<String> = rows
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn e2e_json(r: &RunResult) -> String {
    metrics_json(
        END_TO_END
            .iter()
            .zip(end_to_end_values(r))
            .map(|((n, u), v)| (*n, *u, v)),
    )
}

fn per_layer_json(r: &RunResult) -> String {
    let t = r.traced.as_ref().expect("traced run");
    metrics_json(
        PER_LAYER
            .iter()
            .zip(&t.metrics)
            .map(|((n, u, _), v)| (*n, *u, *v)),
    )
}

/// The contract line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(r: &RunResult) -> String {
    let metrics = if r.traced.is_some() {
        per_layer_json(r)
    } else {
        e2e_json(r)
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        r.correct(),
        r.attempted,
        r.failed
    )
}

fn print_run(r: &RunResult) {
    let mode = if r.traced.is_some() {
        "traced"
    } else {
        "untraced"
    };
    println!(
        "== {} ({mode}) seed {} input {} tasks hash {:016x}",
        r.workload, r.seed, r.input_tasks, r.input_hash
    );
    if !workload::GATED.contains(&r.workload) {
        println!("   info: BENCHMARK.json does not list this workload: the driver neither runs nor gates it");
    }
    println!(
        "   threads: {} cores available, 2 driver connections{}",
        std::thread::available_parallelism().map_or(0, usize::from),
        if r.conns_placed {
            ", one per reactor event loop"
        } else {
            " (could NOT be spread over the reactor event loops: the run fails)"
        }
    );
    match &r.traced {
        None => {
            for ((name, unit), value) in END_TO_END.iter().zip(end_to_end_values(r)) {
                println!("   {name:<34} {value:>14.3} {unit}");
            }
            println!("   {:<34} {:>14.6} ratio", "failed_share", r.failed_share());
            println!(
                "   info: host slowdown x{:.3} over the window, x{:.3} over the set-up; as measured: setup {:.3} s, {:.1} tasks/s, p50 {:.1} us, p90 {:.1} us",
                r.host_slowdown,
                r.setup_slowdown,
                r.setup_s,
                r.window.tasks_per_s,
                r.window.lat_p50_us,
                r.window.lat_p90_us
            );
        }
        Some(t) => {
            for ((name, unit, _), value) in PER_LAYER.iter().zip(&t.metrics) {
                println!("   {name:<34} {value:>14.3} {unit}");
            }
            println!(
                "   reference window (shims dormant): {:.1} tasks/s, p50 {:.1} us; traced: {:.1} tasks/s, p50 {:.1} us",
                t.reference.tasks_per_s, t.reference.lat_p50_us, r.window.tasks_per_s, r.window.lat_p50_us
            );
            for (workflow, (n, us)) in &t.direct_run_by_workflow {
                println!("   core.direct_run_us[{workflow}] = {us:.1} us over {n} tasks");
            }
            if let Some(path) = &t.trace_file {
                println!(
                    "   {} spans -> {} ({} of {} device calls pinned to one ticket)",
                    t.spans_written,
                    path.display(),
                    t.device_spans_attributed,
                    t.device_spans
                );
            }
        }
    }
    println!(
        "   info: attempted {} failed {} | window {:.0} s: {} completed, {} latency samples, p99 {:.1} us (highest percentile with >=10 samples beyond: {}) | {:.2} polls/task, {} busy retries",
        r.attempted,
        r.failed,
        r.window.seconds,
        r.window.completed,
        r.window.samples,
        r.window.lat_p99_us,
        r.window
            .supported_percentile
            .map_or("none".to_string(), |p| format!("p{p}")),
        r.polls_per_task,
        r.busy_retries
    );
    if r.late_max_us > 0.0 {
        println!(
            "   info: open-loop generator lateness p50 {:.1} us, max {:.1} us",
            r.late_p50_us, r.late_max_us
        );
    }
    println!(
        "   info: cert.violations = {} (reported, not gated), {} when the window opened{}",
        r.cert_violations,
        r.cert_violations_at_window,
        r.cert_first_violation
            .as_ref()
            .map_or(String::new(), |w| format!("; first witness: {w}"))
    );
    for f in &r.failure_samples {
        println!("   FAILED TASK: {f}");
    }
    for v in &r.violations {
        println!("   OUTPUT CHECK FAILED: {v}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let out = out_dir();
    if let Some(name) = args.workload {
        let r = run_workload(
            name,
            args.seed,
            args.seconds,
            args.trace,
            FleetShape::FULL,
            Some(&out),
        );
        print_run(&r);
        println!("{}", result_line(&r));
        std::process::exit(if r.correct() { 0 } else { 1 });
    }

    let mut ok = true;
    let mut latest = String::new();
    let _ = write!(
        latest,
        "{{\"seed\": {}, \"seconds\": {}, \"workloads\": {{",
        args.seed, args.seconds
    );
    for (i, name) in workload::WORKLOADS.iter().enumerate() {
        // One process runs all ten fleets here: reset its RSS high-water
        // mark so `peak_rss_mb` is this workload's, as in a single run.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let plain = run_workload(
            name,
            args.seed,
            args.seconds,
            false,
            FleetShape::FULL,
            Some(&out),
        );
        print_run(&plain);
        let traced = run_workload(
            name,
            args.seed,
            args.seconds,
            true,
            FleetShape::FULL,
            Some(&out),
        );
        print_run(&traced);
        ok &= plain.correct() && traced.correct();
        let _ = write!(
            latest,
            "{}\n  {}: {{\"input_hash\": \"{:016x}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \"cert_violations\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            if i == 0 { "" } else { "," },
            json_str(name),
            plain.input_hash,
            plain.correct() && traced.correct(),
            plain.attempted,
            plain.failed,
            plain.failed_share(),
            plain.cert_violations,
            e2e_json(&plain),
            per_layer_json(&traced)
        );
    }
    latest.push_str("\n}}\n");
    std::fs::create_dir_all(&out).expect("create out/");
    let path = out.join("latest.json");
    std::fs::write(&path, latest).expect("write latest.json");
    println!("wrote {}", path.display());
    std::process::exit(if ok { 0 } else { 1 });
}
