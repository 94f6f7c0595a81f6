//! Optimistic-vs-pessimistic isolation benchmark for the read-mostly
//! management workload, written to `BENCH_occ.json`.
//!
//! The paper's gateway workload is dominated by audits: read-only tasks
//! scanning device state while occasional maintenance writers hold
//! exclusive locks over the same scope. Under strict 2PL every audit
//! serializes behind the writer's critical section; under
//! [`occam::Isolation::Occ`] audits run lock-free against a frozen
//! snapshot and commit without validation conflicts (a read-only
//! optimistic task serializes at its snapshot). This bench measures that
//! difference directly:
//!
//! - A background **maintenance writer** loops 2PL tasks that take
//!   exclusive locks on `dc01.pod00.*` and hold them for a fixed
//!   emulated device-RPC latency.
//! - The foreground **audit stream** runs read-only status scans over
//!   the same scope, once under [`occam::Isolation::TwoPl`] (shared
//!   locks, blocks behind the writer) and once under
//!   [`occam::Isolation::Occ`] (no locks), on fresh substrates.
//! - The online serializability certifier (DESIGN.md §16) is attached in
//!   **both** modes and fed every footprint; the bench asserts the whole
//!   mixed history is acyclic — the speedup is only admissible if the
//!   optimistic schedule stays serializable.
//!
//! Hard gates (process exits non-zero): OCC audit throughput ≥ 2× the
//! 2PL audit throughput, zero certifier violations in both modes, zero
//! optimistic aborts/fallbacks (audits are read-only), and every task
//! footprint certified.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p occam-bench --bin occ_bench [audits]
//! # default: 400 audits against a 1ms-hold writer
//!
//! cargo run --release -p occam-bench --bin occ_bench -- --smoke
//! # CI smoke: 100 audits, same writer hold and gates
//! ```

use occam::netdb::attrs;
use occam::obs::json::{Fixed, ToJson, Writer};
use occam::{Isolation, Runtime, TaskState};
use occam_bench::Bench;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The scope both the writer and the audits touch.
const SCOPE: &str = "dc01.pod00.*";

/// Per-mode measurement.
struct ModeRun {
    audits_per_s: f64,
    wall: Duration,
    writer_commits: u64,
    occ_commits: u64,
    occ_aborts: u64,
    occ_fallbacks: u64,
    validate_p50: u64,
    validate_p99: u64,
    certified: u64,
}

/// Runs `audits` read-only scans under `isolation` on a fresh substrate
/// while a 2PL maintenance writer churns the same scope, holding its
/// exclusive locks for `hold` per task.
fn run_mode(isolation: Isolation, audits: u32, hold: Duration) -> ModeRun {
    let (runtime, _ft) = occam::emulated_deployment(1, 4);
    let cert = Arc::new(occam::cert::Certifier::with_obs(runtime.obs()));
    runtime.attach_certifier(Arc::clone(&cert));

    // Two writer threads keep an exclusive request pending on the scope
    // essentially continuously: while one holds its critical section the
    // other is already queued, so the 2PL audit stream observes the
    // scope locked for the writers' full duty cycle.
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let writer_rt = runtime.clone();
            let writer_stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut commits = 0u64;
                let mut gen = 0i64;
                while !writer_stop.load(Ordering::Relaxed) {
                    gen += 1;
                    let report = writer_rt.task(format!("maint.{w}.{gen}")).run(move |ctx| {
                        let net = ctx.network(SCOPE)?;
                        net.set("MAINT_GEN", gen.into())?;
                        // Emulated device-RPC latency inside the
                        // critical section: the interval 2PL audits
                        // must wait out.
                        std::thread::sleep(hold);
                        Ok(())
                    });
                    assert_eq!(report.state, TaskState::Completed);
                    commits += 1;
                }
                commits
            })
        })
        .collect();

    let audit = |rt: &Runtime, i: u32| {
        let report = rt
            .task(format!("audit.{i}"))
            .isolation(isolation)
            .run(|ctx| {
                let net = ctx.network_read(SCOPE)?;
                let statuses = net.get(attrs::DEVICE_STATUS)?;
                assert!(!statuses.is_empty(), "audit scope must see devices");
                Ok(())
            });
        assert_eq!(report.state, TaskState::Completed);
    };

    // Warm-up outside the timed window: compiled scope pattern, shard
    // indexes, and the first writer round.
    audit(&runtime, u32::MAX);
    let started = Instant::now();
    for i in 0..audits {
        audit(&runtime, i);
    }
    let wall = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    let writer_commits: u64 = writers
        .into_iter()
        .map(|w| w.join().expect("writer thread"))
        .sum();

    assert!(
        cert.is_acyclic(),
        "history not serializable: {:?}",
        cert.first_violation()
    );
    assert_eq!(cert.violations(), 0);
    let certified = cert.committed();
    runtime.detach_certifier();

    let obs = runtime.obs();
    let validate = obs.histogram("core.occ.validate_ns");
    ModeRun {
        audits_per_s: f64::from(audits) / wall.as_secs_f64(),
        wall,
        writer_commits,
        occ_commits: obs.counter_value("core.occ.commits"),
        occ_aborts: obs.counter_value("core.occ.aborts"),
        occ_fallbacks: obs.counter_value("core.occ.fallbacks"),
        validate_p50: validate.quantile(0.50),
        validate_p99: validate.quantile(0.99),
        certified,
    }
}

impl ToJson for ModeRun {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("audits_per_s", Fixed(self.audits_per_s, 1))
                .field("wall_ms", Fixed(self.wall.as_secs_f64() * 1e3, 2))
                .field("writer_commits", self.writer_commits)
                .field("occ_commits", self.occ_commits)
                .field("occ_aborts", self.occ_aborts)
                .field("occ_fallbacks", self.occ_fallbacks)
                .field("validate_ns_p50", self.validate_p50)
                .field("validate_ns_p99", self.validate_p99)
                .field("certified", self.certified);
        });
    }
}

fn main() -> std::process::ExitCode {
    let mut bench = Bench::from_args("occ");
    let audits: u32 = bench
        .arg(0, "audits")
        .unwrap_or(if bench.smoke() { 100 } else { 400 });
    // The writer's emulated device-RPC latency. Real drain/undrain RPCs
    // sit in the milliseconds; at 1ms the exclusive-lock window dominates
    // the scope's schedule, which is exactly the regime the optimistic
    // path exists for.
    let hold = Duration::from_millis(1);

    let twopl = run_mode(Isolation::TwoPl, audits, hold);
    eprintln!(
        "2pl: {audits} audits in {:.2?} ({:.0}/s) against {} writer commits",
        twopl.wall, twopl.audits_per_s, twopl.writer_commits
    );
    let occ = run_mode(Isolation::Occ { max_retries: 3 }, audits, hold);
    eprintln!(
        "occ: {audits} audits in {:.2?} ({:.0}/s) against {} writer commits, \
         {} occ commits, {} aborts, {} fallbacks",
        occ.wall,
        occ.audits_per_s,
        occ.writer_commits,
        occ.occ_commits,
        occ.occ_aborts,
        occ.occ_fallbacks
    );

    let speedup = occ.audits_per_s / twopl.audits_per_s;
    bench.gate(
        speedup >= 2.0,
        format!("OCC read-mostly speedup {speedup:.2}x >= 2.0x over 2PL"),
    );
    bench.gate(
        occ.occ_commits == u64::from(audits) + 1,
        format!(
            "{} optimistic commits for {audits} audits (+1 warm-up)",
            occ.occ_commits
        ),
    );
    bench.gate(
        occ.occ_aborts == 0 && occ.occ_fallbacks == 0,
        format!(
            "read-only audits never conflict ({} aborts, {} fallbacks)",
            occ.occ_aborts, occ.occ_fallbacks
        ),
    );
    bench.finish(|w| {
        w.field("bench", "occ_bench")
            .field("smoke", bench.smoke())
            .field("audits", audits)
            .field("writer_hold_us", hold.as_micros())
            .field("twopl", &twopl)
            .field("occ", &occ)
            .field("speedup", Fixed(speedup, 2));
    })
}
