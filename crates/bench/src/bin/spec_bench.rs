//! Incremental-vs-cold compliance audit benchmark at production
//! simulation scale, written to `BENCH_spec.json`.
//!
//! The paper's continuous-audit loop re-evaluates declarative spec
//! assertions over the whole fleet after every commit. A from-scratch
//! scan is O(fleet); the netdb view cache (DESIGN.md §17.3) memoizes
//! per-shard partials keyed by shard `Arc` identity, so a re-audit after
//! a commit recomputes only the shards the commit dirtied. This bench
//! measures exactly that regime:
//!
//! - The fleet is the paper's production scale — 16 DCs × 96 pods × 92
//!   switches ≈ 141k devices — spread over the store's 128 data shards.
//! - The audited view comes from a compiled **audit spec** (status +
//!   firmware assertions over `*`), the same path `status_audit` /
//!   `compliance_audit` gateway workflows take.
//! - Each measured round commits a maintenance batch confined to a fixed
//!   handful of `(dc, pod)` prefixes (≤ 8 dirty shards of 128), then
//!   times the incremental refresh against a cold full scan **at the
//!   same snapshot** and asserts the two reports identical.
//!
//! Hard gates (process exits non-zero): incremental re-audit ≥ 10×
//! faster than the cold scan, every round recomputes ≤ the dirtied
//! shard bound, and incremental == cold on every round.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p occam-bench --bin spec_bench
//! # full scale: 16 dc × 96 pods, 8 dirty pods, 30 rounds
//!
//! cargo run --release -p occam-bench --bin spec_bench -- --smoke
//! # CI smoke: 4 dc × 24 pods, 2 dirty pods, 10 rounds, same gates
//! ```

use occam::netdb::{attrs, compliance_cold, Database, WriteOp};
use occam::obs::json::Fixed;
use occam::obs::Registry;
use occam::regex::Pattern;
use occam::spec::compile_source;
use occam_bench::Bench;
use std::time::{Duration, Instant};

/// Switches per pod (the paper's ~92-switch pod: 80 ToR + 8 agg + 4
/// spine-facing).
const POD_SWITCHES: u32 = 92;

struct Shape {
    dcs: u32,
    pods: u32,
    dirty_pods: usize,
    rounds: u32,
}

/// The audited view: the same declarative audit spec the gateway's
/// compliance workflows compile, over the whole fleet.
const AUDIT_SPEC: &str = "spec fleet_audit {\n\
                          \x20 scope *\n\
                          \x20 audit\n\
                          \x20 expect status active\n\
                          \x20 expect FIRMWARE_VERSION = fw-1.0.0\n\
                          }\n";

fn populate(db: &Database, shape: &Shape) -> u64 {
    let mut devices = 0u64;
    for dc in 1..=shape.dcs {
        for pod in 0..shape.pods {
            let batch: Vec<WriteOp> = (0..POD_SWITCHES)
                .map(|sw| WriteOp::InsertDevice {
                    name: format!("dc{dc:02}.pod{pod:02}.sw{sw:02}"),
                    attrs: vec![
                        (attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into()),
                        (attrs::FIRMWARE_VERSION.into(), "fw-1.0.0".into()),
                    ],
                })
                .collect();
            devices += batch.len() as u64;
            db.batch(&batch).expect("seed batch");
        }
    }
    devices
}

/// One maintenance round's writes: flip a few switches per dirty pod
/// between drained and active, confined to `dirty_pods` fixed `(dc,
/// pod)` prefixes.
fn dirty_batch(shape: &Shape, round: u32) -> Vec<WriteOp> {
    let status = if round.is_multiple_of(2) {
        attrs::STATUS_DRAINED
    } else {
        attrs::STATUS_ACTIVE
    };
    (0..shape.dirty_pods)
        .flat_map(|p| {
            let dc = (p as u32 % shape.dcs) + 1;
            let pod = p as u32 % shape.pods;
            (0..4).map(move |sw| WriteOp::SetDeviceAttr {
                name: format!("dc{dc:02}.pod{pod:02}.sw{sw:02}"),
                attr: attrs::DEVICE_STATUS.into(),
                value: status.into(),
            })
        })
        .collect()
}

fn main() -> std::process::ExitCode {
    let mut bench = Bench::from_args("spec");
    let smoke = bench.smoke();
    let shape = if smoke {
        Shape {
            dcs: 4,
            pods: 24,
            dirty_pods: 2,
            rounds: 10,
        }
    } else {
        Shape {
            dcs: 16,
            pods: 96,
            dirty_pods: 8,
            rounds: 30,
        }
    };

    let reg = Registry::new();
    let db = Database::with_obs(&reg);
    let devices = populate(&db, &shape);
    eprintln!(
        "populated {} devices ({} dc x {} pods x {} switches)",
        devices, shape.dcs, shape.pods, POD_SWITCHES
    );

    let compiled = compile_source(AUDIT_SPEC).expect("audit spec compiles");
    let expects = compiled.spec().expects.clone();
    let scope = Pattern::from_glob(&compiled.spec().scope).expect("scope glob");

    // Warm the view: the first refresh is the cold scan that seeds every
    // shard partial.
    let warm_started = Instant::now();
    let warm = db.views().refresh(&db.read_view(), &scope, &expects);
    let warm_elapsed = warm_started.elapsed();
    assert_eq!(warm.devices, devices, "audit must see the whole fleet");

    let mut incr_total = Duration::ZERO;
    let mut cold_total = Duration::ZERO;
    let mut max_recomputed = 0u64;
    for round in 0..shape.rounds {
        db.batch(&dirty_batch(&shape, round)).expect("dirty batch");
        let snap = db.read_view();

        let started = Instant::now();
        let incr = db.views().refresh(&snap, &scope, &expects);
        incr_total += started.elapsed();

        let started = Instant::now();
        let cold = compliance_cold(&snap, &scope, &expects);
        cold_total += started.elapsed();

        bench.gate(
            incr.same_result(&cold),
            format!(
                "round {round}: incremental {} == cold {}",
                incr.summary(5),
                cold.summary(5)
            ),
        );
        max_recomputed = max_recomputed.max(incr.recomputed_shards);
        bench.gate(
            incr.recomputed_shards <= shape.dirty_pods as u64,
            format!(
                "round {round}: {} shards recomputed for {} dirty pods",
                incr.recomputed_shards, shape.dirty_pods
            ),
        );
    }

    let speedup = cold_total.as_secs_f64() / incr_total.as_secs_f64();
    let incr_us = incr_total.as_secs_f64() * 1e6 / f64::from(shape.rounds);
    let cold_us = cold_total.as_secs_f64() * 1e6 / f64::from(shape.rounds);
    eprintln!(
        "cold {:.0}us/round, incremental {:.0}us/round ({speedup:.1}x), \
         <= {max_recomputed} shards recomputed per round",
        cold_us, incr_us
    );

    bench.gate(
        speedup >= 10.0,
        format!("incremental re-audit speedup {speedup:.2}x >= 10x over cold scan"),
    );
    bench.finish(|w| {
        w.field("bench", "spec_bench")
            .field("devices", devices)
            .field("dirty_pods", shape.dirty_pods)
            .field("rounds", shape.rounds)
            .field("warm_scan_us", Fixed(warm_elapsed.as_secs_f64() * 1e6, 0))
            .field("cold_us_per_round", Fixed(cold_us, 0))
            .field("incremental_us_per_round", Fixed(incr_us, 0))
            .field("speedup", Fixed(speedup, 2))
            .field("max_recomputed_shards", max_recomputed)
            .field("view_refreshes", reg.counter_value("netdb.view.refreshes"))
            .field("view_shard_hits", reg.counter_value("netdb.view.hits"))
            .field(
                "view_dirty_shards",
                reg.counter_value("netdb.view.dirty_shards"),
            );
    })
}
