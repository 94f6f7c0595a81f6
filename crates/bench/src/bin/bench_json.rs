//! Machine-readable performance probe: measures object-tree insert
//! throughput, relation-cache effectiveness, and SCHED invocation times,
//! then writes `BENCH_objtree.json`.
//!
//! Every reported metric is read back from an `occam-obs` [`Registry`] —
//! the microbenchmark binds its own, the simulator runs carry theirs.
//!
//! Usage: `cargo run --release -p occam-bench --bin bench_json [num_tasks]`

use occam_bench::Bench;
use occam_objtree::{ObjTree, ObjectId, SplitMode};
use occam_obs::json::Fixed;
use occam_obs::Registry;
use occam_sched::Policy;
use occam_sim::{run, Granularity, SimConfig};
use occam_topology::ProductionScheme;
use occam_workload::{synthesize, TraceConfig};

/// The relate-cache hit ratio recorded in a registry's
/// `objtree.relate_cache.*` counters.
fn relate_hit_ratio(reg: &Registry) -> f64 {
    let hits = reg.counter_value("objtree.relate_cache.hits");
    let misses = reg.counter_value("objtree.relate_cache.misses");
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Inserts a churning mix of dc/pod/rack scopes and returns
/// (inserts, seconds, relate-cache hit ratio) — all three read from the
/// microbenchmark's own registry.
fn insert_throughput() -> (u64, f64, f64) {
    let reg = Registry::new();
    let mut tree = ObjTree::with_obs(SplitMode::Split, &reg);
    let mut live: Vec<ObjectId> = Vec::new();
    let t0 = std::time::Instant::now();
    for round in 0..40u32 {
        for dc in 1..4u32 {
            for pod in 0..8u32 {
                let scope = match (round + pod) % 3 {
                    0 => format!("dc{dc:02}.pod{pod:02}.*"),
                    1 => format!("dc{dc:02}.pod{pod:02}.rack{:02}.*", round % 4),
                    _ => format!("dc{dc:02}.*"),
                };
                let region = occam_regex::Pattern::from_glob(&scope).unwrap();
                live.extend(tree.insert_region(&region));
            }
        }
        // Churn: drop half the references so the tree stays bounded and
        // deletions exercise the graft path.
        let keep = live.len() / 2;
        for id in live.drain(keep..) {
            tree.release_ref(id);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    (
        reg.counter_value("objtree.inserts"),
        secs,
        relate_hit_ratio(&reg),
    )
}

fn main() -> std::process::ExitCode {
    let bench = Bench::from_args("objtree");
    let n: usize = bench.arg(0, "num_tasks").unwrap_or(500);

    let (inserts, insert_secs, tree_hit_ratio) = insert_throughput();

    let trace = synthesize(&TraceConfig {
        num_tasks: n,
        ..TraceConfig::default()
    });

    // One Object-granularity simulation per policy: (policy, wall
    // seconds, SCHED invocation latency, result).
    let mut runs = Vec::new();
    for policy in [Policy::Fifo, Policy::Ldsf] {
        let t0 = std::time::Instant::now();
        let r = run(
            &SimConfig {
                granularity: Granularity::Object,
                policy,
                scheme: ProductionScheme::meta_scale(),
                split_mode: SplitMode::Split,
            },
            &trace,
        );
        let wall = t0.elapsed().as_secs_f64();
        let snap = r
            .obs
            .histogram_snapshot("sched.invocation_ns")
            .expect("scheduler records invocation latency");
        println!(
            "{policy:?}/obj: {wall:.2}s invocations={} mean={:.3}us max={:.3}us relate_hit_ratio={:.4}",
            r.obs.counter_value("sched.invocations"),
            snap.mean() / 1e3,
            snap.max as f64 / 1e3,
            relate_hit_ratio(&r.obs),
        );
        runs.push((policy, wall, snap, r));
    }

    bench.finish(|w| {
        w.field("num_tasks", n);
        w.key("insert_throughput").object(|w| {
            w.field("inserts", inserts)
                .field("seconds", Fixed(insert_secs, 6))
                .field("inserts_per_sec", Fixed(inserts as f64 / insert_secs, 1))
                .field("relate_cache_hit_ratio", Fixed(tree_hit_ratio, 4));
        });
        w.key("sched").array(|w| {
            for (policy, wall, snap, r) in &runs {
                w.object(|w| {
                    w.field("policy", format!("{policy:?}"))
                        .field("granularity", "object")
                        .field("wall_seconds", Fixed(*wall, 4))
                        .field("invocations", r.obs.counter_value("sched.invocations"))
                        .field("mean_invocation_us", Fixed(snap.mean() / 1e3, 3))
                        .field("max_invocation_us", Fixed(snap.max as f64 / 1e3, 3))
                        .field("relate_cache_hit_ratio", Fixed(relate_hit_ratio(&r.obs), 4))
                        .field("mean_completion_h", Fixed(r.mean_completion(), 2))
                        .field(
                            "deadlocks_broken",
                            r.obs.counter_value("sim.deadlocks_broken"),
                        );
                });
            }
        });
    })
}
