//! Replication benchmark: shipping lag, follower read scale-out, and
//! failover time, written to `BENCH_repl.json`.
//!
//! Three measurements over one in-process replica set (DESIGN.md §14):
//!
//! 1. **Replication lag** — a seeded write stream runs against the
//!    leader while the background shipper fans the WAL out; the
//!    ship-to-apply latency of every replicated batch lands in the
//!    `netdb.repl.lag_ns` histogram, reported here as p50/p99.
//! 2. **Follower read throughput** — scoped reads (snapshot +
//!    `select_devices`, the `status_audit` shape) are timed against each
//!    node *in isolation, sequentially* — this container has one core,
//!    so concurrent timing would just multiplex the same CPU. The
//!    aggregate follower rate models one-replica-per-machine capacity
//!    and must be ≥ 2× the single-node (leader-only) rate — the PR's
//!    acceptance gate, trivially met with ≥ 2 followers because routed
//!    reads are lock-free snapshot reads that never touch the leader.
//! 3. **Failover time** — the leader is killed and the set fails over;
//!    the promotion (longest durable WAL prefix) plus synchronous
//!    survivor catch-up is timed under `netdb.repl.failover_ns`, and the
//!    bench asserts zero lost acknowledged commits.
//!
//! Hard gates (process exits non-zero): zero lost acknowledged commits,
//! full convergence, and aggregate follower reads ≥ 2× single-node.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p occam-bench --bin repl_throughput [writes] [reads]
//! # defaults: 2000 writes, 3000 reads per node, 3 followers
//!
//! cargo run --release -p occam-bench --bin repl_throughput -- --smoke
//! # CI smoke: 300 writes, 500 reads per node, same gates
//! ```

use occam::netdb::{Database, ReadView, ReplicaConfig, ReplicaSet};
use occam::obs::json::Fixed;
use occam::obs::Registry;
use occam_bench::Bench;
use occam_regex::Pattern;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FOLLOWERS: usize = 3;
const BARRIER: Duration = Duration::from_secs(60);

/// Times `reads` scoped reads (snapshot + device selection over one pod)
/// against a single node and returns reads/second.
fn read_rate(read_view: impl Fn() -> ReadView, scope: &Pattern, reads: u32) -> f64 {
    // Warm-up: fault in the lazily-materialized shard indexes.
    let snap = read_view();
    let mut sink = snap.select_devices(scope).len();
    let started = Instant::now();
    for _ in 0..reads {
        let snap = read_view();
        sink += snap.select_devices(scope).len();
    }
    let elapsed = started.elapsed().as_secs_f64();
    assert!(sink > 0, "scoped reads must see devices");
    f64::from(reads) / elapsed
}

fn main() -> std::process::ExitCode {
    let mut bench = Bench::from_args("repl");
    let smoke = bench.smoke();
    let writes: u32 = bench
        .arg(0, "writes")
        .unwrap_or(if smoke { 300 } else { 2000 });
    let reads: u32 = bench
        .arg(1, "reads")
        .unwrap_or(if smoke { 500 } else { 3000 });

    let reg = Registry::new();
    let leader_db = Arc::new(Database::with_obs(&reg));
    for i in 0..64 {
        leader_db
            .insert_device(&format!("dc01.pod{:02}.sw{:02}", i % 8, i / 8), vec![])
            .expect("seed device");
    }
    let set = ReplicaSet::start(
        Arc::clone(&leader_db),
        ReplicaConfig {
            followers: FOLLOWERS,
            quorum: 1,
            ..ReplicaConfig::default()
        },
    );

    // 1. Replication lag under a write stream.
    let write_started = Instant::now();
    for i in 0..writes {
        leader_db
            .insert_device(&format!("dc01.pod{:02}.gen{i:05}", i % 8), vec![])
            .expect("bench write");
    }
    let target = leader_db.commits();
    let acked = set.leader().wait_acked(target, BARRIER);
    let write_wall = write_started.elapsed();
    let converged_after_writes = set.wait_converged(BARRIER);
    let lag = reg.histogram("netdb.repl.lag_ns");
    let (lag_p50, lag_p99) = (lag.quantile(0.50), lag.quantile(0.99));
    let write_rate = f64::from(writes) / write_wall.as_secs_f64();
    eprintln!(
        "writes: {writes} in {write_wall:.2?} ({write_rate:.0}/s), acked {acked}/{target}, \
         lag p50 {lag_p50}ns p99 {lag_p99}ns"
    );

    // 2. Read throughput, each node in isolation (see module docs).
    let scope = Pattern::from_glob("dc01.pod03.*").expect("scope");
    let leader_rate = read_rate(|| leader_db.read_view(), &scope, reads);
    let mut follower_rates = Vec::new();
    for f in set.followers() {
        follower_rates.push(read_rate(|| f.db().read_view(), &scope, reads));
    }
    let follower_total: f64 = follower_rates.iter().sum();
    let read_ratio = follower_total / leader_rate;
    eprintln!(
        "reads: leader {leader_rate:.0}/s; followers {:?}/s, total {follower_total:.0}/s \
         ({read_ratio:.2}x single-node)",
        follower_rates.iter().map(|r| *r as u64).collect::<Vec<_>>()
    );

    // 3. Failover: kill the leader, promote, catch survivors up.
    let acked_at_kill = set.leader().acked();
    let mut set = set;
    set.kill_leader();
    let (set, promotion) = set.failover();
    let lost_acked = acked_at_kill.saturating_sub(promotion.promoted_commits);
    let converged_after_failover = set.wait_converged(BARRIER);
    let failover_ns = reg.histogram("netdb.repl.failover_ns").max();
    eprintln!(
        "failover: promoted follower {} at {} commits in {failover_ns}ns \
         ({} survivors caught up, {lost_acked} acked lost)",
        promotion.promoted, promotion.promoted_commits, promotion.caught_up
    );
    set.shutdown();

    let converged = converged_after_writes && converged_after_failover;
    bench.gate(
        acked >= target && converged,
        format!("replication converges (acked {acked}/{target})"),
    );
    bench.gate(
        lost_acked == 0,
        format!("failover loses no acknowledged commit ({lost_acked} lost)"),
    );
    bench.gate(
        read_ratio >= 2.0,
        format!("follower read throughput {read_ratio:.2}x >= 2.0x single-node"),
    );
    bench.finish(|w| {
        w.field("bench", "repl_throughput")
            .field("writes", writes)
            .field("reads_per_node", reads)
            .field("followers", FOLLOWERS)
            .field("write_rate_per_s", Fixed(write_rate, 1))
            .field("lag_ns_p50", lag_p50)
            .field("lag_ns_p99", lag_p99)
            .field("leader_reads_per_s", Fixed(leader_rate, 1))
            .field("follower_reads_per_s_total", Fixed(follower_total, 1))
            .field("read_ratio", Fixed(read_ratio, 3))
            .field("failover_ns", failover_ns)
            .field("promoted", promotion.promoted)
            .field("promoted_commits", promotion.promoted_commits)
            .field("lost_acked", lost_acked)
            .field("converged", converged);
    })
}
