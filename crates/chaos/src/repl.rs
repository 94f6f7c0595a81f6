//! Replication chaos: leader kill mid-commit, follower partition
//! mid-catch-up, and crash-and-rejoin — asserting zero lost acknowledged
//! commits and byte-identical convergence (DESIGN.md §14).
//!
//! The phase drives a real [`ReplicaSet`] (background shipper thread and
//! all) through four sub-phases:
//!
//! 1. **Steady state** — seeded writes replicate to every follower; the
//!    phase waits for quorum acknowledgement and full convergence.
//! 2. **Partition mid-catch-up** — one follower is partitioned while new
//!    writes land, then healed; the ack-driven shipper must re-send the
//!    whole missing suffix and the follower must converge byte-identically.
//! 3. **Crash and rejoin** — another follower loses its entire state and
//!    rejoins; the next shipping round must bootstrap it from scratch.
//! 4. **Kill leader mid-commit** — every link is partitioned, the leader
//!    commits writes nobody ships, and then dies. Failover must promote
//!    the follower with the longest durable WAL prefix, lose **zero
//!    acknowledged commits** (unacknowledged ones may die with the
//!    leader — that is the durability contract, not a violation), leave
//!    all survivors byte-identical to the promoted leader, and accept
//!    new writes.
//!
//! Determinism: the phase synchronizes on commit counts and convergence
//! barriers rather than timers, so the [`ReplChaosReport`] — counters
//! only, no wall-clock values — depends only on the config.

use crate::report::{ReplChaosReport, Violations};
use occam_netdb::{check_identical, AttrValue, Database, ReplicaConfig, ReplicaSet};
use std::sync::Arc;
use std::time::Duration;

/// How long each convergence/acknowledgement barrier may take before the
/// phase counts a violation. Generous: barriers resolve in milliseconds.
const BARRIER: Duration = Duration::from_secs(30);

/// Tuning for the replication chaos phase.
#[derive(Clone, Debug)]
pub struct ReplChaosConfig {
    /// Follower replicas in the set.
    pub followers: usize,
    /// Acknowledgement quorum.
    pub quorum: usize,
    /// Devices seeded before replication starts.
    pub devices: u32,
    /// Writes driven in each writing sub-phase.
    pub writes: u32,
}

impl Default for ReplChaosConfig {
    fn default() -> ReplChaosConfig {
        ReplChaosConfig {
            followers: 3,
            quorum: 1,
            devices: 32,
            writes: 16,
        }
    }
}

/// Runs the replication chaos phase and returns its report. Violations
/// are counted in [`ReplChaosReport::violations`]; the campaign folds
/// them into its headline `invariant_violations`.
pub fn run_repl_phase(cfg: &ReplChaosConfig) -> ReplChaosReport {
    let mut report = ReplChaosReport::default();

    let leader_db = Arc::new(Database::new());
    for i in 0..cfg.devices {
        leader_db
            .insert_device(
                &format!("dc01.pod{:02}.sw{:02}", i % 4, i / 4),
                vec![("REPL_EPOCH".into(), AttrValue::Int(0))],
            )
            .expect("seed device");
        report.writes += 1;
    }

    let mut set = ReplicaSet::start(
        Arc::clone(&leader_db),
        ReplicaConfig {
            followers: cfg.followers,
            quorum: cfg.quorum,
            ..ReplicaConfig::default()
        },
    );

    // 1. Steady state: writes replicate, quorum acknowledges, all converge.
    for i in 0..cfg.writes {
        leader_db
            .insert_device(&format!("dc01.pod00.steady{i:03}"), vec![])
            .expect("steady write");
        report.writes += 1;
    }
    let target = leader_db.commits();
    if set.leader().wait_acked(target, BARRIER) < target {
        report.violation("steady state: quorum ack timed out".into());
    }
    if !set.wait_converged(BARRIER) {
        report.violation("steady state: convergence timed out".into());
    }

    // 2. Partition follower 0 mid-catch-up, write through the partition,
    // heal, and require byte-identical convergence.
    set.set_partitioned(0, true);
    report.partitions += 1;
    for i in 0..cfg.writes {
        leader_db
            .insert_device(&format!("dc01.pod01.part{i:03}"), vec![])
            .expect("partition write");
        report.writes += 1;
    }
    if !set.wait_converged(BARRIER) {
        report.violation("partition: healthy followers stopped converging".into());
    }
    set.set_partitioned(0, false);
    if !set.wait_converged(BARRIER) {
        report.violation("partition: heal catch-up timed out".into());
    }
    if let Err(e) = check_identical(&set.followers()[0].db().read_view(), &leader_db.read_view()) {
        report.violation(format!("partition: after heal, {e}"));
    }

    // 3. Crash follower 1 with total state loss; the next shipping round
    // must bootstrap it back to identical state.
    if cfg.followers > 1 {
        set.followers()[1].crash_reset();
        report.rejoins += 1;
        if !set.wait_converged(BARRIER) {
            report.violation("rejoin: bootstrap catch-up timed out".into());
        }
        if let Err(e) =
            check_identical(&set.followers()[1].db().read_view(), &leader_db.read_view())
        {
            report.violation(format!("rejoin: after bootstrap, {e}"));
        }
    }

    // 4. Kill the leader mid-commit: partition every link so fresh commits
    // reach nobody, commit a few, then fail over. Acknowledgement is
    // settled *before* the partition so the report's ack counters are
    // barrier-synchronized, not racing the shipper.
    let pre_kill = leader_db.commits();
    if set.leader().wait_acked(pre_kill, BARRIER) < pre_kill {
        report.violation("pre-kill: quorum ack timed out".into());
    }
    for i in 0..cfg.followers {
        set.set_partitioned(i, true);
    }
    report.acked_before_kill = pre_kill;
    for i in 0..cfg.writes.min(4) {
        leader_db
            .insert_device(&format!("dc01.pod02.doomed{i:03}"), vec![])
            .expect("doomed write");
        report.writes += 1;
    }
    report.unacked_at_kill = leader_db.commits() - report.acked_before_kill;
    set.kill_leader();
    for i in 0..cfg.followers {
        set.set_partitioned(i, false);
    }
    let (set, promotion) = set.failover();
    report.promoted = promotion.promoted;
    report.lost_acked = report
        .acked_before_kill
        .saturating_sub(promotion.promoted_commits);
    if report.lost_acked > 0 {
        let lost = report.lost_acked;
        report.violation(format!("failover lost {lost} acknowledged commits"));
    }
    let new_leader = set.leader_db();
    if !set.wait_converged(BARRIER) {
        report.violation("failover: survivor catch-up timed out".into());
    }
    for f in set.followers() {
        if let Err(e) = check_identical(&f.db().read_view(), &new_leader.read_view()) {
            report.violation(format!("failover: follower {} not identical: {e}", f.id()));
        }
    }
    // The promoted leader keeps accepting and replicating writes.
    new_leader
        .insert_device("dc01.pod03.postfailover", vec![])
        .expect("post-failover write");
    report.writes += 1;
    let target = new_leader.commits();
    if set.leader().wait_acked(target, BARRIER) < target {
        report.violation("post-failover: quorum ack timed out".into());
    }
    if !set.wait_converged(BARRIER) {
        report.violation("post-failover: convergence timed out".into());
    }
    set.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repl_phase_holds_invariants() {
        let report = run_repl_phase(&ReplChaosConfig::default());
        assert_eq!(report.violations, 0, "{:?}", report.first_violation);
        assert_eq!(report.lost_acked, 0);
        assert_eq!(report.partitions, 1);
        assert_eq!(report.rejoins, 1);
        assert!(report.unacked_at_kill > 0, "kill must strand real commits");
    }

    #[test]
    fn repl_phase_report_is_deterministic() {
        let cfg = ReplChaosConfig {
            followers: 2,
            quorum: 2,
            devices: 12,
            writes: 6,
        };
        let a = run_repl_phase(&cfg);
        let b = run_repl_phase(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.violations, 0, "{:?}", a.first_violation);
    }
}
