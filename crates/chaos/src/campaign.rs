//! The deterministic fault-campaign engine.
//!
//! A campaign builds a fresh emulated substrate, arms seeded fault
//! injectors at every stateful boundary — netdb queries, device-service
//! calls, periodic WAL crash points — and drives a seeded stream of
//! management tasks through the runtime under a retry policy. After every
//! task it checks the paper's recovery contract:
//!
//! - a task that **completed** must satisfy its scenario postcondition
//!   (fully applied);
//! - a task that **aborted** must, after mechanically executing its
//!   suggested rollback plan, leave the database *and* the devices
//!   byte-identical to the pre-task snapshot (fully rolled back).
//!
//! Any other outcome is an invariant violation and the headline failure
//! count of the campaign. Determinism contract: identical
//! [`CampaignConfig`]s produce identical [`CampaignReport`]s — tasks run
//! sequentially, every random stream is seeded, and verification runs
//! with injectors *paused* (pausing skips fault checks without advancing
//! their sequence counters, so the fault streams stay aligned).

use crate::report::{CampaignReport, Violations};
use crate::scenario::{Scenario, ScenarioKind};
use crate::snapshot::StateSnapshot;
use crate::substrate::Substrate;
use occam_core::{execute_rollback, RetryPolicy, TaskState};
use occam_emunet::LatencyPlan;
use occam_netdb::{db::Store, Database, FaultPlan, StoreSnapshot};
use occam_obs::{Counter, Registry};
use occam_topology::Role;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Salts XOR-ed into the campaign seed so each fault stream is
/// independent but reproducible.
const DB_SALT: u64 = 0xD1B2_54A3_2D92_3716;
const DEVICE_SALT: u64 = 0x9E6D_3A1F_4C85_02B7;
const LATENCY_SALT: u64 = 0x27D4_EB2F_1656_67C5;

/// Tuning for one campaign. Everything that affects behavior is here, so
/// config equality implies report equality.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed; derives every random stream in the campaign.
    pub seed: u64,
    /// Number of management tasks to drive.
    pub tasks: u32,
    /// Per-operation fault probability for both the netdb query injector
    /// and the device-service shim, in `[0, 1]`.
    pub fault_rate: f64,
    /// Retry policy for every task. Defaults to 3 attempts with a short
    /// seeded exponential backoff.
    pub retry: RetryPolicy,
    /// Simulate a crash (WAL dump → recover → compare) after every N
    /// tasks; `0` disables crash points.
    pub crash_every: u32,
    /// Wedge a seeded device (permanent fault) for every N-th task;
    /// `0` disables stuck devices.
    pub stuck_every: u32,
    /// Probability a device call takes a latency spike.
    pub latency_rate: f64,
    /// Latency-spike duration.
    pub latency: Duration,
    /// Gateway connection-chaos phase, when configured.
    pub gateway: Option<crate::gateway::GatewayChaosConfig>,
    /// Replication chaos phase (leader kill, partitions, rejoin), when
    /// configured.
    pub repl: Option<crate::repl::ReplChaosConfig>,
    /// Consistent-update chaos phase (mid-wave kill, faults during
    /// waves, concurrent conflicting plans), when configured.
    pub update: Option<crate::update::UpdateChaosConfig>,
    /// Optimistic-concurrency chaos phase (mixed OCC/2PL contention with
    /// the serializability certifier attached, fallback under faults),
    /// when configured.
    pub occ: Option<crate::occ::OccChaosConfig>,
    /// Declarative-spec chaos phase (specs killed mid-execution,
    /// compliance-view convergence), when configured.
    pub spec: Option<crate::spec::SpecChaosConfig>,
}

impl CampaignConfig {
    /// A campaign at `fault_rate` with the standard shape: 60 tasks,
    /// 3-attempt retries, crash point every 7 tasks, stuck device every
    /// 13th task, mild latency spikes, no gateway phase.
    pub fn at_rate(seed: u64, fault_rate: f64) -> CampaignConfig {
        CampaignConfig {
            seed,
            tasks: 60,
            fault_rate,
            retry: RetryPolicy::attempts(3)
                .with_backoff(Duration::from_micros(100), Duration::from_micros(400))
                .with_seed(seed),
            crash_every: 7,
            stuck_every: 13,
            latency_rate: 0.02,
            latency: Duration::from_micros(200),
            gateway: None,
            repl: None,
            update: None,
            occ: None,
            spec: None,
        }
    }
}

struct ChaosObs {
    tasks: Counter,
    completed: Counter,
    rolled_back: Counter,
    crashes: Counter,
    violations: Counter,
    db_faults: Counter,
    device_faults: Counter,
}

impl ChaosObs {
    fn bind(reg: &Registry) -> ChaosObs {
        reg.counter("chaos.campaigns").inc();
        ChaosObs {
            tasks: reg.counter("chaos.tasks"),
            completed: reg.counter("chaos.tasks.completed"),
            rolled_back: reg.counter("chaos.tasks.rolled_back"),
            crashes: reg.counter("chaos.crashes"),
            violations: reg.counter("chaos.invariant.violations"),
            db_faults: reg.counter("chaos.faults.db"),
            device_faults: reg.counter("chaos.faults.device"),
        }
    }
}

/// One seeded fault campaign over a fresh emulated substrate.
pub struct Campaign {
    cfg: CampaignConfig,
    sub: Substrate,
    obs: ChaosObs,
    /// Region scopes the RNG draws from.
    scopes: Vec<String>,
    /// Single-device names the stuck-device fault draws from.
    singles: Vec<String>,
}

impl Campaign {
    /// Builds the substrate — a `FatTree(1, 4)` fabric mirrored into a
    /// seeded database (every non-host device active on `fw-1.0.0`) behind
    /// a faultable device service — with the two fault injectors and the
    /// latency plan armed from the config.
    pub fn new(cfg: CampaignConfig) -> Campaign {
        let sub = Substrate::build(
            FaultPlan::random(cfg.fault_rate, cfg.seed ^ DEVICE_SALT),
            FaultPlan::random(cfg.fault_rate, cfg.seed ^ DB_SALT),
        );
        sub.faulty.set_latency(LatencyPlan::new(
            cfg.latency_rate,
            cfg.latency,
            cfg.seed ^ LATENCY_SALT,
        ));
        let mut singles: Vec<String> = sub
            .ft
            .topo
            .devices()
            .filter(|(_, d)| d.role != Role::Host)
            .map(|(_, d)| d.name.clone())
            .collect();
        singles.sort();
        let obs = ChaosObs::bind(&sub.reg);
        let scopes = vec![
            "dc01.pod00.*".to_string(),
            "dc01.pod01.*".to_string(),
            "dc01.pod02.*".to_string(),
            "dc01.pod03.*".to_string(),
            "dc01.core.*".to_string(),
            "dc01.pod00.agg00".to_string(),
            "dc01.pod01.tor01".to_string(),
            "dc01.pod02.agg01".to_string(),
            "dc01.pod03.tor00".to_string(),
        ];
        Campaign {
            cfg,
            sub,
            obs,
            scopes,
            singles,
        }
    }

    /// The campaign's shared metrics registry (`core.*`, `chaos.*`, …).
    pub fn registry(&self) -> &Registry {
        &self.sub.reg
    }

    fn next_scenario(&self, rng: &mut StdRng, t: u32) -> Scenario {
        let kind = ScenarioKind::ALL[rng.random_range(0usize..ScenarioKind::ALL.len())];
        let scope = self.scopes[rng.random_range(0usize..self.scopes.len())].clone();
        Scenario {
            kind,
            scope,
            firmware: format!("fw-c{t}"),
        }
    }

    /// Runs the campaign to completion and returns its report.
    pub fn run(mut self) -> CampaignReport {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut report = CampaignReport {
            seed: self.cfg.seed,
            fault_rate: self.cfg.fault_rate,
            ..CampaignReport::default()
        };
        for t in 0..self.cfg.tasks {
            let scenario = self.next_scenario(&mut rng, t);
            let stuck = self.cfg.stuck_every > 0 && (t + 1) % self.cfg.stuck_every == 0;
            if stuck {
                let victim = &self.singles[rng.random_range(0usize..self.singles.len())];
                self.sub.faulty.stick_device(victim.clone());
            }
            self.run_one(&scenario, &mut report);
            if stuck {
                self.sub.faulty.unstick_all();
            }
            if self.cfg.crash_every > 0 && (t + 1) % self.cfg.crash_every == 0 {
                self.crash_point(&mut rng, &mut report);
            }
        }
        self.finish(report)
    }

    /// Runs one task and verifies the all-or-nothing contract.
    fn run_one(&mut self, scenario: &Scenario, report: &mut CampaignReport) {
        self.obs.tasks.inc();
        report.tasks += 1;
        // Snapshots bypass the injectors, so capturing is always safe.
        let pre = StateSnapshot::capture(&self.sub.db, &self.sub.inner);
        let task_report = self
            .sub
            .rt
            .task(scenario.name())
            .retry(self.cfg.retry.clone())
            .run(scenario.program());
        // Verification and recovery run fault-free; pausing does not
        // advance the seeded streams.
        self.sub.faults_enabled(false);
        match task_report.state {
            TaskState::Completed => {
                self.obs.completed.inc();
                report.completed += 1;
                let check = match scenario.kind {
                    // Read-only work must leave everything untouched.
                    ScenarioKind::Audit => {
                        let post = StateSnapshot::capture(&self.sub.db, &self.sub.inner);
                        pre.first_diff(&post)
                            .map(|d| format!("audit changed state: {d}"))
                            .map_or(Ok(()), Err)
                    }
                    _ => scenario.check_postcondition(&self.sub.db, &self.sub.inner),
                };
                if let Err(why) = check {
                    self.violation(report, format!("{}: {why}", scenario.name()));
                }
            }
            TaskState::Aborted => {
                if task_report.rollback.is_some() {
                    if let Err(e) =
                        execute_rollback(&task_report, &self.sub.db, self.sub.rt.service().as_ref())
                    {
                        self.violation(
                            report,
                            format!("{}: rollback failed fault-free: {e}", scenario.name()),
                        );
                    }
                }
                let post = StateSnapshot::capture(&self.sub.db, &self.sub.inner);
                match pre.first_diff(&post) {
                    None => {
                        self.obs.rolled_back.inc();
                        report.rolled_back += 1;
                    }
                    Some(diff) => self.violation(
                        report,
                        format!("{}: residue after rollback: {diff}", scenario.name()),
                    ),
                }
            }
            other => {
                self.violation(
                    report,
                    format!("{}: non-terminal final state {other:?}", scenario.name()),
                );
            }
        }
        self.sub.faults_enabled(true);
    }

    /// Simulates a crash: the WAL must recover to exactly the live state,
    /// and replaying a seeded prefix (a torn shutdown) must be total and
    /// identical under the sharded and the naive replay implementations.
    fn crash_point(&mut self, rng: &mut StdRng, report: &mut CampaignReport) {
        self.sub.faults_enabled(false);
        self.obs.crashes.inc();
        report.crashes += 1;
        let text = self.sub.db.dump_wal();
        match Database::recover(&text) {
            Ok(recovered) => {
                if recovered.read_view() != self.sub.db.read_view() {
                    self.violation(report, "WAL replay diverged from live state".to_string());
                }
            }
            Err(e) => self.violation(report, format!("WAL failed to decode: {e}")),
        }
        let records = self.sub.db.wal_records();
        if !records.is_empty() {
            let k = rng.random_range(0usize..=records.len());
            let sharded = StoreSnapshot::replay(&records[..k]);
            if sharded != Store::replay(&records[..k]) {
                self.violation(
                    report,
                    format!("sharded replay diverged from naive replay at prefix {k}"),
                );
            }
            if let Err(e) = sharded.self_check() {
                self.violation(report, format!("sharded replay broke invariants: {e}"));
            }
        }
        self.sub.faults_enabled(true);
    }

    fn violation(&self, report: &mut CampaignReport, why: String) {
        self.obs.violations.inc();
        report.violation(why);
    }

    /// Folds the fault-layer counters into the report and runs the
    /// gateway and replication phases, if configured.
    fn finish(self, mut report: CampaignReport) -> CampaignReport {
        report.retries = self.sub.reg.counter_value("core.task.retries");
        report.retry_rollback_failed = self
            .sub
            .reg
            .counter_value("core.task.retry_rollback_failed");
        report.db_faults = self.sub.db.faults().failures_injected();
        report.device_faults = self.sub.faulty.injector().failures_injected();
        report.latency_spikes = self.sub.faulty.spikes_fired();
        report.stuck_hits = self.sub.faulty.stuck_hits();
        self.obs.db_faults.add(report.db_faults);
        self.obs.device_faults.add(report.device_faults);
        if let Some(gw_cfg) = &self.cfg.gateway {
            let gw = crate::gateway::run_gateway_phase(gw_cfg);
            report.add_violations(
                gw.leaked_records,
                Some(format!("{} gateway job records leaked", gw.leaked_records)),
            );
            report.gateway = Some(gw);
        }
        if let Some(repl_cfg) = &self.cfg.repl {
            let repl = crate::repl::run_repl_phase(repl_cfg);
            report.add_violations(repl.violations, repl.first_violation.clone());
            report.repl = Some(repl);
        }
        if let Some(update_cfg) = &self.cfg.update {
            let update = crate::update::run_update_phase(update_cfg);
            report.add_violations(update.violations, update.first_violation.clone());
            report.update = Some(update);
        }
        if let Some(occ_cfg) = &self.cfg.occ {
            let occ = crate::occ::run_occ_phase(occ_cfg);
            report.add_violations(occ.violations, occ.first_violation.clone());
            report.occ = Some(occ);
        }
        if let Some(spec_cfg) = &self.cfg.spec {
            let spec = crate::spec::run_spec_phase(spec_cfg);
            report.add_violations(spec.violations, spec.first_violation.clone());
            report.spec = Some(spec);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_campaign_completes_everything() {
        let mut cfg = CampaignConfig::at_rate(7, 0.0);
        cfg.tasks = 12;
        cfg.stuck_every = 0;
        cfg.latency_rate = 0.0;
        let report = Campaign::new(cfg).run();
        assert_eq!(report.tasks, 12);
        assert_eq!(report.completed, 12);
        assert_eq!(report.rolled_back, 0);
        assert_eq!(
            report.invariant_violations, 0,
            "{:?}",
            report.first_violation
        );
        assert_eq!(report.db_faults + report.device_faults, 0);
        assert!(report.crashes > 0);
    }

    #[test]
    fn faulty_campaign_rolls_back_and_holds_invariants() {
        let mut cfg = CampaignConfig::at_rate(42, 0.10);
        cfg.tasks = 30;
        let report = Campaign::new(cfg).run();
        assert_eq!(report.tasks, 30);
        assert_eq!(report.completed + report.rolled_back, 30);
        assert_eq!(
            report.invariant_violations, 0,
            "{:?}",
            report.first_violation
        );
        assert!(
            report.db_faults + report.device_faults + report.stuck_hits > 0,
            "a 10% campaign must actually inject faults"
        );
        assert!(report.retries > 0, "transient aborts must be retried");
    }

    #[test]
    fn identical_seeds_produce_identical_reports() {
        let mut cfg = CampaignConfig::at_rate(1234, 0.15);
        cfg.tasks = 25;
        let a = Campaign::new(cfg.clone()).run();
        let b = Campaign::new(cfg).run();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.invariant_violations, 0, "{:?}", a.first_violation);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut c1 = CampaignConfig::at_rate(1, 0.15);
        c1.tasks = 25;
        let mut c2 = CampaignConfig::at_rate(2, 0.15);
        c2.tasks = 25;
        let a = Campaign::new(c1).run();
        let b = Campaign::new(c2).run();
        // Same shape, different fault stream: the counter sets should not
        // coincide (astronomically unlikely at 15%).
        assert_ne!(
            (a.db_faults, a.device_faults, a.retries, a.completed),
            (b.db_faults, b.device_faults, b.retries, b.completed)
        );
    }
}
