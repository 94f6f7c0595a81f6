//! Consistent-update chaos: killing a planned update mid-wave, injecting
//! device faults while waves execute, and racing two conflicting planned
//! updates — asserting the DESIGN.md §15 contract that the forwarding
//! invariants hold at **every intermediate publication** and that any
//! failure lands the network on a previously-verified wave boundary.
//!
//! Three seeded campaigns run over fresh substrates:
//!
//! 1. **Kill mid-wave** — a [`CancelToken`] is fired from the executor's
//!    first `Drained` publication, so the wave aborts with its devices
//!    drained and half-written. The phase asserts the mechanical rollback
//!    restores the database *and* the devices byte-identical to the wave
//!    boundary, then re-plans from the current config and drives the
//!    resumed plan to completion.
//! 2. **Device faults during waves** — the device service injects seeded
//!    transient faults while the plan executes under a retry policy.
//!    Every retry re-publishes, and every publication is re-checked.
//! 3. **Concurrent conflicting plans** — two planned updates race from
//!    two threads: disjoint pod firmware rollouts that both rewrite every
//!    ToR's `MGMT_GENERATION` (a genuine write-write conflict serialized
//!    by strict-2PL). The checker runs at every publication of both
//!    plans, and afterwards no device may hold a torn config (attributes
//!    from both plans mixed).
//!
//! Determinism: campaigns 1 and 2 are single-threaded with seeded fault
//! streams, and campaign 3 reports only interleaving-independent counts
//! (publication totals are fixed by the two plans' shapes at fault rate
//! zero), so the [`UpdateChaosReport`] depends only on the config.

use crate::report::{UpdateChaosReport, Violations};
use crate::snapshot::StateSnapshot;
use crate::substrate::Substrate;
use occam_core::{CancelToken, RetryPolicy};
use occam_netdb::{attrs, Database, FaultPlan, StoreSnapshot, WalRecord};
use occam_regex::Pattern;
use occam_topology::{DeviceId, Topology};
use occam_update::{
    diff, execute_plan, Checker, ExecOptions, ModelState, Plan, Synthesizer, TrafficClass,
    UpdateOp, WavePoint,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Device-fault salt, distinct from the main campaign's streams.
const UPDATE_SALT: u64 = 0x5EED_0FC0_11AB_7E55;

/// Tuning for the update chaos phase.
#[derive(Clone, Debug)]
pub struct UpdateChaosConfig {
    /// Master seed for plan synthesis and the fault stream.
    pub seed: u64,
    /// Device-service fault probability during the faulted campaign.
    pub fault_rate: f64,
}

impl Default for UpdateChaosConfig {
    fn default() -> UpdateChaosConfig {
        UpdateChaosConfig {
            seed: 0xA11CE,
            fault_rate: 0.08,
        }
    }
}

/// A fresh [`Substrate`] with device faults at `fault_rate`, plus one
/// cross-pod traffic class per adjacent pod pair: every pod's uplinks
/// matter, so a plan that drains a whole pod's aggs (or all cores) at
/// once is caught.
fn substrate(seed: u64, fault_rate: f64) -> (Substrate, Vec<TrafficClass>) {
    let sub = Substrate::build(
        FaultPlan::random(fault_rate, seed ^ UPDATE_SALT),
        FaultPlan::none(),
    );
    let classes = (0..4usize)
        .map(|p| {
            let q = (p + 1) % 4;
            TrafficClass::pair(
                format!("pod{p}-pod{q}"),
                sub.ft.hosts[p][0][0],
                sub.ft.hosts[q][1][0],
                p as u64,
            )
        })
        .collect();
    (sub, classes)
}

/// Diffs the live config against "scoped devices get `attr = value`
/// (plus firmware, when given)" — the same frontend the gateway's
/// `planned_update` workflow runs. `CONFIG_VERSION` and firmware are
/// pushed attributes, so ops carrying them barrier their wave; any
/// other attribute yields database-only ops.
fn ops_for(
    db: &Database,
    scope: &Pattern,
    attr: &str,
    value: &str,
    firmware: Option<&str>,
) -> Vec<UpdateOp> {
    let old = db.read_view().into_snapshot();
    let mut records: Vec<WalRecord> = old
        .select_devices(&Pattern::universe())
        .into_iter()
        .map(|name| {
            let device_attrs = old.device_attrs(&name).unwrap_or_default();
            WalRecord::InsertDevice {
                name,
                attrs: device_attrs.into_iter().collect(),
            }
        })
        .collect();
    for name in old.select_devices(scope) {
        records.push(WalRecord::SetDeviceAttr {
            name: name.clone(),
            attr: attr.into(),
            value: value.into(),
        });
        if let Some(fw) = firmware {
            records.push(WalRecord::SetDeviceAttr {
                name: name.clone(),
                attr: attrs::FIRMWARE_VERSION.into(),
                value: fw.into(),
            });
            records.push(WalRecord::SetDeviceAttr {
                name,
                attr: attrs::FIRMWARE_BINARY.into(),
                value: format!("img-{fw}").as_str().into(),
            });
        }
    }
    diff(&old, &StoreSnapshot::replay(&records))
}

/// Reconstructs the forwarding model from the live database: a device is
/// routed around iff its committed status says so, and the executing
/// wave's devices are additionally mid-rewrite (`in_flux`).
fn live_state(db: &Database, topo: &Topology, in_flux: &[DeviceId]) -> ModelState {
    let mut state = ModelState::default();
    let snap = db.read_view();
    for (name, status) in snap.get_attr(&Pattern::universe(), attrs::DEVICE_STATUS) {
        let down = status.as_str() == Some(attrs::STATUS_DRAINED)
            || status.as_str() == Some(attrs::STATUS_UNDER_MAINTENANCE);
        if down {
            if let Some(id) = topo.device_by_name(&name) {
                state.drained.insert(id);
            }
        }
    }
    state.in_flux.extend(in_flux.iter().copied());
    state
}

/// A publication observer: checks the live state against the invariants
/// at every [`WavePoint`] and accumulates violation text.
struct PublicationAuditor<'a> {
    db: &'a Database,
    topo: &'a Topology,
    plan: &'a Plan,
    checker: Checker<'a>,
    publications: AtomicU64,
    violations: AtomicU64,
    first: Mutex<Option<String>>,
}

impl<'a> PublicationAuditor<'a> {
    fn new(
        sub: &'a Substrate,
        classes: &'a [TrafficClass],
        plan: &'a Plan,
    ) -> PublicationAuditor<'a> {
        PublicationAuditor {
            db: &sub.db,
            topo: &sub.ft.topo,
            plan,
            checker: Checker::new(&sub.ft.topo, classes),
            publications: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            first: Mutex::new(None),
        }
    }

    fn observe(&self, point: WavePoint) {
        self.publications.fetch_add(1, Ordering::SeqCst);
        let in_flux: Vec<DeviceId> = match point {
            WavePoint::Drained(i) => self.plan.waves[i]
                .devices()
                .iter()
                .filter_map(|n| self.topo.device_by_name(n))
                .collect(),
            WavePoint::Committed(_) => Vec::new(),
        };
        let state = live_state(self.db, self.topo, &in_flux);
        for v in self.checker.check(&state) {
            self.violations.fetch_add(1, Ordering::SeqCst);
            let mut first = self.first.lock().expect("auditor lock");
            if first.is_none() {
                *first = Some(format!("at {point:?}: {v}"));
            }
        }
    }

    fn fold_into(&self, report: &mut UpdateChaosReport) {
        report.publications_checked += self.publications.load(Ordering::SeqCst);
        report.violations += self.violations.load(Ordering::SeqCst);
        if report.first_violation.is_none() {
            report.first_violation = self.first.lock().expect("auditor lock").take();
        }
    }
}

/// Every scoped device must carry exactly the target attributes.
fn assert_applied(
    sub: &Substrate,
    scope: &Pattern,
    generation: &str,
    firmware: Option<&str>,
    report: &mut UpdateChaosReport,
) {
    let snap = sub.db.read_view();
    for name in snap.select_devices(scope) {
        let dev = snap.device_attrs(&name).unwrap_or_default();
        if dev.get("CONFIG_VERSION").and_then(|v| v.as_str()) != Some(generation) {
            report.violation(format!("{name}: CONFIG_VERSION not {generation}"));
        }
        if let Some(fw) = firmware {
            if dev.get(attrs::FIRMWARE_VERSION).and_then(|v| v.as_str()) != Some(fw) {
                report.violation(format!("{name}: firmware not {fw}"));
            }
        }
        if dev.get(attrs::DEVICE_STATUS).and_then(|v| v.as_str()) != Some(attrs::STATUS_ACTIVE) {
            report.violation(format!("{name}: not back to ACTIVE"));
        }
    }
}

/// Campaign 1: cancel the plan from inside its first drained publication,
/// assert byte-identical rollback to the wave boundary, then resume.
fn kill_mid_wave(cfg: &UpdateChaosConfig, report: &mut UpdateChaosReport) {
    let (sub, classes) = substrate(cfg.seed, 0.0);
    let scope = Pattern::from_glob("dc01.pod0[01].agg*").expect("glob");
    let ops = ops_for(&sub.db, &scope, "CONFIG_VERSION", "u1", Some("fw-2.0.0"));
    let synth = Synthesizer::new(&sub.ft.topo, &classes).with_seed(cfg.seed);
    let plan = synth.synthesize(&ops).expect("agg rollout is feasible");
    report.plans += 1;
    report.waves_planned += plan.waves.len() as u64;

    let pre = StateSnapshot::capture(&sub.db, &sub.inner);
    let token = CancelToken::new();
    let auditor = PublicationAuditor::new(&sub, &classes, &plan);
    let kill_token = token.clone();
    let observer = |point: WavePoint| {
        // The state is audited *before* the kill: the drained publication
        // itself must be invariant-clean even on the doomed attempt.
        auditor.observe(point);
        if point == WavePoint::Drained(0) {
            kill_token.cancel();
        }
    };
    let opts = ExecOptions {
        cancel: Some(token),
        ..ExecOptions::default()
    };
    let exec = execute_plan(&sub.rt, &plan, &opts, Some(&observer));
    auditor.fold_into(report);
    report.cancelled_runs += 1;
    if exec.ok() {
        report.violation("cancelled plan reported success".into());
    }
    if !exec.rolled_back {
        report.violation("killed wave was not rolled back".into());
    }
    let post = StateSnapshot::capture(&sub.db, &sub.inner);
    if let Some(d) = pre.first_diff(&post) {
        report.violation(format!("residue after mid-wave kill: {d}"));
    }

    // Resume: re-plan from the (restored) live config and run it out.
    let ops = ops_for(&sub.db, &scope, "CONFIG_VERSION", "u1", Some("fw-2.0.0"));
    let plan = synth.synthesize(&ops).expect("resume plan is feasible");
    report.plans += 1;
    report.waves_planned += plan.waves.len() as u64;
    let auditor = PublicationAuditor::new(&sub, &classes, &plan);
    let observer = |point: WavePoint| auditor.observe(point);
    let exec = execute_plan(&sub.rt, &plan, &ExecOptions::default(), Some(&observer));
    auditor.fold_into(report);
    report.resumed_waves += exec.waves_committed as u64;
    if !exec.ok() {
        report.violation(format!("resumed plan failed: {:?}", exec.error));
    }
    assert_applied(&sub, &scope, "u1", Some("fw-2.0.0"), report);
}

/// Campaign 2: seeded transient device faults while the waves execute,
/// under the same retry policy the main campaign uses.
fn faults_during_waves(cfg: &UpdateChaosConfig, report: &mut UpdateChaosReport) {
    let (sub, classes) = substrate(cfg.seed, cfg.fault_rate);
    let scope = Pattern::from_glob("dc01.pod0[23].agg*").expect("glob");
    let ops = ops_for(&sub.db, &scope, "CONFIG_VERSION", "u2", Some("fw-2.1.0"));
    let synth = Synthesizer::new(&sub.ft.topo, &classes).with_seed(cfg.seed);
    let plan = synth.synthesize(&ops).expect("agg rollout is feasible");
    report.plans += 1;
    report.waves_planned += plan.waves.len() as u64;

    let auditor = PublicationAuditor::new(&sub, &classes, &plan);
    let observer = |point: WavePoint| auditor.observe(point);
    let opts = ExecOptions {
        retry: RetryPolicy::attempts(5)
            .with_backoff(Duration::from_micros(50), Duration::from_micros(200))
            .with_seed(cfg.seed),
        ..ExecOptions::default()
    };
    let exec = execute_plan(&sub.rt, &plan, &opts, Some(&observer));
    auditor.fold_into(report);
    report.device_faults += sub.faulty.injector().failures_injected();
    report.retries += sub.reg.counter_value("core.task.retries");
    if exec.ok() {
        // Faults paused for verification (they would fail snapshot reads
        // on the devices, not change state).
        sub.faulty.set_enabled(false);
        assert_applied(&sub, &scope, "u2", Some("fw-2.1.0"), report);
    } else {
        // A wave exhausted its retries: acceptable, but only if it landed
        // on the boundary — every device fully old or fully new, active.
        sub.faulty.set_enabled(false);
        if !exec.rolled_back {
            report.violation("faulted wave left without rollback".into());
        }
        let snap = sub.db.read_view();
        for name in snap.select_devices(&scope) {
            let dev = snap.device_attrs(&name).unwrap_or_default();
            let fw = dev.get(attrs::FIRMWARE_VERSION).and_then(|v| v.as_str());
            let gen = dev.get("CONFIG_VERSION").and_then(|v| v.as_str());
            let old = fw == Some("fw-1.0.0") && gen.is_none();
            let new = fw == Some("fw-2.1.0") && gen == Some("u2");
            if !(old || new) {
                report.violation(format!("{name}: torn config at wave boundary"));
            }
        }
    }
}

/// Campaign 3: two conflicting planned updates race. Plan A upgrades the
/// pod 0/1 aggregation layer, plan B the pod 2/3 layer — invariant-safe
/// under any interleaving (at most one agg per pod drained at a time) —
/// and **both** rewrite every ToR's `MGMT_GENERATION` — a database-only,
/// write-write
/// conflict strict-2PL must serialize without deadlock or tearing.
fn concurrent_conflicting(cfg: &UpdateChaosConfig, report: &mut UpdateChaosReport) {
    let (sub, classes) = substrate(cfg.seed, 0.0);
    let tor_scope = Pattern::from_glob("dc01.pod*.tor*").expect("glob");
    let plans: Vec<(Pattern, &str, &str)> = vec![
        (
            Pattern::from_glob("dc01.pod0[01].agg*").expect("glob"),
            "cA",
            "fw-3.0.0",
        ),
        (
            Pattern::from_glob("dc01.pod0[23].agg*").expect("glob"),
            "cB",
            "fw-3.1.0",
        ),
    ];
    let synth = Synthesizer::new(&sub.ft.topo, &classes).with_seed(cfg.seed);
    let mut built = Vec::new();
    for (scope, generation, firmware) in &plans {
        // Each plan: its own aggs get firmware, every ToR gets the
        // generation stamp (the shared, conflicting part).
        let mut ops = ops_for(&sub.db, scope, "CONFIG_VERSION", generation, Some(firmware));
        ops.extend(ops_for(
            &sub.db,
            &tor_scope,
            "MGMT_GENERATION",
            generation,
            None,
        ));
        let plan = synth.synthesize(&ops).expect("concurrent plan feasible");
        report.plans += 1;
        report.waves_planned += plan.waves.len() as u64;
        built.push(plan);
    }

    let failures = AtomicU64::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = built
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let (sub, classes) = (&sub, &classes);
                let failures = &failures;
                s.spawn(move || {
                    let auditor = PublicationAuditor::new(sub, classes, plan);
                    let observer = |point: WavePoint| auditor.observe(point);
                    let opts = ExecOptions {
                        task_prefix: format!("planned_update.c{i}"),
                        ..ExecOptions::default()
                    };
                    let exec = execute_plan(&sub.rt, plan, &opts, Some(&observer));
                    if !exec.ok() {
                        failures.fetch_add(1, Ordering::SeqCst);
                    }
                    let first = auditor.first.lock().expect("auditor lock").take();
                    (
                        auditor.publications.load(Ordering::SeqCst),
                        auditor.violations.load(Ordering::SeqCst),
                        first,
                    )
                })
            })
            .collect();
        for h in handles {
            let (pubs, viols, first) = h.join().expect("concurrent plan thread");
            report.concurrent_runs += 1;
            report.publications_checked += pubs;
            report.violations += viols;
            if report.first_violation.is_none() {
                report.first_violation = first;
            }
        }
    });
    if failures.load(Ordering::SeqCst) > 0 {
        report.violation("a concurrent plan failed to commit".into());
    }

    // No tearing: each agg carries exactly its own plan's pair, and each
    // ToR carries one generation or the other — never a mix.
    let snap = sub.db.read_view();
    for (scope, generation, firmware) in &plans {
        for name in snap.select_devices(scope) {
            let dev = snap.device_attrs(&name).unwrap_or_default();
            if dev.get(attrs::FIRMWARE_VERSION).and_then(|v| v.as_str()) != Some(firmware)
                || dev.get("CONFIG_VERSION").and_then(|v| v.as_str()) != Some(generation)
            {
                report.torn_configs += 1;
                report.violation(format!("{name}: torn agg config"));
            }
        }
    }
    for name in snap.select_devices(&tor_scope) {
        let dev = snap.device_attrs(&name).unwrap_or_default();
        let gen = dev.get("MGMT_GENERATION").and_then(|v| v.as_str());
        if gen != Some("cA") && gen != Some("cB") {
            report.torn_configs += 1;
            report.violation(format!("{name}: ToR missed both generations"));
        }
    }
}

/// Runs the update chaos phase and returns its report. Violations are
/// counted in [`UpdateChaosReport::violations`]; the campaign folds them
/// into its headline `invariant_violations`.
pub fn run_update_phase(cfg: &UpdateChaosConfig) -> UpdateChaosReport {
    let mut report = UpdateChaosReport::default();
    kill_mid_wave(cfg, &mut report);
    faults_during_waves(cfg, &mut report);
    concurrent_conflicting(cfg, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_phase_holds_invariants_at_every_publication() {
        let report = run_update_phase(&UpdateChaosConfig::default());
        assert_eq!(report.violations, 0, "{:?}", report.first_violation);
        assert_eq!(report.torn_configs, 0);
        assert!(report.plans >= 4);
        assert!(report.publications_checked > 0);
        assert_eq!(report.cancelled_runs, 1);
        assert!(report.resumed_waves >= 2);
        assert_eq!(report.concurrent_runs, 2);
    }

    #[test]
    fn update_phase_is_deterministic_per_seed() {
        let cfg = UpdateChaosConfig {
            seed: 99,
            fault_rate: 0.10,
        };
        let a = run_update_phase(&cfg);
        let b = run_update_phase(&cfg);
        assert_eq!(a, b);
        assert!(
            a.device_faults > 0,
            "a 10% campaign must actually inject faults"
        );
    }
}
