//! Declarative-spec chaos: specs submitted mid-campaign, killed
//! mid-execution, and audited through the incremental compliance view —
//! asserting that the view **converges**: after every task the network
//! is either all-compliant with the spec's declared state (fully
//! applied) or byte-identical to the pre-task snapshot (fully rolled
//! back), and the incremental refresh agrees with a from-scratch
//! recompute at every audit point.
//!
//! Two seeded campaigns run over fresh substrates:
//!
//! 1. **Hard kill** — a firmware spec is submitted with a deterministic
//!    device fault armed at its optic test: the program dies *inside*
//!    the maintenance window, after the drain, the database writes, the
//!    config push, and the test prepare. The phase executes the
//!    suggested rollback, asserts database and devices byte-identical
//!    to the pre-task capture and the compliance view back on the old
//!    state, then clears the fault, re-submits the same spec, and
//!    asserts the view converges to all-compliant with the target.
//! 2. **Faulted stream** — a seeded stream of drain / undrain /
//!    maintenance / firmware specs runs with transient device and
//!    database faults armed. After every task the all-or-nothing
//!    contract is verified (postconditions through the compliance view,
//!    rollback through snapshot identity), and a standing campaign-wide
//!    audit view is refreshed across every commit.
//!
//! Every audit compares the incremental refresh against
//! [`occam_netdb::compliance_cold`]; `incremental_mismatches` must stay
//! zero.
//!
//! Determinism: single-threaded, seeded fault streams, fixed spec
//! order — identical configs yield identical [`SpecChaosReport`]s.

use crate::report::{SpecChaosReport, Violations};
use crate::snapshot::StateSnapshot;
use crate::substrate::Substrate;
use occam_core::{execute_rollback, RetryPolicy, TaskReport, TaskState};
use occam_netdb::{attrs, compliance_cold, Assertion, FaultPlan};
use occam_regex::Pattern;
use occam_spec::compile_source;
use std::time::Duration;

/// Device-fault salt, distinct from the other phases' streams.
const SPEC_SALT: u64 = 0x0DEC_1A2E_57EC_5EED;

/// Device-call index of the optic test inside the lowered firmware
/// spec used by the hard-kill campaign. The lowering is
/// `f_drain`(0) → `f_push`(1) → `f_alloc_ip`(2) → `f_optic_test`(3) →
/// `f_dealloc_ip` → `f_undrain`; failing call 3 kills the program
/// mid-maintenance-window with real database and device state behind it.
const KILL_AT_OPTIC_TEST: u64 = 3;

/// Tuning for the spec chaos phase.
#[derive(Clone, Debug)]
pub struct SpecChaosConfig {
    /// Master seed for the fault streams.
    pub seed: u64,
    /// Device/database fault probability during the faulted campaign.
    pub fault_rate: f64,
}

impl Default for SpecChaosConfig {
    fn default() -> SpecChaosConfig {
        SpecChaosConfig {
            seed: 0x5BEC,
            fault_rate: 0.08,
        }
    }
}

/// A fresh [`Substrate`] with device and database faults at `fault_rate`.
fn substrate(seed: u64, fault_rate: f64) -> Substrate {
    Substrate::build(
        FaultPlan::random(fault_rate, seed ^ SPEC_SALT),
        FaultPlan::random(fault_rate, seed ^ SPEC_SALT.rotate_left(17)),
    )
}

/// Compiles one spec source and runs it under the substrate's runtime.
fn run_spec(sub: &Substrate, src: &str, name: &str, retry: Option<RetryPolicy>) -> TaskReport {
    let program = match compile_source(src) {
        Ok(compiled) => compiled.program(),
        Err(e) => panic!("chaos spec failed to compile: {e}"),
    };
    let mut builder = sub.rt.task(name);
    if let Some(policy) = retry {
        builder = builder.retry(policy);
    }
    builder.run(move |ctx| program(ctx))
}

/// Evaluates `assertions` over `scope` through the incremental view
/// cache, cross-checks against a cold recompute, and returns whether the
/// scope is fully compliant.
fn audit(
    sub: &Substrate,
    scope: &Pattern,
    assertions: &[Assertion],
    report: &mut SpecChaosReport,
) -> bool {
    report.audits += 1;
    let snap = sub.db.read_view();
    let incremental = sub.db.views().refresh(&snap, scope, assertions);
    let cold = compliance_cold(&snap, scope, assertions);
    if !incremental.same_result(&cold) {
        report.incremental_mismatches += 1;
        report.violation(format!(
            "incremental refresh diverged from cold recompute: {} vs {}",
            incremental.summary(3),
            cold.summary(3)
        ));
    }
    incremental.compliant()
}

/// Campaign 1: kill a firmware spec inside its maintenance window,
/// verify byte-identical rollback, then clear the fault, re-submit, and
/// verify the compliance view converges to all-compliant.
fn hard_kill(cfg: &SpecChaosConfig, report: &mut SpecChaosReport) {
    let sub = substrate(cfg.seed, 0.0);
    let scope = Pattern::from_glob("dc01.pod00.*").expect("glob");
    let src = "spec fw_rollout {\n\
               \x20 scope dc01.pod00.*\n\
               \x20 target firmware fw-9.0.0\n\
               \x20 test optic\n\
               \x20 ensure status active\n\
               }\n";
    let target = [
        Assertion::new(attrs::FIRMWARE_VERSION, "fw-9.0.0"),
        Assertion::new(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE),
    ];
    let old_state = [
        Assertion::new(attrs::FIRMWARE_VERSION, "fw-1.0.0"),
        Assertion::new(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE),
    ];

    // The doomed submission (no retry — a retry would sail past the
    // one-shot fault): the optic test fails deterministically, mid-window.
    sub.faulty
        .set_plan(FaultPlan::fail_at([KILL_AT_OPTIC_TEST]));
    let pre = StateSnapshot::capture(&sub.db, &sub.inner);
    report.specs_run += 1;
    report.kills += 1;
    let task = run_spec(&sub, src, "spec.fw_rollout", None);
    sub.faults_enabled(false);
    match task.state {
        TaskState::Aborted => {
            if task.rollback.is_some() {
                if let Err(e) = execute_rollback(&task, &sub.db, sub.rt.service().as_ref()) {
                    report.violation(format!("kill rollback failed fault-free: {e}"));
                }
            }
            let post = StateSnapshot::capture(&sub.db, &sub.inner);
            match pre.first_diff(&post) {
                None => report.rolled_back += 1,
                Some(diff) => report.violation(format!("residue after spec kill: {diff}")),
            }
            // Convergence, half one: rolled back means compliant with
            // the *old* state, and not with the target.
            if !audit(&sub, &scope, &old_state, report) {
                report.violation("rolled-back scope not compliant with old state".into());
            }
            if audit(&sub, &scope, &target, report) {
                report.violation("killed spec reports target compliance".into());
            }
        }
        other => report.violation(format!("killed spec ended {other:?}, not Aborted")),
    }

    // Convergence, half two: the clean re-submission must complete and
    // flip the same compliance view to all-compliant.
    sub.faulty.set_plan(FaultPlan::none());
    sub.faults_enabled(true);
    report.specs_run += 1;
    let task = run_spec(&sub, src, "spec.fw_rollout", None);
    if task.state != TaskState::Completed {
        report.violation(format!("resubmitted spec failed: {:?}", task.error));
        return;
    }
    report.completed += 1;
    if audit(&sub, &scope, &target, report) {
        report.converged += 1;
    } else {
        report.violation("resubmitted spec left non-compliant devices".into());
    }
}

/// Campaign 2: a seeded stream of specs under transient faults, each
/// verified fully-applied (via the compliance view) or fully-rolled-back
/// (via snapshot identity).
fn faulted_stream(cfg: &SpecChaosConfig, report: &mut SpecChaosReport) {
    let sub = substrate(cfg.seed, cfg.fault_rate);
    sub.faults_enabled(false);
    let universe = Pattern::from_glob("dc01.*").expect("glob");
    for t in 0..12u32 {
        let pod = t % 4;
        let scope = format!("dc01.pod0{pod}.*");
        // drain → undrain → maintenance → firmware, rotating pods.
        let (name, src, expects) = match t % 4 {
            0 => (
                "spec.drain",
                format!("spec drain {{\n scope {scope}\n ensure status under_maintenance\n}}\n"),
                vec![Assertion::new(
                    attrs::DEVICE_STATUS,
                    attrs::STATUS_UNDER_MAINTENANCE,
                )],
            ),
            1 => (
                "spec.undrain",
                format!("spec undrain {{\n scope {scope}\n ensure status active\n}}\n"),
                vec![Assertion::new(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE)],
            ),
            2 => (
                "spec.maintenance",
                format!(
                    "spec device_maintenance {{\n scope {scope}\n test optic\n ensure status active\n}}\n"
                ),
                vec![Assertion::new(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE)],
            ),
            _ => (
                "spec.firmware",
                format!(
                    "spec firmware_upgrade {{\n scope {scope}\n target firmware fw-s{t}\n ensure status active\n}}\n"
                ),
                vec![
                    Assertion::new(attrs::FIRMWARE_VERSION, format!("fw-s{t}").as_str()),
                    Assertion::new(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE),
                ],
            ),
        };
        report.specs_run += 1;
        let pre = StateSnapshot::capture(&sub.db, &sub.inner);
        let retry = RetryPolicy::attempts(2)
            .with_backoff(Duration::from_micros(50), Duration::from_micros(200))
            .with_seed(cfg.seed.wrapping_add(u64::from(t)));
        sub.faults_enabled(true);
        let task = run_spec(&sub, &src, name, Some(retry));
        // Verification and recovery run fault-free; pausing does not
        // advance the seeded streams.
        sub.faults_enabled(false);
        let scope_pat = Pattern::from_glob(&scope).expect("glob");
        match task.state {
            TaskState::Completed => {
                report.completed += 1;
                if !audit(&sub, &scope_pat, &expects, report) {
                    report.violation(format!("{name}: completed but scope not compliant"));
                }
            }
            TaskState::Aborted => {
                if task.rollback.is_some() {
                    if let Err(e) = execute_rollback(&task, &sub.db, sub.rt.service().as_ref()) {
                        report.violation(format!("{name}: rollback failed fault-free: {e}"));
                    }
                }
                let post = StateSnapshot::capture(&sub.db, &sub.inner);
                match pre.first_diff(&post) {
                    None => report.rolled_back += 1,
                    Some(diff) => {
                        report.violation(format!("{name}: residue after rollback: {diff}"))
                    }
                }
            }
            other => report.violation(format!("{name}: non-terminal state {other:?}")),
        }
        // A standing campaign-wide audit view rides across every commit:
        // its incremental refresh must track the churn exactly.
        audit(
            &sub,
            &universe,
            &[Assertion::new(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE)],
            report,
        );
    }
}

/// Runs the spec chaos phase and returns its report. Violations are
/// counted in [`SpecChaosReport::violations`]; the campaign folds them
/// into its headline `invariant_violations`.
pub fn run_spec_phase(cfg: &SpecChaosConfig) -> SpecChaosReport {
    let mut report = SpecChaosReport::default();
    hard_kill(cfg, &mut report);
    faulted_stream(cfg, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_phase_converges_and_views_stay_exact() {
        let report = run_spec_phase(&SpecChaosConfig::default());
        assert_eq!(report.violations, 0, "{:?}", report.first_violation);
        assert_eq!(report.incremental_mismatches, 0);
        assert_eq!(report.kills, 1);
        assert_eq!(report.converged, 1);
        assert_eq!(report.specs_run, 14);
        assert_eq!(
            report.completed + report.rolled_back,
            report.specs_run,
            "every spec must land on a terminal verified outcome"
        );
        assert!(report.audits >= report.specs_run);
    }

    #[test]
    fn spec_phase_is_deterministic_per_seed() {
        let cfg = SpecChaosConfig {
            seed: 1234,
            fault_rate: 0.12,
        };
        let a = run_spec_phase(&cfg);
        let b = run_spec_phase(&cfg);
        assert_eq!(a, b);
    }
}
