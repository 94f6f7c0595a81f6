//! Property-based end-to-end test: random management programs with a
//! random injected failure always (a) abort cleanly, (b) produce a
//! grammar-valid rollback plan, and (c) executing the plan restores the
//! database snapshot and basic device hygiene.
//!
//! This is the crown-jewel invariant of the paper's §6: semantic rollback
//! is correct at *every* failure point of *any* well-formed task.

use occam::emunet::FuncArgs;
use occam::netdb::attrs;
use occam::{execute_rollback, TaskResult, TaskState};
use proptest::prelude::*;

/// One step of a random (grammar-valid) management program.
#[derive(Clone, Debug)]
enum Step {
    SetStatus(u8),
    SetFirmware(u8),
    Push,
    Testing(u8), // number of tests inside a prepare/unprepare block
    Offline(Vec<Step>),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let leaf = prop_oneof![
        (0u8..3).prop_map(Step::SetStatus),
        (0u8..3).prop_map(Step::SetFirmware),
        (0u8..3).prop_map(Step::Testing),
        Just(Step::Push),
    ];
    // cfg_change shape: db writes must be followed by a push to stay in
    // grammar; we emit Set* then Push pairs via post-processing below.
    let step = leaf.prop_recursive(2, 12, 4, |inner| {
        prop_oneof![
            3 => inner.clone(),
            1 => proptest::collection::vec(inner, 1..3).prop_map(Step::Offline),
        ]
    });
    proptest::collection::vec(step, 1..5)
}

/// Runs the steps against a network object; inserts the grammar-required
/// `f_push` after each run of DB writes.
fn run_steps(net: &occam::Network<'_>, steps: &[Step]) -> TaskResult<()> {
    let mut pending_db = false;
    for s in steps {
        match s {
            Step::SetStatus(v) => {
                net.set(attrs::DEVICE_STATUS, format!("STATE_{v}").into())?;
                pending_db = true;
            }
            Step::SetFirmware(v) => {
                net.set(attrs::FIRMWARE_VERSION, format!("fw-{v}").into())?;
                pending_db = true;
            }
            Step::Push => {
                net.apply_with("f_push", &FuncArgs::one("admin", "drained"))?;
                pending_db = false;
            }
            Step::Testing(n) => {
                if pending_db {
                    net.apply_with("f_push", &FuncArgs::one("admin", "drained"))?;
                    pending_db = false;
                }
                net.apply("f_alloc_ip")?;
                for _ in 0..*n {
                    net.apply("f_ping_test")?;
                }
                net.apply("f_dealloc_ip")?;
            }
            Step::Offline(inner) => {
                if pending_db {
                    net.apply_with("f_push", &FuncArgs::one("admin", "drained"))?;
                    pending_db = false;
                }
                net.apply("f_drain")?;
                run_steps(net, inner)?;
                net.apply("f_undrain")?;
            }
        }
    }
    if pending_db {
        net.apply_with("f_push", &FuncArgs::one("admin", "drained"))?;
    }
    Ok(())
}

/// The injectable device functions, to spread the failure across kinds.
const FUNCS: &[&str] = &[
    "f_push",
    "f_drain",
    "f_undrain",
    "f_alloc_ip",
    "f_dealloc_ip",
    "f_ping_test",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_recover_from_any_injected_failure(
        steps in arb_steps(),
        func_idx in 0usize..FUNCS.len(),
        nth in 0u64..4,
    ) {
        let (rt, _ft) = occam::emulated_deployment(1, 4);
        let svc = occam::emu_service(&rt);
        let before = rt.db().read_view();
        let func = FUNCS[func_idx];
        svc.library().fail_at(func, nth);
        let steps2 = steps.clone();
        let report = rt.task("random_program").run(move |ctx| {
            let net = ctx.network("dc01.pod01.tor00")?;
            run_steps(&net, &steps2)?;
            Ok(())
        });
        svc.library().clear_faults();
        match report.state {
            TaskState::Completed => {
                // The injected ordinal was never reached: program ran
                // clean; nothing further to check here.
            }
            TaskState::Aborted => {
                prop_assert!(
                    report.rollback.is_some(),
                    "aborted without a plan: {:?} (log {:?})",
                    report.rollback_error,
                    report.log
                );
                execute_rollback(&report, rt.db(), svc)
                    .map_err(|e| TestCaseError::fail(format!("rollback failed: {e}")))?;
                // Database byte-identical to the pre-task snapshot.
                prop_assert_eq!(rt.db().read_view(), before);
                // Device hygiene: undrained, no test environment left.
                let net = svc.net();
                let guard = net.lock();
                let id = guard.device_by_name("dc01.pod01.tor00").unwrap();
                let sw = guard.switch(id).unwrap();
                prop_assert!(!sw.drained, "device left drained");
                prop_assert!(sw.test_ip.is_none(), "test IP leaked");
            }
            other => return Err(TestCaseError::fail(format!("state {other:?}"))),
        }
        // Lock hygiene regardless of outcome.
        prop_assert_eq!(rt.active_objects(), 0);
    }

    /// Programs with no injected failure always complete, and the tree
    /// drains.
    #[test]
    fn random_programs_complete_without_faults(steps in arb_steps()) {
        let (rt, _ft) = occam::emulated_deployment(1, 4);
        let report = rt.task("random_program").run(move |ctx| {
            let net = ctx.network("dc01.pod01.tor00")?;
            run_steps(&net, &steps)?;
            Ok(())
        });
        prop_assert_eq!(report.state, TaskState::Completed);
        prop_assert_eq!(rt.active_objects(), 0);
        // The log of a completed task parses as a *non-failure* pattern.
        let tree = occam::rollback::parse_log(&report.log)
            .map_err(|e| TestCaseError::fail(format!("completed log unparseable: {e}")))?;
        prop_assert!(!tree.is_failure(), "completed log matched a failure pattern");
    }
}
