//! The §8.2 rollback experiment as an integration test: inject a failure
//! at *every* step of the firmware-upgrade task, generate the plan,
//! execute it, and verify the database returns to its pre-task snapshot
//! and the device ends undrained with no test environment.

use occam::emunet::FuncArgs;
use occam::netdb::attrs;
use occam::{execute_rollback, TaskResult, TaskState};

const TARGET: &str = "dc01.pod01.tor00";

/// The firmware-upgrade steps: (device function or DB write, fail label).
fn upgrade_program(ctx: &occam::TaskCtx) -> TaskResult<()> {
    let net = ctx.network(TARGET)?;
    net.apply("f_drain")?;
    net.set(attrs::FIRMWARE_VERSION, "fw-2.1.0".into())?;
    net.set(attrs::FIRMWARE_BINARY, "s3://fw/2.1.0.bin".into())?;
    net.apply_with("f_push", &FuncArgs::one("admin", "drained"))?;
    net.apply("f_alloc_ip")?;
    net.apply("f_ping_test")?;
    net.apply("f_optic_test")?;
    net.apply("f_dealloc_ip")?;
    net.apply("f_undrain")?;
    Ok(())
}

/// Device functions in execution order (the injectable failure points).
const FUNC_STEPS: &[&str] = &[
    "f_drain",
    "f_push",
    "f_alloc_ip",
    "f_ping_test",
    "f_optic_test",
    "f_dealloc_ip",
    "f_undrain",
];

fn run_with_failure_at(func: &str) -> (occam::TaskReport, bool) {
    let (rt, _ft) = occam::emulated_deployment(1, 6);
    let svc = occam::emu_service(&rt);
    let before_db = rt.db().read_view();
    svc.library().fail_at(func, 0);
    let report = rt.task("firmware_upgrade").run(upgrade_program);
    assert_eq!(report.state, TaskState::Aborted, "failure at {func}");
    svc.library().clear_faults();
    execute_rollback(&report, rt.db(), svc)
        .unwrap_or_else(|e| panic!("rollback execution failed at {func}: {e}"));
    // Database restored exactly.
    let db_restored = rt.db().read_view() == before_db;
    // Device state clean: undrained, no test IP.
    let net = svc.net();
    let guard = net.lock();
    let id = guard.device_by_name(TARGET).unwrap();
    let sw = guard.switch(id).unwrap();
    let device_clean = !sw.drained && sw.test_ip.is_none();
    (report, db_restored && device_clean)
}

#[test]
fn rollback_recovers_at_every_device_function_failure() {
    for func in FUNC_STEPS {
        let (report, recovered) = run_with_failure_at(func);
        assert!(
            recovered,
            "failure at {func}: state not restored; plan was {:?}",
            report.rollback.as_ref().map(|p| p.arrow_notation())
        );
    }
}

#[test]
fn plans_match_grammar_expectations_per_failure_point() {
    let expectations: &[(&str, &str)] = &[
        // Drain itself failed: its effects did not commit, nothing to undo.
        ("f_drain", ""),
        // Push failed after the DB writes: revert both writes, undrain.
        ("f_push", "r(DB_CHANGE) -> r(DB_CHANGE) -> UNDRAIN"),
        // Alloc failed: cfg_change completed -> revert + re-push + undrain.
        (
            "f_alloc_ip",
            "r(DB_CHANGE) -> r(DB_CHANGE) -> PUSH_CFG -> UNDRAIN",
        ),
        // Ping failed inside testing: tear down env first (the paper's
        // walkthrough).
        (
            "f_ping_test",
            "UNPREPARE -> r(DB_CHANGE) -> r(DB_CHANGE) -> PUSH_CFG -> UNDRAIN",
        ),
        (
            "f_optic_test",
            "UNPREPARE -> r(DB_CHANGE) -> r(DB_CHANGE) -> PUSH_CFG -> UNDRAIN",
        ),
        (
            "f_dealloc_ip",
            "UNPREPARE -> r(DB_CHANGE) -> r(DB_CHANGE) -> PUSH_CFG -> UNDRAIN",
        ),
        // Undrain failed: testing completed cleanly, so only the
        // cfg_change reverts and the device undrains.
        (
            "f_undrain",
            "r(DB_CHANGE) -> r(DB_CHANGE) -> PUSH_CFG -> UNDRAIN",
        ),
    ];
    for (func, expected) in expectations {
        let (report, _) = run_with_failure_at(func);
        let plan = report.rollback.as_ref().unwrap();
        assert_eq!(
            plan.arrow_notation(),
            *expected,
            "plan mismatch for failure at {func}"
        );
    }
}

#[test]
fn db_write_failures_are_also_recoverable() {
    // Fail the second set() (firmware binary) via a database fault.
    let (rt, _ft) = occam::emulated_deployment(1, 6);
    let svc = occam::emu_service(&rt);
    let before_db = rt.db().read_view();
    let report = rt.task("firmware_upgrade").run(|ctx| {
        let net = ctx.network(TARGET)?;
        net.apply("f_drain")?;
        net.set(attrs::FIRMWARE_VERSION, "fw-2.1.0".into())?;
        // Fail the *write* query of the next set (its single snapshot
        // read, query 0, passes).
        ctx.runtime()
            .db()
            .set_fault_plan(occam::netdb::FaultPlan::fail_at([1]));
        net.set(attrs::FIRMWARE_BINARY, "s3://fw/2.1.0.bin".into())?;
        unreachable!("previous set must fail");
    });
    rt.db().set_fault_plan(occam::netdb::FaultPlan::none());
    assert_eq!(report.state, TaskState::Aborted);
    let plan = report.rollback.as_ref().unwrap();
    assert_eq!(plan.arrow_notation(), "r(DB_CHANGE) -> UNDRAIN");
    execute_rollback(&report, rt.db(), svc).unwrap();
    assert_eq!(rt.db().read_view(), before_db);
}
