//! The firmware-upgrade failure walkthrough of paper §6.
//!
//! Runs the full upgrade task (drain → set firmware → push → alloc test IP
//! → ping → optic test → dealloc → undrain), injects a failure at the
//! fiber-optic test, prints the typed execution log, the syntax tree, and
//! the suggested rollback plan, then executes the plan and verifies the
//! database returned to its pre-task snapshot.
//!
//! Run with: `cargo run --example firmware_upgrade_rollback`

use occam::emunet::FuncArgs;
use occam::netdb::attrs;
use occam::rollback::{parse_log, render_log, render_tree};
use occam::{execute_rollback, TaskState};

fn main() {
    let (runtime, _ft) = occam::emulated_deployment(1, 6);
    let svc = occam::emu_service(&runtime);
    let before = runtime.db().read_view();

    // Fail the first f_optic_test invocation, like the paper's example.
    svc.library().fail_at("f_optic_test", 0);

    let report = runtime.task("firmware_upgrade").run(|ctx| {
        let target = ctx.network("dc01.pod01.tor00")?;
        target.apply("f_drain")?;
        target.set(attrs::FIRMWARE_VERSION, "fw-2.1.0".into())?;
        target.set(attrs::FIRMWARE_BINARY, "s3://firmware/fw-2.1.0.bin".into())?;
        target.apply_with("f_push", &FuncArgs::one("admin", "drained"))?;
        target.apply("f_alloc_ip")?;
        target.apply("f_ping_test")?;
        target.apply("f_optic_test")?; // <- injected failure fires here
        target.apply("f_dealloc_ip")?;
        target.apply("f_undrain")?;
        target.close();
        Ok(())
    });

    assert_eq!(report.state, TaskState::Aborted);
    println!("task aborted: {}", report.error.as_ref().unwrap());
    println!();
    println!("typed execution log:");
    println!("  {}", render_log(&report.log));
    println!();
    println!("syntax tree (Figure 6):");
    let tree = parse_log(&report.log).unwrap();
    for line in render_tree(&tree, &report.log).lines() {
        println!("  {line}");
    }
    let plan = report.rollback.as_ref().expect("plan suggested");
    println!();
    println!("suggested rollback plan: {}", plan.arrow_notation());
    for (i, step) in report.rollback_steps().iter().enumerate() {
        println!("  {}. {step}", i + 1);
    }
    assert_eq!(
        plan.arrow_notation(),
        "UNPREPARE -> r(DB_CHANGE) -> r(DB_CHANGE) -> PUSH_CFG -> UNDRAIN",
        "matches the paper's §6 walkthrough"
    );

    // Execute the plan and verify recovery.
    let steps = execute_rollback(&report, runtime.db(), svc).unwrap();
    println!();
    println!("executed {steps} rollback steps");
    assert_eq!(runtime.db().read_view(), before, "database fully restored");
    let net = svc.net();
    let guard = net.lock();
    let id = guard.device_by_name("dc01.pod01.tor00").unwrap();
    let sw = guard.switch(id).unwrap();
    assert!(!sw.drained, "traffic restored");
    assert!(sw.test_ip.is_none(), "test environment torn down");
    println!("database and device state verified back to the pre-task snapshot");
}
