//! Tables 1-2 / §8.2 "Rollback plan generation": inject a failure at every
//! step of the firmware-upgrade task, print the typed log and the suggested
//! plan, execute the plan, and verify database + device recovery.

use occam::emunet::FuncArgs;
use occam::netdb::attrs;
use occam::rollback::render_log;
use occam::{execute_rollback, TaskResult, TaskState};

const TARGET: &str = "dc01.pod01.tor00";

fn upgrade(ctx: &occam::TaskCtx) -> TaskResult<()> {
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

fn main() {
    println!("## Rollback plan generation: firmware upgrade, one failure per step");
    println!();
    let steps = [
        "f_drain",
        "f_push",
        "f_alloc_ip",
        "f_ping_test",
        "f_optic_test",
        "f_dealloc_ip",
        "f_undrain",
    ];
    let mut all_recovered = true;
    for func in steps {
        let (rt, _ft) = occam::emulated_deployment(1, 6);
        let svc = occam::emu_service(&rt);
        let before = rt.db().read_view();
        svc.library().fail_at(func, 0);
        let report = rt.task("firmware_upgrade").run(upgrade);
        assert_eq!(report.state, TaskState::Aborted);
        svc.library().clear_faults();
        println!("### failure injected at {func}");
        println!("log:  {}", render_log(&report.log));
        let plan = report.rollback.as_ref().expect("plan");
        println!(
            "plan: {}",
            if plan.is_empty() {
                "(nothing to undo)".to_string()
            } else {
                plan.arrow_notation()
            }
        );
        let n = execute_rollback(&report, rt.db(), svc).unwrap();
        let db_ok = rt.db().read_view() == before;
        let dev_ok = {
            let net = svc.net();
            let guard = net.lock();
            let id = guard.device_by_name(TARGET).unwrap();
            let sw = guard.switch(id).unwrap();
            !sw.drained && sw.test_ip.is_none()
        };
        all_recovered &= db_ok && dev_ok;
        println!("executed {n} steps; database restored: {db_ok}; device clean: {dev_ok}");
        println!();
    }
    // And the no-failure control: the task completes, nothing to roll back.
    let (rt, _ft) = occam::emulated_deployment(1, 6);
    let report = rt.task("firmware_upgrade").run(upgrade);
    assert_eq!(report.state, TaskState::Completed);
    println!("### control (no injected failure)");
    println!("log:  {}", render_log(&report.log));
    println!("task completed; no rollback plan needed");
    assert!(all_recovered, "every failure point recovered");
}
