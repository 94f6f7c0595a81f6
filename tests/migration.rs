//! The paper's §2.3 motivating example #1: a network migration task that
//! logically deletes devices and later inserts replacements. Task-level
//! isolation must hide the intermediate "devices missing" state from
//! concurrent tasks (a traffic-engineering reader must never observe it),
//! and a mid-migration failure must roll back to the original inventory.

use occam::emunet::FuncArgs;
use occam::netdb::attrs;
use occam::regex::Pattern;
use occam::{execute_rollback, TaskError, TaskState};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const OLD_DEV: &str = "dc01.pod02.tor00";
const NEW_DEV: &str = "dc01.pod02.tor90";

#[test]
fn migration_commits_atomically() {
    let (rt, _ft) = occam::emulated_deployment(1, 6);
    let report = rt.task("migration").run(|ctx| {
        let pod = ctx.network("dc01.pod02.*")?;
        pod.remove_device(OLD_DEV)?;
        pod.insert_device(
            NEW_DEV,
            vec![(attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into())],
        )?;
        pod.close();
        Ok(())
    });
    assert_eq!(report.state, TaskState::Completed, "{:?}", report.error);
    assert!(!rt.db().device_exists(OLD_DEV).unwrap());
    assert!(rt.db().device_exists(NEW_DEV).unwrap());
}

#[test]
fn intermediate_state_is_invisible_to_concurrent_readers() {
    // The exact hazard from the paper: a traffic-engineering task that
    // reads the pod mid-migration would see the old device logically gone
    // and trigger disruptive rerouting. With Occam, the reader serializes
    // after the migration commits and always sees a complete inventory.
    let (rt, _ft) = occam::emulated_deployment(1, 6);
    let baseline = rt
        .db()
        .select_devices(&Pattern::from_glob("dc01.pod02.*").unwrap())
        .unwrap()
        .len();
    let saw_partial = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    let rt1 = rt.clone();
    let migration = rt1.task("migration").spawn(move |ctx| {
        let pod = ctx.network("dc01.pod02.*")?;
        pod.remove_device(OLD_DEV)?;
        // A long gap between delete and insert: the dangerous window.
        std::thread::sleep(std::time::Duration::from_millis(120));
        pod.insert_device(
            NEW_DEV,
            vec![(attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into())],
        )?;
        Ok(())
    });
    std::thread::sleep(std::time::Duration::from_millis(20));
    for i in 0..4 {
        let rt = rt.clone();
        let saw = Arc::clone(&saw_partial);
        readers.push(rt.clone().task(format!("te_reader{i}")).spawn(move |ctx| {
            let pod = ctx.network_read("dc01.pod02.*")?;
            let n = pod.devices()?.len();
            if n < baseline {
                saw.store(true, Ordering::SeqCst);
            }
            Ok(())
        }));
        std::thread::sleep(std::time::Duration::from_millis(15));
    }
    assert_eq!(migration.join().unwrap().state, TaskState::Completed);
    for r in readers {
        assert_eq!(r.join().unwrap().state, TaskState::Completed);
    }
    assert!(
        !saw_partial.load(Ordering::SeqCst),
        "a reader observed the mid-migration inventory"
    );
}

#[test]
fn failed_migration_rolls_back_to_original_inventory() {
    let (rt, _ft) = occam::emulated_deployment(1, 6);
    let svc = occam::emu_service(&rt);
    let before = rt.db().read_view();
    let report = rt.task("migration").run(|ctx| {
        let pod = ctx.network("dc01.pod02.*")?;
        pod.remove_device(OLD_DEV)?;
        pod.insert_device(
            NEW_DEV,
            vec![(attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into())],
        )?;
        // Pushing the new fabric config fails (e.g. the replacement is not
        // racked yet).
        Err(TaskError::Failed("replacement device unreachable".into()))
    });
    assert_eq!(report.state, TaskState::Aborted);
    let plan = report.rollback.as_ref().expect("plan");
    assert_eq!(plan.arrow_notation(), "r(DB_CHANGE) -> r(DB_CHANGE)");
    execute_rollback(&report, rt.db(), svc).unwrap();
    // Original inventory restored, including the old device's links.
    assert_eq!(rt.db().read_view(), before);
}

#[test]
fn insert_outside_scope_is_rejected() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let report = rt.task("bad_insert").run(|ctx| {
        let pod = ctx.network("dc01.pod01.*")?;
        pod.insert_device("dc01.pod02.sw99", vec![])
    });
    assert_eq!(report.state, TaskState::Aborted);
    assert!(matches!(report.error, Some(TaskError::Failed(_))));
    // Nothing was written.
    assert!(!rt.db().device_exists("dc01.pod02.sw99").unwrap());
}

#[test]
fn symbolic_region_covers_devices_added_later() {
    // Paper §3.1: `network(dc1.*)` is symbolic — it covers devices being
    // added by an ongoing task. A writer to the pod must wait for the
    // migration even though the new device did not exist when it locked.
    let (rt, _ft) = occam::emulated_deployment(1, 6);
    let rt1 = rt.clone();
    let h = rt1.task("migration").spawn(|ctx| {
        let pod = ctx.network("dc01.pod02.*")?;
        pod.insert_device(NEW_DEV, vec![])?;
        std::thread::sleep(std::time::Duration::from_millis(100));
        // Still inside the transaction: configure the new device.
        let fresh = ctx.network_of_devices(&[NEW_DEV])?;
        fresh.set(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE.into())?;
        // The emulated fabric has no such physical switch, so the push is
        // expected to fail at the device layer; the logical write above is
        // what this test observes.
        if let Err(e) = fresh.apply_with("f_push", &FuncArgs::none()) {
            assert!(matches!(e, TaskError::Device(_)), "{e}");
        }
        Ok(())
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    // This writer names the new device explicitly; its scope is inside
    // dc01.pod02.* so it must serialize behind the migration.
    let report = rt.task("configure_new").run(|ctx| {
        let dev = ctx.network_of_devices(&[NEW_DEV])?;
        let status = dev.get(attrs::DEVICE_STATUS)?;
        // By the time we run, the migration has committed: the device
        // exists and is ACTIVE.
        assert_eq!(
            status.get(NEW_DEV).and_then(|v| v.as_str()),
            Some(attrs::STATUS_ACTIVE)
        );
        Ok(())
    });
    assert_eq!(h.join().unwrap().state, TaskState::Completed);
    assert_eq!(report.state, TaskState::Completed);
}

#[test]
fn rollback_after_insert_and_push_handles_deleted_target() {
    // The task inserts a (logical-only) device, writes firmware, and tries
    // to push — which fails at the device layer because the replacement has
    // no physical switch yet. The log therefore ends in a *broken*
    // cfg_change, so the plan is pure DB reverts (no re-push to a row the
    // first revert deletes), and executing it restores the exact snapshot.
    let (rt, _ft) = occam::emulated_deployment(1, 6);
    let svc = occam::emu_service(&rt);
    let before = rt.db().read_view();
    let report = rt.task("insert_push_fail").run(|ctx| {
        let pod = ctx.network("dc01.pod03.*")?;
        pod.insert_device(NEW_POD3_DEV, vec![])?;
        pod.set(attrs::FIRMWARE_VERSION, "fw-3".into())?;
        pod.apply_with("f_push", &FuncArgs::one("admin", "active"))?;
        Err(TaskError::Failed("later step failed".into()))
    });
    assert_eq!(report.state, TaskState::Aborted);
    let result = occam::execute_rollback(&report, rt.db(), svc);
    assert!(
        result.is_ok(),
        "rollback must tolerate re-pushing around the deleted insert: {result:?}"
    );
    assert_eq!(rt.db().read_view(), before);
}

const NEW_POD3_DEV: &str = "dc01.pod03.tor77";
