//! End-to-end integration tests: Occam programs against the emulated
//! network and the source-of-truth database, spanning every crate.

use occam::emunet::{Delivery, DeviceService, FlowClass, FuncArgs};
use occam::netdb::attrs;
use occam::regex::Pattern;
use occam::{TaskError, TaskState};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn maintenance_task_updates_db_and_devices_atomically() {
    let (rt, _ft) = occam::emulated_deployment(1, 6);
    let report = rt.task("maintenance").run(|ctx| {
        let pod = ctx.network("dc01.pod05.*")?;
        pod.set(attrs::DEVICE_STATUS, attrs::STATUS_UNDER_MAINTENANCE.into())?;
        pod.apply("f_drain")?;
        Ok(())
    });
    assert_eq!(report.state, TaskState::Completed);
    assert_eq!(rt.active_objects(), 0);

    let scope = Pattern::from_glob("dc01.pod05.*").unwrap();
    let statuses = rt.db().get_attr(&scope, attrs::DEVICE_STATUS).unwrap();
    assert_eq!(statuses.len(), 6);
    assert!(statuses
        .values()
        .all(|v| v.as_str() == Some(attrs::STATUS_UNDER_MAINTENANCE)));

    let svc = occam::emu_service(&rt);
    let net = svc.net();
    let guard = net.lock();
    for name in statuses.keys() {
        let id = guard.device_by_name(name).unwrap();
        assert!(guard.switch(id).unwrap().drained, "{name} drained");
    }
}

#[test]
fn overlapping_writers_never_interleave() {
    // N tasks increment a counter attribute on the same pod; under task
    // isolation the final value is exactly N.
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    rt.db()
        .set_attr(
            &Pattern::from_glob("dc01.pod00.tor00").unwrap(),
            "COUNTER",
            0i64.into(),
        )
        .unwrap();
    let n = 12;
    let mut handles = Vec::new();
    for i in 0..n {
        let rt = rt.clone();
        handles.push(rt.clone().task(format!("inc{i}")).spawn(move |ctx| {
            let net = ctx.network("dc01.pod00.tor00")?;
            let cur = net.get("COUNTER")?;
            let v = cur
                .get("dc01.pod00.tor00")
                .and_then(|v| v.as_int())
                .unwrap_or(0);
            // Read-modify-write across two queries: only task-level
            // isolation makes this safe.
            std::thread::yield_now();
            net.set("COUNTER", (v + 1).into())?;
            Ok(())
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap().state, TaskState::Completed);
    }
    let val = rt
        .db()
        .get_attr(&Pattern::from_glob("dc01.pod00.tor00").unwrap(), "COUNTER")
        .unwrap()
        .remove("dc01.pod00.tor00")
        .unwrap();
    assert_eq!(val.as_int(), Some(n as i64));
}

#[test]
fn readers_run_concurrently_under_shared_locks() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let concurrent = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for i in 0..6 {
        let rt = rt.clone();
        let c = Arc::clone(&concurrent);
        let p = Arc::clone(&peak);
        handles.push(rt.clone().task(format!("reader{i}")).spawn(move |ctx| {
            let net = ctx.network_read("dc01.*")?;
            let inside = c.fetch_add(1, Ordering::SeqCst) + 1;
            p.fetch_max(inside, Ordering::SeqCst);
            let _ = net.get(attrs::DEVICE_STATUS)?;
            std::thread::sleep(std::time::Duration::from_millis(60));
            c.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap().state, TaskState::Completed);
    }
    assert!(
        peak.load(Ordering::SeqCst) >= 2,
        "shared locks admit concurrent readers (peak {})",
        peak.load(Ordering::SeqCst)
    );
}

#[test]
fn containment_conflict_blocks_whole_dc_writer() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let order = Arc::new(std::sync::Mutex::new(Vec::<&'static str>::new()));
    let o1 = Arc::clone(&order);
    let rt1 = rt.clone();
    let h1 = rt1.task("pod_writer").spawn(move |ctx| {
        let _net = ctx.network("dc01.pod01.*")?;
        std::thread::sleep(std::time::Duration::from_millis(100));
        o1.lock().unwrap().push("pod");
        Ok(())
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    let o2 = Arc::clone(&order);
    let report = rt.task("dc_writer").run(move |ctx| {
        let _net = ctx.network("dc01.*")?;
        o2.lock().unwrap().push("dc");
        Ok(())
    });
    h1.join().unwrap();
    assert_eq!(report.state, TaskState::Completed);
    assert_eq!(
        *order.lock().unwrap(),
        vec!["pod", "dc"],
        "DC writer waited for the pod"
    );
}

#[test]
fn db_failure_aborts_task_and_suggests_revert() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let before = rt.db().read_view();
    // First write succeeds, second query hits an injected connection
    // failure.
    let report = rt.task("flaky_db").run(|ctx| {
        let net = ctx.network("dc01.pod00.*")?;
        net.set("STAGE", 1i64.into())?;
        ctx.runtime()
            .db()
            .set_fault_plan(occam::netdb::FaultPlan::fail_at([0]));
        net.set("STAGE", 2i64.into())?;
        Ok(())
    });
    rt.db().set_fault_plan(occam::netdb::FaultPlan::none());
    assert_eq!(report.state, TaskState::Aborted);
    assert!(matches!(report.error, Some(TaskError::Db(_))));
    let plan = report.rollback.as_ref().unwrap();
    assert_eq!(plan.arrow_notation(), "r(DB_CHANGE)");
    occam::execute_rollback(&report, rt.db(), occam::emu_service(&rt)).unwrap();
    assert_eq!(rt.db().read_view(), before);
}

#[test]
fn traffic_survives_serialized_conflicting_tasks() {
    // The Figure 12 "with locking" half, as an assertion.
    let (rt, ft) = occam::emulated_deployment(1, 6);
    let svc = occam::emu_service(&rt);
    let flow = {
        let net = svc.net();
        let mut guard = net.lock();
        for &agg in &ft.aggs[0][1..] {
            guard.switch_mut(agg).unwrap().drained = true;
        }
        guard.add_flow(
            ft.hosts[0][0][0],
            ft.hosts[2][0][0],
            50.0,
            FlowClass::Background,
        )
    };
    let rt1 = rt.clone();
    let h1 = rt1.task("upgrade").spawn(move |ctx| {
        let net = ctx.network("dc01.pod00.agg00")?;
        net.apply("f_drain")?;
        net.apply_with("f_upgrade_data_plane", &FuncArgs::one("phase", "begin"))?;
        ctx.runtime().service().advance(4);
        std::thread::sleep(std::time::Duration::from_millis(80));
        net.apply_with("f_upgrade_data_plane", &FuncArgs::one("phase", "commit"))?;
        net.apply("f_undrain")?;
        Ok(())
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    let report2 = rt.task("turnup").run(|ctx| {
        let net = ctx.network("dc01.pod00.agg00")?;
        net.apply("f_push")?;
        Ok(())
    });
    assert_eq!(h1.join().unwrap().state, TaskState::Completed);
    assert_eq!(report2.state, TaskState::Completed);
    svc.advance(3);
    let net = svc.net();
    let guard = net.lock();
    let black_holed = guard
        .history()
        .iter()
        .filter(|s| matches!(s.flow_rate.get(&flow), Some((Delivery::BlackHoled, _))))
        .count();
    assert_eq!(black_holed, 0, "no tick drops traffic under locking");
}

#[test]
fn pattern_cache_is_exercised_by_repeated_scopes() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    for _ in 0..4 {
        let report = rt.task("repeat").run(|ctx| {
            let _ = ctx.network_read("dc01.pod00.*")?;
            Ok(())
        });
        assert_eq!(report.state, TaskState::Completed);
    }
    let stats = rt.pattern_cache().stats();
    assert!(stats.hits >= 3, "repeated scopes hit the cache: {stats:?}");
}
