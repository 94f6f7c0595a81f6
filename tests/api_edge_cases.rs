//! Edge-case coverage of the public programming API.

use occam::netdb::attrs;
use occam::{TaskError, TaskState};

#[test]
fn invalid_scope_aborts_with_scope_error() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let report = rt.task("bad_scope").run(|ctx| {
        let _ = ctx.network_regex("(((")?;
        Ok(())
    });
    assert_eq!(report.state, TaskState::Aborted);
    assert!(matches!(report.error, Some(TaskError::Scope(_))));
    assert_eq!(rt.active_objects(), 0);
}

#[test]
fn empty_scope_locks_nothing_but_operates_on_nothing() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let report = rt.task("empty").run(|ctx| {
        let net = ctx.network_of_devices::<&str>(&[])?;
        assert!(net.devices()?.is_empty());
        assert!(net.get(attrs::DEVICE_STATUS)?.is_empty());
        let written = net.set("X", 1i64.into())?;
        assert!(written.is_empty());
        Ok(())
    });
    assert_eq!(report.state, TaskState::Completed, "{:?}", report.error);
    assert_eq!(rt.active_objects(), 0);
}

#[test]
fn scope_matching_no_devices_still_locks_the_region() {
    // A region over not-yet-existing devices locks symbolically: a second
    // writer to the same future region must wait.
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let rt1 = rt.clone();
    let h = rt1.task("future_region").spawn(|ctx| {
        let net = ctx.network("dc09.pod00.*")?;
        assert!(net.devices()?.is_empty());
        std::thread::sleep(std::time::Duration::from_millis(80));
        Ok(())
    });
    std::thread::sleep(std::time::Duration::from_millis(20));
    let t0 = std::time::Instant::now();
    let report = rt.task("same_future_region").run(|ctx| {
        let _ = ctx.network("dc09.pod00.*")?;
        Ok(())
    });
    assert_eq!(report.state, TaskState::Completed);
    assert!(
        t0.elapsed() >= std::time::Duration::from_millis(40),
        "second task waited for the symbolic lock"
    );
    h.join().unwrap();
}

#[test]
fn get_all_returns_full_attribute_maps() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let report = rt.task("get_all").run(|ctx| {
        let net = ctx.network_read("dc01.pod00.tor00")?;
        let all = net.get_all()?;
        let attrs_map = all.get("dc01.pod00.tor00").expect("device present");
        assert!(attrs_map.contains_key(attrs::DEVICE_STATUS));
        assert!(attrs_map.contains_key(attrs::FIRMWARE_VERSION));
        Ok(())
    });
    assert_eq!(report.state, TaskState::Completed);
}

#[test]
fn unknown_device_function_aborts_cleanly() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let report = rt.task("bogus_func").run(|ctx| {
        let net = ctx.network("dc01.pod00.tor00")?;
        net.apply("f_not_a_function")?;
        Ok(())
    });
    assert_eq!(report.state, TaskState::Aborted);
    assert!(matches!(report.error, Some(TaskError::Device(_))));
    // Untyped + failed: nothing entered the rollback grammar, so the plan
    // (over the empty prefix) is empty.
    assert!(report.rollback.as_ref().is_some_and(|p| p.is_empty()));
}

#[test]
fn pooled_handle_reports_aborted_tasks() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    assert!(rt.configure_pool(2));
    let ok = rt.task("ok").spawn_pooled(|_| Ok(()));
    let bad = rt
        .task("bad")
        .spawn_pooled(|_| Err(TaskError::Failed("deliberate".into())));
    assert_eq!(ok.wait().state, TaskState::Completed);
    let report = bad.wait();
    assert_eq!(report.state, TaskState::Aborted);
    assert_eq!(bad.try_report().map(|r| r.state), Some(TaskState::Aborted));
}

#[test]
fn scope_accessor_and_display() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    rt.task("scope").run(|ctx| {
        let net = ctx.network("dc01.pod00.*")?;
        assert!(net.scope().matches("dc01.pod00.tor01"));
        assert!(!net.scope().matches("dc01.pod01.tor01"));
        assert_eq!(net.scope().literal_prefix(), "dc01.pod00.");
        Ok(())
    });
}
