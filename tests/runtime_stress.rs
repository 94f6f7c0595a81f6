//! Stress tests: many concurrent Occam tasks over overlapping regions.
//! Verifies serializability effects, lock hygiene, and deadlock recovery
//! under real thread interleavings.

use occam::netdb::attrs;
use occam::regex::Pattern;
use occam::{TaskError, TaskState};
use std::sync::Arc;

#[test]
fn forty_conflicting_tasks_all_terminate_cleanly() {
    let (rt, _ft) = occam::emulated_deployment(1, 6);
    let mut handles = Vec::new();
    for i in 0..40u32 {
        let rt = rt.clone();
        let scope = match i % 4 {
            0 => "dc01.pod00.*".to_string(),
            1 => "dc01.*".to_string(),
            2 => format!("dc01.pod0{}.*", i % 6),
            _ => format!("dc01.pod0{}.tor*", i % 6),
        };
        handles.push(rt.clone().task(format!("task{i}")).spawn(move |ctx| {
            if i % 5 == 0 {
                let net = ctx.network_read(&scope)?;
                let _ = net.get(attrs::DEVICE_STATUS)?;
            } else {
                let net = ctx.network(&scope)?;
                net.set("TOUCHED_BY", (i as i64).into())?;
            }
            Ok(())
        }));
    }
    let mut completed = 0;
    let mut deadlocked = 0;
    for h in handles {
        let r = h.join().unwrap();
        match r.state {
            TaskState::Completed => completed += 1,
            TaskState::Aborted => {
                assert!(
                    matches!(r.error, Some(TaskError::Deadlock)),
                    "only deadlock aborts expected: {:?}",
                    r.error
                );
                deadlocked += 1;
            }
            other => panic!("unexpected terminal state {other:?}"),
        }
    }
    assert_eq!(completed + deadlocked, 40);
    // Single-object tasks cannot deadlock: everything completes.
    assert_eq!(deadlocked, 0, "single-region tasks never cycle");
    // All locks and objects drained.
    assert_eq!(rt.active_objects(), 0);
}

#[test]
fn deadlock_victims_can_be_reexecuted_to_completion() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let mk = |rt: occam::Runtime,
              first: &'static str,
              second: &'static str,
              b: Arc<std::sync::Barrier>| {
        rt.clone()
            .task(format!("{first}->{second}"))
            .spawn(move |ctx| {
                let _a = ctx.network(first)?;
                b.wait();
                let _b = ctx.network(second)?;
                Ok(())
            })
    };
    let h1 = mk(
        rt.clone(),
        "dc01.pod00.*",
        "dc01.pod01.*",
        Arc::clone(&barrier),
    );
    let h2 = mk(
        rt.clone(),
        "dc01.pod01.*",
        "dc01.pod00.*",
        Arc::clone(&barrier),
    );
    let r1 = h1.join().unwrap();
    let r2 = h2.join().unwrap();
    let victims: Vec<&occam::TaskReport> = [&r1, &r2]
        .into_iter()
        .filter(|r| r.state == TaskState::Aborted)
        .collect();
    assert_eq!(victims.len(), 1, "exactly one victim");
    assert!(matches!(victims[0].error, Some(TaskError::Deadlock)));
    // Re-execute the victim's program: it now completes (paper: abort and
    // re-execute the task that caused the deadlock).
    let retry = rt.task("retry").run(|ctx| {
        let _a = ctx.network("dc01.pod00.*")?;
        let _b = ctx.network("dc01.pod01.*")?;
        Ok(())
    });
    assert_eq!(retry.state, TaskState::Completed);
    assert_eq!(rt.active_objects(), 0);
}

#[test]
fn mixed_read_write_storm_preserves_db_consistency() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let scope = Pattern::from_glob("dc01.pod00.*").unwrap();
    rt.db().set_attr(&scope, "GEN", 0i64.into()).unwrap();
    let mut handles = Vec::new();
    for i in 0..16u32 {
        let rt = rt.clone();
        handles.push(rt.clone().task(format!("w{i}")).spawn(move |ctx| {
            let net = ctx.network("dc01.pod00.*")?;
            let vals = net.get("GEN")?;
            // All devices in the region must show the same generation:
            // torn writes would surface here.
            let set: std::collections::BTreeSet<i64> =
                vals.values().filter_map(|v| v.as_int()).collect();
            if set.len() != 1 {
                return Err(TaskError::Failed(format!("torn generations {set:?}")));
            }
            let g = set.into_iter().next().unwrap_or(0);
            net.set("GEN", (g + 1).into())?;
            Ok(())
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap().state, TaskState::Completed);
    }
    let vals = rt.db().get_attr(&scope, "GEN").unwrap();
    let set: std::collections::BTreeSet<i64> = vals.values().filter_map(|v| v.as_int()).collect();
    assert_eq!(set.len(), 1);
    assert_eq!(set.into_iter().next(), Some(16));
}

#[test]
fn wal_replay_matches_after_concurrent_task_storm() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let mut handles = Vec::new();
    for i in 0..12u32 {
        let rt = rt.clone();
        handles.push(rt.clone().task(format!("s{i}")).spawn(move |ctx| {
            let net = ctx.network(&format!("dc01.pod0{}.*", i % 4))?;
            net.set("ROUND", (i as i64).into())?;
            net.set_links(occam::netdb::attrs::LINK_SPEED, 100i64.into())?;
            Ok(())
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap().state, TaskState::Completed);
    }
    let replayed = occam::netdb::Store::replay(&rt.db().wal_records());
    assert_eq!(replayed, *rt.db().read_view());
}
