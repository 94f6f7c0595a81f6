//! Integration tests for the optimistic (OCC) execution mode and its
//! interaction with the online serializability certifier (DESIGN.md §16).

use occam_cert::Certifier;
use occam_core::{Isolation, Runtime, TaskError, TaskState};
use occam_emunet::{EmuNet, EmuService};
use occam_netdb::{attrs, AttrValue, Database};
use occam_sched::Policy;
use occam_topology::FatTree;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A k=4 Fat-tree runtime with every switch in the database, bound to a
/// fresh registry so `core.occ.*` counters can be asserted.
fn runtime() -> Runtime {
    let ft = FatTree::build(1, 4).unwrap();
    let reg = occam_obs::Registry::new();
    let db = Arc::new(Database::with_obs(&reg));
    for (_, d) in ft
        .topo
        .devices()
        .filter(|(_, d)| d.role != occam_topology::Role::Host)
    {
        db.insert_device(
            &d.name,
            vec![(attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into())],
        )
        .unwrap();
    }
    let service = Arc::new(EmuService::new(EmuNet::from_fattree(&ft)));
    Runtime::with_obs(db, service, Policy::Ldsf, &reg)
}

#[test]
fn occ_task_commits_without_locks() {
    let rt = runtime();
    let rt2 = rt.clone();
    let report = rt
        .task("occ_writer")
        .isolation(Isolation::Occ { max_retries: 3 })
        .run(move |ctx| {
            let net = ctx.network("dc01.pod00.*")?;
            net.set("X", 7i64.into())?;
            // Optimistic execution takes no tree locks: nothing to block
            // on, nothing for a deadlock cycle to include.
            assert_eq!(rt2.active_objects(), 0, "OCC holds no object-tree nodes");
            Ok(())
        });
    assert_eq!(report.state, TaskState::Completed);
    assert_eq!(rt.obs().counter("core.occ.commits").get(), 1);
    assert_eq!(rt.obs().counter("core.occ.aborts").get(), 0);
    // The staged batch is published and durable.
    let snap = rt.db().query_read_view().unwrap();
    let pat = occam_regex::Pattern::from_glob("dc01.pod00.*").unwrap();
    for (_, v) in snap.get_attr(&pat, "X") {
        assert_eq!(v, AttrValue::from(7i64));
    }
}

#[test]
fn occ_reads_its_own_staged_writes() {
    let rt = runtime();
    let report = rt
        .task("read_your_writes")
        .isolation(Isolation::Occ { max_retries: 0 })
        .run(|ctx| {
            let net = ctx.network("dc01.pod00.tor00")?;
            net.set("X", 42i64.into())?;
            let vals = net.get("X")?;
            assert_eq!(vals.get("dc01.pod00.tor00"), Some(&AttrValue::from(42i64)));
            Ok(())
        });
    assert_eq!(report.state, TaskState::Completed);
}

#[test]
fn occ_conflict_retries_then_falls_back_to_2pl() {
    let rt = runtime();
    let db = Arc::clone(rt.db());
    let executions = Arc::new(AtomicU32::new(0));
    let ex = Arc::clone(&executions);
    let report = rt
        .task("contended")
        .isolation(Isolation::Occ { max_retries: 1 })
        .run(move |ctx| {
            let n = ex.fetch_add(1, Ordering::SeqCst);
            let net = ctx.network("dc01.pod00.tor00")?;
            let _ = net.get("X")?;
            if n < 2 {
                // Sabotage the first two (optimistic) attempts: another
                // commit touches the read/write shard after our snapshot.
                let pat = occam_regex::Pattern::from_glob("dc01.pod00.tor00").unwrap();
                db.set_attr(&pat, "interference", AttrValue::from(i64::from(n)))
                    .unwrap();
            }
            net.set("X", 1i64.into())?;
            Ok(())
        });
    assert_eq!(report.state, TaskState::Completed);
    // Attempt 1 (OCC) conflicts, attempt 2 (OCC retry) conflicts, the
    // driver exhausts max_retries=1 and re-executes under 2PL.
    assert_eq!(executions.load(Ordering::SeqCst), 3);
    assert_eq!(report.attempts, 3);
    assert_eq!(rt.obs().counter("core.occ.aborts").get(), 2);
    assert_eq!(rt.obs().counter("core.occ.fallbacks").get(), 1);
    assert_eq!(rt.obs().counter("core.occ.commits").get(), 0);
    // The 2PL attempt's write is published — nothing lost.
    let snap = rt.db().query_read_view().unwrap();
    let pat = occam_regex::Pattern::from_glob("dc01.pod00.tor00").unwrap();
    assert_eq!(
        snap.get_attr(&pat, "X").get("dc01.pod00.tor00"),
        Some(&AttrValue::from(1i64))
    );
}

#[test]
fn occ_apply_falls_back_immediately() {
    let rt = runtime();
    let executions = Arc::new(AtomicU32::new(0));
    let ex = Arc::clone(&executions);
    let report = rt
        .task("drainer")
        .isolation(Isolation::Occ { max_retries: 5 })
        .run(move |ctx| {
            ex.fetch_add(1, Ordering::SeqCst);
            let net = ctx.network("dc01.pod00.*")?;
            net.set(attrs::DEVICE_STATUS, attrs::STATUS_UNDER_MAINTENANCE.into())?;
            // Physical side effects cannot be staged: the optimistic
            // attempt aborts before the RPC is issued.
            net.apply("f_drain")?;
            Ok(())
        });
    assert_eq!(report.state, TaskState::Completed);
    assert_eq!(
        executions.load(Ordering::SeqCst),
        2,
        "one OCC attempt aborted pre-RPC, one 2PL re-execution"
    );
    assert_eq!(rt.obs().counter("core.occ.fallbacks").get(), 1);
    assert_eq!(rt.obs().counter("core.occ.commits").get(), 0);
}

#[test]
fn occ_readonly_task_never_conflicts() {
    let rt = runtime();
    let db = Arc::clone(rt.db());
    let report = rt
        .task("auditor")
        .isolation(Isolation::Occ { max_retries: 0 })
        .run(move |ctx| {
            let net = ctx.network_read("dc01.*")?;
            let statuses = net.get(attrs::DEVICE_STATUS)?;
            assert!(!statuses.is_empty());
            // A concurrent commit after our snapshot must not abort a
            // read-only optimistic task: its whole execution is one
            // consistent snapshot.
            let pat = occam_regex::Pattern::from_glob("dc01.pod00.tor00").unwrap();
            db.set_attr(&pat, "Y", AttrValue::from(1i64)).unwrap();
            let _ = net.view()?;
            Ok(())
        });
    assert_eq!(report.state, TaskState::Completed);
    assert_eq!(rt.obs().counter("core.occ.aborts").get(), 0);
    assert_eq!(rt.obs().counter("core.occ.commits").get(), 1);
}

#[test]
fn certifier_sees_footprints_from_both_isolation_modes() {
    let rt = runtime();
    let cert = Arc::new(Certifier::with_obs(rt.obs()));
    rt.attach_certifier(Arc::clone(&cert));
    let r1 = rt.task("pessimist").run(|ctx| {
        let net = ctx.network("dc01.pod00.tor00")?;
        let _ = net.get("X")?;
        net.set("X", 1i64.into())?;
        Ok(())
    });
    let r2 = rt
        .task("optimist")
        .isolation(Isolation::Occ { max_retries: 3 })
        .run(|ctx| {
            let net = ctx.network("dc01.pod00.tor01")?;
            let _ = net.get("X")?;
            net.set("X", 2i64.into())?;
            Ok(())
        });
    assert_eq!(r1.state, TaskState::Completed);
    assert_eq!(r2.state, TaskState::Completed);
    assert_eq!(cert.committed(), 2);
    assert!(cert.is_acyclic(), "{:?}", cert.first_violation());
    assert_eq!(cert.violations(), 0);
    assert_eq!(cert.window_len(), 0, "window drains with nothing in flight");
    rt.detach_certifier();
}

#[test]
fn certified_aborted_task_is_abandoned() {
    let rt = runtime();
    let cert = Arc::new(Certifier::new());
    rt.attach_certifier(Arc::clone(&cert));
    let report = rt.task("failer").run(|ctx| {
        let net = ctx.network("dc01.pod00.tor00")?;
        net.set("X", 1i64.into())?;
        Err(TaskError::Failed("deliberate".into()))
    });
    assert_eq!(report.state, TaskState::Aborted);
    assert_eq!(cert.committed(), 0, "aborted footprint never ingested");
    assert_eq!(cert.window_len(), 0, "abandoned token releases its floor");
}
