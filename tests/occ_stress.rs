//! Workspace-level stress test for mixed-isolation execution: optimistic
//! and pessimistic writers racing one contended row must lose no updates
//! (DESIGN.md §16 commit-time locking), with the online serializability
//! certifier attached as an independent oracle over the whole history.

use occam::netdb::{attrs, AttrValue};
use occam::{Isolation, TaskState};
use std::sync::Arc;

const COUNTER: &str = "STRESS_COUNT";

#[test]
fn mixed_isolation_increments_lose_nothing_and_certify_acyclic() {
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let cert = Arc::new(occam::cert::Certifier::with_obs(rt.obs()));
    rt.attach_certifier(Arc::clone(&cert));

    const WRITERS: u32 = 4;
    const INCREMENTS: u32 = 10;
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let rt = rt.clone();
            s.spawn(move || {
                // Even writers are optimistic (validation conflicts retry,
                // then fall back to 2PL); odd writers hold exclusive locks.
                let isolation = if w % 2 == 0 {
                    Isolation::Occ { max_retries: 8 }
                } else {
                    Isolation::TwoPl
                };
                for i in 0..INCREMENTS {
                    let report = rt
                        .task(format!("inc.w{w}.{i}"))
                        .isolation(isolation)
                        .run(|ctx| {
                            let net = ctx.network("dc01.pod00.tor00")?;
                            let current = net
                                .get(COUNTER)?
                                .get("dc01.pod00.tor00")
                                .and_then(AttrValue::as_int)
                                .unwrap_or(0);
                            net.set(COUNTER, AttrValue::from(current + 1))?;
                            Ok(())
                        });
                    assert_eq!(report.state, TaskState::Completed);
                }
            });
        }
    });

    let total = i64::from(WRITERS * INCREMENTS);
    let pat = occam::regex::Pattern::from_glob("dc01.pod00.tor00").unwrap();
    let finl = rt
        .db()
        .read_view()
        .get_attr(&pat, COUNTER)
        .get("dc01.pod00.tor00")
        .and_then(AttrValue::as_int)
        .unwrap_or(0);
    assert_eq!(finl, total, "lost updates across mixed isolation modes");
    assert_eq!(cert.committed(), u64::from(WRITERS * INCREMENTS));
    assert!(
        cert.is_acyclic(),
        "history not serializable: {:?}",
        cert.first_violation()
    );
    assert_eq!(cert.violations(), 0);
    rt.detach_certifier();
}

#[test]
fn occ_fallback_preserves_every_update() {
    // An optimistic task that must fall back (it applies a device
    // function) still lands both its database write and its RPC; the
    // fallback is invisible except in the counters.
    let (rt, _ft) = occam::emulated_deployment(1, 4);
    let report = rt
        .task("drain_pod")
        .isolation(Isolation::Occ { max_retries: 3 })
        .run(|ctx| {
            let net = ctx.network("dc01.pod00.*")?;
            net.set(attrs::DEVICE_STATUS, attrs::STATUS_UNDER_MAINTENANCE.into())?;
            net.apply("f_drain")?;
            Ok(())
        });
    assert_eq!(report.state, TaskState::Completed);
    assert_eq!(rt.obs().counter_value("core.occ.fallbacks"), 1);
    assert_eq!(rt.obs().counter_value("core.occ.commits"), 0);
    let pat = occam::regex::Pattern::from_glob("dc01.pod00.*").unwrap();
    for (name, v) in rt.db().read_view().get_attr(&pat, attrs::DEVICE_STATUS) {
        assert_eq!(
            v.as_str(),
            Some(attrs::STATUS_UNDER_MAINTENANCE),
            "{name} missed the fallback's write"
        );
    }
}
