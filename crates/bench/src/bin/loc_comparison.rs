//! Case studies #4-#6 (paper §8.3): lines of stateful service-invocation
//! code, legacy workflow style vs Occam.
//!
//! Each case study is implemented twice and *executed* both ways against
//! identical deployments (asserting identical end state):
//!
//! - **legacy**: direct service/database invocation with the boilerplate a
//!   raw workflow program needs — manual scope enumeration, ad-hoc
//!   advisory locking against concurrent workflows, per-device calls,
//!   old-value capture and hand-written failure cleanup;
//! - **occam**: the same management logic against the Occam API, where the
//!   runtime supplies those guardrails.
//!
//! LoC is counted from this very source file between `BEGIN`/`END`
//! markers (non-blank, non-comment lines), so the numbers are honest:
//! the counted code is exactly the code that ran.

use occam::emunet::FuncArgs;
use occam::netdb::attrs;
use occam::netdb::AttrValue;
use occam::regex::Pattern;
use occam::TaskState;

type Deployment = (occam::Runtime, occam::topology::FatTree);

fn deploy() -> Deployment {
    occam::emulated_deployment(1, 6)
}

// ---------------------------------------------------------------------
// Case study #4: allocate test IPs, run connectivity tests, deallocate.
// ---------------------------------------------------------------------

fn legacy_cs4(rt: &occam::Runtime) -> Result<(), String> {
    let db = rt.db();
    let svc = rt.service();
    // BEGIN legacy_cs4
    // Resolve the scope by hand.
    let scope = Pattern::from_glob("dc01.pod02.tor*").map_err(|e| e.to_string())?;
    let devices = db.select_devices(&scope).map_err(|e| e.to_string())?;
    if devices.is_empty() {
        return Err("no devices in scope".to_string());
    }
    // Ad-hoc advisory locking so a concurrent run of this workflow does
    // not deallocate our test IPs (the production incident the paper
    // describes). Spin until every device is unclaimed, then claim.
    loop {
        let claims = db.get_attr(&scope, "WF_LOCK").map_err(|e| e.to_string())?;
        if claims.values().all(|v| v.as_str() == Some("")) || claims.is_empty() {
            let mut ok = true;
            for d in &devices {
                let one = Pattern::from_names(&[d.as_str()]).map_err(|e| e.to_string())?;
                if db.set_attr(&one, "WF_LOCK", "cs4".into()).is_err() {
                    ok = false;
                    break;
                }
            }
            if ok {
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // Allocate test IPs device by device; remember which succeeded so a
    // mid-sequence failure can be cleaned up by hand.
    let mut allocated: Vec<String> = Vec::new();
    let mut failure: Option<String> = None;
    for d in &devices {
        match svc.execute("f_alloc_ip", std::slice::from_ref(d), &FuncArgs::none()) {
            Ok(_) => allocated.push(d.clone()),
            Err(e) => {
                failure = Some(e.to_string());
                break;
            }
        }
    }
    // Run the connectivity test only if allocation fully succeeded.
    if failure.is_none() {
        for d in &devices {
            if let Err(e) = svc.execute("f_ping_test", std::slice::from_ref(d), &FuncArgs::none()) {
                failure = Some(e.to_string());
                break;
            }
        }
    }
    // Deallocate everything we allocated (also the failure path).
    for d in &allocated {
        if let Err(e) = svc.execute("f_dealloc_ip", std::slice::from_ref(d), &FuncArgs::none()) {
            failure.get_or_insert(e.to_string());
        }
    }
    // Release the advisory locks.
    for d in &devices {
        let one = Pattern::from_names(&[d.as_str()]).map_err(|e| e.to_string())?;
        db.set_attr(&one, "WF_LOCK", "".into())
            .map_err(|e| e.to_string())?;
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
    // END legacy_cs4
}

fn occam_cs4(rt: &occam::Runtime) -> TaskState {
    rt.task("cs4_connectivity_test")
        .run(|ctx| {
            // BEGIN occam_cs4
            let tors = ctx.network("dc01.pod02.tor*")?;
            tors.apply("f_alloc_ip")?;
            tors.apply("f_ping_test")?;
            tors.apply("f_dealloc_ip")?;
            tors.close();
            Ok(())
            // END occam_cs4
        })
        .state
}

// ---------------------------------------------------------------------
// Case study #5: check device health, activate links, generate and verify
// configuration (backbone-style workflow).
// ---------------------------------------------------------------------

fn legacy_cs5(rt: &occam::Runtime) -> Result<(), String> {
    let db = rt.db();
    let svc = rt.service();
    // BEGIN legacy_cs5
    let scope = Pattern::from_glob("dc01.pod03.*").map_err(|e| e.to_string())?;
    let devices = db.select_devices(&scope).map_err(|e| e.to_string())?;
    // Health check: every device must be ACTIVE before we proceed; a
    // legacy workflow polls the database and re-reads to be sure the view
    // did not change under it.
    let mut healthy = false;
    for _attempt in 0..3 {
        let statuses = db
            .get_attr(&scope, attrs::DEVICE_STATUS)
            .map_err(|e| e.to_string())?;
        let all_active = devices
            .iter()
            .all(|d| statuses.get(d).and_then(|v| v.as_str()) == Some(attrs::STATUS_ACTIVE));
        if all_active {
            healthy = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    if !healthy {
        return Err("devices not healthy".to_string());
    }
    // Activate every link touching the scope, capturing old values so a
    // failure can be reverted by hand.
    let links = db.links_touching(&scope).map_err(|e| e.to_string())?;
    let old = db
        .get_link_attr(&scope, attrs::LINK_STATUS)
        .map_err(|e| e.to_string())?;
    let mut written: Vec<(String, String)> = Vec::new();
    let mut failure: Option<String> = None;
    for (a, z) in &links {
        match db.set_link_attr(a, z, attrs::LINK_STATUS, attrs::UP.into()) {
            Ok(_) => written.push((a.clone(), z.clone())),
            Err(e) => {
                failure = Some(e.to_string());
                break;
            }
        }
    }
    if let Some(e) = failure {
        // Hand-written rollback of the partial link activation.
        for (a, z) in &written {
            let prev = old
                .get(&(a.clone(), z.clone()))
                .cloned()
                .unwrap_or_else(|| AttrValue::str(attrs::DOWN));
            let _ = db.set_link_attr(a, z, attrs::LINK_STATUS, prev);
        }
        return Err(e);
    }
    // Generate configuration and push it, device by device.
    for d in &devices {
        svc.execute(
            "f_create_config",
            std::slice::from_ref(d),
            &FuncArgs::none(),
        )
        .map_err(|e| e.to_string())?;
        svc.execute("f_push", std::slice::from_ref(d), &FuncArgs::none())
            .map_err(|e| e.to_string())?;
    }
    // Monitor: verify link state stuck.
    let after = db
        .get_link_attr(&scope, attrs::LINK_STATUS)
        .map_err(|e| e.to_string())?;
    if after.values().any(|v| v.as_str() != Some(attrs::UP)) {
        return Err("link activation did not converge".to_string());
    }
    Ok(())
    // END legacy_cs5
}

fn occam_cs5(rt: &occam::Runtime) -> TaskState {
    rt.task("cs5_activate_links")
        .run(|ctx| {
            // BEGIN occam_cs5
            let net = ctx.network("dc01.pod03.*")?;
            let statuses = net.get(attrs::DEVICE_STATUS)?;
            if statuses
                .values()
                .any(|v| v.as_str() != Some(attrs::STATUS_ACTIVE))
            {
                return Err(occam::TaskError::Failed("devices not healthy".into()));
            }
            net.set_links(attrs::LINK_STATUS, attrs::UP.into())?;
            net.apply("f_create_config")?;
            net.apply("f_push")?;
            let after = net.get_links(attrs::LINK_STATUS)?;
            if after.values().any(|v| v.as_str() != Some(attrs::UP)) {
                return Err(occam::TaskError::Failed("did not converge".into()));
            }
            net.close();
            Ok(())
            // END occam_cs5
        })
        .state
}

// ---------------------------------------------------------------------
// Case study #6: change device states, create configurations, deploy.
// ---------------------------------------------------------------------

fn legacy_cs6(rt: &occam::Runtime) -> Result<(), String> {
    let db = rt.db();
    let svc = rt.service();
    // BEGIN legacy_cs6
    let scope = Pattern::from_glob("dc01.pod04.*").map_err(|e| e.to_string())?;
    let devices = db.select_devices(&scope).map_err(|e| e.to_string())?;
    // Capture old state for manual revert.
    let old = db
        .get_attr(&scope, attrs::DEVICE_STATUS)
        .map_err(|e| e.to_string())?;
    let mut changed: Vec<String> = Vec::new();
    let mut failure: Option<String> = None;
    for d in &devices {
        let one = Pattern::from_names(&[d.as_str()]).map_err(|e| e.to_string())?;
        match db.set_attr(
            &one,
            attrs::DEVICE_STATUS,
            attrs::STATUS_UNDER_MAINTENANCE.into(),
        ) {
            Ok(_) => changed.push(d.clone()),
            Err(e) => {
                failure = Some(e.to_string());
                break;
            }
        }
    }
    if failure.is_none() {
        for d in &devices {
            if let Err(e) = svc.execute(
                "f_create_config",
                std::slice::from_ref(d),
                &FuncArgs::none(),
            ) {
                failure = Some(e.to_string());
                break;
            }
            if let Err(e) = svc.execute(
                "f_push",
                std::slice::from_ref(d),
                &FuncArgs::one("admin", "drained"),
            ) {
                failure = Some(e.to_string());
                break;
            }
        }
    }
    if let Some(e) = failure {
        // Hand-written revert of the device-state changes.
        for d in &changed {
            let one = Pattern::from_names(&[d.as_str()]).map_err(|e2| e2.to_string())?;
            let prev = old
                .get(d)
                .cloned()
                .unwrap_or_else(|| AttrValue::str(attrs::STATUS_ACTIVE));
            let _ = db.set_attr(&one, attrs::DEVICE_STATUS, prev);
        }
        return Err(e);
    }
    Ok(())
    // END legacy_cs6
}

fn occam_cs6(rt: &occam::Runtime) -> TaskState {
    rt.task("cs6_deploy_config")
        .run(|ctx| {
            // BEGIN occam_cs6
            let net = ctx.network("dc01.pod04.*")?;
            net.set(attrs::DEVICE_STATUS, attrs::STATUS_UNDER_MAINTENANCE.into())?;
            net.apply("f_create_config")?;
            net.apply_with("f_push", &FuncArgs::one("admin", "drained"))?;
            net.close();
            Ok(())
            // END occam_cs6
        })
        .state
}

// ---------------------------------------------------------------------
// LoC counting and the harness.
// ---------------------------------------------------------------------

fn count_loc(marker: &str) -> usize {
    let src = include_str!("loc_comparison.rs");
    let begin = format!("// BEGIN {marker}");
    let end = format!("// END {marker}");
    let mut counting = false;
    let mut n = 0;
    for line in src.lines() {
        let t = line.trim();
        if t == begin {
            counting = true;
            continue;
        }
        if t == end {
            break;
        }
        if counting && !t.is_empty() && !t.starts_with("//") {
            n += 1;
        }
    }
    n
}

fn main() {
    println!("## Case studies 4-6: lines of stateful service-invocation code");
    println!("case\tlegacy\toccam\treduction");
    fn occam_cs4_wrapper(rt: &occam::Runtime) -> Result<(), String> {
        match occam_cs4(rt) {
            TaskState::Completed => Ok(()),
            other => Err(format!("{other:?}")),
        }
    }
    fn occam_cs5_wrapper(rt: &occam::Runtime) -> Result<(), String> {
        match occam_cs5(rt) {
            TaskState::Completed => Ok(()),
            other => Err(format!("{other:?}")),
        }
    }
    fn occam_cs6_wrapper(rt: &occam::Runtime) -> Result<(), String> {
        match occam_cs6(rt) {
            TaskState::Completed => Ok(()),
            other => Err(format!("{other:?}")),
        }
    }
    for (name, legacy, occam_fn) in [
        (
            "cs4",
            legacy_cs4 as fn(&occam::Runtime) -> Result<(), String>,
            occam_cs4_wrapper as fn(&occam::Runtime) -> Result<(), String>,
        ),
        ("cs5", legacy_cs5, occam_cs5_wrapper),
        ("cs6", legacy_cs6, occam_cs6_wrapper),
    ] {
        // Run both implementations on fresh deployments; both must succeed
        // and produce the same database state.
        let (rt_legacy, _) = deploy();
        legacy(&rt_legacy).unwrap_or_else(|e| panic!("{name} legacy failed: {e}"));
        let (rt_occam, _) = deploy();
        occam_fn(&rt_occam).unwrap_or_else(|e| panic!("{name} occam failed: {e}"));
        // Compare end states, ignoring the legacy advisory-lock attribute.
        let mut legacy_snap = rt_legacy.db().read_view().materialize();
        for dev in legacy_snap.devices.values_mut() {
            dev.attrs.remove("WF_LOCK");
        }
        let occam_snap = rt_occam.db().read_view();
        assert_eq!(
            legacy_snap, *occam_snap,
            "{name}: both implementations end in the same database state"
        );

        let l = count_loc(&format!("legacy_{name}"));
        let o = count_loc(&format!("occam_{name}"));
        println!(
            "{name}\t{l}\t{o}\t{:.0}%",
            100.0 * (1.0 - o as f64 / l as f64)
        );
    }
    println!("# paper: cs4 131->6, cs5 307->11, cs6 311->6 (LoC of stateful service invocation)");
}
