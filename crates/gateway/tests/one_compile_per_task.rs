//! A gateway task compiles its scope exactly once — at admission, into the
//! runtime's pattern cache — and its spec exactly once. Validation parses
//! the scope without compiling it, and the worker's region acquisition
//! hits the admission-time cache entry.
//!
//! This file must contain only this single test: the step counter
//! ([`occam_regex::subset_steps`]) is process-global, and any concurrently
//! running test that compiles a pattern would perturb the deltas asserted
//! here.

use occam_core::Runtime;
use occam_emunet::{EmuNet, EmuService};
use occam_gateway::{Engine, EngineConfig, SubmitOutcome, WirePhase};
use occam_netdb::{attrs, Database};
use occam_regex::{subset_steps, Pattern};
use occam_topology::FatTree;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn run_to_completion(engine: &Engine, workflow: &str, scope: &str) {
    let params = [("version".to_string(), "fw-2.0.0".to_string())];
    let SubmitOutcome::Accepted(ticket) = engine.submit(workflow, scope, false, &params) else {
        panic!("{workflow} over {scope} not admitted");
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match engine.status(ticket) {
            (WirePhase::Completed, _) => return,
            (WirePhase::Queued | WirePhase::Running, _) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            (phase, msg) => panic!("{workflow} over {scope}: {phase:?} {msg}"),
        }
    }
}

#[test]
fn a_task_compiles_its_scope_once_and_its_spec_once() {
    let ft = FatTree::build(1, 4).unwrap();
    let db = Arc::new(Database::new());
    for (_, d) in ft
        .topo
        .devices()
        .filter(|(_, d)| d.role != occam_topology::Role::Host)
    {
        db.insert_device(
            &d.name,
            vec![
                (attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into()),
                (attrs::FIRMWARE_VERSION.into(), "fw-1.0.0".into()),
            ],
        )
        .unwrap();
    }
    let rt = Runtime::new(db, Arc::new(EmuService::new(EmuNet::from_fattree(&ft))));
    let engine = Engine::new(rt, EngineConfig::default());
    let compiled = || engine.runtime().obs().counter_value("spec.compiled");

    // Warm-up: `.*` and whatever else a workflow compiles besides its own
    // scope is cached after its first run.
    run_to_completion(&engine, "status_audit", "dc01.pod00.*");
    run_to_completion(&engine, "firmware_upgrade", "dc01.pod00.tor00");

    for (workflow, scope) in [
        ("status_audit", "dc01.pod01.*"),
        ("firmware_upgrade", "dc01.pod01.tor0[01]"),
    ] {
        let (steps, specs) = (subset_steps(), compiled());
        run_to_completion(&engine, workflow, scope);
        let by_task = subset_steps() - steps;
        assert_eq!(compiled() - specs, 1, "{workflow}: one spec compile");

        let steps = subset_steps();
        Pattern::from_glob(scope).unwrap();
        let one_compile = subset_steps() - steps;
        assert!(one_compile > 0);
        assert_eq!(by_task, one_compile, "{workflow}: one scope compile");
    }
    engine.shutdown();
}
