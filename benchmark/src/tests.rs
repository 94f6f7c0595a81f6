//! Harness unit tests. Anything that needs a deployment builds
//! `FleetShape::TINY` (one 2-pod production DC, a k=4 `dc01`).

use crate::driver::{new_record, ConnOutput, Outcome, Poller, RunCtl};
use crate::fleet::{Fleet, FleetShape};
use crate::host::{slowdown_of, HostProbe};
use crate::layers::PER_LAYER;
use crate::run::{failures, run_workload};
use crate::stats::{highest_supported_percentile, percentile};
use crate::trace::{TimedService, Tracer};
use crate::workload::{self, production_scope, ScopeKind, WORKLOADS};
use occam::emunet::{DeviceService, EmuNet, EmuService, FuncArgs};
use occam::gateway::{GatewayClient, SubmitReply};
use occam::regex::Pattern;
use occam::topology::FatTree;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};
use std::time::Instant;

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 50.0), Some(50));
    assert_eq!(percentile(&v, 90.0), Some(90));
    assert_eq!(percentile(&v, 99.0), Some(99));
    assert_eq!(percentile(&v, 100.0), Some(100));
    assert_eq!(percentile(&v, 0.0), Some(1));
    assert_eq!(percentile(&[7], 90.0), Some(7));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond() {
    assert_eq!(highest_supported_percentile(19), None);
    assert_eq!(highest_supported_percentile(20), Some(50.0));
    assert_eq!(highest_supported_percentile(99), Some(50.0));
    assert_eq!(highest_supported_percentile(100), Some(90.0));
    assert_eq!(highest_supported_percentile(150), Some(90.0));
    assert_eq!(highest_supported_percentile(999), Some(90.0));
    assert_eq!(highest_supported_percentile(1000), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));
}

#[test]
fn host_slowdown_is_the_spans_upper_quartile_over_the_runs_floor() {
    // 100 samples a millisecond apart: the first half on an undisturbed
    // core (30 µs), the second half beside a busy neighbour (40 µs).
    let samples: Vec<(u64, u32)> = (0..100u64)
        .map(|i| (i * 1_000_000, if i < 50 { 30_000 } else { 40_000 }))
        .collect();
    assert_eq!(slowdown_of(&samples, 0, 50_000_000), 1.0);
    let noisy = slowdown_of(&samples, 50_000_000, 100_000_000);
    assert!((noisy - 40.0 / 30.0).abs() < 1e-9, "{noisy}");
    // A neighbour busy for less than a quarter of the span does not show.
    assert_eq!(slowdown_of(&samples, 0, 60_000_000), 1.0);
    assert!(slowdown_of(&samples, 0, 70_000_000) > 1.3);
    // No sample in the span: no correction.
    assert_eq!(slowdown_of(&samples, 200_000_000, 300_000_000), 1.0);
    // The live probe reads about 1 on whatever runs the tests.
    let probe = HostProbe::start(Instant::now());
    std::thread::sleep(std::time::Duration::from_millis(300));
    let s = probe.slowdown(0, u64::MAX);
    assert!((1.0..3.0).contains(&s), "{s}");
}

#[test]
fn open_loop_schedule_is_a_function_of_the_seed() {
    let draw = |seed| workload::build("mixed_day", seed, &FleetShape::FULL, 2.0, 10.0);
    let plan = draw(7);
    let tasks = &plan.conns[0];
    let due = |p: &workload::Plan| p.conns[0].iter().map(|t| t.due_us).collect::<Vec<_>>();
    assert_eq!(due(&plan), due(&draw(7)));
    assert_ne!(due(&plan), due(&draw(8)));
    // Fixed counts: rate × warm-up before the window, rate × window in
    // it, and the same class mix whatever the seed.
    assert_eq!(tasks.len(), 480);
    assert_eq!(tasks.iter().filter(|t| t.due_us < 2_000_000).count(), 80);
    assert!(tasks.windows(2).all(|w| w[0].due_us <= w[1].due_us));
    assert!(tasks.last().unwrap().due_us < 12_000_000);
    let count = |p: &workload::Plan, w: &str| p.conns[0].iter().filter(|t| t.workflow == w).count();
    assert_eq!(count(&plan, "status_audit"), 384);
    assert_eq!(count(&plan, "planned_update"), 10);
    assert_eq!(count(&draw(8), "planned_update"), 10);
    // Nothing keeps audits out of a writer's flight: over a few seeds some
    // audit is due within a millisecond after a multi-commit writer.
    let meets = (1..=8).any(|seed| {
        let plan = draw(seed);
        let tasks = &plan.conns[0];
        tasks.windows(2).any(|w| {
            matches!(w[0].workflow, "firmware_upgrade" | "planned_update")
                && !w[1].is_write()
                && w[1].due_us - w[0].due_us < 1_000
        })
    });
    assert!(meets);
}

#[test]
fn plans_are_a_function_of_the_seed() {
    for name in WORKLOADS {
        let hash = |seed| workload::build(name, seed, &FleetShape::FULL, 2.0, 1.0).input_hash();
        assert_eq!(hash(3), hash(3), "{name}");
        assert_ne!(hash(3), hash(4), "{name}");
    }
}

#[test]
fn production_scopes_hit_every_kind_and_only_existing_names() {
    for shape in [FleetShape::FULL, FleetShape::TINY] {
        let names: HashSet<String> = shape
            .prod_dc_numbers()
            .flat_map(|dc| {
                (0..shape.prod_pods).flat_map(move |pod| {
                    (0..shape.prod_switches)
                        .map(move |sw| format!("dc{dc:02}.pod{pod:02}.sw{sw:02}"))
                })
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(11);
        for kind in [
            ScopeKind::DeviceSet,
            ScopeKind::Pod,
            ScopeKind::PodRange,
            ScopeKind::Dc,
        ] {
            for _ in 0..40 {
                let scope = production_scope(&mut rng, &shape, kind);
                let pattern = Pattern::from_glob(&scope).unwrap();
                let matched: Vec<&String> = names.iter().filter(|n| pattern.matches(n)).collect();
                // The glob names as many existing devices as its kind says:
                // a pod or switch number past the end of the fleet would
                // leave it short.
                let expect = match kind {
                    ScopeKind::DeviceSet => 8.min(shape.prod_switches),
                    ScopeKind::Pod => shape.prod_switches,
                    ScopeKind::PodRange => 8.min(shape.prod_pods) * shape.prod_switches,
                    ScopeKind::Dc => shape.prod_pods * shape.prod_switches,
                };
                assert_eq!(matched.len() as u32, expect, "{scope}");
            }
        }
    }
    // The audit workload draws all four kinds.
    let plan = workload::build("audit_fleet", 1, &FleetShape::FULL, 1.0, 1.0);
    let kinds: HashSet<usize> = plan.conns[0]
        .iter()
        .map(|t| match t.scope.as_str() {
            s if s.ends_with(".sw") || s.contains(".sw") => 0,
            s if s.contains('[') => 2,
            s if s.matches('.').count() == 2 => 1,
            _ => 3,
        })
        .collect();
    assert_eq!(kinds.len(), 4);
}

#[test]
fn dc01_scopes_name_only_existing_switches() {
    for shape in [FleetShape::FULL, FleetShape::TINY] {
        let ft = FatTree::build(1, shape.k).unwrap();
        let switches: HashSet<&str> = ft
            .topo
            .devices()
            .filter(|(_, d)| d.role != occam::topology::Role::Host)
            .map(|(_, d)| d.name.as_str())
            .collect();
        for name in ["maint_disjoint", "maint_hot", "update_waves", "mixed_day"] {
            let plan = workload::build(name, 5, &shape, 1.0, 1.0);
            let scopes: HashSet<&str> = plan
                .conns
                .iter()
                .flatten()
                .map(|t| t.scope.as_str())
                .filter(|s| s.starts_with("dc01."))
                .collect();
            for scope in scopes {
                let p = Pattern::from_glob(scope).unwrap();
                assert!(
                    switches.iter().any(|s| p.matches(s)),
                    "{name}: {scope} matches no dc01 switch"
                );
            }
        }
    }
}

#[test]
fn timed_service_returns_what_emu_service_returns() {
    let ft = FatTree::build(1, 4).unwrap();
    let plain = EmuService::new(EmuNet::from_fattree(&ft));
    let tracer = Tracer::new();
    let inner = Arc::new(EmuService::new(EmuNet::from_fattree(&ft)));
    let timed = TimedService::new(
        Arc::clone(&inner) as Arc<dyn DeviceService>,
        Arc::clone(&tracer),
    );
    let devices = vec![
        "dc01.pod00.agg00".to_string(),
        "dc01.pod00.tor01".to_string(),
    ];
    let calls: [(&str, &[String], FuncArgs); 6] = [
        ("f_drain", &devices, FuncArgs::none()),
        (
            "f_push",
            &devices,
            FuncArgs::one("firmware", "fw-9").with("admin", "drained"),
        ),
        ("f_ping_test", &devices, FuncArgs::none()), // precondition error: no test IP
        ("f_undrain", &devices, FuncArgs::none()),
        ("f_no_such_function", &devices, FuncArgs::none()),
        (
            "f_drain",
            &["dc01.pod77.agg00".to_string()],
            FuncArgs::none(),
        ),
    ];
    for enabled in [false, true] {
        tracer.enable(enabled);
        for (func, devs, args) in &calls {
            assert_eq!(
                format!("{:?}", timed.execute(func, devs, args)),
                format!("{:?}", plain.execute(func, devs, args)),
                "{func} (tracing {enabled})"
            );
        }
    }
    // One span per call made while enabled, none while dormant.
    let spans = tracer.take_device_spans();
    assert_eq!(spans.len(), calls.len());
    assert_eq!(spans[0].func, "f_drain");
    assert_eq!(spans[0].devices, 2);
    assert_eq!(spans[0].device_set, spans[3].device_set);
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    // The wave strategy's downcast still finds the emulator.
    assert!(timed.as_any().downcast_ref::<EmuService>().is_some());
}

#[test]
fn a_cancelled_ticket_counts_as_failed() {
    let fleet = Fleet::build(FleetShape::TINY, None);
    // Hold all of dc01 so the gateway task blocks on its region lock.
    let (release, held) = mpsc::channel::<()>();
    let (locked_tx, locked) = mpsc::channel::<()>();
    let holder = fleet.rt.task("holder").spawn(move |ctx| {
        let _all = ctx.network("dc01.*")?;
        locked_tx.send(()).ok();
        held.recv().ok();
        Ok(())
    });
    locked.recv().unwrap();

    let ctl = RunCtl {
        epoch: Instant::now(),
        stop: AtomicBool::new(false),
        tracing: AtomicBool::new(false),
    };
    let mut client = GatewayClient::connect(&fleet.addr).unwrap();
    let mut out = ConnOutput::default();
    let mut poller = Poller::new();
    for (i, workflow) in ["device_maintenance", "status_audit"]
        .into_iter()
        .enumerate()
    {
        let SubmitReply::Accepted(ticket) =
            client.submit(workflow, "dc01.pod00.*", false, &[]).unwrap()
        else {
            panic!("not admitted")
        };
        let mut rec = new_record(0, i, 0, 0);
        rec.ticket = Some(ticket);
        out.records.push(rec);
        poller.outstanding.push(i);
    }
    let blocked = out.records[0].ticket.unwrap();
    // The audit is optimistic and completes under the holder's lock; the
    // maintenance task cannot, and is cancelled while it waits.
    while out.records[1].outcome != Outcome::Completed {
        poller.sweep(&mut client, &ctl, &mut out);
    }
    assert!(client.cancel(blocked).unwrap());
    while !poller.outstanding.is_empty() {
        if !poller.sweep(&mut client, &ctl, &mut out) {
            poller.back_off();
        }
    }
    release.send(()).unwrap();
    holder.join().unwrap();

    assert_eq!(out.records[0].outcome, Outcome::Cancelled);
    let records: Vec<_> = out.records.iter().collect();
    let failed = failures(&records);
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].ticket, Some(blocked));
    fleet.shutdown();
}

#[test]
fn every_workload_runs_clean_on_the_tiny_fleet() {
    for name in WORKLOADS {
        for traced in [false, true] {
            let r = run_workload(name, 9, 1, traced, FleetShape::TINY, None);
            assert!(r.correct(), "{name} traced={traced}: {:?}", r.violations);
            assert_eq!(
                r.failed, 0,
                "{name} traced={traced}: {:?}",
                r.failure_samples
            );
            assert!(r.window.completed > 0, "{name}");
            if let Some(t) = &r.traced {
                assert_eq!(t.metrics.len(), PER_LAYER.len());
                assert!(
                    t.metrics.iter().all(|v| v.is_finite()),
                    "{name}: {:?}",
                    t.metrics
                );
            }
        }
    }
}

/// `BENCHMARK.json` is written by hand; hold it to the tables the code
/// prints from.
#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names_after = |key: &str| -> Vec<String> {
        let section = &text[text
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key}"))..];
        let end = section.find(']').expect("list closes");
        section[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    };
    assert_eq!(names_after("workloads"), workload::GATED);
    assert!(workload::GATED.iter().all(|w| WORKLOADS.contains(w)));
    assert_eq!(
        names_after("end_to_end"),
        crate::END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        names_after("per_layer"),
        PER_LAYER
            .iter()
            .map(|(n, _, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    assert!(text.contains(&format!("\"run_seconds\": {}", crate::DEFAULT_SECONDS)));
    for (name, unit, better) in PER_LAYER {
        assert!(
            text.contains(&format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
            )),
            "{name}"
        );
    }
}
