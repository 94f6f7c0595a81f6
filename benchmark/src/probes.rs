//! Per-layer probes: after the traced window, replay a sample of that
//! window's inputs single-threaded against each crate's public functions
//! and time the calls from outside.
//!
//! Probes run after the output checks, on a fleet that is about to be
//! discarded, so the ones that mutate (direct runs, commits, wave
//! execution) need no scratch copy of the 141k-device database; tree,
//! scheduler and certifier state is replayed on scratch instances.

use crate::fleet::Fleet;
use crate::stats::median_us;
use crate::workload::Task;
use occam::cert::{Certifier, Footprint};
use occam::core::TaskState;
use occam::gateway::{Catalog, SubmitOutcome, WorkflowSpec};
use occam::netdb::{attrs, Assertion, WalRecord, WriteOp};
use occam::objtree::{LockMode, ObjTree, ObjectId, TaskId};
use occam::regex::Pattern;
use occam::rollback::{parse_log, rollback_plan};
use occam::sched::{Policy, Scheduler};
use occam::spec::CONFIG_VERSION;
use occam::update::{diff, execute_plan, ExecOptions, Synthesizer, TrafficClass};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Tasks replayed by the cheap probes.
const SAMPLE: usize = 256;
/// Tasks re-run whole through `TaskBuilder::run`, and the wall time they
/// may take together.
const DIRECT_SAMPLE: usize = 48;
const DIRECT_BUDGET: Duration = Duration::from_millis(2500);
/// `planned_update` tasks taken apart into diff/synth/verify/exec.
const UPDATE_SAMPLE: usize = 4;
/// Locks held at once in the scratch tree: the engine's worker-pool size.
const ACTIVE_LOCKS: usize = 8;

/// Medians in µs; `0.0` where the workload never entered the layer.
#[derive(Default, Debug)]
pub struct ProbeResults {
    pub gateway_admit_us: f64,
    pub core_direct_run_us: f64,
    /// Informational breakdown of `core_direct_run_us` by workflow.
    pub direct_run_by_workflow: BTreeMap<&'static str, (usize, f64)>,
    pub spec_compile_us: f64,
    pub regex_compile_us: f64,
    pub regex_relate_us: f64,
    pub objtree_insert_us: f64,
    pub objtree_release_us: f64,
    pub sched_invocation_us: f64,
    pub netdb_read_view_us: f64,
    pub netdb_scoped_read_us: f64,
    pub netdb_scoped_read_under_write_us: f64,
    pub netdb_commit_us: f64,
    pub netdb_view_refresh_us: f64,
    pub cert_commit_us: f64,
    pub update_diff_us: f64,
    pub update_synth_us: f64,
    pub update_verify_us: f64,
    pub update_exec_us: f64,
    pub rollback_plan_us: f64,
    /// Anything a probe found wrong (a replayed task that did not
    /// complete, a rollback that did not restore); makes the run incorrect.
    pub violations: Vec<String>,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, ns(started.elapsed()))
}

/// An evenly strided sample of at most `n` items.
fn stride<'a>(tasks: &[&'a Task], n: usize) -> Vec<&'a Task> {
    if tasks.len() <= n {
        return tasks.to_vec();
    }
    (0..n).map(|i| tasks[i * tasks.len() / n]).collect()
}

/// The task with parameter values no earlier task pushed, so a replayed
/// `planned_update` still has a diff to plan.
fn refreshed(task: &Task, i: usize) -> Vec<(String, String)> {
    task.params
        .iter()
        .map(|(k, v)| match k.as_str() {
            "version" | "generation" | "firmware" => (k.clone(), format!("{v}-probe{i}")),
            _ => (k.clone(), v.clone()),
        })
        .collect()
}

/// Runs every probe over `window_tasks` (the traced window's completed
/// tasks, in completion order).
pub fn run_probes(fleet: &Fleet, window_tasks: &[&Task]) -> ProbeResults {
    let mut r = ProbeResults::default();
    let sample = stride(window_tasks, SAMPLE);
    let writes: Vec<&Task> = sample.iter().copied().filter(|t| t.is_write()).collect();
    let catalog = Catalog::standard();

    // regex: compile each distinct scope once, relate neighbours.
    let mut patterns: BTreeMap<&str, Pattern> = BTreeMap::new();
    let mut compile = Vec::new();
    for t in &sample {
        if !patterns.contains_key(t.scope.as_str()) {
            let (p, dt) = time(|| Pattern::from_glob(&t.scope).expect("generated scope"));
            compile.push(dt);
            patterns.insert(&t.scope, p);
        }
    }
    r.regex_compile_us = median_us(&mut compile);
    let mut relate: Vec<u64> = sample
        .windows(2)
        .map(|w| {
            time(|| black_box(patterns[w[0].scope.as_str()].relate(&patterns[w[1].scope.as_str()])))
                .1
        })
        .collect();
    r.regex_relate_us = median_us(&mut relate);

    // spec: the template pipeline the engine runs per task.
    let mut spec = Vec::new();
    for t in &sample {
        let entry = catalog.get(t.workflow).expect("catalog workflow");
        let params: BTreeMap<String, String> = t.params.iter().cloned().collect();
        let (compiled, dt) = time(|| {
            occam::spec::instantiate(entry.template, &t.scope, &params)
                .and_then(|src| occam::spec::parse_spec(&src))
                .and_then(occam::spec::compile)
        });
        if let Err(e) = compiled {
            r.violations
                .push(format!("spec probe: {} does not compile: {e}", t.workflow));
        }
        spec.push(dt);
    }
    r.spec_compile_us = median_us(&mut spec);

    // objtree + sched: the write tasks' regions through a scratch tree,
    // as many locks live at once as the pool has workers.
    {
        let mut tree = ObjTree::new();
        let mut sched: Scheduler = Scheduler::new(Policy::Ldsf);
        let mut live: VecDeque<(TaskId, Vec<ObjectId>)> = VecDeque::new();
        let (mut insert, mut release, mut invoke) = (Vec::new(), Vec::new(), Vec::new());
        for (i, t) in writes.iter().enumerate() {
            let task = TaskId(i as u64 + 1);
            let p = &patterns[t.scope.as_str()];
            let (covering, dt) = time(|| {
                let covering = tree.insert_region(p);
                for &obj in &covering {
                    tree.request_lock(task, obj, LockMode::Exclusive, i as u64, t.urgent);
                }
                covering
            });
            insert.push(dt);
            invoke.push(time(|| sched.sched(&mut tree).len()).1);
            live.push_back((task, covering));
            if live.len() > ACTIVE_LOCKS {
                let (old, covering) = live.pop_front().expect("non-empty");
                release.push(
                    time(|| {
                        tree.release_task(old);
                        for obj in covering {
                            tree.release_ref(obj);
                        }
                    })
                    .1,
                );
                invoke.push(time(|| sched.sched(&mut tree).len()).1);
            }
        }
        r.objtree_insert_us = median_us(&mut insert);
        r.objtree_release_us = median_us(&mut release);
        r.sched_invocation_us = median_us(&mut invoke);
    }

    // cert: the sample as one serial history through a scratch certifier.
    {
        let view = fleet.db.read_view();
        let cert = Certifier::new();
        let mut count = view.commits();
        let mut commit = Vec::new();
        for t in &sample {
            let p = &patterns[t.scope.as_str()];
            let mut fp = Footprint::new();
            let floor = count;
            if t.is_write() {
                count += 1;
                for name in view.select_devices(p) {
                    fp.write(name, count);
                }
            } else {
                fp.read(p.clone(), count);
            }
            let (res, dt) = time(|| {
                let token = cert.begin(t.workflow, floor);
                cert.commit(token, fp)
            });
            if let Err(e) = res {
                r.violations
                    .push(format!("cert probe: serial history rejected: {e}"));
            }
            commit.push(dt);
        }
        r.cert_commit_us = median_us(&mut commit);
    }

    // netdb: reads, then the same reads under a committing writer, then
    // the write tasks' batches, then view refreshes.
    {
        let db = &fleet.db;
        let mut rv: Vec<u64> = (0..SAMPLE)
            .map(|_| {
                time(|| {
                    for _ in 0..10 {
                        black_box(db.read_view());
                    }
                })
                .1 / 10
            })
            .collect();
        r.netdb_read_view_us = median_us(&mut rv);

        let scoped = || -> Vec<u64> {
            sample
                .iter()
                .map(|t| {
                    let view = db.read_view();
                    time(|| {
                        black_box(
                            view.get_attr(&patterns[t.scope.as_str()], attrs::DEVICE_STATUS)
                                .len(),
                        )
                    })
                    .1
                })
                .collect()
        };
        r.netdb_scoped_read_us = median_us(&mut scoped());

        // ROADMAP serial point (b): one thread commits while one reads.
        let victims = db
            .read_view()
            .select_devices(&Pattern::from_glob("dc*.pod00.*").expect("literal glob"));
        let stop = AtomicBool::new(false);
        r.netdb_scoped_read_under_write_us = std::thread::scope(|s| {
            s.spawn(|| {
                let mut gen = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    for chunk in victims.chunks(16) {
                        gen += 1;
                        let ops: Vec<WriteOp> = chunk
                            .iter()
                            .map(|name| WriteOp::SetDeviceAttr {
                                name: name.clone(),
                                attr: "BENCH_PROBE".into(),
                                value: gen.into(),
                            })
                            .collect();
                        db.batch(&ops).expect("probe batch");
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                }
            });
            let mut under: Vec<u64> = (0..3).flat_map(|_| scoped()).collect();
            stop.store(true, Ordering::Relaxed);
            median_us(&mut under)
        });

        let view = db.read_view();
        let mut commit = Vec::new();
        for (i, t) in writes.iter().enumerate() {
            let ops: Vec<WriteOp> = view
                .select_devices(&patterns[t.scope.as_str()])
                .into_iter()
                .map(|name| WriteOp::SetDeviceAttr {
                    name,
                    attr: "BENCH_PROBE".into(),
                    value: (i as i64).into(),
                })
                .collect();
            if ops.is_empty() {
                continue;
            }
            commit.push(time(|| db.batch(&ops).expect("probe batch")).1);
        }
        r.netdb_commit_us = median_us(&mut commit);

        let expect = [Assertion::new(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE)];
        let mut refresh: Vec<u64> = sample
            .iter()
            .map(|t| {
                let view = db.read_view();
                time(|| {
                    black_box(
                        db.views()
                            .refresh(view.snapshot(), &patterns[t.scope.as_str()], &expect)
                            .devices,
                    )
                })
                .1
            })
            .collect();
        r.netdb_view_refresh_us = median_us(&mut refresh);
    }

    // gateway: admission alone, with an empty queue.
    {
        let engine = fleet.server.engine();
        let mut admit = Vec::new();
        for t in sample.iter().take(SAMPLE / 2) {
            let (outcome, dt) = time(|| engine.submit("status_audit", &t.scope, false, &[]));
            if !matches!(outcome, SubmitOutcome::Accepted(_)) {
                r.violations.push(format!("admit probe: {outcome:?}"));
            }
            admit.push(dt);
            while engine.queued() != 0 || !engine.all_terminal() {
                std::thread::yield_now();
            }
        }
        r.gateway_admit_us = median_us(&mut admit);
    }

    // core: whole tasks through `TaskBuilder::run`, no gateway, no queue.
    {
        let started = Instant::now();
        let mut all = Vec::new();
        let mut by_workflow: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (i, t) in stride(window_tasks, DIRECT_SAMPLE).into_iter().enumerate() {
            if started.elapsed() > DIRECT_BUDGET {
                break;
            }
            let entry = catalog.get(t.workflow).expect("catalog workflow");
            let program = catalog
                .build(t.workflow, WorkflowSpec::new(&t.scope, &refreshed(t, i)))
                .expect("catalog workflow");
            let (report, dt) = time(|| {
                fleet
                    .rt
                    .task(format!("probe.{}", t.workflow))
                    .isolation(entry.isolation)
                    .run(|ctx| program(ctx))
            });
            if report.state != TaskState::Completed {
                r.violations.push(format!(
                    "direct-run probe: {} on {} ended {:?}: {:?}",
                    t.workflow, t.scope, report.state, report.error
                ));
            }
            all.push(dt);
            by_workflow.entry(t.workflow).or_default().push(dt);
        }
        r.core_direct_run_us = median_us(&mut all);
        r.direct_run_by_workflow = by_workflow
            .into_iter()
            .map(|(w, mut v)| (w, (v.len(), median_us(&mut v))))
            .collect();
    }

    // update: a planned update taken apart into its four stages.
    {
        let updates: Vec<&Task> = window_tasks
            .iter()
            .copied()
            .filter(|t| t.workflow == "planned_update")
            .collect();
        let (mut d, mut s, mut v, mut x) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (i, t) in stride(&updates, UPDATE_SAMPLE).into_iter().enumerate() {
            match update_stages(fleet, t, i) {
                Ok([diff_ns, synth_ns, verify_ns, exec_ns]) => {
                    d.push(diff_ns);
                    s.push(synth_ns);
                    v.push(verify_ns);
                    x.push(exec_ns);
                }
                Err(e) => r.violations.push(format!("update probe: {e}")),
            }
        }
        r.update_diff_us = median_us(&mut d);
        r.update_synth_us = median_us(&mut s);
        r.update_verify_us = median_us(&mut v);
        r.update_exec_us = median_us(&mut x);
    }

    match rollback_probe(fleet) {
        Ok(us) => r.rollback_plan_us = us,
        Err(e) => r.violations.push(format!("rollback probe: {e}")),
    }
    r
}

/// One `planned_update` taken apart: `diff`, `Synthesizer::synthesize`,
/// `Synthesizer::verify` and `execute_plan`, each timed alone. Their
/// inputs (the target snapshot, the topology, the traffic classes) are
/// built outside the timers. Returns the four times in ns.
fn update_stages(fleet: &Fleet, task: &Task, i: usize) -> Result<[u64; 4], String> {
    let scope = Pattern::from_glob(&task.scope).map_err(|e| e.to_string())?;
    let params: BTreeMap<String, String> = refreshed(task, i).into_iter().collect();
    let old = fleet.db.read_view();
    let mut records = Vec::new();
    for name in old.select_devices(&scope) {
        if let Some(generation) = params.get("generation") {
            records.push(WalRecord::SetDeviceAttr {
                name: name.clone(),
                attr: CONFIG_VERSION.into(),
                value: generation.as_str().into(),
            });
        }
        if let Some(version) = params.get("firmware") {
            records.push(WalRecord::SetDeviceAttr {
                name: name.clone(),
                attr: attrs::FIRMWARE_VERSION.into(),
                value: version.as_str().into(),
            });
            records.push(WalRecord::SetDeviceAttr {
                name,
                attr: attrs::FIRMWARE_BINARY.into(),
                value: format!("img-{version}").as_str().into(),
            });
        }
    }
    let target = old.overlay(&records);
    let (topo, classes): (occam::topology::Topology, Vec<TrafficClass>) = {
        let net = fleet.emu.net();
        let net = net.lock();
        let classes = net
            .flows()
            .iter()
            .map(|f| TrafficClass::pair(format!("flow-{}", f.id), f.src, f.dst, f.id))
            .collect();
        (net.topo.clone(), classes)
    };

    let (ops, diff_ns) = time(|| diff(&old, &target));
    if ops.is_empty() {
        return Err(format!("empty diff for {}", task.scope));
    }
    // The fleet is quiesced (the output checks found no device drained),
    // so the synthesizer's default base model is the true one.
    let (plan, synth_ns) = time(|| Synthesizer::new(&topo, &classes).synthesize(&ops));
    let plan = plan.map_err(|e| format!("synthesis failed: {e}"))?;
    let (violations, verify_ns) = time(|| Synthesizer::new(&topo, &classes).verify(&plan));
    if !violations.is_empty() {
        return Err(format!(
            "synthesized plan fails verification: {violations:?}"
        ));
    }
    let opts = ExecOptions {
        task_prefix: "probe.planned_update".into(),
        ..ExecOptions::default()
    };
    let (report, exec_ns) = time(|| execute_plan(&fleet.rt, &plan, &opts, None));
    if !report.ok() {
        return Err(format!("wave execution failed: {:?}", report.error));
    }
    Ok([diff_ns, synth_ns, verify_ns, exec_ns])
}

/// Fails one firmware upgrade deliberately (the device push errors),
/// times `parse_log` + `rollback_plan` on its execution log, executes
/// the plan and verifies the pod is back where it started.
fn rollback_probe(fleet: &Fleet) -> Result<f64, String> {
    let scope = "dc01.pod00.*";
    let pattern = Pattern::from_glob(scope).map_err(|e| e.to_string())?;
    let before = fleet
        .db
        .read_view()
        .get_attr(&pattern, attrs::FIRMWARE_VERSION);
    let library = fleet.emu.library();
    library.fail_at("f_push", 0);
    let program = Catalog::standard()
        .build(
            "firmware_upgrade",
            WorkflowSpec::new(scope, &[("version".into(), "fw-rollback-probe".into())]),
        )
        .expect("catalog workflow");
    let report = fleet.rt.task("probe.rollback").run(|ctx| program(ctx));
    library.clear_faults();
    if report.state != TaskState::Aborted {
        return Err(format!(
            "the injected fault did not abort the task: {:?}",
            report.state
        ));
    }
    let tree = parse_log(&report.log).map_err(|e| format!("log does not parse: {e:?}"))?;
    if rollback_plan(&tree).is_empty() {
        return Err("empty rollback plan for a task that drained and wrote".into());
    }
    let mut plan_ns: Vec<u64> = (0..101)
        .map(|_| {
            time(|| {
                let tree = parse_log(black_box(&report.log)).expect("parsed above");
                black_box(rollback_plan(&tree))
            })
            .1
        })
        .collect();
    occam::execute_rollback(&report, &fleet.db, fleet.rt.service().as_ref())
        .map_err(|e| format!("rollback failed: {e}"))?;
    let view = fleet.db.read_view();
    if view.get_attr(&pattern, attrs::FIRMWARE_VERSION) != before {
        return Err("firmware versions not restored".into());
    }
    if view
        .get_attr(&pattern, attrs::DEVICE_STATUS)
        .values()
        .any(|v| v.as_str() != Some(attrs::STATUS_ACTIVE))
    {
        return Err("devices not back in active service".into());
    }
    let net = fleet.emu.net();
    let net = net.lock();
    for name in before.keys() {
        let id = net.device_by_name(name).ok_or("unknown device")?;
        if net.switch(id).is_some_and(|s| s.drained) {
            return Err(format!("{name} left drained"));
        }
    }
    Ok(median_us(&mut plan_ns))
}
