//! The spec compiler: the only factory of executable workflow programs.
//!
//! [`compile`] validates a [`Spec`] and wraps it as a [`Compiled`]
//! program; [`template_program`] is the gateway-catalog entry point that
//! defers the whole instantiate → parse → validate → compile pipeline to
//! task execution time (so a missing required parameter surfaces as a
//! normal task failure, not a submission error — the engine's retry
//! policy and error reporting already handle those).
//!
//! Three realizations:
//!
//! - **Direct apply**: one region acquisition under strict 2PL, then a
//!   straight interpretation of the lowered step sequence. The sequence
//!   is exactly what the validator proved rollback-safe.
//! - **Audit**: a lock-free snapshot read evaluated through the netdb
//!   incremental view cache ([`occam_netdb::ViewCache`]) — repeated
//!   audits over a quiescent region cost O(dirty shards), not
//!   O(network).
//! - **Waves**: the consistent-update coordinator — diff the declared
//!   target against the live store, synthesize an invariant-checked wave
//!   plan, execute it wave by wave (`occam-update`, whose executor lowers
//!   and proves each wave's steps before running them). The target snapshot
//!   is built with [`occam_netdb::StoreSnapshot::overlay`], so the diff costs
//!   O(scope), not O(network).

use crate::ast::{Mode, Spec, SpecError, Strategy};
use crate::obs::SpecObs;
use crate::parse::{instantiate, parse_spec};
use crate::validate::validate;
use occam_core::steps::Step;
use occam_core::{Isolation, TaskCtx, TaskError, TaskResult};
use occam_netdb::{attrs, ComplianceReport, WalRecord};
use occam_obs::EventKind;
use occam_regex::Pattern;
use std::collections::BTreeMap;
use std::time::Instant;

/// A built management program, ready for the runtime. `Fn` (not
/// `FnOnce`): programs close over immutable compiled state, so the
/// gateway engine can re-execute them under a retry policy after
/// transient aborts.
pub type Program = Box<dyn Fn(&TaskCtx) -> TaskResult<()> + Send + 'static>;

/// A validated, lowered spec, ready to wrap as a [`Program`].
pub struct Compiled {
    spec: Spec,
    steps: Vec<Step>,
}

impl Compiled {
    /// The validated spec.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The proved step sequence a direct-strategy spec executes (empty
    /// for audits and for wave-strategy specs, whose programs the wave
    /// executor builds and proves per wave).
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// True when the program only reads state.
    pub fn read_only(&self) -> bool {
        matches!(self.spec.mode, Mode::Audit { .. })
    }

    /// The isolation mode this program should run under: audits are
    /// read-only snapshot work and run OCC; everything touching devices
    /// stays pessimistic (device functions cannot be staged).
    pub fn isolation(&self) -> Isolation {
        if self.read_only() {
            Isolation::Occ { max_retries: 3 }
        } else {
            Isolation::TwoPl
        }
    }

    /// Wraps the compiled spec as an executable program.
    pub fn program(self) -> Program {
        Box::new(move |ctx| self.run(ctx))
    }

    fn run(&self, ctx: &TaskCtx) -> TaskResult<()> {
        match (&self.spec.mode, self.spec.strategy) {
            (Mode::Audit { strict }, _) => run_audit(&self.spec, *strict, ctx),
            (Mode::Apply, Strategy::Direct) => run_direct(&self.spec, &self.steps, ctx),
            (Mode::Apply, Strategy::Waves) => run_waves(&self.spec, ctx),
        }
    }
}

/// Validates and compiles a spec. This is the only path from a spec to
/// an executable program; there is no unchecked constructor.
pub fn compile(spec: Spec) -> Result<Compiled, SpecError> {
    let steps = validate(&spec)?;
    Ok(Compiled { spec, steps })
}

/// Builds a program from a spec *template* and a workflow submission
/// (scope + string parameters). Compilation is deferred to execution
/// time: the closure instantiates, parses, validates, and compiles on
/// every run, recording `spec.compiled` / `spec.rejected` /
/// `spec.compile_ns` against the runtime's registry.
pub fn template_program(
    template: &'static str,
    scope: String,
    params: BTreeMap<String, String>,
) -> Program {
    Box::new(move |ctx| {
        let obs = SpecObs::bind(ctx.runtime().obs());
        let started = Instant::now();
        let compiled = instantiate(template, &scope, &params)
            .and_then(|src| parse_spec(&src))
            .and_then(compile);
        obs.compile_ns.record_duration(started.elapsed());
        match compiled {
            Ok(compiled) => {
                obs.compiled.inc();
                compiled.run(ctx)
            }
            Err(e) => {
                obs.rejected.inc();
                Err(TaskError::Failed(e.to_string()))
            }
        }
    })
}

fn run_direct(spec: &Spec, steps: &[Step], ctx: &TaskCtx) -> TaskResult<()> {
    let region = ctx.network(&spec.scope)?;
    for step in steps {
        step.run(&region, ctx)?;
    }
    region.close();
    Ok(())
}

fn non_compliant_devices(report: &ComplianceReport) -> u64 {
    // `non_compliant` is sorted by (device, attr): distinct devices are
    // run starts.
    let mut count = 0;
    let mut last: Option<&str> = None;
    for nc in &report.non_compliant {
        if last != Some(nc.device.as_str()) {
            count += 1;
            last = Some(nc.device.as_str());
        }
    }
    count
}

fn run_audit(spec: &Spec, strict: bool, ctx: &TaskCtx) -> TaskResult<()> {
    let region = ctx.network_read(&spec.scope)?;
    // One lock-free snapshot: the whole audit evaluates against a single
    // committed version, so it can never tear across a concurrent commit
    // (and never blocks a writer).
    let view = region.view()?;
    ctx.check_cancelled()?;
    let rt = ctx.runtime();
    let report = rt
        .db()
        .views()
        .refresh(view.snapshot(), region.scope(), &spec.expects);
    let obs = SpecObs::bind(rt.obs());
    obs.audit_runs.inc();
    obs.audit_devices.add(report.devices);
    obs.audit_non_compliant.add(non_compliant_devices(&report));
    if !report.compliant() {
        rt.obs().events().record(EventKind::AuditNonCompliant {
            spec: spec.name.clone(),
            devices: report.devices,
            non_compliant: non_compliant_devices(&report),
        });
        if strict {
            return Err(TaskError::Failed(format!(
                "audit `{}` failed: {}",
                spec.name,
                report.summary(5)
            )));
        }
    }
    region.close();
    Ok(())
}

/// The consistent-update coordinator (`DESIGN.md` §15). Unlike the
/// direct interpreter it acquires **no region itself**: it snapshots the
/// database, overlays the spec's declared targets, diffs, synthesizes a
/// wave plan the model checker proves safe at every intermediate state,
/// and runs each wave as its own strict-2PL task through the plan
/// executor. Lock-order safety with concurrent workflows follows from
/// the wave tasks' single-acquisition discipline, not from the
/// coordinator.
fn run_waves(spec: &Spec, ctx: &TaskCtx) -> TaskResult<()> {
    use occam_update::{
        diff as config_diff, execute_plan, ExecOptions, ModelState, Synthesizer, TrafficClass,
        UpdateObs,
    };

    // Both globs parsed at validation; the scope was compiled into the
    // runtime's cache at admission.
    let rt = ctx.runtime();
    let scope = rt.pattern_cache().get_glob(&spec.scope)?;
    let obs = UpdateObs::bind(rt.obs());

    // Build the target snapshot as an overlay over the live base: only
    // the scoped deltas are materialized, every untouched shard and
    // device record stays pointer-shared, and the diff below degenerates
    // to the delta trail. The unified read accessor pins the diff base to
    // one commit position.
    let old = rt.db().read_view();
    let mut records: Vec<WalRecord> = Vec::new();
    for name in old.select_devices(&scope) {
        if let Some(generation) = &spec.config {
            records.push(WalRecord::SetDeviceAttr {
                name: name.clone(),
                attr: attrs::CONFIG_VERSION.into(),
                value: generation.as_str().into(),
            });
        }
        if let Some(version) = &spec.firmware {
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
    let target = old.snapshot().overlay(&records);
    let ops = config_diff(old.snapshot(), &target);
    obs.diff_ops.add(ops.len() as u64);
    if ops.is_empty() {
        return Ok(());
    }

    // Invariants come from the emulated network when one is wired: its
    // topology, its installed flows as traffic classes, and a waypoint
    // constraint on inspected traffic — the spec's declared `require
    // waypoint` glob when present, the network's middlebox otherwise.
    let (topo, classes) = match rt
        .service()
        .as_any()
        .downcast_ref::<occam_emunet::EmuService>()
    {
        Some(svc) => {
            let net = svc.net();
            let net = net.lock();
            let waypoint = match &spec.waypoint {
                Some(glob) => Some(rt.pattern_cache().get_glob(glob)?),
                None => net
                    .middlebox
                    .and_then(|mb| Pattern::from_names(&[net.topo.device(mb).name.as_str()]).ok()),
            };
            let classes: Vec<TrafficClass> = net
                .flows()
                .iter()
                .map(|f| {
                    let mut class =
                        TrafficClass::pair(format!("flow-{}", f.id), f.src, f.dst, f.id);
                    if f.class == occam_emunet::FlowClass::Inspected {
                        class.waypoint = waypoint.clone();
                    }
                    class
                })
                .collect();
            (net.topo.clone(), classes)
        }
        None => (occam_topology::Topology::new(), Vec::new()),
    };

    // Devices already drained in the current config start drained in the
    // model, so the planner never undrains something it did not drain
    // itself.
    let mut base = ModelState::default();
    for (name, status) in old.get_attr(&Pattern::universe(), attrs::DEVICE_STATUS) {
        let drained = status.as_str() == Some(attrs::STATUS_DRAINED)
            || status.as_str() == Some(attrs::STATUS_UNDER_MAINTENANCE);
        if drained {
            if let Some(id) = topo.device_by_name(&name) {
                base.drained.insert(id);
            }
        }
    }

    let plan = Synthesizer::new(&topo, &classes)
        .with_base(base)
        .with_obs(&obs)
        .synthesize(&ops)
        .map_err(|e| TaskError::Failed(format!("update synthesis failed: {e}")))?;
    ctx.check_cancelled()?;

    let opts = ExecOptions {
        task_prefix: format!("spec.{}", spec.name),
        obs: Some(obs),
        ..ExecOptions::default()
    };
    let report = execute_plan(rt, &plan, &opts, None);
    if !report.ok() {
        return Err(TaskError::Failed(format!(
            "planned update stopped at wave boundary {}/{}: {}",
            report.waves_committed,
            plan.waves.len(),
            report.error.unwrap_or_else(|| "unknown".into())
        )));
    }
    Ok(())
}

/// Parses, validates, and compiles spec source text in one call (the
/// programmatic mirror of [`template_program`] for sources that need no
/// parameter substitution).
pub fn compile_source(src: &str) -> Result<Compiled, SpecError> {
    compile(parse_spec(src)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use occam_core::TaskState;

    #[test]
    fn compile_rejects_invalid_specs() {
        assert!(compile_source("spec a {\n scope dc01.*\n}\n").is_err());
        let mut reserved = Spec::new("r", "dc01.*");
        reserved.sets = vec![(attrs::DEVICE_STATUS.into(), "ACTIVE".into())];
        assert!(compile(reserved).is_err());
    }

    #[test]
    fn direct_spec_executes_and_lands_terminal_state() {
        let (rt, _ft) = harness();
        let compiled = compile_source(
            "spec fw {\n\
             \x20 scope dc01.pod00.tor*\n\
             \x20 target firmware fw-3.0.0\n\
             \x20 test optic\n\
             \x20 ensure status active\n\
             }\n",
        )
        .unwrap();
        assert!(!compiled.read_only());
        let proved: Vec<_> = compiled
            .steps()
            .iter()
            .filter_map(Step::log_entry)
            .collect();
        let prog = compiled.program();
        let report = rt.task("fw").run(|ctx| prog(ctx));
        assert_eq!(report.state, TaskState::Completed, "{:?}", report.error);
        // What ran is what was proved: the real log is the proved
        // sequence's typed projection.
        let label = |e: &occam_rollback::LogEntry| (e.typ, e.label.clone());
        assert!(!proved.is_empty());
        assert_eq!(
            report.log.iter().map(label).collect::<Vec<_>>(),
            proved.iter().map(label).collect::<Vec<_>>()
        );
        let snap = rt.db().read_view();
        let scope = Pattern::from_glob("dc01.pod00.tor*").unwrap();
        let fw = snap.get_attr(&scope, attrs::FIRMWARE_VERSION);
        assert!(!fw.is_empty());
        assert!(fw.values().all(|v| v.as_str() == Some("fw-3.0.0")));
        let statuses = snap.get_attr(&scope, attrs::DEVICE_STATUS);
        assert!(statuses
            .values()
            .all(|v| v.as_str() == Some(attrs::STATUS_ACTIVE)));
    }

    #[test]
    fn audit_spec_reports_non_compliance_without_failing() {
        let (rt, _ft) = harness();
        // Knock one device out of compliance.
        rt.db()
            .batch(&[occam_netdb::WriteOp::SetDeviceAttr {
                name: "dc01.pod00.tor00".into(),
                attr: attrs::DEVICE_STATUS.into(),
                value: attrs::STATUS_DRAINED.into(),
            }])
            .unwrap();
        let compiled =
            compile_source("spec audit {\n scope dc01.*\n audit\n expect status active\n}\n")
                .unwrap();
        assert!(compiled.read_only());
        assert!(matches!(
            compiled.isolation(),
            Isolation::Occ { max_retries: 3 }
        ));
        let prog = compiled.program();
        let report = rt.task("audit").run(|ctx| prog(ctx));
        assert_eq!(report.state, TaskState::Completed, "{:?}", report.error);
        assert_eq!(rt.obs().counter_value("spec.audit.runs"), 1);
        assert_eq!(rt.obs().counter_value("spec.audit.non_compliant"), 1);
        // The non-compliant set is reported through the event ring.
        let events = rt.obs().events().snapshot();
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::AuditNonCompliant {
                spec,
                non_compliant: 1,
                ..
            } if spec == "audit"
        )));

        // The strict variant fails the task instead.
        let strict = compile_source(
            "spec audit {\n scope dc01.*\n audit strict\n expect status active\n}\n",
        )
        .unwrap();
        let prog = strict.program();
        let report = rt.task("audit_strict").run(|ctx| prog(ctx));
        assert_eq!(report.state, TaskState::Aborted);
    }

    #[test]
    fn template_program_defers_missing_param_to_run_time() {
        let (rt, _ft) = harness();
        let template =
            "spec fw {\n scope $scope\n target firmware $version\n ensure status active\n}\n";
        let prog = template_program(template, "dc01.*".into(), BTreeMap::new());
        let report = rt.task("fw").run(|ctx| prog(ctx));
        assert_eq!(report.state, TaskState::Aborted);
        assert!(report
            .error
            .unwrap()
            .to_string()
            .contains("missing parameter `version`"));
        assert_eq!(rt.obs().counter_value("spec.rejected"), 1);
    }

    fn harness() -> (occam_core::Runtime, occam_topology::FatTree) {
        use std::sync::Arc;
        let reg = occam_obs::Registry::new();
        let ft = occam_topology::FatTree::build(1, 4).unwrap();
        let db = Arc::new(occam_netdb::Database::with_obs(&reg));
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
        let service = Arc::new(occam_emunet::EmuService::new(
            occam_emunet::EmuNet::from_fattree(&ft),
        ));
        let rt = occam_core::Runtime::with_obs(db, service, occam_sched::Policy::Ldsf, &reg);
        (rt, ft)
    }
}
