//! Runtime-level tests of the plan executor (DESIGN.md §15.2): what
//! `execute_plan` really runs on a k=4 fabric, observed from outside.
//!
//! `execute_plan` keeps the wave task's `TaskReport` to itself, so the
//! execution log is rebuilt from the two places a typed log entry can
//! come from: [`Traced`] sits at the device boundary and records every
//! device-function call, interleaved with the write batches the netdb
//! WAL committed since the previous call.

use occam_core::steps::Step;
use occam_core::{CancelToken, Runtime};
use occam_emunet::{DeviceService, EmuNet, EmuService, FuncArgs, FuncResult};
use occam_netdb::{attrs, AttrValue, Database, WalRecord};
use occam_rollback::{func_optype, OpType};
use occam_topology::{FatTree, Role};
use occam_update::{
    diff, execute_plan, lower_wave, ExecOptions, Plan, Synthesizer, Wave, WavePoint,
};
use std::sync::{Arc, Mutex};

const TOR0: &str = "dc01.pod00.tor00";
const TOR1: &str = "dc01.pod00.tor01";
const AGG0: &str = "dc01.pod00.agg00";
const AGG1: &str = "dc01.pod00.agg01";

type Entries = Vec<(OpType, String)>;

/// The emulator service, recording `(type, label)` of everything that
/// reaches a device or commits to the database.
struct Traced {
    inner: EmuService,
    db: Arc<Database>,
    /// WAL records already accounted for, and the entries seen so far.
    seen: Mutex<(usize, Entries)>,
}

impl Traced {
    /// Appends one `DB_CHANGE` per write batch committed since the last
    /// look (a wave's batches each write a single attribute).
    fn absorb_commits(&self, seen: &mut (usize, Entries)) {
        let wal = self.db.wal_records();
        let mut attr = None;
        for record in &wal[seen.0..] {
            match record {
                WalRecord::SetDeviceAttr { attr: a, .. }
                | WalRecord::UnsetDeviceAttr { attr: a, .. } => attr = Some(a.clone()),
                WalRecord::Commit { .. } => {
                    let attr = attr.take().expect("wave batches write attributes");
                    seen.1.push((OpType::DbChange, format!("set({attr})")));
                }
                other => panic!("unexpected wave write {other:?}"),
            }
        }
        seen.0 = wal.len();
    }

    /// Everything observed since the previous call.
    fn take(&self) -> Entries {
        let mut seen = self.seen.lock().unwrap();
        self.absorb_commits(&mut seen);
        std::mem::take(&mut seen.1)
    }
}

impl DeviceService for Traced {
    fn execute(&self, func: &str, devices: &[String], args: &FuncArgs) -> FuncResult {
        let result = self.inner.execute(func, devices, args);
        let mut seen = self.seen.lock().unwrap();
        self.absorb_commits(&mut seen);
        if let (Some(typ), true) = (func_optype(func), result.is_ok()) {
            seen.1.push((typ, format!("apply({func})")));
        }
        result
    }

    fn advance(&self, ticks: u64) {
        self.inner.advance(ticks);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        &self.inner
    }
}

/// A k=4 fabric: every switch `ACTIVE` on `fw-1.0.0`, in the database
/// and on the emulated devices.
fn deployment() -> (Runtime, FatTree, Arc<Traced>) {
    let ft = FatTree::build(1, 4).unwrap();
    let db = Arc::new(Database::new());
    for (_, d) in ft.topo.devices().filter(|(_, d)| d.role != Role::Host) {
        let row = vec![
            (attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into()),
            (attrs::FIRMWARE_VERSION.into(), "fw-1.0.0".into()),
        ];
        db.insert_device(&d.name, row).unwrap();
    }
    let svc = Arc::new(Traced {
        inner: EmuService::new(EmuNet::from_fattree(&ft)),
        db: Arc::clone(&db),
        seen: Mutex::new((db.wal_records().len(), Vec::new())),
    });
    let rt = Runtime::new(db, Arc::clone(&svc) as Arc<dyn DeviceService>);
    (rt, ft, svc)
}

/// Diffs the live store against itself overlaid with `target`
/// (`(device, attr, value)` triples) and plans the result.
fn plan_for(rt: &Runtime, ft: &FatTree, target: &[(&str, &str, &str)]) -> Plan {
    let old = rt.db().read_view();
    let records: Vec<WalRecord> = target
        .iter()
        .map(|(name, attr, value)| WalRecord::SetDeviceAttr {
            name: name.to_string(),
            attr: attr.to_string(),
            value: (*value).into(),
        })
        .collect();
    let ops = diff(old.snapshot(), &old.snapshot().overlay(&records));
    Synthesizer::new(&ft.topo, &[]).synthesize(&ops).unwrap()
}

const FIRMWARE_WAVE: &[(&str, &str, &str)] = &[
    (AGG0, attrs::FIRMWARE_VERSION, "fw-2.0.0"),
    (AGG0, attrs::CONFIG_VERSION, "g2"),
    (AGG1, attrs::FIRMWARE_VERSION, "fw-2.0.0"),
    (AGG1, attrs::CONFIG_VERSION, "g2"),
];

fn projection(wave: &Wave) -> Entries {
    lower_wave(wave)
        .iter()
        .filter_map(Step::log_entry)
        .map(|e| (e.typ, e.label))
        .collect()
}

fn attr_of(rt: &Runtime, device: &str, attr: &str) -> Option<AttrValue> {
    rt.db().read_view().device_attrs(device)?.remove(attr)
}

/// `(drained, firmware)` of an emulated switch.
fn switch(svc: &Traced, device: &str) -> (bool, String) {
    let net = svc.inner.net();
    let net = net.lock();
    let sw = net.switch(net.device_by_name(device).unwrap()).unwrap();
    (sw.drained, sw.firmware.clone())
}

#[test]
fn executed_waves_log_exactly_the_projection_of_their_lowering() {
    let (rt, ft, svc) = deployment();

    let plan = plan_for(&rt, &ft, FIRMWARE_WAVE);
    assert_eq!(plan.waves.len(), 1);
    assert!(plan.waves[0].barrier);
    assert!(execute_plan(&rt, &plan, &ExecOptions::default(), None).ok());
    let ran = svc.take();
    assert_eq!(ran, projection(&plan.waves[0]));
    assert_eq!(ran.first().unwrap().0, OpType::Drain);
    assert_eq!(switch(&svc, AGG0), (false, "fw-2.0.0".into()));

    let db_only = [
        (TOR0, "MGMT_GENERATION", "g2"),
        (TOR1, "MGMT_GENERATION", "g2"),
        (TOR1, "SNMP_COMMUNITY", "v2"),
    ];
    let plan = plan_for(&rt, &ft, &db_only);
    assert_eq!(plan.waves.len(), 1);
    assert!(!plan.waves[0].barrier);
    assert!(execute_plan(&rt, &plan, &ExecOptions::default(), None).ok());
    let ran = svc.take();
    assert_eq!(ran, projection(&plan.waves[0]));
    assert_eq!(ran.len(), 2);
}

/// Regression: an op whose only change is `DEVICE_STATUS` used to fall
/// through the unbarriered executor — `ok()` with the database unchanged.
#[test]
fn status_only_ops_land() {
    let (rt, ft, _svc) = deployment();
    let drained = Some(AttrValue::from(attrs::STATUS_DRAINED));
    let active = Some(AttrValue::from(attrs::STATUS_ACTIVE));

    let plan = plan_for(
        &rt,
        &ft,
        &[(TOR0, attrs::DEVICE_STATUS, attrs::STATUS_DRAINED)],
    );
    assert_eq!(plan.num_ops(), 1);
    assert!(!plan.waves[0].barrier);
    assert!(execute_plan(&rt, &plan, &ExecOptions::default(), None).ok());
    assert_eq!(attr_of(&rt, TOR0, attrs::DEVICE_STATUS), drained);

    // Mixed with a pushed attribute: one barriered wave lands both, and
    // the pushed device comes back `ACTIVE`.
    let mixed = [
        (TOR1, attrs::DEVICE_STATUS, attrs::STATUS_DRAINED),
        (AGG0, attrs::CONFIG_VERSION, "g2"),
    ];
    let ops = plan_for(&rt, &ft, &mixed)
        .waves
        .into_iter()
        .flat_map(|w| w.ops)
        .collect();
    let plan = Plan {
        waves: vec![Wave { ops, barrier: true }],
        seed: 0,
    };
    assert!(execute_plan(&rt, &plan, &ExecOptions::default(), None).ok());
    assert_eq!(attr_of(&rt, TOR1, attrs::DEVICE_STATUS), drained);
    assert_eq!(attr_of(&rt, AGG0, attrs::CONFIG_VERSION), Some("g2".into()));
    assert_eq!(attr_of(&rt, AGG0, attrs::DEVICE_STATUS), active);
    // Mixed with a database-only attribute: the unbarriered wave writes
    // status only where an op asks for one.
    let mixed = [
        (AGG1, attrs::DEVICE_STATUS, attrs::STATUS_UNDER_MAINTENANCE),
        (TOR0, "MGMT_GENERATION", "g2"),
    ];
    let plan = plan_for(&rt, &ft, &mixed);
    assert_eq!(plan.waves.len(), 1);
    assert!(execute_plan(&rt, &plan, &ExecOptions::default(), None).ok());
    assert_eq!(
        attr_of(&rt, AGG1, attrs::DEVICE_STATUS),
        Some(attrs::STATUS_UNDER_MAINTENANCE.into())
    );
    assert_eq!(attr_of(&rt, TOR0, "MGMT_GENERATION"), Some("g2".into()));
    assert_eq!(attr_of(&rt, TOR0, attrs::DEVICE_STATUS), drained);
}

#[test]
fn a_device_fault_anywhere_in_a_wave_restores_the_boundary() {
    for func in ["f_drain", "f_push", "f_undrain"] {
        let (rt, ft, svc) = deployment();
        let plan = plan_for(&rt, &ft, FIRMWARE_WAVE);
        let before = rt.db().read_view();
        svc.inner.library().fail_at(func, 0);
        let report = execute_plan(&rt, &plan, &ExecOptions::default(), None);
        assert_eq!(report.failed_wave, Some(0), "{func}: {report:?}");
        assert!(report.rolled_back, "{func}: {report:?}");
        assert_eq!(report.waves_committed, 0);
        assert!(rt.db().read_view() == before, "{func}: netdb moved");
        for device in [AGG0, AGG1] {
            assert_eq!(switch(&svc, device), (false, "fw-1.0.0".into()), "{func}");
        }
    }
}

/// A hand-built barrier around database-only ops is `DRAIN DB UNDRAIN` —
/// a mid-log `db_list` with no push, which Table 1 cannot parse. The
/// executor refuses it before anything reaches a device or the database.
#[test]
fn a_non_conformant_wave_fails_before_its_first_write() {
    let (rt, ft, svc) = deployment();
    let mut plan = plan_for(&rt, &ft, &[(TOR0, "MGMT_GENERATION", "g2")]);
    plan.waves[0].barrier = true;
    let report = execute_plan(&rt, &plan, &ExecOptions::default(), None);
    assert_eq!(report.failed_wave, Some(0));
    assert!(report.rolled_back);
    assert!(report.error.unwrap().contains("not rollback-safe"));
    assert_eq!(svc.take(), []);
}

#[test]
fn cancelling_between_waves_keeps_committed_waves() {
    let (rt, ft, svc) = deployment();
    let mut target = FIRMWARE_WAVE.to_vec();
    target.push((TOR0, "MGMT_GENERATION", "g2"));
    let plan = plan_for(&rt, &ft, &target);
    // Database-only ops plan first, the firmware ring after them.
    assert_eq!(plan.waves.len(), 2);
    assert!(!plan.waves[0].barrier);

    let cancel = CancelToken::new();
    let opts = ExecOptions {
        cancel: Some(cancel.clone()),
        ..ExecOptions::default()
    };
    let observer = |point: WavePoint| {
        if point == WavePoint::Committed(0) {
            cancel.cancel();
        }
    };
    let report = execute_plan(&rt, &plan, &opts, Some(&observer));
    assert_eq!(report.waves_committed, 1);
    assert_eq!(report.failed_wave, Some(1));
    assert!(!report.ok());
    assert_eq!(attr_of(&rt, TOR0, "MGMT_GENERATION"), Some("g2".into()));
    assert_eq!(attr_of(&rt, AGG0, attrs::CONFIG_VERSION), None);
    assert_eq!(switch(&svc, AGG0), (false, "fw-1.0.0".into()));
}
