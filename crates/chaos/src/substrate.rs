//! The one emulated substrate every campaign and phase runs over.

use occam_core::Runtime;
use occam_emunet::{DeviceService, EmuNet, EmuService, FaultyService};
use occam_netdb::{attrs, AttrValue, Database, FaultPlan};
use occam_obs::Registry;
use occam_sched::Policy;
use occam_topology::{FatTree, Role};
use std::sync::Arc;

/// A fresh `FatTree(1, 4)` fabric mirrored into a seeded database (every
/// non-host device active on firmware `fw-1.0.0` — the emulated switch
/// default, so rollback can restore firmware from the database) behind a
/// faultable device service, with an LDSF runtime over both.
pub(crate) struct Substrate {
    pub(crate) reg: Registry,
    pub(crate) ft: FatTree,
    pub(crate) db: Arc<Database>,
    pub(crate) inner: Arc<EmuService>,
    pub(crate) faulty: Arc<FaultyService>,
    pub(crate) rt: Runtime,
}

impl Substrate {
    /// Builds the substrate with the device-service shim armed from
    /// `device_faults` and the netdb query injector from `db_faults`
    /// (armed only after the database is seeded).
    pub(crate) fn build(device_faults: FaultPlan, db_faults: FaultPlan) -> Substrate {
        let reg = Registry::new();
        let ft = FatTree::build(1, 4).expect("k=4 fat tree");
        let db = Arc::new(Database::with_obs(&reg));
        for (_, d) in ft.topo.devices() {
            if d.role == Role::Host {
                continue;
            }
            db.insert_device(
                &d.name,
                vec![
                    (attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into()),
                    (attrs::FIRMWARE_VERSION.into(), AttrValue::from("fw-1.0.0")),
                ],
            )
            .expect("seed device");
        }
        let inner = Arc::new(EmuService::new(EmuNet::from_fattree(&ft)));
        let faulty = Arc::new(FaultyService::new(inner.clone(), device_faults));
        db.set_fault_plan(db_faults);
        let rt = Runtime::with_obs(
            db.clone(),
            faulty.clone() as Arc<dyn DeviceService>,
            Policy::Ldsf,
            &reg,
        );
        Substrate {
            reg,
            ft,
            db,
            inner,
            faulty,
            rt,
        }
    }

    /// Pause (`false`) or resume (`true`) every fault layer without
    /// advancing the seeded streams.
    pub(crate) fn faults_enabled(&self, on: bool) {
        self.db.faults().set_enabled(on);
        self.faulty.set_enabled(on);
    }
}
