//! The deployment under test: one production-scale netdb, one emulated
//! datacenter, two follower replicas, the certifier, and the gateway —
//! all program defaults, identical for every workload.

use crate::trace::{TimedService, Tracer};
use occam::cert::Certifier;
use occam::core::Runtime;
use occam::emunet::{DeviceService, EmuNet, EmuService};
use occam::gateway::{Engine, EngineConfig, GatewayServer};
use occam::netdb::{attrs, Database, ReplicaConfig, ReplicaSet, WriteOp};
use occam::obs::Registry;
use occam::sched::Policy;
use occam::topology::{FatTree, Role};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Firmware every device starts on (what `occam::emulated_deployment`
/// seeds and what `SwitchState::default` runs).
pub const INITIAL_FIRMWARE: &str = "fw-1.0.0";

/// How big the fleet is. The benchmark always runs [`FleetShape::FULL`];
/// the harness unit tests swap in [`FleetShape::TINY`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetShape {
    /// Production datacenters, numbered `dc02..`.
    pub prod_dcs: u32,
    /// Pods per production datacenter.
    pub prod_pods: u32,
    /// Switches per production pod.
    pub prod_switches: u32,
    /// Fat-tree arity of the emulated datacenter `dc01`.
    pub k: u32,
}

impl FleetShape {
    /// `dc02`..`dc17` × 96 pods × 92 switches (141,312 devices) plus a
    /// k=16 emulated `dc01` (320 switches).
    pub const FULL: FleetShape = FleetShape {
        prod_dcs: 16,
        prod_pods: 96,
        prod_switches: 92,
        k: 16,
    };
    /// One 2-pod production DC and a k=4 `dc01`, for unit tests.
    #[cfg(test)]
    pub const TINY: FleetShape = FleetShape {
        prod_dcs: 1,
        prod_pods: 2,
        prod_switches: 8,
        k: 4,
    };

    /// Production datacenter numbers (`dc01` is the emulated one).
    pub fn prod_dc_numbers(&self) -> std::ops::Range<u32> {
        2..2 + self.prod_dcs
    }
}

/// A running deployment. Dropping it without [`Fleet::shutdown`] leaks
/// the reactor and shipper threads until process exit.
pub struct Fleet {
    pub db: Arc<Database>,
    pub emu: Arc<EmuService>,
    pub rt: Runtime,
    pub set: ReplicaSet,
    pub cert: Arc<Certifier>,
    pub server: GatewayServer,
    pub addr: String,
    /// `ReplicaSet::start` → followers converged.
    pub bootstrap: Duration,
    /// Everything: DB seed + emunet + followers converged + gateway
    /// listening.
    pub setup: Duration,
}

impl Fleet {
    /// Stands the deployment up. With a tracer the device service is
    /// wrapped in a [`TimedService`] (dormant until the tracer is
    /// enabled); without one the runtime talks to `EmuService` directly.
    pub fn build(shape: FleetShape, tracer: Option<&Arc<Tracer>>) -> Fleet {
        let started = Instant::now();
        let reg = Registry::new();
        let db = Arc::new(Database::with_obs(&reg));

        // (a) The production fleet: one batch per pod.
        for dc in shape.prod_dc_numbers() {
            for pod in 0..shape.prod_pods {
                let ops: Vec<WriteOp> = (0..shape.prod_switches)
                    .map(|sw| WriteOp::InsertDevice {
                        name: format!("dc{dc:02}.pod{pod:02}.sw{sw:02}"),
                        attrs: initial_attrs(),
                    })
                    .collect();
                db.batch(&ops).expect("fresh production pod");
            }
        }

        // (b) The emulated datacenter, seeded as
        // `occam::emulated_deployment` does: one commit per switch and
        // per switch-to-switch link.
        let ft = FatTree::build(1, shape.k).expect("even fat-tree arity");
        for (_, d) in ft.topo.devices().filter(|(_, d)| d.role != Role::Host) {
            db.batch(&[WriteOp::InsertDevice {
                name: d.name.clone(),
                attrs: initial_attrs(),
            }])
            .expect("fresh device");
        }
        for (_, l) in ft.topo.links() {
            let (a, z) = (ft.topo.device(l.a_end), ft.topo.device(l.z_end));
            if a.role == Role::Host || z.role == Role::Host {
                continue;
            }
            db.batch(&[WriteOp::InsertLink {
                a_end: a.name.clone(),
                z_end: z.name.clone(),
                attrs: vec![(attrs::LINK_STATUS.into(), attrs::UP.into())],
            }])
            .expect("fresh link");
        }

        let emu = Arc::new(EmuService::new(EmuNet::from_fattree(&ft)));
        let service: Arc<dyn DeviceService> = match tracer {
            Some(t) => Arc::new(TimedService::new(
                Arc::clone(&emu) as Arc<dyn DeviceService>,
                Arc::clone(t),
            )),
            None => Arc::clone(&emu) as Arc<dyn DeviceService>,
        };
        let rt = Runtime::with_obs(Arc::clone(&db), service, Policy::Ldsf, &reg);

        let boot = Instant::now();
        let set = ReplicaSet::start(Arc::clone(&db), ReplicaConfig::default());
        assert!(
            set.wait_converged(Duration::from_secs(120)),
            "followers did not converge"
        );
        let bootstrap = boot.elapsed();
        rt.attach_read_router(set.router());

        let cert = Arc::new(Certifier::with_obs(&reg));
        rt.attach_certifier(Arc::clone(&cert));

        let engine = Engine::new(rt.clone(), EngineConfig::default());
        let server = GatewayServer::start(engine, "127.0.0.1:0").expect("bind loopback port");
        let addr = server.local_addr().to_string();
        Fleet {
            db,
            emu,
            rt,
            set,
            cert,
            server,
            addr,
            bootstrap,
            setup: started.elapsed(),
        }
    }

    /// Stops the gateway (draining the engine) and the shipper thread.
    pub fn shutdown(mut self) {
        self.server.shutdown();
        self.set.shutdown();
    }
}

fn initial_attrs() -> Vec<(String, occam::netdb::AttrValue)> {
    vec![
        (attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into()),
        (attrs::FIRMWARE_VERSION.into(), INITIAL_FIRMWARE.into()),
    ]
}
