//! Whole-stack state snapshots for campaign invariant checking.
//!
//! The chaos invariant is the paper's recovery contract: after any task —
//! including one the fault layers aborted — the world is either *fully
//! applied* (the task's postcondition holds) or *fully rolled back*
//! (logical **and** physical state byte-identical to before the task).
//! Checking the second half needs an equality-comparable capture of both
//! layers, which this module provides.

use occam_emunet::{EmuService, FlowClass, SwitchState};
use occam_netdb::{Database, StoreSnapshot};
use occam_topology::Role;
use std::collections::BTreeMap;

/// The fault-relevant state of one emulated switch.
///
/// This is [`SwitchState`] minus `config_generation`: the generation
/// counter is bumped by *every* config push, including the compensating
/// push a rollback performs, so it legitimately differs between "never
/// happened" and "happened and was rolled back". Everything management
/// tasks actually control is compared exactly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeviceFingerprint {
    /// Drain state.
    pub drained: bool,
    /// Mid-upgrade flag (an undrained upgrading switch black-holes).
    pub upgrading: bool,
    /// Installed firmware version.
    pub firmware: String,
    /// Running data-plane program.
    pub dataplane: String,
    /// Temporary test IP, if allocated.
    pub test_ip: Option<String>,
    /// ACL denylist, as stable class names.
    pub denylist: Vec<&'static str>,
}

fn class_name(c: FlowClass) -> &'static str {
    match c {
        FlowClass::Background => "background",
        FlowClass::Suspicious => "suspicious",
        FlowClass::Inspected => "inspected",
    }
}

impl DeviceFingerprint {
    fn of(s: &SwitchState) -> DeviceFingerprint {
        DeviceFingerprint {
            drained: s.drained,
            upgrading: s.upgrading,
            firmware: s.firmware.clone(),
            dataplane: s.dataplane.clone(),
            test_ip: s.test_ip.clone(),
            denylist: s.denylist.iter().map(|&c| class_name(c)).collect(),
        }
    }
}

/// A point-in-time capture of the logical layer (a [`StoreSnapshot`]
/// handle — an O(1) capture even at production scale) and the physical
/// layer (per-device fingerprints).
#[derive(Clone, PartialEq, Debug)]
pub struct StateSnapshot {
    /// The database contents.
    pub db: StoreSnapshot,
    /// Device name → fingerprint, for every non-host device.
    pub devices: BTreeMap<String, DeviceFingerprint>,
}

impl StateSnapshot {
    /// Captures both layers. Reads the database through
    /// [`Database::read_view`] (which bypasses the fault injector) and the
    /// emulated network under its lock, so a capture is safe even while
    /// fault plans are armed.
    pub fn capture(db: &Database, service: &EmuService) -> StateSnapshot {
        let net = service.net();
        let guard = net.lock();
        let mut devices = BTreeMap::new();
        for (id, d) in guard.topo.devices() {
            if d.role == Role::Host {
                continue;
            }
            let sw = guard.switch(id).expect("switch state for non-host");
            devices.insert(d.name.clone(), DeviceFingerprint::of(sw));
        }
        StateSnapshot {
            db: db.read_view().into_snapshot(),
            devices,
        }
    }

    /// Human-oriented summary of the first difference against `other`,
    /// for violation reports. `None` when equal.
    pub fn first_diff(&self, other: &StateSnapshot) -> Option<String> {
        if self.db != other.db {
            // Materialize only on the failure path: diff wants the flat
            // representation, and violations are the rare case.
            let entries = occam_netdb::diff(&self.db.materialize(), &other.db.materialize());
            return Some(match entries.first() {
                Some(e) => format!("database stores differ, first: {e:?}"),
                None => "database stores differ".into(),
            });
        }
        for (name, fp) in &self.devices {
            match other.devices.get(name) {
                None => return Some(format!("device {name} missing from other snapshot")),
                Some(o) if o != fp => {
                    return Some(format!("device {name} differs: {fp:?} vs {o:?}"))
                }
                Some(_) => {}
            }
        }
        if self.devices.len() != other.devices.len() {
            return Some("device sets differ".into());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occam_emunet::{EmuNet, FuncArgs};
    use occam_topology::FatTree;
    use std::sync::Arc;

    #[test]
    fn snapshot_ignores_config_generation_but_sees_real_changes() {
        let ft = FatTree::build(1, 4).unwrap();
        let db = Database::new();
        db.insert_device("dc01.pod00.agg00", vec![]).unwrap();
        let svc = Arc::new(EmuService::new(EmuNet::from_fattree(&ft)));
        let devs = vec!["dc01.pod00.agg00".to_string()];
        let before = StateSnapshot::capture(&db, &svc);

        // A config push bumps only the generation counter: invisible.
        use occam_emunet::DeviceService;
        svc.execute("f_push", &devs, &FuncArgs::one("admin", "active"))
            .unwrap();
        let after_push = StateSnapshot::capture(&db, &svc);
        assert_eq!(before, after_push);
        assert!(before.first_diff(&after_push).is_none());

        // A drain is a real physical difference.
        svc.execute("f_drain", &devs, &FuncArgs::none()).unwrap();
        let after_drain = StateSnapshot::capture(&db, &svc);
        assert_ne!(before, after_drain);
        assert!(before
            .first_diff(&after_drain)
            .unwrap()
            .contains("dc01.pod00.agg00"));
    }
}
