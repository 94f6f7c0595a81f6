//! The config-diff frontend: two [`StoreSnapshot`]s in, per-device
//! update operations out.
//!
//! A snapshot pair (current state, target state) is compared device by
//! device. Every changed attribute becomes part of that device's single
//! [`UpdateOp`]; operations are classified by whether they can commit as
//! a pure database write or need a configuration push to the device —
//! the planner only wraps the latter in drain/undrain barriers.
//!
//! The comparison exploits the sharded snapshot representation through
//! netdb's incremental-view engine ([`occam_netdb::snapshot_delta`]):
//! shards are `Arc`-shared between versions of the store, so a diff of
//! two snapshots that differ in a handful of pods skips the untouched
//! shards — and, inside a touched shard, the untouched device records —
//! entirely via pointer equality. Attribute maps are compared only for
//! the devices the delta names, making the diff O(changed devices)
//! rather than O(network).

use occam_netdb::{attrs, snapshot_delta, AttrValue, StoreSnapshot};
use std::collections::BTreeMap;

/// Attributes whose change requires pushing configuration to the device
/// (and therefore a drain window), not just a database write.
const PUSHED_ATTRS: &[&str] = &[
    attrs::FIRMWARE_VERSION,
    attrs::FIRMWARE_BINARY,
    attrs::CONFIG_VERSION,
];

/// One device's pending update: every attribute that must change to move
/// the device from the old snapshot to the new one.
#[derive(Clone, PartialEq, Debug)]
pub struct UpdateOp {
    /// Device name.
    pub device: String,
    /// Attribute writes, sorted by attribute name. `DEVICE_STATUS`
    /// writes are applied at the end of the device's wave (they define
    /// the device's post-wave admin state, DESIGN.md §15.4).
    pub sets: Vec<(String, AttrValue)>,
    /// Target firmware when `FIRMWARE_VERSION` changed; forwarded to
    /// `f_push` so the dataplane and the database agree.
    pub firmware: Option<String>,
}

impl UpdateOp {
    /// Whether applying this op requires a configuration push (and so a
    /// drain/undrain barrier around its wave).
    pub fn needs_push(&self) -> bool {
        self.sets
            .iter()
            .any(|(a, _)| PUSHED_ATTRS.contains(&a.as_str()))
    }

    /// The device's target admin status, when the new config sets one.
    pub fn target_status(&self) -> Option<&AttrValue> {
        self.sets
            .iter()
            .find(|(a, _)| a == attrs::DEVICE_STATUS)
            .map(|(_, v)| v)
    }
}

/// Diffs two snapshots into per-device update operations, sorted by
/// device name.
///
/// Only devices present in **both** snapshots produce operations:
/// inserting and decommissioning devices is inventory work with its own
/// workflows, not a config update (DESIGN.md §15.1). Attributes present
/// in `old` but absent from `new` are left untouched for the same
/// reason — the planner never destroys state it did not author.
pub fn diff(old: &StoreSnapshot, new: &StoreSnapshot) -> Vec<UpdateOp> {
    let delta = snapshot_delta(old, new);
    let mut ops = Vec::new();
    // `delta.changed` is sorted and names every device in `new` whose
    // record moved since `old` (pointer-equal records are byte-identical
    // and can never produce an op); `delta.removed` is decommissioning
    // work, which the planner deliberately ignores.
    for device in &delta.changed {
        let Some(old_attrs) = old.device_attrs(device) else {
            continue;
        };
        let new_attrs = new
            .device_attrs(device)
            .expect("device named by its own snapshot's delta");
        let op = diff_device(device, &old_attrs, &new_attrs);
        if !op.sets.is_empty() {
            ops.push(op);
        }
    }
    ops
}

fn diff_device(
    device: &str,
    old: &BTreeMap<String, AttrValue>,
    new: &BTreeMap<String, AttrValue>,
) -> UpdateOp {
    let mut sets = Vec::new();
    let mut firmware = None;
    for (attr, value) in new {
        if old.get(attr) == Some(value) {
            continue;
        }
        if attr == attrs::FIRMWARE_VERSION {
            if let AttrValue::Str(v) = value {
                firmware = Some(v.clone());
            }
        }
        sets.push((attr.clone(), value.clone()));
    }
    UpdateOp {
        device: device.to_string(),
        sets,
        firmware,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occam_netdb::wal::WalRecord;

    fn snap(devices: &[(&str, &[(&str, &str)])]) -> StoreSnapshot {
        let mut records = Vec::new();
        for (name, attrs) in devices {
            records.push(WalRecord::InsertDevice {
                name: name.to_string(),
                attrs: attrs
                    .iter()
                    .map(|(a, v)| (a.to_string(), AttrValue::from(*v)))
                    .collect(),
            });
        }
        StoreSnapshot::replay(&records)
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let s = snap(&[("dc01.pod00.tor00", &[("FIRMWARE_VERSION", "fw-1")])]);
        assert!(diff(&s, &s).is_empty());
    }

    #[test]
    fn firmware_change_needs_push_and_carries_target() {
        let old = snap(&[("dc01.pod00.tor00", &[("FIRMWARE_VERSION", "fw-1")])]);
        let new = snap(&[("dc01.pod00.tor00", &[("FIRMWARE_VERSION", "fw-2")])]);
        let ops = diff(&old, &new);
        assert_eq!(ops.len(), 1);
        assert!(ops[0].needs_push());
        assert_eq!(ops[0].firmware.as_deref(), Some("fw-2"));
    }

    #[test]
    fn plain_attr_change_is_db_only() {
        let old = snap(&[("dc01.pod00.tor00", &[("SNMP_COMMUNITY", "a")])]);
        let new = snap(&[("dc01.pod00.tor00", &[("SNMP_COMMUNITY", "b")])]);
        let ops = diff(&old, &new);
        assert_eq!(ops.len(), 1);
        assert!(!ops[0].needs_push());
        assert!(ops[0].firmware.is_none());
    }

    #[test]
    fn added_and_removed_devices_are_skipped() {
        let old = snap(&[("dc01.pod00.tor00", &[("X", "1")])]);
        let new = snap(&[("dc01.pod00.tor01", &[("X", "1")])]);
        assert!(diff(&old, &new).is_empty());
    }

    #[test]
    fn ops_sorted_by_device() {
        let old = snap(&[("b", &[("X", "1")]), ("a", &[("X", "1")])]);
        let new = snap(&[("b", &[("X", "2")]), ("a", &[("X", "2")])]);
        let ops = diff(&old, &new);
        assert_eq!(ops[0].device, "a");
        assert_eq!(ops[1].device, "b");
    }
}
