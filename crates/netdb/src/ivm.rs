//! Incremental view maintenance over shard snapshots.
//!
//! PR 5's sharded store already gives every commit an exact dirt trail:
//! a commit replaces the `Arc`s of the shards it touched and bumps their
//! version counters, leaving every other shard pointer-identical. This
//! module turns that trail into *incremental views*: a [`ViewCache`]
//! keyed by `(scope, assertions)` keeps a per-shard partial result next
//! to the shard `Arc` it was computed from, and a refresh recomputes only
//! the shards whose pointer moved (`Arc::ptr_eq` fast path) — O(delta)
//! instead of O(network) for the audit-style reads that dominate the
//! management plane (DESIGN.md §17.3).
//!
//! Two consumers ride on the same machinery:
//!
//! - **Compliance views** ([`ViewCache::refresh`]): "every device in
//!   scope has attribute A = v" checks, the substrate of `status_audit`
//!   and spec compliance (`occam-spec`). [`compliance_cold`] is the
//!   from-scratch oracle the property tests and `spec_bench` compare
//!   against.
//! - **Snapshot deltas** ([`snapshot_delta`]): the changed/removed device
//!   sets between two snapshots, skipping pointer-equal shards *and*
//!   pointer-equal device records — the engine under `occam-update`'s
//!   config diff.

use crate::shard::{prefixed, route_prefix, ShardData, ShardRoute, StoreSnapshot, NUM_SHARDS};
use crate::value::AttrValue;
use occam_obs::{Counter, Histogram, Registry};
use occam_regex::Pattern;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One desired-state assertion: every device in scope must carry
/// `attr = expected`.
#[derive(Clone, PartialEq, Debug)]
pub struct Assertion {
    /// Attribute name.
    pub attr: String,
    /// Required value.
    pub expected: AttrValue,
}

impl Assertion {
    /// Convenience constructor.
    pub fn new(attr: impl Into<String>, expected: impl Into<AttrValue>) -> Assertion {
        Assertion {
            attr: attr.into(),
            expected: expected.into(),
        }
    }
}

/// One device that fails an assertion.
#[derive(Clone, PartialEq, Debug)]
pub struct NonCompliance {
    /// Device name.
    pub device: String,
    /// The assertion's attribute.
    pub attr: String,
    /// The required value.
    pub expected: AttrValue,
    /// What the device actually carries (`None`: attribute missing).
    pub actual: Option<AttrValue>,
}

/// The merged result of a compliance view evaluation.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ComplianceReport {
    /// Devices in scope at the evaluated snapshot.
    pub devices: u64,
    /// Every `(device, assertion)` pair that fails, sorted by device then
    /// attribute — deterministic regardless of shard layout.
    pub non_compliant: Vec<NonCompliance>,
    /// Shards recomputed by this evaluation (dirty or uncached).
    pub recomputed_shards: u64,
    /// Shards whose cached partial was reused via pointer equality.
    pub reused_shards: u64,
}

impl ComplianceReport {
    /// True when every device in scope satisfies every assertion.
    pub fn compliant(&self) -> bool {
        self.non_compliant.is_empty()
    }

    /// Result equality: same devices and the same non-compliant set,
    /// ignoring how much work (recomputed vs reused shards) produced it.
    /// This is what "incremental == cold" means in the property tests and
    /// `spec_bench`.
    pub fn same_result(&self, other: &ComplianceReport) -> bool {
        self.devices == other.devices && self.non_compliant == other.non_compliant
    }

    /// A short human summary of the worst offenders (up to `max`).
    pub fn summary(&self, max: usize) -> String {
        if self.compliant() {
            return format!("{} devices, all compliant", self.devices);
        }
        let shown: Vec<String> = self
            .non_compliant
            .iter()
            .take(max)
            .map(|nc| {
                let actual = match &nc.actual {
                    Some(v) => format!("{v:?}"),
                    None => "<missing>".to_string(),
                };
                format!(
                    "{} {}={} (want {:?})",
                    nc.device, nc.attr, actual, nc.expected
                )
            })
            .collect();
        let more = self.non_compliant.len().saturating_sub(max);
        let tail = if more > 0 {
            format!(" (+{more} more)")
        } else {
            String::new()
        };
        format!(
            "{}/{} non-compliant: {}{}",
            self.non_compliant.len(),
            self.devices,
            shown.join(", "),
            tail
        )
    }
}

/// One shard's cached partial: the result plus the shard `Arc` it was
/// computed from. Valid exactly while the live shard is pointer-equal.
struct CachedShard {
    base: Arc<ShardData>,
    devices: u64,
    non_compliant: Vec<NonCompliance>,
}

/// One view's partials, indexed by shard.
struct CachedView {
    shards: Vec<Option<CachedShard>>,
}

impl CachedView {
    fn empty() -> CachedView {
        CachedView {
            shards: (0..NUM_SHARDS).map(|_| None).collect(),
        }
    }
}

/// `netdb.view.*` instruments (DESIGN.md §9).
#[derive(Clone)]
struct ViewObs {
    refreshes: Counter,
    hits: Counter,
    dirty_shards: Counter,
    recompute_ns: Histogram,
}

impl ViewObs {
    fn bound(reg: &Registry) -> ViewObs {
        ViewObs {
            refreshes: reg.counter("netdb.view.refreshes"),
            hits: reg.counter("netdb.view.hits"),
            dirty_shards: reg.counter("netdb.view.dirty_shards"),
            recompute_ns: reg.histogram("netdb.view.recompute_ns"),
        }
    }
}

/// Keys the cache can hold before the oldest-inserted entry is dropped;
/// bounds memory when callers audit many distinct scopes.
const MAX_CACHED_VIEWS: usize = 64;

/// The incremental compliance-view cache. One per [`Database`]
/// (`db.views()`); safe to share across tasks — refreshes serialize on an
/// internal mutex, which is fine because a refresh after the first is
/// O(dirty shards).
///
/// [`Database`]: crate::Database
pub struct ViewCache {
    /// `(key, view)` in insertion order; at most [`MAX_CACHED_VIEWS`],
    /// so lookup is a short scan.
    views: Mutex<VecDeque<(String, CachedView)>>,
    obs: ViewObs,
}

impl std::fmt::Debug for ViewCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewCache")
            .field("views", &self.views.lock().len())
            .finish()
    }
}

/// Stable cache key: the scope's source glob plus the assertion list.
fn view_key(scope: &Pattern, assertions: &[Assertion]) -> String {
    let mut key = String::from(scope.source());
    for a in assertions {
        key.push('|');
        key.push_str(&a.attr);
        key.push('=');
        key.push_str(&format!("{:?}", a.expected));
    }
    key
}

/// Whether `route` visits shard `i`. A pinned route still visits the
/// catch-all shard: non-conforming names (which always land there) can
/// still match a conforming glob prefix.
fn route_visits(route: &ShardRoute, i: usize) -> bool {
    match route {
        ShardRoute::All => true,
        ShardRoute::One(idx) => i == *idx || i == crate::shard::CATCH_ALL_SHARD,
    }
}

/// Evaluates the assertions over one shard from scratch.
fn scan_shard(
    shard: &ShardData,
    prefix: &str,
    scope: &Pattern,
    assertions: &[Assertion],
) -> (u64, Vec<NonCompliance>) {
    let mut devices = 0;
    let mut non_compliant = Vec::new();
    for (name, record) in prefixed(shard, prefix) {
        if !scope.matches(name) {
            continue;
        }
        devices += 1;
        for a in assertions {
            let actual = record.attrs.get(&a.attr);
            if actual != Some(&a.expected) {
                non_compliant.push(NonCompliance {
                    device: name.clone(),
                    attr: a.attr.clone(),
                    expected: a.expected.clone(),
                    actual: actual.cloned(),
                });
            }
        }
    }
    (devices, non_compliant)
}

impl ViewCache {
    /// Creates a cache whose `netdb.view.*` instruments bind to `reg`.
    pub fn new(reg: &Registry) -> ViewCache {
        ViewCache {
            views: Mutex::new(VecDeque::new()),
            obs: ViewObs::bound(reg),
        }
    }

    /// Evaluates the compliance view at `snap`, reusing every cached
    /// shard partial whose shard `Arc` is unchanged and recomputing the
    /// rest. The returned report is identical to [`compliance_cold`] on
    /// the same inputs (the soundness argument of DESIGN.md §17.3: a
    /// pointer-equal shard holds byte-identical rows, so its partial is
    /// still exact; a moved pointer is recomputed from the new rows).
    pub fn refresh(
        &self,
        snap: &StoreSnapshot,
        scope: &Pattern,
        assertions: &[Assertion],
    ) -> ComplianceReport {
        let key = view_key(scope, assertions);
        let prefix = scope.literal_prefix();
        let route = route_prefix(&prefix);
        let mut report = ComplianceReport::default();
        let mut views = self.views.lock();
        let at = views
            .iter()
            .position(|(k, _)| *k == key)
            .unwrap_or_else(|| {
                if views.len() >= MAX_CACHED_VIEWS {
                    views.pop_front();
                }
                views.push_back((key, CachedView::empty()));
                views.len() - 1
            });
        let cached = &mut views[at].1;
        for (i, shard) in snap.state.shards.iter().enumerate() {
            if !route_visits(&route, i) {
                continue;
            }
            let reusable = cached.shards[i]
                .as_ref()
                .is_some_and(|c| Arc::ptr_eq(&c.base, shard));
            if reusable {
                report.reused_shards += 1;
            } else {
                let started = Instant::now();
                let (devices, non_compliant) = scan_shard(shard, &prefix, scope, assertions);
                self.obs.recompute_ns.record_duration(started.elapsed());
                cached.shards[i] = Some(CachedShard {
                    base: Arc::clone(shard),
                    devices,
                    non_compliant,
                });
                report.recomputed_shards += 1;
            }
            let partial = cached.shards[i].as_ref().expect("partial just ensured");
            report.devices += partial.devices;
            report
                .non_compliant
                .extend(partial.non_compliant.iter().cloned());
        }
        report
            .non_compliant
            .sort_by(|a, b| (&a.device, &a.attr).cmp(&(&b.device, &b.attr)));
        self.obs.refreshes.inc();
        self.obs.hits.add(report.reused_shards);
        self.obs.dirty_shards.add(report.recomputed_shards);
        report
    }

    /// Drops every cached view (used by tests; a live system never needs
    /// it — stale partials are revalidated by pointer, not by time).
    pub fn clear(&self) {
        self.views.lock().clear();
    }
}

/// From-scratch compliance evaluation: scans every routed shard without
/// consulting or populating any cache. The oracle incremental refreshes
/// are compared against.
pub fn compliance_cold(
    snap: &StoreSnapshot,
    scope: &Pattern,
    assertions: &[Assertion],
) -> ComplianceReport {
    let prefix = scope.literal_prefix();
    let route = route_prefix(&prefix);
    let mut report = ComplianceReport::default();
    for (i, shard) in snap.state.shards.iter().enumerate() {
        if !route_visits(&route, i) {
            continue;
        }
        let (devices, non_compliant) = scan_shard(shard, &prefix, scope, assertions);
        report.devices += devices;
        report.non_compliant.extend(non_compliant);
        report.recomputed_shards += 1;
    }
    report
        .non_compliant
        .sort_by(|a, b| (&a.device, &a.attr).cmp(&(&b.device, &b.attr)));
    report
}

/// The device-level difference between two snapshots, computed by
/// skipping pointer-equal shards and pointer-equal device records.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SnapshotDelta {
    /// Devices present in `new` that were added or whose record changed
    /// since `old`, sorted by name.
    pub changed: Vec<String>,
    /// Devices present in `old` but absent from `new`, sorted by name.
    pub removed: Vec<String>,
    /// Shards skipped wholesale because their `Arc` was unchanged.
    pub shards_reused: u64,
    /// Shards that needed a record-level walk.
    pub shards_scanned: u64,
}

/// Computes the [`SnapshotDelta`] from `old` to `new`.
///
/// A pointer-equal shard contributes nothing (same rows); inside a moved
/// shard, a pointer-equal device record likewise contributes nothing —
/// the copy-on-write commit path only replaces the records it writes, so
/// the walk is O(changed devices) plus O(log n) map overhead, not
/// O(devices).
pub fn snapshot_delta(old: &StoreSnapshot, new: &StoreSnapshot) -> SnapshotDelta {
    let mut delta = SnapshotDelta::default();
    for (old_shard, new_shard) in old.state.shards.iter().zip(new.state.shards.iter()) {
        if Arc::ptr_eq(old_shard, new_shard) {
            delta.shards_reused += 1;
            continue;
        }
        delta.shards_scanned += 1;
        for (name, record) in &new_shard.devices {
            match old_shard.devices.get(name) {
                Some(old_record) if Arc::ptr_eq(old_record, record) => {}
                _ => delta.changed.push(name.clone()),
            }
        }
        for name in old_shard.devices.keys() {
            if !new_shard.devices.contains_key(name) {
                delta.removed.push(name.clone());
            }
        }
    }
    delta.changed.sort();
    delta.removed.sort();
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Database, WriteOp};
    use crate::value::attrs;

    fn set(db: &Database, name: &str, attr: &str, value: &str) {
        db.batch(&[WriteOp::SetDeviceAttr {
            name: name.into(),
            attr: attr.into(),
            value: value.into(),
        }])
        .unwrap();
    }

    fn seeded() -> Database {
        let db = Database::new();
        for pod in 0..4 {
            for sw in 0..8 {
                db.insert_device(
                    &format!("dc01.pod{pod:02}.sw{sw:02}"),
                    vec![(attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into())],
                )
                .unwrap();
            }
        }
        db
    }

    fn active_everywhere() -> Vec<Assertion> {
        vec![Assertion::new(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE)]
    }

    #[test]
    fn refresh_matches_cold_and_reuses_clean_shards() {
        let db = seeded();
        let scope = Pattern::universe();
        let want = active_everywhere();

        let snap = db.read_view();
        let first = db.views().refresh(&snap, &scope, &want);
        assert!(first.same_result(&compliance_cold(&snap, &scope, &want)));
        assert!(first.compliant());
        assert_eq!(first.devices, 32);
        assert_eq!(first.reused_shards, 0);

        // Untouched store: every routed shard is reused.
        let again = db.views().refresh(&db.read_view(), &scope, &want);
        assert!(again.same_result(&first));
        assert_eq!(again.recomputed_shards, 0);

        // Dirty one pod: exactly one shard recomputes, and the report
        // carries the real offender.
        set(
            &db,
            "dc01.pod02.sw03",
            attrs::DEVICE_STATUS,
            attrs::STATUS_DRAINED,
        );
        let snap = db.read_view();
        let after = db.views().refresh(&snap, &scope, &want);
        assert!(after.same_result(&compliance_cold(&snap, &scope, &want)));
        assert_eq!(after.recomputed_shards, 1);
        assert_eq!(after.non_compliant.len(), 1);
        assert_eq!(after.non_compliant[0].device, "dc01.pod02.sw03");
        assert_eq!(
            after.non_compliant[0].actual,
            Some(AttrValue::from(attrs::STATUS_DRAINED))
        );
    }

    #[test]
    fn scoped_refresh_routes_to_one_shard() {
        let db = seeded();
        let scope = Pattern::from_glob("dc01.pod01.*").unwrap();
        let want = active_everywhere();
        let report = db.views().refresh(&db.read_view(), &scope, &want);
        assert_eq!(report.devices, 8);
        // The pinned shard plus the catch-all.
        assert_eq!(report.recomputed_shards + report.reused_shards, 2);
    }

    #[test]
    fn missing_attribute_is_non_compliant() {
        let db = Database::new();
        db.insert_device("dc01.pod00.sw00", vec![]).unwrap();
        let report =
            db.views()
                .refresh(&db.read_view(), &Pattern::universe(), &active_everywhere());
        assert_eq!(report.non_compliant.len(), 1);
        assert_eq!(report.non_compliant[0].actual, None);
    }

    #[test]
    fn snapshot_delta_skips_clean_shards_and_records() {
        let db = seeded();
        let before = db.read_view();
        set(&db, "dc01.pod03.sw07", "SNMP_COMMUNITY", "v2");
        db.insert_device("dc01.pod03.sw99", vec![]).unwrap();
        db.batch(&[WriteOp::DeleteDevice {
            name: "dc01.pod03.sw00".into(),
        }])
        .unwrap();
        let after = db.read_view();

        let delta = snapshot_delta(&before, &after);
        assert_eq!(
            delta.changed,
            vec!["dc01.pod03.sw07".to_string(), "dc01.pod03.sw99".to_string()]
        );
        assert_eq!(delta.removed, vec!["dc01.pod03.sw00".to_string()]);
        assert_eq!(delta.shards_scanned, 1);
        assert_eq!(delta.shards_reused as usize, NUM_SHARDS - 1);

        // Self-delta is empty and touches nothing.
        let zero = snapshot_delta(&after, &after);
        assert!(zero.changed.is_empty() && zero.removed.is_empty());
        assert_eq!(zero.shards_scanned, 0);
    }

    #[test]
    fn cache_is_bounded() {
        let db = seeded();
        let want = active_everywhere();
        for i in 0..(MAX_CACHED_VIEWS + 8) {
            let scope = Pattern::from_glob(&format!("dc01.pod00.sw{i:02}*")).unwrap();
            db.views().refresh(&db.read_view(), &scope, &want);
        }
        assert!(db.views().views.lock().len() <= MAX_CACHED_VIEWS);
    }

    #[test]
    fn eviction_is_insertion_ordered() {
        let db = seeded();
        let want = active_everywhere();
        let snap = db.read_view();
        let refresh = |i: usize| {
            let scope = Pattern::from_glob(&format!("dc01.pod00.sw{i:02}*")).unwrap();
            db.views().refresh(&snap, &scope, &want)
        };
        // One view more than fits, in descending key order: the newest key
        // always sorts lowest, which is what a by-key eviction would drop.
        for i in (0..=MAX_CACHED_VIEWS).rev() {
            refresh(i);
        }
        for i in (0..MAX_CACHED_VIEWS).rev() {
            assert!(refresh(i).reused_shards > 0, "view {i} was evicted");
        }
        assert_eq!(refresh(MAX_CACHED_VIEWS).reused_shards, 0);
    }
}
