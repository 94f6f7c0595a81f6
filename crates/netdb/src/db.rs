//! The source-of-truth network database.
//!
//! Mirrors the role of Robotron/Malt-style network databases in the paper:
//! it holds the *logical* network view (devices, links, attributes) and
//! offers **query-level** transactions — each call commits atomically, but
//! nothing spans calls. Task-level isolation across queries is exactly what
//! the database does *not* provide; that gap (paper §2.3, problem 1) is
//! closed by the Occam runtime's locking, not here.

use crate::error::{DbError, DbResult};
use crate::fault::{FaultInjector, FaultPlan};
use crate::ivm::ViewCache;
use crate::occ::{OccOutcome, StagedStore};
use crate::replica::router::ReadSource;
use crate::shard::{StoreSnapshot, StoreState};
use crate::value::AttrValue;
use crate::view::ReadView;
use crate::wal::{Wal, WalRecord};
use occam_obs::{Counter, EventKind, EventRing, Histogram, Registry, Span};
use occam_regex::Pattern;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// A device row: an attribute map.
#[derive(Clone, PartialEq, Default, Debug)]
pub struct DeviceRecord {
    /// Attribute name → value.
    pub attrs: BTreeMap<String, AttrValue>,
}

/// A link row: an attribute map over an undirected endpoint pair.
#[derive(Clone, PartialEq, Default, Debug)]
pub struct LinkRecord {
    /// Attribute name → value.
    pub attrs: BTreeMap<String, AttrValue>,
}

/// Normalized undirected link key: `(a, z)` with `a <= z` lexically.
pub type LinkKey = (String, String);

/// Normalizes an endpoint pair into a [`LinkKey`].
pub fn link_key(a: &str, z: &str) -> LinkKey {
    if a <= z {
        (a.to_string(), z.to_string())
    } else {
        (z.to_string(), a.to_string())
    }
}

/// The materialized database state: the flat, single-map representation.
///
/// The live database no longer stores one of these (state is sharded —
/// see [`crate::shard`]); `Store` remains as the replay reference
/// implementation, the [`diff`] input type, and the target of
/// [`StoreSnapshot::materialize`]. Cloneable: a clone is a snapshot.
///
/// The `devices`/`links` maps stay public for read access; treat them as
/// read-only — the store keeps a private per-endpoint link index in sync
/// through [`Store::apply`], which direct map mutation would skew.
#[derive(Clone, Default, Debug)]
pub struct Store {
    /// Device rows by name.
    pub devices: BTreeMap<String, DeviceRecord>,
    /// Link rows by normalized endpoint pair.
    pub links: BTreeMap<LinkKey, LinkRecord>,
    /// Endpoint → keys of links touching it, so a device delete walks
    /// only its own links instead of scanning the whole link table.
    pub(crate) by_endpoint: BTreeMap<String, BTreeSet<LinkKey>>,
}

/// Equality is over the logical contents (devices and links); the
/// endpoint index is a pure function of `links` and excluded.
impl PartialEq for Store {
    fn eq(&self, other: &Store) -> bool {
        self.devices == other.devices && self.links == other.links
    }
}

impl Store {
    fn index_link(&mut self, key: &LinkKey) {
        self.by_endpoint
            .entry(key.0.clone())
            .or_default()
            .insert(key.clone());
        self.by_endpoint
            .entry(key.1.clone())
            .or_default()
            .insert(key.clone());
    }

    fn unindex_link(&mut self, endpoint: &str, key: &LinkKey) {
        if let Some(set) = self.by_endpoint.get_mut(endpoint) {
            set.remove(key);
            if set.is_empty() {
                self.by_endpoint.remove(endpoint);
            }
        }
    }

    /// Applies one redo record. Application is total: records referencing
    /// missing rows are no-ops, which makes replay robust to truncation.
    pub fn apply(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::InsertDevice { name, attrs } => {
                let dev = self.devices.entry(name.clone()).or_default();
                for (k, v) in attrs {
                    dev.attrs.insert(k.clone(), v.clone());
                }
            }
            WalRecord::DeleteDevice { name } => {
                self.devices.remove(name);
                // Cascade through the endpoint index: cost is the
                // device's own degree, not the whole link table.
                let keys = self.by_endpoint.remove(name).unwrap_or_default();
                for key in keys {
                    self.links.remove(&key);
                    let other = if key.0 == *name { &key.1 } else { &key.0 };
                    if other != name {
                        let other = other.clone();
                        self.unindex_link(&other, &key);
                    }
                }
            }
            WalRecord::SetDeviceAttr { name, attr, value } => {
                if let Some(dev) = self.devices.get_mut(name) {
                    dev.attrs.insert(attr.clone(), value.clone());
                }
            }
            WalRecord::UnsetDeviceAttr { name, attr } => {
                if let Some(dev) = self.devices.get_mut(name) {
                    dev.attrs.remove(attr);
                }
            }
            WalRecord::InsertLink {
                a_end,
                z_end,
                attrs,
            } => {
                let key = link_key(a_end, z_end);
                let link = self.links.entry(key.clone()).or_default();
                for (k, v) in attrs {
                    link.attrs.insert(k.clone(), v.clone());
                }
                self.index_link(&key);
            }
            WalRecord::DeleteLink { a_end, z_end } => {
                let key = link_key(a_end, z_end);
                if self.links.remove(&key).is_some() {
                    let (a, z) = (key.0.clone(), key.1.clone());
                    self.unindex_link(&a, &key);
                    self.unindex_link(&z, &key);
                }
            }
            WalRecord::SetLinkAttr {
                a_end,
                z_end,
                attr,
                value,
            } => {
                if let Some(link) = self.links.get_mut(&link_key(a_end, z_end)) {
                    link.attrs.insert(attr.clone(), value.clone());
                }
            }
            WalRecord::UnsetLinkAttr { a_end, z_end, attr } => {
                if let Some(link) = self.links.get_mut(&link_key(a_end, z_end)) {
                    link.attrs.remove(attr);
                }
            }
            WalRecord::Commit { .. } => {}
        }
    }

    /// Rebuilds a store by replaying a record sequence from empty.
    pub fn replay(records: &[WalRecord]) -> Store {
        let mut s = Store::default();
        for r in records {
            s.apply(r);
        }
        s
    }
}

/// One entry in a snapshot diff.
#[derive(Clone, PartialEq, Debug)]
pub enum DiffEntry {
    /// Device present only in the newer snapshot.
    DeviceAdded(String),
    /// Device present only in the older snapshot.
    DeviceRemoved(String),
    /// Device attribute changed: `(device, attr, old, new)`.
    DeviceAttrChanged(String, String, Option<AttrValue>, Option<AttrValue>),
    /// Link present only in the newer snapshot.
    LinkAdded(LinkKey),
    /// Link present only in the older snapshot.
    LinkRemoved(LinkKey),
    /// Link attribute changed: `(key, attr, old, new)`.
    LinkAttrChanged(LinkKey, String, Option<AttrValue>, Option<AttrValue>),
}

/// Computes the difference `old → new` between two snapshots.
pub fn diff(old: &Store, new: &Store) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    for name in new.devices.keys() {
        if !old.devices.contains_key(name) {
            out.push(DiffEntry::DeviceAdded(name.clone()));
        }
    }
    for (name, od) in &old.devices {
        match new.devices.get(name) {
            None => out.push(DiffEntry::DeviceRemoved(name.clone())),
            Some(nd) => {
                let keys: std::collections::BTreeSet<&String> =
                    od.attrs.keys().chain(nd.attrs.keys()).collect();
                for k in keys {
                    let o = od.attrs.get(k);
                    let n = nd.attrs.get(k);
                    if o != n {
                        out.push(DiffEntry::DeviceAttrChanged(
                            name.clone(),
                            k.clone(),
                            o.cloned(),
                            n.cloned(),
                        ));
                    }
                }
            }
        }
    }
    for key in new.links.keys() {
        if !old.links.contains_key(key) {
            out.push(DiffEntry::LinkAdded(key.clone()));
        }
    }
    for (key, ol) in &old.links {
        match new.links.get(key) {
            None => out.push(DiffEntry::LinkRemoved(key.clone())),
            Some(nl) => {
                let keys: std::collections::BTreeSet<&String> =
                    ol.attrs.keys().chain(nl.attrs.keys()).collect();
                for k in keys {
                    let o = ol.attrs.get(k);
                    let n = nl.attrs.get(k);
                    if o != n {
                        out.push(DiffEntry::LinkAttrChanged(
                            key.clone(),
                            k.clone(),
                            o.cloned(),
                            n.cloned(),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// A single write operation inside an atomic batch.
#[derive(Clone, PartialEq, Debug)]
pub enum WriteOp {
    /// Insert a device (fails if it exists).
    InsertDevice {
        /// Device name.
        name: String,
        /// Initial attributes.
        attrs: Vec<(String, AttrValue)>,
    },
    /// Delete a device and its links (fails if missing).
    DeleteDevice {
        /// Device name.
        name: String,
    },
    /// Set one attribute on one device (fails if the device is missing).
    SetDeviceAttr {
        /// Device name.
        name: String,
        /// Attribute name.
        attr: String,
        /// New value.
        value: AttrValue,
    },
    /// Remove one attribute from one device (fails if the device is
    /// missing; removing an absent attribute is a no-op).
    UnsetDeviceAttr {
        /// Device name.
        name: String,
        /// Attribute name.
        attr: String,
    },
    /// Insert a link (fails if either endpoint is missing or it exists).
    InsertLink {
        /// A-end device name.
        a_end: String,
        /// Z-end device name.
        z_end: String,
        /// Initial attributes.
        attrs: Vec<(String, AttrValue)>,
    },
    /// Delete a link (fails if missing).
    DeleteLink {
        /// A-end device name.
        a_end: String,
        /// Z-end device name.
        z_end: String,
    },
    /// Set one attribute on one link (fails if the link is missing).
    SetLinkAttr {
        /// A-end device name.
        a_end: String,
        /// Z-end device name.
        z_end: String,
        /// Attribute name.
        attr: String,
        /// New value.
        value: AttrValue,
    },
    /// Remove one attribute from one link (fails if the link is missing).
    UnsetLinkAttr {
        /// A-end device name.
        a_end: String,
        /// Z-end device name.
        z_end: String,
        /// Attribute name.
        attr: String,
    },
}

/// Observability handles for the database, bound to a [`Registry`] under
/// the `netdb.*` names (DESIGN.md §9).
#[derive(Clone, Debug)]
struct DbObs {
    queries: Counter,
    query_ns: Histogram,
    wal_appends: Counter,
    wal_records: Counter,
    wal_append_ns: Histogram,
    snapshot_ns: Histogram,
    shard_commits: Counter,
    lock_free_reads: Counter,
    events: EventRing,
}

impl DbObs {
    fn bound(reg: &Registry) -> DbObs {
        DbObs {
            queries: reg.counter("netdb.queries"),
            query_ns: reg.histogram("netdb.query_ns"),
            wal_appends: reg.counter("netdb.wal.appends"),
            wal_records: reg.counter("netdb.wal.records"),
            wal_append_ns: reg.histogram("netdb.wal.append_ns"),
            snapshot_ns: reg.histogram("netdb.snapshot_ns"),
            shard_commits: reg.counter("netdb.shard.commits"),
            lock_free_reads: reg.counter("netdb.shard.read_lock_free"),
            events: reg.events(),
        }
    }
}

/// The network database handle. Cheap to share behind an `Arc`.
///
/// State lives in a sharded copy-on-write `StoreState`
/// (see [`crate::shard`]): `state` holds the current published version
/// behind a short pointer-swap lock, and `writer` serializes commits.
/// Readers never take `writer` — they clone the published `Arc` and read
/// lock-free — so scoped queries proceed concurrently with a committing
/// writer, and [`Database::read_view`] is an O(1) `Arc` bump instead of a
/// deep clone.
#[derive(Debug)]
pub struct Database {
    /// The current committed version. The mutex guards only the pointer
    /// swap; it is held for O(1) by readers and writers alike.
    state: Mutex<Arc<StoreState>>,
    /// Commit lock: serializes validate → apply → WAL-append → publish,
    /// so WAL order equals publication order (the cross-shard commit
    /// protocol of DESIGN.md §12).
    writer: Mutex<()>,
    wal: Mutex<Wal>,
    /// Signalled after every published commit, so replication shippers
    /// can sleep until there is new WAL to ship instead of busy-polling.
    commit_cv: Condvar,
    faults: FaultInjector,
    obs: DbObs,
    obs_registry: Registry,
    /// Incremental compliance views over this store's shard snapshots
    /// (DESIGN.md §17.3).
    views: ViewCache,
}

impl Database {
    /// Creates an empty database with no fault injection.
    pub fn new() -> Database {
        Database::with_obs(&Registry::new())
    }

    /// Creates an empty database whose `netdb.*` instruments (query and
    /// WAL-append latency histograms, query/append/record counters, WAL
    /// events) are bound to `reg` — see DESIGN.md §9.
    pub fn with_obs(reg: &Registry) -> Database {
        Database {
            state: Mutex::new(Arc::new(StoreState::new())),
            writer: Mutex::new(()),
            wal: Mutex::new(Wal::new()),
            commit_cv: Condvar::new(),
            faults: FaultInjector::default(),
            obs: DbObs::bound(reg),
            obs_registry: reg.clone(),
            views: ViewCache::new(reg),
        }
    }

    /// Creates a database with the given fault-injection plan.
    pub fn with_faults(plan: FaultPlan) -> Database {
        let mut db = Database::new();
        db.faults = FaultInjector::new(plan);
        db
    }

    /// The registry this database's instruments are bound to.
    pub fn obs(&self) -> &Registry {
        &self.obs_registry
    }

    /// The incremental compliance-view cache over this store: audits and
    /// spec compliance checks refresh through it so re-evaluation costs
    /// O(dirty shards), not O(devices) (DESIGN.md §17.3).
    pub fn views(&self) -> &ViewCache {
        &self.views
    }

    /// Counts one public query and times it until the guard drops.
    fn query_span(&self) -> Span {
        self.obs.queries.inc();
        Span::start(&self.obs.query_ns)
    }

    /// Appends one committed batch to the WAL, recording append latency,
    /// record counts, and a `wal_append` event.
    fn wal_append(&self, records: Vec<WalRecord>) -> u64 {
        let n = records.len() as u64;
        let span = Span::start(&self.obs.wal_append_ns);
        let seq = self.wal.lock().append_batch(records);
        span.finish();
        self.obs.wal_appends.inc();
        self.obs.wal_records.add(n);
        self.obs
            .events
            .record(EventKind::WalAppend { records: n, seq });
        seq
    }

    /// Replaces the fault-injection plan.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.faults.set_plan(plan);
    }

    /// The fault injector (for inspecting counters).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    fn guard(&self) -> DbResult<()> {
        match self.faults.check() {
            Some(seq) => Err(DbError::ConnectionFailure { query_seq: seq }),
            None => Ok(()),
        }
    }

    /// The currently published store version: an O(1) `Arc` bump.
    fn current(&self) -> Arc<StoreState> {
        self.state.lock().clone()
    }

    /// Number of committed write batches.
    pub fn commits(&self) -> u64 {
        self.wal.lock().num_commits()
    }

    /// A copy of the WAL records (for replay tests and audit).
    pub fn wal_records(&self) -> Vec<WalRecord> {
        self.wal.lock().records().to_vec()
    }

    /// First commit sequence the local WAL physically holds records for
    /// (`0` unless this replica bootstrapped from a snapshot).
    pub fn wal_base_commits(&self) -> u64 {
        self.wal.lock().base_commits()
    }

    /// Blocks until the database has at least `min` commits or `timeout`
    /// elapses; returns the commit count observed on wake-up. The wait is
    /// condvar-driven off the commit path, so replication shippers idle
    /// without polling.
    pub fn wait_commits(&self, min: u64, timeout: Duration) -> u64 {
        let deadline = std::time::Instant::now() + timeout;
        let mut wal = self.wal.lock();
        loop {
            let now = wal.num_commits();
            if now >= min {
                return now;
            }
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return now;
            };
            if left.is_zero() || self.commit_cv.wait_for(&mut wal, left).timed_out() {
                return wal.num_commits();
            }
        }
    }

    /// The WAL suffix committed after the first `commits` commits, with
    /// the sequence it starts at. `None` means the history is no longer
    /// held locally (the WAL was re-based past `commits` by a snapshot
    /// bootstrap) and the requester needs a snapshot transfer instead.
    pub(crate) fn wal_suffix_after_commits(&self, commits: u64) -> Option<(u64, Vec<WalRecord>)> {
        self.wal.lock().suffix_after_commits(commits)
    }

    /// Applies one replicated batch at a forced commit sequence — the
    /// follower half of WAL shipping. Runs the same commit protocol as
    /// [`Database::batch`] (writer lock → copy-on-write apply → WAL append
    /// → pointer-swap publish), minus validation: the leader already
    /// validated, and replaying its exact records keeps the follower
    /// byte-identical. Fails without mutating anything if `seq` is not
    /// the next expected commit.
    pub(crate) fn apply_replicated(&self, records: &[WalRecord], seq: u64) -> Result<(), String> {
        let _w = self.writer.lock();
        {
            // Reserve the sequence before touching state: an out-of-order
            // batch must leave the store untouched.
            let wal = self.wal.lock();
            if seq != wal.num_commits() {
                return Err(format!(
                    "replicated commit {seq} out of order: expected {}",
                    wal.num_commits()
                ));
            }
        }
        let base = self.current();
        let mut next = (*base).clone();
        for r in records {
            next.apply(r);
        }
        let dirty = next.finalize(&base);
        debug_assert_eq!(next.commits, seq + 1, "commit counter tracks WAL seq");
        let n = records.len() as u64;
        let span = Span::start(&self.obs.wal_append_ns);
        self.wal.lock().append_batch_at(records.to_vec(), seq)?;
        span.finish();
        self.obs.wal_appends.inc();
        self.obs.wal_records.add(n);
        self.obs
            .events
            .record(EventKind::WalAppend { records: n, seq });
        *self.state.lock() = Arc::new(next);
        self.obs.shard_commits.add(dirty as u64);
        self.commit_cv.notify_all();
        Ok(())
    }

    /// Installs a bootstrap snapshot carrying the first `commits` commits:
    /// swaps in the snapshot's shard vector (O(1) — the `Arc`s are shared,
    /// not cloned) and re-bases a fresh WAL so subsequent replicated
    /// commits continue the leader's numbering.
    pub(crate) fn install_snapshot(&self, snap: &StoreSnapshot, commits: u64) {
        let _w = self.writer.lock();
        // Adopt the snapshot's shard-version vector wholesale so OCC
        // validation on this replica agrees with the leader's history;
        // the commit counter is pinned to the transferred count.
        let mut state = (*snap.state).clone();
        state.commits = commits;
        *self.state.lock() = Arc::new(state);
        let mut wal = self.wal.lock();
        *wal = Wal::new();
        wal.rebase(commits);
        drop(wal);
        self.commit_cv.notify_all();
    }

    /// Installs a recovered record sequence: replays it into the store and
    /// re-seeds the WAL so future commits continue the history.
    pub(crate) fn install_recovered(&self, records: Vec<WalRecord>) {
        let _w = self.writer.lock();
        // Replay batch-by-batch (each `Commit` marker seals one), both to
        // preserve the WAL's commit structure and to reproduce the exact
        // per-shard version vector the live commit path would have
        // published — recovery must not perturb OCC validation.
        let mut fresh = Wal::new();
        let mut state = StoreState::new();
        let mut base = state.clone();
        let mut batch: Vec<WalRecord> = Vec::new();
        for r in records {
            match r {
                WalRecord::Commit { .. } => {
                    state.finalize(&base);
                    base = state.clone();
                    fresh.append_batch(std::mem::take(&mut batch));
                }
                other => {
                    state.apply(&other);
                    batch.push(other);
                }
            }
        }
        if !batch.is_empty() {
            // A torn tail recovers as one final committed batch.
            state.finalize(&base);
            fresh.append_batch(batch);
        }
        *self.state.lock() = Arc::new(state);
        *self.wal.lock() = fresh;
        self.commit_cv.notify_all();
    }

    // ------------------------------------------------------------------
    // Read queries
    // ------------------------------------------------------------------

    /// A [`ReadView`] over the currently published version: the one
    /// consistent read this database hands out (see [`crate::view`] for
    /// which entry point to call).
    ///
    /// O(1): bumps the refcount of the published shard vector — no deep
    /// clone, no waiting on in-flight commits — and the handle stays
    /// immutable forever. Bypasses the fault injector, so invariant
    /// checkers, replication and benches can capture state while fault
    /// plans are armed.
    pub fn read_view(&self) -> ReadView {
        let span = Span::start(&self.obs.snapshot_ns);
        let state = self.current();
        span.finish();
        ReadView::new(StoreSnapshot { state }, ReadSource::Leader)
    }

    /// One task-path read: counted, timed, subject to the fault injector,
    /// then served lock-free from a [`Database::read_view`] — never
    /// blocked by (and never blocking) a committing writer.
    fn query<T>(&self, read: impl FnOnce(ReadView) -> T) -> DbResult<T> {
        let _q = self.query_span();
        self.guard()?;
        self.obs.lock_free_reads.inc();
        Ok(read(self.read_view()))
    }

    /// Takes a [`ReadView`] *as a query* — the accessor runtime layers
    /// use, so a task's reads keep their failure semantics while being
    /// mutually consistent.
    pub fn query_read_view(&self) -> DbResult<ReadView> {
        self.query(|view| view)
    }

    /// Returns the names of devices matching `scope`, sorted.
    pub fn select_devices(&self, scope: &Pattern) -> DbResult<Vec<String>> {
        self.query(|view| view.select_devices(scope))
    }

    /// Returns `device → value` for one attribute across a scope; devices
    /// without the attribute are omitted.
    pub fn get_attr(&self, scope: &Pattern, attr: &str) -> DbResult<BTreeMap<String, AttrValue>> {
        self.query(|view| view.get_attr(scope, attr))
    }

    /// Returns the full attribute map for every device in a scope.
    pub fn get_all(
        &self,
        scope: &Pattern,
    ) -> DbResult<BTreeMap<String, BTreeMap<String, AttrValue>>> {
        self.query(|view| view.get_all(scope))
    }

    /// Returns true if a device row exists.
    pub fn device_exists(&self, name: &str) -> DbResult<bool> {
        self.query(|view| view.device_exists(name))
    }

    /// Returns the links with at least one endpoint in scope, sorted by key.
    pub fn links_touching(&self, scope: &Pattern) -> DbResult<Vec<LinkKey>> {
        self.query(|view| view.links_touching(scope))
    }

    /// Returns `link → value` for one attribute across links touching a
    /// scope; links without the attribute are omitted.
    pub fn get_link_attr(
        &self,
        scope: &Pattern,
        attr: &str,
    ) -> DbResult<BTreeMap<LinkKey, AttrValue>> {
        self.query(|view| view.get_link_attr(scope, attr))
    }

    // ------------------------------------------------------------------
    // Write queries (each is one atomic batch)
    // ------------------------------------------------------------------

    /// Validates a batch against a store version without mutating it.
    /// Crate-visible so [`crate::occ::StagedStore`] runs the same checks
    /// against its working state.
    pub(crate) fn validate(store: &StoreState, ops: &[WriteOp]) -> DbResult<()> {
        // Track devices/links created or destroyed earlier in this batch so
        // that intra-batch sequences validate consistently.
        let mut devs: BTreeMap<&str, bool> = BTreeMap::new(); // name -> exists
        let mut links: BTreeMap<LinkKey, bool> = BTreeMap::new();
        let dev_exists = |store: &StoreState, devs: &BTreeMap<&str, bool>, n: &str| {
            devs.get(n)
                .copied()
                .unwrap_or_else(|| store.device_exists(n))
        };
        let link_exists = |store: &StoreState, links: &BTreeMap<LinkKey, bool>, k: &LinkKey| {
            links
                .get(k)
                .copied()
                .unwrap_or_else(|| store.link_exists(k))
        };
        for op in ops {
            match op {
                WriteOp::InsertDevice { name, .. } => {
                    if dev_exists(store, &devs, name) {
                        return Err(DbError::AlreadyExists(name.clone()));
                    }
                    devs.insert(name, true);
                }
                WriteOp::DeleteDevice { name } => {
                    if !dev_exists(store, &devs, name) {
                        return Err(DbError::NoSuchDevice(name.clone()));
                    }
                    devs.insert(name, false);
                }
                WriteOp::SetDeviceAttr { name, .. } | WriteOp::UnsetDeviceAttr { name, .. } => {
                    if !dev_exists(store, &devs, name) {
                        return Err(DbError::NoSuchDevice(name.clone()));
                    }
                }
                WriteOp::InsertLink { a_end, z_end, .. } => {
                    if a_end == z_end {
                        return Err(DbError::Constraint(format!("self-link on {a_end}")));
                    }
                    for e in [a_end, z_end] {
                        if !dev_exists(store, &devs, e) {
                            return Err(DbError::NoSuchDevice(e.clone()));
                        }
                    }
                    let k = link_key(a_end, z_end);
                    if link_exists(store, &links, &k) {
                        return Err(DbError::AlreadyExists(format!("{a_end}<->{z_end}")));
                    }
                    links.insert(k, true);
                }
                WriteOp::DeleteLink { a_end, z_end } => {
                    let k = link_key(a_end, z_end);
                    if !link_exists(store, &links, &k) {
                        return Err(DbError::NoSuchLink {
                            a_end: a_end.clone(),
                            z_end: z_end.clone(),
                        });
                    }
                    links.insert(k, false);
                }
                WriteOp::SetLinkAttr { a_end, z_end, .. }
                | WriteOp::UnsetLinkAttr { a_end, z_end, .. } => {
                    let k = link_key(a_end, z_end);
                    if !link_exists(store, &links, &k) {
                        return Err(DbError::NoSuchLink {
                            a_end: a_end.clone(),
                            z_end: z_end.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    pub(crate) fn to_record(op: &WriteOp) -> WalRecord {
        match op {
            WriteOp::InsertDevice { name, attrs } => WalRecord::InsertDevice {
                name: name.clone(),
                attrs: attrs.clone(),
            },
            WriteOp::DeleteDevice { name } => WalRecord::DeleteDevice { name: name.clone() },
            WriteOp::SetDeviceAttr { name, attr, value } => WalRecord::SetDeviceAttr {
                name: name.clone(),
                attr: attr.clone(),
                value: value.clone(),
            },
            WriteOp::UnsetDeviceAttr { name, attr } => WalRecord::UnsetDeviceAttr {
                name: name.clone(),
                attr: attr.clone(),
            },
            WriteOp::InsertLink {
                a_end,
                z_end,
                attrs,
            } => WalRecord::InsertLink {
                a_end: a_end.clone(),
                z_end: z_end.clone(),
                attrs: attrs.clone(),
            },
            WriteOp::DeleteLink { a_end, z_end } => WalRecord::DeleteLink {
                a_end: a_end.clone(),
                z_end: z_end.clone(),
            },
            WriteOp::SetLinkAttr {
                a_end,
                z_end,
                attr,
                value,
            } => WalRecord::SetLinkAttr {
                a_end: a_end.clone(),
                z_end: z_end.clone(),
                attr: attr.clone(),
                value: value.clone(),
            },
            WriteOp::UnsetLinkAttr { a_end, z_end, attr } => WalRecord::UnsetLinkAttr {
                a_end: a_end.clone(),
                z_end: z_end.clone(),
                attr: attr.clone(),
            },
        }
    }

    /// Commits pre-validated records under the held writer lock: clones the
    /// base shard vector shallowly, applies copy-on-write (only touched
    /// shards are deep-cloned), appends to the WAL, then publishes the new
    /// version with an O(1) pointer swap. Returns the WAL commit sequence.
    ///
    /// Because `writer` is held across append + publish, WAL order equals
    /// publication order — the invariant `install_recovered` and the chaos
    /// crash points rely on.
    fn commit_records(&self, base: &Arc<StoreState>, records: Vec<WalRecord>) -> u64 {
        let mut next = (**base).clone();
        for r in &records {
            next.apply(r);
        }
        // Seal versions *before* the WAL append: both happen under the
        // held writer lock, so the shard-version bump and the WAL commit
        // sequence can never be observed out of order — the certifier's
        // commit order is exactly WAL order.
        let dirty = next.finalize(base);
        let seq = self.wal_append(records);
        debug_assert_eq!(next.commits, seq + 1, "commit counter tracks WAL seq");
        *self.state.lock() = Arc::new(next);
        self.obs.shard_commits.add(dirty as u64);
        self.commit_cv.notify_all();
        seq
    }

    /// Executes a batch of writes atomically: all ops validate against the
    /// current state (plus earlier ops in the batch), then all apply and the
    /// batch commits to the WAL; or none apply.
    pub fn batch(&self, ops: &[WriteOp]) -> DbResult<u64> {
        let _q = self.query_span();
        self.guard()?;
        let _w = self.writer.lock();
        let base = self.current();
        Self::validate(&base, ops)?;
        let records: Vec<WalRecord> = ops.iter().map(Self::to_record).collect();
        Ok(self.commit_records(&base, records))
    }

    /// Inserts one device.
    pub fn insert_device(&self, name: &str, attrs: Vec<(String, AttrValue)>) -> DbResult<u64> {
        self.batch(&[WriteOp::InsertDevice {
            name: name.to_string(),
            attrs,
        }])
    }

    /// Deletes one device (and its links).
    pub fn delete_device(&self, name: &str) -> DbResult<u64> {
        self.batch(&[WriteOp::DeleteDevice {
            name: name.to_string(),
        }])
    }

    /// Sets one attribute on every device in scope; returns the device names
    /// written.
    pub fn set_attr(&self, scope: &Pattern, attr: &str, value: AttrValue) -> DbResult<Vec<String>> {
        Ok(self.set_attr_seq(scope, attr, value)?.0)
    }

    /// Like [`Database::set_attr`], but also returns the WAL commit
    /// sequence the batch was assigned, so callers emitting certified
    /// write sets can place the write exactly in the global commit order.
    pub fn set_attr_seq(
        &self,
        scope: &Pattern,
        attr: &str,
        value: AttrValue,
    ) -> DbResult<(Vec<String>, u64)> {
        // Capture the scope and commit the batch under the writer lock so
        // the read-modify-write is atomic against concurrent writers.
        let _q = self.query_span();
        self.guard()?;
        let _w = self.writer.lock();
        let base = self.current();
        let names = StoreSnapshot {
            state: Arc::clone(&base),
        }
        .select_devices(scope);
        let records: Vec<WalRecord> = names
            .iter()
            .map(|n| WalRecord::SetDeviceAttr {
                name: n.clone(),
                attr: attr.to_string(),
                value: value.clone(),
            })
            .collect();
        let seq = self.commit_records(&base, records);
        Ok((names, seq))
    }

    /// Sets one attribute with distinct per-device values (the paper's
    /// dictionary-valued `set`). Fails atomically if any device is missing.
    pub fn set_attr_per_device(
        &self,
        values: &BTreeMap<String, AttrValue>,
        attr: &str,
    ) -> DbResult<u64> {
        let ops: Vec<WriteOp> = values
            .iter()
            .map(|(n, v)| WriteOp::SetDeviceAttr {
                name: n.clone(),
                attr: attr.to_string(),
                value: v.clone(),
            })
            .collect();
        self.batch(&ops)
    }

    /// Inserts one link.
    pub fn insert_link(
        &self,
        a_end: &str,
        z_end: &str,
        attrs: Vec<(String, AttrValue)>,
    ) -> DbResult<u64> {
        self.batch(&[WriteOp::InsertLink {
            a_end: a_end.to_string(),
            z_end: z_end.to_string(),
            attrs,
        }])
    }

    /// Sets one attribute on one link.
    pub fn set_link_attr(
        &self,
        a_end: &str,
        z_end: &str,
        attr: &str,
        value: AttrValue,
    ) -> DbResult<u64> {
        self.batch(&[WriteOp::SetLinkAttr {
            a_end: a_end.to_string(),
            z_end: z_end.to_string(),
            attr: attr.to_string(),
            value,
        }])
    }

    /// Sets one attribute on every link touching a scope; returns the link
    /// keys written.
    pub fn set_link_attr_scope(
        &self,
        scope: &Pattern,
        attr: &str,
        value: AttrValue,
    ) -> DbResult<Vec<LinkKey>> {
        Ok(self.set_link_attr_scope_seq(scope, attr, value)?.0)
    }

    /// Like [`Database::set_link_attr_scope`], but also returns the WAL
    /// commit sequence the batch was assigned (see
    /// [`Database::set_attr_seq`]).
    pub fn set_link_attr_scope_seq(
        &self,
        scope: &Pattern,
        attr: &str,
        value: AttrValue,
    ) -> DbResult<(Vec<LinkKey>, u64)> {
        let _q = self.query_span();
        self.guard()?;
        let _w = self.writer.lock();
        let base = self.current();
        let keys = StoreSnapshot {
            state: Arc::clone(&base),
        }
        .links_touching(scope);
        let records: Vec<WalRecord> = keys
            .iter()
            .map(|(a, z)| WalRecord::SetLinkAttr {
                a_end: a.clone(),
                z_end: z.clone(),
                attr: attr.to_string(),
                value: value.clone(),
            })
            .collect();
        let seq = self.commit_records(&base, records);
        Ok((keys, seq))
    }

    /// Commits an optimistically-executed task (the OCC slow half).
    ///
    /// Under the writer lock, validates that no other commit has touched
    /// any shard the task *read* (`read_shards`) or *staged writes into*
    /// since its base snapshot was taken — per-shard version equality,
    /// plus `Arc` pointer equality to rule out version aliasing across
    /// `install_snapshot` / `install_recovered` rebuilds. On success the
    /// staged shards are grafted onto the currently published state
    /// (sound exactly because validation proved those shards unchanged)
    /// and the batch commits through the regular writer-mutex protocol:
    /// version bump, WAL append, O(1) pointer-swap publish.
    ///
    /// A [`OccOutcome::Conflict`] leaves the database untouched; the
    /// caller retries from a fresh snapshot or falls back to 2PL. An
    /// empty staged store never conflicts: a read-only task's entire
    /// execution is one consistent snapshot, so it serializes at its
    /// *base* commit count regardless of later commits — no validation,
    /// nothing appended.
    pub fn occ_publish(
        &self,
        staged: &StagedStore,
        read_shards: &BTreeSet<usize>,
    ) -> DbResult<OccOutcome> {
        let _q = self.query_span();
        self.guard()?;
        if staged.is_empty() {
            return Ok(OccOutcome::Committed {
                seq: staged.base().commits(),
            });
        }
        let _w = self.writer.lock();
        let cur = self.current();
        let base = staged.base_state();
        let dirty = staged.dirty_shards();
        for &i in read_shards.iter().chain(dirty.iter()) {
            if cur.versions[i] != base.versions[i] || !Arc::ptr_eq(&cur.shards[i], &base.shards[i])
            {
                return Ok(OccOutcome::Conflict { shard: i });
            }
        }
        let mut next = (*cur).clone();
        for &i in &dirty {
            next.shards[i] = staged.shard(i);
        }
        let bumped = next.finalize(&cur);
        debug_assert_eq!(
            bumped,
            dirty.len(),
            "graft dirties exactly the staged shards"
        );
        let seq = self.wal_append(staged.records().to_vec());
        *self.state.lock() = Arc::new(next);
        self.obs.shard_commits.add(bumped as u64);
        self.commit_cv.notify_all();
        Ok(OccOutcome::Committed { seq })
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::attrs;

    fn pat(glob: &str) -> Pattern {
        Pattern::from_glob(glob).unwrap()
    }

    fn seeded() -> Database {
        let db = Database::new();
        for pod in 0..3 {
            for sw in 0..4 {
                db.insert_device(
                    &format!("dc01.pod{pod:02}.sw{sw:02}"),
                    vec![(attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into())],
                )
                .unwrap();
            }
        }
        db.insert_link(
            "dc01.pod00.sw00",
            "dc01.pod00.sw01",
            vec![(attrs::LINK_STATUS.into(), attrs::UP.into())],
        )
        .unwrap();
        db
    }

    #[test]
    fn insert_select_roundtrip() {
        let db = seeded();
        let names = db.select_devices(&pat("dc01.pod01.*")).unwrap();
        assert_eq!(names.len(), 4);
        assert!(names.iter().all(|n| n.starts_with("dc01.pod01.")));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let db = seeded();
        let err = db.insert_device("dc01.pod00.sw00", vec![]).unwrap_err();
        assert!(matches!(err, DbError::AlreadyExists(_)));
    }

    #[test]
    fn set_attr_scope_writes_all_matches() {
        let db = seeded();
        let written = db
            .set_attr(
                &pat("dc01.pod02.*"),
                attrs::DEVICE_STATUS,
                attrs::STATUS_UNDER_MAINTENANCE.into(),
            )
            .unwrap();
        assert_eq!(written.len(), 4);
        let vals = db.get_attr(&pat("dc01.*"), attrs::DEVICE_STATUS).unwrap();
        let maint = vals
            .values()
            .filter(|v| v.as_str() == Some(attrs::STATUS_UNDER_MAINTENANCE))
            .count();
        assert_eq!(maint, 4);
    }

    #[test]
    fn per_device_set_is_atomic() {
        let db = seeded();
        let mut m = BTreeMap::new();
        m.insert("dc01.pod00.sw00".to_string(), AttrValue::str("10.0.0.1"));
        m.insert("dc01.pod00.nope".to_string(), AttrValue::str("10.0.0.2"));
        let err = db.set_attr_per_device(&m, attrs::IP_ADDRESS).unwrap_err();
        assert!(matches!(err, DbError::NoSuchDevice(_)));
        // Nothing applied.
        assert!(db
            .get_attr(&pat("dc01.*"), attrs::IP_ADDRESS)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn delete_device_cascades_links() {
        let db = seeded();
        db.delete_device("dc01.pod00.sw00").unwrap();
        assert!(db.links_touching(&pat("dc01.*")).unwrap().is_empty());
        assert!(!db.device_exists("dc01.pod00.sw00").unwrap());
    }

    #[test]
    fn link_requires_existing_endpoints() {
        let db = seeded();
        let err = db
            .insert_link("dc01.pod00.sw00", "dc09.pod00.sw00", vec![])
            .unwrap_err();
        assert!(matches!(err, DbError::NoSuchDevice(_)));
        let err = db
            .insert_link("dc01.pod00.sw00", "dc01.pod00.sw00", vec![])
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)));
    }

    #[test]
    fn link_key_is_undirected() {
        let db = seeded();
        db.set_link_attr(
            "dc01.pod00.sw01",
            "dc01.pod00.sw00",
            attrs::LINK_STATUS,
            attrs::DOWN.into(),
        )
        .unwrap();
        let vals = db
            .get_link_attr(&pat("dc01.pod00.*"), attrs::LINK_STATUS)
            .unwrap();
        assert_eq!(vals.len(), 1);
        assert_eq!(vals.values().next().unwrap().as_str(), Some(attrs::DOWN));
    }

    #[test]
    fn batch_is_all_or_nothing() {
        let db = seeded();
        let before = db.read_view();
        let err = db
            .batch(&[
                WriteOp::SetDeviceAttr {
                    name: "dc01.pod00.sw00".into(),
                    attr: "X".into(),
                    value: AttrValue::Int(1),
                },
                WriteOp::DeleteDevice {
                    name: "missing".into(),
                },
            ])
            .unwrap_err();
        assert!(matches!(err, DbError::NoSuchDevice(_)));
        assert_eq!(db.read_view(), before);
    }

    #[test]
    fn wal_replay_reconstructs_state() {
        let db = seeded();
        db.set_attr(&pat("dc01.pod01.*"), "X", AttrValue::Int(9))
            .unwrap();
        db.delete_device("dc01.pod02.sw03").unwrap();
        let replayed = Store::replay(&db.wal_records());
        assert_eq!(replayed, *db.read_view());
    }

    #[test]
    fn fault_injection_surfaces_connection_failures() {
        let db = seeded();
        db.set_fault_plan(FaultPlan::fail_at([0]));
        let err = db.select_devices(&pat("dc01.*")).unwrap_err();
        assert!(matches!(err, DbError::ConnectionFailure { .. }));
        // Next query succeeds.
        assert!(db.select_devices(&pat("dc01.*")).is_ok());
        assert_eq!(db.faults().failures_injected(), 1);
    }

    #[test]
    fn snapshot_diff_captures_changes() {
        let db = seeded();
        let before = db.read_view();
        db.set_attr(
            &pat("dc01.pod00.sw00"),
            attrs::DEVICE_STATUS,
            attrs::STATUS_DRAINED.into(),
        )
        .unwrap();
        db.insert_device("dc01.pod00.sw99", vec![]).unwrap();
        let after = db.read_view();
        let (before, after) = (before.materialize(), after.materialize());
        let d = diff(&before, &after);
        assert!(d.contains(&DiffEntry::DeviceAdded("dc01.pod00.sw99".into())));
        assert!(d.iter().any(|e| matches!(
            e,
            DiffEntry::DeviceAttrChanged(n, a, _, _)
                if n == "dc01.pod00.sw00" && a == attrs::DEVICE_STATUS
        )));
        assert_eq!(diff(&after, &after), Vec::new());
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        use std::sync::Arc;
        let db = Arc::new(Database::new());
        for i in 0..8 {
            db.insert_device(&format!("dc01.pod00.sw{i:02}"), vec![])
                .unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..20 {
                    db.set_attr(
                        &Pattern::from_glob(&format!("dc01.pod00.sw{:02}", t % 8)).unwrap(),
                        "COUNTER",
                        AttrValue::Int(i),
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // WAL replay must agree with the final state even under concurrency.
        assert_eq!(Store::replay(&db.wal_records()), *db.read_view());
    }

    /// Regression test for the OCC ordering fix: the shard-version bump
    /// and the WAL append both happen under the writer mutex, so a torn
    /// publish can never reorder versions relative to WAL commit order.
    /// Replaying the WAL batch-by-batch must reproduce the *exact*
    /// published version vector and commit count, and every published
    /// state observed mid-flight must be version-monotone.
    #[test]
    fn torn_publish_cannot_reorder_shard_versions() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let db = Arc::new(Database::new());
        for pod in 0..4 {
            db.insert_device(&format!("dc01.pod{pod:02}.sw00"), vec![])
                .unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let observer = {
            let (db, stop) = (Arc::clone(&db), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut last = db.read_view();
                while !stop.load(Ordering::Relaxed) {
                    let cur = db.read_view();
                    assert!(cur.commits() >= last.commits(), "commit count regressed");
                    for (c, l) in cur.shard_versions().iter().zip(last.shard_versions()) {
                        assert!(c >= l, "shard version regressed across publications");
                    }
                    last = cur;
                }
            })
        };
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    db.set_attr(
                        &pat(&format!("dc01.pod{:02}.*", (t + i) % 4)),
                        "COUNTER",
                        AttrValue::Int(i64::from(i)),
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        observer.join().unwrap();
        let live = db.read_view();
        let replayed = crate::shard::StoreSnapshot::replay(&db.wal_records());
        assert_eq!(replayed, *live);
        assert_eq!(replayed.commits(), live.commits());
        assert_eq!(replayed.shard_versions(), live.shard_versions());
    }
}
