//! The network object: the paper's core programming abstraction (§3).
//!
//! A `Network` scopes a region of devices; `get`/`set` operate on the
//! logical state in the source-of-truth database, `apply` executes device
//! functions on the physical network through the management-plane service.
//! Every stateful operation is recorded in the task's typed execution log
//! for rollback-plan generation.

use crate::error::{TaskError, TaskResult};
use crate::task::{TaskCtx, UndoRecord};
use occam_emunet::FuncArgs;
use occam_netdb::{AttrValue, Database, DbResult, LinkKey, ReadSource, ReadView, WriteOp};
use occam_objtree::LockMode;
use occam_regex::Pattern;
use occam_rollback::{func_optype, LogEntry, OpStatus, OpType};
use std::collections::BTreeMap;

/// A logically centralized view over a region of the network.
///
/// Created by [`TaskCtx::network`] (exclusive intent) or
/// [`TaskCtx::network_read`] (shared intent); the runtime holds the
/// region's locks until the whole task commits or aborts (strict 2PL), so
/// dropping or [`Network::close`]-ing the object does *not* release them.
pub struct Network<'t> {
    ctx: &'t TaskCtx,
    pattern: Pattern,
    mode: LockMode,
}

impl<'t> Network<'t> {
    pub(crate) fn new(ctx: &'t TaskCtx, pattern: Pattern, mode: LockMode) -> Network<'t> {
        Network { ctx, pattern, mode }
    }

    /// The compiled scope of this object.
    pub fn scope(&self) -> &Pattern {
        &self.pattern
    }

    fn require_write(&self) -> TaskResult<()> {
        if self.mode == LockMode::Exclusive {
            Ok(())
        } else {
            Err(TaskError::ReadOnlyObject {
                scope: self.pattern.source().to_string(),
            })
        }
    }

    /// The view an operation reads `scope` through, with the read recorded
    /// in the certifier footprint at its exact commit position.
    ///
    /// Under optimistic execution that is a read-your-writes overlay of
    /// the attempt's frozen base, and `scope` joins the attempt's read
    /// set; under 2PL it is whatever `fetch` takes from the database.
    fn read_scope(
        &self,
        scope: &Pattern,
        fetch: impl FnOnce() -> occam_netdb::DbResult<ReadView>,
    ) -> TaskResult<ReadView> {
        let staged = self.ctx.occ.lock().as_mut().map(|st| {
            st.track_pattern(scope);
            let overlay = ReadView::new(st.staged.overlay(), ReadSource::Leader);
            (overlay, st.base_commits)
        });
        let (view, at) = match staged {
            Some(read) => read,
            None => {
                let view = fetch()?;
                let at = view.commits();
                (view, at)
            }
        };
        self.ctx.record_read(scope, at);
        Ok(view)
    }

    /// The view this object's own reads go through: one fault-checked
    /// query of the leader under 2PL (see [`Network::read_scope`]).
    fn read(&self) -> TaskResult<ReadView> {
        self.read_scope(&self.pattern, || self.ctx.runtime().db().query_read_view())
    }

    /// Stages one batch under optimistic execution, tracking the rows it
    /// writes for certification.
    fn occ_stage(&self, ops: &[WriteOp], rows: Vec<String>, label: &str) -> TaskResult<()> {
        let mut slot = self.ctx.occ.lock();
        let st = slot.as_mut().expect("occ_stage only under OCC");
        match st.staged.apply(ops) {
            Ok(()) => {
                st.pending_rows.extend(rows);
                st.write_patterns.push(self.pattern.clone());
                drop(slot);
                // Staged writes publish only if commit-time validation
                // passes, so they sit outside the rollback grammar: an
                // aborted optimistic attempt has nothing to undo.
                self.ctx
                    .push_activity(format!("occ staged {label} ({} ops)", ops.len()));
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The 2PL tail every database write shares: run `write`, record each
    /// of `rows` in the certifier footprint at the commit position the
    /// write published, and log `entry` (an `Ok` `DB_CHANGE`) with its
    /// `undo` payload — or log the entry as failed and surface the error.
    fn logged_write<T>(
        &self,
        entry: LogEntry,
        rows: &[String],
        undo: UndoRecord,
        write: impl FnOnce(&Database) -> DbResult<(T, u64)>,
    ) -> TaskResult<T> {
        match write(self.ctx.runtime().db()) {
            Ok((out, seq)) => {
                for row in rows {
                    self.ctx.record_write(row, seq + 1);
                }
                self.ctx.push_log(entry, undo);
                Ok(out)
            }
            Err(e) => {
                let failed = LogEntry {
                    status: OpStatus::Failed,
                    ..entry
                };
                self.ctx.push_log(failed, UndoRecord::None);
                Err(e.into())
            }
        }
    }

    /// The device names currently in the region (from the database).
    pub fn devices(&self) -> TaskResult<Vec<String>> {
        self.ctx.check_cancelled()?;
        self.ctx.runtime().obs_handles().ops_get.inc();
        Ok(self.read()?.select_devices(&self.pattern))
    }

    /// Reads one attribute for every device in the region: the paper's
    /// `get()`, returning a dictionary keyed on device ids.
    pub fn get(&self, attr: &str) -> TaskResult<BTreeMap<String, AttrValue>> {
        self.ctx.check_cancelled()?;
        self.ctx.runtime().obs_handles().ops_get.inc();
        Ok(self.read()?.get_attr(&self.pattern, attr))
    }

    /// Reads the full attribute map of every device in the region.
    pub fn get_all(&self) -> TaskResult<BTreeMap<String, BTreeMap<String, AttrValue>>> {
        self.ctx.check_cancelled()?;
        self.ctx.runtime().obs_handles().ops_get.inc();
        Ok(self.read()?.get_all(&self.pattern))
    }

    /// Reads one attribute across the links touching the region; link keys
    /// are `(a_end, z_end)` pairs, as in the paper's link-status example.
    pub fn get_links(&self, attr: &str) -> TaskResult<BTreeMap<LinkKey, AttrValue>> {
        self.ctx.check_cancelled()?;
        self.ctx.runtime().obs_handles().ops_get.inc();
        Ok(self.read()?.get_link_attr(&self.pattern, attr))
    }

    /// Takes a consistent lock-free view of the whole store, scoped reads
    /// included: all reads against the returned handle observe the same
    /// committed version, so multi-attribute audits cannot tear across a
    /// concurrent commit. Counted and fault-injected like any other query.
    ///
    /// When a replica read router is attached
    /// ([`crate::Runtime::attach_read_router`]) the view is served
    /// from a caught-up follower within the router's staleness bound —
    /// still one consistent committed version, possibly a few commits
    /// behind the leader ([`ReadView::source`] says which; the lag is
    /// surfaced in `netdb.repl.read_lag_commits`). Under optimistic
    /// execution the view is the attempt's own overlay, and the whole
    /// store joins the attempt's read set (a full view can depend on
    /// anything).
    pub fn view(&self) -> TaskResult<ReadView> {
        self.ctx.check_cancelled()?;
        self.ctx.runtime().obs_handles().ops_get.inc();
        let everything = self.ctx.runtime().pattern_cache().get(".*")?;
        self.read_scope(&everything, || self.ctx.runtime().routed_view())
    }

    /// Writes one attribute on every device in the region: the paper's
    /// `set()`. Returns the devices written. Logged as `DB_CHANGE` with the
    /// overwritten values for rollback; under optimistic execution the
    /// write is staged privately instead (nothing to roll back until it
    /// publishes).
    pub fn set(&self, attr: &str, value: AttrValue) -> TaskResult<Vec<String>> {
        self.ctx.check_cancelled()?;
        self.require_write()?;
        self.ctx.runtime().obs_handles().ops_set.inc();
        let label = format!("set({attr})");
        if self.ctx.occ_active() {
            let devices = self.read()?.select_devices(&self.pattern);
            let ops: Vec<WriteOp> = devices
                .iter()
                .map(|n| WriteOp::SetDeviceAttr {
                    name: n.clone(),
                    attr: attr.to_string(),
                    value: value.clone(),
                })
                .collect();
            self.occ_stage(&ops, devices.clone(), &label)?;
            return Ok(devices);
        }
        // Capture previous values (absent = None) for the undo payload.
        type Captured = (Vec<String>, Vec<(String, Option<AttrValue>)>);
        let capture = || -> Result<Captured, TaskError> {
            // One snapshot: names and previous values are mutually
            // consistent even against concurrent writers.
            let snap = self.read()?;
            let devices = snap.select_devices(&self.pattern);
            let current = snap.get_attr(&self.pattern, attr);
            let old = devices
                .iter()
                .map(|d| (d.clone(), current.get(d).cloned()))
                .collect();
            Ok((devices, old))
        };
        let (devices, old) = match capture() {
            Ok(x) => x,
            Err(e) => {
                self.ctx
                    .push_log(LogEntry::failed(OpType::DbChange, &label), UndoRecord::None);
                return Err(e);
            }
        };
        let undo = UndoRecord::Db {
            attr: attr.to_string(),
            old,
        };
        let entry = LogEntry::ok(OpType::DbChange, label).with_devices(devices.clone());
        self.logged_write(entry, &devices, undo, |db| {
            db.set_attr_seq(&self.pattern, attr, value)
        })
    }

    /// Writes one attribute with distinct per-device values (the paper's
    /// dictionary-valued `set`). All named devices must be in scope.
    pub fn set_per_device(
        &self,
        values: &BTreeMap<String, AttrValue>,
        attr: &str,
    ) -> TaskResult<()> {
        self.ctx.check_cancelled()?;
        self.require_write()?;
        self.ctx.runtime().obs_handles().ops_set.inc();
        for d in values.keys() {
            if !self.pattern.matches(d) {
                return Err(TaskError::Failed(format!(
                    "device {d} outside object scope {}",
                    self.pattern.source()
                )));
            }
        }
        let label = format!("set({attr})");
        if self.ctx.occ_active() {
            let ops: Vec<WriteOp> = values
                .iter()
                .map(|(n, v)| WriteOp::SetDeviceAttr {
                    name: n.clone(),
                    attr: attr.to_string(),
                    value: v.clone(),
                })
                .collect();
            return self.occ_stage(&ops, values.keys().cloned().collect(), &label);
        }
        let current = self.read()?.get_attr(&self.pattern, attr);
        let devices: Vec<String> = values.keys().cloned().collect();
        let undo = UndoRecord::Db {
            attr: attr.to_string(),
            old: devices
                .iter()
                .map(|d| (d.clone(), current.get(d).cloned()))
                .collect(),
        };
        let entry = LogEntry::ok(OpType::DbChange, label).with_devices(devices.clone());
        self.logged_write(entry, &devices, undo, |db| {
            db.set_attr_per_device(values, attr).map(|seq| ((), seq))
        })
    }

    /// Writes one attribute on every link touching the region. Logged as
    /// `DB_CHANGE`.
    pub fn set_links(&self, attr: &str, value: AttrValue) -> TaskResult<Vec<LinkKey>> {
        self.ctx.check_cancelled()?;
        self.require_write()?;
        self.ctx.runtime().obs_handles().ops_set.inc();
        let label = format!("set_links({attr})");
        if self.ctx.occ_active() {
            let keys = self.read()?.links_touching(&self.pattern);
            let ops: Vec<WriteOp> = keys
                .iter()
                .map(|(a, z)| WriteOp::SetLinkAttr {
                    a_end: a.clone(),
                    z_end: z.clone(),
                    attr: attr.to_string(),
                    value: value.clone(),
                })
                .collect();
            // A link write touches both endpoint rows.
            let rows = keys
                .iter()
                .flat_map(|(a, z)| [a.clone(), z.clone()])
                .collect();
            self.occ_stage(&ops, rows, &label)?;
            return Ok(keys);
        }
        let snap = self.read()?;
        let current = snap.get_link_attr(&self.pattern, attr);
        let keys = snap.links_touching(&self.pattern);
        let undo = UndoRecord::LinkDb {
            attr: attr.to_string(),
            old: keys
                .iter()
                .map(|k| (k.clone(), current.get(k).cloned()))
                .collect(),
        };
        // A link write touches both endpoint rows.
        let rows: Vec<String> = keys
            .iter()
            .flat_map(|(a, z)| [a.clone(), z.clone()])
            .collect();
        let entry = LogEntry::ok(OpType::DbChange, label)
            .with_devices(keys.iter().map(|(a, z)| format!("{a}<->{z}")).collect());
        self.logged_write(entry, &rows, undo, |db| {
            db.set_link_attr_scope_seq(&self.pattern, attr, value)
        })
    }

    /// Inserts a new device row into the source of truth. The name must be
    /// inside this object's scope — which is exactly why scopes are
    /// symbolic regexes (paper §3.1): the region covers devices that are
    /// *being added* by the task, so the lock protects them before they
    /// exist.
    ///
    /// Logged as `DB_CHANGE`; rollback deletes the row again.
    pub fn insert_device(&self, name: &str, attrs: Vec<(String, AttrValue)>) -> TaskResult<()> {
        self.ctx.check_cancelled()?;
        self.require_write()?;
        self.ctx.runtime().obs_handles().ops_set.inc();
        if !self.pattern.matches(name) {
            return Err(TaskError::Failed(format!(
                "device {name} outside object scope {}",
                self.pattern.source()
            )));
        }
        let label = format!("insert_device({name})");
        if self.ctx.occ_active() {
            let ops = [WriteOp::InsertDevice {
                name: name.to_string(),
                attrs,
            }];
            return self.occ_stage(&ops, vec![name.to_string()], &label);
        }
        let rows = [name.to_string()];
        let undo = UndoRecord::Inserted {
            name: name.to_string(),
        };
        let entry = LogEntry::ok(OpType::DbChange, label).with_devices(rows.to_vec());
        self.logged_write(entry, &rows, undo, |db| {
            db.insert_device(name, attrs).map(|seq| ((), seq))
        })
    }

    /// Logically deletes a device row (and its links) from the source of
    /// truth — the first half of the paper's §2.3 migration example. Other
    /// tasks cannot observe the intermediate state because the region stays
    /// locked until the whole task commits.
    ///
    /// Logged as `DB_CHANGE`; rollback re-inserts the row with its
    /// attributes and links.
    pub fn remove_device(&self, name: &str) -> TaskResult<()> {
        self.ctx.check_cancelled()?;
        self.require_write()?;
        self.ctx.runtime().obs_handles().ops_set.inc();
        if !self.pattern.matches(name) {
            return Err(TaskError::Failed(format!(
                "device {name} outside object scope {}",
                self.pattern.source()
            )));
        }
        let label = format!("remove_device({name})");
        let one = Pattern::from_names(&[name])?;
        if self.ctx.occ_active() {
            // The delete cascades into the links' peer rows; record them
            // as written so the certifier sees the cascade.
            let snap = self.read()?;
            let mut rows = vec![name.to_string()];
            for (a, z) in snap.links_touching(&one) {
                rows.push(if a == name { z } else { a });
            }
            let ops = [WriteOp::DeleteDevice {
                name: name.to_string(),
            }];
            return self.occ_stage(&ops, rows, &label);
        }
        // Capture the row and its links for the undo payload — one
        // consistent snapshot for both. The delete cascades into the
        // links' peer rows, which are written too.
        let snap = self.read()?;
        let attrs: Vec<(String, AttrValue)> = snap
            .get_all(&one)
            .remove(name)
            .map(|m| m.into_iter().collect())
            .unwrap_or_default();
        let mut rows = vec![name.to_string()];
        let mut links = Vec::new();
        for (a, z) in snap.links_touching(&one) {
            let attrs = snap.link_attrs(&a, &z).unwrap_or_default();
            let peer = if a == name { z } else { a };
            rows.push(peer.clone());
            links.push((peer, attrs.into_iter().collect()));
        }
        let undo = UndoRecord::Removed {
            name: name.to_string(),
            attrs,
            links,
        };
        let entry = LogEntry::ok(OpType::DbChange, label).with_devices(vec![name.to_string()]);
        self.logged_write(entry, &rows, undo, |db| {
            db.delete_device(name).map(|seq| ((), seq))
        })
    }

    /// Executes a device function on every device in the region: the
    /// paper's `apply(func)`.
    pub fn apply(&self, func: &str) -> TaskResult<String> {
        self.apply_with(func, &FuncArgs::none())
    }

    /// `apply` with function arguments.
    ///
    /// Device functions have physical side effects that cannot be staged
    /// and validated optimistically, so under [`crate::Isolation::Occ`]
    /// the attempt aborts with [`TaskError::OccFallback`] and the driver
    /// transparently re-executes the whole task under 2PL.
    pub fn apply_with(&self, func: &str, args: &FuncArgs) -> TaskResult<String> {
        self.ctx.check_cancelled()?;
        self.ctx.runtime().obs_handles().ops_apply.inc();
        self.require_write()?;
        {
            let mut slot = self.ctx.occ.lock();
            if let Some(st) = slot.as_mut() {
                let why = format!("apply({func}) has physical side effects");
                st.needs_fallback = Some(why.clone());
                return Err(TaskError::OccFallback(why));
            }
        }
        let devices = self.devices()?;
        let label = format!("apply({func})");
        let result = self.ctx.runtime().service().execute(func, &devices, args);
        match func_optype(func) {
            Some(typ) => {
                let status = if result.is_ok() {
                    OpStatus::Ok
                } else {
                    OpStatus::Failed
                };
                self.ctx.push_log(
                    LogEntry {
                        typ,
                        label,
                        devices,
                        status,
                    },
                    UndoRecord::None,
                );
            }
            None => {
                // Untyped device functions sit outside the Table 1 grammar;
                // they are recorded for the operator but not parsed.
                self.ctx.push_activity(format!(
                    "{label} on {} devices: {}",
                    devices.len(),
                    match &result {
                        Ok(msg) => msg.clone(),
                        Err(e) => format!("FAILED: {e}"),
                    }
                ));
            }
        }
        result.map_err(TaskError::from)
    }

    /// Marks the object finished. The serialization point for the whole
    /// task is task commit; locks are held until then (strict 2PL), so
    /// `close` is a readability marker, mirroring the paper's examples.
    pub fn close(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskState;
    use occam_netdb::attrs;

    #[test]
    fn get_set_roundtrip_and_log() {
        let rt = crate::test_support::tiny_runtime();
        let report = rt.task("maintenance").run(|ctx| {
            let net = ctx.network("dc01.pod00.*")?;
            net.set(attrs::DEVICE_STATUS, attrs::STATUS_UNDER_MAINTENANCE.into())?;
            let statuses = net.get(attrs::DEVICE_STATUS)?;
            assert!(!statuses.is_empty());
            assert!(statuses
                .values()
                .all(|v| v.as_str() == Some(attrs::STATUS_UNDER_MAINTENANCE)));
            net.close();
            Ok(())
        });
        assert_eq!(report.state, TaskState::Completed);
        assert_eq!(report.log.len(), 1);
        assert!(matches!(report.undo[0], UndoRecord::Db { .. }));
    }

    #[test]
    fn read_object_rejects_writes() {
        let rt = crate::test_support::tiny_runtime();
        let report = rt.task("reader").run(|ctx| {
            let net = ctx.network_read("dc01.pod00.*")?;
            let err = net.set("X", 1i64.into()).unwrap_err();
            assert!(matches!(err, TaskError::ReadOnlyObject { .. }));
            let err = net.apply("f_drain").unwrap_err();
            assert!(matches!(err, TaskError::ReadOnlyObject { .. }));
            Ok(())
        });
        assert_eq!(report.state, TaskState::Completed);
    }

    #[test]
    fn apply_executes_and_logs_typed_funcs() {
        let rt = crate::test_support::tiny_runtime();
        let report = rt.task("drainer").run(|ctx| {
            let net = ctx.network("dc01.pod00.agg00")?;
            net.apply("f_drain")?;
            net.apply("f_undrain")?;
            Ok(())
        });
        assert_eq!(report.state, TaskState::Completed);
        assert_eq!(report.log.len(), 2);
        assert_eq!(report.log[0].typ, OpType::Drain);
        assert_eq!(report.log[1].typ, OpType::Undrain);
        assert_eq!(report.log[0].devices, vec!["dc01.pod00.agg00".to_string()]);
    }

    #[test]
    fn untyped_funcs_go_to_activity_log() {
        let rt = crate::test_support::tiny_runtime();
        let report = rt.task("config").run(|ctx| {
            let net = ctx.network("dc01.pod00.*")?;
            net.apply("f_create_config")?;
            Ok(())
        });
        assert!(report.log.is_empty());
        assert_eq!(report.activity.len(), 1);
        assert!(report.activity[0].contains("f_create_config"));
    }

    #[test]
    fn set_per_device_rejects_out_of_scope() {
        let rt = crate::test_support::tiny_runtime();
        let report = rt.task("oops").run(|ctx| {
            let net = ctx.network("dc01.pod00.*")?;
            let mut m = BTreeMap::new();
            m.insert("dc01.pod01.tor00".to_string(), AttrValue::Int(1));
            net.set_per_device(&m, "X")
        });
        assert_eq!(report.state, TaskState::Aborted);
        assert!(matches!(report.error, Some(TaskError::Failed(_))));
    }

    #[test]
    fn dynamic_object_from_devices() {
        // The paper's turnup_links_subnet pattern: build an object over a
        // computed device list.
        let rt = crate::test_support::tiny_runtime();
        let report = rt.task("subnet").run(|ctx| {
            let net = ctx.network_read("dc01.*")?;
            let devs = net.devices()?;
            let picked: Vec<String> = devs.into_iter().take(2).collect();
            let subnet = ctx.network_of_devices(&picked)?;
            assert_eq!(subnet.devices()?.len(), 2);
            subnet.set("MARK", 1i64.into())?;
            Ok(())
        });
        assert_eq!(report.state, TaskState::Completed, "{:?}", report.error);
    }

    #[test]
    fn failed_device_function_aborts_with_plan() {
        let rt = crate::test_support::tiny_runtime();
        // Fail the next optic test.
        crate::test_support::emu_service(&rt)
            .library()
            .fail_at("f_optic_test", 0);
        let report = rt.task("upgrade").run(|ctx| {
            let net = ctx.network("dc01.pod00.agg00")?;
            net.apply("f_drain")?;
            net.set(attrs::FIRMWARE_VERSION, "fw-2".into())?;
            net.apply("f_push")?;
            net.apply("f_alloc_ip")?;
            net.apply("f_ping_test")?;
            net.apply("f_optic_test")?;
            net.apply("f_dealloc_ip")?;
            net.apply("f_undrain")?;
            Ok(())
        });
        assert_eq!(report.state, TaskState::Aborted);
        let plan = report.rollback.as_ref().expect("plan");
        assert_eq!(
            plan.arrow_notation(),
            "UNPREPARE -> r(DB_CHANGE) -> PUSH_CFG -> UNDRAIN"
        );
    }
}
