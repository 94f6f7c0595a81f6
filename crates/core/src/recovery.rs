//! Executing suggested rollback plans.
//!
//! The paper keeps the human in the loop: Occam *suggests* a concrete plan
//! and the operator carries it out. This module is the mechanical executor
//! an operator (or a test) can invoke to perform the suggested steps
//! against the database and the device service.

use crate::error::TaskError;
use crate::task::{TaskReport, UndoRecord};
use occam_emunet::{DeviceService, FuncArgs};
use occam_netdb::{attrs, Database, WriteOp};
use occam_rollback::UndoStep;

/// An error while executing a rollback plan.
///
/// Marked `#[non_exhaustive]` (like [`TaskError`]): match with a wildcard
/// arm, and branch retry decisions on [`RecoveryError::is_transient`].
#[non_exhaustive]
#[derive(Clone, PartialEq, Debug)]
pub enum RecoveryError {
    /// The report has no plan (task completed, or its log was unparseable).
    NoPlan,
    /// A plan step referenced a log entry without the needed undo payload.
    MissingUndo {
        /// The log entry index.
        entry: usize,
    },
    /// A step failed while executing.
    StepFailed {
        /// Index of the failing plan step.
        step: usize,
        /// The underlying error.
        error: TaskError,
    },
}

impl RecoveryError {
    /// Whether re-executing the rollback can plausibly succeed: true only
    /// for step failures whose underlying [`TaskError`] is transient
    /// (rollback steps are idempotent, so replaying the whole plan after a
    /// transient step failure is safe).
    pub fn is_transient(&self) -> bool {
        match self {
            RecoveryError::StepFailed { error, .. } => error.is_transient(),
            _ => false,
        }
    }
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NoPlan => write!(f, "report carries no rollback plan"),
            RecoveryError::MissingUndo { entry } => {
                write!(f, "log entry {entry} lacks an undo payload")
            }
            RecoveryError::StepFailed { step, error } => {
                write!(f, "rollback step {step} failed: {error}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Executes the rollback plan in `report` against the database and device
/// service, in order. Returns the number of steps executed.
pub fn execute_rollback(
    report: &TaskReport,
    db: &Database,
    service: &dyn DeviceService,
) -> Result<usize, RecoveryError> {
    let plan = report.rollback.as_ref().ok_or(RecoveryError::NoPlan)?;
    for (i, step) in plan.steps.iter().enumerate() {
        run_step(report, db, service, step)
            .map_err(|e| RecoveryError::StepFailed { step: i, error: e })?;
    }
    Ok(plan.steps.len())
}

fn run_step(
    report: &TaskReport,
    db: &Database,
    service: &dyn DeviceService,
    step: &UndoStep,
) -> Result<(), TaskError> {
    match step {
        UndoStep::RevertDb { entry } => {
            let undo = report
                .undo
                .get(*entry)
                .ok_or(TaskError::Failed(format!("no undo payload for #{entry}")))?;
            match undo {
                UndoRecord::Db { attr, old } => {
                    let mut ops = Vec::with_capacity(old.len());
                    for (device, value) in old {
                        ops.push(match value {
                            Some(v) => WriteOp::SetDeviceAttr {
                                name: device.clone(),
                                attr: attr.clone(),
                                value: v.clone(),
                            },
                            None => WriteOp::UnsetDeviceAttr {
                                name: device.clone(),
                                attr: attr.clone(),
                            },
                        });
                    }
                    db.batch(&ops)?;
                }
                UndoRecord::LinkDb { attr, old } => {
                    let mut ops = Vec::with_capacity(old.len());
                    for ((a, z), value) in old {
                        ops.push(match value {
                            Some(v) => WriteOp::SetLinkAttr {
                                a_end: a.clone(),
                                z_end: z.clone(),
                                attr: attr.clone(),
                                value: v.clone(),
                            },
                            None => WriteOp::UnsetLinkAttr {
                                a_end: a.clone(),
                                z_end: z.clone(),
                                attr: attr.clone(),
                            },
                        });
                    }
                    db.batch(&ops)?;
                }
                UndoRecord::Inserted { name } => {
                    db.delete_device(name)?;
                }
                UndoRecord::Removed { name, attrs, links } => {
                    db.insert_device(name, attrs.clone())?;
                    for (peer, link_attrs) in links {
                        db.insert_link(name, peer, link_attrs.clone())?;
                    }
                }
                UndoRecord::None => {
                    return Err(TaskError::Failed(format!(
                        "entry #{entry} is not a database change"
                    )))
                }
            }
            Ok(())
        }
        UndoStep::PushCfg { db_entries } => {
            // Re-push configuration consistent with the (now reverted)
            // database state, device by device: admin state from
            // DEVICE_STATUS, firmware from FIRMWARE_VERSION.
            let mut devices: Vec<String> = Vec::new();
            for &e in db_entries {
                if let Some(entry) = report.log.get(e) {
                    for d in &entry.devices {
                        if !devices.contains(d) {
                            devices.push(d.clone());
                        }
                    }
                }
            }
            // One snapshot for the whole re-push: every device's admin
            // state and firmware come from the same committed version.
            let view = db.query_read_view()?;
            for device in devices {
                let row = view.device_attrs(&device).unwrap_or_default();
                let drained = row
                    .get(attrs::DEVICE_STATUS)
                    .and_then(|v| v.as_str())
                    .is_some_and(|s| {
                        s == attrs::STATUS_DRAINED || s == attrs::STATUS_UNDER_MAINTENANCE
                    });
                let mut args = FuncArgs::one("admin", if drained { "drained" } else { "active" });
                if let Some(fw) = row.get(attrs::FIRMWARE_VERSION).and_then(|v| v.as_str()) {
                    args = args.with("firmware", fw);
                }
                service.execute("f_push", std::slice::from_ref(&device), &args)?;
            }
            Ok(())
        }
        UndoStep::Redrain { drain_entry } => {
            let devices = devices_of(report, *drain_entry)?;
            service.execute("f_drain", &devices, &FuncArgs::none())?;
            Ok(())
        }
        UndoStep::Undrain { drain_entry } => {
            let devices = devices_of(report, *drain_entry)?;
            service.execute("f_undrain", &devices, &FuncArgs::none())?;
            Ok(())
        }
        UndoStep::Unprepare { prepare_entry } => {
            let devices = devices_of(report, *prepare_entry)?;
            service.execute("f_dealloc_ip", &devices, &FuncArgs::none())?;
            Ok(())
        }
    }
}

fn devices_of(report: &TaskReport, entry: usize) -> Result<Vec<String>, TaskError> {
    report
        .log
        .get(entry)
        .map(|e| e.devices.clone())
        .ok_or_else(|| TaskError::Failed(format!("log entry #{entry} missing")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskState;
    use crate::test_support::{emu_service, tiny_runtime};

    #[test]
    fn rollback_restores_db_and_devices() {
        let rt = tiny_runtime();
        let svc = emu_service(&rt);
        let before_db = rt.db().read_view();
        svc.library().fail_at("f_optic_test", 0);
        let report = rt.task("upgrade").run(|ctx| {
            let net = ctx.network("dc01.pod00.agg00")?;
            net.apply("f_drain")?;
            net.set(attrs::FIRMWARE_VERSION, "fw-9".into())?;
            net.apply_with("f_push", &FuncArgs::one("admin", "drained"))?;
            net.apply("f_alloc_ip")?;
            net.apply("f_optic_test")?;
            net.apply("f_dealloc_ip")?;
            net.apply("f_undrain")?;
            Ok(())
        });
        assert_eq!(report.state, TaskState::Aborted);
        let steps = execute_rollback(&report, rt.db(), svc).unwrap();
        assert!(steps >= 4);
        // Database restored exactly.
        assert_eq!(rt.db().read_view(), before_db);
        // Device undrained and test IP gone.
        let net = svc.net();
        let guard = net.lock();
        let id = guard.device_by_name("dc01.pod00.agg00").unwrap();
        let sw = guard.switch(id).unwrap();
        assert!(!sw.drained);
        assert!(sw.test_ip.is_none());
    }

    #[test]
    fn completed_report_has_no_plan_to_execute() {
        let rt = tiny_runtime();
        let svc = emu_service(&rt);
        let report = rt.task("ok").run(|_| Ok(()));
        let err = execute_rollback(&report, rt.db(), svc).unwrap_err();
        assert_eq!(err, RecoveryError::NoPlan);
    }
}
