//! The plan executor: waves through the transactional runtime.
//!
//! Each [`Wave`] runs as one ordinary strict-2PL task built with
//! [`TaskBuilder`](occam_core::TaskBuilder): acquire the wave's devices
//! as a region, lower the wave to its [`Step`] program ([`lower_wave`]),
//! prove every abort prefix of it parses under the rollback grammar
//! ([`check_abort_prefixes`]), then run exactly the proved steps.
//! Because a wave is a task, a failure anywhere inside it triggers the
//! existing retry and rollback machinery — and after the final attempt
//! the executor mechanically applies the suggested rollback plan, so the
//! network lands on the **previous wave boundary**: a state the
//! synthesizer's model checker proved safe. Completed waves stay
//! committed; the plan can be re-synthesized from the current config and
//! resumed.
//!
//! Publication points — the moments a new network state becomes
//! observable — are surfaced through [`WavePoint`] callbacks so a
//! verifier (the chaos `update` phase) can assert invariants at *every*
//! intermediate publication, not just the final state.

use crate::obs::UpdateObs;
use crate::plan::{Plan, Wave};
use occam_core::steps::{check_abort_prefixes, Step};
use occam_core::{execute_rollback, CancelToken, RetryPolicy, Runtime, TaskError, TaskState};
use occam_netdb::{attrs, AttrValue};
use std::collections::BTreeMap;

/// One publication of an intermediate network state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WavePoint {
    /// Wave `i` has drained its devices (mid-wave state: the wave is
    /// routed around and its devices are being rewritten).
    Drained(usize),
    /// Wave `i` committed (post-wave boundary state).
    Committed(usize),
}

/// Execution tuning.
#[derive(Clone)]
pub struct ExecOptions {
    /// Task-name prefix; wave `i` runs as `<prefix>.w<i>`.
    pub task_prefix: String,
    /// Retry policy for each wave task (transient device faults are
    /// retried with inter-attempt rollback, like any other task).
    pub retry: RetryPolicy,
    /// Cooperative cancellation: checked between waves and propagated
    /// into each wave task.
    pub cancel: Option<CancelToken>,
    /// Metrics sink.
    pub obs: Option<UpdateObs>,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            task_prefix: "planned_update".into(),
            retry: RetryPolicy::none(),
            cancel: None,
            obs: None,
        }
    }
}

/// Outcome of one plan execution.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ExecReport {
    /// Waves started.
    pub waves_attempted: usize,
    /// Waves committed.
    pub waves_committed: usize,
    /// Index of the wave that failed, when one did.
    pub failed_wave: Option<usize>,
    /// Whether the failed wave was mechanically rolled back to the
    /// previous wave boundary.
    pub rolled_back: bool,
    /// The failure, when one occurred.
    pub error: Option<String>,
}

impl ExecReport {
    /// True when every wave committed.
    pub fn ok(&self) -> bool {
        self.failed_wave.is_none() && self.error.is_none()
    }
}

/// Runs `plan` wave-by-wave through `rt`. The optional `observer` is
/// invoked at every publication point (see [`WavePoint`]); it may be
/// called again for a retried wave, since a retry re-publishes.
pub fn execute_plan(
    rt: &Runtime,
    plan: &Plan,
    opts: &ExecOptions,
    observer: Option<&dyn Fn(WavePoint)>,
) -> ExecReport {
    let mut report = ExecReport::default();
    for (i, wave) in plan.waves.iter().enumerate() {
        if let Some(tok) = &opts.cancel {
            if tok.is_cancelled() {
                report.failed_wave = Some(i);
                report.error = Some("plan cancelled between waves".into());
                return report;
            }
        }
        report.waves_attempted += 1;
        let started = std::time::Instant::now();
        let task_report = run_wave(rt, i, wave, opts, observer);
        if let Some(obs) = &opts.obs {
            obs.exec_wave_ns.record_duration(started.elapsed());
        }
        match task_report.state {
            TaskState::Completed => {
                report.waves_committed += 1;
                if let Some(obs) = &opts.obs {
                    obs.exec_waves.inc();
                    obs.exec_publications.inc();
                }
                if let Some(cb) = observer {
                    cb(WavePoint::Committed(i));
                }
            }
            state => {
                report.failed_wave = Some(i);
                report.error = Some(match &task_report.error {
                    Some(e) => format!("wave {i} ended {state:?}: {e}"),
                    None => format!("wave {i} ended {state:?}"),
                });
                if let Some(obs) = &opts.obs {
                    obs.exec_failures.inc();
                }
                if task_report.rollback.is_some() {
                    let ok = execute_rollback(&task_report, rt.db(), rt.service().as_ref());
                    match ok {
                        Ok(_) => {
                            report.rolled_back = true;
                            if let Some(obs) = &opts.obs {
                                obs.exec_rollbacks.inc();
                            }
                        }
                        Err(e) => {
                            report.error = Some(format!(
                                "{}; rollback to wave boundary failed: {e}",
                                report.error.take().unwrap_or_default()
                            ));
                        }
                    }
                } else if task_report.log.is_empty() {
                    // Nothing logged — the wave aborted before its first
                    // write, so the boundary state still holds.
                    report.rolled_back = true;
                } else {
                    // Writes were logged but no plan was derived (the log
                    // failed the rollback grammar): surface it, never
                    // claim the boundary was restored.
                    report.error = Some(format!(
                        "{}; no rollback plan: {}",
                        report.error.take().unwrap_or_default(),
                        task_report
                            .rollback_error
                            .as_deref()
                            .unwrap_or("log did not parse")
                    ));
                }
                return report;
            }
        }
    }
    report
}

/// Runs one wave as a task and returns its report.
fn run_wave(
    rt: &Runtime,
    index: usize,
    wave: &Wave,
    opts: &ExecOptions,
    observer: Option<&dyn Fn(WavePoint)>,
) -> occam_core::TaskReport {
    let names = wave.devices();
    let steps = lower_wave(wave);
    let drained = maintenance_mark();
    let mut builder = rt.task(format!("{}.w{index}", opts.task_prefix));
    if let Some(tok) = &opts.cancel {
        builder = builder.cancel_token(tok.clone());
    }
    builder.retry(opts.retry.clone()).run(|ctx| {
        let region = ctx.network_of_devices(&names)?;
        check_abort_prefixes(&steps)
            .map_err(|e| TaskError::Failed(format!("wave {index} is not rollback-safe: {e}")))?;
        for step in &steps {
            step.run(&region, ctx)?;
            if *step == drained {
                if let Some(obs) = &opts.obs {
                    obs.exec_publications.inc();
                }
                if let Some(cb) = observer {
                    cb(WavePoint::Drained(index));
                }
            }
        }
        region.close();
        Ok(())
    })
}

/// The status write that completes a barrier's drain: once it commits,
/// the wave's drained state is published ([`WavePoint::Drained`]).
fn maintenance_mark() -> Step {
    Step::Set(
        attrs::DEVICE_STATUS.into(),
        attrs::STATUS_UNDER_MAINTENANCE.into(),
    )
}

/// Lowers one wave to the program its task runs.
///
/// A barriered wave is the rollback grammar's maintenance shape: drain
/// opens the offline block, the maintenance status leads the `db_list`
/// the push commits, and every device's post-wave admin status (its
/// explicit target, `ACTIVE` otherwise) trails the undrain. An
/// unbarriered wave is a pure database transaction; it writes admin
/// status only where an op sets one and never defaults an untouched
/// device to `ACTIVE`.
pub fn lower_wave(wave: &Wave) -> Vec<Step> {
    let pushes = wave.needs_push();
    let barrier = wave.barrier || pushes;
    // Per-attribute device→value batches, the shape `set_per_device` wants.
    let mut writes: BTreeMap<&str, BTreeMap<String, AttrValue>> = BTreeMap::new();
    for op in &wave.ops {
        if barrier {
            writes
                .entry(attrs::DEVICE_STATUS)
                .or_default()
                .insert(op.device.clone(), attrs::STATUS_ACTIVE.into());
        }
        for (attr, value) in &op.sets {
            writes
                .entry(attr)
                .or_default()
                .insert(op.device.clone(), value.clone());
        }
    }
    let batch = |(attr, values): (&str, _)| Step::SetPerDevice(attr.into(), values);
    // Admin status is applied at the end of the wave, never mid-wave.
    let status = writes.remove_entry(attrs::DEVICE_STATUS).map(batch);

    let mut steps = Vec::new();
    if barrier {
        steps.push(Step::Apply("f_drain"));
        steps.push(maintenance_mark());
        steps.push(Step::CheckCancelled);
    }
    steps.extend(writes.into_iter().map(batch));
    if barrier {
        if pushes {
            steps.push(Step::Push {
                firmware: wave.firmware().map(str::to_string),
                drained: true,
            });
        }
        steps.push(Step::CheckCancelled);
        steps.push(Step::Apply("f_undrain"));
    }
    steps.extend(status);
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::UpdateOp;
    use occam_rollback::OpType;

    fn op(device: &str, fw: Option<&str>) -> UpdateOp {
        let mut sets = vec![("SNMP_COMMUNITY".into(), AttrValue::from("v2"))];
        if let Some(fw) = fw {
            sets.push((attrs::FIRMWARE_VERSION.into(), AttrValue::from(fw)));
        }
        UpdateOp {
            device: device.into(),
            sets,
            firmware: fw.map(str::to_string),
        }
    }

    #[test]
    fn barriered_wave_follows_the_maintenance_grammar() {
        let steps = lower_wave(&Wave {
            ops: vec![op("a", Some("fw-2")), op("b", Some("fw-2"))],
            barrier: true,
        });
        let typed: Vec<OpType> = steps
            .iter()
            .filter_map(|s| s.log_entry().map(|e| e.typ))
            .collect();
        use OpType::{DbChange, Drain, PushCfg, Undrain};
        // DRAIN, status, FIRMWARE_VERSION, SNMP_COMMUNITY, PUSH, UNDRAIN,
        // status restore.
        assert_eq!(
            typed,
            [Drain, DbChange, DbChange, DbChange, PushCfg, Undrain, DbChange]
        );
        assert!(steps.contains(&Step::Push {
            firmware: Some("fw-2".into()),
            drained: true
        }));
        check_abort_prefixes(&steps).unwrap();
    }

    #[test]
    fn db_only_wave_is_pure_writes() {
        let wave = Wave {
            ops: vec![op("a", None)],
            barrier: false,
        };
        let values = BTreeMap::from([("a".to_string(), AttrValue::from("v2"))]);
        assert_eq!(
            lower_wave(&wave),
            [Step::SetPerDevice("SNMP_COMMUNITY".into(), values)]
        );
    }

    #[test]
    fn status_targets_default_to_active() {
        let wave = Wave {
            ops: vec![op("a", Some("fw-2"))],
            barrier: true,
        };
        let targets = BTreeMap::from([("a".to_string(), attrs::STATUS_ACTIVE.into())]);
        assert_eq!(
            lower_wave(&wave).last(),
            Some(&Step::SetPerDevice(attrs::DEVICE_STATUS.into(), targets))
        );
        // An unbarriered wave never defaults a device it does not park.
        let wave = Wave {
            ops: vec![op("a", None)],
            barrier: false,
        };
        assert!(lower_wave(&wave)
            .iter()
            .all(|s| !matches!(s, Step::SetPerDevice(a, _) if a == attrs::DEVICE_STATUS)));
    }

    #[test]
    fn device_status_is_never_written_mid_wave() {
        let mut o = op("a", Some("fw-2"));
        o.sets
            .push((attrs::DEVICE_STATUS.into(), attrs::STATUS_DRAINED.into()));
        let wave = Wave {
            ops: vec![o, op("b", Some("fw-2"))],
            barrier: true,
        };
        let steps = lower_wave(&wave);
        let (last, before) = steps.split_last().unwrap();
        assert!(before
            .iter()
            .all(|s| !matches!(s, Step::SetPerDevice(a, _) if a == attrs::DEVICE_STATUS)));
        // The explicit target where the op sets one, `ACTIVE` otherwise.
        let targets = BTreeMap::from([
            ("a".to_string(), AttrValue::from(attrs::STATUS_DRAINED)),
            ("b".to_string(), AttrValue::from(attrs::STATUS_ACTIVE)),
        ]);
        assert_eq!(
            last,
            &Step::SetPerDevice(attrs::DEVICE_STATUS.into(), targets)
        );
    }
}
