//! The rollback-safe program shape: one typed step IR, one interpreter,
//! one abort-prefix proof.
//!
//! Every compiled management program — a lowered `occam-spec` workflow,
//! a synthesized `occam-update` wave — is a `Vec<Step>`. What the proof
//! checks ([`check_abort_prefixes`]) and what executes ([`Step::run`])
//! are the same sequence, and a step's Table 2 type is derived from what
//! the runtime will log for it ([`Step::log_entry`]), so the proof and
//! the execution log cannot disagree.
//!
//! The ordering rules that make every abort prefix parse under Table 1:
//!
//! - A run of database writes is always either immediately followed by a
//!   `PUSH_CFG`, or is the final trailing segment of the program (a
//!   crash inside either shape is a legal broken `cfg_change`). In
//!   particular the maintenance-status write happens *inside* the drain
//!   window as the first entry of the pushed `db_list` — never before
//!   `DRAIN`, which is the exact mid-log-`db_list` parse error the old
//!   hand-built workflows shipped with.
//! - Every `UNDRAIN` closes a `DRAIN` opened by the same program. A
//!   program that only re-activates a region is `DRAIN UNDRAIN` (an
//!   empty offline block) rather than a bare, unparseable `UNDRAIN`.
//! - Tests always run inside a full `PREPARE TEST* UNPREPARE` testing
//!   block, inside the drain window.

use crate::{Network, TaskCtx, TaskResult};
use occam_emunet::FuncArgs;
use occam_netdb::AttrValue;
use occam_rollback::{func_optype, parse_log, LogEntry, OpStatus, OpType};
use std::collections::BTreeMap;

/// The device function [`Step::Push`] applies.
const PUSH: &str = "f_push";

/// One typed step of a compiled management program.
#[derive(Clone, PartialEq, Debug)]
pub enum Step {
    /// `apply(func)` — a device function without arguments (`f_drain`,
    /// `f_undrain`, `f_alloc_ip`, a test, …). Functions outside Table 2
    /// (`f_create_config`) are untyped: not part of the parsed log.
    Apply(&'static str),
    /// `apply(f_push)` — push configuration, optionally carrying a
    /// firmware image.
    Push {
        /// Firmware version to flash along with the push.
        firmware: Option<String>,
        /// True when the push happens inside a drain window.
        drained: bool,
    },
    /// `set(attr, value)` on every device of the region.
    Set(String, AttrValue),
    /// `set(attr, {device: value})` — the dictionary-valued write.
    SetPerDevice(String, BTreeMap<String, AttrValue>),
    /// Cooperative cancellation checkpoint (no log entry).
    CheckCancelled,
}

impl Step {
    /// Executes this step against `region`.
    pub fn run(&self, region: &Network, ctx: &TaskCtx) -> TaskResult<()> {
        match self {
            Step::Apply(func) => region.apply(func).map(drop),
            Step::Push { firmware, drained } => {
                // `admin` always explicit: a push unaware of the drain it
                // runs inside would overwrite the admin state back to
                // active (case study #1).
                let mut args = FuncArgs::one("admin", if *drained { "drained" } else { "active" });
                if let Some(version) = firmware {
                    args = args.with("firmware", version);
                }
                region.apply_with(PUSH, &args).map(drop)
            }
            Step::Set(attr, value) => region.set(attr, value.clone()).map(drop),
            Step::SetPerDevice(attr, values) => region.set_per_device(values, attr),
            Step::CheckCancelled => ctx.check_cancelled(),
        }
    }

    /// The execution-log entry the runtime writes when this step
    /// succeeds, or `None` for steps outside the typed subset.
    pub fn log_entry(&self) -> Option<LogEntry> {
        let (typ, label) = match self {
            Step::Apply(func) => (func_optype(func)?, format!("apply({func})")),
            Step::Push { .. } => (func_optype(PUSH)?, format!("apply({PUSH})")),
            Step::Set(attr, _) | Step::SetPerDevice(attr, _) => {
                (OpType::DbChange, format!("set({attr})"))
            }
            Step::CheckCancelled => return None,
        };
        Some(LogEntry::ok(typ, label))
    }
}

/// Proves a program rollback-safe: a crash after any step — including
/// after zero steps and after the final one — leaves an execution log the
/// Table 1 parser accepts, both as the bare prefix and with its last
/// entry marked failed (the shape `TaskCtx::into_report` hands the
/// rollback planner), so a rollback plan always exists.
pub fn check_abort_prefixes(steps: &[Step]) -> Result<(), String> {
    let mut log: Vec<LogEntry> = steps.iter().filter_map(Step::log_entry).collect();
    for cut in 0..=log.len() {
        let mut parsed = parse_log(&log[..cut]).map(drop);
        if let Some(last) = cut.checked_sub(1) {
            log[last].status = OpStatus::Failed;
            parsed = parsed.and(parse_log(&log[..cut]).map(drop));
            log[last].status = OpStatus::Ok;
        }
        if let Err(e) = parsed {
            return Err(format!(
                "abort after step {cut} leaves an unparseable log ({e})"
            ));
        }
    }
    Ok(())
}
