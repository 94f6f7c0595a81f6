//! Static validation: semantic rules plus a mechanical proof that the
//! spec's lowering is rollback-safe.
//!
//! The mechanical half is the interesting one. Rather than trusting the
//! lowering rules by construction, the validator hands the lowered step
//! sequence to [`check_abort_prefixes`], which runs *every abort prefix*
//! through the actual Table 1 parser. A spec is accepted only if a crash
//! after any step leaves an execution log the rollback planner can parse
//! and therefore revert. This is the property the old hand-built catalog
//! workflows silently violated (status writes before `DRAIN`, bare
//! `TEST` outside a testing block): their abort logs were unparseable
//! exactly in the windows chaos testing is designed to hit.
//!
//! Wave-strategy specs have no program of their own to prove: each wave
//! the synthesizer plans is lowered and proved by the `occam-update`
//! executor right before it runs.

use crate::ast::{Mode, Spec, SpecError, Strategy};
use crate::lower::lower;
use occam_core::steps::{check_abort_prefixes, Step};
use occam_netdb::attrs;

/// Attributes a spec's `set` statements may not name: admin status is
/// owned by `ensure status`, and the pushed configuration attributes are
/// owned by `target firmware` / `target config` (writing them without
/// the matching push would desynchronize devices from the database).
const RESERVED_ATTRS: &[&str] = &[
    attrs::DEVICE_STATUS,
    attrs::FIRMWARE_VERSION,
    attrs::FIRMWARE_BINARY,
    attrs::CONFIG_VERSION,
];

/// Validates a spec: semantic rules, then grammar conformance of the
/// lowering. Returns the proved steps — the program a direct-strategy
/// spec executes; empty for audits and wave-strategy specs.
pub fn validate(spec: &Spec) -> Result<Vec<Step>, SpecError> {
    semantic(spec)?;
    if spec.strategy == Strategy::Waves {
        return Ok(Vec::new());
    }
    let steps = lower(spec);
    check_abort_prefixes(&steps)
        .map_err(|e| SpecError::general(format!("lowering is not rollback-safe: {e}")))?;
    Ok(steps)
}

/// Checks a glob's *syntax*. Automaton construction is total once the
/// parse succeeds, so nothing is compiled here: the task's one scope
/// compile happens at admission, through the runtime's pattern cache.
fn check_glob(what: &str, glob: &str) -> Result<(), SpecError> {
    occam_regex::parse(&occam_regex::glob_to_regex(glob))
        .map(drop)
        .map_err(|e| SpecError::general(format!("bad {what} glob `{glob}`: {e}")))
}

fn semantic(spec: &Spec) -> Result<(), SpecError> {
    if spec.scope.is_empty() {
        return Err(SpecError::general("spec declares no `scope`"));
    }
    check_glob("scope", &spec.scope)?;
    if let Some(glob) = &spec.waypoint {
        check_glob("waypoint", glob)?;
    }

    match spec.mode {
        Mode::Audit { .. } => {
            if spec.expects.is_empty() {
                return Err(SpecError::general(
                    "audit spec declares no `expect` assertions",
                ));
            }
            if spec.pushes()
                || !spec.sets.is_empty()
                || !spec.tests.is_empty()
                || spec.terminal.is_some()
                || spec.waypoint.is_some()
            {
                return Err(SpecError::general(
                    "audit specs are read-only: targets, sets, tests, `ensure status`, \
                     and waypoints are not allowed",
                ));
            }
            if spec.strategy != Strategy::Direct {
                return Err(SpecError::general(
                    "audit specs use strategy `direct` (they run against one snapshot)",
                ));
            }
        }
        Mode::Apply => {
            if !spec.expects.is_empty() {
                return Err(SpecError::general(
                    "`expect` assertions require `audit` mode",
                ));
            }
            if !spec.pushes()
                && spec.sets.is_empty()
                && spec.tests.is_empty()
                && spec.terminal.is_none()
            {
                return Err(SpecError::general(
                    "spec declares no work: no targets, sets, tests, or `ensure status`",
                ));
            }
        }
    }

    for (attr, _) in &spec.sets {
        if RESERVED_ATTRS.contains(&attr.as_str()) {
            return Err(SpecError::general(format!(
                "`set {attr}` is reserved: use `ensure status` / `target firmware` / \
                 `target config` so the compiler can order it safely"
            )));
        }
    }

    if spec.waypoint.is_some() && spec.strategy != Strategy::Waves {
        return Err(SpecError::general(
            "`require waypoint` needs strategy `waves` (the wave synthesizer is what \
             model-checks the invariant)",
        ));
    }
    if spec.strategy == Strategy::Waves {
        if !spec.tests.is_empty() {
            return Err(SpecError::general(
                "wave-strategy specs cannot run tests (tests need a held region)",
            ));
        }
        if !matches!(spec.terminal, None | Some(crate::ast::Terminal::Active)) {
            return Err(SpecError::general(
                "wave-strategy specs always return devices to active service",
            ));
        }
        if !spec.pushes() {
            return Err(SpecError::general(
                "wave-strategy specs need `target firmware` or `target config` \
                 (plain sets have no wave semantics)",
            ));
        }
        if !spec.sets.is_empty() {
            return Err(SpecError::general(
                "wave-strategy specs cannot carry plain `set`s: the diff engine \
                 only tracks pushed configuration attributes",
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Terminal, TestKind};
    use occam_netdb::{Assertion, AttrValue};

    fn ok(spec: &Spec) {
        validate(spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    }

    fn rejected(spec: &Spec, needle: &str) {
        let err = validate(spec).expect_err(&spec.name.clone());
        assert!(err.msg.contains(needle), "{}: {err}", spec.name);
    }

    #[test]
    fn accepts_the_standard_workflow_shapes() {
        let mut drain = Spec::new("drain", "dc01.*");
        drain.terminal = Some(Terminal::UnderMaintenance);
        ok(&drain);

        let mut undrain = Spec::new("undrain", "dc01.*");
        undrain.terminal = Some(Terminal::Active);
        ok(&undrain);

        let mut maint = Spec::new("maint", "dc01.*");
        maint.terminal = Some(Terminal::Active);
        maint.tests = vec![TestKind::Optic, TestKind::Ping];
        ok(&maint);

        let mut fw = Spec::new("fw", "dc01.*");
        fw.firmware = Some("fw-2.0.0".into());
        fw.config = Some("g3".into());
        fw.terminal = Some(Terminal::Active);
        fw.sets = vec![("MTU".into(), AttrValue::Int(9000))];
        ok(&fw);

        let mut audit = Spec::new("audit", "dc01.*");
        audit.mode = Mode::Audit { strict: true };
        audit.expects = vec![Assertion::new(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE)];
        ok(&audit);

        let mut waves = Spec::new("waves", "dc01.*");
        waves.strategy = Strategy::Waves;
        waves.config = Some("g4".into());
        waves.waypoint = Some("dc01.pod00.agg00".into());
        ok(&waves);
    }

    #[test]
    fn rejects_semantic_violations() {
        let mut empty = Spec::new("empty", "dc01.*");
        rejected(&empty, "declares no work");
        empty.scope.clear();
        rejected(&empty, "no `scope`");

        let mut reserved = Spec::new("reserved", "dc01.*");
        reserved.sets = vec![(attrs::DEVICE_STATUS.into(), "ACTIVE".into())];
        rejected(&reserved, "reserved");

        let mut audit = Spec::new("audit", "dc01.*");
        audit.mode = Mode::Audit { strict: false };
        rejected(&audit, "no `expect`");
        audit.expects = vec![Assertion::new("A", 1i64)];
        audit.firmware = Some("fw".into());
        rejected(&audit, "read-only");

        let mut expects = Spec::new("expects", "dc01.*");
        expects.terminal = Some(Terminal::Active);
        expects.expects = vec![Assertion::new("A", 1i64)];
        rejected(&expects, "require `audit`");

        let mut waypoint = Spec::new("wp", "dc01.*");
        waypoint.config = Some("g".into());
        waypoint.waypoint = Some("dc01.*".into());
        rejected(&waypoint, "strategy `waves`");

        let mut waves = Spec::new("waves", "dc01.*");
        waves.strategy = Strategy::Waves;
        waves.config = Some("g".into());
        waves.tests = vec![TestKind::Ping];
        rejected(&waves, "cannot run tests");
        waves.tests.clear();
        waves.terminal = Some(Terminal::Drained);
        rejected(&waves, "active service");
        waves.terminal = None;
        waves.config = None;
        waves.sets = vec![("MTU".into(), AttrValue::Int(1500))];
        rejected(&waves, "target firmware");

        let mut waves_with_bad_waypoint = Spec::new("bad_wp", "dc01.*");
        waves_with_bad_waypoint.strategy = Strategy::Waves;
        waves_with_bad_waypoint.config = Some("g".into());
        waves_with_bad_waypoint.waypoint = Some("dc01.pod0[0".into());
        rejected(&waves_with_bad_waypoint, "waypoint");
    }

    #[test]
    fn conformance_rejects_the_legacy_broken_shapes() {
        let status = Step::Set(attrs::DEVICE_STATUS.into(), "UNDER_MAINTENANCE".into());
        // Status write BEFORE the drain (old `drain` workflow): the
        // abort prefix [DB_CHANGE, DRAIN] is a mid-log broken db_list.
        assert!(check_abort_prefixes(&[status, Step::Apply("f_drain")]).is_err());

        // Bare test outside a testing block (old `device_maintenance`).
        let legacy_test = [Step::Apply("f_drain"), Step::Apply("f_optic_test")];
        assert!(check_abort_prefixes(&legacy_test).is_err());

        // And the validator-facing form of the same property: any spec
        // the validator accepts has no such prefix, by enumeration.
        let mut maint = Spec::new("maint", "dc01.*");
        maint.terminal = Some(Terminal::Active);
        maint.tests = vec![TestKind::Optic];
        let steps = validate(&maint).unwrap();
        assert!(!steps.is_empty());
        check_abort_prefixes(&steps).unwrap();
    }
}
