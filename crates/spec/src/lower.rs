//! Lowering: from a desired-state [`Spec`] to a [`Step`] sequence.
//!
//! The lowered sequence is the single source of truth for what a
//! direct-strategy apply spec executes ([`crate::compile()`] runs it step
//! by step) and for what the validator proves about it
//! ([`crate::validate()`] hands it to
//! [`occam_core::steps::check_abort_prefixes`]). The ordering rules that
//! make every abort prefix parse are stated once, in
//! [`occam_core::steps`]; what is spec-specific is which declarations
//! open a drain window ([`needs_offline`]) and where the terminal status
//! lands.

use crate::ast::{Mode, Spec, Terminal};
use occam_core::steps::Step;
use occam_netdb::attrs;

/// True when the spec's realization needs a maintenance (drain) window:
/// firmware flashes, device tests, and any declared terminal state all
/// require one. A bare config/attr push does not.
pub fn needs_offline(spec: &Spec) -> bool {
    spec.firmware.is_some() || !spec.tests.is_empty() || spec.terminal.is_some()
}

/// Lowers a direct-strategy apply spec into its step sequence.
/// Audit-mode specs lower to nothing (they execute through the view
/// cache instead).
pub fn lower(spec: &Spec) -> Vec<Step> {
    use Step as S;
    let status = |value: &str| S::Set(attrs::DEVICE_STATUS.into(), value.into());
    let mut steps = Vec::new();
    if matches!(spec.mode, Mode::Audit { .. }) {
        return steps;
    }
    let pushes = spec.pushes();
    let offline = needs_offline(spec);
    let terminal = if offline {
        Some(spec.terminal.unwrap_or(Terminal::Active))
    } else {
        None
    };

    if offline {
        steps.push(S::Apply("f_drain"));
    }
    if pushes {
        // The pushed db_list. Inside a drain window it leads with the
        // maintenance status so a crash-revert restores status together
        // with the config attributes.
        if offline {
            steps.push(status(attrs::STATUS_UNDER_MAINTENANCE));
        }
        if let Some(generation) = &spec.config {
            steps.push(S::Set(
                attrs::CONFIG_VERSION.into(),
                generation.as_str().into(),
            ));
        }
        if let Some(version) = &spec.firmware {
            steps.push(S::Set(
                attrs::FIRMWARE_VERSION.into(),
                version.as_str().into(),
            ));
            steps.push(S::Set(
                attrs::FIRMWARE_BINARY.into(),
                format!("img-{version}").as_str().into(),
            ));
        }
        for (attr, value) in &spec.sets {
            steps.push(S::Set(attr.clone(), value.clone()));
        }
        if spec.config.is_some() {
            steps.push(S::Apply("f_create_config"));
        }
        steps.push(S::CheckCancelled);
        steps.push(S::Push {
            firmware: spec.firmware.clone(),
            drained: offline,
        });
        steps.push(S::CheckCancelled);
    }
    if !spec.tests.is_empty() {
        steps.push(S::Apply("f_alloc_ip"));
        for kind in &spec.tests {
            steps.push(S::Apply(kind.func()));
        }
        steps.push(S::Apply("f_dealloc_ip"));
        steps.push(S::CheckCancelled);
    }
    // The closing segment: plain (non-pushed) attribute writes and the
    // terminal status land as the trailing db_list, after the window is
    // resolved. A crash here is a legal trailing broken cfg_change.
    let trailing_sets = |steps: &mut Vec<S>| {
        if !pushes {
            for (attr, value) in &spec.sets {
                steps.push(S::Set(attr.clone(), value.clone()));
            }
        }
    };
    match terminal {
        Some(Terminal::Active) => {
            steps.push(S::Apply("f_undrain"));
            trailing_sets(&mut steps);
            steps.push(status(attrs::STATUS_ACTIVE));
        }
        Some(Terminal::UnderMaintenance) => {
            // With a push, the status already leads the pushed db_list.
            trailing_sets(&mut steps);
            if !pushes {
                steps.push(status(attrs::STATUS_UNDER_MAINTENANCE));
            }
        }
        Some(Terminal::Drained) => {
            trailing_sets(&mut steps);
            steps.push(status(attrs::STATUS_DRAINED));
        }
        None => trailing_sets(&mut steps),
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Strategy, TestKind};
    use occam_netdb::AttrValue;
    use occam_rollback::OpType;

    fn typed(steps: &[Step]) -> Vec<OpType> {
        steps
            .iter()
            .filter_map(|s| s.log_entry().map(|e| e.typ))
            .collect()
    }

    #[test]
    fn drain_spec_lowers_to_unterminated_offline() {
        let mut spec = Spec::new("drain", "dc01.*");
        spec.terminal = Some(Terminal::UnderMaintenance);
        assert_eq!(typed(&lower(&spec)), vec![OpType::Drain, OpType::DbChange]);
    }

    #[test]
    fn undrain_spec_lowers_to_empty_offline_block() {
        let mut spec = Spec::new("undrain", "dc01.*");
        spec.terminal = Some(Terminal::Active);
        // Never a bare UNDRAIN: the program opens its own drain window.
        assert_eq!(
            typed(&lower(&spec)),
            vec![OpType::Drain, OpType::Undrain, OpType::DbChange]
        );
    }

    #[test]
    fn maintenance_spec_wraps_tests_in_a_testing_block() {
        let mut spec = Spec::new("maint", "dc01.*");
        spec.terminal = Some(Terminal::Active);
        spec.tests = vec![TestKind::Optic];
        assert_eq!(
            typed(&lower(&spec)),
            vec![
                OpType::Drain,
                OpType::Prepare,
                OpType::Test,
                OpType::Unprepare,
                OpType::Undrain,
                OpType::DbChange,
            ]
        );
    }

    #[test]
    fn firmware_spec_pushes_inside_the_drain_window() {
        let mut spec = Spec::new("fw", "dc01.*");
        spec.firmware = Some("fw-2.0.0".into());
        spec.terminal = Some(Terminal::Active);
        let steps = lower(&spec);
        assert_eq!(
            typed(&steps),
            vec![
                OpType::Drain,
                OpType::DbChange, // DEVICE_STATUS = UNDER_MAINTENANCE
                OpType::DbChange, // FIRMWARE_VERSION
                OpType::DbChange, // FIRMWARE_BINARY
                OpType::PushCfg,
                OpType::Undrain,
                OpType::DbChange, // DEVICE_STATUS = ACTIVE
            ]
        );
        assert!(steps.iter().any(|s| matches!(
            s,
            Step::Push {
                firmware: Some(v),
                drained: true
            } if v == "fw-2.0.0"
        )));
    }

    #[test]
    fn config_only_spec_needs_no_drain() {
        let mut spec = Spec::new("cfg", "dc01.*");
        spec.config = Some("g9".into());
        let steps = lower(&spec);
        assert_eq!(typed(&steps), vec![OpType::DbChange, OpType::PushCfg]);
        assert!(steps.contains(&Step::Apply("f_create_config")));
        assert!(steps.iter().any(|s| matches!(
            s,
            Step::Push {
                firmware: None,
                drained: false
            }
        )));
    }

    #[test]
    fn plain_sets_trail_without_a_push() {
        let mut spec = Spec::new("sets", "dc01.*");
        spec.sets = vec![("MTU".into(), AttrValue::Int(9000))];
        assert_eq!(typed(&lower(&spec)), vec![OpType::DbChange]);
    }

    #[test]
    fn audit_specs_lower_to_nothing() {
        let mut spec = Spec::new("audit", "dc01.*");
        spec.mode = Mode::Audit { strict: false };
        spec.strategy = Strategy::Direct;
        assert!(lower(&spec).is_empty());
    }
}
