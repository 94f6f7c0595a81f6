//! Property tests for the spec compiler (DESIGN.md §17).
//!
//! Three properties over the full space of valid-by-construction specs:
//!
//! - **Abort-prefix grammar conformance** — every compiled program's
//!   execution log, aborted after any step (including with the failing
//!   entry recorded, the shape `into_report` hands to the rollback
//!   planner), parses under the Table 1 grammar. This is the theorem the
//!   static validator proves by enumeration; the property test exercises
//!   it across the whole shape space rather than the handful of unit
//!   fixtures.
//! - **Parser round trip** — rendering a spec back to the text syntax
//!   and re-parsing it reproduces the same AST.
//! - **Determinism** — compilation is a pure function of the spec.

use occam_core::steps::check_abort_prefixes;
use occam_netdb::AttrValue;
use occam_spec::{compile, parse_spec, validate, Spec, Strategy, Terminal, TestKind};
use proptest::prelude::*;

/// Decodes a valid-by-construction spec from random bits: every shape
/// the generator emits satisfies the semantic rules, so `validate` must
/// accept it and the conformance property runs on the full space of
/// lowerings (work-item combinations × terminal states × strategies).
fn spec_for(bits: u32) -> Spec {
    let mut spec = Spec::new("p", "dc01.pod0[0-3].*");
    if bits & 1 != 0 {
        spec.firmware = Some("fw-2.0.0".into());
    }
    if bits & 2 != 0 {
        spec.config = Some("g7".into());
    }
    if bits & 4 != 0 {
        spec.sets.push(("MTU".into(), AttrValue::Int(9000)));
    }
    match (bits >> 3) & 3 {
        1 => spec.tests = vec![TestKind::Optic],
        2 => spec.tests = vec![TestKind::Ping],
        3 => spec.tests = vec![TestKind::Optic, TestKind::Ping],
        _ => {}
    }
    spec.terminal = match (bits >> 5) & 3 {
        1 => Some(Terminal::Active),
        2 => Some(Terminal::UnderMaintenance),
        3 => Some(Terminal::Drained),
        _ => None,
    };
    if spec.terminal.is_none() && !spec.pushes() && spec.sets.is_empty() && spec.tests.is_empty() {
        // `validate` rejects no-op specs; give the empty shape some work.
        spec.terminal = Some(Terminal::Active);
    }
    let waves_ok = spec.pushes()
        && spec.tests.is_empty()
        && spec.sets.is_empty()
        && matches!(spec.terminal, None | Some(Terminal::Active));
    if bits & 0x100 != 0 && waves_ok {
        spec.strategy = Strategy::Waves;
        if bits & 0x200 != 0 {
            spec.waypoint = Some("dc01.pod00.agg*".into());
        }
    }
    spec
}

/// Renders a spec back to the text syntax (the inverse of `parse_spec`
/// for the shapes the generator emits).
fn render(spec: &Spec) -> String {
    let mut out = format!("spec {} {{\n scope {}\n", spec.name, spec.scope);
    if spec.strategy == Strategy::Waves {
        out.push_str(" strategy waves\n");
    }
    if let Some(v) = &spec.firmware {
        out.push_str(&format!(" target firmware {v}\n"));
    }
    if let Some(g) = &spec.config {
        out.push_str(&format!(" target config {g}\n"));
    }
    for (attr, value) in &spec.sets {
        match value {
            AttrValue::Int(n) => out.push_str(&format!(" set {attr} = {n}\n")),
            AttrValue::Bool(b) => out.push_str(&format!(" set {attr} = {b}\n")),
            AttrValue::Str(s) => out.push_str(&format!(" set {attr} = \"{s}\"\n")),
        }
    }
    for test in &spec.tests {
        let kind = match test {
            TestKind::Optic => "optic",
            TestKind::Ping => "ping",
        };
        out.push_str(&format!(" test {kind}\n"));
    }
    if let Some(terminal) = spec.terminal {
        let status = match terminal {
            Terminal::Active => "active",
            Terminal::UnderMaintenance => "under_maintenance",
            Terminal::Drained => "drained",
        };
        out.push_str(&format!(" ensure status {status}\n"));
    }
    if let Some(waypoint) = &spec.waypoint {
        out.push_str(&format!(" require waypoint {waypoint}\n"));
    }
    out.push_str("}\n");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A compiled program aborted after any step — including with the
    /// failing entry itself recorded — leaves an execution log the
    /// rollback grammar parses, so a mechanical rollback plan always
    /// exists.
    #[test]
    fn every_compiled_lowering_has_parseable_abort_prefixes(bits in any::<u32>()) {
        let spec = spec_for(bits);
        let steps = validate(&spec).expect("generator emits only valid specs");
        let proof = check_abort_prefixes(&steps);
        prop_assert!(proof.is_ok(), "{proof:?} in {steps:?}");
    }

    /// Rendering a spec to the text syntax and parsing it back
    /// reproduces the same AST.
    #[test]
    fn parser_round_trips_rendered_specs(bits in any::<u32>()) {
        let spec = spec_for(bits);
        let parsed = parse_spec(&render(&spec)).expect("rendered spec must parse");
        prop_assert_eq!(parsed, spec);
    }

    /// Compilation is a pure function of the spec: same input, same
    /// lowered steps — and the lowering the compiler embeds is exactly
    /// what the validator returned.
    #[test]
    fn compilation_is_deterministic(bits in any::<u32>()) {
        let spec = spec_for(bits);
        let once = compile(spec.clone()).expect("valid spec compiles");
        let again = compile(spec.clone()).expect("valid spec compiles");
        prop_assert_eq!(once.steps(), again.steps());
        prop_assert_eq!(once.steps(), validate(&spec).unwrap().as_slice());
    }
}
