//! Property-based tests for the regex algebra.
//!
//! These laws are what the object tree (occam-objtree) relies on: the
//! region operations must form a boolean algebra whose results round-trip
//! through regex syntax.

use occam_regex::{dfa_to_regex, parse, Dfa, Nfa, Pattern, Relation};
use proptest::prelude::*;

/// A generator of random ASTs in *source* form, so every case also
/// exercises the parser.
fn arb_regex() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        4 => prop::sample::select(vec![
            "a", "b", "c", "0", "1", r"\.", "[ab]", "[a-c]", "[^a]", ".", "x", "pod",
        ])
        .prop_map(str::to_string),
        1 => Just("()".to_string()),
        1 => Just("[]".to_string()),
    ];
    atom.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a})({b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a})|({b})")),
            inner.clone().prop_map(|a| format!("({a})*")),
            inner.clone().prop_map(|a| format!("({a})?")),
            inner.prop_map(|a| format!("({a}){{0,2}}")),
        ]
    })
}

/// Random pod-range scopes like the object tree sees: contiguous pod
/// intervals inside one of two datacenters, optionally narrowed to a rack
/// interval. Pairs drawn from this family hit every [`Relation`] variant.
fn arb_pod_range() -> impl Strategy<Value = String> {
    (
        0u8..2,
        0u8..6,
        0u8..6,
        prop_oneof![2 => Just(None), 1 => (0u8..4, 0u8..4).prop_map(Some)],
    )
        .prop_map(|(dc, p1, p2, rack)| {
            let (plo, phi) = (p1.min(p2), p1.max(p2));
            let dc = dc + 1;
            match rack {
                None => format!(r"dc{dc}\.pod[{plo}-{phi}]\..*"),
                Some((r1, r2)) => {
                    let (rlo, rhi) = (r1.min(r2), r1.max(r2));
                    format!(r"dc{dc}\.pod[{plo}-{phi}]\.rack[{rlo}-{rhi}]\..*")
                }
            }
        })
}

/// Random device-name-like inputs to probe language membership.
fn arb_input() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop::sample::select(vec!['a', 'b', 'c', 'x', '0', '1', '.', 'p', 'o', 'd']),
        0..8,
    )
    .prop_map(|v| v.into_iter().collect())
}

/// Device-name-like strings from a small space, so that a set of them has
/// shared prefixes and suffixes, duplicates, and names that prefix others.
fn arb_device_name() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec!["", "dc01.", "dc02."]),
        prop::sample::select(vec!["pod", "p-"]),
        0u8..12,
        prop::sample::select(vec!["", ".tor", ".agg"]),
        0u8..4,
    )
        .prop_map(|(dc, pod, p, role, r)| match role {
            "" => format!("{dc}{pod}{p}"),
            _ => format!("{dc}{pod}{p}{role}{r}"),
        })
}

fn compile(src: &str) -> Dfa {
    Dfa::from_ast(&parse(src).expect("generator produces valid regexes"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Display/parse round trip preserves the language.
    #[test]
    fn display_round_trip(src in arb_regex()) {
        let ast = parse(&src).unwrap();
        let printed = ast.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("re-parse of {printed:?} failed: {e}"));
        let d1 = Dfa::from_ast(&ast);
        let d2 = Dfa::from_ast(&reparsed);
        prop_assert!(d1.equivalent(&d2), "{src:?} -> {printed:?} changed language");
    }

    /// DFA -> regex -> DFA preserves the language.
    #[test]
    fn dfa_to_regex_round_trip(src in arb_regex()) {
        let d = compile(&src);
        let back = dfa_to_regex(&d);
        let d2 = compile(&back);
        prop_assert!(d.equivalent(&d2), "{src:?} -> {back:?} changed language");
    }

    /// Intersection commutes and is correct pointwise.
    #[test]
    fn intersection_commutes(a in arb_regex(), b in arb_regex(), input in arb_input()) {
        let da = compile(&a);
        let db = compile(&b);
        let ab = da.intersect(&db);
        let ba = db.intersect(&da);
        prop_assert!(ab.equivalent(&ba));
        prop_assert_eq!(ab.matches(&input), da.matches(&input) && db.matches(&input));
    }

    /// Union is correct pointwise and contains both operands.
    #[test]
    fn union_pointwise(a in arb_regex(), b in arb_regex(), input in arb_input()) {
        let da = compile(&a);
        let db = compile(&b);
        let u = da.union(&db);
        prop_assert_eq!(u.matches(&input), da.matches(&input) || db.matches(&input));
        prop_assert!(u.contains_lang(&da));
        prop_assert!(u.contains_lang(&db));
    }

    /// Difference is disjoint from the subtrahend and restores under union.
    #[test]
    fn difference_laws(a in arb_regex(), b in arb_regex()) {
        let da = compile(&a);
        let db = compile(&b);
        let diff = da.difference(&db);
        prop_assert!(!diff.overlaps(&db));
        let restored = diff.union(&da.intersect(&db));
        prop_assert!(restored.equivalent(&da));
    }

    /// Containment is a partial order consistent with membership.
    #[test]
    fn containment_consistent(a in arb_regex(), b in arb_regex(), input in arb_input()) {
        let da = compile(&a);
        let db = compile(&b);
        prop_assert!(da.contains_lang(&da));
        if da.contains_lang(&db) && db.matches(&input) {
            prop_assert!(da.matches(&input));
        }
        if da.contains_lang(&db) && db.contains_lang(&da) {
            prop_assert!(da.equivalent(&db));
        }
    }

    /// The compiled DFA and the ε-NFA it was built from agree on membership.
    #[test]
    fn dfa_agrees_with_nfa_simulation(src in arb_regex(), input in arb_input()) {
        let nfa = Nfa::from_ast(&parse(&src).unwrap());
        let want = nfa.matches(&input);
        prop_assert_eq!(Dfa::from_nfa(&nfa).matches(&input), want, "{:?} on {:?}", src, input);
        prop_assert_eq!(compile(&src).matches(&input), want, "{:?} on {:?}", src, input);
    }

    /// Minimizing a minimal machine changes neither its size nor its
    /// fingerprint.
    #[test]
    fn minimize_is_idempotent(src in arb_regex()) {
        let raw = Dfa::from_nfa(&Nfa::from_ast(&parse(&src).unwrap()));
        let min = raw.minimize();
        let again = min.minimize();
        prop_assert_eq!(again.num_states(), min.num_states());
        prop_assert_eq!(again.canonical_hash(), min.canonical_hash());
        prop_assert_eq!(raw.canonical_hash(), min.canonical_hash());
    }

    /// Minimization never changes the language and never grows the machine.
    #[test]
    fn minimize_preserves_language(src in arb_regex(), input in arb_input()) {
        let ast = parse(&src).unwrap();
        let nfa = Nfa::from_ast(&ast);
        let raw = Dfa::from_nfa(&nfa);
        let min = raw.minimize();
        prop_assert_eq!(raw.matches(&input), min.matches(&input));
        prop_assert!(min.num_states() <= raw.num_states());
        prop_assert!(raw.equivalent(&min));
    }

    /// Complement is an involution and partitions membership.
    #[test]
    fn complement_involution(src in arb_regex(), input in arb_input()) {
        let d = compile(&src);
        let c = d.complement();
        prop_assert_eq!(d.matches(&input), !c.matches(&input));
        prop_assert!(c.complement().equivalent(&d));
    }

    /// Samples are members; count agrees with sampling for finite languages.
    #[test]
    fn samples_are_members(src in arb_regex()) {
        let d = compile(&src);
        let samples = d.sample(20);
        for s in &samples {
            prop_assert!(d.matches(s), "sample {s:?} of {src:?} not a member");
        }
        if let Some(n) = d.count_strings(20) {
            prop_assert_eq!(samples.len() as u64, n.min(20));
        }
    }

    /// The single-walk relation agrees with the four standalone predicates
    /// on randomized pod-range scopes, and fingerprint equality coincides
    /// with language equivalence.
    #[test]
    fn relate_agrees_with_four_predicates(a in arb_pod_range(), b in arb_pod_range()) {
        let pa = Pattern::new(&a).unwrap();
        let pb = Pattern::new(&b).unwrap();
        let (eq, a_in_b, b_in_a, over) = (
            pa.equivalent(&pb),
            pb.contains(&pa),
            pa.contains(&pb),
            pa.overlaps(&pb),
        );
        let want = if eq {
            Relation::Equal
        } else if a_in_b {
            Relation::ProperSubset
        } else if b_in_a {
            Relation::ProperSuperset
        } else if over {
            Relation::Overlap
        } else {
            Relation::Disjoint
        };
        let got = pa.relate(&pb);
        prop_assert_eq!(got, want, "{} vs {}", a, b);
        prop_assert_eq!(pb.relate(&pa), want.flip());
        prop_assert_eq!(pa.fingerprint() == pb.fingerprint(), eq, "{} vs {}", a, b);
    }

    /// Pattern::from_names matches exactly the listed names.
    #[test]
    fn from_names_exact(names in proptest::collection::vec("[a-c]{1,4}(\\.[a-c0-3]{1,3})?", 0..6)) {
        let p = Pattern::from_names(&names).unwrap();
        for n in &names {
            prop_assert!(p.matches(n));
        }
        prop_assert!(!p.matches("zzz.unrelated"));
        let unique: std::collections::HashSet<_> = names.iter().collect();
        prop_assert_eq!(p.count(1000), Some(unique.len() as u64));
    }

    /// The direct name-set construction yields the same canonical machine
    /// as compiling the escaped alternation: shared prefixes, duplicates
    /// and the empty set included.
    #[test]
    fn from_names_is_the_compiled_alternation(
        names in proptest::collection::vec(arb_device_name(), 0..64),
    ) {
        let direct = Pattern::from_names(&names).unwrap();
        let escaped: Vec<String> = names
            .iter()
            .map(|n| n.replace('.', r"\.").replace('-', r"\-"))
            .collect();
        let src = if names.is_empty() { "[]".to_string() } else { escaped.join("|") };
        let compiled = Pattern::new(&src).unwrap();
        prop_assert!(direct.equivalent(&compiled), "{:?}", names);
        prop_assert_eq!(direct.dfa().num_states(), compiled.dfa().num_states());
        prop_assert_eq!(direct.fingerprint(), compiled.fingerprint());
    }
}
