//! Pins the cost model of the compile kernel: subset construction takes one
//! move + ε-closure step per (subset, symbol class), not per (subset,
//! symbol), and a name set is built with no subset construction at all.
//!
//! This file must contain only this single test: the step counter is
//! process-global, and any concurrently running test that compiles a
//! pattern would perturb the exact deltas asserted here.

use occam_regex::{parse, subset_steps, Dfa, Nfa, Pattern, NSYM};

#[test]
fn compile_steps_once_per_symbol_class() {
    // The literal characters of the scope plus "everything else".
    let src = r"dc05\.pod37\..*";
    let classes = 10;

    let nfa = Nfa::from_ast(&parse(src).unwrap());
    let before = subset_steps();
    let subsets = Dfa::from_nfa(&nfa).num_states() as u64;
    let steps = subset_steps() - before;
    assert!(steps > 0);
    assert!(
        steps <= subsets * classes,
        "{steps} steps, {subsets} subsets"
    );
    assert!(steps < subsets * NSYM as u64);

    // The whole pipeline adds nothing to that: minimization takes no steps.
    let before = subset_steps();
    let p = Pattern::new(src).unwrap();
    assert_eq!(subset_steps() - before, steps);
    assert!(p.matches("dc05.pod37.sw3") && !p.matches("dc05.pod38.sw3"));

    let names: Vec<String> = (0..128)
        .map(|i| {
            let role = if i % 2 == 0 { "tor" } else { "agg" };
            format!("dc01.pod{:02}.{role}{:02}", i / 8, i % 8)
        })
        .collect();
    let before = subset_steps();
    let region = Pattern::from_names(&names).unwrap();
    assert_eq!(subset_steps() - before, 0, "name sets skip the NFA");
    assert_eq!(region.count(1000), Some(128));
}
