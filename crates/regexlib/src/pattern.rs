//! The high-level [`Pattern`] type: a regex scope paired with its compiled
//! DFA, supporting the language algebra the object tree needs.

use crate::dfa::{Dfa, Relation};
use crate::parser::{glob_to_regex, parse, ParseError};
use crate::toregex::dfa_to_regex;
use std::sync::{Arc, OnceLock};

/// A compiled network-region scope.
///
/// A `Pattern` is a *symbolic* representation of a set of device names: it
/// covers devices that exist now and devices that may be created later by an
/// ongoing task (paper §3.1). Equality, containment, and overlap are
/// language-level operations on the compiled DFA, never enumerations.
///
/// # Examples
///
/// ```
/// use occam_regex::Pattern;
/// let dc = Pattern::from_glob("dc1.*").unwrap();
/// let pod = Pattern::from_glob("dc1.pod3.*").unwrap();
/// assert!(dc.contains(&pod));
/// assert!(pod.matches("dc1.pod3.tor2"));
/// ```
#[derive(Clone)]
pub struct Pattern {
    src: String,
    inner: Arc<Inner>,
}

/// Shared compiled state: the DFA plus its lazily computed canonical
/// fingerprint. Clones of a `Pattern` (and everything handed out by the
/// [`crate::PatternCache`]) share one `Inner`, so the fingerprint is
/// computed at most once per distinct compilation.
struct Inner {
    dfa: Dfa,
    fp: OnceLock<u128>,
}

impl Inner {
    fn new(dfa: Dfa) -> Arc<Inner> {
        Arc::new(Inner {
            dfa,
            fp: OnceLock::new(),
        })
    }
}

impl Pattern {
    /// Compiles a regex into a pattern.
    pub fn new(regex: &str) -> Result<Pattern, ParseError> {
        let ast = parse(regex)?;
        Ok(Pattern {
            src: regex.to_string(),
            inner: Inner::new(Dfa::from_ast(&ast)),
        })
    }

    /// Compiles a glob-style scope (`dc1.pod3.*`) into a pattern.
    pub fn from_glob(glob: &str) -> Result<Pattern, ParseError> {
        Pattern::new(&glob_to_regex(glob))
    }

    /// Builds a pattern from an already-compiled DFA, deriving its regex
    /// source by state elimination.
    pub fn from_dfa(dfa: Dfa) -> Pattern {
        let src = dfa_to_regex(&dfa);
        Pattern {
            src,
            inner: Inner::new(dfa),
        }
    }

    /// Builds a pattern matching exactly the given device names.
    ///
    /// This is the `to_regex(dev_names)` helper from the paper's dynamic
    /// object creation example.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Result<Pattern, ParseError> {
        // A readable alternation as the source rather than the eliminated
        // form; `[]` is the dialect's spelling of the empty language.
        let mut src = String::new();
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                src.push('|');
            }
            for c in n.as_ref().chars() {
                if c == '.' || c == '-' {
                    src.push('\\');
                }
                src.push(c);
            }
        }
        if names.is_empty() {
            src.push_str("[]");
        }
        Ok(Pattern {
            src,
            inner: Inner::new(Dfa::from_names(names)),
        })
    }

    /// The universe pattern `.*` (the virtual root of the object tree).
    ///
    /// Compiled once per process; clones share the compiled DFA and its
    /// fingerprint.
    pub fn universe() -> Pattern {
        static UNIVERSE: OnceLock<Pattern> = OnceLock::new();
        UNIVERSE
            .get_or_init(|| Pattern::new(".*").expect("`.*` is a valid pattern"))
            .clone()
    }

    /// Whether this region is all of `Σ*`.
    ///
    /// Exact and product-free: the minimal complete DFA of the universe is
    /// the unique single accepting state, so it suffices to check that the
    /// complement has no reachable accepting state.
    pub fn is_universe(&self) -> bool {
        self.inner.dfa.complement().is_empty()
    }

    /// The regex source of this pattern.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The compiled DFA.
    pub fn dfa(&self) -> &Dfa {
        &self.inner.dfa
    }

    /// A stable 128-bit fingerprint of the *language* (not the source
    /// string): equivalent patterns fingerprint identically, regardless of
    /// how they were written or derived. Computed lazily from the canonical
    /// minimal DFA and memoized in the pattern's shared inner state, so
    /// clones and cache hits pay nothing.
    pub fn fingerprint(&self) -> u128 {
        *self
            .inner
            .fp
            .get_or_init(|| self.inner.dfa.canonical_hash())
    }

    /// Classifies this region against `other` in one synchronized product
    /// walk — see [`Dfa::relate_lang`]. Use this instead of chaining
    /// [`equivalent`](Self::equivalent) / [`contains`](Self::contains) /
    /// [`overlaps`](Self::overlaps) when more than one of them is needed.
    pub fn relate(&self, other: &Pattern) -> Relation {
        self.inner.dfa.relate_lang(&other.inner.dfa)
    }

    /// Tests whether a device name is in the region.
    pub fn matches(&self, name: &str) -> bool {
        self.inner.dfa.matches(name)
    }

    /// Returns true if the region denotes no device names.
    pub fn is_empty(&self) -> bool {
        self.inner.dfa.is_empty()
    }

    /// `L(other) ⊆ L(self)`.
    pub fn contains(&self, other: &Pattern) -> bool {
        self.inner.dfa.contains_lang(&other.inner.dfa)
    }

    /// `L(other) ⊂ L(self)` (strict containment).
    pub fn contains_strictly(&self, other: &Pattern) -> bool {
        self.contains(other) && !other.contains(self)
    }

    /// `L(self) ∩ L(other) ≠ ∅`.
    pub fn overlaps(&self, other: &Pattern) -> bool {
        self.inner.dfa.overlaps(&other.inner.dfa)
    }

    /// `L(self) = L(other)`.
    pub fn equivalent(&self, other: &Pattern) -> bool {
        self.inner.dfa.equivalent(&other.inner.dfa)
    }

    /// Region intersection; the result's source regex is derived.
    pub fn intersect(&self, other: &Pattern) -> Pattern {
        Pattern::from_dfa(self.inner.dfa.intersect(&other.inner.dfa))
    }

    /// Region difference `self ∖ other`; the result's source regex is
    /// derived.
    pub fn subtract(&self, other: &Pattern) -> Pattern {
        Pattern::from_dfa(self.inner.dfa.difference(&other.inner.dfa))
    }

    /// Region union; the result's source regex is derived.
    pub fn union(&self, other: &Pattern) -> Pattern {
        Pattern::from_dfa(self.inner.dfa.union(&other.inner.dfa))
    }

    /// The longest literal prefix shared by every name in the region
    /// (used to turn scoped database scans into range scans).
    pub fn literal_prefix(&self) -> String {
        self.inner.dfa.literal_prefix()
    }

    /// Up to `limit` example device names in the region, shortest first.
    pub fn sample(&self, limit: usize) -> Vec<String> {
        self.inner.dfa.sample(limit)
    }

    /// Number of device names in the region if finite and ≤ `cap`.
    pub fn count(&self, cap: u64) -> Option<u64> {
        self.inner.dfa.count_strings(cap)
    }
}

impl std::fmt::Debug for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pattern({})", self.src)
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.src)
    }
}

impl PartialEq for Pattern {
    /// Language equivalence, not source-string equality.
    fn eq(&self, other: &Self) -> bool {
        self.equivalent(other)
    }
}

impl Eq for Pattern {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_and_regex_agree() {
        let g = Pattern::from_glob("dc1.pod3.*").unwrap();
        let r = Pattern::new(r"dc1\.pod3\..*").unwrap();
        assert!(g.equivalent(&r));
        assert_eq!(g, r);
    }

    #[test]
    fn containment_partial_order() {
        let a = Pattern::from_glob("dc1.*").unwrap();
        let b = Pattern::from_glob("dc1.pod3.*").unwrap();
        let c = Pattern::from_glob("dc1.pod3.rack1.*").unwrap();
        assert!(a.contains(&b) && b.contains(&c) && a.contains(&c));
        assert!(a.contains_strictly(&b));
        assert!(!b.contains_strictly(&b));
    }

    #[test]
    fn subtract_then_union_restores() {
        let a = Pattern::new(r"dc1\.pod[0-4]\..*").unwrap();
        let b = Pattern::new(r"dc1\.pod3\..*").unwrap();
        let rest = a.subtract(&b);
        assert!(!rest.overlaps(&b));
        assert!(rest.union(&b).equivalent(&a));
    }

    #[test]
    fn from_names_matches_exactly() {
        let p = Pattern::from_names(&["dc1.pod1.tor1", "dc1.pod2.tor5"]).unwrap();
        assert!(p.matches("dc1.pod1.tor1"));
        assert!(p.matches("dc1.pod2.tor5"));
        assert!(!p.matches("dc1.pod1.tor2"));
        assert_eq!(p.count(100), Some(2));
        // The readable source must itself compile to the same language.
        let re = Pattern::new(p.source()).unwrap();
        assert!(re.equivalent(&p));
    }

    #[test]
    fn from_names_empty_is_empty_language() {
        let p = Pattern::from_names::<&str>(&[]).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn derived_pattern_source_reparses() {
        let a = Pattern::from_glob("dc1.pod1.*").unwrap();
        let b = Pattern::from_glob("dc1.*").unwrap();
        let i = b.intersect(&a);
        let re = Pattern::new(i.source()).unwrap();
        assert!(re.equivalent(&a));
    }

    #[test]
    fn universe_contains_everything() {
        let u = Pattern::universe();
        let a = Pattern::from_glob("dc1.*").unwrap();
        assert!(u.contains(&a));
        assert!(u.matches(""));
        assert!(u.matches("anything.at-all_0"));
    }

    #[test]
    fn is_universe_detection() {
        assert!(Pattern::universe().is_universe());
        assert!(Pattern::new("[a-z0-9._\\-]*").unwrap().is_universe());
        assert!(!Pattern::from_glob("dc1.*").unwrap().is_universe());
        assert!(!Pattern::new("[]").unwrap().is_universe());
    }

    #[test]
    fn relate_agrees_with_predicates() {
        let a = Pattern::from_glob("dc1.*").unwrap();
        let b = Pattern::from_glob("dc1.pod3.*").unwrap();
        let b2 = Pattern::new(r"dc1\.pod[1-3]\..*").unwrap();
        let c = Pattern::new(r"dc1\.pod[2-4]\..*").unwrap();
        let d = Pattern::from_glob("dc2.*").unwrap();
        assert_eq!(a.relate(&a), Relation::Equal);
        assert_eq!(a.relate(&b), Relation::ProperSuperset);
        assert_eq!(b.relate(&a), Relation::ProperSubset);
        assert_eq!(b2.relate(&c), Relation::Overlap);
        assert_eq!(a.relate(&d), Relation::Disjoint);
    }

    #[test]
    fn fingerprint_is_language_level_and_stable() {
        let g = Pattern::from_glob("dc1.pod3.*").unwrap();
        let r = Pattern::new(r"dc1\.pod3\..*").unwrap();
        assert_eq!(g.fingerprint(), r.fingerprint());
        assert_eq!(g.fingerprint(), g.clone().fingerprint());
        let other = Pattern::from_glob("dc1.pod4.*").unwrap();
        assert_ne!(g.fingerprint(), other.fingerprint());
        // Derived patterns fingerprint by language too.
        let derived = Pattern::universe().intersect(&g);
        assert_eq!(derived.fingerprint(), g.fingerprint());
    }
}
