//! Thompson construction from [`Ast`] to an ε-NFA.

use crate::alphabet::SymSet;
use crate::ast::Ast;

/// One NFA state: ε-successors plus labelled successors.
#[derive(Clone, Default, Debug)]
pub struct NfaState {
    /// ε-transitions out of this state.
    pub eps: Vec<u32>,
    /// Labelled transitions: consume one symbol from the set, go to target.
    pub trans: Vec<(SymSet, u32)>,
}

/// An ε-NFA with a single start and single accept state, as produced by
/// Thompson construction.
#[derive(Clone, Debug)]
pub struct Nfa {
    /// The state arena.
    pub states: Vec<NfaState>,
    /// Start state index.
    pub start: u32,
    /// Accept state index.
    pub accept: u32,
}

impl Nfa {
    fn new_state(&mut self) -> u32 {
        self.states.push(NfaState::default());
        (self.states.len() - 1) as u32
    }

    fn add_eps(&mut self, from: u32, to: u32) {
        self.states[from as usize].eps.push(to);
    }

    fn add_trans(&mut self, from: u32, set: SymSet, to: u32) {
        self.states[from as usize].trans.push((set, to));
    }

    /// Builds the NFA fragment for `ast` between fresh start/accept states,
    /// returning `(start, accept)`.
    fn build(&mut self, ast: &Ast) -> (u32, u32) {
        match ast {
            Ast::Empty => {
                // Two unconnected states: no path start → accept.
                let s = self.new_state();
                let a = self.new_state();
                (s, a)
            }
            Ast::Epsilon => {
                let s = self.new_state();
                let a = self.new_state();
                self.add_eps(s, a);
                (s, a)
            }
            Ast::Class(set) => {
                let s = self.new_state();
                let a = self.new_state();
                self.add_trans(s, *set, a);
                (s, a)
            }
            Ast::Concat(parts) => {
                debug_assert!(!parts.is_empty(), "smart constructor guarantees non-empty");
                let mut iter = parts.iter();
                let first = iter.next().expect("non-empty concat");
                let (s, mut a) = self.build(first);
                for p in iter {
                    let (ps, pa) = self.build(p);
                    self.add_eps(a, ps);
                    a = pa;
                }
                (s, a)
            }
            Ast::Alt(parts) => {
                let s = self.new_state();
                let a = self.new_state();
                for p in parts {
                    let (ps, pa) = self.build(p);
                    self.add_eps(s, ps);
                    self.add_eps(pa, a);
                }
                (s, a)
            }
            Ast::Star(inner) => {
                let s = self.new_state();
                let a = self.new_state();
                let (is, ia) = self.build(inner);
                self.add_eps(s, is);
                self.add_eps(s, a);
                self.add_eps(ia, is);
                self.add_eps(ia, a);
                (s, a)
            }
        }
    }

    /// Constructs an NFA recognizing the language of `ast`.
    pub fn from_ast(ast: &Ast) -> Nfa {
        let mut nfa = Nfa {
            states: Vec::new(),
            start: 0,
            accept: 0,
        };
        let (s, a) = nfa.build(ast);
        nfa.start = s;
        nfa.accept = a;
        nfa
    }

    /// Computes the ε-closure of a set of states (sorted, deduplicated).
    pub fn eps_closure(&self, states: &[u32]) -> Vec<u32> {
        let mut set = states.to_vec();
        self.close(&mut set, &mut ClosureScratch::default());
        set
    }

    /// Extends `set` in place to its ε-closure, sorted and deduplicated.
    ///
    /// `scratch` carries the `seen` marks from one closure to the next:
    /// subset construction takes hundreds of closures over one NFA, and
    /// with a generation stamp per call none of them allocates or clears
    /// its own marks.
    pub(crate) fn close(&self, set: &mut Vec<u32>, scratch: &mut ClosureScratch) {
        let gen = scratch.next_generation(self.states.len());
        let seen = &mut scratch.seen;
        set.retain(|&s| std::mem::replace(&mut seen[s as usize], gen) != gen);
        // `set` doubles as the BFS queue: everything before `head` has had
        // its ε-successors pushed.
        let mut head = 0;
        while head < set.len() {
            for &t in &self.states[set[head] as usize].eps {
                if std::mem::replace(&mut seen[t as usize], gen) != gen {
                    set.push(t);
                }
            }
            head += 1;
        }
        set.sort_unstable();
    }

    /// Simulates the NFA directly on `input`, one ε-closure per byte. This
    /// is the reference semantics the compiled [`crate::Dfa`] is tested
    /// against; nothing on a task's path calls it.
    pub fn matches(&self, input: &str) -> bool {
        let mut scratch = ClosureScratch::default();
        let mut cur = vec![self.start];
        self.close(&mut cur, &mut scratch);
        for b in input.bytes() {
            let mut next = Vec::new();
            for &s in &cur {
                for &(set, t) in &self.states[s as usize].trans {
                    if set.contains(b) {
                        next.push(t);
                    }
                }
            }
            self.close(&mut next, &mut scratch);
            cur = next;
        }
        cur.binary_search(&self.accept).is_ok()
    }
}

/// Generation-stamped `seen` marks for [`Nfa::close`]: state `s` is in the
/// closure being built iff `seen[s]` equals the current generation.
#[derive(Default)]
pub(crate) struct ClosureScratch {
    seen: Vec<u32>,
    generation: u32,
}

impl ClosureScratch {
    fn next_generation(&mut self, states: usize) -> u32 {
        if self.seen.len() != states || self.generation == u32::MAX {
            self.seen.clear();
            self.seen.resize(states, 0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn literal_match() {
        let nfa = Nfa::from_ast(&parse("abc").unwrap());
        assert!(nfa.matches("abc"));
        assert!(!nfa.matches("ab"));
        assert!(!nfa.matches("abcd"));
        assert!(!nfa.matches(""));
    }

    #[test]
    fn star_and_alt() {
        let nfa = Nfa::from_ast(&parse("(ab|c)*").unwrap());
        for ok in ["", "ab", "c", "abc", "cab", "ababcc"] {
            assert!(nfa.matches(ok), "{ok}");
        }
        for bad in ["a", "b", "ba", "abx"] {
            assert!(!nfa.matches(bad), "{bad}");
        }
    }

    #[test]
    fn empty_language_matches_nothing() {
        let nfa = Nfa::from_ast(&parse("[]").unwrap());
        assert!(!nfa.matches(""));
        assert!(!nfa.matches("a"));
    }

    #[test]
    fn scope_pattern() {
        let nfa = Nfa::from_ast(&parse(r"dc1\.pod[1-2]\..*").unwrap());
        assert!(nfa.matches("dc1.pod1.tor3"));
        assert!(nfa.matches("dc1.pod2."));
        assert!(!nfa.matches("dc1.pod3.tor1"));
        assert!(!nfa.matches("dc1.pod1"));
    }

    #[test]
    fn eps_closure_dedups_and_sorts() {
        let nfa = Nfa::from_ast(&parse("a*").unwrap());
        let c = nfa.eps_closure(&[nfa.start, nfa.start]);
        let mut sorted = c.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(c, sorted);
    }
}
