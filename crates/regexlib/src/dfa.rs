//! Complete DFAs: subset construction, boolean product operations,
//! Hopcroft minimization, and language queries.
//!
//! All DFAs in this module are *complete*: every state has a transition on
//! every alphabet symbol (a dead state absorbs the rest). Completeness makes
//! complement a bit-flip and lets product constructions walk both machines
//! in lockstep without option-handling.

use crate::alphabet::{sym_index, SymSet, NSYM};
use crate::ast::Ast;
use crate::nfa::{ClosureScratch, Nfa};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts product-automaton walks (`product_raw` and [`Dfa::relate_lang`])
/// performed process-wide. The object tree's cost model is "product walks
/// per insert probe"; tests read this counter to pin that cost down.
static PRODUCT_OPS: AtomicU64 = AtomicU64::new(0);

/// Total product-automaton walks performed by this process so far.
pub fn product_ops() -> u64 {
    PRODUCT_OPS.load(Ordering::Relaxed)
}

/// How the languages of two automata (or patterns) relate as sets.
///
/// Produced by a single synchronized product walk ([`Dfa::relate_lang`])
/// instead of up to four separate subset constructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `L(a) = L(b)`.
    Equal,
    /// `L(a) ⊂ L(b)` strictly.
    ProperSubset,
    /// `L(a) ⊃ L(b)` strictly.
    ProperSuperset,
    /// The languages intersect but neither contains the other.
    Overlap,
    /// `L(a) ∩ L(b) = ∅`.
    Disjoint,
}

impl Relation {
    /// The relation with the roles of `a` and `b` swapped.
    pub fn flip(self) -> Relation {
        match self {
            Relation::ProperSubset => Relation::ProperSuperset,
            Relation::ProperSuperset => Relation::ProperSubset,
            r => r,
        }
    }

    /// `L(a) ⊆ L(b)` under this relation.
    pub fn is_subset(self) -> bool {
        matches!(self, Relation::Equal | Relation::ProperSubset)
    }

    /// `L(a) ⊇ L(b)` under this relation.
    pub fn is_superset(self) -> bool {
        matches!(self, Relation::Equal | Relation::ProperSuperset)
    }

    /// `L(a) ∩ L(b) ≠ ∅` under this relation.
    ///
    /// Note the edge case: `Equal` and the proper containments imply a
    /// nonempty intersection only when the smaller language is nonempty;
    /// `relate_lang` maps pairs involving `∅` to `Equal`/`ProperSubset`/
    /// `ProperSuperset`, so callers holding nonempty regions (the object
    /// tree never stores `∅`) can read this as plain overlap.
    pub fn intersects(self) -> bool {
        !matches!(self, Relation::Disjoint)
    }
}

/// Counts the move + ε-closure steps of subset construction performed
/// process-wide — the compile kernel's unit of work, as [`product_ops`] is
/// the relation engine's.
static SUBSET_STEPS: AtomicU64 = AtomicU64::new(0);

/// Total subset-construction steps performed by this process so far. One
/// compile takes at most `subsets × symbol classes` of them, and a pattern
/// built by [`crate::Pattern::from_names`] takes none.
pub fn subset_steps() -> u64 {
    SUBSET_STEPS.load(Ordering::Relaxed)
}

/// The partition of the alphabet induced by `nfa`'s label sets: two symbols
/// share a class iff every label contains both or neither. Ordered by each
/// class's lowest symbol.
fn symbol_classes(nfa: &Nfa) -> Vec<SymSet> {
    let mut classes = vec![SymSet::ALL];
    for state in &nfa.states {
        for &(label, _) in &state.trans {
            for i in 0..classes.len() {
                let inside = classes[i].intersect(label);
                if !inside.is_empty() && inside != classes[i] {
                    classes[i] = classes[i].intersect(label.complement());
                    classes.push(inside);
                }
            }
        }
    }
    classes.sort_unstable_by_key(|c| c.0.trailing_zeros());
    classes
}

/// The subsets discovered so far by [`Dfa::from_nfa`], with the rows and
/// accept bits of the DFA under construction.
#[derive(Default)]
struct Subsets {
    ids: HashMap<Vec<u32>, u32>,
    trans: Vec<u32>,
    accept: Vec<bool>,
    /// Interned subsets whose rows are still to be filled. A subset is
    /// needed exactly once after interning, so it travels with its id.
    work: Vec<(u32, Vec<u32>)>,
}

impl Subsets {
    fn intern(&mut self, set: &[u32], nfa_accept: u32) -> u32 {
        if let Some(&id) = self.ids.get(set) {
            return id;
        }
        let id = self.accept.len() as u32;
        self.accept.push(set.binary_search(&nfa_accept).is_ok());
        self.trans.resize(self.trans.len() + NSYM, u32::MAX);
        self.ids.insert(set.to_vec(), id);
        self.work.push((id, set.to_vec()));
        id
    }
}

/// A refinable partition of `0..n` for [`Dfa::minimize`]: each block is a
/// contiguous run of `elems`, with its marked members kept at the front so
/// that splitting a block is cutting its run in two.
struct Partition {
    elems: Vec<u32>,
    pos: Vec<u32>,
    block_of: Vec<u32>,
    /// Per block: `[start, end)` in `elems` and the number of marked members.
    runs: Vec<(u32, u32, u32)>,
}

impl Partition {
    /// Two blocks, rejecting (0) and accepting (1) — or one, when all
    /// states agree.
    fn new(n: usize, accepts: impl Fn(usize) -> bool) -> Partition {
        let mut elems: Vec<u32> = (0..n as u32).collect();
        elems.sort_by_key(|&i| accepts(i as usize));
        let cut = elems.partition_point(|&i| !accepts(i as usize)) as u32;
        let mut pos = vec![0; n];
        for (at, &i) in elems.iter().enumerate() {
            pos[i as usize] = at as u32;
        }
        let both = 0 < cut && (cut as usize) < n;
        let runs = if both {
            vec![(0, cut, 0), (cut, n as u32, 0)]
        } else {
            vec![(0, n as u32, 0)]
        };
        let block_of = (0..n).map(|i| u32::from(both && accepts(i))).collect();
        Partition {
            elems,
            pos,
            block_of,
            runs,
        }
    }

    fn blocks(&self) -> usize {
        self.runs.len()
    }

    fn size(&self, b: u32) -> u32 {
        let (start, end, _) = self.runs[b as usize];
        end - start
    }

    fn members(&self, b: u32) -> &[u32] {
        let (start, end, _) = self.runs[b as usize];
        &self.elems[start as usize..end as usize]
    }

    /// Marks `s` (not yet marked) within its block, reporting the block in
    /// `touched` on its first mark.
    fn mark(&mut self, s: u32, touched: &mut Vec<u32>) {
        let b = self.block_of[s as usize];
        let (start, _, marked) = &mut self.runs[b as usize];
        if *marked == 0 {
            touched.push(b);
        }
        let (at, front) = (self.pos[s as usize], *start + *marked);
        *marked += 1;
        let other = self.elems[front as usize];
        self.elems.swap(at as usize, front as usize);
        self.pos[s as usize] = front;
        self.pos[other as usize] = at;
    }

    /// Clears `b`'s marks; if they covered only part of the block, moves
    /// the marked members into a new block and returns it.
    fn split(&mut self, b: u32) -> Option<u32> {
        let (start, end, marked) = self.runs[b as usize];
        self.runs[b as usize].2 = 0;
        if start + marked == end {
            return None;
        }
        let new = self.runs.len() as u32;
        self.runs[b as usize].0 = start + marked;
        self.runs.push((start, start + marked, 0));
        for &s in &self.elems[start as usize..(start + marked) as usize] {
            self.block_of[s as usize] = new;
        }
        Some(new)
    }
}

/// A deterministic finite automaton over the device-ID alphabet.
///
/// States are numbered `0..num_states`; `trans[s * NSYM + a]` is the
/// successor of state `s` on symbol index `a`.
#[derive(Clone, Debug)]
pub struct Dfa {
    trans: Vec<u32>,
    accept: Vec<bool>,
    start: u32,
}

impl Dfa {
    /// Number of states (including the dead state, if distinguishable).
    pub fn num_states(&self) -> usize {
        self.accept.len()
    }

    /// The start state.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Whether `state` is accepting.
    pub fn is_accept(&self, state: u32) -> bool {
        self.accept[state as usize]
    }

    /// The successor of `state` on symbol index `sym`.
    pub fn next(&self, state: u32, sym: u8) -> u32 {
        self.trans[state as usize * NSYM + sym as usize]
    }

    /// Builds a DFA from an AST via Thompson construction and subset
    /// construction, then minimizes it.
    pub fn from_ast(ast: &Ast) -> Dfa {
        let nfa = Nfa::from_ast(ast);
        Self::from_nfa(&nfa).minimize()
    }

    /// Subset construction from an ε-NFA. The result is complete but not
    /// necessarily minimal.
    ///
    /// Steps once per *symbol class*, not per symbol: two symbols that sit
    /// in exactly the same label sets of `nfa` move every subset to the
    /// same successor, so one move + ε-closure ([`subset_steps`] counts
    /// them) fills the dense row for the whole class. A hierarchical glob
    /// has about ten classes — its literal characters and "everything
    /// else" — against [`NSYM`] symbols. Classes are visited in order of
    /// their lowest symbol, which numbers the subsets exactly as a
    /// symbol-by-symbol walk would.
    pub fn from_nfa(nfa: &Nfa) -> Dfa {
        let classes = symbol_classes(nfa);
        let mut scratch = ClosureScratch::default();
        let mut subsets = Subsets::default();
        let mut set = vec![nfa.start];
        nfa.close(&mut set, &mut scratch);
        let start = subsets.intern(&set, nfa.accept);
        let mut steps = 0;
        while let Some((id, cur)) = subsets.work.pop() {
            for &class in &classes {
                set.clear();
                for &s in &cur {
                    for &(label, t) in &nfa.states[s as usize].trans {
                        if !label.intersect(class).is_empty() {
                            set.push(t);
                        }
                    }
                }
                nfa.close(&mut set, &mut scratch);
                steps += 1;
                let to = subsets.intern(&set, nfa.accept);
                let row = &mut subsets.trans[id as usize * NSYM..][..NSYM];
                for sym in class.iter_indices() {
                    row[sym as usize] = to;
                }
            }
        }
        SUBSET_STEPS.fetch_add(steps, Ordering::Relaxed);
        Dfa {
            trans: subsets.trans,
            accept: subsets.accept,
            start,
        }
    }

    /// The minimal DFA accepting exactly `names`, built without an AST, an
    /// NFA or subset construction: the trie of the sorted names is already
    /// a complete DFA once every missing edge leads to a dead state, and
    /// [`minimize`](Self::minimize) folds its shared suffixes. A name with
    /// a byte outside the alphabet can never match and is left out.
    pub(crate) fn from_names<S: AsRef<str>>(names: &[S]) -> Dfa {
        const ROOT: u32 = 0;
        const DEAD: u32 = 1;
        // Each name as symbol indices; `None` for a foreign byte drops it.
        let mut words: Vec<Vec<u8>> = names
            .iter()
            .filter_map(|n| n.as_ref().bytes().map(sym_index).collect())
            .collect();
        words.sort_unstable();
        words.dedup();
        let mut trans = vec![DEAD; 2 * NSYM];
        let mut accept = vec![false; 2];
        for word in &words {
            let mut s = ROOT;
            for &sym in word {
                let edge = s as usize * NSYM + sym as usize;
                if trans[edge] == DEAD {
                    trans[edge] = accept.len() as u32;
                    trans.resize(trans.len() + NSYM, DEAD);
                    accept.push(false);
                }
                s = trans[edge];
            }
            accept[s as usize] = true;
        }
        Dfa {
            trans,
            accept,
            start: ROOT,
        }
        .minimize()
    }

    /// Tests whether the DFA accepts `input`. Bytes outside the alphabet
    /// reject immediately.
    pub fn matches(&self, input: &str) -> bool {
        let mut s = self.start;
        for b in input.bytes() {
            match sym_index(b) {
                Some(i) => s = self.next(s, i),
                None => return false,
            }
        }
        self.is_accept(s)
    }

    /// Returns true if the language is empty (no accepting state reachable).
    pub fn is_empty(&self) -> bool {
        let mut seen = vec![false; self.num_states()];
        let mut stack = vec![self.start];
        seen[self.start as usize] = true;
        while let Some(s) = stack.pop() {
            if self.is_accept(s) {
                return false;
            }
            for sym in 0..NSYM as u8 {
                let t = self.next(s, sym);
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        true
    }

    /// Complement with respect to the full alphabet language `Σ*`.
    pub fn complement(&self) -> Dfa {
        Dfa {
            trans: self.trans.clone(),
            accept: self.accept.iter().map(|a| !a).collect(),
            start: self.start,
        }
    }

    /// Boolean product construction; `f` combines acceptance of the two
    /// machines (`&&` for intersection, `|| ` for union, `a && !b` for
    /// difference, `!=` for symmetric difference). The result is minimized.
    pub fn product(&self, other: &Dfa, f: impl Fn(bool, bool) -> bool) -> Dfa {
        self.product_raw(other, f).minimize()
    }

    /// The product construction without minimization — used by the decision
    /// predicates (emptiness only needs reachability, not a canonical
    /// machine), which the object tree calls on every insert.
    fn product_raw(&self, other: &Dfa, f: impl Fn(bool, bool) -> bool) -> Dfa {
        PRODUCT_OPS.fetch_add(1, Ordering::Relaxed);
        let mut ids: HashMap<(u32, u32), u32> = HashMap::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut trans: Vec<u32> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();

        let intern = |p: (u32, u32),
                      pairs: &mut Vec<(u32, u32)>,
                      trans: &mut Vec<u32>,
                      accept: &mut Vec<bool>,
                      ids: &mut HashMap<(u32, u32), u32>|
         -> u32 {
            if let Some(&id) = ids.get(&p) {
                return id;
            }
            let id = pairs.len() as u32;
            ids.insert(p, id);
            accept.push(f(self.is_accept(p.0), other.is_accept(p.1)));
            pairs.push(p);
            trans.resize(trans.len() + NSYM, u32::MAX);
            id
        };

        let start = intern(
            (self.start, other.start),
            &mut pairs,
            &mut trans,
            &mut accept,
            &mut ids,
        );
        let mut work = vec![start];
        while let Some(id) = work.pop() {
            let (a, b) = pairs[id as usize];
            for sym in 0..NSYM as u8 {
                let p = (self.next(a, sym), other.next(b, sym));
                let existed = ids.contains_key(&p);
                let tid = intern(p, &mut pairs, &mut trans, &mut accept, &mut ids);
                if !existed {
                    work.push(tid);
                }
                trans[id as usize * NSYM + sym as usize] = tid;
            }
        }
        Dfa {
            trans,
            accept,
            start,
        }
    }

    /// `L(self) ∩ L(other)`.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && b)
    }

    /// `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a || b)
    }

    /// `L(self) ∖ L(other)`.
    pub fn difference(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && !b)
    }

    /// `L(other) ⊆ L(self)`.
    pub fn contains_lang(&self, other: &Dfa) -> bool {
        other.product_raw(self, |a, b| a && !b).is_empty()
    }

    /// `L(self) ∩ L(other) ≠ ∅`.
    pub fn overlaps(&self, other: &Dfa) -> bool {
        !self.product_raw(other, |a, b| a && b).is_empty()
    }

    /// `L(self) = L(other)`.
    pub fn equivalent(&self, other: &Dfa) -> bool {
        self.product_raw(other, |a, b| a != b).is_empty()
    }

    /// Classifies `L(self)` against `L(other)` in ONE synchronized product
    /// walk.
    ///
    /// The walk explores reachable state pairs of the product automaton and
    /// tracks three emptiness bits — is `L(self) ∖ L(other)` inhabited, is
    /// `L(other) ∖ L(self)` inhabited, is `L(self) ∩ L(other)` inhabited —
    /// which together determine the [`Relation`]. This replaces the up to
    /// four separate subset constructions (`equivalent`, two `contains`,
    /// `overlaps`) the object tree previously ran per child probe, visiting
    /// each product state at most once and exiting early as soon as all
    /// three bits are set (the answer is then necessarily `Overlap`).
    pub fn relate_lang(&self, other: &Dfa) -> Relation {
        PRODUCT_OPS.fetch_add(1, Ordering::Relaxed);
        let mut ids: HashMap<(u32, u32), ()> = HashMap::new();
        let mut work: Vec<(u32, u32)> = Vec::new();
        let start = (self.start, other.start);
        ids.insert(start, ());
        work.push(start);
        let (mut a_not_b, mut b_not_a, mut inter) = (false, false, false);
        while let Some((a, b)) = work.pop() {
            match (self.is_accept(a), other.is_accept(b)) {
                (true, true) => inter = true,
                (true, false) => a_not_b = true,
                (false, true) => b_not_a = true,
                (false, false) => {}
            }
            if a_not_b && b_not_a && inter {
                return Relation::Overlap;
            }
            for sym in 0..NSYM as u8 {
                let p = (self.next(a, sym), other.next(b, sym));
                if let std::collections::hash_map::Entry::Vacant(e) = ids.entry(p) {
                    e.insert(());
                    work.push(p);
                }
            }
        }
        match (a_not_b, b_not_a, inter) {
            (false, false, _) => Relation::Equal,
            (false, true, _) => Relation::ProperSubset,
            (true, false, _) => Relation::ProperSuperset,
            (true, true, true) => Relation::Overlap,
            (true, true, false) => Relation::Disjoint,
        }
    }

    /// A canonical 128-bit fingerprint of the language.
    ///
    /// Minimizes, renumbers states by BFS order from the start state
    /// (symbols in alphabet order), and hashes the resulting structure with
    /// FNV-1a. Minimal complete DFAs are unique up to state numbering and
    /// BFS order is determined by the structure, so two automata get the
    /// same fingerprint iff they accept the same language (modulo the
    /// 2⁻¹²⁸ hash-collision chance).
    pub fn canonical_hash(&self) -> u128 {
        let min = self.minimize();
        let n = min.num_states();
        // BFS renumbering from the start state.
        let mut order = vec![u32::MAX; n];
        let mut bfs: Vec<u32> = Vec::with_capacity(n);
        order[min.start as usize] = 0;
        bfs.push(min.start);
        let mut head = 0;
        while head < bfs.len() {
            let s = bfs[head];
            head += 1;
            for sym in 0..NSYM as u8 {
                let t = min.next(s, sym);
                if order[t as usize] == u32::MAX {
                    order[t as usize] = bfs.len() as u32;
                    bfs.push(t);
                }
            }
        }
        // FNV-1a over (num_states, then per state in BFS order: accept bit
        // and renumbered successors).
        const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u128::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(bfs.len() as u64);
        for &s in &bfs {
            mix(u64::from(min.is_accept(s)));
            for sym in 0..NSYM as u8 {
                mix(u64::from(order[min.next(s, sym) as usize]));
            }
        }
        h
    }

    /// Hopcroft's partition-refinement minimization.
    ///
    /// Unreachable states are first discarded; the result is the canonical
    /// minimal complete DFA for the language (up to state numbering; blocks
    /// are numbered by their lowest member).
    ///
    /// Refinement runs over one representative symbol per *column class*
    /// (symbols on which every state moves alike), so it costs
    /// O(classes · states · log states) and hashes nothing.
    pub fn minimize(&self) -> Dfa {
        let (class_of, reps) = self.column_classes();
        let k = reps.len();

        // Discard unreachable states, keeping index order: `remap` first
        // marks the reached states (0), then holds their new indices.
        let n = self.num_states();
        let mut remap = vec![u32::MAX; n];
        let mut stack = vec![self.start];
        remap[self.start as usize] = 0;
        while let Some(s) = stack.pop() {
            for &rep in &reps {
                let t = self.next(s, rep);
                if remap[t as usize] == u32::MAX {
                    remap[t as usize] = 0;
                    stack.push(t);
                }
            }
        }
        let mut states: Vec<u32> = Vec::new();
        for (s, slot) in remap.iter_mut().enumerate() {
            if *slot == 0 {
                *slot = states.len() as u32;
                states.push(s as u32);
            }
        }
        let m = states.len();

        // The reachable subautomaton over class representatives:
        // `next[i * k + c]`, and per class the states entering each state
        // (`inv[c * m..][off[c * (m + 1) + t]..off[c * (m + 1) + t + 1]]`),
        // bucketed by counting sort.
        let mut next = Vec::with_capacity(m * k);
        for &s in &states {
            next.extend(reps.iter().map(|&rep| remap[self.next(s, rep) as usize]));
        }
        let mut off = vec![0u32; k * (m + 1)];
        let mut inv = vec![0u32; k * m];
        for c in 0..k {
            let off = &mut off[c * (m + 1)..][..m + 1];
            for i in 0..m {
                off[next[i * k + c] as usize] += 1;
            }
            let mut end = 0;
            for slot in off.iter_mut() {
                end += *slot;
                *slot = end;
            }
            for i in (0..m).rev() {
                let slot = &mut off[next[i * k + c] as usize];
                *slot -= 1;
                inv[c * m + *slot as usize] = i as u32;
            }
        }

        // Refine {accepting, rejecting} until no block's members disagree
        // on which block a class leads to. Splitting every block against
        // the pre-image of a splitter block, and re-queueing only the
        // smaller half of each split, is Hopcroft's bound.
        let mut part = Partition::new(m, |i| self.accept[states[i] as usize]);
        let mut queued = vec![false; part.blocks()];
        let mut work: Vec<u32> = Vec::new();
        if part.blocks() == 2 {
            let smaller = u32::from(part.size(1) < part.size(0));
            queued[smaller as usize] = true;
            work.push(smaller);
        }
        let mut splitter: Vec<u32> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        while let Some(a) = work.pop() {
            queued[a as usize] = false;
            splitter.clear();
            splitter.extend_from_slice(part.members(a));
            for c in 0..k {
                let (off, inv) = (&off[c * (m + 1)..], &inv[c * m..]);
                for &t in &splitter {
                    for &s in &inv[off[t as usize] as usize..off[t as usize + 1] as usize] {
                        part.mark(s, &mut touched);
                    }
                }
                for b in touched.drain(..) {
                    let Some(new) = part.split(b) else { continue };
                    queued.push(false);
                    let pick = if queued[b as usize] || part.size(new) <= part.size(b) {
                        new
                    } else {
                        b
                    };
                    if !std::mem::replace(&mut queued[pick as usize], true) {
                        work.push(pick);
                    }
                }
            }
        }

        // Number the blocks by first member and emit one row per block.
        let mut number = vec![u32::MAX; part.blocks()];
        let mut firsts: Vec<usize> = Vec::new();
        for i in 0..m {
            let slot = &mut number[part.block_of[i] as usize];
            if *slot == u32::MAX {
                *slot = firsts.len() as u32;
                firsts.push(i);
            }
        }
        let block = |i: u32| number[part.block_of[i as usize] as usize];
        let mut trans = Vec::with_capacity(firsts.len() * NSYM);
        for &i in &firsts {
            trans.extend(class_of.iter().map(|&c| block(next[i * k + c as usize])));
        }
        Dfa {
            trans,
            accept: firsts
                .iter()
                .map(|&i| self.accept[states[i] as usize])
                .collect(),
            start: block(remap[self.start as usize]),
        }
    }

    /// Groups the symbols whose columns of the transition table are
    /// identical: the class index of every symbol, and one representative
    /// symbol per class. One pass over the table — each row splits the
    /// classes found so far by the successor it assigns their members.
    fn column_classes(&self) -> ([u8; NSYM], Vec<u8>) {
        let mut class_of = [0u8; NSYM];
        let mut reps = vec![0u8];
        // Per row: the successor of each class's first member, and the
        // classes split off in this row as (old class, successor, new class).
        let mut first = [u32::MAX; NSYM];
        let mut splits: Vec<(u8, u32, u8)> = Vec::new();
        for row in self.trans.chunks_exact(NSYM) {
            first[..reps.len()].fill(u32::MAX);
            splits.clear();
            for (sym, &t) in row.iter().enumerate() {
                let c = class_of[sym];
                if first[c as usize] == u32::MAX {
                    first[c as usize] = t;
                } else if first[c as usize] != t {
                    class_of[sym] = match splits.iter().find(|s| (s.0, s.1) == (c, t)) {
                        Some(s) => s.2,
                        None => {
                            let new = reps.len() as u8;
                            splits.push((c, t, new));
                            reps.push(sym as u8);
                            new
                        }
                    };
                }
            }
        }
        (class_of, reps)
    }

    /// Enumerates up to `limit` accepted strings in shortest-first order.
    ///
    /// Useful for tests and for explaining a region to an operator ("devices
    /// matching this scope look like ...").
    pub fn sample(&self, limit: usize) -> Vec<String> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        // BFS over (state, prefix); prune dead states (no accept reachable).
        let live = self.live_states();
        if !live[self.start as usize] {
            return out;
        }
        let mut queue: std::collections::VecDeque<(u32, String)> =
            std::collections::VecDeque::new();
        queue.push_back((self.start, String::new()));
        // Cap explored prefixes to avoid pathological blow-ups.
        let mut explored = 0usize;
        while let Some((s, prefix)) = queue.pop_front() {
            explored += 1;
            if explored > 100_000 {
                break;
            }
            if self.is_accept(s) {
                out.push(prefix.clone());
                if out.len() >= limit {
                    break;
                }
            }
            for sym in 0..NSYM as u8 {
                let t = self.next(s, sym);
                if live[t as usize] {
                    let mut p = prefix.clone();
                    p.push(crate::alphabet::sym_byte(sym) as char);
                    queue.push_back((t, p));
                }
            }
        }
        out
    }

    /// Marks states from which an accepting state is reachable.
    fn live_states(&self) -> Vec<bool> {
        let n = self.num_states();
        // Reverse reachability from accepting states.
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for s in 0..n as u32 {
            for sym in 0..NSYM as u8 {
                rev[self.next(s, sym) as usize].push(s);
            }
        }
        let mut live = vec![false; n];
        let mut stack: Vec<u32> = (0..n as u32).filter(|&s| self.is_accept(s)).collect();
        for &s in &stack {
            live[s as usize] = true;
        }
        while let Some(s) = stack.pop() {
            for &p in &rev[s as usize] {
                if !live[p as usize] {
                    live[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        live
    }

    /// The longest string every member of the language starts with.
    ///
    /// Computed by walking the unique live transition chain from the start
    /// state. Scoped database queries use this to turn full-table scans
    /// into range scans (`dc01\.pod03\..*` → prefix `dc01.pod03.`).
    pub fn literal_prefix(&self) -> String {
        let live = self.live_states();
        let mut prefix = String::new();
        let mut state = self.start;
        if !live[self.start as usize] {
            return prefix;
        }
        loop {
            // Accepting state: the empty continuation is in the language,
            // so the prefix cannot grow further.
            if self.is_accept(state) {
                return prefix;
            }
            let mut next: Option<(u8, u32)> = None;
            for sym in 0..NSYM as u8 {
                let t = self.next(state, sym);
                if live[t as usize] {
                    if next.is_some() {
                        return prefix; // branching: prefix ends here
                    }
                    next = Some((sym, t));
                }
            }
            match next {
                Some((sym, t)) => {
                    prefix.push(crate::alphabet::sym_byte(sym) as char);
                    state = t;
                }
                None => return prefix, // empty language tail
            }
            if prefix.len() > 4096 {
                return prefix; // defensive bound for degenerate machines
            }
        }
    }

    /// Returns true if the language is finite, and if so its cardinality
    /// (up to `cap`; returns `None` when infinite or above the cap).
    pub fn count_strings(&self, cap: u64) -> Option<u64> {
        // The language is infinite iff a cycle exists among live, reachable
        // states. Detect via DFS colors on the live sub-graph.
        let live = self.live_states();
        let n = self.num_states();
        let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
        let mut has_cycle = false;
        // Iterative DFS from start.
        let mut stack: Vec<(u32, u8)> = Vec::new();
        if live[self.start as usize] {
            stack.push((self.start, 0));
        }
        while let Some((s, sym)) = stack.pop() {
            if sym == 0 {
                if color[s as usize] == 1 {
                    continue;
                }
                color[s as usize] = 1;
            }
            if (sym as usize) < NSYM {
                stack.push((s, sym + 1));
                let t = self.next(s, sym);
                if live[t as usize] {
                    match color[t as usize] {
                        0 => stack.push((t, 0)),
                        1 => has_cycle = true,
                        _ => {}
                    }
                }
            } else {
                color[s as usize] = 2;
            }
        }
        if has_cycle {
            return None;
        }
        // Count paths by memoized DFS (the live sub-graph is a DAG here).
        fn count(dfa: &Dfa, live: &[bool], memo: &mut [Option<u64>], s: u32, cap: u64) -> u64 {
            if let Some(c) = memo[s as usize] {
                return c;
            }
            let mut total: u64 = u64::from(dfa.is_accept(s));
            for sym in 0..NSYM as u8 {
                let t = dfa.next(s, sym);
                if live[t as usize] {
                    total = total.saturating_add(count(dfa, live, memo, t, cap));
                    if total > cap {
                        break;
                    }
                }
            }
            memo[s as usize] = Some(total);
            total
        }
        if !live[self.start as usize] {
            return Some(0);
        }
        let mut memo = vec![None; n];
        let c = count(self, &live, &mut memo, self.start, cap);
        (c <= cap).then_some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn dfa(p: &str) -> Dfa {
        Dfa::from_ast(&parse(p).unwrap())
    }

    #[test]
    fn membership_matches_pattern() {
        let d = dfa(r"dc1\.pod[1-2]\..*");
        assert!(d.matches("dc1.pod1.tor3"));
        assert!(d.matches("dc1.pod2."));
        assert!(!d.matches("dc1.pod3.x"));
        assert!(!d.matches("dc1.pod1"));
        assert!(!d.matches("DC1.pod1.x")); // outside alphabet
    }

    #[test]
    fn emptiness() {
        assert!(dfa("[]").is_empty());
        assert!(!dfa("").is_empty());
        assert!(!dfa("a*").is_empty());
        assert!(dfa("[]a").is_empty());
    }

    #[test]
    fn intersection_and_difference() {
        let a = dfa("a*b");
        let b = dfa("ab|b");
        let i = a.intersect(&b);
        assert!(i.matches("ab"));
        assert!(i.matches("b"));
        assert!(!i.matches("aab"));
        let d = a.difference(&b);
        assert!(d.matches("aab"));
        assert!(!d.matches("ab"));
        assert!(!d.matches("b"));
    }

    #[test]
    fn containment_is_language_level() {
        let big = dfa(r"dc1\..*");
        let small = dfa(r"dc1\.pod3\..*");
        assert!(big.contains_lang(&small));
        assert!(!small.contains_lang(&big));
        // Reflexive.
        assert!(big.contains_lang(&big));
    }

    #[test]
    fn overlap_detection() {
        let a = dfa(r"dc1\.pod[1-3]\..*");
        let b = dfa(r"dc1\.pod[3-5]\..*");
        let c = dfa(r"dc2\..*");
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn equivalence_after_different_constructions() {
        let a = dfa("(a|b)*");
        let b = dfa("(a*b*)*");
        assert!(a.equivalent(&b));
        let c = dfa("(ab)*");
        assert!(!a.equivalent(&c));
    }

    #[test]
    fn complement_laws() {
        let a = dfa("abc.*");
        let c = a.complement();
        assert!(!c.matches("abcx"));
        assert!(c.matches("xyz"));
        assert!(c.matches(""));
        assert!(a.union(&c).equivalent(&dfa(".*")));
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn minimize_is_canonical_size() {
        // (a|b)*: minimal complete DFA has exactly 1 state... over the full
        // alphabet it needs 2 (accepting loop on {a,b}, dead on the rest).
        let d = dfa("(a|b)*");
        assert_eq!(d.num_states(), 2);
        // Σ* has exactly one state.
        assert_eq!(dfa(".*").num_states(), 1);
        // ∅ has exactly one state.
        assert_eq!(dfa("[]").num_states(), 1);
    }

    #[test]
    fn sample_shortest_first() {
        let d = dfa("a|ab|abc");
        let s = d.sample(10);
        assert_eq!(s, vec!["a", "ab", "abc"]);
        let empty = dfa("[]").sample(5);
        assert!(empty.is_empty());
    }

    #[test]
    fn literal_prefix_extraction() {
        assert_eq!(dfa(r"dc01\.pod03\..*").literal_prefix(), "dc01.pod03.");
        assert_eq!(dfa(r"dc01\.(pod1|pod2)\..*").literal_prefix(), "dc01.pod");
        assert_eq!(dfa(".*").literal_prefix(), "");
        assert_eq!(dfa("abc").literal_prefix(), "abc");
        assert_eq!(dfa("[]").literal_prefix(), "");
        assert_eq!(dfa("a|ab").literal_prefix(), "a");
        assert_eq!(dfa("x.*y").literal_prefix(), "x");
    }

    #[test]
    fn count_strings_finite_and_infinite() {
        assert_eq!(dfa("a|ab|abc").count_strings(100), Some(3));
        assert_eq!(dfa("[ab]{2}").count_strings(100), Some(4));
        assert_eq!(dfa("a*").count_strings(100), None);
        assert_eq!(dfa("[]").count_strings(100), Some(0));
    }

    #[test]
    fn relate_matches_pairwise_predicates() {
        let cases = [
            ("a*b", "a*b", Relation::Equal),
            (r"dc1\.pod3\..*", r"dc1\..*", Relation::ProperSubset),
            (r"dc1\..*", r"dc1\.pod3\..*", Relation::ProperSuperset),
            (
                r"dc1\.pod[1-3]\..*",
                r"dc1\.pod[3-5]\..*",
                Relation::Overlap,
            ),
            (r"dc1\..*", r"dc2\..*", Relation::Disjoint),
            ("(a|b)*", "(a*b*)*", Relation::Equal),
        ];
        for (a, b, want) in cases {
            let (da, db) = (dfa(a), dfa(b));
            assert_eq!(da.relate_lang(&db), want, "{a} vs {b}");
            assert_eq!(db.relate_lang(&da), want.flip(), "{b} vs {a}");
        }
    }

    #[test]
    fn relate_empty_language_edge_cases() {
        let empty = dfa("[]");
        let some = dfa("a*b");
        assert_eq!(empty.relate_lang(&empty), Relation::Equal);
        assert_eq!(empty.relate_lang(&some), Relation::ProperSubset);
        assert_eq!(some.relate_lang(&empty), Relation::ProperSuperset);
    }

    #[test]
    fn canonical_hash_is_language_level() {
        // Same language, different constructions → same fingerprint.
        assert_eq!(
            dfa("(a|b)*").canonical_hash(),
            dfa("(a*b*)*").canonical_hash()
        );
        assert_eq!(
            dfa(r"dc1\.pod[1-2]\..*").canonical_hash(),
            dfa(r"dc1\.(pod1|pod2)\..*").canonical_hash()
        );
        // Different languages → different fingerprints.
        assert_ne!(
            dfa("(a|b)*").canonical_hash(),
            dfa("(ab)*").canonical_hash()
        );
        assert_ne!(dfa("[]").canonical_hash(), dfa(".*").canonical_hash());
    }

    #[test]
    fn pod_split_scenario() {
        // Mirrors Fig. 3d of the paper: dc1.pod3.* split against dc1.pod[0-4].*.
        let new_obj = dfa(r"dc1\.pod[0-4]\..*");
        let existing = dfa(r"dc1\.pod3\..*");
        let inter = new_obj.intersect(&existing);
        assert!(inter.equivalent(&existing));
        let rest = new_obj.difference(&existing);
        assert!(rest.matches("dc1.pod0.t"));
        assert!(!rest.matches("dc1.pod3.t"));
        assert!(!rest.overlaps(&existing));
        assert!(new_obj.equivalent(&rest.union(&inter)));
    }
}
