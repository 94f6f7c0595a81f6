//! The symbol alphabet for the network device-identifier space.
//!
//! Network devices are named from a constrained identifier space
//! (`dc01.pod03.rack07.tor2`), so the regex engine operates over a small,
//! fixed alphabet rather than full Unicode. This keeps DFA transition tables
//! dense and makes product constructions (intersection, difference) cheap,
//! which the object-tree `Split` operation relies on.

/// Number of symbols in the alphabet.
pub const NSYM: usize = 39;

/// The alphabet, in symbol-index order: `a`–`z`, `0`–`9`, `.`, `-`, `_`.
pub const SYMBOLS: [u8; NSYM] = [
    b'a', b'b', b'c', b'd', b'e', b'f', b'g', b'h', b'i', b'j', b'k', b'l', b'm', b'n', b'o', b'p',
    b'q', b'r', b's', b't', b'u', b'v', b'w', b'x', b'y', b'z', b'0', b'1', b'2', b'3', b'4', b'5',
    b'6', b'7', b'8', b'9', b'.', b'-', b'_',
];

/// Returns the symbol index for a byte, or `None` if the byte is outside the
/// alphabet.
pub fn sym_index(b: u8) -> Option<u8> {
    match b {
        b'a'..=b'z' => Some(b - b'a'),
        b'0'..=b'9' => Some(b - b'0' + 26),
        b'.' => Some(36),
        b'-' => Some(37),
        b'_' => Some(38),
        _ => None,
    }
}

/// Returns the byte for a symbol index.
///
/// # Panics
///
/// Panics if `idx >= NSYM`; indices are only produced by [`sym_index`] so
/// this is an internal invariant.
pub fn sym_byte(idx: u8) -> u8 {
    SYMBOLS[idx as usize]
}

/// A set of alphabet symbols, stored as a bitmask.
///
/// With 39 symbols the set fits in a `u64`. `SymSet` is the payload of
/// character-class AST nodes and of NFA transitions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymSet(pub u64);

impl SymSet {
    /// The empty set.
    pub const EMPTY: SymSet = SymSet(0);
    /// The full alphabet (what `.` matches).
    pub const ALL: SymSet = SymSet((1u64 << NSYM) - 1);

    /// Creates a singleton set from a byte.
    ///
    /// Returns `None` if the byte is outside the alphabet.
    pub fn singleton(b: u8) -> Option<SymSet> {
        sym_index(b).map(|i| SymSet(1 << i))
    }

    /// Inserts a byte into the set; returns `false` if it is outside the
    /// alphabet.
    pub fn insert(&mut self, b: u8) -> bool {
        match sym_index(b) {
            Some(i) => {
                self.0 |= 1 << i;
                true
            }
            None => false,
        }
    }

    /// Tests whether the set contains the symbol with index `idx`.
    pub fn contains_idx(&self, idx: u8) -> bool {
        self.0 & (1 << idx) != 0
    }

    /// Tests whether the set contains the byte `b`.
    pub fn contains(&self, b: u8) -> bool {
        sym_index(b).is_some_and(|i| self.contains_idx(i))
    }

    /// Returns true if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of symbols in the set.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// Set union.
    pub fn union(self, other: SymSet) -> SymSet {
        SymSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: SymSet) -> SymSet {
        SymSet(self.0 & other.0)
    }

    /// Complement with respect to the alphabet.
    pub fn complement(self) -> SymSet {
        SymSet(!self.0 & Self::ALL.0)
    }

    /// Iterates over the symbol indices in the set, ascending.
    pub fn iter_indices(self) -> impl Iterator<Item = u8> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let idx = rest.trailing_zeros() as u8;
                rest &= rest - 1;
                idx
            })
        })
    }

    /// Iterates over the bytes in the set, in symbol-index order.
    pub fn iter_bytes(self) -> impl Iterator<Item = u8> {
        self.iter_indices().map(sym_byte)
    }
}

impl std::fmt::Debug for SymSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SymSet{{")?;
        for b in self.iter_bytes() {
            write!(f, "{}", b as char)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip() {
        for (i, &b) in SYMBOLS.iter().enumerate() {
            assert_eq!(sym_index(b), Some(i as u8));
            assert_eq!(sym_byte(i as u8), b);
        }
    }

    #[test]
    fn out_of_alphabet_bytes_rejected() {
        for b in [b'A', b'!', b' ', b'\n', 0u8, 255u8] {
            assert_eq!(sym_index(b), None);
            assert_eq!(SymSet::singleton(b), None);
        }
    }

    #[test]
    fn all_set_has_nsym_symbols() {
        assert_eq!(SymSet::ALL.len() as usize, NSYM);
        assert!(SymSet::EMPTY.is_empty());
        assert!(!SymSet::ALL.is_empty());
    }

    #[test]
    fn complement_partitions_alphabet() {
        let mut s = SymSet::EMPTY;
        s.insert(b'a');
        s.insert(b'.');
        let c = s.complement();
        assert_eq!(s.intersect(c), SymSet::EMPTY);
        assert_eq!(s.union(c), SymSet::ALL);
        assert_eq!(c.len() as usize, NSYM - 2);
    }

    #[test]
    fn insert_and_contains() {
        let mut s = SymSet::EMPTY;
        assert!(s.insert(b'x'));
        assert!(s.insert(b'3'));
        assert!(!s.insert(b'!'));
        assert!(s.contains(b'x'));
        assert!(s.contains(b'3'));
        assert!(!s.contains(b'y'));
        assert!(!s.contains(b'!'));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_bytes_sorted_by_index() {
        let mut s = SymSet::EMPTY;
        s.insert(b'.');
        s.insert(b'a');
        s.insert(b'0');
        let v: Vec<u8> = s.iter_bytes().collect();
        assert_eq!(v, vec![b'a', b'0', b'.']);
    }
}
