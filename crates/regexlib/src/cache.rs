//! A cache for compiled patterns.
//!
//! The paper (§7) notes that the Occam runtime "caches frequently-used
//! regexes and their translated automata", and the runtime funnels all
//! pattern construction through a [`PatternCache`]. With the symbol-class
//! kernel a scope glob compiles in ~20 µs (it was ~250 µs), so the cache is
//! no longer what keeps a scope stream wider than its capacity affordable.
//! What it is for: a repeated scope costs a lookup instead of a compile,
//! and every holder of one scope shares one compiled [`Pattern`] — and so
//! one memoized fingerprint, which is what the object tree's relation
//! cache keys on.

use crate::parser::ParseError;
use crate::pattern::Pattern;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};

/// Cache hit/miss counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups served from the cache.
    pub hits: u64,
    /// Number of lookups that had to compile.
    pub misses: u64,
    /// Number of entries evicted to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    pattern: Pattern,
    last_used: u64,
}

struct Inner {
    map: HashMap<String, Entry>,
    /// `last_used` → key, one per entry: ticks are unique, so the first
    /// entry is the least recently used one.
    by_tick: BTreeMap<u64, String>,
    tick: u64,
    stats: CacheStats,
}

impl Inner {
    /// Advances the clock; if `regex` is cached, stamps it most recently
    /// used and returns its pattern.
    fn touch(&mut self, regex: &str) -> Option<Pattern> {
        self.tick += 1;
        let e = self.map.get_mut(regex)?;
        let key = self
            .by_tick
            .remove(&e.last_used)
            .expect("every entry is indexed by its tick");
        e.last_used = self.tick;
        self.by_tick.insert(self.tick, key);
        Some(e.pattern.clone())
    }
}

/// A bounded, thread-safe cache from regex source to compiled [`Pattern`].
///
/// Eviction is least-recently-used, implemented with a logical clock and
/// an index ordered by it, so a lookup costs O(log n) under the lock
/// whether or not the cache is full.
pub struct PatternCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PatternCache {
    /// Creates a cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> PatternCache {
        PatternCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                by_tick: BTreeMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// Fetches the compiled pattern for `regex`, compiling on miss.
    pub fn get(&self, regex: &str) -> Result<Pattern, ParseError> {
        {
            let mut inner = self.inner.lock();
            if let Some(p) = inner.touch(regex) {
                inner.stats.hits += 1;
                return Ok(p);
            }
            inner.stats.misses += 1;
        }
        // Compile outside the lock: other threads should not serialize
        // behind it.
        let pattern = Pattern::new(regex)?;
        let mut inner = self.inner.lock();
        // Recheck under the lock: another thread may have compiled and
        // inserted the same key while we were compiling. Keep the existing
        // entry — clones of it elsewhere share its memoized fingerprint —
        // and do not evict for a key that needs no new slot.
        if let Some(p) = inner.touch(regex) {
            return Ok(p);
        }
        if inner.map.len() >= self.capacity {
            if let Some((_, oldest)) = inner.by_tick.pop_first() {
                inner.map.remove(&oldest);
                inner.stats.evictions += 1;
            }
        }
        let tick = inner.tick;
        inner.by_tick.insert(tick, regex.to_string());
        inner.map.insert(
            regex.to_string(),
            Entry {
                pattern: pattern.clone(),
                last_used: tick,
            },
        );
        Ok(pattern)
    }

    /// Fetches the compiled pattern for a glob-style scope; it shares the
    /// entry of the regex the glob translates to.
    pub fn get_glob(&self, glob: &str) -> Result<Pattern, ParseError> {
        self.get(&crate::parser::glob_to_regex(glob))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Returns true if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (counters are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.by_tick.clear();
    }
}

impl Default for PatternCache {
    /// A cache sized for a typical runtime: 4096 scopes.
    fn default() -> Self {
        PatternCache::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_counting() {
        let cache = PatternCache::new(16);
        cache.get(r"dc1\..*").unwrap();
        cache.get(r"dc1\..*").unwrap();
        cache.get(r"dc2\..*").unwrap();
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert!((s.hit_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction() {
        let cache = PatternCache::new(2);
        cache.get("a").unwrap();
        cache.get("b").unwrap();
        cache.get("a").unwrap(); // refresh a
        cache.get("c").unwrap(); // evicts b
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        cache.get("a").unwrap(); // still cached
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn parse_errors_propagate_and_do_not_cache() {
        let cache = PatternCache::new(4);
        assert!(cache.get("(").is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn glob_lookup_shares_entries_with_regex_form() {
        let cache = PatternCache::new(4);
        cache.get_glob("dc1.*").unwrap();
        cache.get(r"dc1\..*").unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn racing_compiles_of_one_key_do_not_evict_or_clobber() {
        use std::sync::Arc;
        // Full cache + many threads racing on the same new key: the losers
        // of the compile race must adopt the winner's entry, not evict for
        // a slot the key already owns.
        let cache = Arc::new(PatternCache::new(2));
        cache.get("a").unwrap();
        cache.get("b").unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                c.get(r"dc1\.pod[0-9]\..*").unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1, "one slot freed, exactly once");
    }

    #[test]
    fn glob_lookups_hit_until_cleared() {
        let cache = PatternCache::new(4);
        cache.get_glob("dc1.pod3.*").unwrap();
        cache.get_glob("dc1.pod3.*").unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        cache.clear();
        assert!(cache.is_empty());
        cache.get_glob("dc1.pod3.*").unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let cache = Arc::new(PatternCache::new(64));
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let re = format!(r"dc{}\.pod{}\..*", t % 4, i % 10);
                    assert!(c.get(&re).is_ok());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 400);
    }
}
