//! The one consistent read of a [`Database`](crate::Database).
//!
//! A [`ReadView`] is a handle on one published version of the store that
//! also knows its commit count, its per-shard version vector, and where
//! it was served from — so OCC validation, serializability
//! certification, and follower-staleness accounting all consume the same
//! thing. Every consistent read is a `ReadView`; three entry points
//! return one:
//!
//! - [`Database::read_view`](crate::Database::read_view) — infallible,
//!   bypasses the fault injector. For code that observes the system
//!   rather than acting in it: invariant checkers, replication, benches.
//! - [`Database::query_read_view`](crate::Database::query_read_view) —
//!   the same handle taken *as a query*: counted under `netdb.queries`
//!   and `netdb.shard.read_lock_free`, timed, and subject to the fault
//!   injector. For a task's reads. The two stay separate because a
//!   checker that paused the injector instead would shift the fault
//!   sequence that chaos determinism is byte-compared on.
//! - [`ReadRouter::read_view`](crate::ReadRouter::read_view) — a query
//!   served by a follower within the staleness bound (or the leader),
//!   tagged with its [`ReadSource`].
//!
//! The per-query reads on `Database` (`select_devices`, `get_attr`, …)
//! are each one `query_read_view` read with one lookup.

use crate::replica::router::ReadSource;
use crate::shard::StoreSnapshot;
use std::ops::Deref;

/// A consistent point-in-time read handle over the network database.
///
/// Dereferences to [`StoreSnapshot`], so the whole snapshot read API
/// (`select_devices`, `get_attr`, `links_touching`, …) is available
/// directly. On top of the raw snapshot it knows:
///
/// - [`ReadView::commits`] — the WAL commit count the view contains,
///   placing every read served from it exactly in the commit order;
/// - [`ReadView::shard_versions`] — the per-shard monotonic versions OCC
///   validation compares against the published state at commit time;
/// - [`ReadView::source`] — leader or follower, for staleness
///   accounting on routed reads.
#[derive(Clone, Debug)]
pub struct ReadView {
    snapshot: StoreSnapshot,
    source: ReadSource,
}

impl ReadView {
    /// Wraps a snapshot with its serving source.
    pub fn new(snapshot: StoreSnapshot, source: ReadSource) -> ReadView {
        ReadView { snapshot, source }
    }

    /// The underlying snapshot, by reference.
    pub fn snapshot(&self) -> &StoreSnapshot {
        &self.snapshot
    }

    /// Unwraps the underlying snapshot.
    pub fn into_snapshot(self) -> StoreSnapshot {
        self.snapshot
    }

    /// Where this view was served from (leader, or a follower replica).
    pub fn source(&self) -> ReadSource {
        self.source
    }

    /// Number of committed batches folded into this view — its exact
    /// position in the global commit order.
    pub fn commits(&self) -> u64 {
        self.snapshot.commits()
    }

    /// The per-shard version vector of this view (see
    /// [`StoreSnapshot::shard_versions`]).
    pub fn shard_versions(&self) -> &[u64] {
        self.snapshot.shard_versions()
    }
}

/// Views are equal when they hold the same store contents, wherever and
/// whenever they were served (the [`StoreSnapshot`] equality).
impl PartialEq for ReadView {
    fn eq(&self, other: &ReadView) -> bool {
        self.snapshot == other.snapshot
    }
}

impl Deref for ReadView {
    type Target = StoreSnapshot;

    fn deref(&self) -> &StoreSnapshot {
        &self.snapshot
    }
}

#[cfg(test)]
mod tests {
    use crate::db::Database;
    use crate::replica::router::ReadSource;
    use occam_regex::Pattern;

    #[test]
    fn read_view_carries_commit_position_and_versions() {
        let db = Database::new();
        db.insert_device("dc01.pod00.sw00", vec![]).unwrap();
        db.insert_device("dc01.pod00.sw01", vec![]).unwrap();
        let view = db.read_view();
        assert_eq!(view.source(), ReadSource::Leader);
        assert_eq!(view.commits(), 2);
        assert_eq!(
            view.select_devices(&Pattern::from_glob("dc01.*").unwrap())
                .len(),
            2
        );
        let before = view.shard_versions().to_vec();
        db.insert_device("dc01.pod00.sw02", vec![]).unwrap();
        // The old view is frozen; the new view's touched shard moved on.
        assert_eq!(view.shard_versions(), before.as_slice());
        let after = db.read_view();
        assert_eq!(after.commits(), 3);
        assert!(after
            .shard_versions()
            .iter()
            .zip(before.iter())
            .any(|(a, b)| a > b));
    }
}
