//! Scoped-read routing: serve consistent read views from any caught-up
//! follower, falling back to the leader when every follower is stale.

use super::{Follower, ReplObs};
use crate::db::Database;
use crate::error::DbResult;
use crate::view::ReadView;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Routes consistent reads across a replica set.
///
/// Every read picks the next follower round-robin; a follower serves the
/// read iff its lag (leader commits minus follower commits, measured at
/// routing time) is within `max_lag`. If no follower qualifies the read
/// falls back to the leader, counted under
/// `netdb.repl.reads.stale_fallback`. The lag of every follower-served
/// read is recorded in `netdb.repl.read_lag_commits` — the surfaced
/// staleness bound.
#[derive(Debug)]
pub struct ReadRouter {
    leader: Arc<Database>,
    followers: Vec<Arc<Follower>>,
    max_lag: u64,
    next: AtomicUsize,
    obs: ReplObs,
}

impl ReadRouter {
    /// Builds a router. Crate-internal: use [`super::ReplicaSet::router`].
    pub(crate) fn new(
        leader: Arc<Database>,
        followers: Vec<Arc<Follower>>,
        max_lag: u64,
        obs: ReplObs,
    ) -> ReadRouter {
        ReadRouter {
            leader,
            followers,
            max_lag,
            next: AtomicUsize::new(0),
            obs,
        }
    }

    /// The configured staleness bound, in commits.
    pub fn max_lag(&self) -> u64 {
        self.max_lag
    }

    /// Serves one consistent read as a [`ReadView`], preferring a
    /// caught-up follower; [`ReadView::source`] says where it was served
    /// from. Counted, timed and fault-checked by the serving database
    /// like [`Database::query_read_view`].
    pub fn read_view(&self) -> DbResult<ReadView> {
        let leader_commits = self.leader.commits();
        let n = self.followers.len();
        if n > 0 {
            let start = self.next.fetch_add(1, Ordering::Relaxed);
            for i in 0..n {
                let f = &self.followers[(start + i) % n];
                let lag = leader_commits.saturating_sub(f.commits());
                if lag <= self.max_lag {
                    self.obs.reads_follower.inc();
                    self.obs.read_lag_commits.record(lag);
                    let view = f.db().query_read_view()?;
                    return Ok(ReadView::new(
                        view.into_snapshot(),
                        ReadSource::Follower(f.id()),
                    ));
                }
            }
            self.obs.reads_stale.inc();
        }
        self.obs.reads_leader.inc();
        self.leader.query_read_view()
    }
}

/// Where a routed read was served from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadSource {
    /// Served by the follower with this id.
    Follower(u32),
    /// Served by the leader (no follower within the staleness bound, or
    /// no followers configured).
    Leader,
}

#[cfg(test)]
mod tests {
    use super::super::follower::Shipment;
    use super::*;
    use occam_obs::Registry;
    use std::time::Instant;

    fn synced_follower(id: u32, leader: &Database, reg: &Registry) -> Arc<Follower> {
        let f = Arc::new(Follower::new(id, reg));
        f.ingest(Shipment::Entries {
            first_seq: 0,
            records: leader.wal_records(),
            shipped_at: Instant::now(),
        })
        .unwrap();
        f
    }

    #[test]
    fn routes_to_caught_up_follower_round_robin() {
        let reg = Registry::new();
        let leader = Arc::new(Database::with_obs(&reg));
        leader.insert_device("d0", vec![]).unwrap();
        let followers = vec![
            synced_follower(0, &leader, &reg),
            synced_follower(1, &leader, &reg),
        ];
        let obs = ReplObs::bound(&reg);
        let router = ReadRouter::new(Arc::clone(&leader), followers, 0, obs);
        let s0 = router.read_view().unwrap().source();
        let s1 = router.read_view().unwrap().source();
        assert_ne!(s0, s1, "round-robin should alternate followers");
        assert!(matches!(s0, ReadSource::Follower(_)));
        assert_eq!(reg.counter_value("netdb.repl.reads.follower"), 2);
    }

    #[test]
    fn stale_followers_fall_back_to_leader() {
        let reg = Registry::new();
        let leader = Arc::new(Database::with_obs(&reg));
        leader.insert_device("d0", vec![]).unwrap();
        let followers = vec![synced_follower(0, &leader, &reg)];
        // New commits the follower never sees.
        leader.insert_device("d1", vec![]).unwrap();
        let obs = ReplObs::bound(&reg);
        let router = ReadRouter::new(Arc::clone(&leader), followers, 0, obs);
        let view = router.read_view().unwrap();
        assert_eq!(view.source(), ReadSource::Leader);
        assert_eq!(view, leader.read_view());
        assert_eq!(reg.counter_value("netdb.repl.reads.stale_fallback"), 1);
        assert_eq!(reg.counter_value("netdb.repl.reads.leader"), 1);
    }

    #[test]
    fn lag_within_bound_still_served_by_follower() {
        let reg = Registry::new();
        let leader = Arc::new(Database::with_obs(&reg));
        leader.insert_device("d0", vec![]).unwrap();
        let followers = vec![synced_follower(0, &leader, &reg)];
        leader.insert_device("d1", vec![]).unwrap();
        let obs = ReplObs::bound(&reg);
        let router = ReadRouter::new(Arc::clone(&leader), followers, 8, obs);
        let view = router.read_view().unwrap();
        assert_eq!(view.source(), ReadSource::Follower(0));
        // The served view is consistent but one commit behind.
        assert!(!view.device_exists("d1"));
    }
}
