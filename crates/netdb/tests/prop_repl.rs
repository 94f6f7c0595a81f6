//! Property tests for WAL-shipping replication (DESIGN.md §14).
//!
//! The core shipping invariant: because the leader's WAL order equals its
//! publication order, **every commit-stream prefix of the shipped log
//! replays to a valid, self-checking store** — there is no interleaving a
//! follower can observe that tears a committed batch or breaks the shard
//! invariants. On top of that, incremental shipping (re-sending the log
//! from any confirmed point) must be idempotent: already-applied batches
//! are deduplicated by commit sequence, and the follower converges to a
//! byte-identical replica of the leader — same snapshot, same WAL text.
//!
//! The regression tests cover follower rejoin after a *truncated* local
//! log (a torn follower shutdown): catch-up from the surviving prefix
//! must converge without a snapshot transfer, and a truncation below a
//! snapshot-bootstrapped base must be rejected rather than silently
//! inventing history.

use occam_netdb::{check_identical, AttrValue, Database, Follower, Shipment};
use occam_obs::Registry;
use occam_regex::Pattern;
use proptest::prelude::*;
use std::time::Instant;

/// One leader-side operation in a generated workload. Invalid operations
/// (duplicate inserts, updates to missing rows) are *expected*: the
/// database rejects them without committing, so they exercise the "WAL
/// only ever grows by whole committed batches" property.
#[derive(Clone, Debug)]
enum Op {
    InsertDevice(String, i64),
    SetAttr(String, i64),
    DeleteDevice(String),
    InsertLink(String, String),
}

fn arb_name() -> impl Strategy<Value = String> {
    (0u32..3, 0u32..4).prop_map(|(pod, sw)| format!("dc01.pod{pod:02}.sw{sw:02}"))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (arb_name(), 0i64..4).prop_map(|(n, v)| Op::InsertDevice(n, v)),
        2 => (arb_name(), 0i64..4).prop_map(|(n, v)| Op::SetAttr(n, v)),
        1 => arb_name().prop_map(Op::DeleteDevice),
        1 => (arb_name(), arb_name()).prop_map(|(a, z)| Op::InsertLink(a, z)),
    ]
}

/// Applies `op` to `db`, ignoring validation rejections (they commit
/// nothing and ship nothing).
fn apply(db: &Database, op: &Op) {
    match op {
        Op::InsertDevice(n, v) => {
            let _ = db.insert_device(n, vec![("A".into(), AttrValue::Int(*v))]);
        }
        Op::SetAttr(n, v) => {
            let scope = Pattern::from_glob(n).expect("literal name is a valid glob");
            let _ = db.set_attr(&scope, "A", AttrValue::Int(*v));
        }
        Op::DeleteDevice(n) => {
            let _ = db.delete_device(n);
        }
        Op::InsertLink(a, z) => {
            let _ = db.insert_link(a, z, vec![]);
        }
    }
}

/// Ships the leader's entire WAL to `f` as one `Entries` batch starting
/// from commit 0 — the follower's sequence-number dedup must skip what it
/// already holds and apply exactly the missing suffix.
fn ship_full_log(leader: &Database, f: &Follower) {
    f.ingest(Shipment::Entries {
        first_seq: 0,
        records: leader.wal_records(),
        shipped_at: Instant::now(),
    })
    .expect("full-log shipment must apply");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every prefix of the shipped log replays to a valid self-checking
    /// store, and the full log replays to the leader's exact state.
    #[test]
    fn every_shipped_prefix_is_valid(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let leader = Database::new();
        for op in &ops {
            apply(&leader, op);
        }
        let records = leader.wal_records();
        for k in 0..=records.len() {
            let snap = occam_netdb::StoreSnapshot::replay(&records[..k]);
            prop_assert!(snap.self_check().is_ok(), "prefix {k} broke invariants");
        }
        let full = occam_netdb::StoreSnapshot::replay(&records);
        prop_assert_eq!(full, *leader.read_view());
    }

    /// Incremental shipping after every single leader commit keeps the
    /// follower in lockstep, and re-shipping the whole log at any point
    /// is idempotent (sequence-number dedup).
    #[test]
    fn incremental_shipping_converges_and_dedups(ops in proptest::collection::vec(arb_op(), 1..30)) {
        let leader = Database::new();
        let f = Follower::new(0, &Registry::new());
        for op in &ops {
            apply(&leader, op);
            ship_full_log(&leader, &f);
            prop_assert_eq!(f.commits(), leader.commits());
        }
        // A gratuitous re-ship changes nothing.
        ship_full_log(&leader, &f);
        prop_assert_eq!(f.commits(), leader.commits());
        prop_assert!(check_identical(&f.db().read_view(), &leader.read_view()).is_ok());
        prop_assert_eq!(f.db().dump_wal(), leader.dump_wal());
    }

    /// A follower that loses a suffix of its log (torn shutdown) and
    /// rejoins catches back up from its surviving prefix and converges
    /// byte-identically — the follower-rejoin-after-truncation contract.
    #[test]
    fn truncated_follower_rejoins_and_converges(
        ops in proptest::collection::vec(arb_op(), 2..30),
        keep_pct in 0u64..100,
    ) {
        let leader = Database::new();
        let f = Follower::new(0, &Registry::new());
        for op in &ops {
            apply(&leader, op);
        }
        ship_full_log(&leader, &f);
        let total = f.commits();
        let keep = total * keep_pct / 100;
        f.truncate_to_commits(keep).expect("truncate surviving prefix");
        prop_assert_eq!(f.commits(), keep);
        prop_assert!(f.db().read_view().self_check().is_ok(), "truncated state must be valid");
        ship_full_log(&leader, &f);
        prop_assert_eq!(f.commits(), total);
        prop_assert!(check_identical(&f.db().read_view(), &leader.read_view()).is_ok());
        prop_assert_eq!(f.db().dump_wal(), leader.dump_wal());
    }
}

/// Truncation is only meaningful for a follower that holds its history
/// from commit 0; a snapshot-bootstrapped replica has no prefix to keep
/// and must refuse instead of fabricating one.
#[test]
fn truncation_below_snapshot_base_is_rejected() {
    let origin = Database::new();
    for i in 0..5 {
        origin
            .insert_device(&format!("dc01.pod00.sw{i:02}"), vec![])
            .unwrap();
    }
    let f = Follower::new(3, &Registry::new());
    let origin = origin.read_view();
    f.ingest(Shipment::Snapshot {
        base_commits: origin.commits(),
        snap: origin.into_snapshot(),
        shipped_at: Instant::now(),
    })
    .unwrap();
    assert_eq!(f.commits(), 5);
    assert!(
        f.truncate_to_commits(2).is_err(),
        "snapshot-bootstrapped follower cannot truncate below its base"
    );
}

/// A crash-reset follower (total state loss) re-bootstraps from a full
/// log ship and ends byte-identical — rejoin without surviving state.
#[test]
fn crash_reset_follower_rebootstraps_from_log() {
    let leader = Database::new();
    for i in 0..8 {
        leader
            .insert_device(&format!("dc01.pod01.sw{i:02}"), vec![])
            .unwrap();
    }
    let f = Follower::new(1, &Registry::new());
    ship_full_log(&leader, &f);
    assert_eq!(f.commits(), 8);
    f.crash_reset();
    assert_eq!(f.commits(), 0);
    ship_full_log(&leader, &f);
    assert_eq!(f.commits(), 8);
    check_identical(&f.db().read_view(), &leader.read_view()).unwrap();
    assert_eq!(f.db().dump_wal(), leader.dump_wal());
}
