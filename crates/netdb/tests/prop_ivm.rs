//! Property tests for incremental view maintenance (DESIGN.md §17.3).
//!
//! The soundness contract of the view cache: an incremental refresh —
//! reusing every shard partial whose shard `Arc` is unchanged — returns
//! a report **identical** to a from-scratch recompute at the same
//! snapshot, for any commit sequence, any scope, and any assertion set.
//! The properties drive random write batches (including failed batches
//! and no-op gaps) through a live database, refreshing interleaved views
//! after every step and comparing each against [`compliance_cold`].

use occam_netdb::{attrs, compliance_cold, Assertion, Database, WriteOp};
use occam_regex::Pattern;
use proptest::prelude::*;

/// A small universe of device names so random writes collide with the
/// views' scopes meaningfully, spread across several shard prefixes.
fn arb_device() -> impl Strategy<Value = String> {
    (0u32..3, 0u32..3, 0u32..4)
        .prop_map(|(dc, pod, sw)| format!("dc{:02}.pod{:02}.sw{:02}", dc + 1, pod, sw))
}

/// Random writes against status / firmware / an untracked attribute —
/// the mix a live campaign produces.
fn arb_op() -> impl Strategy<Value = WriteOp> {
    prop_oneof![
        arb_device().prop_map(|name| WriteOp::InsertDevice {
            name,
            attrs: vec![(attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into())],
        }),
        arb_device().prop_map(|name| WriteOp::DeleteDevice { name }),
        (
            arb_device(),
            prop_oneof!["ACTIVE", "DRAINED", "UNDER_MAINTENANCE"]
        )
            .prop_map(|(name, status)| WriteOp::SetDeviceAttr {
                name,
                attr: attrs::DEVICE_STATUS.into(),
                value: status.into(),
            }),
        (arb_device(), 0i64..3).prop_map(|(name, v)| WriteOp::SetDeviceAttr {
            name,
            attr: attrs::FIRMWARE_VERSION.into(),
            value: format!("fw-{v}").into(),
        }),
        (arb_device(), 0i64..5).prop_map(|(name, v)| WriteOp::SetDeviceAttr {
            name,
            attr: "MTU".into(),
            value: v.into(),
        }),
    ]
}

/// The standing views a campaign keeps warm: a universe-wide status
/// audit, a pod-scoped status audit, and a firmware compliance check.
fn views() -> Vec<(Pattern, Vec<Assertion>)> {
    vec![
        (
            Pattern::from_glob("*").unwrap(),
            vec![Assertion::new(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE)],
        ),
        (
            Pattern::from_glob("dc01.pod0[01].*").unwrap(),
            vec![Assertion::new(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE)],
        ),
        (
            Pattern::from_glob("dc02.*").unwrap(),
            vec![
                Assertion::new(attrs::FIRMWARE_VERSION, "fw-1"),
                Assertion::new(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE),
            ],
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every commit of a random sequence, every standing view's
    /// incremental refresh equals a cold recompute at the same snapshot.
    #[test]
    fn incremental_refresh_equals_cold_recompute(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 1..5),
            0..25,
        ),
    ) {
        let db = Database::new();
        let views = views();
        for batch in batches {
            // Failures are fine; the view must track whatever committed.
            let _ = db.batch(&batch);
            let snap = db.read_view();
            for (scope, assertions) in &views {
                let warm = db.views().refresh(&snap, scope, assertions);
                let cold = compliance_cold(&snap, scope, assertions);
                prop_assert!(
                    warm.same_result(&cold),
                    "view diverged: {} vs {}",
                    warm.summary(5),
                    cold.summary(5)
                );
            }
        }
    }

    /// Refreshing twice at the same snapshot is a full cache hit — zero
    /// recomputed shards — and still exact. (The Arc pointer-equality
    /// fast path cannot go stale without a commit moving the pointer.)
    #[test]
    fn unchanged_snapshot_is_a_pure_cache_hit(
        setup in proptest::collection::vec(arb_op(), 0..30),
    ) {
        let db = Database::new();
        for op in setup {
            let _ = db.batch(std::slice::from_ref(&op));
        }
        let snap = db.read_view();
        let (scope, assertions) = &views()[0];
        let first = db.views().refresh(&snap, scope, assertions);
        let second = db.views().refresh(&snap, scope, assertions);
        prop_assert!(second.same_result(&first));
        prop_assert_eq!(second.recomputed_shards, 0);
        prop_assert_eq!(second.reused_shards, first.recomputed_shards + first.reused_shards);
        prop_assert!(second.same_result(&compliance_cold(&snap, scope, assertions)));
    }
}
