//! Property tests for the update planner (DESIGN.md §15).
//!
//! Three properties over randomly generated fabric-wide changes:
//!
//! - **Subset soundness** — the synthesizer model-checks each wave with
//!   *all* its devices drained / in flux, but physically a wave drains
//!   and rewrites devices one at a time. Every partially-drained and
//!   partially-rewritten intermediate state (any subset of the wave)
//!   must also satisfy the invariants, and every operation must appear
//!   in exactly one wave.
//! - **Abort-prefix grammar conformance** — the program the executor
//!   lowers each wave to (`lower_wave`, the steps it actually runs),
//!   aborted after any step, leaves an execution log that the rollback
//!   grammar (Table 1) parses, so a mechanical rollback plan always
//!   exists.
//! - **Determinism** — synthesis is a pure function of `(ops, seed)`,
//!   and plans under different seeds still verify clean.

use occam_core::steps::check_abort_prefixes;
use occam_netdb::{attrs, AttrValue, StoreSnapshot, WalRecord};
use occam_topology::{FatTree, Role};
use occam_update::{diff, lower_wave, Synthesizer, TrafficClass, UpdateOp};
use proptest::prelude::*;

fn fabric() -> FatTree {
    FatTree::build(1, 4).expect("valid fat-tree arity")
}

/// Cross-pod classes covering every pod as an endpoint, so draining a
/// whole pod's aggregation layer is always a counterexample.
fn classes(ft: &FatTree) -> Vec<TrafficClass> {
    (0..3)
        .map(|p| {
            TrafficClass::pair(
                format!("pod{p}-pod{}", p + 1),
                ft.hosts[p][0][0],
                ft.hosts[p + 1][1][0],
                p as u64,
            )
        })
        .collect()
}

/// The switch inventory, all `ACTIVE` on the baseline firmware.
fn baseline(ft: &FatTree) -> Vec<WalRecord> {
    ft.topo
        .devices()
        .filter(|(_, d)| d.role != Role::Host)
        .map(|(_, d)| WalRecord::InsertDevice {
            name: d.name.clone(),
            attrs: vec![
                (attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into()),
                (attrs::FIRMWARE_VERSION.into(), "fw-1.0.0".into()),
            ],
        })
        .collect()
}

/// Builds the diff for a random change: a firmware push on the
/// mask-selected aggs and cores, a database-only generation bump on the
/// mask-selected ToRs.
fn ops_for_masks(ft: &FatTree, push_mask: u64, db_mask: u64) -> Vec<UpdateOp> {
    let base = baseline(ft);
    let old = StoreSnapshot::replay(&base);
    let mut records = base;
    let pushable: Vec<String> = ft
        .aggs
        .iter()
        .flatten()
        .chain(ft.cores.iter())
        .map(|id| ft.topo.device(*id).name.clone())
        .collect();
    for (i, name) in pushable.iter().enumerate() {
        if push_mask & (1 << (i % 64)) == 0 {
            continue;
        }
        records.push(WalRecord::SetDeviceAttr {
            name: name.clone(),
            attr: attrs::FIRMWARE_VERSION.into(),
            value: "fw-2.0.0".into(),
        });
        records.push(WalRecord::SetDeviceAttr {
            name: name.clone(),
            attr: attrs::CONFIG_VERSION.into(),
            value: "g2".into(),
        });
    }
    let tors: Vec<String> = ft
        .tors
        .iter()
        .flatten()
        .map(|id| ft.topo.device(*id).name.clone())
        .collect();
    for (i, name) in tors.iter().enumerate() {
        if db_mask & (1 << (i % 64)) == 0 {
            continue;
        }
        records.push(WalRecord::SetDeviceAttr {
            name: name.clone(),
            attr: "MGMT_GENERATION".into(),
            value: "g2".into(),
        });
    }
    diff(&old, &StoreSnapshot::replay(&records))
}

proptest! {
    /// Every physical intermediate of every wave — any subset drained
    /// during the barrier, any subset rewritten during the push — holds
    /// the invariants, and the plan covers each op exactly once.
    #[test]
    fn plans_are_sound_under_partial_wave_states(
        push_mask in any::<u64>(),
        db_mask in any::<u64>(),
        seed in any::<u64>(),
        subset_mask in any::<u64>(),
    ) {
        let ft = fabric();
        let classes = classes(&ft);
        let ops = ops_for_masks(&ft, push_mask, db_mask);
        let synth = Synthesizer::new(&ft.topo, &classes).with_seed(seed);
        let plan = synth.synthesize(&ops).expect("feasible plan");
        prop_assert!(synth.verify(&plan).is_empty());

        // Coverage: every input op lands in exactly one wave.
        let mut planned: Vec<&str> = plan
            .waves
            .iter()
            .flat_map(|w| w.ops.iter().map(|o| o.device.as_str()))
            .collect();
        planned.sort_unstable();
        let mut wanted: Vec<&str> = ops.iter().map(|o| o.device.as_str()).collect();
        wanted.sort_unstable();
        prop_assert_eq!(planned, wanted);

        // Partial-state soundness, replayed on the verifier's model.
        use occam_update::{Checker, ModelState};
        let checker = Checker::new(&ft.topo, &classes);
        let mut model = ModelState::default();
        for wave in &plan.waves {
            let ids: Vec<_> = wave
                .ops
                .iter()
                .filter_map(|o| ft.topo.device_by_name(&o.device))
                .collect();
            let chosen: Vec<_> = ids
                .iter()
                .enumerate()
                .filter(|(i, _)| subset_mask & (1 << (i % 64)) != 0)
                .map(|(_, id)| *id)
                .collect();
            if wave.barrier {
                // Mid-drain: a subset is already routed around, nothing
                // is being rewritten yet.
                let mut mid = model.clone();
                mid.drained.extend(chosen.iter().copied());
                prop_assert!(checker.check(&mid).is_empty());
                // Mid-push: the whole wave is drained, a subset is being
                // rewritten.
                let mut mid = model.clone();
                mid.drained.extend(ids.iter().copied());
                mid.in_flux.extend(chosen.iter().copied());
                prop_assert!(checker.check(&mid).is_empty());
            }
            // Post-wave boundary: everything back in service.
            for (op, id) in wave.ops.iter().zip(&ids) {
                model.in_flux.remove(id);
                let parked = matches!(
                    op.target_status().and_then(AttrValue::as_str),
                    Some(attrs::STATUS_DRAINED) | Some(attrs::STATUS_UNDER_MAINTENANCE)
                );
                if parked {
                    model.drained.insert(*id);
                } else {
                    model.drained.remove(id);
                }
            }
            prop_assert!(checker.check(&model).is_empty());
        }
    }

    /// A wave aborted after any step leaves a log the rollback grammar
    /// parses — including with the final entry marked failed, which is
    /// the shape `into_report` hands to the rollback planner.
    #[test]
    fn every_abort_prefix_of_a_wave_log_parses(
        push_mask in any::<u64>(),
        db_mask in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let ft = fabric();
        let classes = classes(&ft);
        let ops = ops_for_masks(&ft, push_mask, db_mask);
        let plan = Synthesizer::new(&ft.topo, &classes)
            .with_seed(seed)
            .synthesize(&ops)
            .expect("feasible plan");
        for wave in &plan.waves {
            let steps = lower_wave(wave);
            let proof = check_abort_prefixes(&steps);
            prop_assert!(proof.is_ok(), "{proof:?} in {steps:?}");
        }
    }

    /// Synthesis is a pure function of `(ops, seed)`; any seed's plan
    /// verifies clean.
    #[test]
    fn plans_are_deterministic_per_seed(
        push_mask in any::<u64>(),
        db_mask in any::<u64>(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let ft = fabric();
        let classes = classes(&ft);
        let ops = ops_for_masks(&ft, push_mask, db_mask);
        let synth_a = Synthesizer::new(&ft.topo, &classes).with_seed(seed_a);
        let once = synth_a.synthesize(&ops).expect("feasible plan");
        let again = synth_a.synthesize(&ops).expect("feasible plan");
        prop_assert_eq!(&once, &again);
        let synth_b = Synthesizer::new(&ft.topo, &classes).with_seed(seed_b);
        let other = synth_b.synthesize(&ops).expect("feasible plan");
        prop_assert!(synth_b.verify(&other).is_empty());
        prop_assert_eq!(other.num_ops(), ops.len());
    }
}
