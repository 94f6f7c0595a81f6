//! Consistent-update synthesis bench (DESIGN.md §15).
//!
//! Plans one fabric-wide change over a single production-scale fat-tree:
//! a firmware push on every aggregation and core switch plus a
//! database-only generation bump on every ToR. Measures the three
//! planner phases — config diff, counterexample-guided wave synthesis,
//! independent plan verification — and compares the synthesized plan's
//! serial length against the naive one-device-per-wave ordering.
//!
//! Two hard gates (both modes, process exits non-zero otherwise):
//!
//! - independent verification finds **zero** violations in the plan;
//! - the naive ordering needs at least **2×** as many serial waves as
//!   the synthesized plan.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p occam-bench --bin update_bench
//! # full scale: k=82 fat-tree, 146,247 devices (8,405 switches)
//!
//! cargo run --release -p occam-bench --bin update_bench -- --smoke
//! # CI smoke: k=8 fat-tree, same gates
//! ```

use occam::netdb::{attrs, StoreSnapshot, WalRecord};
use occam::obs::json::Fixed;
use occam::regex::Pattern;
use occam::topology::{FatTree, Role};
use occam::update::{diff, Synthesizer, TrafficClass};
use occam_bench::Bench;
use std::time::Instant;

/// Replays the fabric's switch inventory into a scratch store: every
/// non-host device `ACTIVE` on the baseline firmware.
fn baseline_records(ft: &FatTree) -> Vec<WalRecord> {
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

fn main() -> std::process::ExitCode {
    let mut bench = Bench::from_args("update");
    let smoke = bench.smoke();
    let k: u32 = if smoke { 8 } else { 82 };
    let ft = FatTree::build(1, k).expect("valid fat-tree arity");
    let devices = ft.topo.devices().count();
    let switches = ft
        .topo
        .devices()
        .filter(|(_, d)| d.role != Role::Host)
        .count();
    eprintln!("fat-tree k={k}: {devices} devices, {switches} switches");

    // Current config, and the target: new firmware on every agg and
    // core, a database-only generation bump on every ToR.
    let base = baseline_records(&ft);
    let old = StoreSnapshot::replay(&base);
    let agg_scope = Pattern::from_glob("dc01.pod*.agg*").expect("glob");
    let core_scope = Pattern::from_glob("dc01.core.*").expect("glob");
    let mut records = base.clone();
    let fw_targets: Vec<String> = old
        .select_devices(&agg_scope)
        .into_iter()
        .chain(old.select_devices(&core_scope))
        .collect();
    for name in fw_targets {
        records.push(WalRecord::SetDeviceAttr {
            name: name.clone(),
            attr: attrs::FIRMWARE_VERSION.into(),
            value: "fw-2.0.0".into(),
        });
        records.push(WalRecord::SetDeviceAttr {
            name: name.clone(),
            attr: attrs::FIRMWARE_BINARY.into(),
            value: "img-fw-2.0.0".into(),
        });
        records.push(WalRecord::SetDeviceAttr {
            name,
            attr: "CONFIG_VERSION".into(),
            value: "g2".into(),
        });
    }
    let tor_scope = Pattern::from_glob("dc01.pod*.tor*").expect("glob");
    for name in old.select_devices(&tor_scope) {
        records.push(WalRecord::SetDeviceAttr {
            name,
            attr: "MGMT_GENERATION".into(),
            value: "g2".into(),
        });
    }
    let target = StoreSnapshot::replay(&records);

    let started = Instant::now();
    let ops = diff(&old, &target);
    let diff_ms = started.elapsed().as_secs_f64() * 1e3;
    let naive_waves = ops.len();
    eprintln!("diff: {naive_waves} ops in {diff_ms:.1} ms");

    // Cross-pod traffic classes pin ECMP paths through the upgraded
    // aggs and cores, so the planner must stagger the drains.
    let pods = ft.aggs.len();
    let classes: Vec<TrafficClass> = (0..pods.min(8))
        .map(|p| {
            let q = (p + 1) % pods;
            TrafficClass::pair(
                format!("pod{p}-pod{q}"),
                ft.hosts[p][0][0],
                ft.hosts[q][1][0],
                p as u64,
            )
        })
        .collect();

    let synth = Synthesizer::new(&ft.topo, &classes).with_seed(42);
    let started = Instant::now();
    let (plan, stats) = synth.synthesize_with_stats(&ops).expect("feasible plan");
    let synth_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let violations = synth.verify(&plan);
    let verify_ms = started.elapsed().as_secs_f64() * 1e3;
    let reduction = naive_waves as f64 / plan.serial_len().max(1) as f64;
    eprintln!(
        "synthesized {} waves for {} ops in {synth_ms:.1} ms \
         ({} checks, {} splits, {} barriers); verified in {verify_ms:.1} ms, \
         {} violations; naive ordering {naive_waves} waves ({reduction:.0}x reduction)",
        plan.serial_len(),
        stats.ops,
        stats.checks,
        stats.splits,
        stats.barriers,
        violations.len(),
    );

    bench.gate(
        violations.is_empty(),
        format!("synthesized plan passes independent verification ({violations:?})"),
    );
    bench.gate(
        naive_waves >= 2 * plan.serial_len(),
        format!(
            "naive ordering needs >=2x the serial waves ({naive_waves} vs {})",
            plan.serial_len()
        ),
    );
    bench.finish(|w| {
        w.field("bench", "update_bench")
            .field("k", k)
            .field("devices", devices)
            .field("switches", switches)
            .field("classes", classes.len())
            .field("ops", stats.ops)
            .field("synth_waves", plan.serial_len())
            .field("naive_waves", naive_waves)
            .field("wave_reduction", Fixed(reduction, 2))
            .field("checks", stats.checks)
            .field("splits", stats.splits)
            .field("barriers", stats.barriers)
            .field("counterexamples", stats.counterexamples)
            .field("diff_ms", Fixed(diff_ms, 3))
            .field("synth_ms", Fixed(synth_ms, 3))
            .field("verify_ms", Fixed(verify_ms, 3))
            .field("verify_violations", violations.len());
    })
}
