//! Integration checks that the simulator reproduces the *shape* of the
//! paper's headline results on reduced traces (the full-scale runs live in
//! the bench harness; see EXPERIMENTS.md).

use occam::objtree::SplitMode;
use occam::sched::Policy;
use occam::sim::{run, Granularity, SimConfig, SimResult};
use occam::topology::ProductionScheme;
use occam::workload::{synthesize, TraceConfig};

fn sim(trace_cfg: &TraceConfig, granularity: Granularity, policy: Policy) -> SimResult {
    let trace = synthesize(trace_cfg);
    run(
        &SimConfig {
            granularity,
            policy,
            scheme: trace_cfg.scheme,
            split_mode: SplitMode::Split,
        },
        &trace,
    )
}

fn reduced() -> TraceConfig {
    TraceConfig {
        num_tasks: 500,
        ..TraceConfig::default()
    }
}

#[test]
fn figure8_ordering_obj_beats_dev_beats_dc() {
    let cfg = reduced();
    let dc = sim(&cfg, Granularity::Dc, Policy::Ldsf);
    let dev = sim(&cfg, Granularity::Device, Policy::Ldsf);
    let obj = sim(&cfg, Granularity::Object, Policy::Ldsf);
    let (mdc, mdev, mobj) = (
        dc.mean_completion(),
        dev.mean_completion(),
        obj.mean_completion(),
    );
    assert!(
        mobj < mdev && mdev < mdc,
        "completion ordering: obj {mobj:.1} < dev {mdev:.1} < dc {mdc:.1}"
    );
    // The paper's object-vs-DC gap is large (roughly 10x); require >= 3x
    // on the reduced trace.
    assert!(
        mdc / mobj > 3.0,
        "obj speedup over dc only {:.1}x",
        mdc / mobj
    );
    // Queue ordering (Figure 8c).
    assert!(obj.peak_queue() < dev.peak_queue());
    assert!(dev.peak_queue() < dc.peak_queue());
    // Most tasks never wait under object locking (Figure 8b).
    assert!(
        obj.zero_wait_fraction() > 0.7,
        "zero-wait fraction {:.2}",
        obj.zero_wait_fraction()
    );
    assert!(obj.zero_wait_fraction() > dc.zero_wait_fraction());
}

#[test]
fn figure9_read_heavy_narrows_dev_obj_gap() {
    let wr = TraceConfig {
        num_tasks: 400,
        ..TraceConfig::default()
    }
    .write_heavy();
    let rd = TraceConfig {
        num_tasks: 400,
        ..TraceConfig::default()
    }
    .read_heavy();
    let dev_wr = sim(&wr, Granularity::Device, Policy::Ldsf).mean_completion();
    let obj_wr = sim(&wr, Granularity::Object, Policy::Ldsf).mean_completion();
    let dev_rd = sim(&rd, Granularity::Device, Policy::Ldsf).mean_completion();
    let obj_rd = sim(&rd, Granularity::Object, Policy::Ldsf).mean_completion();
    let gap_wr = dev_wr / obj_wr;
    let gap_rd = dev_rd / obj_rd;
    assert!(
        gap_rd < gap_wr,
        "read-heavy gap {gap_rd:.2}x should shrink below write-heavy {gap_wr:.2}x"
    );
    // Read-heavy workloads complete faster overall (fewer conflicts).
    assert!(obj_rd <= obj_wr * 1.2, "{obj_rd:.1} vs {obj_wr:.1}");
}

#[test]
fn figure10_dev_locking_produces_more_objects_and_slower_sched() {
    let cfg = TraceConfig {
        num_tasks: 200,
        ..TraceConfig::default()
    };
    let dc = sim(&cfg, Granularity::Dc, Policy::Ldsf);
    let dev = sim(&cfg, Granularity::Device, Policy::Ldsf);
    let obj = sim(&cfg, Granularity::Object, Policy::Ldsf);
    let peak = |r: &SimResult| r.active_objects.iter().copied().max().unwrap_or(0);
    // Device locking produces 1-2 orders of magnitude more scheduling
    // objects than object locking.
    assert!(
        peak(&dev) as f64 / peak(&obj).max(1) as f64 > 10.0,
        "dev {} vs obj {}",
        peak(&dev),
        peak(&obj)
    );
    assert!(peak(&dc) <= 16);
    // Scheduling with fewer locks is faster: dc <= obj <= dev mean time.
    assert!(dc.mean_sched_time() <= dev.mean_sched_time());
    // All decisions computed well under the paper's 100ms bound. Wall-time
    // bounds are only meaningful on optimized builds; debug builds are an
    // order of magnitude slower.
    if !cfg!(debug_assertions) {
        assert!(
            dev.max_sched_time() < std::time::Duration::from_millis(100),
            "max sched {:?}",
            dev.max_sched_time()
        );
    }
}

#[test]
fn figure11_ldsf_beats_fifo_under_skew() {
    let cfg = TraceConfig {
        num_tasks: 400,
        ..TraceConfig::default()
    }
    .skewed();
    let fifo = sim(&cfg, Granularity::Object, Policy::Fifo);
    let ldsf = sim(&cfg, Granularity::Object, Policy::Ldsf);
    assert!(
        ldsf.mean_waiting() <= fifo.mean_waiting() * 1.02,
        "LDSF {:.1}h should not exceed FIFO {:.1}h under skewed contention",
        ldsf.mean_waiting(),
        fifo.mean_waiting()
    );
}

#[test]
fn urgent_tasks_wait_less_than_ordinary_ones() {
    let cfg = TraceConfig {
        num_tasks: 400,
        urgent_fraction: 0.05,
        ..TraceConfig::default()
    }
    .skewed();
    let trace = synthesize(&cfg);
    let r = run(
        &SimConfig {
            granularity: Granularity::Object,
            policy: Policy::Ldsf,
            scheme: cfg.scheme,
            split_mode: SplitMode::Split,
        },
        &trace,
    );
    let mean = |pred: &dyn Fn(usize) -> bool| {
        let xs: Vec<f64> = r
            .outcomes
            .iter()
            .filter(|o| pred(o.id as usize))
            .map(|o| o.waiting())
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let urgent = mean(&|i| trace[i].urgent);
    let normal = mean(&|i| !trace[i].urgent);
    assert!(
        urgent <= normal,
        "urgent mean wait {urgent:.2}h vs normal {normal:.2}h"
    );
}

#[test]
fn all_six_scheduler_configs_complete_the_meta_trace() {
    let cfg = TraceConfig {
        num_tasks: 150,
        ..TraceConfig::default()
    };
    let trace = synthesize(&cfg);
    for policy in [Policy::Fifo, Policy::Ldsf] {
        for granularity in [Granularity::Dc, Granularity::Device, Granularity::Object] {
            let r = run(
                &SimConfig {
                    granularity,
                    policy,
                    scheme: ProductionScheme::meta_scale(),
                    split_mode: SplitMode::Split,
                },
                &trace,
            );
            assert_eq!(r.outcomes.len(), 150, "{granularity:?}/{policy:?}");
            // Strict 2PL + commit: every task starts at/after arrival and
            // completes after its full duration.
            for o in &r.outcomes {
                assert!(o.start >= o.arrival - 1e-9);
                assert!(o.completion >= o.start + trace[o.id as usize].duration - 1e-9);
            }
        }
    }
}
