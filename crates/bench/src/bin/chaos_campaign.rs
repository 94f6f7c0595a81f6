//! Seeded chaos-campaign sweep for the recovery evaluation.
//!
//! Runs N seeded fault campaigns (see `occam-chaos`) across a fault-rate
//! sweep, re-runs the first campaign to check the byte-identical
//! determinism contract, and writes `BENCH_chaos.json` with per-campaign
//! counters: tasks attempted, completed, rolled back, retries, injected
//! faults per layer, crash points, and invariant violations (which a
//! healthy stack keeps at zero across the whole sweep — the process
//! exits non-zero otherwise).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p occam-bench --bin chaos_campaign [tasks]
//! # full sweep: seeds {11, 42, 1234} x rates {0, 0.05, 0.10, 0.15, 0.20}
//! # default 60 tasks per campaign
//!
//! cargo run --release -p occam-bench --bin chaos_campaign --smoke
//! # CI smoke: one campaign, seed 42, fault rate 10%, 100 tasks,
//! # gateway, replication, consistent-update, OCC and spec phases included
//! ```

use occam_bench::Bench;
use occam_chaos::{
    Campaign, CampaignConfig, CampaignReport, GatewayChaosConfig, OccChaosConfig, ReplChaosConfig,
    SpecChaosConfig, UpdateChaosConfig,
};

const SWEEP_SEEDS: [u64; 3] = [11, 42, 1234];
const SWEEP_RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];

fn run_campaign(seed: u64, rate: f64, tasks: u32, gateway: bool) -> CampaignReport {
    let mut cfg = CampaignConfig::at_rate(seed, rate);
    cfg.tasks = tasks;
    if gateway {
        cfg.gateway = Some(GatewayChaosConfig::default());
        // The other phases ride along with the gateway phase: all are
        // fault-rate independent (each injects its own faults), so once
        // per seed is representative.
        cfg.repl = Some(ReplChaosConfig::default());
        cfg.update = Some(UpdateChaosConfig::default());
        cfg.occ = Some(OccChaosConfig::default());
        cfg.spec = Some(SpecChaosConfig::default());
    }
    let report = Campaign::new(cfg).run();
    eprintln!(
        "seed {seed:>5} rate {rate:.2}: {} tasks, {} completed, {} rolled back, \
         {} retries, {} violations",
        report.tasks,
        report.completed,
        report.rolled_back,
        report.retries,
        report.invariant_violations
    );
    report
}

fn main() -> std::process::ExitCode {
    let mut bench = Bench::from_args("chaos");
    let smoke = bench.smoke();
    let tasks: u32 = bench
        .arg(0, "tasks")
        .unwrap_or(if smoke { 100 } else { 60 });

    let mut campaigns: Vec<CampaignReport> = Vec::new();
    if smoke {
        // The gateway connection-chaos phase rides along on the smoke
        // campaign, so CI covers every fault layer in one run.
        campaigns.push(run_campaign(42, 0.10, tasks, true));
    } else {
        for &seed in &SWEEP_SEEDS {
            for &rate in &SWEEP_RATES {
                // Attach the gateway phase once per seed (at the 10% rate);
                // it is fault-rate independent, so once is representative.
                let gateway = (rate - 0.10).abs() < f64::EPSILON;
                campaigns.push(run_campaign(seed, rate, tasks, gateway));
            }
        }
    }

    // Determinism contract: the first campaign, re-run with an identical
    // config, must serialize byte-identically.
    let first = &campaigns[0];
    let rerun = run_campaign(first.seed, first.fault_rate, tasks, first.gateway.is_some());
    let determinism_ok = rerun.to_json() == first.to_json();

    let total_violations: u64 = campaigns.iter().map(|c| c.invariant_violations).sum();
    bench.gate(
        determinism_ok,
        "identical configs produce byte-identical reports",
    );
    let first_bad = campaigns.iter().find_map(|c| c.first_violation.as_deref());
    bench.gate(
        total_violations == 0,
        format!("zero invariant violations ({total_violations}: {first_bad:?})"),
    );
    bench.finish(|w| {
        w.field("bench", "chaos_campaign")
            .field("tasks_per_campaign", tasks)
            .field("campaigns", &campaigns)
            .field("determinism_ok", determinism_ok)
            .field("total_violations", total_violations);
    })
}
