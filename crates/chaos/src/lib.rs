//! # occam-chaos
//!
//! Deterministic, seeded fault campaigns over the full Occam stack
//! (DESIGN.md §11).
//!
//! The runtime's reliability story — strict-2PL isolation, typed
//! execution logs, suggested rollback plans, and (new with this crate's
//! PR) transient-fault retry with inter-attempt rollback — is only worth
//! what it survives. A **campaign** ([`Campaign`]) arms seeded fault
//! injectors at *every* stateful boundary and drives a seeded stream of
//! management tasks through them:
//!
//! | layer   | fault                                        | mechanism |
//! |---------|----------------------------------------------|-----------|
//! | netdb   | query connection failures                    | [`occam_netdb::FaultPlan`] on the database |
//! | devices | injected call failures, latency spikes, wedged ("stuck") devices | [`occam_emunet::FaultyService`] shim |
//! | storage | crash points: WAL dump → recover → compare; torn-prefix replay | [`occam_netdb::Database::recover`] |
//! | gateway | connections dropped mid-frame; clients vanishing after SUBMIT | raw loopback sockets against a live [`occam_gateway::GatewayServer`] |
//! | replication | leader killed mid-commit; followers partitioned mid-catch-up; crash-and-rejoin | live [`occam_netdb::ReplicaSet`] with deterministic failover |
//! | isolation | mixed OCC/2PL writers contending on one row; OCC fallback under device faults | [`occam_core::Isolation::Occ`] tasks with an [`occam_cert::Certifier`] attached |
//! | specs   | declarative specs killed mid-execution; compliance-view convergence cross-checked against cold recomputes | compiled [`occam_spec`] programs over the netdb view cache |
//!
//! After every task the campaign asserts the paper's recovery contract:
//! completed tasks satisfy their scenario postcondition (*fully
//! applied*), aborted tasks — after mechanically executing the suggested
//! rollback plan — leave database and devices byte-identical to the
//! pre-task snapshot (*fully rolled back*). Anything else counts into
//! `chaos.invariant.violations`, which a healthy stack keeps at **zero**
//! across the whole fault-rate sweep.
//!
//! Campaigns are deterministic: identical [`CampaignConfig`]s yield
//! byte-identical [`CampaignReport`] JSON. See `DESIGN.md` §11 for the
//! campaign model and fault taxonomy.
//!
//! ```
//! use occam_chaos::{Campaign, CampaignConfig};
//!
//! let mut cfg = CampaignConfig::at_rate(7, 0.10);
//! cfg.tasks = 8;
//! let report = Campaign::new(cfg).run();
//! assert_eq!(report.invariant_violations, 0);
//! assert_eq!(report.completed + report.rolled_back, 8);
//! ```

pub mod campaign;
pub mod gateway;
pub mod occ;
pub mod repl;
pub mod report;
pub mod scenario;
pub mod snapshot;
pub mod spec;
mod substrate;
pub mod update;

pub use campaign::{Campaign, CampaignConfig};
pub use gateway::{run_gateway_phase, GatewayChaosConfig};
pub use occ::{run_occ_phase, OccChaosConfig};
pub use repl::{run_repl_phase, ReplChaosConfig};
pub use report::{
    CampaignReport, GatewayChaosReport, OccChaosReport, ReplChaosReport, SpecChaosReport,
    UpdateChaosReport,
};
pub use scenario::{Scenario, ScenarioKind};
pub use snapshot::{DeviceFingerprint, StateSnapshot};
pub use spec::{run_spec_phase, SpecChaosConfig};
pub use update::{run_update_phase, UpdateChaosConfig};
