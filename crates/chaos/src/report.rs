//! Campaign outcome accounting.
//!
//! Reports are fully deterministic for a given `(config, seed)`: they
//! carry counters only — no wall-clock times, no host-dependent values —
//! so byte-identical JSON across runs is the campaign determinism
//! contract the tests and the bench harness assert.

/// Outcome of the gateway connection-chaos phase.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct GatewayChaosReport {
    /// Submission slots the phase attempted (normal + chaotic).
    pub submissions: u64,
    /// Submissions the engine admitted.
    pub accepted: u64,
    /// Admitted tasks that reached `Completed`.
    pub completed: u64,
    /// Connections dropped mid-frame (partial SUBMIT, then reset).
    pub partial_drops: u64,
    /// Connections dropped after a full SUBMIT, before reading the reply.
    pub vanish_drops: u64,
    /// Connections dropped after a pipelined batch of SUBMIT frames,
    /// before reading any reply (reactor batch-admission path).
    pub batch_vanish_drops: u64,
    /// Job records left non-terminal after drain — must be 0.
    pub leaked_records: u64,
}

impl GatewayChaosReport {
    fn to_json(&self) -> String {
        format!(
            "{{\"submissions\":{},\"accepted\":{},\"completed\":{},\"partial_drops\":{},\"vanish_drops\":{},\"batch_vanish_drops\":{},\"leaked_records\":{}}}",
            self.submissions,
            self.accepted,
            self.completed,
            self.partial_drops,
            self.vanish_drops,
            self.batch_vanish_drops,
            self.leaked_records
        )
    }
}

/// Outcome of the replication chaos phase (DESIGN.md §14): leader kill
/// mid-commit, follower partition mid-catch-up, crash-and-rejoin.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ReplChaosReport {
    /// Writes committed on the leader(s) across all sub-phases.
    pub writes: u64,
    /// Commits acknowledged by the quorum when the leader was killed.
    pub acked_before_kill: u64,
    /// Commits the dead leader held that no follower had confirmed —
    /// allowed to die with it (unacknowledged ≠ durable).
    pub unacked_at_kill: u64,
    /// Follower links partitioned and healed.
    pub partitions: u64,
    /// Followers crashed with total state loss and re-bootstrapped.
    pub rejoins: u64,
    /// Id of the follower promoted at failover.
    pub promoted: u32,
    /// Acknowledged commits missing from the promoted leader — the
    /// headline durability number; must be 0.
    pub lost_acked: u64,
    /// Invariant violations detected in the phase — must be 0.
    pub violations: u64,
    /// First violation description, when any occurred.
    pub first_violation: Option<String>,
}

impl ReplChaosReport {
    fn to_json(&self) -> String {
        format!(
            "{{\"writes\":{},\"acked_before_kill\":{},\"unacked_at_kill\":{},\"partitions\":{},\"rejoins\":{},\"promoted\":{},\"lost_acked\":{},\"violations\":{},\"first_violation\":{}}}",
            self.writes,
            self.acked_before_kill,
            self.unacked_at_kill,
            self.partitions,
            self.rejoins,
            self.promoted,
            self.lost_acked,
            self.violations,
            violation_json(&self.first_violation)
        )
    }
}

/// Outcome of the consistent-update chaos phase (DESIGN.md §15):
/// mid-wave kill, device faults during waves, and concurrent conflicting
/// planned updates, with the invariant checker run at every intermediate
/// publication.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct UpdateChaosReport {
    /// Plans synthesized across the campaigns.
    pub plans: u64,
    /// Waves across all synthesized plans.
    pub waves_planned: u64,
    /// Intermediate publications the invariant checker audited.
    pub publications_checked: u64,
    /// Plan executions killed mid-wave by cancellation.
    pub cancelled_runs: u64,
    /// Waves committed by the re-planned (resumed) execution.
    pub resumed_waves: u64,
    /// Transient device faults injected while waves executed.
    pub device_faults: u64,
    /// Wave-task retry attempts the runtime made under faults.
    pub retries: u64,
    /// Concurrent conflicting plan executions driven to completion.
    pub concurrent_runs: u64,
    /// Devices left with attributes from two different plans — must be 0.
    pub torn_configs: u64,
    /// Invariant violations detected in the phase — must be 0.
    pub violations: u64,
    /// First violation description, when any occurred.
    pub first_violation: Option<String>,
}

impl UpdateChaosReport {
    fn to_json(&self) -> String {
        format!(
            "{{\"plans\":{},\"waves_planned\":{},\"publications_checked\":{},\"cancelled_runs\":{},\"resumed_waves\":{},\"device_faults\":{},\"retries\":{},\"concurrent_runs\":{},\"torn_configs\":{},\"violations\":{},\"first_violation\":{}}}",
            self.plans,
            self.waves_planned,
            self.publications_checked,
            self.cancelled_runs,
            self.resumed_waves,
            self.device_faults,
            self.retries,
            self.concurrent_runs,
            self.torn_configs,
            self.violations,
            violation_json(&self.first_violation)
        )
    }
}

/// Outcome of the optimistic-concurrency chaos phase (DESIGN.md §16):
/// mixed OCC/2PL writers contending on one row with the serializability
/// certifier attached, plus OCC tasks forced to fall back to 2PL under
/// seeded device faults.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct OccChaosReport {
    /// Read-modify-write increment tasks run in the contended campaign.
    pub increment_tasks: u64,
    /// Increments missing from the final counter — must be 0.
    pub lost_updates: u64,
    /// Footprints the certifier ingested from committed tasks.
    pub certified_commits: u64,
    /// Apply-bearing OCC tasks run in the fallback campaign.
    pub fallback_tasks: u64,
    /// 2PL fallbacks the runtime fired (`core.occ.fallbacks`).
    pub fallbacks_fired: u64,
    /// Fallback tasks that exhausted their retries under faults.
    pub exhausted_retries: u64,
    /// Transient device faults injected in the fallback campaign.
    pub device_faults: u64,
    /// Retry attempts the runtime made in the fallback campaign.
    pub retries: u64,
    /// Invariant violations detected in the phase — must be 0.
    pub violations: u64,
    /// First violation description, when any occurred.
    pub first_violation: Option<String>,
}

impl OccChaosReport {
    fn to_json(&self) -> String {
        format!(
            "{{\"increment_tasks\":{},\"lost_updates\":{},\"certified_commits\":{},\"fallback_tasks\":{},\"fallbacks_fired\":{},\"exhausted_retries\":{},\"device_faults\":{},\"retries\":{},\"violations\":{},\"first_violation\":{}}}",
            self.increment_tasks,
            self.lost_updates,
            self.certified_commits,
            self.fallback_tasks,
            self.fallbacks_fired,
            self.exhausted_retries,
            self.device_faults,
            self.retries,
            self.violations,
            violation_json(&self.first_violation)
        )
    }
}

/// Outcome of the declarative-spec chaos phase (DESIGN.md §17): specs
/// submitted mid-campaign and killed mid-execution, with the incremental
/// compliance view asserted to converge — every task ends all-compliant
/// with its declared state or byte-identical to the pre-task snapshot —
/// and every audit cross-checked against a cold recompute.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SpecChaosReport {
    /// Spec programs compiled and submitted across the campaigns.
    pub specs_run: u64,
    /// Specs that reached `Completed` with their scope verified compliant.
    pub completed: u64,
    /// Specs that aborted and were verified byte-identical rolled back.
    pub rolled_back: u64,
    /// Specs deterministically killed mid-execution by a wedged device.
    pub kills: u64,
    /// Killed specs whose clean re-submission drove the compliance view
    /// to all-compliant.
    pub converged: u64,
    /// Compliance-view refreshes evaluated through the view cache.
    pub audits: u64,
    /// Refreshes that disagreed with a cold recompute — must be 0.
    pub incremental_mismatches: u64,
    /// Invariant violations detected in the phase — must be 0.
    pub violations: u64,
    /// First violation description, when any occurred.
    pub first_violation: Option<String>,
}

impl SpecChaosReport {
    fn to_json(&self) -> String {
        format!(
            "{{\"specs_run\":{},\"completed\":{},\"rolled_back\":{},\"kills\":{},\"converged\":{},\"audits\":{},\"incremental_mismatches\":{},\"violations\":{},\"first_violation\":{}}}",
            self.specs_run,
            self.completed,
            self.rolled_back,
            self.kills,
            self.converged,
            self.audits,
            self.incremental_mismatches,
            self.violations,
            violation_json(&self.first_violation)
        )
    }
}

/// Outcome of one seeded campaign. All fields are counters; see the
/// module docs for the determinism contract.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CampaignReport {
    /// The campaign seed.
    pub seed: u64,
    /// Fault rate (per stateful operation) the campaign ran at.
    pub fault_rate: f64,
    /// Tasks attempted.
    pub tasks: u64,
    /// Tasks that ended `Completed` (postcondition verified).
    pub completed: u64,
    /// Tasks that ended `Aborted` and were verified fully rolled back.
    pub rolled_back: u64,
    /// Retry attempts the runtime made (`core.task.retries`).
    pub retries: u64,
    /// Inter-attempt rollbacks that failed (`core.task.retry_rollback_failed`).
    pub retry_rollback_failed: u64,
    /// Faults injected by the netdb query injector.
    pub db_faults: u64,
    /// Faults injected by the device-service shim.
    pub device_faults: u64,
    /// Latency spikes fired by the device-service shim.
    pub latency_spikes: u64,
    /// Calls failed against wedged (stuck) devices.
    pub stuck_hits: u64,
    /// Simulated crash-and-replay points exercised.
    pub crashes: u64,
    /// Invariant violations detected — the headline number; must be 0.
    pub invariant_violations: u64,
    /// First violation description, when any occurred.
    pub first_violation: Option<String>,
    /// Gateway phase outcome, when the phase ran.
    pub gateway: Option<GatewayChaosReport>,
    /// Replication phase outcome, when the phase ran.
    pub repl: Option<ReplChaosReport>,
    /// Consistent-update phase outcome, when the phase ran.
    pub update: Option<UpdateChaosReport>,
    /// Optimistic-concurrency phase outcome, when the phase ran.
    pub occ: Option<OccChaosReport>,
    /// Declarative-spec phase outcome, when the phase ran.
    pub spec: Option<SpecChaosReport>,
}

/// A `first_violation` field as a JSON value: the escaped string, or
/// `null`.
fn violation_json(first_violation: &Option<String>) -> String {
    match first_violation {
        Some(v) => format!("\"{}\"", occam_obs::json_escape(v)),
        None => "null".to_string(),
    }
}

impl CampaignReport {
    /// Renders the report as one deterministic JSON object (fixed key
    /// order, no whitespace).
    pub fn to_json(&self) -> String {
        let gateway = match &self.gateway {
            Some(g) => g.to_json(),
            None => "null".to_string(),
        };
        let repl = match &self.repl {
            Some(r) => r.to_json(),
            None => "null".to_string(),
        };
        let update = match &self.update {
            Some(u) => u.to_json(),
            None => "null".to_string(),
        };
        let occ = match &self.occ {
            Some(o) => o.to_json(),
            None => "null".to_string(),
        };
        let spec = match &self.spec {
            Some(s) => s.to_json(),
            None => "null".to_string(),
        };
        format!(
            "{{\"seed\":{},\"fault_rate\":{},\"tasks\":{},\"completed\":{},\"rolled_back\":{},\"retries\":{},\"retry_rollback_failed\":{},\"db_faults\":{},\"device_faults\":{},\"latency_spikes\":{},\"stuck_hits\":{},\"crashes\":{},\"invariant_violations\":{},\"first_violation\":{},\"gateway\":{},\"repl\":{},\"update\":{},\"occ\":{},\"spec\":{}}}",
            self.seed,
            self.fault_rate,
            self.tasks,
            self.completed,
            self.rolled_back,
            self.retries,
            self.retry_rollback_failed,
            self.db_faults,
            self.device_faults,
            self.latency_spikes,
            self.stuck_hits,
            self.crashes,
            self.invariant_violations,
            violation_json(&self.first_violation),
            gateway,
            repl,
            update,
            occ,
            spec
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_deterministic_and_escapes() {
        let mut r = CampaignReport {
            seed: 42,
            fault_rate: 0.05,
            tasks: 10,
            completed: 8,
            rolled_back: 2,
            ..CampaignReport::default()
        };
        assert_eq!(r.to_json(), r.clone().to_json());
        assert!(r.to_json().contains("\"fault_rate\":0.05"));
        assert!(r.to_json().ends_with(
            "\"gateway\":null,\"repl\":null,\"update\":null,\"occ\":null,\"spec\":null}"
        ));
        r.repl = Some(ReplChaosReport {
            writes: 3,
            ..ReplChaosReport::default()
        });
        assert!(r.to_json().contains("\"repl\":{\"writes\":3,"));
        r.first_violation = Some("say \"what\"\n".into());
        assert!(r.to_json().contains("say \\\"what\\\"\\n"));
    }
}
