//! Campaign outcome accounting.
//!
//! Reports are fully deterministic for a given `(config, seed)`: they
//! carry counters only — no wall-clock times, no host-dependent values —
//! so byte-identical JSON across runs is the campaign determinism
//! contract the tests and the bench harness assert.

use occam_obs::json::{self, ToJson, Writer};

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

impl CampaignReport {
    /// Renders the report as one deterministic JSON object (fixed key
    /// order, no whitespace).
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

/// `ToJson` for a report whose JSON keys are its field names, in the
/// order listed.
macro_rules! to_json {
    ($($report:ty { $($field:ident),* })*) => {$(
        impl ToJson for $report {
            fn write_json(&self, w: &mut Writer) {
                w.object(|w| {
                    $(w.field(stringify!($field), &self.$field);)*
                });
            }
        }
    )*};
}
to_json! {
    GatewayChaosReport {
        submissions, accepted, completed, partial_drops, vanish_drops, batch_vanish_drops,
        leaked_records
    }
    ReplChaosReport {
        writes, acked_before_kill, unacked_at_kill, partitions, rejoins, promoted, lost_acked,
        violations, first_violation
    }
    UpdateChaosReport {
        plans, waves_planned, publications_checked, cancelled_runs, resumed_waves,
        device_faults, retries, concurrent_runs, torn_configs, violations, first_violation
    }
    OccChaosReport {
        increment_tasks, lost_updates, certified_commits, fallback_tasks, fallbacks_fired,
        exhausted_retries, device_faults, retries, violations, first_violation
    }
    SpecChaosReport {
        specs_run, completed, rolled_back, kills, converged, audits, incremental_mismatches,
        violations, first_violation
    }
    CampaignReport {
        seed, fault_rate, tasks, completed, rolled_back, retries, retry_rollback_failed,
        db_faults, device_faults, latency_spikes, stuck_hits, crashes, invariant_violations,
        first_violation, gateway, repl, update, occ, spec
    }
}

/// The violation ledger every report carries: a count and the first
/// description. Phases record into their own report; the campaign folds
/// each phase's ledger into its headline `invariant_violations`.
pub(crate) trait Violations {
    /// The report's `(count, first description)` slots.
    fn ledger(&mut self) -> (&mut u64, &mut Option<String>);

    /// Counts `n` violations described by `first`; the first description
    /// ever recorded wins.
    fn add_violations(&mut self, n: u64, first: Option<String>) {
        let (count, slot) = self.ledger();
        *count += n;
        if n > 0 && slot.is_none() {
            *slot = first;
        }
    }

    /// Counts one violation described by `why`.
    fn violation(&mut self, why: String) {
        self.add_violations(1, Some(why));
    }
}

macro_rules! violations {
    ($($report:ty => $count:ident;)*) => {$(
        impl Violations for $report {
            fn ledger(&mut self) -> (&mut u64, &mut Option<String>) {
                (&mut self.$count, &mut self.first_violation)
            }
        }
    )*};
}
violations! {
    CampaignReport => invariant_violations;
    ReplChaosReport => violations;
    UpdateChaosReport => violations;
    OccChaosReport => violations;
    SpecChaosReport => violations;
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

    /// The expected string is the parent commit's hand-rolled emitter run
    /// on this same report: the writer must reproduce it byte for byte.
    #[test]
    fn json_matches_the_golden_for_a_fully_populated_report() {
        let r = CampaignReport {
            seed: 42,
            fault_rate: 0.05,
            tasks: 10,
            completed: 7,
            rolled_back: 3,
            retries: 4,
            retry_rollback_failed: 1,
            db_faults: 5,
            device_faults: 6,
            latency_spikes: 2,
            stuck_hits: 8,
            crashes: 9,
            invariant_violations: 11,
            first_violation: Some("say \"what\"\n\\ \u{1}".into()),
            gateway: Some(GatewayChaosReport {
                submissions: 12,
                accepted: 13,
                completed: 14,
                partial_drops: 15,
                vanish_drops: 16,
                batch_vanish_drops: 17,
                leaked_records: 18,
            }),
            repl: Some(ReplChaosReport {
                writes: 19,
                acked_before_kill: 20,
                unacked_at_kill: 21,
                partitions: 22,
                rejoins: 23,
                promoted: 24,
                lost_acked: 25,
                violations: 26,
                first_violation: Some("repl\tbad".into()),
            }),
            update: Some(UpdateChaosReport {
                plans: 27,
                waves_planned: 28,
                publications_checked: 29,
                cancelled_runs: 30,
                resumed_waves: 31,
                device_faults: 32,
                retries: 33,
                concurrent_runs: 34,
                torn_configs: 35,
                violations: 36,
                first_violation: None,
            }),
            occ: Some(OccChaosReport {
                increment_tasks: 37,
                lost_updates: 38,
                certified_commits: 39,
                fallback_tasks: 40,
                fallbacks_fired: 41,
                exhausted_retries: 42,
                device_faults: 43,
                retries: 44,
                violations: 45,
                first_violation: Some("occ".into()),
            }),
            spec: Some(SpecChaosReport {
                specs_run: 46,
                completed: 47,
                rolled_back: 48,
                kills: 49,
                converged: 50,
                audits: 51,
                incremental_mismatches: 52,
                violations: 53,
                first_violation: None,
            }),
        };
        assert_eq!(
            r.to_json(),
            concat!(
                r#"{"seed":42,"fault_rate":0.05,"tasks":10,"completed":7,"rolled_back":3,"retries":4,"retry_rollback_failed":1,"db_faults":5,"device_faults":6,"latency_spikes":2,"stuck_hits":8,"crashes":9,"invariant_violations":11,"first_violation":"say \"what\"\n\\ \u0001""#,
                r#","gateway":{"submissions":12,"accepted":13,"completed":14,"partial_drops":15,"vanish_drops":16,"batch_vanish_drops":17,"leaked_records":18}"#,
                r#","repl":{"writes":19,"acked_before_kill":20,"unacked_at_kill":21,"partitions":22,"rejoins":23,"promoted":24,"lost_acked":25,"violations":26,"first_violation":"repl\tbad"}"#,
                r#","update":{"plans":27,"waves_planned":28,"publications_checked":29,"cancelled_runs":30,"resumed_waves":31,"device_faults":32,"retries":33,"concurrent_runs":34,"torn_configs":35,"violations":36,"first_violation":null}"#,
                r#","occ":{"increment_tasks":37,"lost_updates":38,"certified_commits":39,"fallback_tasks":40,"fallbacks_fired":41,"exhausted_retries":42,"device_faults":43,"retries":44,"violations":45,"first_violation":"occ"}"#,
                r#","spec":{"specs_run":46,"completed":47,"rolled_back":48,"kills":49,"converged":50,"audits":51,"incremental_mismatches":52,"violations":53,"first_violation":null}}"#,
            )
        );
    }

    #[test]
    fn ledger_counts_everything_and_keeps_the_first_description() {
        let mut r = CampaignReport::default();
        r.add_violations(0, Some("not a violation".into()));
        assert_eq!(
            (r.invariant_violations, r.first_violation.clone()),
            (0, None)
        );
        r.violation("first".into());
        r.add_violations(3, Some("later".into()));
        assert_eq!(r.invariant_violations, 4);
        assert_eq!(r.first_violation.as_deref(), Some("first"));
        let mut phase = OccChaosReport::default();
        phase.violation("lost update".into());
        assert_eq!(
            (phase.violations, phase.first_violation.as_deref()),
            (1, Some("lost update"))
        );
    }
}
