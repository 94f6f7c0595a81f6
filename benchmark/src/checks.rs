//! Output checks: what must hold of the fleet once a workload drained.
//! Any violation makes the run incorrect and the command exit non-zero.

use crate::driver::{ConnOutput, Outcome};
use crate::fleet::{Fleet, INITIAL_FIRMWARE};
use crate::workload::Plan;
use occam::gateway::{GatewayClient, SubmitReply};
use occam::netdb::{attrs, check_identical};
use occam::regex::Pattern;
use occam::spec::CONFIG_VERSION;
use occam::topology::Role;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Values the completed tasks of one scope pushed.
#[derive(Default)]
struct Pushed {
    firmware: BTreeSet<String>,
    config: BTreeSet<String>,
}

fn pushed_by_scope(plan: &Plan, outputs: &[ConnOutput]) -> BTreeMap<String, Pushed> {
    let mut by_scope: BTreeMap<String, Pushed> = BTreeMap::new();
    for rec in outputs.iter().flat_map(|o| &o.records) {
        if rec.outcome != Outcome::Completed {
            continue;
        }
        let task = plan.task(rec.conn, rec.index);
        for (k, v) in &task.params {
            let slot = by_scope.entry(task.scope.clone()).or_default();
            match k.as_str() {
                "version" | "firmware" => slot.firmware.insert(v.clone()),
                "generation" => slot.config.insert(v.clone()),
                _ => false,
            };
        }
    }
    by_scope
}

/// Runs every check; returns one line per violation.
pub fn output_checks(fleet: &Fleet, plan: &Plan, outputs: &[ConnOutput]) -> Vec<String> {
    let mut bad = Vec::new();

    // Every accepted ticket reached a terminal phase by its deadline.
    for rec in outputs.iter().flat_map(|o| &o.records) {
        if matches!(rec.outcome, Outcome::TimedOut | Outcome::Lost) {
            bad.push(format!(
                "ticket {:?} ({}) ended {:?}",
                rec.ticket,
                plan.task(rec.conn, rec.index).workflow,
                rec.outcome
            ));
        }
    }
    let engine = fleet.server.engine();
    if engine.queued() != 0 || !engine.all_terminal() {
        bad.push("engine still holds live jobs after the drain".into());
    }
    let proto_errors = fleet.rt.obs().counter_value("gateway.proto.errors");
    if proto_errors != 0 {
        bad.push(format!("gateway.proto.errors = {proto_errors}"));
    }

    // The emulated datacenter is back in service, and the database and
    // the device plane agree on what runs where.
    let view = fleet.db.read_view();
    let dc01 = Pattern::from_glob("dc01.*").expect("literal glob");
    let status = view.get_attr(&dc01, attrs::DEVICE_STATUS);
    let firmware = view.get_attr(&dc01, attrs::FIRMWARE_VERSION);
    let config = view.get_attr(&dc01, CONFIG_VERSION);
    let pushed = pushed_by_scope(plan, outputs);
    let scopes: Vec<(Pattern, &Pushed)> = pushed
        .iter()
        .map(|(s, p)| (Pattern::from_glob(s).expect("generated scope"), p))
        .collect();
    let mut pods: BTreeMap<String, Vec<String>> = BTreeMap::new();
    {
        let net = fleet.emu.net();
        let net = net.lock();
        for (id, d) in net.topo.devices().filter(|(_, d)| d.role != Role::Host) {
            let name = d.name.as_str();
            let sw = net.switch(id).expect("non-host devices are switches");
            if sw.drained || sw.upgrading {
                bad.push(format!(
                    "{name} left drained or upgrading in the emulated network"
                ));
            }
            if status.get(name).and_then(|v| v.as_str()) != Some(attrs::STATUS_ACTIVE) {
                bad.push(format!("{name} is {:?} in netdb", status.get(name)));
            }
            let fw = firmware.get(name).and_then(|v| v.as_str()).unwrap_or("");
            if fw != sw.firmware {
                bad.push(format!(
                    "{name}: netdb says firmware {fw:?}, the device runs {:?}",
                    sw.firmware
                ));
            }
            let covering = || scopes.iter().filter(|(p, _)| p.matches(name));
            if fw != INITIAL_FIRMWARE && !covering().any(|(_, p)| p.firmware.contains(fw)) {
                bad.push(format!(
                    "{name}: firmware {fw:?} was pushed by no completed task"
                ));
            }
            if let Some(gen) = config.get(name).and_then(|v| v.as_str()) {
                if !covering().any(|(_, p)| p.config.contains(gen)) {
                    bad.push(format!(
                        "{name}: config {gen:?} was pushed by no completed task"
                    ));
                }
            }
            if let Some((pod, _)) = name.rsplit_once('.') {
                pods.entry(pod.to_string())
                    .or_default()
                    .push(name.to_string());
            }
        }
    }
    // Where every writer covered a pod wholly or not at all, the pod must
    // be uniform: a task is all-or-nothing.
    for (pod, names) in &pods {
        let whole = scopes.iter().all(|(p, _)| {
            let n = names.iter().filter(|n| p.matches(n)).count();
            n == 0 || n == names.len()
        });
        if !whole {
            continue;
        }
        for (what, map) in [("firmware", &firmware), ("config", &config)] {
            let distinct: BTreeSet<Option<&str>> = names
                .iter()
                .map(|n| map.get(n).and_then(|v| v.as_str()))
                .collect();
            if distinct.len() > 1 {
                bad.push(format!("{pod}: {what} not uniform: {distinct:?}"));
            }
        }
    }

    // Both followers hold exactly the leader's state.
    if !fleet.set.wait_converged(Duration::from_secs(30)) {
        bad.push("followers did not converge after the drain".into());
    }
    // `wait_converged` compares WAL commit counts, and a replica appends
    // to its WAL just before it publishes the state: give each follower's
    // *published* view a moment to reach the leader's commit count.
    let leader = fleet.db.read_view();
    for f in fleet.set.followers() {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut view = f.db().read_view();
        while view.commits() < leader.commits() && Instant::now() < deadline {
            std::thread::sleep(crate::driver::POLL_SLEEP);
            view = f.db().read_view();
        }
        if let Err(e) = check_identical(leader.snapshot(), view.snapshot()) {
            bad.push(format!("follower {} diverged from the leader: {e}", f.id()));
        }
    }

    // A strict audit of the quiesced fleet, through the gateway.
    let mut client = GatewayClient::connect(&fleet.addr).expect("connect to gateway");
    let params = [
        ("attr".to_string(), attrs::DEVICE_STATUS.to_string()),
        ("value".to_string(), attrs::STATUS_ACTIVE.to_string()),
    ];
    match client.submit("compliance_audit", "dc*", false, &params) {
        Ok(SubmitReply::Accepted(ticket)) => loop {
            let (phase, detail) = client.status(ticket).expect("STATUS round trip");
            if phase.is_terminal() || phase == occam::gateway::WirePhase::Unknown {
                if phase != occam::gateway::WirePhase::Completed {
                    bad.push(format!("fleet audit ended {phase:?}: {detail}"));
                }
                break;
            }
            std::thread::sleep(crate::driver::POLL_SLEEP);
        },
        other => bad.push(format!("fleet audit not admitted: {other:?}")),
    }
    bad
}
