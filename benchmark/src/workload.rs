//! The five workloads: every SUBMIT the program will see, generated from
//! the seed before the clock starts.
//!
//! Scopes over `dc01` form a laminar family (device set ⊂ pod ⊂ pod
//! range ⊂ datacenter, ranges and device sets pairwise disjoint), so a
//! task's region is always covered by one object-tree node and no task
//! can hold part of its region while waiting for the rest: the workloads
//! contend, but never deadlock.

use crate::fleet::FleetShape;
use occam::workload::{dist, ScopeWeights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload names, in the order they run and print.
pub const WORKLOADS: [&str; 5] = [
    "audit_fleet",
    "maint_disjoint",
    "maint_hot",
    "update_waves",
    "mixed_day",
];

/// The workloads `BENCHMARK.json` lists, which the driver runs and gates
/// on. `mixed_day` is not among them: at this commit its latency has two
/// regimes, a factor of three apart, and which one a run lands in is a
/// race between an audit and a writer (`README.md`, Finding 1), so two
/// sets of runs of the same code do not agree on it.
pub const GATED: [&str; 4] = ["audit_fleet", "maint_disjoint", "maint_hot", "update_waves"];

/// Arrival rate of the one open-loop workload, tasks per second: about
/// half of what a closed-loop probe of the same mix sustained on two
/// cores, so latency is service plus interference, not backlog.
pub const MIXED_DAY_RATE: f64 = 40.0;

/// One SUBMIT frame's worth of input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    pub workflow: &'static str,
    pub scope: String,
    pub urgent: bool,
    pub params: Vec<(String, String)>,
    /// Open loop only: microseconds after run start at which the task is
    /// due. `0` in closed-loop plans.
    pub due_us: u64,
}

impl Task {
    fn new(workflow: &'static str, scope: String, params: Vec<(String, String)>) -> Task {
        Task {
            workflow,
            scope,
            urgent: false,
            params,
            due_us: 0,
        }
    }

    pub fn is_write(&self) -> bool {
        !matches!(self.workflow, "status_audit" | "compliance_audit")
    }
}

/// How a plan's tasks reach the gateway.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopKind {
    /// Each connection keeps `depth` tasks outstanding and submits the
    /// next only when one completes.
    Closed { depth: usize },
    /// One submitter connection sends on the tasks' due times whatever
    /// the system does; one poller connection collects outcomes.
    Open,
}

/// A workload instantiated for one seed and one run length.
pub struct Plan {
    pub kind: LoopKind,
    /// One task list per driver connection (closed loop), or a single
    /// due-ordered list (open loop).
    pub conns: Vec<Vec<Task>>,
}

impl Plan {
    /// FNV-1a over every field of every task, so two runs can be shown to
    /// have offered identical input.
    pub fn input_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (c, conn) in self.conns.iter().enumerate() {
            eat(&(c as u64).to_le_bytes());
            for t in conn {
                eat(t.workflow.as_bytes());
                eat(t.scope.as_bytes());
                eat(&[u8::from(t.urgent)]);
                for (k, v) in &t.params {
                    eat(k.as_bytes());
                    eat(v.as_bytes());
                }
                eat(&t.due_us.to_le_bytes());
            }
        }
        h
    }

    /// The task a driver record (`conn`, `index`) stands for.
    pub fn task(&self, conn: u32, index: u32) -> &Task {
        &self.conns[conn as usize][index as usize]
    }

    pub fn num_tasks(&self) -> usize {
        self.conns.iter().map(Vec::len).sum()
    }
}

fn kv(k: &str, v: String) -> (String, String) {
    (k.to_string(), v)
}

/// A digit class `[lo-hi]`, or the bare digit when the range is one wide.
fn digit_class(lo: u32, hi: u32) -> String {
    if lo == hi {
        lo.to_string()
    } else {
        format!("[{lo}-{hi}]")
    }
}

/// The scope kinds `ScopeWeights` distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScopeKind {
    DeviceSet,
    Pod,
    PodRange,
    Dc,
}

fn pick_kind(rng: &mut StdRng, w: &ScopeWeights) -> ScopeKind {
    match dist::weighted_pick(rng, &[w.device_set, w.pod, w.pod_range, w.dc]) {
        0 => ScopeKind::DeviceSet,
        1 => ScopeKind::Pod,
        2 => ScopeKind::PodRange,
        _ => ScopeKind::Dc,
    }
}

/// A scope over the production fleet: eight switches of one pod, a pod,
/// up to eight consecutive pods inside one decade, or a datacenter.
/// Every name the glob can match exists.
pub fn production_scope(rng: &mut StdRng, shape: &FleetShape, kind: ScopeKind) -> String {
    let dc = rng.random_range(shape.prod_dc_numbers());
    let pod = rng.random_range(0..shape.prod_pods);
    match kind {
        ScopeKind::DeviceSet => {
            // `swD[0-7]`: decades whose first eight switches all exist.
            let decades = (shape.prod_switches.saturating_sub(8)) / 10 + 1;
            let d = rng.random_range(0..decades);
            let hi = (shape.prod_switches - d * 10).min(8) - 1;
            format!("dc{dc:02}.pod{pod:02}.sw{d}{}", digit_class(0, hi))
        }
        ScopeKind::Pod => format!("dc{dc:02}.pod{pod:02}.*"),
        ScopeKind::PodRange => {
            let decades = (shape.prod_pods.saturating_sub(8)) / 10 + 1;
            let d = rng.random_range(0..decades);
            let in_decade = (shape.prod_pods - d * 10).min(10);
            let width = in_decade.min(8);
            let lo = rng.random_range(0..=in_decade - width);
            format!("dc{dc:02}.pod{d}{}.*", digit_class(lo, lo + width - 1))
        }
        ScopeKind::Dc => format!("dc{dc:02}.*"),
    }
}

fn dc01_pod(pod: u32) -> String {
    format!("dc01.pod{pod:02}.*")
}

/// Number of hot pods: `pod00`..`pod03` at k=16 (the `TraceConfig::skewed`
/// shape), half the pods on smaller trees.
fn hot_pods(k: u32) -> u32 {
    4.min(k / 2)
}

/// The disjoint pod ranges of `dc01`, hot range first. With the pods and
/// the device sets below they form a laminar family.
fn dc01_ranges(k: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut lo = 0;
    while lo < k {
        // Never cross a decade: a range is one digit class.
        let hi = (lo + hot_pods(k) - 1).min(k - 1).min(lo / 10 * 10 + 9);
        out.push((lo, hi));
        lo = hi + 1;
    }
    out
}

fn dc01_range_scope((lo, hi): (u32, u32)) -> String {
    format!("dc01.pod{}{}.*", lo / 10, digit_class(lo % 10, hi % 10))
}

/// Half of one role's switches in one pod: `tor0[0-3]`, `agg0[4-7]`, …
fn dc01_device_set(rng: &mut StdRng, k: u32, pod: u32) -> String {
    let role = if rng.random::<bool>() { "tor" } else { "agg" };
    let half = k / 2;
    let split = (half / 2).max(1);
    let (lo, hi) = if half > 1 && rng.random::<bool>() {
        (split, half - 1)
    } else {
        (0, split - 1)
    };
    format!("dc01.pod{pod:02}.{role}0{}", digit_class(lo, hi))
}

/// The three maintenance workflows, cycled by task index, with values no
/// earlier task pushed.
fn maintenance(i: usize, tag: &str, scope: String) -> Task {
    match i % 3 {
        0 => Task::new(
            "firmware_upgrade",
            scope,
            vec![kv("version", format!("fw-{tag}-{i}"))],
        ),
        1 => Task::new(
            "config_push",
            scope,
            vec![kv("generation", format!("gen-{tag}-{i}"))],
        ),
        _ => Task::new("device_maintenance", scope, vec![]),
    }
}

fn audit(rng: &mut StdRng, scope: String, strict_share: f64) -> Task {
    if rng.random::<f64>() < strict_share {
        Task::new(
            "compliance_audit",
            scope,
            vec![
                kv("attr", "FIRMWARE_VERSION".into()),
                kv("value", crate::fleet::INITIAL_FIRMWARE.into()),
            ],
        )
    } else {
        Task::new("status_audit", scope, vec![])
    }
}

/// Two pod ranges of `dc01` a pair of update connections can own without
/// ever touching the same device: `pod0[0-7]` and `pod1[0-5]` at k=16.
fn update_scopes(k: u32) -> [String; 2] {
    let first_hi = (k / 2).min(8) - 1;
    let second = if k > 10 {
        (10, k - 1)
    } else {
        (first_hi + 1, k - 1)
    };
    [dc01_range_scope((0, first_hi)), dc01_range_scope(second)]
}

fn planned_update(i: usize, tag: &str, scope: String) -> Task {
    let mut params = vec![kv("generation", format!("plan-{tag}-{i}"))];
    if i % 4 == 3 {
        params.push(kv("firmware", format!("fw-plan-{tag}-{i}")));
    }
    Task::new("planned_update", scope, params)
}

/// How many tasks a closed-loop connection is given: 10,000 per second,
/// more than two round trips per task let any connection consume. The
/// driver never wraps a list; running out fails the run.
fn closed_len(seconds: f64) -> usize {
    (10_000.0 * seconds).ceil() as usize + 64
}

/// Builds `name` for `seed`. `seconds` is warm-up plus measured window;
/// it sizes the task lists and places the open-loop arrivals.
pub fn build(name: &str, seed: u64, shape: &FleetShape, warmup_s: f64, window_s: f64) -> Plan {
    let seconds = warmup_s + window_s;
    let k = shape.k;
    match name {
        "audit_fleet" => {
            let weights = ScopeWeights::default();
            let conns = (0..2u64)
                .map(|c| {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xa0d1 + c));
                    (0..closed_len(seconds))
                        .map(|_| {
                            let kind = pick_kind(&mut rng, &weights);
                            let scope = production_scope(&mut rng, shape, kind);
                            audit(&mut rng, scope, 0.10)
                        })
                        .collect()
                })
                .collect();
            Plan {
                kind: LoopKind::Closed { depth: 1 },
                conns,
            }
        }
        "maint_disjoint" => {
            let conns = (0..2u32)
                .map(|c| {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xd15 + u64::from(c)));
                    let owned: Vec<u32> = (0..k).filter(|p| p % 2 == c).collect();
                    let tag = format!("{seed}-{c}");
                    (0..closed_len(seconds))
                        .map(|i| {
                            let pod = owned[rng.random_range(0..owned.len())];
                            maintenance(i, &tag, dc01_pod(pod))
                        })
                        .collect()
                })
                .collect();
            Plan {
                kind: LoopKind::Closed { depth: 1 },
                conns,
            }
        }
        "maint_hot" => {
            let hot = hot_pods(k);
            let ranges = dc01_ranges(k);
            let conns = (0..2u64)
                .map(|c| {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0x407 + c));
                    let tag = format!("{seed}-{c}");
                    (0..closed_len(seconds))
                        .map(|i| {
                            let in_hot = rng.random::<f64>() < 0.7 || hot == k;
                            let pod = if in_hot {
                                rng.random_range(0..hot)
                            } else {
                                rng.random_range(hot..k)
                            };
                            let scope =
                                match dist::weighted_pick(&mut rng, &[0.60, 0.25, 0.10, 0.05]) {
                                    0 => dc01_pod(pod),
                                    1 => dc01_range_scope(
                                        *ranges
                                            .iter()
                                            .find(|(lo, hi)| (*lo..=*hi).contains(&pod))
                                            .expect("ranges cover every pod"),
                                    ),
                                    2 => dc01_device_set(&mut rng, k, pod),
                                    _ => "dc01.*".to_string(),
                                };
                            let mut t = maintenance(i, &tag, scope);
                            t.urgent = rng.random::<f64>() < 0.10;
                            t
                        })
                        .collect()
                })
                .collect();
            Plan {
                kind: LoopKind::Closed { depth: 4 },
                conns,
            }
        }
        "update_waves" => {
            let scopes = update_scopes(k);
            let conns = scopes
                .iter()
                .enumerate()
                .map(|(c, scope)| {
                    let tag = format!("{seed}-{c}");
                    (0..closed_len(seconds))
                        .map(|i| planned_update(i, &tag, scope.clone()))
                        .collect()
                })
                .collect();
            Plan {
                kind: LoopKind::Closed { depth: 1 },
                conns,
            }
        }
        "mixed_day" => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xda7);
            let tasks = mixed_day(&mut rng, seed, shape, warmup_s, window_s);
            Plan {
                kind: LoopKind::Open,
                conns: vec![tasks],
            }
        }
        other => panic!("unknown workload {other:?}"),
    }
}

/// `n` class indices in exactly the proportions `weights` (largest
/// remainder), class by class: every seed offers the same mix.
fn exact_mix(n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let share = |i: usize| weights[i] / total * n as f64;
    let mut counts: Vec<usize> = (0..weights.len())
        .map(|i| share(i).floor() as usize)
        .collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| share(b).fract().total_cmp(&share(a).fract()));
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts
        .iter()
        .enumerate()
        .flat_map(|(class, &c)| std::iter::repeat_n(class, c))
        .collect()
}

/// The open-loop schedule. Per segment (warm-up, then window) the task
/// count is `rate × length` and the class mix is exact, so every seed
/// offers the same load in another order; due times are uniform over the
/// segment, which is a Poisson process conditioned on its count. Nothing
/// keeps readers away from writers, and nothing makes them meet.
fn mixed_day(
    rng: &mut StdRng,
    seed: u64,
    shape: &FleetShape,
    warmup_s: f64,
    window_s: f64,
) -> Vec<Task> {
    let k = shape.k;
    let hot = hot_pods(k);
    // A fixed production working set that fits the 64-view cache.
    let prod: Vec<String> = (0..32)
        .map(|_| production_scope(rng, shape, ScopeKind::Pod))
        .collect();
    let tag = format!("{seed}");
    let mut tasks = Vec::new();
    let mut writers = 0usize;
    for (from_s, len_s) in [(0.0, warmup_s), (warmup_s, window_s)] {
        let n = (MIXED_DAY_RATE * len_s).round() as usize;
        let (from, len) = ((from_s * 1e6) as u64, (len_s * 1e6) as u64);
        let mut segment: Vec<Task> = exact_mix(n, &[0.40, 0.40, 0.18, 0.02])
            .into_iter()
            .map(|class| match class {
                0 => {
                    let scope = prod[rng.random_range(0..prod.len())].clone();
                    audit(rng, scope, 0.0)
                }
                1 => {
                    let scope = dc01_pod(rng.random_range(0..k));
                    audit(rng, scope, 0.0)
                }
                2 => {
                    let pod = if rng.random::<f64>() < 0.7 || hot == k {
                        rng.random_range(0..hot)
                    } else {
                        rng.random_range(hot..k)
                    };
                    writers += 1;
                    maintenance(writers, &tag, dc01_pod(pod))
                }
                _ => {
                    writers += 1;
                    planned_update(writers, &tag, dc01_range_scope((0, hot - 1)))
                }
            })
            .collect();
        for t in &mut segment {
            t.due_us = from + rng.random_range(0..len);
        }
        tasks.extend(segment);
    }
    tasks.sort_by_key(|t| t.due_us);
    tasks
}
