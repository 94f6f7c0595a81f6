//! Bounded structured event ring buffer.

use crate::json::{self, ToJson, Writer};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Default event capacity for a [`EventRing::new`] ring.
const DEFAULT_CAP: usize = 4096;

/// A structured runtime event, one of the paper-relevant lifecycle points:
/// task submission/completion/abort, 2PL lock request/grant/release, WAL
/// appends, and rollback-plan generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A task entered the runtime.
    TaskSubmitted {
        /// Runtime task id.
        task: u64,
        /// Human-readable task name.
        name: String,
    },
    /// A task committed.
    TaskCompleted {
        /// Runtime task id.
        task: u64,
    },
    /// A task aborted (failure or deadlock victim).
    TaskAborted {
        /// Runtime task id.
        task: u64,
    },
    /// A task requested locks on a region covering `objects` tree objects.
    LockRequested {
        /// Runtime task id.
        task: u64,
        /// Number of objects in the covering set.
        objects: u64,
        /// True for exclusive (X) mode, false for shared (S).
        exclusive: bool,
    },
    /// All requested locks were granted after `wait_ns` of blocking.
    LockGranted {
        /// Runtime task id.
        task: u64,
        /// Number of objects granted.
        objects: u64,
        /// Wall-clock nanoseconds between request and full grant.
        wait_ns: u64,
    },
    /// A task released its locks (strict 2PL: all at once, at the end).
    LockReleased {
        /// Runtime task id.
        task: u64,
        /// Number of objects released.
        objects: u64,
    },
    /// A batch of records was appended to the database WAL.
    WalAppend {
        /// Data records in the batch (excluding the commit marker).
        records: u64,
        /// WAL sequence number of the commit marker.
        seq: u64,
    },
    /// A rollback plan was generated from a failed task's typed log.
    RollbackPlanned {
        /// Runtime task id.
        task: u64,
        /// Number of steps in the generated plan.
        steps: u64,
    },
    /// The serializability certifier detected a conflict cycle.
    CertViolation {
        /// Name of the committing task that closed the cycle.
        task: String,
    },
    /// A spec compliance audit found devices violating its assertions.
    AuditNonCompliant {
        /// Spec name the audit ran for.
        spec: String,
        /// Devices the audit covered.
        devices: u64,
        /// Devices violating at least one assertion.
        non_compliant: u64,
    },
}

impl EventKind {
    /// Stable snake_case name of the event type (the `event` column).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TaskSubmitted { .. } => "task_submitted",
            EventKind::TaskCompleted { .. } => "task_completed",
            EventKind::TaskAborted { .. } => "task_aborted",
            EventKind::LockRequested { .. } => "lock_requested",
            EventKind::LockGranted { .. } => "lock_granted",
            EventKind::LockReleased { .. } => "lock_released",
            EventKind::WalAppend { .. } => "wal_append",
            EventKind::RollbackPlanned { .. } => "rollback_planned",
            EventKind::CertViolation { .. } => "cert_violation",
            EventKind::AuditNonCompliant { .. } => "audit_non_compliant",
        }
    }

    /// Writes the event's payload as fields of the open JSON object.
    fn write_fields(&self, w: &mut Writer) {
        match self {
            EventKind::TaskSubmitted { task, name } => {
                w.field("task", task).field("name", name);
            }
            EventKind::TaskCompleted { task } | EventKind::TaskAborted { task } => {
                w.field("task", task);
            }
            EventKind::LockRequested {
                task,
                objects,
                exclusive,
            } => {
                w.field("task", task)
                    .field("objects", objects)
                    .field("exclusive", exclusive);
            }
            EventKind::LockGranted {
                task,
                objects,
                wait_ns,
            } => {
                w.field("task", task)
                    .field("objects", objects)
                    .field("wait_ns", wait_ns);
            }
            EventKind::LockReleased { task, objects } => {
                w.field("task", task).field("objects", objects);
            }
            EventKind::WalAppend { records, seq } => {
                w.field("records", records).field("seq", seq);
            }
            EventKind::RollbackPlanned { task, steps } => {
                w.field("task", task).field("steps", steps);
            }
            EventKind::CertViolation { task } => {
                w.field("task", task);
            }
            EventKind::AuditNonCompliant {
                spec,
                devices,
                non_compliant,
            } => {
                w.field("spec", spec)
                    .field("devices", devices)
                    .field("non_compliant", non_compliant);
            }
        }
    }
}

/// `{"seq", "at_ns", "event", …payload fields}`.
impl ToJson for Event {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("seq", self.seq)
                .field("at_ns", self.at_ns)
                .field("event", self.kind.name());
            self.kind.write_fields(w);
        });
    }
}

/// One recorded event: a monotone sequence number, nanoseconds since the
/// ring's creation, and the structured payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotone per-ring sequence number (gap-free across drops).
    pub seq: u64,
    /// Nanoseconds since the ring was created (monotonic clock).
    pub at_ns: u64,
    /// The structured payload.
    pub kind: EventKind,
}

/// A bounded, thread-safe ring of [`Event`]s.
///
/// When full, recording a new event drops the oldest one and counts it in
/// [`EventRing::dropped`]; sequence numbers keep increasing so consumers
/// can detect the gap. Cloning shares the ring.
#[derive(Clone, Debug)]
pub struct EventRing {
    inner: Arc<RingInner>,
}

#[derive(Debug)]
struct RingInner {
    cap: usize,
    epoch: Instant,
    state: Mutex<RingState>,
}

#[derive(Debug)]
struct RingState {
    next_seq: u64,
    dropped: u64,
    events: VecDeque<Event>,
}

impl EventRing {
    /// A ring with the default capacity (4096 events).
    pub fn new() -> EventRing {
        EventRing::with_capacity(DEFAULT_CAP)
    }

    /// A ring bounded to `cap` events (min 1).
    pub fn with_capacity(cap: usize) -> EventRing {
        let cap = cap.max(1);
        EventRing {
            inner: Arc::new(RingInner {
                cap,
                epoch: Instant::now(),
                state: Mutex::new(RingState {
                    next_seq: 0,
                    dropped: 0,
                    events: VecDeque::with_capacity(cap),
                }),
            }),
        }
    }

    /// Records an event, returning its sequence number. Evicts the oldest
    /// event when the ring is at capacity.
    pub fn record(&self, kind: EventKind) -> u64 {
        let at_ns = u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut st = self.inner.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        if st.events.len() == self.inner.cap {
            st.events.pop_front();
            st.dropped += 1;
        }
        st.events.push_back(Event { seq, at_ns, kind });
        seq
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.state.lock().events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of buffered events.
    pub fn capacity(&self) -> usize {
        self.inner.cap
    }

    /// Number of events evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.state.lock().dropped
    }

    /// Total events ever recorded (buffered + dropped).
    pub fn recorded(&self) -> u64 {
        self.inner.state.lock().next_seq
    }

    /// The buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.state.lock().events.iter().cloned().collect()
    }

    /// The buffered events as a JSON array of objects, oldest first.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl ToJson for EventRing {
    fn write_json(&self, w: &mut Writer) {
        self.snapshot().write_json(w);
    }
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_and_ordered() {
        let r = EventRing::with_capacity(3);
        for t in 0..5 {
            r.record(EventKind::TaskCompleted { task: t });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.recorded(), 5);
        let seqs: Vec<u64> = r.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn export_shapes() {
        let r = EventRing::new();
        assert_eq!(r.to_json(), "[]");
        let kinds = [
            EventKind::TaskSubmitted {
                task: 1,
                name: "drain \"pod\"\n".into(),
            },
            EventKind::TaskCompleted { task: 1 },
            EventKind::TaskAborted { task: 2 },
            EventKind::LockRequested {
                task: 3,
                objects: 4,
                exclusive: true,
            },
            EventKind::LockGranted {
                task: 3,
                objects: 4,
                wait_ns: 5,
            },
            EventKind::LockReleased {
                task: 3,
                objects: 4,
            },
            EventKind::WalAppend { records: 3, seq: 9 },
            EventKind::RollbackPlanned { task: 2, steps: 6 },
            EventKind::CertViolation {
                task: "audit\\7".into(),
            },
            EventKind::AuditNonCompliant {
                spec: "fleet\taudit".into(),
                devices: 92,
                non_compliant: 1,
            },
        ];
        let mut names = std::collections::BTreeSet::new();
        for kind in kinds {
            names.insert(kind.name());
            r.record(kind);
        }
        // One of every variant (a new variant makes `write_fields`'s match
        // non-exhaustive; add it here too).
        assert_eq!(names.len(), 10);
        let json = r.to_json();
        assert!(crate::json::tests::well_formed(&json), "{json}");
        assert!(json.starts_with("[{\"seq\":0,\"at_ns\":"));
        assert!(json.contains("\"event\":\"wal_append\",\"records\":3,\"seq\":9}"));
        assert!(json.contains("drain \\\"pod\\\"\\n"), "{json}");
        assert!(json.contains("\"exclusive\":true"));
    }
}
