//! Named instrument registry with JSON export.

use crate::json::{self, Fixed, ToJson, Writer};
use crate::{Counter, EventRing, Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A named, get-or-create collection of [`Counter`]s and [`Histogram`]s
/// plus one shared [`EventRing`].
///
/// Cloning is cheap (`Arc`) and shares every instrument, so a single
/// registry threads through a whole runtime or simulation run: components
/// register their instruments by name at construction and the bench
/// binaries read them back by the same names. The name contract lives in
/// `DESIGN.md` §9.
///
/// Lookup takes a short mutex on a `BTreeMap`; hot paths should call
/// [`Registry::counter`]/[`Registry::histogram`] once and keep the
/// returned handle, which is lock-free to update.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    events: EventRing,
}

impl Registry {
    /// A registry with the default event-ring capacity.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A registry whose event ring holds at most `cap` events.
    pub fn with_event_capacity(cap: usize) -> Registry {
        Registry {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: EventRing::with_capacity(cap),
            }),
        }
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.inner.counters.lock();
        m.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.inner.histograms.lock();
        m.entry(name.to_string()).or_default().clone()
    }

    /// The shared event ring.
    pub fn events(&self) -> EventRing {
        self.inner.events.clone()
    }

    /// Current value of counter `name`, without creating it (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .get(name)
            .map(Counter::get)
            .unwrap_or(0)
    }

    /// Snapshot of histogram `name`, without creating it.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        self.inner
            .histograms
            .lock()
            .get(name)
            .map(Histogram::snapshot)
    }

    /// All counters as sorted `(name, value)` pairs.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All histograms as sorted `(name, snapshot)` pairs.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner
            .histograms
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Exports every instrument as one JSON object:
    /// `{"counters": {..}, "histograms": {name: {count, sum, min, max,
    /// mean, p50, p90, p99}}, "events": {capacity, recorded, dropped}}`.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl ToJson for Registry {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("counters").object(|w| {
                for (name, v) in self.counters() {
                    w.field(&name, v);
                }
            });
            w.key("histograms").object(|w| {
                for (name, h) in self.histograms() {
                    w.field(&name, h);
                }
            });
            let ev = self.events();
            w.key("events").object(|w| {
                w.field("capacity", ev.capacity())
                    .field("recorded", ev.recorded())
                    .field("dropped", ev.dropped());
            });
        });
    }
}

impl ToJson for HistogramSnapshot {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("count", self.count)
                .field("sum", self.sum)
                .field("min", self.min)
                .field("max", self.max)
                .field("mean", Fixed(self.mean(), 3))
                .field("p50", self.quantile(0.50))
                .field("p90", self.quantile(0.90))
                .field("p99", self.quantile(0.99));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_shares_instruments() {
        let r = Registry::new();
        r.counter("a.b").inc();
        r.counter("a.b").inc();
        assert_eq!(r.counter_value("a.b"), 2);
        assert_eq!(r.counter_value("missing"), 0);
        r.histogram("h").record(7);
        assert_eq!(r.histogram_snapshot("h").unwrap().count, 1);
        assert!(r.histogram_snapshot("missing").is_none());
    }

    #[test]
    fn clones_share_everything() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("x").inc();
        r2.events()
            .record(crate::EventKind::TaskCompleted { task: 1 });
        assert_eq!(r2.counter_value("x"), 1);
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn exports_are_well_formed() {
        let r = Registry::with_event_capacity(8);
        r.counter("c.one").add(3);
        r.histogram("h.lat_ns").record(1000);
        r.counter("odd \"name\"\n").inc();
        r.histogram("h.empty");
        r.events()
            .record(crate::EventKind::TaskCompleted { task: 1 });
        let json = r.to_json();
        assert!(crate::json::tests::well_formed(&json), "{json}");
        assert!(json.contains("\"c.one\":3"));
        assert!(json.contains("\"odd \\\"name\\\"\\n\":1"), "{json}");
        assert!(
            json.contains(
                "\"h.lat_ns\":{\"count\":1,\"sum\":1000,\"min\":1000,\"max\":1000,\"mean\":1000.000,"
            ),
            "{json}"
        );
        assert!(json.ends_with("\"events\":{\"capacity\":8,\"recorded\":1,\"dropped\":0}}"));
        assert!(crate::json::tests::well_formed(&Registry::new().to_json()));
    }
}
