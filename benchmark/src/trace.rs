//! Spans recorded from outside the program: the device-plane shim and
//! the JSONL trace file.
//!
//! The harness may not add instruments to the program, so the only
//! in-path shim is [`TimedService`], a [`DeviceService`] wrapper at the
//! public trait boundary between the runtime and the emulated network.
//! Client-side spans come from the driver's own task records.

use occam::emunet::{DeviceService, FuncArgs, FuncResult};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One `DeviceService::execute` call as seen by the shim.
#[derive(Clone, Debug)]
pub struct DeviceSpan {
    pub func: String,
    /// First device of the call, enough to match the call to a scope.
    pub first_device: String,
    pub devices: usize,
    /// Hash of the whole device list: pairs a drain with its undrain.
    pub device_set: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Nanoseconds from `epoch` to `t` (0 if `t` is earlier).
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Shared clock and span sink of one traced run. Dormant until
/// [`Tracer::enable`]; the untraced reference window of a traced run
/// executes with the shim installed but recording nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    device: Mutex<Vec<DeviceSpan>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            device: Mutex::new(Vec::new()),
        })
    }

    pub fn enable(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The instant every span time counts from; the driver adopts it as
    /// the run epoch so client and device spans share one time base.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the tracer was created — the time base of every
    /// span in the trace file.
    pub fn ns(&self, t: Instant) -> u64 {
        ns_since(self.epoch, t)
    }

    /// Takes the device spans recorded so far.
    pub fn take_device_spans(&self) -> Vec<DeviceSpan> {
        std::mem::take(&mut *self.device.lock().expect("span sink poisoned"))
    }
}

/// Times every device call and otherwise returns exactly what the inner
/// service returns.
pub struct TimedService {
    inner: Arc<dyn DeviceService>,
    tracer: Arc<Tracer>,
}

impl TimedService {
    pub fn new(inner: Arc<dyn DeviceService>, tracer: Arc<Tracer>) -> TimedService {
        TimedService { inner, tracer }
    }
}

impl DeviceService for TimedService {
    fn execute(&self, func: &str, devices: &[String], args: &FuncArgs) -> FuncResult {
        if !self.tracer.enabled() {
            return self.inner.execute(func, devices, args);
        }
        let start = Instant::now();
        let result = self.inner.execute(func, devices, args);
        let end = Instant::now();
        let mut h = DefaultHasher::new();
        devices.hash(&mut h);
        self.tracer
            .device
            .lock()
            .expect("span sink poisoned")
            .push(DeviceSpan {
                func: func.to_string(),
                first_device: devices.first().cloned().unwrap_or_default(),
                devices: devices.len(),
                device_set: h.finish(),
                start_ns: self.tracer.ns(start),
                end_ns: self.tracer.ns(end),
            });
        result
    }

    fn advance(&self, ticks: u64) {
        self.inner.advance(ticks);
    }

    // The spec compiler's wave strategy downcasts the service to
    // `EmuService` to read the topology; forwarding keeps that working
    // with the shim installed.
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}

/// One line of `out/trace-<workload>.jsonl`.
pub struct SpanLine<'a> {
    /// Gateway ticket; `None` where a device call could not be pinned to
    /// one task.
    pub trace: Option<u64>,
    pub span: u64,
    pub parent: Option<u64>,
    pub layer: &'a str,
    pub name: &'a str,
    pub start_ns: u64,
    pub end_ns: u64,
}

fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Minimal JSON string escaping for names the harness itself generates.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn write_span<W: Write>(w: &mut W, s: &SpanLine<'_>) -> std::io::Result<()> {
    writeln!(
        w,
        "{{\"trace\": {}, \"span\": {}, \"parent\": {}, \"layer\": {}, \"name\": {}, \
         \"start_ns\": {}, \"end_ns\": {}}}",
        json_opt(s.trace),
        s.span,
        json_opt(s.parent),
        json_str(s.layer),
        json_str(s.name),
        s.start_ns,
        s.end_ns
    )
}
