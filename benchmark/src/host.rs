//! How fast the host let the cores run while the benchmark measured.
//!
//! The benchmark runs on a few cores of a shared machine. When a
//! neighbour competes for a core (most likely from its other hardware
//! thread; a guest cannot see which), everything on that core runs
//! slower, for seconds or for minutes, and on the box
//! the benchmark was sized on that alone moved `tasks_per_s` by a quarter
//! between two runs of the same binary on the same seed. The neighbour
//! cannot be stopped, but it can be seen: a fixed piece of register-only
//! arithmetic takes the same number of cycles every time, so how long it
//! takes says how fast the core is running right now.
//!
//! [`HostProbe`] times that kernel every [`PROBE_PERIOD`] on a thread of
//! its own (30 µs of work every 10 ms). [`HostProbe::slowdown`] turns the
//! samples of a time span into one factor, ≥ 1: the kernel's 75th
//! percentile over the span divided by its 5th percentile over the whole
//! run (the undisturbed core). Over 36 runs of three workloads the factor
//! tracked the measured throughput with r = −0.93…−0.95 and an exponent
//! of 0.9…1.2, so the end-to-end times are reported divided by it and the
//! rate multiplied by it (see `README.md`, "Host noise"). The factor is a
//! property of the machine during the run; nothing the program does
//! enters it.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the kernel is timed.
pub const PROBE_PERIOD: Duration = Duration::from_millis(10);
/// Iterations of the kernel: ≈30 µs on an undisturbed 2 GHz core.
const KERNEL_ITERS: u64 = 20_000;

/// Four independent dependency chains of integer arithmetic: enough
/// instruction-level parallelism that whatever takes execution resources
/// away from the core shows at once (a single chain barely moved); no
/// memory access, so nothing the program under test does to the caches
/// enters the reading.
#[inline(never)]
fn kernel(seed: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (
        seed | 1,
        seed ^ 0x55,
        seed.rotate_left(9),
        seed.rotate_left(33),
    );
    for i in 0..KERNEL_ITERS {
        a = a.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
        b = (b ^ (b >> 7)).wrapping_add(i);
        c = c.rotate_left(5) ^ i;
        d = d.wrapping_add(d >> 3).wrapping_add(i);
    }
    a ^ b ^ c ^ d
}

/// Nearest-rank percentile of an ascending, non-empty slice.
fn rank(sorted: &[u32], p: usize) -> f64 {
    let r = (p * sorted.len()).div_ceil(100).clamp(1, sorted.len());
    f64::from(sorted[r - 1])
}

/// The sampling thread and what it has seen.
pub struct HostProbe {
    stop: Arc<AtomicBool>,
    /// `(ns since epoch, kernel ns)`.
    samples: Arc<Mutex<Vec<(u64, u32)>>>,
    thread: Option<JoinHandle<()>>,
}

impl HostProbe {
    /// Starts sampling. Sample times are nanoseconds since `epoch`.
    pub fn start(epoch: Instant) -> HostProbe {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let (stop_t, samples_t) = (Arc::clone(&stop), Arc::clone(&samples));
        let thread = std::thread::spawn(move || {
            let mut x = 1u64;
            while !stop_t.load(Ordering::Relaxed) {
                std::thread::sleep(PROBE_PERIOD);
                // Once untimed: a core that was halted while this thread
                // slept is awake by the second pass.
                x = kernel(black_box(x));
                let started = Instant::now();
                x = kernel(black_box(x));
                let took = started.elapsed();
                samples_t.lock().expect("probe samples").push((
                    crate::trace::ns_since(epoch, started),
                    u32::try_from(took.as_nanos()).unwrap_or(u32::MAX),
                ));
            }
            black_box(x);
        });
        HostProbe {
            stop,
            samples,
            thread: Some(thread),
        }
    }

    /// The slowdown factor of `[from_ns, to_ns)`; `1.0` when the span
    /// holds no sample.
    pub fn slowdown(&self, from_ns: u64, to_ns: u64) -> f64 {
        let samples = self.samples.lock().expect("probe samples");
        slowdown_of(&samples, from_ns, to_ns)
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// See [`HostProbe::slowdown`].
pub fn slowdown_of(samples: &[(u64, u32)], from_ns: u64, to_ns: u64) -> f64 {
    let mut all: Vec<u32> = samples.iter().map(|s| s.1).collect();
    let mut span: Vec<u32> = samples
        .iter()
        .filter(|s| (from_ns..to_ns).contains(&s.0))
        .map(|s| s.1)
        .collect();
    if span.is_empty() {
        return 1.0;
    }
    all.sort_unstable();
    span.sort_unstable();
    (rank(&span, 75) / rank(&all, 5)).max(1.0)
}
