//! Host-speed calibration of the measured latencies.
//!
//! On a shared host the speed of compute-bound code swings by tens of
//! percent, from one second to the next and over spans longer than a run,
//! while the work itself does not change. A fixed probe kernel, compiled into this
//! package and therefore untouched by changes to the repository, is timed
//! between operations to track that speed. Each operation is timed in
//! wall time and in process CPU time (all threads, the in-process daemon
//! included); the CPU share is rescaled to the speed at which the probe
//! takes [`REFERENCE_PROBE`], and the rest — waiting on sleeps, sockets
//! and disks — is kept as measured:
//!
//! `latency = (wall − cpu) + cpu × REFERENCE_PROBE / probe`
//!
//! where `probe` is the median of the probes nearest the interval, taken
//! on both sides of it: the host's speed changes within seconds, so
//! probes from before an interval alone lag behind the speed it ran at.
//! Intervals are therefore rescaled only once the run is over. A change
//! that saves CPU time or waiting shows in full; the host's speed does not.

use std::time::{Duration, Instant};

/// The probe's duration on the reference host (a 2-vCPU x86-64 virtual machine
/// at 2.0 GHz), which the rescaled latencies are expressed at.
const REFERENCE_PROBE: Duration = Duration::from_micros(700);

/// Probe at most this often, so short operations are not drowned by it.
const PROBE_EVERY: Duration = Duration::from_millis(20);

/// An interval's speed estimate is the median of this many probes before
/// it and as many after it.
const SIDE: usize = 2;

/// A fixed compute-bound kernel in the style of the simulator: a hash
/// map of counters and a binary-heap event queue driven by a xorshift
/// stream.
fn probe_kernel() -> u64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    let mut counters: HashMap<u64, u64> = HashMap::with_capacity(1 << 12);
    let mut events = BinaryHeap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0u64;
    for i in 0..6_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counters.entry(x % 3_000).or_insert(0) += i;
        events.push(Reverse((x % 1_000, i)));
        if events.len() > 128 {
            if let Some(Reverse((t, j))) = events.pop() {
                acc = acc.wrapping_add(t ^ j);
                if t % 3 == 0 {
                    acc = acc.rotate_left(3);
                }
            }
        }
        acc = acc.wrapping_add(counters.get(&(x % 3_000)).copied().unwrap_or(0));
    }
    acc
}

#[cfg(target_os = "linux")]
fn process_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        /// `clock_gettime(2)` from the libc `std` already links.
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets) for the whole call, and the
    // clock id is the kernel's constant for this process's CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is non-negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds are below one second"),
    )
}

/// Without a process CPU clock every interval counts as waiting, so
/// latencies are reported as measured.
#[cfg(not(target_os = "linux"))]
fn process_cpu_time() -> Duration {
    Duration::ZERO
}

/// Where an interval started, on both clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            cpu: process_cpu_time(),
            wall: Instant::now(),
        }
    }
}

/// An interval as measured, before rescaling.
pub struct Sample {
    wall: Duration,
    cpu: Duration,
    /// How many probes had been taken when the interval ended.
    probes_before: usize,
}

/// Tracks the host's speed and rescales measured intervals by it.
pub struct HostClock {
    /// Every probe of the run, in order.
    probes: Vec<Duration>,
    last_probe: Option<Instant>,
}

impl HostClock {
    pub fn new() -> Self {
        let mut clock = Self {
            probes: Vec::new(),
            last_probe: None,
        };
        for _ in 0..SIDE {
            clock.probe();
        }
        clock
    }

    /// Times the probe kernel once.
    pub fn probe(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(probe_kernel());
        self.probes.push(t0.elapsed());
        self.last_probe = Some(Instant::now());
    }

    /// Probes if [`PROBE_EVERY`] has passed since the last probe; call it
    /// between operations, outside their timing.
    pub fn maybe_probe(&mut self) {
        if self.last_probe.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            self.probe();
        }
    }

    /// The interval since `sw`, to be rescaled by [`HostClock::rescale`]
    /// once the probes after it have been taken.
    pub fn elapsed(&self, sw: &Stopwatch) -> Sample {
        let wall = sw.wall.elapsed();
        Sample {
            wall,
            cpu: process_cpu_time().saturating_sub(sw.cpu).min(wall),
            probes_before: self.probes.len(),
        }
    }

    /// Takes the probes that follow the last interval of a run; call it
    /// before rescaling that interval.
    pub fn finish(&mut self) {
        for _ in 0..SIDE {
            self.probe();
        }
    }

    /// `sample` with its CPU share rescaled to the reference speed, by the
    /// [`SIDE`] probes before it and the [`SIDE`] after it (fewer where the
    /// run has no more).
    pub fn rescale(&self, sample: &Sample) -> Duration {
        let k = sample.probes_before;
        let mut near =
            self.probes[k.saturating_sub(SIDE)..(k + SIDE).min(self.probes.len())].to_vec();
        near.sort_unstable();
        let n = near.len();
        let probe = (near[(n - 1) / 2] + near[n / 2]) / 2;
        sample.wall.saturating_sub(sample.cpu)
            + sample
                .cpu
                .mul_f64(REFERENCE_PROBE.as_secs_f64() / probe.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the CPU clock is process-wide, so a concurrent test's
    // work would count as this one's.
    #[test]
    fn rescales_compute_and_keeps_waiting() {
        let mut clock = HostClock::new();
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(30));
        let slept = clock.elapsed(&sw);
        clock.probe();

        let sw = Stopwatch::start();
        for _ in 0..20 {
            std::hint::black_box(probe_kernel());
        }
        let computed = clock.elapsed(&sw);
        clock.finish();

        let waited = clock.rescale(&slept);
        assert!(waited >= Duration::from_millis(29), "{waited:?}");
        assert!(waited < Duration::from_millis(200), "{waited:?}");
        // Twenty probes' worth of compute reads as about twenty reference
        // probes, whatever this host's speed.
        let ratio = clock.rescale(&computed).as_secs_f64() / (20.0 * REFERENCE_PROBE.as_secs_f64());
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }
}
