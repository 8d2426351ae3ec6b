//! Timing statistics, scaled to a nominal host.
//!
//! On a shared virtual host the speed a run gets swings with the
//! neighbours: while another tenant shares the physical core (or its
//! caches), every workload here ran at about 0.6× its calm rate, for
//! stretches of ten seconds to minutes, so raw figures of unchanged code
//! differed between sets of runs by more than any usable bound. The
//! benchmark therefore runs a reference [`probe`] after every call and
//! scales each timing sample by the probe that follows it: the figures are
//! the medians of what the run would show on a host where the probe takes
//! [`PROBE_NOMINAL_S`]. Scaling the run's fastest samples by its fastest
//! probes instead paired extremes from different moments of the run and
//! left 5–21% spreads between runs.
//!
//! The probe is work of the same kind the workloads do — an unstable sort
//! of an L2-sized array (data-dependent branches and loads) and
//! string-keyed hash-map lookups (SipHash, pointer chasing) — so a
//! neighbour slows it about as much as it slows them. A dependent ALU
//! chain, the first probe tried, follows the core clock but barely notices
//! a sibling hyper-thread, and left 35–40% swings in place. The probe is
//! the benchmark's own code, so no change to the measured crates moves it.
//! The raw figures are printed as notes.
//!
//! Every gated sample — a call, a set-up, a probe — is timed in the worker
//! thread's CPU time ([`Stopwatch`]), not in wall time. When the host
//! deschedules the virtual CPU (steal) or another task holds the core, wall
//! time counts the wait and CPU time does not: the kernel subtracts steal
//! from a task's run time. The wall rates are printed as notes.

use crate::report::Outcome;
use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::os::raw::{c_int, c_long};
use std::sync::OnceLock;
use std::time::Instant;

/// Elements the probe sorts: 256 KiB of `u32`, resident in a core's L2.
pub const PROBE_SORT_LEN: usize = 65_536;
/// Keys in the probe's hash map.
pub const PROBE_KEYS: usize = 2_000;
/// Lookups per probe.
pub const PROBE_LOOKUPS: usize = 10_000;
/// The probe's duration on the nominal host, about 10% slower than it ran
/// on a calm 2-vCPU Xeon virtual machine.
pub const PROBE_NOMINAL_S: f64 = 0.002;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// Linux's per-thread CPU-time clock.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// Seconds of CPU time the calling thread has run.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and thread-CPU time since it started.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: thread_cpu_s(),
        }
    }

    /// `(wall_s, cpu_s)` since [`Stopwatch::start`].
    pub fn read(&self) -> (f64, f64) {
        let cpu = thread_cpu_s() - self.cpu;
        (self.wall.elapsed().as_secs_f64(), cpu)
    }
}

/// The probe's fixed inputs. The map hashes with fixed SipHash keys, so
/// every run lays it out alike.
struct ProbeInput {
    unsorted: Vec<u32>,
    keys: Vec<String>,
    map: HashMap<String, u32, BuildHasherDefault<DefaultHasher>>,
}

fn probe_input() -> &'static ProbeInput {
    static INPUT: OnceLock<ProbeInput> = OnceLock::new();
    INPUT.get_or_init(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let unsorted = (0..PROBE_SORT_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        let keys: Vec<String> = (0..PROBE_KEYS)
            .map(|i| format!("entry/ecu-{i:06}"))
            .collect();
        let map = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        ProbeInput {
            unsorted,
            keys,
            map,
        }
    })
}

/// The probe's work: sorts a copy of the array, then looks keys up in a
/// stride that visits them all. Returns a checksum of both.
pub fn probe_work() -> u64 {
    let input = probe_input();
    let mut v = input.unsorted.clone();
    v.sort_unstable();
    let mut sum = u64::from(v[v.len() / 2]);
    for r in 0..PROBE_LOOKUPS {
        let key = &input.keys[(r * 7919) % input.keys.len()];
        sum += u64::from(input.map[key]);
    }
    sum
}

/// CPU seconds one probe takes now, with its inputs in cache: an untimed
/// pass first, since the call before it (a V2X run's ~30 MB of vehicle
/// state) evicts them, and refilling the caches would time the memory
/// system instead.
pub fn probe() -> f64 {
    std::hint::black_box(probe_work());
    let started = Stopwatch::start();
    std::hint::black_box(probe_work());
    started.read().1
}

/// A run's timing samples, taken interleaved so they share host time.
///
/// Each call (or chunk) and each set-up is scaled by the probe that
/// follows it: the host's speed drifts within seconds, so a sample and the
/// probe right after it saw the same host. The reported figures are the
/// medians of the scaled samples. A sample no probe follows is neither
/// scaled nor reported.
#[derive(Debug, Default, Clone)]
pub struct Timing {
    /// Units per CPU second of each call (or chunk).
    pub rates: Vec<f64>,
    /// Units per wall second of the same calls.
    pub wall_rates: Vec<f64>,
    /// CPU seconds of each set-up.
    pub setups: Vec<f64>,
    /// CPU seconds of each probe.
    pub probes: Vec<f64>,
    /// `rates`, each scaled by the probe after it.
    scaled_rates: Vec<f64>,
    /// `setups`, each scaled by the probe after it.
    scaled_setups: Vec<f64>,
}

impl Timing {
    /// Times one probe and scales the samples taken since the last one.
    pub fn probe(&mut self) {
        self.record_probe(probe());
    }

    /// Scales the rates and set-ups recorded since the last probe by a
    /// probe that took `probe_s` CPU seconds.
    pub fn record_probe(&mut self, probe_s: f64) {
        self.probes.push(probe_s);
        let slow = probe_s / PROBE_NOMINAL_S;
        let rates = &self.rates[self.scaled_rates.len()..];
        self.scaled_rates.extend(rates.iter().map(|r| r * slow));
        let setups = &self.setups[self.scaled_setups.len()..];
        self.scaled_setups.extend(setups.iter().map(|s| s / slow));
    }

    /// Records one call of `units` timed as `(wall_s, cpu_s)`.
    pub fn sample(&mut self, units: f64, (wall_s, cpu_s): (f64, f64)) {
        self.rates.push(units / cpu_s);
        self.wall_rates.push(units / wall_s);
    }

    /// `throughput_per_s`: the median scaled rate.
    pub fn throughput(&self) -> f64 {
        median(&self.scaled_rates)
    }

    /// Reports `throughput_per_s` and `setup_s`, scaled, with the raw
    /// figures as notes.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("throughput_per_s", self.throughput(), "1/s");
        out.metric("setup_s", median(&self.scaled_setups), "s");
        out.note("throughput_raw_p50", median(&self.rates), "1/s");
        out.note("throughput_wall_p50", median(&self.wall_rates), "1/s");
        out.note("setup_raw_p50", median(&self.setups), "s");
        out.note(
            "host_scale",
            median(&self.probes) / PROBE_NOMINAL_S,
            "ratio",
        );
        out.note("rate_samples", self.scaled_rates.len() as f64, "count");
        out.note("setup_samples", self.scaled_setups.len() as f64, "count");
        out.note("probe_samples", self.probes.len() as f64, "count");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_sample_is_scaled_by_the_probe_after_it() {
        let mut t = Timing::default();
        t.sample(1000.0, (1.0, 1.0));
        t.setups.push(0.5);
        t.record_probe(PROBE_NOMINAL_S * 2.0);
        t.sample(1000.0, (1.0, 1.0));
        t.sample(3000.0, (1.0, 1.0));
        t.record_probe(PROBE_NOMINAL_S);
        t.sample(9.0, (1.0, 1.0));
        assert_eq!(t.scaled_rates, vec![2000.0, 1000.0, 3000.0]);
        assert_eq!(t.scaled_setups, vec![0.25]);
        assert_eq!(t.throughput(), 2000.0, "the unprobed last sample is left out");
    }

    #[test]
    fn scaling_cancels_a_host_that_drifts_within_the_run() {
        let mut t = Timing::default();
        for slow in [1.0, 1.5, 2.0, 1.2, 1.7] {
            t.sample(1000.0 / slow, (1.0, 1.0));
            t.setups.push(0.5 * slow);
            t.record_probe(PROBE_NOMINAL_S * slow);
        }
        let mut out = Outcome::default();
        t.report(&mut out);
        let throughput = out.metrics["throughput_per_s"].0;
        let setup = out.metrics["setup_s"].0;
        assert!((throughput - 1000.0).abs() < 1e-9, "{throughput}");
        assert!((setup - 0.5).abs() < 1e-12, "{setup}");
    }

    #[test]
    fn thread_cpu_time_advances_with_work_and_not_with_sleep() {
        let sleeping = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let (wall, cpu) = sleeping.read();
        assert!(wall >= 0.05 && cpu < 0.025, "wall {wall}, cpu {cpu}");
        let working = Stopwatch::start();
        for _ in 0..5 {
            std::hint::black_box(probe_work());
        }
        let (wall, cpu) = working.read();
        assert!(cpu > 0.0 && cpu <= wall + 1e-3, "wall {wall}, cpu {cpu}");
    }

    #[test]
    fn probe_work_is_fixed() {
        let expected = {
            let input = probe_input();
            let mut v = input.unsorted.clone();
            v.sort();
            let lookups: u64 = (0..PROBE_LOOKUPS)
                .map(|r| ((r * 7919) % PROBE_KEYS) as u64)
                .sum();
            u64::from(v[PROBE_SORT_LEN / 2]) + lookups
        };
        assert_eq!(probe_work(), expected);
        assert_eq!(probe_work(), expected);
        assert!(probe() > 0.0);
    }
}
