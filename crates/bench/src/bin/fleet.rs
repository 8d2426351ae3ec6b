//! Fleet-scale scenario harness.
//!
//! Runs a mixed-attack fleet (DESIGN.md §7) under the baseline enforcement
//! policy — gateway whitelists, per-node HPEs, segment HPEs, and the shared
//! `polsec-core` engine auditing every gateway crossing — one warm-up pass
//! plus **three timed passes with the same seed** (throughput is the median
//! pass), asserts the deterministic metric sections are byte-identical
//! across all passes and that no attack frame leaked, then writes
//! `BENCH_fleet.json` (including the resolved `"threads"` count and the
//! `"host"` stamp of [`polsec_bench::host_stamp`]):
//!
//! ```json
//! {"bench":"fleet","host":{"cpu":...},"vehicles":100,...,
//!  "deterministic_replay":true,"attack_blocked":...,
//!  "metrics":{...},"wall":{...}}
//! ```
//!
//! The `metrics` object is the replay-deterministic section (frame counts,
//! gateway/HPE counters, verdict-cycle quantiles, attack accounting); `wall`
//! holds wall-clock measurements (frames/s, shared-engine decide latency
//! quantiles, engine cache statistics), which legitimately vary run to run.
//!
//! The process exits non-zero if the replay is not byte-identical or if the
//! baseline policy leaked any attack frame.
//!
//! Usage: `fleet [vehicles] [frames_total] [threads] [seed] [min_fps]
//! [max_allocs_per_frame]` (defaults 100, 1_000_000, auto, 42, 0, 0). A
//! non-zero `min_fps` turns the run into a perf gate: the process exits
//! non-zero if the measured `frames_per_sec` falls below it (CI uses 1.5×
//! the PR 2 seed throughput). A non-zero `max_allocs_per_frame` gates the
//! counting-allocator ratio for the whole second run (the inline
//! `ActionVec` firmware API keeps the steady-state frame path
//! allocation-free, so the ratio is dominated by per-vehicle setup).

use polsec_car::fleet::{run_fleet, FleetConfig, FleetReport};
use polsec_sim::resolve_threads;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// plain atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn run(cfg: &FleetConfig) -> (FleetReport, String) {
    let report = run_fleet(cfg);
    let json = report.metrics.to_json();
    (report, json)
}

/// Median of three timings: robust to a single outlier pass.
fn median3(mut xs: [f64; 3]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[1]
}

fn main() {
    let mut args = polsec_bench::Args::from_env(
        "fleet [vehicles] [frames_total] [threads] [seed] [min_fps] [max_allocs_per_frame]",
    );
    let vehicles: usize = args.next_or("vehicles", 100);
    let frames_total: u64 = args.next_or("frames_total", 1_000_000);
    let threads: usize = args.next_or("threads", 0);
    let seed: u64 = args.next_or("seed", 42);
    let min_fps: f64 = args.next_or("min_fps", 0.0);
    let max_allocs_per_frame: f64 = args.next_or("max_allocs_per_frame", 0.0);

    let frames_per_vehicle = (frames_total / vehicles.max(1) as u64).max(1);
    let mut cfg = FleetConfig::new(vehicles, frames_per_vehicle);
    cfg.threads = threads;
    cfg.seed = seed;

    polsec_bench::banner(&format!(
        "fleet: {vehicles} vehicles x {frames_per_vehicle} frames, enforcement {}",
        cfg.enforcement.label()
    ));

    let (first, first_json) = run(&cfg);
    eprintln!(
        "warm-up: {} frames in {:.2}s",
        first.frames(),
        first.elapsed_sec
    );
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut timed = Vec::with_capacity(3);
    let mut deterministic = true;
    for pass in 1..=3u32 {
        let (report, json) = run(&cfg);
        eprintln!(
            "timed run {pass}: {} frames in {:.2}s",
            report.frames(),
            report.elapsed_sec
        );
        deterministic &= json == first_json;
        timed.push((report, json));
    }
    // Allocation ratio over all three timed passes: the warm-up already
    // paid the one-time pool growth, so this is the steady-state figure.
    let run_allocs = (ALLOCATIONS.load(Ordering::Relaxed) - allocs_before) / 3;
    let elapsed_sec = median3([
        timed[0].0.elapsed_sec,
        timed[1].0.elapsed_sec,
        timed[2].0.elapsed_sec,
    ]);
    let (second, second_json) = timed.pop().expect("three timed passes");

    let frames = second.frames();
    let leaked = second.leaked();
    // blocked and leaked_frames are both in injection units (distinct
    // attack frames), unlike attack.leaked which counts per-node copies
    let leaked_frames = second.metrics.counter("attack.leaked_frames");
    let injected = second.metrics.counter("attack.injected");
    let blocked = injected.saturating_sub(leaked_frames);
    let frames_per_sec = frames as f64 / elapsed_sec.max(1e-9);
    // Whole-run allocation accounting (vehicle construction, simulation,
    // merge and JSON render) divided by frames carried: the inline
    // ActionVec firmware API keeps the steady-state frame path
    // allocation-free, so this ratio is dominated by per-vehicle setup.
    let allocs_per_frame = run_allocs as f64 / frames.max(1) as f64;
    eprintln!("allocations: {run_allocs} over {frames} frames ({allocs_per_frame:.4}/frame)");

    let wall_json = second.wall.to_json();
    let summary = format!(
        concat!(
            "{{\"bench\":\"fleet\",\"host\":{},\"vehicles\":{},\"frames_per_vehicle\":{},",
            "\"threads\":{},\"seed\":{},\"enforcement\":\"{}\",\"deterministic_replay\":{},",
            "\"frames\":{},\"frames_per_sec\":{:.0},\"elapsed_sec\":{:.3},",
            "\"attack_injected\":{},\"attack_blocked\":{},\"attack_leaked\":{},",
            "\"allocs_per_frame\":{:.4},",
            "\"metrics\":{},\"wall\":{}}}"
        ),
        polsec_bench::host_stamp(),
        vehicles,
        frames_per_vehicle,
        resolve_threads(threads),
        seed,
        cfg.enforcement.label(),
        deterministic,
        frames,
        frames_per_sec,
        elapsed_sec,
        injected,
        blocked,
        leaked,
        allocs_per_frame,
        second_json,
        wall_json,
    );
    println!("{summary}");
    if let Err(e) = std::fs::write("BENCH_fleet.json", format!("{summary}\n")) {
        eprintln!("note: could not write BENCH_fleet.json: {e}");
    }

    let mut failed = false;
    if !deterministic {
        eprintln!("FAIL: same-seed replay produced different deterministic metrics");
        // show the first divergence to keep debugging cheap
        let byte = first_json
            .bytes()
            .zip(second_json.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| first_json.len().min(second_json.len()));
        let lo = byte.saturating_sub(60);
        eprintln!("  run1[..]: {}", &first_json[lo..(byte + 60).min(first_json.len())]);
        eprintln!("  run2[..]: {}", &second_json[lo..(byte + 60).min(second_json.len())]);
        failed = true;
    }
    if leaked > 0 {
        eprintln!("FAIL: baseline enforcement leaked {leaked} attack frame deliveries");
        failed = true;
    }
    if min_fps > 0.0 && frames_per_sec < min_fps {
        eprintln!(
            "FAIL: throughput {frames_per_sec:.0} frames/s below the floor {min_fps:.0}"
        );
        failed = true;
    }
    if max_allocs_per_frame > 0.0 && allocs_per_frame > max_allocs_per_frame {
        eprintln!(
            "FAIL: {allocs_per_frame:.4} allocations/frame above the gate {max_allocs_per_frame}"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
