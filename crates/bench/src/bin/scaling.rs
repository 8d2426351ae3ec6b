//! Thread-scaling harness for the overlapped message plane (DESIGN.md §12).
//!
//! Sweeps the full V2X scenario over 1/2/4/8 worker threads. Each thread
//! count gets one warm-up pass plus three timed passes; the reported
//! throughput per count is the **median** pass, so a single scheduler
//! hiccup cannot gate CI. Across the whole sweep — sixteen runs — the
//! deterministic metric sections (which include every vehicle's per-epoch
//! inbox digest) must be **byte-identical**: every pass is simultaneously a
//! replay check and a thread-count-invariance check for the overlapped
//! barrier.
//!
//! Two more assertions ride along:
//!
//! * **Zero-alloc routing**: a synthetic broadcast plane (`u64` payloads,
//!   no per-shard state to allocate) runs twice with different epoch
//!   counts under the counting allocator; the marginal allocations per
//!   extra epoch must be ~0, proving the double-buffered inboxes and the
//!   recycled outbox pool reach an allocation-free steady state.
//! * **Scaling ratio** (multicore hosts only): with `min_ratio > 0` and at
//!   least four hardware threads, the 4-thread-over-1-thread throughput
//!   ratio must meet the floor. On narrower hosts the ratio is recorded
//!   but not gated — oversubscribed "parallelism" proves nothing either
//!   way.
//!
//! Writes `BENCH_scaling.json` (sweep table, host parallelism, ratio,
//! allocation figures, the `"host"` stamp of [`polsec_bench::host_stamp`])
//! and exits non-zero on any violation.
//!
//! Usage: `scaling [vehicles] [epochs] [frames_per_epoch] [seed] [min_fps]
//! [min_ratio]` (defaults 100, 10, 1000, 42, 0, 0). A non-zero `min_fps`
//! gates the best throughput among the ≥4-thread sweep entries; a non-zero
//! `min_ratio` gates the 4-vs-1-thread ratio as above. Zero disables a
//! gate.

use polsec_car::v2x::{run_v2x, V2xConfig};
use polsec_sim::plane::{run_epochs, MessagePlane};
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

/// Median of three timings: robust to a single outlier pass.
fn median3(mut xs: [f64; 3]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[1]
}

/// A synthetic all-broadcast plane epoch run: `u64` payloads, stateless
/// shards, every envelope recycled through the outbox pool. Routing work
/// scales with `epochs`; everything else is fixed per run.
fn synthetic_routing_allocs(shards: usize, threads: usize, epochs: u64) -> u64 {
    let mut plane = MessagePlane::new();
    plane.group(1, 0..shards);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let merged = run_epochs(
        shards,
        threads,
        epochs,
        &plane,
        |shard| shard as u64,
        |state, ctx| {
            for env in ctx.inbox {
                *state = state.wrapping_add(env.msg);
            }
            ctx.outbox.broadcast(1, *state);
        },
        |state, m| m.count("sum", state),
    );
    assert!(merged.counter("plane.sent") >= epochs.saturating_sub(1));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn main() {
    let mut args = std::env::args().skip(1);
    let vehicles: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let epochs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);
    let frames_per_epoch: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1_000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let min_fps: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.0);
    let min_ratio: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.0);

    let host_parallelism = resolve_threads(0);
    polsec_bench::banner(&format!(
        "scaling: {vehicles} vehicles x {epochs} epochs x {frames_per_epoch} frames, \
         sweep 1/2/4/8 threads on a {host_parallelism}-thread host"
    ));

    // ---- zero-alloc steady-state routing ---------------------------------
    // Marginal allocations per extra routing epoch, after a warm run. The
    // short and long runs pay identical fixed costs (state init, worker
    // spawns, final merge), so the difference isolates the per-epoch
    // routing path: double-buffered inboxes + recycled outbox buffers
    // should make it allocation-free.
    let (short_epochs, long_epochs) = (50u64, 250u64);
    let mut routing_allocs_per_epoch: f64 = 0.0;
    for threads in [1usize, 2] {
        let _warm = synthetic_routing_allocs(32, threads, short_epochs);
        let short = synthetic_routing_allocs(32, threads, short_epochs);
        let long = synthetic_routing_allocs(32, threads, long_epochs);
        let per_epoch =
            (long.saturating_sub(short)) as f64 / (long_epochs - short_epochs) as f64;
        eprintln!(
            "routing allocs ({threads} thread{}): {short} @ {short_epochs} epochs, \
             {long} @ {long_epochs} epochs -> {per_epoch:.3}/epoch",
            if threads == 1 { "" } else { "s" }
        );
        routing_allocs_per_epoch = routing_allocs_per_epoch.max(per_epoch);
    }
    let zero_alloc_routing = routing_allocs_per_epoch <= 1.0;

    // ---- the sweep -------------------------------------------------------
    let sweep_threads = [1usize, 2, 4, 8];
    let mut reference_json: Option<String> = None;
    let mut deterministic = true;
    let mut sweep = Vec::new();
    for &threads in &sweep_threads {
        let mut cfg = V2xConfig::new(vehicles, epochs, frames_per_epoch);
        cfg.fleet.threads = threads;
        cfg.fleet.seed = seed;
        let mut frames = 0u64;
        let mut elapsed = Vec::with_capacity(4);
        for pass in 0..4u32 {
            let report = run_v2x(&cfg);
            let json = report.metrics.to_json();
            match &reference_json {
                None => reference_json = Some(json),
                Some(reference) => deterministic &= json == *reference,
            }
            frames = report.frames();
            if pass == 0 {
                eprintln!(
                    "{threads} threads warm-up: {frames} frames in {:.2}s",
                    report.elapsed_sec
                );
            } else {
                eprintln!(
                    "{threads} threads pass {pass}: {frames} frames in {:.2}s",
                    report.elapsed_sec
                );
                elapsed.push(report.elapsed_sec);
            }
        }
        let elapsed_sec = median3([elapsed[0], elapsed[1], elapsed[2]]);
        let frames_per_sec = frames as f64 / elapsed_sec.max(1e-9);
        eprintln!("{threads} threads: median {elapsed_sec:.3}s = {frames_per_sec:.0} frames/s");
        sweep.push((threads, frames, elapsed_sec, frames_per_sec));
    }

    let fps_at = |t: usize| {
        sweep
            .iter()
            .find(|(threads, ..)| *threads == t)
            .map(|&(.., fps)| fps)
            .unwrap_or(0.0)
    };
    let ratio_4_over_1 = fps_at(4) / fps_at(1).max(1e-9);
    let (best_threads, best_fps) = sweep
        .iter()
        .map(|&(t, .., fps)| (t, fps))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty sweep");
    let best_multithread_fps = sweep
        .iter()
        .filter(|(t, ..)| *t >= 4)
        .map(|&(.., fps)| fps)
        .fold(0.0f64, f64::max);
    let ratio_gated = min_ratio > 0.0 && host_parallelism >= 4;

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|&(threads, frames, elapsed_sec, fps)| {
            format!(
                "{{\"threads\":{threads},\"frames\":{frames},\
                 \"elapsed_sec\":{elapsed_sec:.3},\"frames_per_sec\":{fps:.0}}}"
            )
        })
        .collect();
    let summary = format!(
        concat!(
            "{{\"bench\":\"scaling\",\"host\":{},\"vehicles\":{},\"epochs\":{},\"frames_per_epoch\":{},",
            "\"threads\":{},\"seed\":{},\"host_parallelism\":{},",
            "\"deterministic_across_threads\":{},\"zero_alloc_routing\":{},",
            "\"routing_allocs_per_epoch\":{:.3},",
            "\"best_threads\":{},\"best_frames_per_sec\":{:.0},",
            "\"best_multithread_fps\":{:.0},\"ratio_4_over_1\":{:.3},\"ratio_gated\":{},",
            "\"sweep\":[{}]}}"
        ),
        polsec_bench::host_stamp(),
        vehicles,
        epochs,
        frames_per_epoch,
        host_parallelism,
        seed,
        host_parallelism,
        deterministic,
        zero_alloc_routing,
        routing_allocs_per_epoch,
        best_threads,
        best_fps,
        best_multithread_fps,
        ratio_4_over_1,
        ratio_gated,
        sweep_json.join(","),
    );
    println!("{summary}");
    if let Err(e) = std::fs::write("BENCH_scaling.json", format!("{summary}\n")) {
        eprintln!("note: could not write BENCH_scaling.json: {e}");
    }

    let mut failed = false;
    if !deterministic {
        eprintln!(
            "FAIL: deterministic metrics varied across the sweep — the overlapped \
             barrier leaked thread scheduling into the results"
        );
        failed = true;
    }
    if !zero_alloc_routing {
        eprintln!(
            "FAIL: steady-state routing allocates \
             ({routing_allocs_per_epoch:.3} allocations/epoch)"
        );
        failed = true;
    }
    if min_fps > 0.0 && best_multithread_fps < min_fps {
        eprintln!(
            "FAIL: best >=4-thread throughput {best_multithread_fps:.0} frames/s \
             below the floor {min_fps:.0}"
        );
        failed = true;
    }
    if ratio_gated && ratio_4_over_1 < min_ratio {
        eprintln!(
            "FAIL: 4-vs-1-thread ratio {ratio_4_over_1:.3} below the floor {min_ratio}"
        );
        failed = true;
    } else if min_ratio > 0.0 && !ratio_gated {
        eprintln!(
            "note: ratio floor skipped — host exposes only {host_parallelism} \
             hardware thread(s), a 4-thread run proves nothing here"
        );
    }
    if failed {
        std::process::exit(1);
    }
}
