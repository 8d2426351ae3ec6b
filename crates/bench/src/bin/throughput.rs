//! Multi-threaded decision throughput with allocation accounting.
//!
//! Drives N threads of `PolicyEngine::decide` against one shared engine and
//! prints a single-line JSON summary so future PRs have a machine-readable
//! perf trajectory (also written to `BENCH_throughput.json`):
//!
//! ```json
//! {"bench":"throughput","host":{"cpu":...},"threads":4,"rules":1000,
//!  "decisions_per_sec":...,"allocs_per_hit":0.0,"zero_alloc_hit":true,...}
//! ```
//!
//! A counting global allocator asserts the DESIGN.md §6 contract: once the
//! decision cache is warm, a cache-hit `decide` performs **zero heap
//! allocations**. The process exits non-zero if that contract is violated.
//!
//! Usage: `throughput [threads] [rules] [seconds]` (defaults 4, 1000, 1).

use polsec_core::{
    AccessRequest, Action, ActionSet, EntityId, EntityMatcher, Pattern, Policy, PolicyEngine,
    PolicySet, Rule,
};
use polsec_core::{Effect, EvalContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counters are
// plain atomics with no allocation of their own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn policy_with_rules(n: usize) -> Policy {
    let mut p = Policy::new("throughput", 1);
    for i in 0..n {
        p = p
            .add_rule(Rule::new(
                format!("r{i}"),
                if i % 4 == 0 { Effect::Deny } else { Effect::Allow },
                ActionSet::of(&[Action::Read, Action::Write]),
                EntityMatcher::new("entry", Pattern::Exact(format!("subject-{i}"))),
                EntityMatcher::new("asset", Pattern::Exact(format!("asset-{}", i % 16))),
            ))
            .expect("unique rule ids");
    }
    p
}

fn main() {
    let mut args = polsec_bench::Args::from_env(
        "throughput [threads] [rules] [seconds]",
    );
    let threads: usize = args.next_or("threads", 4);
    let rules: usize = args.next_or("rules", 1_000);
    let seconds: f64 = args.next_or("seconds", 1.0);

    let engine = Arc::new(PolicyEngine::new(PolicySet::from_policy(policy_with_rules(rules))));
    let ctx = EvalContext::new().with_mode("normal");

    // A working set of distinct requests, each decided once to warm the
    // decision cache.
    let requests: Vec<AccessRequest> = (0..256.min(rules.max(1)))
        .map(|i| {
            AccessRequest::new(
                EntityId::new("entry", format!("subject-{i}")),
                EntityId::new("asset", format!("asset-{}", i % 16)),
                Action::Read,
            )
        })
        .collect();
    for r in &requests {
        black_box(engine.decide(r, &ctx));
    }

    // Zero-allocation assertion: a window of pure cache hits, single
    // threaded, must not allocate at all.
    const HIT_WINDOW: u64 = 100_000;
    let allocs_before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..HIT_WINDOW {
        let r = &requests[(i as usize) % requests.len()];
        black_box(engine.decide(r, &ctx));
    }
    let hit_allocs = ALLOCATIONS.load(Ordering::SeqCst) - allocs_before;
    let allocs_per_hit = hit_allocs as f64 / HIT_WINDOW as f64;
    let zero_alloc_hit = hit_allocs == 0;

    // Multi-threaded throughput over the warmed engine.
    let deadline_calls: u64 = 2_000_000; // per thread upper bound
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let engine = Arc::clone(&engine);
        let requests = requests.clone();
        let ctx = ctx.clone();
        handles.push(std::thread::spawn(move || {
            let mut decided: u64 = 0;
            let started = Instant::now();
            while started.elapsed().as_secs_f64() < seconds && decided < deadline_calls {
                // Batch between clock checks.
                for i in 0..1_000u64 {
                    let r = &requests[((decided + i) as usize + t) % requests.len()];
                    black_box(engine.decide(r, &ctx));
                }
                decided += 1_000;
            }
            decided
        }));
    }
    let total_decisions: u64 = handles.into_iter().map(|h| h.join().expect("worker")).sum();
    let elapsed = start.elapsed().as_secs_f64();
    let decisions_per_sec = total_decisions as f64 / elapsed;

    let stats = engine.stats();
    let summary = format!(
        concat!(
            "{{\"bench\":\"throughput\",\"host\":{},\"threads\":{},\"rules\":{},",
            "\"decisions\":{},\"elapsed_sec\":{:.3},\"decisions_per_sec\":{:.0},",
            "\"allocs_per_hit\":{:.6},\"zero_alloc_hit\":{},",
            "\"cache_hits\":{},\"cache_misses\":{}}}"
        ),
        polsec_bench::host_stamp(),
        threads,
        rules,
        total_decisions,
        elapsed,
        decisions_per_sec,
        allocs_per_hit,
        zero_alloc_hit,
        stats.cache_hits,
        stats.cache_misses,
    );
    println!("{summary}");
    if let Err(e) = std::fs::write("BENCH_throughput.json", format!("{summary}\n")) {
        eprintln!("note: could not write BENCH_throughput.json: {e}");
    }

    if !zero_alloc_hit {
        eprintln!("FAIL: cache-hit decide allocated ({hit_allocs} allocations in {HIT_WINDOW} hits)");
        std::process::exit(1);
    }
}
