//! Metrics are folded and rendered without a string per vehicle or per
//! character.
//!
//! `run_fleet` and `run_v2x` add each finished vehicle's typed tally into
//! the run's, field by field, and render the run's `MetricSet` once. A
//! per-vehicle string-keyed set would own one heap string per counter key
//! and the map nodes holding them, every vehicle, so the allocations a
//! set-up-sized run makes per vehicle show whether such a fold came back.
//! `json_quote`, which renders every key of every JSON report, writes into
//! one string sized for its input. A counting global allocator measures
//! allocations per thread; the runs use one worker, which steps every
//! vehicle on the calling thread.

use polsec::car::fleet::{run_fleet, FleetConfig, FleetEnforcement};
use polsec::car::v2x::{run_v2x, V2xConfig};
use polsec::sim::json_quote;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialised and without a destructor: touching it never
    // allocates, so the allocator may use it
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// const-initialised thread-local cell with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made on this thread while `f` runs.
fn counted(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations per vehicle of a run: the difference between a `large` and
/// a `small` run over the vehicles it adds, so what every run pays once
/// (its shared engine, the first decide's audit ring) cancels out. Both are
/// measured after a first run, which parses the embedded policies and
/// interns their names for the process.
fn per_vehicle(small: usize, large: usize, run: impl Fn(usize)) -> f64 {
    run(small);
    let (few, many) = (counted(|| run(small)), counted(|| run(large)));
    (many - few) as f64 / (large - small) as f64
}

/// A set-up-sized fleet run (stackbench's `fleet` set-up: one frame per
/// vehicle, the shipped ladder, one worker) asks for 217.6 allocations per
/// vehicle optimised (219.5 unoptimised) on x86-64 Linux, rustc 1.95.0,
/// where folding each vehicle through a metric set of its own asked for
/// 276.9 (278.9): one string per counter key and the map nodes holding
/// them, every vehicle.
const FLEET_ALLOCATIONS_PER_VEHICLE: f64 = 240.0;

/// A set-up-sized V2X run (stackbench's `v2x_platoon` set-up: the fewest
/// epochs the rollout and the attack tail need, one frame per epoch, the
/// shipped ladder, one worker) asks for 405.6 allocations per vehicle
/// optimised (407.6 unoptimised), where the per-vehicle metric set asked
/// for 502.7 (504.7).
const V2X_ALLOCATIONS_PER_VEHICLE: f64 = 430.0;

#[test]
fn a_fleet_vehicle_folds_without_a_metric_set_of_its_own() {
    let per_vehicle = per_vehicle(10, 100, |vehicles| {
        let mut cfg = FleetConfig::new(vehicles, 1);
        cfg.threads = 1;
        cfg.enforcement = FleetEnforcement::shipped();
        run_fleet(&cfg);
    });
    assert!(
        per_vehicle <= FLEET_ALLOCATIONS_PER_VEHICLE,
        "a set-up-sized fleet run asked for {per_vehicle} allocations per vehicle; \
         the ceiling is {FLEET_ALLOCATIONS_PER_VEHICLE}"
    );
}

#[test]
fn a_v2x_vehicle_folds_without_a_metric_set_of_its_own() {
    let per_vehicle = per_vehicle(5, 25, |vehicles| {
        let probe = V2xConfig::new(vehicles, 0, 1);
        let mut cfg = V2xConfig::new(vehicles, probe.ota_waves + 5, 1);
        cfg.fleet.threads = 1;
        cfg.fleet.enforcement = FleetEnforcement::shipped();
        run_v2x(&cfg);
    });
    assert!(
        per_vehicle <= V2X_ALLOCATIONS_PER_VEHICLE,
        "a set-up-sized V2X run asked for {per_vehicle} allocations per vehicle; \
         the ceiling is {V2X_ALLOCATIONS_PER_VEHICLE}"
    );
}

#[test]
fn json_quote_allocates_once_for_a_plain_key() {
    let mut quoted = String::new();
    let allocations = counted(|| quoted = json_quote("frames.blocked_ingress"));
    assert_eq!(quoted, "\"frames.blocked_ingress\"");
    assert_eq!(allocations, 1, "json_quote allocated per character");
}
