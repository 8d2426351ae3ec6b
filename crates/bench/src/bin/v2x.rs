//! V2X message-plane harness: platooning + fleet-wide OTA rollout
//! (DESIGN.md §9).
//!
//! Runs the full V2X scenario — N vehicles on the epoch-barriered message
//! plane, the lead broadcasting authenticated platoon messages, a staged
//! `SignedBundle` rollout, and the compromised member mounting the
//! spoof/replay/tamper platoon variants plus the tampered and stale OTA
//! replays. One warm-up pass primes the allocator and page cache, then the
//! scenario runs **three timed passes with the same seed** (throughput is
//! the median, so one scheduler hiccup cannot gate CI) plus once more
//! single-threaded, and asserts:
//!
//! * the deterministic metric sections (which include every vehicle's
//!   per-epoch inbox digest) are byte-identical across all five runs —
//!   replay- and thread-count-invariance in one check,
//! * no attacker-originated platoon message was accepted
//!   (`v2x.leaked == 0`) and no in-vehicle attack frame leaked,
//! * the legitimate rollout wave completed on every vehicle
//!   (`ota.applied == vehicles`),
//! * the tampered and stale bundles were rejected by **every** vehicle, and
//! * undelivered-mail accounting is exact: `plane.undelivered` equals
//!   `plane.undelivered_inbox + plane.undelivered_parked`, and with no
//!   fault plan nothing is ever parked.
//!
//! Writes `BENCH_v2x.json` (including the resolved `"threads"` count the
//! timed runs actually used and the `"host"` stamp of
//! [`polsec_bench::host_stamp`]) and exits non-zero on any violation.
//!
//! Usage: `v2x [vehicles] [epochs] [frames_per_epoch] [threads] [seed]`
//! (defaults 100, 10, 1000, auto, 42).

use polsec_car::v2x::{run_v2x, V2xConfig, V2xReport};
use polsec_sim::resolve_threads;

fn run(cfg: &V2xConfig) -> (V2xReport, String) {
    let report = run_v2x(cfg);
    let json = report.metrics.to_json();
    (report, json)
}

/// Median of three timings: robust to a single outlier pass.
fn median3(mut xs: [f64; 3]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[1]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let vehicles: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let epochs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);
    let frames_per_epoch: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1_000);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(0);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let resolved_threads = resolve_threads(threads);

    let mut cfg = V2xConfig::new(vehicles, epochs, frames_per_epoch);
    cfg.fleet.threads = threads;
    cfg.fleet.seed = seed;

    polsec_bench::banner(&format!(
        "v2x: {vehicles} vehicles x {epochs} epochs x {frames_per_epoch} frames, \
         {resolved_threads} threads, defences {}",
        cfg.defenses.label()
    ));

    let (warmup, reference_json) = run(&cfg);
    eprintln!(
        "warm-up: {} frames, {} plane messages in {:.2}s",
        warmup.frames(),
        warmup.metrics.counter("plane.sent"),
        warmup.elapsed_sec
    );
    let mut timed = Vec::with_capacity(3);
    let mut deterministic = true;
    for pass in 1..=3u32 {
        let (report, json) = run(&cfg);
        eprintln!("timed run {pass}: {} frames in {:.2}s", report.frames(), report.elapsed_sec);
        deterministic &= json == reference_json;
        timed.push((report, json));
    }
    let mut serial_cfg = cfg.clone();
    serial_cfg.fleet.threads = 1;
    let (mut serial, serial_json) = run(&serial_cfg);
    eprintln!("run (1 thread): {} frames in {:.2}s", serial.frames(), serial.elapsed_sec);
    deterministic &= serial_json == reference_json;

    let m = &mut serial.metrics;
    let v2x_leaked = m.counter("v2x.leaked");
    let fleet_leaked = m.counter("attack.leaked");
    let applied = m.counter("ota.applied");
    let tamper_rejected = m.counter("ota.rejected_signature");
    let tamper_sent = m.counter("ota.attack.tampered");
    let stale_rejected = m.counter("ota.rejected_stale");
    let stale_sent = m.counter("ota.attack.stale");
    let accepted = m.counter("v2x.accepted");
    let ecu_msgs = m.counter("v2x.ecu_platoon_msgs");
    let undelivered = m.counter("plane.undelivered");
    let undelivered_inbox = m.counter("plane.undelivered_inbox");
    let undelivered_parked = m.counter("plane.undelivered_parked");
    let frames = serial.frames();
    let elapsed_sec = median3([
        timed[0].0.elapsed_sec,
        timed[1].0.elapsed_sec,
        timed[2].0.elapsed_sec,
    ]);
    let frames_per_sec = frames as f64 / elapsed_sec.max(1e-9);

    let wall_json = serial.wall.to_json();
    let summary = format!(
        concat!(
            "{{\"bench\":\"v2x\",\"host\":{},\"vehicles\":{},\"epochs\":{},\"frames_per_epoch\":{},",
            "\"threads\":{},\"seed\":{},\"defenses\":\"{}\",\"deterministic_replay\":{},",
            "\"frames\":{},\"frames_per_sec\":{:.0},\"elapsed_sec\":{:.3},",
            "\"v2x_accepted\":{},\"v2x_leaked\":{},\"ecu_platoon_msgs\":{},",
            "\"ota_applied\":{},\"ota_tamper_rejected\":{},\"ota_stale_rejected\":{},",
            "\"metrics\":{},\"wall\":{}}}"
        ),
        polsec_bench::host_stamp(),
        vehicles,
        epochs,
        frames_per_epoch,
        resolved_threads,
        seed,
        cfg.defenses.label(),
        deterministic,
        frames,
        frames_per_sec,
        elapsed_sec,
        accepted,
        v2x_leaked,
        ecu_msgs,
        applied,
        tamper_rejected,
        stale_rejected,
        serial_json,
        wall_json,
    );
    println!("{summary}");
    if let Err(e) = std::fs::write("BENCH_v2x.json", format!("{summary}\n")) {
        eprintln!("note: could not write BENCH_v2x.json: {e}");
    }

    let mut failed = false;
    if !deterministic {
        eprintln!("FAIL: replay or thread-count variance in the deterministic metrics");
        let a = &reference_json;
        let b = timed
            .iter()
            .map(|(_, j)| j)
            .chain(std::iter::once(&serial_json))
            .find(|j| **j != *a)
            .unwrap_or(&serial_json);
        let byte = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.len().min(b.len()));
        let lo = byte.saturating_sub(60);
        eprintln!("  a[..]: {}", &a[lo..(byte + 60).min(a.len())]);
        eprintln!("  b[..]: {}", &b[lo..(byte + 60).min(b.len())]);
        failed = true;
    }
    if v2x_leaked > 0 {
        eprintln!("FAIL: {v2x_leaked} attacker platoon messages were accepted");
        failed = true;
    }
    if fleet_leaked > 0 {
        eprintln!("FAIL: {fleet_leaked} in-vehicle attack frame deliveries leaked");
        failed = true;
    }
    if applied != vehicles as u64 {
        eprintln!("FAIL: rollout applied on {applied}/{vehicles} vehicles");
        failed = true;
    }
    if tamper_sent > 0 && tamper_rejected != vehicles as u64 {
        eprintln!(
            "FAIL: tampered bundle rejected by {tamper_rejected}/{vehicles} vehicles"
        );
        failed = true;
    }
    if stale_sent > 0 && stale_rejected != vehicles as u64 {
        eprintln!("FAIL: stale bundle rejected by {stale_rejected}/{vehicles} vehicles");
        failed = true;
    }
    if accepted == 0 || ecu_msgs == 0 {
        eprintln!("FAIL: platooning never reached the followers' ECUs");
        failed = true;
    }
    if undelivered != undelivered_inbox + undelivered_parked {
        eprintln!(
            "FAIL: undelivered accounting split ({undelivered} != \
             {undelivered_inbox} inbox + {undelivered_parked} parked)"
        );
        failed = true;
    }
    if undelivered_parked > 0 {
        eprintln!(
            "FAIL: {undelivered_parked} deliveries parked past the run end \
             without a fault plan"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
