//! Deterministic chaos-plane harness: fault injection, retransmits and
//! limp-home (DESIGN.md §10).
//!
//! Two scenarios, both on the epoch-barriered V2X message plane:
//!
//! 1. **Faulted rollout** (attacks off): a pinned [`FaultPlan`] drops 30%
//!    of deliveries, duplicates 20%, delays 25% by up to two epochs and
//!    reorders assembled inboxes, with bounded per-epoch inboxes. After a
//!    warm-up pass the run executes three times single-threaded (throughput
//!    is the median pass) and once each at 4 and 8 threads, and asserts the
//!    deterministic metric sections (which include every vehicle's
//!    per-epoch inbox digest) are **byte-identical** across all five
//!    counted runs, that the ack/retransmit machinery completed the OTA
//!    rollout on every vehicle exactly once (`ota.applied == vehicles`,
//!    `ota.version_sum == vehicles`, `ota.gave_up == 0`) and that every
//!    fault class actually fired.
//!
//! 2. **Lead outage** (attacks on, duplicate+reorder-only faults — with no
//!    drops every original arrives before any replayed copy, so the replay
//!    ladder is structurally airtight): the lead goes silent for six
//!    epochs. Every follower must enter limp-home after the heartbeat miss
//!    threshold and exit only after the clean-heartbeat hysteresis, the
//!    attacker's spoofed "resume" heartbeats must not short-circuit
//!    recovery (`v2x.leaked == 0`), and no vehicle may end degraded.
//!
//! Writes `BENCH_chaos.json` (with the `"host"` stamp of
//! [`polsec_bench::host_stamp`]) and exits non-zero on any violation.
//!
//! Usage: `chaos [vehicles] [epochs] [frames_per_epoch] [seed]`
//! (defaults 12, 40, 200, 42). Epochs below 18 are raised to 18 so the
//! outage window and its recovery tail always fit.

use polsec_car::v2x::{run_v2x, V2xConfig, V2xReport};
use polsec_sim::FaultPlan;

/// The pinned ISSUE-gate fault plan: ≥30% drop plus duplication plus
/// two-epoch delays plus reordering.
fn chaos_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    plan.drop = 0.30;
    plan.duplicate = 0.20;
    plan.delay = 0.25;
    plan.max_delay_epochs = 2;
    plan.reorder = 0.20;
    plan
}

/// Duplicate+reorder-only plan for the attacks-on outage scenario: no
/// drops, so a replayed authentic heartbeat always trails the original
/// past its victim's replay window.
fn dup_reorder_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    plan.duplicate = 0.50;
    plan.reorder = 0.50;
    plan
}

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

struct Gate {
    failed: bool,
}

impl Gate {
    fn check(&mut self, ok: bool, msg: &str) {
        if !ok {
            eprintln!("FAIL: {msg}");
            self.failed = true;
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let vehicles: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);
    let epochs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(40).max(18);
    let frames_per_epoch: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let mut gate = Gate { failed: false };

    // ---- scenario 1: faulted rollout, replay + thread invariance --------
    let mut cfg = V2xConfig::new(vehicles, epochs, frames_per_epoch);
    cfg.fleet.seed = seed;
    cfg.fleet.threads = 1;
    cfg.attacks = false;
    cfg.ota_retry_limit = 10;
    cfg.inbox_capacity = Some(64);
    cfg.faults = Some(chaos_plan(seed ^ 0xC405));

    polsec_bench::banner(&format!(
        "chaos: {vehicles} vehicles x {epochs} epochs x {frames_per_epoch} frames, \
         30% drop + dup + 2-epoch delay + reorder"
    ));

    let (warmup, _) = run(&cfg);
    eprintln!("warm-up (1 thread): {} frames in {:.2}s", warmup.frames(), warmup.elapsed_sec);
    let (first, first_json) = run(&cfg);
    eprintln!(
        "faulted run 1 (1 thread): {} frames, {} plane messages in {:.2}s",
        first.frames(),
        first.metrics.counter("plane.sent"),
        first.elapsed_sec
    );
    let (replay, replay_json) = run(&cfg);
    let (third, third_json) = run(&cfg);
    let mut variant_jsons = vec![third_json];
    for threads in [4usize, 8] {
        let mut variant = cfg.clone();
        variant.fleet.threads = threads;
        let (report, json) = run(&variant);
        eprintln!(
            "faulted run ({threads} threads): {} frames in {:.2}s",
            report.frames(),
            report.elapsed_sec
        );
        variant_jsons.push(json);
    }
    let replay_identical = first_json == replay_json;
    let thread_invariant = variant_jsons.iter().all(|j| *j == first_json);

    let m = &first.metrics;
    let dropped = m.counter("plane.dropped");
    let duplicated = m.counter("plane.duplicated");
    let delayed = m.counter("plane.delayed");
    let applied = m.counter("ota.applied");
    let version_sum = m.counter("ota.version_sum");
    let retransmits = m.counter("ota.retransmits");
    let gave_up = m.counter("ota.gave_up");
    let chaos_leaked = m.counter("v2x.leaked");
    let overflow = m.counter("plane.inbox_overflow");

    gate.check(replay_identical, "same-seed faulted replay diverged");
    gate.check(thread_invariant, "faulted metrics varied with thread count");
    gate.check(dropped > 0, "fault plan never dropped a delivery");
    gate.check(duplicated > 0, "fault plan never duplicated a delivery");
    gate.check(delayed > 0, "fault plan never delayed a delivery");
    gate.check(
        applied == vehicles as u64,
        &format!("rollout applied on {applied}/{vehicles} vehicles under 30% loss"),
    );
    gate.check(
        version_sum == vehicles as u64,
        &format!("version sum {version_sum} != {vehicles}: a bundle double-applied"),
    );
    gate.check(retransmits > 0, "30% loss produced zero retransmits");
    gate.check(gave_up == 0, &format!("lead gave up on {gave_up} deliveries"));
    gate.check(chaos_leaked == 0, &format!("{chaos_leaked} leaks in an attack-free run"));

    // ---- scenario 2: lead outage, limp-home, spoofed resume -------------
    let outage = (6u64, 12u64);
    let mut outage_cfg = V2xConfig::new(vehicles, epochs, frames_per_epoch);
    outage_cfg.fleet.seed = seed;
    outage_cfg.fleet.threads = 4;
    outage_cfg.faults = Some(dup_reorder_plan(seed ^ 0x0D0_D0D0));
    outage_cfg.lead_outage = Some(outage);

    let (outage_report, _) = run(&outage_cfg);
    eprintln!(
        "outage run: {} frames in {:.2}s",
        outage_report.frames(),
        outage_report.elapsed_sec
    );
    let followers = (vehicles - 1) as u64;
    let om = &outage_report.metrics;
    let outage_epochs = om.counter("v2x.lead_outage_epochs");
    let entries = om.counter("v2x.degraded_entries");
    let exits = om.counter("v2x.degraded_exits");
    let still_degraded = om.counter("v2x.ecu_still_degraded");
    let spoof_resume = om.counter("v2x.attack.spoof_resume");
    let dedup_dropped = om.counter("v2x.dedup_dropped");
    let outage_leaked = om.counter("v2x.leaked");
    let outage_applied = om.counter("ota.applied");

    gate.check(
        outage_epochs == outage.1 - outage.0,
        &format!("lead was silent {outage_epochs} epochs, expected {}", outage.1 - outage.0),
    );
    gate.check(
        entries == followers,
        &format!("{entries}/{followers} followers entered limp-home"),
    );
    gate.check(
        exits == followers,
        &format!("{exits}/{followers} followers recovered from limp-home"),
    );
    gate.check(still_degraded == 0, &format!("{still_degraded} vehicles ended degraded"));
    gate.check(spoof_resume > 0, "attacker never sent a spoofed resume burst");
    gate.check(dedup_dropped > 0, "duplication faults never reached the dedup window");
    gate.check(
        outage_leaked == 0,
        &format!("{outage_leaked} attacker messages accepted during the outage"),
    );
    gate.check(
        outage_applied == vehicles as u64,
        &format!("outage rollout applied on {outage_applied}/{vehicles} vehicles"),
    );

    let frames = first.frames();
    let elapsed_sec = median3([first.elapsed_sec, replay.elapsed_sec, third.elapsed_sec]);
    let frames_per_sec = frames as f64 / elapsed_sec.max(1e-9);
    let wall_json = outage_report.wall.to_json();
    let summary = format!(
        concat!(
            "{{\"bench\":\"chaos\",\"host\":{},\"vehicles\":{},\"epochs\":{},\"frames_per_epoch\":{},",
            "\"threads\":1,\"seed\":{},\"replay_identical\":{},\"thread_invariant\":{},",
            "\"frames\":{},\"frames_per_sec\":{:.0},\"elapsed_sec\":{:.3},",
            "\"plane_dropped\":{},\"plane_duplicated\":{},\"plane_delayed\":{},",
            "\"plane_inbox_overflow\":{},\"ota_applied\":{},\"ota_retransmits\":{},",
            "\"ota_gave_up\":{},\"degraded_entries\":{},\"degraded_exits\":{},",
            "\"still_degraded\":{},\"v2x_leaked\":{},",
            "\"metrics\":{},\"outage_metrics\":{},\"wall\":{}}}"
        ),
        polsec_bench::host_stamp(),
        vehicles,
        epochs,
        frames_per_epoch,
        seed,
        replay_identical,
        thread_invariant,
        frames,
        frames_per_sec,
        elapsed_sec,
        dropped,
        duplicated,
        delayed,
        overflow,
        applied,
        retransmits,
        gave_up,
        entries,
        exits,
        still_degraded,
        outage_leaked,
        first_json,
        outage_report.metrics.to_json(),
        wall_json,
    );
    println!("{summary}");
    if let Err(e) = std::fs::write("BENCH_chaos.json", format!("{summary}\n")) {
        eprintln!("note: could not write BENCH_chaos.json: {e}");
    }

    if gate.failed {
        std::process::exit(1);
    }
}
