//! The fleet-scale scenario engine: simulate a small fleet of segmented
//! vehicles under mixed attack traffic and compare enforcement ladders.
//!
//! Each vehicle is a powertrain and a comfort CAN segment bridged by a
//! whitelist gateway, with hardware policy engines on every node and on the
//! gateway endpoints, and one shared `polsec-core` engine auditing every
//! frame that crosses a segment boundary. The run is deterministic: the
//! same seed always produces the same metrics, at any thread count.
//!
//! Run with: `cargo run --release --example fleet_demo`

use polsec::car::fleet::{run_fleet, FleetConfig, FleetEnforcement};

fn main() {
    let ladders = [
        ("unprotected", FleetEnforcement::none()),
        (
            "gateway whitelist only",
            FleetEnforcement {
                gateway_whitelist: true,
                ..FleetEnforcement::none()
            },
        ),
        ("full baseline", FleetEnforcement::baseline()),
        ("shipped (baseline + anomaly)", FleetEnforcement::shipped()),
    ];

    for (label, enforcement) in ladders {
        let mut cfg = FleetConfig::new(10, 2_000);
        cfg.enforcement = enforcement;
        let report = run_fleet(&cfg);
        println!("\n=== {} ({}) ===", label, cfg.enforcement.label());
        println!(
            "{} vehicles, {} frames in {:.2}s ({:.0} frames/s)",
            report.vehicles,
            report.frames(),
            report.elapsed_sec,
            report.frames() as f64 / report.elapsed_sec.max(1e-9),
        );
        println!(
            "attacks: injected={} on-wire={} leaked={}",
            report.metrics.counter("attack.injected"),
            report.metrics.counter("attack.wire"),
            report.leaked(),
        );
        println!(
            "gateway: crossed={} dropped={}   policy: checked={} denied={}",
            report.metrics.counter("gateway.crossed"),
            report.metrics.counter("gateway.dropped"),
            report.metrics.counter("policy.checked"),
            report.metrics.counter("policy.denied"),
        );
        if let Some(cycles) = report.metrics.histogram("verdict.cycles") {
            println!("segment-HPE verdict cycles: {}", cycles.summary());
        }
        if let Some(ns) = report.wall.histogram("decide_ns") {
            println!("shared-engine decide latency (ns): {}", ns.summary());
        }
    }
}
