//! # polsec-bench — experiment harness
//!
//! One binary per paper artefact (see DESIGN.md §4):
//!
//! | binary | artefact |
//! |---|---|
//! | `table1` | Table I — the threat model of the connected car |
//! | `fig1_pipeline` | Fig. 1 — the threat-modelling pipeline run end-to-end |
//! | `fig2_car` | Fig. 2 — the car's CAN topology and connectivity matrix |
//! | `fig3_can_node` | Fig. 3 — a frame traced through the CAN node stack |
//! | `fig4_hpe` | Fig. 4 — the HPE filtering spoofed traffic, with overhead |
//! | `attack_matrix` | E1 — 16 attacks × 6 enforcement configurations |
//! | `update_vs_redesign` | E3 — policy update vs redesign turnaround |
//! | `throughput` | multi-threaded decision throughput + zero-allocation assertion |
//! | `fleet` | fleet-scale scenario (DESIGN.md §7): deterministic replay + leak accounting + optional fps floor |
//!
//! Criterion benches (`cargo bench`) cover E2/E4/E5/E6: HPE lookup cost,
//! policy-engine throughput (with the indexing ablation), MAC check cost,
//! and the CAN codec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use polsec_sim::json_quote;

/// Prints a section header used by all harness binaries.
pub fn banner(title: &str) {
    println!("\n==== {title} ====");
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// The host fingerprint a harness writes into its `BENCH_*.json` as a
/// `"host"` object, so results from different hosts, toolchains or commits
/// are never read as one trajectory: the CPU model from `/proc/cpuinfo`,
/// the available parallelism, `rustc -V`, `git rev-parse HEAD` (the four
/// fields stackbench's `stamp` line prints), and `sha_ni` — `yes` or `no`
/// as the `flags` line of `/proc/cpuinfo` lists the x86 SHA extensions,
/// which select `polsec_core::sign`'s compression path. Each field is
/// `"unknown"` when it cannot be read.
pub fn host_stamp() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok();
    let cpuinfo_field = |name: &str| {
        cpuinfo.as_deref().and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
    };
    let sha_ni = cpuinfo_field("flags").map(|flags| {
        let listed = flags.split_whitespace().any(|flag| flag == "sha_ni");
        (if listed { "yes" } else { "no" }).to_string()
    });
    let fields = [
        ("cpu", cpuinfo_field("model name")),
        (
            "nproc",
            std::thread::available_parallelism()
                .ok()
                .map(|n| n.to_string()),
        ),
        ("rustc", first_line("rustc", &["-V"])),
        ("git_sha", first_line("git", &["rev-parse", "HEAD"])),
        ("sha_ni", sha_ni),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_quote(v.as_deref().unwrap_or("unknown"))))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Runs `program args…` and returns the first line it prints, or `None`
/// if it cannot run or fails.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn host_stamp_has_every_field() {
        let stamp = host_stamp();
        assert!(stamp.starts_with("{\"cpu\":\"") && stamp.ends_with("\"}"), "{stamp}");
        for key in ["\"nproc\":\"", "\"rustc\":\"", "\"git_sha\":\""] {
            assert!(stamp.contains(key), "{key} missing from {stamp}");
        }
        assert!(
            ["yes", "no", "unknown"]
                .iter()
                .any(|v| stamp.ends_with(&format!(",\"sha_ni\":\"{v}\"}}"))),
            "sha_ni missing from {stamp}"
        );
    }
}
