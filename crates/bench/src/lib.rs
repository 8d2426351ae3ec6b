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
//! policy-engine throughput (with the indexing ablation), MAC AVC hit/miss,
//! and the CAN codec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints a section header used by all harness binaries.
pub fn banner(title: &str) {
    println!("\n==== {title} ====");
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.0), "0.0%");
    }
}
