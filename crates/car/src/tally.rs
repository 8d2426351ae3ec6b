//! Typed vehicle tallies and the tables that render them (DESIGN.md §7).
//!
//! A fleet [`Vehicle`](crate::Vehicle) and a V2X vehicle count into plain
//! `u64` fields and a few [`Histogram`](polsec_sim::Histogram)s. A finished
//! vehicle's tally is added into its run's field by field, and the run
//! renders its [`MetricSet`] once, from one table per tally of `(key,
//! field, when the key appears)`. No vehicle owns a string-keyed set, yet
//! the rendered bytes are those that merging one set per vehicle would
//! give: a counter merges by adding, and each [`Shown`] rule holds for the
//! sum exactly when it holds for some vehicle.

use polsec_sim::MetricSet;

/// When a rendered counter appears in a run's metric set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shown {
    /// Once any vehicle is folded, zero or not, so the counter shape does
    /// not depend on the ladder, the faults or the traffic.
    Always,
    /// Only where it counted something: event counts whose key exists only
    /// in runs where the event happened.
    NonZero,
    /// Only once a vehicle ticked: the per-tick counters.
    Ticked,
}

/// One rendered counter: its key, the tally field it reads, and when it
/// appears.
pub(crate) type Counter<T> = (&'static str, fn(&mut T) -> &mut u64, Shown);

/// Adds every counter of `table` in `from` into `into`.
pub(crate) fn add<T>(table: &[Counter<T>], into: &mut T, from: &mut T) {
    for (_, field, _) in table {
        *field(into) += *field(from);
    }
}

/// Counts every counter of `table` that its rule shows into `m`: `folded`
/// says whether the tally holds any vehicle, `ticked` whether any of them
/// ticked.
pub(crate) fn render<T>(
    table: &[Counter<T>],
    tally: &mut T,
    folded: bool,
    ticked: bool,
    m: &mut MetricSet,
) {
    for (key, field, shown) in table {
        let n = *field(tally);
        let show = match shown {
            Shown::Always => folded,
            Shown::NonZero => n > 0,
            Shown::Ticked => ticked,
        };
        if show {
            m.count(key, n);
        }
    }
}
