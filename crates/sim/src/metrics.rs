//! Counters and histograms for experiments.
//!
//! Every harness binary in `polsec-bench` reports through these types so the
//! output tables are produced uniformly. A [`Histogram`] keeps log-linear
//! bucket counts, so its memory is bounded however long a run lasts and two
//! histograms merge by adding counts, in any order.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Renders `s` as a JSON string literal (quoted, `"`/`\` and control
/// characters escaped). Shared by [`MetricSet::to_json`] and every other
/// hand-rolled JSON reporter in the workspace (`polsec-analyze`'s findings
/// report, the bench harness outputs) so they escape identically. A string
/// with nothing to escape costs one allocation, sized for it.
pub fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal, escaped as by
/// [`json_quote`].
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Linear sub-buckets per power of two from 64 up.
const SUB_BUCKETS: usize = 32;

/// The bucket holding `v`. With `s = max(0, bit_length(v) - 6)`, the bucket
/// is `s * 32 + (v >> s)`: the identity below 64, and above it one of 32
/// equal-width buckets inside `v`'s power of two. `u64::MAX` lands in
/// bucket 1 919.
fn bucket_of(v: u64) -> usize {
    let shift = (u64::BITS - v.leading_zeros()).saturating_sub(6);
    shift as usize * SUB_BUCKETS + (v >> shift) as usize
}

/// The lowest value and the width of bucket `i`; the inverse of
/// [`bucket_of`].
fn bucket_span(i: usize) -> (u64, u64) {
    let shift = (i / SUB_BUCKETS).saturating_sub(1);
    (((i - shift * SUB_BUCKETS) as u64) << shift, 1 << shift)
}

/// A histogram of `u64` observations in fixed log-linear buckets.
///
/// Every value below 64 has its own bucket; above that, each power of two
/// is split into 32 equal-width buckets, so a quantile read from a bucket is
/// within 1/64 of the true value, and at most 1 920 buckets (15 KB) cover the
/// whole `u64` range. The bucket array only grows as far as the largest
/// value seen. Count, min, max and sum are exact; the sum is kept in a
/// `u128`, so it cannot overflow for any `u64` input.
///
/// [`Histogram::merge`] adds bucket counts element-wise, so merging is
/// commutative and associative: a set of histograms merged in any order or
/// grouping gives the same result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Count per bucket, up to the highest bucket observed.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let i = bucket_of(v);
        self.grow_to(i + 1);
        self.buckets[i] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Extends the bucket array to `len` buckets, allocating exactly that.
    fn grow_to(&mut self, len: usize) {
        if len > self.buckets.len() {
            self.buckets.reserve_exact(len - self.buckets.len());
            self.buckets.resize(len, 0);
        }
    }

    /// Adds every observation of `other` to this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        self.grow_to(other.buckets.len());
        for (dst, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Minimum observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Maximum observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (0.0..=1.0) by nearest rank, or `None` when empty.
    ///
    /// `quantile(0.5)` is the median; `quantile(0.99)` the p99. Below 64 the
    /// answer is exact. Above, it is the middle of the bucket that holds the
    /// nearest-rank sample, within 1/64 of that sample, and never outside
    /// `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        let i = self.buckets.iter().position(|&n| {
            seen += n;
            seen >= rank
        })?;
        let (lo, width) = bucket_span(i);
        Some((lo + width / 2).clamp(self.min, self.max))
    }

    /// A compact single-line summary: `n min mean p50 p99 max`.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "n=0".to_string();
        }
        let n = self.count();
        let min = self.min().unwrap_or(0);
        let max = self.max().unwrap_or(0);
        let mean = self.mean().unwrap_or(0.0);
        let p50 = self.quantile(0.50).unwrap_or(0);
        let p99 = self.quantile(0.99).unwrap_or(0);
        format!("n={n} min={min} mean={mean:.1} p50={p50} p99={p99} max={max}")
    }
}

/// A named collection of counters and histograms, the standard report shape
/// for harness binaries.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Adds `n` to the named counter, creating it at zero if absent.
    /// The name is only turned into an owned `String` on first touch, so
    /// steady-state counting never allocates.
    pub fn count(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Records a histogram observation under `name`. As with
    /// [`MetricSet::count`], the name is owned only on first touch.
    pub fn observe(&mut self, name: &str, v: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(v);
        } else {
            self.histograms
                .entry(name.to_string())
                .or_default()
                .record(v);
        }
    }

    /// Adds every observation of `h` to the histogram under `name`. An
    /// empty `h` adds nothing, so a name still appears only where a value
    /// was observed; otherwise the name is owned only if it is new.
    pub fn merge_histogram(&mut self, name: &str, h: Histogram) {
        if h.is_empty() {
            return;
        }
        if let Some(dst) = self.histograms.get_mut(name) {
            dst.merge(&h);
        } else {
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Raises the named counter to at least `v` — a high-water gauge.
    ///
    /// Intended for run-level peaks recorded once per run (e.g. the plane's
    /// `plane.inbox_peak`). Note that [`MetricSet::merge`] *adds* counters,
    /// so gauges should be set on the merged set rather than merged from
    /// per-shard sets.
    pub fn set_max(&mut self, name: &str, v: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c = (*c).max(v);
        } else {
            self.counters.insert(name.to_string(), v);
        }
    }

    /// Reads a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A named histogram, if any value was observed under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another metric set into this one: counters add, histograms
    /// merge bucket by bucket. Both are order-free, so folding any number of
    /// sets in any order or grouping gives the same result.
    pub fn merge(&mut self, other: &MetricSet) {
        for (k, v) in &other.counters {
            self.count(k, *v);
        }
        for (k, h) in &other.histograms {
            if let Some(dst) = self.histograms.get_mut(k) {
                dst.merge(h);
            } else {
                self.histograms.insert(k.clone(), h.clone());
            }
        }
    }

    /// Moves every counter and histogram whose name starts with `prefix`
    /// into a new set, stripping the prefix from the moved names.
    ///
    /// Experiments use this to separate wall-clock measurements (prefixed
    /// e.g. `wall.`) from the deterministic metrics a replay must reproduce
    /// byte-for-byte.
    pub fn split_off_prefix(&mut self, prefix: &str) -> MetricSet {
        MetricSet {
            counters: split_off(&mut self.counters, prefix),
            histograms: split_off(&mut self.histograms, prefix),
        }
    }

    /// Renders the set as a compact, deterministically ordered JSON object:
    /// counters verbatim, histograms as `{n,min,mean,p50,p90,p99,max}`.
    ///
    /// The output is a pure function of the recorded values (names sorted,
    /// fixed float formatting), so two runs with identical metrics produce
    /// byte-identical JSON — the replay-determinism checks compare exactly
    /// this string.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_quoted(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (n, min, max) = (h.count(), h.min().unwrap_or(0), h.max().unwrap_or(0));
            let mean = h.mean().unwrap_or(0.0);
            let p50 = h.quantile(0.50).unwrap_or(0);
            let p90 = h.quantile(0.90).unwrap_or(0);
            let p99 = h.quantile(0.99).unwrap_or(0);
            push_quoted(&mut out, k);
            let _ = write!(
                out,
                ":{{\"n\":{n},\"min\":{min},\"mean\":{mean:.3},\"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"max\":{max}}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Renders all metrics as aligned text lines, histograms summarised.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<40} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("{k:<40} {}\n", h.summary()));
        }
        out
    }
}

/// Removes the entries whose name starts with `prefix` from `map` and
/// returns them with the prefix stripped.
fn split_off<V>(map: &mut BTreeMap<String, V>, prefix: &str) -> BTreeMap<String, V> {
    let (moved, kept): (BTreeMap<_, _>, _) = std::mem::take(map)
        .into_iter()
        .partition(|(k, _)| k.starts_with(prefix));
    *map = kept;
    moved
        .into_iter()
        .map(|(k, v)| (k[prefix.len()..].to_string(), v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_empty_behaviour() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary(), "n=0");
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(10));
        assert_eq!(h.sum(), 55);
        assert!((h.mean().unwrap() - 5.5).abs() < 1e-12);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(5));
        assert_eq!(h.quantile(1.0), Some(10));
    }

    #[test]
    fn quantile_nearest_rank_edge() {
        let mut h = Histogram::new();
        h.record(100);
        assert_eq!(h.quantile(0.01), Some(100));
        assert_eq!(h.quantile(0.99), Some(100));
    }

    #[test]
    fn quantile_after_interleaved_records() {
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.quantile(1.0), Some(5));
        h.record(1);
        assert_eq!(h.quantile(0.0), Some(1));
    }

    /// 64 one-value buckets, then 32 for each power of two from 2^6 to 2^63.
    const BUCKETS: usize = 64 + 58 * SUB_BUCKETS;

    #[test]
    fn buckets_are_exact_below_64_and_log_linear_above() {
        for v in 0..64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_span(v as usize), (v, 1));
        }
        assert_eq!(bucket_of(64), 64);
        assert_eq!(bucket_span(64), (64, 2));
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(BUCKETS, 1_920);
        // Every bucket starts where the previous one ends, and maps back.
        for i in 1..BUCKETS {
            let (lo, width) = bucket_span(i);
            let (prev_lo, prev_width) = bucket_span(i - 1);
            assert_eq!(prev_lo + prev_width, lo, "bucket {i}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + (width - 1)), i);
            assert!(
                width == 1 || width * 32 <= lo,
                "bucket {i} is wider than 1/32"
            );
        }
    }

    #[test]
    fn sum_and_mean_are_exact_for_any_u64() {
        let mut m = MetricSet::new();
        m.observe("x", u64::MAX);
        m.observe("x", 1);
        assert_eq!(m.histogram("x").unwrap().sum(), 1u128 << 64);
        assert!(
            m.to_json().contains("\"mean\":9223372036854775808.000"),
            "{}",
            m.to_json()
        );
    }

    #[test]
    fn metric_set_counts_and_observes() {
        let mut m = MetricSet::new();
        m.count("granted", 3);
        m.count("granted", 2);
        m.observe("latency", 10);
        m.observe("latency", 20);
        assert_eq!(m.counter("granted"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.histogram("latency").unwrap().count(), 2);
        let text = m.render();
        assert!(text.contains("granted"));
        assert!(text.contains("latency"));
    }

    #[test]
    fn metric_set_json_is_deterministic_and_complete() {
        let mut m = MetricSet::new();
        m.count("z.second", 2);
        m.count("a.first", 1);
        for v in [5u64, 1, 9, 3] {
            m.observe("lat", v);
        }
        let json = m.to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a.first\":1,\"z.second\":2},\"histograms\":{\
             \"lat\":{\"n\":4,\"min\":1,\"mean\":4.500,\"p50\":3,\"p90\":9,\"p99\":9,\"max\":9}}}"
        );
        assert_eq!(m.to_json(), json);
        // Empty set is still valid JSON.
        assert_eq!(MetricSet::new().to_json(), "{\"counters\":{},\"histograms\":{}}");
    }

    #[test]
    fn split_off_prefix_partitions_and_strips() {
        let mut m = MetricSet::new();
        m.count("frames", 10);
        m.count("wall.elapsed_us", 123);
        m.observe("verdict.cycles", 4);
        m.observe("wall.decide_ns", 80);
        let wall = m.split_off_prefix("wall.");
        assert_eq!(wall.counter("elapsed_us"), 123);
        assert_eq!(wall.histogram("decide_ns").unwrap().count(), 1);
        assert_eq!(m.counter("frames"), 10);
        assert_eq!(m.counter("wall.elapsed_us"), 0, "moved out");
        assert!(m.histogram("wall.decide_ns").is_none());
        assert!(m.histogram("verdict.cycles").is_some());
    }

    #[test]
    fn set_max_behaves_as_high_water_gauge() {
        let mut m = MetricSet::new();
        m.set_max("peak", 5);
        assert_eq!(m.counter("peak"), 5);
        m.set_max("peak", 3);
        assert_eq!(m.counter("peak"), 5, "lower values never regress the gauge");
        m.set_max("peak", 9);
        assert_eq!(m.counter("peak"), 9);
    }

    #[test]
    fn json_quote_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(json_quote("plain.key"), "\"plain.key\"");
        assert_eq!(json_quote(""), "\"\"");
        assert_eq!(json_quote("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_quote("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_quote("\n\t\r\u{0}\u{1f}"), "\"\\u000a\\u0009\\u000d\\u0000\\u001f\"");
        // DEL and everything above the control range pass through as UTF-8.
        assert_eq!(json_quote("\u{7f}é→🚗"), "\"\u{7f}é→🚗\"");
        let mut m = MetricSet::new();
        m.count("q\"k", 1);
        assert_eq!(m.to_json(), "{\"counters\":{\"q\\\"k\":1},\"histograms\":{}}");
    }

    #[test]
    fn merge_histogram_adds_observations_and_skips_empty_ones() {
        let mut m = MetricSet::new();
        m.merge_histogram("h", Histogram::new());
        assert!(m.histogram("h").is_none(), "an empty histogram adds no name");
        let mut h = Histogram::new();
        h.record(5);
        m.merge_histogram("h", h.clone());
        m.observe("h", 9);
        m.merge_histogram("h", h);
        let merged = m.histogram("h").unwrap();
        assert_eq!((merged.count(), merged.min(), merged.max()), (3, Some(5), Some(9)));
    }

    #[test]
    fn metric_set_merge() {
        let mut a = MetricSet::new();
        a.count("x", 1);
        a.observe("h", 5);
        let mut b = MetricSet::new();
        b.count("x", 2);
        b.count("y", 7);
        b.observe("h", 9);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 7);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }
}
