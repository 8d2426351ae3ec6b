//! Counters and histograms for experiments.
//!
//! Every harness binary in `polsec-bench` reports through these types so the
//! output tables are produced uniformly. Histograms store raw samples (the
//! experiments here are small enough that exact percentiles beat bucketing).

use std::collections::BTreeMap;

/// Renders `s` as a JSON string literal (quoted, `"`/`\` and control
/// characters escaped). Shared by [`MetricSet::to_json`] and every other
/// hand-rolled JSON reporter in the workspace (`polsec-analyze`'s findings
/// report, the bench harness outputs) so they escape identically.
pub fn json_quote(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// An exact-sample histogram of `u64` observations.
///
/// Keeps every sample; suited to the 1e3–1e6-sample scale of the experiments
/// in this workspace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Minimum observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Maximum observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum() as f64 / self.samples.len() as f64)
        }
    }

    /// The `q`-quantile (0.0..=1.0) by nearest-rank, or `None` when empty.
    ///
    /// `quantile(0.5)` is the median; `quantile(0.99)` the p99.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// The raw samples, in recorded order (concatenation order after
    /// merges). Note that [`Histogram::quantile`] sorts the samples in
    /// place, so call sites comparing orders must do so before any
    /// quantile/summary/JSON rendering.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Moves every sample out of `other` onto the end of this histogram —
    /// the owned, O(1)-amortised counterpart of the per-sample copy in
    /// [`MetricSet::merge`]. Sample order is preserved: `self` then
    /// `other`, exactly as if each of `other`'s samples had been
    /// [`Histogram::record`]ed in turn.
    pub fn absorb(&mut self, other: &mut Histogram) {
        if other.samples.is_empty() {
            return;
        }
        self.samples.append(&mut other.samples);
        self.sorted = false;
    }

    /// A compact single-line summary: `n min mean p50 p99 max`.
    pub fn summary(&mut self) -> String {
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

    /// Mutable access to a named histogram, if present.
    pub fn histogram_mut(&mut self, name: &str) -> Option<&mut Histogram> {
        self.histograms.get_mut(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another metric set into this one (counters add, histogram
    /// samples concatenate).
    pub fn merge(&mut self, other: &MetricSet) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            let dst = self.histograms.entry(k.clone()).or_default();
            for s in &h.samples {
                dst.record(*s);
            }
        }
    }

    /// Merges an owned metric set into this one without copying histogram
    /// samples: counters add, histogram sample vectors are moved and
    /// appended. Equivalent to [`MetricSet::merge`] byte-for-byte (same
    /// counter sums, same sample concatenation order), but O(1) amortised
    /// per histogram instead of O(samples) — the building block of
    /// [`MetricSet::merge_tree`].
    pub fn absorb(&mut self, other: MetricSet) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, mut h) in other.histograms {
            match self.histograms.entry(k) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().absorb(&mut h),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h);
                }
            }
        }
    }

    /// Reduces per-shard metric sets to one merged set along a
    /// deterministic binary tree, optionally fanning the reduction over up
    /// to `threads` threads (values `<= 1` reduce inline).
    ///
    /// The tree's shape is a pure function of `sets.len()` — each node
    /// splits its slice at the midpoint — and every merge keeps the left
    /// (lower-index) half's samples ahead of the right half's, so the
    /// result is **byte-identical** to folding the sets serially in index
    /// order with [`MetricSet::merge`]: same counter sums, same histogram
    /// sample order, same [`MetricSet::to_json`] string. Thread count can
    /// only change wall-clock time, never the reduction — the property the
    /// sharded runners' determinism contract leans on.
    pub fn merge_tree(sets: Vec<MetricSet>, threads: usize) -> MetricSet {
        fn reduce(slots: &mut [Option<MetricSet>], budget: usize) -> MetricSet {
            match slots.len() {
                0 => MetricSet::new(),
                1 => slots[0].take().unwrap_or_default(),
                n => {
                    let (left, right) = slots.split_at_mut(n / 2);
                    let (mut l, r) = if budget > 1 && n >= 4 {
                        let left_budget = budget / 2;
                        let right_budget = budget - left_budget;
                        std::thread::scope(|scope| {
                            let right_half = scope.spawn(move || reduce(right, right_budget));
                            let l = reduce(left, left_budget);
                            let r = match right_half.join() {
                                Ok(r) => r,
                                Err(panic) => std::panic::resume_unwind(panic),
                            };
                            (l, r)
                        })
                    } else {
                        (reduce(left, 1), reduce(right, 1))
                    };
                    l.absorb(r);
                    l
                }
            }
        }
        let mut slots: Vec<Option<MetricSet>> = sets.into_iter().map(Some).collect();
        reduce(&mut slots, threads.max(1))
    }

    /// Moves every counter and histogram whose name starts with `prefix`
    /// into a new set, stripping the prefix from the moved names.
    ///
    /// Experiments use this to separate wall-clock measurements (prefixed
    /// e.g. `wall.`) from the deterministic metrics a replay must reproduce
    /// byte-for-byte.
    pub fn split_off_prefix(&mut self, prefix: &str) -> MetricSet {
        let mut out = MetricSet::new();
        let counter_keys: Vec<String> = self
            .counters
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        for k in counter_keys {
            let v = self.counters.remove(&k).unwrap_or(0);
            out.counters.insert(k[prefix.len()..].to_string(), v);
        }
        let hist_keys: Vec<String> = self
            .histograms
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        for k in hist_keys {
            if let Some(h) = self.histograms.remove(&k) {
                out.histograms.insert(k[prefix.len()..].to_string(), h);
            }
        }
        out
    }

    /// Renders the set as a compact, deterministically ordered JSON object:
    /// counters verbatim, histograms as `{n,min,mean,p50,p90,p99,max}`.
    ///
    /// The output is a pure function of the recorded values (names sorted,
    /// fixed float formatting), so two runs with identical metrics produce
    /// byte-identical JSON — the replay-determinism checks compare exactly
    /// this string.
    pub fn to_json(&mut self) -> String {
        let quote = json_quote;
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{}", quote(k), v));
        }
        out.push_str("},\"histograms\":{");
        let names: Vec<String> = self.histograms.keys().cloned().collect();
        let mut first = true;
        for k in names {
            let h = self.histograms.get_mut(&k).expect("key just listed");
            if !first {
                out.push(',');
            }
            first = false;
            let (n, min, max) = (h.count(), h.min().unwrap_or(0), h.max().unwrap_or(0));
            let mean = h.mean().unwrap_or(0.0);
            let p50 = h.quantile(0.50).unwrap_or(0);
            let p90 = h.quantile(0.90).unwrap_or(0);
            let p99 = h.quantile(0.99).unwrap_or(0);
            out.push_str(&format!(
                "{}:{{\"n\":{n},\"min\":{min},\"mean\":{mean:.3},\"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"max\":{max}}}",
                quote(&k)
            ));
        }
        out.push_str("}}");
        out
    }

    /// Renders all metrics as aligned text lines, histograms summarised.
    pub fn render(&mut self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<40} {v}\n"));
        }
        let names: Vec<String> = self.histograms.keys().cloned().collect();
        for k in names {
            let line = self
                .histograms
                .get_mut(&k)
                .map(|h| h.summary())
                .unwrap_or_default();
            out.push_str(&format!("{k:<40} {line}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_empty_behaviour() {
        let mut h = Histogram::new();
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
        h.record(1); // re-sorting must happen after new record
        assert_eq!(h.quantile(0.0), Some(1));
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
        assert_eq!(m.histogram_mut("latency").unwrap().count(), 2);
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
        // Repeated rendering (after the internal sort) is stable.
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
        let mut wall = m.split_off_prefix("wall.");
        assert_eq!(wall.counter("elapsed_us"), 123);
        assert_eq!(wall.histogram_mut("decide_ns").unwrap().count(), 1);
        assert_eq!(m.counter("frames"), 10);
        assert_eq!(m.counter("wall.elapsed_us"), 0, "moved out");
        assert!(m.histogram_mut("wall.decide_ns").is_none());
        assert!(m.histogram_mut("verdict.cycles").is_some());
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
    fn absorb_matches_merge_including_sample_order() {
        let mut base = MetricSet::new();
        base.count("x", 1);
        base.observe("h", 5);
        let mut other = MetricSet::new();
        other.count("x", 2);
        other.observe("h", 9);
        other.observe("h", 1);
        other.observe("only", 3);

        let mut merged = base.clone();
        merged.merge(&other);
        let mut absorbed = base;
        absorbed.absorb(other);
        assert_eq!(
            absorbed.histogram_mut("h").unwrap().samples(),
            &[5, 9, 1],
            "absorb must preserve concatenation order"
        );
        assert_eq!(absorbed.to_json(), merged.to_json());
    }

    fn indexed_set(i: usize) -> MetricSet {
        let mut m = MetricSet::new();
        m.count("shards", 1);
        m.count(&format!("only.{i}"), i as u64 + 1);
        for k in 0..5 {
            m.observe("order", (i * 10 + k) as u64);
        }
        m
    }

    #[test]
    fn merge_tree_is_byte_identical_to_serial_fold() {
        for n in [0usize, 1, 2, 3, 7, 16, 33] {
            let mut serial = MetricSet::new();
            for i in 0..n {
                serial.merge(&indexed_set(i));
            }
            let serial_samples: Vec<u64> = serial
                .histogram_mut("order")
                .map(|h| h.samples().to_vec())
                .unwrap_or_default();
            for threads in [1usize, 2, 4, 8] {
                let mut tree =
                    MetricSet::merge_tree((0..n).map(indexed_set).collect(), threads);
                assert_eq!(
                    tree.histogram_mut("order")
                        .map(|h| h.samples().to_vec())
                        .unwrap_or_default(),
                    serial_samples,
                    "n={n} threads={threads}: sample order diverged"
                );
                assert_eq!(
                    tree.to_json(),
                    serial.clone().to_json(),
                    "n={n} threads={threads}"
                );
            }
        }
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
        assert_eq!(a.histogram_mut("h").unwrap().count(), 2);
    }
}
