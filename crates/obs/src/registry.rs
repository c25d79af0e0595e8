//! The metrics registry: named counters, gauges, log-bucket
//! histograms, and a reported-only span-timing table.
//!
//! Everything on the hot path is exact `u64` arithmetic — no floats —
//! and every container is a `BTreeMap`, so iteration order (and hence
//! the snapshot encoding) is deterministic. Per-shard registries from
//! the parallel warm phase merge with [`Registry::merge_from`], which
//! is commutative for counters and histograms; merging shard
//! registries in shard order therefore yields the same totals for any
//! worker count.

use std::collections::BTreeMap;

/// Number of log₂ buckets: bucket 0 holds the value `0`, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two-bucket histogram with exact `u64` counts.
///
/// Recording is two adds and a `leading_zeros` — no floats, no
/// allocation — so it is safe on the batch-tick hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0 }
    }
}

impl Histogram {
    /// Bucket index for a value: 0 for 0, otherwise its bit width.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        if let Some(b) = self.buckets.get_mut(Self::bucket_index(value)) {
            *b += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observed values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Non-empty buckets as `(bucket index, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, c)| **c > 0).map(|(i, c)| (i, *c))
    }

    /// Smallest value a bucket can hold: 0 for bucket 0, else
    /// `2^(i-1)`. Out-of-range indexes clamp to the last bucket.
    #[must_use]
    pub fn bucket_lower_bound(index: usize) -> u64 {
        match index.min(HISTOGRAM_BUCKETS - 1) {
            0 => 0,
            i => 1u64 << (i - 1),
        }
    }

    /// Largest value a bucket can hold: 0 for bucket 0, `2^i - 1` for
    /// bucket `i`, saturating at `u64::MAX` for the final bucket.
    #[must_use]
    pub fn bucket_upper_bound(index: usize) -> u64 {
        match index.min(HISTOGRAM_BUCKETS - 1) {
            0 => 0,
            64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile observation.
    ///
    /// The rank is `ceil(q * count)` clamped to `[1, count]`, so
    /// `q = 0.5` is the median and `q = 1.0` the maximum's bucket.
    /// Because buckets are log₂-sized the true observation lies in
    /// `[bucket_lower_bound, bucket_upper_bound]` — the reported value
    /// overstates it by at most 2x (the harness documents this bound).
    /// `None` when the histogram is empty or `q` is outside `[0, 1]`
    /// or NaN.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // `q * count <= count <= 2^53`-ish fleets keep this exact; the
        // clamp makes even a saturated count safe.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*c);
            if seen >= rank {
                return Some(Self::bucket_upper_bound(i));
            }
        }
        // Bucket counts always sum to `count`, so the walk cannot fall
        // through; a corrupt histogram reports its top bucket.
        Some(Self::bucket_upper_bound(HISTOGRAM_BUCKETS - 1))
    }

    /// Adds another histogram's observations into this one.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Rebuilds a histogram from persisted parts: total count, sum, and
    /// sparse `(bucket index, count)` pairs. `None` when an index is out
    /// of range or the bucket counts do not add up to `count` — corrupt
    /// persisted state must surface as a decode error, not a panic.
    #[must_use]
    pub fn from_parts(
        count: u64,
        sum: u64,
        nonzero: impl IntoIterator<Item = (usize, u64)>,
    ) -> Option<Self> {
        let mut h = Histogram { buckets: [0; HISTOGRAM_BUCKETS], count, sum };
        let mut total = 0u64;
        for (i, c) in nonzero {
            let slot = h.buckets.get_mut(i)?;
            *slot = c;
            total = total.checked_add(c)?;
        }
        (total == count).then_some(h)
    }
}

/// Accumulated wall-clock time for one span stage. **Reported only**:
/// timing stats never enter an `ObsSnapshot`, because wall time is not
/// replayable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingStat {
    /// Completed spans for this stage.
    pub count: u64,
    /// Total wall time across those spans, nanoseconds (saturating).
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

impl TimingStat {
    fn record(&mut self, elapsed_ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(elapsed_ns);
        self.max_ns = self.max_ns.max(elapsed_ns);
    }
}

/// A deterministic metrics registry.
///
/// Counter, gauge and histogram names are `&'static str` so bumping a
/// metric costs one ordered-map lookup over short static strings.
/// A registry built with [`Registry::disabled`] turns every mutator
/// into an early-return branch, which is what the e13 overhead gate
/// measures the instrumented path against.
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    enabled: bool,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
    timings: BTreeMap<&'static str, TimingStat>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An enabled, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry {
            enabled: true,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            timings: BTreeMap::new(),
        }
    }

    /// A registry whose mutators are all no-ops: the bare baseline for
    /// overhead measurement and for embedders that opt out.
    #[must_use]
    pub fn disabled() -> Self {
        Registry { enabled: false, ..Registry::new() }
    }

    /// Whether this registry records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds 1 to a counter.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `delta` to a counter.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Sets a gauge to an instantaneous value (last write wins).
    pub fn gauge(&mut self, name: &'static str, value: i64) {
        if self.enabled {
            self.gauges.insert(name, value);
        }
    }

    /// Records one observation into a log-bucket histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        if self.enabled {
            self.histograms.entry(name).or_default().record(value);
        }
    }

    /// Records a completed span's wall time (reported only).
    pub fn record_span(&mut self, stage: &'static str, elapsed_ns: u64) {
        if self.enabled {
            self.timings.entry(stage).or_default().record(elapsed_ns);
        }
    }

    /// Current value of a counter (0 when never bumped).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever set.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name, if any observation was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Accumulated span timing for a stage, if any span completed.
    #[must_use]
    pub fn timing(&self, stage: &str) -> Option<TimingStat> {
        self.timings.get(stage).copied()
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// All span timings in stage order (reported only).
    pub fn timings(&self) -> impl Iterator<Item = (&'static str, TimingStat)> + '_ {
        self.timings.iter().map(|(k, v)| (*k, *v))
    }

    /// Overwrites one counter with a persisted value (set, not add).
    pub fn restore_counter(&mut self, name: &'static str, value: u64) {
        if self.enabled {
            self.counters.insert(name, value);
        }
    }

    /// Overwrites one gauge with a persisted value.
    pub fn restore_gauge(&mut self, name: &'static str, value: i64) {
        if self.enabled {
            self.gauges.insert(name, value);
        }
    }

    /// Overwrites one histogram with a persisted one.
    pub fn restore_histogram(&mut self, name: &'static str, histogram: Histogram) {
        if self.enabled {
            self.histograms.insert(name, histogram);
        }
    }

    /// Merges another registry into this one: counters and histograms
    /// add; gauges take the other's value; span timings accumulate.
    ///
    /// Counter/histogram merging is commutative and associative, so a
    /// set of per-shard registries merged in shard order produces
    /// identical totals regardless of how shards were spread over
    /// workers — the property the cross-worker snapshot test pins.
    pub fn merge_from(&mut self, other: &Registry) {
        if !self.enabled {
            return;
        }
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name, *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge_from(h);
        }
        for (name, t) in &other.timings {
            let slot = self.timings.entry(name).or_default();
            slot.count += t.count;
            slot.total_ns = slot.total_ns.saturating_add(t.total_ns);
            slot.max_ns = slot.max_ns.max(t.max_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_width() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_counts_are_exact() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        let buckets: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_upper_bound(q), None);
        }
    }

    #[test]
    fn out_of_range_quantiles_are_none() {
        let mut h = Histogram::default();
        h.record(3);
        assert_eq!(h.quantile_upper_bound(-0.01), None);
        assert_eq!(h.quantile_upper_bound(1.01), None);
        assert_eq!(h.quantile_upper_bound(f64::NAN), None);
    }

    #[test]
    fn quantiles_walk_the_buckets_in_rank_order() {
        let mut h = Histogram::default();
        // 90 observations of 1 (bucket 1), 9 of 100 (bucket 7, upper
        // 127), 1 of 10_000 (bucket 14, upper 16_383).
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..9 {
            h.record(100);
        }
        h.record(10_000);
        assert_eq!(h.quantile_upper_bound(0.5), Some(1));
        assert_eq!(h.quantile_upper_bound(0.9), Some(1));
        assert_eq!(h.quantile_upper_bound(0.95), Some(127));
        assert_eq!(h.quantile_upper_bound(0.99), Some(127));
        assert_eq!(h.quantile_upper_bound(1.0), Some(16_383));
        // q=0 clamps to rank 1: the smallest observation's bucket.
        assert_eq!(h.quantile_upper_bound(0.0), Some(1));
    }

    #[test]
    fn quantile_bound_brackets_the_true_value() {
        let mut h = Histogram::default();
        for v in [0u64, 5, 17, 900, 4096] {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let ub = h.quantile_upper_bound(q).unwrap();
            let i = Histogram::bucket_index(ub);
            assert!(Histogram::bucket_lower_bound(i) <= ub);
            assert_eq!(Histogram::bucket_upper_bound(i), ub);
        }
    }

    #[test]
    fn bucket_bounds_cover_the_domain() {
        assert_eq!(Histogram::bucket_lower_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_lower_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_lower_bound(11), 1024);
        assert_eq!(Histogram::bucket_upper_bound(11), 2047);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        // Out-of-range indexes clamp instead of shifting past the word.
        assert_eq!(Histogram::bucket_upper_bound(400), u64::MAX);
        for v in [0u64, 1, 2, 3, 1023, 1024, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(Histogram::bucket_lower_bound(i) <= v && v <= Histogram::bucket_upper_bound(i));
        }
    }

    #[test]
    fn sum_saturates_at_u64_max() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(1);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 3);
        let mut other = Histogram::default();
        other.record(u64::MAX);
        h.merge_from(&other);
        assert_eq!(h.sum(), u64::MAX, "merge saturates too");
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile_upper_bound(1.0), Some(u64::MAX));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = Registry::disabled();
        r.inc("a");
        r.gauge("g", 7);
        r.observe("h", 3);
        r.record_span("s", 10);
        assert_eq!(r.counter("a"), 0);
        assert_eq!(r.gauge_value("g"), None);
        assert!(r.histogram("h").is_none());
        assert!(r.timing("s").is_none());
    }

    #[test]
    fn merge_is_order_insensitive_for_counters_and_histograms() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.add("x", 2);
        a.observe("h", 5);
        b.add("x", 3);
        b.add("y", 1);
        b.observe("h", 9);

        let mut ab = Registry::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let mut ba = Registry::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("x"), 5);
        assert_eq!(ab.counter("y"), 1);
        assert_eq!(ab.histogram("h").map(Histogram::count), Some(2));
    }
}
