//! The metrics registry: counters, gauges, fixed-bucket histograms,
//! and the deterministic snapshot that serializes them.

use crate::metrics_enabled;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bucket bounds (upper edges, microseconds) for duration histograms:
/// powers of four from 16 µs to ~17 s, plus the implicit +inf bucket.
pub const DURATION_US_BOUNDS: &[u64] = &[
    16,
    64,
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
];

/// Bucket bounds for byte-size histograms: powers of eight from 512 B
/// to 128 GiB, plus the implicit +inf bucket.
pub const SIZE_BOUNDS: &[u64] = &[
    512,
    4_096,
    32_768,
    262_144,
    2_097_152,
    16_777_216,
    134_217_728,
    1_073_741_824,
    137_438_953_472,
];

/// Bucket bounds for small cardinalities (per-level state counts,
/// queue depths): powers of four from 4 to ~4 M.
pub const SMALL_COUNT_BOUNDS: &[u64] =
    &[4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304];

/// A monotonic counter. Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`. No-op while metrics are disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if metrics_enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1. No-op while metrics are disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value. Always readable, even while disabled.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed instantaneous value (queue depth, load factor).
/// Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the value. No-op while metrics are disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if metrics_enabled() {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `d` (may be negative). No-op while metrics are disabled.
    #[inline]
    pub fn add(&self, d: i64) {
        if metrics_enabled() {
            self.cell.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value. Always readable.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Shared histogram storage: fixed ascending upper bounds plus an
/// implicit +inf bucket, with exact total count and sum.
#[derive(Debug)]
struct HistCell {
    /// Ascending upper bucket edges; a sample `v` lands in the first
    /// bucket with `v <= bound`, or the trailing +inf bucket.
    bounds: Vec<u64>,
    /// Per-bucket counts; length is `bounds.len() + 1`.
    buckets: Vec<AtomicU64>,
    /// Total samples recorded.
    count: AtomicU64,
    /// Sum of all recorded sample values.
    sum: AtomicU64,
}

/// A fixed-bucket histogram with exact count and sum. Cloning shares
/// the underlying cells.
#[derive(Clone, Debug)]
pub struct Histogram {
    cell: Arc<HistCell>,
}

impl Histogram {
    /// A detached histogram (not in the registry) with the given
    /// ascending bucket bounds. Used by tests and for scratch merging.
    pub fn with_bounds(bounds: &[u64]) -> Histogram {
        let mut b: Vec<u64> = bounds.to_vec();
        b.sort_unstable();
        b.dedup();
        let buckets = (0..=b.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            cell: Arc::new(HistCell {
                bounds: b,
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample. No-op while metrics are disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        let idx = self.cell.bounds.partition_point(|&b| b < v);
        self.cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds every bucket, the count, and the sum of `other` into
    /// `self`. Returns `false` (and changes nothing) if the bucket
    /// layouts differ. No-op (returning `true`) while disabled.
    pub fn merge_from(&self, other: &Histogram) -> bool {
        if self.cell.bounds != other.cell.bounds {
            return false;
        }
        if !metrics_enabled() {
            return true;
        }
        for (dst, src) in self.cell.buckets.iter().zip(other.cell.buckets.iter()) {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.cell
            .count
            .fetch_add(other.cell.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.cell
            .sum
            .fetch_add(other.cell.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        true
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.cell.sum.load(Ordering::Relaxed)
    }

    /// The bucket bounds (ascending; the +inf bucket is implicit).
    pub fn bounds(&self) -> &[u64] {
        &self.cell.bounds
    }

    /// Per-bucket counts, one per bound plus the trailing +inf bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.cell
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            bounds: self.cell.bounds.clone(),
            buckets: self.bucket_counts(),
            count: self.count(),
            sum: self.sum(),
        }
    }

    fn zero(&self) {
        for b in &self.cell.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.cell.count.store(0, Ordering::Relaxed);
        self.cell.sum.store(0, Ordering::Relaxed);
    }
}

/// The process-wide registry. Registration takes a short mutex;
/// recorded updates touch only the shared atomics.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, Counter>>,
    gauges: Mutex<BTreeMap<&'static str, Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Poisoned-lock recovery: instrumentation must never add a panic
/// path, so a poisoned registry lock (a panicking thread mid-snapshot)
/// degrades to reading the data anyway.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The counter registered under `name`, creating it at zero on first
/// use. Call sites should fetch once and reuse the handle. Names must
/// be stable `[a-z0-9._-]` identifiers (they are embedded verbatim in
/// JSON snapshots).
pub fn counter(name: &'static str) -> Counter {
    let mut map = lock(&registry().counters);
    map.entry(name)
        .or_insert_with(|| Counter {
            cell: Arc::new(AtomicU64::new(0)),
        })
        .clone()
}

/// The gauge registered under `name`, creating it at zero on first use.
pub fn gauge(name: &'static str) -> Gauge {
    let mut map = lock(&registry().gauges);
    map.entry(name)
        .or_insert_with(|| Gauge {
            cell: Arc::new(AtomicI64::new(0)),
        })
        .clone()
}

/// The histogram registered under `name`, creating it with `bounds` on
/// first use. A later registration under the same name returns the
/// existing histogram unchanged — the first bucket layout wins.
pub fn histogram(name: &'static str, bounds: &[u64]) -> Histogram {
    let mut map = lock(&registry().histograms);
    map.entry(name)
        .or_insert_with(|| Histogram::with_bounds(bounds))
        .clone()
}

/// One histogram, frozen for serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Ascending upper bucket edges.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (`bounds.len() + 1` entries; last is +inf).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
}

/// A point-in-time copy of every registered metric, in lexicographic
/// name order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` for every histogram.
    pub histograms: Vec<(String, HistSnapshot)>,
}

/// Captures every registered metric. Deterministic ordering: the
/// registry maps are `BTreeMap`s keyed by name.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters = lock(&reg.counters)
        .iter()
        .map(|(k, v)| (k.to_string(), v.get()))
        .collect();
    let gauges = lock(&reg.gauges)
        .iter()
        .map(|(k, v)| (k.to_string(), v.get()))
        .collect();
    let histograms = lock(&reg.histograms)
        .iter()
        .map(|(k, v)| (k.to_string(), v.snapshot()))
        .collect();
    Snapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Zeroes every registered metric and clears the span ring. Intended
/// for tests and for long-lived daemons that expose windowed snapshots;
/// single-shot CLI runs never need it.
pub fn reset() {
    let reg = registry();
    for c in lock(&reg.counters).values() {
        c.cell.store(0, Ordering::Relaxed);
    }
    for g in lock(&reg.gauges).values() {
        g.cell.store(0, Ordering::Relaxed);
    }
    for h in lock(&reg.histograms).values() {
        h.zero();
    }
    crate::span::clear();
}

impl Snapshot {
    /// Renders the snapshot as a deterministic JSON object: keys in
    /// lexicographic order, histograms carrying explicit bucket edges
    /// with `"inf"` for the trailing bucket.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n  \"schema\": 1,\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {v}");
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {v}");
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{name}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                h.count, h.sum
            );
            for (j, n) in h.buckets.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                match h.bounds.get(j) {
                    Some(le) => {
                        let _ = write!(out, "{sep}{{\"le\": {le}, \"n\": {n}}}");
                    }
                    None => {
                        let _ = write!(out, "{sep}{{\"le\": \"inf\", \"n\": {n}}}");
                    }
                }
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that record into the process-wide registry,
    /// so no test records between another test's snapshots. Every test
    /// in this crate that touches the registry takes it first.
    fn registry_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    #[test]
    fn counter_and_gauge_round_trip() {
        let _registry = registry_guard();
        crate::set_metrics_enabled(true);
        let c = counter("test.metrics.counter");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // A second registration shares the cell.
        assert_eq!(counter("test.metrics.counter").get(), before + 5);

        let g = gauge("test.metrics.gauge");
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
        assert_eq!(gauge("test.metrics.gauge").get(), -3);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_edges() {
        crate::set_metrics_enabled(true);
        let h = Histogram::with_bounds(&[10, 100]);
        h.record(10); // first bucket (<= 10)
        h.record(11); // second bucket
        h.record(100); // second bucket
        h.record(101); // +inf bucket
        assert_eq!(h.bucket_counts(), vec![1, 2, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10 + 11 + 100 + 101);
    }

    #[test]
    fn merge_requires_identical_bounds() {
        crate::set_metrics_enabled(true);
        let a = Histogram::with_bounds(&[10, 100]);
        let b = Histogram::with_bounds(&[10, 100]);
        let c = Histogram::with_bounds(&[10]);
        b.record(5);
        b.record(500);
        assert!(a.merge_from(&b));
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 505);
        assert_eq!(a.bucket_counts(), vec![1, 0, 1]);
        assert!(!a.merge_from(&c));
        assert_eq!(a.count(), 2, "failed merge must not change the target");
    }

    #[test]
    fn with_bounds_sorts_and_dedupes() {
        crate::set_metrics_enabled(true);
        let h = Histogram::with_bounds(&[100, 10, 10]);
        assert_eq!(h.bounds(), &[10, 100]);
        assert_eq!(h.bucket_counts().len(), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_json_is_well_shaped() {
        let _registry = registry_guard();
        crate::set_metrics_enabled(true);
        counter("test.snap.zzz").inc();
        counter("test.snap.aaa").add(2);
        histogram("test.snap.hist", &[1, 2]).record(2);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "counters must be name-sorted");
        let json = snap.to_json();
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"test.snap.aaa\": 2"));
        assert!(json.contains("{\"le\": \"inf\""));
        // Two snapshots back to back are byte-identical.
        assert_eq!(json, snapshot().to_json());
    }

    #[test]
    fn histogram_first_registration_wins() {
        let _registry = registry_guard();
        crate::set_metrics_enabled(true);
        let a = histogram("test.snap.first-wins", &[5, 50]);
        let b = histogram("test.snap.first-wins", &[999]);
        assert_eq!(b.bounds(), &[5, 50]);
        a.record(7);
        assert_eq!(b.count(), a.count());
    }
}
