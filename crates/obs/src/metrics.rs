//! A lock-cheap registry of named counters, gauges, and fixed-bucket
//! latency histograms.
//!
//! Handles are plain `Arc`s over atomics: the registry's lock is only
//! taken to create or enumerate metrics, never on the increment path.
//! Percentile extraction reuses the loadgen convention (nearest-rank
//! with `ceil(p * n)`), interpolated within the winning bucket.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram over milliseconds.
///
/// `bounds` are the inclusive upper edges of the finite buckets; one
/// implicit `+Inf` bucket catches everything above the last bound. The
/// sum is accumulated in integer microseconds so `observe` stays a pair
/// of relaxed atomic adds.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    sum_us: AtomicU64,
}

/// A point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_ms: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
}

/// Default bucket bounds for request/queue latencies: 0.25ms to ~8s in
/// powers of two, covering sub-millisecond queue waits through
/// paper-scale multi-second mines.
pub fn default_latency_bounds() -> Vec<f64> {
    (0..16).map(|i| 0.25 * f64::from(1u32 << i)).collect()
}

impl Histogram {
    /// Create a histogram with the given finite bucket bounds. Bounds
    /// must be strictly increasing and non-empty.
    pub fn new(bounds: Vec<f64>) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram { bounds, buckets, sum_us: AtomicU64::new(0) }
    }

    /// Record one observation, in milliseconds.
    pub fn observe(&self, ms: f64) {
        let ms = if ms.is_finite() && ms > 0.0 { ms } else { 0.0 };
        let idx = self.bounds.iter().position(|&b| ms <= b).unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add((ms * 1000.0).round() as u64, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub fn sum_ms(&self) -> f64 {
        self.sum_us.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Nearest-rank percentile (`p` in 0..=1), interpolated within the
    /// winning bucket. Observations in the `+Inf` bucket report the last
    /// finite bound — an honest floor rather than an invented ceiling.
    pub fn percentile(&self, p: f64) -> f64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let last = self.bounds[self.bounds.len() - 1];
                if idx == self.bounds.len() {
                    return last;
                }
                let hi = self.bounds[idx];
                let lo = if idx == 0 { 0.0 } else { self.bounds[idx - 1] };
                let within = (rank - seen) as f64 / c as f64;
                return lo + (hi - lo) * within;
            }
            seen += c;
        }
        self.bounds[self.bounds.len() - 1]
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum_ms: self.sum_ms(),
            p50_ms: self.percentile(0.50),
            p90_ms: self.percentile(0.90),
            p99_ms: self.percentile(0.99),
        }
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The enumerated value of one metric, as returned by
/// [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Histogram(HistogramSnapshot),
}

/// A named collection of metrics. `BTreeMap` keeps enumeration order
/// sorted, which keeps both the JSON snapshot and the text exposition
/// canonical.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Handle>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter with this name.
    ///
    /// # Panics
    /// If the name is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("metrics lock");
        let handle = metrics
            .entry(name.to_string())
            .or_insert_with(|| Handle::Counter(Arc::new(Counter::new())));
        match handle {
            Handle::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Get or create the gauge with this name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("metrics lock");
        let handle = metrics
            .entry(name.to_string())
            .or_insert_with(|| Handle::Gauge(Arc::new(Gauge::new())));
        match handle {
            Handle::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Get or create the histogram with this name. `bounds` is only used
    /// on first registration.
    pub fn histogram(&self, name: &str, bounds: Vec<f64>) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("metrics lock");
        let handle = metrics
            .entry(name.to_string())
            .or_insert_with(|| Handle::Histogram(Arc::new(Histogram::new(bounds))));
        match handle {
            Handle::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Enumerate every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let metrics = self.metrics.lock().expect("metrics lock");
        metrics
            .iter()
            .map(|(name, handle)| {
                let value = match handle {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Prometheus-style text exposition. Counters and gauges render as
    /// `# TYPE` plus a value line; histograms render as summaries
    /// (quantile series plus `_sum` and `_count`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram(snap) => {
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    for (q, v) in
                        [("0.5", snap.p50_ms), ("0.9", snap.p90_ms), ("0.99", snap.p99_ms)]
                    {
                        out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
                    }
                    out.push_str(&format!("{name}_sum {}\n", snap.sum_ms));
                    out.push_str(&format!("{name}_count {}\n", snap.count));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("setm_test_total");
        c.inc();
        c.add(4);
        assert_eq!(registry.counter("setm_test_total").get(), 5, "same handle by name");
        let g = registry.gauge("setm_test_depth");
        g.set(9);
        g.set(3);
        assert_eq!(registry.gauge("setm_test_depth").get(), 3);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.counter("setm_test_total");
        registry.gauge("setm_test_total");
    }

    #[test]
    fn histogram_percentiles_use_ceil_rank() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0, 8.0]);
        for _ in 0..90 {
            h.observe(0.5);
        }
        for _ in 0..10 {
            h.observe(6.0);
        }
        assert_eq!(h.count(), 100);
        assert!(h.percentile(0.50) <= 1.0, "median in first bucket");
        // rank ceil(0.99*100)=99 lands in the (4,8] bucket.
        let p99 = h.percentile(0.99);
        assert!(p99 > 4.0 && p99 <= 8.0, "p99 was {p99}");
        // Everything beyond the last bound reports the last finite bound.
        let h = Histogram::new(vec![1.0]);
        h.observe(50.0);
        assert_eq!(h.percentile(0.99), 1.0);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new(default_latency_bounds());
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.snapshot().p99_ms, 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_text_renders_each_kind() {
        let registry = MetricsRegistry::new();
        registry.counter("setm_b_total").add(2);
        registry.gauge("setm_a_depth").set(1);
        registry.histogram("setm_c_wait_ms", vec![1.0, 10.0]).observe(0.4);
        let names: Vec<String> = registry.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["setm_a_depth", "setm_b_total", "setm_c_wait_ms"]);
        let text = registry.render_text();
        assert!(text.contains("# TYPE setm_b_total counter\nsetm_b_total 2\n"));
        assert!(text.contains("# TYPE setm_a_depth gauge\nsetm_a_depth 1\n"));
        assert!(text.contains("# TYPE setm_c_wait_ms summary\n"));
        assert!(text.contains("setm_c_wait_ms{quantile=\"0.5\"}"));
        assert!(text.contains("setm_c_wait_ms_count 1\n"));
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            value.parse::<f64>().expect("numeric value");
        }
    }
}
