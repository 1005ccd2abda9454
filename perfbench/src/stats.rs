//! Summaries of timing samples and the ratios the report prints.

/// Latency samples of one operation class, in milliseconds. A failed or
/// refused operation enters as `+∞`, so it counts as missing any limit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn push_failed(&mut self) {
        self.values.push(f64::INFINITY);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn failed(&self) -> usize {
        self.values.iter().filter(|v| v.is_infinite()).count()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle values for an even count).
    pub fn median(&self) -> Option<f64> {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(v[n / 2]),
            _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
        }
    }

    /// Nearest-rank percentile `p` in `(0, 1]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let v = self.sorted();
        if v.is_empty() {
            return None;
        }
        let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
        Some(v[rank - 1])
    }

    /// `min / p25 / p50 / p75 / max`, for the context lines.
    pub fn quartiles(&self) -> String {
        let q: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&p| {
                self.percentile(p)
                    .map_or("-".to_string(), |v| format!("{v:.3}"))
            })
            .collect();
        q.join(" / ")
    }

    /// The p90, or `None` below 100 samples: fewer than ten samples would
    /// lie beyond it.
    pub fn p90(&self) -> Option<f64> {
        if has_ten_beyond(self.len(), 0.90) {
            self.percentile(0.90)
        } else {
            None
        }
    }

    /// The highest of p50, p90, p99 and p99.9 with at least ten samples
    /// beyond it, as `(p, value)`; `None` below 20 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        [0.999, 0.99, 0.90, 0.50]
            .into_iter()
            .find(|&p| has_ten_beyond(self.len(), p))
            .and_then(|p| self.percentile(p).map(|v| (p, v)))
    }
}

/// Whether `n` samples leave at least ten beyond percentile `p`.
fn has_ten_beyond(n: usize, p: f64) -> bool {
    // Rounded so that 100 samples qualify for p90 despite 0.1 * 100 being
    // 9.999.. in binary floating point.
    (n as f64 * (1.0 - p) * 1e6).round() >= 10.0 * 1e6
}

/// `num / den`, or 0 when the base is zero (nothing attempted, so nothing
/// succeeded).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `setm.survival`: useful tuples over attempted ones, Σ|R_k| / Σ|R'_k|
/// over k ≥ 2.
pub fn survival(r_tuples: u64, r_prime_tuples: u64) -> f64 {
    ratio(r_tuples as f64, r_prime_tuples as f64)
}

/// `engine.cache_hit_ratio`: reads absorbed by the pool over all reads
/// the engine asked for, cache_hits / (cache_hits + page_accesses).
pub fn cache_hit_ratio(cache_hits: u64, page_accesses: u64) -> f64 {
    ratio(cache_hits as f64, (cache_hits + page_accesses) as f64)
}

/// The median of plain values (set-up repetitions, per-pass layer times).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.median().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(samples(99).p90(), None);
        assert_eq!(samples(100).p90(), Some(90.0));
        assert_eq!(samples(250).p90(), Some(225.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(samples(19).tail(), None);
        assert_eq!(samples(20).tail(), Some((0.50, 10.0)));
        assert_eq!(samples(99).tail(), Some((0.50, 50.0)));
        assert_eq!(samples(100).tail(), Some((0.90, 90.0)));
        assert_eq!(samples(999).tail(), Some((0.90, 900.0)));
        assert_eq!(samples(1000).tail(), Some((0.99, 990.0)));
        assert_eq!(samples(10_000).tail(), Some((0.999, 9990.0)));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(samples(0).median(), None);
        assert_eq!(samples(3).median(), Some(2.0));
        assert_eq!(samples(4).median(), Some(2.5));
    }

    #[test]
    fn failures_enter_the_percentiles_as_infinity() {
        let mut s = samples(95);
        for _ in 0..5 {
            s.push_failed();
        }
        assert_eq!(s.failed(), 5);
        assert_eq!(s.len(), 100);
        assert_eq!(s.p90(), Some(90.0));
        assert_eq!(s.percentile(0.96), Some(f64::INFINITY));
        // Enough failures push the median itself past any limit.
        let mut t = samples(10);
        for _ in 0..11 {
            t.push_failed();
        }
        assert_eq!(t.median(), Some(f64::INFINITY));
    }

    #[test]
    fn ratios_with_a_zero_base_are_zero() {
        assert_eq!(survival(0, 0), 0.0);
        assert_eq!(cache_hit_ratio(0, 0), 0.0);
        assert_eq!(survival(3, 12), 0.25);
        assert_eq!(cache_hit_ratio(1, 3), 0.25);
        assert!(!survival(0, 0).is_nan());
    }
}
