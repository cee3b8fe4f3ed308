//! Timing helpers for the reproduction harness.

use std::time::{Duration, Instant};

/// Run `f` `runs + 1` times, discard the first (cold) run — the paper's
/// warm-cache methodology (§3.2) — and return the mean of the rest.
pub fn mean_time(runs: usize, mut f: impl FnMut()) -> Duration {
    assert!(runs >= 1);
    f(); // cold run, discarded
    let mut total = Duration::ZERO;
    for _ in 0..runs {
        let start = Instant::now();
        f();
        total += start.elapsed();
    }
    total / runs as u32
}

/// Time a single invocation.
pub fn once(mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Simple latency accumulator: mean and max per key.
#[derive(Debug, Default, Clone)]
pub struct LatencyStats {
    samples: Vec<Duration>,
}

impl LatencyStats {
    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        self.samples.push(d);
    }

    /// Merge another accumulator.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean latency.
    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.samples.iter().sum::<Duration>() / self.samples.len() as u32
    }

    /// Maximum latency.
    pub fn max(&self) -> Duration {
        self.samples.iter().max().copied().unwrap_or(Duration::ZERO)
    }

    /// p-th percentile (0-100).
    pub fn percentile(&self, p: f64) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }
}

/// Millisecond rendering with 3 significant decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_time_discards_first_run() {
        let mut calls = 0;
        let d = mean_time(3, || {
            calls += 1;
        });
        assert_eq!(calls, 4);
        assert!(d < Duration::from_millis(50));
    }

    #[test]
    fn latency_stats() {
        let mut s = LatencyStats::default();
        for msec in [1u64, 2, 3, 10] {
            s.record(Duration::from_millis(msec));
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), Duration::from_millis(4));
        assert_eq!(s.max(), Duration::from_millis(10));
        assert_eq!(s.percentile(0.0), Duration::from_millis(1));
        assert_eq!(s.percentile(100.0), Duration::from_millis(10));
    }

    #[test]
    fn tail_percentiles() {
        // 1..=100 ms: the nearest-rank estimate lands on the intuitive
        // sample for the percentiles the throughput reports print.
        let mut s = LatencyStats::default();
        for msec in 1..=100u64 {
            s.record(Duration::from_millis(msec));
        }
        assert_eq!(s.percentile(50.0), Duration::from_millis(51));
        assert_eq!(s.percentile(95.0), Duration::from_millis(95));
        assert_eq!(s.percentile(99.0), Duration::from_millis(99));
        // Insertion order must not matter.
        let mut rev = LatencyStats::default();
        for msec in (1..=100u64).rev() {
            rev.record(Duration::from_millis(msec));
        }
        assert_eq!(rev.percentile(95.0), s.percentile(95.0));
        // An outlier in the top 1% of ranks dominates p99 but not p50.
        let mut spike = LatencyStats::default();
        for _ in 0..9 {
            spike.record(Duration::from_millis(1));
        }
        spike.record(Duration::from_secs(1));
        assert_eq!(spike.percentile(50.0), Duration::from_millis(1));
        assert_eq!(spike.percentile(99.0), Duration::from_secs(1));
    }

    #[test]
    fn percentile_of_merged_shards_matches_global() {
        // Per-thread accumulators merged into one must yield the same
        // tail as recording globally — `run_linkbench` (fig9, table6/7)
        // and `conn-sweep` merge per-thread stats this way.
        let mut a = LatencyStats::default();
        let mut b = LatencyStats::default();
        let mut global = LatencyStats::default();
        for msec in 1..=50u64 {
            a.record(Duration::from_millis(msec));
            global.record(Duration::from_millis(msec));
        }
        for msec in 51..=100u64 {
            b.record(Duration::from_millis(msec));
            global.record(Duration::from_millis(msec));
        }
        let mut merged = LatencyStats::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count(), global.count());
        for p in [50.0, 95.0, 99.0] {
            assert_eq!(merged.percentile(p), global.percentile(p));
        }
    }
}
