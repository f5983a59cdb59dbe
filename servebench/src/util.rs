//! Small self-contained helpers: a seeded generator, hashing, order
//! statistics, process memory and the result line.

use std::fmt::Write as _;

/// SplitMix64: a tiny, fully specified generator, so an op stream depends
/// only on the seed and this file.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EB0_5EB0_5EB0_5EB0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a 64, fed incrementally.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q` of the sample at or below it. `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile, capped at p99, that leaves at least
/// [`TAIL_BEYOND`] samples beyond it: `(quantile, value)`. Ranks are
/// integers, so float rounding cannot leave fewer samples beyond.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let p99_rank = (99 * n).div_ceil(100);
    let rank = p99_rank.min(n - TAIL_BEYOND);
    Some((rank as f64 / n as f64, sorted[rank - 1]))
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5).unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process in MB, 0 where `/proc`
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a run reports: whether every served answer was right, ops
/// attempted and failed, and the metrics.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_follows_the_definition() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&xs, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&xs, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // p50 of an even sample is the lower middle value, never an average.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=150).map(f64::from).collect();
        let (q, v) = tail(&xs).expect("enough samples");
        assert!((q - 140.0 / 150.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        let big: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&big), Some((0.99, 4950.0)));
        assert_eq!(tail(&xs[..10]), None);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = Report {
            correct: true,
            attempted: 3,
            failed: 1,
            metrics: vec![Metric::new("x_ms", 1.5, "ms")],
        }
        .json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
