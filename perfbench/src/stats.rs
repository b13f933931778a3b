//! Percentile arithmetic with failures counted as misses.
//!
//! A failed attempt misses every latency limit, so it enters the sample
//! ranked above every success. A percentile whose rank lands among the
//! misses has no finite value; it is reported as the profile's
//! end-to-end deadline (the latency limit every miss exceeds).

/// Latency samples of one transaction kind, in milliseconds, plus the
/// number of failed attempts of that kind.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ok: Vec<f64>,
    missed: u64,
}

/// One percentile with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The value, or `None` when the rank falls among the misses (or
    /// there are no samples).
    pub value: Option<f64>,
    /// Samples (successes plus misses) the percentile ranks over.
    pub samples: u64,
}

impl Latencies {
    /// Records a successful attempt's latency.
    pub fn record(&mut self, ms: f64) {
        self.ok.push(ms);
    }

    /// Records a failed attempt.
    pub fn miss(&mut self) {
        self.missed += 1;
    }

    /// Successes plus misses.
    pub fn samples(&self) -> u64 {
        self.ok.len() as u64 + self.missed
    }

    /// The nearest-rank `p`-th percentile (0 < p <= 100), misses ranked
    /// above every success.
    pub fn percentile(&self, p: f64) -> Pct {
        let samples = self.samples();
        if samples == 0 {
            return Pct { value: None, samples };
        }
        let rank = nearest_rank(p, samples as usize);
        let value = if rank < self.ok.len() {
            let mut sorted = self.ok.clone();
            sorted.sort_by(f64::total_cmp);
            Some(sorted[rank])
        } else {
            None
        };
        Pct { value, samples }
    }
}

/// Zero-based index of the nearest-rank `p`-th percentile of `n` samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1)) - 1
}

/// Nearest-rank percentile of plain values (`None` when empty).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(p, sorted.len())])
}

/// Median of plain values (`None` when empty): the mean of the two middle
/// values for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// Open-loop latency: from the scheduled arrival to the outcome, in
/// milliseconds. Any wait the generator imposed before service started
/// (a stall, a backlog) is part of the latency.
pub fn scheduled_latency_ms(scheduled_ns: u64, done_ns: u64) -> f64 {
    done_ns.saturating_sub(scheduled_ns) as f64 / 1e6
}

/// How late service started against its schedule, in milliseconds.
pub fn lag_ms(scheduled_ns: u64, started_ns: u64) -> f64 {
    started_ns.saturating_sub(scheduled_ns) as f64 / 1e6
}

/// The scheduled arrival of the `i`-th request of a fixed-rate open loop,
/// in nanoseconds after its start.
pub fn arrival_ns(i: u64, rate_per_s: u64) -> u64 {
    (u128::from(i) * 1_000_000_000 / u128::from(rate_per_s.max(1))) as u64
}
