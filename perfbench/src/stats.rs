//! Order statistics for the report: medians, the tail rule, and the
//! count-matched freshness series.

/// The value at quantile `q` (0..=1) of `values`, nearest-rank on a
/// sorted copy. `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (0 for an empty slice, which no caller reports).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The tail rule: a percentile is reported only when at least ten
/// samples lie beyond it, so `q` needs `n · (1 - q) ≥ 10`.
pub fn tail(values: &[f64], q: f64) -> Option<f64> {
    let beyond = values.len() as f64 * (1.0 - q);
    if beyond + 1e-9 < 10.0 {
        return None;
    }
    quantile(values, q)
}

/// Matches the k-th segment the edge emitted to the k-th segment the
/// store holds from that connection.
///
/// `emitted_at[k]` is when the push that closed the k-th segment was
/// issued, in nanoseconds on the run clock; `None` marks a segment whose
/// latency is not recorded (history pushed during set-up). Each call to
/// [`observe`](Self::observe) reports how many segments the store holds
/// after a collector pump that ended at `now`; every newly held segment
/// gets the latency `now - emitted_at[k]`.
pub struct Freshness<'a> {
    emitted_at: &'a [Option<u64>],
    held: usize,
    /// Latencies in nanoseconds, in store order.
    pub latencies_ns: Vec<u64>,
}

impl<'a> Freshness<'a> {
    /// Starts matching with `held` segments already in the store.
    pub fn new(emitted_at: &'a [Option<u64>], held: usize) -> Self {
        Self { emitted_at, held, latencies_ns: Vec::new() }
    }

    /// Records that the store holds `held` segments as of `now`.
    pub fn observe(&mut self, held: usize, now: u64) {
        let held = held.min(self.emitted_at.len());
        for k in self.held..held {
            if let Some(at) = self.emitted_at[k] {
                self.latencies_ns.push(now.saturating_sub(at));
            }
        }
        self.held = self.held.max(held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&small, 0.99), None, "999 samples leave 9.99 beyond p99");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&enough, 0.99), Some(989.0));
        assert_eq!(tail(&enough[..100], 0.9), Some(89.0));
        assert_eq!(tail(&enough[..99], 0.9), None);
    }

    #[test]
    fn freshness_matches_by_count_in_emission_order() {
        // Scripted emission: five segments, the first from set-up
        // history (unrecorded), closed by pushes at 10, 20, 20, 40 ns.
        let emitted = [None, Some(10), Some(20), Some(20), Some(40)];
        let mut f = Freshness::new(&emitted, 0);
        f.observe(2, 25); // history segment + the one closed at 10
        f.observe(2, 30); // nothing new
        f.observe(4, 50); // two closed at 20
        f.observe(9, 70); // more than was emitted: clamped
        assert_eq!(f.latencies_ns, vec![15, 30, 30, 30]);
        // A store count that goes backwards never re-records.
        f.observe(3, 90);
        assert_eq!(f.latencies_ns.len(), 4);
    }
}
