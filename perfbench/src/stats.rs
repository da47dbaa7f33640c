//! The benchmark's own statistics: percentiles, quartiles, the tail
//! percentile a sample supports, and open-loop timing.

use std::time::{Duration, Instant};

/// Percentile `q` (in `0..=1`) of `values` by linear interpolation
/// between the two nearest ranks (`h = (n − 1)·q`). `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (h - lo as f64))
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Samples strictly beyond percentile `q` in a sample of `n`.
pub fn samples_beyond(n: usize, q: f64) -> f64 {
    n as f64 * (1.0 - q)
}

/// The highest of p99, p90 and p50 that leaves at least ten samples
/// beyond it in a sample of `n`, or `None` when even the median does
/// not. A tail read from fewer samples is mostly one outlier.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.99, 0.90, 0.50].into_iter().find(|&q| samples_beyond(n, q) >= 10.0 - 1e-9)
}

/// First quartile, median and third quartile by the same method as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so a spread computed here matches one computed
/// from the printed results. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        // position i·m/4 on 1-based ranks, clamped to the sample
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// `(q3 − q1) / median`: the run-to-run spread of one metric.
pub fn iqr_frac(values: &[f64]) -> Option<f64> {
    let [q1, med, q3] = quartiles(values)?;
    Some(if med == 0.0 { 0.0 } else { (q3 - q1) / med.abs() })
}

/// Median, p90 and throughput of a run's **quietest window**: the run
/// is cut into windows of consecutive operations, each statistic is
/// taken per window, and the best window's value is kept (the lowest
/// latency, the highest throughput).
///
/// Host noise on a shared machine only ever adds time, and it comes in
/// bursts that can cover most of a run. The quietest window is the
/// estimate such noise moves least, while a change that slows every
/// operation, or every tenth one, still moves every window and so the
/// best one too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub p50: f64,
    pub p90: f64,
    /// Operations per second of time spent in them.
    pub ops_per_s: f64,
    pub windows: usize,
}

/// [`Windowed`] over `lat_ms` (operation latencies in ms, in the order
/// they ran), cut into as many equal windows as keep at least
/// `min_per_window` operations each, at most `max_windows`.
pub fn windowed(lat_ms: &[f64], min_per_window: usize, max_windows: usize) -> Option<Windowed> {
    if lat_ms.is_empty() {
        return None;
    }
    let windows = (lat_ms.len() / min_per_window.max(1)).clamp(1, max_windows.max(1));
    let mut best = Windowed { p50: f64::INFINITY, p90: f64::INFINITY, ops_per_s: 0.0, windows };
    for w in 0..windows {
        let chunk = &lat_ms[w * lat_ms.len() / windows..(w + 1) * lat_ms.len() / windows];
        best.p50 = best.p50.min(median(chunk)?);
        best.p90 = best.p90.min(percentile(chunk, 0.90)?);
        best.ops_per_s = best.ops_per_s.max(chunk.len() as f64 / (chunk.iter().sum::<f64>() / 1e3));
    }
    Some(best)
}

/// A fixed open-loop arrival schedule: request `k` is due at
/// `start + k / rate`, whatever happened to earlier requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub rate: f64,
}

impl Schedule {
    pub fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_secs_f64(k as f64 / self.rate)
    }
}

/// How far behind its schedule a generator submitted (zero when on
/// time or early).
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Latency of an open-loop request, timed from when it was **due** —
/// not from when it was sent — so a stall that delays the generator
/// is charged to every request it held back.
pub fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_choice_leaves_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.50));
        assert_eq!(supported_tail(99), Some(0.50));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(999), Some(0.90));
        assert_eq!(supported_tail(1000), Some(0.99));
        for n in 20..3000 {
            let q = supported_tail(n).unwrap();
            assert!(samples_beyond(n, q) >= 10.0 - 1e-9, "n={n} q={q}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = iqr_frac(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn quietest_window_shrugs_off_bursts_in_most_windows() {
        // 3 windows of 20 ops at 10 ms; a burst slows two of them 5x
        let mut lat = vec![10.0; 60];
        lat[..40].iter_mut().for_each(|l| *l = 50.0);
        let w = windowed(&lat, 20, 10).unwrap();
        assert_eq!(w.windows, 3);
        assert_eq!((w.p50, w.p90), (10.0, 10.0));
        assert!((w.ops_per_s - 100.0).abs() < 1e-9);
        // pooled, the same run reads five times slower
        assert_eq!(median(&lat), Some(50.0));
        // a slowdown of every tenth operation shows in every window
        let mut tail = vec![10.0; 60];
        tail.iter_mut().step_by(5).for_each(|l| *l = 30.0);
        assert!(windowed(&tail, 20, 10).unwrap().p90 > 10.0);
        // too few operations for a second window: one window
        assert_eq!(windowed(&lat[..39], 20, 10).unwrap().windows, 1);
        assert_eq!(windowed(&[], 20, 10), None);
    }

    #[test]
    fn open_loop_latency_counts_generator_stalls() {
        let start = Instant::now();
        let s = Schedule { start, rate: 100.0 };
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(100) - start, Duration::from_secs(1));
        // the generator stalls 50 ms before sending request 1; the
        // system then answers in 2 ms
        let due = s.due(1);
        let sent = due + Duration::from_millis(50);
        let done = sent + Duration::from_millis(2);
        assert_eq!(lateness(due, sent), Duration::from_millis(50));
        assert_eq!(latency_from_due(due, done), Duration::from_millis(52));
        // early sends are not negative lateness
        assert_eq!(lateness(due, start), Duration::ZERO);
    }
}
