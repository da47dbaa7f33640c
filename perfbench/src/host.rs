//! What the benchmark reads about the machine it runs on: memory
//! high-water marks, the last-level cache, and a STREAM-triad
//! bandwidth anchor measured in the same run.

use std::hint::black_box;
use std::time::Instant;

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MB.
/// Read from the kernel rather than from the program's own byte
/// accounting, which counts capacity, not resident pages.
pub fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 =
        line[field.len()..].trim_start_matches(':').split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Size in bytes of the highest-level cache sysfs lists for CPU 0.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else { continue };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else { continue };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_cache_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// One STREAM-triad measurement.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    /// Bytes in each of the three arrays.
    pub array_bytes: u64,
    /// Best observed bandwidth, counting 24 bytes per element (two
    /// reads and one write; write-allocate traffic not counted, as in
    /// STREAM).
    pub gbps: f64,
}

/// STREAM triad `a = b + s·c` on single-threaded arrays of at least
/// `min_array_bytes` each; the best of `reps` passes. The arrays are
/// freed before returning.
pub fn triad(min_array_bytes: u64, reps: usize) -> Triad {
    let len = (min_array_bytes / 8) as usize + 1;
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let s = black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(a[len / 2] == 7.0, "triad computed a wrong value");
    let array_bytes = (len * 8) as u64;
    Triad { array_bytes, gbps: 3.0 * array_bytes as f64 / best / 1e9 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_units() {
        assert_eq!(parse_cache_size("48K"), Some(48 << 10));
        assert_eq!(parse_cache_size("107520K"), Some(107520 << 10));
        assert_eq!(parse_cache_size("2M"), Some(2 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn small_triad_reports_its_size() {
        let t = triad(1 << 16, 2);
        assert!(t.array_bytes >= 1 << 16);
        assert!(t.gbps > 0.0);
    }
}
