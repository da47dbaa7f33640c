//! The repository's benchmark: three seeded workloads driven through
//! the public API of `sparsemat` and `sptrsv`, each printing its
//! end-to-end metrics (untraced run) or its per-layer metrics (traced
//! run) as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload timestep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The traced run wraps the benchmark's own timers around each call
//! into a layer; nothing inside the program is instrumented. See
//! `METRICS.md` for which layer metric should move which end-to-end
//! metric on which workload.

mod fleet;
mod host;
mod pcg;
mod record;
mod stats;
mod steps;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mgpu_sim::MachineConfig;
use sptrsv::SolveOptions;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("loaded_latency_ms.p50", "ms"),
    ("loaded_latency_ms.p90", "ms"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A workload that
/// bypasses a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sparsemat.ilu0_ms", "ms"),
    ("sparsemat.levels_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("engine.rss_after_build_mb", "MB"),
    ("desim.events", "count"),
    ("desim.events_per_s", "1/s"),
    ("engine.solve_ms.p50", "ms"),
    ("engine.over_reference", "ratio"),
    ("engine.refresh_ms.p50", "ms"),
    ("schedule.levels", "count"),
    ("schedule.chains", "count"),
    ("schedule.shards", "count"),
    ("schedule.barriers_per_solve", "count"),
    ("exec.computed_bytes_per_solve", "B"),
    ("exec.achieved_gbps", "GB/s"),
    ("exec.bw_frac", "ratio"),
    ("host.llc_mb", "MB"),
    ("host.triad_array_mb", "MB"),
    ("host.triad_gbps", "GB/s"),
    ("krylov.iterations", "count"),
    ("krylov.spmv_us", "us"),
    ("krylov.apply_us", "us"),
    ("krylov.vector_us", "us"),
    ("krylov.spmv_bw_frac", "ratio"),
    ("krylov.layer_sum_frac", "ratio"),
    ("serve.queue_wait_us", "us"),
    ("serve.panel_solve_us", "us"),
    ("serve.mean_fill", "lanes"),
    ("serve.panels", "count"),
    ("serve.linger_flush_frac", "ratio"),
    ("serve.queue_depth_high_water", "count"),
    ("fleet.hop_us", "us"),
    ("fleet.refresh_ms", "ms"),
    ("fleet.tenant_shed", "count"),
    ("fleet.cache_high_water_mb", "MB"),
    ("fleet.layer_sum_frac", "ratio"),
    ("gen.lateness_ms.p99", "ms"),
    ("gen.backlog_max", "count"),
    ("trace.overhead_frac", "ratio"),
    ("bench.latency_samples", "count"),
    ("bench.supported_tail_pct", "%"),
];

/// Set-up is repeated this many times per run and reported as the
/// median, so one slow build does not move `setup_s`.
pub const SETUP_REPS: usize = 5;

/// Settings of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What a workload hands back: operation counts, whether every output
/// check passed, and its metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks_ok: bool,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Count one checked output; a wrong one is a failed operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("output check failed: {what}");
            self.failed += 1;
            self.checks_ok = false;
        }
    }
}

/// Machine model and solver options every workload builds with: the
/// engine defaults with per-solve verification off, since the
/// benchmark checks outputs itself, outside the timed interval.
pub fn machine() -> MachineConfig {
    MachineConfig::dgx1(4)
}

pub fn solve_options() -> SolveOptions {
    SolveOptions { verify: false, ..SolveOptions::default() }
}

/// Milliseconds in `d`, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f`, returning its result and the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// A closed-loop run is cut into at most this many windows. More,
/// shorter windows make the quietest one an extreme that swings from
/// run to run: with 10, `timestep`'s throughput spread over 12 seeds
/// was 0.20, against 0.14 with 5.
const MAX_WINDOWS: usize = 5;

/// Closed-loop end-to-end metrics from per-operation latencies, in
/// the order the operations ran, read from the quietest window of at
/// least `min_per_window` operations (see [`stats::windowed`]). The one
/// caller is the whole offered load, so the loaded latencies are the
/// latencies.
pub fn closed_loop_metrics(out: &mut Outcome, lat_ms: &[f64], min_per_window: usize) {
    let w = stats::windowed(lat_ms, min_per_window, MAX_WINDOWS).expect("at least one operation");
    out.set("latency_ms.p50", w.p50);
    out.set("latency_ms.p90", w.p90);
    out.set("loaded_latency_ms.p50", w.p50);
    out.set("loaded_latency_ms.p90", w.p90);
    out.set("throughput_ops_s", w.ops_per_s);
    out.set("bench.latency_samples", lat_ms.len() as f64);
    out.set("bench.supported_tail_pct", supported_tail_pct(lat_ms.len() / w.windows));
}

/// The highest percentile a sample of `n` latencies supports with ten
/// samples beyond it, in percent; 0 when not even the median does.
pub fn supported_tail_pct(n: usize) -> f64 {
    stats::supported_tail(n).map_or(0.0, |q| q * 100.0)
}

/// Bandwidth anchor for the traced run: a STREAM triad with each
/// array at least four times the last-level cache. Run last, after
/// `peak_rss_mb` was read, so its arrays do not count as the
/// workload's memory.
pub fn bandwidth_anchor(out: &mut Outcome) -> f64 {
    // without a cache size from sysfs, 128 MB arrays (reported as an
    // LLC of 0) still dwarf any cache this benchmark has met
    let llc = host::llc_bytes();
    let t = host::triad(4 * llc.unwrap_or(32 << 20), 3);
    out.set("host.llc_mb", llc.unwrap_or(0) as f64 / (1 << 20) as f64);
    out.set("host.triad_array_mb", t.array_bytes as f64 / (1 << 20) as f64);
    out.set("host.triad_gbps", t.gbps);
    t.gbps
}

fn parse_args() -> Result<(String, Run), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, Run { seed, seconds: Duration::from_secs_f64(seconds), trace }))
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every metric of the run's set.
fn result_json(out: &Outcome, trace: bool) -> Result<String, String> {
    let set = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(set.len());
    for (name, unit) in set {
        let v = match out.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
    }
    let correct = out.checks_ok && out.failed == 0 && out.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("record") {
        return match record::main(&args[2..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench record: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (workload, run) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match workload.as_str() {
        "pcg_ilu0" => pcg::run(run),
        "timestep" => steps::timestep(run),
        "serve_fleet" => fleet::run(run),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    match result_json(&out, run.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` must name the same
    /// metrics with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn result_line_has_every_metric_of_its_set() {
        let mut out = Outcome { attempted: 3, checks_ok: true, ..Outcome::default() };
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = result_json(&out, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let traced = result_json(&out, true).unwrap();
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        let (correct, parsed) = record::parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!(parsed.len(), END_TO_END.len());
        assert!(parsed.iter().zip(END_TO_END).all(|(p, e)| p.0 == e.0 && p.1 == 1.5 && p.2 == e.1));
        out.metrics.remove("setup_s");
        assert!(result_json(&out, false).is_err());
    }
}
