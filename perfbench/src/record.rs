//! `perfbench record`: run workloads once per seed in child processes
//! and summarize each metric as median, quartiles, spread and sample
//! count — the form the baseline in `baseline.json` is kept in.
//!
//! ```text
//! perfbench record --workloads timestep,serve_fleet --runs 10 --seconds 30 --trace 0
//! ```

use std::collections::BTreeMap;
use std::process::Command;

use crate::{host, stats};

/// One parsed result line: whether it was correct, and its metrics as
/// `(name, value, unit)`.
pub type Parsed = (bool, Vec<(String, f64, String)>);

/// Parse the result line this benchmark prints. Not a general JSON
/// parser: it reads exactly the shape `result_json` writes.
pub fn parse_result(line: &str) -> Option<Parsed> {
    let correct = line.starts_with("{\"correct\": true,");
    let mut rest = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = Vec::new();
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let end = rest.find('"')?;
        let name = rest[..end].to_string();
        rest = &rest[rest.find("\"value\": ")? + "\"value\": ".len()..];
        let comma = rest.find(',')?;
        let value: f64 = rest[..comma].trim().parse().ok()?;
        rest = &rest[rest.find("\"unit\": \"")? + "\"unit\": \"".len()..];
        let end = rest.find('"')?;
        let unit = rest[..end].to_string();
        rest = &rest[rest.find('}')? + 1..];
        metrics.push((name, value, unit));
    }
    Some((correct, metrics))
}

fn ram_mb() -> Option<f64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = meminfo.lines().find(|l| l.starts_with("MemTotal:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<f64>().ok()? / 1024.0)
}

/// Median, quartiles and spread of one metric over the runs, as JSON.
fn summary(unit: &str, values: &[f64]) -> String {
    let med = stats::median(values).unwrap_or(f64::NAN);
    let [q1, _, q3] = stats::quartiles(values).unwrap_or([med; 3]);
    let spread = stats::iqr_frac(values).unwrap_or(0.0);
    format!(
        "{{\"unit\": \"{unit}\", \"n\": {}, \"median\": {med:?}, \"q1\": {q1:?}, \"q3\": {q3:?}, \"spread\": {spread:?}}}",
        values.len()
    )
}

pub fn main(args: &[String]) -> Result<(), String> {
    let (mut workloads, mut runs, mut seconds, mut trace) =
        (Vec::new(), 10u64, "20".into(), "0".into());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workloads" => workloads = val.split(',').map(str::to_string).collect(),
            "--runs" => runs = val.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => seconds = val.clone(),
            "--trace" => trace = val.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workloads.is_empty() || runs == 0 {
        return Err("record needs --workloads and --runs ≥ 1".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut per_workload = Vec::new();
    for w in &workloads {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let mut correct_runs = 0;
        for seed in 1..=runs {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds, "--trace", &trace])
                .output()
                .map_err(|e| format!("{w} seed {seed}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let parsed = out.status.success().then(|| stdout.lines().last().and_then(parse_result));
            let Some(Some((correct, metrics))) = parsed else {
                return Err(format!(
                    "{w} seed {seed} printed no result: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            };
            correct_runs += u64::from(correct);
            for (name, v, unit) in metrics {
                values.entry(name).or_insert_with(|| (unit, Vec::new())).1.push(v);
            }
            eprintln!("record: {w} seed {seed} done");
        }
        let metrics: Vec<String> = values
            .iter()
            .map(|(name, (unit, v))| format!("      \"{name}\": {}", summary(unit, v)))
            .collect();
        per_workload.push(format!(
            "    \"{w}\": {{\n      \"runs\": {runs}, \"correct_runs\": {correct_runs},\n{}\n    }}",
            metrics.join(",\n")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let llc_mb = host::llc_bytes().map_or(0.0, |b| b as f64 / (1 << 20) as f64);
    println!(
        "{{\n  \"env\": {{\"nproc\": {nproc}, \"llc_mb\": {llc_mb:?}, \"ram_mb\": {:?}}},\n  \"seconds\": {seconds}, \"trace\": {trace},\n  \"workloads\": {{\n{}\n  }}\n}}",
        ram_mb().unwrap_or(0.0),
        per_workload.join(",\n")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"latency_ms.p50\": {\"value\": 1e-3, \"unit\": \"ms\"}}}";
        let (correct, m) = parse_result(line).unwrap();
        assert!(correct);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], ("setup_s".to_string(), 0.5, "s".to_string()));
        assert_eq!(m[1], ("latency_ms.p50".to_string(), 1e-3, "ms".to_string()));
        assert!(!parse_result(&line.replace("true", "false")).unwrap().0);
        assert!(parse_result("not a result").is_none());
    }
}
