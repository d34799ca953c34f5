//! `demonbench selfcheck --runs N`: does the benchmark agree with
//! itself? Runs every workload `N` times on this build, each run a
//! process of its own (so `peak_rss_mb` is per run) with another seed
//! (as the driver does), and fails unless, for every workload / metric
//! pair, (max − min) ÷ median stays within the metric's bound.
//!
//! `q_gap` is the same gap had the runs been reduced the way the issue
//! first specified (the good-side quartile of all segments pooled, read
//! from each run's stored record), so every selfcheck compares that
//! reduction with the one in use on identical runs.

use crate::env;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quantile_sorted};
use serde_json::Value;
use std::process::Command;

/// Sorts `samples`; returns their median and (max − min) ÷ median.
fn gap(samples: &mut [f64]) -> (f64, f64) {
    let mid = median(samples);
    (mid, (samples[samples.len() - 1] - samples[0]) / mid)
}

/// Runs the check; returns the process exit code.
pub fn run(runs: usize, seed: u64, seconds: u64) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("demonbench: cannot find my own executable: {e}");
            return 2;
        }
    };
    let mut all_pass = true;
    println!(
        "{:<15} {:<15} {:>11} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "iqr", "max_gap", "q_gap", "bound"
    );
    for w in &WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); END_TO_END.len()];
        let mut quartiles = values.clone();
        let record = env::out_dir().join(format!("run-{}-e2e.json", w.name));
        for i in 0..runs {
            let output = Command::new(&exe)
                .args(["--workload", w.name, "--trace", "0"])
                .args(["--seed", &(seed + i as u64).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .output();
            let line = match output {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .unwrap_or_default()
                    .to_string(),
                Ok(o) => {
                    eprintln!("{}: run {i} exited with {}", w.name, o.status);
                    return 1;
                }
                Err(e) => {
                    eprintln!("{}: run {i} did not start: {e}", w.name);
                    return 2;
                }
            };
            let Ok(result) = serde_json::from_str::<Value>(&line) else {
                eprintln!("{}: run {i} printed no result object", w.name);
                return 1;
            };
            let stored: Option<Value> = std::fs::read_to_string(&record)
                .ok()
                .and_then(|text| serde_json::from_str(&text).ok());
            for ((m, samples), pooled) in END_TO_END.iter().zip(&mut values).zip(&mut quartiles) {
                let value = result
                    .get("metrics")
                    .and_then(|metrics| metrics.get(m.name))
                    .and_then(|metric| metric.get("value"))
                    .and_then(Value::as_f64);
                let quartile = stored
                    .as_ref()
                    .and_then(|run| run.get("detail")?.get(m.name)?.get("quartile")?.as_f64());
                match (value, quartile) {
                    (Some(v), Some(q)) => {
                        samples.push(v);
                        pooled.push(q);
                    }
                    _ => {
                        eprintln!("{}: run {i} lacks {}", w.name, m.name);
                        return 1;
                    }
                }
            }
        }
        for ((m, samples), pooled) in END_TO_END.iter().zip(&mut values).zip(&mut quartiles) {
            let (mid, max_gap) = gap(samples);
            let iqr = (quantile_sorted(samples, 0.75) - quantile_sorted(samples, 0.25)) / mid;
            let pass = max_gap <= m.bound;
            all_pass &= pass;
            println!(
                "{:<15} {:<15} {:>11.4} {:>8.4} {:>8.4} {:>8.4} {:>6.2}  {}",
                w.name,
                m.name,
                mid,
                iqr,
                max_gap,
                gap(pooled).1,
                m.bound,
                if pass { "ok" } else { "TOO NOISY" }
            );
        }
    }
    i32::from(!all_pass)
}
