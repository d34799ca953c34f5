//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the DEMON paper (see DESIGN.md for the experiment index).
//!
//! The paper's absolute dataset sizes target a 200 MHz Pentium Pro; the
//! harness scales them by the `DEMON_SCALE` environment variable
//! (default 0.02 — e.g. the `2M` dataset becomes 40 000 transactions).
//! Only absolute times change with the scale; the *shapes* the paper
//! argues from (who wins, by what factor, where crossovers fall) are
//! scale-stable because every algorithm sees the same data.
//!
//! # Paper → binary map
//!
//! | Paper figure | Experiment | Binary |
//! |---|---|---|
//! | Fig. 2 | counting time vs number of itemsets | `fig2` |
//! | Fig. 3 | counting time vs minimum support | `fig3` |
//! | Figs. 4–7 | BORDERS response time vs block size | `fig4to7` |
//! | Fig. 8 | BIRCH vs BIRCH+ | `fig8` |
//! | Fig. 9 | GEMM window maintenance | `fig9` |
//! | Fig. 10 | compact-sequence update cost | `fig10` |
//! | — | ablations (FUP, AuM, dilution, budgets) | `ablation_*` |
//!
//! # Perf trajectory
//!
//! Two additional binaries emit machine-readable JSON at the repo root —
//! the perf points tracked across releases (see DESIGN.md,
//! "Benchmarking & perf trajectory"): `bench_counting` writes
//! `BENCH_counting.json` and `bench_maintenance` writes
//! `BENCH_maintenance.json`, each a 1/2/4/8 thread sweep of median wall
//! times with the knobs `DEMON_SCALE` and `DEMON_BENCH_REPEATS`.
//! `bench_serve` writes `BENCH_serve.json`, a 1/4/16-client sweep of the
//! TCP daemon's request throughput and ingest/query latency medians
//! under the same knobs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;

use demon_datagen::{QuestGen, QuestParams};
use demon_types::{Block, BlockId, Tid, Transaction, TxBlock};
use std::fmt::Display;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// The dataset scale factor, from `DEMON_SCALE` (default `0.02`).
pub fn scale() -> f64 {
    std::env::var("DEMON_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(0.02)
}

/// Generates a transaction block from a paper-notation Quest spec, with
/// TIDs starting at `tid_start` (keeps TIDs globally monotonic across
/// blocks, as systematic evolution guarantees).
pub fn quest_block(spec: &str, seed: u64, id: BlockId, tid_start: u64) -> TxBlock {
    let params = QuestParams::parse(spec, scale()).expect("valid quest spec");
    let mut gen = QuestGen::new(params, seed);
    let txs = gen.generate_all();
    Block::new(id, renumber(txs, tid_start))
}

/// Generates `n` transactions (ignoring the spec's own count) — used for
/// the block-size sweeps of Figures 4–7.
pub fn quest_block_sized(
    spec: &str,
    n: usize,
    seed: u64,
    id: BlockId,
    tid_start: u64,
) -> TxBlock {
    let params = QuestParams::parse(spec, 1.0).expect("valid quest spec");
    let mut gen = QuestGen::new(params, seed);
    let txs = gen.take_transactions(n);
    Block::new(id, renumber(txs, tid_start))
}

fn renumber(txs: Vec<Transaction>, tid_start: u64) -> Vec<Transaction> {
    txs.into_iter()
        .enumerate()
        .map(|(i, t)| Transaction::from_sorted(Tid(tid_start + i as u64), t.items().to_vec()))
        .collect()
}

/// Milliseconds with two decimals — the unit every table prints.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Timed repeats per configuration for the `BENCH_*.json` binaries, from
/// `DEMON_BENCH_REPEATS` (default 5).
pub fn bench_repeats() -> usize {
    std::env::var("DEMON_BENCH_REPEATS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(5)
}

/// The median of a set of timing samples, in milliseconds. Sorts the
/// slice; for an even count, returns the mean of the two middle samples.
pub fn median_ms(samples: &mut [Duration]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable();
    let n = samples.len();
    if n % 2 == 1 {
        ms(samples[n / 2])
    } else {
        (ms(samples[n / 2 - 1]) + ms(samples[n / 2])) / 2.0
    }
}

/// Logical CPUs the kernel lists (`/proc/cpuinfo`), beside what this
/// process may use (`available_parallelism`, affinity and cgroups
/// applied) — the two numbers a thread-scaling row must be read with, and
/// the `cores` / `available_parallelism` header of every `BENCH_*.json`
/// that sweeps threads.
pub fn cores() -> (usize, usize) {
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    let listed = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    (listed.max(available), available)
}

/// Writes one point of the perf trajectory as pretty-printed JSON to
/// `path` (relative to the working directory — the repo root when run via
/// `cargo run`), replacing any previous run's file.
pub fn write_bench_json(path: &str, value: serde_json::Value) {
    let body = serde_json::to_string_pretty(&value).expect("bench JSON serializes");
    std::fs::write(path, body + "\n").expect("bench JSON written");
    println!("# wrote {path}");
}

/// A result table that tees rows to stdout and to `results/<name>.csv`.
pub struct Table {
    name: String,
    columns: Vec<String>,
    csv: Option<std::fs::File>,
}

impl Table {
    /// Opens a table with the given column headers.
    pub fn new(name: &str, columns: &[&str]) -> Table {
        let dir = PathBuf::from("results");
        let csv = std::fs::create_dir_all(&dir)
            .ok()
            .and_then(|()| std::fs::File::create(dir.join(format!("{name}.csv"))).ok());
        let mut t = Table {
            name: name.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            csv,
        };
        t.write_header();
        t
    }

    fn write_header(&mut self) {
        println!("{}", self.columns.join("\t"));
        if let Some(f) = &mut self.csv {
            let _ = writeln!(f, "{}", self.columns.join(","));
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        let strs: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        println!("{}", strs.join("\t"));
        if let Some(f) = &mut self.csv {
            let _ = writeln!(f, "{}", strs.join(","));
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Prints the standard experiment banner.
pub fn banner(figure: &str, what: &str, params: &str) {
    println!("# {figure}: {what}");
    println!("# {params}");
    println!("# DEMON_SCALE={} (paper sizes × scale)", scale());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_and_parses() {
        // Note: avoids mutating the environment (tests run in parallel);
        // just checks the default path.
        let s = scale();
        assert!(s > 0.0);
    }

    #[test]
    fn quest_block_renumbers_tids() {
        let b = quest_block("10K.10L.1I.2pats.4plen", 1, BlockId(2), 500);
        assert_eq!(b.id(), BlockId(2));
        assert!(!b.is_empty());
        assert_eq!(b.records()[0].tid(), Tid(500));
        let last = b.records().last().unwrap().tid();
        assert_eq!(last, Tid(500 + b.len() as u64 - 1));
    }

    #[test]
    fn quest_block_sized_overrides_count() {
        let b = quest_block_sized("2M.10L.1I.2pats.4plen", 123, 1, BlockId(1), 1);
        assert_eq!(b.len(), 123);
    }

    #[test]
    fn ms_converts() {
        assert_eq!(ms(Duration::from_millis(250)), 250.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        let mut odd = vec![
            Duration::from_millis(30),
            Duration::from_millis(10),
            Duration::from_millis(20),
        ];
        assert_eq!(median_ms(&mut odd), 20.0);
        let mut even = vec![
            Duration::from_millis(10),
            Duration::from_millis(40),
            Duration::from_millis(20),
            Duration::from_millis(30),
        ];
        assert_eq!(median_ms(&mut even), 25.0);
    }

    #[test]
    fn bench_repeats_defaults_positive() {
        assert!(bench_repeats() > 0);
    }
}
