//! **Ablation A6** — GEMM response time vs. window size (§3.2.3: "the
//! response time is less than or equal to the time taken by `A_M` to
//! update the model", i.e. *independent of `w`*; the extra cost of larger
//! windows is off-line and its models can live on disk).
//!
//! The sweep absorbs the same block stream at several window sizes and
//! reports the steady-state response time (flat), the off-line time
//! (grows with `w`), and the off-line time with parallel future-window
//! updates (the updates are independent).

use demon_bench::{banner, ms, quest_block_sized, scale, Table};
use demon_core::bss::BlockSelector;
use demon_core::{Gemm, ItemsetMaintainer};
use demon_itemsets::CounterKind;
use demon_types::parallel::global;
use demon_types::{BlockId, MinSupport, Parallelism};

fn stream(n: u64, size: usize) -> Vec<demon_types::TxBlock> {
    let mut tid = 1u64;
    (1..=n)
        .map(|id| {
            let b = quest_block_sized("1M.20L.1I.4pats.4plen", size, 40 + id, BlockId(id), tid);
            tid += b.len() as u64;
            b
        })
        .collect()
}

fn main() {
    banner(
        "Ablation A6",
        "GEMM response vs window size (response flat, off-line grows)",
        "blocks of 50K (scaled), κ=0.05, ECUT",
    );
    let block_size = ((50_000.0 * scale()).round() as usize).max(500);
    let mut table = Table::new(
        "ablation_gemm_window",
        &[
            "window",
            "parallel",
            "mean_response_ms",
            "mean_offline_ms",
        ],
    );
    for w in [2usize, 4, 8] {
        for parallel in [false, true] {
            // κ=0.05 keeps the model size window-independent at bench scale
            // (κ=0.01 over a 2-block window collapses the absolute threshold
            // and blows the model up, measuring model size, not GEMM).
            let maintainer =
                ItemsetMaintainer::new(1000, MinSupport::new(0.05).unwrap(), CounterKind::Ecut);
            let mut gemm = Gemm::new(maintainer, w, BlockSelector::all())
                .unwrap()
                .with_parallelism(if parallel {
                    global()
                } else {
                    Parallelism::serial()
                });
            let mut resp = Vec::new();
            let mut off = Vec::new();
            for b in stream(w as u64 + 6, block_size) {
                let s = gemm.add_block(b).unwrap();
                resp.push(ms(s.response_time));
                off.push(ms(s.offline_time));
            }
            // Steady state only (after warmup).
            let steady_r = &resp[w..];
            let steady_o = &off[w..];
            table.row(&[
                &w,
                &parallel,
                &format!("{:.2}", mean(steady_r)),
                &format!("{:.2}", mean(steady_o)),
            ]);
        }
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
