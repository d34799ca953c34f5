//! **Ablations A1/A2** — GEMM vs. `AuM` (direct add/delete maintenance)
//! over the most recent window (paper §3.2.4).
//!
//! * A1, BSS = ⟨1…1⟩: `AuM` must delete the outgoing block *and* add the
//!   incoming one — roughly twice GEMM's response time (GEMM pays only
//!   the addition; the other models update off-line).
//! * A2, BSS = ⟨1010…⟩ (window-relative): each slide replaces the whole
//!   selected set, so `AuM` degenerates toward re-mining from scratch
//!   while GEMM's response time stays one block-addition.

use demon_bench::{banner, ms, quest_block_sized, scale, Table};
use demon_bench::baselines::aum::AumWindow;
use demon_core::bss::{BlockSelector, WrBss};
use demon_core::{Gemm, ItemsetMaintainer};
use demon_itemsets::CounterKind;
use demon_types::{BlockId, MinSupport};

fn block_stream(n_blocks: u64, block_size: usize) -> Vec<demon_types::TxBlock> {
    let mut tid = 1u64;
    (1..=n_blocks)
        .map(|id| {
            let b = quest_block_sized("1M.20L.1I.4pats.4plen", block_size, 100 + id, BlockId(id), tid);
            tid += b.len() as u64;
            b
        })
        .collect()
}

fn maintainer() -> ItemsetMaintainer {
    ItemsetMaintainer::new(1000, MinSupport::new(0.01).unwrap(), CounterKind::Ecut)
}

fn main() {
    banner(
        "Ablation A1/A2",
        "GEMM vs AuM response time over the most recent window",
        "w=4, blocks of 50K (scaled), κ=0.01, ECUT update counter",
    );
    let block_size = ((50_000.0 * scale()).round() as usize).max(500);
    let w = 4usize;
    let n_blocks = 12u64;
    let mut table = Table::new(
        "ablation_gemm",
        &[
            "bss",
            "maintainer",
            "mean_response_ms",
            "max_response_ms",
            "mean_blocks_touched",
        ],
    );

    for (label, selector) in [
        ("all-ones", BlockSelector::all()),
        (
            "1010 (window-relative)",
            BlockSelector::WindowRelative(WrBss::new(vec![true, false, true, false])),
        ),
        (
            "0101 (window-relative)",
            BlockSelector::WindowRelative(WrBss::new(vec![false, true, false, true])),
        ),
    ] {
        // GEMM.
        let mut gemm = Gemm::new(maintainer(), w, selector.clone()).unwrap();
        let mut g_resp: Vec<f64> = Vec::new();
        for b in block_stream(n_blocks, block_size) {
            let s = gemm.add_block(b).unwrap();
            g_resp.push(ms(s.response_time));
        }
        // Skip the warmup steps: the steady-state slides are what §3.2.4
        // compares.
        let steady = &g_resp[w..];
        table.row(&[
            &label,
            &"GEMM",
            &format!("{:.2}", mean(steady)),
            &format!("{:.2}", max(steady)),
            &1.0,
        ]);

        // AuM.
        let mut aum = AumWindow::new(maintainer(), w, selector).unwrap();
        let mut a_resp: Vec<f64> = Vec::new();
        let mut touched: Vec<f64> = Vec::new();
        for b in block_stream(n_blocks, block_size) {
            let s = aum.add_block(b).unwrap();
            a_resp.push(ms(s.response_time));
            touched.push((s.blocks_added + s.blocks_removed) as f64);
        }
        let steady_a = &a_resp[w..];
        table.row(&[
            &label,
            &"AuM",
            &format!("{:.2}", mean(steady_a)),
            &format!("{:.2}", max(steady_a)),
            &format!("{:.1}", mean(&touched[w..])),
        ]);
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}
