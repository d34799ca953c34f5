//! Live anomaly auditing over a sliding window — the extension surface of
//! the framework in one application:
//!
//! 1. **granularity selection** (the paper's future work): score several
//!    block granularities on a warm-up prefix of the trace and pick the
//!    one whose blocks organize best into patterns;
//! 2. **windowed pattern detection** (footnote 9): the compact-sequence
//!    miner over only the most recent window, retiring old blocks (and
//!    their cached models) as they slide out;
//! 3. **cyclic post-processing** (§4): extract periodic structure from
//!    the discovered sequences;
//! 4. anomaly flagging: a new block similar to *no* live block is
//!    surfaced immediately.
//!
//! ```sh
//! cargo run --release --example anomaly_audit
//! ```

use demon::datagen::webtrace::{self, WebTraceConfig, WebTraceGen};
use demon::focus::{
    cyclic_subsequences, evaluate_granularities, select_granularity, CompactSequenceMiner,
    ItemsetSimilarity, SimilarityConfig,
};
use demon::types::calendar::format_date;
use demon::types::{MinSupport, Timestamp};

fn oracle() -> ItemsetSimilarity {
    ItemsetSimilarity::new(
        webtrace::N_ITEMS,
        MinSupport::new(0.01).unwrap(),
        SimilarityConfig::Threshold { alpha: 0.12 },
    )
}

fn main() {
    let mut gen = WebTraceGen::new(WebTraceConfig {
        base_rate: 300.0,
        ..WebTraceConfig::default()
    });
    let requests = gen.generate();

    // --- 1. pick the granularity on the first week ------------------------
    let warmup_end = Timestamp::from_day_hour(7, 0);
    let warmup: Vec<_> = requests
        .iter()
        .copied()
        .take_while(|r| r.ts < warmup_end)
        .collect();
    let candidates = [4u64, 6, 8, 12, 24];
    let reports = evaluate_granularities(
        &candidates,
        |g| webtrace::segment_into_blocks(&warmup, g, Timestamp::from_day_hour(0, 12)),
        oracle,
        3,
    );
    println!("granularity  blocks  patterns  coverage  cohesion  score");
    for r in &reports {
        println!(
            "{:>9}h  {:>6}  {:>8}  {:>8.2}  {:>8.2}  {:>5.3}",
            r.granularity, r.n_blocks, r.n_patterns, r.coverage, r.cohesion, r.score
        );
    }
    let best = select_granularity(&reports).expect("candidates evaluated");
    println!("→ selected granularity: {}h\n", best.granularity);

    // --- 2./4. windowed mining with anomaly flags -------------------------
    let blocks = webtrace::segment_into_blocks(
        &requests,
        best.granularity,
        Timestamp::from_day_hour(0, 12),
    );
    let blocks_per_week = (7 * 24 / best.granularity) as usize;
    let mut miner = CompactSequenceMiner::with_window(oracle(), Some(blocks_per_week))
        .expect("a week holds at least two blocks");
    println!(
        "auditing {} blocks with a {}-block window:",
        blocks.len(),
        blocks_per_week
    );
    for block in blocks {
        let iv = block.interval().unwrap();
        let stats = miner.add_block(block);
        if stats.pairs_evaluated >= blocks_per_week / 2 && stats.similar_pairs == 0 {
            println!(
                "  !! {} {:02}:00 block matches nothing in the last week — audit it",
                format_date(iv.start.day()),
                iv.start.hour()
            );
        }
    }

    // --- 3. periodic structure in the live sequences ----------------------
    println!("\nperiodic patterns among the live sequences:");
    let mut shown = 0;
    for seq in miner.sequences() {
        if seq.len() < 4 {
            continue;
        }
        for cyc in cyclic_subsequences(&seq, 4) {
            let hours = cyc.period * best.granularity;
            println!(
                "  every {:>3} h: {} blocks starting at {}",
                hours,
                cyc.len(),
                cyc.blocks[0]
            );
            shown += 1;
            if shown >= 8 {
                return;
            }
        }
    }
    if shown == 0 {
        println!("  (none of period ≥ 4 — widen the window)");
    }
}
