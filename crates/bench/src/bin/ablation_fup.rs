//! **Ablation A5** — FUP vs. BORDERS (paper §6: "The BORDERS algorithm
//! improves the FUP algorithm by reducing the number of scans of the old
//! database").
//!
//! Both maintainers absorb the same second block; the table reports total
//! maintenance time, full scans of the old database, and units read.
//! Expected shape: FUP re-scans the old data once per level that has
//! surviving new candidates, while BORDERS' detection phase reads only
//! the new block and its update phase (with ECUT) touches only the
//! relevant TID-lists.

use demon_bench::{banner, ms, quest_block, quest_block_sized, scale, Table};
use demon_bench::baselines::fup::FupModel;
use demon_itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon_types::{BlockId, MinSupport};

fn main() {
    banner(
        "Ablation A5",
        "FUP vs BORDERS maintenance cost",
        "first block 2M.20L.1I.4pats.4plen, second *M.20L.1I.8pats.4plen, κ=0.009",
    );
    let minsup = MinSupport::new(0.009).unwrap();
    let mut table = Table::new(
        "ablation_fup",
        &[
            "block_size",
            "maintainer",
            "time_ms",
            "old_db_scans",
            "units_read",
            "n_frequent",
        ],
    );

    let mut store = TxStore::new(1000);
    let first = quest_block("2M.20L.1I.4pats.4plen", 55, BlockId(1), 1);
    let first_len = first.len() as u64;
    store.add_block(first);

    // Warm models over the first block.
    let borders_base =
        FrequentItemsets::mine_from(&store, &[BlockId(1)], minsup).unwrap();
    let mut fup_base = FupModel::empty(minsup, 1000);
    fup_base.absorb_block(&store, BlockId(1)).unwrap();

    for paper_size in [10_000u64, 50_000, 100_000, 400_000] {
        let n = ((paper_size as f64) * scale()).round().max(1.0) as usize;
        let second =
            quest_block_sized("1M.20L.1I.8pats.4plen", n, 900 + paper_size, BlockId(2), first_len + 1);
        store.add_block(second);

        // FUP.
        let mut fup = fup_base.clone();
        let fstats = fup.absorb_block(&store, BlockId(2)).unwrap();
        table.row(&[
            &paper_size,
            &"FUP",
            &format!("{:.2}", ms(fstats.time)),
            &fstats.old_db_scans,
            &fstats.units_read,
            &fup.frequent().len(),
        ]);

        // BORDERS with ECUT.
        let mut borders = borders_base.clone();
        borders.warm_detector();
        let bstats = borders
            .absorb_block(&store, BlockId(2), CounterKind::Ecut)
            .unwrap();
        table.row(&[
            &paper_size,
            &"BORDERS+ECUT",
            &format!("{:.2}", ms(bstats.total_time())),
            &0usize,
            &(bstats.detection_units + bstats.update_units),
            &borders.n_frequent(),
        ]);

        // Agreement check: both maintainers reach the same model.
        assert_eq!(fup.frequent(), borders.frequent(), "maintainers disagree");
        store.remove_block(BlockId(2));
    }
}
