//! **`AuM`** — direct add/delete model maintenance over the most recent
//! window (paper §3.2.4), the ablation baseline for GEMM.
//!
//! Instead of keeping `w − 1` extra models, `AuM` maintains the single
//! current-window model and reflects a window slide by *deleting* the
//! blocks that left the selection and *adding* those that entered it.
//! For BSS = ⟨1…1⟩ that is one deletion plus one addition per slide
//! (≈ 2× GEMM's response time); for an alternating window-relative BSS
//! ⟨1010…⟩ the selected set is replaced wholesale every slide and `AuM`
//! degenerates toward re-mining from scratch — exactly the trade-off the
//! paper describes. Only model classes maintainable under deletion
//! qualify (frequent itemsets do; BIRCH trees do not).

use demon_core::bss::BlockSelector;
use demon_core::{ItemsetMaintainer, ModelMaintainer};
use demon_itemsets::FrequentItemsets;
use demon_types::{BlockId, Result, TxBlock};
use std::time::{Duration, Instant};

/// Timing and work accounting of one `AuM` step.
#[derive(Clone, Copy, Debug, Default)]
pub struct AumStats {
    /// Wall-clock time to bring the model up to date (the `AuM` response
    /// time — there is no off-line component).
    pub response_time: Duration,
    /// Blocks newly absorbed into the model this step.
    pub blocks_added: usize,
    /// Blocks deleted from the model this step.
    pub blocks_removed: usize,
}

/// The add/delete most-recent-window maintainer for frequent itemsets.
pub struct AumWindow {
    maintainer: ItemsetMaintainer,
    selector: BlockSelector,
    w: usize,
    model: FrequentItemsets,
    latest: Option<BlockId>,
}

impl AumWindow {
    /// A new maintainer with window size `w` and the given BSS.
    pub fn new(
        maintainer: ItemsetMaintainer,
        w: usize,
        selector: BlockSelector,
    ) -> Result<Self> {
        if w == 0 {
            return Err(demon_types::DemonError::InvalidParameter(
                "window size must be positive".into(),
            ));
        }
        if let BlockSelector::WindowRelative(wr) = &selector {
            if wr.window_size() != w {
                return Err(demon_types::DemonError::BssMismatch {
                    got: wr.window_size(),
                    expected: w,
                });
            }
        }
        let model = maintainer.fresh();
        Ok(AumWindow {
            maintainer,
            selector,
            w,
            model,
            latest: None,
        })
    }

    /// The single maintained model.
    pub fn model(&self) -> &FrequentItemsets {
        &self.model
    }

    /// The underlying maintainer (and its store).
    pub fn maintainer(&self) -> &ItemsetMaintainer {
        &self.maintainer
    }

    /// Start of the current window.
    fn window_start(&self, latest: BlockId) -> BlockId {
        BlockId(latest.value().saturating_sub(self.w as u64 - 1).max(1))
    }

    /// Processes the next arriving block. Replays and gaps are typed
    /// errors, as in [`demon_core::engine::UwEngine::add_block`].
    pub fn add_block(&mut self, block: TxBlock) -> Result<AumStats> {
        let id = block.id();
        demon_core::engine::check_sequential(id, self.latest)?;
        self.maintainer.register_block(block);

        // Selected sets before and after the slide.
        let old_selected: Vec<BlockId> = match self.latest {
            Some(prev) => {
                self.selector
                    .selected_in_window(self.window_start(prev), self.w, prev)
            }
            None => Vec::new(),
        };
        self.latest = Some(id);
        let new_start = self.window_start(id);
        let new_selected = self.selector.selected_in_window(new_start, self.w, id);

        let to_remove: Vec<BlockId> = old_selected
            .iter()
            .filter(|b| !new_selected.contains(b))
            .copied()
            .collect();
        let to_add: Vec<BlockId> = new_selected
            .iter()
            .filter(|b| !old_selected.contains(b))
            .copied()
            .collect();

        let t0 = Instant::now();
        for b in &to_remove {
            self.model
                .remove_block(self.maintainer.store(), *b, self.maintainer.counter())?;
        }
        for b in &to_add {
            self.model
                .absorb_block(self.maintainer.store(), *b, self.maintainer.counter())?;
        }
        let response_time = t0.elapsed();

        // Retire data strictly before the window.
        if new_start.value() > 1 {
            self.maintainer.retire_block(BlockId(new_start.value() - 1));
        }
        Ok(AumStats {
            response_time,
            blocks_added: to_add.len(),
            blocks_removed: to_remove.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_core::bss::WrBss;
    use demon_itemsets::CounterKind;
    use demon_types::{Item, MinSupport, Tid, Transaction};

    fn marker_block(id: u64, n_tx: usize) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            (0..n_tx)
                .map(|i| Transaction::new(Tid(id * 1000 + i as u64), vec![Item(id as u32)]))
                .collect(),
        )
    }

    fn covered(model: &FrequentItemsets) -> Vec<u64> {
        let mut v: Vec<u64> = model
            .frequent()
            .keys()
            .filter(|s| s.len() == 1)
            .map(|s| s.items()[0].id() as u64)
            .collect();
        v.sort_unstable();
        v
    }

    fn maintainer() -> ItemsetMaintainer {
        ItemsetMaintainer::new(16, MinSupport::new(0.05).unwrap(), CounterKind::Ecut)
    }

    #[test]
    fn all_ones_window_adds_and_removes_one_block() {
        let mut aum = AumWindow::new(maintainer(), 3, BlockSelector::all()).unwrap();
        for id in 1..=3u64 {
            let s = aum.add_block(marker_block(id, 4)).unwrap();
            assert_eq!(s.blocks_added, 1);
            assert_eq!(s.blocks_removed, 0);
        }
        assert_eq!(covered(aum.model()), vec![1, 2, 3]);
        let s = aum.add_block(marker_block(4, 4)).unwrap();
        assert_eq!(s.blocks_added, 1);
        assert_eq!(s.blocks_removed, 1);
        assert_eq!(covered(aum.model()), vec![2, 3, 4]);
    }

    #[test]
    fn alternating_bss_replaces_whole_selection() {
        // Paper §3.2.4: with ⟨1010…⟩ the new selected set is disjoint from
        // the old one — AuM must delete and re-add everything.
        let wr = BlockSelector::WindowRelative(WrBss::new(vec![
            true, false, true, false,
        ]));
        let mut aum = AumWindow::new(maintainer(), 4, wr).unwrap();
        for id in 1..=4u64 {
            aum.add_block(marker_block(id, 4)).unwrap();
        }
        // Window D[1,4], positions 1,3 → blocks 1,3.
        assert_eq!(covered(aum.model()), vec![1, 3]);
        let s = aum.add_block(marker_block(5, 4)).unwrap();
        // Window D[2,5], positions 1,3 → blocks 2,4: disjoint replacement.
        assert_eq!(covered(aum.model()), vec![2, 4]);
        assert_eq!(s.blocks_removed, 2);
        assert_eq!(s.blocks_added, 2);
    }

    #[test]
    fn matches_gemm_result_for_same_selection() {
        use demon_core::Gemm;
        let wr = || BlockSelector::WindowRelative(WrBss::new(vec![true, true, false]));
        let mut aum = AumWindow::new(maintainer(), 3, wr()).unwrap();
        let mut gemm = Gemm::new(maintainer(), 3, wr()).unwrap();
        for id in 1..=6u64 {
            aum.add_block(marker_block(id, 4)).unwrap();
            gemm.add_block(marker_block(id, 4)).unwrap();
        }
        assert_eq!(
            aum.model().frequent(),
            gemm.current_model().unwrap().frequent()
        );
    }

    #[test]
    fn rejects_gap_in_block_ids() {
        let mut aum = AumWindow::new(maintainer(), 2, BlockSelector::all()).unwrap();
        aum.add_block(marker_block(1, 2)).unwrap();
        assert!(aum.add_block(marker_block(5, 2)).is_err());
    }
}
