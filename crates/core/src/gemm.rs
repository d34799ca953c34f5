//! **GEMM** — the GEneric Model Maintainer for the most recent window
//! (paper §3.2, Algorithm 3.1).
//!
//! The window `D[t−w+1, t]` evolves in `w` steps, so the model of any
//! future window can be grown incrementally from the prefix it shares
//! with the current window. GEMM therefore maintains `w` models: the
//! current one plus one per overlapping future window, each extracted
//! with respect to the projected (window-independent) or right-shifted
//! (window-relative) BSS. When block `D_{t+1}` arrives:
//!
//! * the model covering `D[t−w+2, t]` absorbs the block (iff its BSS bit
//!   is 1) and *becomes the new current model* — the cost of exactly this
//!   one update is the **response time**;
//! * every other future-window model absorbs the block off-line (these
//!   updates may run in parallel);
//! * a fresh model is started for the newest future window.
//!
//! All `w` models are plain memory: one `Vec` of slots, ascending by
//! window start. The paper's disk shelf (§3.2, "main memory is a
//! premium") is not implemented; every binary keeps its models resident.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::bss::BlockSelector;
use crate::maintainer::ModelMaintainer;
use demon_types::parallel::{self, par_for_each_mut};
use demon_types::{obs, Block, BlockId, DemonError, Parallelism, Result};
use std::time::{Duration, Instant};

/// Timing of one GEMM step.
#[derive(Clone, Copy, Debug, Default)]
pub struct GemmStats {
    /// Time to produce the new *required* model (update of the slot that
    /// becomes current). This is the response time of §3.2.3.
    pub response_time: Duration,
    /// Time spent updating the remaining future-window models.
    pub offline_time: Duration,
    /// Whether the arriving block was selected into the current model.
    pub absorbed_into_current: bool,
    /// Number of off-line models that absorbed the block.
    pub offline_absorbed: usize,
}

/// The generic most-recent-window maintainer.
pub struct Gemm<M: ModelMaintainer> {
    maintainer: M,
    selector: BlockSelector,
    w: usize,
    par: Parallelism,
    /// One model per maintained window, keyed by the window's start
    /// block, ascending; slot 0 is the current window.
    slots: Vec<(BlockId, M::Model)>,
    /// The latest consumed block; [`crate::engine::DemonEngine::resume_at`]
    /// sets it on an empty instance.
    pub(crate) latest: Option<BlockId>,
}

impl<M: ModelMaintainer + Sync> Gemm<M> {
    /// A GEMM instance over `maintainer` with window size `w` and the
    /// given BSS. Off-line models update sequentially; see
    /// [`Gemm::with_parallelism`].
    pub fn new(maintainer: M, w: usize, selector: BlockSelector) -> Result<Self> {
        if w == 0 {
            return Err(DemonError::InvalidParameter(
                "window size must be positive".into(),
            ));
        }
        if let BlockSelector::WindowRelative(wr) = &selector {
            if wr.window_size() != w {
                return Err(DemonError::BssMismatch {
                    got: wr.window_size(),
                    expected: w,
                });
            }
        }
        Ok(Gemm {
            maintainer,
            selector,
            w,
            par: Parallelism::serial(),
            slots: Vec::with_capacity(w),
            latest: None,
        })
    }

    /// Updates the off-line models in parallel (they are independent; the
    /// paper notes they are not time-critical). `true` uses the
    /// process-wide default thread count
    /// ([`demon_types::parallel::global`]); see [`Gemm::with_parallelism`]
    /// for an explicit count.
    pub fn with_parallel_offline(self, parallel: bool) -> Self {
        self.with_parallelism(if parallel {
            parallel::global()
        } else {
            Parallelism::serial()
        })
    }

    /// Sets the exact [`Parallelism`] of the off-line fan-out over the
    /// `w−1` future-window models. Each model is absorbed by exactly one
    /// worker, so the maintained models are bit-identical at any thread
    /// count.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// The window size.
    pub fn window_size(&self) -> usize {
        self.w
    }

    /// The underlying maintainer.
    pub fn maintainer(&self) -> &M {
        &self.maintainer
    }

    /// Start of the current most-recent window.
    pub fn window_start(&self) -> Option<BlockId> {
        self.slots.first().map(|(start, _)| *start)
    }

    /// The model on the current window w.r.t. the BSS. `None` before the
    /// first block.
    pub fn current_model(&self) -> Option<&M::Model> {
        self.slots.first().map(|(_, model)| model)
    }

    /// The prefix model of the maintained window starting at `start`
    /// (the current window's included), or `None` if no maintained window
    /// starts there.
    pub fn future_model(&self, start: BlockId) -> Option<&M::Model> {
        self.slots
            .iter()
            .find(|(s, _)| *s == start)
            .map(|(_, model)| model)
    }

    /// Starts of all maintained future windows (ascending; the first is
    /// the current window).
    pub fn slot_starts(&self) -> Vec<BlockId> {
        self.slots.iter().map(|(start, _)| *start).collect()
    }

    /// Processes the next arriving block (ids must be contiguous). A
    /// replayed id is a typed [`DemonError::DuplicateBlock`] and a gap an
    /// [`DemonError::InvalidParameter`]; both leave the engine untouched.
    pub fn add_block(&mut self, block: Block<M::Record>) -> Result<GemmStats> {
        let id = block.id();
        crate::engine::check_sequential(id, self.latest)?;
        self.maintainer.register_block(block);
        self.latest = Some(id);
        let mut stats = GemmStats::default();

        // Slide: drop the outgoing current slot once the window is full,
        // and start the newest future window at the arriving block.
        if self.slots.len() == self.w {
            self.slots.remove(0);
        }
        self.slots.push((id, self.maintainer.fresh()));

        // Time-critical update: the new current model.
        let current_bit = self.selector.selects_arriving(id, self.slots[0].0, self.w);
        let t0 = Instant::now();
        if current_bit {
            self.maintainer.absorb(&mut self.slots[0].1, id);
        }
        stats.response_time = t0.elapsed();
        stats.absorbed_into_current = current_bit;

        // Off-line updates of the remaining slots.
        let t1 = Instant::now();
        stats.offline_absorbed = self.update_offline(id);
        stats.offline_time = t1.elapsed();

        // Retire data no maintained window can reach.
        let start = self.slots[0].0.value();
        if start > 1 {
            self.maintainer.retire_block(BlockId(start - 1));
        }
        Ok(stats)
    }

    /// Updates every off-line model (slots 1..) for arriving block `id`;
    /// returns how many absorbed it.
    fn update_offline(&mut self, id: BlockId) -> usize {
        let (w, selector) = (self.w, &self.selector);
        let absorbed = self.slots[1..]
            .iter()
            .filter(|(start, _)| selector.selects_arriving(id, *start, w))
            .count();
        // Off-line absorbs follow the BSS projected onto each future
        // window (window-independent) or right-shifted (window-relative).
        let op = match selector {
            BlockSelector::WindowIndependent(_) => obs::Counter::GemmProjections,
            BlockSelector::WindowRelative(_) => obs::Counter::GemmShifts,
        };
        obs::add(op, absorbed as u64);

        // Each selected model is absorbed by exactly one worker and the
        // models are independent, so the result is bit-identical to the
        // sequential loop at any thread count.
        let maintainer = &self.maintainer;
        par_for_each_mut(self.par, &mut self.slots[1..], |_, (start, model)| {
            if selector.selects_arriving(id, *start, w) {
                maintainer.absorb(model, id);
            }
        });
        absorbed
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::bss::{BlockSelector, WiBss, WrBss};
    use crate::maintainer::ItemsetMaintainer;
    use demon_itemsets::{CounterKind, FrequentItemsets, TxStore};
    use demon_types::{Item, MinSupport, Tid, Transaction, TxBlock};

    fn k(v: f64) -> MinSupport {
        MinSupport::new(v).unwrap()
    }

    /// Block `id` holds transactions over items that encode the block id,
    /// so it is easy to verify which blocks a model covers.
    fn tx_block(id: u64, txs: &[&[u32]]) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            txs.iter()
                .enumerate()
                .map(|(i, items)| {
                    Transaction::new(
                        Tid(id * 1000 + i as u64),
                        items.iter().copied().map(Item).collect(),
                    )
                })
                .collect(),
        )
    }

    /// A block whose only item is its own id — a model's frequent items
    /// then spell out exactly which blocks it was extracted from.
    fn marker_block(id: u64, n_tx: usize) -> TxBlock {
        let items = [id as u32];
        let txs: Vec<&[u32]> = (0..n_tx).map(|_| &items[..]).collect();
        tx_block(id, &txs)
    }

    fn covered_blocks(model: &FrequentItemsets) -> Vec<u64> {
        let mut v: Vec<u64> = model
            .frequent()
            .keys()
            .filter(|s| s.len() == 1)
            .map(|s| s.items()[0].id() as u64)
            .collect();
        v.sort_unstable();
        v
    }

    fn gemm_with(
        w: usize,
        selector: BlockSelector,
    ) -> Gemm<ItemsetMaintainer> {
        let maintainer = ItemsetMaintainer::new(16, k(0.05), CounterKind::Ecut);
        Gemm::new(maintainer, w, selector).unwrap()
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let m = ItemsetMaintainer::new(4, k(0.1), CounterKind::Ecut);
        assert!(Gemm::new(m, 0, BlockSelector::all()).is_err());
        let m = ItemsetMaintainer::new(4, k(0.1), CounterKind::Ecut);
        let wr = BlockSelector::WindowRelative(WrBss::new(vec![true, false]));
        assert!(Gemm::new(m, 3, wr).is_err());
    }

    #[test]
    fn rejects_non_contiguous_blocks() {
        let mut g = gemm_with(2, BlockSelector::all());
        g.add_block(marker_block(1, 4)).unwrap();
        assert!(g.add_block(marker_block(3, 4)).is_err());
    }

    #[test]
    fn all_ones_window_tracks_last_w_blocks() {
        let mut g = gemm_with(3, BlockSelector::all());
        for id in 1..=5u64 {
            g.add_block(marker_block(id, 4)).unwrap();
        }
        let model = g.current_model().unwrap();
        assert_eq!(covered_blocks(model), vec![3, 4, 5]);
        assert_eq!(g.window_start(), Some(BlockId(3)));
        assert_eq!(g.slot_starts(), vec![BlockId(3), BlockId(4), BlockId(5)]);
    }

    #[test]
    fn warmup_covers_all_blocks_before_window_fills() {
        let mut g = gemm_with(4, BlockSelector::all());
        g.add_block(marker_block(1, 4)).unwrap();
        g.add_block(marker_block(2, 4)).unwrap();
        let model = g.current_model().unwrap();
        assert_eq!(covered_blocks(model), vec![1, 2]);
        assert_eq!(g.window_start(), Some(BlockId(1)));
    }

    #[test]
    fn window_independent_bss_selects_by_block_id() {
        // BSS ⟨10110…⟩ repeated: bits of blocks 1..=5 are 1,0,1,1,0.
        let wi = BlockSelector::WindowIndependent(WiBss::Explicit {
            bits: vec![true, false, true, true, false],
            tail: false,
        });
        let mut g = gemm_with(3, wi);
        for id in 1..=4u64 {
            g.add_block(marker_block(id, 4)).unwrap();
        }
        // Window D[2,4]: selected blocks are 3 and 4 (paper's example).
        assert_eq!(covered_blocks(g.current_model().unwrap()), vec![3, 4]);
        let stats = g.add_block(marker_block(5, 4)).unwrap();
        // Window D[3,5]: block 5 has bit 0 → not absorbed; model covers 3,4.
        assert!(!stats.absorbed_into_current);
        assert_eq!(covered_blocks(g.current_model().unwrap()), vec![3, 4]);
    }

    #[test]
    fn window_relative_bss_moves_with_window() {
        // Pattern ⟨101⟩ over a window of 3: select positions 1 and 3.
        let wr = BlockSelector::WindowRelative(WrBss::new(vec![true, false, true]));
        let mut g = gemm_with(3, wr);
        for id in 1..=3u64 {
            g.add_block(marker_block(id, 4)).unwrap();
        }
        // Window D[1,3]: positions 1,3 → blocks 1 and 3.
        assert_eq!(covered_blocks(g.current_model().unwrap()), vec![1, 3]);
        g.add_block(marker_block(4, 4)).unwrap();
        // Window D[2,4]: positions 1,3 → blocks 2 and 4 (paper §3.2.2).
        assert_eq!(covered_blocks(g.current_model().unwrap()), vec![2, 4]);
        g.add_block(marker_block(5, 4)).unwrap();
        // Window D[3,5]: blocks 3 and 5.
        assert_eq!(covered_blocks(g.current_model().unwrap()), vec![3, 5]);
    }

    #[test]
    fn current_model_matches_scratch_mining() {
        // Cross-check GEMM's incremental state against batch mining of the
        // same selection, for a nontrivial window-relative BSS.
        let wr = BlockSelector::WindowRelative(WrBss::new(vec![true, true, false, true]));
        let mut g = gemm_with(4, wr);
        for id in 1..=7u64 {
            g.add_block(marker_block(id, 4)).unwrap();
        }
        let selected = BlockSelector::WindowRelative(WrBss::new(vec![true, true, false, true]))
            .selected_in_window(BlockId(4), 4, BlockId(7));
        assert_eq!(selected, vec![BlockId(4), BlockId(5), BlockId(7)]);
        assert_eq!(
            covered_blocks(g.current_model().unwrap()),
            vec![4, 5, 7]
        );
        // Batch-mine the same blocks on a scratch store.
        let mut store = TxStore::new(16);
        for id in 1..=7u64 {
            store.add_block(marker_block(id, 4));
        }
        let batch = FrequentItemsets::mine_from(&store, &selected, k(0.05)).unwrap();
        let model = g.current_model().unwrap();
        assert_eq!(model.frequent(), batch.frequent());
    }

    #[test]
    fn parallel_offline_matches_sequential() {
        let mk = || {
            let maintainer = ItemsetMaintainer::new(16, k(0.05), CounterKind::Ecut);
            Gemm::new(maintainer, 4, BlockSelector::all()).unwrap()
        };
        let mut seq = mk();
        for id in 1..=6u64 {
            seq.add_block(marker_block(id, 4)).unwrap();
        }
        for threads in [2usize, 3, 8] {
            let mut par = mk().with_parallelism(Parallelism::new(threads));
            for id in 1..=6u64 {
                par.add_block(marker_block(id, 4)).unwrap();
            }
            assert_eq!(
                seq.current_model().unwrap().frequent(),
                par.current_model().unwrap().frequent(),
                "current model diverged at {threads} threads"
            );
            for start in seq.slot_starts() {
                let a = seq.future_model(start).unwrap();
                let b = par.future_model(start).unwrap();
                assert_eq!(a.frequent(), b.frequent(), "slot {start:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn retirement_drops_out_of_window_blocks() {
        let mut g = gemm_with(2, BlockSelector::all());
        for id in 1..=4u64 {
            g.add_block(marker_block(id, 4)).unwrap();
        }
        // Window is D[3,4]; blocks 1 and 2 must be gone from the store.
        assert!(g.maintainer().store().block(BlockId(1)).is_none());
        assert!(g.maintainer().store().block(BlockId(2)).is_none());
        assert!(g.maintainer().store().block(BlockId(3)).is_some());
    }

    #[test]
    fn stats_report_absorption() {
        let wi = BlockSelector::WindowIndependent(WiBss::Periodic {
            pattern: vec![true, false],
        });
        let mut g = gemm_with(3, wi);
        let s1 = g.add_block(marker_block(1, 4)).unwrap();
        assert!(s1.absorbed_into_current);
        let s2 = g.add_block(marker_block(2, 4)).unwrap();
        assert!(!s2.absorbed_into_current);
        assert_eq!(s2.offline_absorbed, 0);
        let s3 = g.add_block(marker_block(3, 4)).unwrap();
        assert!(s3.absorbed_into_current);
        // Slots at starts 1,2,3 all have bit(D3)=1 under the periodic BSS;
        // two of them are off-line.
        assert_eq!(s3.offline_absorbed, 2);
    }
}
