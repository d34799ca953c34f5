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
use demon_types::parallel::par_for_each_mut;
use demon_types::{obs, Block, BlockId, Parallelism, Result};
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
        crate::engine::check_window(w, &selector)?;
        Ok(Gemm {
            maintainer,
            selector,
            w,
            par: Parallelism::serial(),
            slots: Vec::with_capacity(w),
            latest: None,
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
    /// replayed id is a typed [`demon_types::DemonError::DuplicateBlock`]
    /// and a gap an [`demon_types::DemonError::InvalidParameter`]; both
    /// leave the engine untouched.
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
    use demon_itemsets::CounterKind;
    use demon_types::{Item, MinSupport, Tid, Transaction, TxBlock};

    fn k(v: f64) -> MinSupport {
        MinSupport::new(v).unwrap()
    }

    /// A block whose only item is its own id.
    fn marker_block(id: u64, n_tx: usize) -> TxBlock {
        let txs = (0..n_tx as u64)
            .map(|i| Transaction::new(Tid(id * 1000 + i), vec![Item(id as u32)]))
            .collect();
        TxBlock::new(BlockId(id), txs)
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
