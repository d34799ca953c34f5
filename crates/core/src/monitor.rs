//! The full DEMONic view (paper Figure 11): **model maintenance** and
//! **pattern detection**, each under either data span option, over one
//! evolving block stream.
//!
//! [`DemonMonitor`] feeds every arriving block to a maintenance engine
//! (UW or GEMM) *and* to the compact-sequence miner (over the
//! unrestricted or the most recent window), so an application gets the
//! up-to-date model and the evolving block-similarity patterns from a
//! single `add_block` call — the paper's two problem dimensions composed.

use crate::engine::{DataSpan, DemonEngine, EngineStats};
use crate::maintainer::{DecrementalMaintainer, ModelMaintainer};
use demon_focus::compact::{CompactSequenceMiner, CompactStats};
use demon_focus::similarity::SimilarityOracle;
use demon_types::{Block, BlockId, Result};

/// Combined per-block statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonitorStats {
    /// Model-maintenance timing.
    pub maintenance: EngineStats,
    /// Pattern-detection timing.
    pub patterns: CompactStats,
}

/// The unified monitor over one block stream.
pub struct DemonMonitor<M, O>
where
    M: ModelMaintainer + Sync,
    M::Record: Clone,
    O: SimilarityOracle<M::Record>,
{
    engine: DemonEngine<M>,
    miner: CompactSequenceMiner<O, M::Record>,
}

impl<M, O> DemonMonitor<M, O>
where
    M: ModelMaintainer + Sync,
    M::Record: Clone,
    O: SimilarityOracle<M::Record>,
{
    /// Builds the monitor: `span` picks the maintenance quadrant,
    /// `pattern_window` picks the pattern-detection quadrant (`None` =
    /// unrestricted, `Some(w)` = most recent `w ≥ 2` blocks).
    pub fn new(
        maintainer: M,
        span: DataSpan,
        oracle: O,
        pattern_window: Option<usize>,
    ) -> Result<Self> {
        Self::over(DemonEngine::new(maintainer, span)?, oracle, pattern_window)
    }

    /// [`DemonMonitor::new`] with a **deletion-based** most-recent-window
    /// engine (absorb the arriving block, shed the departing one) instead
    /// of GEMM's per-window future models. Only deletion-capable
    /// maintainers qualify.
    pub fn new_decremental(
        maintainer: M,
        w: usize,
        oracle: O,
        pattern_window: Option<usize>,
    ) -> Result<Self>
    where
        M: DecrementalMaintainer,
    {
        Self::over(
            DemonEngine::new_decremental(maintainer, w)?,
            oracle,
            pattern_window,
        )
    }

    fn over(engine: DemonEngine<M>, oracle: O, pattern_window: Option<usize>) -> Result<Self> {
        let miner = CompactSequenceMiner::with_window(oracle, pattern_window)?;
        Ok(DemonMonitor { engine, miner })
    }

    /// Processes the next arriving block through both dimensions.
    ///
    /// The engine validates the id *before* any state is touched, so a
    /// replayed block (an id the monitor already consumed — e.g. an
    /// ingest pipeline resending after a crash) returns a typed
    /// [`demon_types::DemonError::DuplicateBlock`] and a gap returns an
    /// [`demon_types::DemonError::InvalidParameter`]; in both cases
    /// neither the model store nor the pattern miner sees the block, and
    /// the monitor keeps accepting the correct next id.
    pub fn add_block(&mut self, block: Block<M::Record>) -> Result<MonitorStats> {
        let maintenance = self.engine.add_block(block.clone())?;
        let patterns = self.miner.add_block(block);
        Ok(MonitorStats {
            maintenance,
            patterns,
        })
    }

    /// Starts a monitor that has consumed nothing at block `first`
    /// instead of `D1` (the miner addresses blocks by arrival, not id).
    pub fn resume_at(&mut self, first: BlockId) {
        self.engine.resume_at(first);
    }

    /// The oldest block either dimension still depends on — what a
    /// restart has to replay from to rebuild this monitor.
    pub fn oldest_needed(&self) -> BlockId {
        self.engine.oldest_needed().min(self.miner.oldest_needed())
    }

    /// The currently required model.
    pub fn model(&self) -> Option<&M::Model> {
        self.engine.current_model()
    }

    /// The maintenance engine.
    pub fn engine(&self) -> &DemonEngine<M> {
        &self.engine
    }

    /// The pattern miner.
    pub fn miner(&self) -> &CompactSequenceMiner<O, M::Record> {
        &self.miner
    }

    /// The current (maximal for UW, live for MRW) block sequences.
    pub fn sequences(&self) -> Vec<Vec<BlockId>> {
        self.miner.current_sequences()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bss::{BlockSelector, WiBss};
    use crate::maintainer::ItemsetMaintainer;
    use demon_focus::similarity::{ItemsetSimilarity, SimilarityConfig};
    use demon_itemsets::CounterKind;
    use demon_types::{Item, ItemSet, MinSupport, Tid, Transaction, TxBlock};

    /// Blocks alternate between two item populations.
    fn block(id: u64, family: u32) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            (0..30)
                .map(|i| {
                    Transaction::new(
                        Tid(id * 1000 + i),
                        vec![Item(family * 2), Item(family * 2 + 1)],
                    )
                })
                .collect(),
        )
    }

    fn oracle() -> ItemsetSimilarity {
        ItemsetSimilarity::new(
            8,
            MinSupport::new(0.1).unwrap(),
            SimilarityConfig::Threshold { alpha: 0.2 },
        )
    }

    #[test]
    fn monitor_maintains_model_and_patterns_together() {
        let maintainer = ItemsetMaintainer::new(8, MinSupport::new(0.1).unwrap(), CounterKind::Ecut);
        let mut monitor = DemonMonitor::new(
            maintainer,
            DataSpan::MostRecent {
                w: 3,
                selector: BlockSelector::all(),
            },
            oracle(),
            None,
        )
        .unwrap();
        for id in 1..=6u64 {
            let stats = monitor.add_block(block(id, (id % 2) as u32)).unwrap();
            assert!(stats.maintenance.absorbed);
        }
        // Model: last 3 blocks (families 1,0,1) — both families frequent.
        let model = monitor.model().unwrap();
        assert!(model.is_frequent(&ItemSet::from_ids(&[0, 1])));
        assert!(model.is_frequent(&ItemSet::from_ids(&[2, 3])));
        // Patterns: the two alternating families form the two maximal runs.
        let seqs = monitor.sequences();
        let evens: Vec<BlockId> = [2u64, 4, 6].map(BlockId).to_vec();
        let odds: Vec<BlockId> = [1u64, 3, 5].map(BlockId).to_vec();
        assert!(seqs.contains(&evens), "{seqs:?}");
        assert!(seqs.contains(&odds), "{seqs:?}");
    }

    /// Regression: replaying an already-consumed block id must surface as
    /// a typed `DuplicateBlock` error — not a store panic — and must
    /// leave both the model and the pattern state exactly as they were.
    #[test]
    fn replayed_block_is_a_typed_error_and_leaves_state_intact() {
        use demon_types::DemonError;
        let maintainer = ItemsetMaintainer::new(8, MinSupport::new(0.1).unwrap(), CounterKind::Ecut);
        let mut monitor =
            DemonMonitor::new(maintainer, DataSpan::Unrestricted(WiBss::All), oracle(), None)
                .unwrap();
        monitor.add_block(block(1, 0)).unwrap();
        monitor.add_block(block(2, 1)).unwrap();
        let model_before = monitor.model().unwrap().frequent_sorted();
        let seqs_before = monitor.sequences();

        // Replaying the latest block and an older block both fail typed.
        for id in [2u64, 1] {
            let err = monitor.add_block(block(id, 0)).unwrap_err();
            assert!(
                matches!(err, DemonError::DuplicateBlock { id: got, latest: 2 } if got == id),
                "replay of D{id}: unexpected {err}"
            );
        }
        // A gap is still rejected, but as an invalid parameter.
        let err = monitor.add_block(block(9, 0)).unwrap_err();
        assert!(matches!(err, DemonError::InvalidParameter(_)), "{err}");

        // Nothing leaked into the model or the miner…
        assert_eq!(monitor.model().unwrap().frequent_sorted(), model_before);
        assert_eq!(monitor.sequences(), seqs_before);
        // …and the correct next block is still accepted.
        monitor.add_block(block(3, 0)).unwrap();
        assert_eq!(monitor.model().unwrap().n_transactions(), 3 * 30);
    }

    #[test]
    fn monitor_with_windowed_patterns_retires_old_sequences() {
        let maintainer = ItemsetMaintainer::new(8, MinSupport::new(0.1).unwrap(), CounterKind::Ecut);
        let mut monitor = DemonMonitor::new(
            maintainer,
            DataSpan::Unrestricted(WiBss::All),
            oracle(),
            Some(3),
        )
        .unwrap();
        for id in 1..=7u64 {
            monitor.add_block(block(id, (id % 2) as u32)).unwrap();
        }
        // UW model covers everything…
        assert_eq!(
            monitor.model().unwrap().n_transactions(),
            7 * 30
        );
        // …while the pattern window only holds the last 3 blocks.
        for seq in monitor.sequences() {
            for b in seq {
                assert!(b.value() >= 5, "retired block {b} still in a sequence");
            }
        }
    }
}
