//! A small facade over the problem space of Figure 11: pick a data span
//! option, get a maintained model.

use crate::bss::{BlockSelector, WiBss};
use crate::gemm::{Gemm, GemmStats};
use crate::maintainer::{DecrementalMaintainer, ModelMaintainer};
use demon_types::{Block, BlockId, DemonError, Result};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The data span dimension (paper §2.2): mine everything collected so
/// far, or only the `w` most recent blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataSpan {
    /// Unrestricted window, with a window-independent BSS.
    Unrestricted(WiBss),
    /// Most recent window of size `w`, with either BSS flavour.
    MostRecent {
        /// Window size.
        w: usize,
        /// The block selection sequence.
        selector: BlockSelector,
    },
}

/// Timing of one engine step.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Time until the updated required model was available.
    pub response_time: Duration,
    /// Off-line time (GEMM's future-window updates; zero for UW).
    pub offline_time: Duration,
    /// Whether the arriving block entered the required model.
    pub absorbed: bool,
}

impl From<GemmStats> for EngineStats {
    fn from(g: GemmStats) -> Self {
        EngineStats {
            response_time: g.response_time,
            offline_time: g.offline_time,
            absorbed: g.absorbed_into_current,
        }
    }
}

/// The unrestricted-window engine: one model, maintained by `A_M` under a
/// window-independent BSS (paper §3.1).
pub struct UwEngine<M: ModelMaintainer> {
    maintainer: M,
    bss: WiBss,
    model: M::Model,
    latest: Option<BlockId>,
}

impl<M: ModelMaintainer> UwEngine<M> {
    /// A new engine.
    pub fn new(maintainer: M, bss: WiBss) -> Self {
        let model = maintainer.fresh();
        UwEngine {
            maintainer,
            bss,
            model,
            latest: None,
        }
    }

    /// The maintained model.
    pub fn model(&self) -> &M::Model {
        &self.model
    }

    /// The underlying maintainer.
    pub fn maintainer(&self) -> &M {
        &self.maintainer
    }

    /// Processes the next arriving block. A replayed id (at or below the
    /// latest consumed block) is a typed [`DemonError::DuplicateBlock`];
    /// a gap is an [`DemonError::InvalidParameter`]. Either way the
    /// engine is untouched: nothing was registered or absorbed.
    pub fn add_block(&mut self, block: Block<M::Record>) -> Result<EngineStats> {
        let id = block.id();
        check_sequential(id, self.latest)?;
        self.maintainer.register_block(block);
        self.latest = Some(id);
        let absorbed = self.bss.bit(id);
        let t0 = Instant::now();
        if absorbed {
            // The current set of frequent itemsets simply carries over on
            // a 0 bit (§3.1.1); on a 1 bit the maintainer updates it.
            self.maintainer.absorb(&mut self.model, id);
        }
        Ok(EngineStats {
            response_time: t0.elapsed(),
            offline_time: Duration::ZERO,
            absorbed,
        })
    }
}

/// The **sliding** most-recent-window engine for deletion-capable model
/// classes (paper §3.2.4's alternative to GEMM's per-window future
/// models): one model, maintained by absorbing the arriving block and
/// shedding the departing one through
/// [`DecrementalMaintainer::shed`].
///
/// Unlike GEMM this keeps no off-line models at all — the trade the
/// paper analyzes is exactly this: no off-line cost, but the on-line
/// response time pays for deletion, which for e.g. incremental DBSCAN
/// "is higher than that when a tuple is inserted". The window always
/// selects every block (a window-relative BSS under deletion-based
/// maintenance would need selective shedding, which no deletion-capable
/// class provides).
pub struct SlidingEngine<M: ModelMaintainer> {
    maintainer: M,
    w: usize,
    model: M::Model,
    window: VecDeque<BlockId>,
    latest: Option<BlockId>,
    /// `DecrementalMaintainer::shed`, captured at construction so the
    /// struct (and [`DemonEngine`]) stay usable under the plain
    /// `ModelMaintainer` bound.
    shed: fn(&M, &mut M::Model, BlockId),
}

impl<M: ModelMaintainer> SlidingEngine<M> {
    /// A sliding engine over the `w` most recent blocks.
    pub fn new(maintainer: M, w: usize) -> Result<Self>
    where
        M: DecrementalMaintainer,
    {
        if w == 0 {
            return Err(DemonError::InvalidParameter(
                "window size w must be at least 1".into(),
            ));
        }
        let model = maintainer.fresh();
        Ok(SlidingEngine {
            maintainer,
            w,
            model,
            window: VecDeque::new(),
            latest: None,
            shed: M::shed,
        })
    }

    /// The maintained window model.
    pub fn model(&self) -> &M::Model {
        &self.model
    }

    /// The underlying maintainer.
    pub fn maintainer(&self) -> &M {
        &self.maintainer
    }

    /// Blocks currently inside the window, oldest first.
    pub fn window(&self) -> Vec<BlockId> {
        self.window.iter().copied().collect()
    }

    /// Processes the next arriving block: absorb it, then shed and retire
    /// the block that slid out of the `w`-window (if any). Sequencing
    /// errors leave the engine untouched.
    pub fn add_block(&mut self, block: Block<M::Record>) -> Result<EngineStats> {
        let id = block.id();
        check_sequential(id, self.latest)?;
        self.maintainer.register_block(block);
        self.latest = Some(id);
        let t0 = Instant::now();
        self.maintainer.absorb(&mut self.model, id);
        self.window.push_back(id);
        if self.window.len() > self.w {
            let departing = self.window.pop_front().expect("window non-empty");
            (self.shed)(&self.maintainer, &mut self.model, departing);
            self.maintainer.retire_block(departing);
        }
        Ok(EngineStats {
            response_time: t0.elapsed(),
            offline_time: Duration::ZERO,
            absorbed: true,
        })
    }
}

/// Enforces the paper's systematic-evolution contract: block `id` must
/// be exactly the successor of `latest`. A replay of an id the engine
/// already consumed is a [`DemonError::DuplicateBlock`] (benign and
/// retryable for e.g. a recovering ingest pipeline); skipping ahead is
/// an [`DemonError::InvalidParameter`]. Shared by [`UwEngine`] and
/// [`crate::Gemm`], so both reject the block *before* touching any
/// maintainer or store state.
pub fn check_sequential(id: BlockId, latest: Option<BlockId>) -> Result<()> {
    let expected = latest.map_or(BlockId::FIRST, BlockId::next);
    if id == expected {
        return Ok(());
    }
    match latest {
        Some(latest) if id <= latest => Err(DemonError::DuplicateBlock {
            id: id.value(),
            latest: latest.value(),
        }),
        _ => Err(DemonError::InvalidParameter(format!(
            "expected block {expected}, got {id}"
        ))),
    }
}

/// The unified engine, dispatching on the data span option.
pub enum DemonEngine<M: ModelMaintainer + Sync> {
    /// Unrestricted window.
    Uw(UwEngine<M>),
    /// Most recent window (GEMM: per-window future models).
    Mrw(Gemm<M>),
    /// Most recent window by absorb/shed (deletion-capable classes).
    Sliding(SlidingEngine<M>),
}

impl<M: ModelMaintainer + Sync> DemonEngine<M> {
    /// Builds the engine for the chosen data span option.
    pub fn new(maintainer: M, span: DataSpan) -> Result<Self> {
        match span {
            DataSpan::Unrestricted(bss) => Ok(DemonEngine::Uw(UwEngine::new(maintainer, bss))),
            DataSpan::MostRecent { w, selector } => {
                Ok(DemonEngine::Mrw(Gemm::new(maintainer, w, selector)?))
            }
        }
    }

    /// Builds a deletion-based most-recent-window engine: one model that
    /// absorbs the arriving block and sheds the departing one, instead of
    /// GEMM's per-window future models. Only deletion-capable maintainers
    /// qualify.
    pub fn new_decremental(maintainer: M, w: usize) -> Result<Self>
    where
        M: DecrementalMaintainer,
    {
        Ok(DemonEngine::Sliding(SlidingEngine::new(maintainer, w)?))
    }

    /// Processes the next arriving block.
    pub fn add_block(&mut self, block: Block<M::Record>) -> Result<EngineStats> {
        match self {
            DemonEngine::Uw(e) => e.add_block(block),
            DemonEngine::Mrw(g) => Ok(g.add_block(block)?.into()),
            DemonEngine::Sliding(s) => s.add_block(block),
        }
    }

    /// Starts an engine that has consumed nothing at block `first`
    /// instead of `D1` — over a log whose older blocks were dropped; from
    /// there on ids must be sequential as ever.
    pub fn resume_at(&mut self, first: BlockId) {
        match self {
            DemonEngine::Uw(e) => e.latest = first.prev(),
            DemonEngine::Mrw(g) => g.latest = first.prev(),
            DemonEngine::Sliding(s) => s.latest = first.prev(),
        }
    }

    /// The oldest block the model depends on, now or after any later
    /// block (paper §2.2): the first block under the unrestricted window,
    /// the window's start under the most recent one. An engine resumed
    /// above it is missing data.
    pub fn oldest_needed(&self) -> BlockId {
        let (latest, w) = match self {
            DemonEngine::Uw(_) => return BlockId::FIRST,
            DemonEngine::Mrw(g) => (g.latest, g.window_size()),
            DemonEngine::Sliding(s) => (s.latest, s.w),
        };
        latest.map_or(BlockId::FIRST, |t| t.window_start(w))
    }

    /// The currently required model (`None` only for an MRW engine that
    /// has seen no blocks).
    pub fn current_model(&self) -> Option<&M::Model> {
        match self {
            DemonEngine::Uw(e) => Some(e.model()),
            DemonEngine::Mrw(g) => g.current_model(),
            DemonEngine::Sliding(s) => Some(s.model()),
        }
    }

    /// The underlying maintainer.
    pub fn maintainer(&self) -> &M {
        match self {
            DemonEngine::Uw(e) => e.maintainer(),
            DemonEngine::Mrw(g) => g.maintainer(),
            DemonEngine::Sliding(s) => s.maintainer(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintainer::ItemsetMaintainer;
    use demon_itemsets::CounterKind;
    use demon_types::{Item, MinSupport, Tid, Transaction, TxBlock};

    fn marker_block(id: u64, n_tx: usize) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            (0..n_tx)
                .map(|i| Transaction::new(Tid(id * 1000 + i as u64), vec![Item(id as u32)]))
                .collect(),
        )
    }

    fn maintainer() -> ItemsetMaintainer {
        ItemsetMaintainer::new(16, MinSupport::new(0.05).unwrap(), CounterKind::Ecut)
    }

    #[test]
    fn uw_engine_rejects_gaps() {
        let mut e = UwEngine::new(maintainer(), WiBss::All);
        e.add_block(marker_block(1, 2)).unwrap();
        assert!(e.add_block(marker_block(3, 2)).is_err());
    }

    /// An engine resumed at `D5` takes `D5` first and nothing else, ends
    /// up where an engine fed from `D1` does once the window has slid
    /// past the resume point, and names what it depends on: the window
    /// under a window, the first block without one.
    #[test]
    fn a_resumed_engine_continues_the_stream_and_names_its_oldest_block() {
        let windowed = || {
            let span = DataSpan::MostRecent {
                w: 2,
                selector: BlockSelector::all(),
            };
            DemonEngine::new(maintainer(), span).unwrap()
        };
        let (mut whole, mut resumed) = (windowed(), windowed());
        assert_eq!(whole.oldest_needed(), BlockId::FIRST);
        resumed.resume_at(BlockId(5));
        assert!(resumed.add_block(marker_block(1, 4)).is_err());
        for id in 1..=7u64 {
            whole.add_block(marker_block(id, 4)).unwrap();
            if id >= 5 {
                resumed.add_block(marker_block(id, 4)).unwrap();
            }
        }
        assert_eq!(whole.oldest_needed(), BlockId(6));
        assert_eq!(resumed.oldest_needed(), BlockId(6));
        let json = |e: &DemonEngine<ItemsetMaintainer>| serde_json::to_string(e.current_model().unwrap()).unwrap();
        assert_eq!(json(&resumed), json(&whole));

        let mut uw = DemonEngine::new(maintainer(), DataSpan::Unrestricted(WiBss::All)).unwrap();
        uw.resume_at(BlockId(5));
        uw.add_block(marker_block(5, 4)).unwrap();
        assert_eq!(uw.oldest_needed(), BlockId::FIRST);
    }

    #[test]
    fn sliding_engine_rejects_zero_window() {
        use crate::maintainer::DbscanMaintainer;
        use demon_clustering::DbscanParams;
        let maintainer = DbscanMaintainer::new(DbscanParams::new(2, 1.0, 3));
        assert!(DemonEngine::new_decremental(maintainer, 0).is_err());
    }
}
