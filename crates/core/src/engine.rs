//! A small facade over the problem space of Figure 11: pick a data span
//! option, get a maintained model.

use crate::bss::{BlockSelector, WiBss};
use crate::gemm::{Gemm, GemmStats};
use crate::maintainer::{Maintenance, ModelMaintainer};
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

/// The most-recent-window engine of a class that needs none of GEMM's
/// future models (§3.2.4): one model over the window's blocks, which a
/// [`Maintenance::Refit`] class fits afresh and a
/// [`Maintenance::Decremental`] one slides by absorb and shed. No
/// off-line updates; the on-line response time pays for the refit or
/// the deletion. Built only by [`DemonEngine::new`].
pub struct WindowEngine<M: ModelMaintainer> {
    maintainer: M,
    w: usize,
    model: M::Model,
    /// The registered blocks of the current window, oldest first.
    window: VecDeque<BlockId>,
    latest: Option<BlockId>,
    step: WindowStep<M>,
}

/// How a [`WindowEngine`] moves its one model to the next window.
enum WindowStep<M: ModelMaintainer> {
    /// Fit the window's selected blocks afresh, under any BSS.
    Refit(fn(&M, Vec<BlockId>) -> M::Model, BlockSelector),
    /// Absorb the arriving block and shed the departing one, each iff
    /// its bit is 1: exact, as a window-independent bit does not move.
    Slide(fn(&M, &mut M::Model, BlockId), WiBss),
}

impl<M: ModelMaintainer> WindowEngine<M> {
    /// Processes the next arriving block: step the model to the window
    /// that ends at it, then retire the block that slid out of the
    /// `w`-window (if any). Sequencing errors leave the engine untouched.
    fn add_block(&mut self, block: Block<M::Record>) -> Result<EngineStats> {
        let id = block.id();
        check_sequential(id, self.latest)?;
        self.maintainer.register_block(block);
        self.latest = Some(id);
        self.window.push_back(id);
        let departing = (self.window.len() > self.w)
            .then(|| self.window.pop_front())
            .flatten();
        let t0 = Instant::now();
        let absorbed = match &self.step {
            WindowStep::Refit(fit, selector) => {
                let start = id.window_start(self.w);
                let selected: Vec<BlockId> = (self.window.iter().copied())
                    .filter(|&b| selector.selects_arriving(b, start, self.w))
                    .collect();
                let absorbed = selected.last() == Some(&id);
                self.model = fit(&self.maintainer, selected);
                absorbed
            }
            WindowStep::Slide(shed, bss) => {
                let absorbed = bss.bit(id);
                if absorbed {
                    self.maintainer.absorb(&mut self.model, id);
                }
                if let Some(departing) = departing.filter(|&d| bss.bit(d)) {
                    shed(&self.maintainer, &mut self.model, departing);
                }
                absorbed
            }
        };
        if let Some(departing) = departing {
            self.maintainer.retire_block(departing);
        }
        Ok(EngineStats {
            response_time: t0.elapsed(),
            offline_time: Duration::ZERO,
            absorbed,
        })
    }
}

/// Refuses a most-recent window of no blocks, and a window-relative BSS
/// whose length is not the window's.
pub(crate) fn check_window(w: usize, selector: &BlockSelector) -> Result<()> {
    match selector {
        _ if w == 0 => Err(DemonError::InvalidParameter(
            "window size must be positive".into(),
        )),
        BlockSelector::WindowRelative(wr) if wr.window_size() != w => {
            Err(DemonError::BssMismatch {
                got: wr.window_size(),
                expected: w,
            })
        }
        _ => Ok(()),
    }
}

/// Enforces the paper's systematic-evolution contract: block `id` must
/// be exactly the successor of `latest`. A replay of an id the engine
/// already consumed is a [`DemonError::DuplicateBlock`] (benign and
/// retryable for e.g. a recovering ingest pipeline); skipping ahead is
/// an [`DemonError::InvalidParameter`]. Shared by every engine, so each
/// rejects the block *before* touching any maintainer or store state.
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

/// The unified engine: the data span option and the maintainer's
/// [`Maintenance`] declaration pick it.
pub enum DemonEngine<M: ModelMaintainer + Sync> {
    /// Unrestricted window.
    Uw(UwEngine<M>),
    /// Most recent window by GEMM's per-window future models.
    Mrw(Gemm<M>),
    /// Most recent window by one model: a refit, or absorb and shed.
    Window(WindowEngine<M>),
}

impl<M: ModelMaintainer + Sync> DemonEngine<M> {
    /// Builds the engine for the chosen data span option; the one place
    /// an engine is chosen. UW → [`UwEngine`]. MRW → a [`WindowEngine`]
    /// for a refit class under any BSS and for a decremental class under
    /// a window-independent BSS, else [`Gemm`].
    pub fn new(maintainer: M, span: DataSpan) -> Result<Self> {
        let (w, selector) = match span {
            DataSpan::Unrestricted(bss) => {
                return Ok(DemonEngine::Uw(UwEngine::new(maintainer, bss)))
            }
            DataSpan::MostRecent { w, selector } => (w, selector),
        };
        check_window(w, &selector)?;
        let step = match (M::MAINTENANCE, selector) {
            (Maintenance::Refit { fit }, selector) => WindowStep::Refit(fit, selector),
            (Maintenance::Decremental { shed }, BlockSelector::WindowIndependent(bss)) => {
                WindowStep::Slide(shed, bss)
            }
            (_, selector) => return Ok(DemonEngine::Mrw(Gemm::new(maintainer, w, selector)?)),
        };
        let model = maintainer.fresh();
        Ok(DemonEngine::Window(WindowEngine {
            maintainer,
            w,
            model,
            window: VecDeque::new(),
            latest: None,
            step,
        }))
    }

    /// Processes the next arriving block.
    pub fn add_block(&mut self, block: Block<M::Record>) -> Result<EngineStats> {
        match self {
            DemonEngine::Uw(e) => e.add_block(block),
            DemonEngine::Mrw(g) => Ok(g.add_block(block)?.into()),
            DemonEngine::Window(e) => e.add_block(block),
        }
    }

    /// Starts an engine that has consumed nothing at block `first`
    /// instead of `D1` — over a log whose older blocks were dropped; from
    /// there on ids must be sequential as ever.
    pub fn resume_at(&mut self, first: BlockId) {
        match self {
            DemonEngine::Uw(e) => e.latest = first.prev(),
            DemonEngine::Mrw(g) => g.latest = first.prev(),
            DemonEngine::Window(e) => e.latest = first.prev(),
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
            DemonEngine::Window(e) => (e.latest, e.w),
        };
        latest.map_or(BlockId::FIRST, |t| t.window_start(w))
    }

    /// The currently required model (`None` only for an MRW engine that
    /// has seen no blocks).
    pub fn current_model(&self) -> Option<&M::Model> {
        match self {
            DemonEngine::Uw(e) => Some(e.model()),
            DemonEngine::Mrw(g) => g.current_model(),
            DemonEngine::Window(e) => Some(&e.model),
        }
    }

    /// The underlying maintainer.
    pub fn maintainer(&self) -> &M {
        match self {
            DemonEngine::Uw(e) => e.maintainer(),
            DemonEngine::Mrw(g) => g.maintainer(),
            DemonEngine::Window(e) => &e.maintainer,
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
    fn a_window_of_no_blocks_is_refused_by_every_engine() {
        use crate::maintainer::{DbscanMaintainer, TreeMaintainer};
        use demon_clustering::DbscanParams;
        let span = || DataSpan::MostRecent {
            w: 0,
            selector: BlockSelector::all(),
        };
        assert!(DemonEngine::new(maintainer(), span()).is_err());
        let dbscan = DbscanMaintainer::new(DbscanParams::new(2, 1.0, 3));
        assert!(DemonEngine::new(dbscan, span()).is_err());
        let trees = TreeMaintainer::new(2, demon_trees::TreeParams::new(2));
        assert!(DemonEngine::new(trees, span()).is_err());
    }
}
