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
//!   updates may run in parallel and the models may live on disk — "main
//!   memory is not a limitation as long as a single model fits");
//! * a fresh model is started for the newest future window.
//!
//! ## Shelf durability
//!
//! Shelved models (`slot_<start>.model`) are written atomically as framed
//! checksummed files ([`demon_types::durable`]), so a crash mid-shelving
//! never leaves a torn model. Reads retry transient I/O errors a bounded
//! number of times. A shelf file that is missing or fails its checksum is
//! not fatal: GEMM **rebuilds** the model by replaying the window's block
//! stream through the maintainer (every block a maintained window can
//! reach is still registered), counts the event in
//! [`GemmStats::models_rebuilt`] / [`Gemm::shelf_rebuilds`], and carries
//! on.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::bss::BlockSelector;
use crate::maintainer::ModelMaintainer;
use demon_store::{BlockStore, Spillable, SpillPolicy};
use demon_types::durable::FrameClass;
use demon_types::parallel::{self, par_for_each_mut};
use demon_types::{obs, Block, BlockId, DemonError, Parallelism, Result};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How many times a shelf read retries a transient I/O error before the
/// error is surfaced.
const SHELF_READ_ATTEMPTS: u32 = 3;

/// Where the off-line (non-current) models live between blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShelfMode {
    /// Keep every model in memory.
    Memory,
    /// Serialize off-line models to JSON files under this directory,
    /// loading each only for its update — the paper's disk shelf.
    Disk(PathBuf),
}

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
    /// Shelved models that were rebuilt from the block stream during this
    /// step because their shelf file was missing or corrupt.
    pub models_rebuilt: usize,
}

/// One off-line model as held by the shelf's storage engine, keyed by
/// its future window's start block. On disk it is the same framed JSON
/// `slot_<start>.model` file the shelf has always written — the engine
/// supplies the atomic writes, checksums and residency tracking.
struct ShelfModel<T>(T);

impl<T: Clone + Send + Sync + serde::Serialize + serde::de::DeserializeOwned> Spillable
    for ShelfModel<T>
{
    fn frame_class() -> FrameClass {
        FrameClass::SHELF
    }

    fn spill_file_name(id: BlockId) -> String {
        format!("slot_{}.model", id.value())
    }

    fn encode(&self) -> Result<Vec<u8>> {
        let bytes = serde_json::to_vec(&self.0).map_err(|e| DemonError::Serde(e.to_string()))?;
        obs::add(obs::Counter::ShelfBytesWritten, bytes.len() as u64);
        Ok(bytes)
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        obs::incr(obs::Counter::ShelfHits);
        obs::add(obs::Counter::ShelfBytesRead, bytes.len() as u64);
        serde_json::from_slice(bytes)
            .map(ShelfModel)
            .map_err(|e| DemonError::Serde(format!("shelved model does not parse: {e}")))
    }

    fn resident_bytes(&self) -> u64 {
        // Shelved models are not block data; the disk shelf evicts them
        // unconditionally (SpillPolicy::Always), so they contribute
        // nothing to the block-residency gauge.
        0
    }
}

/// Whether a shelf-load failure can be healed by replaying the block
/// stream: corruption in any form, or the file simply being gone.
/// Persistent I/O failures (permissions, exhausted retries) cannot.
fn shelf_loss_is_recoverable(e: &DemonError) -> bool {
    match e {
        DemonError::Corrupt { .. } | DemonError::ChecksumMismatch { .. } | DemonError::Serde(_) => {
            true
        }
        DemonError::Io(io) => io.kind() == std::io::ErrorKind::NotFound,
        _ => false,
    }
}

/// An I/O failure worth retrying a bounded number of times (anything
/// but a plainly-missing file, which the rebuild path handles instead).
fn shelf_loss_is_transient(e: &DemonError) -> bool {
    matches!(e, DemonError::Io(io) if io.kind() != std::io::ErrorKind::NotFound)
}

/// The generic most-recent-window maintainer.
pub struct Gemm<M: ModelMaintainer> {
    maintainer: M,
    selector: BlockSelector,
    w: usize,
    shelf: ShelfMode,
    /// The off-line models (every slot but the current one), held in a
    /// block storage engine: in-memory for [`ShelfMode::Memory`], spill
    /// with [`SpillPolicy::Always`] for [`ShelfMode::Disk`].
    store: BlockStore<ShelfModel<M::Model>>,
    par: Parallelism,
    retire: bool,
    /// Starts of the maintained future windows, ascending; the first is
    /// the current window.
    starts: Vec<BlockId>,
    /// The current window's model — always pinned in memory.
    current: Option<M::Model>,
    /// The latest consumed block; [`crate::engine::DemonEngine::resume_at`]
    /// sets it on an empty instance.
    pub(crate) latest: Option<BlockId>,
    /// Lifetime count of shelved models rebuilt from the block stream
    /// (atomic because [`Gemm::future_model`] rebuilds through `&self`).
    rebuilds: AtomicU64,
}

impl<M: ModelMaintainer + Sync> Gemm<M> {
    /// A GEMM instance over `maintainer` with window size `w` and the
    /// given BSS. Off-line models stay in memory and update sequentially;
    /// see [`Gemm::with_shelf`] and [`Gemm::with_parallel_offline`].
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
            shelf: ShelfMode::Memory,
            store: BlockStore::in_memory(),
            par: Parallelism::serial(),
            retire: true,
            starts: Vec::new(),
            current: None,
            latest: None,
            rebuilds: AtomicU64::new(0),
        })
    }

    /// Moves the off-line models to a disk shelf (call before the first
    /// block; switching modes discards any off-line models held so far).
    pub fn with_shelf(mut self, shelf: ShelfMode) -> Result<Self> {
        self.store = match &shelf {
            ShelfMode::Memory => BlockStore::in_memory(),
            ShelfMode::Disk(dir) => {
                BlockStore::spill(dir.clone(), SpillPolicy::Always, false)?
            }
        };
        self.shelf = shelf;
        Ok(self)
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
    /// worker and models are re-shelved in slot order afterwards, so the
    /// maintained models are bit-identical at any thread count.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Keeps retired blocks' data instead of dropping it (for experiments
    /// that re-read history).
    pub fn with_retirement(mut self, retire: bool) -> Self {
        self.retire = retire;
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

    /// Lifetime count of shelved models that had to be rebuilt from the
    /// block stream because their shelf file was missing or corrupt.
    pub fn shelf_rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Start of the current most-recent window.
    pub fn window_start(&self) -> Option<BlockId> {
        self.starts.first().copied()
    }

    /// The model on the current window w.r.t. the BSS — always held in
    /// memory. `None` before the first block.
    pub fn current_model(&self) -> Option<&M::Model> {
        self.current.as_ref()
    }

    /// Loads (a clone of) the prefix model of the future window starting
    /// at `start` — test/diagnostic access to the whole collection. A
    /// shelf entry whose bytes are lost or damaged is rebuilt from the
    /// block stream (the entry itself is left for the next slide to
    /// repair in place).
    pub fn future_model(&self, start: BlockId) -> Result<M::Model>
    where
        M::Model: Clone,
    {
        if !self.starts.contains(&start) {
            return Err(DemonError::UnknownBlock(start.value()));
        }
        if self.starts.first() == Some(&start) {
            return match &self.current {
                Some(m) => Ok(m.clone()),
                None => unreachable!("current model exists while windows do"),
            };
        }
        match self.shelf_get(start) {
            Ok(Some(m)) => Ok(m),
            Ok(None) => Ok(self.rebuild_model(start, self.latest)),
            Err(e) if shelf_loss_is_recoverable(&e) => Ok(self.rebuild_model(start, self.latest)),
            Err(e) => Err(e),
        }
    }

    /// Reads an off-line model through the storage engine with a bounded
    /// retry on transient I/O errors, leaving the entry in place.
    fn shelf_get(&self, start: BlockId) -> Result<Option<M::Model>> {
        let mut attempt = 1;
        loop {
            match self.store.get(start) {
                Ok(opt) => return Ok(opt.map(|p| p.0.clone())),
                Err(e) if shelf_loss_is_transient(&e) && attempt < SHELF_READ_ATTEMPTS => {
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Takes an off-line model out of the shelf store (dropping its slot
    /// file), rebuilding it from the block stream when its shelved bytes
    /// are lost or damaged. `upto` is the last block the shelved state
    /// covered — the replay bound for a rebuild.
    fn take_or_rebuild(&self, start: BlockId, upto: BlockId) -> Result<M::Model> {
        let mut attempt = 1;
        loop {
            match self.store.take(start) {
                Ok(Some(m)) => return Ok(m.0),
                Ok(None) => return Ok(self.rebuild_model(start, Some(upto))),
                Err(e) if shelf_loss_is_transient(&e) && attempt < SHELF_READ_ATTEMPTS => {
                    attempt += 1;
                }
                Err(e) if shelf_loss_is_recoverable(&e) => {
                    // Drop the damaged entry (and its file) so the rebuilt
                    // model re-shelves cleanly.
                    self.store.remove(start);
                    return Ok(self.rebuild_model(start, Some(upto)));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Recomputes a slot's model by replaying the registered block stream
    /// through the maintainer: absorb every block in `start..=upto` whose
    /// BSS bit is set. Valid because retirement only drops blocks below
    /// the oldest maintained window start.
    fn rebuild_model(&self, start: BlockId, upto: Option<BlockId>) -> M::Model {
        let mut model = self.maintainer.fresh();
        if let Some(upto) = upto {
            let mut id = start;
            while id <= upto {
                if self.bit_for(start, id) {
                    self.maintainer.absorb(&mut model, id);
                }
                id = id.next();
            }
        }
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        // A rebuild happens exactly when a shelf read could not be served.
        obs::incr(obs::Counter::ShelfMisses);
        model
    }

    /// Starts of all maintained future windows (ascending; the first is
    /// the current window).
    pub fn slot_starts(&self) -> Vec<BlockId> {
        self.starts.clone()
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
        let rebuilds_before = self.rebuilds.load(Ordering::Relaxed);

        // Slide: drop the outgoing current slot once the window is full.
        // Its model lives in `current`, never in the shelf store, so
        // there is no entry or file to clean up.
        if self.starts.len() == self.w {
            self.starts.remove(0);
            self.current = None;
        }
        // New future window starting at the arriving block.
        self.starts.push(id);
        let mut fresh = Some(self.maintainer.fresh());

        // The new current model must be in memory before its timed
        // update. Its shelved state covers blocks up to the previous
        // arrival — the replay bound if the shelf turns out damaged.
        if self.current.is_none() {
            let front = self.starts[0];
            self.current = Some(if front == id {
                match fresh.take() {
                    Some(m) => m,
                    None => unreachable!("fresh model created this call"),
                }
            } else {
                self.take_or_rebuild(front, BlockId(id.value() - 1))?
            });
        }

        // Time-critical update: the new current model.
        let current_bit = self.bit_for(self.starts[0], id);
        let t0 = Instant::now();
        if current_bit {
            if let Some(model) = self.current.as_mut() {
                self.maintainer.absorb(model, id);
            }
        }
        stats.response_time = t0.elapsed();
        stats.absorbed_into_current = current_bit;

        // Off-line updates of the remaining slots.
        let t1 = Instant::now();
        stats.offline_absorbed = self.update_offline(id, fresh)?;
        stats.offline_time = t1.elapsed();

        // Retire data no maintained window can reach.
        if self.retire && self.starts[0].value() > 1 {
            self.maintainer
                .retire_block(BlockId(self.starts[0].value() - 1));
        }
        stats.models_rebuilt =
            (self.rebuilds.load(Ordering::Relaxed) - rebuilds_before) as usize;
        Ok(stats)
    }

    fn bit_for(&self, slot_start: BlockId, arriving: BlockId) -> bool {
        self.selector
            .selects_arriving(arriving, slot_start, self.w)
    }

    /// Updates every off-line model for arriving block `id`. `fresh` is
    /// the brand-new model of the window starting at `id`, unless the
    /// timed current-slot path already consumed it (w = 1).
    fn update_offline(&mut self, id: BlockId, mut fresh: Option<M::Model>) -> Result<usize> {
        let w = self.w;
        let selector = self.selector.clone();
        // Collect the work: (window start, absorb?).
        let work: Vec<(BlockId, bool)> = self
            .starts
            .iter()
            .skip(1)
            .map(|&s| (s, selector.selects_arriving(id, s, w)))
            .collect();
        let absorbed = work.iter().filter(|&&(_, b)| b).count();
        // Off-line absorbs follow the BSS projected onto each future
        // window (window-independent) or right-shifted (window-relative).
        let op = match &self.selector {
            BlockSelector::WindowIndependent(_) => obs::Counter::GemmProjections,
            BlockSelector::WindowRelative(_) => obs::Counter::GemmShifts,
        };
        obs::add(op, absorbed as u64);

        // Take every off-line model out of the store serially (loads,
        // counters and rebuilds happen outside the parallel region). A
        // damaged shelf entry is rebuilt from the block stream (state as
        // of the previous arrival; this very loop then absorbs the new
        // block where selected).
        let mut loaded: Vec<(BlockId, M::Model, bool)> = Vec::with_capacity(work.len());
        for &(start, bit) in &work {
            let model = if start == id {
                match fresh.take() {
                    Some(m) => m,
                    None => unreachable!("new slot model created once per arrival"),
                }
            } else {
                self.take_or_rebuild(start, BlockId(id.value() - 1))?
            };
            loaded.push((start, model, bit));
        }

        // Each selected model is absorbed by exactly one worker and the
        // models are independent, so the result is bit-identical to the
        // sequential loop at any thread count.
        let maintainer = &self.maintainer;
        par_for_each_mut(self.par, &mut loaded, |_, (_, model, bit)| {
            if *bit {
                maintainer.absorb(model, id);
            }
        });

        // Put the models back in slot order; a disk shelf spills each one
        // to its `slot_<start>.model` file as it is inserted
        // ([`SpillPolicy::Always`]).
        for (start, model, _) in loaded {
            self.store.insert(start, ShelfModel(model));
        }
        Ok(absorbed)
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
        let mut g = gemm_with(4, wr).with_retirement(false);
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
    fn disk_shelf_roundtrips_models() {
        let dir = std::env::temp_dir().join(format!("demon-gemm-test-{}", std::process::id()));
        let maintainer = ItemsetMaintainer::new(16, k(0.05), CounterKind::Ecut);
        let mut g = Gemm::new(maintainer, 3, BlockSelector::all())
            .unwrap()
            .with_shelf(ShelfMode::Disk(dir.clone()))
            .unwrap();
        for id in 1..=5u64 {
            g.add_block(marker_block(id, 4)).unwrap();
        }
        assert_eq!(covered_blocks(g.current_model().unwrap()), vec![3, 4, 5]);
        // Future-window models are loadable from the shelf.
        let f = g.future_model(BlockId(5)).unwrap();
        assert_eq!(covered_blocks(&f), vec![5]);
        // Shelf files exist for the off-line slots only.
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shelf_files_are_framed_with_no_tmp_residue() {
        let dir = std::env::temp_dir().join(format!("demon-gemm-frame-{}", std::process::id()));
        let maintainer = ItemsetMaintainer::new(16, k(0.05), CounterKind::Ecut);
        let mut g = Gemm::new(maintainer, 3, BlockSelector::all())
            .unwrap()
            .with_shelf(ShelfMode::Disk(dir.clone()))
            .unwrap();
        for id in 1..=5u64 {
            g.add_block(marker_block(id, 4)).unwrap();
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            assert!(!name.ends_with(".tmp"), "stray tmp file {name}");
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(&bytes[0..4], b"DMON", "{name} is not framed");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A memory-shelf twin fed the same blocks — the oracle for what a
    /// rebuilt model must look like.
    fn twin(upto: u64) -> Gemm<ItemsetMaintainer> {
        let mut g = gemm_with(3, BlockSelector::all());
        for id in 1..=upto {
            g.add_block(marker_block(id, 4)).unwrap();
        }
        g
    }

    #[test]
    fn corrupt_shelf_model_is_rebuilt_not_fatal() {
        let dir = std::env::temp_dir().join(format!("demon-gemm-corrupt-{}", std::process::id()));
        let maintainer = ItemsetMaintainer::new(16, k(0.05), CounterKind::Ecut);
        let mut g = Gemm::new(maintainer, 3, BlockSelector::all())
            .unwrap()
            .with_shelf(ShelfMode::Disk(dir.clone()))
            .unwrap();
        for id in 1..=5u64 {
            g.add_block(marker_block(id, 4)).unwrap();
        }
        // Flip a payload byte of the shelved slot-4 model.
        let path = dir.join("slot_4.model");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        // Reading it back degrades gracefully into a rebuild…
        let rebuilt = g.future_model(BlockId(4)).unwrap();
        let expected = twin(5).future_model(BlockId(4)).unwrap();
        assert_eq!(rebuilt.frequent(), expected.frequent());
        assert_eq!(g.shelf_rebuilds(), 1);

        // …and GEMM keeps running: block 6 slides the window, so slot 4
        // must be unshelved from the still-corrupt file — rebuilt once
        // more and pinned in memory as the new current model.
        let stats = g.add_block(marker_block(6, 4)).unwrap();
        assert_eq!(stats.models_rebuilt, 1);
        let healed = g.future_model(BlockId(4)).unwrap();
        let expected = twin(6).future_model(BlockId(4)).unwrap();
        assert_eq!(healed.frequent(), expected.frequent());
        assert_eq!(g.shelf_rebuilds(), 2, "in-memory model needs no rebuild");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_shelf_model_is_rebuilt_not_fatal() {
        let dir = std::env::temp_dir().join(format!("demon-gemm-missing-{}", std::process::id()));
        let maintainer = ItemsetMaintainer::new(16, k(0.05), CounterKind::Ecut);
        let mut g = Gemm::new(maintainer, 3, BlockSelector::all())
            .unwrap()
            .with_shelf(ShelfMode::Disk(dir.clone()))
            .unwrap();
        for id in 1..=5u64 {
            g.add_block(marker_block(id, 4)).unwrap();
        }
        std::fs::remove_file(dir.join("slot_4.model")).unwrap();
        // Block 6 slides the window; slot 4 becomes current and must be
        // unshelved — from a file that no longer exists.
        let stats = g.add_block(marker_block(6, 4)).unwrap();
        assert_eq!(stats.models_rebuilt, 1);
        assert_eq!(g.window_start(), Some(BlockId(4)));
        let expected = twin(6);
        assert_eq!(
            g.current_model().unwrap().frequent(),
            expected.current_model().unwrap().frequent()
        );
        std::fs::remove_dir_all(&dir).ok();
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
