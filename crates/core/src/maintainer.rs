//! The [`ModelMaintainer`] abstraction and its four instantiations.
//!
//! GEMM (§3.2) is generic over "any traditional incremental model
//! maintenance algorithm `A_M` for the unrestricted window option". The
//! trait splits responsibilities:
//!
//! * `register_block` — one-time processing when a block arrives (store
//!   the raw data, materialize TID-lists, ECUT+ pair lists, …);
//! * `absorb` — update one *model* with one registered block (this is
//!   `A_M(m, D_j)`); it takes `&self` so GEMM may update the off-line
//!   models of several future windows in parallel;
//! * `retire_block` — drop the stored data of blocks no maintained window
//!   can ever need again;
//! * [`ModelMaintainer::MAINTENANCE`] — how the class keeps a model over
//!   a moving window; [`crate::DemonEngine::new`] picks the engine by it.

use demon_clustering::{BirchParams, CfTree, DbscanParams, PointBlockEntry, WindowedDbscan};
use demon_itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon_store::{BlockEntry, BlockStore, StoreConfig};
use demon_trees::LabeledBlockEntry;
use demon_types::{BlockId, MinSupport, PointBlock, Result, TxBlock};

/// An incremental model maintenance algorithm for the unrestricted window
/// option, as consumed by GEMM.
pub trait ModelMaintainer {
    /// The record type of the blocks this maintainer consumes.
    type Record;
    /// The maintained model. `Clone` for the collection bookkeeping,
    /// `Send + Sync` for GEMM's parallel off-line updates.
    type Model: Clone + Send + Sync;

    /// How this maintainer keeps a model over a moving window.
    const MAINTENANCE: Maintenance<Self>;

    /// A model of the empty dataset.
    fn fresh(&self) -> Self::Model;

    /// One-time processing of an arriving block.
    fn register_block(&mut self, block: demon_types::Block<Self::Record>);

    /// Updates `model` to also cover registered block `id` —
    /// `A_M(model, D_id)`.
    fn absorb(&self, model: &mut Self::Model, id: BlockId);

    /// Releases the stored data of a block that no maintained window
    /// overlaps any more.
    fn retire_block(&mut self, id: BlockId);
}

/// How a [`ModelMaintainer`] keeps a model over the most recent window;
/// [`crate::DemonEngine::new`] picks the engine from it and the BSS.
pub enum Maintenance<M: ModelMaintainer + ?Sized> {
    /// `absorb` only (BORDERS, BIRCH+): GEMM lifts it (§3.2.3).
    Incremental,
    /// `absorb` and its inverse (incremental DBSCAN, §3.2.4).
    Decremental {
        /// Updates a model to no longer cover a block it absorbed; called
        /// while the block is still registered.
        shed: fn(&M, &mut M::Model, BlockId),
    },
    /// `absorb` is a fit over what the model covers (decision trees).
    Refit {
        /// The model of exactly the given registered blocks, ascending.
        fit: fn(&M, Vec<BlockId>) -> M::Model,
    },
}

/// The frequent-itemset maintainer: BORDERS with a pluggable counter,
/// over an internally owned [`TxStore`].
pub struct ItemsetMaintainer {
    store: TxStore,
    minsup: MinSupport,
    counter: CounterKind,
}

impl ItemsetMaintainer {
    /// A maintainer over an `n_items` universe, mining at `minsup`, with
    /// the given update-phase counter. Blocks stay resident in memory;
    /// see [`ItemsetMaintainer::with_store_config`] for a bounded store.
    pub fn new(n_items: u32, minsup: MinSupport, counter: CounterKind) -> Self {
        ItemsetMaintainer {
            store: TxStore::new(n_items),
            minsup,
            counter,
        }
    }

    /// [`ItemsetMaintainer::new`] over a storage engine built from
    /// `config` — blocks spill to disk under a memory budget.
    pub fn with_store_config(
        n_items: u32,
        minsup: MinSupport,
        counter: CounterKind,
        config: &StoreConfig,
    ) -> Result<Self> {
        Ok(ItemsetMaintainer {
            store: TxStore::with_config(n_items, config)?,
            minsup,
            counter,
        })
    }

    /// The underlying store (counting experiments address it directly).
    pub fn store(&self) -> &TxStore {
        &self.store
    }

    /// The configured counter.
    pub fn counter(&self) -> CounterKind {
        self.counter
    }

    /// The mining threshold.
    pub fn min_support(&self) -> MinSupport {
        self.minsup
    }
}

impl ModelMaintainer for ItemsetMaintainer {
    type Record = demon_types::Transaction;
    type Model = FrequentItemsets;

    const MAINTENANCE: Maintenance<Self> = Maintenance::Incremental;

    fn fresh(&self) -> FrequentItemsets {
        FrequentItemsets::empty(self.minsup, self.store.n_items())
    }

    fn register_block(&mut self, block: TxBlock) {
        let id = block.id();
        self.store.add_block(block);
        if self.counter == CounterKind::EcutPlus {
            // ECUT+ reads 2-itemset TID-lists: materialize those of the
            // block-locally frequent pairs, unbounded (the Figure 2
            // setting). The paper picks by overall support of the
            // maintained model; block-local support is the register-time
            // proxy. The pin on the block must end before
            // `materialize_pairs` mutates the store.
            let pairs = {
                let blk = self.store.block(id).expect("block just added");
                FrequentItemsets::mine_blocks(&[&blk], self.store.n_items(), self.minsup)
                    .frequent_pairs_by_support()
            };
            self.store.materialize_pairs(id, &pairs, None);
        }
    }

    fn absorb(&self, model: &mut FrequentItemsets, id: BlockId) {
        model
            .absorb_block(&self.store, id, self.counter)
            .expect("absorb of registered block");
    }

    fn retire_block(&mut self, id: BlockId) {
        self.store.remove_block(id);
    }
}

/// The clustering maintainer: BIRCH+ phase-1 trees as models, over
/// point blocks held in the block storage engine.
pub struct ClusterMaintainer {
    params: BirchParams,
    blocks: BlockStore<PointBlockEntry>,
}

impl ClusterMaintainer {
    /// A maintainer with the given BIRCH parameters; blocks stay
    /// resident in memory.
    pub fn new(params: BirchParams) -> Self {
        ClusterMaintainer {
            params,
            blocks: BlockStore::in_memory(),
        }
    }

    /// [`ClusterMaintainer::new`] over a storage engine built from
    /// `config` — blocks spill to disk under a memory budget.
    pub fn with_store_config(params: BirchParams, config: &StoreConfig) -> Result<Self> {
        Ok(ClusterMaintainer {
            params,
            blocks: config.build("points")?,
        })
    }

    /// The BIRCH parameters.
    pub fn params(&self) -> &BirchParams {
        &self.params
    }

    /// The block storage engine holding the registered point blocks.
    pub fn store(&self) -> &BlockStore<PointBlockEntry> {
        &self.blocks
    }
}

impl ModelMaintainer for ClusterMaintainer {
    type Record = demon_types::Point;
    type Model = CfTree;

    const MAINTENANCE: Maintenance<Self> = Maintenance::Incremental;

    fn fresh(&self) -> CfTree {
        CfTree::new(self.params.tree)
    }

    fn register_block(&mut self, block: PointBlock) {
        self.blocks.insert(block.id(), BlockEntry(block));
    }

    fn absorb(&self, model: &mut CfTree, id: BlockId) {
        let entry = self
            .blocks
            .get(id)
            .expect("registered block readable")
            .expect("absorb of registered block");
        for p in entry.0.records() {
            model.insert_point(p);
        }
    }

    fn retire_block(&mut self, id: BlockId) {
        self.blocks.remove(id);
    }
}

/// The density-model maintainer — incremental DBSCAN as a first-class
/// model class, and the only one whose window maintenance is
/// **deletion-based**.
///
/// `absorb` inserts the block's points into the maintained
/// [`WindowedDbscan`] through the incremental insertion path (core
/// promotion, cluster creation/absorption/merge); its
/// [`Maintenance::Decremental`] `shed` deletes them again through the
/// incremental removal path (core demotion, cluster shrink/split) — the
/// direction §3.2.4 calls out as the expensive one. Registered blocks
/// live in the block storage engine so snapshots and replays see the
/// raw points.
pub struct DbscanMaintainer {
    params: DbscanParams,
    blocks: BlockStore<PointBlockEntry>,
}

impl DbscanMaintainer {
    /// A maintainer with the given DBSCAN parameters; blocks stay
    /// resident in memory.
    pub fn new(params: DbscanParams) -> Self {
        DbscanMaintainer {
            params,
            blocks: BlockStore::in_memory(),
        }
    }

    /// [`DbscanMaintainer::new`] over a storage engine built from
    /// `config` — blocks spill to disk under a memory budget.
    pub fn with_store_config(params: DbscanParams, config: &StoreConfig) -> Result<Self> {
        Ok(DbscanMaintainer {
            params,
            blocks: config.build("density")?,
        })
    }

    /// The DBSCAN parameters.
    pub fn params(&self) -> DbscanParams {
        self.params
    }

    /// The block storage engine holding the registered point blocks.
    pub fn store(&self) -> &BlockStore<PointBlockEntry> {
        &self.blocks
    }
}

impl ModelMaintainer for DbscanMaintainer {
    type Record = demon_types::Point;
    type Model = WindowedDbscan;

    const MAINTENANCE: Maintenance<Self> = Maintenance::Decremental {
        shed: |_, model, id| {
            model.shed_block(id);
        },
    };

    fn fresh(&self) -> WindowedDbscan {
        WindowedDbscan::new(self.params)
    }

    fn register_block(&mut self, block: PointBlock) {
        self.blocks.insert(block.id(), BlockEntry(block));
    }

    fn absorb(&self, model: &mut WindowedDbscan, id: BlockId) {
        let entry = self
            .blocks
            .get(id)
            .expect("registered block readable")
            .expect("absorb of registered block");
        model.absorb_block(id, entry.0.records());
    }

    fn retire_block(&mut self, id: BlockId) {
        self.blocks.remove(id);
    }
}

/// The decision-tree maintainer — the third model class.
///
/// Decision trees are not maintainable under insertion the way CF-trees
/// or borders are (the authors' BOAT line of work addresses that and is
/// explicitly out of the paper's scope), so a tree is a
/// [`Maintenance::Refit`] class: `absorb` adds the block to the model's
/// `covers` and fits again, and a most-recent window is one fit per
/// block over the blocks the BSS selects in it, not GEMM's w refits.
/// The maintainer stores the labeled blocks.
pub struct TreeMaintainer {
    params: demon_trees::TreeParams,
    dim: usize,
    blocks: BlockStore<LabeledBlockEntry>,
}

/// The maintained tree model: the fitted tree plus the ids of the
/// blocks it was fitted over.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct WindowedTree {
    /// The fitted classifier; `None` while the model covers no block.
    pub tree: Option<demon_trees::DecisionTree>,
    /// Blocks covered, ascending.
    pub covers: Vec<BlockId>,
}

impl TreeMaintainer {
    /// A maintainer fitting `dim`-dimensional labeled points; blocks
    /// stay resident in memory.
    pub fn new(dim: usize, params: demon_trees::TreeParams) -> Self {
        TreeMaintainer {
            params,
            dim,
            blocks: BlockStore::in_memory(),
        }
    }

    /// [`TreeMaintainer::new`] over a storage engine built from
    /// `config` — blocks spill to disk under a memory budget.
    pub fn with_store_config(
        dim: usize,
        params: demon_trees::TreeParams,
        config: &StoreConfig,
    ) -> Result<Self> {
        Ok(TreeMaintainer {
            params,
            dim,
            blocks: config.build("labeled")?,
        })
    }

    /// The dimensionality of the labeled points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The block storage engine holding the registered labeled blocks.
    pub fn store(&self) -> &BlockStore<LabeledBlockEntry> {
        &self.blocks
    }

    /// The tree fitted over the records of the registered blocks
    /// `covers`, concatenated in the given (ascending) order.
    fn fit(&self, covers: Vec<BlockId>) -> WindowedTree {
        let records: Vec<demon_trees::LabeledPoint> = covers
            .iter()
            .filter_map(|&b| self.blocks.get(b).expect("registered block readable"))
            .flat_map(|entry| entry.0.records().to_vec())
            .collect();
        let tree = (!covers.is_empty())
            .then(|| demon_trees::DecisionTree::fit(&records, self.dim, self.params));
        WindowedTree { tree, covers }
    }
}

impl ModelMaintainer for TreeMaintainer {
    type Record = demon_trees::LabeledPoint;
    type Model = WindowedTree;

    const MAINTENANCE: Maintenance<Self> = Maintenance::Refit { fit: Self::fit };

    fn fresh(&self) -> WindowedTree {
        WindowedTree {
            tree: None,
            covers: Vec::new(),
        }
    }

    fn register_block(&mut self, block: demon_types::Block<demon_trees::LabeledPoint>) {
        self.blocks.insert(block.id(), BlockEntry(block));
    }

    fn absorb(&self, model: &mut WindowedTree, id: BlockId) {
        let mut covers = std::mem::take(&mut model.covers);
        covers.insert(covers.partition_point(|&b| b < id), id);
        *model = self.fit(covers);
    }

    fn retire_block(&mut self, id: BlockId) {
        self.blocks.remove(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::{Item, Tid, Transaction};

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

    #[test]
    fn ecut_plus_maintainer_materializes_block_local_pairs() {
        let mut m =
            ItemsetMaintainer::new(3, MinSupport::new(0.4).unwrap(), CounterKind::EcutPlus);
        m.register_block(tx_block(1, &[&[0, 1], &[0, 1], &[0, 1], &[2]]));
        let pair_space = m.store().pair_space(&[BlockId(1)]);
        assert!(pair_space > 0, "ECUT+ should have pair lists");
        // And a plain-ECUT maintainer should not.
        let mut m2 = ItemsetMaintainer::new(3, MinSupport::new(0.4).unwrap(), CounterKind::Ecut);
        m2.register_block(tx_block(1, &[&[0, 1], &[0, 1], &[0, 1], &[2]]));
        assert_eq!(m2.store().pair_space(&[BlockId(1)]), 0);
    }

    #[test]
    fn fresh_models_are_independent() {
        let m = ItemsetMaintainer::new(2, MinSupport::new(0.5).unwrap(), CounterKind::PtScan);
        let a = m.fresh();
        let b = m.fresh();
        assert_eq!(a.n_transactions(), 0);
        assert_eq!(b.n_transactions(), 0);
        assert_eq!(a.border().len(), 2);
    }
}
