//! The [`ModelMaintainer`] abstraction and its two instantiations.
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
//!   can ever need again.

use demon_clustering::{
    BirchModel, BirchParams, CfTree, DbscanParams, PointBlockEntry, WindowedDbscan,
};
use demon_itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon_store::{BlockEntry, BlockStore, StoreConfig};
use demon_trees::LabeledBlockEntry;
use demon_types::{BlockId, MinSupport, PointBlock, Result, TxBlock};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// An incremental model maintenance algorithm for the unrestricted window
/// option, as consumed by GEMM.
pub trait ModelMaintainer {
    /// The record type of the blocks this maintainer consumes.
    type Record;
    /// The maintained model. `Clone` for the collection bookkeeping,
    /// serde for GEMM's on-disk model shelf, `Send + Sync` for parallel
    /// off-line updates and the shelf's storage-engine entries.
    type Model: Clone + Send + Sync + Serialize + DeserializeOwned;

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

/// A maintainer whose models can also **unlearn** a block: the inverse of
/// [`ModelMaintainer::absorb`].
///
/// §3.2.4 contrasts GEMM's per-window future models with direct
/// add/delete maintenance à la incremental DBSCAN. Model classes that do
/// support deletion implement this trait, and the engine then maintains a
/// most-recent window with **one** model — absorb the arriving block,
/// shed the departing one — instead of one off-line model per overlapping
/// future window.
pub trait DecrementalMaintainer: ModelMaintainer {
    /// Updates `model` to no longer cover block `id` — the deletion-based
    /// counterpart of `absorb`. Called while the block is still
    /// registered; the engine retires it afterwards.
    fn shed(&self, model: &mut Self::Model, id: BlockId);
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

    /// Mutable access to the store.
    pub fn store_mut(&mut self) -> &mut TxStore {
        &mut self.store
    }

    /// The configured counter.
    pub fn counter(&self) -> CounterKind {
        self.counter
    }

    /// The mining threshold.
    pub fn min_support(&self) -> MinSupport {
        self.minsup
    }

    /// Explicitly materializes pair lists for a registered block — used
    /// when the caller has a better 2-itemset hint than the block-local
    /// one (e.g. the current model's `frequent_pairs_by_support`).
    pub fn materialize_pairs_for(
        &mut self,
        id: BlockId,
        pairs: &[(demon_types::Item, demon_types::Item)],
        budget: Option<u64>,
    ) -> demon_itemsets::store::MaterializeStats {
        self.store.materialize_pairs(id, pairs, budget)
    }
}

impl ModelMaintainer for ItemsetMaintainer {
    type Record = demon_types::Transaction;
    type Model = FrequentItemsets;

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
            // proxy (a caller with a better hint refreshes it through
            // `materialize_pairs_for`). The pin on the block must end
            // before `materialize_pairs` mutates the store.
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

    /// Runs phase 2 on a maintained tree, yielding the cluster model.
    pub fn cluster_model(&self, tree: &CfTree) -> BirchModel {
        demon_clustering::phase2_model(tree, &self.params)
    }
}

impl ModelMaintainer for ClusterMaintainer {
    type Record = demon_types::Point;
    type Model = CfTree;

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
/// promotion, cluster creation/absorption/merge); [`DecrementalMaintainer::shed`]
/// deletes them again through the incremental removal path (core
/// demotion, cluster shrink/split) — the direction §3.2.4 calls out as
/// the expensive one. Registered blocks live in the block storage engine
/// so snapshots and replays see the raw points.
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

impl DecrementalMaintainer for DbscanMaintainer {
    fn shed(&self, model: &mut WindowedDbscan, id: BlockId) {
        model.shed_block(id);
    }
}

/// The decision-tree maintainer — the third model class, demonstrating
/// that GEMM "can be instantiated for any class of data mining models".
///
/// Decision trees are not maintainable under insertion the way CF-trees
/// or borders are (the authors' BOAT line of work addresses that and is
/// explicitly out of the paper's scope), so this maintainer *refits* over
/// the model's covered blocks on each absorb. The model therefore tracks
/// which blocks it covers; the maintainer stores the labeled blocks.
/// GEMM semantics — one model per overlapping future window, correct
/// windowed models under any BSS — hold regardless of how `A_M`
/// internally achieves its update.
pub struct TreeMaintainer {
    params: demon_trees::TreeParams,
    dim: usize,
    blocks: BlockStore<LabeledBlockEntry>,
}

/// The tree model GEMM maintains: the fitted tree plus the ids of the
/// blocks it was fitted over.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct WindowedTree {
    /// The fitted classifier; `None` until the first block is absorbed.
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
}

impl ModelMaintainer for TreeMaintainer {
    type Record = demon_trees::LabeledPoint;
    type Model = WindowedTree;

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
        let pos = model.covers.partition_point(|&b| b < id);
        model.covers.insert(pos, id);
        let records: Vec<demon_trees::LabeledPoint> = model
            .covers
            .iter()
            .filter_map(|&b| self.blocks.get(b).expect("registered block readable"))
            .flat_map(|entry| entry.0.records().to_vec())
            .collect();
        model.tree = Some(demon_trees::DecisionTree::fit(
            &records,
            self.dim,
            self.params,
        ));
    }

    fn retire_block(&mut self, id: BlockId) {
        self.blocks.remove(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::{Item, Point, Tid, Transaction};

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
    fn itemset_maintainer_tracks_frequent_sets() {
        let mut m = ItemsetMaintainer::new(3, MinSupport::new(0.4).unwrap(), CounterKind::Ecut);
        m.register_block(tx_block(1, &[&[0, 1], &[0, 1], &[2]]));
        let mut model = m.fresh();
        m.absorb(&mut model, BlockId(1));
        assert!(model.is_frequent(&demon_types::ItemSet::from_ids(&[0, 1])));
        m.register_block(tx_block(2, &[&[2], &[2], &[2], &[2]]));
        m.absorb(&mut model, BlockId(2));
        assert!(model.is_frequent(&demon_types::ItemSet::from_ids(&[2])));
        model.check_invariants(m.store());
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
    fn retire_drops_block_data() {
        let mut m = ItemsetMaintainer::new(2, MinSupport::new(0.5).unwrap(), CounterKind::Ecut);
        m.register_block(tx_block(1, &[&[0]]));
        assert!(m.store().block(BlockId(1)).is_some());
        m.retire_block(BlockId(1));
        assert!(m.store().block(BlockId(1)).is_none());
    }

    #[test]
    fn cluster_maintainer_builds_trees_per_model() {
        let params = BirchParams::new(2, 2);
        let mut m = ClusterMaintainer::new(params);
        let b1 = PointBlock::new(
            BlockId(1),
            (0..50)
                .map(|i| Point::new(vec![i as f64 * 0.01, 0.0]))
                .collect(),
        );
        let b2 = PointBlock::new(
            BlockId(2),
            (0..50)
                .map(|i| Point::new(vec![50.0 + i as f64 * 0.01, 0.0]))
                .collect(),
        );
        m.register_block(b1);
        m.register_block(b2);
        let mut tree = m.fresh();
        m.absorb(&mut tree, BlockId(1));
        assert_eq!(tree.n_points(), 50);
        m.absorb(&mut tree, BlockId(2));
        assert_eq!(tree.n_points(), 100);
        let model = m.cluster_model(&tree);
        assert_eq!(model.k(), 2);
        assert_eq!(model.n_points(), 100);
        m.retire_block(BlockId(1));
        // A second independent model only sees the remaining block.
        let mut tree2 = m.fresh();
        m.absorb(&mut tree2, BlockId(2));
        assert_eq!(tree2.n_points(), 50);
    }

    #[test]
    fn dbscan_maintainer_absorbs_and_sheds_blocks() {
        let mut m = DbscanMaintainer::new(DbscanParams::new(2, 1.0, 3));
        let blob = |id: u64, cx: f64| {
            PointBlock::new(
                BlockId(id),
                [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3)]
                    .iter()
                    .map(|(dx, dy)| Point::new(vec![cx + dx, *dy]))
                    .collect(),
            )
        };
        m.register_block(blob(1, 0.0));
        m.register_block(blob(2, 10.0));
        let mut model = m.fresh();
        m.absorb(&mut model, BlockId(1));
        assert_eq!(model.structure().n_clusters(), 1);
        m.absorb(&mut model, BlockId(2));
        assert_eq!(model.structure().n_clusters(), 2);
        assert_eq!(model.covered_blocks(), vec![BlockId(1), BlockId(2)]);
        // Deletion-based window maintenance: shed undoes absorb.
        m.shed(&mut model, BlockId(1));
        m.retire_block(BlockId(1));
        assert_eq!(model.structure().n_clusters(), 1);
        assert_eq!(model.covered_blocks(), vec![BlockId(2)]);
        model.structure().check_against_batch();
    }

    #[test]
    fn tree_maintainer_refits_over_covered_blocks() {
        use demon_trees::{LabeledPoint, TreeParams};
        let mut m = TreeMaintainer::new(1, TreeParams::new(2));
        // Block 1: class 0 on the left; block 2: class 1 on the right.
        let mk = |id: u64, x0: f64, label: u32| {
            demon_types::Block::new(
                BlockId(id),
                (0..40)
                    .map(|i| LabeledPoint::new(vec![x0 + i as f64 * 0.01], label))
                    .collect(),
            )
        };
        m.register_block(mk(1, -5.0, 0));
        m.register_block(mk(2, 5.0, 1));
        let mut model = m.fresh();
        assert!(model.tree.is_none());
        m.absorb(&mut model, BlockId(1));
        m.absorb(&mut model, BlockId(2));
        assert_eq!(model.covers, vec![BlockId(1), BlockId(2)]);
        let tree = model.tree.as_ref().unwrap();
        assert_eq!(tree.predict(&Point::new(vec![-4.0])), 0);
        assert_eq!(tree.predict(&Point::new(vec![6.0])), 1);
    }

    #[test]
    fn tree_maintainer_through_gemm_window() {
        use crate::bss::BlockSelector;
        use crate::gemm::Gemm;
        use demon_trees::{LabeledPoint, TreeParams};
        let maintainer = TreeMaintainer::new(1, TreeParams::new(2));
        let mut gemm = Gemm::new(maintainer, 2, BlockSelector::all()).unwrap();
        // Blocks 1-2 teach "x<0 → class 0"; block 3 flips the labels.
        let mk = |id: u64, flip: bool| {
            demon_types::Block::new(
                BlockId(id),
                (0..60)
                    .map(|i| {
                        let left = i % 2 == 0;
                        let x = if left { -3.0 } else { 3.0 } + (i as f64) * 0.01;
                        LabeledPoint::new(vec![x], u32::from(left == flip))
                    })
                    .collect(),
            )
        };
        gemm.add_block(mk(1, false)).unwrap();
        gemm.add_block(mk(2, false)).unwrap();
        let t = gemm.current_model().unwrap().tree.clone().unwrap();
        assert_eq!(t.predict(&Point::new(vec![-3.0])), 0);
        // Two flipped blocks slide the old concept out of the window.
        gemm.add_block(mk(3, true)).unwrap();
        gemm.add_block(mk(4, true)).unwrap();
        let t = gemm.current_model().unwrap().tree.clone().unwrap();
        assert_eq!(t.predict(&Point::new(vec![-3.0])), 1, "concept drift tracked");
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
