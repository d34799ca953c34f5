//! The binary block-similarity predicate of Definition 4.1, with model
//! caching.
//!
//! "In practice this similarity function is used with a binary range"
//! (§4): two blocks are similar when the deviation between them is
//! statistically insignificant. Every model class plugs into one cache,
//! [`CachedSimilarity`], by saying how a block's model is fitted and how
//! a pair of fitted blocks is judged: a block is fitted exactly once no
//! matter how many pairs it participates in, and its model is dropped
//! when the miner retires the block. The itemset class can judge
//! significance either by a fixed deviation threshold (fast; the default
//! for the large trace experiments) or by the full bootstrap; the point
//! classes threshold their deviation.

use crate::deviation::{
    cluster_deviation, dbscan_deviation, itemset_deviation, tree_deviation, DeviationResult,
};
use crate::significance::bootstrap_significance;
use demon_clustering::{Birch, BirchModel, BirchParams, DbscanParams, IncrementalDbscan};
use demon_itemsets::FrequentItemsets;
use demon_trees::{DecisionTree, LabeledPoint, TreeParams};
use demon_types::parallel::{self, par_map};
use demon_types::{Block, BlockId, MinSupport, Point, PointBlock, Transaction, TxBlock};
use std::collections::HashMap;

/// How significance is judged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimilarityConfig {
    /// Similar iff `δ < alpha` — the deviation itself is used as the
    /// significance proxy (cheap, deterministic; Definition 4.1's
    /// `δ_M(D₁,D₂) < α` reading).
    Threshold {
        /// Similarity level α in `(0, 1)`.
        alpha: f64,
    },
    /// Similar iff the bootstrap significance stays below `max_significance`.
    Bootstrap {
        /// Resamples per pair.
        n_resamples: usize,
        /// Blocks are similar when the fraction of null resamples below
        /// the observed deviation is at most this.
        max_significance: f64,
        /// RNG seed.
        seed: u64,
    },
}

/// A pluggable pairwise block-similarity oracle over blocks of records
/// of type `R` (transactions by default; points for cluster models).
pub trait SimilarityOracle<R = Transaction> {
    /// Judges a pair, returning `(is_similar, deviation)`.
    fn similar(&mut self, a: &Block<R>, b: &Block<R>) -> (bool, f64);

    /// Judges `new` against every block of `earlier`, returning the
    /// verdicts in `earlier` order — the hot loop of the compact-sequence
    /// miner's `add_block` (one call per arriving block, one pair per
    /// live block).
    ///
    /// The default evaluates pairs sequentially via
    /// [`SimilarityOracle::similar`]; implementations may parallelize as
    /// long as the returned vector is bit-identical to the sequential
    /// one.
    fn similar_to_many(&mut self, earlier: &[Block<R>], new: &Block<R>) -> Vec<(bool, f64)> {
        earlier.iter().map(|e| self.similar(e, new)).collect()
    }

    /// Block `id` has left the pattern window and will not be asked
    /// about again: drop whatever is cached for it. The default keeps
    /// nothing, so does nothing.
    fn retire(&mut self, _id: BlockId) {}
}

type Fit<R, M> = Box<dyn Fn(&Block<R>) -> M + Send + Sync>;
type Judge<R, M> = Box<dyn Fn(&Block<R>, &M, &Block<R>, &M) -> (bool, f64) + Send + Sync>;

/// The one per-block model cache behind every class's oracle: a model
/// class is a way to fit one block (`M` from a `Block<R>`) and a way to
/// judge one pair of fitted blocks.
pub struct CachedSimilarity<R, M> {
    fit: Fit<R, M>,
    judge: Judge<R, M>,
    models: HashMap<BlockId, M>,
}

impl<R, M> CachedSimilarity<R, M> {
    fn over(
        fit: impl Fn(&Block<R>) -> M + Send + Sync + 'static,
        judge: impl Fn(&Block<R>, &M, &Block<R>, &M) -> (bool, f64) + Send + Sync + 'static,
    ) -> Self {
        CachedSimilarity {
            fit: Box::new(fit),
            judge: Box::new(judge),
            models: HashMap::new(),
        }
    }

    /// The cached model of a block, fitting it on first use.
    pub fn model(&mut self, block: &Block<R>) -> &M {
        self.models
            .entry(block.id())
            .or_insert_with(|| (self.fit)(block))
    }

    /// Number of models currently cached.
    pub fn cached_models(&self) -> usize {
        self.models.len()
    }
}

impl<R: Sync, M: Send + Sync> SimilarityOracle<R> for CachedSimilarity<R, M> {
    fn similar(&mut self, a: &Block<R>, b: &Block<R>) -> (bool, f64) {
        // Ensure both models are cached, then read them back immutably.
        self.model(a);
        self.model(b);
        (self.judge)(a, &self.models[&a.id()], b, &self.models[&b.id()])
    }

    /// Parallel batch evaluation: uncached models (including `new`'s) are
    /// fitted concurrently and cached in block order, then the pairs are
    /// judged concurrently with [`par_map`] at the process-wide default
    /// [`parallel::global`]. Order-preserving sharding keeps the verdicts
    /// bit-identical to the sequential loop at any thread count; under
    /// the bootstrap config each pair's resamples are seeded from the
    /// pair ids, so they too are layout-independent.
    fn similar_to_many(&mut self, earlier: &[Block<R>], new: &Block<R>) -> Vec<(bool, f64)> {
        let par = parallel::global();
        let mut to_fit: Vec<&Block<R>> = Vec::new();
        for b in earlier.iter().chain(std::iter::once(new)) {
            if !self.models.contains_key(&b.id()) && to_fit.iter().all(|m| m.id() != b.id()) {
                to_fit.push(b);
            }
        }
        let fitted = par_map(par, &to_fit, |b| (self.fit)(b));
        for (b, m) in to_fit.iter().zip(fitted) {
            self.models.insert(b.id(), m);
        }

        let (judge, models) = (&self.judge, &self.models);
        let mb = &models[&new.id()];
        par_map(par, earlier, |a| judge(a, &models[&a.id()], new, mb))
    }

    fn retire(&mut self, id: BlockId) {
        self.models.remove(&id);
    }
}

/// Definition 4.1's `δ < alpha` reading of one class's deviation.
fn threshold<R, M>(
    alpha: f64,
    deviation: fn(&Block<R>, &M, &Block<R>, &M) -> DeviationResult,
) -> impl Fn(&Block<R>, &M, &Block<R>, &M) -> (bool, f64) + Send + Sync {
    move |a, ma, b, mb| {
        let d = deviation(a, ma, b, mb).deviation;
        (d < alpha, d)
    }
}

/// The frequent-itemset instantiation of the oracle: each block is mined
/// once with Apriori.
pub type ItemsetSimilarity = CachedSimilarity<Transaction, FrequentItemsets>;

impl ItemsetSimilarity {
    /// A new oracle over an `n_items` universe at threshold `minsup`.
    pub fn new(n_items: u32, minsup: MinSupport, config: SimilarityConfig) -> Self {
        let fit = move |b: &TxBlock| FrequentItemsets::mine_blocks(&[b], n_items, minsup);
        match config {
            SimilarityConfig::Threshold { alpha } => {
                Self::over(fit, threshold(alpha, itemset_deviation))
            }
            SimilarityConfig::Bootstrap {
                n_resamples,
                max_significance,
                seed,
            } => Self::over(fit, move |a, _, b, _| {
                // Derive a pair-specific sub-seed for reproducibility.
                let pair_seed =
                    seed ^ (a.id().value().wrapping_mul(0x9E3779B97F4A7C15)) ^ b.id().value();
                let (d, sig) =
                    bootstrap_significance(a, b, n_items, minsup, n_resamples, pair_seed);
                (sig <= max_significance, d)
            }),
        }
    }
}

/// The cluster-model instantiation of the oracle: each block is clustered
/// once with BIRCH (model cached), and similarity is a threshold on the
/// cluster deviation.
pub type ClusterSimilarity = CachedSimilarity<Point, BirchModel>;

impl ClusterSimilarity {
    /// An oracle clustering blocks with `params`, similar iff `δ < alpha`.
    pub fn new(params: BirchParams, alpha: f64) -> Self {
        Self::over(
            move |b| Birch::new(params).cluster_points(b.records()).0,
            threshold(alpha, cluster_deviation),
        )
    }
}

/// The density-model instantiation of the oracle: each block is clustered
/// once with (insert-only) incremental DBSCAN, and similarity is a
/// threshold on the core-reachability deviation of
/// [`crate::deviation::dbscan_deviation`] — sensitive to cluster *shape*,
/// not just centroid mass.
pub type DbscanSimilarity = CachedSimilarity<Point, IncrementalDbscan>;

impl DbscanSimilarity {
    /// An oracle clustering blocks with `params`, similar iff `δ < alpha`.
    pub fn new(params: DbscanParams, alpha: f64) -> Self {
        let fit = move |b: &PointBlock| {
            let mut m = IncrementalDbscan::with_params(params);
            for p in b.records() {
                m.insert(p.clone());
            }
            m
        };
        Self::over(fit, threshold(alpha, dbscan_deviation))
    }
}

/// The decision-tree instantiation of the oracle: each labeled block is
/// fitted once (model cached); similarity thresholds the class-aware tree
/// deviation. Completes the three FOCUS model classes of §4 as usable
/// similarity oracles.
pub type TreeSimilarity = CachedSimilarity<LabeledPoint, DecisionTree>;

impl TreeSimilarity {
    /// An oracle fitting `dim`-dimensional labeled blocks with `params`,
    /// similar iff `δ < alpha`.
    pub fn new(dim: usize, params: TreeParams, alpha: f64) -> Self {
        Self::over(
            move |b| DecisionTree::fit(b.records(), dim, params),
            threshold(alpha, tree_deviation),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::{Item, Tid, Transaction};

    fn block(id: u64, txs: &[&[u32]]) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            txs.iter()
                .enumerate()
                .map(|(i, items)| {
                    Transaction::new(
                        Tid(id * 10_000 + i as u64),
                        items.iter().copied().map(Item).collect(),
                    )
                })
                .collect(),
        )
    }

    fn k(v: f64) -> MinSupport {
        MinSupport::new(v).unwrap()
    }

    #[test]
    fn threshold_oracle_separates_blocks() {
        let mut oracle =
            ItemsetSimilarity::new(8, k(0.2), SimilarityConfig::Threshold { alpha: 0.3 });
        let a = block(1, &[&[0, 1], &[0, 1], &[2]]);
        let twin = block(2, &[&[0, 1], &[2], &[0, 1]]);
        let alien = block(3, &[&[5, 6], &[5, 6], &[7]]);
        let (sim, d) = oracle.similar(&a, &twin);
        assert!(sim, "twin blocks should be similar (δ={d})");
        let (sim, d) = oracle.similar(&a, &alien);
        assert!(!sim, "alien blocks should differ (δ={d})");
    }

    #[test]
    fn models_are_cached_once_per_block() {
        let mut oracle =
            ItemsetSimilarity::new(8, k(0.2), SimilarityConfig::Threshold { alpha: 0.3 });
        let a = block(1, &[&[0]]);
        let b = block(2, &[&[1]]);
        let c = block(3, &[&[0]]);
        oracle.similar(&a, &b);
        oracle.similar(&a, &c);
        oracle.similar(&b, &c);
        assert_eq!(oracle.cached_models(), 3);
        oracle.retire(BlockId(2));
        assert_eq!(oracle.cached_models(), 2);
    }

    #[test]
    fn bootstrap_oracle_judges_same_process_similar() {
        let mut oracle = ItemsetSimilarity::new(
            4,
            k(0.1),
            SimilarityConfig::Bootstrap {
                n_resamples: 20,
                max_significance: 0.95,
                seed: 5,
            },
        );
        let mk = |id: u64| {
            let txs: Vec<Vec<u32>> = (0..30)
                .map(|i| if i % 2 == 0 { vec![0, 1] } else { vec![2] })
                .collect();
            let slices: Vec<&[u32]> = txs.iter().map(|v| v.as_slice()).collect();
            block(id, &slices)
        };
        let (sim, _) = oracle.similar(&mk(1), &mk(2));
        assert!(sim);
    }

    #[test]
    fn cluster_oracle_groups_same_process_point_blocks() {
        use demon_clustering::BirchParams;
        use demon_types::{Point, PointBlock};
        use rand::prelude::*;
        let mk = |id: u64, center: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            PointBlock::new(
                BlockId(id),
                (0..150)
                    .map(|_| {
                        Point::new(vec![
                            center + rng.gen_range(-1.0..1.0),
                            rng.gen_range(-1.0..1.0),
                        ])
                    })
                    .collect(),
            )
        };
        let mut params = BirchParams::new(2, 2);
        params.tree.threshold2 = 1.0;
        let mut oracle = ClusterSimilarity::new(params, 0.4);
        let a = mk(1, 0.0, 1);
        let twin = mk(2, 0.0, 2);
        let far = mk(3, 50.0, 3);
        let (sim, d) = oracle.similar(&a, &twin);
        assert!(sim, "same-process point blocks should be similar (δ={d})");
        let (sim, d) = oracle.similar(&a, &far);
        assert!(!sim, "shifted point blocks should differ (δ={d})");
        assert_eq!(oracle.cached_models(), 3);
    }

    #[test]
    fn dbscan_oracle_separates_shape_changes() {
        use demon_clustering::DbscanParams;
        use demon_types::{Point, PointBlock};
        // A ring and a filled blob with the same centroid: only a
        // shape-aware oracle tells them apart.
        let ring = |id: u64, phase: f64| {
            PointBlock::new(
                BlockId(id),
                (0..48)
                    .map(|i| {
                        let t = (i as f64 + phase) / 48.0 * std::f64::consts::TAU;
                        Point::new(vec![5.0 * t.cos(), 5.0 * t.sin()])
                    })
                    .collect(),
            )
        };
        let blob = PointBlock::new(
            BlockId(3),
            (0..49)
                .map(|i| {
                    Point::new(vec![
                        (i % 7) as f64 * 0.5 - 1.5,
                        (i / 7) as f64 * 0.5 - 1.5,
                    ])
                })
                .collect(),
        );
        let mut oracle = DbscanSimilarity::new(DbscanParams::new(2, 1.0, 3), 0.4);
        let (sim, d) = oracle.similar(&ring(1, 0.0), &ring(2, 0.5));
        assert!(sim, "same-shape blocks should be similar (δ={d})");
        let (sim, d) = oracle.similar(&ring(1, 0.0), &blob);
        assert!(!sim, "ring vs blob should differ (δ={d})");
        assert_eq!(oracle.cached_models(), 3);
    }

    #[test]
    fn tree_oracle_separates_label_flips() {
        use demon_trees::{LabeledPoint, TreeParams};
        use rand::prelude::*;
        let mk = |id: u64, flip: bool, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            Block::new(
                BlockId(id),
                (0..150)
                    .map(|_| {
                        let left = rng.gen::<bool>();
                        let x = if left { -3.0 } else { 3.0 } + rng.gen_range(-0.5..0.5);
                        LabeledPoint::new(vec![x], u32::from(left == flip))
                    })
                    .collect(),
            )
        };
        let mut oracle = TreeSimilarity::new(1, TreeParams::new(2), 0.3);
        let a = mk(1, false, 1);
        let twin = mk(2, false, 2);
        let flipped = mk(3, true, 3);
        let (sim, d) = oracle.similar(&a, &twin);
        assert!(sim, "same concept should be similar (δ={d})");
        let (sim, d) = oracle.similar(&a, &flipped);
        assert!(!sim, "flipped labels should differ (δ={d})");
        assert_eq!(oracle.cached_models(), 3);
    }

    #[test]
    fn compact_mining_over_point_blocks() {
        // The generic miner runs end-to-end on cluster models: regimes
        // alternate between two centers; blocks of the same regime chain.
        use demon_clustering::BirchParams;
        use demon_types::{Point, PointBlock};
        use rand::prelude::*;
        let mut params = BirchParams::new(1, 1);
        params.tree.threshold2 = 1.0;
        let oracle = ClusterSimilarity::new(params, 0.5);
        let mut miner = crate::compact::CompactSequenceMiner::new(oracle);
        let mut rng = StdRng::seed_from_u64(9);
        for id in 1..=6u64 {
            let center = if id % 2 == 1 { 0.0 } else { 40.0 };
            let block = PointBlock::new(
                BlockId(id),
                (0..100)
                    .map(|_| Point::new(vec![center + rng.gen_range(-1.0..1.0)]))
                    .collect(),
            );
            miner.add_block(block);
        }
        miner.check_invariants();
        let seqs = miner.maximal_sequences();
        let odd: Vec<BlockId> = [1u64, 3, 5].map(BlockId).to_vec();
        let even: Vec<BlockId> = [2u64, 4, 6].map(BlockId).to_vec();
        assert!(seqs.contains(&odd), "{seqs:?}");
        assert!(seqs.contains(&even), "{seqs:?}");
    }

    #[test]
    fn bootstrap_oracle_flags_different_processes() {
        let mut oracle = ItemsetSimilarity::new(
            8,
            k(0.1),
            SimilarityConfig::Bootstrap {
                n_resamples: 20,
                max_significance: 0.95,
                seed: 5,
            },
        );
        let a = block(1, &(0..30).map(|_| &[0u32, 1][..]).collect::<Vec<_>>());
        let b = block(2, &(0..30).map(|_| &[5u32, 6][..]).collect::<Vec<_>>());
        let (sim, d) = oracle.similar(&a, &b);
        assert!(!sim, "δ={d}");
    }
}
