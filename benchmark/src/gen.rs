//! Workload inputs. `--seed` reaches only this module: the same seed
//! gives the same blocks, and the program under test never sees it.
//!
//! One round of blocks is generated once per run and re-cloned for every
//! round outside the timed regions.

use demon_datagen::{
    ClusterDataGen, ClusterParams, DensityDriftGen, QuestGen, QuestParams, Shape, ShapeParams,
};
use demon_trees::LabeledPoint;
use demon_types::{Block, BlockId, MinSupport, PointBlock, Tid, Transaction, TxBlock};

/// The Quest spec of `bench_serve`'s stream.
pub const QUEST_SPEC: &str = "2M.10L.1I.2pats.4plen";
/// Item universe of the transaction stream.
pub const N_ITEMS: u32 = 1000;
/// Transactions per block on the three itemset workloads.
pub const BLOCK_TXS: usize = 500;
/// Minimum support κ of every itemset model.
pub const MINSUP: f64 = 0.02;
/// A planted pattern switch every this many blocks, cycling through
/// [`REGIMES`] pattern pools: every segment sees every pool, so FOCUS
/// and border work is spread evenly over segments.
pub const SWITCH_EVERY: usize = 16;
/// Independently seeded pattern pools of the transaction stream.
pub const REGIMES: usize = 8;

/// Dimensionality of the point streams.
pub const DIM: usize = 2;
/// Gaussian clusters in the BIRCH+ and decision-tree streams (the tree
/// labels are the generating cluster).
pub const POINT_CLUSTERS: usize = 4;
/// DBSCAN neighbourhood radius over the moons/rings stream.
pub const DBSCAN_EPS: f64 = 0.8;
/// DBSCAN core threshold.
pub const DBSCAN_MIN_PTS: usize = 4;

/// κ as the typed value.
pub fn minsup() -> MinSupport {
    MinSupport::new(MINSUP).expect("0.02 is a valid support")
}

/// Seed of the workload's *distribution*: the Quest pattern pools and
/// the Gaussian cluster centres. A workload is a distribution and
/// `--seed` draws the sample: pools and centres are the same for every
/// seed, the transactions and points drawn from them are not. (Pools
/// seeded from `--seed` made the cost of a run depend on the seed by
/// ±4 % — more than the machine's own noise in a quiet phase.)
const DISTRIBUTION_SEED: u64 = 2000;

/// How many records of a fixed-distribution generator to discard so
/// that `--seed` selects the sample: SplitMix64 of `(seed, stream)`,
/// below 4096.
fn skip(seed: u64, stream: u64) -> usize {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % 4096) as usize
}

/// `n_blocks` transaction blocks of [`BLOCK_TXS`] transactions, ids
/// `1..=n_blocks`, TIDs globally increasing, the pattern pool switching
/// every [`SWITCH_EVERY`] blocks.
pub fn tx_stream(seed: u64, n_blocks: usize) -> Vec<TxBlock> {
    let params = QuestParams::parse(QUEST_SPEC, 1.0).expect("valid quest spec");
    let mut pools: Vec<QuestGen> = (0..REGIMES as u64)
        .map(|r| {
            let mut pool = QuestGen::new(params.clone(), DISTRIBUTION_SEED + r);
            pool.take_transactions(skip(seed, r));
            pool
        })
        .collect();
    let mut next_tid = 1u64;
    (0..n_blocks)
        .map(|i| {
            let pool = &mut pools[(i / SWITCH_EVERY) % REGIMES];
            let txs = pool
                .take_transactions(BLOCK_TXS)
                .into_iter()
                .map(|t| {
                    next_tid += 1;
                    Transaction::from_sorted(Tid(next_tid - 1), t.items().to_vec())
                })
                .collect();
            Block::new(BlockId(i as u64 + 1), txs)
        })
        .collect()
}

/// The three point streams one `class_sweep` tick feeds.
pub struct PointStreams {
    /// Gaussian clusters for BIRCH+.
    pub birch: Vec<PointBlock>,
    /// Moons/rings, switching every [`SWITCH_EVERY`] blocks, for DBSCAN.
    pub dbscan: Vec<PointBlock>,
    /// Gaussian clusters labeled by generating cluster, for the trees.
    pub trees: Vec<Block<LabeledPoint>>,
}

/// Points per block of each class, chosen so one tick (all three
/// monitors) costs ≈ 8 ms on the reference host and no class takes
/// more than half of it (DBSCAN's oracle is by far the dearest per
/// point, BIRCH+ the cheapest).
pub const BIRCH_POINTS: usize = 1200;
/// See [`BIRCH_POINTS`].
pub const DBSCAN_POINTS: usize = 32;
/// See [`BIRCH_POINTS`].
pub const TREE_POINTS: usize = 250;

/// `n_ticks` blocks of each point stream.
pub fn point_streams(seed: u64, n_ticks: usize) -> PointStreams {
    let cluster_params = ClusterParams {
        k: POINT_CLUSTERS,
        dim: DIM,
        ..ClusterParams::default()
    };
    let mut birch_gen = ClusterDataGen::new(cluster_params.clone(), DISTRIBUTION_SEED);
    birch_gen.take_points(skip(seed, 101));
    let birch = (1..=n_ticks as u64)
        .map(|id| Block::new(BlockId(id), birch_gen.take_points(BIRCH_POINTS)))
        .collect();

    let schedule = (0..n_ticks.max(1))
        .map(|i| {
            if (i / SWITCH_EVERY).is_multiple_of(2) {
                Shape::Moons
            } else {
                Shape::Rings
            }
        })
        .collect();
    // The shapes are fixed; the seed only jitters the points.
    let mut density_gen = DensityDriftGen::new(ShapeParams::new(4.0, 0.1), seed, schedule);
    let dbscan = (0..n_ticks)
        .map(|_| density_gen.next_block(DBSCAN_POINTS))
        .collect();

    let mut tree_gen = ClusterDataGen::new(cluster_params, DISTRIBUTION_SEED + 1);
    tree_gen.take_labeled(skip(seed, 102));
    let trees = (1..=n_ticks as u64)
        .map(|id| {
            let records = tree_gen
                .take_labeled(TREE_POINTS)
                .into_iter()
                .map(|(point, label)| LabeledPoint { point, label })
                .collect();
            Block::new(BlockId(id), records)
        })
        .collect();
    PointStreams {
        birch,
        dbscan,
        trees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = tx_stream(7, 20);
        let b = tx_stream(7, 20);
        let c = tx_stream(8, 20);
        assert_eq!(a.len(), 20);
        assert!(a.iter().all(|blk| blk.len() == BLOCK_TXS));
        assert!(a.iter().zip(&b).all(|(x, y)| x.records() == y.records()));
        assert!(a.iter().zip(&c).any(|(x, y)| x.records() != y.records()));
        assert_eq!(a[19].id(), BlockId(20));
    }

    #[test]
    fn point_streams_are_deterministic() {
        let a = point_streams(3, 5);
        let b = point_streams(3, 5);
        assert_eq!(a.birch.len(), 5);
        assert!(a
            .birch
            .iter()
            .zip(&b.birch)
            .all(|(x, y)| x.records() == y.records()));
        assert!(a
            .dbscan
            .iter()
            .zip(&b.dbscan)
            .all(|(x, y)| x.records() == y.records()));
        assert_eq!(a.trees[4].len(), TREE_POINTS);
    }
}
