//! The FOCUS deviation framework and DEMON's pattern detection.
//!
//! DEMON §4 uses the FOCUS framework (Ganti et al., PODS '99) as a
//! black-box **block similarity oracle**: the deviation between two blocks
//! quantifies how differently their data is distributed, as seen through a
//! class of data mining models. Blocks are *similar* when the deviation is
//! statistically insignificant.
//!
//! * [`deviation`] — the deviation instantiated for frequent-itemset
//!   models (regions = union of the two models' frequent itemsets,
//!   measures = support fractions) and for cluster models (regions =
//!   cluster balls, measures = membership fractions). Supports already
//!   tracked in a model are reused; only regions unknown to the *other*
//!   model force a scan — which is why computing the deviation between
//!   similar blocks is cheap and between dissimilar blocks is expensive
//!   (the spikes of Figure 10);
//! * [`significance`] — bootstrap estimation of the statistical
//!   significance of an observed deviation under the pooled null;
//! * [`similarity`] — the binary block-similarity predicate of
//!   Definition 4.1: one per-block model cache, instantiated for the
//!   four model classes, that forgets a block when the miner retires it;
//! * [`compact`] — the incremental **compact sequence** miner of §4,
//!   over the whole stream or its `w` most recent blocks.
//!
//! # Paper → module map
//!
//! | Paper section | Concept | Module / type |
//! |---|---|---|
//! | §4 (FOCUS) | deviation through a model class | [`deviation`] |
//! | §4 | bootstrap significance of a deviation | [`significance`] |
//! | Def. 4.1 | binary block-similarity predicate | [`similarity`] |
//! | §4 | compact sequences `G₁ … G_t` | [`compact`] |
//! | footnote 9 | the same over the most recent window | [`CompactSequenceMiner::with_window`] |
//! | §5 | block-granularity selection | [`granularity`] |
//! | §5 | cyclic sub-sequence reporting | [`postprocess`] |
//!
//! Bootstrap resamples and, for every model class, the miner's
//! per-arrival model fit and pairwise deviations shard across threads
//! via `demon_types::parallel`; resample `i` is seeded from `(seed, i)`,
//! so scores are bit-identical at any thread count
//! ([`bootstrap_significance_with`],
//! [`similarity::SimilarityOracle::similar_to_many`]).
//!
//! # Example
//!
//! Mine compact sequences over an alternating block stream:
//!
//! ```
//! use demon_focus::{CompactSequenceMiner, ItemsetSimilarity, SimilarityConfig};
//! use demon_types::{Block, BlockId, Item, MinSupport, Tid, Transaction};
//!
//! let oracle = ItemsetSimilarity::new(
//!     4,
//!     MinSupport::new(0.2).unwrap(),
//!     SimilarityConfig::Threshold { alpha: 0.3 },
//! );
//! let mut miner = CompactSequenceMiner::new(oracle);
//! for id in 1..=6u64 {
//!     let item = Item((id % 2) as u32);      // blocks alternate populations
//!     let txs = (0..20)
//!         .map(|i| Transaction::new(Tid(id * 100 + i), vec![item]))
//!         .collect();
//!     miner.add_block(Block::new(BlockId(id), txs));
//! }
//! let seqs = miner.maximal_sequences();
//! let odd: Vec<BlockId> = [1u64, 3, 5].map(BlockId).to_vec();
//! let even: Vec<BlockId> = [2u64, 4, 6].map(BlockId).to_vec();
//! assert!(seqs.contains(&odd) && seqs.contains(&even));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compact;
pub mod deviation;
pub mod granularity;
pub mod postprocess;
pub mod significance;
pub mod similarity;

pub use compact::{CompactSequenceMiner, CompactStats};
pub use deviation::{
    cluster_deviation, dbscan_deviation, itemset_deviation, tree_deviation, DeviationResult,
};
pub use granularity::{evaluate_granularities, select_granularity, GranularityReport};
pub use postprocess::{cyclic_subsequences, CyclicSequence};
pub use significance::{bootstrap_significance, bootstrap_significance_with};
pub use similarity::{
    CachedSimilarity, ClusterSimilarity, DbscanSimilarity, ItemsetSimilarity, SimilarityConfig,
    SimilarityOracle, TreeSimilarity,
};
