//! Frequent-itemset mining and incremental maintenance for DEMON.
//!
//! This crate implements every piece of the paper's frequent-itemset stack:
//!
//! * [`apriori`] — level-wise mining from scratch, producing the set of
//!   frequent itemsets `L(D, κ)` **and** the negative border `NB⁻(D, κ)`
//!   that the BORDERS algorithm maintains;
//! * [`prefix_tree`] — the candidate prefix tree of Mueller '95 used by the
//!   **PT-Scan** counting procedure (the baseline BORDERS update phase);
//! * [`tidlist`] — per-block TID-lists of items and 2-itemsets, exploiting
//!   the paper's *additivity* and *0/1* properties of systematic block
//!   evolution;
//! * [`counter`] — the pluggable support-counting backends compared in
//!   Figures 2–7: [`CounterKind::PtScan`], [`CounterKind::Ecut`] and
//!   [`CounterKind::EcutPlus`];
//! * [`store`] — [`TxStore`], the transactional + TID-list representation
//!   of the evolving database, and the record codec a block's
//!   transactions travel the wire and the write-ahead log in (the lists
//!   are derived state, rebuilt on every load; `demon-serve` owns the
//!   one on-disk form of a stream);
//! * [`model`] — [`FrequentItemsets`], the maintained model
//!   (`L ∪ NB⁻` with exact supports), including the BORDERS **detection**
//!   and **update** phases for block addition and the deletion-capable
//!   variant (`AuM`) used in the GEMM ablation.
//!
//! # Paper → module map
//!
//! | Paper section | Concept | Module / type |
//! |---|---|---|
//! | §3.1.1 | BORDERS detection + update phases | [`model`] |
//! | §3.1.1 | negative border `NB⁻(D, κ)` | [`model::FrequentItemsets::border`] |
//! | §3.1.1 | PT-Scan counting (Mueller '95 tree) | [`prefix_tree`], [`counter`] |
//! | §3.1.1 | ECUT / ECUT+ TID-list counting | [`tidlist`], [`counter`] |
//! | §3.1.1 | FUP comparator (Cheung et al. '96), AMS+96 hash tree | `demon_bench::baselines` (not linked by the daemon) |
//! | §5 | association rules | [`rules`] |
//! | §6.1 | level-wise mining from scratch | [`apriori`] |
//! | — (engineering) | the transaction record codec | [`store::encode_block_txs`] (bytes through `demon_types::durable`) |
//!
//! Support counting shards across threads (candidate ranges for
//! ECUT/ECUT+, transaction ranges for PT-Scan) via
//! `demon_types::parallel`; counts are exact integer sums merged in
//! shard order, so every backend returns bit-identical results at any
//! thread count ([`count_supports_with`]).
//!
//! # Example
//!
//! Mine a block, then maintain the model incrementally as a second block
//! arrives, counting new candidates with ECUT:
//!
//! ```
//! use demon_itemsets::{CounterKind, FrequentItemsets, TxStore};
//! use demon_types::{Block, BlockId, Item, ItemSet, MinSupport, Tid, Transaction};
//!
//! let tx = |tid: u64, items: &[u32]| {
//!     Transaction::new(Tid(tid), items.iter().map(|&i| Item(i)).collect())
//! };
//! let mut store = TxStore::new(4);
//! store.add_block(Block::new(
//!     BlockId(1),
//!     vec![tx(1, &[0, 1]), tx(2, &[0, 1]), tx(3, &[2])],
//! ));
//!
//! let minsup = MinSupport::new(0.4)?;
//! let mut model = FrequentItemsets::mine_from(&store, &[BlockId(1)], minsup)?;
//! assert!(model.is_frequent(&ItemSet::from_ids(&[0, 1])));
//!
//! // A new block shifts the distribution toward item 3.
//! store.add_block(Block::new(
//!     BlockId(2),
//!     vec![tx(4, &[3]), tx(5, &[3]), tx(6, &[3]), tx(7, &[3])],
//! ));
//! let stats = model.absorb_block(&store, BlockId(2), CounterKind::Ecut)?;
//! assert!(model.is_frequent(&ItemSet::from_ids(&[3])));
//! assert!(!model.is_frequent(&ItemSet::from_ids(&[0, 1]))); // diluted away
//! assert!(stats.promoted >= 1);
//! # Ok::<(), demon_types::DemonError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apriori;
pub mod counter;
pub mod model;
pub mod prefix_tree;
pub mod rules;
pub mod store;
pub mod tidlist;

pub use counter::{
    count_supports, count_supports_sharded, count_supports_with, shard_of, CountResult,
    CounterKind,
};
pub use model::{FrequentItemsets, MaintenanceStats};
pub use prefix_tree::{FlatPrefixTree, PrefixTree};
pub use rules::{derive_rules, Rule};
pub use store::{BlockRef, ListsRef, MaterializeStats, TidListsView, TxStore};
pub use tidlist::{
    intersect_all, intersect_count, intersect_into, kernel_for, BlockTidLists, IntersectKernel,
    IntersectScratch, TidListStore,
};
