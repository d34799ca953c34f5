//! # DEMON — Mining and Monitoring Evolving Data
//!
//! A faithful, production-quality Rust implementation of
//! *"DEMON: Mining and Monitoring Evolving Data"* (Ganti, Gehrke,
//! Ramakrishnan; ICDE 2000): a framework for maintaining data-mining
//! models over databases that evolve by **systematic addition of blocks**
//! of records, and for detecting calendar-like patterns of similar blocks.
//!
//! ## What's inside
//!
//! * **Data span dimension** — maintain a model over everything collected
//!   so far ([`core::engine::UwEngine`]) or over the `w` most recent
//!   blocks ([`core::Gemm`]), restricted by a **block selection sequence**
//!   ([`core::BlockSelector`]: window-independent or window-relative).
//! * **Frequent itemsets** — the BORDERS incremental maintainer with the
//!   paper's pluggable update-phase counters: PT-Scan, **ECUT** and
//!   **ECUT+** ([`itemsets`]).
//! * **Clustering** — BIRCH with CF-trees, and the **BIRCH+** incremental
//!   maintainer ([`clustering`]).
//! * **GEMM** — the generic transformer that lifts any unrestricted-window
//!   maintainer into a most-recent-window maintainer, keeping one model
//!   per overlapping future window ([`core::Gemm`]).
//! * **Pattern detection** — the FOCUS deviation framework, bootstrap
//!   significance, and incremental **compact sequence** mining
//!   ([`focus`]).
//! * **Data generators** — IBM Quest transactions, Gaussian clusters, and
//!   a synthetic web-proxy trace with planted calendar structure
//!   ([`datagen`]).
//! * **Serving** — a concurrent TCP daemon that monitors a live block
//!   stream: bounded-queue ingest, model/sequence/stats queries,
//!   atomic snapshots, graceful shutdown ([`serve`], and the
//!   `demon-cli serve` / `demon-cli client` subcommands).
//!
//! ## Quick taste
//!
//! Maintain frequent itemsets over a sliding window of the three most
//! recent blocks, mirroring the paper's Figure 1 example:
//!
//! ```
//! use demon::core::{Gemm, ItemsetMaintainer};
//! use demon::core::bss::{BlockSelector, WiBss};
//! use demon::itemsets::CounterKind;
//! use demon::types::{Block, BlockId, Item, MinSupport, Tid, Transaction};
//!
//! // A maintainer over a 16-item universe at κ = 10%, counting with ECUT.
//! let maintainer = ItemsetMaintainer::new(16, MinSupport::new(0.1)?, CounterKind::Ecut);
//! // Window of 3 blocks, selecting via the BSS ⟨10110⟩ of Figure 1.
//! let bss = BlockSelector::WindowIndependent(WiBss::Explicit {
//!     bits: vec![true, false, true, true, false],
//!     tail: false,
//! });
//! let mut gemm = Gemm::new(maintainer, 3, bss)?;
//!
//! for id in 1..=5u64 {
//!     let txs = (0..10)
//!         .map(|i| Transaction::new(Tid(id * 100 + i), vec![Item(id as u32)]))
//!         .collect();
//!     gemm.add_block(Block::new(BlockId(id), txs))?;
//! }
//! // Window D[3,5] with bits ⟨110⟩: the model covers blocks 3 and 4.
//! let model = gemm.current_model().unwrap();
//! assert!(model.is_frequent(&demon::types::ItemSet::from_ids(&[3])));
//! assert!(model.is_frequent(&demon::types::ItemSet::from_ids(&[4])));
//! assert!(!model.is_frequent(&demon::types::ItemSet::from_ids(&[5])));
//! # Ok::<(), demon::types::DemonError>(())
//! ```
//!
//! ## Paper → crate map
//!
//! | Paper section | Concept | Crate |
//! |---|---|---|
//! | §2 | vocabulary: blocks, records, κ, BSS | [`types`] |
//! | §3.1.1 | BORDERS, ECUT/ECUT+, PT-Scan | [`itemsets`] |
//! | §3.1.2 | BIRCH, BIRCH+ | [`clustering`] |
//! | §3.2 | GEMM, data span dimension | [`core`] |
//! | §4 | FOCUS deviation, compact sequences | [`focus`] |
//! | §4 | decision-tree model class | [`trees`] |
//! | §5–6 | data generators for the experiments | [`datagen`] |
//!
//! Each crate's own docs carry a finer-grained section-to-module table.
//!
//! ## Parallelism
//!
//! The hot paths — support counting, GEMM's off-line fan-out, bootstrap
//! resampling, BIRCH phase 2 — shard across threads via
//! [`types::parallel`]. The thread count comes from
//! [`types::parallel::set_global`] (the CLI's `--threads` flag) or the
//! explicit `*_with` entry points, and results are **bit-identical at
//! any thread count**.
//!
//! See the `examples/` directory for complete scenarios: a quickstart, a
//! retail trend monitor, web-trace pattern detection, and incremental
//! document clustering.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use demon_clustering as clustering;
pub use demon_core as core;
pub use demon_datagen as datagen;
pub use demon_focus as focus;
pub use demon_itemsets as itemsets;
pub use demon_serve as serve;
pub use demon_store as store;
pub use demon_trees as trees;
pub use demon_types as types;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use demon_clustering::{Birch, BirchModel, BirchParams, BirchPlus};
    pub use demon_core::bss::{BlockSelector, WiBss, WrBss};
    pub use demon_core::engine::{DataSpan, DemonEngine, UwEngine};
    pub use demon_core::{ClusterMaintainer, Gemm, ItemsetMaintainer, ModelMaintainer};
    pub use demon_focus::{
        ClusterSimilarity, CompactSequenceMiner, ItemsetSimilarity, SimilarityConfig,
    };
    pub use demon_itemsets::{derive_rules, CounterKind, FrequentItemsets, Rule, TxStore};
    pub use demon_store::{BlockStore, SpillPolicy, StoreConfig};
    pub use demon_trees::{DecisionTree, LabeledPoint, TreeParams};
    pub use demon_types::{
        Block, BlockId, DemonError, Item, ItemSet, MinSupport, Point, PointBlock, Tid,
        Transaction, TxBlock,
    };
}
