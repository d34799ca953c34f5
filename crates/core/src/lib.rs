//! The DEMON engine: data span dimension, block selection sequences, and
//! the **GEMM** generic model maintainer.
//!
//! This crate ties the substrates together into the framework of the
//! paper's Figure 11 — the problem-space matrix of
//! {unrestricted window, most recent window} × {model maintenance, pattern
//! detection}:
//!
//! * [`bss`] — block selection sequences: window-independent and
//!   window-relative bit sequences, with the **projection** and
//!   **right-shift** operations of §3.2;
//! * [`maintainer`] — the [`ModelMaintainer`] abstraction GEMM is generic
//!   over, with the two instantiations of §3.1:
//!   [`maintainer::ItemsetMaintainer`] (BORDERS + ECUT/ECUT+),
//!   [`maintainer::ClusterMaintainer`] (BIRCH+),
//!   [`maintainer::TreeMaintainer`] (refit decision trees) and
//!   [`maintainer::DbscanMaintainer`] (incremental DBSCAN — the only
//!   [`maintainer::DecrementalMaintainer`], whose MRW window slides by
//!   deletion through [`engine::SlidingEngine`]);
//! * [`gemm`] — the generic most-recent-window algorithm: maintain one
//!   model per future window overlapping the current one, updating the
//!   time-critical model first (its cost is the *response time*) and the
//!   rest off-line, optionally parallel and optionally shelved to disk;
//! * [`engine`] — a small facade selecting the data span option;
//! * [`report`] — calendar-style reporting of block sequences for the
//!   web-trace experiments;
//! * [`monitor`] — the full Figure-11 composition: model maintenance and
//!   pattern detection over one stream.
//!
//! # Paper → module map
//!
//! | Paper section | Concept | Module / type |
//! |---|---|---|
//! | §2 | block selection sequences, projection, right-shift | [`bss`] |
//! | §3.1 | model maintenance substrate | [`maintainer`] |
//! | §3.2 | GEMM, future-window models, off-line updates | [`gemm`] |
//! | §3.2 ("main memory is a premium") | disk shelf | [`gemm::ShelfMode`] |
//! | §3.2 ("may run in parallel") | parallel off-line fan-out | [`Gemm::with_parallelism`] |
//! | §3.2.4 | AuM add/delete ablation baseline | `demon_bench::baselines::aum` (not linked by the daemon) |
//! | §3.2.4 | deletion-based MRW engine (incremental DBSCAN) | [`engine::SlidingEngine`] |
//! | §5 | calendar-style reporting | [`report`] |
//! | Fig. 11 | the full framework composition | [`engine`], [`monitor`] |
//!
//! # Example
//!
//! GEMM over a window of two blocks, with the window-relative BSS ⟨01⟩
//! ("only the newest block of the window"):
//!
//! ```
//! use demon_core::bss::{BlockSelector, WrBss};
//! use demon_core::{Gemm, ItemsetMaintainer};
//! use demon_itemsets::CounterKind;
//! use demon_types::{Block, BlockId, Item, ItemSet, MinSupport, Tid, Transaction};
//!
//! let maintainer = ItemsetMaintainer::new(8, MinSupport::new(0.2)?, CounterKind::Ecut);
//! let bss = BlockSelector::WindowRelative(WrBss::new(vec![false, true]));
//! let mut gemm = Gemm::new(maintainer, 2, bss)?;
//! for id in 1..=3u64 {
//!     let txs = (0..10)
//!         .map(|i| Transaction::new(Tid(id * 100 + i), vec![Item(id as u32)]))
//!         .collect();
//!     gemm.add_block(Block::new(BlockId(id), txs))?;
//! }
//! // Window D[2,3], position-2 bit set → the model covers block 3 only.
//! let model = gemm.current_model().unwrap();
//! assert!(model.is_frequent(&ItemSet::from_ids(&[3])));
//! assert!(!model.is_frequent(&ItemSet::from_ids(&[2])));
//! # Ok::<(), demon_types::DemonError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bss;
pub mod engine;
pub mod gemm;
pub mod maintainer;
pub mod monitor;
pub mod report;

pub use bss::{BlockSelector, WiBss};
pub use engine::{DataSpan, DemonEngine, SlidingEngine};
pub use gemm::{Gemm, GemmStats, ShelfMode};
pub use maintainer::{
    ClusterMaintainer, DbscanMaintainer, DecrementalMaintainer, ItemsetMaintainer,
    ModelMaintainer, TreeMaintainer,
};
pub use monitor::{DemonMonitor, MonitorStats};
