//! Core data types shared by every crate in the DEMON workspace.
//!
//! The DEMON framework (Ganti, Gehrke, Ramakrishnan; ICDE 2000) mines
//! *systematically evolving* data: a database that grows by whole **blocks**
//! of records at a time. This crate defines the vocabulary used throughout
//! the reproduction:
//!
//! * [`Item`], [`Tid`], [`Transaction`] and [`ItemSet`] — the market-basket
//!   vocabulary used by the frequent-itemset machinery;
//! * [`Point`] — the numeric-vector record used by the clustering machinery;
//! * [`Block`] and [`BlockId`] — a batch of records added to the database in
//!   one evolution step, together with its logical position in the sequence;
//! * [`Timestamp`] and the [`calendar`] helpers — wall-clock structure for
//!   the web-trace experiments (day-of-week, hour-of-day, block granularity);
//! * [`MinSupport`] — a validated minimum-support threshold `0 < κ < 1`;
//! * [`DemonError`] — the shared error type;
//! * [`durable`] — crash-safe file primitives (atomic writes, framed
//!   checksummed files) shared by the store and the WAL;
//! * [`parallel`] — the deterministic parallel-execution layer
//!   ([`Parallelism`] plus order-preserving sharding primitives) used by
//!   every hot mining path;
//! * [`obs`] — the observability layer (operation counters, histograms,
//!   span timers, JSONL event log) threaded through every hot path and
//!   surfaced by `demon-cli --stats` / `--trace-out`;
//! * [`wal`] — the write-ahead-log codec and generation layout behind
//!   `demon-serve`'s fsync-before-ack durability.
//!
//! Records are deliberately simple owned values: a block, once formed, is
//! immutable (the paper's "systematic block evolution" — records are never
//! updated in place, only whole blocks are added or retired).
//!
//! # Paper → module map
//!
//! | Paper section | Concept | Module / type |
//! |---|---|---|
//! | §2 | systematic block evolution | [`Block`], [`BlockId`] |
//! | §2 | market-basket records | [`Item`], [`Tid`], [`Transaction`], [`ItemSet`] |
//! | §2 | minimum support κ | [`MinSupport`] |
//! | §3.1.2 | numeric records for BIRCH | [`Point`] |
//! | §5 | web-trace calendar structure | [`Timestamp`], [`calendar`] |
//! | §3.2 ("may run in parallel") | off-line update parallelism | [`parallel`] |
//! | — (engineering) | crash-safe persistence primitives | [`durable`] |
//! | — (engineering) | metrics, spans, event log | [`obs`] |
//! | — (engineering) | durable serving (WAL) | [`wal`] |
//!
//! # Example
//!
//! ```
//! use demon_types::{Block, BlockId, Item, ItemSet, MinSupport, Tid, Transaction};
//!
//! let tx = Transaction::new(Tid(1), vec![Item(3), Item(1), Item(3)]);
//! assert_eq!(tx.items(), &[Item(1), Item(3)]); // sorted, de-duplicated
//!
//! let pattern = ItemSet::from_ids(&[1, 3]);
//! assert!(tx.contains_all(pattern.items()));
//!
//! let block = Block::new(BlockId(1), vec![tx]);
//! assert_eq!(block.len(), 1);
//!
//! let minsup = MinSupport::new(0.01)?;
//! assert_eq!(minsup.count_for(1000), 10); // ⌈κ·n⌉
//! # Ok::<(), demon_types::DemonError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod block;
pub mod calendar;
pub mod durable;
mod error;
pub mod hash;
mod item;
mod itemset;
mod model_class;
pub mod obs;
pub mod parallel;
mod point;
mod support;
pub mod timestamp;
mod transaction;
pub mod wal;

pub use block::{Block, BlockId, PointBlock, TxBlock};
pub use parallel::Parallelism;
pub use error::DemonError;
pub use hash::{FastMap, FastSet};
pub use item::Item;
pub use itemset::ItemSet;
pub use model_class::ModelClass;
pub use point::Point;
pub use support::MinSupport;
pub use timestamp::{BlockInterval, Timestamp};
pub use transaction::{Tid, Transaction};

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, DemonError>;
