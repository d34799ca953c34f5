//! `demon-serve` — a concurrent TCP monitoring daemon over the DEMON
//! engine.
//!
//! The paper frames DEMON as a system that *continuously* maintains
//! models and detects patterns as blocks arrive; this crate is that
//! long-running shape. A [`Server`] is one runtime for every model
//! class and shard count: blocks stream in through a bounded queue
//! (backpressure, not unbounded buffering) to a single sequencer
//! thread, which logs, applies and publishes each one as an immutable
//! epoch-swapped replica; a few event-loop threads serve any number of
//! connections and answer queries — the live model, the compact
//! pattern sequences, the obs counter table — from the current replica
//! without taking a lock ingest holds; a `Snapshot` verb writes the held
//! blocks atomically as a WAL root — the one on-disk form of a block
//! stream, which the daemon binds and every batch command reads.
//!
//! Std-only by design: the wire protocol reuses the workspace's
//! framed, CRC32-checksummed durable codec ([`demon_types::durable`])
//! and the store's own block codec, so no new dependencies and no
//! second serialization format — a block crosses the socket in exactly
//! the bytes it persists as.
//!
//! # Module map
//!
//! | module | what it owns |
//! |---|---|
//! | [`protocol`] | frame layout, verbs, request/response codecs, typed wire errors |
//! | [`model`] | the [`ServableModel`] abstraction: codecs, rendering, snapshots, shard capability per model class |
//! | [`server`] | [`ServeConfig`], [`Server`]: bind (validation, recovery) and run (thread set-up) |
//! | [`shard`] | the state the sequencer applies blocks to (the class's monitor, or one maintainer whose counting passes are split per shard and merged exactly) and the epoch-swapped replicas readers see |
//! | [`sequencer`] | bounded queue, the WAL + group commit, the one reader and writer of a WAL root, recovery, rotation and retention, `Stats` |
//! | [`event_loop`] | poll-based (std-only) non-blocking connection loop: framing, verbs, idle policy |
//! | [`client`] | blocking one-call-per-request client with bounded retry |
//!
//! # Quick taste
//!
//! ```no_run
//! use demon_serve::{Client, ServeConfig, Server};
//! use demon_types::{Block, BlockId, Item, MinSupport, Tid, Transaction};
//!
//! let config = ServeConfig::new("127.0.0.1:0", 16, MinSupport::new(0.1)?);
//! let server = Server::bind(config)?;
//! let addr = server.local_addr();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! let txs = (0..10)
//!     .map(|i| Transaction::new(Tid(i), vec![Item(1), Item(2)]))
//!     .collect();
//! client.ingest(16, &Block::new(BlockId(1), txs))?;
//! let model_json = client.query_model_json()?;
//! assert!(model_json.contains("frequent"));
//! client.shutdown()?;
//! handle.join().unwrap()?;
//! # Ok::<(), demon_types::DemonError>(())
//! ```
//!
//! # Guarantees
//!
//! * An acknowledged `IngestBlock` is **applied**: any later query — on
//!   any connection — sees the block.
//! * With a WAL directory configured (`ServeConfig::wal_dir`), an
//!   acknowledged `IngestBlock` is also **durable**: the request body it
//!   arrived in is appended to the write-ahead log and fsynced *before*
//!   the ack is sent, so a `kill -9` after the ack never loses the
//!   block. The log is the daemon's whole durable state: a restart
//!   replays it, salvaging a torn final record and refusing — typed —
//!   damage that acked records follow. Full segments are sealed, and
//!   unlinked only once no window of the data span reaches their blocks.
//! * Client-side, transient transport faults are retried under a
//!   bounded [`RetryPolicy`] and a `Duplicate` answer to a *retried*
//!   ingest is success (the ack was lost, not the block).
//! * Replayed or out-of-order blocks are typed protocol errors (the
//!   engine's systematic-evolution contract); the daemon keeps serving.
//! * The model answered over the socket is byte-identical to a batch
//!   `demon-cli mine` over the same stream (asserted in
//!   `tests/serve.rs`).
//! * `Shutdown` drains the queue before the process exits, and a
//!   `Snapshot` directory is a whole WAL root or does not exist: a daemon
//!   of its class binds it, and [`sequencer::read_root`] reads it.
//! * `ServeConfig::shards ≥ 2` splits every update-phase counting pass
//!   (round-robin by block id) and nothing else — one store, one log,
//!   one memory budget at any shard count — so every query response,
//!   persisted snapshot and WAL root stays **byte-identical** to the
//!   1-shard daemon's (asserted in `tests/serve_sharded.rs`), and a root
//!   written under one shard count recovers under any other
//!   (`tests/wal_restart.rs`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod event_loop;
pub mod model;
pub mod protocol;
pub mod sequencer;
pub mod server;
pub mod shard;

pub use client::{Client, RetryPolicy};
pub use model::{
    ClusterModel, DbscanModel, ItemsetModel, ServableModel, ShardableModel, TreeModel,
};
pub use protocol::{Request, Response, WireError, MAX_PAYLOAD};
pub use server::{ServeConfig, ServeSummary, Server};
