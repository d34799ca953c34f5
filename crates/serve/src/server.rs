//! The daemon's public face: [`ServeConfig`], [`Server`], and the one
//! runtime behind them.
//!
//! ```text
//!  client sockets ──▶ acceptor ──▶ event-loop threads (`workers`, non-blocking)
//!        │ queries answered inline          │ IngestBlock / Snapshot
//!        ▼                                  ▼
//!  Arc<Replica> (epoch-swapped)      bounded sequencer queue
//!        ▲                                  │
//!        └──── sequencer thread ◀───────────┘   (single writer)
//!              │ owns the AppliedState: the class's monitor (shards = 1)
//!              │ or a ShardSet (shards ≥ 2)
//!              │ append + fsync to the WAL, then apply, publish, ack
//!              │ segment full: seal the generation, unlink those no window needs
//! ```
//!
//! [`Server::bind`] builds the same runtime for every model class
//! and shard count: `ServeConfig::model` picks the
//! [`ServableModel`] the runtime is instantiated over, `shards` picks
//! the [`AppliedState`] the sequencer owns. Every wire payload and WAL
//! record carries its class tag, so a mismatched client (or a WAL
//! replayed into the wrong daemon) is refused with a typed error
//! instead of decode soup. With `wal_dir` set, `bind` is also where
//! crash recovery happens ([`crate::sequencer`]).
//!
//! **Shutdown** closes the queue (already-queued blocks still apply);
//! every loop thread answers what it has in flight and exits, and `run`
//! returns after the drain — the graceful exit the `Shutdown` verb
//! promises. The recorder is enabled at bind time so the `Stats` verb
//! always reports live `serve.*` and `wal.*` counters.

use crate::event_loop::{acceptor, event_loop};
use crate::model::{ClusterModel, DbscanModel, ItemsetModel, ServableModel, TreeModel};
use crate::sequencer::{self, Hub, Wal};
use crate::shard::{AppliedState, MonitorState, ShardSet};
use demon_itemsets::CounterKind;
use demon_store::StoreConfig;
use demon_types::obs;
use demon_types::{DemonError, MinSupport, ModelClass, Result};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

/// Everything that shapes a daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// The model class this daemon maintains and serves.
    pub model: ModelClass,
    /// Item-universe size of the monitored stream (`--model itemsets`).
    pub n_items: u32,
    /// Minimum support κ of the maintained model (`--model itemsets`).
    pub minsup: MinSupport,
    /// Update-phase counting backend (`--model itemsets`).
    pub counter: CounterKind,
    /// Point dimensionality (`--model clusters|trees`).
    pub dim: usize,
    /// BIRCH phase-2 cluster count k (`--model clusters`).
    pub k: usize,
    /// Label-domain size (`--model trees`).
    pub classes: u32,
    /// DBSCAN neighborhood radius ε (`--model dbscan`).
    pub eps: f64,
    /// DBSCAN core threshold: a point with at least this many ε-neighbors
    /// (itself included) is core (`--model dbscan`).
    pub min_pts: usize,
    /// Model data span: `None` = unrestricted window, `Some(w)` = the
    /// `w` most recent blocks. `--model trees` requires `Some`.
    pub window: Option<usize>,
    /// Pattern-detection window (`None` = unrestricted).
    pub pattern_window: Option<usize>,
    /// FOCUS similarity threshold α for the compact-sequence miner.
    pub alpha: f64,
    /// Event-loop threads polling the connections an acceptor thread
    /// deals them (see [`crate::event_loop`]); each serves any number of
    /// clients.
    pub workers: usize,
    /// Shares an update-phase counting pass is split into, by block id
    /// (see [`crate::shard`]). `1` (the default): the sequencer applies
    /// blocks to the class's monitor. `≥ 2`: a [`crate::shard::ShardSet`]
    /// counts the shares on up to that many workers and merges them
    /// exactly. Nothing else depends on it: one store under the one
    /// memory budget, one log in `wal_dir`, and query responses,
    /// persisted snapshots and WAL roots byte-identical across shard
    /// counts — a daemon may come back over its `wal_dir` with any other
    /// value. `≥ 2` requires the unrestricted window and a model class
    /// with an exact shard merge ([`crate::model::ShardableModel`] —
    /// itemsets only); other classes are refused with the typed
    /// [`DemonError::ShardsUnsupported`].
    pub shards: usize,
    /// Ingest-queue capacity (blocks buffered but not yet applied).
    pub queue_capacity: usize,
    /// How long an `IngestBlock` waits on a full queue before it is
    /// rejected (backpressure deadline).
    pub queue_timeout: Duration,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Storage-engine config of the monitored store (`--memory-budget`):
    /// the daemon has one, at any shard count.
    pub store_config: StoreConfig,
    /// Write-ahead-log directory. `Some(dir)` makes every acknowledged
    /// ingest durable (fsynced before the ack) and recovers the monitor
    /// from `dir` at bind time; `None` keeps the daemon memory-only.
    pub wal_dir: Option<PathBuf>,
    /// WAL segment size: once the live log files reach this many bytes
    /// the daemon seals them and opens the next generation, unlinking
    /// the sealed generations no window can still need.
    pub wal_max_bytes: u64,
}

impl ServeConfig {
    /// A config with the documented defaults: the itemset model class,
    /// 4 event-loop threads, 1 shard, a 64-block queue, 5 s
    /// backpressure deadline, 30 s connection timeouts, an unrestricted
    /// window, an in-memory store,
    /// and no WAL (pass `wal_dir` to make ingest durable; WAL segments
    /// are 8 MiB).
    pub fn new(addr: impl Into<String>, n_items: u32, minsup: MinSupport) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            model: ModelClass::Itemsets,
            n_items,
            minsup,
            counter: CounterKind::Ecut,
            dim: 2,
            k: 4,
            classes: 2,
            eps: 1.0,
            min_pts: 4,
            window: None,
            pattern_window: None,
            alpha: 0.12,
            workers: 4,
            shards: 1,
            queue_capacity: 64,
            queue_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            store_config: StoreConfig::InMemory,
            wal_dir: None,
            wal_max_bytes: 8 << 20,
        }
    }
}

/// What a completed daemon run did, returned by [`Server::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    /// Requests served across all connections and verbs.
    pub requests: u64,
    /// The stream position at exit: the latest applied block id.
    pub blocks: u64,
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    addr: SocketAddr,
    run: Box<dyn FnOnce() -> Result<ServeSummary> + Send>,
}

impl Server {
    /// Binds the listener and builds the state, but serves nothing yet.
    /// With `wal_dir` set this is also where crash recovery happens —
    /// when `bind` returns, every durable block is applied. Enables the
    /// obs recorder so `Stats` is always live.
    pub fn bind(config: ServeConfig) -> Result<Server> {
        obs::enable();
        if config.shards == 0 {
            return Err(DemonError::InvalidParameter(
                "--shards must be at least 1".to_string(),
            ));
        }
        if config.shards > 1 {
            if config.model != ModelClass::Itemsets {
                // Sharding needs the exact scatter/gather merge
                // (`ShardableModel`); only itemset supports are
                // additive over disjoint block sets.
                return Err(DemonError::ShardsUnsupported {
                    class: config.model.name(),
                });
            }
            if config.window.is_some() {
                return Err(DemonError::InvalidParameter(
                    "sharded serving (--shards ≥ 2) requires the unrestricted window; \
                     --window (GEMM) is only available with --shards 1"
                        .to_string(),
                ));
            }
            let state = ShardSet::<ItemsetModel>::new(&config)?;
            return Runtime::bind(&config, Box::new(state));
        }
        if config.model == ModelClass::Trees && config.window.is_none() {
            // A tree refits over everything its window covers: without a
            // window every block refits the whole stream, and no block
            // is ever retired.
            return Err(DemonError::InvalidParameter(
                "--model trees needs --window: an unrestricted tree refits over \
                 every block ever ingested, at a cost that grows with the stream"
                    .to_string(),
            ));
        }
        match config.model {
            ModelClass::Itemsets => Runtime::<ItemsetModel>::bind_monitor(&config),
            ModelClass::Clusters => Runtime::<ClusterModel>::bind_monitor(&config),
            ModelClass::Trees => Runtime::<TreeModel>::bind_monitor(&config),
            ModelClass::Density => Runtime::<DbscanModel>::bind_monitor(&config),
        }
    }

    /// The address the daemon is listening on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until a `Shutdown` request: spawns the sequencer, the
    /// event-loop threads and the acceptor, then joins them all. Queued blocks are drained before the
    /// sequencer exits.
    pub fn run(self) -> Result<ServeSummary> {
        (self.run)()
    }
}

/// The one runtime, bound and ready to run: the same type for every
/// shard count of a class.
struct Runtime<S: ServableModel> {
    hub: Arc<Hub<S>>,
    listener: TcpListener,
    workers: usize,
    state: Box<dyn AppliedState<S>>,
    wal: Option<Wal>,
}

impl<S: ServableModel> Runtime<S> {
    fn bind_monitor(config: &ServeConfig) -> Result<Server> {
        Self::bind(config, Box::new(MonitorState::<S>::new(config)?))
    }

    /// Binds the listener and recovers `state` (handed in empty) from
    /// the WAL directory, if any.
    fn bind(config: &ServeConfig, mut state: Box<dyn AppliedState<S>>) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let wal = match &config.wal_dir {
            None => None,
            Some(root) => Some(sequencer::recover::<S>(root, config, state.as_mut())?),
        };
        let runtime = Runtime {
            hub: Arc::new(Hub::new(config, addr, state.as_ref())),
            listener,
            workers: config.workers.max(1),
            state,
            wal,
        };
        Ok(Server {
            addr,
            run: Box::new(move || runtime.run()),
        })
    }

    fn run(self) -> Result<ServeSummary> {
        let Runtime {
            hub,
            listener,
            workers,
            state,
            wal,
        } = self;
        let mut handles = Vec::new();
        let named = |name: String| std::thread::Builder::new().name(name);
        {
            let hub = Arc::clone(&hub);
            handles.push(
                named("serve-sequencer".to_string())
                    .spawn(move || sequencer::sequencer_loop(&hub, state, wal))?,
            );
        }
        let mut loops = Vec::with_capacity(workers);
        for i in 0..workers {
            let hub = Arc::clone(&hub);
            let (inbox, dealt) = mpsc::channel();
            let handle =
                named(format!("serve-loop-{i}")).spawn(move || event_loop(&hub, &dealt))?;
            loops.push((inbox, handle.thread().clone()));
            handles.push(handle);
        }
        let _ = hub
            .loops
            .set(loops.iter().map(|(_, t)| t.clone()).collect());
        let acceptor = {
            let hub = Arc::clone(&hub);
            named("serve-acceptor".to_string()).spawn(move || acceptor(&hub, &listener, &loops))?
        };
        for h in handles {
            let _ = h.join();
        }
        // Every connection is closed by now, so a wake-up that failed
        // for want of a descriptor at shutdown goes through here.
        if !acceptor.is_finished() {
            hub.wake_acceptor();
        }
        let _ = acceptor.join();
        Ok(ServeSummary {
            requests: hub.requests.load(Ordering::Relaxed),
            blocks: hub.replica.load().blocks,
        })
    }
}

static CRASH_HITS: AtomicU64 = AtomicU64::new(0);

/// Fault-injection hook: `DEMON_SERVE_CRASH=<point>:<n>` aborts the
/// process — the moral equivalent of `kill -9`, no destructors, no
/// flushes — the `n`-th time the named crash point is reached. Inert
/// unless the fault tests arm it, through the daemon's environment: the
/// spec is read once per process.
pub(crate) fn crash_point(point: &str) {
    static ARMED: OnceLock<Option<(String, u64)>> = OnceLock::new();
    let armed = ARMED.get_or_init(|| {
        let spec = std::env::var("DEMON_SERVE_CRASH").ok()?;
        let (name, nth) = spec.split_once(':')?;
        Some((name.to_string(), nth.parse().ok()?))
    });
    if let Some((name, nth)) = armed {
        if name == point && CRASH_HITS.fetch_add(1, Ordering::SeqCst) + 1 == *nth {
            std::process::abort();
        }
    }
}
