//! The state the sequencer applies blocks to, and the immutable
//! replicas readers see of it.
//!
//! * [`AppliedState`] is the one seam between the runtime and the
//!   mining state. `shards = 1`: [`MonitorState`], whatever monitor the
//!   class builds (`--window`/GEMM and the DBSCAN sliding engine
//!   included). `shards ≥ 2`: [`ShardSet`], per-shard stores under one
//!   global model, for classes with an exact shard merge
//!   ([`ShardableModel`]).
//! * **Partition function**: block `b` belongs to shard
//!   `(b − 1) mod N` — round-robin by block id, so every prefix of the
//!   stream is balanced to within one block.
//! * **Exact scatter/gather**: [`ShardableModel::absorb_sharded`] proves
//!   the model built from disjoint per-shard stores byte-identical to
//!   the 1-shard model. Itemsets qualify (supports are additive over
//!   disjoint block sets; [`demon_itemsets::count_supports_sharded`]
//!   reuses the `demon_types::parallel` per-shard-merge discipline);
//!   clusters, trees and density models do not, and are refused at bind
//!   with the typed `ShardsUnsupported` error.
//! * **Replica epochs**: after each applied block the sequencer builds
//!   an immutable [`Replica`] — model cloned out, sequences
//!   pre-gathered — and flips the [`ReplicaCell`] pointer
//!   (`serve.shard.replica_swaps`). Queries never touch mining state
//!   and never take the sequencer's locks. The model *JSON* is rendered
//!   lazily, once, by the first `QueryModel` that needs it
//!   (`serve.replica_lazy_renders`) — a write-heavy burst swaps dozens
//!   of replicas nobody queries, and pays serialization for none of
//!   them. The replica (model included) is published *before* the
//!   ingest ack, so an acked block is visible to every later query;
//!   only the stringification is deferred.
//! * **Data span**: [`AppliedState::oldest_needed`] names the oldest
//!   block the state can still depend on — what lets the sequencer
//!   unlink log generations — and [`AppliedState::resume_at`] starts the
//!   empty state where the retained log begins.
//! * **Snapshot export**: `MonitorState` saves straight from its live
//!   maintainer; `ShardSet` first gathers its shards' blocks into one
//!   fresh maintainer, in block-id order (in memory, or spilling under
//!   the daemon's own `--memory-budget` policy), because its export must
//!   be the 1-shard layout — byte-identical at any shard count.

use crate::model::{MaintainedModel, ServableModel, ShardableModel};
use crate::server::ServeConfig;
use demon_core::engine::check_sequential;
use demon_core::maintainer::ModelMaintainer;
use demon_core::monitor::DemonMonitor;
use demon_focus::compact::CompactSequenceMiner;
use demon_store::StoreConfig;
use demon_types::obs::{self, Counter};
use demon_types::{Block, BlockId, DemonError, Result};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The shard that owns block `id`: round-robin by block id, so every
/// stream prefix is balanced to within one block.
pub fn shard_of(id: BlockId, n_shards: usize) -> usize {
    ((id.value() - 1) % n_shards as u64) as usize
}

/// What the sequencer owns and applies blocks to. Implementations
/// reject a replayed or out-of-order id before any state moves
/// (`DuplicateBlock` / `InvalidParameter`, the engine's texts).
pub trait AppliedState<S: ServableModel>: Send {
    /// Applies the next arriving block.
    fn add_block(&mut self, block: Block<S::Record>) -> Result<()>;

    /// The highest block id applied so far.
    fn latest(&self) -> Option<BlockId>;

    /// The immutable replica of the current state: model cloned out
    /// (JSON renders lazily on first query), sequences pre-gathered,
    /// per-shard block counts for `Stats`.
    fn replica(&self, epoch: u64) -> Replica<S>;

    /// Starts the (empty) state at block `first` instead of `D1`:
    /// recovery over a log whose older generations were dropped.
    fn resume_at(&mut self, first: BlockId);

    /// The oldest block this state depends on, now or after any later
    /// block, in O(1): a restart must replay from here or earlier, and
    /// nothing older can ever matter again.
    fn oldest_needed(&self) -> BlockId;

    /// Persists every held block to `dir` all-or-nothing (the
    /// `Snapshot` verb); returns the persisted block count.
    fn save_snapshot(&self, dir: &Path) -> Result<u64>;
}

/// Blocks owned per shard once blocks `D1..=latest` are dealt round-robin
/// over `n_shards` — the stream position as `Stats` reports it, the same
/// before and after a restart however much of the log was replayed.
fn shard_blocks(latest: Option<BlockId>, n_shards: usize) -> Vec<u64> {
    let (t, n) = (latest.map_or(0, BlockId::value), n_shards as u64);
    (0..n).map(|s| (t + n - 1 - s) / n).collect()
}

/// Where a gathered snapshot keeps its copy of the blocks: in memory when
/// the daemon's stores are, else under the same spill policy in a
/// scratch directory of its own (removed when the copy is dropped), so
/// a `--memory-budget` daemon stays within its budget while it
/// snapshots. Only the sequencer gathers, so the sweep of emptied
/// scratch directories cannot race a new one.
fn scratch_store_config(store_config: &StoreConfig) -> StoreConfig {
    static GATHERS: AtomicU64 = AtomicU64::new(0);
    let StoreConfig::Spill { dir, policy, .. } = store_config else {
        return StoreConfig::InMemory;
    };
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().starts_with("gather-") {
            let _ = std::fs::remove_dir(entry.path()); // only if emptied
        }
    }
    StoreConfig::Spill {
        dir: dir.join(format!(
            "gather-{}",
            GATHERS.fetch_add(1, Ordering::Relaxed)
        )),
        policy: *policy,
        cleanup: true,
    }
}

/// The `shards = 1` state: the class's own monitor, applied to directly.
pub struct MonitorState<S: ServableModel> {
    monitor: DemonMonitor<S::Maintainer, S::Oracle>,
    latest: Option<BlockId>,
}

impl<S: ServableModel> MonitorState<S> {
    /// The empty state of a validated config.
    pub fn new(config: &ServeConfig) -> Result<MonitorState<S>> {
        Ok(MonitorState {
            monitor: S::build_monitor(config)?,
            latest: None,
        })
    }
}

impl<S: ServableModel> AppliedState<S> for MonitorState<S> {
    fn add_block(&mut self, block: Block<S::Record>) -> Result<()> {
        let id = block.id();
        self.monitor.add_block(block)?;
        self.latest = Some(id);
        Ok(())
    }

    fn latest(&self) -> Option<BlockId> {
        self.latest
    }

    fn replica(&self, epoch: u64) -> Replica<S> {
        Replica {
            epoch,
            blocks: self.latest.map_or(0, BlockId::value),
            model: self.monitor.model().cloned(),
            render_ctx: S::render_ctx(self.monitor.engine().maintainer()),
            model_json: OnceLock::new(),
            sequences: self.monitor.sequences(),
            shard_blocks: shard_blocks(self.latest, 1),
        }
    }

    fn resume_at(&mut self, first: BlockId) {
        self.monitor.resume_at(first);
    }

    fn oldest_needed(&self) -> BlockId {
        self.monitor.oldest_needed()
    }

    fn save_snapshot(&self, dir: &Path) -> Result<u64> {
        S::save_snapshot(self.monitor.engine().maintainer(), dir)
    }
}

/// The `shards ≥ 2` state: one maintainer per shard (store +
/// registration work, exactly the 1-shard register path applied to the
/// owning shard), one global model absorbed with the class's exact
/// scatter/gather, one global pattern miner.
pub struct ShardSet<S: ShardableModel> {
    shards: Vec<S::Maintainer>,
    model: MaintainedModel<S>,
    miner: CompactSequenceMiner<S::Oracle, S::Record>,
    latest: Option<BlockId>,
    config: ServeConfig,
}

impl<S: ShardableModel> ShardSet<S> {
    /// Builds the empty sharded state from a validated config
    /// (`shards ≥ 2`, unrestricted window).
    pub fn new(config: &ServeConfig) -> Result<ShardSet<S>> {
        let n = config.shards;
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(S::maintainer(config)?);
        }
        let model = shards[0].fresh();
        let miner = CompactSequenceMiner::with_window(S::oracle(config), config.pattern_window)?;
        Ok(ShardSet {
            shards,
            model,
            miner,
            latest: None,
            config: config.clone(),
        })
    }

    /// Applies the next arriving block: validate the id, register into
    /// the owning shard (store + pair materialization), absorb into the
    /// global model with per-shard counting, feed the pattern miner.
    /// A replayed or out-of-order id is rejected before any state moves.
    pub fn add_block(&mut self, block: Block<S::Record>) -> Result<()> {
        let id = block.id();
        check_sequential(id, self.latest)?;
        let s = shard_of(id, self.shards.len());
        self.shards[s].register_block(block.clone());
        S::absorb_sharded(&mut self.model, &self.shards, id, &self.config)?;
        self.miner.add_block(block);
        self.latest = Some(id);
        Ok(())
    }

    /// Builds the immutable replica of the current state.
    pub fn replica(&self, epoch: u64) -> Replica<S> {
        Replica {
            epoch,
            blocks: self.latest.map_or(0, BlockId::value),
            model: Some(self.model.clone()),
            render_ctx: S::render_ctx(&self.shards[0]),
            model_json: OnceLock::new(),
            sequences: self.miner.current_sequences(),
            shard_blocks: shard_blocks(self.latest, self.shards.len()),
        }
    }
}

impl<S: ShardableModel> AppliedState<S> for ShardSet<S> {
    fn add_block(&mut self, block: Block<S::Record>) -> Result<()> {
        ShardSet::add_block(self, block)
    }

    fn latest(&self) -> Option<BlockId> {
        self.latest
    }

    fn replica(&self, epoch: u64) -> Replica<S> {
        ShardSet::replica(self, epoch)
    }

    fn resume_at(&mut self, first: BlockId) {
        self.latest = first.prev();
    }

    /// The global model and the per-shard stores cover the whole stream.
    fn oldest_needed(&self) -> BlockId {
        BlockId::FIRST
    }

    /// Gathers every held block, in block-id order, into one fresh
    /// maintainer — the plain 1-shard register path — and saves that: a
    /// sharded daemon exports the bytes a 1-shard daemon does.
    fn save_snapshot(&self, dir: &Path) -> Result<u64> {
        let mut config = self.config.clone();
        config.store_config = scratch_store_config(&config.store_config);
        let mut gathered = S::maintainer(&config)?;
        for id in (1..=self.latest.map_or(0, BlockId::value)).map(BlockId) {
            let owner = &self.shards[shard_of(id, self.shards.len())];
            gathered.register_block(S::block(owner, id)?);
        }
        S::save_snapshot(&gathered, dir)
    }
}

/// One immutable snapshot of the queryable state. Built by the
/// sequencer after every applied block; readers hold an `Arc` and never
/// block ingest.
pub struct Replica<S: ServableModel> {
    /// Monotone swap counter (one per applied block + the recovery
    /// publish).
    pub epoch: u64,
    /// The stream position when this replica was built: the latest
    /// applied block id (0 before the first).
    pub blocks: u64,
    /// The model at this epoch (`None`: a windowed engine that has seen
    /// no block yet).
    model: Option<MaintainedModel<S>>,
    render_ctx: S::RenderCtx,
    /// The model's canonical JSON, rendered at most once, by the first
    /// query that needs it.
    model_json: OnceLock<String>,
    /// The compact block sequences — the exact `QuerySequences` body.
    pub sequences: Vec<Vec<BlockId>>,
    /// Blocks owned per shard, for `Stats` and the imbalance gauge.
    pub shard_blocks: Vec<u64>,
}

impl<S: ServableModel> Replica<S> {
    /// The model as canonical JSON — the exact `QueryModel` body, byte-
    /// identical to what the batch pipeline prints for the same blocks.
    /// Rendered on first call (`serve.replica_lazy_renders`) and
    /// memoized for the replica's lifetime; replicas swapped out by a
    /// write burst before anyone queries them never pay serialization
    /// at all.
    pub fn model_json(&self) -> std::result::Result<&str, String> {
        if let Some(json) = self.model_json.get() {
            return Ok(json);
        }
        let model = self
            .model
            .as_ref()
            .ok_or("no model yet (no blocks ingested)")?;
        let rendered = S::render_model_json(&self.render_ctx, model).map_err(|e| match e {
            DemonError::Serde(msg) => msg,
            other => other.to_string(),
        })?;
        // Two queries can race the first render; exactly one `set` wins
        // and only the winner counts as the lazy render.
        if self.model_json.set(rendered).is_ok() {
            obs::incr(Counter::ServeReplicaLazyRenders);
        }
        Ok(self.model_json.get().expect("just initialized"))
    }
}

/// The epoch-swapped replica pointer: an arc-swap-style flip built from
/// std parts. `load` clones the `Arc` under a momentary lock (no reader
/// ever waits on ingest work — the critical section is two refcount
/// bumps); `store` flips the pointer and bumps
/// `serve.shard.replica_swaps`.
pub struct ReplicaCell<S: ServableModel> {
    current: Mutex<Arc<Replica<S>>>,
}

impl<S: ServableModel> ReplicaCell<S> {
    /// Wraps the initial replica.
    pub fn new(replica: Replica<S>) -> ReplicaCell<S> {
        ReplicaCell {
            current: Mutex::new(Arc::new(replica)),
        }
    }

    /// The current replica.
    pub fn load(&self) -> Arc<Replica<S>> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Publishes a new replica (the epoch flip).
    pub fn store(&self, replica: Replica<S>) {
        let mut cur = self.current.lock().unwrap_or_else(|e| e.into_inner());
        *cur = Arc::new(replica);
        obs::incr(Counter::ServeReplicaSwaps);
    }
}
