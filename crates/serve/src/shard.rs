//! The state the sequencer applies blocks to, and the immutable
//! replicas readers see of it.
//!
//! * [`AppliedState`] is the one seam between the runtime and the
//!   mining state. `shards = 1`: [`MonitorState`], whatever monitor the
//!   class builds (`--window`/GEMM and the DBSCAN sliding engine
//!   included). `shards ≥ 2`: [`ShardSet`], for classes with an exact
//!   shard merge ([`ShardableModel`]). Either holds **one** maintainer —
//!   one store under the one `--memory-budget` — one model and one
//!   pattern miner.
//! * **A shard is a share of a counting pass.** Block `b` belongs to
//!   shard `(b − 1) mod N` ([`shard_of`]: round-robin by block id, so
//!   every prefix of the stream is balanced to within one block), and the
//!   only thing `N` decides is how an update-phase count over the held
//!   blocks is split: [`ShardableModel::absorb_sharded`] counts the `N`
//!   residue classes on up to `N` workers and merges them in shard order.
//!   Itemsets qualify (supports are additive over disjoint block sets;
//!   [`demon_itemsets::count_supports_sharded`] reuses the
//!   `demon_types::parallel` per-shard-merge discipline), so their model
//!   is byte-identical at any shard count; clusters, trees and density
//!   models do not, and are refused at bind with the typed
//!   `ShardsUnsupported` error. `ShardSet` maintains the unrestricted
//!   model only, which is why `--window` needs `--shards 1`.
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
//! * **Snapshot export**: both states save straight from their live
//!   maintainer ([`ServableModel::save_snapshot`]) — the same store at
//!   any shard count, so the same bytes, and no copy of any block.

use crate::model::{MaintainedModel, ServableModel, ShardableModel};
use crate::server::ServeConfig;
use demon_core::engine::check_sequential;
use demon_core::maintainer::ModelMaintainer;
use demon_core::monitor::DemonMonitor;
use demon_focus::compact::CompactSequenceMiner;
pub use demon_itemsets::shard_of;
use demon_types::obs::{self, Counter};
use demon_types::{Block, BlockId, DemonError, Result};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

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
    // Every whole round gives each shard one block; the last, partial
    // round is dealt by the rule.
    let mut blocks = vec![t / n; n_shards];
    for id in (t - t % n + 1..=t).map(BlockId) {
        blocks[shard_of(id, n_shards)] += 1;
    }
    blocks
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

/// The `shards ≥ 2` state: the 1-shard register path into one
/// maintainer, one model absorbed with the class's exact per-shard
/// counting, one pattern miner.
pub struct ShardSet<S: ShardableModel> {
    maintainer: S::Maintainer,
    n_shards: usize,
    model: MaintainedModel<S>,
    miner: CompactSequenceMiner<S::Oracle, S::Record>,
    latest: Option<BlockId>,
}

impl<S: ShardableModel> ShardSet<S> {
    /// Builds the empty sharded state from a validated config
    /// (`shards ≥ 2`, unrestricted window).
    pub fn new(config: &ServeConfig) -> Result<ShardSet<S>> {
        let maintainer = S::maintainer(config)?;
        let model = maintainer.fresh();
        let miner = CompactSequenceMiner::with_window(S::oracle(config), config.pattern_window)?;
        Ok(ShardSet {
            maintainer,
            n_shards: config.shards,
            model,
            miner,
            latest: None,
        })
    }

    /// Applies the next arriving block: validate the id, register it
    /// (store + pair materialization), absorb it into the model with
    /// per-shard counting, feed the pattern miner. A replayed or
    /// out-of-order id is rejected before any state moves.
    pub fn add_block(&mut self, block: Block<S::Record>) -> Result<()> {
        let id = block.id();
        check_sequential(id, self.latest)?;
        self.maintainer.register_block(block.clone());
        S::absorb_sharded(&mut self.model, &self.maintainer, self.n_shards, id)?;
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
            render_ctx: S::render_ctx(&self.maintainer),
            model_json: OnceLock::new(),
            sequences: self.miner.current_sequences(),
            shard_blocks: shard_blocks(self.latest, self.n_shards),
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

    /// The model and the store cover the whole stream.
    fn oldest_needed(&self) -> BlockId {
        BlockId::FIRST
    }

    fn save_snapshot(&self, dir: &Path) -> Result<u64> {
        S::save_snapshot(&self.maintainer, dir)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ItemsetModel;
    use demon_datagen::{QuestGen, QuestParams};
    use demon_store::StoreConfig;
    use demon_types::{MinSupport, TxBlock};

    const N_ITEMS: u32 = 80;

    /// The state a daemon builds at `config.shards`, with its one store
    /// in reach.
    enum State {
        One(Box<MonitorState<ItemsetModel>>),
        Many(Box<ShardSet<ItemsetModel>>),
    }

    impl State {
        fn new(config: &ServeConfig) -> State {
            if config.shards == 1 {
                State::One(Box::new(MonitorState::new(config).expect("monitor state")))
            } else {
                State::Many(Box::new(ShardSet::new(config).expect("shard set")))
            }
        }

        fn applied(&mut self) -> &mut dyn AppliedState<ItemsetModel> {
            match self {
                State::One(state) => state.as_mut(),
                State::Many(state) => state.as_mut(),
            }
        }

        fn resident_bytes(&self) -> u64 {
            let maintainer = match self {
                State::One(state) => state.monitor.engine().maintainer(),
                State::Many(state) => &state.maintainer,
            };
            maintainer.store().resident_bytes()
        }
    }

    fn quest_stream(n_blocks: u64) -> Vec<TxBlock> {
        let params = QuestParams {
            n_transactions: 0,
            avg_tx_len: 6.0,
            n_items: N_ITEMS,
            n_patterns: 25,
            avg_pattern_len: 3.0,
            ..QuestParams::default()
        };
        let mut gen = QuestGen::new(params, 7);
        (1..=n_blocks)
            .map(|id| Block::new(BlockId(id), gen.take_transactions(100)))
            .collect()
    }

    /// `--memory-budget` bounds the daemon, not a shard of it: under a
    /// budget of four blocks the one store is within it whenever
    /// `add_block` has returned, the same blocks spill at every shard
    /// count, and the model is the unbudgeted one.
    #[test]
    fn the_memory_budget_bounds_the_daemon_at_any_shard_count() {
        let blocks = quest_stream(32);
        let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(0.02).unwrap());
        config.pattern_window = Some(2); // the miner is not under test

        // Unbudgeted: nothing is evicted, so the store grows by each
        // block's footprint.
        let mut unbudgeted = State::new(&config);
        let mut largest = 0;
        for block in &blocks {
            let before = unbudgeted.resident_bytes();
            unbudgeted.applied().add_block(block.clone()).expect("add_block");
            largest = largest.max(unbudgeted.resident_bytes() - before);
        }
        let budget = 4 * largest;
        let model = |state: &mut State| state.applied().replica(0).model_json().unwrap().to_string();
        let reference = model(&mut unbudgeted);

        let spill = std::env::temp_dir().join(format!("demon-shard-budget-{}", std::process::id()));
        let mut spilled = Vec::new();
        for shards in [1, 2, 4, 8] {
            let _ = std::fs::remove_dir_all(&spill);
            config.shards = shards;
            config.store_config = StoreConfig::budget(spill.clone(), budget);
            let mut state = State::new(&config);
            for block in &blocks {
                state.applied().add_block(block.clone()).expect("add_block");
                let resident = state.resident_bytes();
                assert!(resident <= budget, "{shards} shard(s), {}: {resident} > {budget}", block.id());
            }
            assert_eq!(model(&mut state), reference, "{shards} shard(s)");
            spilled.push(std::fs::read_dir(spill.join("tx")).expect("the one spill directory").count());
        }
        assert!(spilled[0] >= 28, "four of 32 blocks fit the budget: {spilled:?}");
        assert_eq!(spilled, [spilled[0]; 4], "spilled blocks at 1, 2, 4 and 8 shards");
        let _ = std::fs::remove_dir_all(&spill);
    }

    #[test]
    fn shard_blocks_deals_the_stream_round_robin() {
        assert_eq!(shard_blocks(None, 4), [0, 0, 0, 0]);
        assert_eq!(shard_blocks(Some(BlockId(6)), 4), [2, 2, 1, 1]);
        assert_eq!(shard_blocks(Some(BlockId(8)), 4), [2, 2, 2, 2]);
        assert_eq!(shard_blocks(Some(BlockId(5)), 1), [5]);
    }
}
