//! The serving abstraction: what a model class must provide to be
//! hosted by the daemon.
//!
//! The daemon itself is generic — one queue, one sequencer, one WAL,
//! one wire protocol. Everything class-specific funnels through
//! [`ServableModel`]:
//!
//! | Capability | Trait hook |
//! |---|---|
//! | wire tag + name | [`ServableModel::CLASS`] |
//! | build the maintainer / oracle | [`ServableModel::maintainer`], [`ServableModel::oracle`] |
//! | per-block wire meta (universe / dim) | [`ServableModel::block_meta`], [`ServableModel::meta_mismatch`] |
//! | block-record wire codec | [`ServableModel::encode_records`], [`ServableModel::decode_records`] |
//! | model → canonical JSON | [`ServableModel::render_model_json`] |
//! | the held blocks (`Snapshot`) | [`ServableModel::held_meta`], [`ServableModel::visit_held`] |
//! | exact shard merge (optional) | [`ShardableModel`] |
//!
//! Four classes implement it: [`ItemsetModel`] (frequent itemsets over
//! transaction blocks), [`ClusterModel`] (BIRCH+ over point blocks),
//! [`TreeModel`] (windowed decision trees over labeled points) and
//! [`DbscanModel`] (incremental DBSCAN density models). No class
//! chooses its engine: [`ServableModel::build_monitor`] has one body,
//! and `DemonEngine::new` picks the engine from the maintainer — a
//! `--window` tree fits once per block, a `--window` DBSCAN model slides
//! by *deleting* the departing block's points, itemsets and BIRCH+ run
//! GEMM.
//!
//! ## Sharding is a capability, not a default
//!
//! `--shards ≥ 2` ([`crate::shard::ShardSet`]) splits every update-phase
//! count over the held blocks into per-shard shares and needs the merge
//! to be *exact*: the model must be byte-identical to the 1-shard model.
//! Frequent-itemset supports are additive over disjoint block sets, so
//! [`ItemsetModel`] implements [`ShardableModel`]. A CF-tree's shape
//! depends on insertion order across the whole stream and a decision
//! tree refits over every covered record, so neither clusters nor trees
//! can merge shards exactly — they deliberately do **not** implement
//! [`ShardableModel`], and `--shards ≥ 2` with `--model clusters|trees`
//! is refused with the typed [`DemonError::ShardsUnsupported`] instead
//! of silently serving approximate answers.
//!
//! ## Snapshots
//!
//! A snapshot is what the `Snapshot` verb exports — no part of a
//! daemon's own durable state, which is its log alone — and it is the
//! same thing: a WAL root, one `IngestBlock` record per held block,
//! written for every class by the one generic writer
//! ([`crate::sequencer::write_root`]) from the two hooks that reach the
//! maintainer's blocks. A daemon binds it like its own `--wal-dir`, and
//! every batch command reads it.

use std::path::Path;

use crate::sequencer::write_root;
use crate::server::ServeConfig;
use demon_clustering::{BirchParams, DbscanParams};
use demon_core::bss::{BlockSelector, WiBss};
use demon_core::engine::DataSpan;
use demon_core::maintainer::ModelMaintainer;
use demon_core::monitor::DemonMonitor;
use demon_core::{ClusterMaintainer, DbscanMaintainer, ItemsetMaintainer, TreeMaintainer};
use demon_focus::similarity::{
    ClusterSimilarity, DbscanSimilarity, ItemsetSimilarity, SimilarityConfig, SimilarityOracle,
    TreeSimilarity,
};
use demon_itemsets::store::{decode_block_txs, encode_block_txs};
use demon_store::{BlockEntry, BlockStore};
use demon_trees::{LabeledPoint, TreeParams};
use demon_types::durable::{self, Reader, Row};
use demon_types::{Block, BlockId, DemonError, ModelClass, Point, Result};

/// The maintained model type of a servable class.
pub type MaintainedModel<S> = <<S as ServableModel>::Maintainer as ModelMaintainer>::Model;

/// Everything the daemon needs from a model class. All hooks are
/// associated functions — implementors are zero-sized markers, never
/// instantiated.
pub trait ServableModel: Sized + Send + Sync + 'static {
    /// The record type of the monitored block stream.
    type Record: Clone + Send + Sync + 'static;
    /// The incremental maintainer (paper §3.1).
    type Maintainer: ModelMaintainer<Record = Self::Record> + Send + Sync + 'static;
    /// The FOCUS similarity oracle feeding the pattern miner.
    type Oracle: SimilarityOracle<Self::Record> + Send + Sync + 'static;
    /// What [`ServableModel::render_model_json`] needs besides the model
    /// itself (e.g. the BIRCH phase-2 parameters). `()` when rendering
    /// is pure serialization.
    type RenderCtx: Clone + Send + Sync + 'static;

    /// The wire/WAL class tag.
    const CLASS: ModelClass;

    /// Builds the maintainer from the daemon config.
    fn maintainer(config: &ServeConfig) -> Result<Self::Maintainer>;

    /// Builds the full monitor (engine + pattern miner) from the daemon
    /// config: `--window` maps to the all-ones most-recent-window span,
    /// and `DemonEngine::new` picks the engine. Every class runs this one
    /// body; no class overrides it.
    fn build_monitor(config: &ServeConfig) -> Result<DemonMonitor<Self::Maintainer, Self::Oracle>> {
        let span = match config.window {
            None => DataSpan::Unrestricted(WiBss::All),
            Some(w) => DataSpan::MostRecent {
                w,
                selector: BlockSelector::all(),
            },
        };
        DemonMonitor::new(
            Self::maintainer(config)?,
            span,
            Self::oracle(config),
            config.pattern_window,
        )
    }

    /// Builds the similarity oracle from the daemon config.
    fn oracle(config: &ServeConfig) -> Self::Oracle;

    /// The per-block wire meta this daemon expects (item-universe size
    /// for itemsets, point dimensionality for clusters and trees).
    fn block_meta(config: &ServeConfig) -> u32;

    /// The typed-refusal text when a client's block meta disagrees with
    /// the daemon's, or `None` when they agree.
    fn meta_mismatch(expected: u32, got: u32) -> Option<String>;

    /// Encodes a block's records (records only — id and interval travel
    /// at the protocol layer).
    fn encode_records(block: &Block<Self::Record>) -> Result<Vec<u8>>;

    /// Decodes a record payload, validating against `meta`.
    fn decode_records(payload: &[u8], id: BlockId, meta: u32) -> Result<Vec<Self::Record>>;

    /// Captures whatever rendering needs from the maintainer.
    fn render_ctx(maintainer: &Self::Maintainer) -> Self::RenderCtx;

    /// The model as canonical JSON — the exact `QueryModel` body, byte-
    /// identical to what the batch pipeline prints for the same blocks.
    fn render_model_json(ctx: &Self::RenderCtx, model: &MaintainedModel<Self>) -> Result<String>;

    /// The block meta of the blocks `maintainer` holds — what their log
    /// records carry.
    fn held_meta(maintainer: &Self::Maintainer) -> u32;

    /// Hands every block `maintainer` holds to `visit`, ascending by id,
    /// one at a time.
    fn visit_held(
        maintainer: &Self::Maintainer,
        visit: &mut dyn FnMut(&Block<Self::Record>) -> Result<()>,
    ) -> Result<()>;

    /// Writes the maintainer's blocks to `dir` as a WAL root,
    /// all-or-nothing; returns the number of blocks written.
    fn save_snapshot(maintainer: &Self::Maintainer, dir: &Path) -> Result<u64> {
        write_root::<Self>(dir, Self::held_meta(maintainer), |put| {
            Self::visit_held(maintainer, put)
        })
    }
}

/// The optional exact shard-merge capability behind `--shards ≥ 2`.
///
/// Implementing this is a *proof obligation*: the model absorbed via
/// [`ShardableModel::absorb_sharded`], its counts over the held blocks
/// taken per shard and merged, must be byte-identical to the model
/// [`ModelMaintainer::absorb`] produces from the same stream. Classes
/// whose models depend on global insertion order (CF-trees, refitted
/// decision trees) must not implement it — the daemon then refuses
/// sharding with the typed [`DemonError::ShardsUnsupported`].
pub trait ShardableModel: ServableModel {
    /// Absorbs block `id`, registered with `maintainer`, into `model`,
    /// counting over the `n_shards` residue classes of the held block ids
    /// ([`demon_itemsets::shard_of`]) and merging in shard order.
    fn absorb_sharded(
        model: &mut MaintainedModel<Self>,
        maintainer: &Self::Maintainer,
        n_shards: usize,
        id: BlockId,
    ) -> Result<()>;
}

/// Frequent itemsets + compact sequences — the default class.
pub enum ItemsetModel {}

impl ServableModel for ItemsetModel {
    type Record = demon_types::Transaction;
    type Maintainer = ItemsetMaintainer;
    type Oracle = ItemsetSimilarity;
    type RenderCtx = ();

    const CLASS: ModelClass = ModelClass::Itemsets;

    fn maintainer(config: &ServeConfig) -> Result<ItemsetMaintainer> {
        ItemsetMaintainer::with_store_config(
            config.n_items,
            config.minsup,
            config.counter,
            &config.store_config,
        )
    }

    fn oracle(config: &ServeConfig) -> ItemsetSimilarity {
        ItemsetSimilarity::new(
            config.n_items,
            config.minsup,
            SimilarityConfig::Threshold {
                alpha: config.alpha,
            },
        )
    }

    fn block_meta(config: &ServeConfig) -> u32 {
        config.n_items
    }

    fn meta_mismatch(expected: u32, got: u32) -> Option<String> {
        (got != expected).then(|| {
            format!("item universe mismatch: client encoded {got}, server monitors {expected}")
        })
    }

    fn encode_records(block: &Block<Self::Record>) -> Result<Vec<u8>> {
        Ok(encode_block_txs(block))
    }

    fn decode_records(payload: &[u8], id: BlockId, meta: u32) -> Result<Vec<Self::Record>> {
        Ok(decode_block_txs(payload, id, meta)?.into_records())
    }

    fn render_ctx(_maintainer: &ItemsetMaintainer) -> Self::RenderCtx {}

    fn render_model_json((): &Self::RenderCtx, model: &MaintainedModel<Self>) -> Result<String> {
        serde_json::to_string(model)
            .map_err(|e| DemonError::Serde(format!("model serialization: {e}")))
    }

    fn held_meta(maintainer: &ItemsetMaintainer) -> u32 {
        maintainer.store().n_items()
    }

    fn visit_held(
        maintainer: &ItemsetMaintainer,
        visit: &mut dyn FnMut(&Block<Self::Record>) -> Result<()>,
    ) -> Result<()> {
        let store = maintainer.store();
        for &id in store.block_ids() {
            visit(&*store.try_block(id)?.ok_or(DemonError::UnknownBlock(id.value()))?)?;
        }
        Ok(())
    }
}

impl ShardableModel for ItemsetModel {
    fn absorb_sharded(
        model: &mut MaintainedModel<Self>,
        maintainer: &ItemsetMaintainer,
        n_shards: usize,
        id: BlockId,
    ) -> Result<()> {
        model.absorb_block_sharded(maintainer.store(), n_shards, id, maintainer.counter())?;
        Ok(())
    }
}

/// BIRCH+ cluster maintenance over point blocks.
pub enum ClusterModel {}

impl ClusterModel {
    fn params(config: &ServeConfig) -> BirchParams {
        BirchParams::new(config.dim, config.k)
    }
}

impl ServableModel for ClusterModel {
    type Record = Point;
    type Maintainer = ClusterMaintainer;
    type Oracle = ClusterSimilarity;
    type RenderCtx = BirchParams;

    const CLASS: ModelClass = ModelClass::Clusters;

    fn maintainer(config: &ServeConfig) -> Result<ClusterMaintainer> {
        ClusterMaintainer::with_store_config(Self::params(config), &config.store_config)
    }

    fn oracle(config: &ServeConfig) -> ClusterSimilarity {
        ClusterSimilarity::new(Self::params(config), config.alpha)
    }

    fn block_meta(config: &ServeConfig) -> u32 {
        config.dim as u32
    }

    fn meta_mismatch(expected: u32, got: u32) -> Option<String> {
        dim_mismatch(expected, got)
    }

    fn encode_records(block: &Block<Point>) -> Result<Vec<u8>> {
        encode_rows(block)
    }

    fn decode_records(payload: &[u8], id: BlockId, meta: u32) -> Result<Vec<Point>> {
        decode_rows(payload, id, meta)
    }

    fn render_ctx(maintainer: &ClusterMaintainer) -> BirchParams {
        *maintainer.params()
    }

    fn render_model_json(params: &BirchParams, model: &MaintainedModel<Self>) -> Result<String> {
        serde_json::to_string(&demon_clustering::phase2_model(model, params))
            .map_err(|e| DemonError::Serde(format!("model serialization: {e}")))
    }

    fn held_meta(maintainer: &ClusterMaintainer) -> u32 {
        maintainer.params().tree.dim as u32
    }

    fn visit_held(
        maintainer: &ClusterMaintainer,
        visit: &mut dyn FnMut(&Block<Point>) -> Result<()>,
    ) -> Result<()> {
        visit_entries(maintainer.store(), visit)
    }
}

/// Incremental DBSCAN density models over point blocks.
///
/// Shares [`ClusterModel`]'s wire codec and block storage (raw point
/// blocks in [`demon_clustering::PointBlockEntry`]); differs in
/// the maintainer (deletion-capable [`DbscanMaintainer`]), the oracle
/// (core-reachability deviation) and the rendered body (the canonical
/// [`demon_clustering::DbscanSummary`]). Its maintainer can shed a
/// block, so [`DemonEngine::new`](demon_core::DemonEngine::new) slides
/// its `--window` by deletion.
pub enum DbscanModel {}

impl DbscanModel {
    fn params(config: &ServeConfig) -> DbscanParams {
        DbscanParams::new(config.dim, config.eps, config.min_pts)
    }
}

impl ServableModel for DbscanModel {
    type Record = Point;
    type Maintainer = DbscanMaintainer;
    type Oracle = DbscanSimilarity;
    type RenderCtx = ();

    const CLASS: ModelClass = ModelClass::Density;

    fn maintainer(config: &ServeConfig) -> Result<DbscanMaintainer> {
        DbscanMaintainer::with_store_config(Self::params(config), &config.store_config)
    }

    fn oracle(config: &ServeConfig) -> DbscanSimilarity {
        DbscanSimilarity::new(Self::params(config), config.alpha)
    }

    fn block_meta(config: &ServeConfig) -> u32 {
        config.dim as u32
    }

    fn meta_mismatch(expected: u32, got: u32) -> Option<String> {
        dim_mismatch(expected, got)
    }

    fn encode_records(block: &Block<Point>) -> Result<Vec<u8>> {
        encode_rows(block)
    }

    fn decode_records(payload: &[u8], id: BlockId, meta: u32) -> Result<Vec<Point>> {
        decode_rows(payload, id, meta)
    }

    fn render_ctx(_maintainer: &DbscanMaintainer) -> Self::RenderCtx {}

    fn render_model_json((): &Self::RenderCtx, model: &MaintainedModel<Self>) -> Result<String> {
        serde_json::to_string(&model.summary())
            .map_err(|e| DemonError::Serde(format!("model serialization: {e}")))
    }

    fn held_meta(maintainer: &DbscanMaintainer) -> u32 {
        maintainer.params().dim as u32
    }

    fn visit_held(
        maintainer: &DbscanMaintainer,
        visit: &mut dyn FnMut(&Block<Point>) -> Result<()>,
    ) -> Result<()> {
        visit_entries(maintainer.store(), visit)
    }
}

/// Windowed decision trees over labeled point blocks.
pub enum TreeModel {}

impl TreeModel {
    fn params(config: &ServeConfig) -> TreeParams {
        TreeParams::new(config.classes)
    }
}

impl ServableModel for TreeModel {
    type Record = LabeledPoint;
    type Maintainer = TreeMaintainer;
    type Oracle = TreeSimilarity;
    type RenderCtx = ();

    const CLASS: ModelClass = ModelClass::Trees;

    fn maintainer(config: &ServeConfig) -> Result<TreeMaintainer> {
        TreeMaintainer::with_store_config(config.dim, Self::params(config), &config.store_config)
    }

    fn oracle(config: &ServeConfig) -> TreeSimilarity {
        TreeSimilarity::new(config.dim, Self::params(config), config.alpha)
    }

    fn block_meta(config: &ServeConfig) -> u32 {
        config.dim as u32
    }

    fn meta_mismatch(expected: u32, got: u32) -> Option<String> {
        dim_mismatch(expected, got)
    }

    fn encode_records(block: &Block<LabeledPoint>) -> Result<Vec<u8>> {
        encode_rows(block)
    }

    fn decode_records(payload: &[u8], id: BlockId, meta: u32) -> Result<Vec<LabeledPoint>> {
        decode_rows(payload, id, meta)
    }

    fn render_ctx(_maintainer: &TreeMaintainer) -> Self::RenderCtx {}

    fn render_model_json((): &Self::RenderCtx, model: &MaintainedModel<Self>) -> Result<String> {
        serde_json::to_string(model)
            .map_err(|e| DemonError::Serde(format!("model serialization: {e}")))
    }

    fn held_meta(maintainer: &TreeMaintainer) -> u32 {
        maintainer.dim() as u32
    }

    fn visit_held(
        maintainer: &TreeMaintainer,
        visit: &mut dyn FnMut(&Block<LabeledPoint>) -> Result<()>,
    ) -> Result<()> {
        visit_entries(maintainer.store(), visit)
    }
}

/// The dimension-mismatch refusal shared by the point-record classes.
fn dim_mismatch(expected: u32, got: u32) -> Option<String> {
    (got != expected)
        .then(|| format!("dimension mismatch: client encoded {got}, server expects {expected}"))
}

/// The wire payload of a numeric block: the `count | rows` section of
/// its spill frame (the dimensionality travels as the request's `meta`).
fn encode_rows<R: Row>(block: &Block<R>) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    durable::put_rows(&mut buf, block.id(), block.records())?;
    Ok(buf)
}

/// Decodes an [`encode_rows`] payload of `dim`-dimensional rows. The
/// payload length must match exactly — a short or padded payload is a
/// typed error, never a partial block.
fn decode_rows<R: Row>(payload: &[u8], id: BlockId, dim: u32) -> Result<Vec<R>> {
    let mut r = Reader::new(payload);
    r.rows(dim as usize)
        .and_then(|rows| r.finish("the last record").map(|()| rows))
        .map_err(|e| match e {
            DemonError::Serde(detail) => DemonError::Serde(format!("block {id}: {detail}")),
            other => other,
        })
}

/// [`ServableModel::visit_held`] over the block storage engine the
/// point classes hold their blocks in.
fn visit_entries<R: Row + Clone + Send + Sync>(
    store: &BlockStore<BlockEntry<R>>,
    visit: &mut dyn FnMut(&Block<R>) -> Result<()>,
) -> Result<()> {
    for id in store.ids() {
        visit(&store.get(id)?.ok_or(DemonError::UnknownBlock(id.value()))?.0)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::{BlockInterval, Timestamp};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("demon-serve-model-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn point_block(id: u64) -> Block<Point> {
        Block::with_interval(
            BlockId(id),
            BlockInterval::new(Timestamp(id), Timestamp(id + 1)),
            (0..6)
                .map(|i| Point::new(vec![i as f64 * 0.5, -(i as f64)]))
                .collect(),
        )
    }

    fn labeled_block(id: u64) -> Block<LabeledPoint> {
        Block::new(
            BlockId(id),
            (0..6)
                .map(|i| LabeledPoint::new(vec![i as f64, 1.0 - i as f64], (i % 2) as u32))
                .collect(),
        )
    }

    #[test]
    fn point_records_roundtrip_and_validate() {
        let block = point_block(3);
        let payload = ClusterModel::encode_records(&block).expect("encode");
        let records = ClusterModel::decode_records(&payload, BlockId(3), 2).expect("decode");
        assert_eq!(records, block.records());
        // Wrong dimension: the exact-length check refuses the payload.
        assert!(ClusterModel::decode_records(&payload, BlockId(3), 3).is_err());
        assert!(ClusterModel::decode_records(&payload[..payload.len() - 1], BlockId(3), 2).is_err());
    }

    #[test]
    fn labeled_records_roundtrip_and_validate() {
        let block = labeled_block(7);
        let payload = TreeModel::encode_records(&block).expect("encode");
        let records = TreeModel::decode_records(&payload, BlockId(7), 2).expect("decode");
        assert_eq!(records, block.records());
        assert!(TreeModel::decode_records(&payload, BlockId(7), 5).is_err());
        assert!(TreeModel::decode_records(&payload[..7], BlockId(7), 2).is_err());
    }

    /// A snapshot is a WAL root of the held blocks, written for every
    /// class by the one writer: it reads back record-identical, and a
    /// root of one class is refused by a reader of another.
    #[test]
    fn a_snapshot_is_a_root_of_the_held_blocks() {
        use crate::sequencer::read_root;
        let tmp = scratch("snapshot");
        let dir = tmp.join("snap");
        let mut maintainer = ClusterMaintainer::new(BirchParams::new(2, 2));
        for id in [1, 2] {
            maintainer.register_block(point_block(id));
        }
        assert_eq!(ClusterModel::save_snapshot(&maintainer, &dir).expect("save"), 2);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("root")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .collect();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names.contains(&"CURRENT".to_string()) && names.contains(&"wal-0.log".to_string()));

        let mut log = read_root(&dir, Some(ModelClass::Clusters)).expect("read");
        let blocks: Vec<_> = log.blocks::<ClusterModel>(Some(2)).collect::<Result<_>>().expect("decode");
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].records(), point_block(1).records());
        assert_eq!(blocks[1].interval(), point_block(2).interval());

        let err = read_root(&dir, Some(ModelClass::Trees)).err().expect("cross-class read");
        assert!(
            matches!(&err, DemonError::ModelClassMismatch { expected, got }
                if expected == "trees" && got == "clusters"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
