//! Byte-level pins of every format a block crosses a boundary in: the
//! three spill frames and the `IngestBlock` request of every model class
//! — which is also the body of every record of a WAL root, the one
//! on-disk form of a block stream.
//!
//! Each case asserts both directions against a checked-in fixture under
//! `tests/golden/codec/`: what the encoder writes today is the fixture,
//! byte for byte, and what the decoder reads out of the fixture is the
//! value that was encoded. The fixtures were written once by the
//! encoders of the commit that introduced this file and are never
//! edited — a codec refactor that moves a single byte fails here before
//! it can strand a WAL directory or a spill file written by an older
//! binary. (`DEMON_BLESS_CODEC=1` rewrites them; only a deliberate
//! format-version bump may do that.)
//!
//! Only long-stable public entry points are used (maintainers over a
//! write-through spill config, `ServableModel` hooks, the WAL reader),
//! so the file compiles unchanged on either side of such a refactor.

use demon::clustering::BirchParams;
use demon::core::{ClusterMaintainer, ModelMaintainer, TreeMaintainer};
use demon::itemsets::TxStore;
use demon::serve::model::{ClusterModel, DbscanModel, ItemsetModel, ServableModel, TreeModel};
use demon::serve::Request;
use demon::store::StoreConfig;
use demon::trees::{LabeledPoint, TreeParams};
use demon::types::wal;
use demon::types::{Block, BlockId, BlockInterval, Item, Point, Tid, Timestamp, Transaction};
use std::path::{Path, PathBuf};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/codec")
        .join(name)
}

/// Asserts `bytes` equal the named fixture (or writes it when blessing)
/// and returns the fixture's bytes for the decode half of the case.
fn pinned(name: &str, bytes: &[u8]) -> Vec<u8> {
    let path = fixture_path(name);
    if std::env::var_os("DEMON_BLESS_CODEC").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("fixture dir");
        std::fs::write(&path, bytes).expect("bless fixture");
    }
    let fixture = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (DEMON_BLESS_CODEC=1 writes it)", path.display()));
    assert_eq!(
        bytes,
        &fixture[..],
        "{name}: the encoder no longer writes the pinned bytes"
    );
    fixture
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("demon-codec-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A write-through spill config: with a budget of 0 every registered
/// block is on disk, in its spill frame, as soon as the call returns.
fn write_through(dir: &Path) -> StoreConfig {
    StoreConfig::budget(dir.to_path_buf(), 0)
}

fn interval() -> BlockInterval {
    BlockInterval::new(Timestamp(1_000), Timestamp(4_600))
}

fn point_block() -> Block<Point> {
    Block::with_interval(
        BlockId(3),
        interval(),
        vec![
            Point::new(vec![1.5, -2.25]),
            Point::new(vec![f64::MIN_POSITIVE, 1e300]),
            Point::new(vec![0.0, -0.0]),
        ],
    )
}

fn labeled_block() -> Block<LabeledPoint> {
    Block::new(
        BlockId(9),
        vec![
            LabeledPoint::new(vec![0.5, -1.5], 0),
            LabeledPoint::new(vec![2.0, 3.0], 1),
            LabeledPoint::new(vec![-7.125, 1e-9], 4_000_000_000),
        ],
    )
}

fn tx_block() -> Block<Transaction> {
    let tx = |tid: u64, items: &[u32]| {
        Transaction::new(Tid(tid), items.iter().copied().map(Item).collect())
    };
    Block::with_interval(
        BlockId(7),
        interval(),
        vec![
            tx(100, &[0, 1, 2]),
            tx(101, &[0, 1]),
            tx(300, &[3]),
            tx(70_000, &[1, 4, 5]),
        ],
    )
}

const N_ITEMS: u32 = 6;

#[test]
fn points_spill_frame_is_pinned() {
    let dir = scratch("points");
    let mut m = ClusterMaintainer::with_store_config(BirchParams::new(2, 2), &write_through(&dir))
        .expect("maintainer");
    let block = point_block();
    m.register_block(block.clone());
    let file = dir.join("points").join("block_3.bin");
    let fixture = pinned("spill_points.bin", &std::fs::read(&file).expect("spill file"));

    std::fs::write(&file, fixture).expect("plant fixture");
    let back = m.store().get(BlockId(3)).expect("readable").expect("present");
    assert_eq!(back.0.id(), block.id());
    assert_eq!(back.0.interval(), block.interval());
    assert_eq!(back.0.records(), block.records());
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn labeled_spill_frame_is_pinned() {
    let dir = scratch("labeled");
    let mut m = TreeMaintainer::with_store_config(2, TreeParams::new(2), &write_through(&dir))
        .expect("maintainer");
    let block = labeled_block();
    m.register_block(block.clone());
    let file = dir.join("labeled").join("block_9.bin");
    let fixture = pinned("spill_labeled.bin", &std::fs::read(&file).expect("spill file"));

    std::fs::write(&file, fixture).expect("plant fixture");
    let back = m.store().get(BlockId(9)).expect("readable").expect("present");
    assert_eq!(back.0.id(), block.id());
    assert_eq!(back.0.interval(), None);
    assert_eq!(back.0.records(), block.records());
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The transaction-store entry: block header with an interval, the
/// `.txs` section, the item lists and one ECUT+ pair list.
#[test]
fn txentry_spill_frame_is_pinned() {
    let dir = scratch("txentry");
    let mut store = TxStore::with_config(N_ITEMS, &write_through(&dir)).expect("store");
    let block = tx_block();
    store.add_block(block.clone());
    let stats = store.materialize_pairs(BlockId(7), &[(Item(0), Item(1))], None);
    assert_eq!(stats.pairs_materialized, 1);
    let file = dir.join("tx").join("block_7.bin");
    let fixture = pinned("spill_txentry.bin", &std::fs::read(&file).expect("spill file"));

    std::fs::write(&file, fixture).expect("plant fixture");
    assert_eq!(store.resident_bytes(), 0, "write-through keeps nothing resident");
    let back = store.block(BlockId(7)).expect("present");
    assert_eq!(back.interval(), block.interval());
    assert_eq!(back.records(), block.records());
    drop(back);
    let lists = store.tidlists().block(BlockId(7)).expect("present");
    assert_eq!(lists.item_list(Item(1)), &[Tid(100), Tid(101), Tid(70_000)]);
    assert_eq!(
        lists.pair_list(Item(0), Item(1)),
        Some(&[Tid(100), Tid(101)][..])
    );
    assert!(lists.pair_list(Item(1), Item(4)).is_none());
    drop(lists);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Encodes `block` as class `S`'s `IngestBlock` request, pins the bytes,
/// and decodes the fixture back to the same block.
fn ingest_request_case<S: ServableModel>(name: &str, block: &Block<S::Record>, meta: u32)
where
    S::Record: PartialEq + std::fmt::Debug,
{
    let request = Request::IngestBlock {
        class: S::CLASS.tag(),
        id: block.id(),
        interval: block.interval(),
        meta,
        payload: S::encode_records(block).expect("encode records"),
    };
    let fixture = pinned(name, &request.encode());
    match Request::decode(&fixture).expect("fixture decodes") {
        Request::IngestBlock {
            class,
            id,
            interval,
            meta: back_meta,
            payload,
        } => {
            assert_eq!(class, S::CLASS.tag());
            assert_eq!(id, block.id());
            assert_eq!(interval, block.interval());
            assert_eq!(back_meta, meta);
            let records = S::decode_records(&payload, id, meta).expect("records decode");
            assert_eq!(records, block.records());
        }
        other => panic!("{name} decoded to {other:?}"),
    }
}

#[test]
fn ingest_requests_of_all_four_classes_are_pinned() {
    ingest_request_case::<ItemsetModel>("ingest_itemsets.bin", &tx_block(), N_ITEMS);
    ingest_request_case::<ClusterModel>("ingest_clusters.bin", &point_block(), 2);
    ingest_request_case::<DbscanModel>("ingest_dbscan.bin", &point_block(), 2);
    ingest_request_case::<TreeModel>("ingest_trees.bin", &labeled_block(), 2);
}

/// A root's records are those requests: a snapshot of a block holds,
/// as the body of its one record, the pinned bytes of its `IngestBlock`.
#[test]
fn a_snapshot_root_logs_the_pinned_ingest_request() {
    let dir = scratch("root");
    let mut m = ClusterMaintainer::new(BirchParams::new(2, 2));
    m.register_block(point_block());
    let snap = dir.join("snap");
    assert_eq!(ClusterModel::save_snapshot(&m, &snap).expect("save"), 1);
    let log = wal::read_wal(&wal::wal_file_path(&snap, 0)).expect("wal-0.log");
    assert!(log.torn.is_none(), "{:?}", log.torn);
    let fixture = std::fs::read(fixture_path("ingest_clusters.bin")).expect("fixture");
    let bodies: Vec<&[u8]> = log.records.iter().map(|r| r.body.as_slice()).collect();
    assert_eq!(bodies, [&fixture[..]]);
    let _ = std::fs::remove_dir_all(&dir);
}
