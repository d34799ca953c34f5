//! Every decoder reachable from a socket or a disk file, fed bytes it
//! did not write: arbitrary bytes, and valid encodings with bytes
//! overwritten and the tail cut. The contract is the one
//! `demon_types::durable::Reader` exists to enforce in one place —
//! **never a panic, never an allocation the input cannot justify**.
//!
//! The allocation half is measured, not assumed: a counting global
//! allocator records the largest single request made while a decoder
//! runs. In-memory records are wider than their wire form (a 2-byte
//! transaction becomes a 32-byte `Transaction`), so the bound is a fixed
//! multiple of the input length, not the length itself — what matters is
//! that a forged count field cannot size a buffer.

use demon::itemsets::TxStore;
use demon::serve::model::{ClusterModel, DbscanModel, ItemsetModel, ServableModel, TreeModel};
use demon::serve::sequencer::read_root;
use demon::serve::{Request, Response, WireError};
use demon::store::{BlockEntry, Spillable, StoreConfig};
use demon::trees::LabeledPoint;
use demon::types::durable::{encode_frame, FrameClass};
use demon::types::wal::{decode_wal_records, encode_wal_record};
use demon::types::{
    Block, BlockId, BlockInterval, Item, ModelClass, Point, Tid, Timestamp, Transaction,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

thread_local! {
    /// Largest single allocation request on this thread since the last
    /// reset. Const-initialized and destructor-free, so touching it from
    /// inside the allocator can neither allocate nor run after teardown.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct PeakTracking;

fn note(size: usize) {
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only updates a
// thread-local integer and never allocates.
unsafe impl GlobalAlloc for PeakTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation
        // and `new_size` is the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakTracking = PeakTracking;

/// Runs `decode` and asserts its largest allocation stayed within a
/// fixed multiple of the `input_len` bytes it was handed.
fn bounded<T>(what: &str, input_len: usize, decode: impl FnOnce() -> T) -> T {
    PEAK.with(|peak| peak.set(0));
    let out = decode();
    let peak = PEAK.with(Cell::get);
    let bound = 32 * input_len + 512;
    assert!(
        peak <= bound,
        "{what}: a {peak}-byte allocation from {input_len} input bytes (bound {bound})"
    );
    out
}

fn interval() -> Option<BlockInterval> {
    Some(BlockInterval::new(Timestamp(10), Timestamp(20)))
}

fn point_block() -> Block<Point> {
    Block::from_parts(
        BlockId(3),
        interval(),
        (0..5).map(|i| Point::new(vec![i as f64, -0.5 * i as f64])).collect(),
    )
}

fn labeled_block() -> Block<LabeledPoint> {
    Block::new(
        BlockId(4),
        (0..5).map(|i| LabeledPoint::new(vec![i as f64, 1.0], i % 2)).collect(),
    )
}

fn tx_block() -> Block<Transaction> {
    Block::from_parts(
        BlockId(1),
        interval(),
        (0..6u64)
            .map(|t| Transaction::new(Tid(100 + t), vec![Item(t as u32 % 3), Item(3 + t as u32 % 2)]))
            .collect(),
    )
}

const N_ITEMS: u32 = 6;

fn ingest<S: ServableModel>(block: &Block<S::Record>, meta: u32) -> Vec<u8> {
    Request::IngestBlock {
        class: S::CLASS.tag(),
        id: block.id(),
        interval: block.interval(),
        meta,
        payload: S::encode_records(block).expect("encode records"),
    }
    .encode()
}

/// A write-through transaction store whose one spill file the tests
/// overwrite: reading block 1 back is `TxEntry::decode` over whatever
/// payload the file frames (the type itself is private to the crate).
struct TxEntryProbe {
    store: TxStore,
    dir: PathBuf,
}

impl TxEntryProbe {
    fn new(name: &str) -> TxEntryProbe {
        let dir = std::env::temp_dir().join(format!("demon-fuzz-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig::budget(dir.clone(), 0);
        let mut store = TxStore::with_config(N_ITEMS, &config).expect("spill store");
        store.add_block(tx_block());
        store.materialize_pairs(BlockId(1), &[(Item(0), Item(3))], None);
        TxEntryProbe { store, dir }
    }

    fn file(&self) -> PathBuf {
        self.dir.join("tx").join("block_1.bin")
    }

    /// The payload the store itself spilled (frame header stripped).
    fn valid_payload(&self) -> Vec<u8> {
        std::fs::read(self.file()).expect("spill file")[20..].to_vec()
    }

    fn decode(&self, payload: &[u8]) {
        let (frame, _) = encode_frame(FrameClass::TXENTRY, payload);
        std::fs::write(self.file(), frame).expect("plant payload");
        // The frame, its read buffer and the path are input-sized too.
        bounded("TxEntry::decode", payload.len() + 256, || {
            let _ = self.store.try_block(BlockId(1));
        });
    }
}

/// A WAL root whose one log file the tests overwrite: reading it is the
/// reader a daemon's bind and every batch command share, records decoded
/// and all.
struct RootProbe {
    dir: PathBuf,
}

impl RootProbe {
    fn new(name: &str) -> RootProbe {
        let dir = std::env::temp_dir().join(format!("demon-fuzz-root-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("root dir");
        RootProbe { dir }
    }

    fn replay<S: ServableModel>(&self, class: ModelClass) {
        if let Ok(mut log) = read_root(&self.dir, Some(class)) {
            log.blocks::<S>(None).for_each(drop);
        }
    }

    fn decode(&self, bytes: &[u8]) {
        std::fs::write(self.dir.join("wal-0.log"), bytes).expect("plant log");
        // The file's read buffer and the paths are input-sized too.
        bounded("read_root", bytes.len() + 256, || {
            self.replay::<ItemsetModel>(ModelClass::Itemsets);
            self.replay::<ClusterModel>(ModelClass::Clusters);
        });
    }
}

/// Valid encodings of every frame class, as mutation seeds.
fn seeds(probe: &TxEntryProbe) -> Vec<Vec<u8>> {
    let wal: Vec<u8> = (0..3u64)
        .flat_map(|seq| encode_wal_record(seq, 1, &ingest::<ItemsetModel>(&tx_block(), N_ITEMS)))
        .collect();
    vec![
        ingest::<ItemsetModel>(&tx_block(), N_ITEMS),
        ingest::<ClusterModel>(&point_block(), 2),
        ingest::<TreeModel>(&labeled_block(), 2),
        Request::Snapshot { dir: "/tmp/snap".into() }.encode(),
        Response::Sequences(vec![vec![BlockId(1), BlockId(3)], vec![], vec![BlockId(9)]]).encode(),
        Response::Err(WireError::Duplicate { id: 2, latest: 7 }).encode(),
        Response::Model("{\"x\":1}".into()).encode(),
        ItemsetModel::encode_records(&tx_block()).expect("encode"),
        ClusterModel::encode_records(&point_block()).expect("encode"),
        TreeModel::encode_records(&labeled_block()).expect("encode"),
        BlockEntry(point_block()).encode().expect("encode"),
        BlockEntry(labeled_block()).encode().expect("encode"),
        probe.valid_payload(),
        wal,
    ]
}

/// Hands `bytes` to every decoder. Results are ignored — garbage may
/// happen to decode — panics and oversized allocations are not.
fn decode_everything(probe: &TxEntryProbe, root: &RootProbe, bytes: &[u8]) {
    let n = bytes.len();
    bounded("Request::decode", n, || drop(Request::decode(bytes)));
    bounded("Response::decode", n, || drop(Response::decode(bytes)));
    for meta in [0, 2, N_ITEMS, u32::MAX] {
        let id = BlockId(1);
        bounded("itemsets decode_records", n, || drop(ItemsetModel::decode_records(bytes, id, meta)));
        bounded("clusters decode_records", n, || drop(ClusterModel::decode_records(bytes, id, meta)));
        bounded("dbscan decode_records", n, || drop(DbscanModel::decode_records(bytes, id, meta)));
        bounded("trees decode_records", n, || drop(TreeModel::decode_records(bytes, id, meta)));
    }
    bounded("BlockEntry::<Point>::decode", n, || drop(BlockEntry::<Point>::decode(bytes)));
    bounded("BlockEntry::<LabeledPoint>::decode", n, || {
        drop(BlockEntry::<LabeledPoint>::decode(bytes))
    });
    bounded("decode_wal_records", n, || drop(decode_wal_records(bytes, "fuzz")));
    probe.decode(bytes);
    root.decode(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_or_overallocate(
        bytes in prop::collection::vec(0u8..=255, 0..200),
    ) {
        let probe = TxEntryProbe::new("arbitrary");
        decode_everything(&probe, &RootProbe::new("arbitrary"), &bytes);
    }

    /// Valid encodings with up to four bytes overwritten and the tail
    /// cut: the decoders get past the first field, where the counts are.
    #[test]
    fn damaged_encodings_never_panic_or_overallocate(
        which in 0usize..64,
        edits in prop::collection::vec((0usize..4096, 0u8..=255), 0..4),
        keep in 0.0f64..1.2,
    ) {
        let probe = TxEntryProbe::new("damaged");
        let seeds = seeds(&probe);
        let mut bytes = seeds[which % seeds.len()].clone();
        for (at, value) in edits {
            let at = at % bytes.len();
            bytes[at] = value;
        }
        bytes.truncate((bytes.len() as f64 * keep) as usize);
        decode_everything(&probe, &RootProbe::new("damaged"), &bytes);
    }
}

/// The forged-count inputs the property tests would need luck to hit: a
/// maximal count in front of no data, in every count encoding.
#[test]
fn forged_counts_are_refused_before_allocation() {
    let huge_u64 = u64::MAX.to_le_bytes();
    let huge_varint = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];

    // count | rows with a zero-width row: no byte count bounds `count`.
    assert!(bounded("zero-dim rows", 8, || ClusterModel::decode_records(&huge_u64, BlockId(1), 0)).is_err());
    let mut spill = BlockEntry(Block::<Point>::new(BlockId(1), Vec::new())).encode().expect("encode");
    let at = spill.len() - 8;
    spill[at..].copy_from_slice(&huge_u64);
    assert!(bounded("zero-dim spill", spill.len(), || BlockEntry::<Point>::decode(&spill)).is_err());

    assert!(bounded("tx count", 10, || ItemsetModel::decode_records(&huge_varint, BlockId(1), N_ITEMS)).is_err());

    let mut sequences = vec![2u8];
    sequences.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(bounded("sequence count", 5, || Response::decode(&sequences)).is_err());

    // An inverted interval is refused where it enters, not asserted on
    // deep inside the engine.
    let mut request = ingest::<ClusterModel>(&point_block(), 2);
    request[11..19].copy_from_slice(&99u64.to_le_bytes());
    assert!(Request::decode(&request).is_err());
}
