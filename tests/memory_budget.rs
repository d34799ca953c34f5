//! Memory-budget acceptance: replays that exceed `--memory-budget` must
//! evict (`store.evictions > 0`) yet produce **byte-identical** models —
//! frequent itemsets, BIRCH+ trees, and GEMM window models — versus the
//! unbounded in-memory run, at 1 and 8 threads.
//!
//! The budget/thread sweeps live in one `#[test]` because they read the
//! process-wide thread default and the global obs counters, and Rust
//! runs tests of one binary concurrently (same reasoning as
//! `tests/determinism.rs`). The retire/evict interplay tests below do
//! not touch globals and run as ordinary tests.

use demon::core::bss::BlockSelector;
use demon::core::{ClusterMaintainer, Gemm, ItemsetMaintainer, ModelMaintainer};
use demon::datagen::{QuestGen, QuestParams};
use demon::itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon::store::StoreConfig;
use demon::types::obs::{self, Counter};
use demon::types::parallel::set_global;
use demon::types::{
    Block, BlockId, MinSupport, Parallelism, Point, Tid, Transaction, TxBlock,
};
use std::path::PathBuf;

const N_ITEMS: u32 = 80;
/// Far below the footprint of even one block: every fetch cycles disk.
const BUDGET: u64 = 4096;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demon-membudget-{}-{name}", std::process::id()))
}

fn budget_config(name: &str) -> StoreConfig {
    StoreConfig::budget(tmp(name), BUDGET)
}

fn quest_stream(n_blocks: u64, per_block: usize) -> Vec<TxBlock> {
    let params = QuestParams {
        n_transactions: 0,
        avg_tx_len: 6.0,
        n_items: N_ITEMS,
        n_patterns: 25,
        avg_pattern_len: 3.0,
        ..QuestParams::default()
    };
    let mut gen = QuestGen::new(params, 7);
    let mut tid = 1u64;
    (1..=n_blocks)
        .map(|id| {
            let txs: Vec<Transaction> = gen
                .take_transactions(per_block)
                .into_iter()
                .map(|t| {
                    let tx = Transaction::from_sorted(Tid(tid), t.items().to_vec());
                    tid += 1;
                    tx
                })
                .collect();
            Block::new(BlockId(id), txs)
        })
        .collect()
}

fn point_stream(n_blocks: u64, per_block: usize) -> Vec<Block<Point>> {
    (1..=n_blocks)
        .map(|id| {
            let pts = (0..per_block)
                .map(|i| {
                    let t = (id * 1000 + i as u64) as f64;
                    Point::new(vec![(t * 0.37).sin() * 5.0, (t * 0.11).cos() * 5.0])
                })
                .collect();
            Block::new(BlockId(id), pts)
        })
        .collect()
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("model serializes")
}

fn k(v: f64) -> MinSupport {
    MinSupport::new(v).unwrap()
}

#[test]
fn budgeted_runs_evict_but_match_unbounded_models() {
    let blocks = quest_stream(6, 150);
    let points = point_stream(4, 120);
    let minsup = k(0.02);

    // Unbounded references, computed once at the serial default.
    set_global(Parallelism::new(1));
    let reference_mine = {
        let mut store = TxStore::new(N_ITEMS);
        for b in &blocks {
            store.add_block(b.clone());
        }
        let ids: Vec<BlockId> = store.block_ids().to_vec();
        json(&FrequentItemsets::mine_from(&store, &ids, minsup).unwrap())
    };
    let reference_gemm = gemm_current_models(
        ItemsetMaintainer::new(N_ITEMS, minsup, CounterKind::EcutPlus),
        &blocks,
        1,
    );
    let reference_birch = {
        let maintainer = ClusterMaintainer::new(demon::clustering::BirchParams::new(2, 4));
        json(&birch_tree(maintainer, &points))
    };

    for threads in [1usize, 8] {
        set_global(Parallelism::new(threads));
        obs::reset();
        obs::enable();

        // Frequent itemsets mined over a budget-bound store.
        let mined = {
            let mut store =
                TxStore::with_config(N_ITEMS, &budget_config(&format!("mine-{threads}")))
                    .unwrap();
            for b in &blocks {
                store.add_block(b.clone());
            }
            assert!(
                store.resident_bytes() <= BUDGET,
                "store must honor the budget at rest ({} > {BUDGET})",
                store.resident_bytes()
            );
            let ids: Vec<BlockId> = store.block_ids().to_vec();
            json(&FrequentItemsets::mine_from(&store, &ids, minsup).unwrap())
        };

        // GEMM window models over a budget-bound maintainer store.
        let maintainer = ItemsetMaintainer::with_store_config(
            N_ITEMS,
            minsup,
            CounterKind::EcutPlus,
            &budget_config(&format!("gemm-{threads}")),
        )
        .unwrap();
        let windowed = gemm_current_models(maintainer, &blocks, threads);

        // BIRCH+ CF-tree over budget-bound point blocks.
        let budgeted_birch = {
            let maintainer = ClusterMaintainer::with_store_config(
                demon::clustering::BirchParams::new(2, 4),
                &budget_config(&format!("birch-{threads}")),
            )
            .unwrap();
            json(&birch_tree(maintainer, &points))
        };

        let evictions = obs::counter_value(Counter::StoreEvictions);
        let spilled = obs::counter_value(Counter::StoreBytesSpilled);
        obs::disable();

        assert!(evictions > 0, "nothing evicted at {threads} threads");
        assert!(spilled > 0, "nothing spilled at {threads} threads");
        assert_eq!(mined, reference_mine, "mine differs at {threads} threads");
        assert_eq!(
            windowed, reference_gemm,
            "GEMM window models differ at {threads} threads"
        );
        assert_eq!(
            budgeted_birch, reference_birch,
            "BIRCH+ tree differs at {threads} threads"
        );
    }
    set_global(Parallelism::new(0));
}

/// Replays `blocks` through a w=3 GEMM (retirement on) and returns the
/// JSON of the current window model after every block.
fn gemm_current_models(
    maintainer: ItemsetMaintainer,
    blocks: &[TxBlock],
    threads: usize,
) -> Vec<String> {
    let mut gemm = Gemm::new(maintainer, 3, BlockSelector::all())
        .unwrap()
        .with_parallelism(Parallelism::new(threads));
    blocks
        .iter()
        .map(|b| {
            gemm.add_block(b.clone()).unwrap();
            json(gemm.current_model().expect("model after add"))
        })
        .collect()
}

fn birch_tree(
    maintainer: ClusterMaintainer,
    points: &[Block<Point>],
) -> <ClusterMaintainer as ModelMaintainer>::Model {
    let mut maintainer = maintainer;
    let mut tree = maintainer.fresh();
    for b in points {
        maintainer.register_block(b.clone());
        maintainer.absorb(&mut tree, b.id());
    }
    tree
}

/// MRW + retirement over a long replay: retired blocks leave the store
/// entirely, and the resident footprint stays bounded by the window —
/// not by the stream length.
#[test]
fn retirement_keeps_resident_bytes_window_bounded() {
    let blocks = quest_stream(16, 60);

    // Footprint of the whole stream when nothing retires or spills.
    let total_bytes = {
        let mut store = TxStore::new(N_ITEMS);
        for b in &blocks {
            store.add_block(b.clone());
        }
        store.resident_bytes()
    };

    let maintainer = ItemsetMaintainer::with_store_config(
        N_ITEMS,
        k(0.02),
        CounterKind::Ecut,
        &budget_config("retire"),
    )
    .unwrap();
    let mut gemm = Gemm::new(maintainer, 3, BlockSelector::all()).unwrap();
    for b in &blocks {
        gemm.add_block(b.clone()).unwrap();
        assert!(
            gemm.maintainer().store().resident_bytes() <= total_bytes / 2,
            "resident bytes track the stream, not the window"
        );
    }
    let store = gemm.maintainer().store();
    // Window start is 14: every block below it was retired and dropped.
    for id in 1..=13u64 {
        assert!(
            store.block(BlockId(id)).is_none(),
            "retired block {id} still present"
        );
    }
    assert!(store.block(BlockId(14)).is_some());
    assert_eq!(store.len(), 3, "exactly the window blocks remain");
}

/// Retiring a block someone still holds pinned must not invalidate the
/// reader: the engine defers the removal until the pin drops. (At the
/// `TxStore` level the borrow checker already forbids `remove_block`
/// while a `BlockRef` is alive; maintainers like `ClusterMaintainer`
/// retire through `&self` engine handles, where deferral matters.)
#[test]
fn retiring_a_pinned_block_is_deferred() {
    use demon::clustering::PointBlockEntry;
    use demon::store::{BlockEntry, BlockStore};

    let store: BlockStore<PointBlockEntry> = budget_config("pinned")
        .build("points")
        .unwrap();
    for b in point_stream(2, 40) {
        store.insert(b.id(), BlockEntry(b));
    }

    let guard = store.get(BlockId(1)).unwrap().expect("block 1 present");
    let seen_before = guard.0.len();
    assert!(store.remove(BlockId(1)), "removal is accepted");
    // The pinned reader still sees the full block...
    assert_eq!(guard.0.len(), seen_before);
    assert!(!guard.0.is_empty());
    // ...but the store has already delisted it.
    assert_eq!(store.len(), 1);
    assert!(!store.contains(BlockId(1)));
    drop(guard);
    // Once unpinned the block is gone for good.
    assert!(store.get(BlockId(1)).unwrap().is_none());
    assert!(store.get(BlockId(2)).unwrap().is_some());
}
