//! End-to-end test of the Figure-11 composition: one web-trace stream
//! feeding model maintenance (GEMM over the most recent window) and
//! pattern detection (compact sequences) simultaneously.

use demon::clustering::{BirchParams, DbscanParams};
use demon::core::bss::{BlockSelector, WiBss};
use demon::core::engine::DataSpan;
use demon::core::monitor::DemonMonitor;
use demon::core::{
    ClusterMaintainer, DbscanMaintainer, ItemsetMaintainer, ModelMaintainer, TreeMaintainer,
};
use demon::datagen::webtrace::{self, WebTraceConfig, WebTraceGen};
use demon::focus::{
    CachedSimilarity, ClusterSimilarity, DbscanSimilarity, ItemsetSimilarity, SimilarityConfig,
    TreeSimilarity,
};
use demon::itemsets::{derive_rules, CounterKind};
use demon::trees::{LabeledPoint, TreeParams};
use demon::types::{Block, BlockId, Item, MinSupport, Point, Tid, Timestamp, Transaction};

#[test]
fn monitor_runs_the_full_demonic_view_over_the_trace() {
    let mut gen = WebTraceGen::new(WebTraceConfig {
        days: 10,
        base_rate: 200.0,
        ..WebTraceConfig::default()
    });
    let requests = gen.generate();
    // Daily blocks aligned to midnight of day 1.
    let blocks = webtrace::segment_into_blocks(&requests, 24, Timestamp::from_day_hour(1, 0));
    assert_eq!(blocks.len(), 9);

    let minsup = MinSupport::new(0.01).unwrap();
    let maintainer = ItemsetMaintainer::new(webtrace::N_ITEMS, minsup, CounterKind::EcutPlus);
    let oracle = ItemsetSimilarity::new(
        webtrace::N_ITEMS,
        minsup,
        SimilarityConfig::Threshold { alpha: 0.12 },
    );
    let mut monitor = DemonMonitor::new(
        maintainer,
        DataSpan::MostRecent {
            w: 5,
            selector: BlockSelector::all(),
        },
        oracle,
        None,
    )
    .unwrap();

    let mut anomaly_flagged = false;
    for block in blocks {
        let day = block.interval().unwrap().start.day();
        let stats = monitor.add_block(block).unwrap();
        assert!(stats.maintenance.absorbed);
        if day == webtrace::ANOMALY_DAY {
            anomaly_flagged = stats.patterns.similar_pairs == 0;
        }
    }
    assert!(anomaly_flagged, "the anomalous Monday matched earlier blocks");

    // Model side: the window model covers the last 5 blocks and yields
    // usable association rules.
    let model = monitor.model().unwrap();
    assert_eq!(model.included_blocks().len(), 5);
    assert!(model.n_frequent() > 0);
    let rules = derive_rules(model, 0.5);
    assert!(!rules.is_empty(), "the trace's type→bucket structure yields rules");

    // Pattern side: a working-day sequence exists and excludes the anomaly.
    let seqs = monitor.sequences();
    let longest = seqs.iter().max_by_key(|s| s.len()).expect("sequences exist");
    assert!(longest.len() >= 4, "{seqs:?}");
    // Block ids are 1-based over days 1..=9; the anomaly day 7 is block 7.
    assert!(
        !longest.contains(&BlockId(webtrace::ANOMALY_DAY)),
        "anomalous block inside the dominant pattern: {longest:?}"
    );
}

/// Feeds `10·w` blocks and checks, after every one, that the oracle
/// holds a model for no block that has left the pattern window.
fn assert_model_cache_is_window_bounded<M, X>(
    mut monitor: DemonMonitor<M, CachedSimilarity<M::Record, X>>,
    w: usize,
    block: impl Fn(u64) -> Block<M::Record>,
) where
    M: ModelMaintainer + Sync,
    M::Record: Clone + Sync,
    X: Send + Sync,
{
    for id in 1..=10 * w as u64 {
        monitor.add_block(block(id)).unwrap();
        let cached = monitor.miner().oracle().cached_models();
        assert!(cached <= w + 1, "{cached} models cached after block {id} at w = {w}");
    }
    assert_eq!(monitor.miner().n_live(), w);
    assert_eq!(monitor.miner().oracle().cached_models(), w);
}

/// Under a pattern window every class's oracle forgets a block's model
/// when the block slides out: the cache never holds more than the live
/// blocks plus the arriving one, however long the stream.
#[test]
fn pattern_window_bounds_the_model_cache_of_every_class() {
    let w = 3;
    let unrestricted = || DataSpan::Unrestricted(WiBss::All);
    // Two alternating populations, so verdicts of both kinds occur.
    let points = |id: u64| -> Vec<Vec<f64>> {
        let center = (id % 2) as f64 * 20.0;
        (0..40)
            .map(|i| vec![center + f64::from(i % 8) * 0.2, f64::from(i / 8) * 0.2])
            .collect()
    };

    let minsup = MinSupport::new(0.1).unwrap();
    assert_model_cache_is_window_bounded(
        DemonMonitor::new(
            ItemsetMaintainer::new(8, minsup, CounterKind::Ecut),
            unrestricted(),
            ItemsetSimilarity::new(8, minsup, SimilarityConfig::Threshold { alpha: 0.2 }),
            Some(w),
        )
        .unwrap(),
        w,
        |id| {
            let item = Item((id % 2) as u32 * 2);
            let txs = (0..20)
                .map(|i| Transaction::new(Tid(id * 100 + i), vec![item, Item(item.0 + 1)]))
                .collect();
            Block::new(BlockId(id), txs)
        },
    );

    let point_block =
        |id: u64| Block::new(BlockId(id), points(id).into_iter().map(Point::new).collect());
    let birch = BirchParams::new(2, 2);
    assert_model_cache_is_window_bounded(
        DemonMonitor::new(
            ClusterMaintainer::new(birch),
            unrestricted(),
            ClusterSimilarity::new(birch, 0.3),
            Some(w),
        )
        .unwrap(),
        w,
        point_block,
    );

    let dbscan = DbscanParams::new(2, 0.5, 3);
    assert_model_cache_is_window_bounded(
        DemonMonitor::new(
            DbscanMaintainer::new(dbscan),
            DataSpan::MostRecent {
                w: 4,
                selector: BlockSelector::all(),
            },
            DbscanSimilarity::new(dbscan, 0.3),
            Some(w),
        )
        .unwrap(),
        w,
        point_block,
    );

    let tree = TreeParams::new(2);
    assert_model_cache_is_window_bounded(
        DemonMonitor::new(
            TreeMaintainer::new(2, tree),
            DataSpan::MostRecent {
                w: 4,
                selector: BlockSelector::all(),
            },
            TreeSimilarity::new(2, tree, 0.3),
            Some(w),
        )
        .unwrap(),
        w,
        |id| {
            let labeled = points(id)
                .into_iter()
                .enumerate()
                .map(|(i, p)| LabeledPoint::new(p, (i % 2) as u32))
                .collect();
            Block::new(BlockId(id), labeled)
        },
    );
}
