//! Golden-experiment regression suite: fixed-seed reproductions of the
//! paper's Section-6 experiment shapes, each checked against a golden
//! file under `tests/golden/`.
//!
//! Every test asserts the *cross-agreement* property in code (the
//! experiment's point), then pins the concrete result to a golden file so
//! any behavioural drift — a changed count, a moved centroid, a different
//! detected sequence — fails loudly with a line diff.
//!
//! Regenerate goldens after an intentional change with
//!
//! ```text
//! DEMON_BLESS=1 cargo test --test golden_experiments
//! ```
//!
//! and review the resulting `tests/golden/*.json` diff like any other
//! code change.

use demon::clustering::{Birch, BirchParams, BirchPlus, DbscanParams};
use demon::core::bss::{BlockSelector, WiBss, WrBss};
use demon::core::{Gemm, ItemsetMaintainer};
use demon::datagen::{
    ClusterDataGen, ClusterParams, DensityDriftGen, DriftingQuestGen, QuestGen, QuestParams,
    Shape, ShapeParams,
};
use demon::focus::{
    ClusterSimilarity, CompactSequenceMiner, DbscanSimilarity, ItemsetSimilarity,
    SimilarityConfig, SimilarityOracle,
};
use demon::itemsets::{count_supports_with, CounterKind, FrequentItemsets, TxStore};
use demon::store::StoreConfig;
use demon::types::{
    Block, BlockId, ItemSet, MinSupport, Parallelism, Point, PointBlock, Tid, Transaction,
    TxBlock,
};
use serde_json::{json, Value};
use std::path::PathBuf;

// ---------------------------------------------------------------- harness

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Compares `actual` against `tests/golden/<name>.json`. With
/// `DEMON_BLESS=1` the golden is (re)written instead. On divergence the
/// test fails with a per-line diff of the pretty-printed JSON.
fn golden_check(name: &str, actual: &Value) {
    let path = golden_path(name);
    let rendered = serde_json::to_string_pretty(actual).unwrap();
    if std::env::var("DEMON_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{rendered}\n")).unwrap();
        return;
    }
    let expected = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!(
            "missing golden {}: {e}\n\
             run `DEMON_BLESS=1 cargo test --test golden_experiments` to create it",
            path.display()
        ),
    };
    let expected = expected.trim_end();
    if expected == rendered {
        return;
    }
    let mut diff = String::new();
    let (exp, act): (Vec<&str>, Vec<&str>) =
        (expected.lines().collect(), rendered.lines().collect());
    for i in 0..exp.len().max(act.len()) {
        match (exp.get(i), act.get(i)) {
            (Some(e), Some(a)) if e == a => {}
            (e, a) => {
                diff.push_str(&format!(
                    "  line {:>4}: golden {:?}\n             actual {:?}\n",
                    i + 1,
                    e.unwrap_or(&"<absent>"),
                    a.unwrap_or(&"<absent>")
                ));
            }
        }
    }
    panic!(
        "golden mismatch for {name} ({}):\n{diff}\
         if the change is intentional, re-bless with \
         `DEMON_BLESS=1 cargo test --test golden_experiments`",
        path.display()
    );
}

/// Fixed-seed Quest stream shared by the itemset experiments.
fn quest_stream(n_blocks: u64, per_block: usize, seed: u64, n_items: u32) -> Vec<TxBlock> {
    let params = QuestParams {
        n_transactions: 0,
        avg_tx_len: 6.0,
        n_items,
        n_patterns: 30,
        avg_pattern_len: 3.0,
        ..QuestParams::default()
    };
    let mut gen = QuestGen::new(params, seed);
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

fn k(v: f64) -> MinSupport {
    MinSupport::new(v).unwrap()
}

/// CI runs this suite twice: with `DEMON_OBS=1` every experiment executes
/// with the recorder enabled, checking that instrumentation never perturbs
/// results or goldens.
fn maybe_enable_recorder() {
    if std::env::var("DEMON_OBS").as_deref() == Ok("1") {
        demon::types::obs::enable();
    }
}

/// Renders the most frequent itemsets as stable `"itemset count"` strings.
fn top_sets(model: &FrequentItemsets, n: usize) -> Vec<String> {
    let mut sorted = model.frequent_sorted();
    sorted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    sorted
        .iter()
        .take(n)
        .map(|(s, c)| format!("{s} {c}"))
        .collect()
}

// ------------------------------------------------------------ experiments

/// §6.1 shape: every counting backend (PT-Scan, ECUT, ECUT+) agrees on
/// the support of every negative-border candidate, and the counts
/// themselves are pinned.
#[test]
fn counting_backends_agree_on_border_counts() {
    maybe_enable_recorder();
    counting_border_experiment(&StoreConfig::InMemory);
}

/// The same §6.1 experiment under a tight memory budget — every block
/// spilled to disk and faulted back through the storage engine — must
/// match the *same* blessed golden byte-for-byte.
#[test]
fn counting_border_matches_golden_under_tight_budget() {
    maybe_enable_recorder();
    let dir = std::env::temp_dir().join(format!(
        "demon-golden-budget-counting-{}",
        std::process::id()
    ));
    counting_border_experiment(&StoreConfig::budget(dir, 4096));
}

fn counting_border_experiment(config: &StoreConfig) {
    let n_items = 80;
    let blocks = quest_stream(3, 150, 11, n_items);
    let mut store = TxStore::with_config(n_items, config).unwrap();
    let mut ids = Vec::new();
    for b in &blocks {
        ids.push(b.id());
        store.add_block(b.clone());
    }
    let model = FrequentItemsets::mine_from(&store, &ids, k(0.05)).unwrap();
    let pairs = model.frequent_pairs_by_support();
    for &id in &ids {
        store.materialize_pairs(id, &pairs, None);
    }
    let mut candidates: Vec<ItemSet> = model
        .border()
        .keys()
        .filter(|s| s.len() >= 2)
        .cloned()
        .collect();
    candidates.sort();
    assert!(candidates.len() >= 10, "workload too small to be meaningful");

    let reference = count_supports_with(
        CounterKind::PtScan,
        &store,
        &ids,
        &candidates,
        Parallelism::serial(),
    );
    for kind in [CounterKind::Ecut, CounterKind::EcutPlus] {
        let r = count_supports_with(kind, &store, &ids, &candidates, Parallelism::serial());
        assert_eq!(
            reference.counts,
            r.counts,
            "{} disagrees with PT-Scan",
            kind.name()
        );
    }

    let counts: Vec<String> = candidates
        .iter()
        .zip(&reference.counts)
        .map(|(s, c)| format!("{s} {c}"))
        .collect();
    golden_check(
        "counting_border",
        &json!({
            "n_items": n_items,
            "minsup": "0.05",
            "n_candidates": candidates.len(),
            "counts": counts,
        }),
    );
}

/// §4 shape: after streaming the whole block sequence, GEMM's maintained
/// most-recent-window model equals mining the selected blocks from
/// scratch — under a window-independent and a window-relative BSS.
#[test]
fn gemm_window_model_matches_from_scratch() {
    maybe_enable_recorder();
    gemm_window_experiment(&StoreConfig::InMemory);
}

/// The §4 GEMM experiment with the maintainer's block store under a
/// tight memory budget — identical golden as the unbounded run.
#[test]
fn gemm_window_matches_golden_under_tight_budget() {
    maybe_enable_recorder();
    let dir = std::env::temp_dir().join(format!(
        "demon-golden-budget-gemm-{}",
        std::process::id()
    ));
    gemm_window_experiment(&StoreConfig::budget(dir, 4096));
}

fn gemm_window_experiment(config: &StoreConfig) {
    let n_items = 80;
    let blocks = quest_stream(6, 150, 29, n_items);
    let selectors: [(&str, BlockSelector); 2] = [
        (
            "wi_periodic_10",
            BlockSelector::WindowIndependent(WiBss::Periodic {
                pattern: vec![true, false],
            }),
        ),
        (
            "wr_101",
            BlockSelector::WindowRelative(WrBss::new(vec![true, false, true])),
        ),
    ];

    let mut sections = serde_json::Map::new();
    for (label, selector) in selectors {
        let maintainer =
            ItemsetMaintainer::with_store_config(n_items, k(0.05), CounterKind::Ecut, config)
                .unwrap();
        let mut gemm = Gemm::new(maintainer, 3, selector).unwrap();
        for b in &blocks {
            gemm.add_block(b.clone()).unwrap();
        }
        let maintained = gemm.current_model().unwrap();
        let included = maintained.included_blocks().to_vec();
        let selected: Vec<&TxBlock> = blocks
            .iter()
            .filter(|b| included.contains(&b.id()))
            .collect();
        let scratch = FrequentItemsets::mine_blocks(&selected, n_items, k(0.05));
        assert_eq!(
            maintained.frequent_sorted(),
            scratch.frequent_sorted(),
            "{label}: maintained window model diverges from a from-scratch mine"
        );
        assert_eq!(maintained.n_transactions(), scratch.n_transactions());

        sections.insert(
            label.to_string(),
            json!({
                "included_blocks": included.iter().map(|b| b.0).collect::<Vec<u64>>(),
                "n_transactions": maintained.n_transactions(),
                "n_frequent": maintained.n_frequent(),
                "top": top_sets(maintained, 10),
            }),
        );
    }
    golden_check("gemm_window", &Value::Object(sections));
}

/// §6.2 shape: BIRCH+ (CF-tree kept alive across blocks) lands on the
/// same cluster structure as re-clustering everything from scratch.
#[test]
fn birch_plus_matches_full_recluster() {
    maybe_enable_recorder();
    let params = ClusterParams {
        n_points: 900,
        k: 3,
        dim: 2,
        noise_fraction: 0.0,
        sigma: 1.0,
        domain: 100.0,
    };
    let mut gen = ClusterDataGen::new(params, 17);
    let blocks: Vec<PointBlock> = (1..=3u64)
        .map(|id| PointBlock::new(BlockId(id), gen.take_points(300)))
        .collect();

    let mut bp = BirchParams::new(2, 3);
    bp.tree.threshold2 = 1.0;

    let mut plus = BirchPlus::new(bp);
    for b in &blocks {
        plus.absorb_block(b);
    }
    let (incremental, _) = plus.model();

    let refs: Vec<&PointBlock> = blocks.iter().collect();
    let (scratch, _) = Birch::new(bp).cluster_blocks(&refs);

    // Same number of clusters, and centroids pairwise within a small
    // tolerance of each other (tree build order differs, so bit-equality
    // is not expected — closeness is the paper's claim).
    assert_eq!(incremental.k(), scratch.k());
    let mut inc = centroid_strings(incremental.centroids());
    let mut scr = centroid_strings(scratch.centroids());
    inc.sort();
    scr.sort();
    for (a, b) in incremental_pairs(&incremental.centroids(), &scratch.centroids()) {
        assert!(
            a.dist2(&b) < 1.0,
            "BIRCH+ centroid {a:?} has no close from-scratch counterpart (nearest {b:?})"
        );
    }

    golden_check(
        "birch_plus",
        &json!({
            "k": incremental.k(),
            "n_points": incremental.n_points(),
            "incremental_centroids": inc,
            "scratch_centroids": scr,
        }),
    );
}

/// Rounds centroids into stable strings for the golden file.
fn centroid_strings(centroids: Vec<Point>) -> Vec<String> {
    centroids
        .iter()
        .map(|c| {
            let coords: Vec<String> =
                c.coords().iter().map(|x| format!("{x:.4}")).collect();
            format!("({})", coords.join(", "))
        })
        .collect()
}

/// Pairs each incremental centroid with its nearest from-scratch one.
fn incremental_pairs(inc: &[Point], scratch: &[Point]) -> Vec<(Point, Point)> {
    inc.iter()
        .map(|a| {
            let nearest = scratch
                .iter()
                .min_by(|x, y| a.dist2(x).total_cmp(&a.dist2(y)))
                .expect("scratch clustering is non-empty");
            (a.clone(), nearest.clone())
        })
        .collect()
}

/// The pattern pools of the drift experiments' regimes.
fn drift_quest_params(n_items: u32) -> QuestParams {
    QuestParams {
        n_transactions: 0,
        avg_tx_len: 6.0,
        n_items,
        n_patterns: 20,
        avg_pattern_len: 3.0,
        ..QuestParams::default()
    }
}

/// §6.3 shape: FOCUS compact sequences split exactly at a planted drift
/// point — blocks before and after the regime switch form separate
/// maximal sequences.
#[test]
fn focus_detects_planted_drift() {
    maybe_enable_recorder();
    let n_items = 60;
    let params = drift_quest_params(n_items);
    let switch_at = 4;
    let total = 8;
    let mut gen = DriftingQuestGen::switch_once(params, 41, switch_at, total);
    let blocks: Vec<TxBlock> = (0..total).map(|_| gen.next_block(150)).collect();

    let oracle =
        ItemsetSimilarity::new(n_items, k(0.05), SimilarityConfig::Threshold { alpha: 0.35 });
    let mut miner = CompactSequenceMiner::new(oracle);
    for b in &blocks {
        miner.add_block(b.clone());
    }
    let sequences = miner.maximal_sequences();

    // No maximal sequence may straddle the planted switch.
    let boundary = BlockId(switch_at as u64); // last block of regime 0
    for seq in &sequences {
        let crosses = seq.iter().any(|id| *id <= boundary) && seq.iter().any(|id| *id > boundary);
        assert!(
            !crosses,
            "sequence {seq:?} straddles the planted drift at block {boundary}"
        );
    }
    // Each regime is internally compact enough to produce a multi-block run.
    assert!(
        sequences.iter().any(|s| s.len() >= 2 && s[0] <= boundary),
        "no multi-block sequence found in the pre-drift regime: {sequences:?}"
    );
    assert!(
        sequences.iter().any(|s| s.len() >= 2 && s[0] > boundary),
        "no multi-block sequence found in the post-drift regime: {sequences:?}"
    );

    let rendered: Vec<Vec<u64>> = sequences
        .iter()
        .map(|s| s.iter().map(|id| id.0).collect())
        .collect();
    golden_check(
        "focus_drift",
        &json!({
            "switch_after_block": switch_at,
            "n_blocks": total,
            "sequences": rendered,
        }),
    );
}

/// Density drift the centroid-based oracle cannot see: moons and rings
/// share centroid and extent, so BIRCH's FOCUS deviation stays under
/// threshold across the planted switch while the DBSCAN
/// core-reachability deviation flags exactly the drift block. This is
/// the reason the density model class exists.
#[test]
fn dbscan_focus_flags_density_drift_that_birch_misses() {
    maybe_enable_recorder();
    let alpha = 0.25;
    let switch_at = 3u64;
    let total = 6;
    let mut gen =
        DensityDriftGen::switch_once(ShapeParams::new(8.0, 0.1), 53, switch_at as usize, total);
    let blocks: Vec<PointBlock> = (0..total).map(|_| gen.next_block(150)).collect();

    let mut density = DbscanSimilarity::new(DbscanParams::new(2, 1.0, 4), alpha);
    let mut bp = BirchParams::new(2, 2);
    bp.tree.threshold2 = 1.0;
    let mut birch = ClusterSimilarity::new(bp, alpha);

    // Consecutive-block deviations under both oracles. Blocks 1..=3 are
    // moons, 4..=6 rings: only the (3, 4) pair crosses the switch.
    let mut rows = Vec::new();
    for w in blocks.windows(2) {
        let (_, d_density) = density.similar(&w[0], &w[1]);
        let (_, d_birch) = birch.similar(&w[0], &w[1]);
        rows.push((w[1].id(), d_density, d_birch));
    }
    for &(id, d_density, d_birch) in &rows {
        if id == BlockId(switch_at + 1) {
            assert!(
                d_density > alpha,
                "dbscan deviation {d_density:.3} fails to flag the drift block {id}"
            );
            assert!(
                d_birch < alpha,
                "birch deviation {d_birch:.3} also flags block {id} — the drift \
                 is not centroid-invisible and the experiment proves nothing"
            );
        } else {
            assert!(
                d_density < alpha,
                "dbscan deviation {d_density:.3} false-positives within a regime at block {id}"
            );
        }
    }

    let rendered: Vec<Value> = rows
        .iter()
        .map(|(id, d_density, d_birch)| {
            json!({
                "block": id.0,
                "dbscan_deviation": format!("{d_density:.4}"),
                "birch_deviation": format!("{d_birch:.4}"),
                "crosses_switch": id.0 == switch_at + 1,
            })
        })
        .collect();
    golden_check(
        "dbscan_density_drift",
        &json!({
            "switch_after_block": switch_at,
            "n_blocks": total,
            "alpha": format!("{alpha:.2}"),
            "consecutive_deviations": rendered,
        }),
    );
}

/// Renders sequences as one `"1,2,4"` string each (keeps the fixtures
/// short enough to review).
fn sequence_strings(sequences: &[Vec<BlockId>]) -> Vec<String> {
    sequences
        .iter()
        .map(|s| {
            let ids: Vec<String> = s.iter().map(|id| id.0.to_string()).collect();
            ids.join(",")
        })
        .collect()
}

/// Both pattern-detection modes over one stream, every prefix recorded:
/// per arriving block the step's counters and the sequence list each
/// mode reports (maximal for the unrestricted window, all live sequences
/// for the `w` most recent blocks), plus the unrestricted miner's full
/// collection and deviation matrix at the end.
fn sequence_trace<R, O>(blocks: &[Block<R>], oracle: impl Fn() -> O, w: usize) -> Value
where
    R: Clone,
    O: SimilarityOracle<R>,
{
    let stats_row = |s: demon::focus::CompactStats| {
        format!("{} {} {}", s.pairs_evaluated, s.similar_pairs, s.extended)
    };
    let mut unrestricted = CompactSequenceMiner::new(oracle());
    let mut windowed = CompactSequenceMiner::with_window(oracle(), Some(w)).unwrap();
    let (mut uw_rows, mut mrw_rows) = (Vec::new(), Vec::new());
    for b in blocks {
        let stats = unrestricted.add_block(b.clone());
        uw_rows.push(json!({
            "block": b.id().0,
            "pairs_similar_extended": stats_row(stats),
            "maximal": sequence_strings(&unrestricted.maximal_sequences()),
        }));
        let stats = windowed.add_block(b.clone());
        mrw_rows.push(json!({
            "block": b.id().0,
            "pairs_similar_extended": stats_row(stats),
            "sequences": sequence_strings(&windowed.current_sequences()),
        }));
    }
    let n = unrestricted.n_blocks();
    let deviations: Vec<String> = (0..n)
        .map(|i| {
            let row: Vec<String> = (0..i)
                .map(|j| format!("{:.6}", unrestricted.deviation(i, j).unwrap()))
                .collect();
            row.join(" ")
        })
        .collect();
    json!({
        "n_blocks": blocks.len(),
        "unrestricted": {
            "prefixes": uw_rows,
            "all_sequences": sequence_strings(&unrestricted.sequences()),
            "deviations": deviations,
        },
        "window": { "w": w, "prefixes": mrw_rows },
    })
}

/// Pins what pattern detection reports over an itemset stream that
/// revisits three regimes — overlapping sequences, skipped blocks and,
/// at `w = 4`, ten retirements.
#[test]
fn itemset_sequences_are_pinned_at_every_prefix() {
    maybe_enable_recorder();
    let n_items = 60;
    let params = drift_quest_params(n_items);
    let schedule = vec![0, 0, 1, 0, 1, 1, 2, 0, 2, 2, 1, 0, 0, 2];
    let total = schedule.len();
    let mut gen = DriftingQuestGen::new(params, 3, 41, schedule);
    let blocks: Vec<TxBlock> = (0..total).map(|_| gen.next_block(150)).collect();
    let oracle = || {
        ItemsetSimilarity::new(n_items, k(0.05), SimilarityConfig::Threshold { alpha: 0.35 })
    };
    golden_check("sequences_itemsets", &sequence_trace(&blocks, oracle, 4));
}

/// The same pin for a point class: moons and rings alternating under the
/// DBSCAN oracle.
#[test]
fn dbscan_sequences_are_pinned_at_every_prefix() {
    maybe_enable_recorder();
    use Shape::{Moons as M, Rings as R};
    let schedule = vec![M, M, R, M, R, R, M, M, R, M, R, R];
    let total = schedule.len();
    let mut gen = DensityDriftGen::new(ShapeParams::new(8.0, 0.1), 53, schedule);
    let blocks: Vec<PointBlock> = (0..total).map(|_| gen.next_block(150)).collect();
    let oracle = || DbscanSimilarity::new(DbscanParams::new(2, 1.0, 4), 0.25);
    golden_check("sequences_dbscan", &sequence_trace(&blocks, oracle, 4));
}
