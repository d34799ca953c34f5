//! Property-based tests of the core invariants, across crates.

use demon::clustering::cftree::CfTreeParams;
use demon::clustering::{CfTree, ClusterFeature};
use demon::core::bss::{BlockSelector, WrBss};
use demon::core::{Gemm, ItemsetMaintainer};
use demon::focus::compact::CompactSequenceMiner;
use demon::focus::similarity::SimilarityOracle;
use demon::itemsets::apriori;
use demon::itemsets::counter::count_supports;
use demon::itemsets::tidlist::intersect_all;
use demon::itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon::types::{Block, BlockId, Item, ItemSet, MinSupport, Point, Tid, Transaction, TxBlock};
use proptest::prelude::*;
use std::collections::BTreeSet;

const UNIVERSE: u32 = 12;

/// A strategy for a stream of small random blocks over a 12-item universe.
fn blocks_strategy(max_blocks: usize) -> impl Strategy<Value = Vec<TxBlock>> {
    prop::collection::vec(
        prop::collection::vec(
            prop::collection::vec(0..UNIVERSE, 1..6),
            5..40,
        ),
        1..=max_blocks,
    )
    .prop_map(|raw_blocks| {
        let mut tid = 1u64;
        raw_blocks
            .into_iter()
            .enumerate()
            .map(|(i, txs)| {
                let records: Vec<Transaction> = txs
                    .into_iter()
                    .map(|items| {
                        let t = Transaction::new(Tid(tid), items.into_iter().map(Item).collect());
                        tid += 1;
                        t
                    })
                    .collect();
                Block::new(BlockId(i as u64 + 1), records)
            })
            .collect()
    })
}

fn minsup_strategy() -> impl Strategy<Value = MinSupport> {
    (0.05f64..0.5).prop_map(|k| MinSupport::new(k).unwrap())
}

/// A fixed pseudo-random symmetric relation over block ids (SplitMix64
/// of the ordered pair): about half of all pairs are similar, with no
/// transitivity or other structure a miner could lean on.
struct Relation(u64);

impl SimilarityOracle for Relation {
    fn similar(&mut self, a: &TxBlock, b: &TxBlock) -> (bool, f64) {
        let (x, y) = (a.id().value().min(b.id().value()), a.id().value().max(b.id().value()));
        let mut z = self.0
            ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ y.wrapping_mul(0xD1B5_4A32_D192_ED03);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let similar = (z ^ (z >> 31)) & 1 == 0;
        (similar, if similar { 0.25 } else { 0.75 })
    }
}

fn store_of(blocks: &[TxBlock]) -> TxStore {
    let mut store = TxStore::new(UNIVERSE);
    for b in blocks {
        store.add_block(b.clone());
    }
    store
}

fn freq_of(m: &FrequentItemsets) -> Vec<(ItemSet, u64)> {
    m.frequent_sorted()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BORDERS absorbing block-by-block reaches exactly the batch-mined
    /// model, for every counter.
    #[test]
    fn incremental_equals_batch(blocks in blocks_strategy(4), minsup in minsup_strategy()) {
        let store = store_of(&blocks);
        let batch = FrequentItemsets::mine_from(&store, store.block_ids(), minsup).unwrap();
        for counter in [CounterKind::PtScan, CounterKind::Ecut] {
            let mut inc = FrequentItemsets::empty(minsup, UNIVERSE);
            for b in &blocks {
                inc.absorb_block(&store, b.id(), counter).unwrap();
            }
            prop_assert_eq!(freq_of(&inc), freq_of(&batch));
            inc.check_invariants(&store);
        }
    }

    /// Absorbing then removing a block is the identity on the model.
    #[test]
    fn remove_inverts_absorb(blocks in blocks_strategy(3), minsup in minsup_strategy()) {
        prop_assume!(blocks.len() >= 2);
        let store = store_of(&blocks);
        let mut model = FrequentItemsets::empty(minsup, UNIVERSE);
        for b in blocks.iter().take(blocks.len() - 1) {
            model.absorb_block(&store, b.id(), CounterKind::Ecut).unwrap();
        }
        let before = freq_of(&model);
        let last = blocks.last().unwrap().id();
        model.absorb_block(&store, last, CounterKind::Ecut).unwrap();
        model.remove_block(&store, last, CounterKind::Ecut).unwrap();
        prop_assert_eq!(freq_of(&model), before);
        model.check_invariants(&store);
    }

    /// All three counters agree with naive counting on arbitrary candidates.
    #[test]
    fn counters_agree_with_naive(
        blocks in blocks_strategy(3),
        cands in prop::collection::vec(prop::collection::vec(0..UNIVERSE, 1..4), 1..10),
    ) {
        let mut store = store_of(&blocks);
        let all_pairs: Vec<(Item, Item)> = (0..UNIVERSE)
            .flat_map(|a| (a + 1..UNIVERSE).map(move |b| (Item(a), Item(b))))
            .collect();
        for b in &blocks {
            store.materialize_pairs(b.id(), &all_pairs, None);
        }
        let ids = store.block_ids();
        let candidates: Vec<ItemSet> = {
            let mut seen = BTreeSet::new();
            cands
                .into_iter()
                .map(|v| ItemSet::new(v.into_iter().map(Item).collect()))
                .filter(|s| seen.insert(s.clone()))
                .collect()
        };
        let refs: Vec<&TxBlock> = blocks.iter().collect();
        for kind in [CounterKind::PtScan, CounterKind::Ecut, CounterKind::EcutPlus] {
            let r = count_supports(kind, &store, ids, &candidates);
            for (cand, &got) in candidates.iter().zip(&r.counts) {
                prop_assert_eq!(got, apriori::naive_support(cand, &refs), "{}", kind.name());
            }
        }
    }

    /// k-way TID-list intersection equals set intersection.
    #[test]
    fn intersection_equals_set_semantics(
        lists in prop::collection::vec(prop::collection::btree_set(0u64..200, 0..40), 1..5),
    ) {
        let vecs: Vec<Vec<Tid>> = lists
            .iter()
            .map(|s| s.iter().map(|&v| Tid(v)).collect())
            .collect();
        let slices: Vec<&[Tid]> = vecs.iter().map(|v| v.as_slice()).collect();
        let got: BTreeSet<u64> = intersect_all(&slices).into_iter().map(|t| t.0).collect();
        let expected = lists
            .iter()
            .skip(1)
            .fold(lists[0].clone(), |acc, s| acc.intersection(s).copied().collect());
        prop_assert_eq!(got, expected);
    }

    /// GEMM's current model matches scratch-mining the selected window,
    /// for an arbitrary window-relative BSS.
    #[test]
    fn gemm_matches_scratch_for_random_wr_bss(
        blocks in blocks_strategy(6),
        bits in prop::collection::vec(any::<bool>(), 2..4),
        minsup in minsup_strategy(),
    ) {
        prop_assume!(bits.iter().any(|&b| b));
        let w = bits.len();
        let selector = BlockSelector::WindowRelative(WrBss::new(bits));
        let maintainer = ItemsetMaintainer::new(UNIVERSE, minsup, CounterKind::Ecut);
        let mut gemm = Gemm::new(maintainer, w, selector.clone())
            .unwrap()
            .with_retirement(false);
        let store = store_of(&blocks);
        for b in &blocks {
            gemm.add_block(b.clone()).unwrap();
        }
        let t = blocks.len() as u64;
        let start = BlockId(t.saturating_sub(w as u64 - 1).max(1));
        let selected = selector.selected_in_window(start, w, BlockId(t));
        let batch = FrequentItemsets::mine_from(&store, &selected, minsup).unwrap();
        prop_assert_eq!(
            freq_of(gemm.current_model().unwrap()),
            freq_of(&batch)
        );
    }

    /// GEMM's current model matches scratch-mining under an arbitrary
    /// *window-independent* periodic BSS too.
    #[test]
    fn gemm_matches_scratch_for_random_wi_bss(
        blocks in blocks_strategy(6),
        pattern in prop::collection::vec(any::<bool>(), 1..4),
        w in 2usize..4,
        minsup in minsup_strategy(),
    ) {
        use demon::core::bss::WiBss;
        prop_assume!(pattern.iter().any(|&b| b));
        let selector = BlockSelector::WindowIndependent(WiBss::Periodic {
            pattern: pattern.clone(),
        });
        let maintainer = ItemsetMaintainer::new(UNIVERSE, minsup, CounterKind::Ecut);
        let mut gemm = Gemm::new(maintainer, w, selector.clone())
            .unwrap()
            .with_retirement(false);
        let store = store_of(&blocks);
        for b in &blocks {
            gemm.add_block(b.clone()).unwrap();
        }
        let t = blocks.len() as u64;
        let start = BlockId(t.saturating_sub(w as u64 - 1).max(1));
        let selected = selector.selected_in_window(start, w, BlockId(t));
        let batch = FrequentItemsets::mine_from(&store, &selected, minsup).unwrap();
        prop_assert_eq!(freq_of(gemm.current_model().unwrap()), freq_of(&batch));
    }

    /// The CF-tree conserves mass and keeps its summaries consistent under
    /// arbitrary insertion orders.
    #[test]
    fn cftree_conserves_mass(
        points in prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 2), 1..120),
        threshold2 in 0.0f64..25.0,
    ) {
        let params = CfTreeParams {
            branching: 4,
            leaf_capacity: 4,
            threshold2,
            max_leaf_entries: 64,
            dim: 2,
        };
        let mut tree = CfTree::new(params);
        let mut sum = [0.0f64; 2];
        for p in &points {
            tree.insert_point(&Point::new(p.clone()));
            sum[0] += p[0];
            sum[1] += p[1];
        }
        tree.check_invariants();
        prop_assert_eq!(tree.n_points(), points.len() as u64);
        let total: ClusterFeature = {
            let mut acc = ClusterFeature::empty(2);
            for cf in tree.leaf_entries() {
                acc.merge(&cf);
            }
            acc
        };
        // Linear sums survive arbitrary splits/rebuilds.
        prop_assert!((total.linear_sum()[0] - sum[0]).abs() < 1e-6);
        prop_assert!((total.linear_sum()[1] - sum[1]).abs() < 1e-6);
    }

    /// Compact-sequence mining keeps the Definition 4.1 invariants for an
    /// arbitrary (deterministic) similarity relation.
    #[test]
    fn compact_sequences_respect_definition(seed in 0u64..5000, n in 2usize..12) {
        let mut miner = CompactSequenceMiner::new(Relation(seed));
        for id in 1..=n as u64 {
            miner.add_block(TxBlock::new(BlockId(id), vec![]));
        }
        miner.check_invariants();
        // One sequence per block, and each block belongs to at least one.
        prop_assert_eq!(miner.sequences().len(), n);
        let maximal = miner.maximal_sequences();
        for id in 1..=n as u64 {
            prop_assert!(
                maximal.iter().any(|s| s.contains(&BlockId(id))),
                "block {id} not covered by any maximal sequence"
            );
        }
    }

    /// Every derived association rule has exact statistics and respects
    /// the confidence threshold; antecedent and consequent partition the
    /// source itemset.
    #[test]
    fn rules_have_exact_statistics(
        blocks in blocks_strategy(2),
        minconf in 0.0f64..1.0,
    ) {
        use demon::itemsets::derive_rules;
        let store = store_of(&blocks);
        let minsup = MinSupport::new(0.1).unwrap();
        let model = FrequentItemsets::mine_from(&store, store.block_ids(), minsup).unwrap();
        let refs: Vec<&TxBlock> = blocks.iter().collect();
        let n = model.n_transactions();
        for rule in derive_rules(&model, minconf) {
            prop_assert!(rule.confidence >= minconf);
            prop_assert!(rule.confidence <= 1.0 + 1e-12);
            let z = rule.antecedent.union(&rule.consequent);
            prop_assert_eq!(
                z.len(),
                rule.antecedent.len() + rule.consequent.len(),
                "antecedent and consequent must be disjoint"
            );
            let sz = apriori::naive_support(&z, &refs);
            let sa = apriori::naive_support(&rule.antecedent, &refs);
            prop_assert!((rule.support - sz as f64 / n as f64).abs() < 1e-9);
            prop_assert!((rule.confidence - sz as f64 / sa as f64).abs() < 1e-9);
        }
    }

    /// With a window at least as long as the stream nothing ever retires:
    /// the windowed miner holds the unrestricted miner's sequences and
    /// verdict matrix at every prefix.
    #[test]
    fn window_at_least_the_stream_is_the_unrestricted_miner(
        seed in 0u64..2000,
        n in 2usize..14,
        slack in 0usize..3,
    ) {
        let mut unrestricted = CompactSequenceMiner::new(Relation(seed));
        let mut windowed =
            CompactSequenceMiner::with_window(Relation(seed), Some(n + slack)).unwrap();
        for id in 1..=n as u64 {
            unrestricted.add_block(TxBlock::new(BlockId(id), vec![]));
            windowed.add_block(TxBlock::new(BlockId(id), vec![]));
            prop_assert_eq!(windowed.sequences(), unrestricted.sequences());
            for i in 0..id as usize {
                for j in 0..i {
                    prop_assert_eq!(windowed.is_similar(i, j), unrestricted.is_similar(i, j));
                    prop_assert_eq!(windowed.deviation(i, j), unrestricted.deviation(i, j));
                }
            }
        }
    }

    /// At every prefix the windowed miner keeps Definition 4.1, holds at
    /// most `w` blocks, and reports exactly what an unrestricted miner fed
    /// only the live blocks reports — for an arbitrary (not transitive)
    /// similarity relation.
    #[test]
    fn windowed_miner_is_the_unrestricted_miner_over_the_live_blocks(
        seed in 0u64..2000,
        n in 3usize..20,
        w in 2usize..6,
    ) {
        let mut miner = CompactSequenceMiner::with_window(Relation(seed), Some(w)).unwrap();
        for t in 1..=n as u64 {
            miner.add_block(TxBlock::new(BlockId(t), vec![]));
            miner.check_invariants();
            prop_assert_eq!(miner.n_live(), w.min(t as usize));
            let mut over_live = CompactSequenceMiner::new(Relation(seed));
            for id in t.saturating_sub(w as u64) + 1..=t {
                over_live.add_block(TxBlock::new(BlockId(id), vec![]));
            }
            prop_assert_eq!(miner.sequences(), over_live.sequences());
        }
    }

    /// The oracle hears `retire(id)` exactly once per block that slid out,
    /// in arrival order, and is never asked about that block again.
    #[test]
    fn slid_out_blocks_are_retired_once_in_order_and_never_asked_again(
        seed in 0u64..2000,
        n in 3usize..20,
        w in 2usize..6,
    ) {
        struct Recording {
            relation: Relation,
            retired: Vec<BlockId>,
        }
        impl SimilarityOracle for Recording {
            fn similar(&mut self, a: &TxBlock, b: &TxBlock) -> (bool, f64) {
                for id in [a.id(), b.id()] {
                    assert!(!self.retired.contains(&id), "asked about retired block {id}");
                }
                self.relation.similar(a, b)
            }
            fn retire(&mut self, id: BlockId) {
                self.retired.push(id);
            }
        }
        let oracle = Recording { relation: Relation(seed), retired: Vec::new() };
        let mut miner = CompactSequenceMiner::with_window(oracle, Some(w)).unwrap();
        for id in 1..=n as u64 {
            miner.add_block(TxBlock::new(BlockId(id), vec![]));
            let slid_out: Vec<BlockId> = (1..=id.saturating_sub(w as u64)).map(BlockId).collect();
            prop_assert_eq!(&miner.oracle().retired, &slid_out);
        }
    }

    /// A block stream round-trips through its one on-disk form: written as
    /// a WAL root, read back by the reader a bind uses, every block —
    /// interval included — comes back, and a store built from them holds
    /// the same item TID-lists (derived state, rebuilt on load; ECUT+ pair
    /// lists are not part of the stream).
    #[test]
    fn persistence_roundtrips(blocks in blocks_strategy(3), case in 0u64..1_000_000) {
        use demon::serve::sequencer::{read_root, write_root};
        use demon::serve::ItemsetModel;
        use demon::types::{BlockInterval, ModelClass, Timestamp};
        // Odd blocks carry a validity interval, even ones do not — both
        // shapes must survive the round-trip.
        let blocks: Vec<TxBlock> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let s = i as u64 * 100;
                let interval = (i % 2 == 1).then(|| BlockInterval::new(Timestamp(s), Timestamp(s + 100)));
                Block::from_parts(b.id(), interval, b.records().to_vec())
            })
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "demon-proptest-persist-{}-{case}",
            std::process::id()
        ));
        let written = write_root::<ItemsetModel>(&dir, UNIVERSE, |put| blocks.iter().try_for_each(put));
        prop_assert_eq!(written.unwrap(), blocks.len() as u64);
        let mut log = read_root(&dir, Some(ModelClass::Itemsets)).unwrap();
        prop_assert_eq!(log.meta(), Some(UNIVERSE));
        let back: Vec<TxBlock> = log.blocks::<ItemsetModel>(None).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(back.len(), blocks.len());
        for (got, want) in back.iter().zip(&blocks) {
            prop_assert_eq!(got.id(), want.id());
            prop_assert_eq!(got.records(), want.records());
            prop_assert_eq!(got.interval(), want.interval());
        }
        let (store, reloaded) = (store_of(&blocks), store_of(&back));
        for &id in store.block_ids() {
            let (o, r) = (store.tidlists().block(id).unwrap(), reloaded.tidlists().block(id).unwrap());
            for i in 0..UNIVERSE {
                prop_assert_eq!(o.item_list(Item(i)), r.item_list(Item(i)));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Corrupting any single byte (or truncating at any length) of any
    /// file of a root reads as a clean prefix of the stream or as a typed
    /// refusal naming the file — never a panic, never a block that was
    /// not written — and reading is read-only: the same answer twice.
    #[test]
    fn persistence_survives_arbitrary_corruption(
        blocks in blocks_strategy(2),
        case in 0u64..1_000_000,
        damage in 0usize..10_000,
        flip in prop::bool::ANY,
    ) {
        use demon::serve::sequencer::{read_root, write_root};
        use demon::serve::ItemsetModel;
        use demon::types::ModelClass;
        let dir = std::env::temp_dir().join(format!(
            "demon-proptest-corrupt-{}-{case}",
            std::process::id()
        ));
        write_root::<ItemsetModel>(&dir, UNIVERSE, |put| blocks.iter().try_for_each(put)).unwrap();
        // Pick a file and an offset pseudo-randomly from the damage seed.
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let path = &files[damage % files.len()];
        let mut bytes = std::fs::read(path).unwrap();
        let offset = (damage / files.len()) % bytes.len().max(1);
        if flip {
            bytes[offset] ^= 0xFF;
        } else {
            bytes.truncate(offset);
        }
        std::fs::write(path, &bytes).unwrap();
        let read = || {
            read_root(&dir, Some(ModelClass::Itemsets))
                .and_then(|mut log| log.blocks::<ItemsetModel>(None).collect::<Result<Vec<TxBlock>, _>>())
                .map(|prefix| prefix.into_iter().map(|b| (b.id(), b.records().to_vec())).collect::<Vec<_>>())
                .map_err(|e| e.to_string())
        };
        let first = read();
        match &first {
            Ok(prefix) => {
                prop_assert!(prefix.len() <= blocks.len());
                for ((id, records), want) in prefix.iter().zip(&blocks) {
                    prop_assert_eq!(*id, want.id());
                    prop_assert_eq!(records.as_slice(), want.records());
                }
            }
            Err(e) => {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                prop_assert!(e.contains(&name), "the refusal names {}: {}", name, e);
            }
        }
        prop_assert_eq!(read(), first);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cyclic subsequences really are arithmetic and really are subsets.
    #[test]
    fn cyclic_subsequences_are_arithmetic_subsets(
        ids in prop::collection::btree_set(1u64..60, 3..20),
    ) {
        use demon::focus::cyclic_subsequences;
        let seq: Vec<BlockId> = ids.iter().map(|&v| BlockId(v)).collect();
        for cyc in cyclic_subsequences(&seq, 3) {
            prop_assert!(cyc.len() >= 3);
            for w in cyc.blocks.windows(2) {
                prop_assert_eq!(w[1].value() - w[0].value(), cyc.period);
            }
            for b in &cyc.blocks {
                prop_assert!(seq.contains(b));
            }
        }
    }

    /// Negative-border definition holds for arbitrary data: every minimal
    /// infrequent itemset (over sets of size ≤ 3) is tracked in the border.
    #[test]
    fn border_is_complete_for_small_itemsets(
        blocks in blocks_strategy(2),
        minsup in minsup_strategy(),
    ) {
        let store = store_of(&blocks);
        let model = FrequentItemsets::mine_from(&store, store.block_ids(), minsup).unwrap();
        let refs: Vec<&TxBlock> = blocks.iter().collect();
        let thresh = minsup.count_for(model.n_transactions());
        // Enumerate all itemsets of size ≤ 3 and check the definition.
        let items: Vec<u32> = (0..UNIVERSE).collect();
        let mut all: Vec<ItemSet> = Vec::new();
        for i in 0..items.len() {
            all.push(ItemSet::from_ids(&[items[i]]));
            for j in i + 1..items.len() {
                all.push(ItemSet::from_ids(&[items[i], items[j]]));
                for l in j + 1..items.len() {
                    all.push(ItemSet::from_ids(&[items[i], items[j], items[l]]));
                }
            }
        }
        for set in &all {
            let support = apriori::naive_support(set, &refs);
            let infrequent = support < thresh;
            let subsets_frequent = set
                .proper_maximal_subsets()
                .all(|s| s.is_empty() || model.is_frequent(&s));
            if infrequent && subsets_frequent {
                prop_assert!(
                    model.border().contains_key(set),
                    "minimal infrequent {set} missing from border"
                );
            }
            if !infrequent {
                prop_assert!(
                    model.is_frequent(set) || !subsets_frequent,
                    "frequent {set} with frequent subsets missing from L"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Observability-layer properties.
//
// The recorder is process-global, so these tests serialize on OBS_LOCK:
// at most one of them has the recorder enabled at a time. Counter
// assertions only read counters no *other* test in this binary touches
// (bootstrap resamples, phase-2 iterations), so the concurrent mining
// proptests above cannot pollute them.
// ---------------------------------------------------------------------

static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Builds `depth` nested spans, then unwinds them.
fn nested_spans(names: &[&'static str], depth: usize) {
    if depth == 0 {
        return;
    }
    let _span = demon::types::obs::span(names[depth % names.len()]);
    nested_spans(names, depth - 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Obs counter totals are identical at 1, 2 and 8 threads.
    #[test]
    fn obs_counter_totals_thread_invariant(
        blocks in blocks_strategy(2),
        n_resamples in 1usize..12,
        kseed in 0u64..1000,
    ) {
        use demon::clustering::global::kmeans;
        use demon::clustering::ClusterFeature;
        use demon::focus::bootstrap_significance_with;
        use demon::types::obs::{self, Counter};
        use demon::types::{Parallelism, Point};
        prop_assume!(blocks.len() >= 2);

        let features: Vec<ClusterFeature> = (0..20)
            .map(|i| {
                ClusterFeature::from_point(&Point::new(vec![
                    f64::from(i % 4) * 10.0,
                    f64::from(i / 4),
                ]))
            })
            .collect();

        let guard = obs_guard();
        let mut deltas = Vec::new();
        for threads in [1usize, 2, 8] {
            let before = (
                obs::counter_value(Counter::BootstrapResamples),
                obs::counter_value(Counter::Phase2Iterations),
            );
            obs::enable();
            let _ = bootstrap_significance_with(
                &blocks[0],
                &blocks[1],
                UNIVERSE,
                MinSupport::new(0.2).unwrap(),
                n_resamples,
                7,
                Parallelism::new(threads),
            );
            demon::types::parallel::set_global(Parallelism::new(threads));
            let _ = kmeans(&features, 3, kseed, 16);
            demon::types::parallel::set_global(Parallelism::new(0));
            obs::disable();
            let after = (
                obs::counter_value(Counter::BootstrapResamples),
                obs::counter_value(Counter::Phase2Iterations),
            );
            deltas.push((after.0 - before.0, after.1 - before.1));
        }
        drop(guard);
        prop_assert_eq!(deltas[0].0, n_resamples as u64);
        prop_assert!(deltas[0].1 > 0, "k-means never iterated");
        prop_assert_eq!(deltas[0], deltas[1], "totals diverged at 2 threads");
        prop_assert_eq!(deltas[0], deltas[2], "totals diverged at 8 threads");
    }

    /// Arbitrary span nestings render as well-formed JSONL: every line
    /// parses, `seq` is dense from 0, and begin/end pairs nest like a
    /// Dyck word with matching names.
    #[test]
    fn obs_span_nesting_is_well_formed(
        shape in prop::collection::vec(0usize..5, 1..6),
    ) {
        use demon::types::obs;
        const NAMES: [&str; 3] = ["load", "count", "merge"];

        let guard = obs_guard();
        let _ = obs::drain_events();
        obs::enable();
        for &depth in &shape {
            nested_spans(&NAMES, depth);
        }
        obs::emit_counters_event();
        obs::disable();
        let jsonl = obs::events_jsonl();
        let events = obs::drain_events();
        drop(guard);

        let expected = 2 * shape.iter().sum::<usize>() + 1;
        prop_assert_eq!(events.len(), expected);
        prop_assert_eq!(jsonl.lines().count(), expected);

        let mut stack: Vec<String> = Vec::new();
        for (i, line) in jsonl.lines().enumerate() {
            let v: serde_json::Value =
                serde_json::from_str(line).expect("every event line is valid JSON");
            prop_assert_eq!(v.get("seq").and_then(|s| s.as_u64()), Some(i as u64));
            let kind = v.get("type").and_then(|t| t.as_str()).unwrap_or("");
            match kind {
                "span_begin" => {
                    stack.push(v.get("name").and_then(|n| n.as_str()).unwrap().to_string());
                }
                "span_end" => {
                    let name = v.get("name").and_then(|n| n.as_str()).unwrap();
                    prop_assert_eq!(stack.pop().as_deref(), Some(name), "mismatched span end");
                    prop_assert!(v.get("us").and_then(|u| u.as_u64()).is_some());
                }
                "counters" => prop_assert!(stack.is_empty(), "counters event inside a span"),
                other => prop_assert!(false, "unexpected event type {:?}", other),
            }
        }
        prop_assert!(stack.is_empty(), "unclosed spans: {:?}", stack);
    }

    /// With the recorder disabled, arbitrary instrumented work emits no
    /// events and moves no counters.
    #[test]
    fn obs_disabled_records_nothing(blocks in blocks_strategy(2), depth in 1usize..5) {
        use demon::types::obs;
        let guard = obs_guard();
        let _ = obs::drain_events();
        let before = obs::snapshot();
        nested_spans(&["idle"], depth);
        let refs: Vec<&TxBlock> = blocks.iter().collect();
        let _ = FrequentItemsets::mine_blocks(&refs, UNIVERSE, MinSupport::new(0.2).unwrap());
        let events = obs::drain_events();
        let after = obs::snapshot();
        drop(guard);
        prop_assert!(events.is_empty(), "disabled recorder buffered {} events", events.len());
        prop_assert_eq!(before, after);
    }
}

/// A sorted, deduplicated TID-list with one of four window densities —
/// from bitmap-friendly dense to gallop-friendly sparse — so the kernel
/// dispatcher's whole decision table gets exercised.
fn tid_list_strategy() -> impl Strategy<Value = Vec<Tid>> {
    (1u64..=4, prop::collection::vec(0u64..10_000_000, 0..200)).prop_map(|(density, raw)| {
        let span = match density {
            1 => 64u64,
            2 => 2_000,
            3 => 100_000,
            _ => 10_000_000,
        };
        let mut v: Vec<u64> = raw.into_iter().map(|x| x % span).collect();
        v.sort_unstable();
        v.dedup();
        v.into_iter().map(Tid).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every pairwise intersection kernel — naive two-pointer merge,
    /// galloping, bitset-chunk — plus the dispatching entry points and
    /// the count-only variants produce the identical intersection on
    /// arbitrary TID-lists (empty, disjoint, dense and sparse included).
    #[test]
    fn intersection_kernels_agree(a in tid_list_strategy(), b in tid_list_strategy()) {
        use demon::itemsets::tidlist::{
            intersect_bitset_into, intersect_count, intersect_gallop_into, intersect_into,
            intersect_merge_into, intersect_sorted_count, IntersectScratch,
        };
        let mut scratch = IntersectScratch::new();
        let (mut merge, mut gallop, mut bitset, mut dispatch) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        intersect_merge_into(&a, &b, &mut merge);
        intersect_gallop_into(&a, &b, &mut gallop);
        intersect_bitset_into(&a, &b, &mut bitset, &mut scratch);
        intersect_into(&a, &b, &mut dispatch, &mut scratch);

        // Ground truth via set intersection.
        let sa: BTreeSet<Tid> = a.iter().copied().collect();
        let sb: BTreeSet<Tid> = b.iter().copied().collect();
        let expect: Vec<Tid> = sa.intersection(&sb).copied().collect();

        prop_assert_eq!(&merge, &expect, "merge kernel");
        prop_assert_eq!(&gallop, &expect, "gallop kernel");
        prop_assert_eq!(&bitset, &expect, "bitset kernel");
        prop_assert_eq!(&dispatch, &expect, "dispatched kernel");
        prop_assert_eq!(intersect_count(&a, &b, &mut scratch), expect.len() as u64);

        // The multiway count-only fold agrees on a 3-list conjunction
        // (a ∩ b ∩ a = a ∩ b) with dirty, reused scratch buffers.
        let mut lists: Vec<&[Tid]> = vec![&a, &b, &a];
        prop_assert_eq!(
            intersect_sorted_count(&mut lists, &mut scratch),
            expect.len() as u64
        );
    }
}
