//! One every-prefix oracle for DEMON's contract (paper §2–3.2): after
//! block `t`, every model an engine maintains equals its class's batch
//! fit over exactly the blocks the data span and the BSS select.
//!
//! The matrix is every class (itemsets, BIRCH+, trees, dbscan) × every
//! data span (UW; the most recent `w ∈ 1..=6` blocks) × three BSS kinds
//! (all-ones, a seeded periodic window-independent one, seeded
//! window-relative bits). Each case runs the engine `DemonEngine::new`
//! picks, the one the class would be served with: GEMM, or one window
//! model that refits (trees) or slides (dbscan under a window-independent
//! BSS). Where that is not GEMM, GEMM built directly runs beside it as
//! the reference row. At every prefix `t` it checks **every** GEMM slot,
//! not only the current one. The expected selection comes only from the
//! paper's window operators: `WiBss::project` (§3.2.1) and
//! `WrBss::right_shift` (§3.2.2); under UW it is `project(D1, t, 0)`.
//!
//! Cases run smallest first — span, then stream prefix, then seed — and
//! the first failure (a mismatch or a panic) names
//! `(class, engine, w, bss, seed, t, slot)`, the engine as chosen: a
//! handful of blocks and one BSS, small enough to replay by hand.

use demon::clustering::{phase2_model, Birch, BirchParams, CfTree, DbscanParams, WindowedDbscan};
use demon::core::bss::{BlockSelector, WiBss, WrBss};
use demon::core::engine::{DataSpan, DemonEngine};
use demon::core::maintainer::{Maintenance, WindowedTree};
use demon::core::{
    ClusterMaintainer, DbscanMaintainer, Gemm, ItemsetMaintainer, ModelMaintainer, TreeMaintainer,
};
use demon::itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon::trees::{DecisionTree, LabeledPoint, TreeParams};
use demon::types::{Block, BlockId, DemonError, Item, MinSupport, Point, Tid, Transaction};
use rand::prelude::*;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The largest most-recent window of the matrix.
const MAX_W: usize = 6;
/// Seeds per (span, engine, BSS kind): each draws its own stream and BSS.
const SEEDS: u64 = 3;

/// A model class under test: its maintainer, its stream, and its batch fit.
trait Class: ModelMaintainer + Sync + Sized {
    const NAME: &'static str;
    fn make(seed: u64) -> Self;
    fn block(seed: u64, id: BlockId) -> Block<Self::Record>;
    /// The blocks the maintainer's store holds.
    fn stored(&self) -> Vec<BlockId>;
    /// `Ok` when `model` equals the batch fit over `selected`, in order.
    /// `current` marks the current window's model, the one a query renders.
    fn equals_batch(
        &self,
        model: &Self::Model,
        selected: &[Block<Self::Record>],
        current: bool,
    ) -> Result<(), String>;
}

/// How a case builds its engine.
#[derive(Clone, Copy)]
enum Build {
    /// `DemonEngine::new`: the engine the class is served with.
    Chosen,
    /// GEMM built directly: the reference row beside a chosen non-GEMM
    /// engine.
    Gemm,
}

/// The engine `DemonEngine::new` chose, by name.
fn engine_name<M: ModelMaintainer + Sync>(engine: &DemonEngine<M>) -> &'static str {
    match (engine, M::MAINTENANCE) {
        (DemonEngine::Uw(_), _) => "uw",
        (DemonEngine::Mrw(_), _) => "gemm",
        (DemonEngine::Window(_), Maintenance::Refit { .. }) => "refit",
        (DemonEngine::Window(_), _) => "sliding",
    }
}

#[derive(Clone, Copy)]
enum BssKind {
    AllOnes,
    Periodic,
    Relative,
}

/// The BSS of one case, as the paper defines it.
enum Bss {
    Independent(WiBss),
    Relative(WrBss),
}

impl Bss {
    fn draw(kind: BssKind, seed: u64, w: usize) -> Bss {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB55);
        let mut bits = |n: usize| (0..n).map(|_| rng.gen_bool(0.6)).collect();
        match kind {
            BssKind::AllOnes => Bss::Independent(WiBss::All),
            BssKind::Periodic => Bss::Independent(WiBss::Periodic {
                pattern: bits(1 + (seed as usize + w) % (w + 1)),
            }),
            BssKind::Relative => Bss::Relative(WrBss::new(bits(w))),
        }
    }

    /// The blocks of `[cur, t]` a model selects when it is the `k`-th
    /// future window of the current window `D[cur, cur+w-1]`: the
    /// k-projection of a window-independent BSS, the k-right-shift of a
    /// window-relative one.
    fn selection(&self, cur: BlockId, w: usize, k: usize, t: BlockId) -> Vec<BlockId> {
        let bits = match self {
            Bss::Independent(wi) => wi.project(cur, w, k),
            Bss::Relative(wr) => wr.right_shift(k),
        };
        (cur.value()..=t.value())
            .map(BlockId)
            .filter(|id| bits[(id.value() - cur.value()) as usize])
            .collect()
    }

    fn selector(&self) -> BlockSelector {
        match self {
            Bss::Independent(wi) => BlockSelector::WindowIndependent(wi.clone()),
            Bss::Relative(wr) => BlockSelector::WindowRelative(wr.clone()),
        }
    }

    fn describe(&self) -> String {
        let (kind, bits) = match self {
            Bss::Independent(WiBss::Periodic { pattern }) => ("periodic", pattern.clone()),
            Bss::Independent(_) => return "all-ones".into(),
            Bss::Relative(wr) => ("relative", wr.right_shift(0)),
        };
        let bits: String = bits.iter().map(|&b| if b { '1' } else { '0' }).collect();
        format!("{kind} {bits}")
    }
}

/// One running case of the matrix.
struct Case<M: Class> {
    /// The engine's name: `uw`, `gemm`, `refit`, `sliding`, or
    /// `gemm (reference)`.
    engine_name: &'static str,
    /// `None` for the unrestricted window.
    w: Option<usize>,
    bss: Bss,
    seed: u64,
    engine: DemonEngine<M>,
}

/// A failed check, and the GEMM slot (window start) it concerns, if any.
type Failure = (Option<BlockId>, String);

impl<M: Class> Case<M> {
    /// The case, or `None` for a GEMM reference row where the chosen
    /// engine is GEMM already.
    fn new(build: Build, w: Option<usize>, bss: Bss, seed: u64) -> Option<Self> {
        let span = match (w, &bss) {
            (None, Bss::Independent(wi)) => DataSpan::Unrestricted(wi.clone()),
            (None, Bss::Relative(_)) => unreachable!("no window-relative BSS without a window"),
            (Some(w), _) => DataSpan::MostRecent {
                w,
                selector: bss.selector(),
            },
        };
        let chosen = DemonEngine::new(M::make(seed), span).unwrap();
        let (engine_name, engine) = match (build, w) {
            (Build::Chosen, _) => (engine_name(&chosen), chosen),
            (Build::Gemm, Some(_)) if matches!(chosen, DemonEngine::Mrw(_)) => return None,
            (Build::Gemm, Some(w)) => {
                let gemm = Gemm::new(M::make(seed), w, bss.selector()).unwrap();
                ("gemm (reference)", DemonEngine::Mrw(gemm))
            }
            (Build::Gemm, None) => unreachable!("GEMM needs a window"),
        };
        Some(Case {
            engine_name,
            w,
            bss,
            seed,
            engine,
        })
    }

    /// Feeds block `t` and checks every maintained model against batch.
    fn step(&mut self, t: BlockId) -> Result<(), Failure> {
        let stats = (self.engine.add_block(M::block(self.seed, t)))
            .map_err(|e| (None, format!("add_block: {e}")))?;
        // A replay is refused before it touches anything checked below.
        if !matches!(
            self.engine.add_block(M::block(self.seed, t)),
            Err(DemonError::DuplicateBlock { .. })
        ) {
            return Err((None, "a replayed block was not refused".into()));
        }

        // (window start, expected selection) of every maintained model.
        let (cur, w) = match self.w {
            None => (BlockId::FIRST, t.value() as usize),
            Some(w) => (t.window_start(w), w),
        };
        let expected: Vec<(BlockId, Vec<BlockId>)> = match &self.engine {
            DemonEngine::Mrw(gemm) => {
                let starts: Vec<BlockId> = (cur.value()..=t.value()).map(BlockId).collect();
                same("slot starts", gemm.slot_starts(), starts.clone()).map_err(|e| (None, e))?;
                let slot = |(k, s)| (s, self.bss.selection(cur, w, k, t));
                starts.into_iter().enumerate().map(slot).collect()
            }
            _ => vec![(cur, self.bss.selection(cur, w, 0, t))],
        };

        let current = &expected[0].1;
        same("absorbed", stats.absorbed, current.contains(&t)).map_err(|e| (Some(cur), e))?;
        if let Some(w) = self.w {
            let aum = self.bss.selector().selected_in_window(cur, w, t);
            same("selected_in_window", aum, current.clone()).map_err(|e| (Some(cur), e))?;
        }
        let maintainer = self.engine.maintainer();
        let oldest = self.engine.oldest_needed();
        if let Some(stale) = maintainer.stored().into_iter().find(|&id| id < oldest) {
            let msg = format!("store holds {stale:?}, older than oldest_needed {oldest:?}");
            return Err((None, msg));
        }
        for (i, (start, selection)) in expected.iter().enumerate() {
            let model = match &self.engine {
                DemonEngine::Mrw(gemm) => gemm.future_model(*start),
                engine => engine.current_model(),
            }
            .ok_or((Some(*start), "no model".into()))?;
            let selected: Vec<_> = selection
                .iter()
                .map(|&id| M::block(self.seed, id))
                .collect();
            (maintainer.equals_batch(model, &selected, i == 0))
                .map_err(|e| (Some(*start), format!("selection {selection:?}: {e}")))?;
        }
        Ok(())
    }
}

/// Runs the whole matrix for class `M`, smallest case first, and panics
/// naming the first case that fails.
fn every_prefix_equals_batch<M: Class>() {
    use BssKind::*;
    // The unrestricted window first, then each most-recent window size.
    for w in std::iter::once(None).chain((1..=MAX_W).map(Some)) {
        let (builds, kinds): (&[Build], &[BssKind]) = match w {
            None => (&[Build::Chosen], &[AllOnes, Periodic]),
            Some(_) => (
                &[Build::Chosen, Build::Gemm],
                &[AllOnes, Periodic, Relative],
            ),
        };
        let mut cases: Vec<Case<M>> = Vec::new();
        for &build in builds {
            for &kind in kinds {
                for seed in 0..SEEDS {
                    let bss = Bss::draw(kind, seed, w.unwrap_or(MAX_W));
                    cases.extend(Case::new(build, w, bss, seed));
                }
            }
        }
        for t in (1..=3 * w.unwrap_or(MAX_W) as u64).map(BlockId) {
            for case in &mut cases {
                let (slot, msg) = match catch_unwind(AssertUnwindSafe(|| case.step(t))) {
                    Ok(Ok(())) => continue,
                    Ok(Err(failure)) => failure,
                    Err(payload) => {
                        let text = (payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .or_else(|| payload.downcast_ref::<String>().cloned());
                        (None, format!("panicked: {}", text.unwrap_or_default()))
                    }
                };
                panic!(
                    "every-prefix oracle failed: class {}, engine {}, w {}, bss {}, seed {}, \
                     t {}, slot {}: {msg}",
                    M::NAME,
                    case.engine_name,
                    w.map_or("unrestricted".into(), |w| w.to_string()),
                    case.bss.describe(),
                    case.seed,
                    t.value(),
                    slot.map_or("-".into(), |s| s.to_string()),
                );
            }
        }
    }
}

fn same<T: PartialEq + Debug>(what: &str, got: T, batch: T) -> Result<(), String> {
    match got == batch {
        true => Ok(()),
        false => Err(format!(
            "{what}:\n  maintained {got:?}\n  batch      {batch:?}"
        )),
    }
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

fn ids<R>(blocks: &[Block<R>]) -> Vec<BlockId> {
    blocks.iter().map(Block::id).collect()
}

fn rng_of(seed: u64, id: BlockId) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id.value())
}

const N_ITEMS: u32 = 12;

impl Class for ItemsetMaintainer {
    const NAME: &'static str = "itemsets";

    /// Each seed its own counter and threshold.
    fn make(seed: u64) -> Self {
        let counter = [
            CounterKind::PtScan,
            CounterKind::Ecut,
            CounterKind::EcutPlus,
        ];
        let minsup = MinSupport::new([0.1, 0.2, 0.3][seed as usize % 3]).unwrap();
        ItemsetMaintainer::new(N_ITEMS, minsup, counter[seed as usize % 3])
    }

    fn block(seed: u64, id: BlockId) -> Block<Transaction> {
        let mut rng = rng_of(seed, id);
        let txs = (0..rng.gen_range(15..30))
            .map(|i| {
                let items = (0..rng.gen_range(1..=4)).map(|_| Item(rng.gen_range(0..N_ITEMS)));
                Transaction::new(Tid(id.value() * 100 + i), items.collect())
            })
            .collect();
        Block::new(id, txs)
    }

    fn stored(&self) -> Vec<BlockId> {
        self.store().block_ids().to_vec()
    }

    fn equals_batch(
        &self,
        model: &FrequentItemsets,
        selected: &[Block<Transaction>],
        _current: bool,
    ) -> Result<(), String> {
        let mut store = TxStore::new(N_ITEMS);
        selected.iter().for_each(|b| store.add_block(b.clone()));
        let batch = FrequentItemsets::mine_from(&store, &ids(selected), self.min_support());
        let batch = batch.unwrap();
        same(
            "n_transactions",
            model.n_transactions(),
            batch.n_transactions(),
        )?;
        if model.frequent() != batch.frequent() {
            same("frequent", model.frequent_sorted(), batch.frequent_sorted())?;
        }
        // Also the border: every tracked count, against naive counting.
        model.check_invariants(&store);
        Ok(())
    }
}

/// `n` points around three centres, spread over `[0, 8)²`.
fn points(rng: &mut StdRng, n: usize, spread: f64) -> Vec<Point> {
    let centres = [(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)];
    (0..n)
        .map(|_| {
            let (cx, cy) = centres[rng.gen_range(0..3)];
            let mut jitter = || rng.gen_range(-spread..spread);
            Point::new(vec![cx + jitter(), cy + jitter()])
        })
        .collect()
}

impl Class for ClusterMaintainer {
    const NAME: &'static str = "birch+";

    fn make(_seed: u64) -> Self {
        let mut p = BirchParams::new(2, 3);
        (p.tree.branching, p.tree.leaf_capacity, p.tree.threshold2) = (3, 3, 0.25);
        // Small enough that a few blocks force threshold-growing rebuilds.
        p.tree.max_leaf_entries = 12;
        ClusterMaintainer::new(p)
    }

    fn block(seed: u64, id: BlockId) -> Block<Point> {
        Block::new(id, points(&mut rng_of(seed, id), 20, 2.0))
    }

    fn stored(&self) -> Vec<BlockId> {
        self.store().ids()
    }

    /// The CF-tree byte for byte; for the current window also phase 2
    /// against BIRCH rerun over the selection (§3.1.2's BIRCH+ = BIRCH).
    fn equals_batch(
        &self,
        model: &CfTree,
        selected: &[Block<Point>],
        current: bool,
    ) -> Result<(), String> {
        let mut batch = CfTree::new(self.params().tree);
        selected
            .iter()
            .flat_map(Block::records)
            .for_each(|p| batch.insert_point(p));
        same("CF-tree", json(model), json(&batch))?;
        if current && !selected.is_empty() {
            let refs: Vec<&Block<Point>> = selected.iter().collect();
            let (rerun, _) = Birch::new(*self.params()).cluster_blocks(&refs);
            same(
                "phase 2",
                json(&phase2_model(model, self.params())),
                json(&rerun),
            )?;
        }
        Ok(())
    }
}

impl Class for TreeMaintainer {
    const NAME: &'static str = "trees";

    fn make(_seed: u64) -> Self {
        TreeMaintainer::new(2, TreeParams::new(2))
    }

    /// A diagonal concept with label noise, so fits differ by window.
    fn block(seed: u64, id: BlockId) -> Block<LabeledPoint> {
        let mut rng = rng_of(seed, id);
        let records = (points(&mut rng, 20, 4.0).into_iter())
            .map(|p| {
                let (x, y) = (p.coords()[0], p.coords()[1]);
                let label = u32::from(x - y + rng.gen_range(-1.5..1.5) > 0.0);
                LabeledPoint::new(p.coords().to_vec(), label)
            })
            .collect();
        Block::new(id, records)
    }

    fn stored(&self) -> Vec<BlockId> {
        self.store().ids()
    }

    fn equals_batch(
        &self,
        model: &WindowedTree,
        selected: &[Block<LabeledPoint>],
        _current: bool,
    ) -> Result<(), String> {
        same("covered blocks", model.covers.clone(), ids(selected))?;
        let records: Vec<LabeledPoint> = selected.iter().flat_map(|b| b.iter().cloned()).collect();
        let batch =
            (!records.is_empty()).then(|| DecisionTree::fit(&records, 2, TreeParams::new(2)));
        same("tree", json(&model.tree), json(&batch))
    }
}

impl Class for DbscanMaintainer {
    const NAME: &'static str = "dbscan";

    fn make(_seed: u64) -> Self {
        DbscanMaintainer::new(DbscanParams::new(2, 1.0, 3))
    }

    fn block(seed: u64, id: BlockId) -> Block<Point> {
        Block::new(id, points(&mut rng_of(seed, id), 16, 2.5))
    }

    fn stored(&self) -> Vec<BlockId> {
        self.store().ids()
    }

    fn equals_batch(
        &self,
        model: &WindowedDbscan,
        selected: &[Block<Point>],
        _current: bool,
    ) -> Result<(), String> {
        same("covered blocks", model.covered_blocks(), ids(selected))?;
        let n_points: usize = selected.iter().map(Block::len).sum();
        same("points", model.structure().len(), n_points)?;
        model.structure().verify_against_batch()
    }
}

/// The engine choice: trees refit under every BSS, dbscan slides under
/// a window-independent one and runs GEMM under window-relative bits,
/// and the insert-only classes run GEMM; the unrestricted window is UW.
#[test]
fn the_engine_follows_from_the_maintainer() {
    fn chosen<M: Class>(kind: BssKind) -> [&'static str; 2] {
        let bss = Bss::draw(kind, 0, 3);
        let window = DataSpan::MostRecent {
            w: 3,
            selector: bss.selector(),
        };
        let uw = DataSpan::Unrestricted(WiBss::All);
        [window, uw].map(|span| engine_name(&DemonEngine::new(M::make(0), span).unwrap()))
    }
    use BssKind::*;
    for kind in [AllOnes, Periodic, Relative] {
        assert_eq!(chosen::<TreeMaintainer>(kind), ["refit", "uw"]);
        assert_eq!(chosen::<ItemsetMaintainer>(kind), ["gemm", "uw"]);
        assert_eq!(chosen::<ClusterMaintainer>(kind), ["gemm", "uw"]);
    }
    assert_eq!(chosen::<DbscanMaintainer>(AllOnes), ["sliding", "uw"]);
    assert_eq!(chosen::<DbscanMaintainer>(Periodic), ["sliding", "uw"]);
    assert_eq!(chosen::<DbscanMaintainer>(Relative), ["gemm", "uw"]);
}

#[test]
fn itemsets_equal_batch_at_every_prefix() {
    every_prefix_equals_batch::<ItemsetMaintainer>();
}

#[test]
fn birch_plus_equals_batch_at_every_prefix() {
    every_prefix_equals_batch::<ClusterMaintainer>();
}

#[test]
fn trees_equal_batch_at_every_prefix() {
    every_prefix_equals_batch::<TreeMaintainer>();
}

#[test]
fn dbscan_equals_batch_at_every_prefix() {
    every_prefix_equals_batch::<DbscanMaintainer>();
}
