//! Incremental mining of **compact sequences** of pairwise-similar blocks
//! (paper §4), over the whole stream or over its most recent window
//! (footnote 9).
//!
//! A compact sequence is a maximal sequence of pairwise-similar blocks
//! with no "holes": any block lying between the first and last member that
//! is similar to every member before it must itself be a member. Unlike a
//! clustering of blocks, compact sequences may overlap — "blocks collected
//! every Monday" and "blocks collected on the first day of every month"
//! co-exist.
//!
//! The miner follows the paper's inductive algorithm: when block `D_{t+1}`
//! arrives, one batched oracle call judges it against every live block,
//! every existing sequence is extended with `D_{t+1}` if the extension is
//! still compact, and the singleton sequence `{D_{t+1}}` is added. One
//! sequence starts at each live block.
//!
//! **The window is data, not a second algorithm.** Unrestricted, every
//! block stays live. With a window of `w` blocks, the block that slides
//! out takes with it its data, its row and column of the verdict matrix,
//! the sequence that started at it, and — through
//! [`SimilarityOracle::retire`] — whatever the oracle cached for it. A
//! sequence that starts at a live block only ever looked at blocks after
//! its start, so what remains is exactly what an unrestricted miner fed
//! only the live blocks would hold, and the miner's state is `O(w²)` at
//! any stream length.

use crate::similarity::SimilarityOracle;
use demon_types::{Block, BlockId, DemonError, Result, Transaction};
use std::time::{Duration, Instant};

/// Cost evidence of one `add_block` step (Figure 10: per-block update
/// time, spiking when the new block differs from many earlier blocks).
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactStats {
    /// Wall-clock time of the whole step.
    pub time: Duration,
    /// Pairwise similarity evaluations performed (one per live block).
    pub pairs_evaluated: usize,
    /// How many of those pairs were similar.
    pub similar_pairs: usize,
    /// How many existing sequences were extended.
    pub extended: usize,
}

/// The incremental compact-sequence miner, generic over the record type
/// of the blocks (and therefore over the model class judging similarity).
///
/// Blocks are addressed by arrival index (`0` = first block absorbed);
/// live block `i` sits at position `i - retired` of the three per-block
/// collections, which always have equal length.
pub struct CompactSequenceMiner<O, R = Transaction>
where
    O: SimilarityOracle<R>,
{
    oracle: O,
    /// `Some(w)`: only the `w` most recent blocks are live.
    window: Option<usize>,
    /// Blocks that slid out of the window (0 when unrestricted).
    retired: usize,
    /// The live blocks, in arrival order.
    blocks: Vec<Block<R>>,
    /// `(similar, deviation)` of each live block against the live blocks
    /// before it: row `r` has `r` entries.
    verdicts: Vec<Vec<(bool, f64)>>,
    /// The sequence that starts at each live block, as ascending arrival
    /// indices.
    sequences: Vec<Vec<usize>>,
}

impl<O, R> CompactSequenceMiner<O, R>
where
    O: SimilarityOracle<R>,
{
    /// A miner over the unrestricted window: every block stays live.
    pub fn new(oracle: O) -> Self {
        CompactSequenceMiner {
            oracle,
            window: None,
            retired: 0,
            blocks: Vec::new(),
            verdicts: Vec::new(),
            sequences: Vec::new(),
        }
    }

    /// A miner over the given pattern window: `None` is
    /// [`CompactSequenceMiner::new`], `Some(w)` keeps the `w` most recent
    /// blocks. A window below 2 blocks cannot hold a pattern and is
    /// refused.
    pub fn with_window(oracle: O, window: Option<usize>) -> Result<Self> {
        if let Some(w) = window.filter(|&w| w < 2) {
            return Err(DemonError::InvalidParameter(format!(
                "a pattern window below 2 blocks cannot hold a pattern (got {w})"
            )));
        }
        Ok(CompactSequenceMiner {
            window,
            ..Self::new(oracle)
        })
    }

    /// Number of blocks absorbed (retired ones included).
    pub fn n_blocks(&self) -> usize {
        self.retired + self.blocks.len()
    }

    /// Number of live blocks (all of them when unrestricted).
    pub fn n_live(&self) -> usize {
        self.blocks.len()
    }

    /// The verdict on the `i`-th and `j`-th absorbed blocks; `None` when
    /// either is retired or not absorbed yet.
    fn verdict(&self, i: usize, j: usize) -> Option<(bool, f64)> {
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        if lo < self.retired || hi >= self.n_blocks() {
            return None;
        }
        if lo == hi {
            return Some((true, 0.0));
        }
        Some(self.verdicts[hi - self.retired][lo - self.retired])
    }

    /// The cached deviation between the `i`-th and `j`-th absorbed blocks
    /// (`None` once either has retired).
    pub fn deviation(&self, i: usize, j: usize) -> Option<f64> {
        self.verdict(i, j).map(|(_, deviation)| deviation)
    }

    /// Whether live blocks `i` and `j` were judged similar.
    pub fn is_similar(&self, i: usize, j: usize) -> bool {
        self.verdict(i, j).is_some_and(|(similar, _)| similar)
    }

    /// Absorbs the next block, updating the verdict matrix and the set of
    /// compact sequences, then slides the window if it is full.
    pub fn add_block(&mut self, block: Block<R>) -> CompactStats {
        let t0 = Instant::now();
        let t = self.n_blocks();

        // One batched oracle call for all live pairs: parallel oracles
        // evaluate them concurrently while returning verdicts in arrival
        // order.
        let row = self.oracle.similar_to_many(&self.blocks, &block);
        let mut stats = CompactStats {
            pairs_evaluated: row.len(),
            similar_pairs: row.iter().filter(|(similar, _)| *similar).count(),
            ..CompactStats::default()
        };
        self.verdicts.push(row);
        self.blocks.push(block);

        // Try to extend every existing sequence with the new block.
        for s in 0..self.sequences.len() {
            if self.can_extend(&self.sequences[s], t) {
                self.sequences[s].push(t);
                stats.extended += 1;
            }
        }
        self.sequences.push(vec![t]);

        if let Some(w) = self.window {
            while self.blocks.len() > w {
                self.retire_oldest();
            }
        }
        stats.time = t0.elapsed();
        stats
    }

    /// Compactness of `seq ∪ {t}` given `seq` is compact and `t` is past
    /// its end: `t` must be similar to every member, and every skipped
    /// block between the old end and `t` must be dissimilar to at least
    /// one member (otherwise it would be an eligible hole).
    fn can_extend(&self, seq: &[usize], t: usize) -> bool {
        if !seq.iter().all(|&m| self.is_similar(m, t)) {
            return false;
        }
        let last = *seq.last().expect("sequences are non-empty");
        for hole in last + 1..t {
            if seq.iter().all(|&m| self.is_similar(m, hole)) {
                return false;
            }
        }
        true
    }

    /// Drops everything held for the oldest live block. No other sequence
    /// contains it: a sequence only holds blocks from its start onwards.
    fn retire_oldest(&mut self) {
        let gone = self.blocks.remove(0);
        self.verdicts.remove(0);
        for row in &mut self.verdicts {
            row.remove(0);
        }
        self.sequences.remove(0);
        self.retired += 1;
        self.oracle.retire(gone.id());
    }

    fn block_ids(&self, seq: &[usize]) -> Vec<BlockId> {
        seq.iter()
            .map(|&i| self.blocks[i - self.retired].id())
            .collect()
    }

    /// All maintained sequences as block-id lists (one sequence starts at
    /// every live block, so subsets of longer sequences are included —
    /// exactly the paper's collection `G₁ … G_t`).
    pub fn sequences(&self) -> Vec<Vec<BlockId>> {
        self.sequences.iter().map(|s| self.block_ids(s)).collect()
    }

    /// The maximal sequences: those not a subset of any other maintained
    /// sequence — the deliverable an analyst looks at.
    pub fn maximal_sequences(&self) -> Vec<Vec<BlockId>> {
        let seqs = &self.sequences;
        let mut maximal: Vec<Vec<BlockId>> = Vec::new();
        for (i, s) in seqs.iter().enumerate() {
            let subset_of_other = seqs.iter().enumerate().any(|(j, other)| {
                j != i
                    && other.len() >= s.len()
                    && (other.len() > s.len() || j < i)
                    && s.iter().all(|m| other.contains(m))
            });
            if !subset_of_other {
                maximal.push(self.block_ids(s));
            }
        }
        maximal
    }

    /// What a monitor reports as "the current sequences": the maximal
    /// ones over the unrestricted window, every live one over a most
    /// recent window.
    pub fn current_sequences(&self) -> Vec<Vec<BlockId>> {
        match self.window {
            None => self.maximal_sequences(),
            Some(_) => self.sequences(),
        }
    }

    /// The oldest block the miner's state depends on: the first block
    /// when unrestricted, else the start of the window that ends at the
    /// newest block.
    pub fn oldest_needed(&self) -> BlockId {
        match (self.window, self.blocks.last()) {
            (Some(w), Some(newest)) => newest.id().window_start(w),
            _ => BlockId::FIRST,
        }
    }

    /// The live blocks, in arrival order.
    pub fn blocks(&self) -> &[Block<R>] {
        &self.blocks
    }

    /// The similarity oracle (to inspect its caches).
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// Checks Definition 4.1 against the verdict matrix for every
    /// maintained sequence, and that the per-block collections stay
    /// aligned and within the window. Test support.
    pub fn check_invariants(&self) {
        let live = self.blocks.len();
        if let Some(w) = self.window {
            assert!(live <= w, "{live} live blocks in a window of {w}");
        }
        assert_eq!(self.sequences.len(), live);
        assert_eq!(self.verdicts.len(), live);
        for (r, row) in self.verdicts.iter().enumerate() {
            assert_eq!(row.len(), r, "verdict row {r} is misaligned");
        }
        for (s, seq) in self.sequences.iter().enumerate() {
            assert_eq!(seq[0], self.retired + s, "sequence {seq:?} lost its start");
            // (1) pairwise similarity.
            for (ai, &a) in seq.iter().enumerate() {
                for &b in &seq[ai + 1..] {
                    assert!(
                        self.is_similar(a, b),
                        "sequence {seq:?} violates pairwise similarity at ({a},{b})"
                    );
                }
            }
            // (2) no holes.
            let (&first, &last) = (seq.first().unwrap(), seq.last().unwrap());
            for k in first..=last {
                if seq.contains(&k) {
                    continue;
                }
                let eligible = seq
                    .iter()
                    .take_while(|&&m| m < k)
                    .all(|&m| self.is_similar(m, k));
                assert!(!eligible, "sequence {seq:?} has hole {k}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::{Item, Tid, Transaction, TxBlock};

    /// A scripted oracle driven by an explicit similarity matrix, keyed by
    /// block id — lets tests replay the paper's worked example exactly.
    struct Scripted {
        similar_pairs: Vec<(u64, u64)>,
    }

    impl SimilarityOracle for Scripted {
        fn similar(&mut self, a: &TxBlock, b: &TxBlock) -> (bool, f64) {
            let (x, y) = (a.id().value(), b.id().value());
            let hit = self
                .similar_pairs
                .iter()
                .any(|&(p, q)| (p, q) == (x, y) || (p, q) == (y, x));
            (hit, if hit { 0.0 } else { 1.0 })
        }
    }

    fn blk(id: u64) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            vec![Transaction::new(Tid(id), vec![Item(id as u32)])],
        )
    }

    fn ids(v: &[u64]) -> Vec<BlockId> {
        v.iter().copied().map(BlockId).collect()
    }

    #[test]
    fn paper_example_sequences() {
        // Paper §4: blocks D1..D4, similar pairs (1,2),(1,3),(1,4),(2,4).
        // {D1,D2,D4} is compact; {D1,D2,D3} violates pairwise similarity;
        // {D1,D4} violates the no-hole condition (D2 is eligible).
        let oracle = Scripted {
            similar_pairs: vec![(1, 2), (1, 3), (1, 4), (2, 4)],
        };
        let mut miner = CompactSequenceMiner::new(oracle);
        for id in 1..=4 {
            miner.add_block(blk(id));
        }
        miner.check_invariants();
        let seqs = miner.sequences();
        assert!(seqs.contains(&ids(&[1, 2, 4])), "sequences: {seqs:?}");
        assert!(!seqs.contains(&ids(&[1, 2, 3])));
        assert!(!seqs.contains(&ids(&[1, 4])));
        // One sequence starts at each block.
        assert_eq!(seqs.len(), 4);
    }

    #[test]
    fn holes_block_extension() {
        // D1 ~ D3, and D2 ~ D1 as well: D2 is an eligible hole, so {D1}
        // cannot stretch to {D1, D3} — but {D1, D2, D3} needs D2 ~ D3 too.
        let oracle = Scripted {
            similar_pairs: vec![(1, 2), (1, 3)],
        };
        let mut miner = CompactSequenceMiner::new(oracle);
        for id in 1..=3 {
            miner.add_block(blk(id));
        }
        miner.check_invariants();
        let seqs = miner.sequences();
        assert!(seqs.contains(&ids(&[1, 2])));
        assert!(!seqs.contains(&ids(&[1, 3])));
        assert!(!seqs.contains(&ids(&[1, 2, 3])));
    }

    #[test]
    fn dissimilar_intermediate_allows_skip() {
        // D2 dissimilar to D1; D3 similar to D1 → {D1, D3} is compact.
        let oracle = Scripted {
            similar_pairs: vec![(1, 3)],
        };
        let mut miner = CompactSequenceMiner::new(oracle);
        for id in 1..=3 {
            miner.add_block(blk(id));
        }
        miner.check_invariants();
        assert!(miner.sequences().contains(&ids(&[1, 3])));
    }

    #[test]
    fn overlapping_sequences_coexist() {
        // {1,2} and {2,3} overlap at block 2 — a partitioning clustering
        // could not represent both (the paper's motivation for compact
        // sequences over block clustering).
        let oracle = Scripted {
            similar_pairs: vec![(1, 2), (2, 3)],
        };
        let mut miner = CompactSequenceMiner::new(oracle);
        for id in 1..=3 {
            miner.add_block(blk(id));
        }
        miner.check_invariants();
        let seqs = miner.maximal_sequences();
        assert!(seqs.contains(&ids(&[1, 2])), "{seqs:?}");
        assert!(seqs.contains(&ids(&[2, 3])), "{seqs:?}");
    }

    #[test]
    fn all_similar_yields_one_run() {
        let oracle = Scripted {
            similar_pairs: (1..=5u64)
                .flat_map(|a| (a + 1..=5).map(move |b| (a, b)))
                .collect(),
        };
        let mut miner = CompactSequenceMiner::new(oracle);
        for id in 1..=5 {
            miner.add_block(blk(id));
        }
        miner.check_invariants();
        let maximal = miner.maximal_sequences();
        assert_eq!(maximal, vec![ids(&[1, 2, 3, 4, 5])]);
    }

    #[test]
    fn maximal_filters_prefixes() {
        let oracle = Scripted {
            similar_pairs: vec![(1, 2), (1, 3), (2, 3)],
        };
        let mut miner = CompactSequenceMiner::new(oracle);
        for id in 1..=3 {
            miner.add_block(blk(id));
        }
        let maximal = miner.maximal_sequences();
        assert_eq!(maximal, vec![ids(&[1, 2, 3])]);
    }

    #[test]
    fn stats_count_pairs_and_extensions() {
        let oracle = Scripted {
            similar_pairs: vec![(1, 2)],
        };
        let mut miner = CompactSequenceMiner::new(oracle);
        let s1 = miner.add_block(blk(1));
        assert_eq!(s1.pairs_evaluated, 0);
        let s2 = miner.add_block(blk(2));
        assert_eq!(s2.pairs_evaluated, 1);
        assert_eq!(s2.similar_pairs, 1);
        assert_eq!(s2.extended, 1);
        let s3 = miner.add_block(blk(3));
        assert_eq!(s3.pairs_evaluated, 2);
        assert_eq!(s3.similar_pairs, 0);
        assert_eq!(s3.extended, 0);
    }

    #[test]
    fn deviation_matrix_is_symmetric_and_cached() {
        let oracle = Scripted {
            similar_pairs: vec![(1, 2)],
        };
        let mut miner = CompactSequenceMiner::new(oracle);
        miner.add_block(blk(1));
        miner.add_block(blk(2));
        miner.add_block(blk(3));
        assert_eq!(miner.deviation(0, 1), Some(0.0));
        assert_eq!(miner.deviation(1, 0), Some(0.0));
        assert_eq!(miner.deviation(0, 2), Some(1.0));
        assert_eq!(miner.deviation(1, 1), Some(0.0));
        assert!(miner.is_similar(0, 1));
        assert!(!miner.is_similar(2, 0));
    }

    /// Scripted oracle: similar iff block ids are congruent mod `m`.
    struct ModOracle(u64);
    impl SimilarityOracle for ModOracle {
        fn similar(&mut self, a: &TxBlock, b: &TxBlock) -> (bool, f64) {
            let sim = a.id().value() % self.0 == b.id().value() % self.0;
            (sim, if sim { 0.0 } else { 1.0 })
        }
    }

    fn windowed<O: SimilarityOracle>(oracle: O, w: usize) -> CompactSequenceMiner<O> {
        CompactSequenceMiner::with_window(oracle, Some(w)).unwrap()
    }

    #[test]
    fn sequences_cover_only_the_window() {
        let mut miner = windowed(ModOracle(2), 4);
        for id in 1..=8 {
            miner.add_block(blk(id));
        }
        // Window = blocks 5..8; parity classes {5,7} and {6,8}.
        assert_eq!(
            miner.current_sequences(),
            vec![ids(&[5, 7]), ids(&[6, 8]), ids(&[7]), ids(&[8])]
        );
    }

    /// D1 kept D3 out of `{D1, D2, D4}` (D1 ≁ D3). Once D1 retires, the
    /// leftover `{D2, D4}` would have D3 as an eligible hole (D3 ~ D2):
    /// the retired block's sequence goes with it, and the window holds
    /// what an unrestricted miner over D2..D5 holds.
    #[test]
    fn retirement_leaves_no_hole_behind() {
        let script = || Scripted {
            similar_pairs: vec![(1, 2), (1, 4), (2, 4), (2, 3)],
        };
        let mut miner = windowed(script(), 4);
        let mut suffix = CompactSequenceMiner::new(script());
        for id in 1..=5 {
            miner.add_block(blk(id));
            miner.check_invariants();
            if id >= 2 {
                suffix.add_block(blk(id));
            }
        }
        assert_eq!(miner.sequences(), suffix.sequences());
        assert!(!miner.sequences().contains(&ids(&[2, 4])));
    }

    #[test]
    fn windowed_state_does_not_grow_with_the_stream() {
        let w = 4;
        let mut miner = windowed(ModOracle(3), w);
        for id in 1..=10_000 {
            let stats = miner.add_block(blk(id));
            assert!(stats.pairs_evaluated <= w, "a retired block was compared");
            assert!(miner.blocks.len() <= w);
            assert!(miner.verdicts.len() <= w);
            assert!(miner.verdicts.iter().all(|row| row.len() < w));
            assert!(miner.sequences.len() <= w);
            assert!(miner.sequences.iter().all(|seq| seq.len() <= w));
            miner.check_invariants();
        }
        assert_eq!((miner.n_blocks(), miner.n_live()), (10_000, w));
        assert_eq!(miner.deviation(9_995, 9_996), None, "block 9 995 retired");
        assert_eq!(miner.deviation(9_996, 9_999), Some(0.0));
    }

    #[test]
    fn a_window_below_two_blocks_is_a_typed_error() {
        for w in [0, 1] {
            let err = CompactSequenceMiner::with_window(ModOracle(1), Some(w))
                .err()
                .expect("refused");
            assert!(matches!(err, DemonError::InvalidParameter(_)), "{err}");
        }
        assert!(CompactSequenceMiner::with_window(ModOracle(1), None).is_ok());
    }
}
