//! The candidate prefix tree of Mueller '95, used by **PT-Scan**.
//!
//! BORDERS counts the supports of a set of candidate itemsets by organizing
//! them in a prefix tree and scanning the dataset once (paper §3.1.1). Each
//! root-to-marked-node path spells a candidate (items strictly increasing);
//! counting a transaction walks every matching path. Because transactions
//! and candidates are both sorted, each candidate is reached by at most one
//! increasing subsequence per transaction, so no deduplication is needed.

use demon_types::{Item, ItemSet, TxBlock};

/// Arena index of a tree node.
type NodeId = u32;

#[derive(Clone, Debug, Default)]
struct Node {
    /// Children sorted by edge item (binary-searched during descent).
    children: Vec<(Item, NodeId)>,
    /// Index into the candidate/count arrays when a candidate ends here.
    candidate: Option<u32>,
}

/// A prefix tree over a set of candidate itemsets, accumulating one
/// support count per candidate. Candidates can be added incrementally
/// with [`PrefixTree::insert_candidate`] — the BORDERS detection phase
/// keeps one long-lived tree over `L ∪ NB⁻` and extends it as the
/// cascade generates new candidates.
#[derive(Clone, Debug)]
pub struct PrefixTree {
    nodes: Vec<Node>,
    counts: Vec<u64>,
    n_candidates: usize,
}

const ROOT: NodeId = 0;

impl PrefixTree {
    /// Builds the tree for `candidates`. Duplicate candidates share a node
    /// (and therefore a single count slot — the first occurrence wins).
    pub fn build(candidates: &[ItemSet]) -> Self {
        let mut tree = PrefixTree {
            nodes: vec![Node::default()],
            counts: vec![0; candidates.len()],
            n_candidates: candidates.len(),
        };
        for (ci, cand) in candidates.iter().enumerate() {
            tree.insert(cand, ci as u32);
        }
        tree
    }

    /// Walks (creating where missing) the path spelling `itemset` and marks
    /// its end with `candidate_idx` unless a candidate already ends there;
    /// returns the slot that ends there afterwards.
    fn insert(&mut self, itemset: &ItemSet, candidate_idx: u32) -> u32 {
        let mut node = ROOT;
        for &item in itemset.items() {
            node = match self.nodes[node as usize]
                .children
                .binary_search_by_key(&item, |&(it, _)| it)
            {
                Ok(pos) => self.nodes[node as usize].children[pos].1,
                Err(pos) => {
                    let id = self.nodes.len() as NodeId;
                    self.nodes.push(Node::default());
                    self.nodes[node as usize].children.insert(pos, (item, id));
                    id
                }
            };
        }
        *self.nodes[node as usize]
            .candidate
            .get_or_insert(candidate_idx)
    }

    /// Adds one candidate after construction, returning its count slot.
    /// When the itemset is already a candidate, the existing slot is
    /// returned (its accumulated count is preserved).
    pub fn insert_candidate(&mut self, itemset: &ItemSet) -> usize {
        let idx = self.counts.len() as u32;
        let slot = self.insert(itemset, idx);
        if slot == idx {
            self.counts.push(0);
            self.n_candidates += 1;
        }
        slot as usize
    }

    /// Number of candidates the tree was built over.
    pub fn len(&self) -> usize {
        self.n_candidates
    }

    /// Whether the tree holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.n_candidates == 0
    }

    /// Counts one transaction: every candidate that is a subset of `items`
    /// has its count incremented. `items` must be sorted ascending
    /// (guaranteed by [`demon_types::Transaction`]).
    pub fn add_transaction(&mut self, items: &[Item]) {
        if self.n_candidates > 0 {
            self.descend(ROOT, items);
        }
    }

    fn descend(&mut self, node: NodeId, items: &[Item]) {
        if let Some(ci) = self.nodes[node as usize].candidate {
            self.counts[ci as usize] += 1;
        }
        if self.nodes[node as usize].children.is_empty() {
            return;
        }
        for (pos, &item) in items.iter().enumerate() {
            if let Ok(cpos) = self.nodes[node as usize]
                .children
                .binary_search_by_key(&item, |&(it, _)| it)
            {
                let child = self.nodes[node as usize].children[cpos].1;
                self.descend(child, &items[pos + 1..]);
            }
        }
    }

    /// Counts every transaction of a block.
    pub fn count_block(&mut self, block: &TxBlock) {
        for tx in block.records() {
            self.add_transaction(tx.items());
        }
    }

    /// The accumulated counts, in candidate order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Calls `visit(itemset, count)` for every candidate with a non-zero
    /// count. A candidate counted zero times is contained in no counted
    /// transaction, so neither is any superset of it: the walk does not
    /// descend below one, and its cost follows the candidates that were
    /// hit, not the size of the tree.
    pub fn for_each_counted(&self, mut visit: impl FnMut(&[Item], u64)) {
        self.walk_counted(ROOT, &mut Vec::new(), &mut visit);
    }

    fn walk_counted(
        &self,
        node: NodeId,
        path: &mut Vec<Item>,
        visit: &mut impl FnMut(&[Item], u64),
    ) {
        let node = &self.nodes[node as usize];
        if let Some(ci) = node.candidate {
            let count = self.counts[ci as usize];
            if count == 0 {
                return;
            }
            visit(path, count);
        }
        for &(item, child) in &node.children {
            path.push(item);
            self.walk_counted(child, path, visit);
            path.pop();
        }
    }

    /// Consumes the tree, yielding the counts.
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
    }

    /// Resets all counts to zero, keeping the structure.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
    }
}

/// An immutable, cache-conscious prefix tree over a fixed candidate set,
/// probed concurrently by every counting shard.
///
/// [`PrefixTree`] interleaves per-node child vectors across the heap and
/// carries its own count array, so parallel PT-Scan used to *clone the
/// whole tree per shard* — at half a million candidates that rebuild
/// dwarfed the scan itself and made the thread sweep anti-scale. The
/// flat tree fixes both problems:
///
/// * **Built once, shared by reference.** Construction happens serially
///   before the parallel region; shards only call
///   [`count_transaction`](FlatPrefixTree::count_transaction) through a
///   shared `&FlatPrefixTree`.
/// * **Struct-of-arrays CSR layout.** All edges live in two parallel
///   arrays (`edge_item`, `edge_child`) indexed by per-node offsets
///   (`edge_start`), so a descent walks contiguous memory instead of
///   chasing one heap allocation per node.
/// * **External counts.** Support counts live in a caller-owned
///   `&mut [u64]` (one flat array per shard, merged by index in shard
///   order), keeping the tree itself immutable and `Sync`.
pub struct FlatPrefixTree {
    /// CSR offsets: node `n`'s edges are `edge_start[n]..edge_start[n+1]`.
    edge_start: Vec<u32>,
    /// Edge labels, sorted ascending within each node's range.
    edge_item: Vec<Item>,
    /// Target node of each edge, parallel to `edge_item`.
    edge_child: Vec<u32>,
    /// Candidate slot ending at each node, or `NO_CANDIDATE`.
    candidate: Vec<u32>,
    n_candidates: usize,
}

/// Sentinel in [`FlatPrefixTree::candidate`] for "no candidate ends here".
const NO_CANDIDATE: u32 = u32::MAX;

/// A count slot [`FlatPrefixTree::count_transaction`] can increment.
///
/// Shards whose transaction range is known to fit keep `u32` slots —
/// half the memory traffic of `u64` on the random-access count array,
/// which is the scan's cache bottleneck — and widen to `u64` only when
/// merging. Incrementing must not overflow: callers pick `u32` only
/// when the number of transactions counted is below `u32::MAX`.
pub trait SupportCell: Copy + Default {
    /// Adds one to the slot.
    fn incr(&mut self);
    /// The slot value as a `u64` (for the merge by index).
    fn widen(self) -> u64;
}

impl SupportCell for u32 {
    fn incr(&mut self) {
        *self += 1;
    }
    fn widen(self) -> u64 {
        u64::from(self)
    }
}

impl SupportCell for u64 {
    fn incr(&mut self) {
        *self += 1;
    }
    fn widen(self) -> u64 {
        self
    }
}

impl FlatPrefixTree {
    /// Builds the flat tree for `candidates`. Like [`PrefixTree::build`],
    /// duplicate candidates share a count slot (first occurrence wins).
    pub fn build(candidates: &[ItemSet]) -> Self {
        assert!(
            candidates.len() < NO_CANDIDATE as usize,
            "candidate index must fit in u32"
        );
        // Build the pointer-y tree once, then flatten it into CSR form;
        // both passes are serial and amortized over the whole scan.
        let tree = PrefixTree::build(candidates);
        let n_nodes = tree.nodes.len();
        let mut edge_start = Vec::with_capacity(n_nodes + 1);
        let mut edge_item = Vec::new();
        let mut edge_child = Vec::new();
        let mut candidate = Vec::with_capacity(n_nodes);
        edge_start.push(0);
        for node in &tree.nodes {
            for &(item, child) in &node.children {
                edge_item.push(item);
                edge_child.push(child);
            }
            edge_start.push(u32::try_from(edge_item.len()).expect("edge count fits in u32"));
            candidate.push(node.candidate.unwrap_or(NO_CANDIDATE));
        }
        FlatPrefixTree {
            edge_start,
            edge_item,
            edge_child,
            candidate,
            n_candidates: candidates.len(),
        }
    }

    /// Number of candidates the tree was built over (the required length
    /// of the `counts` buffer).
    pub fn len(&self) -> usize {
        self.n_candidates
    }

    /// Whether the tree holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.n_candidates == 0
    }

    /// Counts one transaction into `counts` (length ≥ [`len`](Self::len)):
    /// every candidate that is a subset of `items` has its slot
    /// incremented. `items` must be sorted ascending (guaranteed by
    /// [`demon_types::Transaction`]). `&self` is immutable, so any number
    /// of shards may probe the same tree into their own buffers — see
    /// [`SupportCell`] for the `u32`/`u64` slot-width trade-off.
    pub fn count_transaction<C: SupportCell>(&self, items: &[Item], counts: &mut [C]) {
        if self.n_candidates > 0 {
            self.descend(ROOT, items, counts);
        }
    }

    fn descend<C: SupportCell>(&self, node: NodeId, items: &[Item], counts: &mut [C]) {
        let ni = node as usize;
        if self.candidate[ni] != NO_CANDIDATE {
            counts[self.candidate[ni] as usize].incr();
        }
        let edges = self.edge_start[ni] as usize..self.edge_start[ni + 1] as usize;
        if edges.is_empty() {
            return;
        }
        let labels = &self.edge_item[edges.clone()];
        for (pos, &item) in items.iter().enumerate() {
            if let Ok(epos) = labels.binary_search(&item) {
                self.descend(self.edge_child[edges.start + epos], &items[pos + 1..], counts);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::{BlockId, Tid, Transaction};

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids)
    }

    fn tx(tid: u64, ids: &[u32]) -> Transaction {
        Transaction::new(Tid(tid), ids.iter().copied().map(Item).collect())
    }

    #[test]
    fn counts_simple_candidates() {
        let cands = vec![set(&[1]), set(&[1, 2]), set(&[2, 3]), set(&[4])];
        let mut t = PrefixTree::build(&cands);
        t.add_transaction(tx(1, &[1, 2, 3]).items());
        t.add_transaction(tx(2, &[2, 3]).items());
        t.add_transaction(tx(3, &[1, 4]).items());
        assert_eq!(t.counts(), &[2, 1, 2, 1]);
    }

    #[test]
    fn empty_tree_counts_nothing() {
        let mut t = PrefixTree::build(&[]);
        assert!(t.is_empty());
        t.add_transaction(tx(1, &[1, 2]).items());
        assert!(t.counts().is_empty());
    }

    #[test]
    fn shared_prefixes_count_independently() {
        let cands = vec![set(&[1, 2, 3]), set(&[1, 2, 4]), set(&[1, 2])];
        let mut t = PrefixTree::build(&cands);
        t.add_transaction(tx(1, &[1, 2, 3]).items());
        t.add_transaction(tx(2, &[1, 2, 4]).items());
        t.add_transaction(tx(3, &[1, 2, 3, 4]).items());
        assert_eq!(t.counts(), &[2, 2, 3]);
    }

    #[test]
    fn candidate_counted_once_per_transaction() {
        // {1,3} must be counted once even though item 3 appears after both
        // potential branch points.
        let cands = vec![set(&[1, 3])];
        let mut t = PrefixTree::build(&cands);
        t.add_transaction(tx(1, &[1, 2, 3]).items());
        assert_eq!(t.counts(), &[1]);
    }

    #[test]
    fn count_block_and_reset() {
        let cands = vec![set(&[1]), set(&[2])];
        let block = TxBlock::new(
            BlockId(1),
            vec![tx(1, &[1]), tx(2, &[1, 2]), tx(3, &[3])],
        );
        let mut t = PrefixTree::build(&cands);
        t.count_block(&block);
        assert_eq!(t.counts(), &[2, 1]);
        t.reset();
        assert_eq!(t.counts(), &[0, 0]);
        t.count_block(&block);
        assert_eq!(t.into_counts(), vec![2, 1]);
    }

    #[test]
    fn matches_naive_counting_on_random_data() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        let universe = 20u32;
        // Random candidates of sizes 1..=4.
        let cands: Vec<ItemSet> = (0..60)
            .map(|_| {
                let k = rng.gen_range(1..=4usize);
                let mut ids: Vec<u32> = (0..universe).collect();
                ids.shuffle(&mut rng);
                ItemSet::from_ids(&ids[..k])
            })
            .collect();
        let txs: Vec<Transaction> = (0..300)
            .map(|i| {
                let k = rng.gen_range(1..=10usize);
                let mut ids: Vec<u32> = (0..universe).collect();
                ids.shuffle(&mut rng);
                tx(i, &ids[..k])
            })
            .collect();
        let mut tree = PrefixTree::build(&cands);
        for t in &txs {
            tree.add_transaction(t.items());
        }
        for (ci, cand) in cands.iter().enumerate() {
            let naive = txs
                .iter()
                .filter(|t| t.contains_all(cand.items()))
                .count() as u64;
            // Duplicate candidates share one slot; skip slots shadowed by an
            // earlier identical candidate.
            if cands[..ci].contains(cand) {
                continue;
            }
            assert_eq!(tree.counts()[ci], naive, "candidate {cand}");
        }
    }

    #[test]
    fn counted_walk_reports_exactly_the_nonzero_candidates() {
        // {2,3} sits below the node {2}, which is no candidate and has no
        // count to prune on; {5,6} below the zero-count candidate {5}.
        let cands = vec![set(&[1]), set(&[1, 3]), set(&[2, 3]), set(&[5]), set(&[5, 6])];
        let mut t = PrefixTree::build(&cands);
        let late = t.insert_candidate(&set(&[1, 3, 4]));
        assert_eq!(late, 5);
        assert_eq!(t.insert_candidate(&set(&[1, 3])), 1, "existing slot kept");
        t.add_transaction(tx(1, &[1, 3, 4]).items());
        t.add_transaction(tx(2, &[2, 3]).items());
        let mut seen = Vec::new();
        t.for_each_counted(|items, count| seen.push((ItemSet::new(items.to_vec()), count)));
        seen.sort();
        let mut expected: Vec<(ItemSet, u64)> = cands
            .iter()
            .cloned()
            .chain([set(&[1, 3, 4])])
            .zip(t.counts().iter().copied())
            .filter(|&(_, c)| c > 0)
            .collect();
        expected.sort();
        assert_eq!(seen, expected);
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn flat_tree_matches_pointer_tree() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let universe = 16u32;
        let cands: Vec<ItemSet> = (0..80)
            .map(|_| {
                let k = rng.gen_range(1..=5usize);
                let mut ids: Vec<u32> = (0..universe).collect();
                ids.shuffle(&mut rng);
                ItemSet::from_ids(&ids[..k])
            })
            .collect();
        let mut pointer = PrefixTree::build(&cands);
        let flat = FlatPrefixTree::build(&cands);
        assert_eq!(flat.len(), pointer.len());
        let mut counts = vec![0u64; flat.len()];
        for i in 0..400u64 {
            let k = rng.gen_range(1..=8usize);
            let mut ids: Vec<u32> = (0..universe).collect();
            ids.shuffle(&mut rng);
            let t = tx(i, &ids[..k]);
            pointer.add_transaction(t.items());
            flat.count_transaction(t.items(), &mut counts);
        }
        assert_eq!(counts, pointer.counts());
    }

    #[test]
    fn flat_tree_split_counts_merge_by_index() {
        // Two shards probing the shared tree into separate flat buffers
        // must merge (by index) to the single-buffer result.
        let cands = vec![set(&[1, 2]), set(&[2]), set(&[1, 3])];
        let flat = FlatPrefixTree::build(&cands);
        assert!(!flat.is_empty());
        let txs = [tx(1, &[1, 2, 3]), tx(2, &[2, 3]), tx(3, &[1, 3])];
        let mut whole = vec![0u64; flat.len()];
        for t in &txs {
            flat.count_transaction(t.items(), &mut whole);
        }
        let mut shard_a = vec![0u64; flat.len()];
        let mut shard_b = vec![0u64; flat.len()];
        flat.count_transaction(txs[0].items(), &mut shard_a);
        for t in &txs[1..] {
            flat.count_transaction(t.items(), &mut shard_b);
        }
        let merged: Vec<u64> = shard_a.iter().zip(&shard_b).map(|(a, b)| a + b).collect();
        assert_eq!(merged, whole);
    }
}
