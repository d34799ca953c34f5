//! The hash tree of Agrawal et al. (AMS+96) — the alternative candidate
//! counting structure the paper mentions in footnote 7 ("A hash tree has
//! also been proposed for the same purpose").
//!
//! Interior nodes hash the next transaction item into a fixed fan-out of
//! buckets; leaves hold up to `leaf_capacity` candidates and are checked
//! by direct subset tests, splitting into interior nodes when they
//! overflow. BORDERS uses the prefix tree (PT-Scan); this implementation
//! exists so the choice is measurable — `counting` benches compare both.

use demon_types::{Item, ItemSet, TxBlock};

/// Hash fan-out of interior nodes.
const FANOUT: usize = 64;

enum Node {
    Interior {
        /// One child per hash bucket (item id mod FANOUT at this depth).
        children: Vec<Option<Box<Node>>>,
    },
    Leaf {
        /// Candidate indices stored at this leaf.
        members: Vec<u32>,
    },
}

/// A hash tree over a fixed candidate set, accumulating one support count
/// per candidate.
pub struct HashTree {
    root: Node,
    candidates: Vec<ItemSet>,
    counts: Vec<u64>,
    leaf_capacity: usize,
    max_len: usize,
}

impl HashTree {
    /// Builds the tree over `candidates` with the default leaf capacity.
    pub fn build(candidates: &[ItemSet]) -> Self {
        Self::with_capacity(candidates, 8)
    }

    /// Builds with an explicit leaf capacity (≥ 1).
    pub fn with_capacity(candidates: &[ItemSet], leaf_capacity: usize) -> Self {
        assert!(leaf_capacity >= 1, "leaf capacity must be positive");
        let max_len = candidates.iter().map(ItemSet::len).max().unwrap_or(0);
        let mut tree = HashTree {
            root: Node::Leaf {
                members: Vec::new(),
            },
            candidates: candidates.to_vec(),
            counts: vec![0; candidates.len()],
            leaf_capacity,
            max_len,
        };
        for ci in 0..tree.candidates.len() {
            let cand = tree.candidates[ci].clone();
            insert(
                &mut tree.root,
                &tree.candidates,
                ci as u32,
                cand.items(),
                0,
                tree.leaf_capacity,
            );
        }
        tree
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the tree holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Counts one transaction (items sorted ascending).
    pub fn add_transaction(&mut self, items: &[Item]) {
        if self.candidates.is_empty() || self.max_len == 0 {
            return;
        }
        // Collect leaves reachable via increasing item paths, then subset-
        // test their members. `visited` de-duplicates leaves reachable via
        // several paths.
        let mut hits: Vec<u32> = Vec::new();
        descend(&self.root, items, &mut hits);
        hits.sort_unstable();
        hits.dedup();
        for ci in hits {
            let cand = &self.candidates[ci as usize];
            if contains_sorted(items, cand.items()) {
                self.counts[ci as usize] += 1;
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

    /// Consumes the tree, yielding the counts.
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
    }
}

fn bucket(item: Item) -> usize {
    item.index() % FANOUT
}

fn insert(
    node: &mut Node,
    candidates: &[ItemSet],
    ci: u32,
    path: &[Item],
    depth: usize,
    leaf_capacity: usize,
) {
    match node {
        Node::Leaf { members } => {
            members.push(ci);
            // Split when over capacity and the candidates still have items
            // to hash at this depth.
            if members.len() > leaf_capacity
                && members
                    .iter()
                    .any(|&m| candidates[m as usize].len() > depth)
            {
                let old = std::mem::take(members);
                let mut children: Vec<Option<Box<Node>>> = (0..FANOUT).map(|_| None).collect();
                let mut stuck: Vec<u32> = Vec::new();
                for m in old {
                    let mpath = candidates[m as usize].items();
                    if depth < mpath.len() {
                        let b = bucket(mpath[depth]);
                        let child = children[b].get_or_insert_with(|| {
                            Box::new(Node::Leaf {
                                members: Vec::new(),
                            })
                        });
                        insert(child, candidates, m, mpath, depth + 1, leaf_capacity);
                    } else {
                        // Shorter candidates stay at this interior node via
                        // a dedicated overflow leaf in bucket of their last
                        // item — simplest: keep them in every probe path by
                        // storing them in a `stuck` side list attached to
                        // bucket 0 … instead we simply keep them in a leaf
                        // that interior probing always visits (see descend).
                        stuck.push(m);
                    }
                }
                if !stuck.is_empty() {
                    // Re-insert the exhausted candidates into an always-
                    // visited residual leaf: we model it as an extra bucket.
                    children.push(Some(Box::new(Node::Leaf { members: stuck })));
                } else {
                    children.push(None);
                }
                *node = Node::Interior { children };
            }
        }
        Node::Interior { children } => {
            if depth < path.len() {
                let b = bucket(path[depth]);
                let child = children[b].get_or_insert_with(|| {
                    Box::new(Node::Leaf {
                        members: Vec::new(),
                    })
                });
                insert(child, candidates, ci, path, depth + 1, leaf_capacity);
            } else {
                // Candidate exhausted: residual leaf (index FANOUT).
                let residual = children[FANOUT].get_or_insert_with(|| {
                    Box::new(Node::Leaf {
                        members: Vec::new(),
                    })
                });
                if let Node::Leaf { members } = residual.as_mut() {
                    members.push(ci);
                } else {
                    unreachable!("residual bucket is always a leaf");
                }
            }
        }
    }
}

/// Classic hash-tree probing: at an interior node, hash every remaining
/// transaction item and descend; at a leaf, report all members.
fn descend(node: &Node, items: &[Item], hits: &mut Vec<u32>) {
    match node {
        Node::Leaf { members } => hits.extend_from_slice(members),
        Node::Interior { children } => {
            // The residual leaf (exhausted candidates) is always visited.
            if let Some(res) = children.get(FANOUT).and_then(|c| c.as_ref()) {
                descend(res, items, hits);
            }
            for (pos, &item) in items.iter().enumerate() {
                if let Some(child) = children[bucket(item)].as_ref() {
                    descend(child, &items[pos + 1..], hits);
                }
            }
        }
    }
}

/// Sorted subset test.
fn contains_sorted(hay: &[Item], needle: &[Item]) -> bool {
    let mut h = hay.iter();
    'outer: for want in needle {
        for have in h.by_ref() {
            match have.cmp(want) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
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
        let mut t = HashTree::build(&cands);
        t.add_transaction(tx(1, &[1, 2, 3]).items());
        t.add_transaction(tx(2, &[2, 3]).items());
        t.add_transaction(tx(3, &[1, 4]).items());
        assert_eq!(t.counts(), &[2, 1, 2, 1]);
    }

    #[test]
    fn splitting_leaves_still_count_correctly() {
        // Force splits with a tiny leaf capacity and many candidates.
        let cands: Vec<ItemSet> = (0..40u32)
            .map(|i| set(&[i % 10, 10 + (i % 7), 20 + (i % 5)]))
            .collect();
        let mut deduped = cands.clone();
        deduped.sort();
        deduped.dedup();
        let mut t = HashTree::with_capacity(&deduped, 2);
        let txs: Vec<Transaction> = (0..100)
            .map(|i| {
                tx(
                    i,
                    &[
                        (i % 10) as u32,
                        10 + (i % 7) as u32,
                        20 + (i % 5) as u32,
                        30 + (i % 3) as u32,
                    ],
                )
            })
            .collect();
        for txn in &txs {
            t.add_transaction(txn.items());
        }
        for (ci, cand) in deduped.iter().enumerate() {
            let naive = txs.iter().filter(|t| t.contains_all(cand.items())).count() as u64;
            assert_eq!(t.counts()[ci], naive, "candidate {cand}");
        }
    }

    #[test]
    fn matches_prefix_tree_on_random_data() {
        use demon_itemsets::PrefixTree;
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(12);
        let mut cands: Vec<ItemSet> = (0..80)
            .map(|_| {
                let k = rng.gen_range(1..=4usize);
                let mut ids: Vec<u32> = (0..30).collect();
                ids.shuffle(&mut rng);
                ItemSet::from_ids(&ids[..k])
            })
            .collect();
        cands.sort();
        cands.dedup();
        let block = TxBlock::new(
            BlockId(1),
            (0..500)
                .map(|i| {
                    let k = rng.gen_range(1..=12usize);
                    let mut ids: Vec<u32> = (0..30).collect();
                    ids.shuffle(&mut rng);
                    tx(i, &ids[..k])
                })
                .collect(),
        );
        let mut ht = HashTree::with_capacity(&cands, 3);
        ht.count_block(&block);
        let mut pt = PrefixTree::build(&cands);
        pt.count_block(&block);
        assert_eq!(ht.counts(), pt.counts());
    }

    #[test]
    fn empty_tree_and_empty_transactions() {
        let mut t = HashTree::build(&[]);
        assert!(t.is_empty());
        t.add_transaction(&[]);
        let cands = vec![set(&[1])];
        let mut t = HashTree::build(&cands);
        t.add_transaction(&[]);
        assert_eq!(t.into_counts(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        HashTree::with_capacity(&[], 0);
    }
}
