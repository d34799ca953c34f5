//! Itemsets: sorted, duplicate-free sets of items with the operations the
//! Apriori/BORDERS machinery needs (prefix join, subset enumeration).

use crate::Item;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of items, stored sorted ascending without duplicates.
///
/// The ordering invariant makes subset tests linear merges and lets the
/// classic *prefix join* of Apriori candidate generation (join two k-itemsets
/// sharing their first `k-1` items) operate on raw slices.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ItemSet(Box<[Item]>);

impl ItemSet {
    /// Builds an itemset, sorting and de-duplicating the input.
    pub fn new(mut items: Vec<Item>) -> Self {
        items.sort_unstable();
        items.dedup();
        ItemSet(items.into_boxed_slice())
    }

    /// The empty itemset.
    pub fn empty() -> Self {
        ItemSet(Box::new([]))
    }

    /// A singleton itemset.
    pub fn singleton(item: Item) -> Self {
        ItemSet(Box::new([item]))
    }

    /// The 2-itemset `{a, b}`; `a < b` is the caller's invariant.
    pub fn pair(a: Item, b: Item) -> Self {
        debug_assert!(a < b, "pair items out of order: {a} !< {b}");
        ItemSet(Box::new([a, b]))
    }

    /// Builds from a slice of raw ids (test/bench convenience).
    pub fn from_ids(ids: &[u32]) -> Self {
        ItemSet::new(ids.iter().copied().map(Item).collect())
    }

    /// The items, sorted ascending.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.0
    }

    /// Cardinality of the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `item` is a member (binary search).
    #[inline]
    pub fn contains(&self, item: Item) -> bool {
        self.0.binary_search(&item).is_ok()
    }

    /// Set union, preserving sortedness.
    pub fn union(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (self.0.iter().peekable(), other.0.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&x), Some(&&y)) => {
                    use std::cmp::Ordering::*;
                    match x.cmp(&y) {
                        Less => {
                            out.push(x);
                            a.next();
                        }
                        Greater => {
                            out.push(y);
                            b.next();
                        }
                        Equal => {
                            out.push(x);
                            a.next();
                            b.next();
                        }
                    }
                }
                (Some(&&x), None) => {
                    out.push(x);
                    a.next();
                }
                (None, Some(&&y)) => {
                    out.push(y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        ItemSet(out.into_boxed_slice())
    }

    /// The prefix join of Apriori candidate generation.
    ///
    /// If `self` and `other` are k-itemsets agreeing on their first `k-1`
    /// items, returns the (k+1)-itemset that extends the common prefix with
    /// both last items; otherwise returns `None`.
    pub fn prefix_join(&self, other: &ItemSet) -> Option<ItemSet> {
        let k = self.len();
        if k == 0 || other.len() != k {
            return None;
        }
        if self.0[..k - 1] != other.0[..k - 1] {
            return None;
        }
        let (x, y) = (self.0[k - 1], other.0[k - 1]);
        if x == y {
            return None;
        }
        let mut out = Vec::with_capacity(k + 1);
        out.extend_from_slice(&self.0[..k - 1]);
        if x < y {
            out.push(x);
            out.push(y);
        } else {
            out.push(y);
            out.push(x);
        }
        Some(ItemSet(out.into_boxed_slice()))
    }

    /// Extends the set with one item, returning `None` when already present.
    pub fn with_item(&self, item: Item) -> Option<ItemSet> {
        match self.0.binary_search(&item) {
            Ok(_) => None,
            Err(pos) => {
                let mut out = Vec::with_capacity(self.len() + 1);
                out.extend_from_slice(&self.0[..pos]);
                out.push(item);
                out.extend_from_slice(&self.0[pos..]);
                Some(ItemSet(out.into_boxed_slice()))
            }
        }
    }

    /// Iterates over all `(k-1)`-subsets of a k-itemset (each obtained by
    /// dropping one element). Used for the Apriori prune step and for
    /// negative-border bookkeeping.
    pub fn proper_maximal_subsets(&self) -> impl Iterator<Item = ItemSet> + '_ {
        (0..self.len()).map(move |skip| {
            let mut out = Vec::with_capacity(self.len() - 1);
            for (i, &it) in self.0.iter().enumerate() {
                if i != skip {
                    out.push(it);
                }
            }
            ItemSet(out.into_boxed_slice())
        })
    }

    /// Whether `pred(subset, dropped)` holds for every `(k-1)`-subset of
    /// this k-itemset, `dropped` being the item the subset leaves out —
    /// [`proper_maximal_subsets`](Self::proper_maximal_subsets) without an
    /// allocation per subset, for the BORDERS cascade's inner loops. The
    /// subsets are built one after another in `scratch` (same order: drop
    /// the first item, then the second, …), each differing from the one
    /// before in a single position, and are meant to be looked up in maps
    /// keyed by `ItemSet` through its `Borrow<[Item]>`. Stops at the first
    /// subset `pred` rejects; vacuously true for the empty set.
    pub fn all_maximal_subsets(
        &self,
        scratch: &mut Vec<Item>,
        mut pred: impl FnMut(&[Item], Item) -> bool,
    ) -> bool {
        let Some((&first, rest)) = self.0.split_first() else {
            return true;
        };
        scratch.clear();
        scratch.extend_from_slice(rest);
        if !pred(scratch, first) {
            return false;
        }
        for (j, &dropped) in rest.iter().enumerate() {
            scratch[j] = self.0[j];
            if !pred(scratch, dropped) {
                return false;
            }
        }
        true
    }

    /// All 2-subsets of the set (used by the ECUT+ materialization
    /// heuristic when decomposing an itemset into covered pairs).
    pub fn pairs(&self) -> impl Iterator<Item = (Item, Item)> + '_ {
        let s = &self.0;
        (0..s.len()).flat_map(move |i| (i + 1..s.len()).map(move |j| (s[i], s[j])))
    }
}

/// An itemset hashes, compares and orders exactly as its sorted item slice
/// (the derives above forward to the one boxed-slice field), so a map keyed
/// by `ItemSet` can be probed with a `&[Item]` built in a scratch buffer.
impl std::borrow::Borrow<[Item]> for ItemSet {
    fn borrow(&self) -> &[Item] {
        &self.0
    }
}

impl From<Vec<Item>> for ItemSet {
    fn from(v: Vec<Item>) -> Self {
        ItemSet::new(v)
    }
}

impl FromIterator<Item> for ItemSet {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        ItemSet::new(iter.into_iter().collect())
    }
}

impl fmt::Display for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for ItemSet {
    // Forward to Display: keeps dumps of candidate lists readable in tests.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let s = ItemSet::from_ids(&[3, 1, 3, 2]);
        assert_eq!(s.items(), ItemSet::from_ids(&[1, 2, 3]).items());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn union_merges_sorted() {
        let a = ItemSet::from_ids(&[1, 4, 6]);
        let b = ItemSet::from_ids(&[2, 4, 9]);
        assert_eq!(a.union(&b), ItemSet::from_ids(&[1, 2, 4, 6, 9]));
        assert_eq!(a.union(&ItemSet::empty()), a);
    }

    #[test]
    fn prefix_join_joins_shared_prefix() {
        let a = ItemSet::from_ids(&[1, 2, 5]);
        let b = ItemSet::from_ids(&[1, 2, 7]);
        assert_eq!(a.prefix_join(&b), Some(ItemSet::from_ids(&[1, 2, 5, 7])));
        // Symmetric result regardless of argument order.
        assert_eq!(b.prefix_join(&a), Some(ItemSet::from_ids(&[1, 2, 5, 7])));
    }

    #[test]
    fn prefix_join_rejects_mismatched_prefix_or_size() {
        let a = ItemSet::from_ids(&[1, 2, 5]);
        let c = ItemSet::from_ids(&[1, 3, 7]);
        assert_eq!(a.prefix_join(&c), None);
        let d = ItemSet::from_ids(&[1, 2]);
        assert_eq!(a.prefix_join(&d), None);
        assert_eq!(a.prefix_join(&a), None);
        assert_eq!(ItemSet::empty().prefix_join(&ItemSet::empty()), None);
    }

    #[test]
    fn singleton_join_builds_pairs() {
        let a = ItemSet::singleton(Item(4));
        let b = ItemSet::singleton(Item(2));
        assert_eq!(a.prefix_join(&b), Some(ItemSet::from_ids(&[2, 4])));
        assert_eq!(ItemSet::pair(Item(2), Item(4)), ItemSet::from_ids(&[2, 4]));
    }

    #[test]
    fn with_item_inserts_in_order() {
        let a = ItemSet::from_ids(&[1, 5]);
        assert_eq!(a.with_item(Item(3)), Some(ItemSet::from_ids(&[1, 3, 5])));
        assert_eq!(a.with_item(Item(0)), Some(ItemSet::from_ids(&[0, 1, 5])));
        assert_eq!(a.with_item(Item(9)), Some(ItemSet::from_ids(&[1, 5, 9])));
        assert_eq!(a.with_item(Item(5)), None);
    }

    #[test]
    fn maximal_subsets_drop_one_each() {
        let s = ItemSet::from_ids(&[1, 2, 3]);
        let subs: Vec<_> = s.proper_maximal_subsets().collect();
        assert_eq!(
            subs,
            vec![
                ItemSet::from_ids(&[2, 3]),
                ItemSet::from_ids(&[1, 3]),
                ItemSet::from_ids(&[1, 2]),
            ]
        );
    }

    #[test]
    fn borrowed_subset_walk_matches_the_allocating_one() {
        let mut scratch = Vec::new();
        for ids in [&[][..], &[4], &[1, 2], &[1, 2, 3, 7]] {
            let s = ItemSet::from_ids(ids);
            let mut seen = Vec::new();
            assert!(s.all_maximal_subsets(&mut scratch, |sub, dropped| {
                seen.push((ItemSet::new(sub.to_vec()), dropped));
                true
            }));
            let expected: Vec<_> = s
                .proper_maximal_subsets()
                .zip(s.items().iter().copied())
                .collect();
            assert_eq!(seen, expected);
        }
        // Stops at the first rejected subset.
        let mut calls = 0;
        assert!(!ItemSet::from_ids(&[1, 2, 3]).all_maximal_subsets(&mut scratch, |_, _| {
            calls += 1;
            calls < 2
        }));
        assert_eq!(calls, 2);
    }

    #[test]
    fn maps_keyed_by_itemset_answer_slice_probes() {
        let mut m: crate::FastMap<ItemSet, u64> = crate::FastMap::default();
        m.insert(ItemSet::from_ids(&[2, 5, 9]), 7);
        m.insert(ItemSet::empty(), 1);
        assert_eq!(m.get(&[Item(2), Item(5), Item(9)][..]), Some(&7));
        assert_eq!(m.get(&[][..]), Some(&1));
        assert_eq!(m.get(&[Item(2), Item(5)][..]), None);
    }

    #[test]
    fn pairs_enumerates_all_2_subsets() {
        let s = ItemSet::from_ids(&[1, 2, 3]);
        let pairs: Vec<_> = s.pairs().collect();
        assert_eq!(
            pairs,
            vec![
                (Item(1), Item(2)),
                (Item(1), Item(3)),
                (Item(2), Item(3))
            ]
        );
    }

    #[test]
    fn display_formats_braced() {
        assert_eq!(ItemSet::from_ids(&[2, 1]).to_string(), "{i1 i2}");
        assert_eq!(ItemSet::empty().to_string(), "{}");
    }
}
