//! Blocks: the unit of systematic data evolution.

use crate::{BlockInterval, Point, Transaction};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a block in the (conceptually infinite) sequence
/// `D_1, D_2, …`. Identifiers are natural numbers increasing in arrival
/// order (paper §2.1); we number from **1** to match the paper's notation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct BlockId(pub u64);

impl BlockId {
    /// The first block identifier.
    pub const FIRST: BlockId = BlockId(1);

    /// The raw identifier value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// The identifier of the next block to arrive.
    #[inline]
    pub fn next(self) -> BlockId {
        BlockId(self.0 + 1)
    }

    /// The identifier before this one (`None` before the first): the
    /// `latest` of a consumer that expects this block next.
    #[inline]
    pub fn prev(self) -> Option<BlockId> {
        (self > BlockId::FIRST).then(|| BlockId(self.0 - 1))
    }

    /// The first block of the window of `w` blocks that ends at this
    /// one — `D_{t−w+1}`, or the first block while the stream is shorter
    /// than the window.
    #[inline]
    pub fn window_start(self, w: usize) -> BlockId {
        BlockId(self.0.saturating_sub(w as u64) + 1)
    }

    /// Zero-based position of this block in the sequence.
    #[inline]
    pub fn index(self) -> usize {
        debug_assert!(self.0 >= 1, "block ids are 1-based");
        (self.0 - 1) as usize
    }
}

impl From<u64> for BlockId {
    #[inline]
    fn from(v: u64) -> Self {
        BlockId(v)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// A block of records added to the database in one evolution step.
///
/// A block is immutable after construction: systematic evolution adds and
/// retires whole blocks, never edits records in place. The optional
/// [`BlockInterval`] records the wall-clock span covered by the block
/// (irregular spans are allowed — paper §2.1) and drives the calendar
/// reporting in the pattern-detection experiments.
#[derive(Clone, Serialize, Deserialize)]
pub struct Block<T> {
    id: BlockId,
    interval: Option<BlockInterval>,
    records: Vec<T>,
}

/// A block of market-basket transactions.
pub type TxBlock = Block<Transaction>;
/// A block of numeric points.
pub type PointBlock = Block<Point>;

impl<T> Block<T> {
    /// Builds a block with no wall-clock interval.
    pub fn new(id: BlockId, records: Vec<T>) -> Self {
        Block {
            id,
            interval: None,
            records,
        }
    }

    /// Builds a block covering the wall-clock interval `interval`.
    pub fn with_interval(id: BlockId, interval: BlockInterval, records: Vec<T>) -> Self {
        Block {
            id,
            interval: Some(interval),
            records,
        }
    }

    /// Builds a block from a decoded header (see
    /// [`crate::durable::Reader::block_header`]) and its records.
    pub fn from_parts(id: BlockId, interval: Option<BlockInterval>, records: Vec<T>) -> Self {
        Block {
            id,
            interval,
            records,
        }
    }

    /// The block identifier.
    #[inline]
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The wall-clock interval covered by the block, if known.
    #[inline]
    pub fn interval(&self) -> Option<BlockInterval> {
        self.interval
    }

    /// The records in the block.
    #[inline]
    pub fn records(&self) -> &[T] {
        &self.records
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the block holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.records.iter()
    }

    /// Consumes the block, yielding its records.
    pub fn into_records(self) -> Vec<T> {
        self.records
    }

    /// Merges several blocks into one coarser block — the paper's time
    /// hierarchy (§2.1: "we just merge all blocks that fall under the
    /// same parent"). Records concatenate in block order; the interval
    /// spans from the earliest start to the latest end when every input
    /// carries one.
    pub fn merge(id: BlockId, blocks: Vec<Block<T>>) -> Block<T> {
        assert!(!blocks.is_empty(), "cannot merge zero blocks");
        let interval = blocks
            .iter()
            .map(|b| b.interval())
            .collect::<Option<Vec<_>>>()
            .map(|ivs| {
                let start = ivs.iter().map(|iv| iv.start).min().expect("non-empty");
                let end = ivs.iter().map(|iv| iv.end).max().expect("non-empty");
                BlockInterval::new(start, end)
            });
        let mut records = Vec::with_capacity(blocks.iter().map(Block::len).sum());
        for b in blocks {
            records.extend(b.records);
        }
        Block {
            id,
            interval,
            records,
        }
    }
}

impl<'a, T> IntoIterator for &'a Block<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl<T> fmt::Debug for Block<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{} records]", self.id, self.records.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timestamp;

    #[test]
    fn block_id_is_one_based() {
        assert_eq!(BlockId::FIRST.value(), 1);
        assert_eq!(BlockId::FIRST.index(), 0);
        assert_eq!(BlockId(3).next(), BlockId(4));
        assert_eq!(BlockId(3).index(), 2);
    }

    #[test]
    fn block_exposes_records_and_len() {
        let b: Block<u32> = Block::new(BlockId(1), vec![10, 20, 30]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.records(), &[10, 20, 30]);
        assert_eq!(b.iter().copied().sum::<u32>(), 60);
        assert_eq!(b.interval(), None);
    }

    #[test]
    fn block_with_interval_keeps_it() {
        let iv = BlockInterval::new(Timestamp(0), Timestamp(3600));
        let b: Block<u32> = Block::with_interval(BlockId(2), iv, vec![]);
        assert!(b.is_empty());
        assert_eq!(b.interval(), Some(iv));
    }

    #[test]
    fn into_records_consumes() {
        let b: Block<u32> = Block::new(BlockId(1), vec![1, 2]);
        assert_eq!(b.into_records(), vec![1, 2]);
    }

    #[test]
    fn merge_concatenates_and_spans_intervals() {
        let iv = |a: u64, b: u64| BlockInterval::new(Timestamp(a), Timestamp(b));
        let b1: Block<u32> = Block::with_interval(BlockId(1), iv(0, 100), vec![1, 2]);
        let b2: Block<u32> = Block::with_interval(BlockId(2), iv(100, 200), vec![3]);
        let merged = Block::merge(BlockId(10), vec![b1, b2]);
        assert_eq!(merged.id(), BlockId(10));
        assert_eq!(merged.records(), &[1, 2, 3]);
        assert_eq!(merged.interval(), Some(iv(0, 200)));
    }

    #[test]
    fn merge_without_intervals_yields_none() {
        let b1: Block<u32> = Block::new(BlockId(1), vec![1]);
        let b2: Block<u32> =
            Block::with_interval(BlockId(2), BlockInterval::new(Timestamp(0), Timestamp(1)), vec![2]);
        let merged = Block::merge(BlockId(3), vec![b1, b2]);
        assert_eq!(merged.interval(), None);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    #[should_panic(expected = "zero blocks")]
    fn merge_rejects_empty_input() {
        let _: Block<u32> = Block::merge(BlockId(1), vec![]);
    }

    #[test]
    fn debug_is_compact() {
        let b: Block<u32> = Block::new(BlockId(5), vec![1]);
        assert_eq!(format!("{b:?}"), "D5[1 records]");
    }
}
