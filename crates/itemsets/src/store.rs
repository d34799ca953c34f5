//! [`TxStore`]: the evolving transactional database.
//!
//! The store keeps both representations the paper discusses: the raw
//! transactional blocks (scanned by PT-Scan) and the per-block TID-lists
//! (read selectively by ECUT/ECUT+). In the paper the TID-lists *replace*
//! the transactional format; we keep both because the experiments compare
//! counting procedures head-to-head on the same data.
//!
//! Since the memory-bounded storage engine landed, both representations
//! of one block live in a single record (`TxEntry`) inside a
//! [`demon_store::BlockStore`]. Under `--memory-budget` cold blocks are
//! spilled to disk in the framed [`demon_types::durable`] format and
//! transparently re-pinned on access; per-block summary statistics
//! (transaction counts, item/pair space) stay resident so selector and
//! cost-model queries never touch the disk.
//!
//! The record codec lives here too: [`encode_block_txs`] is the bytes a
//! block's transactions travel the socket and the write-ahead log in, and
//! the spill frame of an entry embeds them beside its TID-lists. Nothing
//! else of a block is ever written to disk: the lists are derived on
//! arrival (the paper's "constructed when D_i is added … used without any
//! further changes") and rebuilt by [`TxStore::add_block`] on every load.

use crate::tidlist::{intersect_pair, BlockTidLists};
use demon_store::{BlockStore, Pinned, Spillable, StoreConfig};
use demon_types::durable::{put_block_header, put_tid_list, put_varint, FrameClass, Reader};
use demon_types::{Block, BlockId, DemonError, Item, Result, Tid, Transaction, TxBlock};
use std::collections::BTreeMap;
use std::ops::Deref;

/// Encodes one block's transactions: a count, then per transaction its
/// TID, its length and its items as delta-1 varints. This is the wire and
/// log encoding `demon-serve` ships itemset blocks in, and the record
/// section of a spilled entry.
pub fn encode_block_txs(block: &TxBlock) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, block.len() as u64);
    for tx in block.records() {
        put_varint(&mut buf, tx.tid().value());
        put_varint(&mut buf, tx.len() as u64);
        let mut prev = 0u64;
        for item in tx.items() {
            // Items are sorted and unique: delta-1 encoding.
            let v = u64::from(item.id());
            put_varint(&mut buf, v - prev);
            prev = v + 1;
        }
    }
    buf
}

/// Decodes a [`encode_block_txs`] payload back into a block, validating
/// every varint and item id against the `n_items` universe. Corruption
/// is a typed error, never a panic (the caller has already CRC-checked
/// the enclosing frame).
pub fn decode_block_txs(bytes: &[u8], id: BlockId, n_items: u32) -> Result<TxBlock> {
    Ok(Block::new(id, decode_txs(bytes, n_items)?))
}

/// The transactions of an [`encode_block_txs`] payload.
pub(crate) fn decode_txs(bytes: &[u8], n_items: u32) -> Result<Vec<Transaction>> {
    let mut r = Reader::new(bytes);
    let n = r.varint("transaction count")?;
    let n = r.count(n, 2, "transaction")?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let tid = Tid(r.varint("TID")?);
        let len = r.varint("item count")?;
        let len = r.count(len, 1, "item")?;
        let mut items = Vec::with_capacity(len);
        let mut prev = 0u64;
        for _ in 0..len {
            let at = r.pos();
            let gap = r.varint("item gap")?;
            let v = prev.checked_add(gap).ok_or_else(|| {
                DemonError::Serde(format!("item delta overflow at offset {at}"))
            })?;
            if v >= u64::from(n_items) {
                return Err(DemonError::Serde(format!(
                    "item id {v} at offset {at} outside the {n_items}-item universe"
                )));
            }
            items.push(Item(v as u32));
            prev = v + 1;
        }
        records.push(Transaction::from_sorted(tid, items));
    }
    r.finish("the last transaction")?;
    Ok(records)
}

/// Encodes the TID-list section of a spilled entry: the universe size,
/// one TID-list per item in item order, then the materialized pair lists
/// as `a | b | list`.
pub(crate) fn encode_lists(lists: &BlockTidLists, n_items: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, u64::from(n_items));
    for i in 0..n_items {
        put_tid_list(&mut buf, lists.item_list(Item(i)));
    }
    let pairs: Vec<(Item, Item)> = lists.materialized_pairs().collect();
    put_varint(&mut buf, pairs.len() as u64);
    for (a, b) in pairs {
        put_varint(&mut buf, u64::from(a.id()));
        put_varint(&mut buf, u64::from(b.id()));
        put_tid_list(&mut buf, lists.pair_list(a, b).unwrap_or(&[]));
    }
    buf
}

/// Decodes the pair-list section of an [`encode_lists`] payload (the
/// item-list section is skipped — item lists are rebuilt from the
/// transactions). Pure: nothing is applied to any store until the whole
/// payload validated.
pub(crate) fn decode_pairs(bytes: &[u8], n_items: u32) -> Result<Vec<(Item, Item, Vec<Tid>)>> {
    let mut r = Reader::new(bytes);
    let n = r.varint("item universe")?;
    if n != u64::from(n_items) {
        return Err(DemonError::Serde(format!(
            "tid file item universe {n} ≠ store universe {n_items}"
        )));
    }
    r.count(n, 1, "item list")?;
    for _ in 0..n_items {
        let len = r.varint("TID count")?;
        for _ in 0..r.count(len, 1, "TID")? {
            r.varint("TID gap")?;
        }
    }
    let n_pairs = r.varint("pair count")?;
    let n_pairs = r.count(n_pairs, 3, "pair")?;
    let mut out = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        let at = r.pos();
        let a = r.varint("pair item")?;
        let b = r.varint("pair item")?;
        if a >= b || b >= u64::from(n_items) {
            return Err(DemonError::Serde(format!(
                "invalid pair ({a}, {b}) at offset {at} for a {n_items}-item universe"
            )));
        }
        out.push((Item(a as u32), Item(b as u32), r.tid_list("pair TID-list")?));
    }
    r.finish("the last pair list")?;
    Ok(out)
}

/// Result of an ECUT+ pair-materialization pass over one block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaterializeStats {
    /// Number of 2-itemsets whose lists were written.
    pub pairs_materialized: usize,
    /// Number of 2-itemsets skipped because the budget ran out.
    pub pairs_skipped: usize,
    /// TIDs written for pair lists (the *extra* space of Figure 3).
    pub pair_space: u64,
}

/// Both representations of one block, stored (and spilled) together:
/// the raw transactions plus the per-item/pair TID-lists.
#[derive(Clone, Debug)]
pub(crate) struct TxEntry {
    /// The raw transactional block.
    pub block: TxBlock,
    /// The block's TID-lists (items + materialized pairs).
    pub lists: BlockTidLists,
    /// Size of the item universe (needed to re-encode the lists).
    pub n_items: u32,
}

impl Spillable for TxEntry {
    fn frame_class() -> FrameClass {
        FrameClass::TXENTRY
    }

    /// Payload: block header (varints), `n_items`, the length-prefixed
    /// `.txs` section, then the `.tid` section to the end of the frame.
    fn encode(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        put_block_header(&mut buf, put_varint, self.block.id(), self.block.interval());
        put_varint(&mut buf, u64::from(self.n_items));
        let txs = encode_block_txs(&self.block);
        put_varint(&mut buf, txs.len() as u64);
        buf.extend_from_slice(&txs);
        buf.extend_from_slice(&encode_lists(&self.lists, self.n_items));
        Ok(buf)
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let (id, interval) = r.block_header(Reader::varint)?;
        let n_items = r.varint("item universe")?;
        let n_items = u32::try_from(n_items)
            .map_err(|_| DemonError::Serde(format!("item universe {n_items} overflows u32")))?;
        let txs_len = r.varint("transaction payload length")?;
        let txs_len = r.count(txs_len, 1, "transaction payload byte")?;
        let txs = r.bytes(txs_len, "transaction payload")?;
        let block = Block::from_parts(id, interval, decode_txs(txs, n_items)?);
        // The pair section validates first: it bounds `n_items` by the
        // bytes present before anything is sized by it.
        let pairs = decode_pairs(r.rest(), n_items)?;
        // Item lists are rebuilt deterministically from the transactions;
        // only the ECUT+ pair investment travels in the payload.
        let mut lists = BlockTidLists::materialize(&block, n_items);
        for (a, b, list) in pairs {
            lists.insert_pair(a, b, list);
        }
        Ok(TxEntry {
            block,
            lists,
            n_items,
        })
    }

    fn resident_bytes(&self) -> u64 {
        // Deterministic content-based footprint: per-transaction headers,
        // item occurrences in both representations, pair-list TIDs, and
        // the per-item list headers.
        64 + 48 * self.block.len() as u64
            + 12 * self.lists.item_space()
            + 8 * self.lists.pair_space()
            + 32 * u64::from(self.n_items)
    }
}

/// Always-resident summary of one block, kept outside the engine so
/// space accounting and selector queries never fault a spilled block in.
#[derive(Clone, Copy, Debug)]
struct BlockInfo {
    n_transactions: u64,
    item_space: u64,
    pair_space: u64,
}

/// A pinned view of one block's raw transactions. While alive, the block
/// stays resident in the storage engine. Dereferences to [`TxBlock`].
pub struct BlockRef<'s> {
    entry: Pinned<'s, TxEntry>,
}

impl Deref for BlockRef<'_> {
    type Target = TxBlock;
    fn deref(&self) -> &TxBlock {
        &self.entry.block
    }
}

/// A pinned view of one block's TID-lists. Dereferences to
/// [`BlockTidLists`].
pub struct ListsRef<'s> {
    entry: Pinned<'s, TxEntry>,
}

impl Deref for ListsRef<'_> {
    type Target = BlockTidLists;
    fn deref(&self) -> &BlockTidLists {
        &self.entry.lists
    }
}

/// The TID-list side of the store, scoped per block. Obtained from
/// [`TxStore::tidlists`]; mirrors the old `TidListStore` read API.
pub struct TidListsView<'s> {
    store: &'s TxStore,
}

impl<'s> TidListsView<'s> {
    /// The lists of one block, pinned while the returned view is alive.
    ///
    /// # Panics
    /// If the block is spilled and its file cannot be read (see
    /// [`TxStore::block`]).
    pub fn block(&self, id: BlockId) -> Option<ListsRef<'s>> {
        self.store
            .pin_entry(id)
            .unwrap_or_else(|e| spill_panic(id, &e))
            .map(|entry| ListsRef { entry })
    }

    /// Size of the item universe.
    pub fn n_items(&self) -> u32 {
        self.store.n_items
    }
}

#[cold]
fn spill_panic(id: BlockId, e: &DemonError) -> ! {
    panic!("block {id}: spilled data unreadable: {e}")
}

/// The evolving database: raw blocks plus their TID-lists, held in a
/// memory-bounded [`BlockStore`].
#[derive(Debug)]
pub struct TxStore {
    engine: BlockStore<TxEntry>,
    infos: BTreeMap<BlockId, BlockInfo>,
    /// Cached ascending id list backing [`TxStore::block_ids`].
    ids: Vec<BlockId>,
    n_items: u32,
}

impl TxStore {
    /// An empty in-memory store over an item universe of size `n_items`
    /// (the historical unbounded behavior).
    pub fn new(n_items: u32) -> Self {
        TxStore {
            engine: BlockStore::in_memory(),
            infos: BTreeMap::new(),
            ids: Vec::new(),
            n_items,
        }
    }

    /// An empty store whose blocks live in a store built from `config` —
    /// in-memory, or disk-spilled under a byte budget.
    pub fn with_config(n_items: u32, config: &StoreConfig) -> Result<Self> {
        Ok(TxStore {
            engine: config.build("tx")?,
            infos: BTreeMap::new(),
            ids: Vec::new(),
            n_items,
        })
    }

    /// Size of the item universe.
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Adds a block: stores the raw transactions and materializes the
    /// per-item TID-lists in one scan.
    pub fn add_block(&mut self, block: TxBlock) {
        let lists = BlockTidLists::materialize(&block, self.n_items);
        let id = block.id();
        let info = BlockInfo {
            n_transactions: block.len() as u64,
            item_space: lists.item_space(),
            pair_space: lists.pair_space(),
        };
        if self.infos.insert(id, info).is_none() {
            let pos = self.ids.partition_point(|&b| b < id);
            self.ids.insert(pos, id);
        }
        self.engine.insert(
            id,
            TxEntry {
                block,
                lists,
                n_items: self.n_items,
            },
        );
    }

    /// Retires a block entirely (raw data, TID-lists and any spill file).
    pub fn remove_block(&mut self, id: BlockId) -> bool {
        if self.infos.remove(&id).is_none() {
            return false;
        }
        if let Ok(pos) = self.ids.binary_search(&id) {
            self.ids.remove(pos);
        }
        self.engine.remove(id);
        true
    }

    /// The raw block, if present, pinned while the returned view is
    /// alive (a pinned block cannot be evicted mid-read).
    ///
    /// # Panics
    /// If the block is spilled and its file cannot be read or decoded.
    /// Use [`TxStore::try_block`] where the error must be surfaced.
    pub fn block(&self, id: BlockId) -> Option<BlockRef<'_>> {
        self.try_block(id).unwrap_or_else(|e| spill_panic(id, &e))
    }

    /// [`TxStore::block`] surfacing spill-read failures as errors.
    pub fn try_block(&self, id: BlockId) -> Result<Option<BlockRef<'_>>> {
        Ok(self.pin_entry(id)?.map(|entry| BlockRef { entry }))
    }

    /// Pins the combined entry of one block (counting paths read both
    /// representations under a single pin).
    pub(crate) fn pin_entry(&self, id: BlockId) -> Result<Option<Pinned<'_, TxEntry>>> {
        if !self.infos.contains_key(&id) {
            return Ok(None);
        }
        self.engine.get(id)
    }

    /// Pins the entries of `ids` in the given order, skipping retired
    /// blocks. Counting passes call this *before* entering a parallel
    /// region, so loads (and their `store.*` counters) are serial and
    /// deterministic, and shards never touch the engine.
    ///
    /// # Panics
    /// If a spilled entry cannot be read (counting cannot proceed
    /// without the data).
    pub(crate) fn pin_entries(&self, ids: &[BlockId]) -> Vec<Pinned<'_, TxEntry>> {
        ids.iter()
            .filter_map(|&id| self.pin_entry(id).unwrap_or_else(|e| spill_panic(id, &e)))
            .collect()
    }

    /// All stored block ids, ascending. Returns a cached slice — no
    /// allocation per call.
    pub fn block_ids(&self) -> &[BlockId] {
        &self.ids
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether the store holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Total transactions across the given blocks (summary data; never
    /// faults spilled blocks in).
    pub fn n_transactions(&self, ids: &[BlockId]) -> u64 {
        ids.iter()
            .filter_map(|id| self.infos.get(id))
            .map(|info| info.n_transactions)
            .sum()
    }

    /// The TID-list side of the store.
    pub fn tidlists(&self) -> TidListsView<'_> {
        TidListsView { store: self }
    }

    /// Space (in TIDs) of the per-item lists of the given blocks — equal to
    /// the transactional size of those blocks.
    pub fn item_space(&self, ids: &[BlockId]) -> u64 {
        ids.iter()
            .filter_map(|id| self.infos.get(id))
            .map(|info| info.item_space)
            .sum()
    }

    /// Extra space (in TIDs) of materialized pair lists of the given blocks.
    pub fn pair_space(&self, ids: &[BlockId]) -> u64 {
        ids.iter()
            .filter_map(|id| self.infos.get(id))
            .map(|info| info.pair_space)
            .sum()
    }

    /// Deterministic footprint of the blocks currently resident in
    /// memory, in bytes (test and `--stats` support).
    pub fn resident_bytes(&self) -> u64 {
        self.engine.resident_bytes()
    }

    /// ECUT+ materialization for a newly added block: writes TID-lists for
    /// `pairs` (callers pass the current frequent 2-itemsets, highest
    /// overall support first) until `budget` TIDs have been written.
    /// `budget = None` materializes everything (the paper's Figure 2/3
    /// setting: "all 2-frequent itemsets in each block materialized").
    ///
    /// # Panics
    /// If the block is spilled and its file cannot be read.
    pub fn materialize_pairs(
        &mut self,
        id: BlockId,
        pairs: &[(Item, Item)],
        budget: Option<u64>,
    ) -> MaterializeStats {
        let mut stats = MaterializeStats::default();
        if !self.infos.contains_key(&id) {
            stats.pairs_skipped = pairs.len();
            return stats;
        }
        let budget = budget.unwrap_or(u64::MAX);
        // `&mut self` guarantees no live pins, so the mutation can only
        // fail on spill I/O.
        let applied = self
            .engine
            .with_mut(id, |entry| {
                let lists = &mut entry.lists;
                for &(a, b) in pairs {
                    debug_assert!(a < b, "pairs must be ordered");
                    let list = intersect_pair(lists.item_list(a), lists.item_list(b));
                    let extra = list.len() as u64;
                    if stats.pair_space + extra > budget {
                        // Higher-priority pairs come first; once the budget
                        // is hit, everything after is skipped too (the paper
                        // picks by descending overall support).
                        stats.pairs_skipped = pairs.len() - stats.pairs_materialized;
                        break;
                    }
                    lists.insert_pair(a, b, list);
                    stats.pairs_materialized += 1;
                    stats.pair_space += extra;
                }
                lists.pair_space()
            })
            .unwrap_or_else(|e| spill_panic(id, &e));
        if let (Some(total_pair_space), Some(info)) = (applied, self.infos.get_mut(&id)) {
            info.pair_space = total_pair_space;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::{BlockInterval, Tid, Timestamp, Transaction};

    fn block(id: u64, txs: &[(u64, &[u32])]) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            txs.iter()
                .map(|(tid, items)| {
                    Transaction::new(Tid(*tid), items.iter().copied().map(Item).collect())
                })
                .collect(),
        )
    }

    fn sample_store() -> TxStore {
        let mut s = TxStore::new(4);
        s.add_block(block(1, &[(1, &[0, 1, 2]), (2, &[0, 1]), (3, &[2, 3])]));
        s.add_block(block(2, &[(4, &[0, 1]), (5, &[1, 2])]));
        s
    }

    #[test]
    fn add_query_remove_blocks() {
        let mut s = sample_store();
        assert_eq!(s.len(), 2);
        assert_eq!(s.block(BlockId(1)).unwrap().len(), 3);
        assert_eq!(s.block_ids(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(s.n_transactions(&[BlockId(1), BlockId(2)]), 5);
        assert_eq!(s.n_transactions(&[BlockId(2)]), 2);
        assert!(s.remove_block(BlockId(1)));
        assert!(!s.remove_block(BlockId(1)));
        assert!(s.tidlists().block(BlockId(1)).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn tidlists_materialized_on_add() {
        let s = sample_store();
        let lists = s.tidlists().block(BlockId(1)).unwrap();
        assert_eq!(lists.item_support(Item(0)), 2);
        assert_eq!(lists.item_support(Item(3)), 1);
        // 3+2+2 = 7 item occurrences in block 1, 2+2 in block 2.
        assert_eq!(s.item_space(&[BlockId(1)]), 7);
        assert_eq!(s.item_space(&[BlockId(1), BlockId(2)]), 11);
    }

    #[test]
    fn materialize_pairs_unbounded() {
        let mut s = sample_store();
        let pairs = [(Item(0), Item(1)), (Item(1), Item(2))];
        let st = s.materialize_pairs(BlockId(1), &pairs, None);
        assert_eq!(st.pairs_materialized, 2);
        assert_eq!(st.pairs_skipped, 0);
        // {0,1} appears in TIDs 1,2; {1,2} in TID 1 → 3 TIDs of extra space.
        assert_eq!(st.pair_space, 3);
        assert_eq!(s.pair_space(&[BlockId(1)]), 3);
        let lists = s.tidlists().block(BlockId(1)).unwrap();
        assert_eq!(lists.pair_list(Item(0), Item(1)).unwrap().len(), 2);
    }

    #[test]
    fn materialize_pairs_respects_budget() {
        let mut s = sample_store();
        let pairs = [(Item(0), Item(1)), (Item(1), Item(2))];
        // Budget of 2 TIDs: the first pair (2 TIDs) fits, the second does not.
        let st = s.materialize_pairs(BlockId(1), &pairs, Some(2));
        assert_eq!(st.pairs_materialized, 1);
        assert_eq!(st.pairs_skipped, 1);
        assert_eq!(st.pair_space, 2);
        let lists = s.tidlists().block(BlockId(1)).unwrap();
        assert!(lists.pair_list(Item(0), Item(1)).is_some());
        assert!(lists.pair_list(Item(1), Item(2)).is_none());
    }

    #[test]
    fn materialize_pairs_unknown_block() {
        let mut s = sample_store();
        let st = s.materialize_pairs(BlockId(9), &[(Item(0), Item(1))], None);
        assert_eq!(st.pairs_materialized, 0);
        assert_eq!(st.pairs_skipped, 1);
    }

    #[test]
    fn spilled_blocks_reload_identically() {
        use demon_store::SpillPolicy;
        let dir = std::env::temp_dir().join(format!("demon-txstore-{}", std::process::id()));
        let config = StoreConfig::Spill {
            dir: dir.clone(),
            policy: SpillPolicy::Always,
            cleanup: true,
        };
        let mut spilled = TxStore::with_config(4, &config).unwrap();
        let mut reference = TxStore::new(4);
        for s in [&mut spilled, &mut reference] {
            s.add_block(block(1, &[(1, &[0, 1, 2]), (2, &[0, 1]), (3, &[2, 3])]));
            s.add_block(block(2, &[(4, &[0, 1]), (5, &[1, 2])]));
            s.materialize_pairs(BlockId(1), &[(Item(0), Item(1))], None);
        }
        // Everything unpinned was evicted to disk.
        assert_eq!(spilled.resident_bytes(), 0);
        for id in [BlockId(1), BlockId(2)] {
            let (a, b) = (spilled.block(id).unwrap(), reference.block(id).unwrap());
            assert_eq!(a.records(), b.records());
            let (la, lb) = (
                spilled.tidlists().block(id).unwrap(),
                reference.tidlists().block(id).unwrap(),
            );
            for i in 0..4u32 {
                assert_eq!(la.item_list(Item(i)), lb.item_list(Item(i)));
            }
        }
        // The ECUT+ pair investment survives the spill round-trip.
        assert_eq!(
            spilled
                .tidlists()
                .block(BlockId(1))
                .unwrap()
                .pair_list(Item(0), Item(1)),
            reference
                .tidlists()
                .block(BlockId(1))
                .unwrap()
                .pair_list(Item(0), Item(1))
        );
        assert_eq!(spilled.pair_space(&[BlockId(1)]), 2);
    }

    #[test]
    fn entry_roundtrips_with_interval() {
        let b = Block::with_interval(
            BlockId(7),
            BlockInterval::new(Timestamp(100), Timestamp(200)),
            vec![Transaction::new(Tid(1), vec![Item(0), Item(2)])],
        );
        let mut lists = BlockTidLists::materialize(&b, 3);
        lists.insert_pair(Item(0), Item(2), vec![Tid(1)]);
        let entry = TxEntry {
            block: b,
            lists,
            n_items: 3,
        };
        let bytes = entry.encode().unwrap();
        let back = TxEntry::decode(&bytes).unwrap();
        assert_eq!(back.block.records(), entry.block.records());
        assert_eq!(back.block.interval(), entry.block.interval());
        assert_eq!(
            back.lists.pair_list(Item(0), Item(2)),
            entry.lists.pair_list(Item(0), Item(2))
        );
        assert_eq!(back.resident_bytes(), entry.resident_bytes());
    }
}
