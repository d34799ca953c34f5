//! `demon-store` — the memory-bounded block storage engine shared by
//! every DEMON maintainer.
//!
//! DEMON's premise is an *unbounded* stream of blocks, so no maintainer
//! may assume the full block history fits in RAM. This crate provides the
//! one storage abstraction they all share: a [`BlockStore`] maps a
//! [`BlockId`] to a value of any [`Spillable`] type and keeps only a
//! bounded *residency set* in memory. Everything else lives on disk in
//! the crash-safe framed format from [`demon_types::durable`] and is
//! transparently re-loaded on access.
//!
//! # Backends
//!
//! | Backend | Residency | Used for |
//! |---|---|---|
//! | in-memory | everything stays resident, nothing is ever evicted | the historical default; small stores |
//! | spill + [`SpillPolicy::Budget`] | LRU set bounded by a byte budget | `--memory-budget` replay of every maintainer |
//! | spill + [`SpillPolicy::Always`] | nothing unpinned stays resident | GEMM's disk model shelf (write-through) |
//!
//! # Pinning
//!
//! [`BlockStore::get`] returns a [`Pinned`] guard. While any guard for a
//! block is alive the block cannot be evicted (a counting pass pins every
//! block it reads so supports are computed against stable data) and
//! cannot be physically removed — [`BlockStore::remove`] of a pinned
//! block is *deferred*: the block disappears from [`BlockStore::ids`]
//! immediately and is reclaimed when the last pin drops.
//!
//! # Determinism
//!
//! The engine participates in the PR 3 observability contract: counter
//! totals must not depend on the thread count. All bookkeeping that
//! could be reordered by parallel execution — hit/miss counters, LRU
//! clock advances, evictions, the resident-bytes high-water mark — is
//! *frozen* while [`demon_types::parallel::in_parallel_region`] reports
//! a parallel region (loads still work; they simply don't advance the
//! clock, and deferred evictions run at the next serial operation).
//! Since the parallel layer marks regions even when executing serially,
//! the engine behaves identically at every thread count.
//!
//! # Observability
//!
//! Five [`demon_types::obs`] counters expose the engine:
//! `store.hits`, `store.misses`, `store.evictions`,
//! `store.bytes_spilled` and `store.bytes_resident` (a high-water mark).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use demon_types::durable::{self, FrameClass, Reader, Row};
use demon_types::obs::{self, Counter};
use demon_types::{parallel, Block, BlockId, DemonError, Result};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// A value that can live in a [`BlockStore`]: it knows how to serialize
/// itself into the framed on-disk format and how big it is in memory.
///
/// `decode(encode(v))` must reproduce `v` exactly — models maintained
/// over spilled blocks are required to be byte-identical to models
/// maintained fully in memory.
pub trait Spillable: Send + Sync + Sized {
    /// Frame class tag for this record type (see [`demon_types::durable`]).
    fn frame_class() -> FrameClass;

    /// File name of the spilled value inside the store's directory.
    fn spill_file_name(id: BlockId) -> String {
        format!("block_{}.bin", id.value())
    }

    /// Serializes the value. The payload must be self-describing: decode
    /// receives nothing but these bytes.
    fn encode(&self) -> Result<Vec<u8>>;

    /// Deserializes a value previously produced by [`Spillable::encode`].
    fn decode(bytes: &[u8]) -> Result<Self>;

    /// Deterministic estimate of the value's in-memory footprint in
    /// bytes. Only used for budget accounting; it must depend on the
    /// value's *content*, never on allocator or platform details, so
    /// eviction decisions are reproducible.
    fn resident_bytes(&self) -> u64;
}

/// A block of fixed-width numeric records ([`Row`]) as the engine stores
/// it — the one spill codec of the point and labeled-point maintainers.
/// Payload: block header (fixed-width), `dim u64`, then the same
/// `count | rows` section the records cross the wire in.
#[derive(Clone, Debug)]
pub struct BlockEntry<R>(pub Block<R>);

impl<R: Row + Send + Sync> Spillable for BlockEntry<R> {
    fn frame_class() -> FrameClass {
        R::FRAME
    }

    fn encode(&self) -> Result<Vec<u8>> {
        let block = &self.0;
        let mut buf = Vec::new();
        durable::put_block_header(&mut buf, durable::put_u64, block.id(), block.interval());
        durable::put_u64(&mut buf, durable::rows_dim(block.records()) as u64);
        durable::put_rows(&mut buf, block.id(), block.records())?;
        Ok(buf)
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let (id, interval) = r.block_header(Reader::u64)?;
        let dim = r.u64("point dimension")?;
        let dim = usize::try_from(dim)
            .map_err(|_| DemonError::Serde(format!("point dimension {dim} overflows usize")))?;
        let records = r.rows(dim)?;
        r.finish("the last record")?;
        Ok(BlockEntry(Block::from_parts(id, interval, records)))
    }

    fn resident_bytes(&self) -> u64 {
        // Deterministic content-based footprint: per-record header plus
        // the row payload.
        let row = 32 + 8 * (R::HEAD_WORDS + durable::rows_dim(self.0.records())) as u64;
        64 + self.0.len() as u64 * row
    }
}

/// When a spill-backed store evicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpillPolicy {
    /// Keep the least-recently-used residency set under this many bytes.
    Budget(u64),
    /// Evict every unpinned value after each operation (write-through;
    /// GEMM's disk shelf).
    Always,
}

/// How a component should build its [`BlockStore`]s. Threaded from
/// `demon-cli --memory-budget` down into every maintainer.
#[derive(Clone, Debug, Default)]
pub enum StoreConfig {
    /// Keep everything in memory (the historical behavior).
    #[default]
    InMemory,
    /// Spill to disk under `dir`.
    Spill {
        /// Base directory; each store built from this config gets its
        /// own labelled subdirectory.
        dir: PathBuf,
        /// Eviction policy shared by every store built from this config.
        policy: SpillPolicy,
        /// Remove each store's spill directory when the store is dropped.
        cleanup: bool,
    },
}

impl StoreConfig {
    /// A spill config with an LRU byte budget under `dir`, cleaned up on
    /// drop — what `--memory-budget` builds.
    pub fn budget(dir: PathBuf, bytes: u64) -> Self {
        StoreConfig::Spill {
            dir,
            policy: SpillPolicy::Budget(bytes),
            cleanup: true,
        }
    }

    /// Whether this config keeps everything in memory.
    pub fn is_in_memory(&self) -> bool {
        matches!(self, StoreConfig::InMemory)
    }

    /// Builds a store for record type `R`. Spill-backed stores get their
    /// own `<dir>/<label>/` subdirectory so stores of different record
    /// types never collide on file names.
    pub fn build<R: Spillable>(&self, label: &str) -> Result<BlockStore<R>> {
        match self {
            StoreConfig::InMemory => Ok(BlockStore::in_memory()),
            StoreConfig::Spill {
                dir,
                policy,
                cleanup,
            } => BlockStore::spill(dir.join(label), *policy, *cleanup),
        }
    }
}

#[derive(Debug)]
enum Backend {
    InMemory,
    Spill {
        dir: PathBuf,
        policy: SpillPolicy,
        cleanup: bool,
    },
}

struct Entry<R> {
    /// `Some` while resident.
    value: Option<Arc<R>>,
    /// Deterministic footprint, fixed at insert / last mutation.
    bytes: u64,
    /// Live [`Pinned`] guards.
    pins: u32,
    /// LRU clock value of the last touch.
    last_use: u64,
    /// The spill file is missing or stale; eviction must (re)write it.
    dirty: bool,
    /// Removed while pinned; reclaimed when the last pin drops.
    doomed: bool,
}

struct Inner<R> {
    entries: BTreeMap<BlockId, Entry<R>>,
    /// LRU clock; advances only outside parallel regions.
    tick: u64,
    /// Total `bytes` of resident entries.
    resident: u64,
}

/// A generic block store: `BlockId → R` with a bounded in-memory
/// residency set. See the crate docs for backend and pinning semantics.
///
/// All methods take `&self`; the store is internally synchronized and
/// may be shared across the deterministic parallel layer's worker
/// threads.
pub struct BlockStore<R: Spillable> {
    inner: Mutex<Inner<R>>,
    backend: Backend,
}

impl<R: Spillable> std::fmt::Debug for BlockStore<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStore")
            .field("backend", &self.backend)
            .field("len", &self.len())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

/// A pin on one block: while alive, the block stays resident and cannot
/// be evicted or physically removed. Dereferences to the stored value.
pub struct Pinned<'s, R: Spillable> {
    store: &'s BlockStore<R>,
    id: BlockId,
    value: Arc<R>,
}

impl<R: Spillable> Deref for Pinned<'_, R> {
    type Target = R;
    fn deref(&self) -> &R {
        &self.value
    }
}

impl<R: Spillable> Drop for Pinned<'_, R> {
    fn drop(&mut self) {
        self.store.unpin(self.id);
    }
}

impl<R: Spillable> Pinned<'_, R> {
    /// The pinned block's id.
    pub fn id(&self) -> BlockId {
        self.id
    }
}

impl<R: Spillable> BlockStore<R> {
    /// A store that keeps everything resident and never evicts.
    pub fn in_memory() -> Self {
        BlockStore {
            inner: Mutex::new(Inner {
                entries: BTreeMap::new(),
                tick: 0,
                resident: 0,
            }),
            backend: Backend::InMemory,
        }
    }

    /// A spill-backed store under `dir` (created if missing). With
    /// `cleanup`, the directory is removed when the store is dropped.
    pub fn spill(dir: PathBuf, policy: SpillPolicy, cleanup: bool) -> Result<Self> {
        std::fs::create_dir_all(&dir)?;
        Ok(BlockStore {
            inner: Mutex::new(Inner {
                entries: BTreeMap::new(),
                tick: 0,
                resident: 0,
            }),
            backend: Backend::Spill {
                dir,
                policy,
                cleanup,
            },
        })
    }

    /// The spill directory, if this store spills.
    pub fn spill_dir(&self) -> Option<&Path> {
        match &self.backend {
            Backend::InMemory => None,
            Backend::Spill { dir, .. } => Some(dir),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<R>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spill_path(&self, id: BlockId) -> Option<PathBuf> {
        match &self.backend {
            Backend::InMemory => None,
            Backend::Spill { dir, .. } => Some(dir.join(R::spill_file_name(id))),
        }
    }

    /// Inserts (or replaces) a block. The new value starts resident and
    /// dirty; the store evicts other blocks as its policy demands.
    pub fn insert(&self, id: BlockId, value: R) {
        let bytes = value.resident_bytes();
        let frozen = parallel::in_parallel_region();
        let mut inner = self.lock();
        if !frozen {
            inner.tick += 1;
        }
        let tick = inner.tick;
        let old = inner.entries.insert(
            id,
            Entry {
                value: Some(Arc::new(value)),
                bytes,
                pins: 0,
                last_use: tick,
                dirty: true,
                doomed: false,
            },
        );
        if let Some(old) = old {
            if old.value.is_some() {
                inner.resident = inner.resident.saturating_sub(old.bytes);
            }
        }
        inner.resident += bytes;
        if !frozen {
            self.enforce(&mut inner);
            obs::record_max(Counter::StoreBytesResident, inner.resident);
        }
    }

    /// Fetches a block, loading it from its spill file if necessary, and
    /// pins it for the lifetime of the returned guard. `Ok(None)` for an
    /// unknown (or logically removed) id; `Err` when the spill file
    /// cannot be read or decoded (the entry and its file are left in
    /// place so a later repair can retry).
    pub fn get(&self, id: BlockId) -> Result<Option<Pinned<'_, R>>> {
        let frozen = parallel::in_parallel_region();
        let mut inner = self.lock();
        let (resident, bytes) = match inner.entries.get(&id) {
            None => return Ok(None),
            Some(e) if e.doomed => return Ok(None),
            Some(e) => (e.value.clone(), e.bytes),
        };
        let (value, loaded) = match resident {
            Some(v) => (v, false),
            None => (Arc::new(self.load(id)?), true),
        };
        if !frozen {
            inner.tick += 1;
            obs::incr(if loaded {
                Counter::StoreMisses
            } else {
                Counter::StoreHits
            });
        }
        let tick = inner.tick;
        if let Some(e) = inner.entries.get_mut(&id) {
            e.pins += 1;
            e.last_use = tick;
            if loaded {
                e.value = Some(value.clone());
                // Freshly loaded from its own spill file: not dirty.
                e.dirty = false;
            }
        }
        if loaded {
            inner.resident += bytes;
        }
        if !frozen {
            self.enforce(&mut inner);
            obs::record_max(Counter::StoreBytesResident, inner.resident);
        }
        Ok(Some(Pinned {
            store: self,
            id,
            value,
        }))
    }

    /// Removes a block from the store and returns its value, deleting
    /// any spill file. `Err(InvalidParameter)` if the block is pinned;
    /// on a load error the entry and its file are left untouched.
    pub fn take(&self, id: BlockId) -> Result<Option<R>> {
        let frozen = parallel::in_parallel_region();
        let mut inner = self.lock();
        match inner.entries.get(&id) {
            None => return Ok(None),
            Some(e) if e.doomed => return Ok(None),
            Some(e) if e.pins > 0 => {
                return Err(DemonError::InvalidParameter(format!(
                    "take of pinned block {id}"
                )))
            }
            Some(_) => {}
        }
        let has_value = inner
            .entries
            .get(&id)
            .is_some_and(|e| e.value.is_some());
        if !has_value {
            // Load before removing anything, so an error is retryable.
            let value = self.load(id)?;
            inner.entries.remove(&id);
            self.delete_spill_file(id);
            if !frozen {
                obs::incr(Counter::StoreMisses);
            }
            return Ok(Some(value));
        }
        let entry = match inner.entries.remove(&id) {
            Some(e) => e,
            None => return Ok(None),
        };
        inner.resident = inner.resident.saturating_sub(entry.bytes);
        self.delete_spill_file(id);
        if !frozen {
            obs::incr(Counter::StoreHits);
            obs::record_max(Counter::StoreBytesResident, inner.resident);
        }
        match entry.value.map(Arc::try_unwrap) {
            Some(Ok(value)) => Ok(Some(value)),
            // pins == 0 was checked above, so the entry held the only Arc.
            _ => Err(DemonError::InvalidParameter(format!(
                "block {id} still referenced during take"
            ))),
        }
    }

    /// Mutates a block in place (loading it first if spilled). The value
    /// is re-measured and marked dirty so a later eviction rewrites its
    /// spill file. `Err(InvalidParameter)` if the block is pinned.
    pub fn with_mut<T>(&self, id: BlockId, f: impl FnOnce(&mut R) -> T) -> Result<Option<T>> {
        let frozen = parallel::in_parallel_region();
        let mut inner = self.lock();
        let (resident, old_bytes) = match inner.entries.get(&id) {
            None => return Ok(None),
            Some(e) if e.doomed => return Ok(None),
            Some(e) if e.pins > 0 => {
                return Err(DemonError::InvalidParameter(format!(
                    "mutation of pinned block {id}"
                )))
            }
            Some(e) => (e.value.is_some(), e.bytes),
        };
        if !resident {
            let value = self.load(id)?;
            if let Some(e) = inner.entries.get_mut(&id) {
                e.value = Some(Arc::new(value));
            }
            inner.resident += old_bytes;
            if !frozen {
                obs::incr(Counter::StoreMisses);
            }
        } else if !frozen {
            obs::incr(Counter::StoreHits);
        }
        if !frozen {
            inner.tick += 1;
        }
        let tick = inner.tick;
        let new_bytes = {
            let Some(e) = inner.entries.get_mut(&id) else {
                return Ok(None);
            };
            e.last_use = tick;
            e.dirty = true;
            let Some(arc) = e.value.as_mut() else {
                return Ok(None);
            };
            let Some(value) = Arc::get_mut(arc) else {
                // Unreachable: pins == 0 means the entry holds the only Arc.
                return Err(DemonError::InvalidParameter(format!(
                    "block {id} still referenced during mutation"
                )));
            };
            let t = f(value);
            let new_bytes = value.resident_bytes();
            e.bytes = new_bytes;
            Some((t, new_bytes))
        };
        let Some((t, new_bytes)) = new_bytes else {
            return Ok(None);
        };
        inner.resident = inner
            .resident
            .saturating_sub(old_bytes)
            .saturating_add(new_bytes);
        if !frozen {
            self.enforce(&mut inner);
            obs::record_max(Counter::StoreBytesResident, inner.resident);
        }
        Ok(Some(t))
    }

    /// Removes a block. If the block is pinned the removal is *deferred*:
    /// it disappears from [`BlockStore::ids`]/[`BlockStore::get`] at once
    /// and is physically reclaimed when the last pin drops. Returns
    /// whether the block existed.
    pub fn remove(&self, id: BlockId) -> bool {
        let frozen = parallel::in_parallel_region();
        let mut inner = self.lock();
        match inner.entries.get_mut(&id) {
            None => return false,
            Some(e) if e.doomed => return false,
            Some(e) if e.pins > 0 => {
                e.doomed = true;
                return true;
            }
            Some(_) => {}
        }
        if let Some(e) = inner.entries.remove(&id) {
            if e.value.is_some() {
                inner.resident = inner.resident.saturating_sub(e.bytes);
            }
        }
        self.delete_spill_file(id);
        if !frozen {
            obs::record_max(Counter::StoreBytesResident, inner.resident);
        }
        true
    }

    /// Ids of all (logically present) blocks, ascending.
    pub fn ids(&self) -> Vec<BlockId> {
        self.lock()
            .entries
            .iter()
            .filter(|(_, e)| !e.doomed)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Whether a block is (logically) present.
    pub fn contains(&self, id: BlockId) -> bool {
        self.lock().entries.get(&id).is_some_and(|e| !e.doomed)
    }

    /// Number of (logically present) blocks.
    pub fn len(&self) -> usize {
        self.lock().entries.values().filter(|e| !e.doomed).count()
    }

    /// Whether the store holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total deterministic footprint of the resident entries, in bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().resident
    }

    /// Whether a block currently has live pins (test support).
    pub fn is_pinned(&self, id: BlockId) -> bool {
        self.lock().entries.get(&id).is_some_and(|e| e.pins > 0)
    }

    fn load(&self, id: BlockId) -> Result<R> {
        let Some(path) = self.spill_path(id) else {
            // An in-memory store never evicts, so a non-resident entry
            // cannot exist; treat it as corruption.
            return Err(DemonError::Corrupt {
                file: format!("block {id}"),
                detail: "non-resident entry in an in-memory store".into(),
            });
        };
        let (payload, _) = durable::read_framed(&path, R::frame_class())?;
        R::decode(&payload)
    }

    fn delete_spill_file(&self, id: BlockId) {
        if let Some(path) = self.spill_path(id) {
            let _ = std::fs::remove_file(path);
        }
    }

    fn unpin(&self, id: BlockId) {
        let frozen = parallel::in_parallel_region();
        let mut inner = self.lock();
        let mut reclaim = false;
        if let Some(e) = inner.entries.get_mut(&id) {
            e.pins = e.pins.saturating_sub(1);
            reclaim = e.pins == 0 && e.doomed;
        }
        if reclaim {
            if let Some(e) = inner.entries.remove(&id) {
                if e.value.is_some() {
                    inner.resident = inner.resident.saturating_sub(e.bytes);
                }
            }
            self.delete_spill_file(id);
        }
        if !frozen {
            self.enforce(&mut inner);
            obs::record_max(Counter::StoreBytesResident, inner.resident);
        }
    }

    /// Evicts least-recently-used unpinned blocks until the policy is
    /// satisfied. Best-effort: a spill-write failure keeps the value
    /// resident (over budget beats data loss) and stops the pass.
    /// Callers only invoke this outside parallel regions, so counter
    /// updates here are deterministic.
    fn enforce(&self, inner: &mut Inner<R>) {
        let Backend::Spill { dir, policy, .. } = &self.backend else {
            return;
        };
        loop {
            let over = match policy {
                SpillPolicy::Budget(b) => inner.resident > *b,
                SpillPolicy::Always => true,
            };
            if !over {
                return;
            }
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| e.pins == 0 && e.value.is_some())
                .min_by_key(|(id, e)| (e.last_use, **id))
                .map(|(id, _)| *id);
            let Some(id) = victim else {
                return;
            };
            let (dirty, value, bytes) = match inner.entries.get(&id) {
                Some(e) => (e.dirty, e.value.clone(), e.bytes),
                None => return,
            };
            if dirty {
                let Some(value) = value.as_deref() else {
                    return;
                };
                let path = dir.join(R::spill_file_name(id));
                let written = value
                    .encode()
                    .and_then(|payload| {
                        durable::write_framed(&path, R::frame_class(), &payload)
                            .map(|_| payload.len() as u64)
                    });
                match written {
                    Ok(n) => obs::add(Counter::StoreBytesSpilled, n),
                    Err(_) => return,
                }
            }
            if let Some(e) = inner.entries.get_mut(&id) {
                e.dirty = false;
                e.value = None;
            }
            inner.resident = inner.resident.saturating_sub(bytes);
            obs::incr(Counter::StoreEvictions);
        }
    }
}

impl<R: Spillable> Drop for BlockStore<R> {
    fn drop(&mut self) {
        if let Backend::Spill {
            dir,
            cleanup: true,
            ..
        } = &self.backend
        {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed-size test record so budgets are easy to reason about.
    #[derive(Debug, Clone, PartialEq)]
    struct Rec(Vec<u8>);

    impl Spillable for Rec {
        fn frame_class() -> FrameClass {
            FrameClass(*b"ZZ")
        }
        fn encode(&self) -> Result<Vec<u8>> {
            Ok(self.0.clone())
        }
        fn decode(bytes: &[u8]) -> Result<Self> {
            Ok(Rec(bytes.to_vec()))
        }
        fn resident_bytes(&self) -> u64 {
            self.0.len() as u64
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("demon-store-{name}-{}", std::process::id()))
    }

    fn rec(fill: u8, len: usize) -> Rec {
        Rec(vec![fill; len])
    }

    #[test]
    fn point_block_entries_roundtrip_and_refuse_cut_payloads() {
        use demon_types::{BlockInterval, Point, Timestamp};
        let with_interval = Block::with_interval(
            BlockId(3),
            BlockInterval::new(Timestamp(10), Timestamp(20)),
            vec![
                Point::new(vec![1.5, -2.25]),
                Point::new(vec![f64::MIN_POSITIVE, 1e300]),
            ],
        );
        for block in [with_interval, Block::new(BlockId(1), Vec::new())] {
            let entry = BlockEntry(block);
            let bytes = entry.encode().unwrap();
            let back = BlockEntry::<Point>::decode(&bytes).unwrap();
            assert_eq!(back.0.id(), entry.0.id());
            assert_eq!(back.0.interval(), entry.0.interval());
            assert_eq!(back.0.records(), entry.0.records());
            assert_eq!(back.resident_bytes(), entry.resident_bytes());
            for cut in 0..bytes.len() {
                assert!(BlockEntry::<Point>::decode(&bytes[..cut]).is_err(), "cut at {cut}");
            }
        }
        assert_eq!(BlockEntry::<Point>::frame_class(), FrameClass::POINTS);
    }

    #[test]
    fn in_memory_roundtrip_and_no_eviction() {
        let s: BlockStore<Rec> = BlockStore::in_memory();
        for i in 1..=4u64 {
            s.insert(BlockId(i), rec(i as u8, 100));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.resident_bytes(), 400);
        let g = s.get(BlockId(3)).unwrap().unwrap();
        assert_eq!(*g, rec(3, 100));
    }

    #[test]
    fn budget_evicts_lru_and_reloads() {
        let dir = tmp("budget");
        let s: BlockStore<Rec> =
            BlockStore::spill(dir.clone(), SpillPolicy::Budget(250), true).unwrap();
        for i in 1..=4u64 {
            s.insert(BlockId(i), rec(i as u8, 100));
        }
        // 400 bytes inserted, 250 allowed: blocks 1 and 2 spilled.
        assert!(s.resident_bytes() <= 250);
        assert!(dir.join("block_1.bin").exists());
        // Reload works and is exact.
        let g = s.get(BlockId(1)).unwrap().unwrap();
        assert_eq!(*g, rec(1, 100));
        drop(g);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn pinned_blocks_survive_eviction_pressure() {
        let dir = tmp("pinned");
        let s: BlockStore<Rec> =
            BlockStore::spill(dir, SpillPolicy::Budget(150), true).unwrap();
        s.insert(BlockId(1), rec(1, 100));
        let g = s.get(BlockId(1)).unwrap().unwrap();
        // Budget pressure from a second block cannot evict the pinned one.
        s.insert(BlockId(2), rec(2, 100));
        assert!(s.is_pinned(BlockId(1)));
        assert_eq!(*g, rec(1, 100));
        drop(g);
        // After unpinning, the store settles back under budget.
        assert!(s.resident_bytes() <= 150);
    }

    #[test]
    fn remove_of_pinned_block_is_deferred() {
        let dir = tmp("deferred");
        let s: BlockStore<Rec> =
            BlockStore::spill(dir.clone(), SpillPolicy::Budget(1000), true).unwrap();
        s.insert(BlockId(1), rec(1, 10));
        let g = s.get(BlockId(1)).unwrap().unwrap();
        assert!(s.remove(BlockId(1)));
        // Logically gone at once…
        assert!(!s.contains(BlockId(1)));
        assert!(s.ids().is_empty());
        assert!(s.get(BlockId(1)).unwrap().is_none());
        // …but the pinned guard still reads valid data.
        assert_eq!(*g, rec(1, 10));
        drop(g);
        // Physically reclaimed after the last pin.
        assert_eq!(s.resident_bytes(), 0);
        assert!(!dir.join("block_1.bin").exists());
    }

    #[test]
    fn always_policy_keeps_nothing_unpinned_resident() {
        let dir = tmp("always");
        let s: BlockStore<Rec> =
            BlockStore::spill(dir.clone(), SpillPolicy::Always, false).unwrap();
        s.insert(BlockId(1), rec(1, 64));
        s.insert(BlockId(2), rec(2, 64));
        assert_eq!(s.resident_bytes(), 0);
        assert!(dir.join("block_1.bin").exists());
        assert!(dir.join("block_2.bin").exists());
        let v = s.take(BlockId(1)).unwrap().unwrap();
        assert_eq!(v, rec(1, 64));
        assert!(!dir.join("block_1.bin").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn take_of_pinned_block_errors_and_corrupt_spill_is_retryable() {
        let dir = tmp("corrupt");
        let s: BlockStore<Rec> =
            BlockStore::spill(dir.clone(), SpillPolicy::Always, true).unwrap();
        s.insert(BlockId(1), rec(1, 64));
        {
            let _g = s.get(BlockId(1)).unwrap().unwrap();
            assert!(s.take(BlockId(1)).is_err());
        }
        // Corrupt the spill file: take fails but leaves the entry.
        let path = dir.join("block_1.bin");
        std::fs::write(&path, b"garbage").unwrap();
        assert!(s.take(BlockId(1)).is_err());
        assert!(s.contains(BlockId(1)));
        assert!(path.exists());
    }

    #[test]
    fn mutation_marks_dirty_and_respills() {
        let dir = tmp("mutate");
        let s: BlockStore<Rec> =
            BlockStore::spill(dir.clone(), SpillPolicy::Always, true).unwrap();
        s.insert(BlockId(1), rec(1, 8));
        // Spilled; mutate reloads, changes, and the next eviction rewrites.
        let out = s
            .with_mut(BlockId(1), |r| {
                r.0 = vec![9; 16];
                r.0.len()
            })
            .unwrap()
            .unwrap();
        assert_eq!(out, 16);
        let g = s.get(BlockId(1)).unwrap().unwrap();
        assert_eq!(*g, rec(9, 16));
    }

    #[test]
    fn cleanup_removes_spill_dir_on_drop() {
        let dir = tmp("cleanup");
        {
            let s: BlockStore<Rec> =
                BlockStore::spill(dir.clone(), SpillPolicy::Always, true).unwrap();
            s.insert(BlockId(1), rec(1, 8));
            assert!(dir.exists());
        }
        assert!(!dir.exists());
    }
}
