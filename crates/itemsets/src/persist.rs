//! On-disk persistence of the evolving transactional database.
//!
//! Layout, one directory per store (**store format version 2**):
//!
//! ```text
//! <dir>/meta.json           n_items + the block manifest + per-file
//!                           checksums + a self-checksum of the manifest
//! <dir>/block_<id>.txs      framed: raw transactions (varint TIDs +
//!                           delta items)
//! <dir>/block_<id>.tid      framed: per-item TID-lists (delta varints),
//!                           then the materialized pair lists
//! <dir>/quarantine/         where salvage moves damaged files
//! ```
//!
//! Blocks are immutable, so each block writes exactly once when it
//! arrives (the paper's "constructed when D_i is added … used without any
//! further changes"). Numbers are LEB128 varints throughout, written and
//! read through the one payload codec of [`demon_types::durable`]
//! (`put_varint` / `put_tid_list`, `Reader`) — this module owns the
//! layouts, not the byte handling.
//!
//! ## Durability & recovery
//!
//! Every file is written atomically (temp + fsync + rename, see
//! [`demon_types::durable`]) and every binary file carries a framed
//! header (magic, format version, class tag, payload length, CRC32), so
//! torn writes, truncation and bit flips are *detected* before any
//! decoder runs. `meta.json` embeds a `meta_crc` self-checksum over its
//! own semantic content plus the per-file checksums of each block file,
//! which also catches swapped or stale block files. On top of detection
//! sits [`RecoveryPolicy`]:
//!
//! * [`RecoveryPolicy::Strict`] (the [`load_store`] default) — the first
//!   defect aborts the load with a typed [`DemonError`] naming the exact
//!   file (and offset where known);
//! * [`RecoveryPolicy::SalvagePrefix`] — quarantines the first damaged
//!   file under `<dir>/quarantine/`, truncates the store to the longest
//!   consistent block prefix, atomically rewrites the manifest, and
//!   reports what was dropped via [`RecoveryReport`]. When `meta.json`
//!   itself is destroyed the manifest is reconstructed from the
//!   checksum-valid block files (wall-clock intervals are lost and the
//!   report says so). After a salvage the directory loads cleanly under
//!   `Strict` again.
//!
//! [`verify_store`] is the read-only fsck behind `demon-cli verify`: it
//! walks the manifest, re-checks every frame and checksum, and reports
//! *all* damage instead of stopping at the first defect.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::store::TxStore;
use crate::tidlist::BlockTidLists;
use demon_store::StoreConfig;
use demon_types::durable::{self, put_tid_list, put_varint, FrameClass, Reader};
use demon_types::{
    Block, BlockId, BlockInterval, DemonError, Item, Result, Tid, Timestamp, Transaction, TxBlock,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Version of the on-disk store layout. Version 2 introduced atomic
/// writes, framed block files and manifest checksums; version 1 (raw
/// unframed files, no checksums) is no longer readable.
pub const STORE_FORMAT_VERSION: u32 = 2;

const META_FILE: &str = "meta.json";
const QUARANTINE_DIR: &str = "quarantine";

#[derive(Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct Meta {
    #[serde(default)]
    format_version: u32,
    n_items: u32,
    blocks: Vec<BlockMeta>,
    /// CRC32 over the canonical serialization of
    /// `(format_version, n_items, blocks)` — detects semantic edits that
    /// still parse as valid JSON.
    #[serde(default)]
    meta_crc: Option<u32>,
}

#[derive(Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct BlockMeta {
    id: u64,
    n_transactions: u64,
    /// Wall-clock span `(start_secs, end_secs)`, when known.
    #[serde(default)]
    interval: Option<(u64, u64)>,
    /// CRC32 of the `.txs` payload, cross-checked against the frame.
    #[serde(default)]
    txs_crc: Option<u32>,
    /// CRC32 of the `.tid` payload, cross-checked against the frame.
    #[serde(default)]
    tid_crc: Option<u32>,
}

/// What [`load_store_with`] does when it meets a damaged file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Abort on the first defect with a typed error naming the exact
    /// file. The right default for pipelines that must not silently lose
    /// data.
    #[default]
    Strict,
    /// Quarantine the first damaged file, keep the longest consistent
    /// block prefix, rewrite the manifest, and report what was dropped.
    SalvagePrefix,
}

/// What a [`RecoveryPolicy::SalvagePrefix`] load did to the store.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Blocks loaded into the returned store, in manifest order.
    pub loaded_blocks: Vec<u64>,
    /// Blocks dropped because they (or an earlier block) were damaged.
    pub dropped_blocks: Vec<u64>,
    /// Files moved to `<dir>/quarantine/`.
    pub quarantined: Vec<PathBuf>,
    /// Stray `*.tmp` files (crash residue) that were removed.
    pub removed_tmp: Vec<PathBuf>,
    /// Human-readable description of the defect that triggered salvage.
    pub first_error: Option<String>,
    /// Set when the manifest had to be reconstructed from block files,
    /// which loses the blocks' wall-clock intervals.
    pub intervals_lost: bool,
}

impl RecoveryReport {
    /// Whether the load needed no recovery at all.
    pub fn is_clean(&self) -> bool {
        self.dropped_blocks.is_empty() && self.quarantined.is_empty() && self.first_error.is_none()
    }
}

/// Result of a read-only [`verify_store`] fsck pass.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Files that passed every check.
    pub checked: Vec<PathBuf>,
    /// Damaged files with a description of each defect.
    pub damaged: Vec<(PathBuf, String)>,
    /// Stray `*.tmp` files left by an interrupted write (benign).
    pub stray_tmp: Vec<PathBuf>,
    /// Number of files sitting in `<dir>/quarantine/`.
    pub quarantined_files: usize,
}

impl VerifyReport {
    /// Whether the store is fully intact.
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty()
    }
}

fn txs_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("block_{id}.txs"))
}

fn tid_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("block_{id}.tid"))
}

fn corrupt(path: &Path, detail: impl Into<String>) -> DemonError {
    DemonError::Corrupt {
        file: path.display().to_string(),
        detail: detail.into(),
    }
}

/// Rewrites a decode-level [`DemonError::Serde`] into a [`DemonError::Corrupt`]
/// naming the file it came from; other errors pass through.
fn in_file(path: &Path, e: DemonError) -> DemonError {
    match e {
        DemonError::Serde(detail) => corrupt(path, detail),
        other => other,
    }
}

/// Reads a framed block-class file; a missing file is corruption (the
/// manifest references it), not a plain I/O error.
fn read_block_frame(path: &Path, class: FrameClass) -> Result<(Vec<u8>, u32)> {
    match durable::read_framed(path, class) {
        Err(DemonError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            Err(corrupt(path, "file is missing"))
        }
        other => other,
    }
}

fn check_manifest_crc(recorded: Option<u32>, actual: u32, path: &Path) -> Result<()> {
    match recorded {
        None => Err(corrupt(
            path,
            "manifest entry lacks a checksum (store predates format v2?)",
        )),
        Some(expected) if expected != actual => Err(DemonError::ChecksumMismatch {
            file: path.display().to_string(),
            expected,
            actual,
        }),
        Some(_) => Ok(()),
    }
}

/// Canonical checksum of the manifest's semantic content.
fn meta_checksum(meta: &Meta) -> Result<u32> {
    let bytes = serde_json::to_vec(&(meta.format_version, meta.n_items, &meta.blocks))
        .map_err(|e| DemonError::Serde(e.to_string()))?;
    Ok(durable::crc32(&bytes))
}

/// Stamps `meta_crc` and writes the manifest atomically.
fn write_meta(dir: &Path, meta: &mut Meta) -> Result<()> {
    meta.meta_crc = Some(meta_checksum(meta)?);
    let json = serde_json::to_vec_pretty(meta).map_err(|e| DemonError::Serde(e.to_string()))?;
    durable::atomic_write(&dir.join(META_FILE), &json)?;
    Ok(())
}

/// Persists `store` under `dir` (created if missing). Every file is
/// written atomically; the manifest is written last, so a crash at any
/// point leaves either the previous consistent store or the new one.
/// Existing files for the same blocks are overwritten; stale files are
/// not removed.
pub fn save_store(store: &TxStore, dir: &Path) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut meta = Meta {
        format_version: STORE_FORMAT_VERSION,
        n_items: store.n_items(),
        blocks: Vec::new(),
        meta_crc: None,
    };
    for &id in store.block_ids() {
        // One pin covers both representations of the block.
        let entry = store
            .pin_entry(id)?
            .ok_or(DemonError::UnknownBlock(id.value()))?;
        let txs_crc = durable::write_framed(
            &txs_path(dir, id.value()),
            FrameClass::TRANSACTIONS,
            &encode_block_txs(&entry.block),
        )?;
        let tid_crc = durable::write_framed(
            &tid_path(dir, id.value()),
            FrameClass::TIDLISTS,
            &encode_lists(&entry.lists, store.n_items()),
        )?;
        meta.blocks.push(BlockMeta {
            id: id.value(),
            n_transactions: entry.block.len() as u64,
            interval: entry
                .block
                .interval()
                .map(|iv| (iv.start.secs(), iv.end.secs())),
            txs_crc: Some(txs_crc),
            tid_crc: Some(tid_crc),
        });
    }
    write_meta(dir, &mut meta)
}

/// Persists `store` to `dir` all-or-nothing: the store is written into
/// a sibling temp directory first and renamed over `dir` only once every
/// file (manifest included) is on disk. A failure — or a crash — leaves
/// the previous `dir` untouched and at worst a `<dir>.tmp` /
/// `<dir>.old` residue directory, never a half-written store at `dir`
/// itself. This is what the `demon-serve` `Snapshot` verb and the WAL
/// compactor use, so a snapshot directory either loads under
/// [`RecoveryPolicy::Strict`] or does not exist.
pub fn save_store_atomic(store: &TxStore, dir: &Path) -> Result<()> {
    durable::replace_dir_atomic(dir, |tmp| save_store(store, tmp))
}

/// Loads a store persisted by [`save_store`] under the default
/// [`RecoveryPolicy::Strict`]: any corruption is a typed error.
pub fn load_store(dir: &Path) -> Result<TxStore> {
    load_store_with(dir, RecoveryPolicy::Strict).map(|(store, _)| store)
}

/// Loads a store under the given [`RecoveryPolicy`], returning the store
/// together with a [`RecoveryReport`] of anything salvage had to do.
pub fn load_store_with(dir: &Path, policy: RecoveryPolicy) -> Result<(TxStore, RecoveryReport)> {
    load_store_configured(dir, policy, &StoreConfig::InMemory)
}

/// Loads a store like [`load_store_with`], but builds the in-process
/// [`TxStore`] on the given storage-engine configuration — e.g. a
/// [`StoreConfig::budget`] so the replayed blocks spill back to disk
/// instead of all staying resident.
pub fn load_store_configured(
    dir: &Path,
    policy: RecoveryPolicy,
    config: &StoreConfig,
) -> Result<(TxStore, RecoveryReport)> {
    match read_meta(dir) {
        Ok(meta) => load_blocks(dir, &meta, policy, config),
        Err(e) => match policy {
            RecoveryPolicy::Strict => Err(e),
            RecoveryPolicy::SalvagePrefix => reconstruct_store(dir, e, config),
        },
    }
}

/// Reads and validates the manifest at the store level: JSON shape,
/// format version, item universe, and the `meta_crc` self-checksum.
/// Per-entry validation (id ordering, intervals) happens while loading
/// so salvage can truncate at the offending entry.
fn read_meta(dir: &Path) -> Result<Meta> {
    let path = dir.join(META_FILE);
    let bytes = std::fs::read(&path)?;
    let meta: Meta =
        serde_json::from_slice(&bytes).map_err(|e| corrupt(&path, format!("invalid JSON: {e}")))?;
    if meta.format_version != STORE_FORMAT_VERSION {
        return Err(corrupt(
            &path,
            format!(
                "unsupported store format version {} (this build reads {STORE_FORMAT_VERSION})",
                meta.format_version
            ),
        ));
    }
    if meta.n_items == 0 {
        return Err(corrupt(&path, "item universe of size 0"));
    }
    match meta.meta_crc {
        None => return Err(corrupt(&path, "missing meta_crc self-checksum")),
        Some(recorded) => {
            let actual = meta_checksum(&meta)?;
            if recorded != actual {
                return Err(DemonError::ChecksumMismatch {
                    file: path.display().to_string(),
                    expected: recorded,
                    actual,
                });
            }
        }
    }
    Ok(meta)
}

/// Validates one manifest entry against its predecessor.
fn check_entry(dir: &Path, prev_id: Option<u64>, bm: &BlockMeta, index: usize) -> Result<()> {
    let meta_path = dir.join(META_FILE);
    if let Some(prev) = prev_id {
        if bm.id <= prev {
            return Err(corrupt(
                &meta_path,
                format!(
                    "block ids must be strictly ascending: entry {index} has id {} after {prev}",
                    bm.id
                ),
            ));
        }
    }
    if let Some((start, end)) = bm.interval {
        // Intervals are half-open, so start == end is as invalid as an
        // inverted one (and BlockInterval::new would refuse it).
        if start >= end {
            return Err(corrupt(
                &meta_path,
                format!("entry {index} (block {}): interval start {start} not before end {end}", bm.id),
            ));
        }
    }
    Ok(())
}

fn load_blocks(
    dir: &Path,
    meta: &Meta,
    policy: RecoveryPolicy,
    config: &StoreConfig,
) -> Result<(TxStore, RecoveryReport)> {
    let mut store = TxStore::with_config(meta.n_items, config)?;
    let mut report = RecoveryReport::default();
    let mut prev_id = None;
    let mut failure: Option<(usize, DemonError)> = None;
    for (index, bm) in meta.blocks.iter().enumerate() {
        let loaded = check_entry(dir, prev_id, bm, index)
            .and_then(|()| load_one_block(dir, bm, meta.n_items, &mut store));
        match loaded {
            Ok(()) => {
                prev_id = Some(bm.id);
                report.loaded_blocks.push(bm.id);
            }
            Err(e) => match policy {
                RecoveryPolicy::Strict => return Err(e),
                RecoveryPolicy::SalvagePrefix => {
                    failure = Some((index, e));
                    break;
                }
            },
        }
    }
    if let Some((index, e)) = failure {
        salvage_tail(dir, meta, index, &e, &mut report)?;
    }
    // Salvage always sweeps crash litter, even when every block loaded.
    if policy == RecoveryPolicy::SalvagePrefix {
        remove_stray_tmp(dir, &mut report);
    }
    Ok((store, report))
}

/// Decodes both files of one block and — only when everything validated —
/// inserts the block and its materialized pair lists into `store`.
fn load_one_block(dir: &Path, bm: &BlockMeta, n_items: u32, store: &mut TxStore) -> Result<()> {
    let txs_file = txs_path(dir, bm.id);
    let (txs_payload, txs_crc) = read_block_frame(&txs_file, FrameClass::TRANSACTIONS)?;
    check_manifest_crc(bm.txs_crc, txs_crc, &txs_file)?;
    let records = decode_txs(&txs_payload, BlockId(bm.id), Some(bm.n_transactions), n_items)
        .map_err(|e| in_file(&txs_file, e))?;
    // `check_entry` vouched for start < end.
    let interval = bm
        .interval
        .map(|(start, end)| BlockInterval::new(Timestamp(start), Timestamp(end)));
    let block = Block::from_parts(BlockId(bm.id), interval, records);

    let tid_file = tid_path(dir, bm.id);
    let (tid_payload, tid_crc) = read_block_frame(&tid_file, FrameClass::TIDLISTS)?;
    check_manifest_crc(bm.tid_crc, tid_crc, &tid_file)?;
    // Reapply materialized pair lists (item lists are rebuilt by
    // add_block; pairs carry the ECUT+ investment across restarts).
    let pairs = decode_pairs(&tid_payload, n_items).map_err(|e| in_file(&tid_file, e))?;

    store.add_block_with_pairs(block, pairs);
    Ok(())
}

/// Quarantines the block that failed, drops it and everything after it
/// from the manifest, and rewrites the truncated manifest atomically.
fn salvage_tail(
    dir: &Path,
    meta: &Meta,
    index: usize,
    cause: &DemonError,
    report: &mut RecoveryReport,
) -> Result<()> {
    report.first_error = Some(cause.to_string());
    if let Some(bad) = meta.blocks.get(index) {
        quarantine_block_files(dir, bad.id, report)?;
    }
    for bm in &meta.blocks[index..] {
        report.dropped_blocks.push(bm.id);
    }
    let mut truncated = Meta {
        format_version: STORE_FORMAT_VERSION,
        n_items: meta.n_items,
        blocks: meta.blocks[..index].to_vec(),
        meta_crc: None,
    };
    write_meta(dir, &mut truncated)?;
    Ok(())
}

fn quarantine_block_files(dir: &Path, id: u64, report: &mut RecoveryReport) -> Result<()> {
    let qdir = dir.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&qdir)?;
    for path in [txs_path(dir, id), tid_path(dir, id)] {
        if let Some(name) = path.file_name() {
            let dest = qdir.join(name);
            if path.exists() && std::fs::rename(&path, &dest).is_ok() {
                report.quarantined.push(dest);
            }
        }
    }
    Ok(())
}

fn remove_stray_tmp(dir: &Path, report: &mut RecoveryReport) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("tmp"));
        if is_tmp && std::fs::remove_file(&path).is_ok() {
            report.removed_tmp.push(path);
        }
    }
}

/// Rebuilds a store whose manifest was destroyed: scans for
/// checksum-valid block files, keeps the longest contiguous run starting
/// at the smallest id, and writes a fresh manifest. Intervals (stored
/// only in the manifest) are lost; the report records that.
fn reconstruct_store(
    dir: &Path,
    cause: DemonError,
    config: &StoreConfig,
) -> Result<(TxStore, RecoveryReport)> {
    // A store directory that simply does not exist is an I/O error, not
    // a salvageable corruption.
    if !dir.is_dir() {
        return Err(cause);
    }
    let mut report = RecoveryReport {
        first_error: Some(cause.to_string()),
        ..RecoveryReport::default()
    };

    let meta_path = dir.join(META_FILE);
    if meta_path.exists() {
        let qdir = dir.join(QUARANTINE_DIR);
        std::fs::create_dir_all(&qdir)?;
        let dest = qdir.join(META_FILE);
        if std::fs::rename(&meta_path, &dest).is_ok() {
            report.quarantined.push(dest);
        }
    }

    // Candidate block ids: every block_<id>.txs in the directory.
    let mut candidates = BTreeSet::new();
    for entry in std::fs::read_dir(dir)?.flatten() {
        if let Some(name) = entry.path().file_name().and_then(|n| n.to_str()) {
            if let Some(id) = name
                .strip_prefix("block_")
                .and_then(|r| r.strip_suffix(".txs"))
                .and_then(|r| r.parse::<u64>().ok())
            {
                candidates.insert(id);
            }
        }
    }

    // The item universe lives in the manifest; recover it from the first
    // valid TID file (its payload opens with the universe size).
    let mut n_items: Option<u32> = None;
    for &id in &candidates {
        if let Ok((payload, _)) = durable::read_framed(&tid_path(dir, id), FrameClass::TIDLISTS) {
            if let Ok(n) = Reader::new(&payload).varint("item universe") {
                if n > 0 && n <= u64::from(u32::MAX) {
                    n_items = Some(n as u32);
                    break;
                }
            }
        }
    }
    let Some(n_items) = n_items else {
        // Nothing recoverable: an empty-but-loadable store.
        let mut empty = Meta {
            format_version: STORE_FORMAT_VERSION,
            n_items: 1,
            blocks: Vec::new(),
            meta_crc: None,
        };
        write_meta(dir, &mut empty)?;
        report.dropped_blocks.extend(candidates.iter().copied());
        remove_stray_tmp(dir, &mut report);
        return Ok((TxStore::new(1), report));
    };

    let mut store = TxStore::with_config(n_items, config)?;
    let mut meta = Meta {
        format_version: STORE_FORMAT_VERSION,
        n_items,
        blocks: Vec::new(),
        meta_crc: None,
    };
    let mut expected_next = candidates.iter().next().copied();
    for &id in &candidates {
        let contiguous = expected_next == Some(id);
        let recovered = contiguous && recover_block(dir, id, n_items, &mut store, &mut meta).is_ok();
        if recovered {
            report.loaded_blocks.push(id);
            expected_next = Some(id + 1);
        } else {
            report.dropped_blocks.push(id);
            if contiguous {
                // First defect ends the prefix; quarantine its files.
                quarantine_block_files(dir, id, &mut report)?;
                expected_next = None;
            }
        }
    }
    report.intervals_lost = !report.loaded_blocks.is_empty();
    write_meta(dir, &mut meta)?;
    remove_stray_tmp(dir, &mut report);
    Ok((store, report))
}

/// Loads one block during manifest reconstruction, trusting the frame
/// checksums and the embedded transaction count.
fn recover_block(
    dir: &Path,
    id: u64,
    n_items: u32,
    store: &mut TxStore,
    meta: &mut Meta,
) -> Result<()> {
    let txs_file = txs_path(dir, id);
    let (txs_payload, txs_crc) = read_block_frame(&txs_file, FrameClass::TRANSACTIONS)?;
    let block = decode_block_txs(&txs_payload, BlockId(id), n_items)
        .map_err(|e| in_file(&txs_file, e))?;
    let tid_file = tid_path(dir, id);
    let (tid_payload, tid_crc) = read_block_frame(&tid_file, FrameClass::TIDLISTS)?;
    let pairs = decode_pairs(&tid_payload, n_items).map_err(|e| in_file(&tid_file, e))?;
    meta.blocks.push(BlockMeta {
        id,
        n_transactions: block.len() as u64,
        interval: None,
        txs_crc: Some(txs_crc),
        tid_crc: Some(tid_crc),
    });
    store.add_block_with_pairs(block, pairs);
    Ok(())
}

/// Read-only fsck: walks the manifest, re-validates every frame,
/// checksum and decode, and reports **all** damage (instead of stopping
/// at the first defect like a `Strict` load). `Err` only when the
/// directory itself is unreadable.
pub fn verify_store(dir: &Path) -> Result<VerifyReport> {
    let mut report = VerifyReport::default();
    for entry in std::fs::read_dir(dir)?.flatten() {
        let path = entry.path();
        if path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("tmp"))
        {
            report.stray_tmp.push(path);
        }
    }
    let qdir = dir.join(QUARANTINE_DIR);
    if let Ok(entries) = std::fs::read_dir(&qdir) {
        report.quarantined_files = entries.flatten().count();
    }

    let meta_path = dir.join(META_FILE);
    let meta = match read_meta(dir) {
        Ok(meta) => {
            report.checked.push(meta_path.clone());
            meta
        }
        Err(e) => {
            report.damaged.push((meta_path, e.to_string()));
            return Ok(report);
        }
    };

    let mut scratch = TxStore::new(meta.n_items);
    let mut prev_id = None;
    for (index, bm) in meta.blocks.iter().enumerate() {
        if let Err(e) = check_entry(dir, prev_id, bm, index) {
            report.damaged.push((meta_path.clone(), e.to_string()));
        }
        prev_id = Some(bm.id);
        match load_one_block(dir, bm, meta.n_items, &mut scratch) {
            Ok(()) => {
                report.checked.push(txs_path(dir, bm.id));
                report.checked.push(tid_path(dir, bm.id));
            }
            Err(e) => {
                let file = match &e {
                    DemonError::Corrupt { file, .. }
                    | DemonError::ChecksumMismatch { file, .. } => PathBuf::from(file),
                    _ => txs_path(dir, bm.id),
                };
                report.damaged.push((file, e.to_string()));
            }
        }
    }
    Ok(report)
}

/// Encodes one block's transactions in the store's `.txs` payload format
/// (varint TIDs + delta-encoded items, without the frame header). This
/// is also the wire encoding `demon-serve` ships blocks in, so a block
/// travels the socket in exactly the bytes it persists as.
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
/// every varint and item id against the `n_items` universe. The inverse
/// wire decoder for `demon-serve`; corruption is a typed error, never a
/// panic (the caller has already CRC-checked the enclosing frame).
pub fn decode_block_txs(bytes: &[u8], id: BlockId, n_items: u32) -> Result<TxBlock> {
    Ok(Block::new(id, decode_txs(bytes, id, None, n_items)?))
}

/// Decodes the transactions of a `.txs` payload. `expect` cross-checks
/// the manifest's transaction count when loading normally; `None` trusts
/// the embedded count (manifest reconstruction, where the frame checksum
/// already vouched for the bytes).
pub(crate) fn decode_txs(
    bytes: &[u8],
    id: BlockId,
    expect: Option<u64>,
    n_items: u32,
) -> Result<Vec<Transaction>> {
    let mut r = Reader::new(bytes);
    let n = r.varint("transaction count")?;
    let n = r.count(n, 2, "transaction")?;
    if let Some(expect) = expect.filter(|&expect| n as u64 != expect) {
        return Err(DemonError::Serde(format!(
            "block {id}: manifest says {expect} transactions, file has {n}"
        )));
    }
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

/// Encodes a `.tid` payload: the universe size, one TID-list per item in
/// item order, then the materialized pair lists as `a | b | list`.
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

/// Decodes the pair-list section of a `.tid` payload (the item-list
/// section is skipped — item lists are rebuilt by `add_block`). Pure:
/// nothing is applied to any store until the whole payload validated.
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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use demon_types::MinSupport;

    fn sample_store() -> TxStore {
        let mut store = TxStore::new(6);
        let mk = |id: u64, base: u64, txs: &[&[u32]]| {
            TxBlock::new(
                BlockId(id),
                txs.iter()
                    .enumerate()
                    .map(|(i, items)| {
                        Transaction::new(
                            Tid(base + i as u64),
                            items.iter().copied().map(Item).collect(),
                        )
                    })
                    .collect(),
            )
        };
        store.add_block(mk(1, 1, &[&[0, 1, 2], &[0, 1], &[3], &[1, 4]]));
        store.add_block(mk(2, 100, &[&[0, 1], &[2, 5], &[0, 1, 5]]));
        store.materialize_pairs(BlockId(1), &[(Item(0), Item(1))], None);
        store
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("demon-persist-{name}-{}", std::process::id()))
    }

    fn is_corruption(e: &DemonError) -> bool {
        matches!(
            e,
            DemonError::Corrupt { .. } | DemonError::ChecksumMismatch { .. }
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = sample_store();
        let dir = tmp("roundtrip");
        save_store(&store, &dir).unwrap();
        let back = load_store(&dir).unwrap();
        assert_eq!(back.n_items(), 6);
        assert_eq!(back.block_ids(), store.block_ids());
        for &id in store.block_ids() {
            let (a, b) = (store.block(id).unwrap(), back.block(id).unwrap());
            assert_eq!(a.records(), b.records());
            let (la, lb) = (
                store.tidlists().block(id).unwrap(),
                back.tidlists().block(id).unwrap(),
            );
            for i in 0..6u32 {
                assert_eq!(la.item_list(Item(i)), lb.item_list(Item(i)));
            }
        }
        // Pair lists survive.
        assert_eq!(
            back.tidlists()
                .block(BlockId(1))
                .unwrap()
                .pair_list(Item(0), Item(1)),
            store
                .tidlists()
                .block(BlockId(1))
                .unwrap()
                .pair_list(Item(0), Item(1))
        );
        // A clean store verifies cleanly and salvage-loads without changes.
        assert!(verify_store(&dir).unwrap().is_clean());
        let (_, report) = load_store_with(&dir, RecoveryPolicy::SalvagePrefix).unwrap();
        assert!(report.is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_save_replaces_and_leaves_no_partial_store() {
        let store = sample_store();
        let dir = tmp("atomic-save");
        std::fs::create_dir_all(dir.parent().unwrap()).ok();
        // Fresh target: the store lands whole and Strict-loadable.
        save_store_atomic(&store, &dir).unwrap();
        assert!(verify_store(&dir).unwrap().is_clean());
        assert!(!durable::tmp_path(&dir).exists(), "tmp dir must not linger");
        // Existing target: replaced atomically (the swap itself is
        // `durable::replace_dir_atomic`'s, tested there).
        save_store_atomic(&store, &dir).unwrap();
        assert!(verify_store(&dir).unwrap().is_clean());
        assert_eq!(load_store(&dir).unwrap().len(), 2);

        // A failing save leaves no partial directory behind: point the
        // temp sibling at a path whose parent cannot be created (a file
        // stands in the way).
        let blocked = dir.join("meta.json").join("store");
        let err = save_store_atomic(&store, &blocked).unwrap_err();
        assert!(matches!(err, DemonError::Io(_)), "{err}");
        assert!(!blocked.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reloaded_store_mines_identically() {
        let store = sample_store();
        let dir = tmp("mine");
        save_store(&store, &dir).unwrap();
        let back = load_store(&dir).unwrap();
        let k = MinSupport::new(0.2).unwrap();
        let a = crate::FrequentItemsets::mine_from(&store, store.block_ids(), k).unwrap();
        let b = crate::FrequentItemsets::mine_from(&back, back.block_ids(), k).unwrap();
        assert_eq!(a.frequent(), b.frequent());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn intervals_survive_roundtrip() {
        let mut store = TxStore::new(2);
        let iv = BlockInterval::new(Timestamp(100), Timestamp(200));
        store.add_block(TxBlock::with_interval(
            BlockId(1),
            iv,
            vec![Transaction::new(Tid(1), vec![Item(0)])],
        ));
        let dir = tmp("interval");
        save_store(&store, &dir).unwrap();
        let back = load_store(&dir).unwrap();
        assert_eq!(back.block(BlockId(1)).unwrap().interval(), Some(iv));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_errors() {
        let err = load_store(Path::new("/nonexistent/demon-store")).unwrap_err();
        assert!(matches!(err, DemonError::Io(_)));
        // Salvage cannot conjure a store out of a missing directory either.
        assert!(load_store_with(
            Path::new("/nonexistent/demon-store"),
            RecoveryPolicy::SalvagePrefix
        )
        .is_err());
    }

    #[test]
    fn corrupt_meta_errors() {
        let dir = tmp("badmeta");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.json"), b"{not json").unwrap();
        let err = load_store(&dir).unwrap_err();
        assert!(is_corruption(&err), "got {err}");
        assert!(err.to_string().contains("meta.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn semantic_meta_edit_is_caught_by_self_checksum() {
        let store = sample_store();
        let dir = tmp("metaedit");
        save_store(&store, &dir).unwrap();
        // Bump a transaction count without updating meta_crc — valid
        // JSON, wrong content.
        let text = std::fs::read_to_string(dir.join("meta.json")).unwrap();
        let edited = text.replacen("\"n_transactions\": 4", "\"n_transactions\": 5", 1);
        assert_ne!(text, edited, "fixture must contain the count");
        std::fs::write(dir.join("meta.json"), edited).unwrap();
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, DemonError::ChecksumMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_block_file_errors() {
        let store = sample_store();
        let dir = tmp("trunc");
        save_store(&store, &dir).unwrap();
        let path = dir.join("block_1.txs");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_store(&dir).unwrap_err();
        assert!(is_corruption(&err), "got {err}");
        assert!(err.to_string().contains("block_1.txs"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_mismatch_errors() {
        let store = sample_store();
        let dir = tmp("mismatch");
        save_store(&store, &dir).unwrap();
        // Swap the two block data files: checksums disagree with the
        // manifest even though each file is internally consistent.
        let a = std::fs::read(dir.join("block_1.txs")).unwrap();
        let b = std::fs::read(dir.join("block_2.txs")).unwrap();
        std::fs::write(dir.join("block_1.txs"), b).unwrap();
        std::fs::write(dir.join("block_2.txs"), a).unwrap();
        let err = load_store(&dir).unwrap_err();
        assert!(is_corruption(&err), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_block_file_is_corruption_naming_the_file() {
        let store = sample_store();
        let dir = tmp("missingblock");
        save_store(&store, &dir).unwrap();
        std::fs::remove_file(dir.join("block_2.tid")).unwrap();
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, DemonError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("block_2.tid"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn salvage_keeps_longest_prefix_and_quarantines() {
        let store = sample_store();
        let dir = tmp("salvage");
        save_store(&store, &dir).unwrap();
        // Damage block 2's tid file.
        let path = dir.join("block_2.tid");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (salvaged, report) =
            load_store_with(&dir, RecoveryPolicy::SalvagePrefix).unwrap();
        assert_eq!(salvaged.block_ids(), vec![BlockId(1)]);
        assert_eq!(report.loaded_blocks, vec![1]);
        assert_eq!(report.dropped_blocks, vec![2]);
        assert!(!report.is_clean());
        assert!(report.first_error.is_some());
        // Both files of the bad block land in quarantine.
        assert!(dir.join("quarantine").join("block_2.tid").exists());
        assert!(dir.join("quarantine").join("block_2.txs").exists());
        // The rewritten store is clean: strict load and fsck succeed.
        let back = load_store(&dir).unwrap();
        assert_eq!(back.block_ids(), vec![BlockId(1)]);
        assert!(verify_store(&dir).unwrap().is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn salvage_reconstructs_when_meta_is_destroyed() {
        let store = sample_store();
        let dir = tmp("reconstruct");
        save_store(&store, &dir).unwrap();
        std::fs::write(dir.join("meta.json"), b"\xFF\xFE garbage").unwrap();

        let (salvaged, report) =
            load_store_with(&dir, RecoveryPolicy::SalvagePrefix).unwrap();
        assert_eq!(salvaged.block_ids(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(salvaged.n_items(), 6);
        assert!(report.intervals_lost);
        // Pair lists survive reconstruction (they live in the tid files).
        assert!(salvaged
            .tidlists()
            .block(BlockId(1))
            .unwrap()
            .pair_list(Item(0), Item(1))
            .is_some());
        // And the rewritten manifest loads strictly.
        let back = load_store(&dir).unwrap();
        assert_eq!(back.block_ids(), vec![BlockId(1), BlockId(2)]);
        assert!(verify_store(&dir).unwrap().is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn salvage_of_missing_meta_with_no_blocks_yields_empty_store() {
        let dir = tmp("emptysalvage");
        std::fs::create_dir_all(&dir).unwrap();
        let (store, report) =
            load_store_with(&dir, RecoveryPolicy::SalvagePrefix).unwrap();
        assert!(store.is_empty());
        assert!(report.loaded_blocks.is_empty());
        // The fresh manifest loads strictly.
        assert!(load_store(&dir).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn meta_with_blocks(dir: &Path, edit: impl FnOnce(&mut Meta)) {
        let bytes = std::fs::read(dir.join("meta.json")).unwrap();
        let mut meta: Meta = serde_json::from_slice(&bytes).unwrap();
        edit(&mut meta);
        // Re-stamp the self-checksum so only the semantic defect remains.
        write_meta(dir, &mut meta).unwrap();
    }

    #[test]
    fn duplicate_block_ids_are_corrupt() {
        let store = sample_store();
        let dir = tmp("dupids");
        save_store(&store, &dir).unwrap();
        meta_with_blocks(&dir, |m| m.blocks[1].id = m.blocks[0].id);
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, DemonError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("ascending"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_order_block_ids_are_corrupt() {
        let store = sample_store();
        let dir = tmp("orderids");
        save_store(&store, &dir).unwrap();
        meta_with_blocks(&dir, |m| m.blocks.reverse());
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, DemonError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inverted_interval_is_corrupt() {
        let store = sample_store();
        let dir = tmp("interval-bad");
        save_store(&store, &dir).unwrap();
        meta_with_blocks(&dir, |m| m.blocks[0].interval = Some((200, 100)));
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, DemonError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("interval"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_transaction_count_is_corrupt() {
        let store = sample_store();
        let dir = tmp("txcount");
        save_store(&store, &dir).unwrap();
        meta_with_blocks(&dir, |m| {
            m.blocks[0].n_transactions += 1;
            // Keep the file checksums intact; only the count lies.
        });
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, DemonError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_item_universe_is_corrupt() {
        let store = sample_store();
        let dir = tmp("zeroitems");
        save_store(&store, &dir).unwrap();
        meta_with_blocks(&dir, |m| m.n_items = 0);
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, DemonError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("universe"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsupported_format_version_is_corrupt() {
        let store = sample_store();
        let dir = tmp("badversion");
        save_store(&store, &dir).unwrap();
        meta_with_blocks(&dir, |m| m.format_version = 7);
        let err = load_store(&dir).unwrap_err();
        assert!(matches!(err, DemonError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("version"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_tmp_files_are_ignored_by_strict_and_removed_by_salvage() {
        let store = sample_store();
        let dir = tmp("straytmp");
        save_store(&store, &dir).unwrap();
        std::fs::write(dir.join("block_9.txs.tmp"), b"half a write").unwrap();
        // Strict load ignores the residue.
        assert!(load_store(&dir).is_ok());
        let fsck = verify_store(&dir).unwrap();
        assert!(fsck.is_clean());
        assert_eq!(fsck.stray_tmp.len(), 1);
        // Damage a block so salvage runs; the tmp residue is cleaned.
        std::fs::remove_file(dir.join("block_2.txs")).unwrap();
        let (_, report) = load_store_with(&dir, RecoveryPolicy::SalvagePrefix).unwrap();
        assert_eq!(report.removed_tmp.len(), 1);
        assert!(!dir.join("block_9.txs.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_reports_all_damage() {
        let store = sample_store();
        let dir = tmp("fsck");
        save_store(&store, &dir).unwrap();
        // Damage both blocks in different ways.
        let p1 = dir.join("block_1.txs");
        let bytes = std::fs::read(&p1).unwrap();
        std::fs::write(&p1, &bytes[..bytes.len() - 1]).unwrap();
        std::fs::remove_file(dir.join("block_2.tid")).unwrap();
        let report = verify_store(&dir).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.damaged.len(), 2, "{report:?}");
        let text = format!("{report:?}");
        assert!(text.contains("block_1.txs"));
        assert!(text.contains("block_2.tid"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
