//! Fault-injection harness for the one on-disk form of a block stream —
//! a WAL root.
//!
//! Every test here follows the same discipline: take a known-good root,
//! damage it in a systematic sweep (truncate every file at every length,
//! flip bits at every offset, leave the residue of a crashed write), and
//! assert the one recovery rule a daemon's bind and every batch command
//! share (`demon_serve::sequencer::read_root`):
//!
//! * the root reads as a clean prefix of the stream (a torn end of the
//!   log is dropped) or as a typed refusal naming the damaged file — never
//!   a panic, never a block that was not written;
//! * a daemon's bind and `demon-cli verify` agree with the reader.

use demon::itemsets::{FrequentItemsets, TxStore};
use demon::serve::sequencer::{read_root, refuse_old_layout, write_root};
use demon::serve::{ItemsetModel, ServeConfig, Server};
use demon::types::durable;
use demon::types::{
    Block, BlockId, BlockInterval, DemonError, Item, MinSupport, ModelClass, Tid,
    Timestamp, Transaction, TxBlock,
};
use std::fs;
use std::path::{Path, PathBuf};

const UNIVERSE: u32 = 6;

fn tx(tid: u64, items: &[u32]) -> Transaction {
    Transaction::new(Tid(tid), items.iter().map(|&i| Item(i)).collect())
}

/// A small stream exercising every logged field: plain blocks and a
/// block with a wall-clock interval.
fn sample_blocks() -> Vec<TxBlock> {
    vec![
        Block::new(BlockId(1), vec![tx(1, &[0, 1, 2]), tx(2, &[0, 1]), tx(3, &[3, 4])]),
        Block::with_interval(
            BlockId(2),
            BlockInterval::new(Timestamp(100), Timestamp(200)),
            vec![tx(4, &[0, 1, 5]), tx(5, &[2, 3])],
        ),
        Block::new(BlockId(3), vec![tx(6, &[1, 2]), tx(7, &[0])]),
    ]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("demon-fault-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Writes the sample stream as a root at `dir`, as `demon-cli generate`
/// would.
fn write_sample(dir: &Path) {
    let blocks = sample_blocks();
    let written = write_root::<ItemsetModel>(dir, UNIVERSE, |put| blocks.iter().try_for_each(put));
    assert_eq!(written.unwrap(), 3);
}

/// Regular files directly inside `dir`, sorted for deterministic sweeps.
fn root_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
}

fn copy_root(src: &Path, dst: &Path) {
    fs::remove_dir_all(dst).ok();
    fs::create_dir_all(dst).unwrap();
    for file in root_files(src) {
        fs::copy(&file, dst.join(file.file_name().unwrap())).unwrap();
    }
}

/// The blocks a replay of the root at `dir` applies, read as every
/// batch command reads it — or its refusal.
fn read(dir: &Path) -> Result<Vec<TxBlock>, DemonError> {
    refuse_old_layout(dir)?;
    read_root(dir, Some(ModelClass::Itemsets))?
        .blocks::<ItemsetModel>(Some(UNIVERSE))
        .collect()
}

/// `demon-cli verify DIR` exited 0.
fn verify_passes(dir: &Path) -> bool {
    std::process::Command::new(env!("CARGO_BIN_EXE_demon-cli"))
        .arg("verify")
        .arg(dir)
        .output()
        .expect("demon-cli runs")
        .status
        .success()
}

/// The recovery rule after `what` was done to the file `name` of the
/// root at `dir`: a clean prefix of the sample stream or a typed refusal
/// naming the file; a daemon bound over a copy, and `verify`, agree.
fn assert_one_rule(dir: &Path, name: &str, what: &str) {
    let read = read(dir);
    match &read {
        Ok(prefix) => {
            assert!(prefix.len() <= 3, "{what}: {} blocks", prefix.len());
            for (got, want) in prefix.iter().zip(sample_blocks()) {
                assert_eq!(got.id(), want.id(), "{what}");
                assert_eq!(got.records(), want.records(), "{what}: a block that was not written");
                assert_eq!(got.interval(), want.interval(), "{what}");
            }
        }
        Err(e) => {
            assert!(
                matches!(e, DemonError::Corrupt { .. } | DemonError::ChecksumMismatch { .. }),
                "{what}: untyped refusal {e}"
            );
            assert!(e.to_string().contains(name), "{what}: the refusal does not name {name}: {e}");
        }
    }
    let bound = dir.with_extension("bind");
    copy_root(dir, &bound);
    let mut config = ServeConfig::new("127.0.0.1:0", UNIVERSE, MinSupport::new(0.3).unwrap());
    config.wal_dir = Some(bound.clone());
    let bind = Server::bind(config);
    assert_eq!(bind.is_ok(), read.is_ok(), "{what}: the bind disagrees with the reader");
    drop(bind);
    assert_eq!(verify_passes(dir), read.is_ok(), "{what}: verify disagrees with the reader");
    fs::remove_dir_all(&bound).ok();
}

/// Truncating any file of a root at any length is detected: the log
/// reads as the clean prefix of whole records before the cut (salvaged:
/// the torn end is dropped), the `CURRENT` pointer as a refusal naming it.
#[test]
fn every_truncation_of_every_file_is_detected_and_salvageable() {
    let src = fresh_dir("trunc-src");
    write_sample(&src);
    let work = fresh_dir("trunc-work");
    for file in root_files(&src) {
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        let pristine = fs::read(&file).unwrap();
        for cut in 0..pristine.len() {
            let what = format!("{name} truncated to {cut} of {} bytes", pristine.len());
            copy_root(&src, &work);
            fs::write(work.join(&name), &pristine[..cut]).unwrap();
            assert_one_rule(&work, &name, &what);
        }
    }
    fs::remove_dir_all(&src).ok();
    fs::remove_dir_all(&work).ok();
}

/// Flipping bits at any single offset of any file of a root is detected
/// by a frame CRC: a flip in the last record salvages the prefix before
/// it, one that intact records follow — or one in `CURRENT` — is a
/// refusal naming the file.
#[test]
fn every_bit_flip_in_every_file_is_detected_and_salvageable() {
    let src = fresh_dir("flip-src");
    write_sample(&src);
    let work = fresh_dir("flip-work");
    for file in root_files(&src) {
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        let pristine = fs::read(&file).unwrap();
        for offset in 0..pristine.len() {
            for mask in [0x01u8, 0xFF] {
                let what = format!("{name} with byte {offset} xor {mask:#04x}");
                copy_root(&src, &work);
                let mut bytes = pristine.clone();
                bytes[offset] ^= mask;
                fs::write(work.join(&name), &bytes).unwrap();
                assert_one_rule(&work, &name, &what);
                assert!(read(&work).map_or(true, |prefix| prefix.len() < 3), "{what} went undetected");
            }
        }
    }
    fs::remove_dir_all(&src).ok();
    fs::remove_dir_all(&work).ok();
}

/// What a crashed writer leaves behind is harmless and cleaned by the
/// next write: a `CURRENT.tmp` inside the root (a pointer write cut
/// before its rename) and a `<root>.tmp` beside it (a `generate` or
/// `Snapshot` cut before its rename) change nothing a reader sees, and
/// writing the root again leaves neither.
#[test]
fn stray_tmp_files_from_crashed_writes_are_harmless_and_cleaned() {
    let base = fresh_dir("crash-tmp");
    let dir = base.join("root");
    write_sample(&dir);
    fs::write(dir.join("CURRENT.tmp"), b"half a pointer").unwrap();
    fs::create_dir_all(durable::tmp_path(&dir)).unwrap();
    fs::write(durable::tmp_path(&dir).join("wal-0.log"), b"half a log").unwrap();
    let read_back = read(&dir).unwrap();
    assert_eq!(read_back.len(), 3);
    assert!(verify_passes(&dir));
    write_sample(&dir);
    assert!(!durable::tmp_path(&dir).exists(), "the residue beside the root is swept");
    assert!(!dir.join("CURRENT.tmp").exists(), "the residue inside the root is gone");
    assert_eq!(read(&dir).unwrap().len(), 3);
    fs::remove_dir_all(&base).ok();
}

/// A crash before the rename of a rewritten root leaves the previous root
/// whole: the half-written `<root>.tmp` is never read, and a root whose
/// `CURRENT` names a log that is missing is refused by that log's name.
#[test]
fn crash_before_the_rename_of_a_root_leaves_the_previous_one() {
    let base = fresh_dir("crash-root");
    let dir = base.join("root");
    write_sample(&dir);
    let partial = durable::tmp_path(&dir);
    copy_root(&dir, &partial);
    let log = partial.join("wal-0.log");
    let bytes = fs::read(&log).unwrap();
    fs::write(&log, &bytes[..bytes.len() / 2]).unwrap();
    let blocks = read(&dir).unwrap();
    assert_eq!(blocks.len(), 3, "the previous root is untouched");

    fs::remove_file(dir.join("wal-0.log")).unwrap();
    match read(&dir) {
        Err(DemonError::Corrupt { file, .. }) => assert!(file.ends_with("wal-0.log"), "{file}"),
        other => panic!("a root missing the log CURRENT names: {other:?}"),
    }
    assert!(!verify_passes(&dir));
    fs::remove_dir_all(&base).ok();
}

/// The salvaged prefix is *correct*, not merely readable: a root whose
/// last record is cut mines exactly as the blocks before it did.
#[test]
fn salvaged_prefix_mines_identically_to_the_original_prefix() {
    let dir = fresh_dir("salvage-mine");
    write_sample(&dir);
    let log = dir.join("wal-0.log");
    let bytes = fs::read(&log).unwrap();
    fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();
    let salvaged = read(&dir).unwrap();
    assert_eq!(salvaged.iter().map(|b| b.id()).collect::<Vec<_>>(), [BlockId(1), BlockId(2)]);
    let store_of = |blocks: Vec<TxBlock>| {
        let mut store = TxStore::new(UNIVERSE);
        blocks.into_iter().for_each(|b| store.add_block(b));
        store
    };
    let (salvaged, original) = (store_of(salvaged), store_of(sample_blocks()));
    let minsup = MinSupport::new(0.3).unwrap();
    let prefix = [BlockId(1), BlockId(2)];
    let from_salvaged = FrequentItemsets::mine_from(&salvaged, &prefix, minsup).unwrap();
    let from_original = FrequentItemsets::mine_from(&original, &prefix, minsup).unwrap();
    assert_eq!(from_salvaged.frequent(), from_original.frequent());
    fs::remove_dir_all(&dir).ok();
}

