//! Write-ahead log: the durability substrate behind `demon-serve`'s
//! ack-means-applied contract.
//!
//! A WAL file (`wal-<gen>.log`) is a back-to-back sequence of framed
//! records, each one a standard [`crate::durable`] frame of class
//! [`FrameClass::WAL`] whose payload opens with an 8-byte little-endian
//! sequence number and a one-byte model-class tag (a
//! [`crate::ModelClass`] tag value), followed by an opaque body (for
//! `demon-serve`, the encoded `IngestBlock` request):
//!
//! ```text
//! ┌──────────────── frame (durable.rs layout, class "WL") ────────────────┐
//! │ magic ─ version ─ "WL" ─ payload len ─ CRC32 │ seq u64 │ class │ body │
//! └───────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The model-class byte lets recovery and `demon-cli verify` *reject*
//! cross-class replay (an itemset WAL fed to a `--model clusters`
//! daemon) instead of misinterpreting the body bytes.
//!
//! The reader is **salvage-by-construction**: it walks records from the
//! start and stops at the first defect — truncated header, bad magic,
//! impossible length, checksum mismatch, short payload, out-of-order
//! sequence number, mid-file model-class change. Everything before the
//! defect is a *clean prefix* of
//! intact records; everything at and after it is the *torn tail*, which
//! the caller drops (a record missing its fsync was by definition never
//! acked). [`WalWriter::open_after_recovery`] truncates the file back
//! to the clean prefix before appending so a torn tail cannot shadow
//! later records.
//!
//! A tail can only be torn where the log *ends*: the log is a chain of
//! generations `wal-<gen>.log` whose sequence numbers continue from one
//! file into the next, and [`WalChain`] turns a defect that intact
//! records follow into [`DemonError::Corrupt`] — acked records lie
//! behind it. A WAL directory holds those files and a framed `CURRENT`
//! pointer naming the oldest generation still retained (absent: 0),
//! written with [`atomic_write`] and moved *before* anything below it is
//! unlinked: a crash at any instant leaves every generation from the
//! pointer up in place. It holds nothing else, whatever `--shards` the
//! daemon runs with. Such a directory — a WAL root — is the one on-disk
//! form of a block stream: `demon-serve` writes and reads it
//! (`sequencer::write_root` / `read_root`), the daemon and every batch
//! command alike.

use crate::durable::{
    atomic_write, decode_frame_header, encode_frame, put_u64, read_framed, verify_frame_payload,
    FrameClass, Reader, FRAME_HEADER_LEN, FRAME_MAGIC,
};
use crate::error::DemonError;
use crate::obs::{self, Counter};
use crate::Result;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Length of the record header opening every record payload: the
/// sequence number (u64) and the model-class tag.
pub const WAL_RECORD_HEADER_LEN: usize = 8 + 1;

/// Name of the generation pointer file inside a WAL directory.
pub const CURRENT_FILE: &str = "CURRENT";

/// The WAL file for generation `gen`: `<dir>/wal-<gen>.log`.
pub fn wal_file_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen}.log"))
}

/// Parses a generation number out of a `wal-<gen>.log` file name.
pub fn parse_wal_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

/// Every WAL generation present in `dir`, ascending. Non-WAL entries
/// are ignored; a missing directory is an empty list.
pub fn list_wal_generations(dir: &Path) -> Result<Vec<u64>> {
    let mut gens = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(gens),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(gen) = entry.file_name().to_str().and_then(parse_wal_file_name) {
            gens.push(gen);
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Reads the `CURRENT` generation pointer. A missing pointer means
/// generation 0 (nothing was ever dropped); a damaged pointer is
/// a typed corruption error — the pointer is written atomically, so
/// damage means real bit rot, and recovery must not guess.
pub fn read_current(dir: &Path) -> Result<u64> {
    let path = dir.join(CURRENT_FILE);
    if !path.exists() {
        return Ok(0);
    }
    let (payload, _) = read_framed(&path, FrameClass::WAL_CURRENT)?;
    let mut r = Reader::new(&payload);
    r.u64("generation")
        .and_then(|gen| r.finish("the generation").map(|()| gen))
        .map_err(|_| DemonError::Corrupt {
            file: path.display().to_string(),
            detail: format!("CURRENT payload is {} bytes, expected 8", payload.len()),
        })
}

/// Atomically points `CURRENT` at `gen` (framed + checksummed, written
/// via tmp+fsync+rename). After this returns, a crash recovers from
/// generation `gen` on.
pub fn write_current(dir: &Path, gen: u64) -> Result<()> {
    let (bytes, _) = encode_frame(FrameClass::WAL_CURRENT, &gen.to_le_bytes());
    atomic_write(&dir.join(CURRENT_FILE), &bytes)?;
    Ok(())
}

/// Encodes one WAL record: a [`FrameClass::WAL`] frame whose payload is
/// `seq` (u64 LE), then the model-class tag byte `class`, then `body`.
pub fn encode_wal_record(seq: u64, class: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(WAL_RECORD_HEADER_LEN + body.len());
    put_u64(&mut payload, seq);
    payload.push(class);
    payload.extend_from_slice(body);
    let (bytes, _) = encode_frame(FrameClass::WAL, &payload);
    bytes
}

/// One intact WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's sequence number (monotonically increasing across the
    /// whole WAL chain, +1 per record within a file).
    pub seq: u64,
    /// The model-class tag ([`crate::ModelClass::tag`]) the writing
    /// daemon stamped on the record. Recovery refuses records whose
    /// class differs from the daemon's own.
    pub class: u8,
    /// The opaque record body (for `demon-serve`, an encoded
    /// `IngestBlock` request payload).
    pub body: Vec<u8>,
}

/// The result of reading a WAL file: the clean prefix of records, how
/// far into the file that prefix reaches, and what (if anything) tore
/// the tail.
#[derive(Clone, Debug, Default)]
pub struct WalReadReport {
    /// Intact records, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the clean prefix; the writer truncates the file to
    /// this length before appending again.
    pub valid_len: u64,
    /// Why reading stopped before end-of-file, if it did. `None` means
    /// the whole file decoded cleanly.
    pub torn: Option<String>,
    /// Whether an intact record lies beyond the tear: damage inside the
    /// log, not a torn tail — the records behind it were acknowledged.
    pub intact_after_tear: bool,
}

impl WalReadReport {
    /// The sequence number the next appended record must carry (one past
    /// the last intact record), if any record survived.
    pub fn next_seq(&self) -> Option<u64> {
        self.records.last().map(|r| r.seq + 1)
    }
}

/// Decodes the clean prefix of WAL records out of `bytes`. Never fails:
/// any defect ends the prefix and is reported in
/// [`WalReadReport::torn`]. `source` names the file in tear messages.
pub fn decode_wal_records(bytes: &[u8], source: &str) -> WalReadReport {
    let mut report = WalReadReport::default();
    let mut off = 0usize;
    while off < bytes.len() {
        let remaining = &bytes[off..];
        let header_end = remaining.len().min(FRAME_HEADER_LEN);
        let header = match decode_frame_header(FrameClass::WAL, &remaining[..header_end], source) {
            Ok(h) => h,
            Err(e) => {
                report.torn = Some(format!("record at offset {off}: {e}"));
                break;
            }
        };
        let body_avail = (remaining.len() - FRAME_HEADER_LEN) as u64;
        if header.payload_len > body_avail {
            report.torn = Some(format!(
                "record at offset {off}: truncated payload ({} of {} bytes)",
                body_avail, header.payload_len
            ));
            break;
        }
        let payload_len = header.payload_len as usize;
        let payload = &remaining[FRAME_HEADER_LEN..FRAME_HEADER_LEN + payload_len];
        if let Err(e) = verify_frame_payload(&header, payload, source) {
            report.torn = Some(format!("record at offset {off}: {e}"));
            break;
        }
        let mut record = Reader::new(payload);
        let (Ok(seq), Ok(class)) = (record.u64("sequence number"), record.u8("model class"))
        else {
            report.torn = Some(format!(
                "record at offset {off}: payload too short for a record header \
                 ({} of {WAL_RECORD_HEADER_LEN} bytes)",
                payload.len()
            ));
            break;
        };
        if let Some(last) = report.records.last() {
            if seq != last.seq + 1 {
                report.torn = Some(format!(
                    "record at offset {off}: sequence jumped from {} to {seq}",
                    last.seq
                ));
                break;
            }
            if class != last.class {
                report.torn = Some(format!(
                    "record at offset {off}: model class changed from {} to {}",
                    crate::ModelClass::describe_tag(last.class),
                    crate::ModelClass::describe_tag(class)
                ));
                break;
            }
        }
        report.records.push(WalRecord {
            seq,
            class,
            body: record.rest().to_vec(),
        });
        off += FRAME_HEADER_LEN + payload_len;
        report.valid_len = off as u64;
    }
    if report.torn.is_some() {
        // A whole, checksum-clean record beyond the defect: the reader
        // lost the record boundary, the log did not end.
        report.intact_after_tear = (off + 1..bytes.len().saturating_sub(FRAME_HEADER_LEN))
            .filter(|&at| bytes[at..].starts_with(&FRAME_MAGIC))
            .any(|at| {
                let (header, rest) = bytes[at..].split_at(FRAME_HEADER_LEN);
                decode_frame_header(FrameClass::WAL, header, source).is_ok_and(|header| {
                    rest.get(..header.payload_len as usize)
                        .is_some_and(|p| verify_frame_payload(&header, p, source).is_ok())
                })
            });
    }
    report
}

/// Reads a WAL file and decodes its clean prefix. A missing file is an
/// [`DemonError::Io`] error (callers decide whether that is fatal); a
/// torn tail is *not* an error — it is reported in the result and
/// counted under `wal.torn_tails`.
pub fn read_wal(path: &Path) -> Result<WalReadReport> {
    let bytes = std::fs::read(path)?;
    let report = decode_wal_records(&bytes, &path.display().to_string());
    if report.torn.is_some() {
        obs::incr(Counter::WalTornTails);
    }
    Ok(report)
}

/// A log as a chain of generations, read oldest first: each
/// [`WalChain::read`] is a [`read_wal`] held to the chain rule. A tear
/// is salvage only where the chain ends; a tear that intact records
/// follow, in the same file or a later generation, and a generation
/// that does not open with the sequence number the chain had reached,
/// are [`DemonError::Corrupt`] naming the file that ends short. Recovery
/// and `demon-cli verify` both read through this.
#[derive(Debug, Default)]
pub struct WalChain {
    /// The file that last held a record, and the sequence number the
    /// chain continues with.
    end: Option<(String, u64)>,
    /// The file whose tail is torn and the tear, once one was read.
    torn: Option<(String, String)>,
}

impl WalChain {
    /// The sequence number the chain's next record carries.
    pub fn next_seq(&self) -> u64 {
        self.end.as_ref().map_or(0, |(_, seq)| *seq)
    }

    /// Reads the chain's next generation.
    pub fn read(&mut self, path: &Path) -> Result<WalReadReport> {
        let report = read_wal(path)?;
        let file = path.display().to_string();
        let corrupt = |file, detail| Err(DemonError::Corrupt { file, detail });
        if let (Some(tear), true) = (&report.torn, report.intact_after_tear) {
            return corrupt(file, format!("{tear}; intact records follow the damage"));
        }
        if let (Some(first), Some(next)) = (report.records.first(), report.next_seq()) {
            if let Some((torn, tear)) = self.torn.take() {
                return corrupt(torn, format!("{tear}; intact records follow in {file}"));
            }
            match self.end.take() {
                Some((ended, seq)) if seq != first.seq => {
                    let found = format!("but {file} opens with {}", first.seq);
                    return corrupt(ended, format!("ends before sequence {seq}, {found}"));
                }
                _ => self.end = Some((file.clone(), next)),
            }
        }
        if let Some(tear) = &report.torn {
            self.torn.get_or_insert((file, tear.clone()));
        }
        Ok(report)
    }
}

/// Cuts a log back to its clean prefix (a [`WalReadReport::valid_len`])
/// and fsyncs the cut, so nothing appended later sits behind a tear.
pub fn truncate_torn_tail(path: &Path, valid_len: u64) -> Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_len)?;
    file.sync_all()?;
    obs::incr(Counter::WalFsyncs);
    Ok(())
}

/// An append-only WAL file handle: [`WalWriter::append_unsynced`] writes
/// framed records, and once the [`WalWriter::sync`] that covers them
/// returns `Ok` they survive `kill -9`.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    bytes: u64,
    next_seq: u64,
    class: u8,
}

impl WalWriter {
    /// Creates a fresh (empty) WAL file whose first record will carry
    /// sequence number `next_seq`; every record is stamped with the
    /// model-class tag `class`. The file itself and its directory entry
    /// are fsynced so the empty log survives a crash.
    pub fn create(path: &Path, next_seq: u64, class: u8) -> Result<WalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        file.set_len(0)?;
        file.sync_all()?;
        sync_parent(path);
        obs::incr(Counter::WalFsyncs);
        Ok(WalWriter {
            file,
            bytes: 0,
            next_seq,
            class,
        })
    }

    /// Reopens an existing WAL file after recovery: the torn tail (if
    /// any) is truncated away at `valid_len`, and appending resumes with
    /// sequence number `next_seq` and model-class tag `class`.
    pub fn open_after_recovery(
        path: &Path,
        valid_len: u64,
        next_seq: u64,
        class: u8,
    ) -> Result<WalWriter> {
        truncate_torn_tail(path, valid_len)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(WalWriter {
            file,
            bytes: valid_len,
            next_seq,
            class,
        })
    }

    /// Appends one record **without** fsyncing (group commit) and
    /// returns its sequence number. The record is NOT durable until a
    /// subsequent [`WalWriter::sync`] returns `Ok`; callers must not ack
    /// before that covering fsync.
    pub fn append_unsynced(&mut self, body: &[u8]) -> Result<u64> {
        let seq = self.next_seq;
        let record = encode_wal_record(seq, self.class, body);
        self.file.write_all(&record)?;
        self.bytes += record.len() as u64;
        self.next_seq = seq + 1;
        obs::incr(Counter::WalAppends);
        obs::add(Counter::WalBytes, record.len() as u64);
        Ok(seq)
    }

    /// fsyncs everything appended so far — one call covers every prior
    /// [`WalWriter::append_unsynced`].
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_all()?;
        obs::incr(Counter::WalFsyncs);
        Ok(())
    }

    /// Bytes currently in the file (clean prefix + everything appended
    /// through this handle). Drives the `--wal-max-bytes` rotation check.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The model-class tag stamped on every record this writer appends.
    pub fn class(&self) -> u8 {
        self.class
    }
}

/// Best-effort fsync of `path`'s parent directory so a freshly created
/// file name survives a crash (same caveats as in [`atomic_write`]).
fn sync_parent(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model-class tag stamped on test records.
    const CLASS: u8 = 1;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("demon-wal-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn bodies() -> Vec<Vec<u8>> {
        (0..5u8).map(|i| vec![i; 3 + i as usize * 7]).collect()
    }

    #[test]
    fn writer_and_reader_roundtrip() {
        let dir = tmp("roundtrip");
        let path = wal_file_path(&dir, 0);
        let mut w = WalWriter::create(&path, 10, CLASS).unwrap();
        for body in bodies() {
            w.append_unsynced(&body).unwrap();
        }
        assert_eq!(w.next_seq(), 15);
        assert_eq!(w.class(), CLASS);
        let report = read_wal(&path).unwrap();
        assert!(report.torn.is_none(), "{:?}", report.torn);
        assert_eq!(report.records.len(), 5);
        assert_eq!(report.valid_len, w.bytes());
        assert_eq!(report.next_seq(), Some(15));
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.seq, 10 + i as u64);
            assert_eq!(r.class, CLASS);
            assert_eq!(r.body, bodies()[i]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_appends_are_durable_after_the_covering_sync() {
        let dir = tmp("group");
        let path = wal_file_path(&dir, 0);
        let mut w = WalWriter::create(&path, 0, CLASS).unwrap();
        for body in bodies() {
            w.append_unsynced(&body).unwrap();
        }
        w.sync().unwrap();
        let report = read_wal(&path).unwrap();
        assert!(report.torn.is_none(), "{:?}", report.torn);
        assert_eq!(report.records.len(), 5);
        assert_eq!(report.next_seq(), Some(5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_class_change_tears_the_tail() {
        let mut file = Vec::new();
        file.extend_from_slice(&encode_wal_record(0, 1, b"a"));
        file.extend_from_slice(&encode_wal_record(1, 1, b"b"));
        file.extend_from_slice(&encode_wal_record(2, 2, b"c")); // foreign class
        let report = decode_wal_records(&file, "t");
        assert_eq!(report.records.len(), 2);
        let torn = report.torn.unwrap();
        assert!(torn.contains("model class changed"), "{torn}");
        assert!(torn.contains("itemsets") && torn.contains("clusters"), "{torn}");
    }

    #[test]
    fn every_truncation_yields_a_clean_prefix() {
        let mut file = Vec::new();
        let mut ends = vec![0usize]; // byte length after each whole record
        for (i, body) in bodies().iter().enumerate() {
            file.extend_from_slice(&encode_wal_record(i as u64, CLASS, body));
            ends.push(file.len());
        }
        for cut in 0..=file.len() {
            let report = decode_wal_records(&file[..cut], "t");
            // The prefix is exactly the whole records that fit in `cut`.
            let want = ends.iter().filter(|&&e| e > 0 && e <= cut).count();
            assert_eq!(report.records.len(), want, "cut at {cut}");
            assert_eq!(report.valid_len as usize, ends[want], "cut at {cut}");
            assert_eq!(report.torn.is_some(), cut != ends[want], "cut at {cut}");
            for (i, r) in report.records.iter().enumerate() {
                assert_eq!(r.seq, i as u64);
                assert_eq!(r.body, bodies()[i]);
            }
        }
    }

    #[test]
    fn every_bit_flip_yields_a_clean_prefix() {
        let mut file = Vec::new();
        let mut ends = vec![0usize];
        for (i, body) in bodies().iter().enumerate() {
            file.extend_from_slice(&encode_wal_record(i as u64, CLASS, body));
            ends.push(file.len());
        }
        for i in 0..file.len() {
            for mask in [0x01u8, 0xFF] {
                let mut bad = file.clone();
                bad[i] ^= mask;
                let report = decode_wal_records(&bad, "t");
                // Records wholly before the flipped byte must survive;
                // the record containing the flip must not.
                let intact = ends.iter().filter(|&&e| e > 0 && e <= i).count();
                assert!(
                    report.records.len() >= intact,
                    "flip at {i} lost intact records: {} < {intact}",
                    report.records.len()
                );
                assert!(
                    report.records.len() <= intact,
                    "flip at {i} kept a damaged record"
                );
                assert!(report.torn.is_some(), "flip at {i} went undetected");
                for (k, r) in report.records.iter().enumerate() {
                    assert_eq!(r.seq, k as u64);
                    assert_eq!(r.body, bodies()[k]);
                }
            }
        }
    }

    #[test]
    fn out_of_sequence_records_tear_the_tail() {
        let mut file = Vec::new();
        file.extend_from_slice(&encode_wal_record(3, CLASS, b"a"));
        file.extend_from_slice(&encode_wal_record(4, CLASS, b"b"));
        file.extend_from_slice(&encode_wal_record(9, CLASS, b"c")); // gap
        let report = decode_wal_records(&file, "t");
        assert_eq!(report.records.len(), 2);
        assert!(report.torn.unwrap().contains("sequence jumped"));
    }

    /// A tear is a tail only where the chain ends: the same cut is
    /// salvage in the last generation and `Corrupt` — naming the cut file
    /// — once an intact record follows it, in the same file or the next;
    /// and a generation must open where its predecessor ended.
    #[test]
    fn a_chain_salvages_its_end_and_refuses_damage_before_it() {
        let dir = tmp("chain");
        let (first, second) = (wal_file_path(&dir, 0), wal_file_path(&dir, 1));
        let mut w = WalWriter::create(&first, 0, CLASS).unwrap();
        for body in bodies() {
            w.append_unsynced(&body).unwrap();
        }
        WalWriter::create(&second, 5, CLASS).unwrap(); // an empty generation
        let pristine = std::fs::read(&first).unwrap();
        let read_both = || {
            let mut chain = WalChain::default();
            chain.read(&first).and_then(|a| Ok((a, chain.read(&second)?, chain.next_seq())))
        };

        // Cut inside the last record: a torn tail, the empty log after it
        // notwithstanding.
        std::fs::write(&first, &pristine[..pristine.len() - 2]).unwrap();
        let (torn, empty, next_seq) = read_both().unwrap();
        assert_eq!((torn.records.len(), empty.records.len(), next_seq), (4, 0, 4));
        assert!(torn.torn.is_some() && !torn.intact_after_tear);

        // The same bytes with a record behind them, an empty generation
        // further on (recovery cuts a tear off before it appends anything).
        let third = wal_file_path(&dir, 2);
        WalWriter::create(&third, 4, CLASS).unwrap().append_unsynced(b"later").unwrap();
        let mut chain = WalChain::default();
        let read = [&first, &second, &third].map(|path| chain.read(path).map(|_| ()));
        assert!(matches!(&read, [Ok(()), Ok(()), Err(DemonError::Corrupt { file, .. })] if file.ends_with("wal-0.log")));
        std::fs::remove_file(&third).unwrap();
        WalWriter::create(&second, 4, CLASS).unwrap().append_unsynced(b"later").unwrap();
        match read_both() {
            Err(DemonError::Corrupt { file, detail }) => {
                assert!(file.ends_with("wal-0.log") && detail.contains("wal-1.log"), "{file}: {detail}")
            }
            other => panic!("a tear before intact records: {other:?}"),
        }

        // A flipped byte in the first record: four intact ones follow it.
        let mut flipped = pristine.clone();
        flipped[FRAME_HEADER_LEN + 3] ^= 0x20;
        std::fs::write(&first, &flipped).unwrap();
        let alone = decode_wal_records(&flipped, "t");
        assert!(alone.records.is_empty() && alone.intact_after_tear);
        assert!(matches!(read_both(), Err(DemonError::Corrupt { file, .. }) if file.ends_with("wal-0.log")));

        // Intact files whose sequence numbers do not meet, and ones that do.
        std::fs::write(&first, &pristine).unwrap();
        assert!(matches!(read_both(), Err(DemonError::Corrupt { file, .. }) if file.ends_with("wal-0.log")));
        WalWriter::create(&second, 5, CLASS).unwrap().append_unsynced(b"later").unwrap();
        assert_eq!(read_both().unwrap().2, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_truncates_the_torn_tail_before_appending() {
        let dir = tmp("recover");
        let path = wal_file_path(&dir, 1);
        let mut w = WalWriter::create(&path, 0, CLASS).unwrap();
        w.append_unsynced(b"first").unwrap();
        w.append_unsynced(b"second").unwrap();
        drop(w);
        // Tear the tail: drop the last 3 bytes of the file.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();

        let report = read_wal(&path).unwrap();
        assert_eq!(report.records.len(), 1);
        assert!(report.torn.is_some());
        let mut w =
            WalWriter::open_after_recovery(&path, report.valid_len, report.next_seq().unwrap(), CLASS)
                .unwrap();
        w.append_unsynced(b"third").unwrap();
        let healed = read_wal(&path).unwrap();
        assert!(healed.torn.is_none(), "{:?}", healed.torn);
        assert_eq!(healed.records.len(), 2);
        assert_eq!(healed.records[0].body, b"first");
        assert_eq!(healed.records[1].body, b"third");
        assert_eq!(healed.records[1].seq, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn current_pointer_roundtrips_and_detects_damage() {
        let dir = tmp("current");
        assert_eq!(read_current(&dir).unwrap(), 0, "missing pointer is gen 0");
        write_current(&dir, 7).unwrap();
        assert_eq!(read_current(&dir).unwrap(), 7);
        write_current(&dir, 8).unwrap();
        assert_eq!(read_current(&dir).unwrap(), 8);
        // Bit-rot in the pointer is loud, not a silent wrong generation.
        let path = dir.join(CURRENT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_current(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generation_names_parse_and_list() {
        assert_eq!(parse_wal_file_name("wal-0.log"), Some(0));
        assert_eq!(parse_wal_file_name("wal-42.log"), Some(42));
        assert_eq!(parse_wal_file_name("wal-.log"), None);
        assert_eq!(parse_wal_file_name("wal-42.log.tmp"), None);

        let dir = tmp("list");
        assert!(list_wal_generations(&dir.join("absent")).unwrap().is_empty());
        for gen in [3u64, 1, 2] {
            WalWriter::create(&wal_file_path(&dir, gen), 0, CLASS).unwrap();
        }
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();
        assert_eq!(list_wal_generations(&dir).unwrap(), vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_wal_file_is_a_clean_empty_prefix() {
        let dir = tmp("empty");
        let path = wal_file_path(&dir, 0);
        WalWriter::create(&path, 0, CLASS).unwrap();
        let report = read_wal(&path).unwrap();
        assert!(report.records.is_empty());
        assert!(report.torn.is_none());
        assert_eq!(report.valid_len, 0);
        assert_eq!(report.next_seq(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
