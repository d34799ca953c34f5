//! The shared error type.

use std::fmt;

/// Errors surfaced by the DEMON workspace.
#[derive(Debug)]
#[non_exhaustive]
pub enum DemonError {
    /// Minimum support must satisfy `0 < κ < 1`.
    InvalidMinSupport(f64),
    /// A window size or other structural parameter was invalid.
    InvalidParameter(String),
    /// A block id was out of range for the current snapshot.
    UnknownBlock(u64),
    /// A block id at or below the latest absorbed block was replayed into
    /// an engine that has already consumed it. Distinct from a gap (which
    /// is an [`DemonError::InvalidParameter`]) so replay-aware callers —
    /// a recovering ingest pipeline, the `demon-serve` daemon — can treat
    /// "already seen" as a benign, retryable condition.
    DuplicateBlock {
        /// The replayed block id.
        id: u64,
        /// The latest block the engine has already consumed.
        latest: u64,
    },
    /// A failure reported by a remote `demon-serve` daemon in response to
    /// a protocol request. The payload is the daemon's error message.
    Remote(String),
    /// A block-selection sequence did not match the window it was applied to.
    BssMismatch {
        /// Length of the supplied sequence.
        got: usize,
        /// Expected length (the window size).
        expected: usize,
    },
    /// An I/O failure (spill files, the WAL, sockets).
    Io(std::io::Error),
    /// A (de)serialization failure.
    Serde(String),
    /// A persisted file failed structural validation (bad magic, version,
    /// frame length, manifest inconsistency, …).
    Corrupt {
        /// The offending file (path or logical name).
        file: String,
        /// What exactly was wrong, including the offset when known.
        detail: String,
    },
    /// An operation that needs an exact shard merge was requested for a
    /// model class that does not provide one (`--shards ≥ 2` with a
    /// maintainer outside the `ShardableModel` subtrait). A typed error
    /// instead of a silently wrong merged model, mirroring how the
    /// `--window` restriction is surfaced.
    ShardsUnsupported {
        /// The model class that lacks an exact shard merge.
        class: &'static str,
    },
    /// A model-class tag on a WAL record, wire request, or snapshot did
    /// not match the class the daemon maintains — e.g. replaying an
    /// itemset WAL into a `--model clusters` daemon.
    ModelClassMismatch {
        /// The class the daemon maintains (its CLI name).
        expected: String,
        /// The class the artifact carries (CLI name, or `class tag <n>`
        /// for unknown tags).
        got: String,
    },
    /// A persisted file's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// The offending file (path or logical name).
        file: String,
        /// The checksum recorded in the frame header or manifest.
        expected: u32,
        /// The checksum of the bytes actually on disk.
        actual: u32,
    },
}

impl fmt::Display for DemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemonError::InvalidMinSupport(k) => {
                write!(f, "minimum support must satisfy 0 < κ < 1, got {k}")
            }
            DemonError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            DemonError::UnknownBlock(id) => write!(f, "unknown block D{id}"),
            DemonError::DuplicateBlock { id, latest } => write!(
                f,
                "duplicate block D{id}: the engine already consumed blocks up to D{latest}"
            ),
            DemonError::Remote(msg) => write!(f, "remote error: {msg}"),
            DemonError::BssMismatch { got, expected } => write!(
                f,
                "block selection sequence has length {got}, window expects {expected}"
            ),
            DemonError::Io(e) => write!(f, "i/o error: {e}"),
            DemonError::Serde(msg) => write!(f, "serialization error: {msg}"),
            DemonError::ShardsUnsupported { class } => write!(
                f,
                "sharded serving (--shards ≥ 2) requires an exact shard merge, \
                 which model class {class} does not provide; use --shards 1"
            ),
            DemonError::ModelClassMismatch { expected, got } => write!(
                f,
                "model class mismatch: this daemon maintains {expected}, but the \
                 payload is tagged {got}"
            ),
            DemonError::Corrupt { file, detail } => {
                write!(f, "corrupt file {file}: {detail}")
            }
            DemonError::ChecksumMismatch {
                file,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {file}: expected {expected:#010x}, found {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for DemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DemonError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DemonError {
    fn from(e: std::io::Error) -> Self {
        DemonError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(DemonError::InvalidMinSupport(1.5)
            .to_string()
            .contains("0 < κ < 1"));
        assert!(DemonError::UnknownBlock(9).to_string().contains("D9"));
        let e = DemonError::BssMismatch {
            got: 3,
            expected: 5,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
        let e = DemonError::DuplicateBlock { id: 2, latest: 4 };
        assert!(e.to_string().contains("D2") && e.to_string().contains("D4"));
        assert!(DemonError::Remote("queue full".into())
            .to_string()
            .contains("queue full"));
    }

    #[test]
    fn corruption_messages_name_the_file() {
        let e = DemonError::Corrupt {
            file: "store/block_3.txs".into(),
            detail: "truncated frame header (4 of 20 bytes)".into(),
        };
        assert!(e.to_string().contains("block_3.txs"));
        assert!(e.to_string().contains("20 bytes"));
        let e = DemonError::ChecksumMismatch {
            file: "store/block_3.tid".into(),
            expected: 0xDEADBEEF,
            actual: 0x12345678,
        };
        assert!(e.to_string().contains("block_3.tid"));
        assert!(e.to_string().contains("0xdeadbeef"));
        assert!(e.to_string().contains("0x12345678"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: DemonError = io.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }
}
