//! The wire protocol: framed, checksummed request/response messages.
//!
//! Every message is one frame in the workspace's durable file format
//! ([`demon_types::durable`], format version 2): the 20-byte header
//! (magic, version, class tag, payload length, CRC32) followed by the
//! payload. Requests carry class `RQ`, responses class `RS` — a response
//! replayed into a request socket is rejected by the class check before
//! any payload decoding, exactly like a WAL segment copied over a spilled
//! block file on disk.
//!
//! ## Payload layout
//!
//! The first payload byte is the verb (request) or status (response)
//! tag; the rest is verb-specific, written with the `put_*` functions
//! of [`demon_types::durable`] and read through its
//! [`Reader`] — a payload that ends early, or carries bytes past the end
//! of its message, is a typed error naming the field. Numbers are
//! fixed-width little-endian (the payloads are small; varint packing
//! buys nothing on a socket that already frames). The protocol is
//! generic over the model class: an
//! `IngestBlock` carries a one-byte [`demon_types::ModelClass`] tag, a
//! class-specific `meta` word (the item-universe size for itemsets, the
//! dimensionality for points and labeled points), and the records as
//! opaque class-codec bytes (for itemsets,
//! [`demon_itemsets::store::encode_block_txs`]). The request body is
//! also what the write-ahead log records ([`Request::ingest`]): a block
//! crosses the wire in exactly the bytes it persists as, and a WAL root —
//! a daemon's `--wal-dir`, a `Snapshot`, a generated stream — is a
//! sequence of these bodies. The daemon decodes the
//! records through its `ServableModel` codec after checking the class
//! tag, so a foreign-class payload is rejected typed, never
//! misinterpreted.
//!
//! | request | tag | body |
//! |---|---|---|
//! | `IngestBlock` | 1 | class u8; block header ([`put_block_header`]: id u64; interval flag u8 (+ start/end u64)); meta u32; record payload len u32; record payload |
//! | `QueryModel` | 2 | optionally: class u8 (absent = any class) |
//! | `QuerySequences` | 3 | — |
//! | `Stats` | 4 | — |
//! | `Snapshot` | 5 | dir len u32; dir bytes (UTF-8) |
//! | `Shutdown` | 6 | — |
//!
//! | response | tag | body |
//! |---|---|---|
//! | `Ok` | 0 | — |
//! | `Model` | 1 | model JSON (UTF-8) |
//! | `Sequences` | 2 | count u32; per sequence: len u32 + block ids u64 |
//! | `Stats` | 3 | stats JSON (UTF-8) |
//! | `SnapshotDone` | 4 | persisted block count u64 |
//! | `Err` | 5 | error code u8; code-specific body (see [`WireError`]) |
//!
//! Either side reads a message by pulling the fixed-size header,
//! validating magic/version/class ([`durable::decode_frame_header`]),
//! bounding the promised length by [`MAX_PAYLOAD`], then pulling and
//! CRC-checking the payload ([`durable::verify_frame_payload`]). A
//! clean EOF at a frame boundary means the peer hung up.

use demon_types::durable::{
    self, put_block_header, put_str, put_u32, put_u64, FrameClass, Reader, FRAME_HEADER_LEN,
};
use crate::model::ServableModel;
use demon_types::{Block, BlockId, BlockInterval, DemonError, ModelClass, Result};
use std::io::{Read, Write};

/// Upper bound on a single message payload (64 MiB). A header promising
/// more is corruption (or a hostile peer), not a large block.
pub const MAX_PAYLOAD: u64 = 64 << 20;

/// A request verb, as decoded from one `RQ` frame.
#[derive(Clone, Debug)]
pub enum Request {
    /// Append one block to the monitored stream (through the server's
    /// bounded ingest queue). The block id and interval are protocol-level
    /// fields (the sequencer routes and dup-checks on them before any
    /// class-specific decoding); the records are opaque class-codec bytes
    /// validated against the daemon's own class and meta.
    IngestBlock {
        /// The model-class tag the payload is encoded for.
        class: u8,
        /// The block's id in the evolution sequence.
        id: BlockId,
        /// The block's wall-clock interval, when timestamped.
        interval: Option<BlockInterval>,
        /// Class-specific shape word: the item-universe size the client
        /// encoded against (itemsets) or the record dimensionality
        /// (clusters, trees).
        meta: u32,
        /// The records, in the class codec's bytes.
        payload: Vec<u8>,
    },
    /// Fetch the current model as canonical JSON. Optionally pins the
    /// model class the client expects — a daemon of a different class
    /// answers with a typed mismatch instead of JSON the client would
    /// misparse. `None` (the legacy encoding) accepts any class.
    QueryModel {
        /// The expected model-class tag, if the client pins one.
        class: Option<u8>,
    },
    /// Fetch the current compact block sequences.
    QuerySequences,
    /// Fetch the daemon's ingest count and obs counter table as JSON.
    Stats,
    /// Atomically write the held blocks as a WAL root to a directory on
    /// the server's filesystem.
    Snapshot {
        /// Target directory (server-side path).
        dir: String,
    },
    /// Drain the ingest queue, stop accepting connections, exit cleanly.
    Shutdown,
}

/// A response, as decoded from one `RS` frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The request succeeded and has no body.
    Ok,
    /// The current model, serialized as canonical JSON.
    Model(String),
    /// The current compact block sequences.
    Sequences(Vec<Vec<BlockId>>),
    /// Daemon stats as JSON (`{"blocks":…,"counters":{…}}`).
    Stats(String),
    /// A snapshot completed; the payload is the persisted block count.
    SnapshotDone(u64),
    /// The request failed; the payload is a typed error the client can
    /// react to (retry, treat as already-applied, give up).
    Err(WireError),
}

/// A typed failure crossing the wire (response tag 5): one error-code
/// byte followed by code-specific fields, so a client reacts to the
/// *kind* of failure instead of parsing prose.
///
/// | code | variant | body |
/// |---|---|---|
/// | 0 | `Other` | message (UTF-8) |
/// | 1 | `Duplicate` | replayed id u64; latest applied id u64 |
/// | 2 | `Busy` | message (UTF-8) |
/// | 3 | `Io` | message (UTF-8) |
/// | 4 | `ClassMismatch` | daemon class tag u8; request class tag u8 |
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Any failure without a more specific code.
    Other(String),
    /// The ingested block id was already applied. A client that lost an
    /// ack to a transport fault treats this as success on retry: the
    /// ack was lost, not the block.
    Duplicate {
        /// The replayed block id.
        id: u64,
        /// The latest block id the daemon has already applied.
        latest: u64,
    },
    /// The daemon could not take the request right now (ingest queue
    /// full past the backpressure deadline, or shutting down) —
    /// retryable after a backoff.
    Busy(String),
    /// A server-side I/O failure (WAL append, snapshot write).
    Io(String),
    /// The request's model-class tag does not match the class this
    /// daemon maintains. Not retryable: the client is talking to the
    /// wrong daemon (or encoding for the wrong model).
    ClassMismatch {
        /// The class tag the daemon maintains.
        expected: u8,
        /// The class tag the request carried.
        got: u8,
    },
}

impl WireError {
    /// Builds the wire form of a server-side [`DemonError`], preserving
    /// the variants clients branch on.
    pub fn from_error(e: &DemonError) -> WireError {
        match e {
            DemonError::DuplicateBlock { id, latest } => WireError::Duplicate {
                id: *id,
                latest: *latest,
            },
            DemonError::Io(io) => WireError::Io(io.to_string()),
            other => WireError::Other(other.to_string()),
        }
    }

    /// The typed class-mismatch error for a daemon of class `expected`
    /// receiving a payload tagged `got`.
    pub fn class_mismatch(expected: ModelClass, got: u8) -> WireError {
        WireError::ClassMismatch {
            expected: expected.tag(),
            got,
        }
    }

    /// The client-side [`DemonError`] this wire error stands for:
    /// `Duplicate` becomes the engine's own typed
    /// [`DemonError::DuplicateBlock`], everything else a
    /// [`DemonError::Remote`] carrying the daemon's message.
    pub fn into_error(self) -> DemonError {
        match self {
            WireError::Duplicate { id, latest } => DemonError::DuplicateBlock { id, latest },
            WireError::ClassMismatch { expected, got } => DemonError::ModelClassMismatch {
                expected: ModelClass::describe_tag(expected),
                got: ModelClass::describe_tag(got),
            },
            WireError::Busy(msg) | WireError::Io(msg) | WireError::Other(msg) => {
                DemonError::Remote(msg)
            }
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Other(msg) | WireError::Busy(msg) | WireError::Io(msg) => {
                write!(f, "{msg}")
            }
            WireError::Duplicate { id, latest } => write!(
                f,
                "duplicate block D{id}: the daemon already applied blocks up to D{latest}"
            ),
            WireError::ClassMismatch { expected, got } => write!(
                f,
                "model class mismatch: this daemon maintains {}, but the request is tagged {}",
                ModelClass::describe_tag(*expected),
                ModelClass::describe_tag(*got)
            ),
        }
    }
}

impl Request {
    /// The `IngestBlock` of `block` as class `S` under block meta `meta`:
    /// what a canonical client sends, and so what a daemon logs.
    pub fn ingest<S: ServableModel>(meta: u32, block: &Block<S::Record>) -> Result<Request> {
        Ok(Request::IngestBlock {
            class: S::CLASS.tag(),
            id: block.id(),
            interval: block.interval(),
            meta,
            payload: S::encode_records(block)?,
        })
    }

    /// Serializes the request into a frame payload (tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::IngestBlock {
                class,
                id,
                interval,
                meta,
                payload,
            } => {
                buf.reserve(35 + payload.len());
                buf.extend_from_slice(&[1, *class]);
                put_block_header(&mut buf, put_u64, *id, *interval);
                put_u32(&mut buf, *meta);
                put_u32(&mut buf, payload.len() as u32);
                buf.extend_from_slice(payload);
            }
            Request::QueryModel { class } => {
                buf.push(2);
                buf.extend(class);
            }
            Request::QuerySequences => buf.push(3),
            Request::Stats => buf.push(4),
            Request::Snapshot { dir } => {
                buf.push(5);
                put_str(&mut buf, dir);
            }
            Request::Shutdown => buf.push(6),
        }
        buf
    }

    /// Decodes a frame payload into a request. Every defect — trailing
    /// bytes after a well-formed message included — is a typed error
    /// naming the offending field.
    pub fn decode(bytes: &[u8]) -> Result<Request> {
        let mut r = Reader::new(bytes);
        let request = match r.u8("request tag")? {
            1 => {
                let class = r.u8("model class")?;
                let (id, interval) = r.block_header(Reader::u64)?;
                let meta = r.u32("class meta")?;
                let len = r.u32("record payload length")? as usize;
                let payload = r.bytes(len, "record payload")?.to_vec();
                Request::IngestBlock {
                    class,
                    id,
                    interval,
                    meta,
                    payload,
                }
            }
            // The bare legacy encoding pins no class.
            2 if r.remaining() == 0 => Request::QueryModel { class: None },
            2 => Request::QueryModel {
                class: Some(r.u8("model class")?),
            },
            3 => Request::QuerySequences,
            4 => Request::Stats,
            5 => Request::Snapshot {
                dir: r.str("snapshot dir")?.to_string(),
            },
            6 => Request::Shutdown,
            other => return Err(DemonError::Serde(format!("unknown request tag {other}"))),
        };
        r.finish("the request")?;
        Ok(request)
    }
}

impl Response {
    /// Serializes the response into a frame payload (tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Ok => buf.push(0),
            Response::Model(json) => {
                buf.push(1);
                buf.extend_from_slice(json.as_bytes());
            }
            Response::Sequences(seqs) => {
                buf.push(2);
                put_u32(&mut buf, seqs.len() as u32);
                for seq in seqs {
                    put_u32(&mut buf, seq.len() as u32);
                    for id in seq {
                        put_u64(&mut buf, id.value());
                    }
                }
            }
            Response::Stats(json) => {
                buf.push(3);
                buf.extend_from_slice(json.as_bytes());
            }
            Response::SnapshotDone(blocks) => {
                buf.push(4);
                put_u64(&mut buf, *blocks);
            }
            Response::Err(e) => {
                buf.push(5);
                match e {
                    WireError::Other(msg) => {
                        buf.push(0);
                        buf.extend_from_slice(msg.as_bytes());
                    }
                    WireError::Duplicate { id, latest } => {
                        buf.push(1);
                        put_u64(&mut buf, *id);
                        put_u64(&mut buf, *latest);
                    }
                    WireError::Busy(msg) => {
                        buf.push(2);
                        buf.extend_from_slice(msg.as_bytes());
                    }
                    WireError::Io(msg) => {
                        buf.push(3);
                        buf.extend_from_slice(msg.as_bytes());
                    }
                    WireError::ClassMismatch { expected, got } => {
                        buf.extend_from_slice(&[4, *expected, *got]);
                    }
                }
            }
        }
        buf
    }

    /// Decodes a frame payload into a response; trailing bytes after a
    /// fixed-size body are a typed error.
    pub fn decode(bytes: &[u8]) -> Result<Response> {
        // A text body runs to the end of the payload.
        fn text(r: &mut Reader<'_>) -> Result<String> {
            String::from_utf8(r.rest().to_vec())
                .map_err(|e| DemonError::Serde(format!("response body: invalid UTF-8: {e}")))
        }
        let mut r = Reader::new(bytes);
        let response = match r.u8("response tag")? {
            0 => Response::Ok,
            1 => Response::Model(text(&mut r)?),
            2 => {
                let n = r.u32("sequence count")?;
                let n = r.count(u64::from(n), 4, "sequence")?;
                let mut seqs = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = r.u32("sequence length")?;
                    let len = r.count(u64::from(len), 8, "sequence block id")?;
                    let mut seq = Vec::with_capacity(len);
                    for _ in 0..len {
                        seq.push(BlockId(r.u64("sequence block id")?));
                    }
                    seqs.push(seq);
                }
                Response::Sequences(seqs)
            }
            3 => Response::Stats(text(&mut r)?),
            4 => Response::SnapshotDone(r.u64("block count")?),
            5 => Response::Err(match r.u8("error code")? {
                0 => WireError::Other(text(&mut r)?),
                1 => WireError::Duplicate {
                    id: r.u64("duplicate id")?,
                    latest: r.u64("duplicate latest")?,
                },
                2 => WireError::Busy(text(&mut r)?),
                3 => WireError::Io(text(&mut r)?),
                4 => WireError::ClassMismatch {
                    expected: r.u8("expected class")?,
                    got: r.u8("got class")?,
                },
                other => return Err(DemonError::Serde(format!("unknown error code {other}"))),
            }),
            other => return Err(DemonError::Serde(format!("unknown response tag {other}"))),
        };
        r.finish("the response")?;
        Ok(response)
    }
}

/// Writes one framed message; returns the total bytes written (header
/// included), for the `serve.bytes_*` counters.
pub fn write_message(w: &mut impl Write, class: FrameClass, payload: &[u8]) -> Result<usize> {
    let (bytes, _) = durable::encode_frame(class, payload);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Reads one framed message of the given class. Returns the validated
/// payload plus the total bytes read, or `None` on a clean EOF at a
/// frame boundary (the peer hung up between messages). `source` names
/// the peer in error messages.
pub fn read_message(
    r: &mut impl Read,
    class: FrameClass,
    source: &str,
) -> Result<Option<(Vec<u8>, usize)>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // Distinguish "no next message" (clean close) from a mid-header cut.
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(DemonError::Corrupt {
                    file: source.to_string(),
                    detail: format!(
                        "connection closed mid-header ({filled} of {FRAME_HEADER_LEN} bytes)"
                    ),
                })
            }
            n => filled += n,
        }
    }
    let parsed = durable::decode_frame_header(class, &header, source)?;
    if parsed.payload_len > MAX_PAYLOAD {
        return Err(DemonError::Corrupt {
            file: source.to_string(),
            detail: format!(
                "frame promises {} payload bytes (limit {MAX_PAYLOAD})",
                parsed.payload_len
            ),
        });
    }
    let mut payload = vec![0u8; parsed.payload_len as usize];
    r.read_exact(&mut payload).map_err(|e| DemonError::Corrupt {
        file: source.to_string(),
        detail: format!("connection closed mid-payload: {e}"),
    })?;
    durable::verify_frame_payload(&parsed, &payload, source)?;
    let total = FRAME_HEADER_LEN + payload.len();
    Ok(Some((payload, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::Timestamp;

    #[test]
    fn ingest_requests_roundtrip() {
        let cases = [
            (None, vec![7u8; 40]),
            (
                Some(BlockInterval {
                    start: Timestamp(100),
                    end: Timestamp(200),
                }),
                vec![1u8, 2, 3],
            ),
        ];
        for (interval, payload) in cases {
            let req = Request::IngestBlock {
                class: ModelClass::Itemsets.tag(),
                id: BlockId(2),
                interval,
                meta: 16,
                payload: payload.clone(),
            };
            match Request::decode(&req.encode()).unwrap() {
                Request::IngestBlock {
                    class,
                    id,
                    interval: back_iv,
                    meta,
                    payload: back,
                } => {
                    assert_eq!(class, ModelClass::Itemsets.tag());
                    assert_eq!(id, BlockId(2));
                    assert_eq!(back_iv, interval);
                    assert_eq!(meta, 16);
                    assert_eq!(back, payload);
                }
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn query_model_class_pin_roundtrips_and_legacy_is_any() {
        for class in [None, Some(ModelClass::Clusters.tag())] {
            let req = Request::QueryModel { class };
            assert!(matches!(
                Request::decode(&req.encode()).unwrap(),
                Request::QueryModel { class: back } if back == class
            ));
        }
        // The legacy encoding (bare tag byte) decodes as "any class".
        assert!(matches!(
            Request::decode(&[2]).unwrap(),
            Request::QueryModel { class: None }
        ));
    }

    #[test]
    fn bodyless_requests_roundtrip() {
        assert!(matches!(
            Request::decode(&Request::QuerySequences.encode()).unwrap(),
            Request::QuerySequences
        ));
        assert!(matches!(
            Request::decode(&Request::Stats.encode()).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            Request::decode(&Request::Shutdown.encode()).unwrap(),
            Request::Shutdown
        ));
        let snap = Request::Snapshot {
            dir: "/tmp/snap".into(),
        };
        assert!(matches!(
            Request::decode(&snap.encode()).unwrap(),
            Request::Snapshot { dir } if dir == "/tmp/snap"
        ));
    }

    #[test]
    fn responses_roundtrip() {
        let cases = vec![
            Response::Ok,
            Response::Model("{\"x\":1}".into()),
            Response::Sequences(vec![vec![BlockId(1), BlockId(3)], vec![]]),
            Response::Stats("{\"blocks\":4}".into()),
            Response::SnapshotDone(9),
            Response::Err(WireError::Other("boom".into())),
            Response::Err(WireError::Duplicate { id: 2, latest: 7 }),
            Response::Err(WireError::Busy("queue full".into())),
            Response::Err(WireError::Io("disk full".into())),
            Response::Err(WireError::ClassMismatch { expected: 1, got: 2 }),
        ];
        for resp in cases {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn wire_errors_convert_to_and_from_demon_errors() {
        let dup = DemonError::DuplicateBlock { id: 2, latest: 4 };
        let wire = WireError::from_error(&dup);
        assert_eq!(wire, WireError::Duplicate { id: 2, latest: 4 });
        // The round trip restores the engine's typed duplicate error,
        // message text included.
        let back = wire.into_error();
        assert!(matches!(back, DemonError::DuplicateBlock { id: 2, latest: 4 }));
        assert!(back.to_string().contains("duplicate block"));
        assert!(back.to_string().contains("D2"));

        let io = DemonError::Io(std::io::Error::other("disk on fire"));
        assert!(matches!(WireError::from_error(&io), WireError::Io(m) if m.contains("disk")));
        let other = WireError::from_error(&DemonError::UnknownBlock(3));
        assert!(matches!(other, WireError::Other(_)));
        assert!(matches!(
            WireError::Busy("full".into()).into_error(),
            DemonError::Remote(m) if m == "full"
        ));

        let mismatch = WireError::class_mismatch(ModelClass::Itemsets, ModelClass::Trees.tag());
        assert_eq!(
            mismatch,
            WireError::ClassMismatch { expected: 1, got: 3 }
        );
        assert!(mismatch.to_string().contains("itemsets"));
        assert!(mismatch.to_string().contains("trees"));
        let back = mismatch.into_error();
        assert!(matches!(
            &back,
            DemonError::ModelClassMismatch { expected, got }
                if expected == "itemsets" && got == "trees"
        ));
        assert!(back.to_string().contains("model class mismatch"));
    }

    #[test]
    fn messages_roundtrip_through_a_stream() {
        let payload = Request::Stats.encode();
        let mut wire = Vec::new();
        let written = write_message(&mut wire, FrameClass::REQUEST, &payload).unwrap();
        assert_eq!(written, wire.len());
        let mut cursor = &wire[..];
        let (back, read) = read_message(&mut cursor, FrameClass::REQUEST, "test")
            .unwrap()
            .unwrap();
        assert_eq!(back, payload);
        assert_eq!(read, written);
        // The stream is drained: the next read is a clean EOF.
        assert!(read_message(&mut cursor, FrameClass::REQUEST, "test")
            .unwrap()
            .is_none());
    }

    #[test]
    fn wrong_class_truncation_and_flips_are_rejected() {
        let payload = Request::QueryModel { class: None }.encode();
        let mut wire = Vec::new();
        write_message(&mut wire, FrameClass::REQUEST, &payload).unwrap();
        // A response frame is not a request.
        assert!(read_message(&mut &wire[..], FrameClass::RESPONSE, "t").is_err());
        // Any truncation inside the message is detected.
        for cut in 1..wire.len() {
            assert!(
                read_message(&mut &wire[..cut], FrameClass::REQUEST, "t").is_err(),
                "cut at {cut} must not parse"
            );
        }
        // A flipped payload bit fails the CRC.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        assert!(read_message(&mut &bad[..], FrameClass::REQUEST, "t").is_err());
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let (mut wire, _) = durable::encode_frame(FrameClass::REQUEST, b"x");
        // Forge a pathological length; the reader must refuse before
        // trying to allocate it.
        wire[8..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let err = read_message(&mut &wire[..], FrameClass::REQUEST, "t").unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
    }

    /// A well-formed message followed by garbage is refused (it used to
    /// decode — and an `IngestBlock` was then logged to the WAL with its
    /// garbage). The bare legacy `QueryModel` is the one message whose
    /// tail is optional.
    #[test]
    fn trailing_bytes_are_refused() {
        let requests = [
            Request::IngestBlock {
                class: ModelClass::Itemsets.tag(),
                id: BlockId(2),
                interval: None,
                meta: 16,
                payload: vec![1, 2, 3],
            },
            Request::QueryModel { class: Some(2) },
            Request::QuerySequences,
            Request::Stats,
            Request::Snapshot { dir: "/tmp/snap".into() },
            Request::Shutdown,
        ];
        for request in requests {
            let mut bytes = request.encode();
            assert!(Request::decode(&bytes).is_ok(), "{request:?}");
            bytes.push(0);
            let err = Request::decode(&bytes).expect_err("padded request");
            assert!(matches!(&err, DemonError::Serde(m) if m.contains("trailing")), "{err}");
        }
        assert!(Request::decode(&[2]).is_ok(), "bare QueryModel stays legal");

        let responses = [
            Response::Ok,
            Response::Sequences(vec![vec![BlockId(1)]]),
            Response::SnapshotDone(9),
            Response::Err(WireError::Duplicate { id: 2, latest: 7 }),
            Response::Err(WireError::ClassMismatch { expected: 1, got: 2 }),
        ];
        for response in responses {
            let mut bytes = response.encode();
            bytes.push(0);
            let err = Response::decode(&bytes).expect_err("padded response");
            assert!(matches!(&err, DemonError::Serde(m) if m.contains("trailing")), "{err}");
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99]).is_err());
        assert!(Request::decode(&[1, 1]).is_err()); // truncated ingest
        assert!(Response::decode(&[99]).is_err());
        // Snapshot dir length pointing past the payload.
        let mut bad = vec![5u8];
        bad.extend_from_slice(&1000u32.to_le_bytes());
        bad.extend_from_slice(b"abc");
        assert!(Request::decode(&bad).is_err());
    }
}
