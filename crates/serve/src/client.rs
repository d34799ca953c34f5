//! A blocking client for the daemon: one request/response per call over
//! a persistent connection, with bounded retry on transport faults.
//!
//! ## Retry semantics
//!
//! Networks lose packets and daemons restart; the client absorbs both
//! behind a [`RetryPolicy`]: connect failures, timeouts and dropped
//! connections are retried with exponential backoff plus jitter, and
//! `Busy` rejections (ingest backpressure) back off without
//! reconnecting. The subtle case is a lost *ack*: the daemon applied
//! the block, the connection died before the `Ok` arrived, and the
//! retried `IngestBlock` comes back `Duplicate`. Because a duplicate
//! answer can only mean the block is already applied (and, under a WAL,
//! durable), [`Client::ingest`] treats `Duplicate` after a transport
//! fault as success — the ack was lost, not the block. A `Duplicate` on
//! a *first* attempt is a genuine protocol error and still surfaces as
//! the typed [`DemonError::DuplicateBlock`].

use crate::model::{ClusterModel, DbscanModel, ItemsetModel, ServableModel, TreeModel};
use crate::protocol::{self, Request, Response, WireError};
use demon_trees::LabeledPoint;
use demon_types::durable::FrameClass;
use demon_types::{Block, BlockId, DemonError, ModelClass, Point, Result, TxBlock};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bounded-retry policy: up to `attempts` tries total, sleeping an
/// exponentially growing, jittered delay between them.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, the first included (`1` = never retry).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    /// Four attempts, 25 ms base, capped at 1 s — a transient daemon
    /// restart is absorbed, a dead daemon fails in about a second.
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The pre-retry behavior: one attempt, fail on the first fault.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }
}

/// A connected client. Every method sends one request and blocks for
/// the response; a server-side failure surfaces as
/// [`DemonError::Remote`] (or the typed [`DemonError::DuplicateBlock`])
/// carrying the daemon's message, transport damage as the usual typed
/// I/O or corruption errors — after the [`RetryPolicy`] is exhausted.
pub struct Client {
    stream: TcpStream,
    source: String,
    addrs: Vec<SocketAddr>,
    timeout: Duration,
    retry: RetryPolicy,
    /// xorshift64 state for backoff jitter.
    jitter: u64,
}

impl Client {
    /// Connects with the default 30 s I/O timeout and default retry.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_timeout(addr, Duration::from_secs(30))
    }

    /// Connects, bounding both the connect and every later read/write
    /// by `timeout`, with the default [`RetryPolicy`].
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Client> {
        Client::connect_with(addr, timeout, RetryPolicy::default())
    }

    /// Connects under an explicit retry policy: the initial connect is
    /// itself retried with backoff, so a client racing a daemon restart
    /// wins as long as the daemon comes back within the policy.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeout: Duration,
        retry: RetryPolicy,
    ) -> Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        // Seed the jitter from the clock's sub-second noise: no new
        // dependencies, and two clients racing the same daemon desync.
        let jitter = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::from(d.subsec_nanos()) | 1)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        let mut client = Client {
            stream: connect_any(&addrs, timeout)?,
            source: String::new(),
            addrs,
            timeout,
            retry,
            jitter,
        };
        client.source = client
            .stream
            .peer_addr()
            .map(|a| format!("server {a}"))
            .unwrap_or_else(|_| "server".to_string());
        // The constructor-level retry: if the very first connect fails
        // transiently, connect_any has already failed fast — fold it
        // into the same backoff loop as reconnects.
        Ok(client)
    }

    /// Whether an error is worth a retry: connect-level and
    /// timeout-level transport faults, or the server vanishing
    /// mid-exchange. Server-side *decisions* (duplicate, mismatch,
    /// malformed payload) are never retried.
    fn is_retryable(e: &DemonError) -> bool {
        match e {
            DemonError::Io(io) => matches!(
                io.kind(),
                std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::NotConnected
                    | std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::Interrupted
            ),
            DemonError::Corrupt { detail, .. } => detail.contains("connection closed"),
            _ => false,
        }
    }

    /// Sleeps the backoff for `attempt` (0-based): exponential from the
    /// policy base, capped, with jitter in `[delay/2, delay]` so
    /// stampeding clients spread out.
    fn backoff(&mut self, attempt: u32) {
        let exp = self
            .retry
            .base_delay
            .saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.retry.max_delay);
        if capped.is_zero() {
            return;
        }
        // xorshift64: cheap, std-only, plenty for jitter.
        let mut x = self.jitter.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        let frac = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let half = capped.as_secs_f64() / 2.0;
        std::thread::sleep(Duration::from_secs_f64(half + half * frac));
    }

    /// Drops the (possibly dead) stream and dials the daemon again.
    fn reconnect(&mut self) -> Result<()> {
        self.stream = connect_any(&self.addrs, self.timeout)?;
        self.source = self
            .stream
            .peer_addr()
            .map(|a| format!("server {a}"))
            .unwrap_or_else(|_| "server".to_string());
        Ok(())
    }

    /// One request/response exchange on the current connection, no
    /// retries.
    fn call(&mut self, request: &Request) -> Result<Response> {
        let payload = request.encode();
        let mut writer = &self.stream;
        protocol::write_message(&mut writer, FrameClass::REQUEST, &payload)?;
        let mut reader = &self.stream;
        match protocol::read_message(&mut reader, FrameClass::RESPONSE, &self.source)? {
            Some((body, _)) => Response::decode(&body),
            None => Err(DemonError::Corrupt {
                file: self.source.clone(),
                detail: "connection closed by the server without responding".to_string(),
            }),
        }
    }

    /// [`call`](Client::call) under the retry policy. Transport faults
    /// reconnect and resend; `Busy` rejections back off on the same
    /// connection. Only safe for idempotent requests — `ingest` layers
    /// its duplicate handling on top. Returns the response together
    /// with whether any attempt failed after the request may have
    /// reached the server (the lost-ack signal).
    fn call_retrying(&mut self, request: &Request) -> Result<(Response, bool)> {
        let mut attempt = 0u32;
        let mut maybe_delivered = false;
        loop {
            match self.call(request) {
                Ok(Response::Err(WireError::Busy(msg))) => {
                    if attempt + 1 >= self.retry.attempts.max(1) {
                        return Ok((Response::Err(WireError::Busy(msg)), maybe_delivered));
                    }
                    self.backoff(attempt);
                }
                Ok(response) => return Ok((response, maybe_delivered)),
                Err(e) if Self::is_retryable(&e) && attempt + 1 < self.retry.attempts.max(1) => {
                    // The request may have been applied even though the
                    // answer never arrived.
                    maybe_delivered = true;
                    self.backoff(attempt);
                    // A failed redial counts against the next attempt's
                    // call, which will fail retryably on the dead stream.
                    let _ = self.reconnect();
                }
                Err(e) => return Err(e),
            }
            attempt += 1;
        }
    }

    /// A response of an unexpected shape for the verb that was sent.
    fn unexpected(&self, what: &str, got: &Response) -> DemonError {
        DemonError::Corrupt {
            file: self.source.clone(),
            detail: format!("expected {what} response, got {got:?}"),
        }
    }

    /// Ingests one block; returns once the server has *applied* it (and
    /// fsynced it, when serving durably), so a subsequent query on any
    /// connection sees it. Retries transport faults under the policy; a
    /// `Duplicate` answer to a retried send is success (the ack was
    /// lost, not the block), while a first-attempt duplicate is the
    /// typed [`DemonError::DuplicateBlock`]. Other rejections
    /// (backpressure past the policy, universe mismatch) surface as
    /// [`DemonError::Remote`].
    pub fn ingest(&mut self, n_items: u32, block: &TxBlock) -> Result<()> {
        self.ingest_records::<ItemsetModel>(n_items, block)
    }

    /// Ingests one block of points into a `--model clusters` daemon;
    /// `dim` is the dimensionality the daemon was started with. Same
    /// retry/duplicate semantics as [`Client::ingest`].
    pub fn ingest_points(&mut self, dim: u32, block: &Block<Point>) -> Result<()> {
        self.ingest_records::<ClusterModel>(dim, block)
    }

    /// Ingests one block of labeled points into a `--model trees`
    /// daemon. Same retry/duplicate semantics as [`Client::ingest`].
    pub fn ingest_labeled(&mut self, dim: u32, block: &Block<LabeledPoint>) -> Result<()> {
        self.ingest_records::<TreeModel>(dim, block)
    }

    /// Ingests one block of points into a `--model dbscan` daemon — the
    /// same point codec as [`Client::ingest_points`], stamped with the
    /// density class tag so a clusters daemon refuses it typed. Same
    /// retry/duplicate semantics as [`Client::ingest`].
    pub fn ingest_density(&mut self, dim: u32, block: &Block<Point>) -> Result<()> {
        self.ingest_records::<DbscanModel>(dim, block)
    }

    /// The class-generic ingest the typed wrappers share: encode the
    /// records through the class codec, tag the request with the class
    /// and meta, and interpret the answer.
    fn ingest_records<S: ServableModel>(
        &mut self,
        meta: u32,
        block: &Block<S::Record>,
    ) -> Result<()> {
        match self.call_retrying(&Request::ingest::<S>(meta, block)?)? {
            (Response::Ok, _) => Ok(()),
            (Response::Err(WireError::Duplicate { .. }), true) => Ok(()),
            (Response::Err(e), _) => Err(e.into_error()),
            (other, _) => Err(self.unexpected("Ok", &other)),
        }
    }

    /// The current model as the server's canonical JSON — byte-stable,
    /// so two equal models compare equal as strings. Accepts whatever
    /// class the daemon serves (the legacy behavior); use
    /// [`Client::query_model_json_for`] to pin one.
    pub fn query_model_json(&mut self) -> Result<String> {
        match self.call_retrying(&Request::QueryModel { class: None })? {
            (Response::Model(json), _) => Ok(json),
            (Response::Err(e), _) => Err(e.into_error()),
            (other, _) => Err(self.unexpected("Model", &other)),
        }
    }

    /// Like [`Client::query_model_json`], but pins the model class the
    /// caller expects: a daemon serving a different class answers with
    /// the typed [`DemonError::ModelClassMismatch`] instead of JSON the
    /// caller would misparse.
    pub fn query_model_json_for(&mut self, class: ModelClass) -> Result<String> {
        let request = Request::QueryModel {
            class: Some(class.tag()),
        };
        match self.call_retrying(&request)? {
            (Response::Model(json), _) => Ok(json),
            (Response::Err(e), _) => Err(e.into_error()),
            (other, _) => Err(self.unexpected("Model", &other)),
        }
    }

    /// The current compact block sequences.
    pub fn query_sequences(&mut self) -> Result<Vec<Vec<BlockId>>> {
        match self.call_retrying(&Request::QuerySequences)? {
            (Response::Sequences(seqs), _) => Ok(seqs),
            (Response::Err(e), _) => Err(e.into_error()),
            (other, _) => Err(self.unexpected("Sequences", &other)),
        }
    }

    /// The daemon's stats JSON (`{"blocks":…,"requests":…,`
    /// `"queue_depth":…,"counters":{…}}`).
    pub fn stats_json(&mut self) -> Result<String> {
        match self.call_retrying(&Request::Stats)? {
            (Response::Stats(json), _) => Ok(json),
            (Response::Err(e), _) => Err(e.into_error()),
            (other, _) => Err(self.unexpected("Stats", &other)),
        }
    }

    /// Atomically writes the held blocks as a WAL root to `dir` on the
    /// server's filesystem; returns the number of blocks written. A
    /// failed snapshot leaves no partial directory behind.
    pub fn snapshot(&mut self, dir: &str) -> Result<u64> {
        match self.call_retrying(&Request::Snapshot {
            dir: dir.to_string(),
        })? {
            (Response::SnapshotDone(blocks), _) => Ok(blocks),
            (Response::Err(e), _) => Err(e.into_error()),
            (other, _) => Err(self.unexpected("SnapshotDone", &other)),
        }
    }

    /// Asks the daemon to drain, flush and exit. Never retried — a
    /// shutdown race should surface, not be papered over.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            Response::Err(e) => Err(e.into_error()),
            other => Err(self.unexpected("Ok", &other)),
        }
    }
}

/// Dials the first address that answers within `timeout`.
fn connect_any(addrs: &[SocketAddr], timeout: Duration) -> Result<TcpStream> {
    let mut last: Option<std::io::Error> = None;
    for a in addrs {
        match TcpStream::connect_timeout(a, timeout) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(timeout))?;
                stream.set_write_timeout(Some(timeout))?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(DemonError::Io(last.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::NotFound, "no address to connect to")
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::{Block, Item, Tid, Transaction};
    use std::net::TcpListener;

    fn block(id: u64) -> TxBlock {
        Block::new(
            BlockId(id),
            (0..4)
                .map(|i| Transaction::new(Tid(id * 10 + i), vec![Item(1), Item(2)]))
                .collect(),
        )
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(5),
        }
    }

    /// Reads one request frame off `stream` (panicking on damage) so the
    /// flaky listener can decide how to misbehave afterwards.
    fn read_request(stream: &mut TcpStream) -> Vec<u8> {
        let mut reader = &*stream;
        protocol::read_message(&mut reader, FrameClass::REQUEST, "test-peer")
            .expect("request frame")
            .expect("request present")
            .0
    }

    fn respond(stream: &mut TcpStream, response: &Response) {
        let mut writer = &*stream;
        protocol::write_message(&mut writer, FrameClass::RESPONSE, &response.encode())
            .expect("response written");
    }

    /// The lost-ack scenario end to end: the first exchange dies after
    /// the server "applied" the block (connection dropped instead of an
    /// ack), the retried send is answered `Duplicate` — and the client
    /// reports success. A genuine first-attempt duplicate still errors.
    #[test]
    fn retried_ingest_treats_duplicate_as_lost_ack_success() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let flaky = std::thread::spawn(move || {
            // Connection 1: swallow the ingest and hang up — ack lost.
            let (mut s, _) = listener.accept().expect("accept 1");
            let _ = read_request(&mut s);
            drop(s);
            // Connection 2 (the client redialed): the retried block is
            // "already applied".
            let (mut s, _) = listener.accept().expect("accept 2");
            let _ = read_request(&mut s);
            respond(&mut s, &Response::Err(WireError::Duplicate { id: 1, latest: 1 }));
            // Same connection: a fresh block replayed without any prior
            // transport fault is a real duplicate and must error.
            let _ = read_request(&mut s);
            respond(&mut s, &Response::Err(WireError::Duplicate { id: 1, latest: 2 }));
        });

        let mut client =
            Client::connect_with(addr, Duration::from_secs(5), fast_retry()).expect("connect");
        client
            .ingest(8, &block(1))
            .expect("duplicate after a lost ack is success");
        let err = client.ingest(8, &block(1)).expect_err("real duplicate errors");
        assert!(
            matches!(err, DemonError::DuplicateBlock { id: 1, latest: 2 }),
            "{err}"
        );
        assert!(err.to_string().contains("duplicate block"), "{err}");
        flaky.join().expect("listener thread");
    }

    /// `Busy` (backpressure) answers are retried on the same connection
    /// and succeed once the queue drains.
    #[test]
    fn busy_rejections_back_off_and_retry() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let flaky = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            for _ in 0..2 {
                let _ = read_request(&mut s);
                respond(&mut s, &Response::Err(WireError::Busy("queue full".into())));
            }
            let _ = read_request(&mut s);
            respond(&mut s, &Response::Ok);
        });
        let mut client =
            Client::connect_with(addr, Duration::from_secs(5), fast_retry()).expect("connect");
        client.ingest(8, &block(1)).expect("third attempt lands");
        flaky.join().expect("listener thread");
    }

    /// With retries exhausted, the last `Busy` rejection surfaces as the
    /// typed remote error instead of spinning forever.
    #[test]
    fn exhausted_retries_surface_the_last_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let attempts = 3u32;
        let flaky = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            for _ in 0..attempts {
                let _ = read_request(&mut s);
                respond(&mut s, &Response::Err(WireError::Busy("queue full".into())));
            }
        });
        let policy = RetryPolicy {
            attempts,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        };
        let mut client =
            Client::connect_with(addr, Duration::from_secs(5), policy).expect("connect");
        let err = client.ingest(8, &block(1)).expect_err("bounded retry gives up");
        assert!(matches!(&err, DemonError::Remote(m) if m.contains("queue full")), "{err}");
        flaky.join().expect("listener thread");
    }

    /// A dead stream with no retries (`RetryPolicy::none`) fails on the
    /// first transport fault — the pre-retry behavior is reachable.
    #[test]
    fn no_retry_policy_fails_fast() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let flaky = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let _ = read_request(&mut s);
            drop(s); // no response, ever
        });
        let mut client =
            Client::connect_with(addr, Duration::from_secs(5), RetryPolicy::none())
                .expect("connect");
        let err = client.ingest(8, &block(1)).expect_err("no retry");
        assert!(Client::is_retryable(&err), "fails with the transport fault: {err}");
        flaky.join().expect("listener thread");
    }

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _keep = listener; // hold the port open for the connect
        let mut client = Client::connect_with(
            addr,
            Duration::from_secs(5),
            RetryPolicy {
                attempts: 8,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(10),
            },
        )
        .expect("connect");
        // Large attempt indices must not overflow and must respect the
        // cap (10 ms each, halved floor): 8 sleeps well under a second.
        let start = std::time::Instant::now();
        for attempt in [0, 1, 5, 16, 31] {
            client.backoff(attempt);
        }
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
