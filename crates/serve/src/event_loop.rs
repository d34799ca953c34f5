//! The connection loop: a small fixed set of threads, each polling its
//! own set of non-blocking connections — 256 idle clients cost 256
//! socket buffers, not 256 parked threads.
//!
//! One acceptor thread blocks in `accept` and deals new connections to
//! the loop threads round-robin; each loop thread owns the connections
//! it was dealt. One pass over a connection makes whatever progress its
//! socket allows: flush the pending response bytes, check the sequencer
//! completion slot, read and parse the next request frame. Queries are
//! answered inline from the current [`Replica`](crate::shard::Replica)
//! — no locks shared with ingest; the model JSON renders once per
//! replica, on the first query that wants it, and is memoized after.
//! `IngestBlock` and `Snapshot` are handed to the sequencer through the
//! bounded queue; the connection parks no thread while it waits — the
//! loop simply skips it until the completion slot fills.
//!
//! ## Idle policy
//!
//! std has no readiness notification, so a request's *arrival* is only
//! ever noticed by polling. (A sequencer completion is different: it
//! unparks the owning thread.) The loop therefore
//!
//! * keeps polling, yielding the core between passes, for `SPIN`
//!   after its last progress — a closed-loop client's next request
//!   lands inside that window and is served without a park's latency;
//! * then parks `IDLE_PARK` between passes while it owns connections;
//! * and parks until the acceptor wakes it while it owns none — an idle
//!   thread costs nothing.
//!
//! Backpressure: a full queue is retried until the connection's
//! deadline (`queue_timeout`) expires, then the request is rejected
//! with a typed `Busy` (`serve.rejects`) — the *connection* waits,
//! never a thread.

use crate::model::ServableModel;
use crate::protocol::{Request, Response, WireError};
use crate::sequencer::{decode_block, Hub, Pending, SubmitError, Task};
use crate::shard::shard_of;
use demon_types::durable::{self, FrameClass, FRAME_HEADER_LEN};
use demon_types::obs::{self, Counter};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long a loop thread keeps polling after its last progress before
/// it parks.
const SPIN: Duration = Duration::from_micros(400);

/// The park between polls of a quiet thread that owns connections: the
/// most a request's arrival can go unnoticed.
const IDLE_PARK: Duration = Duration::from_micros(250);

/// What a connection is waiting on, if anything.
enum PendingState<S: ServableModel> {
    /// The task could not be enqueued yet (queue full); retried each
    /// pass until the deadline.
    Submit { task: Task<S>, deadline: Instant },
    /// The task is with the sequencer; the slot fills when it is done.
    Waiting(Arc<Pending>),
}

struct Conn<S: ServableModel> {
    stream: TcpStream,
    peer: String,
    in_buf: Vec<u8>,
    out_buf: Vec<u8>,
    out_pos: usize,
    pending: Option<PendingState<S>>,
    last_activity: Instant,
    shutdown_after_write: bool,
    dead: bool,
}

impl<S: ServableModel> Conn<S> {
    fn new(stream: TcpStream) -> Conn<S> {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "client".to_string());
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(true);
        Conn {
            stream,
            peer,
            in_buf: Vec::new(),
            out_buf: Vec::new(),
            out_pos: 0,
            pending: None,
            last_activity: Instant::now(),
            shutdown_after_write: false,
            dead: false,
        }
    }

    fn has_work_in_flight(&self) -> bool {
        self.pending.is_some() || self.out_pos < self.out_buf.len()
    }

    /// Queues one framed response for writing.
    fn push_response(&mut self, response: &Response) {
        let (bytes, _) = durable::encode_frame(FrameClass::RESPONSE, &response.encode());
        obs::add(Counter::ServeBytesOut, bytes.len() as u64);
        self.out_buf.extend_from_slice(&bytes);
    }

    /// Hands `task` to the sequencer: submitted on the next pass, and
    /// retried each pass while the queue is full.
    fn submit(&mut self, hub: &Hub<S>, task: Task<S>) {
        self.pending = Some(PendingState::Submit {
            task,
            deadline: Instant::now() + hub.queue_timeout,
        });
    }

    /// One non-blocking pass: flush, poll the completion, read/parse.
    /// Returns whether any progress happened.
    fn tick(&mut self, hub: &Hub<S>, now: Instant) -> bool {
        let mut progressed = false;

        // Flush whatever the socket accepts.
        while self.out_pos < self.out_buf.len() {
            match self.stream.write(&self.out_buf[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return true;
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = now;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
        if !self.out_buf.is_empty() && self.out_pos >= self.out_buf.len() {
            self.out_buf.clear();
            self.out_pos = 0;
            if self.shutdown_after_write {
                hub.begin_shutdown();
                self.dead = true;
                return true;
            }
        }

        // Move the in-flight task along.
        match self.pending.take() {
            None => {}
            Some(PendingState::Submit { task, deadline }) => {
                let (gauge, done) = match &task {
                    Task::Ingest { block, done, .. } => {
                        let shard = shard_of(block.id(), hub.n_shards());
                        (Some(&hub.shard_pending[shard]), Arc::clone(done))
                    }
                    Task::Snapshot { done, .. } => (None, Arc::clone(done)),
                };
                match hub.queue.try_submit(task, gauge) {
                    Ok(()) => {
                        progressed = true;
                        self.pending = Some(PendingState::Waiting(done));
                    }
                    Err(SubmitError::Full(task)) if now < deadline => {
                        self.pending = Some(PendingState::Submit { task, deadline });
                    }
                    Err(refused) => {
                        obs::incr(Counter::ServeRejects);
                        self.push_response(&Response::Err(WireError::Busy(match refused {
                            SubmitError::Full(_) => format!(
                                "ingest queue full ({} blocks) past the backpressure deadline",
                                hub.queue.capacity()
                            ),
                            SubmitError::Closed => "server is shutting down".to_string(),
                        })));
                        progressed = true;
                    }
                }
            }
            Some(PendingState::Waiting(done)) => match done.take() {
                Some(response) => {
                    self.push_response(&response);
                    self.last_activity = now;
                    progressed = true;
                }
                None => self.pending = Some(PendingState::Waiting(done)),
            },
        }

        // Read and serve the next request only once the previous one is
        // fully answered — the protocol is strictly request/response
        // per connection.
        if self.pending.is_none() && self.out_pos >= self.out_buf.len() {
            let mut buf = [0u8; 4096];
            loop {
                match self.stream.read(&mut buf) {
                    Ok(0) => {
                        self.dead = true;
                        return true;
                    }
                    Ok(n) => {
                        self.in_buf.extend_from_slice(&buf[..n]);
                        self.last_activity = now;
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        return true;
                    }
                }
            }
            progressed |= self.parse_and_serve(hub);
        }

        if !self.has_work_in_flight() && now.duration_since(self.last_activity) > hub.io_timeout {
            self.dead = true;
            return true;
        }
        progressed
    }

    /// Parses one complete frame out of `in_buf`, if present, and
    /// serves it. Transport damage (bad magic, class, CRC) drops the
    /// connection — there is no trustworthy frame boundary to answer
    /// on; a malformed payload inside a valid frame gets a typed `Err`
    /// response and the connection lives on.
    fn parse_and_serve(&mut self, hub: &Hub<S>) -> bool {
        if self.in_buf.len() < FRAME_HEADER_LEN {
            return false;
        }
        let header = match durable::decode_frame_header(
            FrameClass::REQUEST,
            &self.in_buf[..FRAME_HEADER_LEN],
            &self.peer,
        ) {
            Ok(h) => h,
            Err(_) => {
                self.dead = true;
                return true;
            }
        };
        if header.payload_len > crate::protocol::MAX_PAYLOAD {
            self.dead = true;
            return true;
        }
        let total = FRAME_HEADER_LEN + header.payload_len as usize;
        if self.in_buf.len() < total {
            return false;
        }
        let payload = &self.in_buf[FRAME_HEADER_LEN..total];
        if durable::verify_frame_payload(&header, payload, &self.peer).is_err() {
            self.dead = true;
            return true;
        }
        hub.requests.fetch_add(1, Ordering::Relaxed);
        obs::incr(Counter::ServeRequests);
        obs::add(Counter::ServeBytesIn, total as u64);
        // An ingest's body goes to the sequencer as received, for the log.
        let body = payload.to_vec();
        let request = Request::decode(&body);
        self.in_buf.drain(..total);
        let other = |msg: String| Response::Err(WireError::Other(msg));
        match request {
            Err(e) => self.push_response(&other(e.to_string())),
            Ok(Request::IngestBlock {
                class,
                id,
                interval,
                meta,
                payload,
            }) => {
                if class != S::CLASS.tag() {
                    self.push_response(&Response::Err(WireError::class_mismatch(S::CLASS, class)));
                } else if let Some(msg) = S::meta_mismatch(hub.meta, meta) {
                    self.push_response(&other(msg));
                } else {
                    match decode_block::<S>(id, interval, meta, &payload) {
                        Err(e) => self.push_response(&other(e.to_string())),
                        Ok(block) => {
                            let done = Arc::new(Pending::new(std::thread::current()));
                            self.submit(hub, Task::Ingest { block, body, done });
                        }
                    }
                }
            }
            Ok(Request::QueryModel { class }) => {
                obs::incr(Counter::ServeShardQueries);
                match class {
                    Some(c) if c != S::CLASS.tag() => {
                        self.push_response(&Response::Err(WireError::class_mismatch(S::CLASS, c)));
                    }
                    // Lazy render: the first query of this epoch pays
                    // the serialization, every later one reuses it.
                    _ => match hub.replica.load().model_json() {
                        Ok(json) => self.push_response(&Response::Model(json.to_string())),
                        Err(msg) => self.push_response(&other(msg)),
                    },
                }
            }
            Ok(Request::QuerySequences) => {
                obs::incr(Counter::ServeShardQueries);
                let replica = hub.replica.load();
                self.push_response(&Response::Sequences(replica.sequences.clone()));
            }
            Ok(Request::Stats) => {
                obs::incr(Counter::ServeShardQueries);
                self.push_response(&Response::Stats(hub.stats_json()));
            }
            Ok(Request::Snapshot { dir }) => {
                let done = Arc::new(Pending::new(std::thread::current()));
                self.submit(hub, Task::Snapshot { dir, done });
            }
            Ok(Request::Shutdown) => {
                self.push_response(&Response::Ok);
                self.shutdown_after_write = true;
            }
        }
        true
    }
}

/// How long the acceptor waits after a failed `accept` (descriptor
/// exhaustion is the persistent one) before it tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// The acceptor thread: blocks in `accept` and deals each connection to
/// the next loop thread's inbox, waking it. Shutdown pops it out of the
/// `accept` with a throwaway connection
/// ([`Hub::wake_acceptor`](crate::sequencer::Hub::wake_acceptor)).
pub(crate) fn acceptor<S: ServableModel>(
    hub: &Hub<S>,
    listener: &TcpListener,
    loops: &[(mpsc::Sender<TcpStream>, Thread)],
) {
    for (n, stream) in listener.incoming().enumerate() {
        if hub.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let (inbox, thread) = &loops[n % loops.len()];
        match stream {
            Ok(stream) => {
                if inbox.send(stream).is_ok() {
                    thread.unpark();
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// One event-loop thread: adopt what the acceptor dealt, then poll every
/// owned connection; between passes, spin or park per the module's idle
/// policy.
pub(crate) fn event_loop<S: ServableModel>(hub: &Hub<S>, inbox: &mpsc::Receiver<TcpStream>) {
    let mut conns: Vec<Conn<S>> = Vec::new();
    let mut last_progress = Instant::now();
    loop {
        let shutting_down = hub.shutdown.load(Ordering::SeqCst);
        let before = conns.len();
        conns.extend(inbox.try_iter().map(Conn::new));
        let mut progressed = conns.len() > before;
        let now = Instant::now();
        for conn in &mut conns {
            progressed |= conn.tick(hub, now);
        }
        // Dead connections go; while shutting down so do idle ones —
        // those with a request in flight (or unflushed bytes) finish.
        conns.retain(|c| !c.dead && (!shutting_down || c.has_work_in_flight()));
        if shutting_down && conns.is_empty() {
            return;
        }
        if progressed {
            last_progress = now;
        } else if conns.is_empty() {
            std::thread::park();
        } else if now.duration_since(last_progress) < SPIN {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(IDLE_PARK);
        }
    }
}
