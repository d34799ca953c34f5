//! The single writer: a bounded queue of ingest and snapshot work, the
//! write-ahead log it appends to before applying — the daemon's only
//! durable state — its recovery at bind time, the rotation and retention
//! that bound it, and the reader and writer of a WAL root.
//!
//! ```text
//!  event-loop threads ──try_submit──▶ bounded queue ──▶ sequencer thread
//!                                                        │ append + fsync
//!                                                        │ apply to the AppliedState
//!                                                        │ publish Arc<Replica>, then ack
//!                                                        ▼
//!                           segment full: seal wal-<g>, open wal-<g+1>,
//!                           move CURRENT past the generations no window still needs,
//!                           unlink them
//! ```
//!
//! * **Ack contract**: the sequencer appends the request body the block
//!   arrived in to the WAL and fsyncs it, applies the block, publishes
//!   the replica, and only then fills the connection's completion slot —
//!   so an ack means durable (with `wal_dir`), applied, *and* visible to
//!   every later query. Only the exact successor of the last applied id
//!   is ever appended: a duplicate or a gap skips the log and is rejected
//!   by the apply with its typed error. An append or fsync failure fails
//!   the request without applying (an applied-but-not-durable block would
//!   turn a later `Duplicate` retry into a silent durability lie). A
//!   panicking apply poisons the state: later ingests and snapshots get a
//!   typed error, never a hang, and nothing more is logged; queries keep
//!   reading the last published replica, which is exactly the acked
//!   prefix.
//! * **Group commit**: every unit of work already queued behind the
//!   popped one joins its batch — all appends first, one covering fsync,
//!   then apply + publish + ack in arrival order. A failed covering
//!   fsync fails every logged block of the batch. With one block queued
//!   the batch is that block: append + fsync.
//! * **One log**: a WAL root is `CURRENT` + one chain `wal-<g>.log`, at
//!   any `--shards` — the shard count splits a counting pass
//!   ([`crate::shard`]), never the log, so a root written under one
//!   shard count recovers under any other. Records are appended in
//!   block-id order and recovery replays the contiguous prefix: the
//!   first gap ends replay, which keeps `acked ≤ recovered` and, for one
//!   block in flight, `recovered ≤ acked + 1`. Every record carries the
//!   model-class tag; a log written by another class refuses to replay.
//! * **Rotation and retention**: every acked block has exactly one
//!   durable copy, its log record. Once the live log reaches
//!   `wal_max_bytes` (the segment size) the sequencer seals the
//!   generation and opens the next — only when nothing is appended but
//!   not yet applied, after the *last* logged block of a batch — and
//!   unlinks the sealed generations that end below the oldest block the
//!   state can still need ([`AppliedState::oldest_needed`]): they are in
//!   no current or future window. `CURRENT` names the oldest retained
//!   generation and moves *before* anything below it is unlinked. An
//!   unrestricted daemon needs its first block for ever and never
//!   unlinks anything.
//! * **One on-disk form**: a WAL root is also what `demon-cli generate`
//!   and the `Snapshot` verb write ([`write_root`]) and what every batch
//!   command reads. [`read_root`] is the one reader of a root's chain of
//!   records — recovery and the CLI both call it — and
//!   [`refuse_old_layout`] names what only an older build could read.

use crate::model::ServableModel;
use crate::protocol::{Request, Response, WireError};
use crate::server::{crash_point, ServeConfig};
use crate::shard::{shard_of, AppliedState, ReplicaCell};
use demon_types::durable;
use demon_types::obs::{self, Counter};
use demon_types::wal::{self, WalChain, WalWriter};
use demon_types::{Block, BlockId, BlockInterval, DemonError, ModelClass, Result};
use std::collections::{BTreeMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::Thread;
use std::time::Duration;

/// A parked response slot: the sequencer fills it and unparks the
/// event-loop thread that owns the connection.
pub(crate) struct Pending {
    slot: Mutex<Option<Response>>,
    waker: Thread,
}

impl Pending {
    /// A slot owned by (and waking) the given thread.
    pub(crate) fn new(waker: Thread) -> Pending {
        Pending {
            slot: Mutex::new(None),
            waker,
        }
    }

    fn fill(&self, response: Response) {
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(response);
        self.waker.unpark();
    }

    /// Takes the response if it has arrived (non-blocking).
    pub(crate) fn take(&self) -> Option<Response> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// A unit of sequencer work.
pub(crate) enum Task<S: ServableModel> {
    /// Apply one block (WAL append first when durable): the decoded
    /// block, and the request body it arrived in — what the log records.
    Ingest {
        block: Block<S::Record>,
        body: Vec<u8>,
        done: Arc<Pending>,
    },
    /// Persist the held blocks atomically to a server-side directory.
    Snapshot { dir: String, done: Arc<Pending> },
}

struct QueueInner<S: ServableModel> {
    tasks: VecDeque<Task<S>>,
    open: bool,
}

/// The bounded sequencer queue. Submission never blocks: an event-loop
/// thread re-tries each pass until the connection's own deadline
/// expires, so backpressure parks a connection, never a thread.
pub(crate) struct TaskQueue<S: ServableModel> {
    capacity: usize,
    inner: Mutex<QueueInner<S>>,
    not_empty: Condvar,
}

/// Why a non-blocking submit did not enqueue.
pub(crate) enum SubmitError<S: ServableModel> {
    /// The queue is at capacity; retry until the deadline.
    Full(Task<S>),
    /// The queue is closed (shutdown); fail the request as busy.
    Closed,
}

impl<S: ServableModel> TaskQueue<S> {
    fn new(capacity: usize) -> TaskQueue<S> {
        TaskQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(QueueInner {
                tasks: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner<S>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The queue's capacity (for the `Busy` rejection text).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues without blocking; hands the task back when full. An
    /// enqueued task is counted in `gauge` before the sequencer can see
    /// it (and uncount it).
    pub(crate) fn try_submit(
        &self,
        task: Task<S>,
        gauge: Option<&AtomicU64>,
    ) -> std::result::Result<(), SubmitError<S>> {
        let mut inner = self.lock();
        if !inner.open {
            return Err(SubmitError::Closed);
        }
        if inner.tasks.len() >= self.capacity {
            return Err(SubmitError::Full(task));
        }
        if let Some(gauge) = gauge {
            gauge.fetch_add(1, Ordering::SeqCst);
        }
        inner.tasks.push_back(task);
        obs::record_max(Counter::ServeQueueDepth, inner.tasks.len() as u64);
        self.not_empty.notify_one();
        Ok(())
    }

    /// The sequencer's blocking pop: everything queued, oldest first.
    /// `None` after close once drained.
    fn next_batch(&self) -> Option<VecDeque<Task<S>>> {
        let mut inner = self.lock();
        while inner.tasks.is_empty() {
            if !inner.open {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
        Some(std::mem::take(&mut inner.tasks))
    }

    /// Closes the queue; queued work still drains.
    fn close(&self) {
        self.lock().open = false;
        self.not_empty.notify_all();
    }

    fn depth(&self) -> usize {
        self.lock().tasks.len()
    }
}

/// What the event-loop threads, the sequencer and `Stats` have in
/// common.
pub(crate) struct Hub<S: ServableModel> {
    /// The epoch-swapped read replica.
    pub(crate) replica: ReplicaCell<S>,
    /// The sequencer queue.
    pub(crate) queue: TaskQueue<S>,
    /// Ingests submitted and not yet answered, per shard — the `Stats`
    /// `shard_queue_depths` gauge.
    pub(crate) shard_pending: Vec<AtomicU64>,
    /// Graceful-shutdown flag.
    pub(crate) shutdown: AtomicBool,
    /// Requests served across all connections and verbs.
    pub(crate) requests: AtomicU64,
    /// The bound address.
    addr: SocketAddr,
    /// The event-loop threads, once spawned: shutdown unparks them.
    pub(crate) loops: OnceLock<Vec<Thread>>,
    /// The class's per-block wire meta (item-universe size for itemsets,
    /// dimensionality for points), validated against each `IngestBlock`.
    pub(crate) meta: u32,
    /// Per-connection idle timeout.
    pub(crate) io_timeout: Duration,
    /// Backpressure deadline for a full queue.
    pub(crate) queue_timeout: Duration,
}

impl<S: ServableModel> Hub<S> {
    pub(crate) fn new(
        config: &ServeConfig,
        addr: SocketAddr,
        state: &dyn AppliedState<S>,
    ) -> Hub<S> {
        Hub {
            replica: ReplicaCell::new(state.replica(0)),
            queue: TaskQueue::new(config.queue_capacity),
            shard_pending: (0..config.shards).map(|_| AtomicU64::new(0)).collect(),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            addr,
            loops: OnceLock::new(),
            meta: S::block_meta(config),
            io_timeout: config.io_timeout,
            queue_timeout: config.queue_timeout,
        }
    }

    /// Shard count.
    pub(crate) fn n_shards(&self) -> usize {
        self.shard_pending.len()
    }

    /// Flags shutdown and closes the queue; queued work still drains,
    /// loop threads (unparked here — one that owns no connection waits
    /// for nothing else) exit once their in-flight connections are
    /// answered.
    pub(crate) fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.queue.close();
            for thread in self.loops.get().into_iter().flatten() {
                thread.unpark();
            }
            self.wake_acceptor();
        }
    }

    /// Pops the acceptor out of its blocking `accept` with a throwaway
    /// connection so it sees the shutdown flag: to the bound address,
    /// else (a wildcard bind where that does not route) to loopback on
    /// the bound port. Refused means the acceptor is gone already.
    pub(crate) fn wake_acceptor(&self) {
        let loopback: IpAddr = match self.addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        for addr in [self.addr, SocketAddr::new(loopback, self.addr.port())] {
            if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
                return;
            }
        }
    }

    /// The `Stats` body: the daemon's gauges, then the obs counter
    /// table, as one JSON object. `"blocks"` — the stream position, the
    /// latest applied block id — comes first, ahead of the shard keys,
    /// so gauge parsers keyed on the first `"blocks":` match keep
    /// working. Built by hand — every key is a static snake_case
    /// name, so no escaping is ever needed.
    pub(crate) fn stats_json(&self) -> String {
        fn join(values: impl Iterator<Item = u64>) -> String {
            values.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
        }
        let replica = self.replica.load();
        let mut out = format!(
            "{{\"blocks\":{},\"shards\":{},\"shard_blocks\":[{}],\"shard_queue_depths\":[{}],\"requests\":{},\"queue_depth\":{},\"counters\":{{",
            replica.blocks,
            self.n_shards(),
            join(replica.shard_blocks.iter().copied()),
            join(self.shard_pending.iter().map(|d| d.load(Ordering::SeqCst))),
            self.requests.load(Ordering::Relaxed),
            self.queue.depth(),
        );
        for (i, (name, value)) in obs::snapshot().counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push_str("}}");
        out
    }
}

/// The block an `IngestBlock` request carries: records through the
/// class codec, validated against `meta`.
pub(crate) fn decode_block<S: ServableModel>(
    id: BlockId,
    interval: Option<BlockInterval>,
    meta: u32,
    payload: &[u8],
) -> Result<Block<S::Record>> {
    Ok(Block::from_parts(id, interval, S::decode_records(payload, id, meta)?))
}

/// The sequencer's durable state: the log, writing generation `gen`,
/// behind the root `CURRENT` pointer. Owned by the sequencer thread alone
/// — the single-appender discipline is what makes rotation sound.
pub(crate) struct Wal {
    root: PathBuf,
    writer: WalWriter,
    /// The segment size: live bytes that seal `gen`.
    max_bytes: u64,
    gen: u64,
    /// The highest block id logged in `gen` (`None`: nothing yet).
    highest: Option<BlockId>,
    /// `(generation, highest block id logged in it)` of the sealed
    /// generations still on disk, oldest — `CURRENT` — first.
    sealed: VecDeque<(u64, Option<BlockId>)>,
}

/// Refuses, by name, what only an older build can read: a
/// `snapshot-<g>/` (it compacted the log into snapshots), a `shard-<s>/`
/// (it kept a log lane per shard), and the `meta.json` of an itemset
/// store directory or the `blocks.manifest` of a point-class export (it
/// wrote block streams in formats of their own). Every reader of a root
/// calls this first; there is no compatibility reader.
pub fn refuse_old_layout(root: &Path) -> Result<()> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let what = match name.as_str() {
            "meta.json" => "the manifest of an itemset store directory",
            "blocks.manifest" => "the manifest of a point-class snapshot export",
            n if n.starts_with("snapshot-") => "a compaction snapshot",
            n if n.starts_with("shard-") => "a per-shard log lane",
            _ => continue,
        };
        found.push((name, what));
    }
    match found.into_iter().min() {
        None => Ok(()),
        Some((name, what)) => Err(DemonError::InvalidParameter(format!(
            "{} is {what} of an older build; this build keeps a block stream as a WAL root \
             (CURRENT + wal-<g>.log) alone and cannot read it",
            root.join(name).display()
        ))),
    }
}

/// What [`read_root`] found in one log file of a root.
#[derive(Clone, Debug)]
pub struct LogFile {
    /// The file's generation.
    pub gen: u64,
    /// Its intact records.
    pub records: usize,
    /// The sequence number of its last intact record.
    pub last_seq: Option<u64>,
    /// The highest block id its intact records log.
    pub(crate) highest: Option<BlockId>,
    /// Byte length of its intact prefix.
    pub(crate) len: u64,
    /// Why its tail is torn, if it is.
    pub torn: Option<String>,
    /// Below `CURRENT`: residue of a crash between the pointer move and
    /// the unlink, outside the chain.
    pub stale: bool,
}

/// A logged block, its records still in their class-codec bytes.
struct Logged {
    interval: Option<BlockInterval>,
    meta: u32,
    payload: Vec<u8>,
    gen: u64,
    seq: u64,
}

/// The records of a WAL root, read by [`read_root`].
pub struct RootLog {
    root: PathBuf,
    /// The `CURRENT` generation.
    pub current: u64,
    /// Every log file of the root, ascending by generation.
    pub files: Vec<LogFile>,
    /// The model-class tag of the records (`None`: the root holds none).
    pub class: Option<u8>,
    /// The sequence number the chain continues with.
    pub(crate) next_seq: u64,
    /// Per block id, the later of its records.
    logged: BTreeMap<BlockId, Logged>,
}

/// Reads a WAL root — a daemon's `--wal-dir`, a `Snapshot`, a generated
/// stream — by the one rule recovery and every batch command share: the
/// chain of generations ≥ `CURRENT` through [`WalChain`] (a torn end of
/// chain is dropped and named in [`LogFile::torn`], damage that intact
/// records follow is [`DemonError::Corrupt`]), every record of `class`
/// (of the first record's class when `None`; another is
/// [`DemonError::ModelClassMismatch`]) and an `IngestBlock` (else
/// `Corrupt`, naming file and sequence number). Of two records with one
/// id the later wins: the earlier was refused at apply, or it could not
/// have been logged again. Read-only; the records decode in
/// [`RootLog::blocks`].
pub fn read_root(root: &Path, class: Option<ModelClass>) -> Result<RootLog> {
    let current = wal::read_current(root)?;
    let mut log = RootLog {
        root: root.to_path_buf(),
        current,
        files: Vec::new(),
        class: class.map(ModelClass::tag),
        next_seq: 0,
        logged: BTreeMap::new(),
    };
    let gens = wal::list_wal_generations(root)?;
    if root.join(wal::CURRENT_FILE).exists() && !gens.contains(&current) {
        return Err(DemonError::Corrupt {
            file: wal::wal_file_path(root, current).display().to_string(),
            detail: "CURRENT names this generation, but its log is missing".to_string(),
        });
    }
    let mut chain = WalChain::default();
    for gen in gens {
        let path = wal::wal_file_path(root, gen);
        let stale = gen < current;
        let report = if stale {
            wal::read_wal(&path).unwrap_or_default()
        } else {
            chain.read(&path)?
        };
        let mut file = LogFile {
            gen,
            records: report.records.len(),
            last_seq: report.records.last().map(|r| r.seq),
            highest: None,
            len: report.valid_len,
            torn: report.torn,
            stale,
        };
        for record in report.records.into_iter().filter(|_| !stale) {
            let class = *log.class.get_or_insert(record.class);
            let mismatch = |got| DemonError::ModelClassMismatch {
                expected: ModelClass::describe_tag(class),
                got: ModelClass::describe_tag(got),
            };
            let corrupt = |detail| DemonError::Corrupt {
                file: path.display().to_string(),
                detail: format!("sequence {}: {detail}", record.seq),
            };
            if record.class != class {
                return Err(mismatch(record.class));
            }
            match Request::decode(&record.body) {
                Ok(Request::IngestBlock { class: body, id, interval, meta, payload }) => {
                    if body != class {
                        return Err(mismatch(body));
                    }
                    file.highest = file.highest.max(Some(id));
                    let seq = record.seq;
                    log.logged.insert(id, Logged { interval, meta, payload, gen, seq });
                }
                Ok(other) => return Err(corrupt(format!("logs {other:?}, not an IngestBlock"))),
                Err(e) => return Err(corrupt(e.to_string())),
            }
        }
        log.files.push(file);
    }
    log.next_seq = chain.next_seq();
    Ok(log)
}

impl RootLog {
    /// The lowest logged block id: where a replay starts.
    pub(crate) fn first(&self) -> Option<BlockId> {
        self.logged.keys().next().copied()
    }

    /// The block meta of the first logged block (the item universe or
    /// point dimensionality of the stream).
    pub fn meta(&self) -> Option<u32> {
        self.logged.values().next().map(|logged| logged.meta)
    }

    /// The logged blocks a replay applies, decoded one at a time as class
    /// `S`: from the first id the contiguous run, in id order — the first
    /// gap ends it, since nothing past one was ever acknowledged. Every
    /// record must carry block meta `meta` (the first record's when
    /// `None`), else the refusal is `S::meta_mismatch`'s text; a record
    /// whose payload does not decode is [`DemonError::Corrupt`] naming
    /// file and sequence number. Takes the records out of the log.
    pub fn blocks<S: ServableModel>(
        &mut self,
        mut meta: Option<u32>,
    ) -> impl Iterator<Item = Result<Block<S::Record>>> {
        let root = self.root.clone();
        let mut prev: Option<BlockId> = None;
        std::mem::take(&mut self.logged)
            .into_iter()
            .take_while(move |&(id, _)| {
                let contiguous = !matches!(prev, Some(p) if p.next() != id);
                prev = Some(id);
                contiguous
            })
            .map(move |(id, logged)| {
                let file = wal::wal_file_path(&root, logged.gen).display().to_string();
                let expected = *meta.get_or_insert(logged.meta);
                if let Some(refusal) = S::meta_mismatch(expected, logged.meta) {
                    let at = format!("{file}, sequence {}", logged.seq);
                    return Err(DemonError::InvalidParameter(format!("{at}: {refusal}")));
                }
                decode_block::<S>(id, logged.interval, logged.meta, &logged.payload).map_err(|e| {
                    DemonError::Corrupt { file, detail: format!("sequence {}: {e}", logged.seq) }
                })
            })
    }
}

/// Writes a WAL root at `dir`, all-or-nothing: `CURRENT` = 0 and one
/// `wal-0.log` holding the `IngestBlock` record a daemon logs for each
/// block `blocks` hands its sink — one block at a time, one covering
/// fsync, and the root synced before this returns. `demon-cli generate`
/// and the `Snapshot` verb of every class write through here. Returns
/// the number of blocks written.
pub fn write_root<S: ServableModel>(
    dir: &Path,
    meta: u32,
    blocks: impl FnOnce(&mut dyn FnMut(&Block<S::Record>) -> Result<()>) -> Result<()>,
) -> Result<u64> {
    let mut written = 0;
    durable::replace_dir_atomic(dir, |tmp| {
        let mut log = WalWriter::create(&wal::wal_file_path(tmp, 0), 0, S::CLASS.tag())?;
        blocks(&mut |block| {
            log.append_unsynced(&Request::ingest::<S>(meta, block)?.encode())?;
            written += 1;
            Ok(())
        })?;
        log.sync()?;
        wal::write_current(tmp, 0)
    })?;
    Ok(written)
}

/// Recovers `state` (handed in empty) from a WAL root and reopens the
/// log for appending. The log is the whole durable state: read the root
/// ([`read_root`]; refused first, by name, what only an older build can
/// read — [`refuse_old_layout`]), start the state at the first retained
/// id and replay ([`RootLog::blocks`], each record held to this daemon's
/// block meta); the first failed apply ends replay — nothing past it was
/// ever acknowledged. Refused too: a log that starts above the oldest
/// block the replayed state needs (trimmed under a narrower data span
/// than the daemon came back with). Only then is the root touched:
/// generations below `CURRENT` are swept and a torn end of chain is cut
/// off (counted under `wal.torn_tails`) before anything is appended.
pub(crate) fn recover<S: ServableModel>(
    root: &Path,
    config: &ServeConfig,
    state: &mut dyn AppliedState<S>,
) -> Result<Wal> {
    std::fs::create_dir_all(root)?;
    refuse_old_layout(root)?;
    let mut log = read_root(root, Some(S::CLASS))?;
    let first = log.first();
    if let Some(first) = first {
        state.resume_at(first);
    }
    for block in log.blocks::<S>(Some(S::block_meta(config))) {
        // The state's own sequence check refuses what was logged but
        // never applied, like a block appended but never acked.
        if state.add_block(block?).is_err() {
            break;
        }
        obs::incr(Counter::WalReplays);
    }
    if let (Some(first), Some(_)) = (first, state.latest()) {
        let needed = state.oldest_needed();
        if needed < first {
            let span = |w: Option<usize>| w.map_or("unrestricted".to_string(), |w| w.to_string());
            return Err(DemonError::InvalidParameter(format!(
                "the log in {} starts at block {first}, but --window {} with --pattern-window {} \
                 needs block {needed}: the generations below were dropped under a narrower data span",
                root.display(),
                span(config.window),
                span(config.pattern_window),
            )));
        }
    }

    for file in &log.files {
        let path = wal::wal_file_path(root, file.gen);
        if file.stale {
            let _ = std::fs::remove_file(path);
        } else if file.torn.is_some() {
            wal::truncate_torn_tail(&path, file.len)?;
        }
    }
    let class = S::CLASS.tag();
    let live = log.files.last().filter(|file| !file.stale);
    let gen = live.map_or(log.current, |file| file.gen);
    let path = wal::wal_file_path(root, gen);
    let writer = match live {
        Some(file) => WalWriter::open_after_recovery(&path, file.len, log.next_seq, class)?,
        None => WalWriter::create(&path, log.next_seq, class)?,
    };
    Ok(Wal {
        root: root.to_path_buf(),
        writer,
        max_bytes: config.wal_max_bytes.max(1),
        gen,
        highest: live.and_then(|file| file.highest),
        sealed: log
            .files
            .iter()
            .filter(|file| !file.stale && file.gen != gen)
            .map(|file| (file.gen, file.highest))
            .collect(),
    })
}

impl Wal {
    /// Appends the request body block `id` arrived in, unsynced: the
    /// batch's covering fsync makes it durable.
    fn append(&mut self, id: BlockId, body: &[u8]) -> std::result::Result<(), WireError> {
        self.writer
            .append_unsynced(body)
            .map_err(|e| WireError::Io(format!("wal append: {e}")))?;
        self.highest = Some(id);
        Ok(())
    }

    /// Once the live log reaches the segment size: seals generation
    /// `gen`, opens `gen+1`, and unlinks the sealed generations whose
    /// highest block id lies below the oldest block `state` still needs.
    /// Called only when every appended record is applied (or was refused
    /// and never acked), so `state` speaks for everything the sealed logs
    /// hold. Nothing here looks at a block: the cost is one file and,
    /// when something is dropped, one pointer write.
    fn maybe_rotate<S: ServableModel>(&mut self, state: &dyn AppliedState<S>) {
        if self.writer.bytes() < self.max_bytes {
            return;
        }
        let log = |g| wal::wal_file_path(&self.root, g);
        // A failure aborts the rotation: keep appending to the old log
        // and retry after the next block. An already-created empty
        // `wal-<gen+1>.log` is harmless — recovery reads it as an empty
        // generation.
        let rotated = WalWriter::create(&log(self.gen + 1), self.writer.next_seq(), self.writer.class());
        let Ok(rotated) = rotated else { return };
        crash_point("mid_rotation");
        self.writer = rotated;
        self.sealed.push_back((self.gen, self.highest.take()));
        self.gen += 1;

        let needed = Some(state.oldest_needed());
        let droppable = self.sealed.iter().take_while(|(_, highest)| *highest < needed).count();
        let oldest_kept = self.sealed.get(droppable).map_or(self.gen, |(g, _)| *g);
        // The pointer moves first: a crash after it leaves stale files
        // that the next bind sweeps, never a pointer below a missing
        // file. A failed pointer write drops nothing; the next rotation
        // tries again.
        if droppable == 0 || wal::write_current(&self.root, oldest_kept).is_err() {
            return;
        }
        crash_point("after_current");
        for (g, _) in self.sealed.drain(..droppable) {
            let _ = std::fs::remove_file(log(g));
        }
    }
}

/// Persists the held blocks to `dir` all-or-nothing: a failure leaves no
/// partial directory, and the error stays typed end to end.
fn snapshot_to<S: ServableModel>(state: &dyn AppliedState<S>, dir: &str) -> Response {
    match state.save_snapshot(Path::new(dir)) {
        Ok(blocks) => Response::SnapshotDone(blocks),
        Err(DemonError::Io(e)) => Response::Err(WireError::Io(format!("snapshot to {dir}: {e}"))),
        Err(e) => Response::Err(WireError::Other(format!("snapshot to {dir}: {e}"))),
    }
}

/// The sequencer thread: see the module docs for the contract.
pub(crate) fn sequencer_loop<S: ServableModel>(
    hub: &Hub<S>,
    mut state: Box<dyn AppliedState<S>>,
    mut wal: Option<Wal>,
) {
    let mut epoch = hub.replica.load().epoch;
    let mut poisoned = false;
    while let Some(batch) = hub.queue.next_batch() {
        // WAL first: a block must be durable before it can be acked.
        // `appended[i]`: whether batch[i] was logged, or why that failed.
        let mut next = state.latest().map_or(BlockId::FIRST, BlockId::next);
        let mut appended: Vec<std::result::Result<bool, WireError>> =
            Vec::with_capacity(batch.len());
        for task in &batch {
            let Task::Ingest { block, body, .. } = task else {
                appended.push(Ok(false));
                continue;
            };
            crash_point("before_append");
            appended.push(match wal.as_mut() {
                Some(w) if block.id() == next && !poisoned => {
                    next = next.next();
                    w.append(block.id(), body).map(|()| true)
                }
                _ => Ok(false),
            });
        }
        if let Some(w) = wal.as_mut().filter(|_| appended.contains(&Ok(true))) {
            if let Err(e) = w.writer.sync() {
                // Nothing this fsync covered is durable, so none of it
                // may be applied or acked Ok.
                for a in appended.iter_mut().filter(|a| **a == Ok(true)) {
                    *a = Err(WireError::Io(format!("wal sync: {e}")));
                }
            }
        }

        // Retention asks the state what it still needs, and the state
        // must speak for every block the sealed logs hold, so within a
        // batch only the last logged block may rotate (`None`: nothing
        // logged).
        let last_logged = appended.iter().rposition(|a| *a == Ok(true));
        for (i, (task, appended)) in batch.into_iter().zip(appended).enumerate() {
            let (block, done) = match task {
                Task::Ingest { block, done, .. } => (block, done),
                Task::Snapshot { dir, done } => {
                    done.fill(if poisoned {
                        Response::Err(WireError::Other("monitor poisoned".to_string()))
                    } else {
                        snapshot_to(state.as_ref(), &dir)
                    });
                    continue;
                }
            };
            let shard = shard_of(block.id(), hub.n_shards());
            crash_point("after_append");

            let result = if poisoned {
                Err(WireError::Other(
                    "monitor poisoned by an earlier ingest fault".to_string(),
                ))
            } else if let Err(e) = appended {
                Err(e)
            } else {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    state
                        .add_block(block)
                        .map_err(|e| WireError::from_error(&e))
                }))
                .unwrap_or_else(|_| {
                    poisoned = true;
                    Err(WireError::Other(
                        "ingest panicked; monitor poisoned".to_string(),
                    ))
                })
            };
            let response = match result {
                Ok(()) => {
                    obs::incr(Counter::ServeShardIngests);
                    epoch += 1;
                    let replica = state.replica(epoch);
                    let max = replica.shard_blocks.iter().copied().max().unwrap_or(0);
                    let min = replica.shard_blocks.iter().copied().min().unwrap_or(0);
                    obs::record_max(Counter::ServeShardImbalance, max - min);
                    hub.replica.store(replica);
                    if let Some(w) = wal.as_mut().filter(|_| last_logged <= Some(i)) {
                        w.maybe_rotate(state.as_ref());
                    }
                    Response::Ok
                }
                Err(e) => Response::Err(e),
            };
            hub.shard_pending[shard].fetch_sub(1, Ordering::SeqCst);
            done.fill(response);
            crash_point("after_ack");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ItemsetModel;
    use crate::shard::{MonitorState, ShardSet};
    use demon_types::{Item, MinSupport, Tid, Transaction};

    type State = Box<dyn AppliedState<ItemsetModel>>;

    /// The fsync counter is process-wide: tests that append take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn block(id: u64) -> Block<Transaction> {
        let txs = (0..10)
            .map(|i| Transaction::new(Tid(id * 10 + i), vec![Item((i % 4) as u32)]))
            .collect();
        Block::new(BlockId(id), txs)
    }

    /// Block `id` as a canonical client puts it on the wire.
    fn request_body(config: &ServeConfig, id: u64) -> Vec<u8> {
        Request::ingest::<ItemsetModel>(config.n_items, &block(id)).expect("encode").encode()
    }

    /// A durable config over a fresh directory.
    fn config(name: &str, shards: usize) -> ServeConfig {
        let dir = std::env::temp_dir().join(format!("demon-seq-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ServeConfig::new("127.0.0.1:0", 8, MinSupport::new(0.1).unwrap());
        config.shards = shards;
        config.wal_dir = Some(dir);
        config
    }

    fn reopen(config: &ServeConfig) -> Result<(State, Wal)> {
        let mut state: State = if config.shards == 1 {
            Box::new(MonitorState::<ItemsetModel>::new(config).expect("state"))
        } else {
            Box::new(ShardSet::<ItemsetModel>::new(config).expect("state"))
        };
        let root = config.wal_dir.as_ref().expect("durable config");
        let wal = recover::<ItemsetModel>(root, config, state.as_mut())?;
        Ok((state, wal))
    }

    /// Queues `ids` and runs the sequencer over them as one batch;
    /// returns the answers and the fsyncs the sequencer spent.
    fn run_one_batch(config: &ServeConfig, ids: &[u64]) -> (Hub<ItemsetModel>, Vec<Response>, u64) {
        obs::enable();
        let (state, wal) = reopen(config).expect("recover");
        let hub = Hub::<ItemsetModel>::new(config, "127.0.0.1:1".parse().unwrap(), state.as_ref());
        let slots: Vec<Arc<Pending>> = ids
            .iter()
            .map(|&id| {
                let done = Arc::new(Pending::new(std::thread::current()));
                let task = Task::Ingest {
                    block: block(id),
                    body: request_body(config, id),
                    done: Arc::clone(&done),
                };
                let gauge = &hub.shard_pending[shard_of(BlockId(id), config.shards)];
                assert!(hub.queue.try_submit(task, Some(gauge)).is_ok());
                done
            })
            .collect();
        hub.begin_shutdown();
        let fsyncs = obs::counter_value(Counter::WalFsyncs);
        sequencer_loop(&hub, state, Some(wal));
        let fsyncs = obs::counter_value(Counter::WalFsyncs) - fsyncs;
        let answers = slots.iter().map(|s| s.take().expect("answered")).collect();
        (hub, answers, fsyncs)
    }

    /// Everything under a WAL root, by name.
    fn entries(root: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(root)
            .expect("WAL root")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// A burst already queued when the sequencer wakes is one batch: six
    /// blocks at four shards cost one covering fsync in the one log,
    /// every block is acked in arrival order, a queued duplicate is
    /// refused without touching the log, and the log recovers to the same
    /// six blocks — at any shard count.
    #[test]
    fn a_queued_burst_is_one_batch_with_one_fsync() {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut config = config("gc", 4);
        let (hub, answers, fsyncs) = run_one_batch(&config, &[1, 2, 3, 4, 5, 6, 3]);
        assert_eq!(fsyncs, 1);

        assert!(
            answers[..6].iter().all(|r| *r == Response::Ok),
            "{answers:?}"
        );
        assert!(
            matches!(
                &answers[6],
                Response::Err(WireError::Duplicate { id: 3, latest: 6 })
            ),
            "{answers:?}"
        );
        assert_eq!(hub.replica.load().shard_blocks, vec![2, 2, 1, 1]);

        let root = config.wal_dir.clone().unwrap();
        assert_eq!(entries(&root), ["wal-0.log"]);
        let report = wal::read_wal(&wal::wal_file_path(&root, 0)).expect("wal-0.log");
        assert_eq!(report.records.len(), 6, "the duplicate was never logged");
        for shards in [4, 1, 3] {
            config.shards = shards;
            let (state, _) = reopen(&config).expect("recover");
            assert_eq!(state.latest(), Some(BlockId(6)), "back at {shards} shard(s)");
        }
        let _ = std::fs::remove_dir_all(root);
    }

    /// The log holds what crossed the socket, and for a canonical client
    /// those are the bytes a re-encode of the decoded block yields — the
    /// record bytes every earlier build wrote.
    #[test]
    fn the_log_record_is_the_request_body_as_received() {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let config = config("body", 1);
        run_one_batch(&config, &[1, 2]);
        let root = config.wal_dir.clone().unwrap();
        let report = wal::read_wal(&wal::wal_file_path(&root, 0)).expect("wal-0.log");
        let bodies: Vec<&[u8]> = report.records.iter().map(|r| r.body.as_slice()).collect();
        assert_eq!(bodies, [request_body(&config, 1), request_body(&config, 2)]);
        let _ = std::fs::remove_dir_all(root);
    }

    /// A batch whose first block already fills the segment still rotates
    /// only once its last block is applied, and an unrestricted daemon
    /// unlinks nothing: every acked block survives the restart, `CURRENT`
    /// never moves, and the sealed generation is still there.
    #[test]
    fn a_rotation_inside_a_batch_keeps_every_acked_block() {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for shards in [1, 4] {
            for max_bytes in [1, 100, 250] {
                let mut config = config("rotate", shards);
                config.wal_max_bytes = max_bytes;
                let (_, answers, _) = run_one_batch(&config, &[1, 2, 3, 4, 5, 6]);
                assert!(answers.iter().all(|r| *r == Response::Ok), "{answers:?}");

                let root = config.wal_dir.clone().unwrap();
                assert_eq!(wal::read_current(&root).unwrap(), 0, "nothing was dropped");
                assert_eq!(entries(&root), ["wal-0.log", "wal-1.log"], "rotated once");
                let (state, _) = reopen(&config).expect("recover");
                assert_eq!(
                    state.latest(),
                    Some(BlockId(6)),
                    "shards={shards} wal_max_bytes={max_bytes}"
                );
                let _ = std::fs::remove_dir_all(root);
            }
        }
    }

    /// A record whose frame is intact but whose body does not decode —
    /// no request at all, or an `IngestBlock` whose records are garbage —
    /// is corruption naming the file and the sequence number, never a
    /// block silently skipped; the root is left as it was.
    #[test]
    fn an_intact_record_that_does_not_decode_is_corrupt() {
        let config = config("undecodable", 1);
        let root = config.wal_dir.clone().unwrap();
        let garbage = Request::IngestBlock {
            class: ItemsetModel::CLASS.tag(),
            id: BlockId(2),
            interval: None,
            meta: config.n_items,
            payload: vec![0xFF],
        };
        for (body, why) in [(vec![9u8, 9, 9], "request tag"), (garbage.encode(), "transaction count")] {
            std::fs::create_dir_all(&root).unwrap();
            let class = ItemsetModel::CLASS.tag();
            let mut log = WalWriter::create(&wal::wal_file_path(&root, 0), 0, class).unwrap();
            log.append_unsynced(&request_body(&config, 1)).unwrap();
            log.append_unsynced(&body).unwrap();
            let before = std::fs::read(wal::wal_file_path(&root, 0)).unwrap();
            match reopen(&config).err() {
                Some(DemonError::Corrupt { file, detail }) => {
                    assert!(file.ends_with("wal-0.log") && detail.contains("sequence 1"), "{file}: {detail}");
                    assert!(detail.contains(why), "{detail}");
                }
                other => panic!("an undecodable record: {:?}", other.map(|e| e.to_string())),
            }
            assert_eq!(std::fs::read(wal::wal_file_path(&root, 0)).unwrap(), before);
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// Under a window the sealed generations behind it are unlinked —
    /// pointer first — and the generation count stays bounded; a restart
    /// resumes at the first retained block, and a restart that asks for
    /// more history than was kept is refused by name.
    #[test]
    fn a_windowed_daemon_unlinks_what_no_window_needs_and_resumes_there() {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut config = config("retain", 1);
        config.window = Some(2);
        config.pattern_window = Some(2);
        config.wal_max_bytes = 1; // a generation per block
        let root = config.wal_dir.clone().unwrap();
        for id in 1..=6 {
            let (_, answers, _) = run_one_batch(&config, &[id]);
            assert_eq!(answers, [Response::Ok]);
            let gens = wal::list_wal_generations(&root).unwrap();
            assert!(gens.len() <= 3, "block {id}: generations {gens:?}");
            assert_eq!(wal::read_current(&root).unwrap(), gens[0], "block {id}");
        }
        // D5 and D6 are the window; their generations and the open one stay.
        assert_eq!(wal::list_wal_generations(&root).unwrap(), [4, 5, 6]);
        let (state, _) = reopen(&config).expect("recover");
        assert_eq!(state.latest(), Some(BlockId(6)));
        assert_eq!(state.oldest_needed(), BlockId(5));

        config.window = Some(4);
        let err = reopen(&config).err().expect("D3 is gone");
        let text = err.to_string();
        assert!(matches!(err, DemonError::InvalidParameter(_)), "{text}");
        assert!(text.contains("starts at block D5") && text.contains("needs block D3"), "{text}");
        assert!(text.contains("--window 4"), "{text}");

        config.window = Some(2);
        for leftover in ["snapshot-1", "shard-0", "meta.json", "blocks.manifest"] {
            std::fs::write(root.join(leftover), b"").unwrap();
            let err = reopen(&config).err().expect("a leftover of an older build");
            let text = err.to_string();
            assert!(matches!(err, DemonError::InvalidParameter(_)), "{text}");
            assert!(text.contains(leftover), "{text}");
            std::fs::remove_file(root.join(leftover)).unwrap();
        }
        reopen(&config).expect("the same root without the leftover");
        let _ = std::fs::remove_dir_all(root);
    }
}
