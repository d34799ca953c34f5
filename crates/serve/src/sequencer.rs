//! The single writer: a bounded queue of ingest and snapshot work, the
//! write-ahead log it appends to before applying, recovery of both at
//! bind time, and the compactor that bounds the log.
//!
//! ```text
//!  event-loop threads ──try_submit──▶ bounded queue ──▶ sequencer thread
//!                                                        │ append + fsync (lane of the block's shard)
//!                                                        │ apply to the AppliedState
//!                                                        │ publish Arc<Replica>, then ack
//!                                                        ▼
//!                                   compactor ◀── (gen, snapshot source) at rotation
//!                                   snapshot-<gen>, flip CURRENT, delete shadowed files
//! ```
//!
//! * **Ack contract**: the sequencer appends the block's encoded ingest
//!   request to the WAL lane of its shard and fsyncs it, applies it,
//!   publishes the replica, and only then fills the connection's
//!   completion slot — so an ack means durable (with `wal_dir`),
//!   applied, *and* visible to every later query. Only the exact
//!   successor of the last applied id is ever appended: a duplicate or
//!   a gap skips the log and is rejected by the apply with its typed
//!   error. An append or fsync failure fails the request without
//!   applying (an applied-but-not-durable block would turn a later
//!   `Duplicate` retry into a silent durability lie). A panicking apply
//!   poisons the state: later ingests and snapshots get a typed error,
//!   never a hang, and nothing more is logged; queries keep reading the
//!   last published replica, which is exactly the acked prefix.
//! * **Group commit**: every unit of work already queued behind the
//!   popped one joins its batch — all appends first, one covering fsync
//!   per touched lane, then apply + publish + ack in arrival order. A
//!   failed covering fsync fails every block of the batch on that lane.
//!   With one block queued the batch is that block: append + fsync.
//! * **WAL lanes**: shard `s` of `N ≥ 2` appends to
//!   `wal_dir/shard-<s>/wal-<g>.log`; with one shard the lane is
//!   `wal_dir` itself. The root `CURRENT` pointer and `snapshot-<g>` are
//!   common to all lanes; rotation moves every lane to `g+1` at once.
//!   Lanes are appended in block-id order, so recovery merges lane
//!   records by block id and replays the contiguous prefix: the first
//!   gap ends replay, which keeps `acked ≤ recovered` and, for one
//!   block in flight, `recovered ≤ acked + 1`. Every record carries the
//!   model-class tag; a log written by another class refuses to replay.
//! * **Compaction**: once the lanes' live bytes cross `wal_max_bytes`
//!   the sequencer rotates and hands the compactor the new generation
//!   with a snapshot source. It rotates only when nothing is appended
//!   but not yet applied — after the *last* logged block of a batch —
//!   so the snapshot covers every record the old logs hold that was or
//!   will be acked. The compactor saves `snapshot-<gen>` atomically,
//!   flips `CURRENT`, and deletes what that shadows. A crash at any
//!   instant recovers from whichever generation `CURRENT` still names.

use crate::model::ServableModel;
use crate::protocol::{Request, Response, WireError};
use crate::server::{crash_point, ServeConfig};
use crate::shard::{shard_lane_dir, shard_of, AppliedState, ReplicaCell};
use demon_types::obs::{self, Counter};
use demon_types::wal::{self, WalWriter};
use demon_types::{Block, BlockId, BlockInterval, DemonError, ModelClass, Result};
use std::collections::{BTreeMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock};
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
    /// Apply one block (WAL append first when durable).
    Ingest {
        block: Block<S::Record>,
        done: Arc<Pending>,
    },
    /// Persist the snapshot source atomically to a server-side directory.
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
    /// Blocks applied (recovered blocks included).
    pub(crate) blocks: AtomicU64,
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
        let replica = state.replica(0);
        Hub {
            blocks: AtomicU64::new(replica.blocks),
            replica: ReplicaCell::new(replica),
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
    /// table, as one JSON object. `"blocks"` comes first, ahead of the
    /// shard keys, so gauge parsers keyed on the first `"blocks":` match
    /// keep working. Built by hand — every key is a static snake_case
    /// name, so no escaping is ever needed.
    pub(crate) fn stats_json(&self) -> String {
        fn join(values: impl Iterator<Item = u64>) -> String {
            values.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
        }
        let mut out = format!(
            "{{\"blocks\":{},\"shards\":{},\"shard_blocks\":[{}],\"shard_queue_depths\":[{}],\"requests\":{},\"queue_depth\":{},\"counters\":{{",
            self.blocks.load(Ordering::SeqCst),
            self.n_shards(),
            join(self.replica.load().shard_blocks.iter().copied()),
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

/// The directory lane `shard` of `n_shards` logs to: the WAL root itself
/// when there is one lane, so a 1-shard directory is
/// `wal-<g>.log` + `CURRENT` + `snapshot-<g>/` and nothing else.
fn lane_dir(root: &Path, shard: usize, n_shards: usize) -> PathBuf {
    if n_shards == 1 {
        root.to_path_buf()
    } else {
        shard_lane_dir(root, shard)
    }
}

/// The sequencer's durable state: one WAL lane per shard, all rotated
/// together, behind the root `CURRENT` pointer. Owned by the sequencer
/// thread alone — the single-appender discipline is what makes rotation
/// sound.
pub(crate) struct WalLanes<S: ServableModel> {
    root: PathBuf,
    writers: Vec<WalWriter>,
    gen: u64,
    max_bytes: u64,
    compact_tx: mpsc::Sender<(u64, S::Maintainer)>,
    /// One compaction at a time; while it runs, the live logs simply
    /// keep growing past the threshold.
    compacting: Arc<AtomicBool>,
}

/// The compactor's end of a [`WalLanes`].
pub(crate) struct CompactorInbox<S: ServableModel> {
    root: PathBuf,
    n_shards: usize,
    compacting: Arc<AtomicBool>,
    rx: mpsc::Receiver<(u64, S::Maintainer)>,
}

/// The typed refusal when a WAL record (header tag or request body)
/// carries a different model class than the recovering daemon.
fn cross_class_replay<S: ServableModel>(got: u8) -> DemonError {
    DemonError::ModelClassMismatch {
        expected: S::CLASS.name().to_string(),
        got: ModelClass::describe_tag(got),
    }
}

/// Deletes every `snapshot-*` directory under `root` other than
/// generation `keep` (a compaction's tmp residue included).
fn remove_shadowed_snapshots(root: &Path, keep: u64) {
    for entry in std::fs::read_dir(root).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("snapshot-") && wal::parse_snapshot_dir_name(name) != Some(keep) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Recovers `state` (handed in empty) from a WAL root and reopens the
/// lanes for appending: load `snapshot-<CURRENT>` under `Strict` (the
/// snapshot was written atomically — damage there is real bit rot and
/// must be loud), merge every lane's record chain of generations ≥
/// `CURRENT` by block id, replay the contiguous prefix, and truncate
/// each live log's torn tail (counted under `wal.torn_tails`).
///
/// Replay is idempotent and salvaging: an id the snapshot already
/// covers is skipped; of two records with one id the later wins (the
/// earlier was refused at apply, or it could not have been logged
/// again); the first gap or failed apply ends replay — nothing past it
/// was ever acknowledged. Generations below `CURRENT` and snapshots
/// other than `CURRENT`'s are shadowed: deleting them makes a crash
/// mid-cleanup converge instead of accreting. A record tagged with a
/// *different model class* is not salvage — this WAL belongs to
/// another daemon, and recovery refuses with the typed
/// [`DemonError::ModelClassMismatch`] instead of replaying garbage.
pub(crate) fn recover<S: ServableModel>(
    root: &Path,
    config: &ServeConfig,
    state: &mut dyn AppliedState<S>,
) -> Result<(WalLanes<S>, CompactorInbox<S>)> {
    let n_shards = config.shards;
    for s in 0..n_shards {
        std::fs::create_dir_all(lane_dir(root, s, n_shards))?;
    }
    let current = wal::read_current(root)?;
    if current > 0 {
        for block in S::load_snapshot(&wal::snapshot_dir_path(root, current), config)? {
            state.add_block(block)?;
        }
    }
    remove_shadowed_snapshots(root, current);

    let class = S::CLASS.tag();
    let mut logged: BTreeMap<BlockId, Block<S::Record>> = BTreeMap::new();
    let mut writers = Vec::with_capacity(n_shards);
    let mut gen = current;
    for s in 0..n_shards {
        let lane = lane_dir(root, s, n_shards);
        // (generation, clean length) of the lane's newest log, if any.
        let mut live: Option<(u64, u64)> = None;
        let mut next_seq = 0u64;
        for g in wal::list_wal_generations(&lane)? {
            if g < current {
                let _ = std::fs::remove_file(wal::wal_file_path(&lane, g));
                continue;
            }
            let report = wal::read_wal(&wal::wal_file_path(&lane, g))?;
            for record in &report.records {
                if record.class != class {
                    return Err(cross_class_replay::<S>(record.class));
                }
                let Ok(Request::IngestBlock {
                    class: body_class,
                    id,
                    interval,
                    meta,
                    payload,
                }) = Request::decode(&record.body)
                else {
                    continue;
                };
                if body_class != class {
                    return Err(cross_class_replay::<S>(body_class));
                }
                if let Ok(block) = decode_block::<S>(id, interval, meta, &payload) {
                    logged.insert(id, block);
                }
            }
            if let Some(seq) = report.next_seq() {
                next_seq = seq;
            }
            live = Some((g, report.valid_len));
        }
        writers.push(match live {
            Some((g, valid_len)) => {
                gen = gen.max(g);
                WalWriter::open_after_recovery(
                    &wal::wal_file_path(&lane, g),
                    valid_len,
                    next_seq,
                    class,
                )?
            }
            None => WalWriter::create(&wal::wal_file_path(&lane, current), next_seq, class)?,
        });
    }

    for (id, block) in logged {
        let expected = state.latest().map_or(BlockId::FIRST, BlockId::next);
        if id < expected {
            continue; // covered by the snapshot
        }
        if id > expected || state.add_block(block).is_err() {
            break; // never appended, or appended but never acked
        }
        obs::incr(Counter::WalReplays);
    }

    let (compact_tx, rx) = mpsc::channel();
    let compacting = Arc::new(AtomicBool::new(false));
    let lanes = WalLanes {
        root: root.to_path_buf(),
        writers,
        gen,
        max_bytes: config.wal_max_bytes.max(1),
        compact_tx,
        compacting: Arc::clone(&compacting),
    };
    let inbox = CompactorInbox {
        root: root.to_path_buf(),
        n_shards,
        compacting,
        rx,
    };
    Ok((lanes, inbox))
}

impl<S: ServableModel> WalLanes<S> {
    /// Appends one block to the lane of its shard, unsynced; returns
    /// the lane for the covering fsync.
    fn append(
        &mut self,
        meta: u32,
        block: &Block<S::Record>,
    ) -> std::result::Result<usize, WireError> {
        let payload =
            S::encode_records(block).map_err(|e| WireError::Other(format!("wal encode: {e}")))?;
        let body = Request::IngestBlock {
            class: S::CLASS.tag(),
            id: block.id(),
            interval: block.interval(),
            meta,
            payload,
        }
        .encode();
        let lane = shard_of(block.id(), self.writers.len());
        match self.writers[lane].append_unsynced(&body) {
            Ok(_) => Ok(lane),
            Err(e) => Err(WireError::Io(format!("wal append: {e}"))),
        }
    }

    /// Rotates every lane to `gen+1` once the lanes' combined live
    /// bytes cross the threshold, then hands the snapshot source to the
    /// compactor. Called only when every appended record is applied (or
    /// was refused and never acked): the snapshot then shadows the old
    /// logs, which the compactor deletes. Skipped while a compaction is
    /// in flight.
    fn maybe_rotate(&mut self, state: &dyn AppliedState<S>) {
        let total: u64 = self.writers.iter().map(WalWriter::bytes).sum();
        if total < self.max_bytes || self.compacting.swap(true, Ordering::SeqCst) {
            return;
        }
        let next_gen = self.gen + 1;
        let n_shards = self.writers.len();
        let rotated: Result<Vec<WalWriter>> = self
            .writers
            .iter()
            .enumerate()
            .map(|(s, writer)| {
                let lane = lane_dir(&self.root, s, n_shards);
                let path = wal::wal_file_path(&lane, next_gen);
                WalWriter::create(&path, writer.next_seq(), S::CLASS.tag())
            })
            .collect();
        // Any failure aborts the whole rotation: keep appending to the
        // old lanes and retry at the next threshold crossing. An
        // already-created empty `wal-<gen+1>.log` is harmless —
        // recovery replays it as an empty generation.
        match rotated.and_then(|rotated| Ok((rotated, state.snapshot_source()?))) {
            Ok((rotated, source)) => {
                self.writers = rotated;
                self.gen = next_gen;
                // A send failure means the compactor died; keep serving
                // — the logs just stop rotating.
                let _ = self.compact_tx.send((next_gen, source));
            }
            Err(_) => self.compacting.store(false, Ordering::SeqCst),
        }
    }
}

/// The compactor: for each rotated generation, save the snapshot
/// atomically, flip `CURRENT`, and delete the shadowed logs and
/// snapshots. A crash anywhere in here is recoverable — before the
/// `CURRENT` flip the old generation chain is intact; after it the new
/// one is.
pub(crate) fn compactor_loop<S: ServableModel>(inbox: &CompactorInbox<S>) {
    let root = &inbox.root;
    while let Ok((gen, source)) = inbox.rx.recv() {
        let result: Result<()> = (|| {
            S::save_snapshot(&source, &wal::snapshot_dir_path(root, gen))?;
            crash_point("mid_compaction");
            wal::write_current(root, gen)
        })();
        if result.is_ok() {
            // The old generations are shadowed by CURRENT=gen; deleting
            // them is cleanup, not correctness (recovery re-deletes).
            for s in 0..inbox.n_shards {
                let lane = lane_dir(root, s, inbox.n_shards);
                for g in wal::list_wal_generations(&lane).unwrap_or_default() {
                    if g < gen {
                        let _ = std::fs::remove_file(wal::wal_file_path(&lane, g));
                    }
                }
            }
            remove_shadowed_snapshots(root, gen);
        }
        inbox.compacting.store(false, Ordering::SeqCst);
    }
}

/// Persists the snapshot source to `dir` all-or-nothing: a failure
/// leaves no partial directory, and the error stays typed end to end.
fn snapshot_to<S: ServableModel>(state: &dyn AppliedState<S>, dir: &str) -> Response {
    match state
        .snapshot_source()
        .and_then(|source| S::save_snapshot(&source, Path::new(dir)))
    {
        Ok(blocks) => Response::SnapshotDone(blocks),
        Err(DemonError::Io(e)) => Response::Err(WireError::Io(format!("snapshot to {dir}: {e}"))),
        Err(e) => Response::Err(WireError::Other(format!("snapshot to {dir}: {e}"))),
    }
}

/// The sequencer thread: see the module docs for the contract.
pub(crate) fn sequencer_loop<S: ServableModel>(
    hub: &Hub<S>,
    mut state: Box<dyn AppliedState<S>>,
    mut lanes: Option<WalLanes<S>>,
) {
    let mut epoch = hub.replica.load().epoch;
    let mut poisoned = false;
    while let Some(batch) = hub.queue.next_batch() {
        // WAL first: a block must be durable before it can be acked.
        // `appended[i]` is the lane batch[i] went to, or why it failed.
        let mut next = state.latest().map_or(BlockId::FIRST, BlockId::next);
        let mut appended: Vec<std::result::Result<Option<usize>, WireError>> =
            Vec::with_capacity(batch.len());
        for task in &batch {
            let Task::Ingest { block, .. } = task else {
                appended.push(Ok(None));
                continue;
            };
            crash_point("before_append");
            appended.push(match lanes.as_mut() {
                Some(l) if block.id() == next && !poisoned => {
                    next = next.next();
                    l.append(hub.meta, block).map(Some)
                }
                _ => Ok(None),
            });
        }
        for (lane, writer) in lanes
            .iter_mut()
            .flat_map(|l| l.writers.iter_mut().enumerate())
        {
            if !appended.contains(&Ok(Some(lane))) {
                continue;
            }
            if let Err(e) = writer.sync() {
                // Nothing this fsync covered is durable, so none of it
                // may be applied or acked Ok.
                for a in appended.iter_mut().filter(|a| **a == Ok(Some(lane))) {
                    *a = Err(WireError::Io(format!("wal sync: {e}")));
                }
            }
        }

        // The old logs may only be shadowed by a snapshot that holds
        // every block of theirs that gets acked, so within a batch only
        // the last logged block may rotate (`None`: nothing logged).
        let last_logged = appended.iter().rposition(|a| matches!(a, Ok(Some(_))));
        for (i, (task, appended)) in batch.into_iter().zip(appended).enumerate() {
            let (block, done) = match task {
                Task::Ingest { block, done } => (block, done),
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
                    hub.blocks.fetch_add(1, Ordering::SeqCst);
                    obs::incr(Counter::ServeShardIngests);
                    epoch += 1;
                    let replica = state.replica(epoch);
                    let max = replica.shard_blocks.iter().copied().max().unwrap_or(0);
                    let min = replica.shard_blocks.iter().copied().min().unwrap_or(0);
                    obs::record_max(Counter::ServeShardImbalance, max - min);
                    hub.replica.store(replica);
                    if let Some(l) = lanes.as_mut().filter(|_| last_logged <= Some(i)) {
                        l.maybe_rotate(state.as_ref());
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

    /// A durable config over a fresh directory.
    fn config(name: &str, shards: usize) -> ServeConfig {
        let dir = std::env::temp_dir().join(format!("demon-seq-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ServeConfig::new("127.0.0.1:0", 8, MinSupport::new(0.1).unwrap());
        config.shards = shards;
        config.wal_dir = Some(dir);
        config
    }

    fn reopen(
        config: &ServeConfig,
    ) -> (State, WalLanes<ItemsetModel>, CompactorInbox<ItemsetModel>) {
        let mut state: State = if config.shards == 1 {
            Box::new(MonitorState::<ItemsetModel>::new(config).expect("state"))
        } else {
            Box::new(ShardSet::<ItemsetModel>::new(config).expect("state"))
        };
        let root = config.wal_dir.as_ref().expect("durable config");
        let (lanes, inbox) =
            recover::<ItemsetModel>(root, config, state.as_mut()).expect("recover");
        (state, lanes, inbox)
    }

    /// Queues `ids` and runs the sequencer over them as one batch, then
    /// the compactor over whatever that rotated; returns the answers and
    /// the fsyncs the sequencer spent.
    fn run_one_batch(config: &ServeConfig, ids: &[u64]) -> (Hub<ItemsetModel>, Vec<Response>, u64) {
        obs::enable();
        let (state, lanes, inbox) = reopen(config);
        let hub = Hub::<ItemsetModel>::new(config, "127.0.0.1:1".parse().unwrap(), state.as_ref());
        let slots: Vec<Arc<Pending>> = ids
            .iter()
            .map(|&id| {
                let done = Arc::new(Pending::new(std::thread::current()));
                let task = Task::Ingest {
                    block: block(id),
                    done: Arc::clone(&done),
                };
                let gauge = &hub.shard_pending[shard_of(BlockId(id), config.shards)];
                assert!(hub.queue.try_submit(task, Some(gauge)).is_ok());
                done
            })
            .collect();
        hub.begin_shutdown();
        let fsyncs = obs::counter_value(Counter::WalFsyncs);
        sequencer_loop(&hub, state, Some(lanes));
        let fsyncs = obs::counter_value(Counter::WalFsyncs) - fsyncs;
        compactor_loop(&inbox);
        let answers = slots.iter().map(|s| s.take().expect("answered")).collect();
        (hub, answers, fsyncs)
    }

    /// A burst already queued when the sequencer wakes is one batch: six
    /// blocks over four lanes cost four covering fsyncs, every block is
    /// acked in arrival order, a queued duplicate is refused without
    /// touching a log, and the lanes recover to the same six blocks.
    #[test]
    fn a_queued_burst_is_one_batch_with_one_fsync_per_touched_lane() {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let config = config("gc", 4);
        let (hub, answers, fsyncs) = run_one_batch(&config, &[1, 2, 3, 4, 5, 6, 3]);
        assert_eq!(fsyncs, 4);

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

        let (state, ..) = reopen(&config);
        assert_eq!(state.latest(), Some(BlockId(6)));
        let _ = std::fs::remove_dir_all(config.wal_dir.unwrap());
    }

    /// A batch whose first block already crosses `wal_max_bytes` still
    /// rotates only once its last block is applied: the compaction's
    /// snapshot shadows logs that hold the whole batch, so it must hold
    /// the whole batch too — every acked block survives the restart.
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
                assert_eq!(wal::read_current(&root).unwrap(), 1, "rotated once");
                let (state, ..) = reopen(&config);
                assert_eq!(
                    state.latest(),
                    Some(BlockId(6)),
                    "shards={shards} wal_max_bytes={max_bytes}"
                );
                let _ = std::fs::remove_dir_all(root);
            }
        }
    }
}
