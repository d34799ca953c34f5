//! `ingest_durable` — one connection streams 500-transaction blocks
//! into a `shards = 1` daemon with a write-ahead log.
//!
//! The README-default durable path: every ack waits for the block's WAL
//! record to be appended and fsynced, then for the monitor to apply it.
//! `serve.protocol` decode, `types.wal` append + fsync, `core.monitor`
//! apply and the ingester hand-off do all the work; replicas, the event
//! loop and GEMM are idle.
//!
//! Set-up is the durable life cycle: bind on an empty WAL directory,
//! ingest the prefix, shut down, **re-bind on the same directory** (WAL
//! recovery) and reconnect.

use super::PATTERN_WINDOW;
use super::{batch_model_json, ingest_segment, remove_dir, Ctx, Outcome, Plan, Round};
use crate::gen::{self, N_ITEMS};
use crate::trace::Lane;
use demon_serve::{Client, RetryPolicy, ServeConfig, Server};
use demon_types::obs;
use demon_types::wal;
use demon_types::{DemonError, TxBlock};
use std::net::SocketAddr;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Op counts: ≈ 2.8 ms per durable ingest ⇒ ≈ 0.5 s per segment, and
/// rounds short enough that eight fit a run: a daemon instance as a
/// whole lands in a faster or a slower mode (thread placement, the
/// host's phase), so the floor is found by more instances, not by
/// longer ones (five runs of `query_mixed` in a noisy hour spread
/// 16–22 % with five rounds and 2–11 % with eight). The 604 blocks of a round (≈ 4.7 MiB of WAL)
/// stay below the default 8 MiB rotation, and a gate checks it: a
/// compaction snapshots the whole store under the monitor's read lock
/// and blocks ingest for 1.2–2.7 s per 1024 blocks on the reference
/// host — disk time that varied by a factor of two between rounds of
/// one run. The end-to-end metrics are the steady state; the stall is
/// measured per layer (`serve.server.ingest_stall_max_ms`).
pub const PLAN: Plan = Plan {
    round_seconds: 2.5,
    segments: 3,
    ingests_per_segment: 180,
    prefix: 64,
};

/// Client connections (and client threads) of this workload.
pub const CLIENT_THREADS: usize = 1;

/// The daemon under test: README defaults plus a WAL directory and the
/// bounded pattern window every workload uses.
pub fn config(wal_dir: &Path) -> ServeConfig {
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, gen::minsup());
    config.wal_dir = Some(wal_dir.to_path_buf());
    config.pattern_window = Some(PATTERN_WINDOW);
    config
}

/// A running daemon and the thread serving it.
pub struct Daemon {
    /// Where it listens.
    pub addr: SocketAddr,
    handle: JoinHandle<Result<demon_serve::ServeSummary, DemonError>>,
}

impl Daemon {
    /// Binds (recovering from the WAL directory, if any) and serves.
    pub fn start(config: ServeConfig) -> Daemon {
        let server = Server::bind(config).expect("bind daemon on an ephemeral port");
        let addr = server.local_addr();
        let handle = std::thread::Builder::new()
            .name("daemon".to_string())
            .spawn(move || server.run())
            .expect("spawn daemon thread");
        Daemon { addr, handle }
    }

    /// Sends `Shutdown` over `client` and waits for the daemon to drain.
    pub fn stop(self, client: &mut Client) {
        client.shutdown().expect("graceful shutdown");
        self.handle
            .join()
            .expect("daemon thread panicked")
            .expect("daemon run");
    }
}

/// A client that never retries: a transport fault or a `Busy` is a
/// failed op, not a silently repeated one.
pub fn connect(addr: SocketAddr) -> Client {
    Client::connect_with(addr, Duration::from_secs(30), RetryPolicy::none())
        .expect("connect to the daemon")
}

/// Runs the workload.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let plan = ctx.plan;
    let blocks = gen::tx_stream(ctx.seed, plan.blocks_per_round());
    let (prefix, timed) = blocks.split_at(plan.prefix);
    let prefix_reference = batch_model_json(prefix);
    let final_reference = batch_model_json(&blocks);

    let mut out = Outcome::default();
    let mut lane = Lane::new(Instant::now(), 1, ctx.traced);
    for round in 0..ctx.rounds {
        let dir = ctx.scratch.join(format!("wal-{round}"));
        remove_dir(&dir);
        let (setup, daemon, mut client) = set_up(&dir, prefix);
        out.gate(
            client
                .query_model_json()
                .is_ok_and(|json| json == prefix_reference),
            || format!("round {round}: model after WAL recovery differs from the batch mine"),
        );

        let mut record = Round {
            setup,
            segments: Vec::with_capacity(plan.segments),
        };
        let mut feed = timed.iter();
        for s in 0..plan.segments {
            let op_base = ((round * plan.segments + s) * plan.ingests_per_segment) as u64;
            record.segments.push(ingest_segment(
                plan.ingests_per_segment,
                &mut lane,
                op_base,
                &mut out,
                |lane, op, op_id| {
                    let block = feed.next().expect("a block per planned ingest");
                    lane.span("serve.client.ingest", op, op_id, || {
                        client.ingest(N_ITEMS, block).is_ok()
                    })
                },
            ));
        }

        out.gate(
            client
                .query_model_json()
                .is_ok_and(|json| json == final_reference),
            || format!("round {round}: served model differs from the batch mine"),
        );
        daemon.stop(&mut client);
        out.gate(wal::read_current(&dir).unwrap_or(0) == 0, || {
            format!("round {round}: the WAL rotated inside the timed part")
        });
        remove_dir(&dir);
        // Server::bind enabled the recorder; leave it as a fresh process has it.
        obs::reset();
        out.push_round(record);
    }
    out.spans = lane.into_spans();
    out
}

/// Create → prefix → shutdown → recover → reconnect, timed as one.
fn set_up(dir: &Path, prefix: &[TxBlock]) -> (Duration, Daemon, Client) {
    let t0 = Instant::now();
    let first = Daemon::start(config(dir));
    let mut client = connect(first.addr);
    for block in prefix {
        client.ingest(N_ITEMS, block).expect("prefix ingest");
    }
    first.stop(&mut client);
    let daemon = Daemon::start(config(dir));
    let client = connect(daemon.addr);
    (t0.elapsed(), daemon, client)
}
