//! Restarting a durable daemon, in process: whatever the data span, a
//! daemon that is stopped and bound again over its `--wal-dir` serves
//! what it served — the write-ahead log is the only durable state, and
//! rotation may only ever drop what no window can still need.
//!
//! Every stream here is a pure function of the block id, so a daemon
//! restarted at any prefix is fed exactly what an uninterrupted one was.

use demon::serve::{Client, ServeConfig, Server, ServeSummary};
use demon::trees::LabeledPoint;
use demon::types::wal::{self, WalWriter};
use demon::types::{
    Block, BlockId, DemonError, Item, MinSupport, ModelClass, Point, Tid, Transaction, TxBlock,
};
use std::path::{Path, PathBuf};

const N_ITEMS: u32 = 64;
const DIM: usize = 2;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("demon-restart-test-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Transaction block `id`: 24 baskets whose items shift with the regime
/// `id / 3` is in, so block similarity (and with it the compact
/// sequences) has structure.
fn tx_block(id: u64) -> TxBlock {
    let regime = (id / 3 % 2) as u32 * 12;
    let txs = (0..24u64)
        .map(|i| {
            let mut items = vec![regime + (i % 5) as u32, regime + 5 + (i % 3) as u32];
            if i % 4 == 0 {
                items.push(30 + (id % 3) as u32);
            }
            Transaction::new(Tid(id * 100 + i), items.into_iter().map(Item).collect())
        })
        .collect();
    Block::new(BlockId(id), txs)
}

/// Point block `id`: four tight groups on the diagonal, moved a little
/// per block and further per regime.
fn point_block(id: u64) -> Block<Point> {
    let shift = (id / 3 % 2) as f64 * 40.0;
    let pts = (0..32u64)
        .map(|i| {
            let c = (i % 4) as f64 * 25.0 + shift;
            let j = ((id * 13 + i * 7) % 11) as f64 * 0.1;
            Point::new(vec![c + j, c - j])
        })
        .collect();
    Block::new(BlockId(id), pts)
}

/// Labeled block `id`: two separated classes, jittered per block.
fn labeled_block(id: u64) -> Block<LabeledPoint> {
    let recs = (0..24u64)
        .map(|i| {
            let label = (i % 2) as u32;
            let base = f64::from(label) * 50.0 + (id / 3 % 2) as f64 * 7.0;
            let j = ((id * 17 + i * 5) % 13) as f64 * 0.3;
            LabeledPoint::new(vec![base + j, base - j], label)
        })
        .collect();
    Block::new(BlockId(id), recs)
}

/// A durable daemon config of `model` over `wal_dir`, rotating at
/// `wal_max_bytes`.
fn config(model: ModelClass, wal_dir: &Path, wal_max_bytes: u64) -> ServeConfig {
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, MinSupport::new(0.05).unwrap());
    config.model = model;
    config.dim = DIM;
    config.workers = 1;
    config.wal_dir = Some(wal_dir.to_path_buf());
    config.wal_max_bytes = wal_max_bytes;
    config
}

/// An in-process daemon and a client connected to it.
struct Daemon {
    class: ModelClass,
    client: Client,
    handle: std::thread::JoinHandle<demon::types::Result<ServeSummary>>,
}

impl Daemon {
    fn start(config: ServeConfig) -> Daemon {
        Daemon::try_start(config).expect("bind")
    }

    fn try_start(config: ServeConfig) -> demon::types::Result<Daemon> {
        let class = config.model;
        let server = Server::bind(config)?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let client = Client::connect(addr).expect("connect");
        Ok(Daemon {
            class,
            client,
            handle,
        })
    }

    /// Streams block `id` of the class's stream.
    fn ingest(&mut self, id: u64) {
        let dim = DIM as u32;
        match self.class {
            ModelClass::Itemsets => self.client.ingest(N_ITEMS, &tx_block(id)),
            ModelClass::Clusters => self.client.ingest_points(dim, &point_block(id)),
            ModelClass::Density => self.client.ingest_density(dim, &point_block(id)),
            ModelClass::Trees => self.client.ingest_labeled(dim, &labeled_block(id)),
        }
        .unwrap_or_else(|e| panic!("ingest of D{id}: {e}"));
    }

    /// `(QueryModel body, QuerySequences body)`; before the first block
    /// a windowed daemon has no model yet, which reads as its refusal.
    fn answers(&mut self) -> (String, Vec<Vec<BlockId>>) {
        let model = self
            .client
            .query_model_json_for(self.class)
            .unwrap_or_else(|e| format!("no model: {e}"));
        (model, self.client.query_sequences().expect("query-sequences"))
    }

    fn stop(mut self) -> ServeSummary {
        self.client.shutdown().expect("shutdown acked");
        self.handle.join().expect("server thread").expect("run ok")
    }
}

/// Twelve blocks into a `--window 3` daemon whose segments hold two or
/// three blocks each, a clean shutdown, and a second bind over the same
/// directory: it must come up and answer as it did.
fn windowed_daemon_restarts(model: ModelClass, name: &str) {
    let dir = tmp(name);
    let mut config = config(model, &dir, 2048);
    config.window = Some(3);
    let mut first = Daemon::start(config.clone());
    for id in 1..=12 {
        first.ingest(id);
    }
    let served = first.answers();
    assert_eq!(first.stop().blocks, 12);

    let mut second = Daemon::start(config);
    assert_eq!(second.answers(), served, "[{name}] answers changed across the restart");
    second.ingest(13);
    second.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn windowed_itemset_daemon_restarts_after_rotating() {
    windowed_daemon_restarts(ModelClass::Itemsets, "gemm");
}

#[test]
fn windowed_dbscan_daemon_restarts_after_rotating() {
    windowed_daemon_restarts(ModelClass::Density, "sliding");
}

/// A flipped byte in the middle of a generation that is not the lane's
/// newest is damage inside the acknowledged stream, not a torn tail:
/// six of the twelve acked blocks are behind it. Binding must refuse
/// with `Corrupt` naming the file, not come up with half the stream.
#[test]
fn damage_in_the_middle_of_the_log_refuses_to_bind() {
    let dir = tmp("midlog");
    let config = config(ModelClass::Itemsets, &dir, 8 << 20);
    let mut daemon = Daemon::start(config.clone());
    for id in 1..=12 {
        daemon.ingest(id);
    }
    daemon.stop();

    let log = wal::wal_file_path(&dir, 0);
    let mut bytes = std::fs::read(&log).expect("wal-0.log");
    let records = wal::decode_wal_records(&bytes, "wal-0.log").records.len() as u64;
    assert_eq!(records, 12, "one record per acked block");
    WalWriter::create(&wal::wal_file_path(&dir, 1), records, ModelClass::Itemsets.tag())
        .expect("empty wal-1.log");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&log, &bytes).expect("damage written");

    match Daemon::try_start(config) {
        Err(DemonError::Corrupt { file, .. }) => assert!(file.ends_with("wal-0.log"), "{file}"),
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(mut daemon) => {
            let stats = daemon.client.stats_json().expect("stats");
            daemon.stop();
            let blocks = stats.split(',').next().unwrap_or_default();
            panic!("bound over a damaged log and serves {blocks} of 12 acked blocks");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
