//! The stage replay of a traced run: the same generated blocks pushed
//! through each layer's public functions **in isolation**, with a
//! harness span around every call and the program's own `obs` counters
//! read before and after.
//!
//! The replay is the same for every workload (it depends only on the
//! seed), so a traced run of any workload reports every per-layer
//! metric; the workload's own run adds its spans, the tracing overhead
//! and the noise readings.

use crate::gen::{self, N_ITEMS};
use crate::stats::{median, quantile};
use crate::trace::{Lane, Span};
use crate::workloads::ingest_durable::{connect, Daemon};
use crate::workloads::{class_sweep, gemm_window, ingest_durable, query_mixed, remove_dir};
use crate::workloads::{ObsDelta, PATTERN_WINDOW, WINDOW};
use demon_clustering::{Birch, IncrementalDbscan};
use demon_core::bss::WiBss;
use demon_core::engine::DataSpan;
use demon_core::DemonEngine;
use demon_focus::deviation::{
    cluster_deviation, dbscan_deviation, itemset_deviation, tree_deviation,
};
use demon_itemsets::{count_supports_with, CounterKind, FrequentItemsets, TxStore};
use demon_serve::shard::{ReplicaCell, ShardSet};
use demon_serve::{ItemsetModel, Request, ServableModel, Server};
use demon_store::StoreConfig;
use demon_trees::DecisionTree;
use demon_types::obs::{self, Counter};
use demon_types::wal::{self, WalWriter};
use demon_types::{BlockId, ItemSet, ModelClass, Parallelism, TxBlock};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Blocks applied before a stage's timed part.
const WARM: usize = 32;
/// Blocks a stage times.
const TIMED: usize = 96;
/// Ticks the class stage times.
const CLASS_TICKS: usize = 64;
/// Round trips per RTT-floor probe.
const RTT_PROBES: usize = 400;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs every stage; returns the layer metrics and one span per layer
/// call.
pub fn replay(seed: u64, scratch: &Path, quick: bool) -> (Layers, Vec<Span>) {
    let epoch = Instant::now();
    let lane = &mut Lane::new(epoch, 9, true);
    let (warm, timed, ticks, probes) = if quick {
        (4, 12, 8, 40)
    } else {
        (WARM, TIMED, CLASS_TICKS, RTT_PROBES)
    };
    let mut layers = Layers::new();
    obs::enable();

    let t = Instant::now();
    let blocks = gen::tx_stream(seed, warm + timed);
    layers.insert(
        "datagen.gen_ms_per_block",
        t.elapsed().as_secs_f64() * 1e3 / blocks.len() as f64,
    );

    protocol_and_wal(&blocks[warm..], scratch, lane, &mut layers);
    recovery(&blocks[..warm], scratch, lane, &mut layers);
    let durable_p50 = compaction(&blocks, warm, scratch, lane, &mut layers);
    monitor_and_engine(&blocks, warm, scratch, lane, &mut layers);
    shards(&blocks, warm, lane, &mut layers);
    counting(&blocks, warm, lane, &mut layers);
    budgeted_store(&blocks, warm, scratch, lane, &mut layers);
    classes(seed, ticks, lane, &mut layers);
    rtt_floors(&blocks[..warm], probes, lane, &mut layers);
    let mut spans = std::mem::replace(lane, Lane::off()).into_spans();
    spans.extend(reads_beside_writes(&blocks, warm, epoch, &mut layers));

    // What the stages do not explain of a durable ingest: queue
    // hand-off, lock, ack, socket.
    let explained: f64 = [
        "serve.protocol.decode_us",
        "types.wal.append_us",
        "types.wal.sync_us",
        "core.monitor.add_block_us",
    ]
    .iter()
    .map(|name| layers[name])
    .sum();
    layers.insert("serve.server.ingest_residual_us", durable_p50 - explained);

    obs::disable();
    obs::reset();
    (layers, spans)
}

/// `serve.protocol.*` and `types.wal.{append,sync,bytes}`: what one
/// block costs to encode, decode, append and fsync.
fn protocol_and_wal(blocks: &[TxBlock], scratch: &Path, lane: &mut Lane, layers: &mut Layers) {
    let dir = scratch.join("stage-wal");
    remove_dir(&dir);
    std::fs::create_dir_all(&dir).expect("create stage WAL dir");
    let class = ModelClass::Itemsets.tag();
    let mut writer =
        WalWriter::create(&wal::wal_file_path(&dir, 0), 0, class).expect("create stage WAL");
    let (mut enc, mut dec, mut app, mut sync) = (vec![], vec![], vec![], vec![]);
    let mut wire_bytes = 0usize;
    for (i, block) in blocks.iter().enumerate() {
        let op = lane.begin("replay.durable_block", 0, i as u64);
        let t = Instant::now();
        let body = lane.span("serve.protocol.encode", op, i as u64, || {
            Request::IngestBlock {
                class,
                id: block.id(),
                interval: block.interval(),
                meta: N_ITEMS,
                payload: ItemsetModel::encode_records(block).expect("encode records"),
            }
            .encode()
        });
        enc.push(us(t.elapsed()));
        wire_bytes += body.len();

        let t = Instant::now();
        let records = lane.span(
            "serve.protocol.decode",
            op,
            i as u64,
            || match Request::decode(&body).expect("decode own request") {
                Request::IngestBlock {
                    id, meta, payload, ..
                } => ItemsetModel::decode_records(&payload, id, meta).expect("decode records"),
                other => panic!("decoded {other:?} from an IngestBlock"),
            },
        );
        dec.push(us(t.elapsed()));
        assert_eq!(records.len(), block.len(), "decode lost records");

        let t = Instant::now();
        lane.span("types.wal.append", op, i as u64, || {
            writer.append_unsynced(&body).expect("wal append")
        });
        app.push(us(t.elapsed()));
        let t = Instant::now();
        lane.span("types.wal.sync", op, i as u64, || {
            writer.sync().expect("wal sync")
        });
        sync.push(us(t.elapsed()));
        lane.end(op);
    }
    let n = blocks.len() as f64;
    layers.insert("serve.protocol.encode_us", median(&mut enc));
    layers.insert("serve.protocol.decode_us", median(&mut dec));
    layers.insert("serve.protocol.bytes_per_block", wire_bytes as f64 / n);
    layers.insert("types.wal.append_us", median(&mut app));
    layers.insert("types.wal.sync_us", median(&mut sync));
    layers.insert("types.wal.sync_tail_us", quantile(&mut sync, 0.9));
    layers.insert("types.wal.bytes_per_block", writer.bytes() as f64 / n);
    drop(writer);
    remove_dir(&dir);
}

/// `types.wal.fsyncs_per_block`, `types.wal.replay_ms` and
/// `serve.server.recover_ms`: the durable daemon's fsyncs while it
/// ingests the prefix, reading back the prefix log, and a whole
/// `Server::bind` on the populated directory.
fn recovery(prefix: &[TxBlock], scratch: &Path, lane: &mut Lane, layers: &mut Layers) {
    let dir = scratch.join("stage-recover");
    remove_dir(&dir);
    let daemon = Daemon::start(ingest_durable::config(&dir));
    let mut client = connect(daemon.addr);
    let fsyncs = ObsDelta::start();
    for block in prefix {
        client.ingest(N_ITEMS, block).expect("prefix ingest");
    }
    layers.insert(
        "types.wal.fsyncs_per_block",
        fsyncs.of(Counter::WalFsyncs) / prefix.len() as f64,
    );
    daemon.stop(&mut client);

    let log = wal::wal_file_path(&dir, wal::read_current(&dir).unwrap_or(0));
    let mut replay = vec![];
    let mut recover = vec![];
    for rep in 0..3u64 {
        let t = Instant::now();
        let report = lane.span("types.wal.replay", 0, rep, || {
            wal::read_wal(&log).expect("read WAL")
        });
        replay.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(report.records.len(), prefix.len(), "WAL lost records");
        let t = Instant::now();
        let server = lane.span("serve.server.recover", 0, rep, || {
            Server::bind(ingest_durable::config(&dir)).expect("recovering bind")
        });
        recover.push(t.elapsed().as_secs_f64() * 1e3);
        drop(server);
    }
    layers.insert("types.wal.replay_ms", median(&mut replay));
    layers.insert("serve.server.recover_ms", median(&mut recover));
    remove_dir(&dir);
}

/// `serve.server.compactions` and `serve.server.ingest_stall_max_ms`:
/// the durable daemon with the WAL rotation threshold lowered to half
/// the replayed stream, so that it compacts while blocks keep arriving.
/// The compactor snapshots the whole store under the monitor's read
/// lock, so the slowest ack is the stall a compaction costs — here with
/// a store of a few dozen blocks; it grows with the store (one fsynced
/// file pair per block). Returns the median ack latency of the blocks
/// after `warm`, in µs: a few stalled acks do not move it, so it is the
/// durable ingest the other stages take apart.
fn compaction(
    blocks: &[TxBlock],
    warm: usize,
    scratch: &Path,
    lane: &mut Lane,
    layers: &mut Layers,
) -> f64 {
    let dir = scratch.join("stage-compact");
    remove_dir(&dir);
    let mut config = ingest_durable::config(&dir);
    let wal_bytes: usize = blocks
        .iter()
        .map(|b| ItemsetModel::encode_records(b).map_or(0, |payload| payload.len()))
        .sum();
    config.wal_max_bytes = (wal_bytes / 2) as u64;
    let daemon = Daemon::start(config);
    let mut client = connect(daemon.addr);
    let mut acks = Vec::with_capacity(blocks.len());
    for (i, block) in blocks.iter().enumerate() {
        let t = Instant::now();
        lane.span("serve.client.ingest", 0, i as u64, || {
            client
                .ingest(N_ITEMS, block)
                .expect("ingest across a compaction")
        });
        acks.push(us(t.elapsed()));
    }
    daemon.stop(&mut client);
    layers.insert(
        "serve.server.compactions",
        wal::read_current(&dir).unwrap_or(0) as f64,
    );
    layers.insert(
        "serve.server.ingest_stall_max_ms",
        acks.iter().copied().fold(0.0, f64::max) / 1e3,
    );
    remove_dir(&dir);
    median(&mut acks[warm..])
}

/// `core.monitor.add_block_us`, `core.engine.add_block_us`, their
/// difference `focus.step_us`, `types.parallel.regions_per_block` and
/// `serve.server.snapshot_ms` (a snapshot of the replayed store).
fn monitor_and_engine(
    blocks: &[TxBlock],
    warm: usize,
    scratch: &Path,
    lane: &mut Lane,
    layers: &mut Layers,
) {
    // Exactly the monitor the 1-shard daemon builds, and its engine alone.
    let config = ingest_durable::config(scratch);
    let mut monitor = ItemsetModel::build_monitor(&config).expect("monitor");
    let mut engine = DemonEngine::new(
        ItemsetModel::maintainer(&config).expect("maintainer"),
        DataSpan::Unrestricted(WiBss::All),
    )
    .expect("engine");
    let (mut mon, mut eng) = (vec![], vec![]);
    let mut regions = ObsDelta::start();
    for (i, block) in blocks.iter().enumerate() {
        if i == warm {
            regions = ObsDelta::start();
        }
        let op = lane.begin("replay.apply_block", 0, i as u64);
        let (for_monitor, for_engine) = (block.clone(), block.clone());
        let t = Instant::now();
        lane.span("core.monitor.add_block", op, i as u64, || {
            monitor.add_block(for_monitor).expect("monitor add_block")
        });
        let m = us(t.elapsed());
        let t = Instant::now();
        lane.span("core.engine.add_block", op, i as u64, || {
            engine.add_block(for_engine).expect("engine add_block")
        });
        let e = us(t.elapsed());
        lane.end(op);
        if i >= warm {
            mon.push(m);
            eng.push(e);
        }
    }
    let (m, e) = (median(&mut mon), median(&mut eng));
    layers.insert("core.monitor.add_block_us", m);
    layers.insert("core.engine.add_block_us", e);
    layers.insert("focus.step_us", m - e);
    layers.insert(
        "types.parallel.regions_per_block",
        regions.of(Counter::ParallelRegions) / (2 * (blocks.len() - warm)) as f64,
    );

    let dir = scratch.join("stage-snapshot");
    remove_dir(&dir);
    let t = Instant::now();
    let saved = lane.span("serve.server.snapshot", 0, 0, || {
        ItemsetModel::save_snapshot(monitor.engine().maintainer(), &dir).expect("snapshot")
    });
    layers.insert("serve.server.snapshot_ms", t.elapsed().as_secs_f64() * 1e3);
    assert_eq!(saved as usize, blocks.len(), "snapshot lost blocks");
    remove_dir(&dir);
}

/// `serve.shard.*`: the sequencer's apply, the replica publish, and the
/// first (lazy) render of each epoch.
fn shards(blocks: &[TxBlock], warm: usize, lane: &mut Lane, layers: &mut Layers) {
    let config = query_mixed::config();
    let mut set = ShardSet::<ItemsetModel>::new(&config).expect("shard set");
    let cell = ReplicaCell::new(set.replica(0));
    let (mut add, mut publish, mut render) = (vec![], vec![], vec![]);
    let mut render_bytes = 0usize;
    for (i, block) in blocks.iter().enumerate() {
        let op = lane.begin("replay.shard_block", 0, i as u64);
        let owned = block.clone();
        let t = Instant::now();
        lane.span("serve.shard.add_block", op, i as u64, || {
            set.add_block(owned).expect("shard add_block")
        });
        let a = us(t.elapsed());
        let t = Instant::now();
        lane.span("serve.shard.publish", op, i as u64, || {
            cell.store(set.replica(i as u64 + 1));
        });
        let p = us(t.elapsed());
        let t = Instant::now();
        let len = lane.span("serve.shard.render", op, i as u64, || {
            cell.load().model_json().expect("render").len()
        });
        let r = us(t.elapsed());
        lane.end(op);
        if i >= warm {
            add.push(a);
            publish.push(p);
            render.push(r);
            render_bytes += len;
        }
    }
    layers.insert("serve.shard.add_block_us", median(&mut add));
    layers.insert("serve.shard.publish_us", median(&mut publish));
    layers.insert("serve.shard.render_us", median(&mut render));
    layers.insert(
        "serve.shard.render_bytes",
        render_bytes as f64 / render.len() as f64,
    );
}

/// The counters one serial counting pass moves.
const COUNT_COUNTERS: [Counter; 5] = [
    Counter::CandidatesProbed,
    Counter::TidsScanned,
    Counter::IntersectMerge,
    Counter::IntersectGallop,
    Counter::IntersectBitset,
];

/// `itemsets.*`, `core.gemm.*` and `types.parallel.speedup_2t`: a GEMM
/// engine over the window (models touched and shelf traffic per
/// block), registering each block in a store, then counting the
/// engine's live border over the window — serially and at two threads.
fn counting(blocks: &[TxBlock], warm: usize, lane: &mut Lane, layers: &mut Layers) {
    let mut engine = gemm_window::engine();
    let mut store = TxStore::new(N_ITEMS);
    let (mut add, mut count) = (vec![], vec![]);
    let (mut serial, mut two) = (Duration::ZERO, Duration::ZERO);
    let mut moved = [0f64; COUNT_COUNTERS.len()];
    let gemm = ObsDelta::start();
    for (i, block) in blocks.iter().enumerate() {
        let op = lane.begin("replay.count_block", 0, i as u64);
        let owned = block.clone();
        lane.span("core.gemm.add_block", op, i as u64, || {
            engine.add_block(owned).expect("window engine")
        });
        let owned = block.clone();
        let t = Instant::now();
        lane.span("itemsets.store.add_block", op, i as u64, || {
            store.add_block(owned)
        });
        let a = us(t.elapsed());
        if i < warm {
            lane.end(op);
            continue;
        }
        // The live border of the current window model, over that window.
        let model = engine.current_model().expect("window model");
        let mut candidates: Vec<ItemSet> = model
            .frequent()
            .keys()
            .chain(model.border().keys())
            .cloned()
            .collect();
        candidates.sort();
        let first = block.id().value() + 1 - WINDOW as u64;
        let window: Vec<BlockId> = (first..=block.id().value()).map(BlockId).collect();
        let before = ObsDelta::start();
        let t = Instant::now();
        let counted = lane.span("itemsets.counter.count", op, i as u64, || {
            count_supports_with(
                CounterKind::Ecut,
                &store,
                &window,
                &candidates,
                Parallelism::serial(),
            )
        });
        let c = t.elapsed();
        lane.end(op);
        for (total, &counter) in moved.iter_mut().zip(&COUNT_COUNTERS) {
            *total += before.of(counter);
        }
        add.push(a);
        count.push(us(c));
        serial += c;

        let t = Instant::now();
        let twice = count_supports_with(
            CounterKind::Ecut,
            &store,
            &window,
            &candidates,
            Parallelism::new(2),
        );
        two += t.elapsed();
        assert_eq!(
            counted.counts, twice.counts,
            "2-thread counts differ from serial"
        );
    }
    let n = count.len() as f64;
    let [candidates, tids, merge, gallop, bitset] = moved;
    let kernels = (merge + gallop + bitset).max(1.0);
    layers.insert("itemsets.store.add_block_us", median(&mut add));
    layers.insert("itemsets.counter.count_us", median(&mut count));
    layers.insert("itemsets.counter.candidates_per_block", candidates / n);
    layers.insert("itemsets.counter.tids_per_block", tids / n);
    layers.insert("itemsets.tidlist.tids_per_us", tids / us(serial).max(1.0));
    layers.insert("itemsets.tidlist.merge_share", merge / kernels);
    layers.insert("itemsets.tidlist.gallop_share", gallop / kernels);
    layers.insert("itemsets.tidlist.bitset_share", bitset / kernels);
    layers.insert(
        "types.parallel.speedup_2t",
        serial.as_secs_f64() / two.as_secs_f64().max(1e-9),
    );
    let fed = blocks.len() as f64;
    layers.insert(
        "core.gemm.models_per_block",
        (gemm.of(Counter::GemmProjections) + gemm.of(Counter::GemmShifts)) / fed,
    );
    layers.insert("core.gemm.shelf_hits", gemm.of(Counter::ShelfHits) / fed);
    layers.insert(
        "core.gemm.shelf_misses",
        gemm.of(Counter::ShelfMisses) / fed,
    );
}

/// `store.*`: the block store under a byte budget of half the window.
fn budgeted_store(
    blocks: &[TxBlock],
    warm: usize,
    scratch: &Path,
    lane: &mut Lane,
    layers: &mut Layers,
) {
    // Size the budget from what a window really occupies.
    let mut sizing = TxStore::new(N_ITEMS);
    for block in &blocks[..WINDOW.min(blocks.len())] {
        sizing.add_block(block.clone());
    }
    let budget = sizing.resident_bytes() / 2;
    let dir = scratch.join("stage-spill");
    remove_dir(&dir);
    let mut store = TxStore::with_config(N_ITEMS, &StoreConfig::budget(dir.clone(), budget))
        .expect("budgeted store");
    let (mut insert, mut hit, mut miss) = (vec![], vec![], vec![]);
    // `store.bytes_resident` is a process-wide high-water mark: forget
    // what the earlier stages' in-memory stores raised it to.
    obs::reset();
    let mut delta = ObsDelta::start();
    for (i, block) in blocks.iter().enumerate() {
        if i == warm {
            delta = ObsDelta::start();
        }
        let owned = block.clone();
        let op = lane.begin("replay.store_block", 0, i as u64);
        let t = Instant::now();
        lane.span("store.insert", op, i as u64, || store.add_block(owned));
        let ins = us(t.elapsed());
        // The window's newest block (resident) and its oldest (evicted
        // under half-a-window of budget); the store's own miss counter
        // says which a read was.
        let first = block.id().value().saturating_sub(WINDOW as u64 - 1).max(1);
        let mut reads = vec![];
        for id in [block.id(), BlockId(first)] {
            let misses = obs::counter_value(Counter::StoreMisses);
            let t = Instant::now();
            let len = lane.span("store.get", op, i as u64, || {
                store.block(id).map_or(0, |b| b.len())
            });
            let d = us(t.elapsed());
            assert!(len > 0, "stored block unreadable");
            reads.push((d, obs::counter_value(Counter::StoreMisses) > misses));
        }
        lane.end(op);
        if i >= warm {
            insert.push(ins);
            for (d, missed) in reads {
                if missed { &mut miss } else { &mut hit }.push(d);
            }
        }
        if block.id().value() > WINDOW as u64 {
            store.remove_block(BlockId(block.id().value() - WINDOW as u64));
        }
    }
    let n = insert.len() as f64;
    layers.insert("store.insert_us", median(&mut insert));
    layers.insert(
        "store.get_hit_us",
        if hit.is_empty() {
            0.0
        } else {
            median(&mut hit)
        },
    );
    layers.insert(
        "store.get_miss_us",
        if miss.is_empty() {
            0.0
        } else {
            median(&mut miss)
        },
    );
    layers.insert("store.evictions", delta.of(Counter::StoreEvictions) / n);
    layers.insert(
        "store.bytes_spilled",
        delta.of(Counter::StoreBytesSpilled) / n,
    );
    layers.insert(
        "store.bytes_resident",
        obs::counter_value(Counter::StoreBytesResident) as f64,
    );
    drop(store);
    remove_dir(&dir);
}

/// The three non-itemset classes: each monitor's `add_block` timed on
/// its own, and each FOCUS deviation function on consecutive blocks.
fn classes(seed: u64, ticks: usize, lane: &mut Lane, layers: &mut Layers) {
    let streams = gen::point_streams(seed, ticks);
    let mut monitors = class_sweep::Monitors::new();
    let delta = ObsDelta::start();
    let (mut birch, mut dbscan, mut trees) = (vec![], vec![], vec![]);
    for (i, (b, d, t)) in class_sweep::ticks(&streams).enumerate() {
        let op = lane.begin("replay.tick", 0, i as u64);
        let t0 = Instant::now();
        lane.span("clustering.birch.add_block", op, i as u64, || {
            monitors.birch.add_block(b).expect("birch add_block")
        });
        birch.push(us(t0.elapsed()));
        let t0 = Instant::now();
        lane.span("clustering.dbscan.add_block", op, i as u64, || {
            monitors.dbscan.add_block(d).expect("dbscan add_block")
        });
        dbscan.push(us(t0.elapsed()));
        let t0 = Instant::now();
        lane.span("trees.add_block", op, i as u64, || {
            monitors.trees.add_block(t).expect("trees add_block")
        });
        trees.push(us(t0.elapsed()));
        lane.end(op);
    }
    layers.insert("clustering.birch.add_block_us", median(&mut birch));
    layers.insert("clustering.dbscan.add_block_us", median(&mut dbscan));
    layers.insert("trees.add_block_us", median(&mut trees));
    layers.insert(
        "clustering.birch.cf_inserts_per_block",
        delta.of(Counter::CfInserts) / ticks as f64,
    );

    // Deviation between consecutive blocks, models built beforehand.
    let pairs = ticks.min(17).saturating_sub(1);
    let birch_models: Vec<_> = streams.birch[..=pairs]
        .iter()
        .map(|b| {
            Birch::new(class_sweep::birch_params())
                .cluster_points(b.records())
                .0
        })
        .collect();
    let dbscan_models: Vec<_> = streams.dbscan[..=pairs]
        .iter()
        .map(|b| {
            let mut m = IncrementalDbscan::with_params(class_sweep::dbscan_params());
            for p in b.records() {
                m.insert(p.clone());
            }
            m
        })
        .collect();
    let tree_models: Vec<_> = streams.trees[..=pairs]
        .iter()
        .map(|b| DecisionTree::fit(b.records(), gen::DIM, class_sweep::tree_params()))
        .collect();
    let tx = gen::tx_stream(seed, pairs + 1);
    let tx_models: Vec<_> = tx
        .iter()
        .map(|b| FrequentItemsets::mine_blocks(&[b], N_ITEMS, gen::minsup()))
        .collect();
    let (mut c, mut d, mut t, mut s) = (vec![], vec![], vec![], vec![]);
    for i in 0..pairs {
        let j = i + 1;
        let op = i as u64;
        let t0 = Instant::now();
        lane.span("focus.deviation.clusters", 0, op, || {
            cluster_deviation(
                &streams.birch[i],
                &birch_models[i],
                &streams.birch[j],
                &birch_models[j],
            )
        });
        c.push(us(t0.elapsed()));
        let t0 = Instant::now();
        lane.span("focus.deviation.dbscan", 0, op, || {
            dbscan_deviation(
                &streams.dbscan[i],
                &dbscan_models[i],
                &streams.dbscan[j],
                &dbscan_models[j],
            )
        });
        d.push(us(t0.elapsed()));
        let t0 = Instant::now();
        lane.span("focus.deviation.trees", 0, op, || {
            tree_deviation(
                &streams.trees[i],
                &tree_models[i],
                &streams.trees[j],
                &tree_models[j],
            )
        });
        t.push(us(t0.elapsed()));
        let t0 = Instant::now();
        lane.span("focus.deviation.itemsets", 0, op, || {
            itemset_deviation(&tx[i], &tx_models[i], &tx[j], &tx_models[j])
        });
        s.push(us(t0.elapsed()));
    }
    layers.insert("focus.deviation.clusters_us", median(&mut c));
    layers.insert("focus.deviation.dbscan_us", median(&mut d));
    layers.insert("focus.deviation.trees_us", median(&mut t));
    layers.insert("focus.deviation.itemsets_us", median(&mut s));
}

/// `serve.shard.{replica_swaps,lazy_render_share}` and
/// `serve.query.{hit,miss}_us`: one instance of `query_mixed`'s own
/// loop — connection A ingests, connection B reads beside it — with B's
/// `QueryModel` latencies split by whether a block was acked since its
/// previous one (a miss pays the epoch's lazy render).
fn reads_beside_writes(
    blocks: &[TxBlock],
    warm: usize,
    epoch: Instant,
    layers: &mut Layers,
) -> Vec<Span> {
    let (prefix, timed) = blocks.split_at(warm);
    let lanes = [10, 11].map(|lane| Lane::new(epoch, lane, true));
    let instance = query_mixed::instance(prefix, timed, lanes, 0);
    let latencies = |miss: bool| -> Vec<f64> {
        instance
            .reads
            .iter()
            .filter(|r| r.miss == Some(miss))
            .map(|r| us(r.latency))
            .collect()
    };
    let (mut hit, mut miss) = (latencies(false), latencies(true));
    layers.insert("serve.query.hit_us", median(&mut hit));
    layers.insert("serve.query.miss_us", median(&mut miss));
    layers.insert(
        "serve.shard.replica_swaps",
        instance.replica_swaps / timed.len() as f64,
    );
    layers.insert(
        "serve.shard.lazy_render_share",
        instance.lazy_renders / (hit.len() + miss.len()) as f64,
    );
    instance.spans
}

/// `serve.server.rtt_floor_us` and `serve.event_loop.rtt_floor_us`: the
/// cheapest read (`QuerySequences`) on an otherwise idle daemon, per
/// runtime — the part of every op that is socket, frame and dispatch.
fn rtt_floors(prefix: &[TxBlock], probes: usize, lane: &mut Lane, layers: &mut Layers) {
    let mut legacy = query_mixed::config();
    legacy.shards = 1;
    for (name, span, config) in [
        ("serve.server.rtt_floor_us", "serve.server.rtt", legacy),
        (
            "serve.event_loop.rtt_floor_us",
            "serve.event_loop.rtt",
            query_mixed::config(),
        ),
    ] {
        let daemon = Daemon::start(config);
        let mut client = connect(daemon.addr);
        for block in prefix.iter().take(PATTERN_WINDOW) {
            client.ingest(N_ITEMS, block).expect("prefix ingest");
        }
        let mut rtt = Vec::with_capacity(probes);
        for i in 0..probes {
            let t = Instant::now();
            lane.span(span, 0, i as u64, || {
                client.query_sequences().expect("query_sequences")
            });
            rtt.push(us(t.elapsed()));
        }
        layers.insert(name, median(&mut rtt));
        daemon.stop(&mut client);
    }
}
