//! Fault-injection sweep for `demon-serve`'s write-ahead log: the
//! daemon is killed at randomized points around the append/ack protocol
//! (via the `DEMON_SERVE_CRASH` hook, which `abort()`s the process —
//! the userspace-visible equivalent of `kill -9` — plus one sweep with
//! a real `SIGKILL`), restarted, and checked for the durability
//! contract:
//!
//! * every **acked** block is present after recovery;
//! * no unacked block is half-applied — the recovered stream is always
//!   a clean prefix `D1..Dn` with `n` at most one past the acked count
//!   (the one in-flight block that was appended but whose ack was
//!   lost);
//! * after re-streaming the remainder, the recovered model is
//!   **byte-identical** to an uninterrupted run;
//! * a torn or bit-flipped final WAL record is salvaged (dropped), not
//!   fatal;
//! * a crash inside a rotation — between creating the next generation
//!   and switching to it, or between moving `CURRENT` and unlinking what
//!   lies below it — loses nothing, and the next bind sweeps the
//!   residue.

use demon::itemsets::{FrequentItemsets, TxStore};
use demon::serve::{Client, RetryPolicy};
use demon::types::{Block, BlockId, DemonError, MinSupport, Tid, Transaction, TxBlock};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const N_ITEMS: u32 = 64;
const MINSUP: f64 = 0.05;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_demon-cli"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demon-wal-test-{name}-{}", std::process::id()))
}

/// Same golden stream as `tests/serve.rs`: five deterministic blocks.
fn golden_blocks() -> Vec<TxBlock> {
    let mut tid = 0u64;
    (1..=5u64)
        .map(|id| {
            let txs = (0..40)
                .map(|i| {
                    tid += 1;
                    let mut items = vec![(i % 7) as u32, 7 + (i % 5) as u32];
                    if i % 3 == 0 {
                        items.push(20 + (id as u32 % 4));
                    }
                    items.sort_unstable();
                    items.dedup();
                    Transaction::new(
                        Tid(tid),
                        items.into_iter().map(demon::types::Item).collect(),
                    )
                })
                .collect();
            Block::new(BlockId(id), txs)
        })
        .collect()
}

/// The uninterrupted reference: a batch mine over the full stream — or,
/// for a `--window w` daemon, over its last `w` blocks — as the
/// canonical JSON the server answers with.
fn reference_model_json(window: Option<usize>) -> String {
    let mut store = TxStore::new(N_ITEMS);
    let ids: Vec<BlockId> = golden_blocks()
        .into_iter()
        .map(|b| {
            let id = b.id();
            store.add_block(b);
            id
        })
        .collect();
    let span = &ids[ids.len() - window.unwrap_or(ids.len())..];
    let model =
        FrequentItemsets::mine_from(&store, span, MinSupport::new(MINSUP).unwrap()).unwrap();
    serde_json::to_string(&model).unwrap()
}

/// Spawns a durable daemon on an ephemeral port, optionally armed with
/// a `DEMON_SERVE_CRASH` point.
fn spawn_daemon(
    wal_dir: &Path,
    extra: &[&str],
    crash: Option<&str>,
) -> (Child, String, impl BufRead) {
    let mut cmd = cli();
    cmd.args([
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--items",
        &N_ITEMS.to_string(),
        "--minsup",
        &MINSUP.to_string(),
        "--wal-dir",
        wal_dir.to_str().unwrap(),
    ])
    .args(extra)
    .stdout(Stdio::piped())
    .stderr(Stdio::null()); // the abort() signal note is expected noise
    if let Some(point) = crash {
        cmd.env("DEMON_SERVE_CRASH", point);
    }
    let mut child = cmd.spawn().expect("daemon spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("startup line");
    let addr = line
        .strip_prefix("demon-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .trim()
        .to_string();
    (child, addr, reader)
}

/// Streams the golden blocks with no client-side retry (so a crash is
/// observed, not papered over); returns how many were acked before the
/// stream died.
fn ingest_until_crash(addr: &str) -> usize {
    let mut acked = 0;
    let mut client = match Client::connect_with(
        addr,
        Duration::from_secs(10),
        RetryPolicy::none(),
    ) {
        Ok(c) => c,
        Err(_) => return 0, // daemon died before the connect landed
    };
    for block in golden_blocks() {
        match client.ingest(N_ITEMS, &block) {
            Ok(()) => acked += 1,
            Err(_) => break,
        }
    }
    acked
}

/// The block ids the daemon's model covers, read from the canonical
/// model JSON (its `included` field lists them in order; a windowed
/// daemon that has seen no block has no model yet).
fn included_blocks(client: &mut Client) -> Vec<u64> {
    let Ok(json) = client.query_model_json() else {
        return Vec::new();
    };
    let value: serde_json::Value = serde_json::from_str(&json).expect("model JSON parses");
    value
        .get("included")
        .and_then(|v| v.as_array())
        .map(|a| a.iter().map(|v| v.as_u64().unwrap()).collect())
        .unwrap_or_default()
}

/// The value of `--<name>` among a daemon's extra flags, if any.
fn flag_of(extra: &[&str], name: &str) -> Option<usize> {
    let at = extra.iter().position(|&flag| flag == name)?;
    extra[at + 1].parse().ok()
}

/// Restarts the daemon over `wal_dir`, checks the recovered prefix
/// against `acked`, re-streams the remainder (duplicates are skips) and
/// asserts the final model is byte-identical to the uninterrupted
/// reference. Returns the recovered-prefix length.
fn recover_and_check(wal_dir: &Path, acked: usize, label: &str) -> usize {
    recover_and_check_with(wal_dir, &[], acked, label)
}

/// `recover_and_check`, restarting the daemon with extra flags (the
/// sharded sweep restarts with the same `--shards` it crashed under,
/// the windowed one with the same `--window`).
fn recover_and_check_with(wal_dir: &Path, extra: &[&str], acked: usize, label: &str) -> usize {
    let (mut child, addr, _out) = spawn_daemon(wal_dir, extra, None);
    let mut client = Client::connect(&addr).expect("connect after restart");

    // The recovered stream is D1..Dn: the model covers its last `w`
    // blocks (all of them when unrestricted), ending at n.
    let recovered = included_blocks(&mut client);
    let n = recovered.last().map_or(0, |&id| id as usize);
    let oldest = flag_of(extra, "--window").map_or(1, |w| n.saturating_sub(w) + 1);
    let expected: Vec<u64> = (oldest as u64..=n as u64).collect();
    assert_eq!(
        recovered, expected,
        "[{label}] recovery must yield a clean prefix, got {recovered:?}"
    );
    assert!(
        n >= acked,
        "[{label}] lost an acked block: {acked} acked, {n} recovered"
    );
    assert!(
        n <= acked + 1,
        "[{label}] recovered {n} blocks but only {acked} were acked (+1 in-flight allowed)"
    );
    if n > 0 {
        let stats = client.stats_json().expect("stats");
        assert!(
            stats.contains("\"wal.replays\":"),
            "[{label}] recovery must count wal.replays: {stats}"
        );
    }

    // Re-stream everything; already-recovered blocks answer Duplicate.
    for block in golden_blocks() {
        match client.ingest(N_ITEMS, &block) {
            Ok(()) | Err(DemonError::DuplicateBlock { .. }) => {}
            Err(e) => panic!("[{label}] re-streaming block {}: {e}", block.id()),
        }
    }
    assert_eq!(
        client.query_model_json().expect("final model"),
        reference_model_json(flag_of(extra, "--window")),
        "[{label}] recovered model diverged from the uninterrupted run"
    );
    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("daemon exits").success());
    n
}

/// Blocks queued together share one covering fsync, but an ack
/// is only sent after the fsync covering that block — whatever the
/// batch a crash lands in, no acked block may be lost.
#[test]
fn crash_sweep_around_the_append_ack_protocol_never_loses_an_acked_block() {
    let specs = [
        ("before_append:1", 0usize), // die before anything touches the log
        ("before_append:2", 1),
        ("before_append:3", 2),
        ("after_append:1", 0), // appended + fsynced, ack never sent
        ("after_append:2", 1),
        ("after_append:4", 3),
        // `after_ack` aborts once the done-slot is filled, racing the
        // worker's response write — the nth ack itself may be lost on
        // the wire, so the floor is n-1.
        ("after_ack:2", 1),
        ("after_ack:3", 2),
        ("after_ack:5", 4),
    ];
    for (crash, min_acked) in specs {
        let wal_dir = tmp(&format!("sweep-{}", crash.replace(':', "-")));
        std::fs::remove_dir_all(&wal_dir).ok();

        let (mut child, addr, _out) = spawn_daemon(&wal_dir, &[], Some(crash));
        let acked = ingest_until_crash(&addr);
        let status = child.wait().expect("crashed daemon reaps");
        assert!(!status.success(), "[{crash}] daemon should have died");
        // The ack for the in-flight block can be lost in the crash, so
        // the observed count may undershoot the hook position by one.
        assert!(
            acked >= min_acked,
            "[{crash}] expected at least {min_acked} acks, saw {acked}"
        );

        recover_and_check(&wal_dir, acked, crash);
        std::fs::remove_dir_all(&wal_dir).ok();
    }
}

/// Every `wal-<g>.log` generation of a WAL root, ascending — after
/// asserting the root holds `CURRENT`, those logs and nothing else, at
/// whatever `--shards` the daemon ran.
fn generations(root: &Path) -> Vec<u64> {
    for entry in std::fs::read_dir(root).expect("WAL root").flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(
            name == "CURRENT" || demon::types::wal::parse_wal_file_name(&name).is_some(),
            "{name} in the WAL root {}",
            root.display()
        );
    }
    demon::types::wal::list_wal_generations(root).expect("root lists")
}

/// Kills a daemon whose segments hold one block each (a rotation after
/// every ack) at `crash`, restarts it with the same flags, and holds the
/// restart to the sweep's contract. At the bind, nothing below `CURRENT`
/// may be left, and the root is the one log.
fn crash_mid_rotation(name: &str, flags: &[&str], crash: &str) {
    let label = format!("{name} {crash}");
    let wal_dir = tmp(&format!("rotation-{name}-{}", crash.replace(':', "-")));
    std::fs::remove_dir_all(&wal_dir).ok();
    let flags = [flags, &["--wal-max-bytes", "64"]].concat();
    let (mut child, addr, _out) = spawn_daemon(&wal_dir, &flags, Some(crash));
    let acked = ingest_until_crash(&addr);
    if acked == golden_blocks().len() {
        child.kill().ok();
        panic!("[{label}] the crash point was never reached");
    }
    assert!(!child.wait().expect("reaps").success(), "[{label}] daemon should have died");

    recover_and_check_with(&wal_dir, &flags, acked, &label);

    let current = demon::types::wal::read_current(&wal_dir).expect("CURRENT");
    let gens = generations(&wal_dir);
    assert!(gens[0] >= current, "[{label}] stale generations survived the bind: {gens:?}");
    std::fs::remove_dir_all(&wal_dir).ok();
}

/// The two instants of a rotation where the directory is between
/// states: (a) `mid_rotation` — the next generation's file exists but
/// the writer has not switched; (b) `after_current` —
/// `CURRENT` has moved but the generations below it are not unlinked
/// yet (only a windowed daemon ever gets there: an unrestricted one
/// never moves the pointer). Every acked block is back after either,
/// re-streaming yields the uninterrupted model, and the bind sweeps
/// what the crash left behind.
#[test]
fn crash_mid_rotation_loses_nothing_acked_and_the_bind_sweeps_the_residue() {
    const WINDOWED: &[&str] = &["--window", "2", "--pattern-window", "2"];
    for crash in ["mid_rotation:1", "mid_rotation:3"] {
        crash_mid_rotation("unrestricted", &[], crash);
        crash_mid_rotation("windowed", WINDOWED, crash);
    }
    // With one block per generation and w = 2 the pointer first moves
    // when D3 rotates, then at every block.
    for crash in ["after_current:1", "after_current:2"] {
        crash_mid_rotation("windowed", WINDOWED, crash);
    }
}

#[test]
fn real_sigkill_mid_stream_loses_nothing_acked() {
    let wal_dir = tmp("sigkill");
    std::fs::remove_dir_all(&wal_dir).ok();
    let (mut child, addr, _out) = spawn_daemon(&wal_dir, &[], None);

    let mut client =
        Client::connect_with(&addr, Duration::from_secs(10), RetryPolicy::none()).unwrap();
    let blocks = golden_blocks();
    let mut acked = 0;
    for block in &blocks[..3] {
        client.ingest(N_ITEMS, block).expect("ingest acked");
        acked += 1;
    }
    // SIGKILL: no atexit, no Drop, no flush — only what was fsynced
    // survives, and everything acked was fsynced.
    child.kill().expect("SIGKILL lands");
    child.wait().expect("reaps");

    recover_and_check(&wal_dir, acked, "sigkill");
    std::fs::remove_dir_all(&wal_dir).ok();
}

/// Disk damage to the *tail* of the log — a truncated or bit-flipped
/// final record — is salvaged on recovery: the clean prefix loads, the
/// daemon starts, and `wal.torn_tails` counts the drop.
#[test]
fn torn_or_flipped_wal_tail_is_salvaged_not_fatal() {
    for (label, damage) in [
        ("truncate", &(|bytes: &mut Vec<u8>| {
            let cut = bytes.len() - 3;
            bytes.truncate(cut);
        }) as &dyn Fn(&mut Vec<u8>)),
        ("bitflip", &|bytes: &mut Vec<u8>| {
            let last = bytes.len() - 1;
            bytes[last] ^= 0x40;
        }),
    ] {
        let wal_dir = tmp(&format!("torn-{label}"));
        std::fs::remove_dir_all(&wal_dir).ok();
        let (mut child, addr, _out) = spawn_daemon(&wal_dir, &[], None);
        let mut client = Client::connect(&addr).expect("connect");
        let blocks = golden_blocks();
        for block in &blocks[..4] {
            client.ingest(N_ITEMS, block).expect("ingest");
        }
        child.kill().expect("SIGKILL");
        child.wait().expect("reaps");

        // Damage the final record on disk.
        let log = demon::types::wal::wal_file_path(&wal_dir, 0);
        let mut bytes = std::fs::read(&log).expect("log readable");
        damage(&mut bytes);
        std::fs::write(&log, &bytes).expect("damage written");

        // Recovery drops exactly the damaged record: D1..D3 survive.
        let (mut child, addr, _out) = spawn_daemon(&wal_dir, &[], None);
        let mut client = Client::connect(&addr).expect("connect after damage");
        assert_eq!(
            included_blocks(&mut client),
            vec![1, 2, 3],
            "[{label}] the torn tail must cost exactly the damaged record"
        );
        let stats = client.stats_json().expect("stats");
        assert!(
            stats.contains("\"wal.torn_tails\":1"),
            "[{label}] torn tail must be counted: {stats}"
        );

        // The daemon keeps serving: re-stream D4, D5 and match batch.
        for block in &blocks[3..] {
            client.ingest(N_ITEMS, block).expect("stream resumes");
        }
        assert_eq!(
            client.query_model_json().expect("model"),
            reference_model_json(None),
            "[{label}] model after salvage + re-stream diverged"
        );
        client.shutdown().expect("shutdown");
        assert!(child.wait().expect("exits").success());
        std::fs::remove_dir_all(&wal_dir).ok();
    }
}

/// The full crash sweep again, on the partitioned runtime: a 4-shard
/// durable daemon is killed at every existing hook (the sequencer's
/// `before_append` / `after_append` / `after_ack`), restarted with the
/// same `--shards 4`, and held to the identical contract — the merged
/// recovered stream is a clean prefix at most one past the acked count,
/// and the post-recovery model is byte-identical to an uninterrupted
/// run. The WAL is the one log of any daemon: `CURRENT` + `wal-<g>.log`
/// in the root, and nothing else.
#[test]
fn sharded_crash_sweep_never_loses_an_acked_block() {
    const SHARDS: &[&str] = &["--shards", "4"];
    let specs = [
        ("before_append:1", 0usize),
        ("before_append:2", 1),
        ("before_append:3", 2),
        ("after_append:1", 0),
        ("after_append:2", 1),
        ("after_append:4", 3),
        ("after_append:5", 4),
        ("after_ack:2", 1),
        ("after_ack:3", 2), // the nth ack itself may be lost on the wire
        ("after_ack:5", 4),
    ];
    for (crash, min_acked) in specs {
        let wal_dir = tmp(&format!("sharded-sweep-{}", crash.replace(':', "-")));
        std::fs::remove_dir_all(&wal_dir).ok();

        let (mut child, addr, _out) = spawn_daemon(&wal_dir, SHARDS, Some(crash));
        let acked = ingest_until_crash(&addr);
        let status = child.wait().expect("crashed daemon reaps");
        assert!(!status.success(), "[{crash}] daemon should have died");
        assert!(
            acked >= min_acked,
            "[{crash}] expected at least {min_acked} acks, saw {acked}"
        );

        // The on-disk layout is the 1-shard one: one log in the root.
        assert_eq!(generations(&wal_dir), [0], "[{crash}]");

        recover_and_check_with(&wal_dir, SHARDS, acked, crash);
        std::fs::remove_dir_all(&wal_dir).ok();
    }
}

/// A crash inside a rotation of a 4-shard daemon, which rotates the one
/// log every daemon has. (`--shards` requires the unrestricted window,
/// which never moves `CURRENT`.)
#[test]
fn sharded_crash_mid_rotation_loses_nothing_acked() {
    for crash in ["mid_rotation:1", "mid_rotation:2", "mid_rotation:4"] {
        crash_mid_rotation("sharded", &["--shards", "4"], crash);
    }
}

/// A real `SIGKILL` against the 4-shard daemon: only fsynced bytes
/// survive, and everything acked was fsynced before the ack left.
#[test]
fn sharded_real_sigkill_mid_stream_loses_nothing_acked() {
    let wal_dir = tmp("sharded-sigkill");
    std::fs::remove_dir_all(&wal_dir).ok();
    let (mut child, addr, _out) = spawn_daemon(&wal_dir, &["--shards", "4"], None);

    let mut client =
        Client::connect_with(&addr, Duration::from_secs(10), RetryPolicy::none()).unwrap();
    let blocks = golden_blocks();
    let mut acked = 0;
    for block in &blocks[..3] {
        client.ingest(N_ITEMS, block).expect("ingest acked");
        acked += 1;
    }
    child.kill().expect("SIGKILL lands");
    child.wait().expect("reaps");

    assert_eq!(generations(&wal_dir), [0]);
    recover_and_check_with(&wal_dir, &["--shards", "4"], acked, "sharded sigkill");
    std::fs::remove_dir_all(&wal_dir).ok();
}

/// `demon-cli verify` understands the WAL layout — `CURRENT` and the
/// generations from it, nothing else: a clean directory passes, a
/// truncated end of the log is reported as recoverable (exit 0), and
/// damage that acked records follow fails the fsck like it fails the
/// bind.
#[test]
fn cli_verify_fscks_wal_directories() {
    let wal_dir = tmp("fsck");
    std::fs::remove_dir_all(&wal_dir).ok();
    // One block per generation and a 2-block window: the pointer moves.
    let flags = ["--wal-max-bytes", "64", "--window", "2", "--pattern-window", "2"];
    let (mut child, addr, _out) = spawn_daemon(&wal_dir, &flags, None);
    let mut client = Client::connect(&addr).expect("connect");
    for block in golden_blocks() {
        client.ingest(N_ITEMS, &block).expect("ingest");
    }
    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("exits").success());

    let verify = || {
        let out = cli().args(["verify", wal_dir.to_str().unwrap()]).output().unwrap();
        (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let current = demon::types::wal::read_current(&wal_dir).unwrap();
    assert!(current > 0, "a windowed daemon drops what it cannot need");
    let mut names: Vec<String> = std::fs::read_dir(&wal_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let expected: Vec<String> = std::iter::once("CURRENT".to_string())
        .chain(generations(&wal_dir).iter().map(|g| format!("wal-{g}.log")))
        .collect();
    assert_eq!(names, expected, "a WAL root is CURRENT and its logs");

    let (ok, stdout) = verify();
    assert!(ok, "clean WAL dir must pass fsck: {stdout}");
    assert!(stdout.contains("WAL directory"), "{stdout}");
    assert!(stdout.contains("recoverable"), "{stdout}");

    // A torn end of the log is recoverable — still exit 0, but reported.
    // The newest generation is empty; the one below it holds D5.
    let gens = generations(&wal_dir);
    let last = demon::types::wal::wal_file_path(&wal_dir, gens[gens.len() - 2]);
    let bytes = std::fs::read(&last).unwrap();
    std::fs::write(&last, &bytes[..bytes.len() - 1]).unwrap();
    let (ok, stdout) = verify();
    assert!(ok, "torn tail must stay recoverable: {stdout}");
    assert!(stdout.contains("torn tail (recoverable)"), "{stdout}");
    std::fs::write(&last, &bytes).unwrap();

    // Damage with acked records behind it *does* fail the fsck — and the
    // bind: recovery would lose acked data.
    let first = demon::types::wal::wal_file_path(&wal_dir, current);
    let mut bytes = std::fs::read(&first).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&first, &bytes).unwrap();
    let (ok, stdout) = verify();
    assert!(!ok, "damage inside the log must fail fsck: {stdout}");
    assert!(stdout.contains("DAMAGED") && stdout.contains(&format!("wal-{current}.log")), "{stdout}");
    let refused = cli()
        .args(["serve", "--listen", "127.0.0.1:0", "--items", &N_ITEMS.to_string()])
        .args(["--wal-dir", wal_dir.to_str().unwrap()])
        .args(flags)
        .output()
        .unwrap();
    assert!(!refused.status.success());
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("corrupt file") && stderr.contains(&format!("wal-{current}.log")), "{stderr}");
    std::fs::remove_dir_all(&wal_dir).ok();
}
