//! Integration tests of the `demon-cli` binary: generate → inspect →
//! mine → monitor → patterns, end to end through the on-disk store — a
//! WAL root, the one form a block stream takes on disk.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_demon-cli"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("demon-cli-test-{name}-{}", std::process::id()))
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed: {:?}\nstdout: {}\nstderr: {}",
        cmd,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn quest_pipeline_generate_inspect_mine_monitor() {
    let dir = tmp("quest");
    let store = dir.join("store");
    let out = run_ok(cli().args([
        "generate",
        "quest",
        "--out",
        store.to_str().unwrap(),
        "--spec",
        "40K.8L.1I.1pats.3plen",
        "--scale",
        "0.05",
        "--blocks",
        "3",
    ]));
    assert!(stdout(&out).contains("wrote 3 blocks"));

    let out = run_ok(cli().args(["inspect", store.to_str().unwrap()]));
    let text = stdout(&out);
    assert!(text.contains("blocks: 3"));
    assert!(text.contains("D2"));

    let out = run_ok(cli().args([
        "mine",
        store.to_str().unwrap(),
        "--minsup",
        "0.02",
        "--rules",
        "0.3",
        "--top",
        "5",
    ]));
    let text = stdout(&out);
    assert!(text.contains("frequent itemsets over"), "{text}");

    let out = run_ok(cli().args([
        "monitor",
        store.to_str().unwrap(),
        "--minsup",
        "0.02",
        "--window",
        "2",
        "--counter",
        "ecut+",
    ]));
    let text = stdout(&out);
    assert!(text.contains("final window model"), "{text}");
    assert!(text.contains("[D2, D3]"), "{text}");

    // Window-relative BSS through the CLI.
    let out = run_ok(cli().args([
        "monitor",
        store.to_str().unwrap(),
        "--minsup",
        "0.02",
        "--window",
        "2",
        "--bss",
        "01",
    ]));
    let text = stdout(&out);
    assert!(text.contains("[D3]"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn webtrace_pipeline_patterns() {
    let dir = tmp("trace");
    let store = dir.join("trace");
    run_ok(cli().args([
        "generate",
        "webtrace",
        "--out",
        store.to_str().unwrap(),
        "--days",
        "7",
        "--rate",
        "120",
        "--granularity",
        "12",
    ]));
    let out = run_ok(cli().args(["patterns", store.to_str().unwrap(), "--min-len", "3"]));
    let text = stdout(&out);
    assert!(text.contains("compact sequences"), "{text}");
    assert!(text.contains("blocks"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn windowed_patterns_through_cli() {
    let dir = tmp("wintrace");
    let store = dir.join("trace");
    run_ok(cli().args([
        "generate",
        "webtrace",
        "--out",
        store.to_str().unwrap(),
        "--days",
        "7",
        "--rate",
        "100",
        "--granularity",
        "24",
    ]));
    let out = run_ok(cli().args([
        "patterns",
        store.to_str().unwrap(),
        "--min-len",
        "2",
        "--window",
        "4",
    ]));
    assert!(stdout(&out).contains("compact sequences"));

    // A window too short to hold a pattern is a typed refusal, not a
    // panic — for `patterns` and for the daemon at any shard count.
    let store = store.to_str().unwrap();
    let refused: [&[&str]; 4] = [
        &["patterns", store, "--window", "1"],
        &["serve", "--listen", "127.0.0.1:0", "--pattern-window", "1"],
        &["serve", "--listen", "127.0.0.1:0", "--pattern-window", "0"],
        &["serve", "--listen", "127.0.0.1:0", "--pattern-window", "1", "--shards", "2"],
    ];
    for args in refused {
        let out = cli().args(args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("pattern window below 2 blocks"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = cli().args(["frobnicate"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

/// A mistyped flag is refused by name — not parsed as a value-flag that
/// swallows the next argument (or reports a missing value).
#[test]
fn unknown_flag_is_refused_by_name() {
    let out = cli().args(["serve", "--stat"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --stat"), "{err}");
    assert!(!err.contains("needs a value"), "{err}");
}

#[test]
fn help_prints_usage() {
    let out = run_ok(cli().args(["help"]));
    assert!(stdout(&out).contains("demon-cli"));
}

/// A store is a root, held to the rule a bind applies: `verify` passes a
/// generated one; a cut at the end of its log is a torn tail that
/// `verify` calls recoverable and `mine` salvages — the blocks before it,
/// with the tail named on stderr; a flipped byte that intact records
/// follow is damage `verify` names (exit 1) and `mine` refuses (exit 2).
#[test]
fn verify_and_salvage_through_cli() {
    let (dir, store) = small_store("verify");
    let store_arg = store.to_str().unwrap();
    let out = run_ok(cli().args(["verify", store_arg]));
    let text = stdout(&out);
    assert!(text.contains("itemsets stream: 3 block(s)"), "{text}");
    assert!(text.contains("WAL directory is recoverable"), "{text}");
    let names: Vec<_> = std::fs::read_dir(&store).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(names.len(), 2, "a root is CURRENT + wal-0.log: {names:?}");

    let log = store.join("wal-0.log");
    with_damage(&log, |bytes| bytes.truncate(bytes.len() - 5), || {
        let (ok, text) = verify(&store);
        assert!(ok && text.contains("torn tail (recoverable)"), "{text}");
        assert!(text.contains("itemsets stream: 2 block(s)"), "{text}");
        let out = run_ok(cli().args(["mine", store_arg, "--minsup", "0.02"]));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("torn tail") && err.contains("wal-0.log"), "{err}");
        assert!(stdout(&out).contains("frequent itemsets over 1332 transactions"), "{}", stdout(&out));
    });
    with_damage(&log, |bytes| { let mid = bytes.len() / 2; bytes[mid] ^= 0x01 }, || {
        let (ok, text) = verify(&store);
        assert!(!ok, "verify must fail on a damaged root: {text}");
        assert!(text.contains("DAMAGED") && text.contains("wal-0.log"), "{text}");
        let out = cli().args(["mine", store_arg, "--minsup", "0.02"]).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "mine must refuse the damage");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("wal-0.log") && !err.contains("panicked"), "{err}");
    });
    assert!(verify(&store).0, "the undamaged root verifies again");
    std::fs::remove_dir_all(&dir).ok();
}

/// Generates a small shared store for the observability tests.
fn small_store(name: &str) -> (PathBuf, PathBuf) {
    let dir = tmp(name);
    let store = dir.join("store");
    run_ok(cli().args([
        "generate",
        "quest",
        "--out",
        store.to_str().unwrap(),
        "--spec",
        "40K.8L.1I.1pats.3plen",
        "--scale",
        "0.05",
        "--blocks",
        "3",
    ]));
    (dir, store)
}

/// The counter block of a `--stats` stderr dump (between the counters
/// header and the histogram header — histograms carry wall times and are
/// run-dependent, counters must not be).
fn counters_section(stderr: &str) -> String {
    stderr
        .lines()
        .skip_while(|l| !l.starts_with("--- obs counters ---"))
        .take_while(|l| !l.starts_with("--- obs histograms"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn stats_and_trace_out_on_mine() {
    let (dir, store) = small_store("stats");

    // Without --stats, stderr stays free of the counter table.
    let out = run_ok(cli().args(["mine", store.to_str().unwrap(), "--minsup", "0.02"]));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("obs counters"));

    let trace = dir.join("trace.jsonl");
    let out = run_ok(cli().args([
        "mine",
        store.to_str().unwrap(),
        "--minsup",
        "0.02",
        "--stats",
        "--trace-out",
        trace.to_str().unwrap(),
    ]));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--- obs counters ---"), "{err}");
    assert!(err.contains("candidates_probed"), "{err}");
    assert!(err.contains("tx_scanned"), "{err}");

    let jsonl = std::fs::read_to_string(&trace).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() >= 3, "expected span + counters events: {jsonl}");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
    }
    assert!(lines[0].contains("\"type\":\"span_begin\"") && lines[0].contains("\"name\":\"mine\""));
    let last = lines.last().unwrap();
    assert!(last.contains("\"type\":\"counters\""), "{last}");
    assert!(last.contains("\"candidates_probed\":"), "{last}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_counters_are_thread_count_invariant() {
    let (dir, store) = small_store("stats-threads");
    let run_at = |threads: &str| -> String {
        let out = run_ok(cli().args([
            "monitor",
            store.to_str().unwrap(),
            "--minsup",
            "0.02",
            "--window",
            "2",
            "--counter",
            "ecut+",
            "--stats",
            "--threads",
            threads,
        ]));
        counters_section(&String::from_utf8_lossy(&out.stderr))
    };
    let reference = run_at("1");
    assert!(reference.contains("candidates_probed"), "{reference}");
    for threads in ["2", "8"] {
        let got = run_at(threads);
        assert_eq!(reference, got, "--stats counters diverged at {threads} threads");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_out_on_monitor_records_per_block_spans() {
    let (dir, store) = small_store("trace-monitor");
    let trace = dir.join("monitor.jsonl");
    run_ok(cli().args([
        "monitor",
        store.to_str().unwrap(),
        "--minsup",
        "0.02",
        "--trace-out",
        trace.to_str().unwrap(),
    ]));
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    let begins = jsonl
        .lines()
        .filter(|l| l.contains("\"type\":\"span_begin\"") && l.contains("\"name\":\"add_block\""))
        .count();
    let ends = jsonl
        .lines()
        .filter(|l| l.contains("\"type\":\"span_end\"") && l.contains("\"name\":\"add_block\""))
        .count();
    assert_eq!(begins, 3, "one span per replayed block:\n{jsonl}");
    assert_eq!(begins, ends, "unbalanced spans:\n{jsonl}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `verify` is read-only, and the salvage policy of the old store
/// directory is gone: `--salvage` is an unknown flag, and a root a bind
/// would refuse is refused by every command the same way. A store
/// directory of an older build is refused by the name of its manifest.
#[test]
fn verify_is_read_only_and_salvage_is_an_unknown_flag() {
    let (dir, store) = small_store("verify-clean");
    let store_arg = store.to_str().unwrap();
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(&store)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let before = (listing(), std::fs::read(store.join("wal-0.log")).unwrap());
    assert!(verify(&store).0);
    assert_eq!((listing(), std::fs::read(store.join("wal-0.log")).unwrap()), before, "verify wrote");

    for args in [&["verify", store_arg, "--salvage"][..], &["mine", store_arg, "--salvage"]] {
        let out = cli().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --salvage"), "{args:?}");
    }

    std::fs::write(store.join("meta.json"), b"{}").unwrap();
    let (ok, text) = verify(&store);
    assert!(!ok && text.contains("DAMAGED") && text.contains("meta.json"), "{text}");
    let out = cli().args(["inspect", store_arg]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("meta.json"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that goes away is a clean end for every printing command:
/// `mine … | head -1` and friends exit 0, with no panic on stderr —
/// whether the pipe closes after the first line or before any.
#[test]
fn a_closed_stdout_is_a_clean_exit() {
    use std::io::BufRead;
    let (dir, store) = small_store("epipe");
    let store_arg = store.to_str().unwrap();
    let commands: [&[&str]; 4] = [
        &["mine", store_arg, "--minsup", "0.02", "--top", "400"],
        &["inspect", store_arg],
        &["verify", store_arg],
        &["monitor", store_arg, "--minsup", "0.02", "--window", "2"],
    ];
    for args in commands {
        for read_first_line in [true, false] {
            let mut child = cli()
                .args(args)
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("binary runs");
            let pipe = child.stdout.take().expect("piped stdout");
            if read_first_line {
                let mut line = String::new();
                std::io::BufReader::new(pipe).read_line(&mut line).expect("a first line");
                assert!(!line.is_empty(), "{args:?}");
            } else {
                drop(pipe);
            }
            let out = child.wait_with_output().expect("exits");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{args:?}: {:?} {err}", out.status);
            assert!(!err.contains("panicked"), "{args:?}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `demon-cli serve` with `flags` on an ephemeral port, hands the
/// resolved address to `drive`, then shuts the daemon down cleanly.
fn serve_then(flags: &[&str], drive: impl FnOnce(&str)) {
    use std::io::BufRead;
    let mut daemon = cli()
        .args(["serve", "--listen", "127.0.0.1:0", "--items", "1000", "--minsup", "0.02"])
        .args(flags)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    // Kept open until the daemon exits: it prints a summary on the way out.
    let mut out = std::io::BufReader::new(daemon.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    out.read_line(&mut line).expect("startup line");
    let addr = line
        .strip_prefix("demon-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .trim();
    drive(addr);
    run_ok(cli().args(["client", addr, "shutdown"]));
    assert!(daemon.wait().expect("daemon exits").success());
}

/// `verify DIR`: whether it exited 0, and what it printed.
fn verify(dir: &std::path::Path) -> (bool, String) {
    let out = cli().args(["verify", dir.to_str().unwrap()]).output().expect("binary runs");
    (out.status.success(), stdout(&out))
}

/// Runs `damage` on the bytes of `file`, hands the damaged file to
/// `check`, and puts the original back.
fn with_damage(file: &std::path::Path, damage: impl FnOnce(&mut Vec<u8>), check: impl FnOnce()) {
    let pristine = std::fs::read(file).unwrap();
    let mut bytes = pristine.clone();
    damage(&mut bytes);
    std::fs::write(file, &bytes).unwrap();
    check();
    std::fs::write(file, &pristine).unwrap();
}

/// `verify` holds a WAL root to the rule recovery applies. The root of a
/// windowed daemon is `CURRENT` plus the generations from it: each log is
/// reported, one below the pointer is stale residue, a cut at the very
/// end of the chain is recoverable (exit 0) — and the same cut with an
/// intact record behind it, in a later generation or later in the same
/// file, is damage (exit 1).
#[test]
fn verify_holds_a_wal_root_to_the_chain_rule_of_recovery() {
    let (dir, store) = small_store("verify-chain");
    let store = store.to_str().unwrap();
    let cut = |bytes: &mut Vec<u8>| bytes.truncate(bytes.len() - 5);

    // A generation per block under a 2-block window: D1's is dropped.
    let root = dir.join("windowed");
    let flags = ["--window", "2", "--pattern-window", "2", "--wal-max-bytes", "1024"];
    serve_then(&[&flags[..], &["--wal-dir", root.to_str().unwrap()]].concat(), |addr| {
        run_ok(cli().args(["client", addr, "ingest", store]));
    });
    let mut names: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["CURRENT", "wal-1.log", "wal-2.log", "wal-3.log"]);
    let (ok, clean) = verify(&root);
    assert!(ok, "{clean}");
    assert!(clean.contains("oldest retained generation 1"), "{clean}");
    assert!(clean.contains("wal-1.log: 1 record(s) through seq 1, clean"), "{clean}");
    assert!(clean.contains("wal-2.log: 1 record(s) through seq 2, clean"), "{clean}");
    assert!(clean.contains("wal-3.log: empty, clean"), "{clean}");

    std::fs::copy(root.join("wal-1.log"), root.join("wal-0.log")).unwrap();
    let (ok, stale) = verify(&root);
    assert!(ok && stale.contains("wal-0.log: 1 record(s) through seq 1, clean (stale)"), "{stale}");
    std::fs::remove_file(root.join("wal-0.log")).unwrap();

    with_damage(&root.join("wal-2.log"), cut, || {
        let (ok, torn) = verify(&root);
        assert!(ok && torn.contains("wal-2.log: 0 record(s), torn tail (recoverable)"), "{torn}");
    });
    with_damage(&root.join("wal-1.log"), cut, || {
        let (ok, damaged) = verify(&root);
        assert!(!ok, "{damaged}");
        assert!(damaged.contains("DAMAGED") && damaged.contains("wal-1.log"), "{damaged}");
        assert!(damaged.contains("intact records follow in"), "{damaged}");
    });

    // All three blocks in one generation, a byte flipped in the middle.
    let root = dir.join("unrestricted");
    serve_then(&["--wal-dir", root.to_str().unwrap()], |addr| {
        run_ok(cli().args(["client", addr, "ingest", store]));
    });
    with_damage(
        &root.join("wal-0.log"),
        |bytes| {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
        },
        || {
            let (ok, damaged) = verify(&root);
            assert!(!ok, "{damaged}");
            assert!(damaged.contains("intact records follow the damage"), "{damaged}");
        },
    );
    assert!(verify(&root).0, "the undamaged log verifies again");
    std::fs::remove_dir_all(&dir).ok();
}

/// What `client snapshot` exports from a point-class daemon is a root
/// like any other, and `verify` reads it as that class: clean, a flipped
/// byte that intact records follow, and a root missing the log its
/// `CURRENT` names.
#[test]
fn verify_fscks_a_point_class_snapshot_export() {
    let dir = tmp("verify-export");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("snap");
    serve_then(&["--model", "clusters", "--dim", "2", "--k", "4"], |addr| {
        run_ok(cli().args(["client", addr, "ingest-points", "--spec", "2K.4c.2d"]).args(["--blocks", "3", "--seed", "7"]));
        run_ok(cli().args(["client", addr, "snapshot", snap.to_str().unwrap()]));
    });
    let (ok, clean) = verify(&snap);
    assert!(ok && clean.contains("clusters stream: 3 block(s)"), "{clean}");
    assert!(clean.contains("wal-0.log: 3 record(s) through seq 2, clean"), "{clean}");

    let log = snap.join("wal-0.log");
    with_damage(&log, |bytes| { let mid = bytes.len() / 2; bytes[mid] ^= 0x01 }, || {
        let (ok, damaged) = verify(&snap);
        assert!(!ok && damaged.contains("DAMAGED") && damaged.contains("wal-0.log"), "{damaged}");
    });
    std::fs::remove_file(&log).unwrap();
    let (ok, missing) = verify(&snap);
    assert!(!ok && missing.contains("DAMAGED") && missing.contains("is missing"), "{missing}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--shards 2` daemon's WAL root is the one log of any daemon, and
/// `verify` reads it as such: one chain, report lines without a lane
/// prefix, a cut at its end a recoverable torn tail (exit 0) — and a
/// `shard-<s>/` directory, the log lane of a build that kept one per
/// shard, named as damage (exit 1), also where it is all the root holds.
/// The refused flag pins that group commit is no longer an option.
#[test]
fn verify_reads_one_chain_at_any_shard_count_and_names_a_leftover_lane() {
    let (dir, store) = small_store("verify-shards");
    let wal_dir = dir.join("wal");
    let wal = wal_dir.to_str().unwrap();

    let refused = cli()
        .args(["serve", "--wal-dir", wal, "--wal-group-commit"])
        .output()
        .expect("binary runs");
    assert_eq!(refused.status.code(), Some(2));
    let err = String::from_utf8_lossy(&refused.stderr);
    assert!(err.contains("unknown flag --wal-group-commit"), "{err}");

    serve_then(&["--shards", "2", "--wal-dir", wal], |addr| {
        run_ok(cli().args(["client", addr, "ingest", store.to_str().unwrap()]));
    });

    // An unrestricted daemon never drops a generation, so there is no
    // CURRENT: the log alone must identify the directory as a WAL root.
    let names: Vec<_> = std::fs::read_dir(&wal_dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(names, ["wal-0.log"]);
    let (ok, clean) = verify(&wal_dir);
    assert!(ok, "{clean}");
    assert!(clean.lines().any(|l| l == "wal-0.log: 3 record(s) through seq 2, clean"), "{clean}");

    with_damage(&wal_dir.join("wal-0.log"), |bytes| bytes.truncate(bytes.len() - 5), || {
        let (ok, torn) = verify(&wal_dir);
        assert!(ok && torn.contains("WAL directory is recoverable"), "{torn}");
        assert!(torn.contains("wal-0.log: 2 record(s) through seq 1, torn tail (recoverable)"), "{torn}");
    });

    let lane = wal_dir.join("shard-1");
    std::fs::create_dir(&lane).unwrap();
    let (ok, leftover) = verify(&wal_dir);
    assert!(!ok, "{leftover}");
    assert!(leftover.lines().any(|l| l.starts_with("DAMAGED") && l.contains("shard-1")), "{leftover}");
    assert!(leftover.contains("wal-0.log: 3 record(s)"), "{leftover}");
    std::fs::remove_file(wal_dir.join("wal-0.log")).unwrap();
    let (ok, only_lane) = verify(&wal_dir);
    assert!(!ok && only_lane.contains("shard-1"), "{only_lane}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_store_reports_error() {
    let out = cli()
        .args(["mine", "/nonexistent/demon-store", "--minsup", "0.1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}
