//! `demon-cli` — drive the DEMON framework from the command line.
//!
//! ```text
//! demon-cli generate quest    --spec 2M.20L.1I.4pats.4plen --scale 0.01 --blocks 4 --out store/
//! demon-cli generate webtrace --days 21 --rate 300 --granularity 6 --out trace/
//! demon-cli inspect  <store>
//! demon-cli verify   <store>
//! demon-cli mine     <store> --minsup 0.01 [--rules 0.8 --top 20]
//! demon-cli monitor  <store> --minsup 0.01 [--window 4] [--bss 1011] [--counter ecut+]
//! demon-cli patterns <store> [--alpha 0.12] [--min-len 4] [--window N]
//! demon-cli serve    --listen 127.0.0.1:7677 --model itemsets --items 1000 --minsup 0.01 [--workers 4]
//! demon-cli client   <addr> ingest <store> | ingest-points | ingest-labeled | query-model | sequences | stats | snapshot <dir> | shutdown
//! ```
//!
//! A store is a WAL root (`CURRENT` + `wal-<g>.log`, one `IngestBlock`
//! record per block), the one on-disk form of a block stream: `generate`
//! writes one, a daemon's `--wal-dir` and a `client snapshot` are one,
//! and every other command reads one by the rule a daemon's bind applies
//! ([`demon::serve::sequencer::read_root`]). `verify` is the read-only
//! fsck of a root: exit status 1 where a bind would refuse it.
//!
//! `serve` runs the long-lived monitoring daemon (`demon_serve`): blocks
//! stream in over TCP through a bounded ingest queue while concurrent
//! clients query the live model, the compact pattern sequences and the
//! stats table; `client` drives it. `client query-model` prints exactly
//! what `mine` prints for the same stream — the serving path is
//! byte-compatible with the batch path. `--model clusters|trees` serves
//! BIRCH+ clusters or windowed decision trees (`--window` required)
//! instead of itemsets;
//! `client ingest-points` / `ingest-labeled` stream deterministic
//! Gaussian blocks to those daemons.
//!
//! `--threads N` (any command) sets the process-wide thread count of the
//! parallel mining paths; `0` or omitting it means one thread per core.
//! Results are bit-identical at any thread count.
//!
//! `--memory-budget BYTES` (any command that holds blocks) bounds the
//! bytes of block data kept resident per in-process store; the rest
//! spills to a per-process temp directory and is faulted back on demand.
//! Models are bit-identical to an unbounded run.
//!
//! `--stats` (any command) prints the operation-counter table to stderr
//! after the command runs; `--trace-out FILE` writes the structured JSONL
//! event log (span timings plus a final `counters` event). Counter totals
//! are identical at any `--threads` setting.
//!
//! Output goes through one writer: a reader that goes away (`| head`)
//! ends a command as a success.

use demon::core::bss::{BlockSelector, WiBss, WrBss};
use demon::core::engine::{DataSpan, DemonEngine};
use demon::core::report;
use demon::core::ItemsetMaintainer;
use demon::datagen::webtrace::{self, WebTraceConfig, WebTraceGen};
use demon::datagen::{ClusterDataGen, ClusterParams, QuestGen, QuestParams};
use demon::focus::{CompactSequenceMiner, ItemsetSimilarity, SimilarityConfig};
use demon::itemsets::{derive_rules, BlockRef, CounterKind, FrequentItemsets, TxStore};
use demon::serve::sequencer::{self, RootLog};
use demon::serve::{
    Client, ClusterModel, DbscanModel, ItemsetModel, ServableModel, ServeConfig, Server, TreeModel,
};
use demon::store::StoreConfig;
use demon::trees::LabeledPoint;
use demon::types::{obs, DemonError};
use demon::types::{Block, BlockId, MinSupport, ModelClass, Timestamp, TxBlock};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Every line a command prints goes through [`emit`]: `println!` is
/// shadowed in this file.
macro_rules! println {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// The unwind payload of a write to a stdout nobody reads any more.
struct ClosedStdout;

/// Writes one line to stdout. A reader that went away ends the command:
/// the write unwinds with [`ClosedStdout`], which `run` turns into a
/// success once destructors and the `--stats` / `--trace-out` flush ran.
fn emit(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::panic::panic_any(ClosedStdout);
        }
        panic!("failed printing to stdout: {e}");
    }
}

const USAGE: &str = "\
demon-cli — mining and monitoring evolving data (DEMON, ICDE 2000)

USAGE:
  demon-cli generate quest    --out DIR [--spec S] [--scale F] [--blocks N] [--seed N]
  demon-cli generate webtrace --out DIR [--days N] [--rate F] [--granularity H] [--seed N]
  demon-cli inspect  STORE
  demon-cli verify   STORE
  demon-cli mine     STORE --minsup F [--rules F] [--top N]
  demon-cli monitor  STORE --minsup F [--window N] [--bss BITS] [--counter KIND]
  demon-cli patterns STORE [--alpha F] [--min-len N] [--window N]
  demon-cli serve    [--listen ADDR] [--model CLASS] [--items N] [--minsup F]
                     [--counter KIND] [--dim N] [--k N] [--classes N]
                     [--eps F] [--min-pts N]
                     [--window N] [--pattern-window N] [--alpha F] [--workers N]
                     [--shards N] [--queue N] [--queue-timeout-ms N] [--timeout-ms N]
                     [--wal-dir DIR] [--wal-max-bytes N]
  demon-cli client   ADDR ingest STORE
  demon-cli client   ADDR ingest-points  [--spec S] [--blocks N] [--seed N] [--model CLASS]
  demon-cli client   ADDR ingest-labeled [--spec S] [--blocks N] [--seed N]
  demon-cli client   ADDR query-model [--top N] [--json] [--model CLASS]
  demon-cli client   ADDR sequences | stats | shutdown
  demon-cli client   ADDR snapshot DIR

STORE:    a WAL root, the one on-disk form of a block stream: CURRENT +
          wal-<g>.log, one record per block. generate writes one; a
          daemon's --wal-dir and a client snapshot are one; every other
          command reads one as a daemon's bind does (a torn final record
          is dropped with a note on stderr; anything a bind refuses is an
          error).
COUNTERS: ptscan | ecut | ecut+ | adaptive
SERVE:    serve runs the TCP monitoring daemon (default 127.0.0.1:7677;
          port 0 picks an ephemeral port, printed on startup). client
          sends one verb: ingest streams a store's blocks, query-model
          prints what mine prints (--json for the raw model), snapshot
          writes the held blocks as a store server-side (any class),
          shutdown drains the ingest queue and exits the daemon cleanly.
MODEL:    --model itemsets|clusters|trees|dbscan picks the served model
          class (default itemsets). clusters maintains BIRCH+ over
          point blocks (--dim, --k centroids);
          trees maintains windowed decision trees over labeled points
          (--dim, --classes labels) and needs --window N: each block
          refits the window once, while an unrestricted refit grows
          with the stream (40 → 375 ms per block over 800 blocks), so
          it is refused. dbscan maintains incremental DBSCAN density
          models (--dim, --eps radius, --min-pts core threshold) whose
          --window slides by deleting the departing block instead of
          refitting. client ingest-points / ingest-labeled stream
          deterministic Gaussian blocks (--spec NM.Kc.dd, --seed) to
          such a daemon (ingest-points --model dbscan stamps the
          density class), and query-model --model CLASS pins the class
          (the daemon refuses a mismatched class with a typed error)
          and prints the raw model JSON.
BSS:      a bit string like 1011; window-relative when --window is set,
          window-independent (periodic) otherwise.
WAL:      --wal-dir DIR serves durably: every ingest is appended to a
          write-ahead log and fsynced before the ack, and a restart
          replays the log, its whole durable state (a torn final record
          is dropped; damage before the end refuses to start). DIR holds
          CURRENT + wal-<g>.log and nothing else, at any --shards.
          --wal-max-bytes is the segment size: full segments are sealed
          and unlinked once no --window / --pattern-window reaches their
          blocks (unrestricted: never); restart with the data span the
          log was trimmed under. Blocks queued together share one
          covering fsync (acks still wait for it). A generated store or
          a snapshot is a --wal-dir too: the daemon binds it and serves
          its stream with no ingest.
SHARDS:   --shards N (default 1) splits every update-phase counting pass
          over the held blocks into N shares (round-robin by block id)
          counted on up to N workers and merged exactly; answers,
          snapshots and the WAL directory are byte-identical at any
          shard count, so a daemon may restart over its --wal-dir with
          another N. --window requires --shards 1. Sharding needs an
          exact shard merge, so --shards ≥ 2 is itemsets-only (a
          clusters, trees or dbscan daemon refuses it with a typed error).
VERIFY:   reads a store (any class) by the rule a bind applies and
          reports each log file; exit status 1 where a bind would refuse.
THREADS:  --threads N (any command) sets the thread count of the
          parallel mining paths; 0 = one per core (the default).
          Results are bit-identical at any thread count.
MEMORY:   --memory-budget BYTES bounds resident block bytes per store
          (serve has one store at any --shards: it caps the daemon);
          excess blocks spill to a temp directory and are faulted back
          on demand. Models are identical to an unbounded run.
STATS:    --stats (any command) prints operation counters to stderr;
          --trace-out FILE writes the JSONL event log. Counter totals
          do not depend on --threads.
";

fn main() -> ExitCode {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !info.payload().is::<ClosedStdout>() {
            report(info);
        }
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["stats", "json"];

/// Flags that take a value — every other `--name` is refused by name.
const VALUE_FLAGS: &[&str] = &[
    "alpha", "blocks", "bss", "classes", "counter", "days", "dim", "eps", "granularity", "items",
    "k", "listen", "memory-budget", "min-len", "min-pts", "minsup", "model", "out",
    "pattern-window", "queue", "queue-timeout-ms", "rate", "rules", "scale", "seed", "shards",
    "spec", "threads", "timeout-ms", "top", "trace-out", "wal-dir", "wal-max-bytes", "window",
    "workers",
];

/// Splits arguments into positionals and `--flag value` pairs
/// (boolean flags like `--stats` take no value).
fn parse(args: &[String]) -> Result<(Vec<&str>, HashMap<&str, &str>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if BOOL_FLAGS.contains(&name) {
                flags.insert(name, "true");
                i += 1;
            } else if VALUE_FLAGS.contains(&name) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.insert(name, value.as_str());
                i += 2;
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn flag_parse<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse {v:?}")),
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (positional, flags) = parse(args)?;
    let threads: usize = flag_parse(&flags, "threads", 0)?;
    demon::types::parallel::set_global(demon::types::Parallelism::new(threads));
    let stats = flags.contains_key("stats");
    let trace_out = flags.get("trace-out").map(PathBuf::from);
    if stats || trace_out.is_some() {
        obs::reset();
        obs::enable();
    }
    let ok = |()| ExitCode::SUCCESS;
    let command = || match positional.first().copied() {
        Some("generate") => generate(&positional, &flags).map(ok),
        Some("inspect") => inspect(&positional, &flags).map(ok),
        Some("verify") => verify(&positional),
        Some("mine") => mine(&positional, &flags).map(ok),
        Some("monitor") => monitor(&positional, &flags).map(ok),
        Some("patterns") => patterns(&positional, &flags).map(ok),
        Some("serve") => serve(&flags).map(ok),
        Some("client") => client(&positional, &flags).map(ok),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    };
    let result = match std::panic::catch_unwind(command) {
        Ok(result) => result,
        Err(payload) if payload.is::<ClosedStdout>() => Ok(ExitCode::SUCCESS),
        Err(payload) => std::panic::resume_unwind(payload),
    };
    // Flush observability output even when the command failed: a partial
    // trace of the work done before the error is still useful.
    finish_obs(stats, trace_out.as_deref())?;
    // Every engine store has dropped by now and removed its own spill
    // files; sweep the per-process scaffolding directories they sat in.
    if flags.contains_key("memory-budget") {
        let _ = std::fs::remove_dir_all(spill_base());
    }
    result
}

/// Renders `--stats` to stderr and writes the `--trace-out` JSONL file,
/// then disables the recorder.
fn finish_obs(stats: bool, trace_out: Option<&Path>) -> Result<(), String> {
    if !obs::is_enabled() {
        return Ok(());
    }
    obs::emit_counters_event();
    if let Some(path) = trace_out {
        std::fs::write(path, obs::events_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if stats {
        eprint!("{}", obs::render_table(&obs::snapshot()));
    }
    obs::disable();
    Ok(())
}

fn store_arg<'a>(positional: &[&'a str]) -> Result<&'a Path, String> {
    positional
        .get(1)
        .map(|p| Path::new(*p))
        .ok_or_else(|| "missing STORE directory argument".to_string())
}

/// The storage-engine config behind `--memory-budget BYTES`: block data
/// beyond the budget spills to a per-process temp directory (removed on
/// exit) and is faulted back on demand. Each in-process store gets its
/// own subdirectory named by `label`. Omitting the flag keeps every
/// block in memory, as before.
fn store_config(flags: &HashMap<&str, &str>, label: &str) -> Result<StoreConfig, String> {
    match flags.get("memory-budget") {
        None => Ok(StoreConfig::InMemory),
        Some(v) => {
            let bytes: u64 = v
                .parse()
                .map_err(|_| format!("--memory-budget: cannot parse {v:?}"))?;
            Ok(StoreConfig::budget(spill_base().join(label), bytes))
        }
    }
}

/// The per-process root under which every `--memory-budget` store
/// spills; removed wholesale at the end of `run`.
fn spill_base() -> PathBuf {
    std::env::temp_dir().join(format!("demon-spill-{}", std::process::id()))
}

/// Fetches a block the store listed. A failure to fault it back in (a
/// damaged or missing spill file) is a CLI error, not a panic.
fn block_ref<'s>(store: &'s TxStore, id: BlockId) -> Result<BlockRef<'s>, String> {
    match store.try_block(id) {
        Ok(Some(b)) => Ok(b),
        Ok(None) => Err(format!("block {id} is listed but missing from the store")),
        Err(e) => Err(format!("reading block {id}: {e}")),
    }
}

/// Reads the store named on the command line as an itemset stream, by
/// the rule a daemon's bind applies: its item universe — the records'
/// own, which every record must share — and its blocks in id order. A
/// torn end of the log is dropped and named on stderr.
fn read_stream<'a>(
    positional: &[&'a str],
) -> Result<(u32, impl Iterator<Item = Result<TxBlock, String>> + 'a), String> {
    let dir = store_arg(positional)?;
    let reading = move |e: DemonError| format!("reading {}: {e}", dir.display());
    sequencer::refuse_old_layout(dir).map_err(reading)?;
    let mut log = sequencer::read_root(dir, Some(ModelClass::Itemsets)).map_err(reading)?;
    for file in log.files.iter().filter(|file| !file.stale) {
        if let Some(tear) = &file.torn {
            eprintln!("note: dropped the torn tail of wal-{}.log: {tear}", file.gen);
        }
    }
    let n_items = log.meta().ok_or_else(|| format!("{} holds no blocks", dir.display()))?;
    let blocks = log.blocks::<ItemsetModel>(Some(n_items));
    Ok((n_items, blocks.map(move |block| block.map_err(reading))))
}

/// Loads the store named on the command line into a [`TxStore`], which
/// rebuilds each block's TID-lists on arrival.
fn load(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<TxStore, String> {
    let (n_items, blocks) = read_stream(positional)?;
    let config = store_config(flags, "replay")?;
    let mut store = TxStore::with_config(n_items, &config).map_err(|e| e.to_string())?;
    for block in blocks {
        store.add_block(block?);
    }
    Ok(store)
}

/// The read-only fsck behind `demon-cli verify`: reads a store of any
/// class by the rule a bind applies ([`sequencer::read_root`], every
/// record decoded) and reports each log file — a torn end of the chain
/// is recoverable, generations below `CURRENT` are stale residue — and,
/// with exit status 1, whatever a bind would refuse.
fn verify(positional: &[&str]) -> Result<ExitCode, String> {
    let dir = store_arg(positional)?;
    let damaged = |e: &DemonError| {
        let file = match e {
            DemonError::Corrupt { file, .. } | DemonError::ChecksumMismatch { file, .. } => file.clone(),
            _ => dir.display().to_string(),
        };
        println!("DAMAGED {file}: {e}");
    };
    let mut damage = 0usize;
    match sequencer::refuse_old_layout(dir) {
        Err(DemonError::Io(e)) => return Err(format!("reading {}: {e}", dir.display())),
        Err(e) => {
            damaged(&e);
            damage += 1;
        }
        Ok(()) => {}
    }
    match sequencer::read_root(dir, None).and_then(|log| {
        println!("WAL directory (oldest retained generation {})", log.current);
        for file in &log.files {
            let stale = if file.stale { " (stale)" } else { "" };
            let through = file.last_seq.map(|seq| format!(" through seq {seq}"));
            match (&file.torn, through) {
                (Some(tear), through) => println!(
                    "wal-{}.log: {} record(s){}{stale}, torn tail (recoverable): {tear}",
                    file.gen,
                    file.records,
                    through.unwrap_or_default()
                ),
                (None, Some(through)) => {
                    println!("wal-{}.log: {} record(s){through}, clean{stale}", file.gen, file.records)
                }
                (None, None) => println!("wal-{}.log: empty, clean{stale}", file.gen),
            }
        }
        replayable(log)
    }) {
        Ok(Some((class, blocks))) => println!("{} stream: {blocks} block(s)", class.name()),
        Ok(None) => println!("no blocks"),
        Err(e) => {
            damaged(&e);
            damage += 1;
        }
    }
    if damage == 0 {
        println!("WAL directory is recoverable");
        return Ok(ExitCode::SUCCESS);
    }
    println!("{damage} defect(s) — a daemon refuses to bind this directory");
    Ok(ExitCode::FAILURE)
}

/// The class of a root's records and how many blocks a replay of them
/// decodes (`None`: no records).
fn replayable(mut log: RootLog) -> demon::types::Result<Option<(ModelClass, usize)>> {
    fn count<S: ServableModel>(log: &mut RootLog) -> demon::types::Result<usize> {
        log.blocks::<S>(None).try_fold(0, |n, block| block.map(|_| n + 1))
    }
    let Some(tag) = log.class else { return Ok(None) };
    let class = ModelClass::from_tag(tag).ok_or_else(|| {
        DemonError::InvalidParameter(format!("records of an unknown {}", ModelClass::describe_tag(tag)))
    })?;
    let blocks = match class {
        ModelClass::Itemsets => count::<ItemsetModel>(&mut log),
        ModelClass::Clusters => count::<ClusterModel>(&mut log),
        ModelClass::Trees => count::<TreeModel>(&mut log),
        ModelClass::Density => count::<DbscanModel>(&mut log),
    }?;
    Ok(Some((class, blocks)))
}

fn generate(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    let out: PathBuf = PathBuf::from(
        *flags
            .get("out")
            .ok_or_else(|| "generate needs --out DIR".to_string())?,
    );
    match positional.get(1).copied() {
        Some("quest") => {
            let spec = flags.get("spec").copied().unwrap_or("1M.20L.1I.4pats.4plen");
            let scale: f64 = flag_parse(flags, "scale", 0.01)?;
            let n_blocks: u64 = flag_parse(flags, "blocks", 4)?;
            let seed: u64 = flag_parse(flags, "seed", 1)?;
            let params = QuestParams::parse(spec, scale)?;
            let per_block = (params.n_transactions / n_blocks as usize).max(1);
            let n_items = params.n_items;
            let mut gen = QuestGen::new(params, seed);
            sequencer::write_root::<ItemsetModel>(&out, n_items, |put| {
                (1..=n_blocks)
                    .try_for_each(|id| put(&Block::new(BlockId(id), gen.take_transactions(per_block))))
            })
            .map_err(|e| e.to_string())?;
            println!(
                "wrote {} blocks × {} transactions ({} items) to {}",
                n_blocks,
                per_block,
                n_items,
                out.display()
            );
            Ok(())
        }
        Some("webtrace") => {
            let days: u64 = flag_parse(flags, "days", 21)?;
            let rate: f64 = flag_parse(flags, "rate", 300.0)?;
            let granularity: u64 = flag_parse(flags, "granularity", 6)?;
            let seed: u64 = flag_parse(flags, "seed", 0xDEC_1996)?;
            let mut gen = WebTraceGen::new(WebTraceConfig {
                days,
                base_rate: rate,
                seed,
                ..WebTraceConfig::default()
            });
            let requests = gen.generate();
            let blocks = webtrace::segment_into_blocks(
                &requests,
                granularity,
                Timestamp::from_day_hour(0, 12),
            );
            let n_blocks = sequencer::write_root::<ItemsetModel>(&out, webtrace::N_ITEMS, |put| {
                blocks.iter().try_for_each(put)
            })
            .map_err(|e| e.to_string())?;
            println!(
                "wrote {} requests as {} blocks of {}h to {}",
                requests.len(),
                n_blocks,
                granularity,
                out.display()
            );
            Ok(())
        }
        other => Err(format!(
            "generate: unknown dataset {other:?} (quest | webtrace)"
        )),
    }
}

fn inspect(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    let store = load(positional, flags)?;
    println!("items:  {}", store.n_items());
    println!("blocks: {}", store.len());
    let ids = store.block_ids();
    println!("transactions: {}", store.n_transactions(ids));
    for &id in ids {
        let b = block_ref(&store, id)?;
        let span = b
            .interval()
            .map(|iv| format!("  [{} .. {})", iv.start, iv.end))
            .unwrap_or_default();
        println!("  {id}: {} transactions{span}", b.len());
    }
    println!(
        "base space: {} TIDs; pair space: {} TIDs",
        store.item_space(ids),
        store.pair_space(ids)
    );
    Ok(())
}

fn minsup_flag(flags: &HashMap<&str, &str>) -> Result<MinSupport, String> {
    let kappa: f64 = flag_parse(flags, "minsup", 0.01)?;
    MinSupport::new(kappa).map_err(|e| e.to_string())
}

fn model_flag(flags: &HashMap<&str, &str>) -> Result<Option<ModelClass>, String> {
    match flags.get("model") {
        None => Ok(None),
        Some(v) => ModelClass::parse(v)
            .map(Some)
            .ok_or_else(|| {
                format!("--model: unknown class {v:?} (itemsets | clusters | trees | dbscan)")
            }),
    }
}

fn counter_flag(flags: &HashMap<&str, &str>) -> Result<CounterKind, String> {
    match flags.get("counter").copied().unwrap_or("ecut") {
        "ptscan" => Ok(CounterKind::PtScan),
        "ecut" => Ok(CounterKind::Ecut),
        "ecut+" | "ecutplus" => Ok(CounterKind::EcutPlus),
        "adaptive" => Ok(CounterKind::Adaptive),
        other => Err(format!("unknown counter {other:?}")),
    }
}

/// Prints a model the way `mine` always has: the summary line, then the
/// top itemsets by support. Shared by `mine` and `client query-model`,
/// so the served model and the batch model render byte-identically.
fn print_model(model: &FrequentItemsets, top: usize) {
    println!(
        "{} frequent itemsets over {} transactions ({}, border {})",
        model.n_frequent(),
        model.n_transactions(),
        model.min_support(),
        model.border().len()
    );
    let mut sorted = model.frequent_sorted();
    sorted.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (set, count) in sorted.iter().take(top) {
        println!(
            "  {set}  {:.3}%",
            *count as f64 / model.n_transactions() as f64 * 100.0
        );
    }
}

fn mine(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    let store = load(positional, flags)?;
    let minsup = minsup_flag(flags)?;
    let ids = store.block_ids().to_vec();
    let model = {
        let _sp = obs::span("mine");
        FrequentItemsets::mine_from(&store, &ids, minsup).map_err(|e| e.to_string())?
    };
    let top: usize = flag_parse(flags, "top", 20)?;
    print_model(&model, top);
    if let Some(conf) = flags.get("rules") {
        let conf: f64 = conf
            .parse()
            .map_err(|_| "--rules: bad confidence".to_string())?;
        println!("\nassociation rules (confidence ≥ {conf}):");
        for rule in derive_rules(&model, conf).iter().take(top) {
            println!("  {rule}");
        }
    }
    Ok(())
}

fn bss_flag(
    flags: &HashMap<&str, &str>,
    window: Option<usize>,
) -> Result<BlockSelector, String> {
    match flags.get("bss") {
        None => Ok(BlockSelector::all()),
        Some(&"") => Err("--bss: empty bit string".to_string()),
        Some(bits) => {
            let parsed: Vec<bool> = bits
                .chars()
                .map(|c| match c {
                    '1' => Ok(true),
                    '0' => Ok(false),
                    other => Err(format!("--bss: invalid bit {other:?}")),
                })
                .collect::<Result<_, _>>()?;
            match window {
                Some(w) if parsed.len() == w => {
                    Ok(BlockSelector::WindowRelative(WrBss::new(parsed)))
                }
                Some(w) => Err(format!("--bss length {} ≠ window {w}", parsed.len())),
                None => Ok(BlockSelector::WindowIndependent(WiBss::Periodic {
                    pattern: parsed,
                })),
            }
        }
    }
}

fn monitor(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    let store = load(positional, flags)?;
    let minsup = minsup_flag(flags)?;
    let counter = counter_flag(flags)?;
    let window: Option<usize> = match flags.get("window") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| "--window: bad number".to_string())?),
    };
    let selector = bss_flag(flags, window)?;
    let maintainer = ItemsetMaintainer::with_store_config(
        store.n_items(),
        minsup,
        counter,
        &store_config(flags, "model")?,
    )
    .map_err(|e| e.to_string())?;

    let span = match (window, selector) {
        (Some(w), selector) => DataSpan::MostRecent { w, selector },
        (None, BlockSelector::WindowIndependent(wi)) => DataSpan::Unrestricted(wi),
        (None, BlockSelector::WindowRelative(_)) => unreachable!("window is None"),
    };
    let mut engine = DemonEngine::new(maintainer, span).map_err(|e| e.to_string())?;
    println!("block     txs  absorbed  response  |L|");
    for &id in store.block_ids() {
        let block = (*block_ref(&store, id)?).clone();
        let n = block.len();
        let _sp = obs::span("add_block");
        let s = engine.add_block(block).map_err(|e| e.to_string())?;
        let l = engine.current_model().map_or(0, |m| m.n_frequent());
        println!(
            "{id:<6} {n:>6}  {:>8}  {:>7.2}ms  {l}",
            if s.absorbed { "yes" } else { "no" },
            s.response_time.as_secs_f64() * 1e3
        );
    }
    let model = engine.current_model().ok_or("no blocks replayed")?;
    match window {
        Some(_) => println!(
            "\nfinal window model: {} frequent itemsets over blocks {:?}",
            model.n_frequent(),
            model.included_blocks()
        ),
        None => println!(
            "\nfinal model: {} frequent itemsets over {} transactions",
            model.n_frequent(),
            model.n_transactions()
        ),
    }
    Ok(())
}

fn patterns(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    let store = load(positional, flags)?;
    let alpha: f64 = flag_parse(flags, "alpha", 0.12)?;
    let min_len: usize = flag_parse(flags, "min-len", 4)?;
    let minsup = minsup_flag(flags)?;
    let oracle =
        ItemsetSimilarity::new(store.n_items(), minsup, SimilarityConfig::Threshold { alpha });
    let ids = store.block_ids().to_vec();
    let mut intervals = HashMap::new();
    for &id in &ids {
        if let Some(iv) = block_ref(&store, id)?.interval() {
            intervals.insert(id, iv);
        }
    }

    let describe = |seq: &[BlockId]| -> String {
        let ivs: Option<Vec<_>> = seq.iter().map(|id| intervals.get(id).copied()).collect();
        match ivs {
            Some(ivs) if !ivs.is_empty() => report::describe(&ivs).description,
            _ => format!("{seq:?}"),
        }
    };

    let window: Option<usize> = match flags.get("window") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| "--window: bad number".to_string())?),
    };
    let mut miner =
        CompactSequenceMiner::with_window(oracle, window).map_err(|e| e.to_string())?;
    for &id in &ids {
        miner.add_block((*block_ref(&store, id)?).clone());
    }
    let mut rows: Vec<(usize, String)> = Vec::new();
    for seq in miner.current_sequences() {
        if seq.len() >= min_len {
            rows.push((seq.len(), describe(&seq)));
        }
    }
    rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    rows.dedup_by(|a, b| a.1 == b.1);
    println!("compact sequences (≥ {min_len} blocks, α={alpha}):");
    for (len, desc) in rows.iter().take(20) {
        println!("  {len:>3} blocks  {desc}");
    }
    if rows.is_empty() {
        println!("  (none)");
    }
    Ok(())
}

/// `demon-cli serve` — run the TCP monitoring daemon until a client
/// sends `shutdown`.
fn serve(flags: &HashMap<&str, &str>) -> Result<(), String> {
    let listen = flags.get("listen").copied().unwrap_or("127.0.0.1:7677");
    let items: u32 = flag_parse(flags, "items", 1000)?;
    let mut config = ServeConfig::new(listen, items, minsup_flag(flags)?);
    config.model = model_flag(flags)?.unwrap_or(ModelClass::Itemsets);
    config.dim = flag_parse(flags, "dim", config.dim)?;
    config.k = flag_parse(flags, "k", config.k)?;
    config.classes = flag_parse(flags, "classes", config.classes)?;
    config.eps = flag_parse(flags, "eps", config.eps)?;
    config.min_pts = flag_parse(flags, "min-pts", config.min_pts)?;
    config.counter = counter_flag(flags)?;
    config.window = match flags.get("window") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| "--window: bad number".to_string())?),
    };
    config.pattern_window = match flags.get("pattern-window") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| "--pattern-window: bad number".to_string())?,
        ),
    };
    config.alpha = flag_parse(flags, "alpha", config.alpha)?;
    config.workers = flag_parse(flags, "workers", config.workers)?;
    config.shards = flag_parse(flags, "shards", config.shards)?;
    config.queue_capacity = flag_parse(flags, "queue", config.queue_capacity)?;
    config.queue_timeout =
        Duration::from_millis(flag_parse(flags, "queue-timeout-ms", 5000u64)?);
    config.io_timeout = Duration::from_millis(flag_parse(flags, "timeout-ms", 30_000u64)?);
    config.store_config = store_config(flags, "serve")?;
    config.wal_dir = flags.get("wal-dir").map(PathBuf::from);
    config.wal_max_bytes = flag_parse(flags, "wal-max-bytes", config.wal_max_bytes)?;
    let server = Server::bind(config).map_err(|e| format!("binding {listen}: {e}"))?;
    // Tests and scripts parse this line for the resolved ephemeral port.
    println!("demon-serve listening on {}", server.local_addr());
    let summary = server.run().map_err(|e| e.to_string())?;
    println!(
        "served {} requests, ingested {} blocks",
        summary.requests, summary.blocks
    );
    Ok(())
}

/// `demon-cli client ADDR VERB …` — one verb per invocation against a
/// running daemon.
fn client(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    let addr = positional
        .get(1)
        .copied()
        .ok_or_else(|| "client needs a server ADDR".to_string())?;
    let verb = positional
        .get(2)
        .copied()
        .ok_or_else(|| "client needs a verb (ingest | ingest-points | ingest-labeled | query-model | sequences | stats | snapshot | shutdown)".to_string())?;
    let timeout = Duration::from_millis(flag_parse(flags, "timeout-ms", 30_000u64)?);
    let mut client = Client::connect_timeout(addr, timeout)
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    match verb {
        "ingest" => {
            // `read_stream` reads STORE from its own positional[1], so
            // hand it the slice starting at the verb.
            let (n_items, blocks) = read_stream(&positional[2..])?;
            let mut sent = 0u64;
            let mut skipped = 0u64;
            for block in blocks {
                let block = block?;
                let (id, n) = (block.id(), block.len());
                // A duplicate means the daemon already holds this block
                // (e.g. it recovered it from its WAL); re-streaming the
                // same store is idempotent, not an error.
                match client.ingest(n_items, &block) {
                    Ok(()) => {
                        sent += 1;
                        println!("ingested {id}: {n} transactions");
                    }
                    Err(DemonError::DuplicateBlock { .. }) => {
                        skipped += 1;
                        println!("skipped {id}: already applied");
                    }
                    Err(e) => return Err(format!("ingesting block {id}: {e}")),
                }
            }
            if skipped > 0 {
                println!("streamed {sent} blocks to {addr} ({skipped} already applied)");
            } else {
                println!("streamed {sent} blocks to {addr}");
            }
            Ok(())
        }
        "ingest-points" => ingest_synthetic(&mut client, flags, addr, false),
        "ingest-labeled" => ingest_synthetic(&mut client, flags, addr, true),
        "query-model" => {
            let class = model_flag(flags)?;
            let json = match class {
                // No --model: the legacy any-class query, answered by
                // whatever the daemon serves.
                None => client.query_model_json(),
                Some(c) => client.query_model_json_for(c),
            }
            .map_err(|e| e.to_string())?;
            // The itemset pretty-printer only makes sense for itemset
            // JSON; a pinned clusters/trees model prints raw.
            let pretty = !flags.contains_key("json")
                && matches!(class, None | Some(ModelClass::Itemsets));
            if pretty {
                let model: FrequentItemsets = serde_json::from_str(&json)
                    .map_err(|e| format!("parsing served model: {e}"))?;
                print_model(&model, flag_parse(flags, "top", 20)?);
            } else {
                println!("{json}");
            }
            Ok(())
        }
        "sequences" => {
            let seqs = client.query_sequences().map_err(|e| e.to_string())?;
            println!("{} compact sequence(s):", seqs.len());
            for seq in &seqs {
                println!("  {} blocks  {seq:?}", seq.len());
            }
            Ok(())
        }
        "stats" => {
            println!("{}", client.stats_json().map_err(|e| e.to_string())?);
            Ok(())
        }
        "snapshot" => {
            let dir = positional
                .get(3)
                .copied()
                .ok_or_else(|| "snapshot needs a DIR argument".to_string())?;
            let blocks = client.snapshot(dir).map_err(|e| e.to_string())?;
            println!("snapshot of {blocks} block(s) written to {dir} (server-side)");
            Ok(())
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server at {addr} is shutting down");
            Ok(())
        }
        other => Err(format!("unknown client verb {other:?}")),
    }
}

/// `client ADDR ingest-points | ingest-labeled` — streams blocks from
/// the Gaussian cluster generator (the BIRCH experiments' data) into a
/// clusters, dbscan or trees daemon. `--spec NM.Kc.dd` fixes the ground
/// truth, `--blocks` splits the points into that many blocks, and
/// `--seed` makes reruns byte-identical — so re-streaming after a
/// daemon restart is idempotent (duplicates are skipped), exactly like
/// re-streaming a store. `ingest-points --model dbscan` stamps the
/// blocks with the density class tag for a `--model dbscan` daemon.
fn ingest_synthetic(
    client: &mut Client,
    flags: &HashMap<&str, &str>,
    addr: &str,
    labeled: bool,
) -> Result<(), String> {
    let spec = flags.get("spec").copied().unwrap_or("4K.4c.2d");
    let n_blocks: u64 = flag_parse(flags, "blocks", 4)?;
    let seed: u64 = flag_parse(flags, "seed", 1)?;
    let class = model_flag(flags)?.unwrap_or(ModelClass::Clusters);
    match class {
        ModelClass::Clusters | ModelClass::Density if !labeled => {}
        _ if labeled => {}
        other => {
            return Err(format!(
                "ingest-points streams point blocks; --model {} wants a different record type",
                other.name()
            ))
        }
    }
    let params = ClusterParams::parse(spec, 1.0)?;
    let per_block = (params.n_points / n_blocks as usize).max(1);
    let dim = params.dim as u32;
    let mut gen = ClusterDataGen::new(params, seed);
    let mut sent = 0u64;
    let mut skipped = 0u64;
    for raw in 1..=n_blocks {
        let id = BlockId(raw);
        let outcome = if labeled {
            let records = gen
                .take_labeled(per_block)
                .into_iter()
                .map(|(point, label)| LabeledPoint { point, label })
                .collect();
            client.ingest_labeled(dim, &Block::new(id, records))
        } else if class == ModelClass::Density {
            client.ingest_density(dim, &Block::new(id, gen.take_points(per_block)))
        } else {
            client.ingest_points(dim, &Block::new(id, gen.take_points(per_block)))
        };
        match outcome {
            Ok(()) => {
                sent += 1;
                println!("ingested {id}: {per_block} points");
            }
            Err(DemonError::DuplicateBlock { .. }) => {
                skipped += 1;
                println!("skipped {id}: already applied");
            }
            Err(e) => return Err(format!("ingesting block {id}: {e}")),
        }
    }
    if skipped > 0 {
        println!("streamed {sent} blocks to {addr} ({skipped} already applied)");
    } else {
        println!("streamed {sent} blocks to {addr}");
    }
    Ok(())
}
