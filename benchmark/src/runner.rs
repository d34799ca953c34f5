//! One run of one workload: the untraced run behind the end-to-end
//! metrics, and the traced run behind the per-layer metrics.

use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stages;
use crate::stats::Estimate;
use crate::trace::{self, Span};
use crate::workloads::{self, class_sweep, gemm_window, ingest_durable, query_mixed};
use crate::workloads::{Ctx, Outcome, Plan};
use crate::{env, gen};
use demon_types::obs;
use serde_json::{json, Map, Value};
use std::path::Path;
use std::time::Instant;

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// `--workload`.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the run measures; sets the round count.
    pub seconds: u64,
    /// `--trace 1`: report the per-layer metrics instead.
    pub trace: bool,
    /// `--quick`: a smoke-test plan (the contract test).
    pub quick: bool,
}

struct Workload {
    plan: Plan,
    client_threads: usize,
    reads_per_ingest: usize,
    run: fn(&Ctx<'_>) -> Outcome,
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "ingest_durable" => Workload {
            plan: ingest_durable::PLAN,
            client_threads: ingest_durable::CLIENT_THREADS,
            reads_per_ingest: 0,
            run: ingest_durable::run,
        },
        "query_mixed" => Workload {
            plan: query_mixed::PLAN,
            client_threads: query_mixed::CLIENT_THREADS,
            reads_per_ingest: query_mixed::READS_PER_BLOCK,
            run: query_mixed::run,
        },
        "gemm_window" => Workload {
            plan: gemm_window::PLAN,
            client_threads: gemm_window::CLIENT_THREADS,
            reads_per_ingest: 0,
            run: gemm_window::run,
        },
        "class_sweep" => Workload {
            plan: class_sweep::PLAN,
            client_threads: class_sweep::CLIENT_THREADS,
            reads_per_ingest: 0,
            run: class_sweep::run,
        },
        _ => return None,
    })
}

/// Runs one workload as the contract describes; returns the process
/// exit code. The last line printed is the result object.
pub fn run(args: &RunArgs) -> i32 {
    let Some(w) = workload(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "demonbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        return 2;
    };
    demon_types::parallel::set_global(demon_types::Parallelism::new(env::ENGINE_THREADS));
    let out_dir = env::out_dir();
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("demonbench: cannot create {}: {e}", scratch.display());
        return 2;
    }

    let (plan, rounds) = if args.quick {
        (w.plan.quick(), 1)
    } else if args.trace {
        // Two plain rounds and a traced one, whatever `--seconds` says:
        // the stage replay takes the rest of the time.
        (w.plan, 2)
    } else {
        (w.plan, w.plan.rounds_for(args.seconds))
    };
    let environment = env::block(
        args.seed,
        w.client_threads,
        &json!({
            "rounds": rounds,
            "segments": plan.segments,
            "ingests": plan.ingests_per_segment,
            "reads_per_ingest": w.reads_per_ingest,
            "prefix": plan.prefix,
            "block_txs": gen::BLOCK_TXS,
        }),
    );
    println!(
        "# demonbench {} seed={} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("# env {environment}");

    let ctx = Ctx {
        seed: args.seed,
        plan,
        rounds,
        traced: false,
        scratch: &scratch,
    };
    let result = if args.trace {
        traced(args, &w, ctx, &out_dir)
    } else {
        untraced(&w, ctx)
    };
    workloads::remove_dir(&scratch);

    let stored = json!({
        "workload": args.workload,
        "trace": args.trace,
        "env": environment,
        "result": result.line,
        "detail": result.detail,
    });
    let file = out_dir.join(format!(
        "run-{}-{}.json",
        args.workload,
        if args.trace { "trace" } else { "e2e" }
    ));
    match serde_json::to_string_pretty(&stored) {
        Ok(body) => {
            if let Err(e) = std::fs::write(&file, body + "\n") {
                eprintln!("demonbench: cannot write {}: {e}", file.display());
            }
        }
        Err(e) => eprintln!("demonbench: cannot serialize the run record: {e}"),
    }
    println!("{}", result.line);
    i32::from(!result.correct)
}

struct RunResult {
    /// The contract's result object.
    line: Value,
    /// What is stored beside it (medians, noise readings, span totals).
    detail: Value,
    correct: bool,
}

fn execute(w: &Workload, ctx: &Ctx<'_>) -> (Outcome, f64) {
    let before = env::cpu_jiffies();
    let outcome = (w.run)(ctx);
    (outcome, env::steal_share(before, env::cpu_jiffies()))
}

fn report_gates(outcome: &Outcome) -> bool {
    for failure in &outcome.gate_failures {
        println!("# GATE FAILED: {failure}");
    }
    if outcome.failed > 0 {
        println!("# {} of {} ops failed", outcome.failed, outcome.attempted);
    }
    if outcome.attempted == 0 {
        println!("# GATE FAILED: no timed op ran");
    }
    outcome.gate_failures.is_empty() && outcome.attempted > 0
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Map) -> Value {
    json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    })
}

fn metric(value: f64, unit: &str) -> Value {
    assert!(value.is_finite(), "a metric must be a finite number");
    json!({"value": value, "unit": unit})
}

/// The end-to-end run: tracing off, recorder as the program leaves it.
fn untraced(w: &Workload, ctx: Ctx<'_>) -> RunResult {
    let started = Instant::now();
    let (outcome, steal) = execute(w, &ctx);
    let e = workloads::reduce(&outcome);
    let peak = Estimate {
        value: outcome.peak_rss_mb,
        median: outcome.peak_rss_mb,
        quartile: outcome.peak_rss_mb,
        iqr_share: 0.0,
    };
    let correct = report_gates(&outcome);

    let estimates = [
        e.setup_s,
        e.ingest_p50_ms,
        e.ingest_tail_ms,
        e.blocks_per_s,
        peak,
    ];
    println!(
        "# {:<16} {:>12} {:<5} {:>12} {:>12} {:>20}",
        "metric", "value", "unit", "median", "quartile", "noise.segment_iqr_share"
    );
    let mut metrics = Map::new();
    let mut detail = Map::new();
    for (spec, est) in END_TO_END.iter().zip(estimates) {
        println!(
            "# {:<16} {:>12.4} {:<5} {:>12.4} {:>12.4} {:>20.4}",
            spec.name, est.value, spec.unit, est.median, est.quartile, est.iqr_share
        );
        metrics.insert(spec.name.to_string(), metric(est.value, spec.unit));
        detail.insert(
            spec.name.to_string(),
            json!({
                "median": est.median,
                "quartile": est.quartile,
                "noise.segment_iqr_share": est.iqr_share,
            }),
        );
    }
    println!(
        "# noise.steal_share {steal:.4}  slowest ingest {:.2} ms  {} rounds  {} ops, {} failed, {:.1} s",
        e.ingest_max_ms,
        outcome.rounds.len(),
        outcome.attempted,
        outcome.failed,
        started.elapsed().as_secs_f64()
    );
    detail.insert("noise.steal_share".to_string(), json!(steal));
    detail.insert("ingest_max_ms".to_string(), json!(e.ingest_max_ms));
    detail.insert("gate_failures".to_string(), json!(outcome.gate_failures));
    detail.insert("rounds".to_string(), rounds_detail(&outcome));
    RunResult {
        line: result_line(correct, outcome.attempted, outcome.failed, metrics),
        detail: Value::Object(detail),
        correct,
    }
}

/// Every segment's own statistics, so a stored run can be re-read with
/// another estimator.
fn rounds_detail(outcome: &Outcome) -> Value {
    let rounds: Vec<Value> = outcome
        .rounds
        .iter()
        .map(|round| {
            let segments: Vec<Value> = round
                .segments
                .iter()
                .map(|s| {
                    let (ingest_p50, ingest_p90) = s.ingest.p50_p90_ms();
                    json!({
                        "ingest_p50_ms": ingest_p50,
                        "ingest_p90_ms": ingest_p90,
                        "wall_s": s.wall.as_secs_f64(),
                    })
                })
                .collect();
            json!({"setup_s": round.setup.as_secs_f64(), "segments": segments})
        })
        .collect();
    Value::Array(rounds)
}

/// The per-layer run: the workload once more without and once with
/// harness spans and the `obs` recorder on (their difference is the
/// tracing overhead), then the stage replay.
fn traced(args: &RunArgs, w: &Workload, plain_ctx: Ctx<'_>, out_dir: &Path) -> RunResult {
    let started = Instant::now();
    // The plain rounds give the noise reading and the baseline rate…
    let (plain, steal) = execute(w, &plain_ctx);
    let plain_e2e = workloads::reduce(&plain);
    // …one traced round gives spans and the traced rate.
    let recorder_was_on = obs::is_enabled();
    obs::enable();
    let (mut traced, _) = execute(
        w,
        &Ctx {
            rounds: 1,
            traced: true,
            ..plain_ctx
        },
    );
    if !recorder_was_on {
        obs::disable();
    }
    obs::reset();
    let traced_e2e = workloads::reduce(&traced);

    let (mut layers, replay_spans) = stages::replay(args.seed, plain_ctx.scratch, args.quick);
    // Least round against least round: a process's first round pays
    // the page faults of a heap the later rounds reuse.
    layers.insert(
        "trace.overhead_share",
        1.0 - traced_e2e.blocks_per_s.value / plain_e2e.blocks_per_s.value,
    );
    layers.insert("noise.segment_iqr_share", plain_e2e.ingest_p50_ms.iqr_share);
    layers.insert("noise.steal_share", steal);

    let mut spans: Vec<Span> = std::mem::take(&mut traced.spans);
    spans.extend(replay_spans);
    let trace_file = out_dir.join(format!("trace-{}.jsonl", args.workload));
    if let Err(e) = std::fs::write(&trace_file, trace::to_jsonl(&spans)) {
        eprintln!("demonbench: cannot write {}: {e}", trace_file.display());
    }
    println!("# {} spans in {}", spans.len(), trace_file.display());
    println!(
        "# {:<34} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    let mut span_detail = Map::new();
    for (name, t) in trace::totals(&spans) {
        println!(
            "# {:<34} {:>8} {:>12.2} {:>12.2}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
        span_detail.insert(
            name.to_string(),
            json!({"count": t.count, "total_ms": t.total_ns as f64 / 1e6, "self_ms": t.self_ns as f64 / 1e6}),
        );
    }

    let mut correct = report_gates(&plain) & report_gates(&traced);
    let mut metrics = Map::new();
    println!("# {:<40} {:>14} unit", "layer metric", "value");
    for (name, unit) in PER_LAYER {
        let Some(&value) = layers.get(name) else {
            println!("# GATE FAILED: no stage measured {name}");
            correct = false;
            continue;
        };
        println!("# {name:<40} {value:>14.4} {unit}");
        metrics.insert(name.to_string(), metric(value, unit));
    }
    println!("# traced run took {:.1} s", started.elapsed().as_secs_f64());
    RunResult {
        line: result_line(
            correct,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            metrics,
        ),
        detail: json!({"spans": Value::Object(span_detail)}),
        correct,
    }
}
