//! `gemm_window` — library only: a `DemonEngine` over the most recent
//! `w = 4` blocks, one op = `add_block` of a 500-transaction block.
//!
//! GEMM keeps one model per future window overlapping the current one
//! (paper §3.2), so every arriving block is absorbed `w` times; the
//! recounts make `itemsets::{counter, tidlist}` and `core::gemm` nearly
//! all of the time. Sockets, the WAL and FOCUS are idle. The blocks are
//! the very blocks `ingest_durable` streams, so window-versus-
//! unrestricted cost is directly comparable.

use super::{batch_model_json, ingest_segment, Ctx, Outcome, Plan, Round, WINDOW};
use crate::gen::{self, N_ITEMS};
use crate::trace::Lane;
use demon_core::bss::BlockSelector;
use demon_core::engine::DataSpan;
use demon_core::{DemonEngine, ItemsetMaintainer};
use demon_itemsets::CounterKind;
use demon_serve::{ItemsetModel, ServableModel};
use std::time::Instant;

/// Op counts: an `add_block` costs ≈ 20 ms here (young windows hold few
/// transactions, so κ = 2 % admits thousands of candidates), so the 100
/// ops a p90 needs already make a 2 s segment; two segments per round
/// keep the run inside its time budget.
pub const PLAN: Plan = Plan {
    round_seconds: 4.8,
    segments: 2,
    ingests_per_segment: 100,
    prefix: 32,
};

/// Client threads of this workload (the caller's own).
pub const CLIENT_THREADS: usize = 1;

/// The engine under test.
pub fn engine() -> DemonEngine<ItemsetMaintainer> {
    DemonEngine::new(
        ItemsetMaintainer::new(N_ITEMS, gen::minsup(), CounterKind::Ecut),
        DataSpan::MostRecent {
            w: WINDOW,
            selector: BlockSelector::all(),
        },
    )
    .expect("a positive window")
}

/// Runs the workload.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let plan = ctx.plan;
    let blocks = gen::tx_stream(ctx.seed, plan.blocks_per_round());
    let reference = batch_model_json(&blocks[blocks.len() - WINDOW..]);

    let mut out = Outcome::default();
    let mut lane = Lane::new(Instant::now(), 1, ctx.traced);
    for round in 0..ctx.rounds {
        // One round of blocks, re-cloned outside the timed regions.
        let mut feed = blocks.clone().into_iter();
        let t0 = Instant::now();
        let mut engine = engine();
        for block in feed.by_ref().take(plan.prefix) {
            engine.add_block(block).expect("prefix block");
        }
        let mut record = Round {
            setup: t0.elapsed(),
            segments: Vec::with_capacity(plan.segments),
        };
        for s in 0..plan.segments {
            let op_base = ((round * plan.segments + s) * plan.ingests_per_segment) as u64;
            record.segments.push(ingest_segment(
                plan.ingests_per_segment,
                &mut lane,
                op_base,
                &mut out,
                |lane, op, op_id| {
                    let block = feed.next().expect("a block per planned ingest");
                    lane.span("core.engine.add_block", op, op_id, || {
                        engine.add_block(block).is_ok()
                    })
                },
            ));
        }
        out.gate(render(&engine).is_some_and(|json| json == reference), || {
            format!("round {round}: window model differs from a from-scratch mine of the last {WINDOW} blocks")
        });
        out.push_round(record);
    }

    out.spans = lane.into_spans();
    out
}

/// The window model as the canonical JSON the batch reference uses.
fn render(engine: &DemonEngine<ItemsetMaintainer>) -> Option<String> {
    let model = engine.current_model()?;
    ItemsetModel::render_model_json(&(), model).ok()
}
