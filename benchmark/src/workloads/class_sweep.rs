//! `class_sweep` — library only: the three non-itemset model classes
//! and their FOCUS deviation oracles.
//!
//! One op is one tick: the tick's point blocks go to three
//! `DemonMonitor`s — BIRCH+ over the unrestricted window, incremental
//! DBSCAN over the `w = 4` most recent blocks (absorb the arriving
//! block, shed the departing one) and a decision tree refitted over the
//! `w = 4` most recent blocks — each with its FOCUS oracle over a
//! bounded pattern window. Itemsets, the serving stack and the WAL are
//! idle: an itemset-kernel or serving change must not move this
//! workload.

use super::{ingest_segment, Ctx, Outcome, Plan, Round, ALPHA, PATTERN_WINDOW, WINDOW};
use crate::gen::{self, PointStreams, DBSCAN_EPS, DBSCAN_MIN_PTS, DIM, POINT_CLUSTERS};
use crate::trace::Lane;
use demon_clustering::{BirchParams, DbscanParams};
use demon_core::bss::{BlockSelector, WiBss};
use demon_core::engine::DataSpan;
use demon_core::{ClusterMaintainer, DbscanMaintainer, DemonMonitor, TreeMaintainer};
use demon_focus::similarity::{ClusterSimilarity, DbscanSimilarity, TreeSimilarity};
use demon_serve::{ClusterModel, DbscanModel, ServableModel, TreeModel};
use demon_trees::{LabeledPoint, TreeParams};
use demon_types::{Block, PointBlock};
use std::time::Instant;

/// Op counts: a tick costs ≈ 8 ms ⇒ ≈ 0.8 s per segment.
pub const PLAN: Plan = Plan {
    round_seconds: 4.4,
    segments: 5,
    ingests_per_segment: 100,
    prefix: 48,
};

/// Client threads of this workload (the caller's own).
pub const CLIENT_THREADS: usize = 1;

/// BIRCH parameters of the stream's model and oracle. The CF-tree's
/// memory limit is set low: at the default 2048 leaf entries the tree
/// rebuilds (and the cost of phase 2, which the BIRCH oracle runs once
/// per block, drops sixfold) once or twice per run, at a stream
/// position that depends on the sample, which made the cost of a tick
/// a property of the seed.
pub fn birch_params() -> BirchParams {
    let mut params = BirchParams::new(DIM, POINT_CLUSTERS);
    params.tree.max_leaf_entries = 128;
    params
}

/// DBSCAN parameters of the stream's model and oracle.
pub fn dbscan_params() -> DbscanParams {
    DbscanParams::new(DIM, DBSCAN_EPS, DBSCAN_MIN_PTS)
}

/// Tree parameters: one class per generating cluster.
pub fn tree_params() -> TreeParams {
    TreeParams::new(POINT_CLUSTERS as u32)
}

/// The three monitors one tick feeds.
pub struct Monitors {
    /// BIRCH+ over the unrestricted window.
    pub birch: DemonMonitor<ClusterMaintainer, ClusterSimilarity>,
    /// Incremental DBSCAN sliding by deletion over `w` blocks.
    pub dbscan: DemonMonitor<DbscanMaintainer, DbscanSimilarity>,
    /// A decision tree refitted over `w` blocks (GEMM).
    pub trees: DemonMonitor<TreeMaintainer, TreeSimilarity>,
}

impl Monitors {
    /// Fresh monitors.
    pub fn new() -> Monitors {
        Monitors {
            birch: DemonMonitor::new(
                ClusterMaintainer::new(birch_params()),
                DataSpan::Unrestricted(WiBss::All),
                ClusterSimilarity::new(birch_params(), ALPHA),
                Some(PATTERN_WINDOW),
            )
            .expect("birch monitor"),
            dbscan: DemonMonitor::new_decremental(
                DbscanMaintainer::new(dbscan_params()),
                WINDOW,
                DbscanSimilarity::new(dbscan_params(), ALPHA),
                Some(PATTERN_WINDOW),
            )
            .expect("dbscan monitor"),
            trees: DemonMonitor::new(
                TreeMaintainer::new(DIM, tree_params()),
                DataSpan::MostRecent {
                    w: WINDOW,
                    selector: BlockSelector::all(),
                },
                TreeSimilarity::new(DIM, tree_params(), ALPHA),
                Some(PATTERN_WINDOW),
            )
            .expect("tree monitor"),
        }
    }

    /// One tick; `true` when all three monitors absorbed their block.
    pub fn tick(
        &mut self,
        (birch, dbscan, trees): Tick,
        lane: &mut Lane,
        op: u64,
        op_id: u64,
    ) -> bool {
        let a = lane.span("clustering.birch.add_block", op, op_id, || {
            self.birch.add_block(birch).is_ok()
        });
        let b = lane.span("clustering.dbscan.add_block", op, op_id, || {
            self.dbscan.add_block(dbscan).is_ok()
        });
        let c = lane.span("trees.add_block", op, op_id, || {
            self.trees.add_block(trees).is_ok()
        });
        a && b && c
    }

    /// The three models as canonical JSON, `None` before the first tick.
    /// The correctness gate compares these bytes across rounds.
    pub fn render(&self) -> Option<[String; 3]> {
        Some([
            ClusterModel::render_model_json(&birch_params(), self.birch.model()?).ok()?,
            DbscanModel::render_model_json(&(), self.dbscan.model()?).ok()?,
            TreeModel::render_model_json(&(), self.trees.model()?).ok()?,
        ])
    }
}

impl Default for Monitors {
    fn default() -> Self {
        Monitors::new()
    }
}

/// One tick's blocks: BIRCH+, DBSCAN, trees.
pub type Tick = (PointBlock, PointBlock, Block<LabeledPoint>);

/// The ticks of one round, cloned out of the generated streams.
pub fn ticks(streams: &PointStreams) -> impl Iterator<Item = Tick> {
    let birch = streams.birch.clone();
    let dbscan = streams.dbscan.clone();
    let trees = streams.trees.clone();
    birch
        .into_iter()
        .zip(dbscan)
        .zip(trees)
        .map(|((a, b), c)| (a, b, c))
}

/// Runs the workload.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let plan = ctx.plan;
    let streams = gen::point_streams(ctx.seed, plan.blocks_per_round());

    let mut out = Outcome::default();
    let mut lane = Lane::new(Instant::now(), 1, ctx.traced);
    let mut first_round_models: Option<[String; 3]> = None;
    for round in 0..ctx.rounds {
        let mut feed = ticks(&streams);
        let t0 = Instant::now();
        let mut monitors = Monitors::new();
        let mut quiet = Lane::off();
        for tick in feed.by_ref().take(plan.prefix) {
            assert!(monitors.tick(tick, &mut quiet, 0, 0), "prefix tick");
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
                    let tick = feed.next().expect("a tick per planned ingest");
                    monitors.tick(tick, lane, op, op_id)
                },
            ));
        }

        let verdict = monitors
            .dbscan
            .model()
            .map(|m| m.structure().verify_against_batch());
        out.gate(matches!(verdict, Some(Ok(()))), || {
            format!("round {round}: incremental DBSCAN disagrees with batch DBSCAN: {verdict:?}")
        });
        let models = monitors.render();
        out.gate(models.is_some(), || {
            format!("round {round}: a model failed to render")
        });
        match &first_round_models {
            None => first_round_models = models,
            Some(first) => out.gate(models.as_ref() == Some(first), || {
                format!("round {round}: final model bytes differ from round 0 on identical inputs")
            }),
        }
        out.push_round(record);
    }
    out.spans = lane.into_spans();
    out
}
