//! The windowed incremental-DBSCAN model maintained by GEMM's
//! most-recent-window span.
//!
//! Every other model class in this workspace maintains its MRW window by
//! *refitting* (the tree) or by keeping per-slot future models (itemsets,
//! BIRCH+). Density models are the first class maintained by **deletion**:
//! the window slides by removing the departing block's points through
//! [`IncrementalDbscan::remove`] — the expensive direction the paper
//! singles out in §3.2.4. [`WindowedDbscan`] is the bookkeeping that makes
//! that possible: the live structure plus a per-block registry of the
//! point slots each block contributed, so retiring block `D_i` deletes
//! exactly its points and nothing else.
//!
//! A shed leaves dead slots behind. Once they outnumber the live points
//! by more than 64, the shed compacts the structure and renumbers the
//! registry, so memory and the removal path's member scan stay
//! proportional to the window, not to the stream. The renumbering keeps
//! the slots' order, and the served summary does not change.

use crate::dbscan::{DbscanParams, IncrementalDbscan, Label};
use demon_types::{BlockId, Point};

/// Removed slots a shed tolerates beyond the live count before it
/// compacts the structure: a shed compacts once `n_slots() > 2·len() +
/// COMPACT_SLACK`.
const COMPACT_SLACK: usize = 64;

/// The point slots one absorbed block contributed to the structure.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct BlockMembers {
    id: BlockId,
    slots: Vec<usize>,
}

/// An incremental-DBSCAN structure plus the block→slots registry that
/// supports deletion-based window maintenance.
///
/// Serialization round-trips the exact internal state (deterministically),
/// so a shelved model resumes byte-identically — required by the generic
/// maintainer contract.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct WindowedDbscan {
    state: IncrementalDbscan,
    blocks: Vec<BlockMembers>,
}

impl WindowedDbscan {
    /// An empty model with the given DBSCAN parameters.
    pub fn new(params: DbscanParams) -> Self {
        WindowedDbscan {
            state: IncrementalDbscan::with_params(params),
            blocks: Vec::new(),
        }
    }

    /// The live clustering structure.
    pub fn structure(&self) -> &IncrementalDbscan {
        &self.state
    }

    /// The parameters the model was built with.
    pub fn params(&self) -> DbscanParams {
        self.state.params()
    }

    /// Blocks currently inside the window, in arrival order.
    pub fn covered_blocks(&self) -> Vec<BlockId> {
        self.blocks.iter().map(|b| b.id).collect()
    }

    /// Inserts every point of block `id` and records the slots it filled.
    /// Blocks arrive in order and at most once (the engine enforces the
    /// systematic-evolution contract).
    pub fn absorb_block(&mut self, id: BlockId, points: &[Point]) {
        debug_assert!(
            self.blocks.iter().all(|b| b.id != id),
            "block {id} absorbed twice"
        );
        let slots = points
            .iter()
            .map(|p| self.state.insert(p.clone()).0)
            .collect();
        self.blocks.push(BlockMembers { id, slots });
    }

    /// Slides the window past block `id`: deletes each point the block
    /// contributed through the incremental removal path (splits and
    /// demotions included), then compacts the structure if it holds more
    /// than `2·len() + 64` slots. Returns how many points were removed;
    /// unknown ids are a no-op returning 0.
    pub fn shed_block(&mut self, id: BlockId) -> usize {
        let Some(pos) = self.blocks.iter().position(|b| b.id == id) else {
            return 0;
        };
        let entry = self.blocks.remove(pos);
        for &slot in &entry.slots {
            self.state.remove(slot);
        }
        if self.state.n_slots() > 2 * self.state.len() + COMPACT_SLACK {
            self.compact();
        }
        entry.slots.len()
    }

    /// Compacts the structure to its live points and renumbers the slots
    /// every block in the window holds.
    fn compact(&mut self) {
        let slots = self.state.compact();
        for block in &mut self.blocks {
            for slot in &mut block.slots {
                *slot = slots[*slot].expect("a block in the window holds live slots");
            }
        }
    }

    /// The canonical served form: cluster sizes, core counts and
    /// centroids, ordered by (centroid, size) so the rendering never
    /// depends on internal slot numbering.
    pub fn summary(&self) -> DbscanSummary {
        let s = &self.state;
        let mut clusters: Vec<ClusterSummary> = s
            .clusters()
            .into_iter()
            .map(|members| {
                let n_core = members.iter().filter(|&&i| s.is_core(i)).count();
                let mut centroid = vec![0.0f64; s.dim()];
                for &i in &members {
                    for (c, x) in centroid.iter_mut().zip(s.point(i).coords()) {
                        *c += x;
                    }
                }
                for c in &mut centroid {
                    *c /= members.len() as f64;
                }
                ClusterSummary {
                    size: members.len(),
                    n_core,
                    centroid,
                }
            })
            .collect();
        clusters.sort_by(|a, b| {
            let by_centroid = a
                .centroid
                .iter()
                .zip(&b.centroid)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal);
            by_centroid.then(a.size.cmp(&b.size))
        });
        let n_noise = (0..s.n_slots())
            .filter(|&i| s.is_alive(i) && matches!(s.label(i), Label::Noise))
            .count();
        DbscanSummary {
            eps: s.eps(),
            min_pts: s.min_pts(),
            dim: s.dim(),
            blocks: self.covered_blocks().iter().map(|b| b.0).collect(),
            n_points: s.len(),
            n_core: s.n_core(),
            n_noise,
            n_clusters: clusters.len(),
            clusters,
        }
    }
}

/// One cluster in the served rendering.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClusterSummary {
    /// Live members (cores + borders).
    pub size: usize,
    /// Core points among the members.
    pub n_core: usize,
    /// Mean of the member coordinates.
    pub centroid: Vec<f64>,
}

/// The canonical JSON the daemon serves for `--model dbscan`.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DbscanSummary {
    /// Neighborhood radius ε.
    pub eps: f64,
    /// Density threshold.
    pub min_pts: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Window contents in arrival order.
    pub blocks: Vec<u64>,
    /// Live points.
    pub n_points: usize,
    /// Live core points.
    pub n_core: usize,
    /// Live noise points.
    pub n_noise: usize,
    /// Live clusters.
    pub n_clusters: usize,
    /// Per-cluster summaries in canonical order.
    pub clusters: Vec<ClusterSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DbscanParams {
        DbscanParams::new(2, 1.0, 3)
    }

    fn blob_block(id: u64, x: f64, y: f64) -> (BlockId, Vec<Point>) {
        let pts = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3)]
            .iter()
            .map(|(dx, dy)| Point::new(vec![x + dx, y + dy]))
            .collect();
        (BlockId(id), pts)
    }

    #[test]
    fn absorb_then_shed_returns_to_the_prior_clustering() {
        let mut m = WindowedDbscan::new(params());
        let (id1, p1) = blob_block(1, 0.0, 0.0);
        let (id2, p2) = blob_block(2, 10.0, 0.0);
        m.absorb_block(id1, &p1);
        let before = m.summary();
        m.absorb_block(id2, &p2);
        assert_eq!(m.summary().n_clusters, 2);
        assert_eq!(m.shed_block(id2), 3);
        let after = m.summary();
        assert_eq!(before, after, "shedding the newest block must undo it");
        assert_eq!(m.covered_blocks(), vec![id1]);
        m.structure().check_against_batch();
    }

    #[test]
    fn shed_unknown_block_is_a_noop() {
        let mut m = WindowedDbscan::new(params());
        assert_eq!(m.shed_block(BlockId(9)), 0);
    }

    #[test]
    fn forced_compaction_changes_no_output() {
        // Overlapping blobs, so sheds split and regrow clusters and the
        // union-find holds merged ids when the compaction runs.
        let mut plain = WindowedDbscan::new(params());
        for id in 1..=6u64 {
            let (id, pts) = blob_block(id, 0.7 * id as f64, 0.2 * (id % 2) as f64);
            plain.absorb_block(id, &pts);
            if plain.covered_blocks().len() > 3 {
                plain.shed_block(plain.covered_blocks()[0]);
            }
        }
        let mut compacted = plain.clone();
        compacted.compact();
        assert_eq!(compacted.structure().n_slots(), compacted.structure().len());
        assert!(plain.structure().n_slots() > plain.structure().len());
        for id in 7..=12u64 {
            assert_eq!(compacted.summary(), plain.summary());
            compacted.structure().check_against_batch();
            let (id, pts) = blob_block(id, 0.7 * id as f64, 0.0);
            for m in [&mut plain, &mut compacted] {
                m.absorb_block(id, &pts);
                m.shed_block(m.covered_blocks()[0]);
            }
        }
        assert_eq!(compacted.summary(), plain.summary());
    }

    #[test]
    fn serde_round_trip_preserves_behavior_and_bytes() {
        let mut m = WindowedDbscan::new(params());
        let (id1, p1) = blob_block(1, 0.0, 0.0);
        let (id2, p2) = blob_block(2, 1.5, 0.0);
        m.absorb_block(id1, &p1);
        m.absorb_block(id2, &p2);
        m.shed_block(id1);
        let bytes = serde_json::to_string(&m).unwrap();
        let mut back: WindowedDbscan = serde_json::from_str(&bytes).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), bytes);
        assert_eq!(back.summary(), m.summary());
        // The revived structure keeps working incrementally.
        let (id3, p3) = blob_block(3, 0.0, 5.0);
        back.absorb_block(id3, &p3);
        back.structure().check_against_batch();
    }
}
