//! The FOCUS deviation measure, instantiated for frequent-itemset models
//! and for cluster models.
//!
//! FOCUS describes a model by a *structural component* (interesting
//! regions) and a *measure component* (how much of the data falls in each
//! region). The deviation between two datasets is computed by extending
//! both models to their **greatest common refinement** and aggregating the
//! per-region measure differences. For frequent itemsets the regions are
//! the itemsets of either model and the measures are support fractions;
//! for clusters the regions are cluster balls and the measures membership
//! fractions.
//!
//! The normalized deviation is
//! `δ = Σ_r |m₁(r) − m₂(r)| / Σ_r (m₁(r) + m₂(r))  ∈ [0, 1]`.

use demon_clustering::{BirchModel, IncrementalDbscan, Label};
use demon_itemsets::prefix_tree::PrefixTree;
use demon_itemsets::FrequentItemsets;
use demon_trees::{DecisionTree, LabeledPoint};
use demon_types::{Block, ItemSet, Point, PointBlock, TxBlock};

/// The outcome of a deviation computation, including the cost evidence
/// behind Figure 10: how many regions had to be counted by scanning.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviationResult {
    /// The normalized deviation in `[0, 1]`.
    pub deviation: f64,
    /// Regions of the common refinement.
    pub regions: usize,
    /// Regions whose measure on the first dataset required a scan.
    pub counted_on_a: usize,
    /// Regions whose measure on the second dataset required a scan.
    pub counted_on_b: usize,
}

/// Deviation between two transaction blocks through their frequent-itemset
/// models.
///
/// `ma`/`mb` must be models of `a`/`b` (same κ). Measures already tracked
/// by a model (in `L ∪ NB⁻`) are reused; itemsets frequent in one block
/// but untracked in the other are counted with one prefix-tree scan of the
/// other block. When the blocks are similar their borders usually cover
/// each other's frequent sets and no scan happens at all — the "scanned
/// only rarely" observation of §5.3.
pub fn itemset_deviation(
    a: &TxBlock,
    ma: &FrequentItemsets,
    b: &TxBlock,
    mb: &FrequentItemsets,
) -> DeviationResult {
    // Regions: union of the two frequent-itemset sets.
    let mut regions: Vec<&ItemSet> = ma.frequent().keys().collect();
    for set in mb.frequent().keys() {
        if !ma.frequent().contains_key(set) {
            regions.push(set);
        }
    }

    let (na, nb) = (a.len() as u64, b.len() as u64);
    let (counts_a, counted_on_a) = region_counts(&regions, ma, a);
    let (counts_b, counted_on_b) = region_counts(&regions, mb, b);
    let frac = |count: u64, n: u64| if n == 0 { 0.0 } else { count as f64 / n as f64 };
    let mut diff = 0.0;
    let mut total = 0.0;
    for (&ca, &cb) in counts_a.iter().zip(&counts_b) {
        let sa = frac(ca, na);
        let sb = frac(cb, nb);
        diff += (sa - sb).abs();
        total += sa + sb;
    }
    DeviationResult {
        deviation: if total > 0.0 { diff / total } else { 0.0 },
        regions: regions.len(),
        counted_on_a,
        counted_on_b,
    }
}

/// The support on `block` of every region, in region order: the model's
/// where it tracks the set, otherwise counted by one prefix-tree scan over
/// the untracked regions. Also returns how many regions were scanned.
fn region_counts(
    regions: &[&ItemSet],
    model: &FrequentItemsets,
    block: &TxBlock,
) -> (Vec<u64>, usize) {
    let mut counts = Vec::with_capacity(regions.len());
    let mut unknown = Vec::new();
    for (i, set) in regions.iter().enumerate() {
        counts.push(model.support(set).unwrap_or_else(|| {
            unknown.push(i);
            0
        }));
    }
    if !unknown.is_empty() {
        let mut tree = PrefixTree::build(&[]);
        for &i in &unknown {
            tree.insert_candidate(regions[i]);
        }
        tree.count_block(block);
        for (&i, c) in unknown.iter().zip(tree.into_counts()) {
            counts[i] = c;
        }
    }
    (counts, unknown.len())
}

/// Deviation between two point blocks through their cluster models.
///
/// Each cluster of either model contributes a region: the ball around its
/// centroid with radius `2·R` (twice the average member distance — wide
/// enough to capture the cluster's mass, narrow enough to exclude other
/// clusters in separated data). The measure of a dataset over a region is
/// the fraction of its points inside the ball, obtained with one scan of
/// each block.
pub fn cluster_deviation(
    a: &PointBlock,
    ma: &BirchModel,
    b: &PointBlock,
    mb: &BirchModel,
) -> DeviationResult {
    let mut regions: Vec<(Point, f64)> = Vec::with_capacity(ma.k() + mb.k());
    for model in [ma, mb] {
        for c in &model.clusters {
            let r2 = c.cf.radius2();
            let radius = 2.0 * r2.sqrt();
            regions.push((c.centroid(), (radius * radius).max(1e-12)));
        }
    }
    let measure = |block: &PointBlock, center: &Point, radius2: f64| -> f64 {
        if block.is_empty() {
            return 0.0;
        }
        let inside = block
            .records()
            .iter()
            .filter(|p| p.dist2(center) <= radius2)
            .count();
        inside as f64 / block.len() as f64
    };
    let mut diff = 0.0;
    let mut total = 0.0;
    for (center, radius2) in &regions {
        let sa = measure(a, center, *radius2);
        let sb = measure(b, center, *radius2);
        diff += (sa - sb).abs();
        total += sa + sb;
    }
    DeviationResult {
        deviation: if total > 0.0 { diff / total } else { 0.0 },
        regions: regions.len(),
        counted_on_a: regions.len(),
        counted_on_b: regions.len(),
    }
}

/// Deviation between two point blocks through their density (DBSCAN)
/// models — the fourth FOCUS instantiation.
///
/// Density clusters are not convex, so centroid balls (the BIRCH regions
/// of [`cluster_deviation`]) would misrepresent shapes like moons or
/// rings. Instead each cluster of either model contributes its
/// **core-reachable region**: the union of ε-balls around the cluster's
/// core points. The measure of a dataset over a region is the fraction of
/// its points within ε of some core point of that cluster — exactly the
/// set of points DBSCAN would place in (or on the border of) the cluster,
/// answered with the model's own grid index in one scan per block.
pub fn dbscan_deviation(
    a: &PointBlock,
    da: &IncrementalDbscan,
    b: &PointBlock,
    db: &IncrementalDbscan,
) -> DeviationResult {
    // A cluster is identified by its resolved union-find root; collect the
    // live cluster roots of one model, sorted for determinism.
    let roots = |m: &IncrementalDbscan| -> Vec<usize> {
        let mut out: Vec<usize> = (0..m.n_slots())
            .filter(|&i| m.is_alive(i) && m.is_core(i))
            .filter_map(|i| match m.label(i) {
                Label::Cluster(root) => Some(root),
                Label::Noise => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    };
    // For each point, the set of clusters of `m` whose core-reachable
    // region contains it — one grid-index neighborhood query per point.
    let measure = |block: &PointBlock, m: &IncrementalDbscan, root: usize| -> f64 {
        if block.is_empty() {
            return 0.0;
        }
        let inside = block
            .records()
            .iter()
            .filter(|p| {
                m.neighbors_of(p)
                    .into_iter()
                    .any(|i| m.is_core(i) && m.label(i) == Label::Cluster(root))
            })
            .count();
        inside as f64 / block.len() as f64
    };

    let mut diff = 0.0;
    let mut total = 0.0;
    let mut regions = 0;
    for (m, rs) in [(da, roots(da)), (db, roots(db))] {
        for root in rs {
            let sa = measure(a, m, root);
            let sb = measure(b, m, root);
            diff += (sa - sb).abs();
            total += sa + sb;
            regions += 1;
        }
    }
    DeviationResult {
        deviation: if total > 0.0 { diff / total } else { 0.0 },
        regions,
        counted_on_a: regions,
        counted_on_b: regions,
    }
}

/// Deviation between two labeled-point blocks through their decision-tree
/// models — the third FOCUS instantiation of §4.
///
/// The greatest common refinement overlays the two trees' leaf
/// partitions; since each tree's leaves partition the space, it suffices
/// to take every leaf region of *either* tree and measure, per class, the
/// fraction of each dataset falling inside (one scan per block, as FOCUS
/// promises). Class structure matters: two datasets occupying the same
/// regions with swapped labels deviate maximally.
pub fn tree_deviation(
    a: &Block<LabeledPoint>,
    ma: &DecisionTree,
    b: &Block<LabeledPoint>,
    mb: &DecisionTree,
) -> DeviationResult {
    let n_classes = ma.params().n_classes.max(mb.params().n_classes) as usize;
    let regions: Vec<demon_trees::Region> = ma
        .regions()
        .into_iter()
        .chain(mb.regions())
        .collect();

    // One scan per block: per (region, class) counts.
    let measure = |block: &Block<LabeledPoint>| -> Vec<Vec<u64>> {
        let mut counts = vec![vec![0u64; n_classes]; regions.len()];
        for rec in block.records() {
            for (ri, region) in regions.iter().enumerate() {
                if region.contains(&rec.point) {
                    counts[ri][rec.label as usize] += 1;
                }
            }
        }
        counts
    };
    let ca = measure(a);
    let cb = measure(b);
    let (na, nb) = (a.len() as f64, b.len() as f64);

    let mut diff = 0.0;
    let mut total = 0.0;
    for ri in 0..regions.len() {
        for class in 0..n_classes {
            let sa = if na > 0.0 { ca[ri][class] as f64 / na } else { 0.0 };
            let sb = if nb > 0.0 { cb[ri][class] as f64 / nb } else { 0.0 };
            diff += (sa - sb).abs();
            total += sa + sb;
        }
    }
    DeviationResult {
        deviation: if total > 0.0 { diff / total } else { 0.0 },
        regions: regions.len() * n_classes,
        counted_on_a: regions.len(),
        counted_on_b: regions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_clustering::{Birch, BirchParams};
    use demon_types::{BlockId, Item, MinSupport, Tid, Transaction};

    fn block(id: u64, txs: &[&[u32]]) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            txs.iter()
                .enumerate()
                .map(|(i, items)| {
                    Transaction::new(
                        Tid(id * 10_000 + i as u64),
                        items.iter().copied().map(Item).collect(),
                    )
                })
                .collect(),
        )
    }

    fn model(b: &TxBlock) -> FrequentItemsets {
        FrequentItemsets::mine_blocks(&[b], 8, MinSupport::new(0.2).unwrap())
    }

    #[test]
    fn identical_blocks_have_zero_deviation() {
        let a = block(1, &[&[0, 1], &[0, 1], &[2], &[0, 2]]);
        let b = block(2, &[&[0, 1], &[0, 1], &[2], &[0, 2]]);
        let r = itemset_deviation(&a, &model(&a), &b, &model(&b));
        assert_eq!(r.deviation, 0.0);
        assert!(r.regions > 0);
        // Identical models: nothing unknown, nothing scanned.
        assert_eq!(r.counted_on_a, 0);
        assert_eq!(r.counted_on_b, 0);
    }

    #[test]
    fn disjoint_blocks_have_maximal_deviation() {
        let a = block(1, &[&[0, 1], &[0, 1], &[0]]);
        let b = block(2, &[&[4, 5], &[4, 5], &[5]]);
        let r = itemset_deviation(&a, &model(&a), &b, &model(&b));
        assert!(r.deviation > 0.99, "deviation {}", r.deviation);
    }

    #[test]
    fn deviation_is_symmetric() {
        let a = block(1, &[&[0, 1], &[2], &[0, 2], &[1]]);
        let b = block(2, &[&[0, 1], &[0, 1], &[3], &[1, 3]]);
        let (ma, mb) = (model(&a), model(&b));
        let ab = itemset_deviation(&a, &ma, &b, &mb);
        let ba = itemset_deviation(&b, &mb, &a, &ma);
        assert!((ab.deviation - ba.deviation).abs() < 1e-12);
    }

    #[test]
    fn similar_blocks_score_below_dissimilar() {
        let a = block(1, &[&[0, 1], &[0, 1], &[0, 2], &[2]]);
        let near = block(2, &[&[0, 1], &[0, 2], &[0, 1], &[2, 0]]);
        let far = block(3, &[&[5, 6], &[5, 6], &[6, 7], &[7]]);
        let (ma, mn, mf) = (model(&a), model(&near), model(&far));
        let d_near = itemset_deviation(&a, &ma, &near, &mn).deviation;
        let d_far = itemset_deviation(&a, &ma, &far, &mf).deviation;
        assert!(d_near < d_far, "near {d_near} vs far {d_far}");
    }

    #[test]
    fn dissimilar_blocks_require_scans() {
        // Itemsets frequent only in `far` are untracked by `a`'s model, so
        // their supports on `a` must be counted by scanning — the Fig-10
        // spike mechanism.
        let a = block(1, &[&[0, 1], &[0, 1], &[0]]);
        let far = block(2, &[&[4, 5], &[4, 5], &[5]]);
        let r = itemset_deviation(&a, &model(&a), &far, &model(&far));
        assert!(r.counted_on_a > 0);
    }

    /// The formula with a linear search of the scanned counts per region.
    fn linear_search_deviation(
        a: &TxBlock,
        ma: &FrequentItemsets,
        b: &TxBlock,
        mb: &FrequentItemsets,
    ) -> DeviationResult {
        let mut regions: Vec<&ItemSet> = ma.frequent().keys().collect();
        for set in mb.frequent().keys() {
            if !ma.frequent().contains_key(set) {
                regions.push(set);
            }
        }
        let unknown = |m: &FrequentItemsets| -> Vec<ItemSet> {
            let sets = regions.iter().filter(|s| m.support(s).is_none());
            sets.map(|s| (*s).clone()).collect()
        };
        let scan = |sets: &[ItemSet], block: &TxBlock| -> Vec<(ItemSet, u64)> {
            let mut tree = PrefixTree::build(sets);
            tree.count_block(block);
            sets.iter().cloned().zip(tree.into_counts()).collect()
        };
        let (unknown_a, unknown_b) = (unknown(ma), unknown(mb));
        let (extra_a, extra_b) = (scan(&unknown_a, a), scan(&unknown_b, b));
        let frac = |m: &FrequentItemsets, extra: &[(ItemSet, u64)], n: u64, set: &ItemSet| {
            let count = m
                .support(set)
                .unwrap_or_else(|| extra.iter().find(|(s, _)| s == set).map_or(0, |&(_, c)| c));
            if n == 0 {
                0.0
            } else {
                count as f64 / n as f64
            }
        };
        let (na, nb) = (a.len() as u64, b.len() as u64);
        let (mut diff, mut total) = (0.0, 0.0);
        for set in &regions {
            let sa = frac(ma, &extra_a, na, set);
            let sb = frac(mb, &extra_b, nb, set);
            diff += (sa - sb).abs();
            total += sa + sb;
        }
        DeviationResult {
            deviation: if total > 0.0 { diff / total } else { 0.0 },
            regions: regions.len(),
            counted_on_a: unknown_a.len(),
            counted_on_b: unknown_b.len(),
        }
    }

    #[test]
    fn positional_counts_match_the_linear_search_bit_for_bit() {
        // Two overlapping item ranges at a low κ: most frequent sets of
        // either block are untracked by the other's model.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        let mut raw = |lo: u32| -> Vec<Vec<u32>> {
            (0..300)
                .map(|_| (0..6).map(|_| lo + rng.gen_range(0..16u32)).collect())
                .collect()
        };
        fn slices(r: &[Vec<u32>]) -> Vec<&[u32]> {
            r.iter().map(|v| v.as_slice()).collect()
        }
        let (ra, rb) = (raw(0), raw(10));
        let (a, b) = (block(1, &slices(&ra)), block(2, &slices(&rb)));
        let minsup = MinSupport::new(0.03).unwrap();
        let ma = FrequentItemsets::mine_blocks(&[&a], 26, minsup);
        let mb = FrequentItemsets::mine_blocks(&[&b], 26, minsup);
        for (x, mx, y, my) in [(&a, &ma, &b, &mb), (&b, &mb, &a, &ma)] {
            let got = itemset_deviation(x, mx, y, my);
            let want = linear_search_deviation(x, mx, y, my);
            assert!(got.counted_on_a > 50 && got.counted_on_b > 50, "{got:?}");
            assert_eq!(got.deviation.to_bits(), want.deviation.to_bits());
            assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_blocks_deviate_zero() {
        let a = block(1, &[]);
        let b = block(2, &[]);
        let r = itemset_deviation(&a, &model(&a), &b, &model(&b));
        assert_eq!(r.deviation, 0.0);
        assert_eq!(r.regions, 0);
    }

    fn points_around(center: &[f64], n: usize, spread: f64, seed: u64) -> Vec<Point> {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point::new(
                    center
                        .iter()
                        .map(|c| c + rng.gen_range(-spread..spread))
                        .collect(),
                )
            })
            .collect()
    }

    fn labeled_block(id: u64, flip: bool, seed: u64) -> Block<LabeledPoint> {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<LabeledPoint> = (0..200)
            .map(|_| {
                let left = rng.gen::<bool>();
                let x = if left {
                    rng.gen_range(-5.0..-1.0)
                } else {
                    rng.gen_range(1.0..5.0)
                };
                let label = u32::from(left == flip);
                LabeledPoint::new(vec![x, rng.gen_range(-1.0..1.0)], label)
            })
            .collect();
        Block::new(BlockId(id), records)
    }

    #[test]
    fn tree_deviation_zero_for_same_process() {
        use demon_trees::TreeParams;
        let a = labeled_block(1, false, 1);
        let b = labeled_block(2, false, 2);
        let ma = DecisionTree::fit(a.records(), 2, TreeParams::new(2));
        let mb = DecisionTree::fit(b.records(), 2, TreeParams::new(2));
        let r = tree_deviation(&a, &ma, &b, &mb);
        assert!(r.deviation < 0.1, "same-process deviation {}", r.deviation);
    }

    #[test]
    fn tree_deviation_detects_label_flip() {
        // Identical feature distribution, swapped labels: feature-only
        // measures would see nothing; the class-aware measure maxes out.
        use demon_trees::TreeParams;
        let a = labeled_block(1, false, 3);
        let b = labeled_block(2, true, 4);
        let ma = DecisionTree::fit(a.records(), 2, TreeParams::new(2));
        let mb = DecisionTree::fit(b.records(), 2, TreeParams::new(2));
        let r = tree_deviation(&a, &ma, &b, &mb);
        assert!(r.deviation > 0.9, "label-flip deviation {}", r.deviation);
    }

    #[test]
    fn cluster_deviation_separates_shifted_data() {
        let params = BirchParams::new(2, 2);
        let mk = |pts: Vec<Point>, id: u64| {
            let block = PointBlock::new(BlockId(id), pts);
            let (m, _) = Birch::new(params).cluster_points(block.records());
            (block, m)
        };
        let mut near_pts = points_around(&[0.0, 0.0], 100, 1.0, 1);
        near_pts.extend(points_around(&[20.0, 0.0], 100, 1.0, 2));
        let (a, ma) = mk(near_pts, 1);
        let mut same_pts = points_around(&[0.0, 0.0], 100, 1.0, 3);
        same_pts.extend(points_around(&[20.0, 0.0], 100, 1.0, 4));
        let (b, mb) = mk(same_pts, 2);
        let mut far_pts = points_around(&[100.0, 100.0], 100, 1.0, 5);
        far_pts.extend(points_around(&[140.0, 100.0], 100, 1.0, 6));
        let (c, mc) = mk(far_pts, 3);

        let d_same = cluster_deviation(&a, &ma, &b, &mb).deviation;
        let d_diff = cluster_deviation(&a, &ma, &c, &mc).deviation;
        assert!(d_same < 0.3, "same-process deviation {d_same}");
        assert!(d_diff > 0.9, "shifted deviation {d_diff}");
    }

    /// Points on a circle of radius `r` around `(cx, cy)`, with small
    /// deterministic radial jitter.
    fn ring_points(cx: f64, cy: f64, r: f64, n: usize, seed: u64) -> Vec<Point> {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                let rr = r + rng.gen_range(-0.1..0.1);
                Point::new(vec![cx + rr * t.cos(), cy + rr * t.sin()])
            })
            .collect()
    }

    #[test]
    fn dbscan_deviation_separates_shapes_with_equal_centroids() {
        // A ring and a central blob share centroid and bounding box —
        // indistinguishable to centroid-ball regions — but their
        // core-reachable regions are disjoint, so the density deviation
        // maxes out while two same-process rings score near zero.
        use demon_clustering::{DbscanParams, IncrementalDbscan};
        let fit = |pts: &[Point]| {
            let mut m = IncrementalDbscan::with_params(DbscanParams::new(2, 1.0, 3));
            for p in pts {
                m.insert(p.clone());
            }
            m
        };
        let mk = |pts: Vec<Point>, id: u64| {
            let m = fit(&pts);
            (PointBlock::new(BlockId(id), pts), m)
        };
        let (a, da) = mk(ring_points(0.0, 0.0, 5.0, 60, 1), 1);
        let (b, db) = mk(ring_points(0.0, 0.0, 5.0, 60, 2), 2);
        let (c, dc) = mk(points_around(&[0.0, 0.0], 60, 1.5, 3), 3);

        assert_eq!(da.n_clusters(), 1, "ring should be one density cluster");
        assert_eq!(dc.n_clusters(), 1, "blob should be one density cluster");
        let r_same = dbscan_deviation(&a, &da, &b, &db);
        let r_diff = dbscan_deviation(&a, &da, &c, &dc);
        assert!(r_same.deviation < 0.2, "same-process deviation {}", r_same.deviation);
        assert!(r_diff.deviation > 0.9, "ring-vs-blob deviation {}", r_diff.deviation);
        assert_eq!(r_same.regions, 2);
        assert_eq!(r_same.counted_on_a, 2);
    }
}
