//! DBSCAN and **incremental DBSCAN** (Ester, Kriegel, Sander, Wimmer, Xu;
//! VLDB '98) — the incremental clustering comparator the paper cites.
//!
//! DEMON §3.2.4 argues for GEMM over direct add/delete maintenance partly
//! because "the cost incurred by incremental DBScan to maintain the set
//! of clusters when a tuple is deleted is higher than that when a tuple
//! is inserted". This module reproduces that asymmetry:
//!
//! * **insertion** is local — only the new point's ε-neighborhood can
//!   gain core status, and cluster merges are union-find operations.
//!   Clusters merge only through cores: the cores an insertion promotes
//!   join the clusters of their own core neighbors, so a new border
//!   point never fuses the clusters on either side of it;
//! * **deletion** can split a cluster, and detecting a split requires
//!   re-examining the connectivity of the whole affected cluster.
//!
//! Neighborhood queries run against a uniform grid with ε-sized cells,
//! all through one allocation-free visitor,
//! [`IncrementalDbscan::for_each_neighbor`], whose fixed order is part
//! of the output. Points live in a slot table; a removed point leaves a
//! dead slot until [`IncrementalDbscan::compact`] renumbers the live
//! ones in order, which changes no output.

use demon_types::Point;
use std::collections::HashMap;

/// Dimensions up to which a neighborhood query keeps its cell keys on
/// the stack.
const INLINE_DIM: usize = 8;

/// Cluster assignment of one point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Label {
    /// Not density-reachable from any core point.
    Noise,
    /// Member of the cluster with this (resolved) id.
    Cluster(usize),
}

/// What an insertion did (Ester et al.'s case analysis). When the cores
/// an insertion promotes are not all density-connected, the group of
/// them that touches the most existing clusters decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertEffect {
    /// The point is noise.
    Noise,
    /// A brand-new cluster formed.
    Creation,
    /// The point (and possibly promoted neighbors) joined one cluster.
    Absorption,
    /// Several previously separate clusters merged.
    Merge {
        /// How many clusters fused into one.
        merged: usize,
    },
}

/// What a deletion did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoveEffect {
    /// Nothing but the point itself changed.
    Shrink,
    /// The affected cluster fell apart into this many pieces (possibly
    /// 0 — everything became noise).
    Split {
        /// Number of resulting clusters.
        pieces: usize,
    },
}

/// Parameters of a DBSCAN model: dimensionality, neighborhood radius ε
/// and the density threshold MinPts (neighborhoods include the point
/// itself). The density analogue of `BirchParams`.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DbscanParams {
    /// Dimensionality of the point space.
    pub dim: usize,
    /// Neighborhood radius ε.
    pub eps: f64,
    /// Minimum neighborhood size for a core point.
    pub min_pts: usize,
}

impl DbscanParams {
    /// Bundles the three DBSCAN knobs.
    pub fn new(dim: usize, eps: f64, min_pts: usize) -> Self {
        DbscanParams { dim, eps, min_pts }
    }
}

/// The incremental DBSCAN structure.
///
/// Serialization is deterministic (the neighbor grid renders as a
/// key-sorted pair list) and round-trips the exact internal state, so a
/// shelved or snapshotted model resumes byte-identically.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct IncrementalDbscan {
    eps: f64,
    eps2: f64,
    min_pts: usize,
    dim: usize,
    points: Vec<Point>,
    alive: Vec<bool>,
    /// Raw cluster id per point (resolve through `parent`).
    raw: Vec<Option<usize>>,
    core: Vec<bool>,
    /// Union-find over raw cluster ids (merging is what makes insertion
    /// cheap).
    parent: Vec<usize>,
    grid: HashMap<Vec<i64>, Vec<usize>>,
    n_alive: usize,
}

impl IncrementalDbscan {
    /// An empty structure with radius `eps` and density `min_pts`
    /// (neighborhoods include the point itself).
    pub fn new(dim: usize, eps: f64, min_pts: usize) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive");
        assert!(min_pts >= 2, "min_pts below 2 makes everything a core");
        IncrementalDbscan {
            eps,
            eps2: eps * eps,
            min_pts,
            dim,
            points: Vec::new(),
            alive: Vec::new(),
            raw: Vec::new(),
            core: Vec::new(),
            parent: Vec::new(),
            grid: HashMap::new(),
            n_alive: 0,
        }
    }

    /// An empty structure from bundled [`DbscanParams`].
    pub fn with_params(params: DbscanParams) -> Self {
        IncrementalDbscan::new(params.dim, params.eps, params.min_pts)
    }

    /// The parameters this structure was built with.
    pub fn params(&self) -> DbscanParams {
        DbscanParams::new(self.dim, self.eps, self.min_pts)
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.n_alive
    }

    /// Whether the structure holds no live points.
    pub fn is_empty(&self) -> bool {
        self.n_alive == 0
    }

    fn cell_of(&self, p: &Point) -> Vec<i64> {
        p.coords()
            .iter()
            .map(|&c| (c / self.eps).floor() as i64)
            .collect()
    }

    /// Visits every live slot within ε of `p`, `p`'s own slot included
    /// when it is live. Allocation-free up to eight dimensions.
    ///
    /// The order is part of the clustering's output (a border point
    /// attaches to its *first* core neighbor): the 3^dim cells around
    /// `p`'s cell odometer-style, dim 0 outermost and offsets −1, 0, +1,
    /// then each cell's members in ascending slot order.
    pub fn for_each_neighbor(&self, p: &Point, mut f: impl FnMut(usize)) {
        let dim = self.dim;
        let (mut lo_inline, mut key_inline) = ([0i64; INLINE_DIM], [0i64; INLINE_DIM]);
        let (mut lo_heap, mut key_heap);
        let (lo, key): (&mut [i64], &mut [i64]) = if dim <= INLINE_DIM {
            (&mut lo_inline[..dim], &mut key_inline[..dim])
        } else {
            (lo_heap, key_heap) = (vec![0; dim], vec![0; dim]);
            (&mut lo_heap, &mut key_heap)
        };
        for ((l, k), &c) in lo.iter_mut().zip(key.iter_mut()).zip(p.coords()) {
            *l = (c / self.eps).floor() as i64 - 1;
            *k = *l;
        }
        loop {
            if let Some(members) = self.grid.get(&key[..]) {
                for &i in members {
                    if self.alive[i] && self.points[i].dist2(p) <= self.eps2 {
                        f(i);
                    }
                }
            }
            // Next cell: the last dimension turns fastest.
            let mut d = dim;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                if key[d] < lo[d] + 2 {
                    key[d] += 1;
                    break;
                }
                key[d] = lo[d];
            }
        }
    }

    /// The size of `p`'s ε-neighborhood.
    fn degree(&self, p: &Point) -> usize {
        let mut n = 0;
        self.for_each_neighbor(p, |_| n += 1);
        n
    }

    fn find(&self, mut id: usize) -> usize {
        while self.parent[id] != id {
            id = self.parent[id];
        }
        id
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
            lo
        } else {
            ra
        }
    }

    /// The resolved label of point `idx`.
    pub fn label(&self, idx: usize) -> Label {
        match self.raw[idx] {
            None => Label::Noise,
            Some(id) => Label::Cluster(self.find(id)),
        }
    }

    /// Whether point `idx` is a core point.
    pub fn is_core(&self, idx: usize) -> bool {
        self.core[idx]
    }

    /// The live clusters as sorted member lists.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut by_id: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..self.points.len() {
            if self.alive[i] {
                if let Label::Cluster(id) = self.label(i) {
                    by_id.entry(id).or_default().push(i);
                }
            }
        }
        let mut out: Vec<Vec<usize>> = by_id.into_values().collect();
        out.sort();
        out
    }

    /// Number of live clusters.
    pub fn n_clusters(&self) -> usize {
        self.clusters().len()
    }

    /// Inserts a point, returning its index and the structural effect.
    pub fn insert(&mut self, p: Point) -> (usize, InsertEffect) {
        debug_assert_eq!(p.dim(), self.dim);
        let idx = self.points.len();
        let cell = self.cell_of(&p);
        self.points.push(p);
        self.alive.push(true);
        self.raw.push(None);
        self.core.push(false);
        self.grid.entry(cell).or_default().push(idx);
        self.n_alive += 1;

        let nbrs = self.neighbors_of(&self.points[idx]); // includes idx
        // Only points in N_ε(idx) can change core status, all upward.
        let mut promoted: Vec<usize> = Vec::new();
        for &q in &nbrs {
            if !self.core[q] && self.degree(&self.points[q]) >= self.min_pts {
                self.core[q] = true;
                promoted.push(q);
            }
        }
        if promoted.is_empty() {
            // No new core: idx is border iff some neighbor is core.
            if let Some(&c) = nbrs.iter().find(|&&q| self.core[q]) {
                self.raw[idx] = self.raw[c];
                return (idx, InsertEffect::Absorption);
            }
            return (idx, InsertEffect::Noise);
        }

        // The promoted cores all neighbor idx, but unless idx is itself a
        // core they are density-connected only through their *own* core
        // neighbors. Group them: two promoted cores within ε of each other
        // share a group (union-find over positions in `promoted`), and
        // each group collects the existing clusters its cores touch.
        let mut group: Vec<usize> = (0..promoted.len()).collect();
        let group_of = |group: &[usize], mut g: usize| {
            while group[g] != g {
                g = group[g];
            }
            g
        };
        let mut touched: Vec<(usize, usize)> = Vec::new(); // (position, root)
        for (pos, &q) in promoted.iter().enumerate() {
            self.for_each_neighbor(&self.points[q], |r| {
                if !self.core[r] {
                    return;
                }
                if let Some(other) = promoted.iter().position(|&x| x == r) {
                    let (a, b) = (group_of(&group, pos), group_of(&group, other));
                    group[a.max(b)] = a.min(b);
                }
                if let Some(id) = self.raw[r] {
                    touched.push((pos, self.find(id)));
                }
            });
        }

        // One target cluster per group, in order of the group's first
        // promoted core: a fresh id, or the union of every cluster it
        // touches.
        let mut most_touched = 0;
        let mut targets: Vec<Option<usize>> = vec![None; promoted.len()];
        for pos in 0..promoted.len() {
            let g = group_of(&group, pos);
            if targets[g].is_some() {
                continue;
            }
            let mut roots: Vec<usize> = Vec::new();
            for &(at, root) in &touched {
                // An earlier group may have merged this root away.
                let root = self.find(root);
                if group_of(&group, at) == g && !roots.contains(&root) {
                    roots.push(root);
                }
            }
            most_touched = most_touched.max(roots.len());
            let target = if roots.is_empty() {
                let id = self.parent.len();
                self.parent.push(id);
                id
            } else {
                roots[1..].iter().fold(roots[0], |t, &other| self.union(t, other))
            };
            targets[g] = Some(target);
        }
        let effect = match most_touched {
            0 => InsertEffect::Creation,
            1 => InsertEffect::Absorption,
            merged => InsertEffect::Merge { merged },
        };
        // Promoted cores and their neighborhoods join their group's target.
        let mut nb = Vec::new();
        for (pos, &q) in promoted.iter().enumerate() {
            let target = targets[group_of(&group, pos)].expect("every group has a target");
            self.raw[q] = Some(target);
            nb.clear();
            self.for_each_neighbor(&self.points[q], |r| nb.push(r));
            for &r in &nb {
                if self.raw[r].is_none() || !self.core[r] {
                    self.raw[r] = Some(target);
                }
            }
        }
        (idx, effect)
    }

    /// Deletes point `idx`, returning the structural effect. Deletion may
    /// split the affected cluster, which requires re-clustering all of
    /// its points — the expensive direction (§3.2.4).
    pub fn remove(&mut self, idx: usize) -> RemoveEffect {
        assert!(self.alive[idx], "point {idx} already removed");
        let old_cluster = match self.label(idx) {
            Label::Cluster(id) => Some(id),
            Label::Noise => None,
        };
        self.alive[idx] = false;
        self.n_alive -= 1;
        self.raw[idx] = None;
        let was_core = self.core[idx];
        self.core[idx] = false;
        // Drop the point from the neighbor index. Without this the cell
        // keeps a stale entry forever (and the key survives even when the
        // removed point was its last member): invisible to queries, which
        // filter on `alive`, but a leak that grows with every deletion.
        let cell = self.cell_of(&self.points[idx]);
        if let std::collections::hash_map::Entry::Occupied(mut e) = self.grid.entry(cell) {
            e.get_mut().retain(|&m| m != idx);
            if e.get().is_empty() {
                e.remove();
            }
        }

        // Neighbors may lose core status.
        let nbrs = self.neighbors_of(&self.points[idx]);
        let mut demoted = Vec::new();
        for &q in &nbrs {
            if self.core[q] && self.degree(&self.points[q]) < self.min_pts {
                self.core[q] = false;
                demoted.push(q);
            }
        }
        if !was_core && demoted.is_empty() {
            return RemoveEffect::Shrink;
        }
        // Every cluster holding the removed point or a demoted core may
        // have lost connectivity.
        let mut affected: Vec<usize> = Vec::new();
        if let Some(id) = old_cluster {
            affected.push(id);
        }
        for &q in &demoted {
            if let Label::Cluster(id) = self.label(q) {
                if !affected.contains(&id) {
                    affected.push(id);
                }
            }
        }
        if affected.is_empty() {
            return RemoveEffect::Shrink;
        }
        let n_affected = affected.len();

        // Re-cluster the affected clusters from scratch: collect their
        // live members, clear them, and re-run region growing among them.
        let members: Vec<usize> = (0..self.points.len())
            .filter(|&i| {
                self.alive[i]
                    && matches!(self.label(i), Label::Cluster(id) if affected.contains(&id))
            })
            .collect();
        for &m in &members {
            self.raw[m] = None;
        }
        let mut pieces = 0usize;
        let mut nb = Vec::new();
        for &m in &members {
            if self.raw[m].is_some() || !self.core[m] {
                continue;
            }
            // Grow a new cluster from this unassigned core.
            let id = self.parent.len();
            self.parent.push(id);
            pieces += 1;
            let mut stack = vec![m];
            self.raw[m] = Some(id);
            while let Some(q) = stack.pop() {
                nb.clear();
                self.for_each_neighbor(&self.points[q], |r| nb.push(r));
                for &r in &nb {
                    if self.raw[r].map(|x| self.find(x)) == Some(id) {
                        continue;
                    }
                    self.raw[r] = Some(id);
                    if self.core[r] {
                        stack.push(r);
                    }
                }
            }
        }
        // A cleared border point may be density-reachable only from a
        // cluster that was *not* affected (its own core neighbors all sat
        // in another cluster). Region growing never visits it, so
        // re-attach it to its first live core neighbor instead of dropping
        // it to noise.
        for &m in &members {
            if self.raw[m].is_some() {
                continue;
            }
            if let Some(c) = self.first_core_neighbor(&self.points[m]) {
                self.raw[m] = self.raw[c];
            }
        }
        if pieces == n_affected {
            RemoveEffect::Shrink
        } else {
            RemoveEffect::Split { pieces }
        }
    }

    /// The first core point, in neighbor order, within ε of `p`.
    fn first_core_neighbor(&self, p: &Point) -> Option<usize> {
        let mut first = None;
        self.for_each_neighbor(p, |r| {
            if first.is_none() && self.core[r] {
                first = Some(r);
            }
        });
        first
    }

    /// Renumbers the live points `0..len()` in their current order and
    /// drops the removed slots, renumbers the live clusters `0..k` in the
    /// order of their ids, and returns the old → new slot map (`None` for
    /// a removed slot).
    ///
    /// Both renumberings are monotone, so every comparison of two slots
    /// or of two cluster ids — and with it every ascending scan, the
    /// union-find's choice of root and the order of each grid cell —
    /// comes out as before: the structure behaves exactly as the
    /// uncompacted one would, and only the numbers change.
    pub fn compact(&mut self) -> Vec<Option<usize>> {
        let n = self.points.len();
        let mut roots: Vec<usize> = (0..n)
            .filter(|&i| self.alive[i])
            .filter_map(|i| self.raw[i].map(|id| self.find(id)))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        let raw: Vec<Option<usize>> = (0..n)
            .filter(|&i| self.alive[i])
            .map(|i| {
                let root = self.raw[i].map(|id| self.find(id));
                root.map(|r| roots.binary_search(&r).expect("live cluster root"))
            })
            .collect();

        let mut slots = vec![None; n];
        let mut next = 0;
        for (old, slot) in slots.iter_mut().enumerate() {
            if self.alive[old] {
                *slot = Some(next);
                next += 1;
            }
        }
        let alive = std::mem::replace(&mut self.alive, vec![true; next]);
        let mut keep = alive.iter();
        self.points.retain(|_| *keep.next().expect("one flag per slot"));
        let mut keep = alive.iter();
        self.core.retain(|_| *keep.next().expect("one flag per slot"));
        self.raw = raw;
        self.parent = (0..roots.len()).collect();
        for members in self.grid.values_mut() {
            for m in members {
                *m = slots[*m].expect("the grid holds only live slots");
            }
        }
        slots
    }

    /// Reference batch DBSCAN over the live points — the test oracle and
    /// the from-scratch baseline.
    pub fn batch_labels(&self) -> Vec<Option<usize>> {
        self.batch_labels_with(&self.batch_core_flags())
    }

    /// Per slot, whether the point is a live core by a fresh count of its
    /// neighborhood.
    fn batch_core_flags(&self) -> Vec<bool> {
        (0..self.points.len())
            .map(|i| self.alive[i] && self.degree(&self.points[i]) >= self.min_pts)
            .collect()
    }

    fn batch_labels_with(&self, is_core: &[bool]) -> Vec<Option<usize>> {
        let mut labels: Vec<Option<usize>> = vec![None; self.points.len()];
        let mut next = 0usize;
        for (i, &core) in is_core.iter().enumerate() {
            if !core || labels[i].is_some() {
                continue;
            }
            let id = next;
            next += 1;
            let mut stack = vec![i];
            labels[i] = Some(id);
            while let Some(q) = stack.pop() {
                // A point already labeled keeps its label: a core cannot
                // be reached from two seeds, and a border reached from two
                // clusters may sit in either (DBSCAN's inherent ambiguity).
                self.for_each_neighbor(&self.points[q], |r| {
                    if labels[r].is_none() {
                        labels[r] = Some(id);
                        if is_core[r] {
                            stack.push(r);
                        }
                    }
                });
            }
        }
        labels
    }

    /// Verifies the incremental state against batch DBSCAN: identical
    /// core flags, identical core partition, identical cluster count and
    /// identical noise set (border assignment may differ, but every
    /// border point must sit within ε of a core of its cluster). Returns
    /// the first divergence as an error message — the differential test
    /// oracle.
    pub fn verify_against_batch(&self) -> Result<(), String> {
        let batch_core = self.batch_core_flags();
        let batch = self.batch_labels_with(&batch_core);
        let live = || (0..self.points.len()).filter(|&i| self.alive[i]);
        // Core flags.
        for i in live() {
            if self.core[i] != batch_core[i] {
                return Err(format!(
                    "core flag of {i} diverged: incremental {}, batch {}",
                    self.core[i], batch_core[i]
                ));
            }
        }
        // Cluster count.
        let batch_count = {
            let mut ids: Vec<usize> = live().filter_map(|i| batch[i]).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        if self.n_clusters() != batch_count {
            return Err(format!(
                "cluster count diverged: incremental {}, batch {batch_count}",
                self.n_clusters()
            ));
        }
        // Core partition: two live cores share an incremental cluster iff
        // they share a batch cluster.
        let cores: Vec<usize> = live().filter(|&i| self.core[i]).collect();
        for (ai, &a) in cores.iter().enumerate() {
            for &b in &cores[ai + 1..] {
                let inc_same = self.label(a) == self.label(b);
                let batch_same = batch[a] == batch[b];
                if inc_same != batch_same {
                    return Err(format!("core partition differs at ({a},{b})"));
                }
            }
        }
        for i in live() {
            match self.label(i) {
                Label::Noise => {
                    if batch[i].is_some() {
                        return Err(format!("{i} noise incrementally, clustered in batch"));
                    }
                }
                Label::Cluster(id) => {
                    if batch[i].is_none() {
                        return Err(format!("{i} clustered incrementally, noise in batch"));
                    }
                    if !self.core[i] {
                        // Border: must be within ε of some core of its cluster.
                        let mut ok = false;
                        self.for_each_neighbor(&self.points[i], |r| {
                            ok |= self.core[r] && self.label(r) == Label::Cluster(id);
                        });
                        if !ok {
                            return Err(format!("border {i} not attached to its cluster"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Panicking form of [`verify_against_batch`] for unit tests.
    ///
    /// [`verify_against_batch`]: IncrementalDbscan::verify_against_batch
    pub fn check_against_batch(&self) {
        if let Err(msg) = self.verify_against_batch() {
            panic!("incremental DBSCAN diverged from batch: {msg}");
        }
    }

    // ---- accessors for the maintainer / oracle / rendering layers ----

    /// The neighborhood radius ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The density threshold (neighborhood includes the point itself).
    pub fn min_pts(&self) -> usize {
        self.min_pts
    }

    /// The dimensionality of the point space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The point at slot `idx` (slots of removed points stay readable
    /// until the next [`IncrementalDbscan::compact`]).
    pub fn point(&self, idx: usize) -> &Point {
        &self.points[idx]
    }

    /// Whether slot `idx` still holds a live point.
    pub fn is_alive(&self, idx: usize) -> bool {
        self.alive[idx]
    }

    /// Slots held: the live points plus those removed since the last
    /// [`IncrementalDbscan::compact`].
    pub fn n_slots(&self) -> usize {
        self.points.len()
    }

    /// Number of live core points.
    pub fn n_core(&self) -> usize {
        (0..self.points.len())
            .filter(|&i| self.alive[i] && self.core[i])
            .count()
    }

    /// Live indices within ε of `p`, in
    /// [`IncrementalDbscan::for_each_neighbor`]'s order.
    pub fn neighbors_of(&self, p: &Point) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_neighbor(p, |i| out.push(i));
        out
    }

    /// Number of entries across all cells of the neighbor index; equals
    /// the live-point count when the removal path keeps the index clean.
    pub fn index_entries(&self) -> usize {
        self.grid.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(c: &[f64]) -> Point {
        Point::new(c.to_vec())
    }

    /// A dense 3-point blob around (x, y).
    fn blob(db: &mut IncrementalDbscan, x: f64, y: f64) -> Vec<usize> {
        [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3)]
            .iter()
            .map(|(dx, dy)| db.insert(p(&[x + dx, y + dy])).0)
            .collect()
    }

    fn db() -> IncrementalDbscan {
        IncrementalDbscan::new(2, 1.0, 3)
    }

    #[test]
    fn isolated_points_are_noise() {
        let mut d = db();
        let (i, e) = d.insert(p(&[0.0, 0.0]));
        assert_eq!(e, InsertEffect::Noise);
        let (_, e) = d.insert(p(&[10.0, 0.0]));
        assert_eq!(e, InsertEffect::Noise);
        assert_eq!(d.label(i), Label::Noise);
        assert_eq!(d.n_clusters(), 0);
        d.check_against_batch();
    }

    #[test]
    fn dense_blob_creates_one_cluster() {
        let mut d = db();
        d.insert(p(&[0.0, 0.0]));
        d.insert(p(&[0.3, 0.0]));
        let (_, e) = d.insert(p(&[0.0, 0.3]));
        assert_eq!(e, InsertEffect::Creation);
        assert_eq!(d.n_clusters(), 1);
        d.check_against_batch();
    }

    #[test]
    fn nearby_point_is_absorbed() {
        let mut d = db();
        blob(&mut d, 0.0, 0.0);
        let (_, e) = d.insert(p(&[0.5, 0.5]));
        assert_eq!(e, InsertEffect::Absorption);
        assert_eq!(d.n_clusters(), 1);
        d.check_against_batch();
    }

    #[test]
    fn bridge_point_merges_clusters() {
        let mut d = db();
        blob(&mut d, 0.0, 0.0);
        blob(&mut d, 1.8, 0.0);
        assert_eq!(d.n_clusters(), 2);
        let (_, e) = d.insert(p(&[0.95, 0.0]));
        assert_eq!(e, InsertEffect::Merge { merged: 2 });
        assert_eq!(d.n_clusters(), 1);
        d.check_against_batch();
    }

    #[test]
    fn non_core_point_does_not_merge_the_cores_it_promotes() {
        // Two 3-point arcs, each one neighbor short of a core, on either
        // side of the origin. A point at the origin raises the inner end
        // of both arcs to core without being a core itself (its own
        // neighborhood holds 3 < 4 points): the two new cores are 1.8
        // apart, so they stay two clusters and the new point is a border
        // of both.
        let mut d = IncrementalDbscan::new(2, 1.0, 4);
        for side in [-1.0, 1.0] {
            d.insert(p(&[side * 0.9, 0.0]));
            d.insert(p(&[side * 1.5, 0.3]));
            d.insert(p(&[side * 1.5, -0.3]));
        }
        assert_eq!(d.n_core(), 0);
        let (mid, e) = d.insert(p(&[0.0, 0.0]));
        assert!(!d.is_core(mid));
        assert_eq!(d.n_core(), 2);
        assert_eq!(e, InsertEffect::Creation);
        assert_eq!(d.n_clusters(), 2);
        d.check_against_batch();
    }

    #[test]
    fn removing_bridge_splits_cluster() {
        let mut d = db();
        blob(&mut d, 0.0, 0.0);
        blob(&mut d, 1.8, 0.0);
        let (bridge, _) = d.insert(p(&[0.95, 0.0]));
        assert_eq!(d.n_clusters(), 1);
        let e = d.remove(bridge);
        assert_eq!(e, RemoveEffect::Split { pieces: 2 });
        assert_eq!(d.n_clusters(), 2);
        d.check_against_batch();
    }

    #[test]
    fn removing_border_point_just_shrinks() {
        let mut d = db();
        blob(&mut d, 0.0, 0.0);
        let (border, _) = d.insert(p(&[0.9, 0.0]));
        assert!(!d.is_core(border) || d.is_core(border)); // may or may not be core
        let before = d.n_clusters();
        d.remove(border);
        assert_eq!(d.n_clusters(), before);
        d.check_against_batch();
    }

    #[test]
    fn removing_everything_leaves_noise() {
        let mut d = db();
        let ids = blob(&mut d, 0.0, 0.0);
        for id in ids {
            d.remove(id);
        }
        assert!(d.is_empty());
        assert_eq!(d.n_clusters(), 0);
    }

    #[test]
    fn random_insert_delete_matches_batch() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        let mut d = IncrementalDbscan::new(2, 1.0, 4);
        let mut live: Vec<usize> = Vec::new();
        for step in 0..300 {
            if !live.is_empty() && rng.gen_bool(0.3) {
                let pos = rng.gen_range(0..live.len());
                let idx = live.swap_remove(pos);
                d.remove(idx);
            } else {
                // Clustered around 3 attractors plus uniform noise.
                let pt = if rng.gen_bool(0.8) {
                    let c = [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)][rng.gen_range(0..3)];
                    p(&[c.0 + rng.gen_range(-0.8..0.8), c.1 + rng.gen_range(-0.8..0.8)])
                } else {
                    p(&[rng.gen_range(-3.0..9.0), rng.gen_range(-3.0..9.0)])
                };
                let (idx, _) = d.insert(pt);
                live.push(idx);
            }
            if step % 25 == 0 {
                d.check_against_batch();
            }
        }
        d.check_against_batch();
    }

    #[test]
    fn removal_purges_the_neighbor_index() {
        let mut d = db();
        let ids = blob(&mut d, 0.0, 0.0);
        // A point alone in a far-away cell: removing it must drop the
        // emptied cell key, not just mask the entry behind `alive`.
        let (lone, _) = d.insert(p(&[50.0, 50.0]));
        let cells_before = d.grid.len();
        d.remove(lone);
        assert_eq!(d.grid.len(), cells_before - 1, "emptied cell key leaked");
        assert_eq!(d.index_entries(), d.len(), "stale index entry leaked");
        for id in ids {
            d.remove(id);
        }
        assert_eq!(d.grid.len(), 0);
        assert_eq!(d.index_entries(), 0);
    }

    #[test]
    fn removal_keeps_border_of_unaffected_cluster() {
        // Two 4-point clusters at min_pts = 4; a non-core border sits
        // within ε of exactly one core of each. Deleting all of cluster A
        // clears the border during A's re-clustering — it must be
        // re-attached to B, not dropped to noise.
        let mut d = IncrementalDbscan::new(2, 1.0, 4);
        let a: Vec<usize> = [[0.3, 0.0], [0.0, 0.0], [0.3, 0.35], [0.3, -0.35]]
            .iter()
            .map(|c| d.insert(p(c)).0)
            .collect();
        for c in [[2.2, 0.0], [2.5, 0.0], [2.2, 0.35], [2.2, -0.35]] {
            d.insert(p(&c));
        }
        let (border, _) = d.insert(p(&[1.25, 0.0]));
        assert!(!d.is_core(border));
        assert!(matches!(d.label(border), Label::Cluster(_)));
        for id in a {
            d.remove(id);
        }
        d.check_against_batch();
        assert!(
            matches!(d.label(border), Label::Cluster(_)),
            "border reachable from the surviving cluster was dropped to noise"
        );
    }

    #[test]
    fn neighbors_come_in_cell_order_then_slot_order() {
        // ε = 2: the query (1, 1) sits in cell (0, 0). Slots are filled
        // out of cell order; the visit goes cell by cell, dim 0
        // outermost, offsets −1, 0, +1, and by slot inside a cell.
        let mut d = IncrementalDbscan::new(2, 2.0, 10);
        for c in [[1.0, 2.5], [2.2, -0.2], [1.5, 1.5], [-0.2, 1.0], [0.5, 0.5], [-0.2, -0.2]] {
            d.insert(p(&c));
        }
        assert_eq!(d.neighbors_of(&p(&[1.0, 1.0])), vec![5, 3, 2, 4, 0, 1]);
    }

    #[test]
    fn compaction_renumbers_without_reordering() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = IncrementalDbscan::new(2, 0.8, 4);
        let mut live: Vec<usize> = Vec::new();
        for _ in 0..400 {
            if !live.is_empty() && rng.gen_bool(0.4) {
                d.remove(live.swap_remove(rng.gen_range(0..live.len())));
            } else {
                let c = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (5.0, 5.0)][rng.gen_range(0..4)];
                let pt = p(&[c.0 + rng.gen_range(-1.2..1.2), c.1 + rng.gen_range(-1.2..1.2)]);
                live.push(d.insert(pt).0);
            }
        }
        let before = d.clone();
        assert!(before.n_clusters() >= 3, "{} clusters", before.n_clusters());
        let slots = d.compact();
        assert_eq!((d.n_slots(), d.len()), (before.len(), before.len()));
        assert_eq!(d.index_entries(), d.len());
        let moved = |old: &[usize]| -> Vec<usize> {
            old.iter().map(|&i| slots[i].expect("live slot")).collect()
        };
        // Same clusters, same members in the same order.
        let clusters: Vec<Vec<usize>> = before.clusters().iter().map(|c| moved(c)).collect();
        assert_eq!(d.clusters(), clusters);
        // Same label partition, same core flags, same cluster-id order.
        for old in (0..before.n_slots()).filter(|&i| before.is_alive(i)) {
            let new = slots[old].expect("live slot");
            assert_eq!(d.point(new), before.point(old));
            assert_eq!(d.is_core(new), before.is_core(old));
            for other in (0..old).filter(|&i| before.is_alive(i)) {
                let o = slots[other].expect("live slot");
                let rank = |l: Label| match l {
                    Label::Noise => None,
                    Label::Cluster(id) => Some(id),
                };
                let (a, b) = (rank(before.label(old)), rank(before.label(other)));
                let (x, y) = (rank(d.label(new)), rank(d.label(o)));
                assert_eq!(a.cmp(&b), x.cmp(&y), "cluster ids reordered");
            }
        }
        // Every neighborhood lists the same points in the same order.
        for q in (0..before.n_slots()).map(|i| before.point(i).clone()) {
            assert_eq!(d.neighbors_of(&q), moved(&before.neighbors_of(&q)));
        }
        d.check_against_batch();
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_remove_panics() {
        let mut d = db();
        let (i, _) = d.insert(p(&[0.0, 0.0]));
        d.remove(i);
        d.remove(i);
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn rejects_bad_eps() {
        IncrementalDbscan::new(2, 0.0, 3);
    }
}
