//! BIRCH clustering (Zhang, Ramakrishnan, Livny; SIGMOD '96) and the
//! **BIRCH+** incremental maintainer of the DEMON paper.
//!
//! * [`cf`] — cluster features `(N, LS, SS)` with the standard BIRCH
//!   algebra (additivity, centroid, radius, diameter);
//! * [`cftree`] — the height-balanced CF-tree of phase 1, with threshold-
//!   driven absorption, node splitting and capacity-driven rebuilding;
//! * [`global`] — phase 2: weighted k-means (k-means++ seeding) and
//!   centroid-linkage agglomerative clustering over the leaf entries;
//! * [`birch`] — the two-phase pipeline, the [`birch::BirchPlus`]
//!   incremental maintainer (paper §3.1.2: suspend/resume phase 1 across
//!   blocks, rerun the cheap phase 2 on demand), and the labeling scan;
//! * [`dbscan`] — DBSCAN and incremental DBSCAN (Ester et al. '98), the
//!   comparator whose insert/delete cost asymmetry motivates GEMM
//!   (paper §3.2.4);
//! * [`dbscan_window`] — the windowed density model GEMM maintains: the
//!   incremental structure plus a block→slots registry so the MRW window
//!   slides by *deleting* the departing block's points (the only
//!   deletion-based model class in the workspace).
//!
//! # Paper → module map
//!
//! | Paper section | Concept | Module / type |
//! |---|---|---|
//! | §3.1.2 | BIRCH phase 1 (CF-tree scan) | [`cf`], [`cftree`] |
//! | §3.1.2 | BIRCH phase 2 (global clustering) | [`global`] |
//! | §3.1.2 | BIRCH+ suspend/resume maintenance | [`birch::BirchPlus`] |
//! | §3.1.2 | "second scan" labeling | [`birch::BirchModel::label_block`] |
//! | §3.2.4 | incremental-DBSCAN comparator | [`dbscan`] |
//! | §3.2.4 | deletion-based MRW density model | [`dbscan_window`] |
//! | Fig. 8 | BIRCH vs BIRCH+ response time | [`birch::BirchStats`] |
//!
//! The phase-2 assignment scan and the labeling scan shard across the
//! process-wide default thread count (`demon_types::parallel`); results
//! are bit-identical at any thread count because each point's argmin is
//! independent and float reductions stay sequential.
//!
//! # Example
//!
//! Maintain a cluster model across two blocks with BIRCH+:
//!
//! ```
//! use demon_clustering::{BirchParams, BirchPlus};
//! use demon_types::{BlockId, Point, PointBlock};
//!
//! let mut params = BirchParams::new(2, 2);
//! params.tree.threshold2 = 1.0;
//! let mut plus = BirchPlus::new(params);
//!
//! let blob = |cx: f64, id: u64| {
//!     PointBlock::new(
//!         BlockId(id),
//!         (0..50).map(|i| Point::new(vec![cx + (i % 5) as f64 * 0.1, 0.0])).collect(),
//!     )
//! };
//! plus.absorb_block(&blob(0.0, 1));   // phase 1, resumed per block
//! plus.absorb_block(&blob(30.0, 2));
//! let (model, _phase2_time) = plus.model();
//! assert_eq!(model.k(), 2);
//! assert_eq!(model.n_points(), 100);
//! // Label a fresh point against the maintained concepts.
//! assert_eq!(model.assign_point(&Point::new(vec![29.5, 0.0])),
//!            model.assign_point(&Point::new(vec![30.5, 0.0])));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod birch;
pub mod cf;
pub mod dbscan;
pub mod dbscan_window;
pub mod cftree;
pub mod global;

pub use birch::{phase2_model, Birch, BirchModel, BirchParams, BirchPlus, Cluster};
pub use cf::ClusterFeature;
pub use dbscan::{DbscanParams, IncrementalDbscan, Label};
pub use dbscan_window::{ClusterSummary, DbscanSummary, WindowedDbscan};
pub use cftree::CfTree;

/// A point block as the block storage engine holds (and spills) it: the
/// generic numeric-block record over [`demon_types::Point`]'s row codec.
pub type PointBlockEntry = demon_store::BlockEntry<demon_types::Point>;
