//! Decision-tree classifiers for the DEMON framework.
//!
//! The FOCUS deviation framework (paper §4) "can be instantiated with any
//! one of three popular data mining models: frequent itemsets, decision
//! tree classifiers, and clusters". This crate supplies the third model
//! class: a greedy binary CART-style classifier over numeric points with
//! class labels, whose leaves expose the *structural component* FOCUS
//! needs — axis-aligned regions with per-class measures.
//!
//! (Incremental decision-tree *maintenance* is the authors' separate BOAT
//! line of work, which the paper explicitly does not revisit; here the
//! tree is the model FOCUS compares across blocks.)
//!
//! # Paper → module map
//!
//! | Paper section | Concept | Module / type |
//! |---|---|---|
//! | §4 (FOCUS model classes) | decision-tree model | [`DecisionTree`] |
//! | §4 | structural component (leaf regions) | [`Region`] |
//! | §4 | labeled numeric records | [`LabeledPoint`] |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod tree;

pub use tree::{DecisionTree, LabeledPoint, Region, TreeParams};

/// A labeled-point block as the block storage engine holds (and spills)
/// it: the generic numeric-block record over [`LabeledPoint`]'s row codec
/// (the label as one `u64` word ahead of the coordinates).
pub type LabeledBlockEntry = demon_store::BlockEntry<LabeledPoint>;
