//! The paper's comparators, kept beside the experiments that measure
//! them: nothing a `demon-cli` binary links needs these.
//!
//! | Comparator | Paper | Measured by |
//! |---|---|---|
//! | [`aum::AumWindow`] — direct add/delete window maintenance | §3.2.4 | `ablation_gemm` |
//! | [`fup::FupModel`] — FUP, the pre-BORDERS incremental miner | §6 | `ablation_fup` |
//! | [`hash_tree::HashTree`] — the AMS+96 candidate-counting structure | §3.1.1, fn. 7 | `benches/counting.rs` |
//!
//! `tests/baselines.rs` holds their differential properties (FUP ==
//! batch, AuM == GEMM).

pub mod aum;
pub mod fup;
pub mod hash_tree;
