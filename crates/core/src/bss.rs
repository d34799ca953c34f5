//! Block selection sequences (paper §2.3) and the window operations of
//! §3.2.
//!
//! A BSS marks which blocks feed the model: bit 1 selects the block, bit 0
//! skips it. A **window-independent** BSS is anchored to absolute block
//! identifiers ("all blocks added on Mondays"); a **window-relative** BSS
//! is anchored to positions inside the most recent window ("every seventh
//! block counting from the start of the window") and therefore *moves*
//! with the window.

use demon_types::BlockId;
use serde::{Deserialize, Serialize};

/// A window-independent block selection sequence: conceptually an infinite
/// bit sequence `⟨b₁, b₂, …⟩` indexed by block identifier.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WiBss {
    /// Select every block (the degenerate all-ones BSS).
    All,
    /// Explicit bits for the first blocks; blocks beyond the explicit
    /// prefix take the `tail` value.
    Explicit {
        /// Bits for blocks `1..=bits.len()`.
        bits: Vec<bool>,
        /// Bit for every later block.
        tail: bool,
    },
    /// A periodic pattern: block `i` (1-based) takes
    /// `pattern[(i - 1) % pattern.len()]` — "all blocks added on Mondays"
    /// is `Periodic` with a 7-bit pattern when blocks are daily.
    Periodic {
        /// The repeating bit pattern (must be non-empty).
        pattern: Vec<bool>,
    },
}

impl WiBss {
    /// The bit `b_i` of block `id`.
    pub fn bit(&self, id: BlockId) -> bool {
        match self {
            WiBss::All => true,
            WiBss::Explicit { bits, tail } => {
                bits.get(id.index()).copied().unwrap_or(*tail)
            }
            WiBss::Periodic { pattern } => {
                assert!(!pattern.is_empty(), "periodic BSS needs a pattern");
                pattern[id.index() % pattern.len()]
            }
        }
    }

    /// The **k-projection** (§3.2.1): the length-`w` sequence selecting,
    /// inside the current window `D[start, start+w-1]`, the blocks a
    /// future-window model shares with it — the window bits with the first
    /// `k` positions zeroed.
    pub fn project(&self, window_start: BlockId, w: usize, k: usize) -> Vec<bool> {
        assert!(k < w, "projection index must be below the window size");
        (0..w)
            .map(|i| i >= k && self.bit(BlockId(window_start.value() + i as u64)))
            .collect()
    }
}

/// A window-relative BSS: one bit per position `1..=w` of the most recent
/// window.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WrBss {
    bits: Vec<bool>,
}

impl WrBss {
    /// Builds from the per-position bits (`bits.len()` = window size).
    pub fn new(bits: Vec<bool>) -> Self {
        assert!(!bits.is_empty(), "window-relative BSS cannot be empty");
        WrBss { bits }
    }

    /// The window size the sequence is defined over.
    pub fn window_size(&self) -> usize {
        self.bits.len()
    }

    /// The bit of window position `pos` (1-based).
    pub fn bit(&self, pos: usize) -> bool {
        assert!(pos >= 1 && pos <= self.bits.len(), "position out of window");
        self.bits[pos - 1]
    }

    /// The **k-right-shift** (§3.2.2): slide the pattern forward by `k`
    /// blocks, zero-padding the first `k` positions and truncating what
    /// slides past the end.
    pub fn right_shift(&self, k: usize) -> Vec<bool> {
        let w = self.bits.len();
        (0..w)
            .map(|i| i >= k && self.bits[i - k.min(i)])
            .collect()
    }
}

/// The block selector: which flavour of BSS applies, and its bits.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockSelector {
    /// Window-independent selection (valid for both data span options).
    WindowIndependent(WiBss),
    /// Window-relative selection (only meaningful for the most recent
    /// window — the sharp UW/MRW distinction is what lets this exist,
    /// §2.3).
    WindowRelative(WrBss),
}

impl BlockSelector {
    /// Selects every block.
    pub fn all() -> Self {
        BlockSelector::WindowIndependent(WiBss::All)
    }

    /// Whether block `id` is selected when it arrives as the newest block
    /// of a window whose start block is `window_start` (window size `w`).
    ///
    /// For a window-independent BSS only the block's own bit matters; for
    /// a window-relative BSS the bit of the block's *position* in the
    /// window applies.
    pub fn selects_arriving(&self, id: BlockId, window_start: BlockId, w: usize) -> bool {
        match self {
            BlockSelector::WindowIndependent(wi) => wi.bit(id),
            BlockSelector::WindowRelative(wr) => {
                debug_assert_eq!(wr.window_size(), w);
                let pos = (id.value() - window_start.value() + 1) as usize;
                debug_assert!(pos >= 1 && pos <= w, "arriving block outside window");
                wr.bit(pos)
            }
        }
    }

    /// The blocks of the window `[start, start + w - 1] ∩ [1, t]` selected
    /// by this BSS (used by the `AuM` baseline and by tests to
    /// cross-check GEMM's incremental state).
    pub fn selected_in_window(&self, start: BlockId, w: usize, latest: BlockId) -> Vec<BlockId> {
        (0..w as u64)
            .map(|i| BlockId(start.value() + i))
            .filter(|id| id.value() <= latest.value())
            .filter(|id| match self {
                BlockSelector::WindowIndependent(wi) => wi.bit(*id),
                BlockSelector::WindowRelative(wr) => {
                    wr.bit((id.value() - start.value() + 1) as usize)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn wi_bss_variants_index_by_block_id() {
        assert!(WiBss::All.bit(BlockId(7)));
        let e = WiBss::Explicit {
            bits: bits("101"),
            tail: false,
        };
        assert!(e.bit(BlockId(1)));
        assert!(!e.bit(BlockId(2)));
        assert!(e.bit(BlockId(3)));
        assert!(!e.bit(BlockId(4))); // tail
        let p = WiBss::Periodic { pattern: bits("10") };
        assert!(p.bit(BlockId(1)));
        assert!(!p.bit(BlockId(2)));
        assert!(p.bit(BlockId(3)));
    }

    #[test]
    fn projection_matches_paper_example() {
        // Paper §3.2.1: window D[1,3], w = 3, BSS ⟨10110…⟩.
        // k=0 keeps ⟨101⟩; k=1 gives ⟨001⟩; k=2 gives ⟨001⟩.
        let b = WiBss::Explicit {
            bits: bits("10110"),
            tail: false,
        };
        assert_eq!(b.project(BlockId(1), 3, 0), bits("101"));
        assert_eq!(b.project(BlockId(1), 3, 1), bits("001"));
        assert_eq!(b.project(BlockId(1), 3, 2), bits("001"));
    }

    #[test]
    #[should_panic(expected = "below the window size")]
    fn projection_rejects_k_at_window_size() {
        WiBss::All.project(BlockId(1), 3, 3);
    }

    #[test]
    fn right_shift_matches_paper_example() {
        // Paper §3.2.2: window-relative ⟨101⟩ right-shifted once is ⟨010⟩.
        let wr = WrBss::new(bits("101"));
        assert_eq!(wr.right_shift(0), bits("101"));
        assert_eq!(wr.right_shift(1), bits("010"));
        assert_eq!(wr.right_shift(2), bits("001"));
    }

    #[test]
    fn right_shift_truncates_beyond_window() {
        let wr = WrBss::new(bits("111"));
        assert_eq!(wr.right_shift(2), bits("001"));
        let wr2 = WrBss::new(bits("100"));
        assert_eq!(wr2.right_shift(1), bits("010"));
        assert_eq!(wr2.right_shift(2), bits("001"));
    }
}
