//! Double-buffered on-chip tile planning over the SRAM budget.
//!
//! Each fold group's stationary weight-tile set is one prefetch unit. The
//! tile manager decides how many of those units the 12 MB buffer can hold
//! simultaneously next to the phase's resident data (streamed activations
//! and accumulating outputs): depth 2 is classic double buffering — fetch
//! group `i+1` while group `i` computes — and depth 1 means the buffer is
//! too full to prefetch, serialising fetch and compute.
//!
//! The outlier-exponent buffer (paper §IV-D) is planned here too: entries
//! beyond its capacity spill off chip and are re-fetched burst by burst,
//! inflating the group's traffic.

use owlp_hw::MemorySystem;
use serde::{Deserialize, Serialize};

/// SRAM residency plan for one phase of uniform fold groups.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TilePlan {
    /// Off-chip bytes per group: the tile set plus any outlier spill.
    pub group_bytes: u64,
    /// Portion of `group_bytes` caused by outlier-buffer overflow.
    pub overflow_bytes: u64,
    /// Tile-buffer slots actually usable (≤ configured depth; ≥ 1).
    pub effective_depth: usize,
    /// Whether even a single group plus the resident set fits on chip.
    /// When false the group streams through in fragments; the model keeps
    /// depth 1 (no prefetch overlap) as the conservative account.
    pub fits: bool,
}

impl TilePlan {
    /// Plans the buffer split for groups of `tile_bytes` each, with
    /// `tile_outliers` outlier entries per group and `resident_bytes` of
    /// phase-persistent data sharing the SRAM.
    pub fn new(
        mem: &MemorySystem,
        tile_bytes: u64,
        tile_outliers: usize,
        resident_bytes: u64,
    ) -> Self {
        let overflow_bytes = mem.outlier_buffer.overflow_bytes(tile_outliers);
        let group_bytes = tile_bytes + overflow_bytes;
        let budget = mem.sram_bytes.saturating_sub(resident_bytes);
        // Zero-byte tiles fit trivially: grant the full configured depth.
        let max_slots = budget
            .checked_div(tile_bytes)
            .unwrap_or(mem.double_buffer as u64);
        let effective_depth = (mem.double_buffer as u64).min(max_slots).max(1) as usize;
        TilePlan {
            group_bytes,
            overflow_bytes,
            effective_depth,
            fits: max_slots >= 1,
        }
    }

    /// Whether prefetch overlap is possible at all.
    pub fn overlapped(&self) -> bool {
        self.effective_depth >= 2
    }
}

/// Outlier entries a tile of `elements` values contributes at `rate`
/// (fraction of elements tagged as outliers), rounded up so a non-zero
/// rate always books at least the entries it implies.
pub fn tile_outlier_entries(elements: u64, rate: f64) -> usize {
    (elements as f64 * rate.clamp(0.0, 1.0)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_double_buffer_weight_tiles() {
        let mem = MemorySystem::paper();
        // One OwL-P fold group: 48 arrays × (4×32×8 lanes) stationary
        // weights at 1.5 B/element ≈ 590 KB — double buffering fits with
        // megabytes to spare.
        let tile_bytes = (48 * 4 * 32 * 8) as u64 * 3 / 2;
        let plan = TilePlan::new(&mem, tile_bytes, 0, 2 * 1024 * 1024);
        assert_eq!(plan.effective_depth, 2);
        assert!(plan.fits && plan.overlapped());
        assert_eq!(plan.group_bytes, tile_bytes);
        assert_eq!(plan.overflow_bytes, 0);
    }

    #[test]
    fn depth_degrades_when_tiles_crowd_the_buffer() {
        let mem = MemorySystem::paper();
        let seven_mb = 7 * 1024 * 1024;
        let plan = TilePlan::new(&mem, seven_mb, 0, 0);
        assert_eq!(plan.effective_depth, 1);
        assert!(plan.fits && !plan.overlapped());
        // Oversized tile: still depth 1, flagged as not fitting.
        let plan = TilePlan::new(&mem, 13 * 1024 * 1024, 0, 0);
        assert_eq!(plan.effective_depth, 1);
        assert!(!plan.fits);
    }

    #[test]
    fn resident_data_shrinks_the_tile_budget() {
        let mem = MemorySystem::paper();
        let five_mb = 5 * 1024 * 1024;
        assert!(TilePlan::new(&mem, five_mb, 0, 0).overlapped());
        assert!(!TilePlan::new(&mem, five_mb, 0, 3 * 1024 * 1024).overlapped());
    }

    #[test]
    fn outlier_overflow_inflates_group_traffic() {
        let mem = MemorySystem::paper();
        let entries = mem.outlier_buffer.entries;
        let plan = TilePlan::new(&mem, 1024, entries + 10, 0);
        assert_eq!(plan.overflow_bytes, 10 * mem.outlier_buffer.burst_bytes);
        assert_eq!(plan.group_bytes, 1024 + plan.overflow_bytes);
        // At paper outlier rates (~1.5 %) a full tile set never spills.
        let tile_elements = (48 * 4 * 32 * 8) as u64;
        let entries = tile_outlier_entries(tile_elements, 0.015);
        assert_eq!(mem.outlier_buffer.overflow_bytes(entries), 0);
    }

    #[test]
    fn outlier_entry_rounding_books_partial_elements() {
        assert_eq!(tile_outlier_entries(1000, 0.0015), 2);
        assert_eq!(tile_outlier_entries(1000, 0.0), 0);
        assert_eq!(tile_outlier_entries(1000, 2.0), 1000);
    }
}
