//! Storage digests for the packed operand planes and microkernel panels.
//!
//! [`OperandDigests`] seals a [`PackedOperands`] at pack time: one CRC32C
//! per metadata plane plus a **per-tile** CRC table over the `sval` plane
//! ([`SVAL_TILE`] elements per tile). Tiling serves two purposes: a
//! mismatch localizes to one tile so the repair is `O(SVAL_TILE)` rather
//! than a full re-decode, and the layout matches the planned streaming
//! weight format (ROADMAP: per-tile checksums on the zero-copy weight
//! stream), so the same table can ride in that container unchanged.
//!
//! Verification runs at *load* boundaries (after `decode_packed`, after a
//! panel pack, after DMA in a real system) — not per GEMM. The per-GEMM
//! detector is the ABFT checksum ([`crate::abft`]), whose cost amortizes
//! against the `O(m·k·n)` kernel.

use owlp_format::crc::{crc32c_bytes, crc32c_i16, crc32c_u16, crc32c_u32};
use owlp_format::{PackedOperands, PackedPanels, PackedPlane};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Elements per `sval` digest tile — re-exported from
/// [`owlp_format::crc`], where the on-disk archive's per-tile CRC tables
/// share the same granule, so a table sealed at pack time verifies the
/// mapped planes unchanged.
pub use owlp_format::crc::SVAL_TILE;

/// A detected integrity violation, typed by the layer that caught it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntegrityError {
    /// A packed plane's CRC32C no longer matches its sealed digest.
    PlaneDigest {
        /// Which plane mismatched.
        plane: PackedPlane,
        /// For the tiled `sval` plane, the damaged tile index.
        tile: Option<usize>,
    },
    /// A microkernel panel data tile no longer matches its sealed digest.
    PanelDigest {
        /// Damaged tile index into the panel data.
        tile: usize,
    },
    /// An element's `{sh, tag, exp}` side-band parity bit is inconsistent.
    SideBandParity {
        /// Element index whose parity check failed.
        index: usize,
    },
    /// Post-GEMM ABFT row/column checksums disagree with the reference.
    ChecksumMismatch {
        /// Number of row sums that mismatched.
        rows: usize,
        /// Number of column sums that mismatched.
        cols: usize,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::PlaneDigest {
                plane,
                tile: Some(tile),
            } => {
                write!(f, "packed {plane:?} plane digest mismatch in tile {tile}")
            }
            IntegrityError::PlaneDigest { plane, tile: None } => {
                write!(f, "packed {plane:?} plane digest mismatch")
            }
            IntegrityError::PanelDigest { tile } => {
                write!(f, "panel data digest mismatch in tile {tile}")
            }
            IntegrityError::SideBandParity { index } => {
                write!(f, "side-band parity violation at element {index}")
            }
            IntegrityError::ChecksumMismatch { rows, cols } => {
                write!(
                    f,
                    "abft checksum mismatch across {rows} row sum(s) and {cols} column sum(s)"
                )
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// The byte range of `sval` tile `tile` in a plane of `len` elements.
pub fn sval_tile_range(tile: usize, len: usize) -> Range<usize> {
    let start = tile * SVAL_TILE;
    start..len.min(start + SVAL_TILE)
}

/// Sealed digests of one [`PackedOperands`], computed at pack time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperandDigests {
    /// CRC32C of the `mag` plane.
    pub mag: u32,
    /// CRC32C of the `meta` plane.
    pub meta: u32,
    /// Per-[`SVAL_TILE`] CRC32C table over the `sval` plane.
    pub sval_tiles: Vec<u32>,
    /// CRC32C of the outlier position side table.
    pub outlier_pos: u32,
    /// CRC32C of the outlier exponent side table.
    pub outlier_exp: u32,
}

impl OperandDigests {
    /// Digests `packed` as currently stored.
    pub fn of(packed: &PackedOperands) -> Self {
        OperandDigests {
            mag: crc32c_u16(packed.mags()),
            meta: crc32c_bytes(packed.metas()),
            sval_tiles: packed.svals().chunks(SVAL_TILE).map(crc32c_i16).collect(),
            outlier_pos: crc32c_u32(packed.outlier_positions()),
            outlier_exp: crc32c_bytes(packed.outlier_exps()),
        }
    }

    /// Re-digests `packed` and compares against the sealed values.
    ///
    /// Planes are checked metadata-first (`mag`, `meta`, side tables, then
    /// the `sval` tiles), so an `sval` tile report implies the `mag`/`meta`
    /// planes it would be rebuilt from verified clean — the precondition
    /// for an in-place [`PackedOperands::rebuild_sval_range`] repair.
    ///
    /// # Errors
    ///
    /// The first [`IntegrityError::PlaneDigest`] in check order.
    pub fn verify(&self, packed: &PackedOperands) -> Result<(), IntegrityError> {
        if crc32c_u16(packed.mags()) != self.mag {
            return Err(IntegrityError::PlaneDigest {
                plane: PackedPlane::Mag,
                tile: None,
            });
        }
        if crc32c_bytes(packed.metas()) != self.meta {
            return Err(IntegrityError::PlaneDigest {
                plane: PackedPlane::Meta,
                tile: None,
            });
        }
        if crc32c_u32(packed.outlier_positions()) != self.outlier_pos {
            return Err(IntegrityError::PlaneDigest {
                plane: PackedPlane::OutlierPos,
                tile: None,
            });
        }
        if crc32c_bytes(packed.outlier_exps()) != self.outlier_exp {
            return Err(IntegrityError::PlaneDigest {
                plane: PackedPlane::OutlierExp,
                tile: None,
            });
        }
        for (tile, chunk) in packed.svals().chunks(SVAL_TILE).enumerate() {
            if self.sval_tiles.get(tile).copied() != Some(crc32c_i16(chunk)) {
                return Err(IntegrityError::PlaneDigest {
                    plane: PackedPlane::Sval,
                    tile: Some(tile),
                });
            }
        }
        if self.sval_tiles.len() != packed.svals().len().div_ceil(SVAL_TILE) {
            return Err(IntegrityError::PlaneDigest {
                plane: PackedPlane::Sval,
                tile: None,
            });
        }
        Ok(())
    }

    /// Verifies the planes the GEMM fast path *reads*: the `sval` tiles,
    /// the `meta` side-band, and both outlier side tables — everything
    /// whose corruption can reach an output value. The `mag` plane is a
    /// repair source, not a compute input: it is covered by [`Self::verify`] at
    /// repair and scrub boundaries, where its digest gates the in-place
    /// `sval` rebuild. This is the check the per-GEMM overhead budget
    /// prices; [`Self::verify`] is the full storage scrub.
    ///
    /// # Errors
    ///
    /// The first [`IntegrityError::PlaneDigest`] in check order (`meta`,
    /// side tables, then the `sval` tiles).
    pub fn verify_consumed(&self, packed: &PackedOperands) -> Result<(), IntegrityError> {
        if crc32c_bytes(packed.metas()) != self.meta {
            return Err(IntegrityError::PlaneDigest {
                plane: PackedPlane::Meta,
                tile: None,
            });
        }
        if crc32c_u32(packed.outlier_positions()) != self.outlier_pos {
            return Err(IntegrityError::PlaneDigest {
                plane: PackedPlane::OutlierPos,
                tile: None,
            });
        }
        if crc32c_bytes(packed.outlier_exps()) != self.outlier_exp {
            return Err(IntegrityError::PlaneDigest {
                plane: PackedPlane::OutlierExp,
                tile: None,
            });
        }
        for (tile, chunk) in packed.svals().chunks(SVAL_TILE).enumerate() {
            if self.sval_tiles.get(tile).copied() != Some(crc32c_i16(chunk)) {
                return Err(IntegrityError::PlaneDigest {
                    plane: PackedPlane::Sval,
                    tile: Some(tile),
                });
            }
        }
        if self.sval_tiles.len() != packed.svals().len().div_ceil(SVAL_TILE) {
            return Err(IntegrityError::PlaneDigest {
                plane: PackedPlane::Sval,
                tile: None,
            });
        }
        Ok(())
    }
}

/// Sealed per-tile digests of one [`PackedPanels`] data block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PanelDigests {
    /// Per-[`SVAL_TILE`] CRC32C table over the panel-major `i16` data.
    pub tiles: Vec<u32>,
}

impl PanelDigests {
    /// Digests `panels` as currently stored.
    pub fn of(panels: &PackedPanels) -> Self {
        PanelDigests {
            tiles: panels.data().chunks(SVAL_TILE).map(crc32c_i16).collect(),
        }
    }

    /// Re-digests `panels` and compares against the sealed values.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::PanelDigest`] naming the first damaged tile.
    pub fn verify(&self, panels: &PackedPanels) -> Result<(), IntegrityError> {
        for (tile, chunk) in panels.data().chunks(SVAL_TILE).enumerate() {
            if self.tiles.get(tile).copied() != Some(crc32c_i16(chunk)) {
                return Err(IntegrityError::PanelDigest { tile });
            }
        }
        if self.tiles.len() != panels.data().len().div_ceil(SVAL_TILE) {
            return Err(IntegrityError::PanelDigest {
                tile: self.tiles.len().min(panels.data().len() / SVAL_TILE),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synth_tensor;
    use owlp_format::encode_tensor;

    fn packed_fixture() -> PackedOperands {
        let t = synth_tensor(3 * SVAL_TILE + 17, 11, 7);
        encode_tensor(&t, None).expect("finite").decode_packed()
    }

    #[test]
    fn clean_operands_verify() {
        let packed = packed_fixture();
        let digests = OperandDigests::of(&packed);
        assert_eq!(digests.sval_tiles.len(), 4);
        assert!(digests.verify(&packed).is_ok());
    }

    #[test]
    fn sval_strike_localizes_to_its_tile_and_repairs_in_place() {
        let mut packed = packed_fixture();
        let digests = OperandDigests::of(&packed);
        let index = 2 * SVAL_TILE + 5;
        packed.flip_bit(PackedPlane::Sval, index, 9);
        let err = digests.verify(&packed).expect_err("must detect");
        assert_eq!(
            err,
            IntegrityError::PlaneDigest {
                plane: PackedPlane::Sval,
                tile: Some(2),
            }
        );
        // Repair precondition holds (mag/meta clean), so rebuild the tile.
        packed.rebuild_sval_range(sval_tile_range(2, packed.len()));
        assert!(digests.verify(&packed).is_ok());
    }

    #[test]
    fn every_plane_strike_is_detected() {
        let cases = [
            (PackedPlane::Mag, 7usize, 3u32),
            (PackedPlane::Meta, 40, 0),
            (PackedPlane::Sval, 1, 14),
            (PackedPlane::OutlierPos, 0, 2),
            (PackedPlane::OutlierExp, 0, 6),
        ];
        for (plane, index, bit) in cases {
            let mut packed = packed_fixture();
            let digests = OperandDigests::of(&packed);
            packed.flip_bit(plane, index, bit);
            let err = digests.verify(&packed).expect_err("must detect");
            match err {
                IntegrityError::PlaneDigest { plane: p, .. } => assert_eq!(p, plane),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn panel_strike_is_detected_and_involution_restores() {
        let t = synth_tensor(16 * 12, 5, 9);
        let packed = encode_tensor(&t, None).expect("finite").decode_packed();
        let mut panels = packed.pack_panels(16, 12);
        let digests = PanelDigests::of(&panels);
        assert!(digests.verify(&panels).is_ok());
        panels.flip_bit(33, 12);
        assert_eq!(
            digests.verify(&panels),
            Err(IntegrityError::PanelDigest { tile: 0 })
        );
        panels.flip_bit(33, 12);
        assert!(digests.verify(&panels).is_ok());
    }

    #[test]
    fn errors_render_in_lowercase_prose() {
        let err = IntegrityError::PlaneDigest {
            plane: PackedPlane::Sval,
            tile: Some(3),
        };
        assert_eq!(
            err.to_string(),
            "packed Sval plane digest mismatch in tile 3"
        );
        let err = IntegrityError::ChecksumMismatch { rows: 1, cols: 1 };
        assert!(err.to_string().starts_with("abft checksum mismatch"));
    }
}
