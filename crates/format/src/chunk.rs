//! The off-chip memory map (paper Fig. 5).
//!
//! A packed tensor occupies three regions:
//!
//! 1. **metadata region** — chunk start address, the shared exponent, and
//!    layer information;
//! 2. **normal data region** — groups of 32 values, each value an 11-bit
//!    `{sign, bias, frac}` code, followed per group by an 11-bit pointer into
//!    the outlier region and a 5-bit outlier count;
//! 3. **outlier data region** — the 8-bit exponents of the outliers of each
//!    group, in order.
//!
//! The pointer stores the low 11 bits of the group's first outlier index;
//! the full location is reconstructed with an address counter from the
//! per-group counts, exactly as described in paper §IV-D ("the location of
//! the outlier chunk can be determined by an address counter based on the
//! number of outliers for each normal data region").

use crate::bitstream::{BitReader, BitWriter};
use crate::encode::EncodedTensor;
use crate::error::FormatError;
use crate::shared_exp::ExponentWindow;
use crate::value::OwlpCode;
use crate::{CODE_BITS, GROUP_SIZE};
use serde::{Deserialize, Serialize};

/// Static layout constants of the memory map, exposed so the hardware model
/// can account traffic without materialising packed bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackingLayout {
    /// Values per group (32 in the paper).
    pub group_size: usize,
    /// Bits per in-line value code (11).
    pub code_bits: u32,
    /// Bits of the per-group outlier pointer (11).
    pub pointer_bits: u32,
    /// Bits of the per-group outlier count (5).
    pub count_bits: u32,
    /// Bits per outlier exponent entry (8).
    pub outlier_exp_bits: u32,
    /// Bits of the fixed metadata region.
    pub metadata_bits: u32,
}

impl PackingLayout {
    /// The layout of paper Fig. 5.
    pub const PAPER: PackingLayout = PackingLayout {
        group_size: GROUP_SIZE,
        code_bits: CODE_BITS,
        pointer_bits: 11,
        count_bits: 5,
        outlier_exp_bits: 8,
        // start address (32) + shared exponent (8) + layer info (32) +
        // element count (32).
        metadata_bits: 104,
    };

    /// Total packed size in bits for a tensor of `elements` values of which
    /// `outliers` need exponent entries.
    pub fn packed_bits(&self, elements: usize, outliers: usize) -> u64 {
        let groups = elements.div_ceil(self.group_size) as u64;
        self.metadata_bits as u64
            + groups
                * (self.group_size as u64 * self.code_bits as u64
                    + self.pointer_bits as u64
                    + self.count_bits as u64)
            + outliers as u64 * self.outlier_exp_bits as u64
    }

    /// Packed size in bytes (rounded up per region as the packer does:
    /// metadata, normal and outlier regions are each byte-aligned).
    pub fn packed_bytes(&self, elements: usize, outliers: usize) -> u64 {
        let groups = elements.div_ceil(self.group_size) as u64;
        let normal_bits = groups
            * (self.group_size as u64 * self.code_bits as u64
                + self.pointer_bits as u64
                + self.count_bits as u64);
        (self.metadata_bits as u64).div_ceil(8)
            + normal_bits.div_ceil(8)
            + (outliers as u64 * self.outlier_exp_bits as u64).div_ceil(8)
    }

    /// Size of the same tensor stored as raw BF16, in bytes.
    pub fn bf16_bytes(&self, elements: usize) -> u64 {
        elements as u64 * 2
    }
}

impl Default for PackingLayout {
    fn default() -> Self {
        Self::PAPER
    }
}

/// Metadata-region contents for one packed tensor chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChunkMeta {
    /// Off-chip start address of the chunk.
    pub start_addr: u32,
    /// Opaque layer information word (layer index, tensor kind, …) — carried
    /// verbatim; the accelerator model interprets it.
    pub layer_info: u32,
}

/// A tensor serialised to the three-region memory map.
///
/// ```
/// use owlp_format::{Bf16, encode_tensor, PackedTensor};
/// # fn main() -> Result<(), owlp_format::FormatError> {
/// let data: Vec<Bf16> = (0..100).map(|i| Bf16::from_f32(1.0 + i as f32 / 64.0)).collect();
/// let enc = encode_tensor(&data, None)?;
/// let packed = PackedTensor::pack(&enc, Default::default())?;
/// let back = packed.unpack()?;
/// assert_eq!(back.to_bf16_vec(), data);
/// assert!(packed.total_bytes() < 2 * data.len() as u64); // beats raw BF16
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedTensor {
    meta: ChunkMeta,
    shared_exp: u8,
    elements: u32,
    normal_region: Vec<u8>,
    outlier_region: Vec<u8>,
}

impl PackedTensor {
    /// Packs an encoded tensor.
    ///
    /// # Errors
    ///
    /// * [`FormatError::TooManyOutliers`] if any 32-value group holds 32
    ///   outliers (the 5-bit count field encodes 0–31). Real tensors never
    ///   approach this; adversarial ones must choose a different window.
    /// * [`FormatError::OutlierPointerOverflow`] never occurs — pointers
    ///   wrap by design and are validated against the address counter on
    ///   unpack — but the variant is reserved for stricter layouts.
    pub fn pack(tensor: &EncodedTensor, meta: ChunkMeta) -> Result<Self, FormatError> {
        let layout = PackingLayout::PAPER;
        let mut normal = BitWriter::new();
        let mut outlier = BitWriter::new();
        let mut outlier_idx = 0usize; // address counter
        let codes = tensor.codes();
        let exps = tensor.outlier_exps();
        for (g, group) in codes.chunks(layout.group_size).enumerate() {
            let mut group_outliers = 0usize;
            for &code in group {
                normal.write(code.to_bits() as u64, layout.code_bits);
                if code.is_outlier() {
                    group_outliers += 1;
                }
            }
            // Zero-pad the trailing partial group so every group is fixed
            // size; padding codes are normal zeros-significand patterns that
            // the unpacker drops via the element count.
            for _ in group.len()..layout.group_size {
                normal.write(0, layout.code_bits);
            }
            if group_outliers >= 1 << layout.count_bits {
                return Err(FormatError::TooManyOutliers {
                    group: g,
                    count: group_outliers,
                });
            }
            let pointer = (outlier_idx as u64) & ((1u64 << layout.pointer_bits) - 1);
            normal.write(pointer, layout.pointer_bits);
            normal.write(group_outliers as u64, layout.count_bits);
            for _ in 0..group_outliers {
                outlier.write(exps[outlier_idx] as u64, layout.outlier_exp_bits);
                outlier_idx += 1;
            }
        }
        debug_assert_eq!(outlier_idx, exps.len());
        Ok(PackedTensor {
            meta,
            shared_exp: tensor.shared_exp(),
            elements: tensor.len() as u32,
            normal_region: normal.into_bytes(),
            outlier_region: outlier.into_bytes(),
        })
    }

    /// Deserialises back to an [`EncodedTensor`], validating pointers
    /// against the reconstructed address counter.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::UnexpectedEndOfStream`] or
    /// [`FormatError::CorruptStream`] on malformed regions.
    pub fn unpack(&self) -> Result<EncodedTensor, FormatError> {
        // A legal shared exponent must admit a full 7-exponent window.
        if self.shared_exp == 0 || self.shared_exp > 248 {
            return Err(FormatError::CorruptStream {
                reason: "shared exponent outside the legal window range",
            });
        }
        let layout = PackingLayout::PAPER;
        let mut normal = BitReader::new(&self.normal_region);
        let mut outlier = BitReader::new(&self.outlier_region);
        let elements = self.elements as usize;
        let groups = elements.div_ceil(layout.group_size);
        let mut codes = Vec::with_capacity(elements);
        let mut exps = Vec::new();
        let mut outlier_idx = 0usize;
        for g in 0..groups {
            let in_group = (elements - g * layout.group_size).min(layout.group_size);
            let mut group_marked = 0usize;
            for i in 0..layout.group_size {
                let bits = normal.read(layout.code_bits)? as u16;
                if i < in_group {
                    let code = OwlpCode::from_bits(bits);
                    if code.is_outlier() {
                        group_marked += 1;
                    }
                    codes.push(code);
                } else if bits != 0 {
                    return Err(FormatError::CorruptStream {
                        reason: "nonzero padding in trailing partial group",
                    });
                }
            }
            let pointer = normal.read(layout.pointer_bits)?;
            let count = normal.read(layout.count_bits)? as usize;
            if count != group_marked {
                return Err(FormatError::CorruptStream {
                    reason: "group outlier count disagrees with marked codes",
                });
            }
            let expected_ptr = (outlier_idx as u64) & ((1u64 << layout.pointer_bits) - 1);
            if pointer != expected_ptr {
                return Err(FormatError::CorruptStream {
                    reason: "outlier pointer disagrees with address counter",
                });
            }
            for _ in 0..count {
                exps.push(outlier.read(layout.outlier_exp_bits)? as u8);
                outlier_idx += 1;
            }
        }
        EncodedTensor::from_parts(ExponentWindow::owlp(self.shared_exp), codes, exps)
    }

    /// Metadata-region contents.
    pub fn meta(&self) -> ChunkMeta {
        self.meta
    }

    /// The shared exponent stored in the metadata region.
    pub fn shared_exp(&self) -> u8 {
        self.shared_exp
    }

    /// Number of encoded elements.
    pub fn elements(&self) -> usize {
        self.elements as usize
    }

    /// Bytes of the normal data region.
    pub fn normal_region(&self) -> &[u8] {
        &self.normal_region
    }

    /// Bytes of the outlier data region.
    pub fn outlier_region(&self) -> &[u8] {
        &self.outlier_region
    }

    /// Total packed footprint in bytes (all three regions, each
    /// byte-aligned).
    pub fn total_bytes(&self) -> u64 {
        (PackingLayout::PAPER.metadata_bits as u64).div_ceil(8)
            + self.normal_region.len() as u64
            + self.outlier_region.len() as u64
    }

    /// Compression ratio relative to raw BF16 storage (> 1 means smaller).
    pub fn compression_ratio(&self) -> f64 {
        if self.elements == 0 {
            return 1.0;
        }
        PackingLayout::PAPER.bf16_bytes(self.elements as usize) as f64 / self.total_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf16::Bf16;
    use crate::encode::encode_tensor;

    fn bf(x: f32) -> Bf16 {
        Bf16::from_f32(x)
    }

    fn pack_roundtrip(data: &[Bf16]) -> PackedTensor {
        let enc = encode_tensor(data, None).unwrap();
        let packed = PackedTensor::pack(&enc, ChunkMeta::default()).unwrap();
        let back = packed.unpack().unwrap();
        assert_eq!(back.to_bf16_vec(), data);
        packed
    }

    #[test]
    fn roundtrip_exact_multiple_of_group() {
        let data: Vec<Bf16> = (0..96).map(|i| bf(0.5 + i as f32 / 128.0)).collect();
        pack_roundtrip(&data);
    }

    #[test]
    fn roundtrip_partial_trailing_group() {
        let data: Vec<Bf16> = (0..50).map(|i| bf(1.0 + i as f32 / 16.0)).collect();
        pack_roundtrip(&data);
    }

    #[test]
    fn roundtrip_with_outliers_across_groups() {
        let mut data: Vec<Bf16> = (0..128).map(|i| bf(1.0 + i as f32 / 256.0)).collect();
        data[3] = bf(1e30);
        data[33] = bf(-1e-30);
        data[34] = bf(2e25);
        data[127] = bf(1e-35);
        let packed = pack_roundtrip(&data);
        assert!(packed.outlier_region().len() >= 4);
    }

    #[test]
    fn roundtrip_empty_tensor() {
        pack_roundtrip(&[]);
    }

    #[test]
    fn too_many_outliers_in_a_group_is_an_error() {
        // 32 values all far from the forced window → 32 outliers in group 0.
        let w = ExponentWindow::owlp(1);
        let data: Vec<Bf16> = (0..32).map(|_| bf(1.0)).collect();
        let enc = encode_tensor(&data, Some(w)).unwrap();
        let err = PackedTensor::pack(&enc, ChunkMeta::default()).unwrap_err();
        assert_eq!(
            err,
            FormatError::TooManyOutliers {
                group: 0,
                count: 32
            }
        );
    }

    #[test]
    fn thirty_one_outliers_in_a_group_is_fine() {
        let w = ExponentWindow::owlp(1);
        let mut data: Vec<Bf16> = (0..31).map(|_| bf(1.0)).collect();
        data.push(Bf16::from_bits(1 << 7)); // exponent 1, inside window base 1
        let enc = encode_tensor(&data, Some(w)).unwrap();
        assert_eq!(enc.outlier_count(), 31);
        let packed = PackedTensor::pack(&enc, ChunkMeta::default()).unwrap();
        assert_eq!(packed.unpack().unwrap().to_bf16_vec(), data);
    }

    #[test]
    fn corrupt_count_detected() {
        let data: Vec<Bf16> = (0..32).map(|i| bf(1.0 + i as f32 / 64.0)).collect();
        let enc = encode_tensor(&data, None).unwrap();
        let mut packed = PackedTensor::pack(&enc, ChunkMeta::default()).unwrap();
        // The count field is the last 5 bits of the group record: bits
        // 32*11+11 .. 32*11+16. Flip one.
        let bit = 32 * 11 + 11;
        packed.normal_region[bit / 8] ^= 1 << (bit % 8);
        assert!(matches!(
            packed.unpack(),
            Err(FormatError::CorruptStream { .. })
        ));
    }

    #[test]
    fn truncated_outlier_region_detected() {
        let mut data: Vec<Bf16> = (0..32).map(|i| bf(1.0 + i as f32 / 64.0)).collect();
        data[0] = bf(1e30);
        let enc = encode_tensor(&data, None).unwrap();
        let mut packed = PackedTensor::pack(&enc, ChunkMeta::default()).unwrap();
        packed.outlier_region.clear();
        assert!(matches!(
            packed.unpack(),
            Err(FormatError::UnexpectedEndOfStream { .. })
        ));
    }

    /// `PackedTensor` deserialises from outside, so `unpack` must survive
    /// any region contents: every single-bit flip of the normal and
    /// outlier regions either decodes to a full-length tensor or returns
    /// a typed error, and never panics.
    #[test]
    fn single_bitflips_fail_cleanly() {
        let mut data: Vec<Bf16> = (0..77).map(|i| bf(1.0 + i as f32 / 64.0)).collect();
        data[5] = bf(1e30);
        data[40] = bf(-0.0);
        data[70] = bf(-3e-25);
        let enc = encode_tensor(&data, None).unwrap();
        assert_eq!(enc.outlier_count(), 3);
        let packed = PackedTensor::pack(&enc, ChunkMeta::default()).unwrap();
        let (mut clean, mut rejected) = (0usize, 0usize);
        for outlier_side in [false, true] {
            let region_bits = 8 * if outlier_side {
                packed.outlier_region.len()
            } else {
                packed.normal_region.len()
            };
            for bit in 0..region_bits {
                let mut flipped = packed.clone();
                let region = if outlier_side {
                    &mut flipped.outlier_region
                } else {
                    &mut flipped.normal_region
                };
                region[bit / 8] ^= 1 << (bit % 8);
                match std::panic::catch_unwind(|| flipped.unpack()) {
                    Ok(Ok(back)) => {
                        assert_eq!(back.len(), data.len(), "bit {bit}: wrong length");
                        clean += 1;
                    }
                    Ok(Err(_)) => rejected += 1,
                    Err(_) => panic!("unpack panicked (outlier region: {outlier_side}, bit {bit})"),
                }
            }
        }
        assert!(
            clean > 0 && rejected > 0,
            "{clean} clean, {rejected} rejected"
        );
    }

    #[test]
    fn footprint_matches_layout_formula() {
        let mut data: Vec<Bf16> = (0..100).map(|i| bf(1.0 + i as f32 / 64.0)).collect();
        data[10] = bf(1e30);
        data[90] = bf(1e-30);
        let enc = encode_tensor(&data, None).unwrap();
        let packed = PackedTensor::pack(&enc, ChunkMeta::default()).unwrap();
        let layout = PackingLayout::PAPER;
        assert_eq!(
            packed.total_bytes(),
            layout.packed_bytes(100, enc.outlier_count())
        );
    }

    #[test]
    fn compression_beats_bf16_for_typical_tensors() {
        let data: Vec<Bf16> = (0..4096)
            .map(|i| bf(1.0 + (i % 97) as f32 / 128.0))
            .collect();
        let packed = pack_roundtrip(&data);
        // 11 bits + 16/32 bits overhead per value ≈ 11.5 bits vs 16 bits.
        assert!(
            packed.compression_ratio() > 1.3,
            "{}",
            packed.compression_ratio()
        );
    }

    #[test]
    fn pointer_wraps_past_2048_outliers() {
        // > 2^11 outliers to exercise pointer wrap-around validation.
        let w = ExponentWindow::owlp(1);
        let mut data = Vec::new();
        for g in 0..150 {
            for i in 0..32 {
                if i < 30 {
                    // exponent 200 → outlier under window base 1
                    data.push(Bf16::from_bits((200u16 << 7) | ((g + i) as u16 % 128)));
                } else {
                    data.push(Bf16::from_bits(1 << 7)); // normal
                }
            }
        }
        let enc = encode_tensor(&data, Some(w)).unwrap();
        assert!(enc.outlier_count() > 4000);
        let packed = PackedTensor::pack(&enc, ChunkMeta::default()).unwrap();
        assert_eq!(packed.unpack().unwrap().to_bf16_vec(), data);
    }
}
