//! # owlp-format
//!
//! Bit-accurate model of the **OwL-P number format** from *"Integer Unit-Based
//! Outlier-Aware LLM Accelerator Preserving Numerical Accuracy of FP-FP GEMM"*
//! (DATE 2025), together with the lossless compression pipeline built on it:
//!
//! * [`Bf16`] — a software [bfloat16] type with exact field access, the input
//!   format of the accelerator (paper Fig. 2a, Eq. 1).
//! * [`ExponentWindow`] / [`select_window`] — shared-exponent selection: the
//!   densest run of seven consecutive exponents in a tensor (paper §II-B).
//! * [`OwlpCode`] — the 11-bit compressed code `{sign, 3-bit bias, 7-bit
//!   fraction}` with `bias == 0b111` reserved as the outlier indicator
//!   (paper Fig. 2b, Eq. 2).
//! * [`encode_tensor`] / [`BiasDecoder`] — the tensor encoder and the bias
//!   decoding scheme of paper Algorithm 1 (pre-aligned integers, shift bit,
//!   outlier tag).
//! * [`chunk`] — the off-chip memory map of paper Fig. 5 (metadata region,
//!   32-value normal chunks with outlier pointer and count, outlier region),
//!   down to the bit level via [`bitstream`].
//! * [`stats`] — exponent histograms and normal-value-ratio measurement
//!   (paper Fig. 1 and Table II).
//!
//! The defining property, verified by the test-suite: encoding is **lossless**
//! for every finite BF16 value. `decode(encode(x)) == x` bit-for-bit, which is
//! what lets the integer datapath of `owlp-arith` preserve the numerical
//! accuracy of FP-FP GEMM.
//!
//! ```
//! use owlp_format::{Bf16, encode_tensor};
//!
//! # fn main() -> Result<(), owlp_format::FormatError> {
//! let data: Vec<Bf16> = [1.5f32, -0.375, 2048.0, 0.004]
//!     .iter().map(|&x| Bf16::from_f32(x)).collect();
//! let encoded = encode_tensor(&data, None)?;
//! let decoded = encoded.to_bf16_vec();
//! assert_eq!(data, decoded); // lossless
//! # Ok(())
//! # }
//! ```
//!
//! [bfloat16]: https://en.wikipedia.org/wiki/Bfloat16_floating-point_format

pub mod aligned;
pub mod archive2;
pub mod bands;
pub mod bf16;
pub mod bitstream;
pub mod blocking;
pub mod chunk;
mod codec_simd;
pub mod crc;
pub mod decode;
pub mod encode;
pub mod error;
pub mod mmap;
pub mod packed;
pub mod plane;
pub mod shared_exp;
pub mod simd;
pub mod stats;
pub mod stream;
pub mod value;

pub use archive2::{
    ArchiveError, ArchiveSummary, ArchiveWriter, MappedArchive, MappedTensor, VerifyReport,
};
pub use bands::OutlierBands;
pub use bf16::Bf16;
pub use blocking::{block_geometry, cache_info, BlockGeometry, CacheInfo};
pub use chunk::{PackedTensor, PackingLayout};
pub use decode::{BiasDecoder, DecodedOperand};
pub use encode::{encode_tensor, encode_tensor_into, EncodedTensor};
pub use error::FormatError;
pub use mmap::MappedFile;
pub use packed::{PackedOperands, PackedPanels, PackedPlane};
pub use plane::{Plane, SvalPlane};
pub use shared_exp::{select_window, select_window_of_width, ExponentWindow};
pub use stats::ExponentHistogram;
pub use stream::{encode_stream, EncodedStream, StreamingEncoder};
pub use value::{EncodedValue, OwlpCode};

/// Number of usable bias values for normal data: biases `0..=6`; the eighth
/// pattern (`0b111`) marks an outlier (paper §III-A).
pub const NORMAL_WINDOW_WIDTH: u8 = 7;

/// Bit pattern in the bias field that flags an outlier (paper Eq. 2).
pub const OUTLIER_BIAS_MARKER: u8 = 0b111;

/// Width in bits of one packed OwL-P code (`1 + 3 + 7`).
pub const CODE_BITS: u32 = 11;

/// Values per normal-region group in the off-chip memory map (paper Fig. 5).
pub const GROUP_SIZE: usize = 32;
