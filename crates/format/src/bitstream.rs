//! Bit-granular serialisation primitives.
//!
//! The OwL-P memory map packs 11-bit codes, 5-bit counts and 11-bit pointers
//! back-to-back (paper Fig. 5); [`BitWriter`]/[`BitReader`] provide the
//! LSB-first bit packing the [`crate::chunk`] module builds on.

use crate::error::FormatError;

/// Appends arbitrary-width fields to a growing byte buffer, LSB-first within
/// each byte.
///
/// ```
/// use owlp_format::bitstream::{BitReader, BitWriter};
/// # fn main() -> Result<(), owlp_format::FormatError> {
/// let mut w = BitWriter::new();
/// w.write(0b101, 3);
/// w.write(0x7FF, 11);
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read(3)?, 0b101);
/// assert_eq!(r.read(11)?, 0x7FF);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in the final byte (0 means byte-aligned).
    partial_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `width` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` has bits set above `width`.
    pub fn write(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} exceeds 64 bits");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value:#x} does not fit in {width} bits"
        );
        let mut remaining = width;
        let mut v = value;
        while remaining > 0 {
            if self.partial_bits == 0 {
                self.bytes.push(0);
            }
            let free = 8 - self.partial_bits;
            let take = free.min(remaining);
            let byte = self.bytes.last_mut().expect("byte pushed above");
            *byte |= ((v & ((1u64 << take) - 1)) as u8) << self.partial_bits;
            v >>= take;
            self.partial_bits = (self.partial_bits + take) % 8;
            remaining -= take;
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.partial_bits == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.partial_bits as usize
        }
    }

    /// Pads to a byte boundary with zero bits.
    pub fn align_to_byte(&mut self) {
        self.partial_bits = 0;
    }

    /// Finishes writing and returns the backing bytes (final byte
    /// zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads arbitrary-width fields from a byte slice, LSB-first within each
/// byte — the inverse of [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    bit_pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, bit_pos: 0 }
    }

    /// Current bit offset.
    pub fn bit_pos(&self) -> usize {
        self.bit_pos
    }

    /// Reads the next `width` bits.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::UnexpectedEndOfStream`] if fewer than `width`
    /// bits remain.
    pub fn read(&mut self, width: u32) -> Result<u64, FormatError> {
        assert!(width <= 64, "width {width} exceeds 64 bits");
        if self.bit_pos + width as usize > self.bytes.len() * 8 {
            return Err(FormatError::UnexpectedEndOfStream {
                bit_offset: self.bit_pos,
            });
        }
        let mut out = 0u64;
        let mut got = 0u32;
        while got < width {
            let byte = self.bytes[self.bit_pos / 8];
            let offset = (self.bit_pos % 8) as u32;
            let avail = 8 - offset;
            let take = avail.min(width - got);
            let chunk = ((byte >> offset) as u64) & ((1u64 << take) - 1);
            out |= chunk << got;
            got += take;
            self.bit_pos += take as usize;
        }
        Ok(out)
    }

    /// Skips to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        self.bit_pos = self.bit_pos.div_ceil(8) * 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let fields: Vec<(u64, u32)> = vec![
            (0b1, 1),
            (0x5A5, 11),
            (31, 5),
            (0, 3),
            (0xDEADBEEF, 32),
            (u64::MAX, 64),
            (0x7F, 7),
        ];
        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            w.write(v, n);
        }
        let total: usize = fields.iter().map(|&(_, n)| n as usize).sum();
        assert_eq!(w.bit_len(), total);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read(n).unwrap(), v, "field of width {n}");
        }
    }

    #[test]
    fn read_past_end_errors() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read(8).unwrap(), 0xFF);
        let err = r.read(1).unwrap_err();
        assert_eq!(err, FormatError::UnexpectedEndOfStream { bit_offset: 8 });
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut w = BitWriter::new();
        w.write(8, 3);
    }

    #[test]
    fn byte_alignment() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.align_to_byte();
        w.write(0xAB, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3).unwrap(), 0b101);
        r.align_to_byte();
        assert_eq!(r.read(8).unwrap(), 0xAB);
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.write(0x3, 2);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.write(0, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn many_11_bit_codes_roundtrip() {
        // The exact shape the normal data region uses.
        let codes: Vec<u64> = (0..512).map(|i| (i * 37) % 2048).collect();
        let mut w = BitWriter::new();
        for &c in &codes {
            w.write(c, 11);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), (512usize * 11).div_ceil(8));
        let mut r = BitReader::new(&bytes);
        for &c in &codes {
            assert_eq!(r.read(11).unwrap(), c);
        }
    }
}
