//! CRC32C (Castagnoli, polynomial `0x1EDC6F41`) over byte streams.
//!
//! Two implementations of the same reflected recurrence: a software
//! slicing-by-16 table walk — the reference a hardware CRC unit would be
//! checked against — and the SSE4.2 `crc32` instruction, picked at run
//! time when the CPU has it. Castagnoli is chosen over CRC32 (Ethernet)
//! for its better Hamming distance at the plane sizes the packed format
//! produces, and because it is the polynomial the x86 instruction bakes
//! in.
//!
//! Slicing-by-16 folds sixteen input bytes per step through shifted
//! tables, cutting the byte-serial dependency chain sixteen-fold; the
//! digest layer verifies ~5 bytes of plane data per packed element on
//! every load boundary, so this is the throughput term of the integrity
//! overhead budget. All tables are built at compile time from the same
//! bit-serial recurrence, and every word-plane view — on either engine —
//! feeds the identical little-endian byte stream as the byte-serial path
//! (checked in the tests below).
//!
//! This module lives in `owlp-format` (rather than `owlp-integrity`,
//! which re-exports it) because the on-disk archive ([`crate::archive2`])
//! seals the same digests into its index at pack time: the format layer
//! is the producer, the integrity layer the runtime verifier.

/// Elements per `sval` digest tile. 256 `i16` words = 512 bytes — the
/// burst granule the memory model uses, and small enough that an in-place
/// [`crate::PackedOperands::rebuild_sval_range`] repair is cheap. The
/// archive's per-tile CRC tables and `owlp-integrity`'s in-memory
/// `OperandDigests`/`PanelDigests` share this granule, so a table sealed
/// on disk verifies the mapped planes unchanged.
pub const SVAL_TILE: usize = 256;

/// Reflected slicing tables for the Castagnoli polynomial: `TABLES[0]` is
/// the classic byte-at-a-time table, and `TABLES[j][b]` is the CRC state
/// contribution of byte `b` followed by `j` zero bytes.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0x82F6_3B78 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// One byte-serial CRC step.
#[inline]
fn step1(c: u32, b: u8) -> u32 {
    TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// One slicing-by-8 step over eight little-endian input bytes.
#[inline]
fn step8(c: u32, w: u64) -> u32 {
    let x = w ^ u64::from(c);
    TABLES[7][(x & 0xFF) as usize]
        ^ TABLES[6][((x >> 8) & 0xFF) as usize]
        ^ TABLES[5][((x >> 16) & 0xFF) as usize]
        ^ TABLES[4][((x >> 24) & 0xFF) as usize]
        ^ TABLES[3][((x >> 32) & 0xFF) as usize]
        ^ TABLES[2][((x >> 40) & 0xFF) as usize]
        ^ TABLES[1][((x >> 48) & 0xFF) as usize]
        ^ TABLES[0][((x >> 56) & 0xFF) as usize]
}

/// One slicing-by-16 step: the running state folds into the first eight
/// bytes only, so the two halves' table lookups are independent and the
/// serial chain advances sixteen bytes per latency round-trip.
#[inline]
fn step16(c: u32, lo: u64, hi: u64) -> u32 {
    let x = lo ^ u64::from(c);
    TABLES[15][(x & 0xFF) as usize]
        ^ TABLES[14][((x >> 8) & 0xFF) as usize]
        ^ TABLES[13][((x >> 16) & 0xFF) as usize]
        ^ TABLES[12][((x >> 24) & 0xFF) as usize]
        ^ TABLES[11][((x >> 32) & 0xFF) as usize]
        ^ TABLES[10][((x >> 40) & 0xFF) as usize]
        ^ TABLES[9][((x >> 48) & 0xFF) as usize]
        ^ TABLES[8][((x >> 56) & 0xFF) as usize]
        ^ TABLES[7][(hi & 0xFF) as usize]
        ^ TABLES[6][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[5][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[4][((hi >> 24) & 0xFF) as usize]
        ^ TABLES[3][((hi >> 32) & 0xFF) as usize]
        ^ TABLES[2][((hi >> 40) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 48) & 0xFF) as usize]
        ^ TABLES[0][((hi >> 56) & 0xFF) as usize]
}

/// CRC32C of a byte stream (standard init `!0`, final complement) —
/// byte-serial; the generic entry point for iterator sources. Prefer
/// [`crc32c_bytes`] and the word-plane views for in-memory data.
pub fn crc32c(bytes: impl IntoIterator<Item = u8>) -> u32 {
    let mut c = !0u32;
    for b in bytes {
        c = step1(c, b);
    }
    !c
}

/// The SSE4.2 engine: the `crc32` instruction advances the same reflected
/// Castagnoli state eight bytes per µop, an order of magnitude past the
/// table walk. Each function mirrors its software twin's chunking exactly,
/// so both consume the identical byte stream.
#[cfg(target_arch = "x86_64")]
mod hw {
    use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    use super::{lane_i16, lane_u16};

    /// Whether the running CPU has SSE4.2 (cached by std after first use).
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("sse4.2")
    }

    /// Raw-state byte update (no init/complement) — the streaming core
    /// shared by [`bytes`] and the incremental hasher.
    ///
    /// # Safety
    /// Requires SSE4.2 (gate on [`available`]).
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn bytes_raw(state: u32, bytes: &[u8]) -> u32 {
        let mut c = u64::from(state);
        let mut chunks = bytes.chunks_exact(8);
        for ch in chunks.by_ref() {
            c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().expect("chunk of 8")));
        }
        let mut c = c as u32;
        for &b in chunks.remainder() {
            c = _mm_crc32_u8(c, b);
        }
        c
    }

    /// # Safety
    /// Requires SSE4.2 (gate on [`available`]).
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn bytes(bytes: &[u8]) -> u32 {
        !bytes_raw(!0, bytes)
    }

    /// # Safety
    /// Requires SSE4.2 (gate on [`available`]).
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn words_u16(words: &[u16]) -> u32 {
        let mut c = !0u64;
        let mut chunks = words.chunks_exact(4);
        for ch in chunks.by_ref() {
            c = _mm_crc32_u64(c, lane_u16(ch));
        }
        let mut c = c as u32;
        for &word in chunks.remainder() {
            for b in word.to_le_bytes() {
                c = _mm_crc32_u8(c, b);
            }
        }
        !c
    }

    /// # Safety
    /// Requires SSE4.2 (gate on [`available`]).
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn words_i16(words: &[i16]) -> u32 {
        let mut c = !0u64;
        let mut chunks = words.chunks_exact(4);
        for ch in chunks.by_ref() {
            c = _mm_crc32_u64(c, lane_i16(ch));
        }
        let mut c = c as u32;
        for &word in chunks.remainder() {
            for b in word.to_le_bytes() {
                c = _mm_crc32_u8(c, b);
            }
        }
        !c
    }

    /// # Safety
    /// Requires SSE4.2 (gate on [`available`]).
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn words_u32(words: &[u32]) -> u32 {
        let mut c = !0u64;
        let mut chunks = words.chunks_exact(2);
        for ch in chunks.by_ref() {
            c = _mm_crc32_u64(c, u64::from(ch[0]) | u64::from(ch[1]) << 32);
        }
        let mut c = c as u32;
        for &word in chunks.remainder() {
            for b in word.to_le_bytes() {
                c = _mm_crc32_u8(c, b);
            }
        }
        !c
    }
}

/// Packs four little-endian 16-bit words into the u64 lane `step16` eats.
#[inline]
fn lane_u16(w: &[u16]) -> u64 {
    u64::from(w[0]) | u64::from(w[1]) << 16 | u64::from(w[2]) << 32 | u64::from(w[3]) << 48
}

/// CRC32C of a byte slice, sixteen bytes per table step (or eight per
/// instruction on SSE4.2).
pub fn crc32c_bytes(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if hw::available() {
        // SAFETY: guarded by the SSE4.2 runtime check.
        return unsafe { hw::bytes(bytes) };
    }
    sw_bytes(bytes)
}

/// The table-walk engine behind [`crc32c_bytes`].
fn sw_bytes(bytes: &[u8]) -> u32 {
    !sw_bytes_raw(!0, bytes)
}

/// Raw-state table walk (no init/complement) — the streaming core shared
/// by [`sw_bytes`] and the incremental hasher.
fn sw_bytes_raw(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    let mut chunks = bytes.chunks_exact(16);
    for ch in chunks.by_ref() {
        let lo = u64::from_le_bytes(ch[..8].try_into().expect("chunk of 8"));
        let hi = u64::from_le_bytes(ch[8..].try_into().expect("chunk of 8"));
        c = step16(c, lo, hi);
    }
    let mut rest = chunks.remainder().chunks_exact(8);
    for ch in rest.by_ref() {
        c = step8(c, u64::from_le_bytes(ch.try_into().expect("chunk of 8")));
    }
    for &b in rest.remainder() {
        c = step1(c, b);
    }
    c
}

/// Incremental CRC32C over a byte stream fed in arbitrary splits.
///
/// `Crc32cHasher::new().update(a).update(b).finalize()` equals
/// `crc32c_bytes(a ++ b)` for every split point, so a stream can be
/// digested without ever holding all of it.
#[derive(Debug, Clone)]
pub struct Crc32cHasher {
    state: u32,
}

impl Default for Crc32cHasher {
    fn default() -> Self {
        Crc32cHasher::new()
    }
}

impl Crc32cHasher {
    /// A fresh hasher (standard init).
    pub fn new() -> Self {
        Crc32cHasher { state: !0 }
    }

    /// Feeds `bytes` into the running digest.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        #[cfg(target_arch = "x86_64")]
        if hw::available() {
            // SAFETY: guarded by the SSE4.2 runtime check.
            self.state = unsafe { hw::bytes_raw(self.state, bytes) };
            return self;
        }
        self.state = sw_bytes_raw(self.state, bytes);
        self
    }

    /// The digest of everything fed so far (the hasher stays usable).
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// CRC32C of a `u16` word plane (little-endian byte order).
pub fn crc32c_u16(words: &[u16]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if hw::available() {
        // SAFETY: guarded by the SSE4.2 runtime check.
        return unsafe { hw::words_u16(words) };
    }
    sw_u16(words)
}

/// The table-walk engine behind [`crc32c_u16`].
fn sw_u16(words: &[u16]) -> u32 {
    let mut c = !0u32;
    let mut chunks = words.chunks_exact(8);
    for ch in chunks.by_ref() {
        c = step16(c, lane_u16(&ch[..4]), lane_u16(&ch[4..]));
    }
    let mut rest = chunks.remainder().chunks_exact(4);
    for ch in rest.by_ref() {
        c = step8(c, lane_u16(ch));
    }
    for &word in rest.remainder() {
        for b in word.to_le_bytes() {
            c = step1(c, b);
        }
    }
    !c
}

/// Packs four little-endian 16-bit words into the u64 lane `step16` eats.
#[inline]
fn lane_i16(w: &[i16]) -> u64 {
    u64::from(w[0] as u16)
        | u64::from(w[1] as u16) << 16
        | u64::from(w[2] as u16) << 32
        | u64::from(w[3] as u16) << 48
}

/// CRC32C of an `i16` word plane (little-endian byte order).
pub fn crc32c_i16(words: &[i16]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if hw::available() {
        // SAFETY: guarded by the SSE4.2 runtime check.
        return unsafe { hw::words_i16(words) };
    }
    sw_i16(words)
}

/// The table-walk engine behind [`crc32c_i16`].
fn sw_i16(words: &[i16]) -> u32 {
    let mut c = !0u32;
    let mut chunks = words.chunks_exact(8);
    for ch in chunks.by_ref() {
        c = step16(c, lane_i16(&ch[..4]), lane_i16(&ch[4..]));
    }
    for &word in chunks.remainder() {
        for b in word.to_le_bytes() {
            c = step1(c, b);
        }
    }
    !c
}

/// CRC32C of a `u32` word plane (little-endian byte order).
pub fn crc32c_u32(words: &[u32]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if hw::available() {
        // SAFETY: guarded by the SSE4.2 runtime check.
        return unsafe { hw::words_u32(words) };
    }
    sw_u32(words)
}

/// The table-walk engine behind [`crc32c_u32`].
fn sw_u32(words: &[u32]) -> u32 {
    let mut c = !0u32;
    let mut chunks = words.chunks_exact(4);
    for ch in chunks.by_ref() {
        c = step16(
            c,
            u64::from(ch[0]) | u64::from(ch[1]) << 32,
            u64::from(ch[2]) | u64::from(ch[3]) << 32,
        );
    }
    let mut rest = chunks.remainder().chunks_exact(2);
    for ch in rest.by_ref() {
        c = step8(c, u64::from(ch[0]) | u64::from(ch[1]) << 32);
    }
    for &word in rest.remainder() {
        for b in word.to_le_bytes() {
            c = step1(c, b);
        }
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_check_value() {
        // The canonical CRC32C check: crc("123456789") == 0xE3069283.
        assert_eq!(crc32c(b"123456789".iter().copied()), 0xE306_9283);
        assert_eq!(crc32c_bytes(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_stream_digests_to_zero() {
        assert_eq!(crc32c(std::iter::empty()), 0);
        assert_eq!(crc32c_bytes(&[]), 0);
    }

    #[test]
    fn both_engines_match_the_byte_serial_path_at_every_length() {
        // Every residue class mod 8 exercises a different tail split; the
        // public entry dispatches to the instruction when the CPU has it,
        // so checking it *and* the table walk pins both engines.
        let base: Vec<u8> = (0..61u8).map(|i| i.wrapping_mul(167) ^ 0x5A).collect();
        for len in 0..base.len() {
            let serial = crc32c(base[..len].iter().copied());
            assert_eq!(crc32c_bytes(&base[..len]), serial, "length {len}");
            assert_eq!(sw_bytes(&base[..len]), serial, "length {len} (tables)");
        }
    }

    #[test]
    fn single_bit_flips_are_never_silent() {
        let base: Vec<u8> = (0..64u8).collect();
        let clean = crc32c_bytes(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut struck = base.clone();
                struck[byte] ^= 1 << bit;
                assert_ne!(crc32c_bytes(&struck), clean);
            }
        }
    }

    #[test]
    fn word_views_match_the_byte_stream() {
        // 37 words: the chunked paths must agree with the byte stream on a
        // non-multiple-of-4 length (and 2 for the u32 view).
        let words: Vec<u16> = (0..37u16).map(|i| i.wrapping_mul(40503) ^ i).collect();
        let via_bytes = crc32c(words.iter().flat_map(|w| w.to_le_bytes()));
        assert_eq!(crc32c_u16(&words), via_bytes);
        assert_eq!(sw_u16(&words), via_bytes);
        let iwords: Vec<i16> = words.iter().map(|&w| w as i16).collect();
        assert_eq!(crc32c_i16(&iwords), via_bytes);
        assert_eq!(sw_i16(&iwords), via_bytes);
        let dwords: Vec<u32> = (0..9u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let dvia_bytes = crc32c(dwords.iter().flat_map(|w| w.to_le_bytes()));
        assert_eq!(crc32c_u32(&dwords), dvia_bytes);
        assert_eq!(sw_u32(&dwords), dvia_bytes);
    }

    #[test]
    fn incremental_hasher_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..97u8).map(|i| i.wrapping_mul(31) ^ 0xC3).collect();
        let whole = crc32c_bytes(&data);
        for split in 0..=data.len() {
            let mut h = Crc32cHasher::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split {split}");
        }
        // Three-way split through the word-plane byte streams too.
        let words: Vec<i16> = (0..300i16).map(|i| i.wrapping_mul(2029)).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut h = Crc32cHasher::new();
        h.update(&bytes[..11])
            .update(&bytes[11..500])
            .update(&bytes[500..]);
        assert_eq!(h.finalize(), crc32c_i16(&words));
    }
}
