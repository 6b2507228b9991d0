//! Struct-of-arrays decoded operands (`PackedOperands`) and the
//! register-tile weight panels (`PackedPanels`) built from them.
//!
//! The GEMM inner loops of `owlp-arith` stream every operand of a tensor
//! once per output column; loading 8-byte [`DecodedOperand`] structs wastes
//! bandwidth on the rarely-consulted outlier exponent and keeps the
//! magnitude and flag fields apart. [`PackedOperands`] mirrors the paper's
//! storage format instead (Fig. 5): a contiguous `mag` plane, a contiguous
//! one-byte `sh/sign/tag` plane, and the outlier exponents side-tabled by
//! element position — so the all-normal fast path touches exactly two flat
//! arrays and the outlier table is consulted only for tagged operands.
//!
//! On top of those planes sits a third, *fully folded* plane: `sval[i]`
//! is the signed magnitude with the operand's own `{0,4}`-bit `sh`
//! pre-shift already applied, `±(mag << 4·sh)`. A normal magnitude is
//! ≤ 11 bits and the folded shift adds at most 4, so `|sval| ≤ 32752`
//! always fits an `i16` — and a product of two svals is exact in `i32`
//! (the paper's `{0,4,8}` post-multiply shifter becomes a no-op). That
//! turns the GEMM inner loop into a plain `i16×i16→i32` multiply-add,
//! the shape autovectorizers map onto packed integer FMA lanes.

use crate::aligned::AlignedVec;
use crate::bands::OutlierBands;
use crate::bf16::Bf16;
use crate::decode::{BiasDecoder, DecodedOperand};
use crate::encode::EncodedTensor;
use crate::error::FormatError;
use crate::plane::{Plane, SvalPlane};
use std::ops::Range;
use std::sync::OnceLock;

/// Meta-plane bit: operand sign.
pub const META_SIGN: u8 = 1 << 0;
/// Meta-plane bit: pending `{0,4}`-bit PE shift (`sh`).
pub const META_SH: u8 = 1 << 1;
/// Meta-plane bit: outlier tag.
pub const META_TAG: u8 = 1 << 2;
/// Meta-plane bit: side-band parity over `{sh, tag, exp}` —
/// `sh ⊕ tag ⊕ popcount(exp)`, stored at pack time so a single upset on
/// any side-band wire (shift, tag, or an outlier-exponent bit) is
/// detectable without re-decoding. The sign bit is deliberately *not*
/// covered: a sign flip is a data-plane fault (it corrupts `sval`) and is
/// the plane checksums' job.
pub const META_PAR: u8 = 1 << 3;

/// The planes of a packed tensor, addressable for sanctioned fault
/// injection ([`PackedOperands::flip_bit`]) and integrity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PackedPlane {
    /// The `mag` plane (`u16` words).
    Mag,
    /// The `meta` plane (`u8` words: sign/sh/tag/parity).
    Meta,
    /// The folded-significand `sval` plane (`i16` words).
    Sval,
    /// The sorted outlier-position side table (`u32` words).
    OutlierPos,
    /// The outlier-exponent side table (`u8` words).
    OutlierExp,
}

/// Output columns per weight panel — the NR of the `owlp-arith`
/// register-tiled microkernel (which re-exports it as its own `NR`).
pub const PANEL_NR: usize = 4;

/// Panel depths are zero-padded to this multiple: 8 depths × [`PANEL_NR`]
/// columns × 2 bytes = one 64-byte stride, so every panel of an
/// [`AlignedVec`]-backed store starts cache-line aligned and the SIMD
/// microkernel's 4-depth quad loads tile it evenly.
pub const PANEL_K_PAD: usize = 8;

/// A tensor's decoded operands in struct-of-arrays form.
///
/// Semantically identical to `Vec<DecodedOperand>` (see
/// [`PackedOperands::get`]), but laid out as flat planes:
///
/// * `mag[i]` — the pre-aligned integer significand (≤ 11 bits);
/// * `meta[i]` — sign/sh/tag/parity packed into one byte ([`META_SIGN`]
///   etc.; [`META_PAR`] guards the `{sh, tag, exp}` side-band);
/// * `sval[i]` — the sign- and `sh`-folded significand `±(mag << 4·sh)`
///   (see the module docs; always fits an `i16`);
/// * tagged outliers' original exponents in a sorted `(position, exp)`
///   side table, looked up only when `meta[i] & META_TAG` is set.
///
/// Every plane is a [`Plane`]/[`SvalPlane`] — **owned** heap storage on
/// the in-memory decode paths, or a **mapped** zero-copy view when the
/// tensor was loaded from an [`crate::archive2::MappedArchive`]. Reads
/// are identical either way; the sanctioned mutators copy-on-write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedOperands {
    shared_exp: u8,
    /// Outlier entries in the *encoded* tensor, including stored zeros
    /// (which decode untagged) — what `EncodedTensor::outlier_count`
    /// reports and the bandwidth model prices. Carried here so a tensor
    /// loaded from the archive needs no encoded copy.
    stored_outliers: usize,
    mag: Plane<u16>,
    meta: Plane<u8>,
    /// 32-byte-aligned so the SIMD microkernel's full-width loads never
    /// straddle cache lines ([`crate::aligned`]; mapped views validate
    /// the same alignment at load).
    sval: SvalPlane,
    /// Element positions of tagged outliers, strictly increasing.
    outlier_pos: Plane<u32>,
    /// `outlier_exp[k]` belongs to element `outlier_pos[k]`.
    outlier_exp: Plane<u8>,
}

impl Default for PackedOperands {
    /// An empty operand set (shared exponent 0) — the state a reusable
    /// decode buffer starts in before [`EncodedTensor::decode_packed_into`]
    /// fills it.
    fn default() -> Self {
        PackedOperands::new(0)
    }
}

impl PackedOperands {
    /// An empty operand set for `shared_exp` (filled by the decode path).
    pub fn new(shared_exp: u8) -> Self {
        PackedOperands {
            shared_exp,
            stored_outliers: 0,
            mag: Plane::default(),
            meta: Plane::default(),
            sval: SvalPlane::default(),
            outlier_pos: Plane::default(),
            outlier_exp: Plane::default(),
        }
    }

    /// Packs an operand slice (the inverse of [`PackedOperands::get`]).
    pub fn from_operands(shared_exp: u8, ops: &[DecodedOperand]) -> Self {
        assert!(ops.len() <= u32::MAX as usize, "tensor too large to pack");
        let mut p = PackedOperands::new(shared_exp);
        let mag = p.mag.owned_vec();
        mag.reserve(ops.len());
        let meta = p.meta.owned_vec();
        meta.reserve(ops.len());
        let sval = p.sval.owned_vec();
        sval.reserve(ops.len());
        let pos = p.outlier_pos.owned_vec();
        let exps = p.outlier_exp.owned_vec();
        let mut stored = 0usize;
        for (i, op) in ops.iter().enumerate() {
            mag.push(op.mag);
            meta.push(pack_meta(op.sign, op.sh, op.tag, op.exp));
            sval.push(sval_of(op.mag, op.sh, op.sign));
            if op.tag {
                pos.push(i as u32);
                exps.push(op.exp);
            }
            // Tagged entries and stored zeros both occupied an outlier
            // slot in the encoded stream.
            stored += (op.tag || op.mag == 0) as usize;
        }
        p.stored_outliers = stored;
        p
    }

    /// Rebuilds a packed tensor from externally supplied planes — the
    /// zero-copy archive load path ([`crate::archive2`]). The planes may
    /// be owned or mapped; their mutual consistency is validated here
    /// (their *content* integrity is the archive digests' job).
    ///
    /// # Errors
    ///
    /// [`FormatError::CorruptStream`] when plane lengths disagree, the
    /// side tables mismatch, outlier positions are unsorted or out of
    /// range, or `stored_outliers` undercounts the tagged entries.
    pub fn from_planes(
        shared_exp: u8,
        stored_outliers: usize,
        mag: Plane<u16>,
        meta: Plane<u8>,
        sval: SvalPlane,
        outlier_pos: Plane<u32>,
        outlier_exp: Plane<u8>,
    ) -> Result<Self, FormatError> {
        let n = mag.len();
        if n > u32::MAX as usize {
            return Err(FormatError::CorruptStream {
                reason: "packed tensor too large",
            });
        }
        if meta.len() != n || sval.len() != n {
            return Err(FormatError::CorruptStream {
                reason: "packed element planes disagree in length",
            });
        }
        if outlier_pos.len() != outlier_exp.len() {
            return Err(FormatError::CorruptStream {
                reason: "outlier side tables disagree in length",
            });
        }
        if stored_outliers < outlier_pos.len() {
            return Err(FormatError::CorruptStream {
                reason: "stored outlier count below tagged count",
            });
        }
        let pos = outlier_pos.as_slice();
        if !pos.windows(2).all(|w| w[0] < w[1]) {
            return Err(FormatError::CorruptStream {
                reason: "outlier positions not strictly increasing",
            });
        }
        if pos.last().is_some_and(|&p| p as usize >= n) {
            return Err(FormatError::CorruptStream {
                reason: "outlier position out of range",
            });
        }
        Ok(PackedOperands {
            shared_exp,
            stored_outliers,
            mag,
            meta,
            sval,
            outlier_pos,
            outlier_exp,
        })
    }

    /// Empties every plane while keeping the allocations, ready for refill.
    fn reset(&mut self, shared_exp: u8) {
        self.shared_exp = shared_exp;
        self.stored_outliers = 0;
        self.mag.clear();
        self.meta.clear();
        self.sval.clear();
        self.outlier_pos.clear();
        self.outlier_exp.clear();
    }

    /// The tensor's shared exponent.
    pub fn shared_exp(&self) -> u8 {
        self.shared_exp
    }

    /// Number of operands.
    pub fn len(&self) -> usize {
        self.mag.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.mag.is_empty()
    }

    /// The contiguous magnitude plane.
    pub fn mags(&self) -> &[u16] {
        self.mag.as_slice()
    }

    /// The contiguous sign/sh/tag/parity plane.
    pub fn metas(&self) -> &[u8] {
        self.meta.as_slice()
    }

    /// The contiguous folded-significand plane: `±(mag << 4·sh)` per
    /// element (outliers keep their raw ±8-bit significand — their `sh`
    /// is never set). The microkernel's operand stream.
    pub fn svals(&self) -> &[i16] {
        self.sval.as_slice()
    }

    /// Positions of tagged outliers, strictly increasing.
    pub fn outlier_positions(&self) -> &[u32] {
        self.outlier_pos.as_slice()
    }

    /// The outlier exponents, parallel to
    /// [`PackedOperands::outlier_positions`].
    pub fn outlier_exps(&self) -> &[u8] {
        self.outlier_exp.as_slice()
    }

    /// Number of tagged outliers.
    pub fn tagged_count(&self) -> usize {
        self.outlier_pos.len()
    }

    /// Outlier entries in the encoded stream this tensor decoded from —
    /// [`PackedOperands::tagged_count`] plus the stored ±0s, which occupy
    /// an outlier slot on disk but decode untagged. This is the count
    /// `EncodedTensor::outlier_count` reports and the GEMM statistics
    /// carry.
    pub fn stored_outlier_count(&self) -> usize {
        self.stored_outliers
    }

    /// Whether any plane borrows a mapped archive rather than owning its
    /// storage.
    pub fn is_mapped(&self) -> bool {
        self.mag.is_mapped()
            || self.meta.is_mapped()
            || self.sval.is_mapped()
            || self.outlier_pos.is_mapped()
            || self.outlier_exp.is_mapped()
    }

    /// The outlier exponent of element `i` (0 for untagged elements —
    /// matching [`DecodedOperand::exp`]'s convention). A tag with no
    /// side-table entry — a corrupted meta byte in an unverified archive
    /// view — reads exponent 0 too, the convention
    /// [`PackedOperands::parity_ok`] uses, so no plane content can make the
    /// lookup panic.
    #[inline]
    pub fn exp_at(&self, i: usize) -> u8 {
        if self.metas()[i] & META_TAG == 0 {
            return 0;
        }
        self.side_table_exp(i)
    }

    /// Element `i`'s side-table exponent, 0 when it has no entry. Kept out
    /// of line so [`PackedOperands::exp_at`] stays small enough to inline
    /// into per-element loops.
    #[inline(never)]
    fn side_table_exp(&self, i: usize) -> u8 {
        match self.outlier_positions().binary_search(&(i as u32)) {
            Ok(k) => self.outlier_exps()[k],
            Err(_) => 0,
        }
    }

    /// Whether any element of `range` is a tagged outlier — O(log outliers)
    /// via the sorted position table; this is the wavefront test of the
    /// GEMM fast path.
    pub fn range_has_tagged(&self, range: Range<usize>) -> bool {
        let pos = self.outlier_positions();
        let start = pos.partition_point(|&p| (p as usize) < range.start);
        pos.get(start).is_some_and(|&p| (p as usize) < range.end)
    }

    /// Whether element `i`'s [`META_PAR`] side-band parity is consistent
    /// with its `{sh, tag, exp}` wires.
    ///
    /// The outlier exponent is looked up by an *unconditional* binary
    /// search on the position table (not gated on the tag bit, unlike
    /// [`PackedOperands::exp_at`]): a tag flipped `1→0` must still see its
    /// side-table exponent and a tag flipped `0→1` must see `exp = 0`, so
    /// both flips break parity deterministically instead of depending on
    /// the (possibly corrupted) tag to route the lookup.
    pub fn parity_ok(&self, i: usize) -> bool {
        let meta = self.metas()[i];
        let exp = self.side_table_exp(i);
        let want = parity_bit(meta & META_SH != 0, meta & META_TAG != 0, exp);
        (meta & META_PAR != 0) == want
    }

    /// Scans every element's side-band parity and returns the first
    /// inconsistent position, or `None` when the side-band is clean.
    ///
    /// Equivalent to `(0..len).find(|&i| !parity_ok(i))` but runs at a
    /// couple of bit operations per element: `parity_ok(i)` holds iff the
    /// fold of meta bits `{sh, tag, par}` XOR the element's side-table
    /// exponent parity is even, so the scan folds eight meta bytes at a
    /// time and XORs in the (sparse, sorted) exponent-odd positions — the
    /// first surviving odd lane is the first inconsistent element.
    pub fn parity_scan(&self) -> Option<usize> {
        // Per-byte fold of meta bits 1..=3 (sh, tag, par) into each lane's
        // low bit; the shifted source bits never cross a byte boundary.
        // The (sorted, sparse) side-table entries whose exponent parity is
        // odd XOR into their element's lane via the merge cursor — on a
        // clean tensor exactly those lanes carry an odd meta fold, so
        // everything cancels and the scan is a straight sweep.
        const LANE_LSB: u64 = 0x0101_0101_0101_0101;
        let (pos, exps) = (self.outlier_positions(), self.outlier_exps());
        let mut cursor = 0usize;
        let mut base = 0usize;
        let mut chunks = self.metas().chunks_exact(8);
        for ch in chunks.by_ref() {
            let w = u64::from_le_bytes(ch.try_into().expect("chunk of 8"));
            let mut odd = ((w >> 1) ^ (w >> 2) ^ (w >> 3)) & LANE_LSB;
            while pos.get(cursor).is_some_and(|&p| (p as usize) < base + 8) {
                let p = pos[cursor] as usize;
                if p >= base && exps[cursor].count_ones() & 1 == 1 {
                    odd ^= 1u64 << ((p - base) * 8);
                }
                cursor += 1;
            }
            if odd != 0 {
                return Some(base + odd.trailing_zeros() as usize / 8);
            }
            base += 8;
        }
        for (i, &m) in chunks.remainder().iter().enumerate() {
            let mut odd = (u32::from(m >> 1) ^ u32::from(m >> 2) ^ u32::from(m >> 3)) & 1;
            while pos.get(cursor) == Some(&((base + i) as u32)) {
                odd ^= u32::from(exps[cursor].count_ones() & 1 == 1);
                cursor += 1;
            }
            if odd != 0 {
                return Some(base + i);
            }
        }
        None
    }

    /// Flips one bit of one word of `plane` — the sanctioned single-upset
    /// injection primitive (an involution: flipping twice restores the
    /// tensor exactly). `index` addresses the plane's own word array (the
    /// side tables are shorter than the element count), and `bit` must fit
    /// the plane's word width.
    ///
    /// On a mapped tensor the struck plane copy-on-writes into owned
    /// storage first: the file (and any other view of it) never sees the
    /// upset, and the involution property still holds for this value.
    pub fn flip_bit(&mut self, plane: PackedPlane, index: usize, bit: u32) {
        match plane {
            PackedPlane::Mag => self.mag.make_mut()[index] ^= 1u16 << bit,
            PackedPlane::Meta => self.meta.make_mut()[index] ^= 1u8 << bit,
            PackedPlane::Sval => self.sval.make_mut()[index] ^= 1i16 << bit,
            PackedPlane::OutlierPos => self.outlier_pos.make_mut()[index] ^= 1u32 << bit,
            PackedPlane::OutlierExp => self.outlier_exp.make_mut()[index] ^= 1u8 << bit,
        }
    }

    /// Number of words in `plane` (the side tables are shorter than the
    /// element planes).
    pub fn plane_len(&self, plane: PackedPlane) -> usize {
        match plane {
            PackedPlane::Mag => self.mag.len(),
            PackedPlane::Meta => self.meta.len(),
            PackedPlane::Sval => self.sval.len(),
            PackedPlane::OutlierPos => self.outlier_pos.len(),
            PackedPlane::OutlierExp => self.outlier_exp.len(),
        }
    }

    /// Recomputes `sval[range]` from the mag/meta planes — the repair path
    /// for a corrupted folded-significand word once the source planes have
    /// been verified intact.
    pub fn rebuild_sval_range(&mut self, range: Range<usize>) {
        let sval = self.sval.make_mut();
        let (mag, meta) = (self.mag.as_slice(), self.meta.as_slice());
        for i in range {
            sval[i] = sval_of(mag[i], meta[i] & META_SH != 0, meta[i] & META_SIGN != 0);
        }
    }

    /// Reconstructs element `i` as a [`DecodedOperand`] — bit-identical to
    /// what `decode_operands()[i]` holds.
    pub fn get(&self, i: usize) -> DecodedOperand {
        let meta = self.metas()[i];
        DecodedOperand {
            mag: self.mags()[i],
            sh: meta & META_SH != 0,
            sign: meta & META_SIGN != 0,
            tag: meta & META_TAG != 0,
            exp: self.exp_at(i),
        }
    }

    /// Reconstructs elements `range` as BF16 values — the exact inverse of
    /// the encode/decode pipeline (see [`DecodedOperand::to_bf16`]).
    pub fn to_bf16_range(&self, range: Range<usize>) -> Vec<Bf16> {
        range
            .map(|i| self.get(i).to_bf16(self.shared_exp))
            .collect()
    }

    /// Reconstructs the whole tensor as BF16 values, chunk-parallel and
    /// bit-identical at every thread count — the archive load path's bridge
    /// back to the float-typed model layers.
    pub fn to_bf16_vec(&self) -> Vec<Bf16> {
        let n = self.len();
        if owlp_par::thread_budget() <= 1 || owlp_par::chunk_count(n, PACK_GRAIN) <= 1 {
            return self.to_bf16_range(0..n);
        }
        let parts = owlp_par::map_chunks(n, PACK_GRAIN, |r| self.to_bf16_range(r));
        let mut out = Vec::with_capacity(n);
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// Materialises the whole tensor as `Vec<DecodedOperand>` (slow-path
    /// interop and tests).
    pub fn to_operands(&self) -> Vec<DecodedOperand> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Packs this tensor, viewed as a `k×n` row-major weight matrix, into
    /// [`PANEL_NR`]-column panels for the register-tiled GEMM.
    ///
    /// # Panics
    ///
    /// Panics when `k·n` differs from the element count.
    pub fn pack_panels(&self, k: usize, n: usize) -> PackedPanels {
        assert_eq!(self.len(), k * n, "panel shape mismatch");
        let panels = n.div_ceil(PANEL_NR).max(1);
        // Depth padded to the SIMD quad width (and, with the 32-byte base
        // of `AlignedVec`, a 64-byte panel stride): every panel starts
        // cache-line aligned and full-width loads of whole quads stay
        // in-bounds. The padding depths are zero svals — they contribute
        // nothing, exactly like the zero-padded edge columns.
        let kp = k.next_multiple_of(PANEL_K_PAD);
        let sval = self.svals();
        let mut data = AlignedVec::zeroed(panels * kp * PANEL_NR);
        for pb in 0..n.div_ceil(PANEL_NR) {
            let j0 = pb * PANEL_NR;
            let cols = PANEL_NR.min(n - j0);
            let base = pb * kp * PANEL_NR;
            for kk in 0..k {
                let src = kk * n + j0;
                let dst = base + kk * PANEL_NR;
                data[dst..dst + cols].copy_from_slice(&sval[src..src + cols]);
            }
        }
        PackedPanels {
            k,
            kp,
            n,
            data: SvalPlane::from(data),
            bands: OnceLock::new(),
        }
    }
}

/// Weight columns repacked for the `owlp-arith` microkernel: the `k×n`
/// weight matrix is split into `⌈n/NR⌉` panels of [`PANEL_NR`] adjacent
/// output columns, each stored K-major (`panel[kk·NR + c]` is column
/// `j0 + c` at depth `kk`), so one MR×NR output tile streams **one**
/// contiguous panel instead of gathering `NR` strided columns per tile.
/// Edge panels (when `NR ∤ n`) are zero-padded — a zero sval contributes
/// nothing, so the microkernel never needs an edge variant.
///
/// Built once per weight tensor via [`PackedOperands::pack_panels`] and
/// memoised on the arith layer's `PreparedTensor`. The weight's column
/// outlier band tables ([`OutlierBands::columns`]) are memoised here too,
/// built on first use by [`PackedPanels::column_bands`]; equality ignores
/// that memo.
#[derive(Debug, Clone)]
pub struct PackedPanels {
    k: usize,
    /// Stored depth: `k` rounded up to [`PANEL_K_PAD`], zero-filled.
    kp: usize,
    n: usize,
    /// `⌈n/NR⌉` panels of `kp·NR` svals each, zero-padded, 32-byte
    /// aligned per panel — owned, or a zero-copy view into a mapped
    /// archive whose panel region was written pre-packed.
    data: SvalPlane,
    /// The column band tables, derived from these panels and the weight's
    /// outlier side tables on first use; dropped by every panel mutation.
    bands: OnceLock<OutlierBands>,
}

impl PartialEq for PackedPanels {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k && self.kp == other.kp && self.n == other.n && self.data == other.data
    }
}

impl Eq for PackedPanels {}

impl PackedPanels {
    /// Wraps an externally supplied panel-major sval plane (the zero-copy
    /// archive load path): `data` must hold exactly the
    /// `⌈n/NR⌉ · padded_k · NR` words [`PackedOperands::pack_panels`]
    /// would produce for a `k×n` weight.
    ///
    /// # Errors
    ///
    /// [`FormatError::CorruptStream`] when the plane length disagrees with
    /// the shape.
    pub fn from_plane(k: usize, n: usize, data: SvalPlane) -> Result<Self, FormatError> {
        let kp = k.next_multiple_of(PANEL_K_PAD);
        let want = n.div_ceil(PANEL_NR).max(1) * kp * PANEL_NR;
        if data.len() != want {
            return Err(FormatError::CorruptStream {
                reason: "panel plane length disagrees with weight shape",
            });
        }
        Ok(PackedPanels {
            k,
            kp,
            n,
            data,
            bands: OnceLock::new(),
        })
    }

    /// Depth (reduction dimension) the panels were packed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Stored (zero-padded) depth per panel — `k` rounded up to
    /// [`PANEL_K_PAD`]. The extra depths are zero svals.
    pub fn padded_k(&self) -> usize {
        self.kp
    }

    /// Output columns the panels were packed for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of [`PANEL_NR`]-column panels.
    pub fn num_panels(&self) -> usize {
        self.n.div_ceil(PANEL_NR)
    }

    /// Panel `pb` (covering columns `pb·NR .. pb·NR+NR`), `kp·NR` svals
    /// (depths `k..kp` are the zero padding).
    pub fn panel(&self, pb: usize) -> &[i16] {
        let stride = self.kp * PANEL_NR;
        &self.data.as_slice()[pb * stride..(pb + 1) * stride]
    }

    /// The whole panel-major sval store (checksum input).
    pub fn data(&self) -> &[i16] {
        self.data.as_slice()
    }

    /// Whether the panel store borrows a mapped archive rather than owning
    /// its storage.
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Flips one bit of one panel word — the sanctioned single-upset
    /// injection primitive for the repacked weight store (an involution;
    /// copy-on-writes first when the store is mapped, so the file is
    /// never struck). Drops the memoised band tables, whose coefficients
    /// were derived from the old word.
    pub fn flip_bit(&mut self, index: usize, bit: u32) {
        self.bands = OnceLock::new();
        self.data.make_mut()[index] ^= 1i16 << bit;
    }

    /// The weight's column outlier band tables, built from these panels
    /// and `packed`'s outlier side tables on the first call and memoised —
    /// at most one build per panel set, across calls and threads.
    ///
    /// `packed` must be the operand set these panels were packed from
    /// (the same contract as the GEMM's `panels` argument): the memo is
    /// keyed on the panels alone.
    pub fn column_bands(&self, packed: &PackedOperands) -> &OutlierBands {
        self.bands
            .get_or_init(|| OutlierBands::columns(packed, self))
    }

    /// The memoised column band tables, if a GEMM has built them.
    pub fn memoised_bands(&self) -> Option<&OutlierBands> {
        self.bands.get()
    }
}

/// The [`META_PAR`] value for a `{sh, tag, exp}` side-band triple.
#[inline]
fn parity_bit(sh: bool, tag: bool, exp: u8) -> bool {
    sh ^ tag ^ (exp.count_ones() & 1 == 1)
}

#[inline]
pub(crate) fn pack_meta(sign: bool, sh: bool, tag: bool, exp: u8) -> u8 {
    ((sign as u8) * META_SIGN)
        | ((sh as u8) * META_SH)
        | ((tag as u8) * META_TAG)
        | (parity_bit(sh, tag, exp) as u8 * META_PAR)
}

/// The folded significand `±(mag << 4·sh)`. `mag` is ≤ 11 bits
/// ([`DecodedOperand::MAG_BITS`]) so the shifted magnitude is
/// ≤ `(2^11 − 1) << 4 = 32752 < 2^15` — always exact in `i16`.
#[inline]
pub(crate) fn sval_of(mag: u16, sh: bool, sign: bool) -> i16 {
    debug_assert!(mag < 1 << 11, "magnitude exceeds the decoded 11-bit bound");
    let v = (mag as i16) << (if sh { 4 } else { 0 });
    if sign {
        -v
    } else {
        v
    }
}

/// Elements per parallel chunk when packing (matches the decode grain).
const PACK_GRAIN: usize = 4096;

impl EncodedTensor {
    /// Decodes the tensor straight into [`PackedOperands`] — the same
    /// operands as [`EncodedTensor::decode_operands`], in the
    /// struct-of-arrays layout the GEMM fast path streams.
    ///
    /// Large tensors decode chunk-parallel with the same two-pass offset
    /// scheme as `decode_operands`, so the result is bit-identical at every
    /// thread count.
    pub fn decode_packed(&self) -> PackedOperands {
        let mut out = PackedOperands::new(self.shared_exp());
        self.decode_packed_into(&mut out);
        out
    }

    /// [`EncodedTensor::decode_packed`] into a caller-owned buffer
    /// (mirroring [`EncodedTensor::decode_into`]): `out` is cleared and
    /// refilled, keeping its plane allocations — the per-step decode in a
    /// serving loop amortises to zero allocations once the buffer has
    /// grown to the steady-state tensor size.
    pub fn decode_packed_into(&self, out: &mut PackedOperands) {
        let codes = self.codes();
        let exps = self.outlier_exps();
        let n = codes.len();
        assert!(n <= u32::MAX as usize, "tensor too large to pack");
        let dec = BiasDecoder::new(self.shared_exp());
        // Resolve the SIMD tier once, before any fan-out: worker threads
        // must not consult their own (unset) thread-local tier override.
        let tier = crate::simd::selected_tier();
        out.reset(self.shared_exp());
        // Every outlier code — tagged or a stored zero — consumed one
        // exponent slot in the encoded stream.
        out.stored_outliers = exps.len();
        let mag = out.mag.owned_vec();
        let meta = out.meta.owned_vec();
        let sval = out.sval.owned_vec();
        let pos = out.outlier_pos.owned_vec();
        let pexp = out.outlier_exp.owned_vec();
        if owlp_par::thread_budget() <= 1 || owlp_par::chunk_count(n, PACK_GRAIN) <= 1 {
            mag.resize(n, 0);
            meta.resize(n, 0);
            sval.resize_zeroed(n);
            let consumed = crate::codec_simd::decode_packed_slice(
                tier,
                &dec,
                codes,
                exps,
                0,
                0,
                &mut crate::codec_simd::PlaneOut {
                    mag: &mut mag[..],
                    meta: &mut meta[..],
                    sval: &mut sval[..],
                    pos,
                    pexp,
                },
            );
            debug_assert_eq!(consumed, exps.len(), "outlier stream length mismatch");
            return;
        }
        mag.reserve(n);
        meta.reserve(n);
        sval.reserve(n);
        let counts = owlp_par::map_chunks(n, PACK_GRAIN, |r| {
            codes[r].iter().filter(|c| c.is_outlier()).count()
        });
        let mut offsets = Vec::with_capacity(counts.len());
        let mut base = 0usize;
        for c in counts {
            offsets.push(base);
            base += c;
        }
        let parts = owlp_par::map_chunks(n, PACK_GRAIN, |r| {
            let mut mag = vec![0u16; r.len()];
            let mut meta = vec![0u8; r.len()];
            let mut sval = vec![0i16; r.len()];
            let mut pos = Vec::new();
            let mut pexp = Vec::new();
            crate::codec_simd::decode_packed_slice(
                tier,
                &dec,
                &codes[r.clone()],
                exps,
                offsets[r.start / PACK_GRAIN],
                r.start,
                &mut crate::codec_simd::PlaneOut {
                    mag: &mut mag,
                    meta: &mut meta,
                    sval: &mut sval,
                    pos: &mut pos,
                    pexp: &mut pexp,
                },
            );
            (mag, meta, sval, pos, pexp)
        });
        for (pmag, pmeta, psval, ppos, ppexp) in parts {
            mag.extend(pmag);
            meta.extend(pmeta);
            sval.extend_from_slice(&psval);
            pos.extend(ppos);
            pexp.extend(ppexp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf16::Bf16;
    use crate::encode::encode_tensor;
    use crate::simd::{available_tiers, with_tier};

    fn bf(x: f32) -> Bf16 {
        Bf16::from_f32(x)
    }

    fn mixed(len: usize) -> Vec<Bf16> {
        (0..len)
            .map(|i| {
                let v = ((i % 37) as f32 - 18.0) * 0.11;
                match i % 23 {
                    0 => bf(v * 1e26),
                    1 => Bf16::ZERO,
                    _ => bf(v),
                }
            })
            .collect()
    }

    #[test]
    fn packed_matches_decode_operands_elementwise() {
        let data = mixed(300);
        let enc = encode_tensor(&data, None).unwrap();
        let ops = enc.decode_operands();
        let packed = enc.decode_packed();
        assert_eq!(packed.len(), ops.len());
        assert_eq!(packed.shared_exp(), enc.shared_exp());
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(packed.get(i), *op, "element {i}");
        }
        assert_eq!(packed.to_operands(), ops);
        assert_eq!(
            PackedOperands::from_operands(enc.shared_exp(), &ops),
            packed
        );
    }

    #[test]
    fn svals_fold_sign_and_shift() {
        let data = mixed(300);
        let enc = encode_tensor(&data, None).unwrap();
        let packed = enc.decode_packed();
        for (i, op) in packed.to_operands().iter().enumerate() {
            let expect = {
                let v = (op.mag as i32) << (if op.sh { 4 } else { 0 });
                if op.sign {
                    -v
                } else {
                    v
                }
            };
            assert!(i16::try_from(expect).is_ok(), "sval overflows i16");
            assert_eq!(packed.svals()[i] as i32, expect, "element {i}");
        }
    }

    #[test]
    fn tagged_ranges_are_found_exactly() {
        let data = mixed(200);
        let enc = encode_tensor(&data, None).unwrap();
        let ops = enc.decode_operands();
        let packed = enc.decode_packed();
        for start in (0..200).step_by(17) {
            for width in [1usize, 5, 40] {
                let r = start..(start + width).min(200);
                let expect = ops[r.clone()].iter().any(|o| o.tag);
                assert_eq!(packed.range_has_tagged(r.clone()), expect, "{r:?}");
            }
        }
        assert!(!packed.range_has_tagged(200..200));
    }

    #[test]
    fn zeros_are_untagged_and_cost_no_side_table_entry() {
        let data = vec![Bf16::ZERO, bf(1.0), bf(-0.0)];
        let enc = encode_tensor(&data, None).unwrap();
        let packed = enc.decode_packed();
        assert_eq!(packed.tagged_count(), 0);
        assert_eq!(packed.exp_at(0), 0);
        assert!(!packed.range_has_tagged(0..3));
    }

    #[test]
    fn decode_packed_into_reuses_and_matches() {
        let big = mixed(500);
        let small = mixed(60);
        let enc_big = encode_tensor(&big, None).unwrap();
        let enc_small = encode_tensor(&small, None).unwrap();
        let mut buf = PackedOperands::default();
        enc_big.decode_packed_into(&mut buf);
        assert_eq!(buf, enc_big.decode_packed());
        // Refill with a smaller tensor: stale planes must be fully cleared.
        enc_small.decode_packed_into(&mut buf);
        assert_eq!(buf, enc_small.decode_packed());
        assert_eq!(buf.len(), 60);
    }

    #[test]
    fn panels_match_strided_column_gather() {
        let (k, n) = (13, 11); // NR ∤ n exercises the zero-padded edge
        let data = mixed(k * n);
        let enc = encode_tensor(&data, None).unwrap();
        let packed = enc.decode_packed();
        let panels = packed.pack_panels(k, n);
        assert_eq!(panels.k(), k);
        assert_eq!(panels.n(), n);
        assert_eq!(panels.num_panels(), n.div_ceil(PANEL_NR));
        assert_eq!(panels.padded_k(), k.next_multiple_of(PANEL_K_PAD));
        for pb in 0..panels.num_panels() {
            let panel = panels.panel(pb);
            assert_eq!(panel.len(), panels.padded_k() * PANEL_NR);
            assert_eq!(panel.as_ptr() as usize % 32, 0, "panel {pb} misaligned");
            assert!(
                panel[k * PANEL_NR..].iter().all(|&v| v == 0),
                "panel {pb} padding must be zero svals"
            );
            for kk in 0..k {
                for c in 0..PANEL_NR {
                    let j = pb * PANEL_NR + c;
                    let expect = if j < n { packed.svals()[kk * n + j] } else { 0 };
                    assert_eq!(panel[kk * PANEL_NR + c], expect, "panel {pb} ({kk},{c})");
                }
            }
        }
    }

    #[test]
    fn side_band_parity_detects_every_side_band_flip() {
        let data = mixed(300);
        let enc = encode_tensor(&data, None).unwrap();
        let clean = enc.decode_packed();
        assert_eq!(clean.parity_scan(), None, "clean tensor must scan clean");
        let outlier = clean.outlier_positions()[0] as usize;
        let normal = (0..clean.len())
            .find(|&i| clean.metas()[i] & META_TAG == 0)
            .unwrap();
        // sh, tag, and parity-bit flips on meta; exponent flips on the side
        // table — every covered wire, on both a normal and an outlier.
        for (plane, index, bit) in [
            (PackedPlane::Meta, normal, 1),  // sh
            (PackedPlane::Meta, normal, 2),  // tag 0→1
            (PackedPlane::Meta, normal, 3),  // parity bit itself
            (PackedPlane::Meta, outlier, 1), // sh on an outlier
            (PackedPlane::Meta, outlier, 2), // tag 1→0
            (PackedPlane::OutlierExp, 0, 0), // exp low bit
            (PackedPlane::OutlierExp, 0, 7), // exp high bit
        ] {
            let mut p = clean.clone();
            p.flip_bit(plane, index, bit);
            assert!(p.parity_scan().is_some(), "{plane:?}[{index}] bit {bit}");
            p.flip_bit(plane, index, bit);
            assert_eq!(p, clean, "flip must be an involution");
        }
        // A sign flip is data-plane damage, not side-band damage.
        let mut p = clean.clone();
        p.flip_bit(PackedPlane::Meta, normal, 0);
        assert_eq!(p.parity_scan(), None);
    }

    #[test]
    fn rebuild_sval_range_repairs_a_struck_word() {
        let data = mixed(120);
        let enc = encode_tensor(&data, None).unwrap();
        let clean = enc.decode_packed();
        let mut p = clean.clone();
        p.flip_bit(PackedPlane::Sval, 17, 9);
        assert_ne!(p, clean);
        p.rebuild_sval_range(17..18);
        assert_eq!(p, clean);
        // Rebuilding everything from intact source planes is the identity.
        let mut q = clean.clone();
        q.rebuild_sval_range(0..q.len());
        assert_eq!(q, clean);
    }

    #[test]
    fn stored_outlier_count_matches_the_encoded_stream() {
        let data = mixed(300); // mixed() stores both huge outliers and ±0s
        let enc = encode_tensor(&data, None).unwrap();
        let packed = enc.decode_packed();
        assert_eq!(packed.stored_outlier_count(), enc.outlier_count());
        let tagged = enc.decode_operands().iter().filter(|o| o.tag).count();
        assert_eq!(packed.tagged_count(), tagged);
        assert!(packed.stored_outlier_count() > packed.tagged_count());
        let repacked = PackedOperands::from_operands(enc.shared_exp(), &enc.decode_operands());
        assert_eq!(repacked.stored_outlier_count(), enc.outlier_count());
    }

    #[test]
    fn from_planes_roundtrips_and_rejects_inconsistency() {
        let data = mixed(200);
        let enc = encode_tensor(&data, None).unwrap();
        let packed = enc.decode_packed();
        let planes = || {
            (
                Plane::from(packed.mags().to_vec()),
                Plane::from(packed.metas().to_vec()),
                SvalPlane::from(packed.svals().iter().copied().collect::<AlignedVec>()),
                Plane::from(packed.outlier_positions().to_vec()),
                Plane::from(packed.outlier_exps().to_vec()),
            )
        };
        let (mag, meta, sval, pos, exp) = planes();
        let rebuilt = PackedOperands::from_planes(
            packed.shared_exp(),
            packed.stored_outlier_count(),
            mag,
            meta,
            sval,
            pos,
            exp,
        )
        .unwrap();
        assert_eq!(rebuilt, packed);
        assert_eq!(
            rebuilt.stored_outlier_count(),
            packed.stored_outlier_count()
        );
        // Mismatched element planes.
        let (mag, meta, _, pos, exp) = planes();
        assert!(PackedOperands::from_planes(
            packed.shared_exp(),
            packed.stored_outlier_count(),
            mag,
            meta,
            SvalPlane::default(),
            pos,
            exp,
        )
        .is_err());
        // Stored count below the tagged count.
        let (mag, meta, sval, pos, exp) = planes();
        assert!(
            PackedOperands::from_planes(packed.shared_exp(), 0, mag, meta, sval, pos, exp).is_err()
        );
        // Unsorted positions.
        let (mag, meta, sval, _, exp) = planes();
        let mut rev: Vec<u32> = packed.outlier_positions().to_vec();
        rev.reverse();
        assert!(PackedOperands::from_planes(
            packed.shared_exp(),
            packed.stored_outlier_count(),
            mag,
            meta,
            sval,
            Plane::from(rev),
            exp,
        )
        .is_err());
    }

    #[test]
    fn to_bf16_vec_inverts_the_whole_pipeline() {
        // Every finite BF16 pattern as a 255×256 tensor, beside a mixed
        // tensor spanning several parallel chunks. `Bf16` equality
        // compares bits, so −0 and subnormals count.
        let finite: Vec<Bf16> = crate::bf16::all_finite().collect();
        assert_eq!(finite.len(), 255 * 256);
        for data in [mixed(3 * PACK_GRAIN + 7), finite] {
            for &tier in available_tiers() {
                let packed =
                    with_tier(tier, || encode_tensor(&data, None).unwrap().decode_packed());
                let serial = owlp_par::with_threads(1, || packed.to_bf16_vec());
                assert_eq!(serial, data, "lossless reconstruction on {tier}");
                for t in [2, 4] {
                    assert_eq!(owlp_par::with_threads(t, || packed.to_bf16_vec()), serial);
                }
                assert_eq!(packed.to_bf16_range(5..12), data[5..12]);
            }
        }
    }

    #[test]
    fn panels_from_plane_validates_shape() {
        let (k, n) = (13, 11);
        let data = mixed(k * n);
        let enc = encode_tensor(&data, None).unwrap();
        let packed = enc.decode_packed();
        let panels = packed.pack_panels(k, n);
        let plane = SvalPlane::from(panels.data().iter().copied().collect::<AlignedVec>());
        let rebuilt = PackedPanels::from_plane(k, n, plane.clone()).unwrap();
        assert_eq!(rebuilt, panels);
        assert!(PackedPanels::from_plane(k + PANEL_K_PAD, n, plane.clone()).is_err());
        assert!(PackedPanels::from_plane(k, n + PANEL_NR, plane).is_err());
    }

    #[test]
    fn parallel_pack_is_bit_identical_to_serial() {
        let data = mixed(3 * PACK_GRAIN + 11);
        let enc = encode_tensor(&data, None).unwrap();
        let serial = owlp_par::with_threads(1, || enc.decode_packed());
        for t in [2, 4, 8] {
            let par = owlp_par::with_threads(t, || enc.decode_packed());
            assert_eq!(par, serial, "{t} threads");
        }
    }
}
