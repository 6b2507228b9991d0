//! End-to-end functional GEMMs.
//!
//! [`owlp_gemm`] runs the full OwL-P pipeline — shared-exponent encoding,
//! bias decoding, INT PE columns with outlier bypass, align + INT2FP — and
//! is verified bit-exact against [`crate::exact::exact_gemm`]. It also
//! reports the outlier statistics the performance model consumes.

use crate::align::AlignUnit;
use crate::column::PeColumn;
use crate::error::ArithError;
use crate::lanes::{CallPlan, TileScratch};
use crate::microkernel::{self, MR, MR8, NR};
use crate::pe::PeConfig;
use crate::window::WindowAcc;
use owlp_format::decode::DecodedOperand;
use owlp_format::{
    encode_tensor, encode_tensor_into, Bf16, EncodedTensor, MappedTensor, PackedOperands,
    PackedPanels,
};
use serde::{Deserialize, Serialize};

/// Result of an OwL-P GEMM with datapath statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OwlpGemmOutput {
    /// Row-major `m×n` FP32 results.
    pub output: Vec<f32>,
    /// Shared exponent chosen for the activation tensor.
    pub shared_a: u8,
    /// Shared exponent chosen for the weight tensor.
    pub shared_w: u8,
    /// Outlier entries in the encoded activation tensor.
    pub act_outliers: usize,
    /// Outlier entries in the encoded weight tensor.
    pub weight_outliers: usize,
    /// Largest number of outlier products observed in one column wavefront
    /// (one output element's pass) — what the scheduler must keep under the
    /// path budget.
    pub max_wavefront_outliers: usize,
    /// Total products routed down outlier paths.
    pub total_outlier_products: usize,
}

/// ABFT checksum vectors of one OwL-P GEMM: the *observed* row and column
/// sums of the raw shared-frame accumulator words ([`WindowAcc::raw`]),
/// collected inline by the drive loop before outlier correction.
///
/// Because every normal product is an integer on the shared frame, these
/// sums obey the same closed arithmetic as the data: an independent
/// reference `rows[i] = Σ_k a_sval[i,k]·(Σ_j b_sval[k,j])` must match
/// *exactly* — zero false positives, no FP tolerance band — and a single
/// accumulator-lane upset perturbs exactly one row and one column sum,
/// localizing the damaged output element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbftSums {
    /// `rows[i]` — Σ over j of the raw pre-correction accumulator of
    /// output element `(i, j)`.
    pub rows: Vec<i128>,
    /// `cols[j]` — Σ over i of the same raw words.
    pub cols: Vec<i128>,
}

/// A sanctioned single-bit upset on one output element's accumulator lane,
/// applied inside the drive loop *before* the ABFT sums are collected — so
/// the corrupted output and the checksums disagree with the reference in
/// exactly the way a real in-flight particle strike would produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStrike {
    /// Output row of the struck element.
    pub i: usize,
    /// Output column of the struck element.
    pub j: usize,
    /// Accumulator bit to flip (`< 127`).
    pub bit: u32,
}

/// A tensor encoded and packed once, for reuse across GEMM calls.
///
/// Weight tensors in a serving loop are multiplied every iteration but
/// never change; preparing them once hoists the encode + decode-pack work
/// out of the per-request path (the memoisation the event-driven model and
/// the functional transformer use). The planes inside may be owned heap
/// buffers (the encode path) or borrowed views into a mapped archive v2
/// file ([`PreparedTensor::from_mapped`]) — the GEMM reads them through
/// the same slices either way.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedTensor {
    packed: PackedOperands,
    /// Weight panels for the register-tiled microkernel, memoised when the
    /// tensor was prepared with a known `k×n` shape
    /// ([`PreparedTensor::with_shape`]).
    panels: Option<PackedPanels>,
}

impl PreparedTensor {
    /// Encodes and packs `t` once (shape-agnostic: no panel cache — the
    /// GEMM packs panels per call).
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::Format`] for non-finite inputs.
    pub fn new(t: &[Bf16]) -> Result<Self, ArithError> {
        let enc = encode_tensor(t, None)?;
        let packed = enc.decode_packed();
        Ok(PreparedTensor {
            packed,
            panels: None,
        })
    }

    /// Encodes, packs, **and panel-tiles** `t` as a `k×n` weight matrix:
    /// the microkernel panels are built once here and reused by every
    /// [`owlp_gemm_prepared_with`] call, replacing the per-call (formerly
    /// per-output-element) strided column gather.
    ///
    /// # Errors
    ///
    /// As [`PreparedTensor::new`], plus [`ArithError::DimensionMismatch`]
    /// when `t.len() != k·n`.
    pub fn with_shape(t: &[Bf16], k: usize, n: usize) -> Result<Self, ArithError> {
        check_shape(t, k * n, "B")?;
        let mut prep = PreparedTensor::new(t)?;
        prep.panels = Some(prep.packed.pack_panels(k, n));
        Ok(prep)
    }

    /// Adopts the planes of an archive-v2 tensor *without decoding or
    /// re-packing anything*: the operand planes and (when the archive
    /// stored them) the microkernel weight panels are borrowed views into
    /// the mapped file, so preparation is O(1) and the weight bytes stay
    /// shared with the page cache. Bit-identical to
    /// [`PreparedTensor::with_shape`] on the tensor's original values.
    pub fn from_mapped(t: MappedTensor) -> Self {
        let (packed, panels) = t.into_parts();
        PreparedTensor { packed, panels }
    }

    /// The packed decoded operands.
    pub fn packed(&self) -> &PackedOperands {
        &self.packed
    }

    /// The memoised microkernel panels, when prepared with a shape.
    pub fn panels(&self) -> Option<&PackedPanels> {
        self.panels.as_ref()
    }
}

/// Reusable activation-side buffers for [`owlp_gemm_prepared_with`] and
/// [`owlp_gemm_prepared_f32_with`]: the per-step activation path of a
/// serving loop rounds (f32 inputs only), re-encodes
/// ([`owlp_format::encode_tensor_into`]) and re-decodes
/// ([`owlp_format::EncodedTensor::decode_packed_into`]) into the same
/// buffers every call, so in steady state the whole activation side —
/// BF16 rounding buffer, code/exponent streams, and packed planes —
/// allocates nothing.
#[derive(Debug, Default)]
pub struct GemmScratch {
    packed_a: PackedOperands,
    enc_a: EncodedTensor,
    bf_a: Vec<Bf16>,
}

/// [`owlp_gemm`] with a pre-prepared weight tensor and caller-owned
/// activation scratch: only the activation side pays encode + pack, the
/// weight side reuses its cached planes (and its memoised panels, when
/// built via [`PreparedTensor::with_shape`]). A serving loop (e.g. the
/// `owlp-core` transformer's per-layer sweep) keeps one [`GemmScratch`]
/// alive so the per-step activation decode allocates nothing in steady
/// state.
///
/// # Errors
///
/// As [`owlp_gemm`].
pub fn owlp_gemm_prepared_with(
    a: &[Bf16],
    b: &PreparedTensor,
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut GemmScratch,
) -> Result<OwlpGemmOutput, ArithError> {
    check_shape(a, m * k, "A")?;
    encode_tensor_into(a, None, &mut scratch.enc_a)?;
    scratch.enc_a.decode_packed_into(&mut scratch.packed_a);
    owlp_gemm_packed(
        &scratch.packed_a,
        &b.packed,
        b.panels.as_ref(),
        m,
        k,
        n,
        PeConfig::PAPER,
        AlignUnit::Exact,
    )
}

/// [`owlp_gemm_prepared_with`] taking raw `f32` activations: the f32 →
/// BF16 rounding an accelerator's vector unit performs on the way into
/// the GEMM happens here, into the scratch's reusable rounding buffer —
/// so a fused forward pass (e.g. the `owlp-core` transformer) hands its
/// f32 activations straight in and never materialises a per-call BF16
/// tensor. Bit-identical to rounding with [`Bf16::from_f32`] and calling
/// [`owlp_gemm_prepared_with`].
///
/// # Errors
///
/// As [`owlp_gemm`].
pub fn owlp_gemm_prepared_f32_with(
    a: &[f32],
    b: &PreparedTensor,
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut GemmScratch,
) -> Result<OwlpGemmOutput, ArithError> {
    check_len(a.len(), m * k, "A")?;
    scratch.bf_a.clear();
    scratch.bf_a.extend(a.iter().map(|&x| Bf16::from_f32(x)));
    // Split-borrow the scratch so the rounded buffer can feed the encode
    // while the packed planes receive the decode.
    let GemmScratch {
        packed_a,
        enc_a,
        bf_a,
    } = scratch;
    encode_tensor_into(bf_a, None, enc_a)?;
    enc_a.decode_packed_into(packed_a);
    owlp_gemm_packed(
        packed_a,
        &b.packed,
        b.panels.as_ref(),
        m,
        k,
        n,
        PeConfig::PAPER,
        AlignUnit::Exact,
    )
}

/// Runs the OwL-P pipeline on `a` (`m×k`, row-major) × `b` (`k×n`,
/// row-major) with the paper's PE configuration and the exact align unit.
///
/// # Errors
///
/// Returns [`ArithError::Format`] for non-finite inputs and
/// [`ArithError::DimensionMismatch`] for shape errors.
///
/// ```
/// use owlp_format::Bf16;
/// use owlp_arith::{exact_gemm, owlp_gemm};
/// # fn main() -> Result<(), owlp_arith::ArithError> {
/// let a: Vec<Bf16> = (0..6).map(|i| Bf16::from_f32(i as f32 - 2.5)).collect();
/// let b: Vec<Bf16> = (0..6).map(|i| Bf16::from_f32(0.5 * i as f32)).collect();
/// let r = owlp_gemm(&a, &b, 2, 3, 2)?;
/// let golden = exact_gemm(&a, &b, 2, 3, 2);
/// assert_eq!(r.output, golden);
/// # Ok(())
/// # }
/// ```
pub fn owlp_gemm(
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
) -> Result<OwlpGemmOutput, ArithError> {
    owlp_gemm_with(a, b, m, k, n, PeConfig::PAPER, AlignUnit::Exact)
}

/// [`owlp_gemm`] with explicit PE configuration and align-unit policy.
///
/// # Errors
///
/// As [`owlp_gemm`].
pub fn owlp_gemm_with(
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
    config: PeConfig,
    align: AlignUnit,
) -> Result<OwlpGemmOutput, ArithError> {
    check_shape(a, m * k, "A")?;
    check_shape(b, k * n, "B")?;
    let enc_a = encode_tensor(a, None)?;
    let enc_b = encode_tensor(b, None)?;
    let packed_a = enc_a.decode_packed();
    let packed_b = enc_b.decode_packed();
    owlp_gemm_packed(&packed_a, &packed_b, None, m, k, n, config, align)
}

/// The full datapath drive loop, with optionally memoised weight panels.
///
/// Under [`AlignUnit::Exact`] the m×n sweep runs in R×NR register tiles
/// of exactly the rows left: [`MR8`]-row tiles on AVX2, then [`MR`]-row
/// tiles, then one tile of the last `m % MR` rows, so no zero row is
/// multiplied (an `m = 1` decode step runs 1-row tiles). The
/// [`crate::microkernel`] computes each tile as an `i16×i16→i32`
/// outer-product dot over the activation sval rows and one
/// [`PackedPanels`] panel, partial-summing `i64` lanes that spill into a
/// per-element [`WindowAcc`] on the shared-exponent frame (no overflow by
/// the K_SPILL bound — see the microkernel docs). Outliers stay out of
/// the hot loop: the kernel sums every product as if both operands were
/// normal, and each finished tile is corrected, `MR` rows at a time, by
/// *band lanes* ([`owlp_format::bands`]) — per row band an `NR`-lane dot
/// of `i32` delta coefficients against the panel, per column band a dot
/// over the tile's live rows of the gathered activation column, plus the
/// exact residual of the depths tagged on both sides. The true outlier
/// products thereby land on the frames the PE's bypass path rebuilds from
/// the outliers' own exponents. Each element folds its window, its lanes
/// and its residual into one [`WindowAcc`] — or a
/// [`crate::kulisch::KulischAcc`] when the frame span outgrows an `i128`
/// — and rounds once with the same RNE conversion, so the result is
/// bit-identical to driving the PE column; the outlier statistics count
/// exactly the nonzero tagged products the PE's bypass path would carry.
/// Runs under an [`AlignUnit::Bounded`] policy are order-sensitive and
/// keep the full [`PeColumn`] datapath.
///
/// `panels` (when `Some` and shape-matched) must be
/// `packed_b.pack_panels(k, n)` — [`PreparedTensor::with_shape`] memoises
/// exactly that; mismatched or absent panels are rebuilt here. The
/// weight's column band tables are memoised on `panels` by the first call
/// ([`PackedPanels::column_bands`]), so every later call with the same
/// panels plans only the activation side. A weight of at most 512
/// elements — one decode token's attention head, say — is instead planned
/// per call on buffers the calling thread keeps, as small activations are:
/// its tables cost less to build than to allocate.
///
/// # Errors
///
/// As [`owlp_gemm`].
#[allow(clippy::too_many_arguments)]
pub fn owlp_gemm_packed(
    packed_a: &PackedOperands,
    packed_b: &PackedOperands,
    panels: Option<&PackedPanels>,
    m: usize,
    k: usize,
    n: usize,
    config: PeConfig,
    align: AlignUnit,
) -> Result<OwlpGemmOutput, ArithError> {
    owlp_gemm_packed_impl::<false>(packed_a, packed_b, panels, m, k, n, config, align, None)
        .map(|(out, _)| out)
}

/// [`owlp_gemm_packed`] with ABFT checksum collection (and optionally a
/// sanctioned accumulator-lane strike), on the paper's PE configuration
/// and the exact align unit — the only datapath whose regrouped integer
/// sums the checksum algebra covers.
///
/// The returned [`AbftSums`] are the observed raw row/column sums; the
/// integrity layer verifies them against an independently computed
/// reference and, on mismatch, localizes and recomputes the damaged
/// element. Collection is O(m·n) extra integer adds on top of the
/// O(m·k·n) kernel, so the overhead vanishes with `k`.
///
/// # Errors
///
/// As [`owlp_gemm`].
#[allow(clippy::too_many_arguments)]
pub fn owlp_gemm_packed_abft(
    packed_a: &PackedOperands,
    packed_b: &PackedOperands,
    panels: Option<&PackedPanels>,
    m: usize,
    k: usize,
    n: usize,
    strike: Option<LaneStrike>,
) -> Result<(OwlpGemmOutput, AbftSums), ArithError> {
    owlp_gemm_packed_impl::<true>(
        packed_a,
        packed_b,
        panels,
        m,
        k,
        n,
        PeConfig::PAPER,
        AlignUnit::Exact,
        strike,
    )
    .map(|(out, sums)| (out, sums.expect("ABFT sums collected on the exact path")))
}

// `ABFT` is a const generic so the compiler monomorphizes a checksum-free
// copy of the hot loop for the plain GEMM: the per-element strike and
// row/column-sum bookkeeping below compiles out entirely instead of
// burdening the non-ABFT path with dead `Option` checks (the PR6 bench
// recorded exactly that leak as a serial regression).
#[allow(clippy::too_many_arguments)]
fn owlp_gemm_packed_impl<const ABFT: bool>(
    packed_a: &PackedOperands,
    packed_b: &PackedOperands,
    panels: Option<&PackedPanels>,
    m: usize,
    k: usize,
    n: usize,
    config: PeConfig,
    align: AlignUnit,
    strike: Option<LaneStrike>,
) -> Result<(OwlpGemmOutput, Option<AbftSums>), ArithError> {
    check_len(packed_a.len(), m * k, "decoded A")?;
    check_len(packed_b.len(), k * n, "decoded B")?;
    let rows = k.div_ceil(config.lanes).max(1);
    let column = PeColumn::new(config, rows).with_align(align);
    let shared_a = packed_a.shared_exp();
    let shared_w = packed_b.shared_exp();
    let fast_ok = matches!(align, AlignUnit::Exact);
    debug_assert!(fast_ok || !ABFT, "ABFT requires the exact align unit");
    let a_sval = packed_a.svals();
    let win0 = WindowAcc::for_owlp_normal(shared_a, shared_w, k);
    // Weight panels for the microkernel: reuse the caller's memoised set
    // when its shape matches, otherwise pack once per call (still hoisted
    // out of the m×n sweep entirely).
    let mut panels_store = None;
    let panels: Option<&PackedPanels> = if fast_ok {
        Some(match panels {
            Some(p) if p.k() == k && p.n() == n => p,
            _ => panels_store.insert(packed_b.pack_panels(k, n)),
        })
    } else {
        None
    };
    // Resolved before the fan-out so a `with_tier` override on this thread
    // (tests, per-tier benches) applies inside every pool worker.
    let tier = microkernel::selected_tier();
    // The outlier plan, hoisted out of the m×n sweep: the weight's column
    // band tables (memoised on its panels — built on the first GEMM, once
    // per weight — unless the weight is small), the activation's row band
    // tables and the row depth index (per call, O(tags + m·k/64)).
    let call_plan = panels.map(|p| CallPlan::new(packed_a, m, k, packed_b, p));
    let plan = call_plan
        .as_ref()
        .zip(panels)
        .map(|(c, p)| c.plan(packed_b, p, a_sval, k, tier));
    // Tile-parallel over output columns: each chunk runs the register-tiled
    // microkernel (or the PE column) over its panel range. The grain is
    // NR-aligned so no R×NR tile straddles a chunk boundary. Results
    // assemble in column order and the wavefront statistics reduce over the
    // ordered tile list (max and sum — order-free anyway), so the output is
    // bit-identical to the serial sweep at every thread count.
    let grain = crate::exact::row_grain(k, m).next_multiple_of(NR);
    let col_ops = 2 * (k as u64).saturating_mul(m as u64).max(1);
    // The 8-row tile runs on AVX2 only (see `MR8`).
    let use_x8 = tier == microkernel::KernelTier::Avx2;
    let tiles = owlp_par::map_chunks_weighted(n, grain, col_ops, |cols| {
        let j0 = cols.start;
        let mut values;
        let mut max_wavefront = 0usize;
        let mut total = 0usize;
        // Per-chunk ABFT partials: full-length row sums (this chunk's
        // column slice contributes to every row) and this chunk's column
        // sums. i128 addition is exact, so the merge is order-free and the
        // checksums are bit-identical at every thread count.
        let mut sums = ABFT.then(|| (vec![0i128; m], vec![0i128; cols.len()]));
        if fast_ok {
            let panels = panels.expect("panels are built whenever the fast path runs");
            values = vec![0.0f32; cols.len() * m];
            let plan = plan
                .as_ref()
                .expect("the plan is built whenever the fast path runs");
            let mut scratch = TileScratch::take();
            // Finalizes one window tile of at most MR rows into `values`:
            // the sanctioned strike, the ABFT checksum partials, and the
            // band-lane outlier correction.
            let mut finalize_tile =
                |wins: &mut [[WindowAcc; NR]], ib: usize, jb: usize, panel: &[i16]| {
                    let mr = wins.len();
                    let nr = NR.min(cols.end - jb);
                    // The sanctioned upset lands on the raw lane *before*
                    // checksum collection: output and checksums corrupt
                    // consistently, exactly as an in-flight strike would.
                    // Compiled out of the non-ABFT monomorphization.
                    if ABFT {
                        if let Some(s) = strike {
                            if (ib..ib + mr).contains(&s.i) && (jb..jb + nr).contains(&s.j) {
                                wins[s.i - ib][s.j - jb].toggle_bit(s.bit);
                            }
                        }
                        // Tile-local checksum partials, flushed once per
                        // tile (i128 addition is exact and order-free, so
                        // the checksums are unchanged bit for bit).
                        if let Some((rs, cs)) = sums.as_mut() {
                            for (r, wins_row) in wins.iter().enumerate() {
                                for (c, win) in wins_row.iter().enumerate().take(nr) {
                                    rs[ib + r] += win.raw();
                                    cs[jb + c - cols.start] += win.raw();
                                }
                            }
                        }
                    }
                    plan.correct_tile(&mut scratch, wins, ib, jb, nr, panel, |r, c, out| {
                        values[(jb + c - cols.start) * m + ib + r] = out.value;
                        max_wavefront = max_wavefront.max(out.routed);
                        total += out.routed;
                    });
                };
            // Weight-stationary traversal: each NR panel of the chunk
            // sweeps every row of A in tiles of exactly the rows left —
            // eight at a time on AVX2, then four, then one tile of the last
            // one to three — so no zero row is multiplied. The microkernel
            // covers the outlier-free bulk: every product is an integer
            // < 2^30 on the shared frame (outlier svals included as their
            // as-if-normal value, corrected in the finalize), so regrouping
            // into register tiles cannot change the exact per-element sum.
            // The tile kernels spill their i64 lanes into the windows every
            // K_SPILL depths, so any k runs in one pass.
            for jb in cols.clone().step_by(NR) {
                let panel = panels.panel(jb / NR);
                let mut ib = 0;
                while ib < m {
                    let mr = if use_x8 && m - ib >= MR8 {
                        MR8
                    } else {
                        MR.min(m - ib)
                    };
                    let a = &a_sval[ib * k..(ib + mr) * k];
                    // An 8-row tile finalizes as two MR-row halves.
                    let mut done = |wins: &mut [[WindowAcc; NR]]| {
                        for (h, wins) in wins.chunks_mut(MR).enumerate() {
                            finalize_tile(wins, ib + h * MR, jb, panel);
                        }
                    };
                    match mr {
                        MR8 => done(&mut row_tile::<MR8>(tier, a, panel, win0)),
                        MR => done(&mut row_tile::<MR>(tier, a, panel, win0)),
                        3 => done(&mut row_tile::<3>(tier, a, panel, win0)),
                        2 => done(&mut row_tile::<2>(tier, a, panel, win0)),
                        _ => done(&mut row_tile::<1>(tier, a, panel, win0)),
                    }
                    ib += mr;
                }
            }
            scratch.keep();
        } else {
            values = Vec::with_capacity(cols.len() * m);
            // Bounded align reduces contributions in the PE column's
            // arrival order — order-sensitive, so drive the real datapath.
            let mut wt_col: Vec<DecodedOperand> = Vec::new();
            let mut act_rows: Vec<Option<Vec<DecodedOperand>>> = vec![None; m];
            for j in cols {
                wt_col.clear();
                wt_col.extend((0..k).map(|kk| packed_b.get(kk * n + j)));
                for (i, slot) in act_rows.iter_mut().enumerate() {
                    let act_row = slot.get_or_insert_with(|| {
                        (i * k..(i + 1) * k).map(|x| packed_a.get(x)).collect()
                    });
                    let out = column.compute_unchecked(act_row, &wt_col, shared_a, shared_w);
                    values.push(out.value);
                    max_wavefront = max_wavefront.max(out.outlier_products);
                    total += out.outlier_products;
                }
            }
        }
        (j0, values, max_wavefront, total, sums)
    });
    if let Some(c) = call_plan {
        c.finish(m, k);
    }
    let mut output = vec![0.0f32; m * n];
    let mut max_wavefront = 0usize;
    let mut total_outlier_products = 0usize;
    let mut abft_sums = ABFT.then(|| AbftSums {
        rows: vec![0i128; m],
        cols: vec![0i128; n],
    });
    for (j0, values, tile_max, tile_total, chunk_sums) in tiles {
        max_wavefront = max_wavefront.max(tile_max);
        total_outlier_products += tile_total;
        if let (Some(dst), Some((rs, cs))) = (abft_sums.as_mut(), chunk_sums) {
            for (d, s) in dst.rows.iter_mut().zip(rs) {
                *d += s;
            }
            dst.cols[j0..j0 + cs.len()].copy_from_slice(&cs);
        }
        for (idx, v) in values.into_iter().enumerate() {
            let (dj, i) = (idx / m.max(1), idx % m.max(1));
            output[i * n + j0 + dj] = v;
        }
    }
    Ok((
        OwlpGemmOutput {
            output,
            shared_a,
            shared_w,
            act_outliers: packed_a.stored_outlier_count(),
            weight_outliers: packed_b.stored_outlier_count(),
            max_wavefront_outliers: max_wavefront,
            total_outlier_products,
        },
        abft_sums,
    ))
}

/// The kernel windows of the `R` activation rows `a` (row-major, `R·k`
/// svals) against one weight `panel`.
#[inline]
fn row_tile<const R: usize>(
    tier: microkernel::KernelTier,
    a: &[i16],
    panel: &[i16],
    win0: WindowAcc,
) -> [[WindowAcc; NR]; R] {
    let k = a.len() / R;
    let a_rows: [&[i16]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    microkernel::tile_dot_i16_with(tier, a_rows, panel, win0)
}

fn check_shape(t: &[Bf16], expected: usize, what: &'static str) -> Result<(), ArithError> {
    check_len(t.len(), expected, what)
}

fn check_len(actual: usize, expected: usize, what: &'static str) -> Result<(), ArithError> {
    if actual != expected {
        return Err(ArithError::DimensionMismatch {
            what,
            expected,
            actual,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_gemm;
    use crate::fpmac::fp_mac_gemm;

    fn bf_vec(xs: &[f32]) -> Vec<Bf16> {
        xs.iter().map(|&x| Bf16::from_f32(x)).collect()
    }

    /// Deterministic pseudo-random BF16 tensor: magnitudes in a narrow
    /// exponent band (like real LLM tensors) with optional huge outliers.
    fn synth(len: usize, seed: u64, outlier_every: usize) -> Vec<Bf16> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 40) as f32 / (1u64 << 24) as f32; // [0,1)
                let sign = if state & (1 << 13) == 0 { 1.0 } else { -1.0 };
                let base = sign * (0.75 + u * 0.5); // exponents 126..=127
                let v = if outlier_every > 0 && i % outlier_every == outlier_every - 1 {
                    base * 1.0e18
                } else {
                    base
                };
                Bf16::from_f32(v)
            })
            .collect()
    }

    #[test]
    fn bit_exact_vs_golden_no_outliers() {
        let a = synth(8 * 16, 1, 0);
        let b = synth(16 * 4, 2, 0);
        let r = owlp_gemm(&a, &b, 8, 16, 4).unwrap();
        let golden = exact_gemm(&a, &b, 8, 16, 4);
        for (x, y) in r.output.iter().zip(&golden) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(r.act_outliers, 0);
    }

    #[test]
    fn bit_exact_vs_golden_with_outliers() {
        let a = synth(4 * 24, 3, 11);
        let b = synth(24 * 5, 4, 17);
        let r = owlp_gemm(&a, &b, 4, 24, 5).unwrap();
        let golden = exact_gemm(&a, &b, 4, 24, 5);
        for (x, y) in r.output.iter().zip(&golden) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(r.act_outliers > 0);
        assert!(r.total_outlier_products > 0);
    }

    #[test]
    fn owlp_is_at_least_as_accurate_as_fp_baseline() {
        // Against the exact result, OwL-P's error is zero by construction;
        // the sequential FP32 baseline's is ≥ 0. Construct a case where the
        // baseline is strictly worse.
        let a = bf_vec(&[1e30, 0.5, 0.5, 0.5, 0.5, -1e30]);
        let b = bf_vec(&[1.0, 0.5, 0.5, 0.5, 0.5, 1.0]);
        let owlp = owlp_gemm(&a, &b, 1, 6, 1).unwrap().output[0];
        let base = fp_mac_gemm(&a, &b, 1, 6, 1)[0];
        let golden = exact_gemm(&a, &b, 1, 6, 1)[0];
        assert_eq!(owlp, golden);
        assert_eq!(golden, 1.0);
        assert_eq!(base, 0.0); // the baseline lost the small terms
    }

    #[test]
    fn zero_dimensional_edges() {
        let r = owlp_gemm(&[], &[], 0, 0, 0).unwrap();
        assert!(r.output.is_empty());
        let a = bf_vec(&[1.0, 2.0]);
        let r2 = owlp_gemm(&a, &[], 2, 1, 0).unwrap();
        assert!(r2.output.is_empty());
    }

    #[test]
    fn k_zero_gives_zeros() {
        let r = owlp_gemm(&[], &[], 2, 0, 3).unwrap();
        assert_eq!(r.output, vec![0.0; 6]);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = bf_vec(&[1.0; 5]);
        let b = bf_vec(&[1.0; 6]);
        assert!(matches!(
            owlp_gemm(&a, &b, 2, 3, 2),
            Err(ArithError::DimensionMismatch { what: "A", .. })
        ));
    }

    #[test]
    fn nonfinite_input_is_reported() {
        let mut a = bf_vec(&[1.0; 4]);
        a[2] = Bf16::INFINITY;
        let b = bf_vec(&[1.0; 4]);
        assert!(matches!(
            owlp_gemm(&a, &b, 2, 2, 2),
            Err(ArithError::Format(_))
        ));
    }

    #[test]
    fn wavefront_statistics_reported() {
        // Put 3 outliers in one activation row → wavefront of 3.
        let mut xs = vec![1.0f32; 2 * 16];
        xs[1] = 1e20;
        xs[5] = 1e20;
        xs[9] = 1e20;
        let a = bf_vec(&xs);
        let b = bf_vec(&[1.0f32; 16 * 2]);
        let r = owlp_gemm(&a, &b, 2, 16, 2).unwrap();
        assert_eq!(r.max_wavefront_outliers, 3);
    }

    #[test]
    fn parallel_owlp_gemm_is_bit_identical_to_serial() {
        // Column grain is 16384/(k·m) = 16, so n = 64 spans four tiles.
        let (m, k, n) = (16, 64, 64);
        let a = synth(m * k, 21, 9);
        let b = synth(k * n, 22, 13);
        let serial = owlp_par::with_threads(1, || owlp_gemm(&a, &b, m, k, n).unwrap());
        for t in [2, 4, 8] {
            let par = owlp_par::with_threads(t, || owlp_gemm(&a, &b, m, k, n).unwrap());
            assert_eq!(par, serial, "{t} threads");
        }
    }

    #[test]
    fn prepared_with_shape_and_scratch_is_bit_identical() {
        // Shapes deliberately off the MR/NR grid; outliers on both sides.
        let (m, k, n) = (9, 37, 13);
        let acts = [synth(m * k, 31, 9), synth(m * k, 32, 7)];
        let b = synth(k * n, 33, 11);
        let plain = PreparedTensor::new(&b).unwrap();
        assert!(plain.panels().is_none());
        let shaped = PreparedTensor::with_shape(&b, k, n).unwrap();
        assert!(shaped.panels().is_some());
        let mut scratch = GemmScratch::default();
        for a in &acts {
            let fresh =
                owlp_gemm_prepared_with(a, &plain, m, k, n, &mut GemmScratch::default()).unwrap();
            let memo = owlp_gemm_prepared_with(a, &shaped, m, k, n, &mut scratch).unwrap();
            assert_eq!(
                memo, fresh,
                "memoised panels + scratch must not change a bit"
            );
            let golden = exact_gemm(a, &b, m, k, n);
            for (x, y) in memo.output.iter().zip(&golden) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(matches!(
            PreparedTensor::with_shape(&b, k, n + 1),
            Err(ArithError::DimensionMismatch { what: "B", .. })
        ));
    }

    #[test]
    fn prepared_f32_path_matches_rounded_bf16_path() {
        let (m, k, n) = (7, 41, 10);
        let b = synth(k * n, 51, 8);
        let shaped = PreparedTensor::with_shape(&b, k, n).unwrap();
        let mut scratch = GemmScratch::default();
        // Several shapes through ONE scratch, including f32 values that
        // round (inexact in BF16) and an outlier-scale activation.
        for seed in [1u64, 2, 3] {
            let a32: Vec<f32> = (0..m * k)
                .map(|i| {
                    let base = ((i as f32) * 0.137 + seed as f32).sin() * 3.0;
                    if i % 17 == 0 {
                        base * 1e20
                    } else {
                        base
                    }
                })
                .collect();
            let rounded: Vec<Bf16> = a32.iter().map(|&x| Bf16::from_f32(x)).collect();
            let via_bf16 =
                owlp_gemm_prepared_with(&rounded, &shaped, m, k, n, &mut GemmScratch::default())
                    .unwrap();
            let via_f32 =
                owlp_gemm_prepared_f32_with(&a32, &shaped, m, k, n, &mut scratch).unwrap();
            assert_eq!(via_f32, via_bf16, "f32 entry must only move the rounding");
        }
        assert!(matches!(
            owlp_gemm_prepared_f32_with(&[0.0f32; 3], &shaped, m, k, n, &mut scratch),
            Err(ArithError::DimensionMismatch { what: "A", .. })
        ));
        assert!(matches!(
            owlp_gemm_prepared_f32_with(&vec![f32::NAN; m * k], &shaped, m, k, n, &mut scratch),
            Err(ArithError::Format(_))
        ));
    }

    #[test]
    fn abft_sums_match_reference_and_localize_a_strike() {
        let (m, k, n) = (9, 37, 13);
        let a = synth(m * k, 41, 9);
        let b = synth(k * n, 42, 11);
        let enc_a = encode_tensor(&a, None).unwrap();
        let enc_b = encode_tensor(&b, None).unwrap();
        let (pa, pb) = (enc_a.decode_packed(), enc_b.decode_packed());
        let (out, sums) = owlp_gemm_packed_abft(&pa, &pb, None, m, k, n, None).unwrap();
        // The ABFT run must not perturb the plain result by a bit.
        let plain = owlp_gemm(&a, &b, m, k, n).unwrap();
        assert_eq!(out, plain);
        // Independent reference over the sval planes: the raw accumulator
        // of (i, j) is exactly Σ_k a_sval[i,k]·b_sval[k,j].
        let bsum: Vec<i128> = (0..k)
            .map(|kk| (0..n).map(|j| pb.svals()[kk * n + j] as i128).sum())
            .collect();
        for i in 0..m {
            let want: i128 = (0..k)
                .map(|kk| pa.svals()[i * k + kk] as i128 * bsum[kk])
                .sum();
            assert_eq!(sums.rows[i], want, "row {i}");
        }
        // A single lane strike moves exactly one row and one column sum,
        // by exactly ±2^bit — even when f32 rounding masks it in the
        // output (an outlier-dominated element swallows a low-bit flip;
        // the integer checksums never do).
        let strike = LaneStrike {
            i: 4,
            j: 7,
            bit: 19,
        };
        let (_, struck) = owlp_gemm_packed_abft(&pa, &pb, None, m, k, n, Some(strike)).unwrap();
        let delta = struck.rows[4] - sums.rows[4];
        assert_eq!(delta.abs(), 1i128 << 19);
        assert_eq!(struck.cols[7] - sums.cols[7], delta);
        for i in (0..m).filter(|&i| i != 4) {
            assert_eq!(struck.rows[i], sums.rows[i], "row {i} untouched");
        }
        for j in (0..n).filter(|&j| j != 7) {
            assert_eq!(struck.cols[j], sums.cols[j], "col {j} untouched");
        }
        // On an outlier-free workload the same strike is output-visible.
        let a2 = synth(m * k, 43, 0);
        let b2 = synth(k * n, 44, 0);
        let enc_a2 = encode_tensor(&a2, None).unwrap();
        let enc_b2 = encode_tensor(&b2, None).unwrap();
        let (pa2, pb2) = (enc_a2.decode_packed(), enc_b2.decode_packed());
        let (clean2, _) = owlp_gemm_packed_abft(&pa2, &pb2, None, m, k, n, None).unwrap();
        let (bad2, _) = owlp_gemm_packed_abft(&pa2, &pb2, None, m, k, n, Some(strike)).unwrap();
        assert_ne!(
            bad2.output[4 * n + 7].to_bits(),
            clean2.output[4 * n + 7].to_bits()
        );
    }

    #[test]
    fn parallel_abft_sums_are_bit_identical_to_serial() {
        let (m, k, n) = (16, 64, 64);
        let a = synth(m * k, 51, 9);
        let b = synth(k * n, 52, 13);
        let enc_a = encode_tensor(&a, None).unwrap();
        let enc_b = encode_tensor(&b, None).unwrap();
        let (pa, pb) = (enc_a.decode_packed(), enc_b.decode_packed());
        let run = || owlp_gemm_packed_abft(&pa, &pb, None, m, k, n, None).unwrap();
        let serial = owlp_par::with_threads(1, run);
        for t in [2, 4, 8] {
            assert_eq!(owlp_par::with_threads(t, run), serial, "{t} threads");
        }
    }

    /// A `k×n` weight with outliers on most columns, its packed planes and
    /// an activation to multiply it with.
    fn memo_case() -> (
        Vec<Bf16>,
        PackedOperands,
        PackedOperands,
        (usize, usize, usize),
    ) {
        let (m, k, n) = (9, 45, 13);
        let a = synth(m * k, 61, 7);
        let b = synth(k * n, 62, 5);
        let pa = encode_tensor(&a, None).unwrap().decode_packed();
        let pb = encode_tensor(&b, None).unwrap().decode_packed();
        (b, pa, pb, (m, k, n))
    }

    fn run_packed(
        pa: &PackedOperands,
        pb: &PackedOperands,
        panels: Option<&PackedPanels>,
        (m, k, n): (usize, usize, usize),
    ) -> OwlpGemmOutput {
        owlp_gemm_packed(pa, pb, panels, m, k, n, PeConfig::PAPER, AlignUnit::Exact).unwrap()
    }

    #[test]
    fn panel_strike_drops_the_band_memo() {
        let (_, pa, pb, dims @ (_, k, n)) = memo_case();
        let mut panels = pb.pack_panels(k, n);
        let clean = run_packed(&pa, &pb, Some(&panels), dims);
        assert!(
            panels.memoised_bands().is_some(),
            "the first GEMM builds the memo"
        );
        // Strike the panel word of a tagged weight entry: its band
        // coefficient is derived from that word.
        let p = pb.outlier_positions()[pb.tagged_count() / 2] as usize;
        let (kk, j) = (p / n, p % n);
        let index = (j / NR) * panels.padded_k() * NR + kk * NR + j % NR;
        panels.flip_bit(index, 6);
        assert!(panels.memoised_bands().is_none(), "a strike drops the memo");
        let struck = run_packed(&pa, &pb, Some(&panels), dims);
        let mut fresh = pb.pack_panels(k, n);
        fresh.flip_bit(index, 6);
        assert_eq!(struck, run_packed(&pa, &pb, Some(&fresh), dims));
        assert_ne!(struck.output, clean.output, "the strike reaches the output");
        // The involution restores the clean result through a rebuilt memo.
        panels.flip_bit(index, 6);
        assert_eq!(run_packed(&pa, &pb, Some(&panels), dims), clean);
    }

    #[test]
    fn clone_and_eq_ignore_the_band_memo() {
        let (_, pa, pb, dims @ (_, k, n)) = memo_case();
        let panels = pb.pack_panels(k, n);
        let bare = panels.clone();
        let out = run_packed(&pa, &pb, Some(&panels), dims);
        assert!(panels.memoised_bands().is_some());
        assert!(bare.memoised_bands().is_none());
        assert_eq!(panels, bare, "equality compares the panel words only");
        let copy = panels.clone();
        assert_eq!(copy, panels);
        assert_eq!(copy.memoised_bands(), panels.memoised_bands());
        assert_eq!(run_packed(&pa, &pb, Some(&copy), dims), out);
        assert_eq!(run_packed(&pa, &pb, Some(&bare), dims), out);
    }

    #[test]
    fn band_memo_is_built_once_across_calls_and_threads() {
        let (b, pa, pb, dims @ (m, k, n)) = memo_case();
        let panels = pb.pack_panels(k, n);
        // All four first calls race for the unbuilt memo.
        let start = std::sync::Barrier::new(4);
        let outs: Vec<(OwlpGemmOutput, usize)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let (pa, pb, panels, start) = (&pa, &pb, &panels, &start);
                    s.spawn(move || {
                        start.wait();
                        let out = owlp_par::with_threads(1 + t % 2 * 3, || {
                            run_packed(pa, pb, Some(panels), dims)
                        });
                        let memo = panels.memoised_bands().expect("built by the call");
                        (out, memo as *const owlp_format::OutlierBands as usize)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let memo = panels.memoised_bands().unwrap() as *const owlp_format::OutlierBands as usize;
        for (out, seen) in &outs {
            assert_eq!(out, &outs[0].0);
            assert_eq!(*seen, memo, "every call reads the one memo");
        }
        assert_eq!(run_packed(&pa, &pb, Some(&panels), dims), outs[0].0);
        let again = panels.memoised_bands().unwrap() as *const owlp_format::OutlierBands as usize;
        assert_eq!(again, memo, "later calls reuse it");
        // `PreparedTensor::with_shape` memoises through the same panels.
        let shaped = PreparedTensor::with_shape(&b, k, n).unwrap();
        assert!(shaped.panels().unwrap().memoised_bands().is_none());
        let a: Vec<Bf16> = pa.to_bf16_vec();
        owlp_gemm_prepared_with(&a, &shaped, m, k, n, &mut GemmScratch::default()).unwrap();
        assert!(shaped.panels().unwrap().memoised_bands().is_some());
    }

    #[test]
    fn small_weights_are_planned_per_call_without_a_memo() {
        // 16×8 = 128 weight elements: one decode head's key column, say.
        let (m, k, n) = (3, 16, 8);
        let pa = encode_tensor(&synth(m * k, 71, 3), None)
            .unwrap()
            .decode_packed();
        let pb = encode_tensor(&synth(k * n, 72, 3), None)
            .unwrap()
            .decode_packed();
        let panels = pb.pack_panels(k, n);
        let first = run_packed(&pa, &pb, Some(&panels), (m, k, n));
        assert!(first.total_outlier_products > 0, "the case has outliers");
        assert!(panels.memoised_bands().is_none());
        // The second call reuses the thread's kept buffers, bit for bit.
        assert_eq!(run_packed(&pa, &pb, Some(&panels), (m, k, n)), first);
        assert_eq!(run_packed(&pa, &pb, None, (m, k, n)), first);
    }

    #[test]
    fn large_k_spanning_many_pes() {
        let a = synth(2 * 256, 7, 40);
        let b = synth(256 * 3, 8, 33);
        let r = owlp_gemm(&a, &b, 2, 256, 3).unwrap();
        let golden = exact_gemm(&a, &b, 2, 256, 3);
        for (x, y) in r.output.iter().zip(&golden) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
